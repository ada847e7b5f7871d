"""Command line behavior: exit codes, summaries, files, and schemas."""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import anonsim
from anonsim import keygraph, protocols, serialize
from anonsim.anonymity import MAX_SAMPLED_BYTES, PROTOCOLS
from anonsim.cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERDICT,
    MAX_PLAYERS,
    VERDICT_PROTOCOLS,
    main,
)
from anonsim.keygraph import MAX_KEYS
from anonsim.sampling import SAMPLERS

SCHEMAS = Path(anonsim.__file__).parent / "schemas"
RUN_SCHEMA = json.loads((SCHEMAS / "run_record.schema.json").read_text(encoding="utf-8"))
VERDICT_SCHEMA = json.loads(
    (SCHEMAS / "verdict_report.schema.json").read_text(encoding="utf-8")
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _xor(entries):
    """Parity of one recorded broadcast round."""
    return sum(int(e["bits"]) for e in entries) % 2


# ------------------------------------------------------------ protocol runs


def test_anon_run_and_record(tmp_path, capsys):
    out = tmp_path / "run.json"
    code, stdout, _ = _run(
        capsys, "anon", "--n", "5", "--sender", "2", "--d", "1",
        "--seed", "7", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "decoded=1" in stdout
    assert f"record: {out}" in stdout
    record = _load(out)
    jsonschema.validate(record, RUN_SCHEMA)
    assert record["protocol"] == "anon"
    assert record["n"] == 5
    assert record["verdicts"]["decoded"] == 1
    assert len(record["rounds"][0]) == 5


def test_anon_parity_mode(tmp_path, capsys):
    out = tmp_path / "parity.json"
    code, stdout, _ = _run(
        capsys, "anon", "--n", "4", "--flippers", "0,2,3",
        "--seed", "1", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "parity=1" in stdout
    jsonschema.validate(_load(out), RUN_SCHEMA)


@pytest.mark.parametrize(
    "flag", [["--withhold", "1"], ["--disruptors", "1"], ["--sender", "1"], ["--d", "1"]]
)
def test_anon_parity_mode_rejects_send_mode_flags(tmp_path, capsys, flag):
    # parity mode runs anon_multiparty_parity, which takes none of these
    out = tmp_path / "parity.json"
    code, stdout, stderr = _run(
        capsys, "anon", "--n", "4", "--flippers", "0,2", *flag,
        "--seed", "1", "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)
    assert flag[0] in stderr


def test_anon_withhold_aborts_with_exit_3(tmp_path, capsys):
    out = tmp_path / "abort.json"
    code, stdout, _ = _run(
        capsys, "anon", "--n", "4", "--sender", "0", "--d", "1",
        "--withhold", "2", "--seed", "3", "--out", str(out),
    )
    assert code == EXIT_ABORT
    assert "aborted=true" in stdout
    record = _load(out)
    jsonschema.validate(record, RUN_SCHEMA)
    assert record["aborted"] is True
    assert record["verdicts"]["decoded"] is None


def test_anon_missing_sender_is_config_error(tmp_path, capsys):
    code, _, stderr = _run(capsys, "anon", "--n", "4", "--seed", "0")
    assert code == EXIT_CONFIG
    assert "error:" in stderr


def test_anon_bad_n_is_config_error(tmp_path, capsys):
    code, _, stderr = _run(
        capsys, "anon", "--n", "2", "--sender", "0", "--d", "1", "--seed", "0"
    )
    assert code == EXIT_CONFIG
    assert "error:" in stderr


def test_ae_run_reports_exact_phase(tmp_path, capsys):
    out = tmp_path / "ae.json"
    code, stdout, _ = _run(
        capsys, "ae", "--n", "5", "--sender", "1", "--receiver", "3",
        "--seed", "11", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "phase_numerator=0" in stdout
    record = _load(out)
    jsonschema.validate(record, RUN_SCHEMA)
    assert record["verdicts"]["phase_numerator"] == 0
    assert record["verdicts"]["fidelity_with_epr"] == pytest.approx(1.0, abs=1e-12)


def test_anonq_run_unit_fidelity(tmp_path, capsys):
    out = tmp_path / "anonq.json"
    code, stdout, _ = _run(
        capsys, "anonq", "--n", "4", "--sender", "0", "--receiver", "2",
        "--alpha", "0.6", "--beta", "0.8j", "--seed", "5", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "fidelity=1.000000000000" in stdout
    record = _load(out)
    jsonschema.validate(record, RUN_SCHEMA)
    assert len(record["rounds"]) == 3


def test_anonq_rejects_zero_amplitudes(capsys):
    code, _, stderr = _run(
        capsys, "anonq", "--n", "4", "--sender", "0", "--receiver", "2",
        "--alpha", "0", "--beta", "0", "--seed", "5",
    )
    assert code == EXIT_CONFIG
    assert "error:" in stderr
    assert "must not both be zero" in stderr


def test_anonq_accepts_negative_amplitude_as_separate_value(tmp_path, capsys):
    out = tmp_path / "anonq.json"
    code, stdout, _ = _run(
        capsys, "anonq", "--n", "4", "--sender", "0", "--receiver", "2",
        "--alpha", "0.6", "--beta", "-0.8j", "--seed", "5", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "fidelity=1.000000000000" in stdout
    assert _load(out)["config"]["beta"] == "-0.8j"


def _assert_config_error(code, stdout, stderr, out=None):
    """Exit 2 with one `error:` line, no summary and no file."""
    assert code == EXIT_CONFIG
    assert stderr.startswith("error:")
    assert len(stderr.splitlines()) == 1
    assert stdout == ""
    assert out is None or not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "alpha, beta",
    [("nan", "0"), ("inf", "0"), ("0.6", "-infj"), ("nan+1j", "0"),
     ("1e308", "0"), ("1e200+1e200j", "0"), ("1e154", "1e154")],
)
def test_anonq_rejects_non_finite_or_overflowing_amplitudes(tmp_path, capsys, alpha, beta):
    out = tmp_path / "anonq.json"
    code, stdout, stderr = _run(
        capsys, "anonq", "--n", "4", "--sender", "0", "--receiver", "2",
        "--alpha", alpha, "--beta", beta, "--seed", "5", "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, beta", [("1e-170", "0"), ("1e-160", "1e-160")])
def test_anonq_rejects_underflowing_amplitudes(tmp_path, capsys, alpha, beta):
    out = tmp_path / "anonq.json"
    code, stdout, stderr = _run(
        capsys, "anonq", "--n", "4", "--sender", "0", "--receiver", "2",
        "--alpha", alpha, "--beta", beta, "--seed", "5", "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)
    assert "too small to normalize" in stderr


def test_anonq_normalizes_large_finite_amplitudes(tmp_path, capsys):
    out = tmp_path / "anonq.json"
    code, stdout, _ = _run(
        capsys, "anonq", "--n", "4", "--sender", "0", "--receiver", "2",
        "--alpha", "6e100", "--beta", "8e100j", "--seed", "5", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "fidelity=1.000000000000" in stdout


def test_anonq_normalizes_small_finite_amplitudes(tmp_path, capsys):
    out = tmp_path / "anonq.json"
    code, stdout, _ = _run(
        capsys, "anonq", "--n", "4", "--sender", "0", "--receiver", "2",
        "--alpha", "6e-150", "--beta", "8e-150j", "--seed", "5", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "fidelity=1.000000000000" in stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("anon", "--n", "4", "--sender", "1", "--d", "1", "--seed", str(2**64)),
        ("anon", "--n", "4", "--flippers", "0", "--seed", "-1"),
        ("collision", "--n", "4", "--wishers", "1", "--seed", "0", "--stream-id", str(2**64)),
        ("dcnet", "--graph", "cycle:4", "--sender", "0", "--d", "1", "--seed", str(2**70)),
        ("verdict", "--protocol", "anon", "--n", "3", "--mode", "sampled", "--seed", str(2**64)),
        ("sweep", "anon", "--n", "3:3", "--seed", str(2**64)),
    ],
)
def test_out_of_range_seed_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    code, stdout, stderr = _run(capsys, *argv, "--out", str(out))
    _assert_config_error(code, stdout, stderr, out)
    assert argv[-1] in stderr


def test_collision_summary_and_record(tmp_path, capsys):
    out = tmp_path / "col.json"
    code, stdout, _ = _run(
        capsys, "collision", "--n", "8", "--wishers", "1,2,3",
        "--seed", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    # k=3 -> first odd round 1
    assert "verdict=not_exactly_one" in stdout
    assert "first_odd_round=1" in stdout
    record = _load(out)
    jsonschema.validate(record, RUN_SCHEMA)
    assert record["format"] == 3
    assert record["verdicts"]["first_odd_round"] == 1
    # both executed rounds are recorded, even then odd
    assert [_xor(rnd) for rnd in record["rounds"]] == record["verdicts"]["parities"] == [0, 1]
    assert all(len(rnd) == 8 for rnd in record["rounds"])
    assert sorted(record["ledger"]) == [str(p) for p in range(8)]


def test_collision_single_wisher(tmp_path, capsys):
    out = tmp_path / "col1.json"
    code, stdout, _ = _run(
        capsys, "collision", "--n", "6", "--wishers", "4",
        "--seed", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "verdict=exactly_one" in stdout
    assert "first_odd_round=none" in stdout


def test_dcnet_run_with_trace(tmp_path, capsys):
    out = tmp_path / "dc.json"
    code, stdout, _ = _run(
        capsys, "dcnet", "--graph", "complete:4", "--sender", "2", "--d", "1",
        "--trace", "--seed", "9", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "decoded=1" in stdout
    assert "traced=2" in stdout
    record = _load(out)
    jsonschema.validate(record, RUN_SCHEMA)
    assert record["verdicts"]["traced"] == 2


def test_dcnet_trace_of_zero_finds_nobody(tmp_path, capsys):
    out = tmp_path / "dc0.json"
    code, stdout, _ = _run(
        capsys, "dcnet", "--graph", "complete:4", "--sender", "2", "--d", "0",
        "--trace", "--seed", "9", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "traced=none" in stdout


def test_dcnet_unknown_graph_family(capsys):
    code, _, stderr = _run(
        capsys, "dcnet", "--graph", "torus:4", "--sender", "0", "--d", "1",
        "--seed", "0",
    )
    assert code == EXIT_CONFIG
    assert "error:" in stderr


# ----------------------------------------------------------------- keygraph


@pytest.mark.parametrize("missing", ["num_nodes", "adjacency"])
def test_graph_json_missing_key_is_config_error(tmp_path, capsys, missing):
    graph = {"num_nodes": 3, "adjacency": {"0": [1], "1": [0, 2], "2": [1]}}
    del graph[missing]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph), encoding="utf-8")
    code, _, stderr = _run(
        capsys, "keygraph", "--graph", str(path), "--out", str(tmp_path / "k.json"),
    )
    assert code == EXIT_CONFIG
    assert stderr.startswith("error:")
    assert len(stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "adjacency",
    [
        {"0": 1, "1": [0]},  # a neighbor list that is not a list
        [[1], [0]],  # an adjacency that is not an object
        {"0": [1, "2"], "1": [0]},  # a neighbor that is not an int
        {"0": [1, None], "1": [0]},
        {"0": [[1]], "1": [0]},
    ],
)
def test_graph_json_malformed_adjacency_is_config_error(tmp_path, capsys, adjacency):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"num_nodes": 3, "adjacency": adjacency}), encoding="utf-8")
    code, _, stderr = _run(
        capsys, "keygraph", "--graph", str(path), "--out", str(tmp_path / "k.json"),
    )
    assert code == EXIT_CONFIG
    assert stderr.startswith("error:")
    assert len(stderr.splitlines()) == 1


def test_out_under_a_regular_file_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code, _, stderr = _run(
        capsys, "anon", "--n", "4", "--sender", "0", "--d", "1", "--seed", "1",
        "--out", str(blocker / "x.json"),
    )
    assert code == EXIT_CONFIG
    assert stderr.startswith("error:")
    assert len(stderr.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, capsys, umask, mode):
    out = tmp_path / "run.json"
    old = os.umask(umask)
    try:
        code, _, _ = _run(
            capsys, "anon", "--n", "4", "--sender", "0", "--d", "1", "--seed", "1",
            "--out", str(out),
        )
    finally:
        os.umask(old)
    assert code == EXIT_OK
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_keygraph_audit(tmp_path, capsys):
    out = tmp_path / "kg.json"
    code, stdout, _ = _run(
        capsys, "keygraph", "--graph", "cycle:6", "--colluders", "0,3",
        "--bound-t", "1", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "tolerance=1" in stdout
    assert "partitioning=true" in stdout
    assert "key_lower_bound=6" in stdout
    report = _load(out)
    assert report["tolerance"] == 1
    assert report["partitioning"] is True
    assert report["key_lower_bound"] == {"t": 1, "keys": 6}


def test_keygraph_bound_has_no_size_limit(tmp_path, capsys):
    out = tmp_path / "kg.json"
    code, stdout, _ = _run(
        capsys, "keygraph", "--graph", "complete:8", "--bound-t", "3", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "key_lower_bound=16" in stdout
    assert _load(out)["key_lower_bound"] == {"t": 3, "keys": 16}


@pytest.mark.parametrize(
    "argv",
    [
        "anon --n 4 --sender 0 --d 1 --withhold 2,2 --seed 1",
        "anon --n 4 --flippers 0,0 --seed 1",
        "anon --n 4 --sender 0 --d 1 --disruptors 2,2 --seed 1",
        "ae --n 4 --sender 0 --receiver 1 --withhold 3,3 --seed 1",
        "collision --n 8 --wishers 1,1,2 --seed 2",
        "keygraph --graph cycle:6 --colluders 0,3,0",
        "verdict --protocol anon --n 5 --colluders 4,4",
        "sweep anon --n 3 --d 1,1",
    ],
)
def test_repeated_id_is_config_error(tmp_path, capsys, argv):
    # the runs take sets, so a repeat would make the record disagree with the run
    out = tmp_path / "out.json"
    code, stdout, stderr = _run(capsys, *argv.split(), "--out", str(out))
    _assert_config_error(code, stdout, stderr, out)
    assert "repeats an id" in stderr


def test_keygraph_reads_edge_list_file(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    out = tmp_path / "kg.json"
    code, stdout, _ = _run(
        capsys, "keygraph", "--graph", str(graph_file), "--out", str(out),
    )
    assert code == EXIT_OK
    assert "nodes=4 edges=4" in stdout
    assert "tolerance=1" in stdout


# ----------------------------------------------------------------- verdicts


def test_verdict_pass_and_report(tmp_path, capsys):
    out = tmp_path / "v.json"
    code, stdout, _ = _run(
        capsys, "verdict", "--protocol", "anon", "--n", "4", "--traceless",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert "posterior_max=0.25 baseline=0.25 PASS" in stdout
    report = _load(out)
    jsonschema.validate(report, VERDICT_SCHEMA)
    assert report["verdict"] is True
    assert report["hijacked_all"] is True


def test_verdict_fail_exit_code(tmp_path, capsys):
    out = tmp_path / "v.json"
    code, stdout, _ = _run(
        capsys, "verdict", "--protocol", "dcnet", "--n", "4",
        "--graph", "complete:4", "--traceless", "--out", str(out),
    )
    assert code == EXIT_VERDICT
    assert "FAIL" in stdout
    report = _load(out)
    jsonschema.validate(report, VERDICT_SCHEMA)
    assert report["verdict"] is False
    assert report["posterior_max"] == 1.0


def test_verdict_sampled_mode(tmp_path, capsys):
    out = tmp_path / "vs.json"
    code, stdout, _ = _run(
        capsys, "verdict", "--protocol", "anon", "--n", "3",
        "--mode", "sampled", "--trials", "2000", "--seed", "123",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert "PASS" in stdout
    report = _load(out)
    jsonschema.validate(report, VERDICT_SCHEMA)
    assert report["mode"] == "sampled"
    assert report["trials"] == 2000
    assert report["max_tv"] is not None


_ADDRESS_SPACE_CHILD = """
import resource, sys
limit = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from anonsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("protocol, limit", [("anon", 12), ("ae", 12), ("anonq", 6)])
def test_huge_exact_verdict_is_refused_before_any_work_on_n(tmp_path, protocol, limit):
    # in a child whose address space is capped at 1 GiB, so that work
    # that grows with n fails at once instead of loading the machine
    src = os.path.dirname(os.path.dirname(os.path.abspath(anonsim.__file__)))
    out = tmp_path / "v.json"
    run = subprocess.run(
        [sys.executable, "-c", _ADDRESS_SPACE_CHILD, "verdict", "--protocol", protocol,
         "--n", "1000000000", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_CONFIG, run.stderr
    assert run.stdout == ""
    assert run.stderr == (
        f"error: exact enumeration supports n <= {limit} for this protocol; "
        "use sampled mode for larger groups\n"
    )
    assert not out.exists()


_PLAYERS_PAST = f"error: --n 100000000: at most {MAX_PLAYERS} players are supported\n"

# argv -> the one line on stderr
_OVERSIZED = {
    "anon --n 100000000 --sender 0 --d 1 --seed 1": _PLAYERS_PAST,
    "anon --n 100000000 --flippers 0 --seed 1": _PLAYERS_PAST,
    "ae --n 100000000 --sender 0 --receiver 1 --seed 1": _PLAYERS_PAST,
    "anonq --n 100000000 --sender 0 --receiver 1 --seed 1": _PLAYERS_PAST,
    "collision --n 100000000 --seed 1": _PLAYERS_PAST,
    "dcnet --graph path:1000000000 --sender 0 --d 1 --seed 1":
        f"error: --graph path:1000000000 has 999999999 keys; at most {MAX_KEYS} "
        "are supported\n",
    "keygraph --graph cycle:1000000000":
        f"error: --graph cycle:1000000000 has 1000000000 keys; at most {MAX_KEYS} "
        "are supported\n",
    "verdict --protocol dcnet --n 100000 --graph complete:100000":
        f"error: --graph complete:100000 has 4999950000 keys; at most {MAX_KEYS} "
        "are supported\n",
    # 10^9 candidates x 10 trials x (10^9 view bits + 64), plus the count
    # matrix: 10^9 x 10^10 cells of 8 bytes
    "verdict --protocol anon --n 1000000000 --mode sampled --trials 10 --seed 1":
        f"error: sampled mode lays out at most {MAX_SAMPLED_BYTES} bytes of views and "
        "counts, and this verdict needs 90000000640000000000; use fewer trials\n",
}


@pytest.mark.parametrize("argv", list(_OVERSIZED))
def test_oversized_input_is_refused_before_it_is_built(tmp_path, argv):
    # in a child whose address space is capped at 1 GiB: each of these
    # ended in a MemoryError there before its size was checked
    src = os.path.dirname(os.path.dirname(os.path.abspath(anonsim.__file__)))
    out = tmp_path / "out.json"
    run = subprocess.run(
        [sys.executable, "-c", _ADDRESS_SPACE_CHILD, *argv.split(), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
    )
    assert run.returncode == EXIT_CONFIG, run.stderr
    assert run.stdout == ""
    assert run.stderr == _OVERSIZED[argv]
    assert not out.exists()


# graph file name, contents -> the one line on stderr
_OVERSIZED_FILES = {
    "far.txt": ("0 1\n1 99999999\n",
                f"error: line 2: node 99999999; at most {MAX_KEYS + 1} nodes are supported\n"),
    "wide.json": ('{"num_nodes": 100000000, "adjacency": {}}',
                  f"error: num_nodes 100000000: at most {MAX_KEYS + 1} nodes are supported\n"),
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED_FILES))
@pytest.mark.parametrize("command", [
    "keygraph --graph {}",
    "dcnet --graph {} --sender 0 --d 1 --seed 1",
    "verdict --protocol dcnet --n 100000000 --graph {}",
])
def test_oversized_graph_file_is_refused_while_it_is_read(tmp_path, name, command):
    # in a child whose address space is capped at 1 GiB: each of these
    # ended in a MemoryError there while the graph file went unchecked
    src = os.path.dirname(os.path.dirname(os.path.abspath(anonsim.__file__)))
    text, error = _OVERSIZED_FILES[name]
    graph = tmp_path / name
    graph.write_text(text, encoding="utf-8")
    out = tmp_path / "out.json"
    run = subprocess.run(
        [sys.executable, "-c", _ADDRESS_SPACE_CHILD, *command.format(graph).split(),
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
    )
    assert run.returncode == EXIT_CONFIG, run.stderr
    assert run.stdout == ""
    assert run.stderr == error
    assert not out.exists()


def test_run_commands_take_the_largest_group(tmp_path, capsys):
    out = tmp_path / "anon.json"
    code, _, _ = _run(
        capsys, "anon", "--n", str(MAX_PLAYERS), "--sender", "0", "--d", "1",
        "--seed", "1", "--out", str(out),
    )
    assert code == EXIT_OK
    assert len(_load(out)["rounds"][0]) == MAX_PLAYERS


def test_verdict_two_players_is_config_error(tmp_path, capsys):
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", "anon", "--n", "2", "--out", str(out),
    )
    assert code == EXIT_CONFIG
    assert "PASS" not in stdout
    assert stderr.startswith("error:")
    assert len(stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_verdict_dcnet_two_players_is_config_error(tmp_path, capsys, mode):
    # the report schema takes n >= 3, as the GHZ verdicts do
    assert VERDICT_SCHEMA["properties"]["n"]["minimum"] == 3
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", "dcnet", "--n", "2", "--graph", "complete:2",
        "--mode", mode, "--trials", "50", "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)
    assert stderr == "error: need at least 3 players, got 2\n"
    # a two-player XOR network round is still a valid run record
    code, _, _ = _run(
        capsys, "dcnet", "--graph", "complete:2", "--sender", "0", "--d", "1",
        "--seed", "0", "--out", str(out),
    )
    assert code == EXIT_OK
    jsonschema.validate(_load(out), RUN_SCHEMA)


def test_verdict_takes_no_stream_id(tmp_path, capsys):
    # a sampled report records its seed but no stream, so the verdict
    # command draws from stream 0 only; the run commands keep --stream-id
    out = tmp_path / "v.json"
    with pytest.raises(SystemExit) as exc:
        main([
            "verdict", "--protocol", "anon", "--n", "4", "--traceless", "--mode",
            "sampled", "--trials", "500", "--stream-id", "5", "--out", str(out),
        ])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --stream-id 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("protocol", ["anon", "ae", "anonq"])
def test_verdict_ghz_protocol_rejects_a_graph(tmp_path, capsys, protocol, mode):
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", protocol, "--n", "4", "--graph", "complete:4",
        "--mode", mode, "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("protocol", ["anon", "ae", "anonq"])
@pytest.mark.parametrize("n", [-2, 0, 1, 2])
def test_verdict_ghz_protocol_needs_three_players(tmp_path, capsys, n, protocol, mode):
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", protocol, "--n", str(n), "--mode", mode,
        "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)
    assert stderr == f"error: need at least 3 players, got {n}\n"


@pytest.mark.parametrize(
    "args",
    [("--n", "5", "--traceless"), ("--n", "6", "--t", "3")],
)
def test_verdict_sampled_ae_wider_than_a_byte(tmp_path, capsys, args):
    # each view row has more than 8 bits
    out = tmp_path / "v.json"
    code, _, stderr = _run(
        capsys, "verdict", "--protocol", "ae", *args, "--mode", "sampled",
        "--trials", "100", "--seed", "1", "--out", str(out),
    )
    assert code in (EXIT_OK, EXIT_VERDICT), stderr
    jsonschema.validate(_load(out), VERDICT_SCHEMA)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("protocol", VERDICT_PROTOCOLS)
def test_verdict_rejects_negative_t(tmp_path, capsys, protocol, mode):
    # the report schema allows t >= 0 only
    assert VERDICT_SCHEMA["properties"]["t"]["minimum"] == 0
    graph = ["--graph", "complete:4"] if protocol == "dcnet" else []
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", protocol, "--n", "4", "--t", "-1", *graph,
        "--mode", mode, "--trials", "50", "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)
    assert stderr == "error: t must be nonnegative, got t=-1\n"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verdict_sampled_without_trials_is_config_error(tmp_path, capsys, trials):
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", "dcnet", "--n", "4", "--graph", "star:4",
        "--traceless", "--mode", "sampled", "--trials", trials, "--out", str(out),
    )
    assert code == EXIT_CONFIG
    assert "PASS" not in stdout
    assert stderr.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize(
    "flag", [("--seed", "-3"), ("--trials", "0")], ids=["seed", "trials"]
)
def test_verdict_checks_seed_and_trials_in_either_mode(tmp_path, capsys, flag, mode):
    # an exact verdict draws nothing, but a bad value is still a bad input
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", "anon", "--n", "4", "--mode", mode, *flag,
        "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)
    assert flag[1] in stderr


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_verdict_anon_has_no_receiver(tmp_path, capsys, mode):
    # anon_send has no receiver role, so a receiver verdict would pass vacuously
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", "anon", "--n", "4", "--target", "receiver",
        "--mode", mode, "--trials", "50", "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)
    assert "no receiver" in stderr


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_verdict_rejects_bad_tolerance(tmp_path, capsys, mode, tolerance):
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", "anon", "--n", "4", "--traceless",
        "--mode", mode, "--trials", "50", "--tolerance", tolerance, "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)


@pytest.mark.parametrize(
    "argv",
    [
        "--protocol anon --n 4 --traceless --tolerance 0",
        # posterior_max 1 against a baseline of 1/4 once read PASS here
        "--protocol dcnet --n 4 --graph complete:4 --traceless --tolerance 1",
    ],
)
def test_verdict_refuses_tolerance_in_exact_mode(tmp_path, capsys, argv):
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(capsys, "verdict", *argv.split(), "--out", str(out))
    _assert_config_error(code, stdout, stderr, out)
    assert "sampled mode only" in stderr


def test_verdict_protocol_choices_are_the_registered_protocols():
    assert set(VERDICT_PROTOCOLS) == set(PROTOCOLS) == set(SAMPLERS)


def test_verdict_colluders_flag(tmp_path, capsys):
    out = tmp_path / "vc.json"
    code, stdout, _ = _run(
        capsys, "verdict", "--protocol", "dcnet", "--n", "5",
        "--graph", "star:5", "--colluders", "0", "--out", str(out),
    )
    assert code == EXIT_VERDICT
    report = _load(out)
    assert report["t"] == 1
    assert report["posterior_max"] == 1.0


# ------------------------------------------------------------ reproducibility


def test_same_seed_same_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = _run(
            capsys, "anon", "--n", "6", "--sender", "3", "--d", "0",
            "--seed", "4242", "--out", str(path),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_different_stream_ids_differ(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _run(capsys, "ae", "--n", "6", "--sender", "0", "--receiver", "5",
         "--seed", "4242", "--out", str(a))
    _run(capsys, "ae", "--n", "6", "--sender", "0", "--receiver", "5",
         "--seed", "4242", "--stream-id", "1", "--out", str(b))
    ra, rb = _load(a), _load(b)
    assert ra["stream_id"] == 0 and rb["stream_id"] == 1
    assert ra["rounds"] != rb["rounds"]


def test_outdir_env_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ANONSIM_OUTDIR", str(tmp_path))
    code, stdout, _ = _run(
        capsys, "anon", "--n", "3", "--sender", "0", "--d", "1", "--seed", "8",
    )
    assert code == EXIT_OK
    expected = tmp_path / "anon_n3_seed8.json"
    assert expected.exists()
    assert str(expected) in stdout


def test_record_serialization_is_sorted_and_newline_terminated(tmp_path, capsys):
    out = tmp_path / "r.json"
    _run(capsys, "anon", "--n", "3", "--sender", "0", "--d", "1",
         "--seed", "8", "--out", str(out))
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text == serialize.dumps(json.loads(text))


# -------------------------------------------------------------------- sweeps


def test_sweep_collision_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = _run(
        capsys, "sweep", "collision", "--n", "2:10", "--seed", "0",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert "failures=0" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    expected_rows = sum(n + 1 for n in range(2, 11))
    assert len(lines) == expected_rows + 1
    header = lines[0].split(",")
    match_col = header.index("match")
    assert all(row.split(",")[match_col] == "true" for row in lines[1:])


def test_sweep_anon_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = _run(
        capsys, "sweep", "anon", "--n", "3:5", "--seed", "1", "--out", str(out),
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    expected_rows = sum(2 * n for n in range(3, 6))
    assert len(lines) == expected_rows + 1
    ok_col = lines[0].split(",").index("ok")
    assert all(row.split(",")[ok_col] == "true" for row in lines[1:])


def test_sweep_graphs_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = _run(
        capsys, "sweep", "graphs", "--nodes", "4", "--out", str(out),
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == (1 << 6) + 1
    header = lines[0].split(",")
    tol_col = header.index("tolerance")
    by_mask = {int(row.split(",")[0]): row.split(",") for row in lines[1:]}
    assert by_mask[63][tol_col] == "2"  # complete graph on 4 nodes
    assert by_mask[0][tol_col] == "-1"  # empty graph


@pytest.mark.parametrize("nodes", ["1", "-2", "7"])
def test_sweep_graphs_bad_node_count_is_config_error(tmp_path, capsys, nodes):
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = _run(
        capsys, "sweep", "graphs", "--nodes", nodes, "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)


@pytest.mark.parametrize(
    "family,flags",
    [
        ("anon", ["--n", "1:2"]),  # below anon's 3 players
        ("anon", ["--n", "5:3"]),  # empty span
        ("collision", ["--n", "0:1"]),  # below collision detection's 2 players
        ("anon", ["--n", "3:3", "--d", "2"]),  # not a bit
    ],
)
def test_sweep_bad_span_or_bit_is_config_error(tmp_path, capsys, family, flags):
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = _run(capsys, "sweep", family, *flags, "--out", str(out))
    _assert_config_error(code, stdout, stderr, out)


def test_sweep_spans_at_the_minimum_group_run(tmp_path, capsys):
    for family, span in (("anon", "3"), ("collision", "2:2")):
        out = tmp_path / f"{family}.csv"
        code, stdout, _ = _run(capsys, "sweep", family, "--n", span, "--out", str(out))
        assert code == EXIT_OK
        assert "failures=0" in stdout


@pytest.mark.parametrize(
    "family, flags, module, name",
    [
        ("collision", ["--n", "2:4"], protocols, "collision_detect"),
        ("anon", ["--n", "3:4"], protocols, "anon_send"),
        ("graphs", ["--nodes", "3"], keygraph, "tolerance"),
    ],
)
def test_sweep_cells_keep_value_errors_only(tmp_path, capsys, monkeypatch,
                                            family, flags, module, name):
    # a ValueError is a failed cell and stays in its row; any other
    # exception is a fault in the program and ends the sweep
    real = getattr(module, name)
    for error in (ValueError, TypeError):
        calls = []

        def broken(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise error("broken cell")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, broken)
        out = tmp_path / f"{error.__name__}.csv"
        argv = ["sweep", family, *flags, "--out", str(out)]
        if error is ValueError:
            code, stdout, _ = _run(capsys, *argv)
            assert code == EXIT_OK
            assert "failures=1" in stdout
            assert out.read_text(encoding="utf-8").count("broken cell") == 1
        else:
            with pytest.raises(TypeError, match="broken cell"):
                main(argv)
            assert not out.exists()


def test_sweep_reproducible_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        _run(capsys, "sweep", "collision", "--n", "2:6", "--seed", "77",
             "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------- schemas


def test_schemas_are_valid_json_schema():
    for schema in (RUN_SCHEMA, VERDICT_SCHEMA):
        jsonschema.Draft202012Validator.check_schema(schema)


def test_run_schema_rejects_malformed_records():
    bad = {"protocol": "anon", "n": 3}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, RUN_SCHEMA)
