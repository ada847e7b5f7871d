"""Command line behavior: exit codes, summaries, files, and schemas."""

from __future__ import annotations

import json

import jsonschema
import pytest

from anonsim import serialize
from anonsim.anonymity import PROTOCOLS
from anonsim.cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERDICT,
    VERDICT_PROTOCOLS,
    main,
)
from anonsim.sampling import SAMPLERS

RUN_SCHEMA = json.loads(serialize.schema_text(serialize.RUN_RECORD_SCHEMA))
VERDICT_SCHEMA = json.loads(serialize.schema_text(serialize.VERDICT_REPORT_SCHEMA))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


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
    assert record["verdicts"]["first_odd_round"] == 1


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
@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_verdict_rejects_bad_tolerance(tmp_path, capsys, mode, tolerance):
    out = tmp_path / "v.json"
    code, stdout, stderr = _run(
        capsys, "verdict", "--protocol", "anon", "--n", "4", "--traceless",
        "--mode", mode, "--trials", "50", "--tolerance", tolerance, "--out", str(out),
    )
    _assert_config_error(code, stdout, stderr, out)


def test_verdict_zero_tolerance_passes_at_the_baseline(tmp_path, capsys):
    out = tmp_path / "v.json"
    code, stdout, _ = _run(
        capsys, "verdict", "--protocol", "anon", "--n", "4", "--traceless",
        "--tolerance", "0", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "PASS" in stdout


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
