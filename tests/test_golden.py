"""Golden outputs: seeded records, sweeps and verdict reports, byte for byte.

Each case runs one `anonsim` command and compares the file it writes,
its exit code and its summary line against the files under
tests/golden/.  A change that alters any of these bytes changes the
on-disk format; regenerate on purpose with
`PYTHONPATH=src python tests/test_golden.py` and announce the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anonsim
from anonsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
SUMMARIES = GOLDEN / "summaries.txt"

CASES = {
    # README run commands, plus the abort and disruption branches
    "anon_send": "anon --n 5 --sender 2 --d 1 --seed 7",
    "anon_parity": "anon --n 4 --flippers 0,2,3 --seed 1",
    "anon_withhold": "anon --n 4 --sender 1 --d 0 --withhold 3 --seed 4",
    "anon_disrupt": "anon --n 5 --sender 0 --d 1 --disruptors 2 --seed 3",
    "ae": "ae --n 5 --sender 1 --receiver 3 --seed 11",
    "ae_withhold": "ae --n 4 --sender 0 --receiver 2 --withhold 1 --seed 6",
    "anonq": "anonq --n 4 --sender 0 --receiver 2 --alpha 0.6 --beta 0.8j --seed 5",
    "collision": "collision --n 8 --wishers 1,2,3 --seed 2",
    "dcnet_trace": "dcnet --graph complete:4 --sender 2 --d 1 --trace --seed 9",
    "dcnet_cycle": "dcnet --graph cycle:5 --sender 0 --d 0 --seed 3",
    "keygraph": "keygraph --graph cycle:6 --colluders 0,3 --bound-t 1",
    # sweeps
    "sweep_collision": "sweep collision --n 2:8 --seed 0",
    "sweep_anon": "sweep anon --n 3:5 --seed 0",
    "sweep_graphs": "sweep graphs --nodes 5",
    # exact verdicts, plain collusion and full hijack
    "exact_anon_t2": "verdict --protocol anon --n 5 --t 2",
    "exact_anon_traceless": "verdict --protocol anon --n 4 --traceless",
    "exact_ae_receiver_t1": "verdict --protocol ae --n 5 --target receiver --t 1",
    "exact_ae_traceless": "verdict --protocol ae --n 4 --traceless",
    "exact_anonq_colluder": "verdict --protocol anonq --n 3 --colluders 1",
    "exact_anonq_traceless": "verdict --protocol anonq --n 3 --traceless",
    "exact_dcnet_complete_t1": "verdict --protocol dcnet --n 4 --graph complete:4 --t 1",
    "exact_dcnet_star_center": "verdict --protocol dcnet --n 5 --graph star:5 --colluders 0",
    "exact_dcnet_traceless": "verdict --protocol dcnet --n 4 --graph complete:4 --traceless",
    "exact_dcnet_cycle_traceless_d0":
        "verdict --protocol dcnet --n 5 --graph cycle:5 --traceless --d 0",
    # 190 keys, far past any enumeration of key assignments
    "exact_dcnet_complete20_t3": "verdict --protocol dcnet --n 20 --graph complete:20 --t 3",
    # seeded sampled verdicts
    "sampled_anon_traceless":
        "verdict --protocol anon --n 4 --traceless --mode sampled --trials 300 --seed 3",
    "sampled_ae_receiver":
        "verdict --protocol ae --n 3 --target receiver --t 1 --mode sampled "
        "--trials 300 --seed 4",
    "sampled_anonq_traceless":
        "verdict --protocol anonq --n 3 --traceless --mode sampled --trials 200 --seed 5",
    "sampled_dcnet_star":
        "verdict --protocol dcnet --n 4 --graph star:4 --colluders 0 --mode sampled "
        "--trials 300 --seed 6",
    "sampled_dcnet_traceless":
        "verdict --protocol dcnet --n 4 --graph complete:4 --traceless --mode sampled "
        "--trials 300 --seed 7",
    # rows of 8 + 56 = 64 view bits, wider than one int64 code holds
    "sampled_dcnet_complete8_traceless":
        "verdict --protocol dcnet --n 8 --graph complete:8 --traceless --mode sampled "
        "--trials 300 --seed 8",
}


def _suffix(name: str) -> str:
    return ".csv" if name.startswith("sweep_") else ".json"


def _run_case(name: str, outdir: Path) -> tuple[bytes, str]:
    """Output file bytes and '<exit code> <summary line>' of one case."""
    out = outdir / f"{name}{_suffix(name)}"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*CASES[name].split(), "--out", str(out)])
    summary = stdout.getvalue().splitlines()[0]
    return out.read_bytes(), f"{code} {summary}"


def _summaries() -> dict[str, str]:
    lines = SUMMARIES.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t", 1) for line in lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    data, summary = _run_case(name, tmp_path)
    assert data == (GOLDEN / f"{name}{_suffix(name)}").read_bytes()
    assert summary == _summaries()[name]


# The cases that need numpy: batched sampling.  Every other case, the
# qubit transfer's closed-form teleportation included, stays on the GHZ
# phase manifold and runs without it.
NUMPY_CASES = {name for name in CASES if name.startswith("sampled_")}

# The cases that import `anonymity` (every verdict), whose
# AnonymityVerdict is a dataclass: they load `dataclasses` and the
# `inspect` it imports, about 10 ms in a cold process.  No other case,
# the XOR network's trace included, loads either.
DATACLASS_CASES = {name for name in CASES if name.startswith(("exact_", "sampled_"))}

# The cases that parse a graph, the only ones that load `anonsim.keygraph`,
# and the sweeps, the only ones that load `csv`.  A run or verdict of a
# GHZ protocol loads neither.
GRAPH_CASES = {name for name in CASES if "--graph" in CASES[name] or name == "sweep_graphs"}
CSV_CASES = {name for name in CASES if name.startswith("sweep_")}

# The cases that run a protocol, the only ones that load
# `anonsim.protocols`: no verdict runs one (a sampled verdict's
# `sampling` would load it, but stops at numpy first here).  They and
# the verdicts, whose anon model is a fresh GHZ state, load
# `anonsim.qsim`; the keygraph audit and `sweep graphs` load neither.
PROTOCOL_CASES = CASES.keys() - DATACLASS_CASES - {"keygraph", "sweep_graphs"}
QSIM_CASES = PROTOCOL_CASES | DATACLASS_CASES


def _loads(name: str) -> tuple[str, ...]:
    """The watched modules that case `name` loads."""
    loads = set()
    if name in DATACLASS_CASES:
        loads |= {"dataclasses", "inspect"}
    if name in GRAPH_CASES:
        loads.add("anonsim.keygraph")
    if name in CSV_CASES:
        loads.add("csv")
    if name in PROTOCOL_CASES:
        loads.add("anonsim.protocols")
    if name in QSIM_CASES:
        loads.add("anonsim.qsim")
    return tuple(sorted(loads))


# Runs the cases named in argv[1] (name -> argv), in that order, with numpy
# unimportable and prints, for each, '<exit code> <summary line>' or
# "needs numpy", and which of the watched modules are loaded after it.
_BLOCKED_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from anonsim.cli import main
watched = {
    "anonsim.keygraph", "anonsim.protocols", "anonsim.qsim", "csv", "dataclasses", "inspect",
}
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        outcome = f"{code} {stdout.getvalue().splitlines()[0]}"
    except ImportError:
        outcome = "needs numpy"
    results[name] = [outcome, sorted(watched & set(sys.modules))]
from anonsim import *
print(json.dumps(results))
"""


def test_phase_manifold_cases_run_without_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(anonsim.__file__)))
    # One child per set of watched modules, so that each case is seen to
    # load none of the watched modules outside its own set.
    groups: dict[tuple[str, ...], dict[str, list[str]]] = {}
    for name in sorted(CASES):
        out = str(tmp_path / f"{name}{_suffix(name)}")
        groups.setdefault(_loads(name), {})[name] = [*CASES[name].split(), "--out", out]
    results = {}
    for argv in groups.values():
        run = subprocess.run(
            [sys.executable, "-c", _BLOCKED_CHILD, json.dumps(argv)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        results.update(json.loads(run.stdout))
    assert results.keys() == CASES.keys()
    summaries = _summaries()
    for name in sorted(CASES):
        outcome, loaded = results[name]
        assert loaded == list(_loads(name)), name
        if name in NUMPY_CASES:
            assert outcome == "needs numpy"
            continue
        assert outcome == summaries[name]
        written = tmp_path / f"{name}{_suffix(name)}"
        assert written.read_bytes() == (GOLDEN / written.name).read_bytes()


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    lines = []
    for name in sorted(CASES):
        _, summary = _run_case(name, GOLDEN)
        lines.append(f"{name}\t{summary}\n")
    SUMMARIES.write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
