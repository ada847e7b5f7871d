"""Each benchmark check accepts a right output and rejects a wrong one.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from anonsim import anonymity, cli  # noqa: E402
from anonsim.keygraph import KeySharingGraph  # noqa: E402


# ---- posterior off by one candidate ----------------------------------------


def test_exact_ghz_posterior_off_by_one_candidate_is_rejected():
    v = anonymity.anonymity_verdict("anon", 5, t=1)
    assert checks.check_exact_ghz(v, 5, 1) is None
    for wrong in (Fraction(1, 3), Fraction(1, 5)):
        assert checks.check_exact_ghz(dataclasses.replace(v, posterior_max=wrong), 5, 1)


def test_exact_dcnet_posterior_off_by_one_component_is_rejected():
    # Colluder 2 cuts path:5 into {0, 1} and {3, 4}: the best posterior is 1/2.
    edges = workloads.family_edges("path", 5)
    graph = KeySharingGraph.from_edges(5, edges)
    v = anonymity.anonymity_verdict("dcnet", 5, graph=graph, colluders=[2], d=1)
    assert checks.check_exact_dcnet(v, 5, edges, [2], 1, False) is None
    for wrong in (Fraction(1, 1), Fraction(1, 3)):
        bad = dataclasses.replace(v, posterior_max=wrong)
        assert checks.check_exact_dcnet(bad, 5, edges, [2], 1, False)


def test_hijacked_dcnet_must_trace_the_sender():
    edges = workloads.family_edges("cycle", 4)
    graph = KeySharingGraph.from_edges(4, edges)
    v = anonymity.traceless_verdict("dcnet", 4, graph=graph, d=1)
    assert checks.check_exact_dcnet(v, 4, edges, [], 1, True) is None
    bad = dataclasses.replace(v, posterior_max=Fraction(1, 4), verdict=True)
    assert checks.check_exact_dcnet(bad, 4, edges, [], 1, True)


def test_sampled_verdict_checks_reject_the_wrong_outcome():
    v = anonymity.AnonymityVerdict("anon", 3, 0, "sender", "sampled", 0.34, Fraction(1, 3), True)
    assert checks.check_sampled(v, True) is None
    assert checks.check_sampled(dataclasses.replace(v, verdict=False), True)
    traced = dataclasses.replace(v, posterior_max=1.0, verdict=False)
    assert checks.check_sampled(traced, False) is None
    assert checks.check_sampled(dataclasses.replace(traced, verdict=True), False)
    assert checks.check_sampled(dataclasses.replace(traced, posterior_max=0.5), False)


# ---- collision round off by one --------------------------------------------


@pytest.mark.parametrize("k,round_", [(2, 0), (3, 1), (5, 2), (9, 3), (13, 2), (0, 0)])
def test_collision_round_off_by_one_is_rejected(k, round_):
    verdict = "not_exactly_one"
    assert checks.check_collision(k, round_, verdict) is None
    assert checks.check_collision(k, round_ + 1, verdict)
    if round_ > 0:
        assert checks.check_collision(k, round_ - 1, verdict)


def test_collision_exactly_one_iff_one_wisher():
    assert checks.check_collision(1, None, "exactly_one") is None
    assert checks.check_collision(1, None, "not_exactly_one")
    assert checks.check_collision(3, 1, "exactly_one")


# ---- tolerance off by one --------------------------------------------------


def test_keygraph_tolerance_off_by_one_is_rejected():
    edges = workloads.family_edges("cycle", 6)
    report = {"tolerance": 1, "min_degree": 2}
    assert checks.check_keygraph_report(report, 6, edges) is None
    assert checks.check_keygraph_report(dict(report, tolerance=0), 6, edges)
    assert checks.check_keygraph_report(dict(report, tolerance=2), 6, edges)


# ---- flipped decoded bit ---------------------------------------------------


def _anon_record(tmp_path, *argv):
    out = tmp_path / "record.json"
    assert cli.main(["anon", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_flipped_decoded_bit_is_rejected(tmp_path):
    rec = _anon_record(tmp_path, "--n", "5", "--sender", "2", "--d", "1", "--seed", "7")
    assert checks.check_anon_record(rec, 1) is None
    assert checks.check_anon_record(rec, 0)
    rec["verdicts"]["decoded"] = 0
    assert checks.check_anon_record(rec, 1)


def test_flipped_broadcast_bit_is_rejected(tmp_path):
    rec = _anon_record(tmp_path, "--n", "4", "--flippers", "0,2,3", "--seed", "1")
    assert checks.check_parity_record(rec, [0, 2, 3]) is None
    entry = rec["rounds"][0][1]
    entry["bits"] = "1" if entry["bits"] == "0" else "0"
    assert checks.check_parity_record(rec, [0, 2, 3])


def test_dcnet_trace_naming_another_player_is_rejected():
    rec = {"verdicts": {"decoded": 1, "traced": 2},
           "rounds": [[{"player": 0, "bits": "1"}, {"player": 1, "bits": "1"},
                       {"player": 2, "bits": "1"}]]}
    assert checks.check_dcnet_record(rec, 2, 1) is None
    rec["verdicts"]["traced"] = 1
    assert checks.check_dcnet_record(rec, 2, 1)


def test_fidelity_below_one_is_rejected():
    assert checks.check_anonq_record({"verdicts": {"fidelity": 1.0 - 1e-12}}) is None
    assert checks.check_anonq_record({"verdicts": {"fidelity": 1.0 - 1e-6}})


# ---- replay bytes ----------------------------------------------------------


def test_replay_with_different_bytes_is_rejected():
    assert checks.check_replay(b"same", b"same") is None
    assert checks.check_replay(b"first", b"second")


def test_worker_replay_catches_an_operation_that_changes_its_output():
    calls = []

    def run(seq):
        calls.append(seq)
        return len(calls)

    op = workloads.Op("drifting", run, lambda out: None, lambda out: str(out).encode())
    steady = workloads.Op("steady", lambda seq: 1, lambda out: None, lambda out: b"1")
    rounds = [(o, o.run(seq)) for seq in range(3) for o in (steady, op)]
    assert worker.replay(rounds, 2) == [
        "drifting: re-running with the same seed changed the output bytes"
    ]
    assert worker.replay([(steady, 1)] * 4, 2) == []


# ---- counting --------------------------------------------------------------


def test_known_fault_counts_as_failed_without_making_the_run_incorrect():
    good = workloads.Op("good", None, lambda out: None, None)
    bad = workloads.Op("bad", None, lambda out: "wrong", None)
    known = workloads.Op("known", None, lambda out: "FAIL", None, known_fault="estimator bias")
    failed, unexpected, expected = worker.judge(
        [(good, 1), (known, 1), (bad, 1), (good, ValueError("crash"))]
    )
    assert failed == 3
    assert unexpected == ["bad: wrong", "good: crashed: ValueError: crash"]
    assert expected == ["known: FAIL"]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    values = [float(i) for i in range(40)]
    assert worker.percentile(values, Fraction(3, 4)) == (29.0, 10)
    for workload, ops in (("cli-runs", 8), ("sampled-verdicts", 8), ("exact-verdicts", 14)):
        w = workloads.WORKLOADS[workload]
        for rounds in range(w.min_rounds(ops), w.min_rounds(ops) + 30):
            assert worker.percentile(list(range(rounds * ops)), w.tail_fraction(ops))[1] >= 10


def test_tail_rank_falls_inside_one_operations_block():
    # Eight kinds of operation whose costs never overlap: the tail is one kind's median.
    w = workloads.WORKLOADS["cli-runs"]
    for rounds in range(w.min_rounds(8), w.min_rounds(8) + 30):
        latencies = sorted(kind + seq / 1000 for kind in range(8) for seq in range(rounds))
        tail, beyond = worker.percentile(latencies, w.tail_fraction(8))
        assert int(tail) == 6  # the second costliest kind
        assert round((tail - 6) * 1000) == (rounds - 1) // 2  # the middle of its block
        assert beyond > rounds
