"""Time, once each, the cases at the size limits that are too slow for a workload.

    python3 bench/reference.py

Prints one line per case: its wall time, verdict and posterior.  The
figures in bench/README.md come from this script.  Takes about two and a
half minutes, most of it the exact qubit-transfer verdict at n = 6.
"""

import io
import os
import sys
import tempfile
import time
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from anonsim import anonymity, cli  # noqa: E402
from anonsim.keygraph import KeySharingGraph  # noqa: E402
from anonsim.rng import RngStream  # noqa: E402


def sweep_graphs_6():
    temp_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".tmp")
    os.makedirs(temp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=temp_root) as tmp:
        with redirect_stdout(io.StringIO()):
            return cli.main(["sweep", "graphs", "--nodes", "6", "--out", os.path.join(tmp, "g.csv")])


CASES = [
    ("exact anon traceless n=12", lambda: anonymity.traceless_verdict("anon", 12)),
    ("exact ae traceless n=12", lambda: anonymity.traceless_verdict("ae", 12)),
    ("exact anonq traceless n=6", lambda: anonymity.traceless_verdict("anonq", 6)),
    ("exact dcnet complete:6 full hijack d=1",
     lambda: anonymity.traceless_verdict("dcnet", 6, graph=KeySharingGraph.complete(6))),
    ("sampled anon traceless n=12, 10 000 trials",
     lambda: anonymity.traceless_verdict("anon", 12, mode="sampled", rng=RngStream(0))),
    ("sweep graphs --nodes 6 (32 768 rows)", sweep_graphs_6),
]

if __name__ == "__main__":
    for label, case in CASES:
        start = time.perf_counter()
        result = case()
        elapsed = time.perf_counter() - start
        detail = result
        if isinstance(result, anonymity.AnonymityVerdict):
            detail = (f"{'PASS' if result.verdict else 'FAIL'} "
                      f"posterior_max={float(result.posterior_max):.4g} max_tv={result.max_tv}")
        print(f"{label}: {elapsed:.2f} s  {detail}", flush=True)
