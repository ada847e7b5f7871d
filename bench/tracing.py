"""Per-layer spans around anonsim's public functions.

`Tracer.install()` replaces every public function of the traced modules
(and the public methods of RngStream) with a wrapper that records a
span.  Names other modules imported, such as `anon_send` inside
`anonymity` or the qsim functions inside `protocols`, are replaced too,
so a call is seen whichever module makes it.  Spans are aggregated as
they close: a layer's self time is the sum over its spans of the span
time minus the time of the spans nested in it.  Only the sums stay in
memory.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rng", "qsim", "protocols", "anonymity", "keygraph", "serialize", "cli")

DENSE = {
    "ghz_dense", "tensor", "fidelity", "dense_apply_gate", "apply_hadamard_all",
    "dense_measure", "dense_measure_all", "bell_measure",
}
PROTOCOL_RUNS = {
    "anon_send", "anon_multiparty_parity", "ae_establish", "anonq_send",
    "collision_detect", "aloha_schedule", "elect_sender_receiver",
    "anonymous_key_exchange",
}
VERDICTS = {"anonymity_verdict", "traceless_verdict"}
RNG_DRAWS = {"bit", "bits", "integer", "uniform"}


class Tracer:
    """Aggregated span statistics for one traced process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()

    def _wrap(self, fn, stat_keys, count_keys, outermost=None, inside=None, sized=False):
        """Span wrapper.

        `stat_keys` receive the span's self time, `count_keys` one count per
        call.  `outermost` names a nesting group: the call is counted under
        it only when no call of the same group is open.  `inside` counts
        the call under "<inside>.nested" when a call of that group is open.
        `sized` adds the byte length of the second argument (write_text).
        """
        stack = self._stack
        depth = self._depth
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in count_keys:
                counts[key] += 1
            if outermost is not None:
                if depth[outermost] == 0:
                    counts[outermost] += 1
                depth[outermost] += 1
            if inside is not None and depth[inside] > 0:
                counts[inside + ".nested"] += 1
            if sized:
                counts["serialize.bytes"] += len(args[1].encode("utf-8"))
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                own = span - frame[0]
                for key in stat_keys:
                    self_s[key] += own
                if outermost is not None:
                    depth[outermost] -= 1

        return wrapper

    def _spec(self, layer: str, name: str) -> dict:
        stat_keys = [layer]
        count_keys = [layer + ".calls"]
        spec = {}
        if layer == "qsim" and name in DENSE:
            stat_keys.append("qsim.dense")
            count_keys.append("qsim.dense_calls")
        elif layer == "protocols" and name in PROTOCOL_RUNS:
            spec["outermost"] = "protocols.runs"
        elif layer == "anonymity" and name in VERDICTS:
            spec["outermost"] = "anonymity.verdicts"
        elif layer == "anonymity" and name == "exact_transcript_distribution":
            stat_keys.append("anonymity.exact_dist")
            count_keys.append("anonymity.exact_dist.calls")
        elif layer == "keygraph" and name == "tolerance":
            spec["outermost"] = "keygraph.tolerance"
            count_keys.append("keygraph.tolerance.calls")
        elif layer == "keygraph" and name == "is_connected":
            count_keys.append("keygraph.connected.calls")
            spec["inside"] = "keygraph.tolerance"
        elif layer == "serialize" and name == "write_text":
            spec["sized"] = True
        return dict(spec, stat_keys=tuple(stat_keys), count_keys=tuple(count_keys))

    def install(self) -> None:
        """Wrap the public functions of every traced anonsim module."""
        import importlib

        for layer in LAYERS:
            importlib.import_module("anonsim." + layer)
        modules = [m for name, m in sys.modules.items()
                   if name == "anonsim" or name.startswith("anonsim.")]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules["anonsim." + layer]
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue
                replaced[id(fn)] = self._wrap(fn, **self._spec(layer, name))
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(module, name, replaced[id(value)])

        rng_cls = sys.modules["anonsim.rng"].RngStream
        rng_cls.__init__ = self._wrap(
            rng_cls.__init__, stat_keys=("rng",), count_keys=("rng.calls", "rng.streams")
        )
        for name in sorted(RNG_DRAWS) + ["spawn"]:
            keys = ("rng.calls", "rng.draws") if name in RNG_DRAWS else ("rng.calls",)
            setattr(rng_cls, name, self._wrap(
                getattr(rng_cls, name), stat_keys=("rng",), count_keys=keys
            ))

    def snapshot(self) -> dict:
        """Counts and self times, keyed by stat name."""
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}


def time_imports() -> dict:
    """Import numpy, networkx and anonsim in that order, timing each step.

    `startup.import_s` is the whole import of anonsim including both
    dependencies; the other two are the dependencies' shares of it.
    """
    start = time.perf_counter()
    import numpy  # noqa: F401

    after_numpy = time.perf_counter()
    import networkx  # noqa: F401

    after_networkx = time.perf_counter()
    import anonsim  # noqa: F401

    end = time.perf_counter()
    return {
        "startup.import_s": end - start,
        "startup.numpy_s": after_numpy - start,
        "startup.networkx_s": after_networkx - after_numpy,
    }


def layer_metrics(snapshots: list[dict], startup: dict, overhead_s: float) -> dict:
    """Per-layer metric values from one or more process snapshots."""
    counts: Counter = Counter()
    self_s: Counter = Counter()
    for snap in snapshots:
        counts.update(snap["counts"])
        self_s.update(snap["self_s"])
    tolerance_calls = counts["keygraph.tolerance.calls"]
    values = {name: (value, "s") for name, value in startup.items()}
    values.update({
        "cli.calls": (counts["cli.calls"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "serialize.calls": (counts["serialize.calls"], "count"),
        "serialize.self_s": (self_s["serialize"], "s"),
        "serialize.bytes": (counts["serialize.bytes"], "bytes"),
        "rng.streams": (counts["rng.streams"], "count"),
        "rng.draws": (counts["rng.draws"], "count"),
        "rng.self_s": (self_s["rng"], "s"),
        "qsim.calls": (counts["qsim.calls"], "count"),
        "qsim.self_s": (self_s["qsim"], "s"),
        "qsim.dense_calls": (counts["qsim.dense_calls"], "count"),
        "qsim.dense_s": (self_s["qsim.dense"], "s"),
        "protocols.runs": (counts["protocols.runs"], "count"),
        "protocols.self_s": (self_s["protocols"], "s"),
        "anonymity.verdicts": (counts["anonymity.verdicts"], "count"),
        "anonymity.self_s": (self_s["anonymity"], "s"),
        "anonymity.exact_dist.calls": (counts["anonymity.exact_dist.calls"], "count"),
        "anonymity.exact_dist.self_s": (self_s["anonymity.exact_dist"], "s"),
        "keygraph.tolerance.calls": (tolerance_calls, "count"),
        "keygraph.connected.calls": (counts["keygraph.connected.calls"], "count"),
        "keygraph.checks_per_tolerance": (
            counts["keygraph.tolerance.nested"] / tolerance_calls if tolerance_calls else 0.0,
            "ratio",
        ),
        "keygraph.self_s": (self_s["keygraph"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return values
