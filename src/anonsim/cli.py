"""Command line front end.

One subcommand per protocol plus `verdict` for anonymity measurements
and `sweep` for parameter grids.  Runs are reproducible: the same
arguments and seed always produce byte-identical output files.

Each command imports the anonsim modules it runs when it runs, so a
verdict or a keygraph audit loads no protocol code.

Exit codes: 0 success, 2 configuration error, 3 protocol abort,
4 failed anonymity verdict.
"""

from __future__ import annotations

import argparse
import cmath
import io
import math
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import serialize
from .rng import RngStream, check_word, derive_stream_id

if TYPE_CHECKING:
    from .keygraph import KeySharingGraph
    from .protocols import Run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_VERDICT = 4

OUTDIR_ENV = "ANONSIM_OUTDIR"

# anonymity.PROTOCOLS, named here so that building the parser does not
# load the anonymity module
VERDICT_PROTOCOLS = ("anon", "ae", "anonq", "dcnet")

# The largest group a command builds.  A run's record holds a broadcast
# and a ledger entry for each of its players, so a larger group is
# refused before anything that grows with it is allocated; graphs are
# held to `keygraph.MAX_KEYS` keys the same way.
MAX_PLAYERS = 10_000

# the number of keys (edges) of each graph family on n nodes
GRAPH_FAMILY_KEYS = {
    "complete": lambda n: n * (n - 1) // 2,
    "cycle": lambda n: n,
    "star": lambda n: n - 1,
    "path": lambda n: n - 1,
}


def _out_path(args, default_name: str) -> str:
    if getattr(args, "out", None):
        return args.out
    base = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(base, default_name)


def _parse_ids(text: Optional[str]) -> list[int]:
    """'1,2' -> [1, 2].  An id given twice is an error: the runs take
    sets, and the record would echo a list they did not see."""
    if not text:
        return []
    ids = [int(part) for part in text.split(",") if part != ""]
    if len(set(ids)) < len(ids):
        raise ValueError(f"{text!r} repeats an id")
    return ids


def _parse_span(text: str, minimum: int) -> tuple[int, int]:
    """'2:16' -> (2, 16); a single number spans itself.  The span must
    not be empty or start below `minimum`."""
    if ":" in text:
        lo, hi = (int(part) for part in text.split(":", 1))
    else:
        lo = hi = int(text)
    if not minimum <= lo <= hi:
        raise ValueError(f"--n {text}: need {minimum} <= lo <= hi")
    return lo, hi


def _check_players(n: int) -> None:
    if n > MAX_PLAYERS:
        raise ValueError(f"--n {n}: at most {MAX_PLAYERS} players are supported")


def _parse_graph(spec: str) -> KeySharingGraph:
    """'complete:5', 'cycle:6', 'star:5', 'path:4', or a file path.  A
    family's key count is checked before any of its edges is built, a
    file's keys and nodes while it is read."""
    from . import keygraph

    if ":" in spec:
        kind, _, size = spec.partition(":")
        if kind not in GRAPH_FAMILY_KEYS:
            raise ValueError(f"unknown graph family {kind!r}")
        nodes = int(size)
        keys = GRAPH_FAMILY_KEYS[kind](nodes)
        if keys > keygraph.MAX_KEYS:
            raise ValueError(
                f"--graph {spec} has {keys} keys; at most {keygraph.MAX_KEYS} are supported"
            )
        return getattr(keygraph.KeySharingGraph, kind)(nodes)
    if not os.path.exists(spec):
        raise ValueError(f"graph file not found: {spec}")
    return keygraph.load_graph(spec)


def _summary(pairs: list[tuple[str, object]]) -> str:
    def fmt(v: object) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "none"
        return str(v)

    return " ".join(f"{k}={fmt(v)}" for k, v in pairs)


def _record_run(
    args,
    protocol: str,
    n: int,
    run: Run,
    verdicts: dict,
    config: dict,
    summary: list[tuple[str, object]],
) -> int:
    """Write one run record, print its summary; exit 3 if the run aborted."""
    record = serialize.run_record(
        protocol, n, args.seed, args.stream_id, run, verdicts, config=config
    )
    path = _out_path(args, f"{protocol}_n{n}_seed{args.seed}.json")
    serialize.write_json(path, record)
    print(_summary([("protocol", protocol), ("n", n), *summary]))
    print(f"record: {path}")
    return EXIT_ABORT if run.aborted else EXIT_OK


def cmd_anon(args) -> int:
    from . import protocols

    _check_players(args.n)
    rng = RngStream(args.seed, args.stream_id)
    if args.flippers is not None:
        for flag in ("sender", "d", "withhold", "disruptors"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does not apply in parity mode (--flippers)")
        flippers = _parse_ids(args.flippers)
        run = protocols.anon_multiparty_parity(args.n, flippers, rng)
        return _record_run(
            args, "anon", args.n, run, {"parity": run.output},
            {"flippers": flippers}, [("parity", run.output)],
        )
    if args.sender is None or args.d is None:
        raise ValueError("anon needs --sender and --d (or --flippers for parity mode)")
    withholders = _parse_ids(args.withhold)
    run = protocols.anon_send(
        args.n, args.sender, args.d, rng,
        withholders=withholders, disruptors=_parse_ids(args.disruptors),
    )
    return _record_run(
        args, "anon", args.n, run, {"decoded": run.output, "aborted": run.aborted},
        {"sender": args.sender, "d": args.d, "withhold": withholders},
        [("sender", args.sender), ("d", args.d), ("decoded", run.output),
         ("aborted", run.aborted)],
    )


def cmd_ae(args) -> int:
    from . import protocols, qsim

    _check_players(args.n)
    rng = RngStream(args.seed, args.stream_id)
    run = protocols.ae_establish(
        args.n, args.sender, args.receiver, rng,
        withholders=_parse_ids(args.withhold),
    )
    config = {"sender": args.sender, "receiver": args.receiver}
    pair = run.output
    if pair is None:
        return _record_run(
            args, "ae", args.n, run, {"aborted": True}, config, [("aborted", True)]
        )
    fidelity = qsim.epr_fidelity(pair)
    verdicts = {
        "phase_numerator": pair.phase_numerator,
        "phase_denom_exp": pair.phase_denom_exp,
        "fidelity_with_epr": fidelity,
        "aborted": False,
    }
    return _record_run(
        args, "ae", args.n, run, verdicts, config,
        [("phase_numerator", pair.phase_numerator),
         ("fidelity", f"{fidelity:.12f}")],
    )


def _parse_qubit(alpha_text: str, beta_text: str) -> tuple[complex, complex]:
    """The normalized qubit alpha|0> + beta|1> from two complex literals."""
    alpha = complex(alpha_text)
    beta = complex(beta_text)
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(
            f"qubit amplitudes must be finite, got {alpha_text} and {beta_text}"
        )
    try:
        norm = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise ValueError(
            f"qubit amplitudes {alpha_text} and {beta_text} are too large to normalize"
        )
    if alpha == beta == 0:
        raise ValueError("qubit amplitudes must not both be zero")
    if norm < sys.float_info.min:
        raise ValueError(
            f"qubit amplitudes {alpha_text} and {beta_text} are too small to normalize"
        )
    scale = norm ** -0.5
    return alpha * scale, beta * scale


def cmd_anonq(args) -> int:
    from . import protocols

    _check_players(args.n)
    rng = RngStream(args.seed, args.stream_id)
    qubit = _parse_qubit(args.alpha, args.beta)
    run = protocols.anonq_send(args.n, args.sender, args.receiver, qubit, rng)
    overlap = sum(a.conjugate() * b for a, b in zip(qubit, run.output))
    transfer_fidelity = abs(overlap) ** 2
    return _record_run(
        args, "anonq", args.n, run,
        {"fidelity": transfer_fidelity, "aborted": False},
        {"sender": args.sender, "receiver": args.receiver,
         "alpha": args.alpha, "beta": args.beta},
        [("fidelity", f"{transfer_fidelity:.12f}")],
    )


def cmd_collision(args) -> int:
    from . import protocols

    _check_players(args.n)
    rng = RngStream(args.seed, args.stream_id)
    wishers = _parse_ids(args.wishers)
    run = protocols.collision_detect(args.n, wishers, rng)
    verdict = run.output
    return _record_run(
        args, "collision", args.n, run, verdict.to_json(), {"wishers": wishers},
        [("k", len(wishers)), ("verdict", verdict.verdict.value),
         ("first_odd_round", verdict.first_odd_round),
         ("rounds_used", verdict.rounds_used)],
    )


def cmd_dcnet(args) -> int:
    from . import protocols

    rng = RngStream(args.seed, args.stream_id)
    graph = _parse_graph(args.graph)
    run = protocols.dcnet_send(graph, args.sender, args.d, rng)
    summary = [("d", args.d), ("decoded", run.output)]
    traced = None
    if args.trace:
        traced = protocols.trace_attack(run, args.d)
        summary.append(("traced", traced))
    return _record_run(
        args, "dcnet", graph.num_nodes, run,
        {"decoded": run.output, "traced": traced},
        {"graph": args.graph, "sender": args.sender, "d": args.d}, summary,
    )


def cmd_keygraph(args) -> int:
    from . import keygraph

    graph = _parse_graph(args.graph)
    degree_report = keygraph.min_degree(graph)
    tol = keygraph.tolerance(graph)
    report = {
        "num_nodes": graph.num_nodes,
        "num_edges": len(graph.edges),
        "min_degree": degree_report.value,
        "meets_degree_requirement": degree_report.meets_requirement,
        "tolerance": tol,
        "adjacency": keygraph.to_adjacency_json(graph)["adjacency"],
    }
    pairs = [
        ("nodes", graph.num_nodes), ("edges", len(graph.edges)),
        ("min_degree", degree_report.value),
        ("degree_ok", degree_report.meets_requirement),
        ("tolerance", tol),
    ]
    if args.colluders is not None:
        colluders = _parse_ids(args.colluders)
        partitioning = keygraph.is_partitioning_set(graph, colluders)
        report["colluders"] = colluders
        report["partitioning"] = partitioning
        pairs.append(("partitioning", partitioning))
    if args.bound_t is not None:
        bound = keygraph.key_lower_bound(graph.num_nodes, args.bound_t)
        report["key_lower_bound"] = {"t": args.bound_t, "keys": bound}
        pairs.append(("key_lower_bound", bound))
    path = _out_path(args, f"keygraph_n{graph.num_nodes}.json")
    serialize.write_json(path, report)
    print(_summary(pairs))
    print(f"report: {path}")
    return EXIT_OK


def cmd_verdict(args) -> int:
    from . import anonymity

    check_word(args.seed, "seed")
    graph = _parse_graph(args.graph) if args.graph else None
    rng = RngStream(args.seed) if args.mode == "sampled" else None
    kwargs = dict(
        target=args.target,
        t=args.t,
        d=args.d,
        mode=args.mode,
        tolerance=args.tolerance,
        rng=rng,
        graph=graph,
        hijack_all_randomness=args.traceless,
    )
    if args.colluders is not None:
        kwargs["colluders"] = _parse_ids(args.colluders)
    if args.trials is not None:
        kwargs["trials"] = args.trials
    verdict = anonymity.anonymity_verdict(args.protocol, args.n, **kwargs)
    path = _out_path(
        args, f"verdict_{args.protocol}_n{args.n}_t{verdict.t}.json"
    )
    serialize.write_json(path, verdict.to_json())
    outcome = "PASS" if verdict.verdict else "FAIL"
    print(_summary([
        ("posterior_max", f"{float(verdict.posterior_max):g}"),
        ("baseline", f"{float(verdict.baseline):g}"),
    ]) + f" {outcome}")
    print(f"report: {path}")
    return EXIT_OK if verdict.verdict else EXIT_VERDICT


def _sweep_collision(args) -> tuple[list[str], list[list]]:
    from . import protocols

    lo, hi = _parse_span(args.n, 2)
    header = [
        "n", "k", "verdict", "first_odd_round", "predicted_first_odd",
        "rounds_used", "parities", "match", "error",
    ]
    rows = []
    for n in range(lo, hi + 1):
        for k in range(0, n + 1):
            try:
                stream = RngStream(
                    args.seed, derive_stream_id(args.seed, "collision", n, k)
                )
                verdict = protocols.collision_detect(n, range(k), stream).output
                if k == 1:
                    predicted = None
                elif k == 0:
                    predicted = 0
                else:
                    predicted = protocols.decompose_k(k)[0]
                match = verdict.first_odd_round == predicted and (
                    (verdict.verdict is protocols.CollisionOutcome.EXACTLY_ONE)
                    == (k == 1)
                )
                rows.append([
                    n, k, verdict.verdict.value,
                    "" if verdict.first_odd_round is None else verdict.first_odd_round,
                    "" if predicted is None else predicted,
                    verdict.rounds_used,
                    "".join(str(p) for p in verdict.parities),
                    match, "",
                ])
            except ValueError as exc:  # cell failures stay in-row
                rows.append([n, k, "", "", "", "", "", "", str(exc)])
    return header, rows


def _sweep_anon(args) -> tuple[list[str], list[list]]:
    from . import protocols

    lo, hi = _parse_span(args.n, 3)
    d_values = _parse_ids(args.d) or [0, 1]
    if not set(d_values) <= {0, 1}:
        raise ValueError(f"--d {args.d}: data bits must be 0 or 1")
    header = ["n", "sender", "d", "decoded", "ok", "error"]
    rows = []
    for n in range(lo, hi + 1):
        for sender in range(n):
            for d in d_values:
                try:
                    stream = RngStream(
                        args.seed, derive_stream_id(args.seed, "anon", n, sender, d)
                    )
                    decoded = protocols.anon_send(n, sender, d, stream).output
                    rows.append([n, sender, d, decoded, decoded == d, ""])
                except ValueError as exc:
                    rows.append([n, sender, d, "", "", str(exc)])
    return header, rows


def _sweep_graphs(args) -> tuple[list[str], list[list]]:
    from itertools import combinations

    from . import keygraph

    n = args.nodes
    if not 2 <= n <= 6:
        raise ValueError(f"graph sweep supports 2 to 6 nodes, got {n}")
    pairs = list(combinations(range(n), 2))
    header = [
        "mask", "num_edges", "edges", "connected", "min_degree", "tolerance",
        "error",
    ]
    rows = []
    for mask in range(1 << len(pairs)):
        try:
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = keygraph.KeySharingGraph.from_edges(n, edges)
            rows.append([
                mask, len(edges),
                ";".join(f"{i}-{j}" for i, j in sorted(edges)),
                keygraph.is_connected(g),
                keygraph.min_degree(g).value,
                keygraph.tolerance(g),
                "",
            ])
        except ValueError as exc:
            rows.append([mask, "", "", "", "", "", str(exc)])
    return header, rows


def cmd_sweep(args) -> int:
    import csv

    sweeps = {"collision": _sweep_collision, "anon": _sweep_anon, "graphs": _sweep_graphs}
    # a bad seed is a configuration error, not a failure in every cell
    check_word(args.seed, "seed")
    header, rows = sweeps[args.family](args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            ["true" if v is True else "false" if v is False else v for v in row]
        )
    path = _out_path(args, f"sweep_{args.family}.csv")
    serialize.write_text(path, buf.getvalue())
    failures = sum(1 for row in rows if row[-1])
    print(_summary([
        ("sweep", args.family), ("rows", len(rows)), ("failures", failures),
    ]))
    print(f"table: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonsim",
        description="Anonymous transmission over shared GHZ states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, needs_seed=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if needs_seed:
            p.add_argument("--seed", type=int, required=True, help="64-bit run seed")
            p.add_argument("--stream-id", type=int, default=0, dest="stream_id")
        p.add_argument("--out", help="output file (default: in $ANONSIM_OUTDIR)")
        return p

    p = command("anon", cmd_anon, "anonymous one-bit broadcast")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sender", type=int)
    p.add_argument("--d", type=int, choices=(0, 1))
    p.add_argument("--flippers", help="parity mode: comma list of flipping players")
    p.add_argument("--withhold", help="players that refuse to broadcast")
    p.add_argument("--disruptors", help="players applying an extra phase flip")

    p = command("ae", cmd_ae, "anonymous entanglement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sender", type=int, required=True)
    p.add_argument("--receiver", type=int, required=True)
    p.add_argument("--withhold", help="players that refuse to broadcast")

    p = command("anonq", cmd_anonq, "anonymous qubit transfer")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sender", type=int, required=True)
    p.add_argument("--receiver", type=int, required=True)
    p.add_argument("--alpha", default="1", help="amplitude of |0>, complex literal")
    p.add_argument("--beta", default="0", help="amplitude of |1>, complex literal")

    p = command("collision", cmd_collision, "exactly-one-sender detection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wishers", help="comma list of wishing players")

    p = command("dcnet", cmd_dcnet, "pairwise-key XOR network round")
    p.add_argument("--graph", required=True,
                   help="complete:N | cycle:N | star:N | path:N | file path")
    p.add_argument("--sender", type=int, required=True)
    p.add_argument("--d", type=int, choices=(0, 1), required=True)
    p.add_argument("--trace", action="store_true",
                   help="run the full-randomness trace attack")

    p = command("keygraph", cmd_keygraph, "key-sharing graph audit", needs_seed=False)
    p.add_argument("--graph", required=True,
                   help="complete:N | cycle:N | star:N | path:N | file path")
    p.add_argument("--colluders", help="check whether this set partitions")
    p.add_argument("--bound-t", type=int, dest="bound_t",
                   help="also report key_lower_bound(n, t)")

    p = sub.add_parser("verdict", help="anonymity measurement")
    p.add_argument("--protocol", required=True, choices=VERDICT_PROTOCOLS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", default="sender", choices=("sender", "receiver"))
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--colluders")
    p.add_argument("--d", type=int, choices=(0, 1), default=1)
    p.add_argument("--mode", default="exact", choices=("exact", "sampled"))
    p.add_argument("--trials", type=int, help="sampled trials per candidate")
    p.add_argument("--tolerance", type=float,
                   help="sampled mode only: the largest passing max_tv (default 0.05)")
    p.add_argument("--graph", help="key-sharing graph (dcnet only)")
    p.add_argument("--traceless", action="store_true",
                   help="adversary reads every player's randomness")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("sweep", help="parameter grids to CSV")
    p.add_argument("family", choices=("collision", "anon", "graphs"))
    p.add_argument("--n", default="3:6", help="range lo:hi (collision, anon)")
    p.add_argument("--d", help="comma list of data bits (anon)")
    p.add_argument("--nodes", type=int, default=5, help="node count (graphs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def _join_amplitudes(argv: Sequence[str]) -> list[str]:
    """'--beta -0.8j' -> '--beta=-0.8j'.

    argparse reads a value that starts with '-' and is not a plain
    negative number as an option, so a complex literal such as -0.8j
    must be attached to its option.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--alpha", "--beta"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_amplitudes(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
