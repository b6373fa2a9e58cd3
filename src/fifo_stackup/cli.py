"""Command-line interface: solve, transform, seqgraph, reduce, dpw, gen, bench.

Exit codes: 0 for yes/success, 1 for a negative decision answer, 2 for any
error (parse failures, budget guards, inadmissible inputs).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    BudgetError,
    DigraphFormatError,
    InadmissibleDigraphError,
    InstanceFormatError,
    TransformStuckError,
)
from .instance import Instance, emit_instance, parse_instance, validate
from .pathwidth import DEFAULT_MAX_VERTICES, dpw_exact, dpw_via_stackup
from .processing import DEFAULT_CONFIGURATION_BUDGET, solve_min_places
from .seqgraph import (
    build_sequence_graph,
    decomposition_to_dot,
    digraph_to_dot,
    emit_digraph,
    parse_digraph,
    reduce_digraph_to_queues,
    strip_endpoints,
)
from .solutions import (
    DEFAULT_MAX_BINS,
    DEFAULT_MAX_PALLETS,
    PalletSolution,
    brute_force_bin_orders,
    brute_force_pallet_orders,
    replay,
    transform,
)
from .generate import GenSpec, generate_instance, random_admissible_digraph

METHODS = ("dp", "pallet-bf", "bin-bf")


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome in a JSON-stable shape.

    ``bin_solution`` moves are (0-based sequence index, 1-based position)
    pairs; brute-force bin counting carries no witnesses.
    """

    instance: str
    method: str
    min_places: int
    pallet_solution: tuple[str, ...] | None
    bin_solution: tuple[tuple[int, int], ...] | None
    max_open: int | None
    open_trace: tuple[int, ...] | None
    time_seconds: float

    def to_json(self) -> str:
        payload = {
            "instance": self.instance,
            "method": self.method,
            "min_places": self.min_places,
            "pallet_solution": list(self.pallet_solution) if self.pallet_solution is not None else None,
            "bin_solution": [list(move) for move in self.bin_solution] if self.bin_solution is not None else None,
            "max_open": self.max_open,
            "open_trace": list(self.open_trace) if self.open_trace is not None else None,
            "time_seconds": self.time_seconds,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        payload = json.loads(text)
        return cls(
            instance=payload["instance"],
            method=payload["method"],
            min_places=payload["min_places"],
            pallet_solution=tuple(payload["pallet_solution"]) if payload["pallet_solution"] is not None else None,
            bin_solution=tuple(tuple(move) for move in payload["bin_solution"]) if payload["bin_solution"] is not None else None,
            max_open=payload["max_open"],
            open_trace=tuple(payload["open_trace"]) if payload["open_trace"] is not None else None,
            time_seconds=payload["time_seconds"],
        )


def _format_moves(moves: tuple[tuple[int, int], ...]) -> str:
    return " ".join(f"q{j + 1}[{pos}]" for j, pos in moves)


def _run_method(inst: Instance, name: str, args) -> SolveReport:
    started = time.perf_counter()
    if args.method == "dp":
        places, bin_solution, pallet_solution = solve_min_places(
            inst, max_configurations=args.budget)
    elif args.method == "pallet-bf":
        places, pallet_solution = brute_force_pallet_orders(
            inst, max_pallets=args.max_pallets)
        bin_solution = transform(inst, pallet_solution)
    else:
        places = brute_force_bin_orders(inst, max_bins=args.max_bins)
        bin_solution = pallet_solution = None
    elapsed = time.perf_counter() - started
    if bin_solution is not None:
        report = replay(inst, bin_solution)
        max_open, trace = report.max_open, report.open_trace
        moves = bin_solution.moves
        symbols = pallet_solution.to_symbols(inst)
    else:
        max_open = trace = moves = symbols = None
    return SolveReport(
        instance=name,
        method=args.method,
        min_places=places,
        pallet_solution=symbols,
        bin_solution=moves,
        max_open=max_open,
        open_trace=trace,
        time_seconds=elapsed,
    )


def _cmd_solve(args) -> int:
    inst = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    report = _run_method(inst, Path(args.instance).name, args)
    if args.places is not None:
        yes = report.min_places <= args.places
        if args.json:
            print(report.to_json())
        else:
            print("yes" if yes else "no")
            if yes and report.pallet_solution is not None:
                print(f"pallet solution: {','.join(report.pallet_solution)}")
                print(f"bin solution: {_format_moves(report.bin_solution)}")
        return 0 if yes else 1
    if args.json:
        print(report.to_json())
    else:
        print(f"min places: {report.min_places}")
        if report.pallet_solution is not None:
            print(f"pallet solution: {','.join(report.pallet_solution)}")
            print(f"bin solution: {_format_moves(report.bin_solution)}")
    return 0


def _cmd_transform(args) -> int:
    inst = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    pallet_solution = PalletSolution.from_symbols(inst, args.pallets.split(","))
    bin_solution = transform(inst, pallet_solution)
    report = replay(inst, bin_solution)
    if args.json:
        print(json.dumps({
            "pallet_solution": list(pallet_solution.to_symbols(inst)),
            "bin_solution": [list(move) for move in bin_solution.moves],
            "max_open": report.max_open,
        }, indent=2, sort_keys=True))
    else:
        print(f"bin solution: {_format_moves(bin_solution.moves)}")
        print(f"max open: {report.max_open}")
    return 0


def _cmd_seqgraph(args) -> int:
    inst = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    graph = build_sequence_graph(inst)
    print(digraph_to_dot(graph) if args.dot else emit_digraph(graph), end="")
    return 0


def _cmd_reduce(args) -> int:
    graph = parse_digraph(Path(args.digraph).read_text(encoding="utf-8"))
    if args.strip:
        graph, removals = strip_endpoints(graph)
        for name, kind in removals:
            print(f"stripped {kind} vertex {name}", file=sys.stderr)
    inst = reduce_digraph_to_queues(graph)
    print(emit_instance(inst), end="")
    return 0


def _cmd_dpw(args) -> int:
    graph = parse_digraph(Path(args.digraph).read_text(encoding="utf-8"))
    if args.method == "subset":
        result = dpw_exact(graph, max_vertices=args.max_vertices)
    else:
        result = dpw_via_stackup(graph, strip=args.strip, max_configurations=args.budget)
    if args.dot:
        print(decomposition_to_dot(graph, result.decomposition), end="")
        return 0
    if args.json:
        print(json.dumps({
            "width": result.width,
            "bags": [sorted(graph.names[v] for v in bag) for bag in result.decomposition.bags],
        }, indent=2, sort_keys=True))
        return 0
    print(f"width: {result.width}")
    for i, bag in enumerate(result.decomposition.bags, start=1):
        print(f"X{i}: " + " ".join(sorted(graph.names[v] for v in bag)))
    return 0


def _cmd_gen(args) -> int:
    if args.from_digraph:
        graph = random_admissible_digraph(
            args.vertices, max_degree=args.max_deg, seed=args.seed)
        inst = reduce_digraph_to_queues(graph)
    else:
        lo, sep, hi = args.bins_per_pallet.partition(":")
        spec = GenSpec(
            pallets=args.pallets,
            queues=args.queues,
            min_bins=int(lo),
            max_bins=int(hi) if sep else int(lo),
            seed=args.seed,
        )
        inst = generate_instance(spec)
    text = emit_instance(inst)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    report = validate(inst)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    corpus = sorted(Path(args.corpus).glob("*.fsu"))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    rows = []
    errors = []
    for path in corpus:
        try:
            inst = parse_instance(path.read_text(encoding="utf-8"))
        except (InstanceFormatError, UnicodeDecodeError, OSError) as exc:
            errors.append(f"could not read {path.name}: {exc}")
            rows.extend({"instance": path.name, "method": method, "value": None,
                         "time_seconds": 0.0, "status": f"error: {exc}"}
                        for method in methods)
            continue
        values = {}
        for method in methods:
            started = time.perf_counter()
            try:
                if method == "dp":
                    value, _, _ = solve_min_places(inst, max_configurations=args.budget)
                elif method == "pallet-bf":
                    value, _ = brute_force_pallet_orders(inst, max_pallets=args.max_pallets)
                else:
                    value = brute_force_bin_orders(inst, max_bins=args.max_bins)
                status = "ok"
                values[method] = value
            except BudgetError as exc:
                value, status = None, f"skipped: {exc}"
            rows.append({
                "instance": path.name,
                "method": method,
                "value": value,
                "time_seconds": round(time.perf_counter() - started, 6),
                "status": status,
            })
        if len(set(values.values())) > 1:
            errors.append(f"methods disagree on {path.name}: {values}")
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["instance", "method", "value", "time_seconds", "status"])
        for row in rows:
            writer.writerow([row["instance"], row["method"],
                             "" if row["value"] is None else row["value"],
                             row["time_seconds"], row["status"]])
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return 2 if errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fifo-stackup",
        description="Exact solvers for the FIFO stack-up problem and directed pathwidth.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide or minimize the number of stack-up places")
    solve.add_argument("instance")
    mode = solve.add_mutually_exclusive_group(required=True)
    mode.add_argument("-p", "--places", type=int, help="decision mode: can the instance be processed with at most P places?")
    mode.add_argument("--min", action="store_true", help="optimization mode: report the minimum number of places")
    solve.add_argument("--method", choices=METHODS, default="dp")
    solve.add_argument("--budget", type=int, default=DEFAULT_CONFIGURATION_BUDGET,
                       help="configuration-count guard for the dp method")
    solve.add_argument("--max-pallets", type=int, default=DEFAULT_MAX_PALLETS,
                       help="pallet guard for pallet-bf")
    solve.add_argument("--max-bins", type=int, default=DEFAULT_MAX_BINS,
                       help="bin guard for bin-bf")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    trans = sub.add_parser("transform", help="turn a pallet order into a bin solution")
    trans.add_argument("instance")
    trans.add_argument("--pallets", required=True,
                       help="comma-separated pallet symbols, a complete permutation")
    trans.add_argument("--json", action="store_true")
    trans.set_defaults(func=_cmd_transform)

    seqg = sub.add_parser("seqgraph", help="emit the sequence graph of an instance")
    seqg.add_argument("instance")
    seqg.add_argument("--dot", action="store_true")
    seqg.set_defaults(func=_cmd_seqgraph)

    red = sub.add_parser("reduce", help="emit the queue system of a digraph")
    red.add_argument("digraph")
    red.add_argument("--strip", action="store_true",
                     help="remove vertices lacking in- or out-arcs first")
    red.set_defaults(func=_cmd_reduce)

    dpw = sub.add_parser("dpw", help="compute the directed pathwidth of a digraph")
    dpw.add_argument("digraph")
    dpw.add_argument("--method", choices=("subset", "stackup"), default="subset")
    dpw.add_argument("--strip", action="store_true",
                     help="with --method stackup: strip inadmissible vertices first")
    dpw.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    dpw.add_argument("--budget", type=int, default=DEFAULT_CONFIGURATION_BUDGET)
    dpw.add_argument("--dot", action="store_true", help="emit the witness decomposition as DOT")
    dpw.add_argument("--json", action="store_true")
    dpw.set_defaults(func=_cmd_dpw)

    gen = sub.add_parser("gen", help="generate a random instance deterministically")
    gen.add_argument("--pallets", type=int, default=5)
    gen.add_argument("--queues", type=int, default=2)
    gen.add_argument("--bins-per-pallet", default="2:3", metavar="LO:HI")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--from-digraph", action="store_true",
                     help="generate the queue system of a random admissible digraph")
    gen.add_argument("--vertices", type=int, default=6,
                     help="vertex count for --from-digraph")
    gen.add_argument("--max-deg", type=int, default=3,
                     help="in/out-degree cap for --from-digraph")
    gen.add_argument("--out", help="write to a file instead of stdout")
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="run methods over a corpus directory of .fsu files")
    bench.add_argument("corpus")
    bench.add_argument("--methods", default="dp")
    bench.add_argument("--budget", type=int, default=DEFAULT_CONFIGURATION_BUDGET)
    bench.add_argument("--max-pallets", type=int, default=DEFAULT_MAX_PALLETS)
    bench.add_argument("--max-bins", type=int, default=DEFAULT_MAX_BINS)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, DigraphFormatError, BudgetError, TransformStuckError,
            InadmissibleDigraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
