"""Command-line interface: solve, transform, seqgraph, reduce, dpw, gen, bench.

Exit codes: 0 for yes/success, 1 for a negative decision answer, 2 for any
error (parse failures, budget guards, inadmissible inputs), 3 for an internal
fault (a solver's witness that fails its replay or certification, or an
exception no handler classifies), 141 (128 + SIGPIPE) when the reader closed
stdout before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import BudgetError, InstanceFormatError, InternalError, TransformStuckError

# Every library function and record is called through ``_cli``, and read from
# the package on first use (PEP 562): a command loads only the modules it
# runs, and a wrapper set on this module with setattr is the function that runs.
_cli = sys.modules[__name__]


def __getattr__(name):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(package, name)
    globals()[name] = value
    return value


METHODS = ("dp", "pallet-bf", "bin-bf")


def _given(**options) -> dict:
    """The options the user gave: one left out is None here, and gets the
    default of the function it is passed to."""
    return {name: value for name, value in options.items() if value is not None}


def _read(path) -> str:
    """The text of an input file, as UTF-8 whatever the locale; a leading
    byte-order mark is dropped."""
    return Path(path).read_text(encoding="utf-8-sig")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _format_moves(moves: tuple[tuple[int, int], ...]) -> str:
    return " ".join(f"q{j + 1}[{pos}]" for j, pos in moves)


def _run_method(inst, name: str, method: str, args) -> dict:
    """Solve by the named method; the single place where a solver is picked.

    Returns the ``solve --json`` payload.  A witness is replayed, and one that
    is not a complete processing peaking at the reported place count raises
    InternalError.  The pallet solution reported is the order in which the bin
    solution opens pallets; ``bin-bf`` has no witness, so its witness keys
    are None.
    """
    if method != "dp":
        from . import oracles
    started = time.perf_counter()
    if method == "dp":
        places, bin_solution, pallet_solution = _cli.solve_min_places(
            inst, **_given(max_configurations=args.budget))
    elif method == "pallet-bf":
        places, searched = oracles.brute_force_pallet_orders(
            inst, **_given(max_pallets=args.max_pallets))
        bin_solution = _cli.transform(inst, searched)
        pallet_solution = _cli.opening_order(inst, bin_solution)
    else:
        places = oracles.brute_force_bin_orders(inst, **_given(max_bins=args.max_bins))
        bin_solution = pallet_solution = None
    elapsed = time.perf_counter() - started
    if bin_solution is not None:
        report = _cli.replay(inst, bin_solution)
        if not report.valid or report.max_open != places:
            raise InternalError(
                f"{method} witness replays as valid={report.valid} with max_open "
                f"{report.max_open}, but the solver reported {places} places")
        max_open, trace = report.max_open, report.open_trace
        moves = bin_solution.moves
        symbols = pallet_solution.to_symbols(inst)
    else:
        max_open = trace = moves = symbols = None
    return {
        "instance": name,
        "method": method,
        "min_places": places,
        "pallet_solution": symbols,
        "bin_solution": moves,
        "max_open": max_open,
        "open_trace": trace,
        "time_seconds": elapsed,
    }


def _cmd_solve(args) -> int:
    inst = _cli.parse_instance(_read(args.instance))
    report = _run_method(inst, Path(args.instance).name, args.method, args)
    yes = args.places is None or report["min_places"] <= args.places
    if args.json:
        _print_json(report)
    else:
        if args.places is None:
            print(f"min places: {report['min_places']}")
        else:
            print("yes" if yes else "no")
        if yes and report["pallet_solution"] is not None:
            print(f"pallet solution: {','.join(report['pallet_solution'])}")
            print(f"bin solution: {_format_moves(report['bin_solution'])}")
    return 0 if yes else 1


def _cmd_transform(args) -> int:
    inst = _cli.parse_instance(_read(args.instance))
    pallet_solution = _cli.PalletSolution.from_symbols(inst, args.pallets.split(","))
    bin_solution = _cli.transform(inst, pallet_solution)
    report = _cli.replay(inst, bin_solution)
    if args.json:
        _print_json({
            "pallet_solution": pallet_solution.to_symbols(inst),
            "bin_solution": bin_solution.moves,
            "max_open": report.max_open,
        })
    else:
        print(f"bin solution: {_format_moves(bin_solution.moves)}")
        print(f"max open: {report.max_open}")
    return 0


def _cmd_seqgraph(args) -> int:
    inst = _cli.parse_instance(_read(args.instance))
    graph = _cli.build_sequence_graph(inst)
    print(_cli.digraph_to_dot(graph) if args.dot else _cli.emit_digraph(graph), end="")
    return 0


def _cmd_reduce(args) -> int:
    graph = _cli.parse_digraph(_read(args.digraph))
    if args.strip:
        graph, removals = _cli.strip_endpoints(graph)
        for name, kind in removals:
            print(f"stripped {kind} vertex {name}", file=sys.stderr)
    inst = _cli.reduce_digraph_to_queues(graph)
    print(_cli.emit_instance(inst), end="")
    return 0


def _cmd_dpw(args) -> int:
    graph = _cli.parse_digraph(_read(args.digraph))
    if args.method == "subset":
        result = _cli.dpw_exact(graph, **_given(max_vertices=args.max_vertices))
    else:
        result = _cli.dpw_via_stackup(graph, **_given(max_configurations=args.budget))
    if args.dot:
        print(_cli.decomposition_to_dot(graph, result.decomposition), end="")
        return 0
    if args.json:
        _print_json({
            "width": result.width,
            "bags": [sorted(graph.names[v] for v in bag) for bag in result.decomposition.bags],
        })
        return 0
    print(f"width: {result.width}")
    for i, bag in enumerate(result.decomposition.bags, start=1):
        print(f"X{i}: " + " ".join(sorted(graph.names[v] for v in bag)))
    return 0


def _cmd_gen(args) -> int:
    if args.from_digraph:
        graph = _cli.random_admissible_digraph(
            args.vertices, **_given(max_degree=args.max_deg, seed=args.seed))
        inst = _cli.reduce_digraph_to_queues(graph)
    else:
        min_bins, max_bins = args.bins_per_pallet or (None, None)
        spec = _cli.GenSpec(pallets=args.pallets, queues=args.queues,
                            **_given(min_bins=min_bins, max_bins=max_bins, seed=args.seed))
        inst = _cli.generate_instance(spec)
    text = _cli.emit_instance(inst)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    report = _cli.validate(inst)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _bin_range(text: str) -> tuple[int, int]:
    """The ``--bins-per-pallet`` value, ``LO`` or ``LO:HI``."""
    lo, sep, hi = text.partition(":")
    try:
        return int(lo), int(hi) if sep else int(lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO or LO:HI, got {text!r}") from None


def _cmd_bench(args) -> int:
    if not Path(args.corpus).is_dir():
        raise ValueError(f"corpus is not a directory: {args.corpus}")
    corpus = sorted(Path(args.corpus).glob("*.fsu"))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("no methods given")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    rows = []
    errors = []
    internal = False
    for path in corpus:
        unreadable = None
        try:
            inst = _cli.parse_instance(_read(path))
        except (InstanceFormatError, UnicodeDecodeError, OSError) as exc:
            unreadable = f"error: {exc}"
            errors.append(f"could not read {path.name}: {exc}")
        values = {}
        for method in methods:
            value, seconds, status = None, 0.0, unreadable
            if unreadable is None:
                try:
                    report = _run_method(inst, path.name, method, args)
                    value, seconds, status = report["min_places"], report["time_seconds"], "ok"
                    values[method] = value
                except BudgetError as exc:
                    status = f"skipped: {exc}"
                except InternalError as exc:
                    status = f"error: internal error: {exc}"
                    errors.append(f"internal error on {path.name} by {method}: {exc}")
                    internal = True
            rows.append({"instance": path.name, "method": method, "value": value,
                         "time_seconds": round(seconds, 6), "status": status})
        if len(set(values.values())) > 1:
            errors.append(f"methods disagree on {path.name}: {values}")
    if args.json:
        _print_json(rows)
    else:
        import csv

        writer = csv.DictWriter(sys.stdout, ["instance", "method", "value", "time_seconds", "status"])
        writer.writeheader()
        writer.writerows(rows)
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return 3 if internal else 2 if errors else 0


def _solve_arguments(solve: argparse.ArgumentParser) -> None:
    solve.add_argument("instance")
    mode = solve.add_mutually_exclusive_group(required=True)
    mode.add_argument("-p", "--places", type=int, help="decision mode: can the instance be processed with at most P places?")
    mode.add_argument("--min", action="store_true", help="optimization mode: report the minimum number of places")
    solve.add_argument("--method", choices=METHODS, default="dp")
    _guard_arguments(solve)
    solve.add_argument("--json", action="store_true")


def _guard_arguments(parser: argparse.ArgumentParser) -> None:
    """The guards of the solve methods, shared by ``solve`` and ``bench``."""
    parser.add_argument("--budget", type=int, help="configuration-count guard for the dp method")
    parser.add_argument("--max-pallets", type=int, help="pallet guard for pallet-bf")
    parser.add_argument("--max-bins", type=int, help="bin guard for bin-bf")


def _transform_arguments(trans: argparse.ArgumentParser) -> None:
    trans.add_argument("instance")
    trans.add_argument("--pallets", required=True,
                       help="comma-separated pallet symbols, a complete permutation")
    trans.add_argument("--json", action="store_true")


def _seqgraph_arguments(seqg: argparse.ArgumentParser) -> None:
    seqg.add_argument("instance")
    seqg.add_argument("--dot", action="store_true")


def _reduce_arguments(red: argparse.ArgumentParser) -> None:
    red.add_argument("digraph")
    red.add_argument("--strip", action="store_true",
                     help="remove vertices lacking in- or out-arcs first")


def _dpw_arguments(dpw: argparse.ArgumentParser) -> None:
    dpw.add_argument("digraph")
    dpw.add_argument("--method", choices=("subset", "stackup"), default="subset")
    dpw.add_argument("--max-vertices", type=int, help="vertex guard for the subset method")
    dpw.add_argument("--budget", type=int,
                     help="configuration-count guard for the stackup method, which "
                          "counts 3^(arcs of the stripped digraph) configurations")
    output = dpw.add_mutually_exclusive_group()
    output.add_argument("--dot", action="store_true", help="emit the witness decomposition as DOT")
    output.add_argument("--json", action="store_true")


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--pallets", type=int, default=5)
    gen.add_argument("--queues", type=int, default=2)
    gen.add_argument("--bins-per-pallet", type=_bin_range, metavar="LO:HI")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--from-digraph", action="store_true",
                     help="generate the queue system of a random admissible digraph")
    gen.add_argument("--vertices", type=int, default=6,
                     help="vertex count for --from-digraph")
    gen.add_argument("--max-deg", type=int, help="in/out-degree cap for --from-digraph")
    gen.add_argument("--out", help="write to a file instead of stdout")


def _bench_arguments(bench: argparse.ArgumentParser) -> None:
    bench.add_argument("corpus")
    bench.add_argument("--methods", default="dp")
    _guard_arguments(bench)
    bench.add_argument("--json", action="store_true")


# Each command's help line, the function that adds its arguments, and the one that runs it.
COMMANDS = {
    "solve": ("decide or minimize the number of stack-up places", _solve_arguments, _cmd_solve),
    "transform": ("turn a pallet order into a bin solution", _transform_arguments,
                  _cmd_transform),
    "seqgraph": ("emit the sequence graph of an instance", _seqgraph_arguments, _cmd_seqgraph),
    "reduce": ("emit the queue system of a digraph", _reduce_arguments, _cmd_reduce),
    "dpw": ("compute the directed pathwidth of a digraph", _dpw_arguments, _cmd_dpw),
    "gen": ("generate a random instance deterministically", _gen_arguments, _cmd_gen),
    "bench": ("run methods over a corpus directory of .fsu files", _bench_arguments,
              _cmd_bench),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, built on the first call per command and shared
    after it.

    Every command is listed with its help line, but only ``command`` gets its
    arguments, so that a call builds what it parses; with None, all of them do.
    """
    parser = argparse.ArgumentParser(
        prog="fifo-stackup",
        description="Exact solvers for the FIFO stack-up problem and directed pathwidth.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if command is None or name == command:
            add_arguments(subparser)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # an argv that does not start with a command (--help, nothing, a bad name) gets every command
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code = COMMANDS[args.command][2](args)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # the reader is gone: exit as a writer killed by SIGPIPE does, and let the
        # interpreter's last flush write what is left to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (BudgetError, TransformStuckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
