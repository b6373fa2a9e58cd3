"""Certified time-to-verdict for fifo-stackup on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload stackup_queues --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` as it is, nothing is installed. One
process runs one workload as a closed loop with one client: each verdict
starts when the previous one has been checked, and ``cli_roundtrip`` runs
its child processes one at a time. Whole passes over the corpus repeat
until ``--seconds`` have gone by and at least two passes are done. The
machine this runs on is shared and its speed drifts by up to half for
minutes at a time, so every timed interval is scaled to the machine's
nominal speed by a reference loop run just before and after it (see
``HostClock``); the run and its children stay on one CPU, the one the
reference loop measures. A verdict's sample is the median of its scaled
passes; every corpus has at least 100 inputs, so the 90th percentile has
ten samples beyond it. Unscaled figures are printed on a ``#`` line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. The last line
of standard output is one JSON object; a wrong answer ends the run with
exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from spans import INTERNAL_REFERENCES, Tracer, self_times, span_name  # noqa: E402
from workloads import WORKLOADS, WrongAnswer, check_cli, cli_calls, second_route  # noqa: E402

DEFAULT_SEED = 1
MIN_PASSES = 2
STOP_ADDING_PASSES_S = 120.0
FLOOR_REPEATS_PER_PASS = 5
ALLOC_STRIDE = 4  # tracemalloc slows the DP about fivefold: sample every 4th input
CHILD_TIMEOUT_S = 60
REFERENCE_LOOPS = 10_000
# One reference chunk on the 2-vCPU Xeon host (2.0 GHz, Python 3.11.7)
# when nothing else contends for it; scaled times are seconds at this speed.
REFERENCE_NOMINAL_S = 7.0e-4
FAILED_VERDICT_S = 1e6  # a percentile that lands on a failed verdict (+inf) reads this
CLI_ENTRY = "from fifo_stackup.cli import entry; entry()"
PUBLIC = ("parse_instance", "solve_min_places", "replay",
          "parse_digraph", "dpw_exact", "dpw_via_stackup")

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}

# per-layer metric -> span whose self time it reports, in seconds per pass
LAYER_SPANS = {
    "instance.parse_s": "instance.parse_instance",
    "instance.index_s": "instance.build_pallet_index",
    "processing.solve_s": "processing.solve_min_places",
    "solutions.replay_s": "solutions.replay",
    "solutions.open_set_trace_s": "solutions.open_set_trace",
    "seqgraph.parse_s": "seqgraph.parse_digraph",
    "seqgraph.build_s": "seqgraph.build_sequence_graph",
    "seqgraph.reduce_s": "seqgraph.reduce_digraph_to_queues",
    "seqgraph.to_decomposition_s": "seqgraph.processing_to_decomposition",
    "seqgraph.validate_s": "seqgraph.validate_decomposition",
    "pathwidth.dpw_exact_s": "pathwidth.dpw_exact",
    "pathwidth.via_stackup_self_s": "pathwidth.dpw_via_stackup",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    "processing.ns_per_config": "ns",
    "processing.grid_configs": "count",
    "processing.alloc_bytes_per_config": "B",
    "processing.guard_trips": "count",
    "pathwidth.subsets": "count",
    "pathwidth.ns_per_subset": "ns",
    "pathwidth.guard_trips": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.work_s": "s",
    "generate.corpus_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}
ROOT_SPAN = "bench.verdict"


def pin_to_one_cpu() -> None:
    """Keep the run and its child processes on one CPU. The host's CPUs slow
    down independently of each other, so the reference loop must run on the
    CPU the timed work runs on. Where affinity cannot be set, runs unpinned."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def reference_s() -> float:
    """Wall time of one chunk of fixed interpreter work that touches nothing
    of the program: integer sums, dict stores and a loop."""
    started = time.perf_counter()
    table, total = {}, 0
    for i in range(REFERENCE_LOOPS):
        total += i
        table[i & 63] = total
    return time.perf_counter() - started


class HostClock:
    """Scales wall times to the host's nominal speed.

    The host is shared and its speed drifts by up to half for minutes at a
    time, so every timed interval is bracketed by two reference chunks and
    multiplied by ``REFERENCE_NOMINAL_S`` over their mean. The reference is
    the benchmark's own code, so a change to the program moves the scaled
    time exactly as it moves the wall time.
    """

    def __init__(self) -> None:
        self.last = reference_s()
        self.refs = [self.last]

    def scale(self) -> float:
        """Factor for the interval that ended just now."""
        before, self.last = self.last, reference_s()
        self.refs.append(self.last)
        return REFERENCE_NOMINAL_S / ((before + self.last) / 2)


@dataclass
class Prepared:
    """A workload after set-up: the package, its corpus and expected answers."""

    name: str
    seed: int
    tiny: bool
    fs: object
    items: list
    frontier: list
    expected: dict
    setup_s: list
    corpus_s: list
    expected_from_file: int = 0
    expected_computed: int = 0
    workdir: Path | None = None
    clock: HostClock | None = None


@dataclass
class Side:
    """Outcomes of the untraced or the traced passes.

    ``scaled[i]`` holds input ``i``'s time in every pass, scaled to the
    host's nominal speed, ``wall[i]`` the same times unscaled, and
    ``solved`` the inputs that gave an answer in some pass.
    """

    passes: int = 0
    attempts: int = 0
    wall_s: float = 0.0
    scaled: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    solved: set = field(default_factory=set)
    failures: Counter = field(default_factory=Counter)  # (kind, layer) -> count
    exit_codes: Counter = field(default_factory=Counter)

    def add(self, index: int, elapsed: float, failure, scale: float) -> None:
        self.attempts += 1
        self.wall_s += elapsed
        self.scaled.setdefault(index, []).append(elapsed * scale)
        self.wall.setdefault(index, []).append(elapsed)
        if failure is None:
            self.solved.add(index)
        else:
            self.failures[failure] += 1

    def samples(self, times: dict | None = None) -> list:
        """One time per input, the median of its passes; +inf if it never
        gave an answer."""
        times = self.scaled if times is None else times
        return [statistics.median(t) if i in self.solved else math.inf for i, t in times.items()]

    def verdicts_per_s(self, times: dict | None = None) -> float:
        """Successful verdicts over the time of one pass over the corpus."""
        return len(self.solved) / sum(statistics.median(t) for t in
                                      (self.scaled if times is None else times).values())


def failure_origin(exc: BaseException) -> tuple[str, str]:
    """Exception type and the package module it was raised in."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("fifo_stackup."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return type(exc).__name__, layer


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- set-up -------------------------------------------------------------------

def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "fifo_stackup" or name.startswith("fifo_stackup.")}


def timed_setup(name: str, seed: int, tiny: bool, workdir: Path | None):
    """Import the package afresh and build the corpus (and, for
    ``cli_roundtrip``, write its files). Returns the package, the corpus and
    the set-up and corpus times. Modules imported before are put back
    afterwards, so the running benchmark keeps the functions it holds."""
    held = _package_modules()
    for module in held:
        del sys.modules[module]
    started = time.perf_counter()
    fs = importlib.import_module("fifo_stackup")
    imported = time.perf_counter()
    items, frontier = WORKLOADS[name].corpus(fs, seed, tiny)
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
        for item in items:
            path = workdir / f"{item.key}.{'fsu' if item.kind == 'instance' else 'digraph'}"
            path.write_text(item.text, encoding="utf-8")
            item.file = str(path)
    done = time.perf_counter()
    if held:
        for module in _package_modules():
            del sys.modules[module]
        sys.modules.update(held)
    return fs, items, frontier, done - started, done - imported


def load_expected(name: str) -> dict:
    path = HERE / "expected" / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["answers"]


def prepare(name: str, seed: int, tiny: bool = False) -> Prepared:
    """Set up once and keep the result. Expected answers missing from the
    committed file are computed by the second route, outside the set-up
    time."""
    workdir = WORK / f"cli-{os.getpid()}" if name == "cli_roundtrip" else None
    clock = HostClock()
    fs, items, frontier, setup_s, corpus_s = timed_setup(name, seed, tiny, workdir)
    setup_s *= clock.scale()
    known = load_expected(name)
    expected = {}
    for item in items:
        expected[item.key] = known[item.key] if item.key in known else second_route(fs, item)
    from_file = sum(key in known for key in expected)
    prep = Prepared(name, seed, tiny, fs, items, frontier, expected, [setup_s], [corpus_s],
                    from_file, len(expected) - from_file, workdir, clock)
    if workdir is not None:
        prep.items = cli_calls(items, expected)
    return prep


def resample_setup(prep: Prepared) -> None:
    """One more set-up sample, scaled like a verdict; the corpus it builds is
    the same and is dropped."""
    prep.clock.scale()
    setup_s, corpus_s = timed_setup(prep.name, prep.seed, prep.tiny, prep.workdir)[3:]
    prep.setup_s.append(setup_s * prep.clock.scale())
    prep.corpus_s.append(corpus_s)


# --- verdict runners ----------------------------------------------------------

def make_api(fs, tracer: Tracer | None):
    fns = {name: getattr(fs, name) for name in PUBLIC}
    if tracer is not None:
        fns = {name: tracer.wrap(span_name(fn), fn) for name, fn in fns.items()}
    return SimpleNamespace(**fns)


def in_process_runner(prep: Prepared, tracer: Tracer | None):
    workload, fs = WORKLOADS[prep.name], prep.fs
    api = make_api(fs, tracer)
    verdict = workload.verdict if tracer is None else tracer.wrap(ROOT_SPAN, workload.verdict)

    def run_one(item):
        if tracer is not None:
            tracer.request += 1
        started = time.perf_counter()
        try:
            outcome = verdict(api, item)
        except Exception as exc:  # every failure is counted, none stops the run
            return time.perf_counter() - started, failure_origin(exc), None
        elapsed = time.perf_counter() - started
        item.answers.add(workload.check(fs, item, outcome))
        return elapsed, None, None

    return run_one


@dataclass
class ChildSpans:
    """Spans written by traced CLI children, kept in memory, and the wall
    times of children that only start the interpreter or import the CLI."""

    runs: list = field(default_factory=list)
    self_s: Counter = field(default_factory=Counter)
    bare_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)


def cli_runner(prep: Prepared, child_spans: ChildSpans | None):
    fs = prep.fs
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if child_spans is None:
        command = [sys.executable, "-c", CLI_ENTRY]
    else:
        command = [sys.executable, str(HERE / "cli_shim.py")]
        spans_file = prep.workdir / "spans.json"
        env["PERFBENCH_SPANS"] = str(spans_file)

    def run_one(item):
        started = time.perf_counter()
        try:
            proc = subprocess.run([*command, *item.argv], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - started, ("timeout", "cli"), None
        elapsed = time.perf_counter() - started
        if child_spans is not None and spans_file.is_file():
            spans = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            child_spans.runs.append(spans)
            child_spans.self_s.update(self_times(spans))
        code = proc.returncode
        if code not in item.exit_codes:
            # a readable report with exit 0 or 1 is an answer, and a wrong one
            if code in (0, 1) and proc.stdout.lstrip().startswith("{"):
                raise WrongAnswer(f"{item.key} {item.argv}: exit {code}")
            return elapsed, (f"exit {code}", "cli"), code
        item.answers.add(check_cli(fs, item, code, proc.stdout))
        return elapsed, None, code

    return run_one


# --- measurement ----------------------------------------------------------------

def measure(prep: Prepared, seconds: float, trace: bool, min_passes: int = MIN_PASSES):
    """Whole passes over the corpus, alternating untraced and traced passes
    when tracing. Returns both sides and the tracer."""
    tracer = Tracer() if trace else None
    child_spans = ChildSpans() if trace else None
    cli = prep.name == "cli_roundtrip"
    if cli:
        runners = (cli_runner(prep, None), cli_runner(prep, child_spans) if trace else None)
    else:
        runners = (in_process_runner(prep, None),
                   in_process_runner(prep, tracer) if trace else None)
    plain, traced = Side(), Side()
    started = time.perf_counter()
    while True:
        use_trace = trace and plain.passes > traced.passes
        side, run_one = (traced, runners[1]) if use_trace else (plain, runners[0])
        patches = (tracer.installed(INTERNAL_REFERENCES) if use_trace and not cli
                   else contextlib.nullcontext())
        with patches:
            prep.clock.scale()
            for index, item in enumerate(prep.items):
                elapsed, failure, code = run_one(item)
                side.add(index, elapsed, failure, prep.clock.scale())
                if code is not None:
                    side.exit_codes[code] += 1
        side.passes += 1
        resample_setup(prep)
        if cli and trace:
            sample_startup(child_spans)
        spent = time.perf_counter() - started
        balanced = traced.passes == plain.passes or not trace
        if balanced and (spent >= STOP_ADDING_PASSES_S
                         or spent >= seconds and plain.passes >= min_passes):
            break
    return plain, traced, tracer, child_spans


def verify_answers(prep: Prepared, items) -> None:
    for item in items:
        expected = prep.expected.get(item.key)
        if item.answers and (expected is None or item.answers != {expected}):
            raise WrongAnswer(f"{prep.name} {item.key} {item.argv}: answers "
                              f"{sorted(item.answers)}, expected {expected}")


def probe_frontier(prep: Prepared) -> Counter:
    """Inputs just over the seed's guards, run once, untimed. A guard trip is
    counted; an answer, once a later solver gives one, is checked."""
    trips = Counter()
    if not prep.frontier:
        return trips
    run_one = in_process_runner(prep, None)
    known = load_expected(prep.name)
    for item in prep.frontier:
        _, failure, _ = run_one(item)
        if failure is not None:
            trips[failure] += 1
        elif item.key not in prep.expected:
            prep.expected[item.key] = (known[item.key] if item.key in known
                                       else second_route(prep.fs, item))
    verify_answers(prep, prep.frontier)
    return trips


def alloc_bytes_per_config(prep: Prepared) -> float:
    """tracemalloc peak over a verdict divided by its grid size, summed over
    every ``ALLOC_STRIDE``-th input that runs the DP."""
    sample = [item for item in prep.items[::ALLOC_STRIDE] if item.configs]
    if prep.name == "cli_roundtrip" or not sample:
        return 0.0
    verdict, api = WORKLOADS[prep.name].verdict, make_api(prep.fs, None)
    peak = 0
    tracemalloc.start()
    try:
        for item in sample:
            tracemalloc.reset_peak()
            verdict(api, item)
            peak += tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sum(item.configs for item in sample)


def sample_startup(child_spans: ChildSpans) -> None:
    """Wall times of ``python -c pass`` and of importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(FLOOR_REPEATS_PER_PASS):
        for code, out in (("pass", child_spans.bare_s),
                          ("import fifo_stackup.cli", child_spans.import_s)):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           timeout=CHILD_TIMEOUT_S)
            out.append(time.perf_counter() - started)


# --- metrics ----------------------------------------------------------------------

def end_to_end_metrics(prep: Prepared, plain: Side, peak_rss_mb: float) -> dict:
    samples = plain.samples()
    values = {
        "verdicts_per_s": plain.verdicts_per_s(),
        "verdict_s.p50": min(nearest_rank(samples, 0.5), FAILED_VERDICT_S),
        "verdict_s.p90": min(nearest_rank(samples, 0.9), FAILED_VERDICT_S),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (plain.attempts - sum(plain.failures.values())) / plain.attempts,
        "setup_s": statistics.median(prep.setup_s),
    }
    return values


def per_layer_metrics(prep: Prepared, plain: Side, traced: Side, tracer: Tracer,
                      child_spans: ChildSpans, trips: Counter) -> dict:
    passes = traced.passes
    cli = prep.name == "cli_roundtrip"
    totals = child_spans.self_s if cli else self_times(tracer.spans)
    values = {name: totals.get(span, 0.0) / passes for name, span in LAYER_SPANS.items()}
    solved = [item for item in prep.items if item.answers]
    configs = sum(item.configs for item in solved)
    subsets = sum(item.subsets for item in solved)
    values["processing.grid_configs"] = configs
    values["processing.ns_per_config"] = (
        values["processing.solve_s"] / configs * 1e9 if configs else 0.0)
    values["pathwidth.subsets"] = subsets
    values["pathwidth.ns_per_subset"] = (
        values["pathwidth.dpw_exact_s"] / subsets * 1e9 if subsets else 0.0)
    values["processing.alloc_bytes_per_config"] = alloc_bytes_per_config(prep)
    for layer in ("processing", "pathwidth"):
        in_pass = sum(n for (kind, where), n in traced.failures.items()
                      if kind == "BudgetError" and where == layer) / passes
        in_probe = sum(n for (kind, where), n in trips.items()
                       if kind == "BudgetError" and where == layer)
        values[f"{layer}.guard_trips"] = in_pass + in_probe
    values["generate.corpus_s"] = min(prep.corpus_s)
    values["trace.overhead_ratio"] = plain.verdicts_per_s() / traced.verdicts_per_s()
    if cli:
        # start-up floors from the fastest samples; work from the median
        # unscaled call against the median start-up
        values["cli.interpreter_s"] = min(child_spans.bare_s)
        values["cli.import_s"] = min(child_spans.import_s) - values["cli.interpreter_s"]
        values["cli.work_s"] = (1 / plain.verdicts_per_s(plain.wall)
                                - statistics.median(child_spans.import_s))
        inside = sum(child_spans.self_s.values())
        values["trace.accounted_ratio"] = (
            inside + statistics.median(child_spans.import_s) * traced.attempts) / traced.wall_s
    else:
        values["cli.interpreter_s"] = values["cli.import_s"] = values["cli.work_s"] = 0.0
        inside = sum(t for span, t in totals.items() if span != ROOT_SPAN)
        values["trace.accounted_ratio"] = inside / traced.wall_s
    return values


def write_spans(prep: Prepared, tracer: Tracer, child_spans: ChildSpans) -> Path:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{prep.name}-seed{prep.seed}.json"
    fields = ["name", "start_ns", "end_ns", "parent", "request", "error"]
    payload = {"fields": fields, "spans": tracer.spans, "child_runs": child_spans.runs}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    prep = prepare(name, seed, tiny)
    try:
        plain, traced, tracer, child_spans = measure(
            prep, seconds, trace, min_passes=1 if tiny else MIN_PASSES)
        who = resource.RUSAGE_CHILDREN if prep.workdir is not None else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        verify_answers(prep, prep.items)
        trips = probe_frontier(prep)
        if trace:
            metrics = per_layer_metrics(prep, plain, traced, tracer, child_spans, trips)
            units = PER_LAYER_UNITS
            print(f"# spans written to {write_spans(prep, tracer, child_spans)}")
        else:
            metrics = end_to_end_metrics(prep, plain, peak_rss_mb)
            units = END_TO_END_UNITS
    finally:
        if prep.workdir is not None:
            shutil.rmtree(prep.workdir, ignore_errors=True)
    attempted = plain.attempts + traced.attempts
    failures = plain.failures + traced.failures
    failed = sum(failures.values())
    print(f"# {name} seed={seed} trace={int(trace)} passes={plain.passes}+{traced.passes} "
          f"corpus={len(prep.items)} samples={len(prep.items)} (median pass of each input) "
          f"verdicts={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.4f} exit_codes={dict(plain.exit_codes)}")
    print(f"# expected answers: {prep.expected_from_file} from file, "
          f"{prep.expected_computed} by second route; "
          f"frontier: {len(prep.frontier)} tried, outcomes {dict(trips) or 'all answered'}")
    if not trace:
        raw = plain.samples(plain.wall)
        print(f"# unscaled wall times: verdicts_per_s={plain.verdicts_per_s(plain.wall):.6g} "
              f"p50={nearest_rank(raw, 0.5):.6g} p90={nearest_rank(raw, 0.9):.6g}; reference chunk "
              f"median {statistics.median(prep.clock.refs):.6g} s over {len(prep.clock.refs)}, "
              f"nominal {REFERENCE_NOMINAL_S:g} s")
    for kind, count in sorted(failures.items()):
        print(f"# failure {kind}: {count}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fifo_stackup" / "__init__.py").is_file():
        print(f"error: no fifo_stackup package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
