"""Self-test of the benchmark on tiny corpora; takes well under a minute.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a corrupted expected answer stops the run, that a forced guard trip
and an unexpected exit code are counted as failures, and that a correct
"no" (exit 1 from ``solve -p``) is not. Exits 1 on the first check that
does not hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import sys
from unittest import mock

import run
import workloads
from workloads import WrongAnswer

SEED = 5


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def quiet_run(name: str, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(name, SEED, 0, trace, tiny=True)


def with_frontier_timed(name: str):
    """The workload with its frontier inputs moved into the timed corpus."""
    workload = workloads.WORKLOADS[name]

    def corpus(fs, seed, tiny):
        items, frontier = workload.corpus(fs, seed, tiny)
        return items + frontier, []

    return dataclasses.replace(workload, corpus=corpus)


def check_metric_names(spec: dict) -> None:
    for entry in spec["workloads"]:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = quiet_run(entry["name"], trace)
            want = {metric["name"]: metric["unit"] for metric in spec[section]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            finite = all(isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
                         for metric in result["metrics"].values())
            expect(got == want and finite and result["correct"],
                   f"{entry['name']} --trace {int(trace)} prints every {section} metric with its unit")


def check_corrupted_answer() -> None:
    for name in ("stackup_queues", "cli_roundtrip"):
        prep = run.prepare(name, SEED, tiny=True)
        key = prep.items[0].key
        corrupted = dict(prep.expected, **{key: prep.expected[key] + 1})
        with mock.patch.object(run, "load_expected", lambda _name, answers=corrupted: answers):
            try:
                quiet_run(name, False)
            except WrongAnswer:
                detected = True
            else:
                detected = False
        expect(detected, f"{name}: a corrupted expected answer stops the run")


def check_failure_accounting() -> None:
    for name in ("dpw_subset", "dpw_reduced"):
        with mock.patch.dict(workloads.WORKLOADS, {name: with_frontier_timed(name)}):
            result = quiet_run(name, False)
        ok_ratio = result["metrics"]["ok_ratio"]["value"]
        expect(result["failed"] == 1 and ok_ratio == 1 - 1 / result["attempted"]
               and result["metrics"]["verdict_s.p90"]["value"] > 0,
               f"{name}: a forced guard trip is counted as a failure")

    prep = run.prepare("cli_roundtrip", SEED, tiny=True)
    with contextlib.redirect_stdout(io.StringIO()):
        plain = run.measure(prep, 0, False, min_passes=1)[0]
    expect(plain.exit_codes[1] > 0 and not plain.failures,
           "cli_roundtrip: a correct 'no' with exit 1 is not a failure")

    frontier = workloads.WORKLOADS["dpw_subset"].corpus(prep.fs, SEED, True)[1][0]
    frontier.file = str(prep.workdir / "frontier.digraph")
    (prep.workdir / "frontier.digraph").write_text(frontier.text, encoding="utf-8")
    prep.expected[frontier.key] = workloads.second_route(prep.fs, frontier)
    prep.items = workloads.cli_calls([frontier], prep.expected)
    plain = run.measure(prep, 0, False, min_passes=1)[0]
    shutil.rmtree(prep.workdir)
    expect(plain.failures == {("exit 2", "cli"): len(prep.items)},
           "cli_roundtrip: an unexpected exit code (2, guard trip) is a failure")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (run.SRC / "fifo_stackup" / "__init__.py").is_file():
        print("FAIL: no fifo_stackup package under src/")
        return 1
    sys.path.insert(0, str(run.SRC))
    check_metric_names(spec)
    check_corrupted_answer()
    check_failure_accounting()
    return 0


if __name__ == "__main__":
    sys.exit(main())
