"""Write the expected answers of every workload for a list of seeds.

    python3 perfbench/make_expected.py --seeds 0-15,9001

Each answer is computed twice, by the route the verdict takes (for the
frontier, where that route is over its guard, by ``dpw_exact`` with the
guard raised) and by a second route (``workloads.second_route``). Nothing
is written unless the two agree, and agree with any entry the file already
holds. The files are keyed by a fingerprint of the input text, so any seed
can use them; inputs missing from a file are checked by the second route at
run time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, first_route, second_route  # noqa: E402

ROUTES = {
    "instance": "solve_min_places; dpw_exact(build_sequence_graph(inst)).width + 1",
    "digraph": "dpw_via_stackup or dpw_exact (dpw_exact with max_vertices=17 on the frontier); "
               "dpw_exact on the reversed digraph",
}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15,9001")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    import fifo_stackup as fs

    for name in args.workloads.split(","):
        path = HERE / "expected" / f"{name}.json"
        answers = json.loads(path.read_text(encoding="utf-8"))["answers"] if path.is_file() else {}
        for seed in parse_seeds(args.seeds):
            items, frontier = WORKLOADS[name].corpus(fs, seed, False)
            for item in items + frontier:
                first, second = first_route(fs, item), second_route(fs, item)
                if first != second or answers.get(item.key, first) != first:
                    print(f"error: {name} seed {seed} {item.key}: routes give {first} and {second}, "
                          f"file has {answers.get(item.key)}", file=sys.stderr)
                    return 1
                answers[item.key] = first
            print(f"{name} seed {seed}: {len(answers)} answers", flush=True)
        payload = {"routes": ROUTES, "answers": dict(sorted(answers.items()))}
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
