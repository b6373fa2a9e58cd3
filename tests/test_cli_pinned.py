"""CLI output pinned byte for byte on fixed inputs.

Each case runs ``fifo-stackup`` in a fresh interpreter, as a user does, so a
command that works only because some other module happens to be loaded
fails here.  The expected stdout and exit codes were captured before the CLI
loaded its modules per command; solver times vary and are masked.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TWO_QUEUE_TEXT = "seq 1: a a b b\nseq 2: c d e c a d b e\n"
THREE_QUEUE_TEXT = "seq 1: a a d e d\nseq 2: b b d\nseq 3: c c d e d\n"
RING_DIGRAPH_TEXT = "a b\nb c\nc d\nd e\ne a\ne f\nf a\n"
BENCH_CSV_HEADER = "instance,method,value,time_seconds,status\n"

# (case id, argv with {file} placeholders, exit code, stdout with times as T)
CASES = [
    ("solve_min_json", ["solve", "--min", "--json", "{two}"],
     0,
     "{\n"
     '  "bin_solution": [\n'
     "    [\n"
     "      1,\n"
     "      1\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      2\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      3\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      4\n"
     "    ],\n"
     "    [\n"
     "      0,\n"
     "      1\n"
     "    ],\n"
     "    [\n"
     "      0,\n"
     "      2\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      5\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      6\n"
     "    ],\n"
     "    [\n"
     "      0,\n"
     "      3\n"
     "    ],\n"
     "    [\n"
     "      0,\n"
     "      4\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      7\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      8\n"
     "    ]\n"
     "  ],\n"
     '  "instance": "ex1.fsu",\n'
     '  "max_open": 3,\n'
     '  "method": "dp",\n'
     '  "min_places": 3,\n'
     '  "open_trace": [\n'
     "    0,\n"
     "    1,\n"
     "    2,\n"
     "    3,\n"
     "    2,\n"
     "    3,\n"
     "    3,\n"
     "    2,\n"
     "    1,\n"
     "    2,\n"
     "    2,\n"
     "    1,\n"
     "    0\n"
     "  ],\n"
     '  "pallet_solution": [\n'
     '    "c",\n'
     '    "d",\n'
     '    "e",\n'
     '    "a",\n'
     '    "b"\n'
     "  ],\n"
     '  "time_seconds": T\n'
     "}\n"),
    ("solve_min", ["solve", "--min", "{three}"],
     0,
     "min places: 2\n"
     "pallet solution: c,a,d,e,b\n"
     "bin solution: q3[1] q3[2] q1[1] q1[2] q1[3] q1[4] q1[5] q3[3] q3[4] q3[5] q2[1] q2[2] q2[3]\n"),
    ("solve_decision_yes", ["solve", "-p", "3", "{two}"],
     0,
     "yes\n"
     "pallet solution: c,d,e,a,b\n"
     "bin solution: q2[1] q2[2] q2[3] q2[4] q1[1] q1[2] q2[5] q2[6] q1[3] q1[4] q2[7] q2[8]\n"),
    ("solve_decision_no", ["solve", "-p", "2", "{two}"],
     1,
     "no\n"),
    ("solve_pallet_bf", ["solve", "--min", "--method", "pallet-bf", "{two}"],
     0,
     "min places: 3\n"
     "pallet solution: c,d,e,a,b\n"
     "bin solution: q2[1] q2[2] q2[3] q2[4] q1[1] q1[2] q2[5] q2[6] q1[3] q1[4] q2[7] q2[8]\n"),
    ("solve_bin_bf", ["solve", "--min", "--method", "bin-bf", "--max-bins", "12", "{two}"],
     0,
     "min places: 3\n"),
    ("transform_json", ["transform", "--pallets", "c,d,e,a,b", "--json", "{two}"],
     0,
     "{\n"
     '  "bin_solution": [\n'
     "    [\n"
     "      1,\n"
     "      1\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      2\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      3\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      4\n"
     "    ],\n"
     "    [\n"
     "      0,\n"
     "      1\n"
     "    ],\n"
     "    [\n"
     "      0,\n"
     "      2\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      5\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      6\n"
     "    ],\n"
     "    [\n"
     "      0,\n"
     "      3\n"
     "    ],\n"
     "    [\n"
     "      0,\n"
     "      4\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      7\n"
     "    ],\n"
     "    [\n"
     "      1,\n"
     "      8\n"
     "    ]\n"
     "  ],\n"
     '  "max_open": 3,\n'
     '  "pallet_solution": [\n'
     '    "c",\n'
     '    "d",\n'
     '    "e",\n'
     '    "a",\n'
     '    "b"\n'
     "  ]\n"
     "}\n"),
    ("dpw_subset_json", ["dpw", "--json", "{ring}"],
     0,
     "{\n"
     '  "bags": [\n'
     "    [\n"
     '      "e"\n'
     "    ],\n"
     "    [\n"
     '      "d",\n'
     '      "e"\n'
     "    ],\n"
     "    [\n"
     '      "c",\n'
     '      "d"\n'
     "    ],\n"
     "    [\n"
     '      "b",\n'
     '      "c"\n'
     "    ],\n"
     "    [\n"
     '      "a",\n'
     '      "b"\n'
     "    ],\n"
     "    [\n"
     '      "a",\n'
     '      "f"\n'
     "    ]\n"
     "  ],\n"
     '  "width": 1\n'
     "}\n"),
    ("dpw_stackup_json", ["dpw", "--method", "stackup", "--json", "{ring}"],
     0,
     "{\n"
     '  "bags": [\n'
     "    [],\n"
     "    [\n"
     '      "e"\n'
     "    ],\n"
     "    [\n"
     '      "e"\n'
     "    ],\n"
     "    [\n"
     '      "d",\n'
     '      "e"\n'
     "    ],\n"
     "    [\n"
     '      "d"\n'
     "    ],\n"
     "    [\n"
     '      "c",\n'
     '      "d"\n'
     "    ],\n"
     "    [\n"
     '      "c"\n'
     "    ],\n"
     "    [\n"
     '      "b",\n'
     '      "c"\n'
     "    ],\n"
     "    [\n"
     '      "b"\n'
     "    ],\n"
     "    [\n"
     '      "a",\n'
     '      "b"\n'
     "    ],\n"
     "    [\n"
     '      "a"\n'
     "    ],\n"
     "    [\n"
     '      "a"\n'
     "    ],\n"
     "    [\n"
     '      "a",\n'
     '      "f"\n'
     "    ],\n"
     "    [\n"
     '      "a"\n'
     "    ],\n"
     "    []\n"
     "  ],\n"
     '  "width": 1\n'
     "}\n"),
    ("gen", ["gen"],
     0,
     "seq 1: p1 p4 p5 p3 p3 p5 p2 p1\n"
     "seq 2: p1 p4 p5 p3 p2\n"),
    ("gen_from_digraph", ["gen", "--from-digraph", "--vertices", "5", "--seed", "3"],
     0,
     "seq 1: v1 v2\n"
     "seq 2: v1 v3\n"
     "seq 3: v2 v1\n"
     "seq 4: v2 v3\n"
     "seq 5: v2 v4\n"
     "seq 6: v3 v1\n"
     "seq 7: v3 v2\n"
     "seq 8: v3 v5\n"
     "seq 9: v4 v2\n"
     "seq 10: v4 v3\n"
     "seq 11: v5 v1\n"),
    ("bench_json", ["bench", "--methods", "dp,pallet-bf,bin-bf", "--max-bins", "13", "--json", "{corpus}"],
     0,
     "[\n"
     "  {\n"
     '    "instance": "ex1.fsu",\n'
     '    "method": "dp",\n'
     '    "status": "ok",\n'
     '    "time_seconds": T,\n'
     '    "value": 3\n'
     "  },\n"
     "  {\n"
     '    "instance": "ex1.fsu",\n'
     '    "method": "pallet-bf",\n'
     '    "status": "ok",\n'
     '    "time_seconds": T,\n'
     '    "value": 3\n'
     "  },\n"
     "  {\n"
     '    "instance": "ex1.fsu",\n'
     '    "method": "bin-bf",\n'
     '    "status": "ok",\n'
     '    "time_seconds": T,\n'
     '    "value": 3\n'
     "  },\n"
     "  {\n"
     '    "instance": "ex4.fsu",\n'
     '    "method": "dp",\n'
     '    "status": "ok",\n'
     '    "time_seconds": T,\n'
     '    "value": 2\n'
     "  },\n"
     "  {\n"
     '    "instance": "ex4.fsu",\n'
     '    "method": "pallet-bf",\n'
     '    "status": "ok",\n'
     '    "time_seconds": T,\n'
     '    "value": 2\n'
     "  },\n"
     "  {\n"
     '    "instance": "ex4.fsu",\n'
     '    "method": "bin-bf",\n'
     '    "status": "ok",\n'
     '    "time_seconds": T,\n'
     '    "value": 2\n'
     "  }\n"
     "]\n"),
    ("bench_csv", ["bench", "--methods", "dp,pallet-bf", "{corpus}"],
     0,
     "instance,method,value,time_seconds,status\n"
     "ex1.fsu,dp,3,T,ok\n"
     "ex1.fsu,pallet-bf,3,T,ok\n"
     "ex4.fsu,dp,2,T,ok\n"
     "ex4.fsu,pallet-bf,2,T,ok\n"),
    ("solve_help", ["solve", "--help"],
     0,
     "usage: fifo-stackup solve [-h] (-p PLACES | --min)\n"
     "                          [--method {dp,pallet-bf,bin-bf}] [--budget BUDGET]\n"
     "                          [--max-pallets MAX_PALLETS] [--max-bins MAX_BINS]\n"
     "                          [--json]\n"
     "                          instance\n"
     "\n"
     "positional arguments:\n"
     "  instance\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  -p PLACES, --places PLACES\n"
     "                        decision mode: can the instance be processed with at\n"
     "                        most P places?\n"
     "  --min                 optimization mode: report the minimum number of places\n"
     "  --method {dp,pallet-bf,bin-bf}\n"
     "  --budget BUDGET       configuration-count guard for the dp method\n"
     "  --max-pallets MAX_PALLETS\n"
     "                        pallet guard for pallet-bf\n"
     "  --max-bins MAX_BINS   bin guard for bin-bf\n"
     "  --json\n"),
]


def mask_times(text):
    """Replace solver times, in JSON reports and in the time column of bench
    CSV rows, by T."""
    text = re.sub(r'"time_seconds": [-+.e0-9]+', '"time_seconds": T', text)
    if not text.startswith(BENCH_CSV_HEADER):
        return text
    return re.sub(r"(?m)^([^,\n]*,[^,\n]*,[^,\n]*,)[-+.e0-9]+,", r"\1T,", text)


def test_mask_times_masks_only_bench_csv_times():
    solve = "min places: 2\npallet solution: c,a,d,e,b\n"
    assert mask_times(solve) == solve
    assert mask_times(BENCH_CSV_HEADER + "ex4.fsu,dp,2,0.000123,ok\n") == \
        BENCH_CSV_HEADER + "ex4.fsu,dp,2,T,ok\n"


def as_this_python_prints(stdout):
    """argparse from Python 3.13 on names the metavar of ``-p/--places`` once."""
    if sys.version_info < (3, 13):
        return stdout
    return stdout.replace("-p PLACES, --places PLACES\n                       ",
                          "-p, --places PLACES  ")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    corpus = root / "corpus"
    corpus.mkdir()
    for directory in (root, corpus):
        (directory / "ex1.fsu").write_text(TWO_QUEUE_TEXT, encoding="utf-8")
        (directory / "ex4.fsu").write_text(THREE_QUEUE_TEXT, encoding="utf-8")
    (root / "ex5.digraph").write_text(RING_DIGRAPH_TEXT, encoding="utf-8")
    return {"two": str(root / "ex1.fsu"), "three": str(root / "ex4.fsu"),
            "ring": str(root / "ex5.digraph"), "corpus": str(corpus)}


@pytest.mark.parametrize("argv,code,stdout", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_cli_output_is_pinned(files, argv, code, stdout):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-c", "from fifo_stackup.cli import entry; entry()",
         *(arg.format(**files) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, mask_times(done.stdout)) == (code, as_this_python_prints(stdout)), \
        done.stderr
