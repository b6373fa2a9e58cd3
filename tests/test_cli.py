import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fifo_stackup import dpw_exact, parse_digraph, parse_instance
from fifo_stackup.cli import SolveReport, main

TWO_QUEUE_TEXT = "seq 1: a a b b\nseq 2: c d e c a d b e\n"
THREE_QUEUE_TEXT = "seq 1: a a d e d\nseq 2: b b d\nseq 3: c c d e d\n"
RING_DIGRAPH_TEXT = "a b\nb c\nc d\nd e\ne a\ne f\nf a\n"


@pytest.fixture
def two_queue_path(tmp_path):
    path = tmp_path / "ex1.fsu"
    path.write_text(TWO_QUEUE_TEXT)
    return str(path)


@pytest.fixture
def three_queue_path(tmp_path):
    path = tmp_path / "ex4.fsu"
    path.write_text(THREE_QUEUE_TEXT)
    return str(path)


@pytest.fixture
def ring_digraph_path(tmp_path):
    path = tmp_path / "ex5.digraph"
    path.write_text(RING_DIGRAPH_TEXT)
    return str(path)


class TestSolve:
    def test_min_two_queue(self, two_queue_path, capsys):
        assert main(["solve", "--min", two_queue_path]) == 0
        out = capsys.readouterr().out
        assert "min places: 3" in out

    def test_decision_no(self, two_queue_path, capsys):
        assert main(["solve", "-p", "2", two_queue_path]) == 1
        assert capsys.readouterr().out.strip().startswith("no")

    def test_decision_yes(self, two_queue_path, capsys):
        assert main(["solve", "-p", "5", two_queue_path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "yes"

    @pytest.mark.parametrize("method", ["dp", "pallet-bf", "bin-bf"])
    def test_methods_agree(self, two_queue_path, method, capsys):
        argv = ["solve", "--min", "--method", method, two_queue_path]
        if method == "bin-bf":
            argv += ["--max-bins", "12"]  # the two-queue sample has 12 bins
        assert main(argv) == 0
        assert "min places: 3" in capsys.readouterr().out

    def test_json_report_round_trips(self, two_queue_path, capsys):
        assert main(["solve", "--min", "--json", two_queue_path]) == 0
        report = SolveReport.from_json(capsys.readouterr().out)
        assert report.min_places == 3
        assert report.max_open == 3
        assert report.to_json() == SolveReport.from_json(report.to_json()).to_json()
        assert SolveReport.from_json(report.to_json()) == report

    def test_budget_guard_exit_code(self, two_queue_path, capsys):
        assert main(["solve", "--min", "--budget", "4", two_queue_path]) == 2
        assert "state space too large" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.fsu"
        bad.write_text("seq 1: a\nseq 2:\n")
        assert main(["solve", "--min", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_reads_utf8_under_ascii_locale(self, tmp_path):
        path = tmp_path / "cafe.fsu"
        path.write_bytes(("# café\n" + TWO_QUEUE_TEXT).encode("utf-8"))
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", "from fifo_stackup.cli import entry; entry()",
             "solve", "--min", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "min places: 3" in done.stdout


class TestTransform:
    def test_two_queue(self, two_queue_path, capsys):
        assert main(["transform", "--pallets", "c,d,e,a,b", two_queue_path]) == 0
        assert "max open: 3" in capsys.readouterr().out

    def test_three_queue(self, three_queue_path, capsys):
        assert main(["transform", "--pallets", "a,b,c,d,e", three_queue_path]) == 0
        assert "max open: 2" in capsys.readouterr().out

    def test_incomplete_order(self, two_queue_path, capsys):
        assert main(["transform", "--pallets", "a,b", two_queue_path]) == 2
        assert "stuck" in capsys.readouterr().err


class TestGraphCommands:
    def test_seqgraph_dot(self, three_queue_path, capsys):
        assert main(["seqgraph", "--dot", three_queue_path]) == 0
        first = capsys.readouterr().out
        assert first.count("->") == 7
        assert main(["seqgraph", "--dot", three_queue_path]) == 0
        assert capsys.readouterr().out == first

    def test_seqgraph_plain_is_parseable(self, two_queue_path, capsys):
        assert main(["seqgraph", two_queue_path]) == 0
        graph = parse_digraph(capsys.readouterr().out)
        assert set(graph.names) == set("abcde")

    def test_reduce(self, ring_digraph_path, capsys):
        assert main(["reduce", ring_digraph_path]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.k == 7
        assert all(len(seq) == 2 for seq in inst.sequences)

    def test_reduce_inadmissible(self, tmp_path, capsys):
        path = tmp_path / "bad.digraph"
        path.write_text("a b\n")
        assert main(["reduce", str(path)]) == 2
        assert main(["reduce", "--strip", str(path)]) == 2  # nothing left

    def test_dpw(self, ring_digraph_path, capsys):
        assert main(["dpw", ring_digraph_path]) == 0
        out = capsys.readouterr().out
        graph = parse_digraph(RING_DIGRAPH_TEXT)
        assert f"width: {dpw_exact(graph).width}" in out

    def test_dpw_stackup_matches(self, ring_digraph_path, capsys):
        assert main(["dpw", "--method", "stackup", ring_digraph_path]) == 0
        out = capsys.readouterr().out
        graph = parse_digraph(RING_DIGRAPH_TEXT)
        assert f"width: {dpw_exact(graph).width}" in out

    def test_dpw_json_and_dot(self, ring_digraph_path, capsys):
        assert main(["dpw", "--json", ring_digraph_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["width"] == 1
        assert main(["dpw", "--dot", ring_digraph_path]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        argv = ["gen", "--pallets", "5", "--queues", "2",
                "--bins-per-pallet", "2:3", "--seed", "7"]
        first = tmp_path / "one.fsu"
        second = tmp_path / "two.fsu"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_generated_instances_validate_clean(self, capsys):
        assert main(["gen", "--pallets", "4", "--queues", "3", "--seed", "11"]) == 0
        captured = capsys.readouterr()
        inst = parse_instance(captured.out)
        assert min(inst.bin_counts()) >= 2
        assert captured.err == ""

    def test_from_digraph_bounded_bins(self, capsys):
        assert main(["gen", "--from-digraph", "--vertices", "6",
                     "--max-deg", "3", "--seed", "3"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert max(inst.bin_counts()) <= 6
        assert all(len(seq) == 2 for seq in inst.sequences)

    def test_infeasible_spec(self, capsys):
        assert main(["gen", "--pallets", "1", "--queues", "9",
                     "--bins-per-pallet", "2:2", "--seed", "0"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_single_bin_pallets_warn(self, capsys):
        assert main(["gen", "--pallets", "6", "--queues", "2",
                     "--bins-per-pallet", "1:1", "--seed", "4"]) == 0
        captured = capsys.readouterr()
        assert "only one bin" in captured.err

    def test_single_queue_oracle_run(self, capsys):
        from fifo_stackup import brute_force_bin_orders

        assert main(["gen", "--pallets", "3", "--queues", "1",
                     "--bins-per-pallet", "2:2", "--seed", "1"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.n == 6 and inst.k == 1
        assert brute_force_bin_orders(inst) >= 1


class TestBench:
    def test_agreeing_methods(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(20):
            assert main(["gen", "--pallets", "4", "--queues", "2", "--seed",
                         str(seed), "--out", str(corpus / f"i{seed:02d}.fsu")]) == 0
        capsys.readouterr()
        assert main(["bench", str(corpus), "--methods", "dp,pallet-bf"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("instance,method,value")
        assert len(lines) == 1 + 20 * 2
        assert all(",ok" in line for line in lines[1:])

    def test_json_output(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "--pallets", "3", "--queues", "2", "--seed", "5",
              "--out", str(corpus / "a.fsu")])
        capsys.readouterr()
        assert main(["bench", str(corpus), "--methods", "dp", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["status"] == "ok"

    def test_guard_trips_are_not_fatal(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        main(["gen", "--pallets", "6", "--queues", "2", "--seed", "2",
              "--out", str(corpus / "big.fsu")])
        capsys.readouterr()
        assert main(["bench", str(corpus), "--methods", "dp,pallet-bf",
                     "--max-pallets", "3"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out and ",ok" in out

    def test_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        assert main(["bench", str(corpus)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # header only

    def test_unreadable_file_is_a_row(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.fsu").write_text(TWO_QUEUE_TEXT)
        (corpus / "b.fsu").write_text("seq 1: a\nseq 2:\n")
        (corpus / "c.fsu").write_text(THREE_QUEUE_TEXT)
        assert main(["bench", str(corpus), "--methods", "dp,pallet-bf", "--json"]) == 2
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert [(row["instance"], row["method"]) for row in rows] == [
            (name, method) for name in ("a.fsu", "b.fsu", "c.fsu")
            for method in ("dp", "pallet-bf")]
        for row in rows:
            if row["instance"] == "b.fsu":
                assert row["value"] is None and row["status"].startswith("error: line 2")
            else:
                assert row["status"] == "ok"
        assert {row["value"] for row in rows if row["instance"] == "a.fsu"} == {3}
        assert "could not read b.fsu" in captured.err

    def test_unknown_method(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        assert main(["bench", str(corpus), "--methods", "magic"]) == 2
