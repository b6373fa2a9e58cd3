import codecs
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fifo_stackup import (SplitMix64, decomposition_to_dot, dpw_exact, parse_digraph,
                          parse_instance)
from fifo_stackup.cli import main

TWO_QUEUE_TEXT = "seq 1: a a b b\nseq 2: c d e c a d b e\n"
THREE_QUEUE_TEXT = "seq 1: a a d e d\nseq 2: b b d\nseq 3: c c d e d\n"
RING_DIGRAPH_TEXT = "a b\nb c\nc d\nd e\ne a\ne f\nf a\n"
# pallet-bf searches p4,p2,p6,p5,p3,p1 here, but its bins open p4,p6,p5,p3,p2,p1
OPENING_ORDER_TEXT = "seq 1: p4 p4 p4 p1 p2\nseq 2: p6 p5\nseq 3: p3 p2 p5 p6 p3 p1 p2\n"
JSON_KEYS = ("instance", "method", "min_places", "pallet_solution", "bin_solution", "max_open",
             "open_trace", "time_seconds")
PINNED_PATH = Path(__file__).resolve().parent / "test_cli_pinned.py"


def load_pinned():
    """The pinned CLI cases, loaded from their file, so that this module does
    not depend on how pytest puts the test files on ``sys.path``."""
    spec = importlib.util.spec_from_file_location("pinned_cli_cases", PINNED_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PINNED = load_pinned()


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

    @pytest.mark.parametrize("method", ["dp", "pallet-bf"])
    def test_pallet_solution_is_the_opening_order(self, tmp_path, method, capsys):
        """The reported pallet solution is the order in which the reported bin
        solution opens pallets, not the order a solver searched."""
        from fifo_stackup import BinSolution, GenSpec, emit_instance, generate_instance, opening_order

        texts = [OPENING_ORDER_TEXT]
        for seed in range(40):
            rng = SplitMix64(seed + 606)
            m = 3 + rng.below(4)
            spec = GenSpec(pallets=m, queues=1 + rng.below(3), min_bins=1 + rng.below(2),
                           max_bins=3, seed=seed)
            texts.append(emit_instance(generate_instance(spec)))
        for i, text in enumerate(texts):
            path = tmp_path / f"i{i}.fsu"
            path.write_text(text)
            assert main(["solve", "--min", "--json", "--method", method, str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            inst = parse_instance(text)
            moves = tuple(map(tuple, report["bin_solution"]))
            opened = opening_order(inst, BinSolution(moves)).to_symbols(inst)
            assert tuple(report["pallet_solution"]) == opened, text

    def test_json_report_round_trips(self, two_queue_path, capsys):
        assert main(["solve", "--min", "--json", two_queue_path]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert sorted(report) == sorted(JSON_KEYS)
        assert report["min_places"] == report["max_open"] == 3
        assert report["instance"] == "ex1.fsu" and report["method"] == "dp"
        assert len(report["open_trace"]) == len(report["bin_solution"]) + 1
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out

    def test_json_report_without_witness(self, two_queue_path, capsys):
        """bin-bf only counts, so every witness key of its payload is null."""
        assert main(["solve", "--min", "--json", "--method", "bin-bf", "--max-bins", "12",
                     two_queue_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == sorted(JSON_KEYS)
        assert report["min_places"] == 3
        for key in ("pallet_solution", "bin_solution", "max_open", "open_trace"):
            assert report[key] is None, key

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

    @pytest.mark.parametrize("argv, code, first_line", [
        (["--min"], 0, "min places: 3"),
        (["-p", "2"], 1, "no"),
    ])
    def test_runs_as_module(self, two_queue_path, argv, code, first_line, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "fifo_stackup.cli", "solve", *argv, two_queue_path],
            env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (code, "")
        assert done.stdout.splitlines()[0].startswith(first_line)
        assert main(["solve", *argv, two_queue_path]) == code
        assert done.stdout == capsys.readouterr().out


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

    def test_seqgraph_plain_is_parseable(self, two_queue_path, tmp_path, capsys):
        assert main(["seqgraph", two_queue_path]) == 0
        graph = parse_digraph(capsys.readouterr().out)
        assert set(graph.names) == set("abcde")
        # a pallet named like the isolated-vertex keyword cannot be written
        reserved = tmp_path / "reserved.fsu"
        reserved.write_text("seq 1: vertex b vertex b\n")
        assert main(["seqgraph", str(reserved)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "reserved" in captured.err

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

    def test_dpw_stackup_strips_inadmissible_vertices(self, tmp_path, capsys):
        path = tmp_path / "chain.digraph"
        path.write_text("a b\nb c\nvertex d\n")
        assert main(["dpw", "--method", "stackup", str(path)]) == 0
        assert capsys.readouterr().out == "width: 0\nX1: a\nX2: b\nX3: c\nX4: d\n"

    def test_dpw_json_and_dot(self, ring_digraph_path, capsys):
        assert main(["dpw", "--json", ring_digraph_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["width"] == 1
        graph = parse_digraph(RING_DIGRAPH_TEXT)
        assert main(["dpw", "--dot", ring_digraph_path]) == 0
        assert capsys.readouterr().out == decomposition_to_dot(
            graph, dpw_exact(graph).decomposition)

    @pytest.mark.parametrize("flags,message", [
        (["--dot", "--json"], "argument --json: not allowed with argument --dot"),
        (["--json", "--dot"], "argument --dot: not allowed with argument --json"),
    ])
    def test_dpw_dot_and_json_exclude_each_other(self, ring_digraph_path, flags, message,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dpw", *flags, ring_digraph_path])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")


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

    @pytest.mark.parametrize("value", ["x", "1:", ":3", "2:y", "2.5"])
    def test_bad_bins_per_pallet_names_the_option(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--bins-per-pallet", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --bins-per-pallet: expected LO or LO:HI, got {value!r}\n")

    def test_bins_per_pallet_lo_alone_is_lo_to_lo(self, capsys):
        outputs = []
        for value in ("3", "3:3"):
            assert main(["gen", "--pallets", "4", "--queues", "2",
                         "--bins-per-pallet", value, "--seed", "6"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert set(parse_instance(outputs[0]).bin_counts()) == {3}

    def test_single_queue_oracle_run(self, capsys):
        from fifo_stackup.oracles import brute_force_bin_orders

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

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_corpus_that_is_not_a_directory(self, tmp_path, kind, capsys):
        corpus = tmp_path / "corpus"
        if kind == "file":
            corpus.write_text(TWO_QUEUE_TEXT)
        assert main(["bench", str(corpus)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: corpus is not a directory: {corpus}\n"

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

    @pytest.mark.parametrize("methods", ["", ",", " , ,"])
    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_empty_method_list(self, tmp_path, methods, extra, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.fsu").write_text(TWO_QUEUE_TEXT)
        assert main(["bench", str(corpus), "--methods", methods, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no methods given\n"


def cycle_text(n):
    return "".join(f"v{i} v{i % n + 1}\n" for i in range(1, n + 1))


class TestGuardDefaults:
    """Each guard option left out keeps the default of the function it is
    passed to, which trips on an input just above it; given, its value
    applies."""

    CASES = {
        # 7072^2 = 50 013 184 grid configurations
        "solve-budget": (["solve", "--min"], "x.fsu",
                         "seq 1:" + " a" * 7071 + "\nseq 2:" + " b" * 7071 + "\n",
                         "more than 50000000 configurations", ["--budget", "50013184"],
                         "min places: 1"),
        "solve-max-pallets": (["solve", "--min", "--method", "pallet-bf"], "x.fsu",
                              "".join(f"seq {t}: p{t} p{t}\n" for t in range(1, 10)),
                              "9 pallets > limit 8", ["--max-pallets", "9"], "min places: 1"),
        "solve-max-bins": (["solve", "--min", "--method", "bin-bf"], "x.fsu",
                           "seq 1: a a a b b b c c c d d\n",
                           "11 bins > limit 10", ["--max-bins", "11"], "min places: 1"),
        "dpw-max-vertices": (["dpw"], "c17.digraph", cycle_text(17),
                             "17 vertices > limit 16", ["--max-vertices", "17"], "width: 1"),
        # 3^17 = 129 140 163 grid configurations
        "dpw-stackup-budget": (["dpw", "--method", "stackup"], "c17.digraph", cycle_text(17),
                               "more than 50000000 configurations", ["--budget", "129140163"],
                               "width: 1"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_the_library_default_trips_and_the_option_lifts_it(self, tmp_path, case, capsys):
        argv, name, text, message, option, answer = self.CASES[case]
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert main([*argv, *option, str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == answer


class TestInternalFaults:
    """A witness that fails its own replay or certification, a search that
    breaks its own invariant, or an exception no handler classifies is an
    internal fault: exit 3 and an ``internal error:`` line last, never an
    answer."""

    @pytest.fixture
    def short_witness(self, monkeypatch):
        import fifo_stackup.cli as cli
        from fifo_stackup import BinSolution

        real = cli.solve_min_places

        def dropping_last_move(inst, **kwargs):
            places, bins, pallets = real(inst, **kwargs)
            return places, BinSolution(bins.moves[:-1]), pallets

        monkeypatch.setattr(cli, "solve_min_places", dropping_last_move)

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_solve_exits_3(self, short_witness, two_queue_path, extra, capsys):
        assert main(["solve", "--min", *extra, two_queue_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: dp witness replays as valid=False")
        assert "Traceback" not in captured.err

    def test_bench_records_an_error_row(self, short_witness, two_queue_path, capsys):
        corpus = Path(two_queue_path).parent
        assert main(["bench", str(corpus), "--methods", "dp,pallet-bf", "--json"]) == 3
        captured = capsys.readouterr()
        rows = {row["method"]: row for row in json.loads(captured.out)}
        assert rows["dp"]["value"] is None
        assert rows["dp"]["status"].startswith("error: internal error:")
        assert rows["pallet-bf"]["status"] == "ok"
        assert "internal error on ex1.fsu by dp" in captured.err

    def test_dpw_stackup_witness_that_is_no_processing_exits_3(
            self, monkeypatch, ring_digraph_path, capsys):
        import fifo_stackup.pathwidth as pathwidth
        from fifo_stackup import BinSolution

        real = pathwidth.solve_min_places

        def dropping_last_move(inst, **kwargs):
            places, bins, pallets = real(inst, **kwargs)
            return places, BinSolution(bins.moves[:-1]), pallets

        monkeypatch.setattr(pathwidth, "solve_min_places", dropping_last_move)
        assert main(["dpw", "--method", "stackup", ring_digraph_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: stack-up witness does not read as a decomposition: "
            "invalid bin solution at move ")
        assert "Traceback" not in captured.err

    def test_dpw_certification_failure_exits_3(self, monkeypatch, ring_digraph_path, capsys):
        import fifo_stackup.pathwidth as pathwidth
        from fifo_stackup import DecompositionCheck

        monkeypatch.setattr(pathwidth, "validate_decomposition",
                            lambda graph, decomposition: DecompositionCheck(False, violation="dpw-2"))
        for method in ("subset", "stackup"):
            assert main(["dpw", "--method", method, ring_digraph_path]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("internal error: witness decomposition failed")

    @pytest.mark.parametrize("mutate,message", [
        (lambda order: order[:-1], "stuck: no front bin matches"),
        (lambda order: order + order[:1], "pallet order contains duplicates"),
    ], ids=["missing", "duplicated"])
    def test_solve_with_a_search_order_that_is_no_processing_exits_3(
            self, monkeypatch, two_queue_path, mutate, message, capsys):
        import fifo_stackup.processing as processing

        real = processing.minimax_order

        def mutated(*args):
            peak, order = real(*args)
            return peak, mutate(order)

        monkeypatch.setattr(processing, "minimax_order", mutated)
        assert main(["solve", "--min", two_queue_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: the search's pallet order is no processing: " + message)
        assert "Traceback" not in captured.err

    def test_dpw_with_a_search_order_naming_an_unknown_vertex_exits_3(
            self, monkeypatch, ring_digraph_path, capsys):
        import fifo_stackup.pathwidth as pathwidth

        real = pathwidth.minimax_order

        def out_of_range(in_mask, out_mask):
            width, order = real(in_mask, out_mask)
            return width, order[:-1] + [len(in_mask)]

        monkeypatch.setattr(pathwidth, "minimax_order", out_of_range)
        assert main(["dpw", ring_digraph_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal error: the search's vertex order is no permutation "
                                "of the vertices: [5, 4, 0, 1, 2, 6]\n")

    @pytest.mark.parametrize("mutate", [
        lambda order: order[:-1] + [-1],
        lambda order: [9] + order[1:],
    ], ids=["negative", "unknown-first"])
    def test_dpw_with_a_search_order_that_is_no_permutation_exits_3(
            self, monkeypatch, ring_digraph_path, mutate, capsys):
        """The order is refused before any bag is built from it."""
        import fifo_stackup.pathwidth as pathwidth

        real = pathwidth.minimax_order

        def mutated(in_mask, out_mask):
            width, order = real(in_mask, out_mask)
            return width, mutate(order)

        monkeypatch.setattr(pathwidth, "minimax_order", mutated)
        assert main(["dpw", ring_digraph_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: the search's vertex order is no permutation of the vertices: ")
        assert "Traceback" not in captured.err

    def test_solve_with_a_vertex_in_no_queue_exits_3(self, monkeypatch, two_queue_path, capsys):
        import fifo_stackup.processing as processing

        real = processing.minimax_order

        def dropping_a_queue(in_mask, out_mask, start, queues):
            return real(in_mask, out_mask, start, queues[:1])

        monkeypatch.setattr(processing, "minimax_order", dropping_a_queue)
        assert main(["solve", "--min", two_queue_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: a vertex outside start is in no queue\n"

    def test_an_unclassified_exception_exits_3_with_its_traceback(
            self, monkeypatch, two_queue_path, capsys):
        """Exit 1 is the "no" of a decision; an exception that no handler
        classifies is an internal fault."""
        import fifo_stackup.processing as processing

        def failing(*args):
            raise IndexError("list index out of range")

        monkeypatch.setattr(processing, "minimax_order", failing)
        assert main(["solve", "-p", "3", two_queue_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):")
        assert captured.err.endswith("\ninternal error: IndexError: list index out of range\n")


class TestClosedStdout:
    """A reader that closed the pipe before the CLI wrote is no input error:
    the CLI exits 141 (128 + SIGPIPE), as a writer killed by SIGPIPE does,
    and prints nothing to stderr, whether its stdout is buffered or not."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["solve", "--min", "{path}"],
        ["solve", "--min", "--json", "{path}"],
        ["seqgraph", "{path}"],
        ["dpw", "--json", "{ring}"],
        ["gen"],
        ["bench", "{corpus}"],
    ], ids=["solve", "solve-json", "seqgraph", "dpw-json", "gen", "bench"])
    def test_exits_141_in_silence(self, two_queue_path, ring_digraph_path, argv, buffered):
        files = {"path": two_queue_path, "ring": ring_digraph_path,
                 "corpus": str(Path(two_queue_path).parent)}
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "fifo_stackup.cli", *(a.format(**files) for a in argv)],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, "")


class TestMalformedInput:
    """Seeded texts from a token alphabet, run through every reading command:
    each ends in exit 0, 1 or 2, and exit 2 ends stderr with its one
    ``error:`` line."""

    SYMBOLS = ("a", "b", "p1", "p2", "x_y", "vertex")
    TOKENS = SYMBOLS + ("seq", "1", "2", "3", "0", "12", ":", "#", "-", "é", " ", "\t",
                        "\x00", "٣", "１", "\n")
    COMMANDS = (["solve", "--min"], ["solve", "-p", "2", "--method", "pallet-bf"], ["dpw"],
                ["dpw", "--method", "stackup"], ["seqgraph"], ["reduce", "--strip"])

    @classmethod
    def text(cls, rng):
        def pick(tokens):
            return tokens[rng.below(len(tokens))]

        shape = rng.below(3)  # sequence lines, arc lines, or token soup
        lines = []
        for index in range(1, 2 + rng.below(5)):
            if shape == 0:
                number = index if rng.below(6) else rng.below(4)
                symbols = " ".join(pick(cls.SYMBOLS[:5]) for _ in range(1 + rng.below(4)))
                lines.append(f"seq {number}: {symbols}")
            elif shape == 1:
                lines.append(f"{pick(cls.SYMBOLS)} {pick(cls.SYMBOLS)}")
            else:
                lines.append("".join(pick(cls.TOKENS) for _ in range(1 + rng.below(8))))
            if rng.below(4) == 0:  # one stray token somewhere in the line
                at = rng.below(len(lines[-1]) + 1)
                lines[-1] = lines[-1][:at] + pick(cls.TOKENS) + lines[-1][at:]
        return "\n".join(lines) + "\n" * rng.below(2)

    def test_every_command_fails_cleanly(self, tmp_path, capsys):
        rng = SplitMix64(6)
        path = tmp_path / "input.txt"
        codes = {}
        for _ in range(1000):
            path.write_text(self.text(rng), encoding="utf-8")
            for command in self.COMMANDS:
                code = main([*command, str(path)])
                captured = capsys.readouterr()
                assert code in (0, 1, 2), (command, path.read_text(encoding="utf-8"), captured)
                if code == 2:  # after any notes, such as those of reduce --strip
                    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
                    assert len(errors) == 1 and captured.err.endswith(errors[0] + "\n"), (
                        command, captured)
                codes[code] = codes.get(code, 0) + 1
        # the corpus reaches past the parsers, not only their error paths
        assert codes.get(0, 0) > 300 and codes.get(2, 0) > 300, codes


@pytest.mark.parametrize("argv,name,text", [
    (["solve", "--min", "--json", "{file}"], "ex1.fsu", TWO_QUEUE_TEXT),
    (["dpw", "--json", "{file}"], "ex5.digraph", RING_DIGRAPH_TEXT),
    (["bench", "--json", "{directory}"], "ex1.fsu", TWO_QUEUE_TEXT),
], ids=["solve", "dpw", "bench"])
def test_a_byte_order_mark_is_ignored(tmp_path, capsys, argv, name, text):
    """A file saved with a UTF-8 byte-order mark reads as the same file
    without one."""
    results = []
    for prefix in (b"", codecs.BOM_UTF8):
        directory = tmp_path / ("bom" if prefix else "plain")
        directory.mkdir()
        (directory / name).write_bytes(prefix + text.encode("utf-8"))
        files = {"file": str(directory / name), "directory": str(directory)}
        code = main([arg.format(**files) for arg in argv])
        results.append((code, PINNED.mask_times(capsys.readouterr().out)))
    assert results[0][0] == 0
    assert results[1] == results[0]


@pytest.mark.parametrize("command,helps", [
    # solve's lines are pinned in test_cli_pinned.py; bench shares them
    ("bench",["configuration-count guard for the dp method", "pallet guard for pallet-bf",
               "bin guard for bin-bf"]),
    ("dpw", ["vertex guard for the subset method",
             "configuration-count guard for the stackup method, which counts "
             "3^(arcs of the stripped digraph) configurations"]),
])
def test_guard_options_say_what_they_guard(command, helps, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # wide enough that no help line wraps
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for text in helps:
        assert text in out, (command, text)


def test_pinned_cases_in_one_process(tmp_path, capsys, monkeypatch):
    """Every pinned case, twice in order, through the ``main`` of one process.
    The parser is built once per process, so no call may leave state behind
    that changes the output or exit code of a later one."""
    monkeypatch.setenv("COLUMNS", "80")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for directory in (tmp_path, corpus):
        (directory / "ex1.fsu").write_text(PINNED.TWO_QUEUE_TEXT, encoding="utf-8")
        (directory / "ex4.fsu").write_text(PINNED.THREE_QUEUE_TEXT, encoding="utf-8")
    (tmp_path / "ex5.digraph").write_text(PINNED.RING_DIGRAPH_TEXT, encoding="utf-8")
    files = {"two": str(tmp_path / "ex1.fsu"), "three": str(tmp_path / "ex4.fsu"),
             "ring": str(tmp_path / "ex5.digraph"), "corpus": str(corpus)}
    for name, argv, code, stdout in PINNED.CASES * 2:
        try:
            got = main([arg.format(**files) for arg in argv])
        except SystemExit as exc:  # --help exits from inside argparse
            got = exc.code
        # csv ends rows in \r\n, which the pinned test's text-mode pipe reads as \n
        out = capsys.readouterr().out.replace("\r\n", "\n")
        assert (got, PINNED.mask_times(out)) == (code, PINNED.as_this_python_prints(stdout)), name
