"""Import hygiene: ``import fifo_stackup`` loads no submodule, and a CLI call
loads only what its command runs.

Each probe runs in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``, the
setting under which every loaded module is compiled again on every call, and
reports the modules it loaded beyond those the interpreter had already.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fifo_stackup

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TWO_QUEUE_TEXT = "seq 1: a a b b\nseq 2: c d e c a d b e\n"
RING_DIGRAPH_TEXT = "a b\nb c\nc d\nd e\ne a\ne f\nf a\n"

# What the command line must not pull in unless the command runs it.
HEAVY = ("dataclasses", "inspect", "typing", "csv", "fifo_stackup.oracles",
         "fifo_stackup.generate")
GRAPH = ("fifo_stackup.seqgraph", "fifo_stackup.pathwidth", "heapq")
# The graph functions the graph commands call; solve and transform never load them.
CLI_GRAPH_NAMES = {"build_sequence_graph", "decomposition_to_dot", "digraph_to_dot",
                   "emit_digraph", "parse_digraph", "reduce_digraph_to_queues",
                   "strip_endpoints", "dpw_exact", "dpw_via_stackup"}


def load_cli_references():
    """The names ``perfbench/spans.py`` wraps on ``fifo_stackup.cli``, read
    from its file, so that nothing under ``perfbench/`` is imported as a
    package."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [attribute for module_name, attribute, _ in module.CLI_REFERENCES
            if module_name == "fifo_stackup.cli"]

PUBLIC = {
    "BinSolution", "BudgetError", "DecompositionCheck", "Digraph",
    "DigraphFormatError", "DirectedPathDecomposition", "DpwResult", "GenSpec",
    "InadmissibleDigraphError", "Instance", "InstanceFormatError", "InternalError",
    "PalletSolution", "ReplayReport", "SplitMix64", "TransformStuckError",
    "admissibility_violations",
    "build_sequence_graph", "decomposition_to_dot", "decomposition_to_processing",
    "digraph_to_dot", "dpw_exact", "dpw_via_stackup", "emit_digraph", "emit_instance",
    "generate_instance", "open_set_trace", "opening_order",
    "parse_digraph", "parse_instance", "processing_to_decomposition",
    "random_admissible_digraph", "reduce_digraph_to_queues", "replay", "solve_min_places",
    "strip_endpoints", "transform", "validate_decomposition",
}

# The grid-configuration view: only the oracles use it.
GRID_VIEW = ("Configuration", "check_configuration", "cut", "is_open_pallet")


def probe(statements):
    """Run the statements in a fresh interpreter; returns the modules they
    loaded and their stdout."""
    code = "\n".join([
        "import sys",
        "_before = set(sys.modules)",
        *statements,
        "print('\\n'.join(['--'] + sorted(set(sys.modules) - _before)))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    out, _, modules = done.stdout.rpartition("--\n")
    return set(modules.split()), out


def test_package_import_loads_no_submodule():
    loaded, _ = probe(["import fifo_stackup"])
    assert "fifo_stackup" in loaded
    assert not {name for name in loaded if name.startswith("fifo_stackup.")}


def test_cli_import_leaves_out_oracles_generators_and_dataclasses():
    loaded, _ = probe(["import fifo_stackup.cli"])
    assert "fifo_stackup.cli" in loaded
    assert not loaded & set(HEAVY)


def test_cli_import_loads_only_the_cli_and_the_errors():
    loaded, _ = probe(["import fifo_stackup.cli"])
    assert {name for name in loaded if name.startswith("fifo_stackup")} == {
        "fifo_stackup", "fifo_stackup.cli", "fifo_stackup.errors"}


@pytest.mark.parametrize("argv,needs", [
    (["solve", "--min", "{path}"], ()),
    (["solve", "-p", "3", "{path}"], ()),
    (["solve", "--min", "--method", "pallet-bf", "{path}"], ("fifo_stackup.oracles",)),
    (["solve", "--min", "--method", "bin-bf", "--max-bins", "12", "{path}"],
     ("fifo_stackup.oracles",)),
    (["gen"], ("fifo_stackup.generate",)),
    (["bench", "{corpus}"], ("csv",)),
    (["bench", "--json", "{corpus}"], ()),
], ids=["solve", "decide", "pallet-bf", "bin-bf", "gen", "bench-csv", "bench-json"])
def test_a_cli_call_loads_only_what_its_command_runs(tmp_path, argv, needs):
    (tmp_path / "ex1.fsu").write_text(TWO_QUEUE_TEXT, encoding="utf-8")
    files = {"path": str(tmp_path / "ex1.fsu"), "corpus": str(tmp_path)}
    argv = [arg.format(**files) for arg in argv]
    loaded, _ = probe(["from fifo_stackup.cli import main",
                       f"_code = main({argv!r})",
                       "assert _code == 0, _code"])
    assert {name for name in HEAVY if name in loaded} == set(needs)


def cli_files(tmp_path):
    (tmp_path / "ex1.fsu").write_text(TWO_QUEUE_TEXT, encoding="utf-8")
    (tmp_path / "ring.digraph").write_text(RING_DIGRAPH_TEXT, encoding="utf-8")
    return {"path": str(tmp_path / "ex1.fsu"), "ring": str(tmp_path / "ring.digraph")}


@pytest.mark.parametrize("argv,needs", [
    (["solve", "--min", "{path}"], ()),
    (["solve", "-p", "3", "{path}"], ()),
    (["transform", "{path}", "--pallets", "c,d,e,a,b", "--json"], ()),
    (["seqgraph", "--dot", "{path}"], ("fifo_stackup.seqgraph",)),
    (["reduce", "{ring}"], ("fifo_stackup.seqgraph",)),
    (["reduce", "--strip", "{ring}"], ("fifo_stackup.seqgraph", "heapq")),
    (["dpw", "{ring}"], ("fifo_stackup.seqgraph", "fifo_stackup.pathwidth")),
    (["dpw", "--method", "stackup", "{ring}"], GRAPH),
    (["gen", "--from-digraph", "--seed", "2"], ("fifo_stackup.seqgraph",)),
], ids=["solve", "decide", "transform", "seqgraph", "reduce", "reduce-strip", "dpw-subset",
        "dpw-stackup", "gen-from-digraph"])
def test_graph_modules_load_only_for_graph_commands(tmp_path, argv, needs):
    """solve and transform never load the graph modules; the graph commands
    load them on first use and still run."""
    argv = [arg.format(**cli_files(tmp_path)) for arg in argv]
    loaded, out = probe(["from fifo_stackup.cli import main",
                         f"_code = main({argv!r})",
                         "assert _code == 0, _code"])
    assert {name for name in GRAPH if name in loaded} == set(needs)
    assert out


@pytest.mark.parametrize("argv", [
    ["transform", "{path}", "--pallets", "c,d,e,a,b"],
    ["seqgraph", "{path}"],
    ["reduce", "--strip", "{ring}"],
    ["gen"],
    ["gen", "--from-digraph"],
], ids=["transform", "seqgraph", "reduce", "gen", "gen-from-digraph"])
def test_commands_that_solve_nothing_load_no_solver(tmp_path, argv):
    argv = [arg.format(**cli_files(tmp_path)) for arg in argv]
    loaded, out = probe(["from fifo_stackup.cli import main",
                         f"_code = main({argv!r})",
                         "assert _code == 0, _code"])
    assert not loaded & {"fifo_stackup.processing", "fifo_stackup.search"}
    assert out


@pytest.mark.parametrize("argv,graph", [
    (["gen"], False),
    (["gen", "--pallets", "7", "--queues", "3", "--bins-per-pallet", "1:4", "--seed", "5"], False),
    (["gen", "--from-digraph", "--seed", "2"], True),
], ids=["gen", "gen-options", "gen-from-digraph"])
def test_gen_loads_the_graph_modules_only_from_a_digraph(argv, graph):
    """Generating an instance runs no graph code, so it loads neither the
    sequence-graph module nor the solutions module that one imports;
    ``--from-digraph`` loads both and still runs."""
    loaded, out = probe(["from fifo_stackup.cli import main",
                         f"_code = main({argv!r})",
                         "assert _code == 0, _code"])
    modules = {"fifo_stackup.seqgraph", "fifo_stackup.solutions"}
    assert loaded & modules == (modules if graph else set())
    assert out.startswith("seq 1: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--min", "{path}"],
    ["solve", "-p", "3", "{path}"],
    ["dpw", "{ring}"],
    ["dpw", "--method", "stackup", "{ring}"],
], ids=["solve", "decide", "dpw-subset", "dpw-stackup"])
def test_the_solvers_load_the_search(tmp_path, argv):
    argv = [arg.format(**cli_files(tmp_path)) for arg in argv]
    loaded, _ = probe(["from fifo_stackup.cli import main",
                       f"_code = main({argv!r})",
                       "assert _code == 0, _code"])
    assert "fifo_stackup.search" in loaded


def test_the_search_loads_only_the_errors():
    loaded, _ = probe(["import fifo_stackup.search"])
    assert {name for name in loaded if name.startswith("fifo_stackup")} == {
        "fifo_stackup", "fifo_stackup.errors", "fifo_stackup.search"}
    assert "search" not in fifo_stackup._EXPORTS


def test_no_module_imports_a_siblings_private_name():
    """A module takes from a sibling only its public names; the oracles, the
    checker, may take private ones."""
    taken = []
    for path in sorted((SRC / "fifo_stackup").glob("*.py")):
        if path.stem == "oracles":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                taken += [(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert taken == []


CLI_REFERENCE_ARGV = {
    "parse_instance": ["solve", "--min", "{path}"],
    "solve_min_places": ["solve", "--min", "{path}"],
    "replay": ["solve", "--min", "{path}"],
    "parse_digraph": ["dpw", "{ring}"],
    "dpw_exact": ["dpw", "{ring}"],
    "dpw_via_stackup": ["dpw", "--method", "stackup", "{ring}"],
}


@pytest.mark.parametrize("name", load_cli_references())
def test_a_wrapper_set_on_the_cli_module_runs(tmp_path, name):
    """The benchmark's tracer replaces each of these names on
    ``fifo_stackup.cli`` with setattr; main must call the replacement."""
    argv = [arg.format(**cli_files(tmp_path)) for arg in CLI_REFERENCE_ARGV[name]]
    _, out = probe([
        "import fifo_stackup.cli as cli",
        "_calls = []",
        f"_real = getattr(cli, {name!r})",
        "def _counting(*args, **kwargs):",
        "    _calls.append(1)",
        "    return _real(*args, **kwargs)",
        f"setattr(cli, {name!r}, _counting)",
        f"_code = cli.main({argv!r})",
        "assert _code == 0, _code",
        "print('calls', len(_calls))",
    ])
    assert out.splitlines()[-1] == "calls 1"


def test_one_command_parser_gives_the_same_help():
    """build_parser(command) lists every command, and that command's help is
    the one the whole parser gives."""
    _, out = probe([
        "import contextlib, io",
        "from fifo_stackup.cli import COMMANDS, build_parser",
        "def _help(parser, argv):",
        "    text = io.StringIO()",
        "    with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):",
        "        parser.parse_args(argv)",
        "    return text.getvalue()",
        "for _command in COMMANDS:",
        "    _one, _whole = build_parser(_command), build_parser()",
        "    assert _one.format_help() == _whole.format_help(), _command",
        "    _text = _help(_one, [_command, '--help'])",
        "    assert _text.startswith('usage: fifo-stackup ' + _command), _text",
        "    assert _text == _help(_whole, [_command, '--help']), _command",
        "    print(_command)",
    ])
    assert out.split() == ["solve", "transform", "seqgraph", "reduce", "dpw", "gen", "bench"]


def test_the_cli_takes_library_names_from_the_package():
    """cli.py names no module a public function lives in: its relative
    imports are the exception types and the oracles from the package, and
    each name it reads through ``_cli``, the graph functions among them, is a
    public name and the package's own object.  ``_cli`` resolves no other
    library name."""
    tree = ast.parse((SRC / "fifo_stackup" / "cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            assert node.module is None and all(n == "oracles" or n.endswith("Error")
                                               for n in names), (node.module, names)
        if isinstance(node, ast.Import):
            assert "importlib" not in {alias.name for alias in node.names}
    called = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "_cli"}
    assert called <= PUBLIC, called - PUBLIC
    assert CLI_GRAPH_NAMES <= called, CLI_GRAPH_NAMES - called
    import fifo_stackup.cli as cli

    for name in sorted(called):
        assert getattr(cli, name) is getattr(fifo_stackup, name), name
    for name in ("oracles", "cut", "no_such_name"):  # a submodule, an oracle, none
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)


def test_submodule_attributes_resolve_without_an_import():
    loaded, out = probe([
        "import fifo_stackup",
        "print(fifo_stackup.processing.DEFAULT_CONFIGURATION_BUDGET)",
    ])
    assert out.split() == ["50000000"]
    assert "fifo_stackup.processing" in loaded
    assert "fifo_stackup.generate" not in loaded


def test_all_lists_the_public_names():
    assert set(fifo_stackup.__all__) == PUBLIC
    assert len(fifo_stackup.__all__) == len(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_name_resolves(name):
    value = getattr(fifo_stackup, name)
    namespace = {}
    exec("from fifo_stackup import *", namespace)
    assert namespace[name] is value
    assert name in dir(fifo_stackup)


def test_grid_view_lives_only_in_oracles():
    import fifo_stackup.instance as instance
    import fifo_stackup.oracles as oracles

    for name in (*GRID_VIEW, "front"):
        assert not hasattr(instance, name), name
        assert name not in fifo_stackup.__all__
    for name in GRID_VIEW:
        assert hasattr(oracles, name), name
    for name in ("check_configuration", "cut", "is_open_pallet"):
        assert getattr(oracles, name).__module__ == "fifo_stackup.oracles"
    assert not hasattr(fifo_stackup.Instance, "initial_configuration")
    assert not hasattr(fifo_stackup.Instance, "final_configuration")


def test_public_names_come_from_their_defining_module():
    assert fifo_stackup.solve_min_places is fifo_stackup.processing.solve_min_places
    assert fifo_stackup.Digraph is fifo_stackup.seqgraph.Digraph
    assert fifo_stackup.GenSpec is fifo_stackup.generate.GenSpec


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fifo_stackup, "no_such_name")
    with pytest.raises(ImportError):
        exec("from fifo_stackup import no_such_name", {})
    assert "no_such_name" not in dir(fifo_stackup)
