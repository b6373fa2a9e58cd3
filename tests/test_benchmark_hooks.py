"""The benchmark's tracing hooks still name functions the package has.

``perfbench/spans.py`` replaces module-level references such as
``fifo_stackup.seqgraph.open_set_trace`` with traced wrappers; a refactor
that drops or renames one breaks ``perfbench/run.py --trace 1``.  The
module is loaded from its file, so nothing under ``perfbench/`` is imported
as a package or changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize(
    "module_name,attribute,span", SPANS.INTERNAL_REFERENCES + SPANS.CLI_REFERENCES)
def test_traced_reference_resolves(module_name, attribute, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute} is gone"
