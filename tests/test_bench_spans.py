"""The benchmark's span table names functions that still exist.

``bench/spans.py`` wraps each ``(module, function)`` of ``SPANS``, and the
constructor of ``zbrace.tensor.TwistBundle``, when a workload runs with
``--trace 1``.  A refactor that deletes or renames one of them would break
that run; this test fails first.  The file is only read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_exists():
    spans = _spans_module().SPANS
    assert spans
    missing = [
        f"{modname}.{attr}"
        for modname, attr in spans.values()
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert not missing
    assert isinstance(importlib.import_module("zbrace.tensor").TwistBundle, type)
