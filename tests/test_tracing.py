"""perfbench's tracer wraps library functions by module and name, so each one
it lists must exist, or a traced benchmark run stops at install."""
import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, func", [(mod, func) for mod, funcs in tracing.TRACED.items() for func in funcs]
)
def test_traced_function_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"vdpfit.{module}"), func))
