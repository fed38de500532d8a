"""perfbench's tracer wraps library functions by module and name, so each one
it lists must exist, or a traced benchmark run stops at install; and its count
hooks read those functions' arguments and results."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
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


def test_traced_fit_counts_its_solver_work(tmp_path, monkeypatch):
    # a count hook reads its function's arguments and result by name, so a
    # signature change that breaks one shows here as a missing count
    from vdpfit import cli
    from vdpfit.data import save_csv
    from vdpfit.model import State, VdpParams, simulate

    monkeypatch.delenv("VDPFIT_OUT", raising=False)
    params = VdpParams(alpha=np.array([[1.5, 0.8]]), coupling=np.zeros((1, 1)))
    traj = simulate(params, State(x1=np.array([0.6]), x2=np.array([0.0])), 40, 0.1)
    save_csv(traj.x1 + np.random.default_rng(2).normal(0, 0.02, traj.x1.shape),
             tmp_path / "series.csv")
    (tmp_path / "config.json").write_text('{"dt": 0.1, "penalty": {"outer_max_iter": 4}}')
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["fit", str(tmp_path / "series.csv"), "--config",
                         str(tmp_path / "config.json"), "--seed", "1", "--vp-only",
                         "-o", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    stats = tracer.layer_stats(0)
    assert stats["cli.main.calls"] == 1 and stats["estimator.fit.calls"] == 1
    for name in ("estimator.inner_solve.gn_iters", "estimator.fit.outer_iters",
                 "constraints.solve_block_tridiagonal.blocks"):
        assert stats.get(name, 0) > 0, name
