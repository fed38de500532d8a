"""Span tracing for the benchmark's traced passes, without editing the program.

`Tracer.install()` replaces every attribute of a loaded `vdpfit.*` module that
*is* one of the traced functions with a timing wrapper, so from-imports such
as `vdpfit.estimator.solve_block_tridiagonal` or `vdpfit.search.fit` are
covered too; `Tracer.uninstall()` puts the originals back. Each call records a
span (name, start, end, parent span, pass id) in memory. Counts come from the
wrapped calls' arguments and return values.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# module -> traced functions; span names are "<module>.<function>"
TRACED = {
    "constraints": (
        "solve_block_tridiagonal",
        "residual",
        "residual_jacobian_x",
        "residual_jacobian_params",
    ),
    "model": ("batch_state_jacobians", "batch_param_jacobians", "simulate"),
    "estimator": ("fit", "value_gradient", "inner_solve"),
    "search": ("search_and_refine", "propose"),
    "data": ("load_csv", "save_csv", "svd_components", "connectivity_projection"),
    "forecast": (
        "var_fit",
        "var_predict",
        "vdp_predict",
        "evaluate",
        "export_simulations",
        "write_corpus",
    ),
    "metrics": ("pearson",),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _fit_counts(args, kwargs, res):
    cfg = _arg(args, kwargs, 1, "cfg")
    # one history entry opens each lambda stage; the rest are accepted outer steps
    return {
        "outer_iters": len(res.objective_history) - len(cfg.stages()),
        "converged": int(res.converged),
    }


def _inner_counts(args, kwargs, res):
    cap = kwargs.get("max_iter")
    if cap is None:
        cap = _arg(args, kwargs, 3, "cfg").inner_max_iter
    return {
        "gn_iters": res.iterations,
        "cap_hits": int(not res.converged and res.iterations == cap),
    }


def _export_counts(args, kwargs, res):
    attempts = sum(s["attempts"] for s in res.simulated.sources)
    drawn = len(res.simulated.sources) + res.simulated.skipped
    return {"retries": attempts + 10 * res.simulated.skipped - drawn}


# span name -> hook(args, kwargs, result) -> {stat: increment}
COUNT_HOOKS = {
    "constraints.solve_block_tridiagonal": lambda a, k, r: {
        "blocks": len(_arg(a, k, 0, "diag"))
    },
    "model.simulate": lambda a, k, r: {"steps": int(_arg(a, k, 2, "n_steps"))},
    "estimator.fit": _fit_counts,
    "estimator.value_gradient": lambda a, k, r: {"low_accuracy": int(r.low_accuracy)},
    "estimator.inner_solve": _inner_counts,
    "search.propose": lambda a, k, r: {"valid": int(r.valid)},
    "data.load_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "data.save_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "data.connectivity_projection": lambda a, k, r: {
        "pixels": len(_arg(a, k, 0, "spatial")[0])
    },
    "forecast.export_simulations": _export_counts,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counts for the passes run between install/uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, pass id)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pass_id)
            if hook is not None:
                counts[self.pass_id].update(
                    {f"{name}.{stat}": v for stat, v in hook(args, kwargs, result).items()}
                )
            return result

        return wrapper

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "vdpfit" or n.startswith("vdpfit."))
        ]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"vdpfit.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def layer_stats(self, pass_id: int) -> dict[str, float]:
        """Per-layer calls, self time, counts and ratios of one traced pass.

        A span's self time is its duration minus the time its direct
        children cover (calls nest, so children never overlap).
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        covered: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in spans:
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += (end - start) - covered[i]
            if name == "constraints.residual" and parent >= 0 and (
                self.spans[parent][0] == "estimator.inner_solve"
            ):
                stats["constraints.residual.inner_calls"] += 1
        stats.update(self.counts[pass_id])
        stats["estimator.inner_solve.evals_per_step"] = _ratio(
            stats["constraints.residual.inner_calls"], stats["estimator.inner_solve.gn_iters"]
        )
        stats["search.propose.valid_ratio"] = _ratio(
            stats["search.propose.valid"], stats["search.propose.calls"]
        )
        return dict(stats)

    def write(self, path):
        """Write every recorded span as one JSON array per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, pass_id]) + "\n")
