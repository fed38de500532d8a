"""Command-line front end.

Subcommands: svd (decompose and normalize a recording), fit (estimate
oscillator parameters for one series), forecast (sliding-window benchmark),
connectivity (project coupling matrices to pixel edges), export-sim
(simulation corpus generation).

Exit codes: 0 success, 1 data or runtime failure (running out of memory
included), 2 usage or config error (a flag value outside its range included).
A fit config's "penalty" and "search" objects take the fields of PenaltyConfig
and SearchConfig, typed as there (search.seed comes from --seed); a malformed
key or value exits 2 and names its dotted key, as does a malformed fit.json.
Primary outputs carry no timestamps, so a fixed seed reproduces them byte for
byte. VDPFIT_OUT supplies the default output root when -o/--out is omitted.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext
from dataclasses import is_dataclass, replace
from pathlib import Path
from typing import Optional, get_origin, get_type_hints

import numpy as np

from . import __version__
from .data import (
    connectivity_projection,
    json_array,
    json_number,
    load_components,
    load_csv,
    normalize_components,
    read_json,
    save_components,
    save_edges,
    split_segments,
    svd_components,
    write_json,
)
from .estimator import FitError, FitResult, PenaltyConfig, check_observations, fit_lockstep
from .forecast import VarMethod, VdpMethod, evaluate, export_simulations, write_corpus
from .model import SimulationDiverged, VdpParams
from .search import SearchConfig, search_and_refine, vp_start

OUT_ENV = "VDPFIT_OUT"


class ConfigError(Exception):
    """Usage-class problem (bad flag combination, bad config); exits with 2."""


def _resolve_out(args) -> Path:
    root = args.out if args.out else os.environ.get(OUT_ENV, ".")
    out = Path(root)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _value(v, tp, key: str, positive: bool = False):
    """Check the JSON value of `key` against its type hint `tp` (np.ndarray: a
    number or nested lists of them); tuples become float tuples."""
    if is_dataclass(tp):
        return _build(tp, v, key + ".")
    try:
        if tp is np.ndarray:
            return json_array(v)
        if get_origin(tp) is tuple:
            if not isinstance(v, list):
                raise ValueError(f"expected a list of numbers, got {v!r}")
            return tuple(float(json_number(x)) for x in v)
        return json_number(v, integer=tp is int, positive=positive)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _build(cls, doc, where: str, **fixed):
    """Read config dataclass `cls` from JSON object `doc`; its fields, less
    those `fixed` by a flag, are the keys. Values pass through unchanged."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where[:-1]}: expected a JSON object, got {doc!r}")
    types = {k: tp for k, tp in get_type_hints(cls).items() if k not in fixed}
    for key in doc:
        if key not in types:
            raise ConfigError(f"unknown config key {where + key!r}")
    kwargs = {k: _value(v, types[k], where + k) for k, v in doc.items()}
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}")


_FIT_KEYS = {"dt", "substeps", "init_alpha", "init_coupling", "init_x2", "penalty", "search"}


def _fitter(args):
    """Read the fit config of --config (and --vp-only) once; return fit(z, seed,
    trace=False), the one way a series is fitted, and fit_all(zs, seed), seeds
    seed + k, in lockstep when search.max_rounds is 0, as --vp-only sets it.
    With `trace` the output directory is made once the init_* shapes check,
    and receives the search trace."""
    try:
        doc = read_json(args.config)
    except ValueError as exc:
        raise ConfigError(exc) from None
    if "dt" not in doc:
        raise ConfigError("missing required config key 'dt'")
    for key in doc:
        if key not in _FIT_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    dt = float(_value(doc["dt"], float, "dt", positive=True))
    substeps = _value(doc.get("substeps", 1), int, "substeps", positive=True)
    penalty = doc.get("penalty", {})
    p_cfg = _build(PenaltyConfig, penalty, "penalty.")
    for key in ("inner_tol_start", "inner_max_iter_start"):
        if key in penalty and len(p_cfg.lam_schedule) == 1:
            raise ConfigError(f"penalty.{key} has no effect with a one-stage lam_schedule")
    s_cfg = _build(SearchConfig, doc.get("search", {}), "search.", seed=0)
    if args.vp_only:
        s_cfg = replace(s_cfg, max_rounds=0)
    init = {key: _value(v, np.ndarray, key) for key, v in doc.items() if key.startswith("init_")}

    def fit(z: np.ndarray, seed: int, trace: bool = False) -> FitResult:
        params, x2_init = _init_values(init, z.shape[1])
        with (_resolve_out(args) / "trace.ndjson").open("w") if trace else nullcontext() as sink:
            return search_and_refine(z, replace(s_cfg, seed=seed), p_cfg, dt=dt,
                                     substeps=substeps, init=params, x2_init=x2_init,
                                     trace=sink)

    def fit_all(zs: list[np.ndarray], seed: int) -> list[FitResult]:
        if s_cfg.max_rounds:
            return [fit(z, seed + k) for k, z in enumerate(zs)]
        starts = [vp_start(check_observations(z), s_cfg, p_cfg,
                           *_init_values(init, z.shape[1]), dt) for z in zs]
        return fit_lockstep(np.stack(zs), p_cfg, [s[0] for s in starts],
                            [s[2] for s in starts], dt=dt, substeps=substeps)

    return fit, fit_all


def _init_values(init: dict, m: int) -> tuple[VdpParams, Optional[np.ndarray]]:
    """The initial (params, x2_init) for m components from the init_* arrays;
    init_alpha may be one [a1, a2] row and init_coupling one number."""
    alpha = init.get("init_alpha", np.ones(2))
    if alpha.shape == (2,):
        alpha = np.tile(alpha, (m, 1))
    coupling = init.get("init_coupling", np.zeros(()))
    if coupling.ndim == 0:
        coupling = np.full((m, m), coupling)
    x2_init = init.get("init_x2")
    for key, value, shape in (("init_alpha", alpha, (m, 2)), ("init_coupling", coupling, (m, m)),
                              ("init_x2", x2_init, (m,))):
        if value is not None and value.shape != shape:
            raise ConfigError(f"{key} must have shape {shape} for the data's {m} components, "
                              f"got {value.shape}")
    return VdpParams(alpha=alpha, coupling=coupling), x2_init


def _load_series(path: str, layout: str) -> np.ndarray:
    """Return observations as (n_samples, m); directories hold components."""
    p = Path(path)
    if p.is_dir():
        return load_components(p).temporal.T
    return load_csv(p, layout=layout).T


def cmd_svd(args) -> int:
    data = load_csv(args.input, layout=args.layout)
    limit = min(data.shape)
    if args.components > limit:
        raise ConfigError(
            f"m={args.components} exceeds min(locations, samples)={limit}"
        )
    comps = svd_components(data, args.components)
    if not args.raw:
        comps = normalize_components(comps)
    out = _resolve_out(args)
    extra = {"normalized": not args.raw, "layout": args.layout}
    save_components(comps, out, extra_meta=extra)
    print(f"wrote {args.components} components ({data.shape[0]} locations, "
          f"{comps.n_samples} samples) to {out}")
    return 0


def cmd_fit(args) -> int:
    fit, _ = _fitter(args)
    z = check_observations(_load_series(args.input, args.layout))
    result = fit(z, args.seed, trace=True)
    out = _resolve_out(args)
    result.config_echo["seed"] = args.seed
    write_json(result.to_json_dict(), out / "fit.json")
    print(f"fit: converged={result.converged} ({result.reason}); wrote {out / 'fit.json'}")
    return 0


_KNOWN_METHODS = ("var", "vdp")


def cmd_forecast(args) -> int:
    names = [n.strip() for n in args.methods.split(",") if n.strip()]
    if not names:
        raise ConfigError(f"no methods in --methods; valid methods: {', '.join(_KNOWN_METHODS)}")
    for i, n in enumerate(names):
        if n not in _KNOWN_METHODS:
            raise ConfigError(
                f"unknown method {n!r}; valid methods: {', '.join(_KNOWN_METHODS)}"
            )
        if n in names[:i]:
            raise ConfigError(f"method {n!r} appears twice in --methods")
    if args.horizon > args.test_len:
        raise ConfigError(f"--horizon {args.horizon} exceeds --test-len {args.test_len}: "
                          "no forecast window fits in a test range")
    data = _load_series(args.input, args.layout).T  # (m, T)
    split = split_segments(data.shape[1], args.train_len, args.test_len, args.segments)
    methods = []
    for n in names:
        if n == "var":
            methods.append(VarMethod(order=args.var_order, refit_per_window=args.var_refit))
        else:
            if not args.config or args.seed is None:
                raise ConfigError("the vdp method needs --config and --seed")
            _, fit_all = _fitter(args)
            # the oscillator serves only the short protocol; `evaluate` records
            # it as omitted on long runs, so its segments are not fitted there
            methods.append(VdpMethod([] if args.protocol == "long" else fit_all(
                [data[:, seg.train[0] : seg.train[1]].T for seg in split.segments], args.seed)))
    report = evaluate(methods, split, data, horizon=args.horizon, protocol=args.protocol)
    report.metadata["cli"] = {
        "methods": names,
        "horizon": args.horizon,
        "protocol": args.protocol,
        "var_order": args.var_order,
    }
    out = _resolve_out(args)
    write_json(report.to_json_dict(), out / "report.json")
    report.save_csv(out / "report.csv")
    for name, st in report.methods.items():
        print(f"{name}: median rmse at h={args.horizon}: {st.rmse_median[-1]:.6g} "
              f"({st.n_windows} windows, {st.skipped_windows} skipped)")
    return 0


def _load_fits(paths) -> list[FitResult]:
    fits = []
    for p in paths:
        try:
            doc = read_json(p)
        except ValueError as exc:
            raise ConfigError(exc) from None
        try:
            fits.append(FitResult.from_json_dict(doc))
        except ValueError as exc:
            raise ConfigError(f"{p}: not a fit result ({exc})")
    return fits


def cmd_connectivity(args) -> int:
    comps = load_components(args.components)
    fits = _load_fits(args.fits)
    for p, f in zip(args.fits, fits):
        if f.params.m != comps.m:
            raise ConfigError(
                f"{p}: coupling is {f.params.m}x{f.params.m}, components have m={comps.m}"
            )
    edges = connectivity_projection(
        comps.spatial,
        comps.singular_values,
        [f.params.coupling for f in fits],
        args.top_k,
    )
    out = _resolve_out(args)
    save_edges(edges, out / "edges.csv")
    n_exc = sum(1 for e in edges if e.polarity == "excitatory")
    print(f"wrote {n_exc} excitatory + {len(edges) - n_exc} inhibitory edges "
          f"to {out / 'edges.csv'}")
    return 0


def cmd_export_sim(args) -> int:
    fits = _load_fits(args.fits)
    real = None
    if args.real:
        real = [_load_series(args.real, args.layout)]
        k = real[0].shape[1]
        for p, f in zip(args.fits, fits):
            if f.params.m != k:
                raise ConfigError(f"{p}: coupling is {f.params.m}x{f.params.m}, --real has m={k}")
    result = export_simulations(
        fits,
        n_series=args.n_series,
        length=args.length,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        real_series=real,
    )
    out = _resolve_out(args)
    write_corpus(result, out)
    print(f"wrote {len(result.simulated.series)} simulated "
          f"(+{result.simulated.skipped} skipped) and {len(result.noisy_real.series)} "
          f"noisy-real series to {out}")
    return 0


def _at_least(lo, kind=int):
    """argparse type: a finite `kind` value >= lo; anything else exits 2."""
    def parse(text: str):
        try:
            v = kind(text)
            if lo <= v <= sys.float_info.max:  # NaN and inf fail
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected {'an integer' if kind is int else 'a finite number'} >= {lo}, "
            f"got {text!r}")
    return parse


@functools.cache  # built once per process: parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdpfit",
        description="Coupled-oscillator fitting, forecasting, and connectivity tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, layout=None):
        """-o, and --layout with its default on the subcommands that read a CSV."""
        p.add_argument("-o", "--out", help=f"output directory (default ${OUT_ENV} or '.')")
        if layout:
            p.add_argument("--layout", choices=["rows=space", "rows=time"], default=layout,
                           help="what the input CSV's rows mean")

    p = sub.add_parser("svd", help="decompose a recording into temporal components")
    p.add_argument("input")
    p.add_argument("-m", "--components", type=_at_least(1), required=True)
    p.add_argument("--raw", action="store_true", help="skip variance normalization")
    add_common(p, layout="rows=space")
    p.set_defaults(func=cmd_svd)

    p = sub.add_parser("fit", help="fit oscillator parameters to one series")
    p.add_argument("input", help="series CSV or a components directory")
    p.add_argument("--config", required=True, help="JSON config (requires 'dt')")
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--vp-only", action="store_true", help="skip the stochastic search")
    add_common(p, layout="rows=time")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="sliding-window forecast benchmark")
    p.add_argument("input", help="series CSV or a components directory")
    p.add_argument("--methods", default="var,vdp")
    p.add_argument("--train-len", type=_at_least(1), required=True)
    p.add_argument("--test-len", type=_at_least(1), required=True)
    p.add_argument("--segments", type=_at_least(1), required=True)
    p.add_argument("--horizon", type=_at_least(1), default=9)
    p.add_argument("--protocol", choices=["short", "long"], default="short")
    p.add_argument("--var-order", type=_at_least(1), default=6)
    p.add_argument("--var-refit", action="store_true")
    p.add_argument("--config", help="fit config for the vdp method")
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--vp-only", action="store_true", help="skip the stochastic search")
    add_common(p, layout="rows=time")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("connectivity", help="project coupling matrices to pixel edges")
    p.add_argument("components", help="components directory from `vdpfit svd`")
    p.add_argument("fits", nargs="+", help="fit.json files to sum")
    p.add_argument("--top-k", type=_at_least(1), default=200)
    add_common(p)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("export-sim", help="generate a simulation corpus")
    p.add_argument("fits", nargs="+", help="fit.json files to draw from")
    p.add_argument("--n-series", type=_at_least(0), required=True)
    p.add_argument("--length", type=_at_least(2), required=True)
    p.add_argument("--noise-sigma", type=_at_least(0, float), default=0.1)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--real", help="optional real series (CSV or components dir)")
    add_common(p, layout="rows=time")
    p.set_defaults(func=cmd_export_sim)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, SimulationDiverged, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError) as exc:  # a count in range, but too large to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
