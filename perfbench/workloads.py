"""The benchmark's workloads: input generation, command chains and output checks.

Each workload generates its inputs from the workload seed with
`vdpfit.model.simulate` and writes them as CSV/JSON files; the program only
ever sees those files, through `vdpfit.cli.main(argv)`. A workload returns its
command chain as (argv, check) pairs, where `check()` lists what is wrong
with that command's outputs (nothing when they are correct).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vdpfit.estimator import FitResult
from vdpfit.model import State, Trajectory, VdpParams, simulate

HORIZON = 9


def write_csv(path: Path, rows: np.ndarray):
    """Shortest round-trip float text, one matrix row per line."""
    text = "\n".join(",".join(map(repr, row)) for row in np.asarray(rows).tolist())
    path.write_text(text + "\n")


def on_cycle(truth: VdpParams, s0: State, dt: float, n: int, burn: int = 250) -> Trajectory:
    """n clean samples from the attractor, starting `burn` steps after s0.

    The clean trajectory is fixed; the seed only draws the observation noise
    (and the mixing), so every seed asks the solver for similar work.
    """
    warm = simulate(truth, s0, burn, dt)
    return simulate(truth, warm.state(warm.n_steps - 1), n, dt)


def pearson(a, b) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def _finite(values) -> bool:
    arr = np.asarray(values, dtype=float)  # None -> nan
    return bool(arr.size) and bool(np.all(np.isfinite(arr)))


def _report_problems(path: Path, windows: dict[str, int]) -> list[str]:
    """report.json: every aggregate finite, each method with all its windows."""
    doc = json.loads(path.read_text())
    problems = []
    for name, n_windows in windows.items():
        st = doc["methods"].get(name)
        if st is None:
            problems.append(f"{path}: method {name} missing")
            continue
        for key in ("corr_median", "corr_se", "rmse_median", "rmse_se"):
            if len(st[key]) != HORIZON or not _finite(st[key]):
                problems.append(f"{path}: {name}.{key} not {HORIZON} finite values")
        if st["n_windows"] != n_windows or st["skipped_windows"] != 0:
            problems.append(
                f"{path}: {name} has {st['n_windows']} windows, "
                f"{st['skipped_windows']} skipped; expected {n_windows}, 0"
            )
    return problems


def _fit_json(truth: VdpParams, traj: Trajectory) -> str:
    result = FitResult(
        params=truth,
        states=traj,
        objective_history=[],
        per_component_stats=[],
        converged=True,
        reason="generating parameters",
        config_echo={"dt": traj.dt, "substeps": 1},
    )
    return json.dumps(result.to_json_dict(), indent=2) + "\n"


@dataclass
class Inputs:
    """Files written by set-up plus the clean truth the checks compare against."""

    root: Path
    seed: int
    truth: list = field(default_factory=list)


class PaperForecast:
    name = "paper-forecast"
    why = (
        "the paper's 5 x (100 train + 20 test) protocol: five short VP fits "
        "(N=100, 4x4 blocks) from the default start, no search proposals"
    )
    truth = VdpParams(
        alpha=np.array([[2.2, 1.0], [1.9, 0.9]]),
        coupling=np.array([[0.0, 0.25], [-0.2, 0.0]]),
    )
    start = State(x1=np.array([1.0, -0.8]), x2=np.array([0.0, 0.2]))
    dt, length, noise = 0.15, 600, 0.005
    units = {"vdp_corr_h9": "pearson", "vdp_beats_var_steps": "count"}
    config = {
        "dt": dt,
        "penalty": {"outer_max_iter": 4, "inner_max_iter": 25, "inner_max_iter_start": 25},
    }

    def setup(self, seed: int, root: Path) -> Inputs:
        rng = np.random.default_rng([seed, 1])
        traj = on_cycle(self.truth, self.start, self.dt, self.length)
        write_csv(root / "series.csv", traj.x1 + rng.normal(0, self.noise, traj.x1.shape))
        (root / "fit.json").write_text(json.dumps(self.config))
        return Inputs(root=root, seed=seed, truth=[traj])

    def commands(self, inp: Inputs, out: Path):
        argv = [
            "forecast", str(inp.root / "series.csv"), "--methods", "var,vdp",
            "--train-len", "100", "--test-len", "20", "--segments", "5",
            "--horizon", str(HORIZON), "--vp-only",
            "--config", str(inp.root / "fit.json"), "--seed", str(inp.seed),
            "-o", str(out),
        ]
        return [(argv, lambda: _report_problems(out / "report.json", {"var6": 5, "vdp": 5}))]

    def quality(self, inp: Inputs, out: Path) -> dict:
        methods = json.loads((out / "report.json").read_text())["methods"]
        vdp, var = methods["vdp"]["corr_median"], methods["var6"]["corr_median"]
        return {
            "accuracy": vdp[-1],
            "vdp_corr_h9": vdp[-1],
            "vdp_beats_var_steps": sum(a > b for a, b in zip(vdp, var)),
        }

    def output_counts(self, inp: Inputs, out: Path) -> dict:
        return {}


class SearchFit:
    name = "search-fit"
    why = (
        "four vdpfit fit runs with the search on, 3 coupled components (N=150, "
        "6x6 blocks): proposals, then VP refinement from a simulated candidate"
    )
    truth = VdpParams(
        alpha=np.array([[1.6, 1.0], [2.0, 1.1], [1.3, 0.9]]),
        coupling=np.array([[0.0, 0.2, -0.1], [-0.15, 0.0, 0.1], [0.1, -0.2, 0.0]]),
    )
    start = State(x1=np.array([1.0, -0.5, 0.3]), x2=np.array([0.0, 0.4, -0.2]))
    dt, length, noise = 0.1, 150, 0.05
    units = {"x1_pearson_min": "pearson", "x2_pearson_min": "pearson"}
    n_series = 4
    search = {"max_rounds": 2, "proposals_per_round": 25, "vp_every": 2}
    config = {
        "dt": dt,
        "penalty": {"outer_max_iter": 4, "inner_max_iter": 25, "inner_max_iter_start": 25},
        "search": search,
    }

    def setup(self, seed: int, root: Path) -> Inputs:
        rng = np.random.default_rng([seed, 2])
        inp = Inputs(root=root, seed=seed)
        for i in range(self.n_series):
            traj = on_cycle(self.truth, self.start, self.dt, self.length, 250 + 40 * i)
            z = traj.x1 + rng.normal(0, self.noise, traj.x1.shape)
            write_csv(root / f"series{i}.csv", z)
            inp.truth.append(traj)
        (root / "fit.json").write_text(json.dumps(self.config))
        return inp

    def _refinements(self) -> int:
        rounds, every = self.search["max_rounds"], self.search["vp_every"]
        return sum(1 for r in range(1, rounds + 1) if r % every == 0 or r == rounds)

    def _check(self, out: Path) -> list[str]:
        problems = []
        doc = json.loads((out / "fit.json").read_text())
        arrays = [doc["alpha"], doc["W"], doc["states"]["x1"], doc["states"]["x2"]]
        if not all(_finite(a) for a in arrays):
            problems.append(f"{out}/fit.json: non-finite parameters or states")
        rows = [json.loads(line) for line in (out / "trace.ndjson").read_text().splitlines()]
        n_prop = sum(1 for r in rows if r["proposal"] >= 0)
        n_refine = sum(1 for r in rows if r["proposal"] == -1)
        want = self.search["max_rounds"] * self.search["proposals_per_round"]
        if n_prop != want or n_refine != self._refinements() or len(rows) != n_prop + n_refine:
            problems.append(
                f"{out}/trace.ndjson: {n_prop} proposal + {n_refine} refinement rows "
                f"of {len(rows)}; expected {want} + {self._refinements()}"
            )
        return problems

    def commands(self, inp: Inputs, out: Path):
        cmds = []
        for i in range(self.n_series):
            dest = out / f"fit{i}"
            argv = [
                "fit", str(inp.root / f"series{i}.csv"),
                "--config", str(inp.root / "fit.json"),
                "--seed", str(1000 * inp.seed + i), "-o", str(dest),
            ]
            cmds.append((argv, lambda dest=dest: self._check(dest)))
        return cmds

    def quality(self, inp: Inputs, out: Path) -> dict:
        x1_min, x2_min = [], []
        for i, traj in enumerate(inp.truth):
            states = json.loads((out / f"fit{i}" / "fit.json").read_text())["states"]
            x1, x2 = np.array(states["x1"]), np.array(states["x2"])
            x1_min.append(min(pearson(x1[:, c], traj.x1[:, c]) for c in range(traj.m)))
            x2_min.append(min(pearson(x2[:, c], traj.x2[:, c]) for c in range(traj.m)))
        return {
            "accuracy": float(np.median(np.minimum(x1_min, x2_min))),
            "x1_pearson_min": float(np.median(x1_min)),
            "x2_pearson_min": float(np.median(x2_min)),
        }

    def output_counts(self, inp: Inputs, out: Path) -> dict:
        rows = []
        for i in range(self.n_series):
            text = (out / f"fit{i}" / "trace.ndjson").read_text()
            rows.extend(json.loads(line) for line in text.splitlines())
        prop = [r["accepted"] for r in rows if r["proposal"] >= 0]
        refine = [r["accepted"] for r in rows if r["proposal"] == -1]
        return {
            "search.accept_ratio": sum(prop) / len(prop) if prop else 0.0,
            "search.refine_accept_ratio": sum(refine) / len(refine) if refine else 0.0,
        }


class Recording:
    name = "recording"
    why = (
        "svd -> long VAR forecast -> connectivity -> export-sim on a 1024 x 600 "
        "CSV recording: data and forecast layers, no estimator"
    )
    truth = SearchFit.truth
    start = SearchFit.start
    dt, length, pixels, noise = 0.1, 600, 1024, 0.1
    units = {"var_corr_h9": "pearson"}
    n_series, top_k = 100, 200

    def setup(self, seed: int, root: Path) -> Inputs:
        rng = np.random.default_rng([seed, 3])
        traj = on_cycle(self.truth, self.start, self.dt, self.length)
        mixing = rng.normal(size=(self.pixels, self.truth.m))
        recording = mixing @ traj.x1.T + rng.normal(0, self.noise, (self.pixels, self.length))
        write_csv(root / "recording.csv", recording)
        half = self.length // 2
        for tag, part in (("A", slice(0, half)), ("B", slice(half, None))):
            piece = Trajectory(x1=traj.x1[part], x2=traj.x2[part], dt=self.dt)
            (root / f"fit{tag}.json").write_text(_fit_json(self.truth, piece))
        return Inputs(root=root, seed=seed, truth=[traj])

    def commands(self, inp: Inputs, out: Path):
        comps, fits = out / "comps", [str(inp.root / "fitA.json"), str(inp.root / "fitB.json")]
        return [
            (
                ["svd", str(inp.root / "recording.csv"), "-m", str(self.truth.m),
                 "-o", str(comps)],
                lambda: self._check_svd(comps),
            ),
            (
                ["forecast", str(comps), "--methods", "var", "--protocol", "long",
                 "--train-len", "100", "--test-len", "20", "--segments", "5",
                 "--horizon", str(HORIZON), "-o", str(out / "forecast")],
                lambda: _report_problems(out / "forecast" / "report.json", {"var6": 60}),
            ),
            (
                ["connectivity", str(comps), *fits, "--top-k", str(self.top_k),
                 "-o", str(out / "conn")],
                lambda: self._check_edges(comps, fits, out / "conn" / "edges.csv"),
            ),
            (
                ["export-sim", *fits, "--n-series", str(self.n_series), "--length", "500",
                 "--seed", str(inp.seed), "--real", str(comps), "-o", str(out / "corpus")],
                lambda: self._check_corpus(out / "corpus"),
            ),
        ]

    def _check_svd(self, comps: Path) -> list[str]:
        meta = json.loads((comps / "meta.json").read_text())
        got = (meta["m"], meta["n_locations"], meta["n_samples"])
        want = (self.truth.m, self.pixels, self.length)
        return [] if got == want else [f"{comps}/meta.json: (m, P, T) = {got}, expected {want}"]

    def _check_edges(self, comps: Path, fits: list[str], path: Path) -> list[str]:
        """edges.csv against a dense F = S' (sum W) S and an exact top-k sort."""
        spatial = np.loadtxt(comps / "spatial.csv", delimiter=",", ndmin=2)
        sigma = np.loadtxt(comps / "sigma.csv", delimiter=",", ndmin=1)
        w_sum = np.zeros((self.truth.m, self.truth.m))
        for f in fits:
            w_sum = w_sum + np.array(json.loads(Path(f).read_text())["W"])
        scaled = np.sqrt(sigma)[:, None] * spatial
        dense = scaled.T @ w_sum @ scaled  # dense[target, source]
        want = []
        for polarity, sign in (("excitatory", 1.0), ("inhibitory", -1.0)):
            tgt, src = np.nonzero(sign * dense > 0)
            w = dense[tgt, src]
            order = np.lexsort((src, tgt, -sign * w))[: self.top_k]
            want.extend((int(src[i]), int(tgt[i]), float(w[i]), polarity) for i in order)
        got = [line.split(",") for line in path.read_text().splitlines()[1:]]
        if len(got) != len(want):
            return [f"{path}: {len(got)} edges, reference has {len(want)}"]
        for row, ref in zip(got, want):
            if (int(row[0]), int(row[1]), row[3]) != (ref[0], ref[1], ref[3]) or not math.isclose(
                float(row[2]), ref[2], rel_tol=1e-9
            ):
                return [f"{path}: edge {row} differs from reference {ref}"]
        return []

    def _check_corpus(self, corpus: Path) -> list[str]:
        man = json.loads((corpus / "manifest.json").read_text())
        sim, real = man["simulated"], man["noisy_real"]
        files = (len(list((corpus / "vdp_sim").glob("*.csv"))),
                 len(list((corpus / "noisy_real").glob("*.csv"))))
        ok = (
            sim["count"] + sim["skipped"] == self.n_series
            and real["count"] == self.n_series
            and files == (sim["count"], real["count"])
        )
        return [] if ok else [f"{corpus}/manifest.json: counts {sim['count']}+{sim['skipped']}, "
                              f"{real['count']}; files {files}; n_series {self.n_series}"]

    def quality(self, inp: Inputs, out: Path) -> dict:
        report = json.loads((out / "forecast" / "report.json").read_text())
        corr = report["methods"]["var6"]["corr_median"][-1]
        return {"accuracy": corr, "var_corr_h9": corr}

    def output_counts(self, inp: Inputs, out: Path) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (PaperForecast(), SearchFit(), Recording())}
