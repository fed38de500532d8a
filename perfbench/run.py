"""vdpfit benchmark: one workload per process, driven through `vdpfit.cli.main`.

    python3 perfbench/run.py --workload paper-forecast --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
Each pass first generates the workload's input files from the seed (set-up,
timed as `setup_s`), then runs the workload's command chain on them (timed as
`run_s`), then checks every command's outputs. Passes repeat until `--seconds`
is spent. Both metrics are medians over the passes of times scaled to a
reference host speed, measured by `speed_sample()` around each pass.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, the
tracing overhead, and whether the traced counters repeat exactly.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it, prefixed by '#',
give the same numbers with their spread, the workload-specific quality
figures, and the environment. Full results and the spans of traced passes go
to `.perfbench_work/results/`.
"""
import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # one BLAS thread, fixed before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_TRACED = 2
HARD_STOP_S = 120.0  # start no pass after this, whatever --seconds says
SPEED_REFERENCE_S = 0.12  # speed_sample() on this host at its usual speed


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_pass(cli, workload, inputs, out: Path, tracer=None):
    """One pass of the command chain; returns (seconds, attempted, failures)."""
    commands = workload.commands(inputs, out)
    codes = []
    sink = io.StringIO()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv, _ in commands:
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:  # argparse usage errors
                    codes.append(exc.code)
                except Exception:  # a traceback is a failed command, not a crash
                    codes.append(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for (argv, check), code in zip(commands, codes):
        if code != 0:
            failures.append(f"vdpfit {argv[0]} exited with {code}: {sink.getvalue()[-2000:]}")
            continue
        try:
            failures.extend(check())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"vdpfit {argv[0]}: output check raised {exc!r}")
    return elapsed, len(commands), failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vdpfit" / "__init__.py").is_file():
        print(f"error: no vdpfit sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import vdpfit.cli
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(vdpfit.__file__).resolve().parent != (ROOT / "src" / "vdpfit").resolve():
        print(f"error: imported vdpfit from {vdpfit.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results_dir = ROOT / ".perfbench_work" / "results"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workload, vdpfit.cli, Tracer, work, results_dir / tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def speed_sample() -> float:
    """Wall seconds of a fixed kernel like the program's hot path.

    Small LAPACK calls and an interpreter loop: benchmark code, so its time
    moves with the host's speed and not with the program.
    """
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    small = np.eye(4) * 3.0 + 0.1
    start = time.perf_counter()
    for _ in range(5000):
        cho_solve(cho_factor(small, lower=True), small[0])
    total = 0.0
    for i in range(200_000):
        total += i * 1.5
    return time.perf_counter() - start


def measure(args, workload, cli, tracer_cls, work: Path, result_stem: Path) -> int:
    tracer = tracer_cls() if args.trace else None
    passes = []  # (kind, set-up seconds, run seconds)
    speed = [speed_sample()]  # one before the first pass and one after each
    attempted, failures, qualities, counters = 0, [], [], []
    begin = time.perf_counter()
    while True:
        n = len(passes)
        kind = "traced" if args.trace and n % 2 == 1 else "untraced"
        # fresh inputs for every pass, so set-up is sampled across the run too
        inputs_dir = work / f"inputs{n}"
        inputs_dir.mkdir()
        start = time.perf_counter()
        inputs = workload.setup(args.seed, inputs_dir)
        setup = time.perf_counter() - start
        if tracer is not None:
            tracer.pass_id = n
        out = work / f"pass{n}"
        elapsed, cmds, problems = run_pass(
            cli, workload, inputs, out, tracer if kind == "traced" else None
        )
        passes.append((kind, setup, elapsed))
        speed.append(speed_sample())
        attempted += cmds
        failures.extend(problems)
        if not problems:
            qualities.append(workload.quality(inputs, out))
            if kind == "traced":
                stats = tracer.layer_stats(n)
                stats.update(workload.output_counts(inputs, out))
                counters.append(stats)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(inputs_dir, ignore_errors=True)
        spent = time.perf_counter() - begin
        traced = sum(k == "traced" for k, _, _ in passes)
        done = len(passes) >= MIN_PASSES and (not args.trace or traced >= MIN_TRACED)
        upcoming = max(s + e for _, s, e in passes[-2:]) + speed[-1]
        if spent > HARD_STOP_S or (done and spent + upcoming > args.seconds):
            break

    if any(q != qualities[0] for q in qualities):
        failures.append(f"quality figures differ between passes: {qualities}")
    failed = len(failures)
    env = environment()
    run_s = {kind: [e for k, _, e in passes if k == kind] for kind in ("untraced", "traced")}
    # end-to-end times at the host speed where speed_sample() takes
    # SPEED_REFERENCE_S, each pass scaled by the samples just before and after it
    scale = [2 * SPEED_REFERENCE_S / (a + b) for a, b in zip(speed, speed[1:])]
    scaled = {
        kind: [e * k for (n, _, e), k in zip(passes, scale) if n == kind] for kind in run_s
    }
    setup_s = statistics.median(s * k for (_, s, _), k in zip(passes, scale))
    q1, q3 = quartiles(scaled["untraced"])
    lines = [
        f"env {json.dumps(env, sort_keys=True)}",
        f"workload {workload.name} seed {args.seed}: {workload.why}",
        f"host speed scale {min(scale):.4f} to {max(scale):.4f}",
        f"run_s median {statistics.median(scaled['untraced']):.4f} s, quartiles "
        f"{q1:.4f} / {q3:.4f}, n={len(scaled['untraced'])}; unscaled median "
        f"{statistics.median(run_s['untraced']):.4f} s",
        f"setup_s median {setup_s:.4f} s, n={len(passes)}; unscaled median "
        f"{statistics.median(s for _, s, _ in passes):.4f} s",
        f"failed_ratio {failed / attempted!r} ratio ({failed} of {attempted} commands)",
    ]
    if qualities:
        lines.extend(
            f"{k} {v!r} {workload.units[k]}" for k, v in qualities[0].items() if k != "accuracy"
        )
    lines.extend(f"FAILED {msg}" for msg in failures)

    if args.trace:
        metrics, trace_ok = per_layer_metrics(run_s, scaled, counters)
        correct = failed == 0 and trace_ok
        tracer.write(result_stem.with_suffix(".spans.ndjson"))
    else:
        metrics = {
            "run_s": {"value": statistics.median(scaled["untraced"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "accuracy": {
                "value": qualities[0]["accuracy"] if qualities else 0.0,
                "unit": "pearson",
            },
        }
        correct = failed == 0
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']!r} {m['unit']}")

    for line in lines:
        print(f"# {line}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        **result,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": env,
        "passes": [{"kind": k, "setup_s": s, "run_s": e} for k, s, e in passes],
        "speed_sample_s": speed,
        "quality": qualities[0] if qualities else None,
        "failures": failures,
    }
    result_stem.with_suffix(".json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def per_layer_metrics(run_s, scaled, counters):
    """Medians of the traced passes' layer stats; counts must repeat exactly.

    Self times add up to the unscaled traced pass time (`trace.run_s`); the
    overhead compares pass times scaled to the reference host speed. The
    metric names, units and order come from BENCHMARK.json.
    """
    per_layer = {
        m["name"]: m["unit"]
        for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    }
    if not counters:
        return {name: {"value": 0.0, "unit": unit} for name, unit in per_layer.items()}, False
    timed = {k for k in counters[0] if k.endswith("self_s")}
    repeat = all(
        {k: v for k, v in c.items() if k not in timed}
        == {k: v for k, v in counters[0].items() if k not in timed}
        for c in counters
    )
    values = {
        name: statistics.median(c.get(name, 0.0) for c in counters) for name in per_layer
    }
    values.update({
        "trace.run_s": statistics.median(run_s["traced"]),
        "trace.untraced_run_s": statistics.median(run_s["untraced"]),
        "trace.overhead_s": statistics.median(scaled["traced"])
        - statistics.median(scaled["untraced"]),
        "trace.self_sum_s": statistics.median(
            sum(v for k, v in c.items() if k in timed) for c in counters
        ),
        "trace.counters_repeat": float(repeat),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer.items()}, repeat


if __name__ == "__main__":
    sys.exit(main())
