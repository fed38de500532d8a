"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads paper-forecast,search-fit,recording \
        --seeds 1-10 --seconds 35 [--trace 1] [--out summary.json]

Runs `perfbench/run.py` once per (workload, seed), one process at a time, from
the current directory. For every metric it reports the values, their median,
the first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def is_layer(metric: str) -> bool:
    """Per-layer metrics are dotted `<module>.<function>.<stat>` names."""
    return "." in metric and not metric.startswith("trace.")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append(result)
            brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                     if not is_layer(k)}
            print(f"{name} seed {seed}: correct={result['correct']} {brief}", flush=True)
        if not runs:
            continue
        metrics = {}
        for metric, entry in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            metrics[metric] = {"unit": entry["unit"], **summarise(values)}
            if not is_layer(metric):
                s = metrics[metric]
                print(f"  {metric}: median {s['median']:.4g} {entry['unit']}, "
                      f"q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, spread {s['spread']:.3f}")
        summary[name] = {
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
