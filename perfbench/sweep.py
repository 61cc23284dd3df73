"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workload validate_hs4 --seeds 1-10 [--json out.json]

Runs ``run.py --trace 0`` once per seed, in sequence, with ``run_seconds``
from BENCHMARK.json, and prints for every end-to-end metric its median,
quartiles and the quartile spread as a share of the median
(``statistics.quantiles(n=4)``), the figure a bound in BENCHMARK.json is
compared with. ``--json`` also writes
the per-seed values, the summary and each run's context.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs, contexts = [], []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(result)
        contexts.append(json.loads(lines[-2])["context"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
    names = list(runs[0]["metrics"])
    summary = {
        name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names
    }
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
              f"spread {s['spread']:.3f}")
    correct = all(r["correct"] for r in runs)
    print(f"all correct: {correct}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "correct": correct, "metrics": summary, "contexts": contexts}, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
