"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads paper grid crowd --seeds 1-10 \
        --trace 0 --out sweep.json

Runs ``run.py`` once per (workload, seed), one after another, from the
current directory (a shoplens checkout root). For every metric it reports
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
The JSON written to ``--out`` keeps every run's result and sample lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"trace": args.trace, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"seed": seed, "exit": proc.returncode, "result": result,
                         "log": lines[:-1], "stderr": proc.stderr[-2000:],
                         "run_s": time.perf_counter() - started})
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status} in {runs[-1]['run_s']:.1f} s",
                  flush=True)
        good = [r["result"] for r in runs if r["result"] and r["result"]["correct"]]
        metrics = {}
        for name in (good[0]["metrics"] if good else {}):
            metrics[name] = summarize([g["metrics"][name]["value"] for g in good])
            metrics[name]["unit"] = good[0]["metrics"][name]["unit"]
            metrics[name]["bound"] = bounds.get(name)
        report["workloads"][workload] = {"runs": runs, "metrics": metrics,
                                         "correct_runs": len(good)}
        for name, m in metrics.items():
            if args.trace == 0 or name in ("trace.overhead", "trace.wall_s"):
                print(f"  {name:16s} median {m['median']:.6g} {m['unit']}  "
                      f"spread {m['spread']:.4f}  bound {m['bound']}")
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
