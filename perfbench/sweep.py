"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/sweep.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]
                               [--out perfbench/baseline.json]

Each (workload, seed) is a separate ``run.py`` process, run for the
``run_seconds`` of BENCHMARK.json. For every metric the table gives the
median over seeds, the quartiles, and the spread (quartile distance over
median) next to the metric's bound. The failed share of attempted inputs
is printed per workload as ``failed_frac``. With ``--out`` the per-seed
values, the summary and the environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, quartiles


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    metric_specs = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in _seeds(args.seeds):
            out, log = run_one(workload, seed, spec["run_seconds"], args.trace)
            result.setdefault("environment", json.loads(log[0].split(": ", 1)[1]))
            runs[seed] = out
            print(f"{workload} seed {seed}: correct={out['correct']} failed={out['failed']}/"
                  f"{out['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()
                      if k in metric_specs and not args.trace), flush=True)
        attempted = sum(r["attempted"] for r in runs.values())
        failed = sum(r["failed"] for r in runs.values())
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in runs.values()])
            for name in metric_specs
        }
        result["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs.values()),
            "failed_frac": failed / attempted,
            "summary": summary,
            "runs": {str(s): {k: v["value"] for k, v in r["metrics"].items()}
                     for s, r in runs.items()},
        }
        print(f"\n{workload}: failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
        for name, s in summary.items():
            bound = metric_specs[name].get("bound")
            limit = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:30s} median {s['median']:<12.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                  f"  spread {s['spread']:.4f}{limit}")
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
