#!/usr/bin/env python3
"""Run-to-run spread of the benchmark across seeds.

    python3 bench/spread.py --workloads nac-enum tight-small --seeds 1-10 [--out F]

Runs `run.py --trace 0` once per workload and seed, one run at a time,
and prints for each end-to-end metric the median, the quartiles and their
distance as a share of the median (`statistics.quantiles(values, n=4)`),
next to the metric's bound from BENCHMARK.json. With --out, writes every run's result as JSON.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads:
        results = runs.setdefault(workload, [])
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            ok &= result["correct"]
        fails = " ".join(f"{r['failed']}/{r['attempted']}" for r in results)
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed/attempted {fails}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:28s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}  bound {bound} {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
