"""Measure the seed baseline: run every workload on ten seeds, print each
end-to-end metric's median, quartiles and spread (quartile distance over
median), and write them to perfbench/baseline.json.  Run from the
repository root:

    python3 perfbench/baseline.py --first-seed 801 --note "parent commit ..."

Takes about 20 minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--note", required=True,
                    help="what was measured on which machine")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {"measured_on": args.note}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=600)
            metrics = json.loads(res.stdout.splitlines()[-1])["metrics"]
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        out[workload] = {}
        for name, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            out[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / median,
                                   "unit": units[name]}
            print(f"{workload:22s} {name:12s} median {median:.6g} "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
