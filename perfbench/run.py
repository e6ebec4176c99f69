"""orthopoly benchmark: one command that runs a workload, checks every
result against stored mpmath references and prints the metrics.

    python3 perfbench/run.py --workload degree-ladder --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root (it needs src/ and schemas/).  The last
line of standard output is the result object; the line before it is a
report with the environment, the tail percentile used, the per-op
failures and the seed baseline.  --trace 1 gives the per-layer metrics
instead of the end-to-end ones.  `perfbench/README.md` describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
from importlib import metadata
import os
import platform
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "degree-ladder", "stieltjes-identities")
SETUPS = 5  # fresh processes timed for setup_s; one more runs the ops
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMING_NOTE = ("timings use per-process tools only (perf_counter, getrusage, "
               "-X importtime); no system tracing, no cache dropping, "
               "no cgroup changes")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("ORTHOPOLY_TOL", None)
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(root: str, seed: int) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not idx.startswith("index"):
            continue
        level = _read(os.path.join(base, idx, "level")).strip()
        kind = _read(os.path.join(base, idx, "type")).strip()
        caches[f"L{level}-{kind}"] = _read(os.path.join(base, idx,
                                                        "size")).strip()
    commit = "unknown (not a git checkout)"
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        commit = _read(os.path.join(root, ".git", head[5:])).strip() or commit
    elif head:
        commit = head
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "seed": seed,
        "commit": commit,
        "threads": {var: "1" for var in THREAD_VARS},
        "clients": "1, closed loop",
        "timing": TIMING_NOTE,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="orthopoly benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    missing = [p for p in ("src/orthopoly/__init__.py",
                           "schemas/quadrature.schema.json",
                           "perfbench/refs.json.gz")
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2

    env = child_env(root)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # each timed set-up sits between two calibration launches (calib.py);
    # the launch that runs the ops comes after them and is not timed
    clock = calib.Clock(lambda: calib.cold(env, root), calib.COLD_REF_S, 0.0)
    ready, marks, lines = [], [], []
    for i in range(SETUPS + 1):
        last = i == SETUPS
        if not last:
            marks.append(clock.mark())
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, env=env, cwd=root,
                                text=True)
        try:
            first = proc.stdout.readline()
            if not last:
                ready.append(time.perf_counter() - t0)
            if first.strip() == "READY":
                proc.stdin.write("GO\n" if last else "STOP\n")
                proc.stdin.flush()
            proc.stdin.close()
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if first.strip() != "READY" or code != 0:
            print(f"perfbench: worker failed (exit {code}) in set-up "
                  f"{i + 1}", file=sys.stderr)
            return 1
        if last:
            lines = [ln for ln in rest.splitlines() if ln.strip()]
        elif i == SETUPS - 1:
            clock.close()
    if not lines:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    setup_ref = [t * clock.scale(k) for t, k in zip(ready, marks)]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_ref),
                                        "unit": "s"}
    report = result.pop("report")
    report["setup_samples_s"] = {"reference_speed": setup_ref,
                                 "wall_clock": ready,
                                 "calibration_s": clock.samples}
    report["environment"] = environment(root, args.seed)
    baseline = os.path.join(HERE, "baseline.json")
    if os.path.isfile(baseline):
        with open(baseline, encoding="utf-8") as fh:
            report["seed_baseline"] = json.load(fh).get(args.workload)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
