"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, emits every metric
   BENCHMARK.json names, with its unit.
2. A Gauss rule whose first node is shifted by 1e-9 is judged wrong, and
   the unshifted rule is judged ok.
3. Flipping one correct degree-ladder op to wrong (the one with the fewest
   digits, which moves the metrics least) moves ok_frac and digits_mean by
   more than their bounds in BENCHMARK.json.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Takes about three minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace",
                 str(trace)], capture_output=True, text=True, cwd=ROOT,
                timeout=180)
            if out.returncode != 0:
                raise SystemExit(f"{workload} trace={trace} failed: "
                                 f"{out.stderr[-500:]}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{workload}: result keys {sorted(res)}")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    raise SystemExit(f"{workload} trace={trace}: metric "
                                     f"{m['name']} missing or mis-united")
            print(f"ok: {workload} --trace {trace} emits all "
                  f"{len(spec[key])} {key} metrics")


def check_perturbation() -> None:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np
    import workloads as W
    from worker import load_refs
    refs = load_refs()
    op = next(o for o in W.ladder_ops(7) if o.name == "gauss_rule/legendre/10")
    rule = op.run()
    if op.judge(rule, refs).kind != "ok":
        raise SystemExit("unperturbed Legendre rule not judged ok")
    nodes = np.array(rule.nodes)
    nodes[0] += 1e-9
    shifted = type(rule)(nodes=nodes, weights=rule.weights,
                         exactness_degree=rule.exactness_degree)
    verdict = op.judge(shifted, refs)
    if verdict.kind != "wrong":
        raise SystemExit(f"shifted node judged {verdict.kind}")
    print(f"ok: node shifted by 1e-9 judged wrong (error {verdict.err:.2e}, "
          f"tolerance {verdict.tol:.2e})")


def check_one_op_flip(spec: dict) -> None:
    import warnings
    import workloads as W
    from worker import accuracy, load_refs, run_pass
    warnings.simplefilter("ignore")
    verdicts = run_pass(W.ladder_ops(7), load_refs(), False, None,
                        []).verdicts
    i = min((i for i, v in enumerate(verdicts) if v.kind == "ok"),
            key=lambda i: verdicts[i].digits)
    flipped = list(verdicts)
    flipped[i] = W.Verdict("wrong", module="kernels")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, before, after in zip(("ok_frac", "digits_mean"),
                                   accuracy(verdicts), accuracy(flipped)):
        drop = (before - after) / before
        if not drop > bounds[name]:
            raise SystemExit(f"one wrong op moves {name} by {drop:.4f}, "
                             f"within its bound {bounds[name]}")
        print(f"ok: one wrong degree-ladder op moves {name} by {drop:.4f} "
              f"(bound {bounds[name]})")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        raise SystemExit("bare directory run did not fail cleanly")
    print(f"ok: bare directory exits {out.returncode} without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_perturbation()
    check_one_op_flip(spec)
    check_bare_directory()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
