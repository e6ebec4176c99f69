"""One benchmark client process (started by run.py; not run by hand).

Protocol: the process imports orthopoly and generates the seeded inputs,
prints READY, and waits for a line on stdin.  "STOP" ends it there (a
set-up-only launch); "GO" makes it load the references and run whole
passes over the op list for at least --seconds, then print one JSON line
with the metrics and a report.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
CAL_EVERY_S = 0.1  # warm calibration interval (the kernel takes ~5.5 ms)
TAIL_LADDER = (50, 60, 75, 90, 95, 98, 99, 99.5, 99.9)
MODULES = ("cli", "io", "recurrence", "kernels", "measures", "families",
           "momentprob", "discrete", "qseries")
FAIL_RAISED = ("raised", "traceback")
FAIL_WRONG = ("wrong", "schema_invalid")
_ORTHOPOLY_FILE = re.compile(r"orthopoly[/\\](\w+)\.py$")
_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in a
    single pass, so that it is the same for every run of a workload.
    op_tail_ms is the mean of the op times at or beyond it: a single
    percentile of a mix of a few dozen op kinds sits on a gap between two
    kinds and jumps by a third between runs of the same code."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if ops_per_pass * (1 - q / 100) >= 10:
            best = q
    return best


def accuracy(verdicts) -> tuple[float, float]:
    """ok_frac and digits_mean of a list of verdicts (a failed op scores
    0 digits)."""
    return (sum(v.kind == "ok" for v in verdicts) / len(verdicts),
            sum(v.digits for v in verdicts) / len(verdicts))


def load_refs() -> dict:
    import gzip
    with gzip.open(os.path.join(HERE, "refs.json.gz"), "rt",
                   encoding="utf-8") as fh:
        return json.load(fh)


def load_schemas(root: str) -> dict:
    import jsonschema
    out = {}
    for name in ("quadrature", "recurrence"):
        with open(os.path.join(root, "schemas", f"{name}.schema.json"),
                  encoding="utf-8") as fh:
            schema = json.load(fh)
        out[name] = jsonschema.Draft7Validator(schema)
    return out


def import_times(env: dict, root: str, count: int) -> tuple[float, float]:
    """Median cumulative import time (ms) of the orthopoly package and of
    orthopoly.measures, from `-X importtime` in fresh children."""
    pkg, meas = [], []
    for _ in range(count):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "from orthopoly.cli import main"],
            capture_output=True, text=True, env=env, cwd=root, timeout=60)
        p, m = parse_importtime(res.stderr)
        pkg.append(p)
        meas.append(m)
    return statistics.median(pkg), statistics.median(meas)


def parse_importtime(stderr: str) -> tuple[float, float]:
    pkg = meas = 0.0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        name = m.group(3).strip()
        if name == "orthopoly":
            pkg = int(m.group(2)) / 1e3
        elif name == "orthopoly.measures":
            meas = int(m.group(2)) / 1e3
    return pkg, meas


def strip_importtime(stderr: str) -> str:
    return "\n".join(line for line in stderr.splitlines()
                     if not line.startswith("import time:"))


class Pass:
    """Timings and verdicts of one pass over the op list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.times: list[float] = []      # wall seconds
        self.marks: list[int] = []        # calibration sample before each op
        self.ref_times: list[float] = []  # seconds at the reference speed
        self.verdicts: list = []
        self.bytes_out = 0
        self.quad_warnings = 0


def run_pass(ops, refs, traced, tracer, cli_trace, clock=None) -> Pass:
    p = Pass(traced)
    for i, op in enumerate(ops):
        p.marks.append(clock.mark() if clock is not None else -1)
        if tracer is not None:
            tracer.op_id = i
            tracer.open("op")
        t0 = time.perf_counter()
        try:
            res = op.run()
            t1 = time.perf_counter()
            v = None
        except Exception as exc:  # an op failing must not stop the benchmark
            t1 = time.perf_counter()
            res = None
            v = W.Verdict("raised", module=_raising_module(exc, op.owner),
                          detail=type(exc).__name__)
        if tracer is not None:
            tracer.close()
        p.times.append(t1 - t0)
        if v is None:
            if isinstance(res, tuple) and len(res) == 4:  # traced CLI child
                res = (res[0], res[1], strip_importtime(res[2]), res[3])
                cli_trace.append(res[3])
            if isinstance(res, tuple) and len(res) >= 3 \
                    and isinstance(res[1], str):
                p.bytes_out += len(res[1].encode())
            try:
                v = op.judge(res, refs)
            except Exception as exc:  # a result the judge cannot read
                v = W.Verdict("wrong", module=op.owner,
                              detail=f"unreadable result: "
                                     f"{type(exc).__name__}")
        res = None
        p.verdicts.append(v)
    return p


def _raising_module(exc: BaseException, owner: str) -> str:
    mod = owner
    tb = exc.__traceback__
    while tb is not None:
        m = _ORTHOPOLY_FILE.search(tb.tb_frame.f_code.co_filename)
        if m:
            mod = m.group(1)
        tb = tb.tb_next
    return mod


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    warnings.simplefilter("ignore")

    # ---- set-up: import the package and generate the inputs ------------
    workdir = cli_mode = None
    env = dict(os.environ)
    shim = os.path.join(HERE, "clishim.py")
    if args.workload == "cli-cold":
        import orthopoly  # noqa: F401  (set-up covers the package import)
        workdir = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(workdir, exist_ok=True)
        cli_mode = {"traced": False}
        trace_ids = itertools.count()

        def launcher(argv):
            if not cli_mode["traced"]:
                return W.run_cli(argv, env, root)
            out_path = os.path.join(workdir, f"trace-{next(trace_ids)}.json")
            cenv = dict(env, PERFBENCH_TRACE_OUT=out_path)
            code, out, err = W.run_cli(argv, cenv, root, shim=shim)
            summary = {}
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as fh:
                    summary = json.load(fh)
            pkg, meas = parse_importtime(err)
            summary["import_ms"] = (pkg, meas)
            return code, out, err, summary

        ops = W.cli_ops(args.seed, workdir, launcher)
    elif args.workload == "degree-ladder":
        ops = W.ladder_ops(args.seed)
    elif args.workload == "stieltjes-identities":
        ops = W.stieltjes_ops(args.seed)
    else:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("READY", flush=True)
    try:
        if sys.stdin.readline().strip() != "GO":
            return 0
        return measure(args, ops, root, env, cli_mode)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, root, env, cli_mode) -> int:
    import numpy as np
    import calib
    refs = load_refs()
    refs["_schemas"] = load_schemas(root)
    if cli_mode is not None:  # a calibration launch before every CLI launch
        clock = calib.Clock(lambda: calib.cold(env, root), calib.COLD_REF_S,
                            0.0)
    else:
        clock = calib.Clock(calib.warm, calib.WARM_REF_S, CAL_EVERY_S)
    tracer = None
    passes: list[Pass] = []
    cli_trace: list[dict] = []
    budget = args.seconds
    t_begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced and cli_mode is None and tracer is None:
            from spans import Tracer
            tracer = Tracer()
        if cli_mode is not None:
            cli_mode["traced"] = traced
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        if traced:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                p = run_pass(ops, refs, True,
                             tracer if cli_mode is None else None, cli_trace,
                             clock)
            p.quad_warnings = sum(
                1 for w in caught
                if w.category.__name__ == "IntegrationWarning")
        else:
            p = run_pass(ops, refs, False, None, cli_trace, clock)
        passes.append(p)
        # stop when less than half a pass of the budget is left, so runs
        # end close to --seconds instead of always overshooting
        elapsed = time.perf_counter() - t_begin
        if elapsed + 0.5 * elapsed / len(passes) >= budget \
                and (not args.trace or len(passes) >= 2):
            break
    if tracer is not None:
        tracer.uninstall()
    clock.close()
    for p in passes:
        p.ref_times = [t * clock.scale(k) for t, k in zip(p.times, p.marks)]

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    first = passes[0].verdicts
    deterministic = all([v.kind for v in p.verdicts] == [v.kind for v in first]
                        for p in passes)
    verdicts = [v for p in passes for v in p.verdicts]
    attempted = len(verdicts)
    ok = sum(v.kind == "ok" for v in verdicts)
    ok_frac, digits_mean = accuracy(verdicts)
    ok_plain = sum(v.kind == "ok" for p in plain for v in p.verdicts)
    q = tail_percentile(len(ops))
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_kib = child_rss if cli_mode is not None else self_rss

    if not args.trace:
        metrics = {
            **timing_metrics([p.ref_times for p in plain], q, ok_plain),
            "ok_frac": (ok_frac, "fraction"),
            "digits_mean": (digits_mean, "digits"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(passes, traced_passes, tracer, cli_trace,
                                env, root, cli_mode is not None)
        if tracer is not None:
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.npz"))

    outcomes: dict[str, int] = {}
    for v in first:
        key = v.kind if v.kind != "raised" else f"raised:{v.detail}"
        outcomes[key] = outcomes.get(key, 0) + 1
    report = {
        "workload": args.workload,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "samples": sum(len(p.times) for p in plain),
        "tail_percentile": q,
        "tail_percentile_ms": float(np.percentile(
            [t for p in plain for t in p.ref_times], q)) * 1e3,
        "calibration": {
            "kernel": "cold" if cli_mode is not None else "warm",
            "ref_s": clock.ref_s,
            "samples": len(clock.samples),
            "median_s": statistics.median(clock.samples),
        },
        "wall_clock": {k: v for k, (v, _) in timing_metrics(
            [p.times for p in plain], q, ok_plain).items()},
        "outcomes_per_pass": outcomes,
        "failures": sorted({f"{op.name}: {v.kind}"
                            + (f" ({v.detail})" if v.detail else "")
                            for op, v in zip(ops, first) if v.kind != "ok"}),
        "deterministic": deterministic,
    }
    print(json.dumps({"correct": deterministic, "attempted": attempted,
                      "failed": attempted - ok,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()},
                      "report": report}), flush=True)
    return 0


def timing_metrics(times: list[list[float]], q: float, ok: int) -> dict:
    """op_p50_ms, op_tail_ms and ok_per_s from per-pass op times (s)."""
    import numpy as np
    flat = np.concatenate([np.asarray(t) for t in times])
    return {
        "op_p50_ms": (float(np.median(flat)) * 1e3, "ms"),
        "op_tail_ms": (float(flat[flat >= np.percentile(flat, q)].mean())
                       * 1e3, "ms"),
        "ok_per_s": (ok / float(flat.sum()), "1/s"),
    }


def layer_metrics(passes, traced, tracer, cli_trace, env, root, cold) -> dict:
    """Per-layer metrics, per traced pass."""
    n = len(traced)
    first = passes[0].verdicts
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    eval_points = eigensolves = 0
    if cold:
        for s in cli_trace:
            for k, v in s.get("self_ms", {}).items():
                self_ms[k] = self_ms.get(k, 0.0) + v
            for k, v in s.get("calls", {}).items():
                calls[k] = calls.get(k, 0) + v
            eval_points += s.get("eval_points", 0)
            eigensolves += s.get("momentprob_eigensolves", 0)
        imports = [s["import_ms"] for s in cli_trace if "import_ms" in s]
        pkg_ms = statistics.median(i[0] for i in imports)
        meas_ms = statistics.median(i[1] for i in imports)
    else:
        self_ms = {k: 1e3 * v for k, v in tracer.self_s.items()}
        calls = dict(tracer.calls)
        eval_points = tracer.eval_points
        eigensolves = tracer.momentprob_eigensolves
        pkg_ms, meas_ms = import_times(env, root, 3)

    def per(v):
        return v / n

    untraced = [sum(p.ref_times) for p in passes if not p.traced]
    traced_t = [sum(p.ref_times) for p in traced]
    m = {
        "cli.import_ms": (pkg_ms, "ms"),
        "measures.import_ms": (meas_ms, "ms"),
        "cli.main_self_ms": (per(self_ms.get("cli.main", 0.0)), "ms"),
        "cli.exit1": (sum(v.kind == "exit1" for v in first), "count"),
        "cli.exit2": (sum(v.kind == "exit2" for v in first), "count"),
        "cli.tracebacks": (sum(v.kind == "traceback" for v in first),
                           "count"),
        "io.self_ms": (per(self_ms.get("io", 0.0)), "ms"),
        "io.bytes_out": (per(sum(p.bytes_out for p in traced)), "bytes"),
        "recurrence.coeff_calls": (per(calls.get("recurrence.coeff", 0)),
                                   "count"),
        "recurrence.coeff_self_ms": (per(self_ms.get("recurrence.coeff", 0.0)),
                                     "ms"),
        "families.system_self_ms": (per(self_ms.get("families.system", 0.0)
                                        + self_ms.get("discrete.system", 0.0)),
                                    "ms"),
        "recurrence.eval_calls": (per(calls.get("recurrence.eval", 0)),
                                  "count"),
        "recurrence.eval_points": (per(eval_points), "count"),
        "recurrence.eval_self_ms": (per(self_ms.get("recurrence.eval", 0.0)),
                                    "ms"),
        "recurrence.norms_self_ms": (per(self_ms.get("recurrence.norms", 0.0)),
                                     "ms"),
        "kernels.jacobi_matrix_self_ms": (
            per(self_ms.get("kernels.jacobi_matrix", 0.0)), "ms"),
        "kernels.eigensolve_self_ms": (
            per(self_ms.get("kernels.eigensolve", 0.0)), "ms"),
        "kernels.gauss_rule_self_ms": (
            per(self_ms.get("kernels.gauss_rule", 0.0)), "ms"),
        "kernels.zeros_calls": (per(calls.get("kernels.zeros", 0)), "count"),
        "kernels.cd_kernel_calls": (per(calls.get("kernels.cd_kernel", 0)),
                                    "count"),
        "kernels.cd_kernel_self_ms": (
            per(self_ms.get("kernels.cd_kernel", 0.0)), "ms"),
        "measures.integrate_calls": (per(calls.get("measures.integrate", 0)),
                                     "count"),
        "measures.integrate_self_ms": (
            per(self_ms.get("measures.integrate", 0.0)), "ms"),
        "measures.stieltjes_self_ms": (
            per(self_ms.get("measures.stieltjes", 0.0)), "ms"),
        "measures.quad_warnings": (
            per(sum(p.quad_warnings for p in traced)),
            "count"),
        "families.series_calls": (per(calls.get("families.series", 0)),
                                  "count"),
        "families.series_self_ms": (per(self_ms.get("families.series", 0.0)),
                                    "ms"),
        "families.check_self_ms": (per(self_ms.get("families.check", 0.0)),
                                   "ms"),
        "momentprob.true_interval_self_ms": (
            per(self_ms.get("momentprob.true_interval", 0.0)), "ms"),
        "momentprob.eigensolves": (per(eigensolves), "count"),
        "momentprob.carleman_self_ms": (
            per(self_ms.get("momentprob.carleman", 0.0)), "ms"),
        "momentprob.rho_self_ms": (per(self_ms.get("momentprob.rho", 0.0)),
                                   "ms"),
        "discrete.eval_self_ms": (per(self_ms.get("discrete.eval", 0.0)),
                                  "ms"),
        "qseries.eval_self_ms": (per(self_ms.get("qseries.eval", 0.0)), "ms"),
        "trace_overhead_frac": (statistics.median(traced_t)
                                / statistics.median(untraced) - 1.0,
                                "fraction"),
    }
    for mod in MODULES:
        m[f"{mod}.raised"] = (sum(v.kind in FAIL_RAISED and v.module == mod
                                  for v in first), "count")
        m[f"{mod}.wrong"] = (sum(v.kind in FAIL_WRONG and v.module == mod
                                 for v in first), "count")
    return m


if __name__ == "__main__":
    sys.exit(main())
