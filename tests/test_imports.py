"""What a cold process loads: `import orthopoly` loads no submodule, and each
subcommand loads only the package modules it runs.  Every case starts a
fresh interpreter, since the test process has loaded everything."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import orthopoly

# every subcommand loads these: the parser is built from the family registry
BASE = {"cli", "errors", "families", "recurrence"}

_LOADED_PROBE = textwrap.dedent("""
    import json, sys
    from orthopoly.cli import main

    code = main(sys.argv[1:])
    print(json.dumps({
        "code": code,
        "package": sorted(m.split(".", 1)[1] for m in sys.modules
                          if m.startswith("orthopoly.")),
        "other": [m for m in ("fractions", "numpy.polynomial", "mpmath",
                              "scipy", "numpy.ma", "csv")
                  if m in sys.modules]}))
""")

_NAMESPACE_PROBE = textwrap.dedent("""
    import json, sys
    import orthopoly

    loaded = sorted(m for m in sys.modules
                    if m.startswith("orthopoly.") or m.split(".")[0] == "numpy")
    from orthopoly import QuadratureRule
    try:
        orthopoly.no_such_name
        unknown = "resolved"
    except AttributeError as exc:
        unknown = str(exc)
    print(json.dumps({
        "loaded": loaded,
        "rule": QuadratureRule.__module__,
        "kernels": orthopoly.kernels.__name__,
        "dir": dir(orthopoly),
        "unknown": unknown}))
""")


def _probe(source: str, *argv: str) -> dict:
    src = os.path.dirname(os.path.dirname(orthopoly.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    got = _probe(_NAMESPACE_PROBE)
    assert got["loaded"] == []
    assert got["rule"] == "orthopoly.kernels"
    assert got["kernels"] == "orthopoly.kernels"
    assert set(orthopoly.__all__) <= set(got["dir"])
    assert "__version__" in got["dir"]
    assert got["unknown"] == ("module 'orthopoly' has no attribute "
                              "'no_such_name'")


@pytest.mark.parametrize("argv,extra", [
    (("tabulate", "--family", "legendre", "--n-max", "3", "--grid=-1:1:3"),
     set()),
    (("tabulate", "--family", "hermite", "--n-max", "3", "--grid=-1:1:3",
      "--format", "json"), {"io"}),
    (("tabulate", "--family", "charlier", "--a", "2", "--n-max", "3",
      "--grid=0:3:4"), {"discrete"}),
    (("recurrence", "--family", "jacobi", "--alpha", "0.5", "--beta", "1.5",
      "--n-max", "5"), {"io"}),
    (("check", "--family", "hermite", "--identity", "ode", "--n", "10"),
     {"identities", "io"}),
    (("check", "--family", "laguerre", "--alpha", "0.5", "--identity",
      "shift", "--n", "10"), {"identities", "io"}),
    (("quadrature", "--family", "legendre", "--n", "5"),
     {"kernels", "io", "measures"}),
    (("zeros", "--family", "hermite", "--n", "5"), {"kernels", "io"}),
    (("check", "--family", "legendre", "--identity", "cd", "--n", "10"),
     {"identities", "kernels", "io"}),
    (("diagnose", "--family", "hermite", "--carleman", "--true-interval",
      "10"), {"kernels", "io", "momentprob"}),
    # the largest true-interval orders of numpy's dense route
    (("diagnose", "--family", "legendre", "--true-interval", "97"),
     {"kernels", "io", "momentprob"}),
    (("diagnose", "--family", "jacobi", "--alpha", "0.5", "--beta", "1.5",
      "--true-interval", "48"), {"kernels", "io", "momentprob"}),
    # numpy's dense route up to order 96: the half-size order 75 of a
    # symmetric 150-point rule, and the full order 96 of a non-symmetric one
    (("quadrature", "--family", "gegenbauer", "--lam", "1.5", "--n", "150"),
     {"kernels", "io", "measures"}),
    (("zeros", "--family", "jacobi", "--alpha", "0.5", "--beta", "1.5",
      "--n", "96"), {"kernels", "io"}),
], ids=["tabulate-csv", "tabulate-json", "tabulate-lattice", "recurrence",
        "check-ode", "check-shift", "quadrature", "zeros", "check-cd",
        "diagnose", "diagnose-interval-97", "diagnose-interval-48",
        "quadrature-150", "zeros-96"])
def test_subcommand_loads_only_its_modules(argv, extra):
    got = _probe(_LOADED_PROBE, *argv)
    assert got["code"] == 0
    # qseries is never loaded, momentprob only by diagnose, mpmath by none
    # (the series sums are exact integer arithmetic), scipy by none (these
    # eigenproblems are small enough for numpy's LAPACK), and csv by none
    # (no CSV field needs quoting)
    assert set(got["package"]) == BASE | extra
    assert got["other"] == []


def test_recurrence_of_a_finite_measure_file_loads_only_its_modules(
        tmp_path):
    # counting the distinct points takes no np.unique, which loads numpy.ma
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "discrete_finite",
        "nodes": [-1 + 2 * k / 19 for k in range(20)], "weights": [1.0] * 20}))
    got = _probe(_LOADED_PROBE, "recurrence", "--measure", str(path),
                 "--n-max", "15")
    assert got["code"] == 0
    assert set(got["package"]) == BASE | {"io", "measures"}
    assert got["other"] == []


def test_zeros_of_a_recurrence_file_loads_no_measures(tmp_path):
    path = tmp_path / "recurrence.json"
    path.write_text(json.dumps({
        "schema": 1, "form": "monic",
        "coefficients": {"a": [1.0] * 8, "b": [0.0] * 8,
                         "c": [0.0] + [0.25] * 7}}))
    got = _probe(_LOADED_PROBE, "zeros", "--recurrence", str(path), "--n", "5")
    assert got["code"] == 0
    assert set(got["package"]) == BASE | {"io", "kernels"}
    assert got["other"] == []


_NO_MPMATH_PROBE = textwrap.dedent("""
    import json, sys
    sys.modules["mpmath"] = None   # every import of mpmath now fails
    from orthopoly import qseries as Q
    from orthopoly.cli import main

    codes = [main(argv) for argv in (
        ["tabulate", "--family", "legendre", "--n-max", "3", "--grid=-1:1:3"],
        ["recurrence", "--family", "jacobi", "--alpha", "0.5", "--beta",
         "1.5", "--n-max", "5"],
        ["quadrature", "--family", "legendre", "--n", "200"],
        ["zeros", "--family", "charlier", "--a", "2", "--n", "5"],
        ["check", "--family", "hermite", "--identity", "orthogonality",
         "--n", "10"],
        ["diagnose", "--family", "hermite", "--carleman", "--true-interval",
         "60"])]
    ctx = Q.QContext(0.5)
    Q.askey_wilson_eval(ctx, 30, 0.1, 0.2, 0.3, 0.4, 1.1)
    Q.basic_hyp(ctx, [ctx.q ** -3, 0.2], [0.4], 0.3)
    Q.cq_ultraspherical(ctx, 10, 0.4, 1.1)
    Q.gen_fn_check(ctx, 0.4, 1.1, 0.2, 30)
    print(json.dumps({"codes": codes}))
""")


def test_every_subcommand_and_the_q_toolkit_run_without_mpmath():
    # mpmath is a test dependency: the package runs where it is missing
    assert _probe(_NO_MPMATH_PROBE)["codes"] == [0] * 6
