import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import child_cli, monic_row_error

import orthopoly
from orthopoly import discrete as D
from orthopoly import families as F
from orthopoly import identities as I
from orthopoly import io as opio
from orthopoly.cli import main
from orthopoly.recurrence import RecurrenceSystem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tabulate_legendre_csv(capsys):
    code, out, err = run(capsys, "tabulate", "--family", "legendre",
                         "--n-max", "3", "--grid=-1:1:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,p0,p1,p2,p3"
    last = [float(v) for v in lines[-1].split(",")]
    # P_n(1) = 1 for every n
    assert last == pytest.approx([1.0, 1.0, 1.0, 1.0, 1.0])


def test_tabulate_json_has_tolerance(capsys):
    code, out, _ = run(capsys, "tabulate", "--family", "hermite",
                       "--n-max", "2", "--grid", "0:1:2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["tolerance"] == 1e-12
    # H_2(1) = 2
    assert doc["rows"][-1][3] == pytest.approx(2.0)


def test_tabulate_discrete_family(capsys):
    code, out, _ = run(capsys, "tabulate", "--family", "charlier", "--a", "1",
                       "--n-max", "1", "--grid", "0:2:3")
    assert code == 0
    lines = out.strip().splitlines()
    row0 = [float(v) for v in lines[1].split(",")]
    assert row0[1] == 1.0


def test_tabulate_charlier_past_degree_170_is_exact(capsys):
    # the Charlier series is summed exactly and rounded once, so every value
    # equals the exact rational sum c_n(x; a) = sum_k (-n)_k (-x)_k / k!
    # (-1/a)^k; at a lattice point x it ends at k = x
    code, out, err = run(capsys, "tabulate", "--family", "charlier", "--a",
                         "2", "--n-max", "200", "--grid=0:3:4")
    assert code == 0, err
    rows = [[float(v) for v in line.split(",")]
            for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == [0.0, 1.0, 2.0, 3.0]

    def exact(n, x):
        total, term = Fraction(0), Fraction(1)
        for k in range(n + 1):
            total += term
            term *= Fraction((k - n) * (k - x), (k + 1) * -2)
        return total

    for row in rows:
        x = int(row[0])
        assert row[1:] == [float(exact(n, x)) for n in range(201)], x


@pytest.mark.parametrize("family, grid", [
    (("legendre",), "inf:inf:1"), (("legendre",), "0:nan:3"),
    (("charlier", "--a", "2"), "nan:nan:1")],
    ids=["legendre-inf", "legendre-nan", "charlier-nan"])
def test_tabulate_non_finite_grid_exits_2(family, grid, capsys, recwarn):
    code, out, err = run(capsys, "tabulate", "--family", *family, "--n-max",
                         "3", f"--grid={grid}")
    assert (code, out) == (2, "")
    assert err == (f"orthopoly: invalid configuration: --grid {grid!r} "
                   "needs finite a, b and b - a\n")
    assert not recwarn.list


def test_quadrature_legendre_two_point(capsys):
    code, out, _ = run(capsys, "quadrature", "--family", "legendre",
                       "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] == pytest.approx([-1 / math.sqrt(3),
                                          1 / math.sqrt(3)])
    assert doc["weights"] == pytest.approx([1.0, 1.0])
    assert doc["exactness_degree"] == 3
    assert "tolerance" in doc


def test_quadrature_csv_format(capsys):
    code, out, _ = run(capsys, "quadrature", "--family", "hermite",
                       "--n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "node,weight"


def test_byte_stability(capsys):
    args = ("quadrature", "--family", "jacobi", "--alpha", "0.5",
            "--beta", "1.5", "--n", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_zeros_from_family(capsys):
    code, out, _ = run(capsys, "zeros", "--family", "legendre", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["zeros"] == pytest.approx([-1 / math.sqrt(3),
                                          1 / math.sqrt(3)])


def test_zeros_from_recurrence_file(tmp_path, capsys):
    doc = {"schema": 1, "form": "monic", "p0": 1.0,
           "coefficients": {"a": [1.0] * 4, "b": [0.0] * 4,
                            "c": [0.0, 0.5, 0.25, 0.25]}}
    path = tmp_path / "cheb.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "zeros", "--recurrence", str(path), "--n", "2")
    assert code == 0
    got = json.loads(out)["zeros"]
    # zeros of the degree-2 first-kind Chebyshev polynomial
    assert got == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_zeros_of_a_table_whose_favard_products_overflow(tmp_path):
    # monic c_n = a_{n-1} c_n = 1e400; the Jacobi off-diagonal is 1e200
    doc = {"schema": 1, "form": "general",
           "coefficients": {"a": [1e200] * 6, "b": [0.0] * 6,
                            "c": [0.0] + [1e200] * 5}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    res = child_cli("zeros", "--recurrence", str(path), "--n", "5")
    assert (res.returncode, res.stderr) == (0, "")
    want = [2e200 * math.cos(k * math.pi / 6) for k in range(5, 0, -1)]
    assert json.loads(res.stdout)["zeros"] == pytest.approx(
        want, rel=1e-15, abs=1e185)
    # diagnose needs the monic rows, whose c_n = 1e400 is no double
    res = child_cli("diagnose", "--recurrence", str(path),
                    "--true-interval", "5")
    assert res.returncode == 1
    assert res.stderr.splitlines() == [
        "orthopoly: numerical failure: row 1 is not finite: "
        "(a, b, c) = (1.0, 0.0, inf)"]


def test_zeros_of_finite_family_at_lattice_size(capsys):
    # p_5 of Krawtchouk(0.3, 5) has its five zeros inside [0, 5]
    code, out, err = run(capsys, "zeros", "--family", "krawtchouk", "--p",
                         "0.3", "--N", "5", "--n", "5")
    assert code == 0, err
    spec = F.family_spec("krawtchouk", {"p": 0.3, "N": 5})
    for z in json.loads(out)["zeros"]:
        assert abs(D.discrete_eval(spec, 5, z)) <= 1e-12


def test_zeros_and_diagnose_past_classical_jacobi_overflow(capsys):
    # degree 150 lies past index 133, where the classical Jacobi-type rows,
    # once formed from Pochhammer products, overflowed into a_133 = 0
    code, out, err = run(capsys, "zeros", "--family", "gegenbauer", "--lam",
                         "1.5", "--n", "150")
    assert code == 0, err
    zs = json.loads(out)["zeros"]
    assert len(zs) == 150
    assert all(-1 < a < b < 1 for a, b in zip(zs, zs[1:]))
    code, out, err = run(capsys, "diagnose", "--family", "jacobi", "--alpha",
                         "0.5", "--beta", "1.5", "--carleman", "--rho",
                         "0.3", "--true-interval", "100")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["carleman"]["verdict"] == "diverges"
    assert doc["rho"]["verdict"] == "diverges"
    assert doc["true_interval"]["limits"] == pytest.approx([-1, 1], abs=1e-3)


def test_zeros_requires_one_source(capsys):
    code, _, err = run(capsys, "zeros", "--n", "2")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "zeros", "--family", "legendre",
                       "--measure", "whatever.json", "--n", "2")
    assert code == 2


def test_recurrence_monic_form(capsys):
    code, out, _ = run(capsys, "recurrence", "--family", "hermite",
                       "--n-max", "4", "--form", "monic")
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "monic"
    assert doc["coefficients"]["c"][3] == pytest.approx(1.5)
    assert doc["tolerance"] == 1e-12


def test_recurrence_from_measure_file(tmp_path, capsys):
    mdoc = {"schema": 1, "kind": "continuous", "name": "legendre"}
    path = tmp_path / "leg.json"
    path.write_text(json.dumps(mdoc))
    code, out, _ = run(capsys, "recurrence", "--measure", str(path),
                       "--n-max", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"]["c"][1] == pytest.approx(1.0 / 3.0, rel=1e-9)


def _measure_file(tmp_path, family, flags):
    """A named measure document with the parameters of the CLI flags."""
    params = {k[2:]: int(v) if k == "--N" else float(v)
              for k, v in zip(flags[::2], flags[1::2])}
    spec = F.family_spec(family, params)
    doc = {"schema": 1, "name": family, "parameters": params,
           "kind": "discrete_infinite" if spec.discrete else "continuous"}
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(doc))
    return str(path), spec


def test_recurrence_measure_past_the_norm_underflow(tmp_path, capsys):
    # h_n = 2 c_1 ... c_n, about 2 4^-n, underflows from n = 538; the rows
    # do not need it, and the norms are kept as log h_n
    path, spec = _measure_file(tmp_path, "legendre", ())
    code, out, err = run(capsys, "recurrence", "--measure", path,
                         "--n-max", "560")
    assert code == 0, err
    co = json.loads(out)["coefficients"]
    assert monic_row_error(co["b"], co["c"], spec) <= 1e-12


def _finite_file(tmp_path, size):
    # the benchmark's finite measure has 60 nodes
    doc = {"schema": 1, "kind": "discrete_finite",
           "nodes": [-1 + 2 * k / (size - 1) for k in range(size)],
           "weights": [1 + 0.5 * math.sin(k) for k in range(size)]}
    path = tmp_path / f"finite{size}.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


@pytest.mark.parametrize("family", ("legendre", "jacobi", "laguerre",
                                    "hermite", "gegenbauer", "chebyshev_t",
                                    "chebyshev_u", "charlier", "meixner",
                                    "krawtchouk", "hahn"))
def test_recurrence_from_named_measure_file_is_its_closed_form(
        family, tmp_path, capsys):
    flags = {"meixner": ("--beta", "0.5", "--c", "0.5")}.get(
        family, _SWEEP_FAMILIES[family])
    path, spec = _measure_file(tmp_path, family, flags)
    for n in (10, 40, 100):
        n = min(n, spec.parameters.get("N", n + 1) - 1)
        code, out, err = run(capsys, "recurrence", "--measure", path,
                             "--n-max", str(n))
        assert code == 0, err
        co = json.loads(out)["coefficients"]
        assert co["a"] == [1.0] * (n + 1)
        assert monic_row_error(co["b"], co["c"], spec) <= 1e-12


def test_finite_measure_file_degree_limit(tmp_path, capsys):
    path, doc = _finite_file(tmp_path, 60)
    for argv in (("recurrence", "--measure", path, "--n-max", "60"),
                 ("zeros", "--measure", path, "--n", "61"),
                 ("diagnose", "--measure", path, "--true-interval", "61")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "60 points" in err
    # the zeros of p_60 are the 60 points
    code, out, err = run(capsys, "zeros", "--measure", path, "--n", "60")
    assert code == 0, err
    assert json.loads(out)["zeros"] == pytest.approx(doc["nodes"], abs=1e-13)
    kpath, _ = _measure_file(tmp_path, "krawtchouk", ("--p", "0.3",
                                                      "--N", "20"))
    code, out, err = run(capsys, "zeros", "--measure", kpath, "--n", "22")
    assert (code, out) == (1, "")
    assert "21 points" in err


def test_zeros_on_small_finite_measure_file(tmp_path, capsys):
    # fewer points than the floor of 16 rows that --measure asks for
    path, doc = _finite_file(tmp_path, 10)
    code, out, err = run(capsys, "zeros", "--measure", path, "--n", "5")
    assert code == 0, err
    zs = json.loads(out)["zeros"]
    # p_5 = prod (x - z) is orthogonal to 1, x, .., x^4 on the points
    x, w = np.array(doc["nodes"]), np.array(doc["weights"])
    p5 = np.prod([x - z for z in zs], axis=0)
    for j in range(5):
        assert abs(np.sum(w * x ** j * p5)) <= 1e-14 * np.sum(w * np.abs(p5))
    code, out, err = run(capsys, "diagnose", "--measure", path, "--rho",
                         "0.3")
    assert code == 0, err
    assert json.loads(out)["rho"]["n_terms"] == 8


def test_meixner_measure_file(tmp_path, capsys):
    # the lattice weights leave the double range of k! at k = 171
    path, spec = _measure_file(tmp_path, "meixner", ("--beta", "0.5",
                                                     "--c", "0.5"))
    for argv in (("recurrence", "--measure", path, "--n-max", "40"),
                 ("zeros", "--measure", path, "--n", "40"),
                 ("diagnose", "--measure", path, "--carleman")):
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        json.loads(out)


def test_large_lattice_measure_files(tmp_path, capsys):
    # the binomials and factorials of these weights leave the double range,
    # which gave an OverflowError traceback
    path, spec = _measure_file(tmp_path, "hahn", ("--alpha", "0.5", "--beta",
                                                  "1.5", "--N", "400"))
    for n in (10, 133):
        code, out, err = run(capsys, "recurrence", "--measure", path,
                             "--n-max", str(n))
        assert code == 0, err
        co = json.loads(out)["coefficients"]
        assert monic_row_error(co["b"], co["c"], spec) <= 1e-12
        code, out, err = run(capsys, "zeros", "--measure", path, "--n",
                             str(n))
        assert code == 0, err
        assert len(json.loads(out)["zeros"]) == n
    # Krawtchouk(0.3, 2000) weights underflow to 0 from x = 1437 on; without
    # those points the rows are wrong from degree 350 on, so it is refused
    path, _ = _measure_file(tmp_path, "krawtchouk", ("--p", "0.3",
                                                     "--N", "2000"))
    for argv in (("recurrence", "--measure", path, "--n-max", "10"),
                 ("zeros", "--measure", path, "--n", "10")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "w_1437 underflows to 0" in err


def test_recurrence_from_measure_at_rounding_tolerance_exits_1(tmp_path,
                                                              capsys):
    path, _ = _measure_file(tmp_path, "legendre", ())
    code, out, err = run(capsys, "--tol", "1e-18", "recurrence", "--measure",
                         path, "--n-max", "10")
    assert (code, out) == (1, "")
    assert "did not settle" in err


def test_recurrence_roundtrip_through_loader(capsys):
    code, out, _ = run(capsys, "recurrence", "--family", "legendre",
                       "--n-max", "5")
    sys_ = opio.load_recurrence(json.loads(out))
    assert sys_.coeffs(2)[0] == pytest.approx(3.0 / 5.0)


def test_check_ode_passes(capsys):
    code, out, _ = run(capsys, "check", "--family", "hermite",
                       "--identity", "ode", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["residual"] <= doc["tolerance"]


def test_check_fails_with_tiny_tol(capsys):
    code, out, _ = run(capsys, "--tol", "1e-30", "check", "--family",
                       "legendre", "--identity", "cd", "--n", "6")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    from orthopoly.cli import build_parser

    assert build_parser() is build_parser()
    check = ("check", "--family", "jacobi", "--alpha", "0.5", "--beta", "1.5",
             "--identity", "ode", "--n", "10")
    code, out, _ = run(capsys, "--tol", "1e-6", *check)
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6
    code, out, _ = run(capsys, *check)
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-10  # the ode default
    code, out, _ = run(capsys, "zeros", "--family", "legendre", "--n", "3")
    assert code == 0
    assert len(json.loads(out)["zeros"]) == 3


def test_check_cd_hermite_past_the_norm_product_overflow(capsys):
    # h_n k_{n+1} leaves the double range at n = 134 and h_n at n = 151; the
    # kernel is taken on the orthonormal chain, which forms neither
    for n in ("134", "150", "1000"):
        code, out, _ = run(capsys, "check", "--family", "hermite",
                           "--identity", "cd", "--n", n)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["residual"] < 1e-12


def test_check_quadratic_rejects_hermite(capsys):
    code, _, err = run(capsys, "check", "--family", "hermite",
                       "--identity", "quadratic", "--n", "3")
    assert code == 2


def test_check_series_overflow_exits_1(capsys):
    # monic Laguerre values grow like n! and leave the double range before
    # degree 171
    for n in ("171", "200"):
        code, out, err = run(capsys, "check", "--family", "laguerre",
                             "--alpha", "0.5", "--identity", "ode", "--n", n)
        assert code == 1
        assert out == ""
        assert "double range" in err
        assert "Traceback" not in err


_CONTINUOUS = {"legendre": (), "jacobi": ("--alpha", "0.5", "--beta", "1.5"),
               "laguerre": ("--alpha", "0.5"), "hermite": (),
               "gegenbauer": ("--lam", "1.5"), "chebyshev_t": (),
               "chebyshev_u": ()}


@pytest.mark.parametrize("n", (0, 10, 30, 60))
@pytest.mark.parametrize("identity", ("ode", "shift"))
@pytest.mark.parametrize("family", _CONTINUOUS)
def test_check_pearson_identities_pass(family, identity, n, capsys):
    code, out, err = run(capsys, "check", "--family", family,
                         *_CONTINUOUS[family], "--identity", identity,
                         "--n", str(n))
    assert code == 0, err
    assert json.loads(out)["residual"] <= 1e-10


def test_check_shift_at_degree_200(capsys):
    for family in ("hermite", "legendre"):
        code, out, err = run(capsys, "check", "--family", family,
                             "--identity", "shift", "--n", "200")
        assert code == 0, err
        assert json.loads(out)["pass"] is True


def test_check_non_finite_residual_exits_1(capsys, monkeypatch):
    real = I.quadratic_transform_residuals

    def one_nan(n, alpha):
        even, odd = real(n, alpha)
        even[2, 1] = math.nan   # the c row of degree 2
        return even, odd

    monkeypatch.setattr(I, "quadratic_transform_residuals", one_nan)
    code, out, err = run(capsys, "check", "--family", "legendre",
                         "--identity", "quadratic", "--n", "3")
    assert code == 1
    assert out == ""
    assert "degree 2" in err


def test_check_quadratic_takes_alpha_from_jacobi_reduction(capsys,
                                                          monkeypatch):
    seen = []
    real = I.quadratic_transform_residuals

    def spy(n, alpha):
        seen.append(alpha)
        return real(n, alpha)

    monkeypatch.setattr(I, "quadratic_transform_residuals", spy)
    # Jacobi(0.5, 1.5) checks Jacobi(0.5, 0.5), and its document says so
    for args, alpha in ((("--family", "gegenbauer", "--lam", "1.5"), 1.0),
                        (("--family", "chebyshev_t"), -0.5),
                        (("--family", "chebyshev_u"), 0.5),
                        (("--family", "jacobi", *_CONTINUOUS["jacobi"]), 0.5)):
        seen.clear()
        code, out, _ = run(capsys, "check", *args, "--identity",
                           "quadratic", "--n", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] <= 1e-11
        assert doc["symmetric_jacobi"] == [alpha, alpha]
        assert set(seen) == {alpha}


@pytest.mark.parametrize("fam", (
    ("legendre",), ("chebyshev_t",), ("chebyshev_u",),
    ("gegenbauer", "--lam", "-0.4"), ("gegenbauer", "--lam", "3")),
    ids=("legendre", "chebyshev_t", "chebyshev_u", "gegenbauer(-0.4)",
         "gegenbauer(3)"))
def test_check_quadratic_passes_to_degree_1000(fam, capsys):
    # the value form failed Gegenbauer(-0.4) at n = 1000 (1.68e-11 against
    # its 1e-11)
    for n in ("0", "1", "2", "10", "133", "500", "999", "1000"):
        code, out, err = run(capsys, "check", "--family", *fam,
                             "--identity", "quadratic", "--n", n)
        assert code == 0, (n, err)
        assert json.loads(out)["residual"] <= 8 * 2.0 ** -52


@pytest.mark.parametrize("n", ("10", "1000"))
@pytest.mark.parametrize("k", (2, 5, 9))
def test_check_quadratic_fails_on_a_row_perturbed_by_1e_12(k, n, capsys,
                                                           monkeypatch):
    real = F._jacobi_monic_rows

    def perturbed(j, alpha, beta):
        b, c = real(j, alpha, beta)
        if (alpha, beta) == (0.0, 0.0):
            c = np.where(j == k, c * (1 + 1e-12), c)
        return b, c

    monkeypatch.setattr(F, "_jacobi_monic_rows", perturbed)
    code, out, err = run(capsys, "check", "--family", "legendre",
                         "--identity", "quadratic", "--n", n)
    assert code == 1
    assert json.loads(out)["residual"] > 1e-13
    assert "not verified" in err


@pytest.mark.parametrize("n", ("10", "133"))
def test_check_quadratic_fails_on_a_perturbed_coefficient(n, capsys,
                                                          monkeypatch):
    # the ratio systems of the check are kept; drop any built from the true
    # rows, so that the check builds them from the perturbed ones
    F.clear_systems()
    real = F._jacobi_monic_rows

    def perturbed(j, alpha, beta):
        b, c = real(j, alpha, beta)
        if (alpha, beta) == (0.0, 0.0):
            c = np.where(j == 5, c * (1 + 1e-9), c)
        return b, c

    monkeypatch.setattr(F, "_jacobi_monic_rows", perturbed)
    code, out, err = run(capsys, "check", "--family", "legendre",
                         "--identity", "quadratic", "--n", n)
    assert code == 1
    assert json.loads(out)["residual"] > 1e-10
    assert "not verified" in err


@pytest.mark.parametrize("n", ("10", "133"))
@pytest.mark.parametrize("family", ("legendre", "laguerre", "hermite"))
def test_check_orthogonality_fails_on_a_perturbed_coefficient(
        family, n, capsys, monkeypatch):
    real = F.family_system

    def perturbed(spec):
        sys_ = real(spec)

        def rows(j):
            a, b, c = sys_.arrays(j[-1])[:, j]
            return a, b, np.where(j == 5, c * (1 + 1e-9), c)

        return RecurrenceSystem(rows, form=sys_.form, p0=sys_.p0)

    monkeypatch.setattr(F, "family_system", perturbed)
    code, out, err = run(capsys, "check", "--family", family,
                         *_CONTINUOUS[family], "--identity", "orthogonality",
                         "--n", n)
    assert code == 1
    assert json.loads(out)["residual"] > 1e-10
    assert "not verified" in err


@pytest.mark.parametrize("n", ("133", "300", "1000"))
@pytest.mark.parametrize("family, identity", (
    ("legendre", "orthogonality"), ("laguerre", "orthogonality"),
    ("hermite", "orthogonality"), ("legendre", "quadratic"),
    ("chebyshev_t", "quadratic"), ("gegenbauer", "quadratic")))
def test_check_never_reports_a_true_identity_as_violated(family, identity, n,
                                                         capsys):
    # a Gauss rule with weights that underflow to 0 drops products from the
    # Gram matrix (accepted, it reads 0.331 for Laguerre at n = 300), so
    # orthogonality refuses it as a numerical failure
    code, out, err = run(capsys, "check", "--family", family,
                         *_CONTINUOUS[family], "--identity", identity,
                         "--n", n)
    if code:
        assert (code, out) == (1, "")
        assert err.startswith("orthopoly: numerical failure"), err
    else:
        assert json.loads(out)["pass"] is True


def test_orthogonality_without_a_gauss_rule_exits_1():
    # scipy's roots_jacobi refuses beta = 1e300 with a ValueError
    proc = child_cli("check", "--family", "jacobi", "--alpha", "0.5",
                     "--beta", "1e300", "--identity", "orthogonality",
                     "--n", "5")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        "orthopoly: numerical failure: orthogonality to degree 5: the "
        "7-point Gauss rule could not be built: array must not contain "
        "infs or NaNs"]


def test_check_limit_from_every_jacobi_type_family(capsys):
    # relation 26 from Jacobi(a, a), 27 from Jacobi(alpha, b) on the
    # family's own alpha
    for family, alpha in (("legendre", 0.0), ("chebyshev_t", -0.5),
                          ("chebyshev_u", 0.5)):
        code, out, _ = run(capsys, "check", "--family", family,
                           "--identity", "limit", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert [r["relation"] for r in doc["relations"]] == [26, 27]
        assert doc["relations"][1]["limit"] == (
            f"jacobi({alpha}, a) -> laguerre({alpha})")
    code, _, err = run(capsys, "check", "--family", "hermite",
                       "--identity", "limit", "--n", "2")
    assert code == 2
    assert "limit target" in err


def test_check_limit_monotone(capsys):
    # the row errors of relation 28 fall at each doubling of a, at the rate
    # the verdict asks for
    code, out, _ = run(capsys, "check", "--family", "laguerre",
                       "--alpha", "0.5", "--identity", "limit", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    (rel,) = doc["relations"]
    assert rel["relation"] == 28 and rel["limit"] == "laguerre(a) -> hermite"
    assert rel["parameters"] == [256.0, 512.0, 1024.0, 2048.0]
    errs = rel["errors"]
    assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
    assert rel["rows"] == 3   # b_0, b_1 and c_1 fix p_2
    assert doc["residual"] == rel["deviation"] <= doc["tolerance"] == 0.1


@pytest.mark.parametrize("spec", (
    F.legendre(), F.jacobi(0.5, 1.5), F.gegenbauer(1.5), F.chebyshev_t(),
    F.chebyshev_u(), F.laguerre(0.5), F.gegenbauer(-0.4), F.jacobi(50, 1)),
    ids=lambda s: f"{s.family}({','.join(map(str, s.parameters.values()))})")
def test_check_limit_passes_at_every_degree_to_220(spec):
    # relation 27 runs from a = 64 max(n, 1, alpha)^2: from 64 n^2 alone,
    # Jacobi(50, 1) read 0.22 at n = 1
    for n in (*range(221), 500, 999, 1000):
        worst, _ = I.check_battery(spec, "limit", n)
        assert worst <= 0.1, (n, worst)


def _perturb_limit_source(monkeypatch, which, row):
    """Perturb one row of the source of relation `which`, at every
    parameter: c_5 by a factor 1 + 1e-3, b_3 by 1e-3 (relative for the
    Laguerre source of 28, whose b rows all close in at the same rate)."""
    def bump(b, c, j):
        if row == "c5":
            return b, np.where(j == 5, c * (1 + 1e-3), c)
        return np.where(j == 3, b * (1 + 1e-3) if which == 28 else b + 1e-3,
                        b), c

    if which == 28:
        real = F.laguerre_monic_system

        def laguerre(a):
            sys_ = real(a)
            return RecurrenceSystem(
                lambda j: (1.0, *bump(*sys_.rows_fn(j)[1:], j)),
                form="monic")

        monkeypatch.setattr(F, "laguerre_monic_system", laguerre)
    else:
        real_rows = F._jacobi_monic_rows

        def rows(j, alpha, beta):
            # the source of 26 is Jacobi(a, a), that of 27 Jacobi(0, a),
            # with a >= 64
            if beta >= 64 and (alpha == beta) == (which == 26):
                return bump(*real_rows(j, alpha, beta), j)
            return real_rows(j, alpha, beta)

        monkeypatch.setattr(F, "_jacobi_monic_rows", rows)


@pytest.mark.parametrize("n", ("10", "200"))
@pytest.mark.parametrize("row", ("c5", "b3"))
@pytest.mark.parametrize("which", (26, 27, 28))
def test_check_limit_fails_on_a_perturbed_source_row(which, row, n, capsys,
                                                     monkeypatch):
    _perturb_limit_source(monkeypatch, which, row)
    fam = ("laguerre", "--alpha", "0.5") if which == 28 else ("legendre",)
    code, out, err = run(capsys, "check", "--family", *fam, "--identity",
                         "limit", "--n", n)
    assert code == 1, err
    doc = json.loads(out)
    failed = [r["relation"] for r in doc["relations"] if r["deviation"] > 0.1]
    assert failed == [which]
    assert "not verified" in err


def test_recurrence_charlier_monic(capsys):
    code, out, _ = run(capsys, "recurrence", "--family", "charlier", "--a",
                       "2", "--n-max", "5", "--form", "monic")
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "monic"
    coeffs = doc["coefficients"]
    assert coeffs["a"] == [1.0] * 6
    assert coeffs["b"] == pytest.approx([n + 2.0 for n in range(6)])
    assert coeffs["c"][1:] == pytest.approx([2.0 * n for n in range(1, 6)])


def test_finite_family_recurrence_past_lattice_exits_1(capsys):
    for form, n_max in (("general", "5"), ("monic", "6")):
        code, _, err = run(capsys, "recurrence", "--family", "krawtchouk",
                           "--p", "0.3", "--N", "5", "--n-max", n_max,
                           "--form", form)
        assert code == 1
        assert "Traceback" not in err


# one valid parameter value per family parameter
_VALUES = {"alpha": 0.5, "beta": 1.5, "lam": 1.5, "p": 0.3, "N": 12,
           "c": 0.4, "a": 2.0}


@pytest.mark.parametrize("family", list(F.PARAMETERS))
def test_registry_flags_and_documents_agree(family, capsys):
    flags = [x for k in F.PARAMETERS[family]
             for x in (f"--{k}", str(_VALUES[k]))]
    params = {k: _VALUES[k] for k in F.PARAMETERS[family]}
    for form in ("general", "monic"):
        code, out, err = run(capsys, "recurrence", "--family", family,
                             *flags, "--n-max", "6", "--form", form)
        assert code == 0, err
        got = json.loads(out)["coefficients"]
        sys_ = opio.load_recurrence({"schema": 1, "family": family,
                                     "parameters": params, "form": form})
        assert sys_.form == form
        assert [list(sys_.coeffs(n)) for n in range(7)] \
            == [list(t) for t in zip(got["a"], got["b"], got["c"])]


@pytest.mark.parametrize("family",
                         [f for f, ps in F.PARAMETERS.items() if ps])
def test_registry_missing_flag_exits_2(family, capsys):
    names = F.PARAMETERS[family]
    flags = [x for k in names[1:] for x in (f"--{k}", str(_VALUES[k]))]
    code, _, err = run(capsys, "recurrence", "--family", family, *flags,
                       "--n-max", "3")
    assert code == 2
    assert f"--{names[0]}" in err


@pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("family",
                         [f for f, ps in F.PARAMETERS.items() if ps])
def test_non_finite_family_parameter_exits_2(family, value, tmp_path,
                                             capsys):
    kind = "discrete_infinite" if F.FAMILIES[family].lattice else "continuous"
    path = tmp_path / "doc.json"
    for name in F.PARAMETERS[family]:
        params = {**{k: _VALUES[k] for k in F.PARAMETERS[family]},
                  name: value}
        with pytest.raises(F.FamilyError, match="requires finite param"):
            F.FamilySpec(family, params)
        runs = [(("zeros", "--n", "2", "--recurrence"),
                 {"schema": 1, "family": family, "parameters": params}),
                (("recurrence", "--n-max", "3", "--measure"),
                 {"schema": 1, "kind": kind, "name": family,
                  "parameters": params})]
        for argv, doc in runs:
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, *argv, str(path))
            assert (code, out) == (2, ""), err
            assert "requires finite parameters, got {" in err
            assert err.count("\n") == 1
        if name == "N":   # --N is an integer flag: argparse refuses inf
            continue
        flags = [f"--{k}={v}" for k, v in params.items()]
        code, out, err = run(capsys, "tabulate", "--family", family, *flags,
                             "--n-max", "3", "--grid=0.5:1.5:2")
        assert (code, out) == (2, ""), err
        assert err == ("orthopoly: invalid configuration: "
                       f"{family} requires finite parameters, got {params}\n")


@pytest.mark.parametrize("argv", [
    ("quadrature", "--family", "laguerre", "--alpha", "200", "--n", "3"),
    ("quadrature", "--family", "gegenbauer", "--lam", "200", "--n", "3"),
    ("check", "--family", "laguerre", "--alpha", "200", "--identity", "cd",
     "--n", "5"),
    ("check", "--family", "jacobi", "--alpha", "300", "--beta", "300",
     "--identity", "cd", "--n", "5"),
    ("recurrence", "--n-max", "5", "--measure"),
    ("zeros", "--n", "5", "--measure"),
    ("diagnose", "--measure"),
], ids=["quadrature-laguerre", "quadrature-gegenbauer", "check-laguerre",
        "check-jacobi", "recurrence-measure", "zeros-measure",
        "diagnose-measure"])
def test_a_mass_past_the_double_range_exits_1(argv, tmp_path, capsys):
    # Gamma(201) and Gamma(301) overflow a double
    if argv[-1] == "--measure":
        path = tmp_path / "laguerre.json"
        path.write_text(json.dumps({"schema": 1, "kind": "continuous",
                                    "name": "laguerre",
                                    "parameters": {"alpha": 200}}))
        argv += (str(path),)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("orthopoly: numerical failure: family_mu0: terms leave "
                   "the double range (math range error)\n")


def test_unknown_family_document_exits_2(tmp_path, capsys):
    path = tmp_path / "rec.json"
    for doc in ({"schema": 1, "family": "zernike"},
                {"schema": 1, "family": "jacobi",
                 "parameters": {"alpha": 0.5}}):
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "zeros", "--recurrence", str(path),
                           "--n", "2")
        assert code == 2
        assert "Traceback" not in err


_TABLES = {"a": [1.0] * 3, "b": [0.0] * 3, "c": [0.0, 0.5, 0.25]}


@pytest.mark.parametrize("flag,doc", [
    ("--recurrence", {"coefficients": {**_TABLES, "b": [0.0, None, 0.0]}}),
    ("--recurrence", {"coefficients": {**_TABLES, "b": "abc"}}),
    ("--recurrence", {"coefficients": {"a": [1.0] * 3, "c": [0.0] * 3}}),
    ("--recurrence", {"coefficients": {**_TABLES, "c": [0.0, 0.5]}}),
    ("--recurrence", {"coefficients": [1.0, 0.0]}),
    ("--recurrence", {"coefficients": _TABLES, "p0": "one"}),
    ("--recurrence", {"coefficients": _TABLES, "form": "upper"}),
    ("--recurrence", {"family": "jacobi",
                      "parameters": {"alpha": "abc", "beta": 0.0}}),
    ("--measure", {"kind": "continuous"}),
    ("--measure", {"kind": "continuous", "name": "legendre",
                   "normalizer": None}),
    ("--measure", {"kind": "discrete_finite", "nodes": [0.0, 1.0]}),
    ("--measure", {"kind": "discrete_finite", "nodes": [0.0, 1.0],
                   "weights": [1.0]}),
    ("--measure", {"kind": "discrete_finite", "nodes": [0.0, 1.0],
                   "weights": [1.0, -1.0]}),
], ids=["null-in-b", "b-not-a-list", "no-b", "unequal-tables",
        "tables-not-an-object", "p0-not-a-number", "unknown-form",
        "parameter-not-a-number", "no-name", "normalizer-null",
        "no-weights", "unequal-nodes-weights", "negative-weight"])
def test_malformed_document_exits_2(flag, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"schema": 1, **doc}))
    code, out, err = run(capsys, "zeros", flag, str(path), "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"orthopoly: invalid configuration: {flag} ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_bad_family_params_exit_2(capsys):
    code, _, err = run(capsys, "tabulate", "--family", "jacobi",
                       "--alpha", "0.5", "--n-max", "2", "--grid", "0:1:2")
    assert code == 2
    assert "beta" in err


@pytest.mark.parametrize("argv,doc", [
    (("zeros", "--n", "3", "--recurrence"),
     {"schema": 1, "family": "jacobi",
      "parameters": {"alpha": -2, "beta": 0}}),
    (("zeros", "--n", "3", "--measure"),
     {"schema": 1, "kind": "continuous", "name": "laguerre",
      "parameters": {"alpha": -3}}),
    (("recurrence", "--n-max", "3", "--measure"),
     {"schema": 1, "kind": "continuous", "name": "laguerre",
      "parameters": {"alpha": -3}}),
])
def test_bad_family_params_in_a_document_exit_2(argv, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert "invalid configuration" in err and "alpha > -1" in err


@pytest.mark.parametrize("N", (5.5, 6.0))
def test_lattice_size_in_a_document_must_be_an_integer(N, tmp_path, capsys):
    # a non-integral N is refused, not truncated to the lattice 0..5
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"schema": 1, "family": "krawtchouk",
                                "parameters": {"p": 0.3, "N": N}}))
    code, out, err = run(capsys, "zeros", "--recurrence", str(path),
                         "--n", "6")
    if N == 5.5:
        assert (code, out) == (2, "")
        assert err == (f"orthopoly: invalid configuration: --recurrence "
                       f"{path}: krawtchouk requires integer N >= 1\n")
    else:
        assert code == 0, err
        assert out == run(capsys, "zeros", "--family", "krawtchouk", "--p",
                          "0.3", "--N", "6", "--n", "6")[1]


def test_bad_env_tol_exit_2(capsys, monkeypatch):
    for raw in ("banana", "-1", "nan", "inf"):
        monkeypatch.setenv("ORTHOPOLY_TOL", raw)
        code, out, err = run(capsys, "zeros", "--family", "legendre", "--n",
                             "2")
        assert code == 2, raw
        assert out == "" and len(err.splitlines()) == 1, raw


def test_env_tol_threads_through(capsys, monkeypatch):
    monkeypatch.setenv("ORTHOPOLY_TOL", "1e-10")
    code, out, _ = run(capsys, "zeros", "--family", "legendre", "--n", "3")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-10


def test_negative_cli_tol_exit_2(capsys):
    # a non-finite tolerance would be written as NaN or Infinity, not JSON
    for raw in ("-1", "nan", "inf"):
        code, out, err = run(capsys, "--tol", raw, "zeros", "--family",
                             "legendre", "--n", "2")
        assert code == 2, raw
        assert out == "" and len(err.splitlines()) == 1, raw


def test_bad_grid_exit_2(capsys):
    code, _, err = run(capsys, "tabulate", "--family", "legendre",
                       "--n-max", "2", "--grid", "zero:one:2")
    assert code == 2
    assert "a:b:steps" in err


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "rule.json"
    code, out, _ = run(capsys, "--output", str(dest), "quadrature",
                       "--family", "legendre", "--n", "2")
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["weights"] == pytest.approx([1, 1])


def test_output_into_a_missing_directory_exits_2(tmp_path):
    dest = tmp_path / "nodir" / "x.json"
    proc = child_cli("--output", str(dest), "zeros", "--family", "hermite",
                     "--n", "3")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"orthopoly: invalid configuration: --output {dest}: [Errno 2] No "
        f"such file or directory: {str(dest)!r}"]


def test_diagnose_hermite_carleman(capsys):
    code, out, _ = run(capsys, "diagnose", "--family", "hermite",
                       "--carleman")
    assert code == 0
    doc = json.loads(out)
    assert doc["carleman"]["verdict"] == "diverges"
    assert doc["carleman"]["terms"] == "recurrence"


def test_diagnose_measure_carleman(tmp_path, capsys):
    mdoc = {"schema": 1, "kind": "continuous", "name": "legendre"}
    path = tmp_path / "leg.json"
    path.write_text(json.dumps(mdoc))
    code, out, _ = run(capsys, "diagnose", "--measure", str(path),
                       "--carleman")
    assert code == 0
    doc = json.loads(out)
    assert doc["carleman"]["terms"] == "moments"
    assert doc["carleman"]["verdict"] == "diverges"


def test_diagnose_rho_and_true_interval(capsys):
    code, out, _ = run(capsys, "diagnose", "--family", "legendre",
                       "--rho", "0.2", "--true-interval", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["rho"]["verdict"] == "diverges"
    assert doc["true_interval"]["chains_monotone"] is True
    lims = doc["true_interval"]["limits"]
    assert lims[0] == pytest.approx(-1.0, abs=0.05)
    assert lims[1] == pytest.approx(1.0, abs=0.05)


def test_diagnose_complex_rho(capsys):
    # determinate measure: the squared sum diverges at every non-real z
    code, out, _ = run(capsys, "diagnose", "--family", "legendre",
                       "--rho", "2+1j")
    assert code == 0
    doc = json.loads(out)
    assert doc["rho"]["verdict"] == "diverges"
    assert doc["rho"]["value"] == 0.0
    assert doc["rho"]["z"] == "2+1j"


@pytest.mark.parametrize("rho", ["abc", "nan", "inf", "-inf", "1e400",
                                 "nanj", "1+infj"])
def test_diagnose_rho_must_be_a_finite_number(rho, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--family", "legendre", "--rho", rho])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument --rho" in out.err


_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    from orthopoly.cli import main

    def heavy():
        return sorted(m for m in sys.modules
                      if m.split(".")[0] in ("scipy", "mpmath"))

    main(["tabulate", "--family", "legendre", "--n-max", "3",
          "--grid=-1:1:3"])
    main(["tabulate", "--family", "charlier", "--a", "2", "--n-max", "30",
          "--grid=-0.5:4.5:3"])
    main(["recurrence", "--family", "jacobi", "--alpha", "0.5",
          "--beta", "1.5", "--n-max", "5"])
    main(["check", "--family", "legendre", "--identity", "shift",
          "--n", "30"])
    main(["check", "--family", "legendre", "--identity", "quadratic",
          "--n", "30"])
    named, symmetric, finite = sys.argv[1:]
    main(["recurrence", "--measure", finite, "--n-max", "5"])
    lean = heavy()
    main(["quadrature", "--family", "legendre", "--n", "5"])
    quadrature = heavy()
    main(["zeros", "--measure", finite, "--n", "5"])
    main(["recurrence", "--measure", named, "--n-max", "5"])
    main(["zeros", "--measure", named, "--n", "5"])
    main(["diagnose", "--carleman", "--measure", symmetric])
    main(["diagnose", "--family", "hermite", "--true-interval", "40"])
    measure = heavy()
    main(["quadrature", "--family", "legendre", "--n", "200"])
    large = heavy()
    main(["diagnose", "--carleman", "--measure", named])
    moments = heavy()
    main(["check", "--family", "hermite", "--identity", "orthogonality",
          "--n", "30"])
    print(json.dumps({"lean": lean, "quadrature": quadrature,
                      "measure": measure, "large": large,
                      "moments": moments, "orthogonality": heavy()}))
""")


def test_cli_imports_scipy_and_mpmath_on_first_use(tmp_path):
    src = os.path.dirname(os.path.dirname(orthopoly.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    named, _ = _measure_file(tmp_path, "jacobi", _CONTINUOUS["jacobi"])
    symmetric, _ = _measure_file(tmp_path, "legendre", ())
    finite, _ = _finite_file(tmp_path, 10)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, named,
                           symmetric, finite],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    mods = json.loads(proc.stdout.splitlines()[-1])
    # the quadratic check runs on the monic recurrence, and the lattice
    # series are summed in integers
    assert mods["lean"] == []
    # eigenproblems of order <= 96 are solved by numpy's LAPACK, and the
    # --measure commands integrate on the package's own Gauss rules
    assert mods["quadrature"] == []
    assert mods["measure"] == []
    # larger ones by scipy's tridiagonal drivers: the half-size order is
    # 100 here, and 32 moments of a Jacobi measure are confirmed on its
    # 64-point rule
    assert "scipy.linalg" in mods["large"]
    assert not any(m.startswith("scipy.special") for m in mods["moments"])
    # orthogonality integrates on a scipy.special Gauss rule
    assert "scipy.special" in mods["orthogonality"]
    for key in ("large", "moments", "orthogonality"):
        assert not any(m.startswith("scipy.integrate") for m in mods[key])
        assert not any(m.split(".")[0] == "mpmath" for m in mods[key])


@pytest.mark.parametrize("family", ("legendre", "jacobi", "laguerre",
                                    "hermite"))
def test_check_orthogonality_passes(family, capsys):
    # the inner products of distinct degrees are 0; the residuals are the
    # rounding of the scipy.special Gauss rule that the check integrates on
    code, out, err = run(capsys, "check", "--family", family,
                         *_CONTINUOUS[family], "--identity", "orthogonality",
                         "--n", "10")
    assert code == 0, err
    assert json.loads(out)["residual"] <= 1e-14


@pytest.mark.parametrize("c2", (0.0, -0.5))
def test_diagnose_carleman_on_non_favard_recurrence_exits_1(c2, tmp_path,
                                                           capsys):
    # enough rows for all 2000 Carleman terms, with a_1 c_2 <= 0
    c = [0.0] + [0.25] * 2001
    c[2] = c2
    doc = {"schema": 1, "form": "monic",
           "coefficients": {"a": [1.0] * 2002, "b": [0.0] * 2002, "c": c}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "diagnose", "--recurrence", str(path),
                         "--carleman")
    assert code == 1
    assert out == ""
    assert "Favard violation at n=1" in err


def test_diagnose_carleman_stops_at_the_last_row_of_a_document(tmp_path,
                                                                capsys):
    # the 41-row monic Legendre table gives the terms n = 1..39
    path = str(tmp_path / "legendre.json")
    code, _, err = run(capsys, "--output", path, "recurrence", "--family",
                       "legendre", "--n-max", "40", "--form", "monic")
    assert code == 0, err
    code, out, err = run(capsys, "diagnose", "--recurrence", path,
                         "--carleman")
    assert code == 0, err
    doc = json.loads(out)["carleman"]
    assert doc["verdict"] == "diverges"
    assert doc["terms"] == "recurrence"


def test_diagnose_carleman_on_too_few_rows_exits_with_one_stderr_line(
        tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "schema": 1, "form": "monic",
        "coefficients": {"a": [1.0] * 8, "b": [0.0] * 8,
                         "c": [0.0] + [0.25] * 7}}))
    proc = child_cli("diagnose", "--recurrence", str(path), "--carleman")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("orthopoly: "), lines


# the module that defines each package error of a failed computation
_ERROR_MODULES = {"FamilyError": "families", "RecurrenceError": "recurrence",
                  "KernelError": "kernels", "IntegrationError": "measures",
                  "MomentProblemError": "momentprob",
                  "QSeriesError": "qseries"}


@pytest.mark.parametrize("error", _ERROR_MODULES)
def test_errors_of_lazily_imported_modules_exit_1(error, monkeypatch,
                                                  capsys):
    # cli.py imports kernels and momentprob inside the subcommands, and
    # never qseries; every package error is a NumericalFailure, which its
    # error handler knows
    from orthopoly import momentprob as P

    exc = getattr(getattr(orthopoly, _ERROR_MODULES[error]), error)

    def fail(*args, **kwargs):
        raise exc("no interval")

    monkeypatch.setattr(P, "true_interval", fail)
    code, out, err = run(capsys, "diagnose", "--family", "hermite",
                         "--true-interval", "10")
    assert code == 1
    assert out == ""
    assert err == "orthopoly: numerical failure: no interval\n"


@pytest.mark.parametrize("n", ("500", "1000"))
@pytest.mark.parametrize("family", ("legendre", "jacobi", "gegenbauer",
                                    "chebyshev_t", "chebyshev_u"))
def test_check_limit_past_double_range_exits_1(family, n, capsys,
                                               monkeypatch):
    """Past n = 213, where the value form's a^(n/2) left the double range,
    the row form still gives a verdict: it passes the true relations and
    exits 1 with "not verified" on a perturbed source row."""
    argv = ("check", "--family", family, *_CONTINUOUS[family],
            "--identity", "limit", "--n", n)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    # every c row is judged (the b rows of 26 are exactly 0)
    assert all(r["rows"] >= int(n) - 1 for r in doc["relations"])
    _perturb_limit_source(monkeypatch, 26, "c5")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "not verified" in err


def test_check_limit_exact_at_degree_one(capsys):
    # relation 26 holds exactly at n = 1: b_0 = 0 of Jacobi(a, a) maps onto
    # b_0 = 0 of Hermite, and no other row fixes p_1
    for family in ("legendre", "jacobi", "chebyshev_t"):
        code, out, err = run(capsys, "check", "--family", family,
                             *_CONTINUOUS[family], "--identity", "limit",
                             "--n", "1")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["relations"][0]["errors"] == [0.0] * 4
        assert doc["pass"] is True


@pytest.mark.parametrize("argv", (
    ("check", "--family", "legendre", "--identity", "ode", "--n", "-1"),
    ("check", "--family", "legendre", "--identity", "quadratic",
     "--n", "-1"),
    ("quadrature", "--family", "legendre", "--n", "-1"),
    ("zeros", "--family", "legendre", "--n", "-1"),
    ("tabulate", "--family", "legendre", "--n-max", "-1", "--grid", "0:1:2"),
    ("recurrence", "--family", "legendre", "--n-max", "-1"),
    ("diagnose", "--family", "legendre", "--true-interval", "0"),
    ("diagnose", "--family", "legendre", "--true-interval", "-3"),
    # there is no zero-point rule
    ("quadrature", "--family", "legendre", "--n", "0"),
    ("zeros", "--family", "legendre", "--n", "0"),
))
def test_degree_below_minimum_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err


_SWEEP_FAMILIES = {**_CONTINUOUS, "krawtchouk": ("--p", "0.3", "--N", "20"),
                   "hahn": ("--alpha", "0.5", "--beta", "1.5", "--N", "20"),
                   "meixner": ("--beta", "1.5", "--c", "0.5"),
                   "charlier": ("--a", "2")}


def _sweep_commands(family):
    fam = ("--family", family, *_SWEEP_FAMILIES[family])
    for n in ("1", "133", "134", "500", "1000"):
        yield ("tabulate", *fam, "--n-max", n, "--grid=-0.5:0.5:3",
               "--format", "json")
        yield ("quadrature", *fam, "--n", n)
        yield ("zeros", *fam, "--n", n)
        yield ("recurrence", *fam, "--n-max", n)
        for identity in ("ode", "shift", "cd", "limit", "quadratic",
                         "orthogonality"):
            yield ("check", *fam, "--identity", identity, "--n", n)
        if n in ("1", "133", "134"):
            yield ("diagnose", *fam, "--carleman", "--rho", "0.3",
                   "--true-interval", n)


@pytest.mark.parametrize("family", ("legendre", "jacobi", "gegenbauer",
                                    "chebyshev_t", "chebyshev_u"))
def test_jacobi_type_commands_pass_to_degree_1000(family, capsys):
    """Past index 133, where the classical rows once overflowed, every
    command that evaluates, integrates or tabulates the classical chain
    gives a document."""
    fam = ("--family", family, *_CONTINUOUS[family])
    for n in ("133", "134", "500", "1000"):
        for argv in (("tabulate", *fam, "--n-max", n, "--grid=-0.5:0.5:3",
                      "--format", "json"),
                     ("quadrature", *fam, "--n", n),
                     ("zeros", *fam, "--n", n),
                     ("recurrence", *fam, "--n-max", n),
                     *(("check", *fam, "--identity", identity, "--n", n)
                       for identity in ("cd", "limit", "quadratic"))):
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            json.loads(out)


def test_laguerre_limit_passes_to_degree_1000(capsys):
    for n in ("133", "134", "500", "1000"):
        code, out, err = run(capsys, "check", "--family", "laguerre",
                             "--alpha", "0.5", "--identity", "limit",
                             "--n", n)
        assert code == 0, (n, err)
        assert json.loads(out)["pass"] is True


def test_a_norm_ratio_that_underflows_exits_with_one_line(capsys):
    # c_1/a_0 underflows to 0 for lam = 1e-300, so log h_1 is -inf; numpy's
    # divide warning once leaked to stderr before the message (an error
    # under this suite's warning filter)
    code, out, err = run(capsys, "quadrature", "--family", "gegenbauer",
                         "--lam", "1e-300", "--n", "10")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("orthopoly: "), lines
    assert "Warning" not in err


@pytest.mark.parametrize("fam", (("hermite",), ("laguerre", "--alpha", "0.5")),
                         ids=("hermite", "laguerre"))
def test_values_past_the_double_range_exit_with_one_stderr_line(fam):
    # pytest captures numpy's RuntimeWarnings, so the CLI runs in a child;
    # hundreds of the 1000 Gauss weights lie below the double range
    proc = child_cli("quadrature", "--family", *fam, "--n", "1000")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("orthopoly: "), lines


def test_measure_that_does_not_settle_exits_with_one_stderr_line(tmp_path):
    # in a child, so that a warning printed on the way shows on stderr
    path, _ = _measure_file(tmp_path, "laguerre", ("--alpha", "0.5"))
    proc = child_cli("recurrence", "--measure", path, "--n-max", "300")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("orthopoly: "), lines
    assert "did not settle" in lines[0]


def _measure_sweep_commands(path):
    for n in ("1", "40", "133"):
        yield ("recurrence", "--measure", path, "--n-max", n)
        yield ("zeros", "--measure", path, "--n", n)
        yield ("diagnose", "--measure", path, "--carleman",
               "--true-interval", n)


@pytest.mark.parametrize("family", (*_SWEEP_FAMILIES, "finite"))
def test_sweep_gives_a_document_or_a_clean_exit(family, tmp_path, capsys):
    """Every subcommand at degrees around and past the classical Jacobi
    overflow, and every --measure command on the family's named measure
    document (or on a 60-point finite measure), either emits a parsable
    document or exits 1/2 with a message, never a traceback."""
    if family == "finite":
        commands = _measure_sweep_commands(_finite_file(tmp_path, 60)[0])
    else:
        path, _ = _measure_file(tmp_path, family, _SWEEP_FAMILIES[family])
        commands = [*_sweep_commands(family), *_measure_sweep_commands(path)]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        if code:
            assert err.startswith("orthopoly: "), (argv, err)
        else:
            json.loads(out)


@pytest.mark.parametrize("flags", [("--true-interval", "3"),
                                   ("--rho", "0.3")])
def test_diagnose_reads_only_the_rows_it_uses(tmp_path, capsys, flags):
    # three rows of a general form and of its monic form: diagnose needs
    # only h_0 to change the normalisation, not rows 3 and 4
    docs = {"general": ([0.5] * 3, [0.0, 0.5, 0.5]),
            "monic": ([1.0] * 3, [0.0, 0.25, 0.25])}
    results = {}
    for form, (a, c) in docs.items():
        path = tmp_path / f"{form}.json"
        path.write_text(json.dumps({"schema": 1, "form": form,
                                    "coefficients": {"a": a, "b": [0.0] * 3,
                                                     "c": c}}))
        code, out, err = run(capsys, "diagnose", "--recurrence", str(path),
                             *flags)
        assert code == 0, err
        results[form] = json.loads(out)
    assert results["general"] == results["monic"]
    if flags[0] == "--true-interval":
        assert results["general"]["true_interval"]["limits"] == \
            pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)])


def test_diagnose_rho_on_a_lattice_of_n_plus_one_points(capsys):
    code, out, err = run(capsys, "diagnose", "--family", "krawtchouk",
                         "--p", "0.3", "--N", "3", "--rho", "0.3")
    assert code == 0, err
    assert json.loads(out)["rho"]["n_terms"] == 2


def test_diagnose_rho_without_a_degree_exits_with_one_stderr_line():
    # Hahn with N = 1 has the rows diagnose reads but leaves rho no degree
    # past p_0; a least-squares fit on one partial sum ended in a traceback
    proc = child_cli("diagnose", "--family", "hahn", "--alpha", "0.5",
                      "--beta", "0.5", "--N", "1", "--rho", "0.3")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("orthopoly: "), lines
    assert "rho needs n_max >= 1" in lines[0]


@pytest.mark.parametrize("argv", [
    ("recurrence", "--family", "hahn", "--alpha", "1e300", "--beta", "1",
     "--N", "8", "--n-max", "5"),
    ("diagnose", "--family", "hahn", "--alpha", "1e300", "--beta", "1",
     "--N", "8", "--carleman")], ids=("recurrence", "diagnose"))
def test_hahn_rows_past_the_double_range_exit_with_one_stderr_line(argv):
    # in a child, so that numpy's overflow warnings in the rows would show;
    # the row check refuses the non-finite row
    proc = child_cli(*argv)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "orthopoly: numerical failure: row 1 is not finite"), lines


@pytest.mark.parametrize("argv", [
    ("zeros", "--family", "meixner", "--beta", "1e300", "--c", "0.999999",
     "--n", "40"),
    ("zeros", "--family", "meixner", "--beta", "1e305", "--c", "0.999999",
     "--n", "40"),
    ("recurrence", "--family", "meixner", "--beta", "1e305", "--c",
     "0.999999", "--n-max", "5")], ids=("monic-c", "monic-b", "general"))
def test_meixner_rows_past_the_double_range_exit_with_one_stderr_line(argv):
    # in a child, so that numpy's warnings would show: at beta = 1e300 the
    # monic c_n = A_{n-1} C_n overflows, at 1e305 A_n itself
    proc = child_cli(*argv)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "orthopoly: numerical failure: row "), lines


# The parser's help and its refusals of a missing --family, as the command
# line printed them when each subcommand declared its family options itself
_USAGE_CASES = json.loads((Path(__file__).parent / "cli_usage.json")
                          .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _USAGE_CASES,
                         ids=[" ".join(c["argv"]) for c in _USAGE_CASES])
def test_help_and_missing_family_texts_are_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps to the terminal
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"],
                                        case["stderr"])
