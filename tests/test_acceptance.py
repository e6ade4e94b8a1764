"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion on stdout in addition to the pytest verdicts.
"""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import FAMILIES, sample_in_domain, spec_for

import homfinsler
from homfinsler import (
    PhiFamily,
    catalog_get,
    catalog_names,
    coefficients_exponential,
    coefficients_generic,
    coefficients_infinite_series,
    isotropy_test,
    mean_berwald,
    phi_family,
    s_curvature,
    s_curvature_via_tensors,
    shen_check,
    transcription_audit,
    volume_coefficient,
)
from homfinsler.cli import main
from homfinsler.metrics import MetricSpec

README = Path(__file__).resolve().parent.parent / "README.md"

_COEFF_NAMES = ("Q", "Qp", "Qpp", "Delta", "Phi")


def _report(num, text):
    print(f"ACCEPTANCE criterion {num:2d}: PASS - {text}")


def _coefficient_sweep(closed_fn, phi, draw_s, count=500, seed=101):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        s = draw_s(rng)
        b = float(rng.uniform(0.01, 0.99))
        n = int(rng.integers(2, 11))
        a = closed_fn(s, b, n)
        g = coefficients_generic(phi, s, b, n)
        for name in _COEFF_NAMES:
            av, gv = getattr(a, name), getattr(g, name)
            rel = abs(av - gv) / (1.0 + abs(gv))
            assert rel <= 1e-10, (name, s, b, n, rel)
            worst = max(worst, rel)
    return worst


def test_criterion_01_series_coefficient_equivalence():
    def draw(rng):
        if rng.random() < 0.5:
            return float(rng.uniform(1.1, 5.0))
        return float(rng.uniform(-2.0, -0.1))

    worst = _coefficient_sweep(coefficients_infinite_series,
                               phi_family("infinite_series"), draw)
    spot = coefficients_infinite_series(2.0, 0.5, 2)
    assert abs(spot.Phi - (-2.625)) <= 1e-12
    assert abs(spot.Delta - (-0.875)) <= 1e-12
    _report(1, f"series closed vs generic over 500 draws, worst rel {worst:.2e}; "
               f"spot (2, 0.5, 2): Phi = {spot.Phi}, Delta = {spot.Delta}")


def test_criterion_02_exponential_coefficient_equivalence():
    worst = _coefficient_sweep(coefficients_exponential,
                               phi_family("exponential"),
                               lambda rng: float(rng.uniform(-0.9, 0.9)))
    spot = coefficients_exponential(0.0, 0.6, 3)
    assert abs(spot.Delta - 1.36) <= 1e-12
    assert abs(spot.Phi - (-5.8)) <= 1e-12
    _report(2, f"exponential closed vs generic over 500 draws, worst rel {worst:.2e}; "
               f"spot (0, 0.6, 3): Delta = {spot.Delta}, Phi = {spot.Phi}")


def test_criterion_03_s_path_triangle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for name in catalog_names():
        entry = catalog_get(name)
        for family in FAMILIES:
            spec = spec_for(entry, family)
            for y in sample_in_domain(entry, family, 200, rng):
                s_closed = s_curvature(entry.model, entry.v, spec, y)
                s_generic = s_curvature(entry.model, entry.v, spec, y, path="generic")
                s_tensors = s_curvature_via_tensors(entry.model, entry.v, spec, y)
                tol = 1e-10 * (1.0 + abs(s_generic))
                dev = max(abs(s_closed - s_generic), abs(s_tensors - s_generic))
                assert dev <= tol, (name, family, y, dev)
                worst = max(worst, dev / (1.0 + abs(s_generic)))
    _report(3, "closed = generic = tensor-contracted S on 5 spaces x 2 families "
               f"x 200 vectors, worst rel deviation {worst:.2e}")


def test_criterion_04_mean_berwald_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for name in ("solvable2", "heisenberg3", "su2_like"):
        entry = catalog_get(name)
        for family in FAMILIES:
            spec = spec_for(entry, family)
            for y in sample_in_domain(entry, family, 12, rng):
                closed = mean_berwald(entry.model, entry.v, spec, y,
                                      path="closed_form")
                fd = mean_berwald(entry.model, entry.v, spec, y,
                                  path="finite_difference")
                scale = 1.0 + float(np.max(np.abs(closed)))
                dev = float(np.max(np.abs(closed - fd)))
                assert dev <= 1e-5 * scale, (name, family, y, dev)
                worst = max(worst, dev / scale)
    _report(4, "closed-form E vs finite-difference Hessian of S on 3 spaces "
               f"x 2 families x 12 vectors, worst scaled deviation {worst:.2e}")


def test_criterion_05_homogeneity():
    rng = np.random.default_rng(404)
    worst_s = worst_e = 0.0
    for name in ("solvable2", "heisenberg3"):
        entry = catalog_get(name)
        for family in FAMILIES:
            spec = spec_for(entry, family)
            for y in sample_in_domain(entry, family, 8, rng):
                s1 = s_curvature(entry.model, entry.v, spec, y)
                e1 = mean_berwald(entry.model, entry.v, spec, y)
                for lam in (0.5, 2.0, 10.0):
                    s_lam = s_curvature(entry.model, entry.v, spec, lam * y)
                    rel_s = abs(s_lam - lam * s1) / (1.0 + abs(lam * s1))
                    assert rel_s <= 1e-10
                    e_lam = mean_berwald(entry.model, entry.v, spec, lam * y)
                    target = e1 / lam
                    rel_e = float(np.max(np.abs(e_lam - target))) \
                        / (1.0 + float(np.max(np.abs(target))))
                    assert rel_e <= 1e-8
                    worst_s = max(worst_s, rel_s)
                    worst_e = max(worst_e, rel_e)
    _report(5, f"S(ly) = l S(y) worst rel {worst_s:.2e}; "
               f"E(ly) = E(y)/l worst rel {worst_e:.2e} for l in {{0.5, 2, 10}}")


def test_criterion_06_isotropy_and_vanishing_at_v():
    isotropic_spaces = []
    for name in catalog_names():
        entry = catalog_get(name)
        vf = entry.v.frame_coords(entry.model)
        for family in FAMILIES:
            spec = spec_for(entry, family)
            report = isotropy_test(entry.model, entry.v, spec, 30)
            if report.isotropic:
                assert abs(report.c_h) <= 1e-10, (name, family, report)
                assert report.vanishing, (name, family, report)
                isotropic_spaces.append(f"{name}/{family}")
            assert abs(s_curvature(entry.model, entry.v, spec, vf)) <= 1e-12
            assert abs(s_curvature(entry.model, entry.v, spec, vf,
                                   path="generic")) <= 1e-12
            assert abs(s_curvature_via_tensors(entry.model, entry.v, spec, vf)) \
                <= 1e-12
    assert isotropic_spaces  # the degenerate spaces must actually trigger it
    _report(6, "isotropic => (c_H = 0 and vanishing) on "
               f"{len(isotropic_spaces)} space/family pairs; S(H, v) = 0 everywhere")


def test_criterion_07_volume_quadrature():
    riemannian = PhiFamily.custom(lambda s: 1.0, lambda s: 0.0, lambda s: 0.0, lambda s: 0.0)
    for form in ("bh", "ht"):
        for (b, n) in ((0.4, 2), (0.6, 3), (0.2, 7)):
            f = volume_coefficient(riemannian, b, n, form)
            assert abs(f - 1.0) <= 1e-9, (form, b, n, f)
    randers = phi_family("randers")
    worst = 0.0
    for n in (2, 3, 5):
        for b in (0.1, 0.5, 0.9):
            f = volume_coefficient(randers, b, n, "bh")
            exact = (1.0 - b * b) ** ((n + 1) / 2)
            assert abs(f - exact) <= 1e-6, (n, b)
            worst = max(worst, abs(f - exact))
    f64 = volume_coefficient(phi_family("exponential"), 0.3, 2, "ht", nodes=64)
    f128 = volume_coefficient(phi_family("exponential"), 0.3, 2, "ht", nodes=128)
    assert abs(f64 - f128) <= 1e-9 * abs(f64)
    g64 = volume_coefficient(randers, 0.5, 3, "bh", nodes=64)
    g128 = volume_coefficient(randers, 0.5, 3, "bh", nodes=128)
    assert abs(g64 - g128) <= 1e-9 * abs(g64)
    _report(7, f"phi = 1 gives f = 1 both forms; randers bh matches "
               f"(1-b^2)^((n+1)/2) within {worst:.2e}; node doubling stable to 1e-9")


def test_criterion_08_shen_validator():
    for b in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        assert shen_check(MetricSpec(phi_family("randers"), b)).holds
    assert shen_check(MetricSpec(phi_family("exponential"), 0.5)).holds
    spec = MetricSpec(phi_family("infinite_series"), 0.5)
    coarse = shen_check(spec, samples=3)  # grid {-b, 0, b} isolates s = 0
    assert not coarse.holds
    assert coarse.argmin_s == 0.0
    assert abs(coarse.min_value - (-2 * 0.5**2)) <= 1e-12
    assert not shen_check(spec, samples=201).holds
    _report(8, "randers holds for b in 0.1..0.9, exponential holds at b = 0.5, "
               f"series fails at s = 0 with min {coarse.min_value} = -2b^2")


def test_criterion_09_derivative_table_audit():
    readme = README.read_text(encoding="utf-8").lower()
    notes = []
    for family in FAMILIES:
        audit = transcription_audit(family)
        assert audit.first_matches, (family, audit.max_rel_first)
        if not audit.second_matches:
            # mismatch is allowed, but it must be logged in the docs and the
            # derived form must be the one the computations use
            assert "discrepanc" in readme
            assert family.replace("_", " ") in readme or family in readme
            notes.append(f"{family}: d2 table off by {audit.max_rel_second:.2e} "
                         "(documented; derived form wins)")
        else:
            notes.append(f"{family}: tables agree")
    _report(9, "; ".join(notes))


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    scan_args = ["scan", "--space", "catalog:heisenberg3", "--metric",
                 "exponential", "--grid", "100", "--seed", "42",
                 "--format", "csv"]
    first = io.StringIO()
    second = io.StringIO()
    assert main(scan_args, out=first) == 0
    assert main(scan_args, out=second) == 0
    assert first.getvalue() == second.getvalue()
    assert len(first.getvalue().strip().splitlines()) == 101

    # exit code table: 0 ok, 1 singularity/domain, 2 config, 3 validated mode
    ok = main(["catalog"], out=io.StringIO())
    sing = main(["s-curv", "--space", "catalog:solvable2", "--metric",
                 "infinite_series", "--y", "1,0"], out=io.StringIO())
    bad_cfg = main(["s-curv", "--space", "catalog:unknown", "--metric",
                    "exponential", "--y", "1,1,1"], out=io.StringIO())
    refused = main(["s-curv", "--space", "catalog:heisenberg3", "--metric",
                    "infinite_series", "--y", "1,1,1", "--mode", "validated"],
                   out=io.StringIO())
    capsys.readouterr()
    assert (ok, sing, bad_cfg, refused) == (0, 1, 2, 3)
    _report(10, "100-direction scan byte-identical across runs; "
                "exit codes (0, 1, 2, 3) all conform")


def test_readme_python_examples_run():
    # the README's python blocks, concatenated in order, are one script that
    # must run with every warning an error
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) >= 2
    src = os.path.dirname(os.path.dirname(homfinsler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", "".join(blocks)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
