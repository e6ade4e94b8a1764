import dataclasses
import math

import mpmath
import numpy as np
import pytest
import sympy
from numpy.polynomial import polynomial as P

from conftest import (FAMILIES, dip_profile, sample_in_domain, space_cases, space_of,
                      spec_for)

from homfinsler import (
    CoefficientBundle,
    DomainError,
    InvariantVector,
    MetricSpec,
    PhiFamily,
    SingularityError,
    StructureConstants,
    ValidatedModeError,
    build_model,
    catalog_get,
    coefficients_exponential,
    coefficients_generic,
    coefficients_infinite_series,
    isotropy_test,
    mean_berwald,
    phi_family,
    s_curvature,
    s_curvature_via_tensors,
    transcription_audit,
)
from homfinsler import curvature, metrics
from homfinsler.curvature import (
    _rational_forms,
    _row_error,
    _s_rows,
    _w_derivs,
    unit_directions,
)

ALL_FAMILIES = ("randers", "kropina", "matsumoto", "infinite_series", "exponential")
_POLY = (1.0, 0.5, 0.25, -0.125)


def _callable_randers():
    """The Randers profile as user callables, which carry no exact form."""
    return PhiFamily.custom(lambda s: 1.0 + s, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)

# Frozen oracle values, computed with exact symbolic arithmetic (generic
# coefficient definitions and the exact Hessian of S) before the build.
S_HEIS_EXP = -0.32715015237608375     # heisenberg3, exponential, y=(1,1,1)
S_HEIS_INF = 1.3076497538914102       # heisenberg3, infinite series, y=(1,1,1)
S_SOLV_EXP = 0.48347646124339894      # solvable2, exponential, y=(1,0.3)
S_SOLV_INF = 2.904119073904193        # solvable2, infinite series, y=(1,0.3)
E_SOLV_EXP = np.array([[-0.04404388189079137, 0.14681293963597122],
                       [0.14681293963597122, -0.48937646545323743]])
E_SOLV_INF = np.array([[0.1055923781171722, -0.3519745937239074],
                       [-0.3519745937239074, 1.1732486457463578]])


# ---------------------------------------------------------------------------
# coefficient bundles
# ---------------------------------------------------------------------------

class TestCoefficients:
    def test_infinite_series_spot(self):
        c = coefficients_infinite_series(2.0, 0.5, 2)
        assert c.Q == pytest.approx(0.0, abs=1e-15)
        assert c.Qp == pytest.approx(0.5)
        assert c.Qpp == pytest.approx(-0.5)
        assert c.Delta == pytest.approx(-0.875)
        assert c.Phi == pytest.approx(-2.625)

    def test_exponential_spot(self):
        c = coefficients_exponential(0.0, 0.6, 3)
        assert (c.Q, c.Qp, c.Qpp) == (1.0, 1.0, 2.0)
        assert c.Delta == pytest.approx(1.36)
        assert c.Phi == pytest.approx(-5.8)

    def test_exponential_b_zero(self):
        c = coefficients_exponential(0.0, 0.0, 7)
        assert c.Q == 1.0
        assert c.Delta == 1.0
        assert c.Phi == pytest.approx(-(7 + 1))

    def test_randers_generic(self):
        phi = phi_family("randers")
        for s in (-0.4, 0.0, 0.7):
            c = coefficients_generic(phi, s, 0.5, 4)
            assert c.Q == pytest.approx(1.0)
            assert c.Qp == pytest.approx(0.0, abs=1e-15)
            assert c.Qpp == pytest.approx(0.0, abs=1e-15)
            assert c.Delta == pytest.approx(1.0 + s)
            assert c.Phi == pytest.approx(-(4 + 1) * (1.0 + s))

    @pytest.mark.parametrize("family,closed,ranges", [
        ("infinite_series", coefficients_infinite_series, [(1.1, 5.0), (-2.0, -0.1)]),
        ("exponential", coefficients_exponential, [(-0.9, 0.9)]),
    ])
    def test_closed_matches_generic(self, family, closed, ranges):
        rng = np.random.default_rng(3)
        phi = phi_family(family)
        for _ in range(100):
            lo, hi = ranges[rng.integers(len(ranges))]
            s = float(rng.uniform(lo, hi))
            b = float(rng.uniform(0.05, 0.95))
            n = int(rng.integers(2, 11))
            a = closed(s, b, n)
            g = coefficients_generic(phi, s, b, n)
            for name in ("Q", "Qp", "Qpp", "Delta", "Phi"):
                av, gv = getattr(a, name), getattr(g, name)
                assert abs(av - gv) <= 1e-10 * (1.0 + abs(gv)), (name, s, b, n)

    def test_singularities(self):
        with pytest.raises(SingularityError, match="s = 0"):
            coefficients_infinite_series(0.0, 0.5, 3)
        with pytest.raises(SingularityError, match="s = 1"):
            coefficients_exponential(1.0, 0.5, 3)
        with pytest.raises(SingularityError, match="phi - s"):
            coefficients_generic(phi_family("matsumoto"), 0.5, 0.6, 3)


# ---------------------------------------------------------------------------
# S-curvature
# ---------------------------------------------------------------------------

class TestSCurvature:
    def test_frozen_heisenberg_exponential(self):
        e = catalog_get("heisenberg3")
        spec = spec_for(e, "exponential")
        y = np.array([1.0, 1.0, 1.0])
        for path in ("closed_form", "generic"):
            assert s_curvature(e.model, e.v, spec, y, path=path) \
                == pytest.approx(S_HEIS_EXP, rel=1e-12)
        assert s_curvature_via_tensors(e.model, e.v, spec, y) \
            == pytest.approx(S_HEIS_EXP, rel=1e-12)

    def test_frozen_heisenberg_series(self):
        e = catalog_get("heisenberg3")
        spec = spec_for(e, "infinite_series")
        y = np.array([1.0, 1.0, 1.0])
        for path in ("closed_form", "generic"):
            assert s_curvature(e.model, e.v, spec, y, path=path) \
                == pytest.approx(S_HEIS_INF, rel=1e-12)

    def test_frozen_solvable(self):
        e = catalog_get("solvable2")
        y = np.array([1.0, 0.3])
        assert s_curvature(e.model, e.v, spec_for(e, "exponential"), y) \
            == pytest.approx(S_SOLV_EXP, rel=1e-12)
        assert s_curvature(e.model, e.v, spec_for(e, "infinite_series"), y) \
            == pytest.approx(S_SOLV_INF, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_at_v(self, entry, family):
        spec = spec_for(entry, family)
        vf = entry.v.frame_coords(entry.model)
        assert s_curvature(entry.model, entry.v, spec, vf) == 0.0
        assert s_curvature(entry.model, entry.v, spec, vf, path="generic") == 0.0
        assert s_curvature_via_tensors(entry.model, entry.v, spec, vf) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_abelian_any_y(self, family):
        e = catalog_get("abelian3")
        spec = spec_for(e, family)
        # includes a direction orthogonal to v (s = 0): degeneration wins
        for y in ([1.0, 0.0, 0.0], [0.2, -1.0, 0.7], [0.0, 0.0, 1.0]):
            assert s_curvature(e.model, e.v, spec, y) == 0.0

    def test_central_v_vanishes(self):
        e = catalog_get("heisenberg_central_v")
        spec = spec_for(e, "exponential")
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert s_curvature(e.model, e.v, spec, rng.standard_normal(3)) == 0.0

    def test_su2_like_vanishes(self, rng):
        # [v, y] is orthogonal to both y and v for the cyclic brackets
        e = catalog_get("su2_like")
        for family in FAMILIES:
            spec = spec_for(e, family)
            for y in sample_in_domain(e, family, 10, rng):
                assert abs(s_curvature(e.model, e.v, spec, y)) <= 1e-15

    def test_zero_v_convention(self):
        from homfinsler import StructureConstants, build_model
        structure = StructureConstants.from_entries(2, {(0, 1, 1): 1.0})
        model, v = build_model(structure, 0, np.eye(2))
        spec = MetricSpec(phi_family("exponential"), 0.0)
        assert s_curvature(model, v, spec, [1.0, 2.0]) == 0.0
        assert np.array_equal(mean_berwald(model, v, spec, [1.0, 2.0]),
                              np.zeros((2, 2)))

    def test_domain_errors(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        with pytest.raises(DomainError, match="y = 0"):
            s_curvature(e.model, e.v, spec, [0.0, 0.0])
        with pytest.raises(ValueError, match="components"):
            s_curvature(e.model, e.v, spec, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="does not match"):
            s_curvature(e.model, e.v, MetricSpec(phi_family("exponential"), 0.3),
                        [1.0, 0.0])
        # a NaN |v| matches no b; every route returned nan from it
        nan_v = InvariantVector(coords=e.v.coords, c=e.v.c, b=math.nan)
        spec = MetricSpec(phi_family("exponential"), e.v.b)
        for call in (lambda: s_curvature(e.model, nan_v, spec, [1.0, 0.5]),
                     lambda: s_curvature(e.model, nan_v, spec, [1.0, 0.5], path="generic"),
                     lambda: mean_berwald(e.model, nan_v, spec, [1.0, 0.5])):
            with pytest.raises(ValueError, match="does not match"):
                call()
        # an unknown path or mode is refused alike by every entry, and also
        # at v = 0, where no route has anything to compute
        zero_v = InvariantVector.from_coords(e.model, [0.0, 0.0])
        y = np.array([1.0, 1.0])
        entries = (lambda v, sp, path, mode: s_curvature(e.model, v, sp, y, path, mode),
                   lambda v, sp, path, mode: mean_berwald(e.model, v, sp, y, path, mode),
                   lambda v, sp, path, mode: _s_rows(e.model, v, sp, y[None, :], path, mode))
        for path, mode, match in (("nope", "formal", "path must be"),
                                  ("closed_form", "nope", "mode must be")):
            for entry in entries:
                messages = set()
                for v, sp in ((e.v, spec), (zero_v, MetricSpec(spec.phi, 0.0))):
                    with pytest.raises(ValueError, match=match) as info:
                        entry(v, sp, path, mode)
                    messages.add(str(info.value))
                assert len(messages) == 1, messages

    @pytest.mark.parametrize("y", [[np.nan, 1.0, 1.0], [1e-300] * 3, [1e-160] * 3,
                                   [1e200] * 3],
                             ids=["nan", "underflow", "subnormal_square", "overflow"])
    def test_unrepresentable_y_is_domain_error(self, y):
        e = catalog_get("heisenberg3")
        spec = spec_for(e, "exponential")
        for call in (lambda: s_curvature(e.model, e.v, spec, y),
                     lambda: s_curvature(e.model, e.v, spec, y, path="generic"),
                     lambda: s_curvature_via_tensors(e.model, e.v, spec, y),
                     lambda: mean_berwald(e.model, e.v, spec, y),
                     lambda: mean_berwald(e.model, e.v, spec, y, path="finite_difference")):
            with pytest.raises(DomainError, match=r"\|y\|"):
                call()

    def test_series_singularity_at_orthogonal_y(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "infinite_series")
        with pytest.raises(SingularityError, match="s = 0"):
            s_curvature(e.model, e.v, spec, [1.0, 0.0])

    def test_pole_of_phi_is_singularity(self):
        # phi = 1/s at s = 0: the evaluators raise ZeroDivisionError
        e = catalog_get("heisenberg3")
        spec = spec_for(e, "kropina")
        y = [1.0, 1.0, 0.0]
        for call in (lambda: s_curvature(e.model, e.v, spec, y, path="generic"),
                     lambda: s_curvature_via_tensors(e.model, e.v, spec, y),
                     lambda: mean_berwald(e.model, e.v, spec, y, path="finite_difference")):
            with pytest.raises(SingularityError, match=r"^pole of phi \(kropina\) at s = 0$"):
                call()

    def test_non_finite_phi_is_singularity(self):
        nan_phi = PhiFamily.custom(lambda s: float("nan"), lambda s: 1.0,
                                   lambda s: 0.0, lambda s: 0.0)
        with pytest.raises(SingularityError, match="pole of phi"):
            coefficients_generic(nan_phi, 0.3, 0.5, 3)

    def test_closed_path_needs_closed_family(self):
        e = catalog_get("solvable2")
        spec = MetricSpec.for_vector(_callable_randers(), e.v)
        with pytest.raises(ValueError, match="closed-form"):
            s_curvature(e.model, e.v, spec, [1.0, 0.5], path="closed_form")
        # generic path still works
        s_curvature(e.model, e.v, spec, [1.0, 0.5], path="generic")

    @pytest.mark.parametrize("name", ["abelian3", "heisenberg_central_v", "solvable2", "v=0"])
    def test_closed_family_checked_before_degeneration(self, name):
        # [v, .]_m = 0 (abelian3, heisenberg_central_v) and v = 0 raise like a
        # regular space: scalar S, block S and closed E all refuse user callables
        if name == "v=0":
            st = StructureConstants.from_entries(3, {(0, 1, 2): 1.0})
            model, v = build_model(st, 0, np.eye(3), np.zeros(3))
        else:
            model, v = catalog_get(name).model, catalog_get(name).v
        spec = MetricSpec.for_vector(_callable_randers(), v)
        y = np.ones(model.m_dim)
        for call in (lambda: s_curvature(model, v, spec, y, path="closed_form"),
                     lambda: _s_rows(model, v, spec, y[None, :], "closed_form"),
                     lambda: mean_berwald(model, v, spec, y, path="closed_form")):
            with pytest.raises(ValueError, match="no closed-form coefficients for family 'custom'"):
                call()
        s_gen = s_curvature(model, v, spec, y, path="generic")
        assert (s_gen == 0.0) == (name != "solvable2")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_three_paths_agree(self, entry, family, rng):
        spec = spec_for(entry, family)
        for y in sample_in_domain(entry, family, 50, rng):
            s_closed = s_curvature(entry.model, entry.v, spec, y)
            s_generic = s_curvature(entry.model, entry.v, spec, y, path="generic")
            s_tensors = s_curvature_via_tensors(entry.model, entry.v, spec, y)
            tol = 1e-10 * (1.0 + abs(s_generic))
            assert abs(s_closed - s_generic) <= tol
            assert abs(s_tensors - s_generic) <= tol

    @pytest.mark.parametrize("family", FAMILIES)
    def test_homogeneity(self, family, rng):
        e = catalog_get("heisenberg3")
        spec = spec_for(e, family)
        for y in sample_in_domain(e, family, 10, rng):
            s1 = s_curvature(e.model, e.v, spec, y)
            for lam in (1e-150, 0.5, 2.0, 10.0, 1e150):
                s_lam = s_curvature(e.model, e.v, spec, lam * y)
                assert abs(s_lam - lam * s1) <= 1e-10 * (1.0 + abs(lam * s1))


# ---------------------------------------------------------------------------
# the Berwald factor and mean Berwald curvature
# ---------------------------------------------------------------------------

class TestBerwaldWorkspace:
    """The factor W = Phi/(2 Delta^2) of the closed E and its s-derivatives."""

    @pytest.mark.parametrize("family,s_ranges", [
        # ranges keep clear of the zeros of the factor denominator at b = 0.5
        ("infinite_series", [(-2.0, -0.6), (1.3, 2.4)]),
        ("exponential", [(-0.8, 0.5)]),
    ])
    def test_factor_derivatives_match_finite_differences(self, family, s_ranges):
        # the analytic dW/ds, d2W/ds2 against Richardson differences of W
        forms = _rational_forms(phi_family(family).exact, 0.5, 3)

        def w_of(s):
            return _w_derivs(*forms.values_at(s)[4:], s)[0]

        pts = np.concatenate([np.linspace(lo, hi, 25) for lo, hi in s_ranges])
        for s in pts:
            _, dw, d2w = _w_derivs(*forms.values_at(float(s))[4:], float(s))
            h = 1e-3

            def first(hh):
                return (w_of(s + hh) - w_of(s - hh)) / (2 * hh)

            def second(hh):
                return (w_of(s + hh) - 2 * w_of(s) + w_of(s - hh)) / hh**2

            fd1 = (4 * first(h / 2) - first(h)) / 3
            fd2 = (4 * second(h / 2) - second(h)) / 3
            assert abs(fd1 - dw) <= 1e-6 * (1.0 + abs(dw)), (family, s)
            assert abs(fd2 - d2w) <= 1e-6 * (1.0 + abs(d2w)), (family, s)


class TestMeanBerwald:
    def test_frozen_solvable_exponential(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        y = np.array([1.0, 0.3])
        e_closed = mean_berwald(e.model, e.v, spec, y, path="closed_form")
        assert np.allclose(e_closed, E_SOLV_EXP, rtol=1e-11, atol=1e-13)
        e_fd = mean_berwald(e.model, e.v, spec, y, path="finite_difference")
        assert np.max(np.abs(e_fd - E_SOLV_EXP)) <= 1e-5

    def test_frozen_solvable_series(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "infinite_series")
        y = np.array([1.0, 0.3])
        e_closed = mean_berwald(e.model, e.v, spec, y, path="closed_form")
        assert np.allclose(e_closed, E_SOLV_INF, rtol=1e-11, atol=1e-13)
        e_fd = mean_berwald(e.model, e.v, spec, y, path="finite_difference")
        assert np.max(np.abs(e_fd - E_SOLV_INF)) <= 1e-5

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "name", ["abelian3", "heisenberg3", "heisenberg_central_v",
                 "solvable2", "su2_like"])
    def test_closed_vs_finite_difference(self, name, family, rng):
        e = catalog_get(name)
        spec = spec_for(e, family)
        for y in sample_in_domain(e, family, 200, rng):
            a = mean_berwald(e.model, e.v, spec, y, path="closed_form")
            f = mean_berwald(e.model, e.v, spec, y, path="finite_difference")
            scale = 1.0 + float(np.max(np.abs(a)))
            assert np.max(np.abs(a - f)) <= 1e-5 * scale, (name, family, y)

    def test_symmetry(self, rng):
        e = catalog_get("heisenberg3")
        spec = spec_for(e, "exponential")
        for y in sample_in_domain(e, "exponential", 5, rng):
            a = mean_berwald(e.model, e.v, spec, y, path="closed_form")
            assert np.max(np.abs(a - a.T)) == 0.0  # exactly symmetric terms
            f = mean_berwald(e.model, e.v, spec, y, path="finite_difference")
            assert np.max(np.abs(f - f.T)) <= 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_homogeneity_degree_minus_one(self, family, rng):
        e = catalog_get("solvable2")
        spec = spec_for(e, family)
        for y in sample_in_domain(e, family, 5, rng):
            base = mean_berwald(e.model, e.v, spec, y)
            for lam in (1e-150, 0.5, 2.0, 10.0, 1e150):
                scaled = mean_berwald(e.model, e.v, spec, lam * y)
                target = base / lam
                assert np.max(np.abs(scaled - target)) \
                    <= 1e-8 * (1.0 + np.max(np.abs(target)))

    def test_zero_cases(self):
        for name in ("abelian3", "heisenberg_central_v"):
            e = catalog_get(name)
            for family in FAMILIES:
                spec = spec_for(e, family)
                for path in ("closed_form", "finite_difference"):
                    out = mean_berwald(e.model, e.v, spec, [1.0, 0.4, -0.2], path=path)
                    assert np.array_equal(out, np.zeros((3, 3)))

    def test_bad_path(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        with pytest.raises(ValueError, match="path"):
            mean_berwald(e.model, e.v, spec, [1.0, 0.3], path="nope")

    @pytest.mark.parametrize("y", [[0.6027, -0.798], [1.0, 0.3]])
    @pytest.mark.parametrize("lam", [0.015, 10.0])
    def test_finite_difference_homogeneity(self, y, lam):
        # the default step scales with |y|, so lam * E_fd(lam y) = E_fd(y);
        # y = (0.6027, -0.798) has s = -0.399, close to Delta = 0
        e = catalog_get("solvable2")
        spec = spec_for(e, "infinite_series")
        y = np.array(y)
        base = mean_berwald(e.model, e.v, spec, y, path="finite_difference")
        scaled = lam * mean_berwald(e.model, e.v, spec, lam * y, path="finite_difference")
        assert np.max(np.abs(scaled - base)) <= 1e-5 * np.max(np.abs(base))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("name", ["heisenberg3", "solvable2", "su2_like"])
    def test_finite_difference_exactly_symmetric(self, name, family, rng):
        e = catalog_get(name)
        spec = spec_for(e, family)
        for y in rng.standard_normal((5, e.model.m_dim)):
            f = mean_berwald(e.model, e.v, spec, y, path="finite_difference")
            assert np.array_equal(f, f.T)

    @pytest.mark.parametrize("name", ["solvable2", "heisenberg3"])
    def test_finite_difference_is_one_block(self, name, monkeypatch):
        # both Richardson levels, i < j corners only, in one kernel call and
        # without any scalar S call
        e = catalog_get(name)
        n = e.model.m_dim
        spec = spec_for(e, "exponential")
        blocks = []

        def counting(*args, **kwargs):
            blocks.append(len(args[3]))
            return _s_rows(*args, **kwargs)

        def no_scalar(*args, **kwargs):
            raise AssertionError("scalar S called inside finite-difference E")

        monkeypatch.setattr(curvature, "_s_rows", counting)
        monkeypatch.setattr(curvature, "s_curvature", no_scalar)
        mean_berwald(e.model, e.v, spec, np.ones(n), path="finite_difference")
        assert blocks == [2 * (1 + 2 * n + 2 * n * (n - 1))]

    def test_finite_difference_raises_the_scalar_error(self):
        # the centre of the stencil sits on s = 0, where Q has a pole
        e = catalog_get("solvable2")
        spec = spec_for(e, "infinite_series")
        with pytest.raises(SingularityError) as scalar:
            s_curvature(e.model, e.v, spec, [1.0, 0.0], path="generic")
        with pytest.raises(SingularityError) as fd:
            mean_berwald(e.model, e.v, spec, [1.0, 0.0], path="finite_difference")
        assert str(fd.value) == str(scalar.value)


def s_derivs(c, y, alpha):
    """s = c y_n / alpha with its gradient and Hessian in y."""
    s = c * float(y[-1]) / alpha
    b_vec = np.zeros(len(y))
    b_vec[-1] = c
    s_y = (b_vec * alpha - s * y) / (alpha * alpha)
    s_yy = (-(np.outer(b_vec, y) + np.outer(y, b_vec)) * alpha
            + 3.0 * s * np.outer(y, y) - alpha * alpha * s * np.eye(len(y))
            ) / (alpha * alpha * alpha * alpha)
    return s, s_y, s_yy


def old_closed_e(model, v, spec, y):
    """Closed E as the sum of two Hessians of products f(s(y)) g(y), as assembled
    before the rank-4 form."""
    def hessian_of_product(f, s_y, s_yy, g, g_y, g_yy):
        f0, f1, f2 = f
        t = np.outer(s_y, g_y)
        return f2 * g * np.outer(s_y, s_y) + f1 * g * s_yy + f1 * (t + t.T) + f0 * g_yy

    n = model.m_dim
    alpha = float(np.linalg.norm(y))
    y = y / alpha
    s, s_y, s_yy = s_derivs(v.c, y, 1.0)
    forms = _rational_forms(spec.phi.exact, spec.b, n)
    w = _w_derivs(*forms.values_at(s)[4:], s)
    c = CoefficientBundle(s, spec.b, n, *curvature._closed_coefficients(forms, s, spec.phi.name))
    p = v.c * model._brackets[-1].T
    py = p @ y
    g = float(py @ y)
    u = p.T @ y + py
    t = np.outer(u, y)
    g_yy = (p + p.T) - (t + t.T) - g * np.eye(n) + 3.0 * g * np.outer(y, y)
    first = hessian_of_product(w, s_y, s_yy, g, u - g * y, g_yy)
    wq = (w[0] * c.Q, w[1] * c.Q + w[0] * c.Qp,
          w[2] * c.Q + 2.0 * w[1] * c.Qp + w[0] * c.Qpp)
    second = hessian_of_product(wq, s_y, s_yy, float(py @ v.frame_coords(model)),
                                v.c * p[-1, :], 0.0)
    return 0.5 * (first + second) / alpha


def old_s_via_tensors(model, v, spec, y):
    """The tensor-route S with the origin tensors rebuilt from the brackets."""
    y = np.asarray(y, dtype=float)
    alpha = float(np.linalg.norm(y))
    br = model._brackets
    upper = np.triu(0.5 * v.c * br[:, :, -1], 1)
    rn = br[-1]
    r00 = float(y @ (-0.5 * v.c * (rn + rn.T)) @ y)
    s0 = v.c * float((upper - upper.T)[-1] @ y)
    if r00 == 0.0 and s0 == 0.0:
        return 0.0
    s = v.c * float(y[-1]) / alpha
    bundle = coefficients_generic(spec.phi, s, spec.b, model.m_dim)
    curvature._guard(bundle.Delta, s, "Delta = 0")
    return -bundle.Phi / (2.0 * alpha * bundle.Delta**2) * (
        r00 - 2.0 * alpha * bundle.Q * s0)


def _value_or_message(fn, *args):
    try:
        return fn(*args)
    except (DomainError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestClosedRankFour:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("case", space_cases())
    def test_matches_the_product_hessians(self, case, family, rng):
        sp = space_of(case)
        spec = spec_for(sp, family)
        for y in sample_in_domain(sp, family, 40, rng):
            got = mean_berwald(sp.model, sp.v, spec, y)
            want = old_closed_e(sp.model, sp.v, spec, y)
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (family, y)
            assert np.array_equal(got, got.T)
            # E is the Hessian of a degree-1 function: E y = 0
            assert np.max(np.abs(got @ y)) <= 1e-12 * (1.0 + scale) * np.linalg.norm(y)

    @pytest.mark.parametrize("case", space_cases())
    def test_pole_of_q_raises_as_before(self, case):
        # y = e_0 has s = 0, the pole of Q for the infinite series
        sp = space_of(case)
        n = sp.model.m_dim
        spec = spec_for(sp, "infinite_series")
        y = np.eye(n)[0]
        got = _value_or_message(mean_berwald, sp.model, sp.v, spec, y)
        if sp.model._brackets[-1].any():
            assert got == _value_or_message(old_closed_e, sp.model, sp.v, spec, y)
            assert got.startswith("SingularityError: pole of Q (infinite_series) at s = 0")
        else:
            assert np.array_equal(got, np.zeros((n, n)))

    def test_degeneration_wins_over_the_pole(self):
        # [v, .]_m = 0: closed E is zero even at the pole s = 0 of Q, like
        # closed S, generic S and finite-difference E
        for name in ("abelian3", "heisenberg_central_v"):
            e = catalog_get(name)
            spec = spec_for(e, "infinite_series")
            y = [1.0, 0.3, 0.0]
            assert s_curvature(e.model, e.v, spec, y) == 0.0
            assert s_curvature(e.model, e.v, spec, y, path="generic") == 0.0
            for path in ("closed_form", "finite_difference"):
                assert np.array_equal(mean_berwald(e.model, e.v, spec, y, path=path),
                                      np.zeros((3, 3)))

    def test_family_without_closed_form_is_checked_first(self):
        # the missing closed form is reported even where E would be zero
        for name in ("abelian3", "solvable2"):
            e = catalog_get(name)
            spec = MetricSpec.for_vector(_callable_randers(), e.v)
            with pytest.raises(ValueError, match="closed-form"):
                mean_berwald(e.model, e.v, spec, np.ones(e.model.m_dim))


class TestTensorRoute:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("case", space_cases())
    def test_bit_identical_to_per_call_tensors(self, case, family, rng):
        sp = space_of(case)
        spec = spec_for(sp, family)
        for y in rng.standard_normal((30, sp.model.m_dim)):
            got = _value_or_message(s_curvature_via_tensors, sp.model, sp.v, spec, y)
            want = _value_or_message(old_s_via_tensors, sp.model, sp.v, spec, y)
            assert repr(got) == repr(want), y     # repr tells -0.0 from 0.0

    def test_coefficients_generic_wraps_the_tuple(self):
        phi = phi_family("matsumoto")
        bundle = coefficients_generic(phi, 0.3, 0.5, 4)
        assert (bundle.Q, bundle.Qp, bundle.Qpp, bundle.Delta, bundle.Phi) == \
            curvature._generic_coefficients(phi, 0.3, 0.5, 4)
        assert (bundle.s, bundle.b, bundle.n) == (0.3, 0.5, 4)


# ---------------------------------------------------------------------------
# the block kernel
# ---------------------------------------------------------------------------

def _scalar_or_error(model, v, spec, y, path):
    try:
        return s_curvature(model, v, spec, y, path=path), None
    except DomainError as exc:
        return None, exc


# Beyond the built-ins: a Horner polynomial, and scalar-only callables (with
# Python powers and a pole at s = 0) that reach arrays entry by entry.
_KERNEL_PHI = {
    "polynomial": lambda: PhiFamily.polynomial([1.0, 0.5, 0.25, -0.125]),
    "custom": lambda: PhiFamily.custom(lambda s: 1.0 + 0.1 / s, lambda s: -0.1 / s**2,
                                       lambda s: 0.2 / s**3, lambda s: -0.6 / s**4),
}


class TestBlockKernel:
    @pytest.mark.parametrize("family", ALL_FAMILIES + tuple(_KERNEL_PHI))
    @pytest.mark.parametrize("name", ["heisenberg3", "solvable2", "su2_like"])
    def test_rows_match_scalar(self, name, family, rng):
        e = catalog_get(name)
        n = e.model.m_dim
        if family in _KERNEL_PHI:
            spec = MetricSpec.for_vector(_KERNEL_PHI[family](), e.v)
        else:
            spec = spec_for(e, family)
        vf = e.v.frame_coords(e.model)
        # unit rows with s within 1e-9 of each root of the infinite series'
        # Delta numerator DN = s^3 - 3 s^2 + 2 b^2 in (-b, b)
        roots = P.polyroots(_rational_forms(phi_family("infinite_series").exact, e.v.b, n).DN)
        near = [r.real + t for r in roots if abs(r.imag) < 1e-12 and abs(r.real) < e.v.b
                for t in np.linspace(-1e-9, 1e-9, 9)]
        yn = np.array(near) / e.v.c
        delta_rows = np.zeros((len(near), n))
        delta_rows[:, 0], delta_rows[:, -1] = np.sqrt(1.0 - yn * yn), yn
        assert len(near) == 18
        Y = np.vstack([rng.standard_normal((40, n)) * rng.uniform(0.1, 3.0, (40, 1)),
                       vf, np.eye(n), np.zeros(n),         # y = v, s = 0 rows, y = 0
                       delta_rows])
        paths = ("closed_form", "generic") if spec.phi.exact is not None else ("generic",)
        for path in paths:
            rows = _s_rows(e.model, e.v, spec, Y, path)
            for k, y in enumerate(Y):
                ref, exc = _scalar_or_error(e.model, e.v, spec, y, path)
                if exc is None:
                    assert rows.flag[k] == 0
                    assert rows.S[k] == ref, (path, y)
                else:
                    assert rows.flag[k] > 0 and np.isnan(rows.S[k])
                    err = _row_error(rows, k, y, spec.phi.name)
                    assert type(err) is type(exc) and str(err) == str(exc), (path, y)

    @pytest.mark.parametrize("path,locus", [("generic", "phi - s*phi' = 0"),
                                            ("closed_form", "pole of Q")])
    def test_flags_only_the_singular_row(self, path, locus):
        e = catalog_get("heisenberg3")
        spec = spec_for(e, "infinite_series")
        Y = np.array([[1.0, 0.7, 0.4], [1.0, 1.0, 0.0], [0.2, -1.0, 0.5]])
        rows = _s_rows(e.model, e.v, spec, Y, path)
        assert list(rows.flag > 0) == [False, True, False]
        assert np.isnan(rows.S[1]) and np.isfinite(rows.S[[0, 2]]).all()
        assert str(_row_error(rows, 1, Y[1], "infinite_series")).startswith(locus)

    def test_zero_bracket_rows_are_exactly_zero(self):
        # [v, y]_m = 0 wins over the pole at s = 0, as in the scalar call
        e = catalog_get("heisenberg_central_v")
        spec = spec_for(e, "infinite_series")
        Y = np.array([[1.0, 0.3, 0.0], [0.2, -1.0, 0.5]])
        for path in ("closed_form", "generic"):
            rows = _s_rows(e.model, e.v, spec, Y, path)
            assert rows.S.tolist() == [0.0, 0.0] and not rows.flag.any()

    def test_rejects_bad_spec_shape_and_path(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        with pytest.raises(ValueError, match="does not match"):
            _s_rows(e.model, e.v, MetricSpec(phi_family("exponential"), 0.3),
                    np.ones((3, 2)), "generic")
        with pytest.raises(ValueError, match="shape"):
            _s_rows(e.model, e.v, spec, np.ones(2), "generic")
        with pytest.raises(ValueError, match="path"):
            _s_rows(e.model, e.v, spec, np.ones((3, 2)), "nope")


# ---------------------------------------------------------------------------
# closed routes of every exact profile
# ---------------------------------------------------------------------------

def _exact_phi(family):
    return PhiFamily.polynomial(_POLY) if family == "polynomial" else phi_family(family)


def _closed_sample(sp, phi, count, rng):
    """Directions whose s keeps 0.05 from the poles of Q and from Delta = 0."""
    forms = _rational_forms(phi.exact, sp.v.b, sp.model.m_dim)
    out = []
    while len(out) < count:
        y = rng.standard_normal(sp.model.m_dim) * rng.uniform(0.6, 1.8)
        s = sp.v.c * float(y[-1]) / float(np.linalg.norm(y))
        den = P.polyval(s, forms.D)
        if abs(den) >= 0.05 and abs(P.polyval(s, forms.DN) / (den * den)) >= 0.05:
            out.append(y)
    return out


def _overflow_space():
    # b = 1000: at y = (0.1, 1), s = 995 and e^s overflows
    st = StructureConstants.from_entries(2, {(0, 1, 1): 1.0})
    model, v = build_model(st, 0, np.eye(2), [0.0, 1000.0])
    return model, v, MetricSpec(phi_family("exponential"), 1000.0)


class TestExactClosedRoutes:
    @pytest.mark.parametrize("family", ["randers", "kropina", "matsumoto", "polynomial"])
    @pytest.mark.parametrize("case", space_cases())
    def test_closed_matches_other_routes(self, case, family, rng):
        sp = space_of(case)
        spec = MetricSpec.for_vector(_exact_phi(family), sp.v)
        m, v = sp.model, sp.v
        for k, y in enumerate(_closed_sample(sp, spec.phi, 30, rng)):
            closed = s_curvature(m, v, spec, y)
            generic = s_curvature(m, v, spec, y, path="generic")
            assert abs(closed - generic) <= 1e-10 * (1.0 + abs(generic)), (family, y)
            if k < 6:
                e_closed = mean_berwald(m, v, spec, y)
                e_fd = mean_berwald(m, v, spec, y, path="finite_difference")
                scale = 1.0 + float(np.max(np.abs(e_closed)))
                assert np.max(np.abs(e_closed - e_fd)) <= 1e-5 * scale, (family, y)

    def test_profile_without_q_raises_like_generic(self):
        # phi = s: phi - s phi' = 0 identically, so no s has a Q
        e = catalog_get("heisenberg3")
        spec = MetricSpec.for_vector(PhiFamily.polynomial([0.0, 1.0]), e.v)
        y = np.array([1.0, 0.7, 0.4])
        with pytest.raises(SingularityError) as generic:
            s_curvature(e.model, e.v, spec, y, path="generic")
        assert str(generic.value).startswith("phi - s*phi' = 0 at s = ")
        for call in (lambda: s_curvature(e.model, e.v, spec, y),
                     lambda: mean_berwald(e.model, e.v, spec, y)):
            with pytest.raises(SingularityError) as closed:
                call()
            assert str(closed.value) == str(generic.value)
        Y = np.array([y, e.v.frame_coords(e.model)])         # the second row has [v, y]_m = 0
        rows = _s_rows(e.model, e.v, spec, Y, "closed_form")
        assert rows.flag.tolist()[1] == 0 and rows.S[1] == 0.0 and np.isnan(rows.S[0])
        assert str(_row_error(rows, 0, y, "custom")) == str(generic.value)

    def test_exponential_overflow_is_a_finsler_error(self):
        model, v, spec = _overflow_space()
        y = np.array([0.1, 1.0])
        assert s_curvature(model, v, spec, y) == pytest.approx(0.231, abs=1e-3)
        s = v.c * 1.0 / float(np.linalg.norm(y))
        message = f"overflow of phi (exponential) at s = {s:.6g}"
        for call in (lambda: s_curvature(model, v, spec, y, path="generic"),
                     lambda: s_curvature_via_tensors(model, v, spec, y),
                     lambda: mean_berwald(model, v, spec, y, path="finite_difference")):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message
        # only the overflowing row of a block is flagged
        Y = np.array([y, [1.0, 1e-4]])
        rows = _s_rows(model, v, spec, Y, "generic")
        assert rows.flag[0] > 0 and rows.flag[1] == 0
        assert str(_row_error(rows, 0, y, "exponential")) == message
        assert rows.S[1] == s_curvature(model, v, spec, Y[1], path="generic")

    def test_custom_overflow_is_a_finsler_error(self):
        # a block row at which a callable overflows says what the scalar S says
        model, v, _ = _overflow_space()
        spec = MetricSpec(PhiFamily.custom(math.exp, math.exp, math.exp, math.exp), 1000.0)
        y = np.array([0.1, 1.0])
        message = "overflow of phi (custom) at s = 995.037"
        for call in (lambda: s_curvature(model, v, spec, y, path="generic"),
                     lambda: mean_berwald(model, v, spec, y, path="finite_difference")):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message
        Y = np.array([y, [1.0, 1e-4]])
        rows = _s_rows(model, v, spec, Y, "generic")
        assert rows.flag[0] > 0 and rows.flag[1] == 0
        assert str(_row_error(rows, 0, y, "custom")) == message
        assert rows.S[1] == s_curvature(model, v, spec, Y[1], path="generic")
        assert isotropy_test(model, v, spec, 20).samples_used == 20

    @pytest.mark.parametrize("coeffs,b,y", [
        ([1e308, 1e308, 1e308], 0.5, [1.0, 1.0]),     # phi' and phi'' overflow at every s
        ([1e308, 1e308], 0.9, [0.5, 1.0]),            # phi overflows at s = 0.805
    ])
    def test_exact_profile_overflow_is_not_a_pole(self, coeffs, b, y):
        # an exact evaluator that does not divide by zero is non-finite only by
        # overflowing; building the profile warns of nothing (warnings are errors here)
        st = StructureConstants.from_entries(2, {(0, 1, 1): 1.0})
        model, v = build_model(st, 0, np.eye(2), [0.0, b])
        spec = MetricSpec.for_vector(PhiFamily.polynomial(coeffs), v)
        y = np.array(y)
        s = v.c * y[-1] / float(np.linalg.norm(y))
        message = f"overflow of phi (custom) at s = {s:.6g}"
        for call in (lambda: s_curvature(model, v, spec, y, path="generic"),
                     lambda: s_curvature_via_tensors(model, v, spec, y)):
            with pytest.raises(DomainError) as info:
                call()
            assert type(info.value) is DomainError and str(info.value) == message
        with pytest.raises(DomainError, match=r"^overflow of phi \(custom\) at s = "):
            mean_berwald(model, v, spec, y, path="finite_difference")
        rows = _s_rows(model, v, spec, np.array([y, [1.0, 0.01]]), "generic")
        assert rows.flag[0] == curvature._ROW_PHI_BIG
        assert str(_row_error(rows, 0, y, "custom")) == message
        if len(coeffs) == 2:                          # phi is finite at s = 0.009
            assert rows.flag[1] == 0
            assert rows.S[1] == s_curvature(model, v, spec, [1.0, 0.01], path="generic")

    def test_pole_rows_stay_poles(self):
        # kropina's third derivative is -6/s^4: at s = 1e-100 the scalar call divides
        # by an s^4 that rounds to 0 (a pole); at s = 1e-80 it overflows instead
        e = catalog_get("heisenberg3")
        spec = MetricSpec.for_vector(phi_family("kropina"), e.v)
        Y = np.array([[1.0, 0.0, 2e-100], [1.0, 0.0, 2e-80]])
        rows = _s_rows(e.model, e.v, spec, Y, "generic")
        expect = [(SingularityError, "pole of phi (kropina) at s = 1e-100"),
                  (DomainError, "overflow of phi (kropina) at s = 1e-80")]
        for k, (kind, message) in enumerate(expect):
            with pytest.raises(kind) as info:
                s_curvature(e.model, e.v, spec, Y[k], path="generic")
            assert type(info.value) is kind and str(info.value) == message
            assert str(_row_error(rows, k, Y[k], "kropina")) == message


# ---------------------------------------------------------------------------
# validated mode
# ---------------------------------------------------------------------------

def _fresh_heisenberg():
    """A heisenberg3 model no other test has validated (the catalog is cached)."""
    st = StructureConstants.from_entries(3, {(0, 1, 2): 1.0})
    return build_model(st, 0, np.eye(3), [0.5, 0.0, 0.0])


class TestValidatedMode:
    @pytest.mark.parametrize("family", ["randers", "exponential"])
    def test_values_equal_formal(self, family, rng):
        e = catalog_get("heisenberg3")
        spec = spec_for(e, family)
        m, v = e.model, e.v
        Y = sample_in_domain(e, "exponential", 6, rng)
        closed = family in FAMILIES
        for y in Y:
            for _ in range(2):   # the first call fills the caches, the second reads them
                pairs = [
                    (s_curvature(m, v, spec, y, path="generic", mode=mode),
                     s_curvature_via_tensors(m, v, spec, y, mode=mode),
                     mean_berwald(m, v, spec, y, path="finite_difference", mode=mode))
                    + ((s_curvature(m, v, spec, y, mode=mode),
                        mean_berwald(m, v, spec, y, mode=mode)) if closed else ())
                    for mode in ("formal", "validated")]
                for formal, validated in zip(*pairs):
                    assert np.array_equal(formal, validated)
        for path in ("closed_form", "generic") if closed else ("generic",):
            formal = _s_rows(m, v, spec, Y, path)
            validated = _s_rows(m, v, spec, Y, path, mode="validated")
            assert np.array_equal(formal.S, validated.S)
            assert np.array_equal(formal.flag, validated.flag)

    def test_narrow_dip_is_refused(self):
        # the Shen criterion of this cubic dips to -1e-6 between grid points
        e = catalog_get("heisenberg3")
        spec = MetricSpec.for_vector(dip_profile(), e.v)
        y = np.array([1.0, 0.7, 0.4])
        assert np.isfinite(s_curvature(e.model, e.v, spec, y, path="generic"))
        with pytest.raises(ValidatedModeError, match="positivity criterion fails for custom"):
            s_curvature(e.model, e.v, spec, y, path="generic", mode="validated")

    def test_refusals_repeat_with_the_same_message(self):
        e = catalog_get("heisenberg3")
        y = np.array([1.0, 0.7, 0.4])
        broken = StructureConstants.from_entries(      # Jacobi fails, residual 1
            3, {(0, 1, 2): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0}, strict=False)
        bm, bv = build_model(broken, 0, np.eye(3), [0.5, 0.0, 0.0])
        cases = [(e.model, e.v, spec_for(e, "infinite_series"), "positivity criterion"),
                 (bm, bv, MetricSpec.for_vector(phi_family("exponential"), bv), "'jacobi'")]
        for model, v, spec, what in cases:
            messages = []
            for _ in range(3):
                with pytest.raises(ValidatedModeError, match=what) as info:
                    s_curvature(model, v, spec, y, path="generic", mode="validated")
                messages.append(str(info.value))
            with pytest.raises(ValidatedModeError) as info:
                _s_rows(model, v, spec, y[None, :], "generic", mode="validated")
            messages.append(str(info.value))
            assert len(set(messages)) == 1

    def test_v_is_checked_on_every_call(self):
        # rotation of the (e1, e2) plane in h; v_ok is fixed by it, v_bad is not
        st = StructureConstants.from_entries(4, {(0, 1, 2): 1.0, (0, 2, 1): -1.0})
        model, v_ok = build_model(st, 1, np.eye(3), [0.0, 0.0, 0.5])
        v_bad = InvariantVector.from_coords(model, [0.5, 0.0, 0.0])
        y = np.array([1.0, 0.7, 0.4])
        family = phi_family("exponential")
        spec_ok = MetricSpec.for_vector(family, v_ok)
        value = s_curvature(model, v_ok, spec_ok, y, path="generic", mode="validated")
        assert value == s_curvature(model, v_ok, spec_ok, y, path="generic")
        with pytest.raises(ValidatedModeError, match="'v_invariance'"):
            s_curvature(model, v_bad, MetricSpec.for_vector(family, v_bad), y,
                        path="generic", mode="validated")

    def test_checks_run_once_per_model_and_spec(self, monkeypatch):
        calls = {"jacobi": 0, "shen": 0}
        jacobi, shen = StructureConstants.jacobi_residual, metrics.shen_check

        def counting_jacobi(self):
            calls["jacobi"] += 1
            return jacobi(self)

        def counting_shen(*args, **kwargs):
            calls["shen"] += 1
            return shen(*args, **kwargs)

        monkeypatch.setattr(StructureConstants, "jacobi_residual", counting_jacobi)
        monkeypatch.setattr(metrics, "shen_check", counting_shen)
        model, v = _fresh_heisenberg()
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        y = np.array([1.0, 0.7, 0.4])
        for _ in range(100):
            s_curvature(model, v, spec, y, path="generic", mode="validated")
        assert calls == {"jacobi": 1, "shen": 1}
        # a rebuilt spec and a second model are each checked once more
        spec2 = MetricSpec.for_vector(phi_family("exponential"), v)
        model2, v2 = _fresh_heisenberg()
        for _ in range(50):
            s_curvature(model, v, spec2, y, path="generic", mode="validated")
            s_curvature(model2, v2, spec, y, mode="validated")
        assert calls == {"jacobi": 2, "shen": 2}

    def test_public_shen_check_is_not_cached(self):
        _, v = _fresh_heisenberg()
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        assert spec._shen is spec._shen
        assert metrics.shen_check(spec) is not metrics.shen_check(spec)
        assert metrics.shen_check(spec) == spec._shen
        assert "_shen" not in vars(dataclasses.replace(spec))


class TestSymbolicOracle:
    @pytest.mark.parametrize("family,s_ranges", [
        ("infinite_series", [(-2.0, -0.2), (0.2, 3.0)]),
        ("exponential", [(-2.0, 0.9)]),
        ("randers", [(-0.9, 2.0)]),
        ("kropina", [(-2.0, -0.2), (0.2, 2.0)]),
        ("matsumoto", [(-2.0, 0.4), (0.6, 0.95)]),
        ("polynomial", [(-0.9, 2.0)]),      # Q's denominator 1 - s^2/4 + s^3/4 > 0.9 there
    ])
    def test_rational_forms_match_sympy(self, family, s_ranges):
        # Q ... W'' derived from phi by sympy, evaluated with 30 digits
        s, b, n = sympy.symbols("s b n")
        poly = sum(sympy.nsimplify(c) * s**k for k, c in enumerate(_POLY))
        phi = {"randers": 1 + s, "kropina": 1 / s, "matsumoto": 1 / (1 - s),
               "infinite_series": s**2 / (s - 1), "exponential": sympy.exp(s),
               "polynomial": poly}[family]
        q = sympy.simplify(sympy.diff(phi, s) / (phi - s * sympy.diff(phi, s)))
        qp, qpp = sympy.diff(q, s), sympy.diff(q, s, 2)
        delta = 1 + s * q + (b**2 - s**2) * qp
        big_phi = (-(q - s * qp) * (n * delta + 1 + s * q)
                   - (b**2 - s**2) * (1 + s * q) * qpp)
        w = big_phi / (2 * delta**2)
        exact = sympy.lambdify((s, b, n), [q, qp, qpp, delta, big_phi, w,
                                           sympy.diff(w, s), sympy.diff(w, s, 2)],
                               "mpmath")
        fam = PhiFamily.polynomial(_POLY) if family == "polynomial" else phi_family(family)
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 60:
            lo, hi = s_ranges[rng.integers(len(s_ranges))]
            sv, bv = float(rng.uniform(lo, hi)), float(rng.uniform(0.05, 0.95))
            nv = int(rng.integers(2, 13))
            with mpmath.workdps(30):
                ref = [float(x) for x in exact(mpmath.mpf(sv), mpmath.mpf(bv), nv)]
            if abs(ref[3]) < 0.05:
                continue  # keep clear of Delta = 0, where W is ill-conditioned
            forms = _rational_forms(fam.exact, bv, nv)
            got = [*curvature._closed_coefficients(forms, sv, fam.name),
                   *_w_derivs(*forms.values_at(sv)[4:], sv)]
            # relative, on a scale floored at 1 where a value crosses zero
            for name, g, r in zip(("Q", "Q'", "Q''", "Delta", "Phi", "W", "W'", "W''"),
                                  got, ref):
                assert abs(g - r) <= 1e-12 * max(abs(r), 1.0), (family, name, sv, bv, nv)
            checked += 1
        if family in FAMILIES:      # the public closed coefficients are the same numbers
            public = {"infinite_series": coefficients_infinite_series,
                      "exponential": coefficients_exponential}[family](sv, bv, nv)
            assert dataclasses.astuple(public)[3:] == tuple(got[:5])


# ---------------------------------------------------------------------------
# transcription audit
# ---------------------------------------------------------------------------

class TestTranscriptionAudit:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_first_derivative_tables_match(self, family):
        audit = transcription_audit(family)
        assert audit.first_matches

    @pytest.mark.parametrize("family", FAMILIES)
    def test_second_derivative_tables_are_known_bad(self, family):
        # the pre-expanded second-derivative tables carry expansion slips;
        # the quotient-rule forms win (documented in the README)
        audit = transcription_audit(family)
        assert not audit.second_matches
        assert audit.max_rel_second > 1e-4


# ---------------------------------------------------------------------------
# isotropy
# ---------------------------------------------------------------------------

def loop_unit_directions(n, count, rng):
    """unit_directions as one draw and one norm per row (the reference)."""
    out = np.empty((count, n))
    k = 0
    while k < count:
        z = rng.standard_normal(n)
        nrm = float(np.linalg.norm(z))
        if nrm < 1e-12:
            continue
        out[k] = z / nrm
        k += 1
    return out


class _Stream:
    """A generator stub that hands out a fixed sequence of normal draws."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.pos = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.pos:self.pos + count]
        self.pos += count
        return out.reshape(size)


class TestUnitDirections:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 16])
    def test_matches_one_row_at_a_time(self, n):
        for seed in range(3):
            for count in (0, 1, 9, 500):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                out = unit_directions(n, count, rng)
                assert out.shape == (count, n)
                assert np.array_equal(out, loop_unit_directions(n, count, ref_rng))
                # the same number of draws was consumed
                assert rng.standard_normal() == ref_rng.standard_normal()

    def test_zero_rows_are_redrawn_in_order(self):
        n, count = 3, 4
        draws = np.random.default_rng(2).standard_normal(3 * n * count)
        draws[n:2 * n] = 0.0                    # row 1 is rejected
        draws[3 * n:4 * n] = 1e-13              # and so is row 3 (norm below 1e-12)
        out, ref = _Stream(draws), _Stream(draws)
        got = unit_directions(n, count, out)
        assert np.array_equal(got, loop_unit_directions(n, count, ref))
        assert out.pos == ref.pos == 6 * n
        assert np.array_equal(got[1], draws[2 * n:3 * n] / np.linalg.norm(draws[2 * n:3 * n]))


class TestIsotropy:
    @pytest.mark.parametrize("name", ["abelian3", "heisenberg_central_v", "su2_like"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_vanishing_spaces(self, name, family):
        e = catalog_get(name)
        report = isotropy_test(e.model, e.v, spec_for(e, family), 25)
        assert report.isotropic
        assert abs(report.c_h) <= 1e-10
        assert report.vanishing

    @pytest.mark.parametrize("name", ["solvable2", "heisenberg3"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_non_isotropic_spaces(self, name, family):
        e = catalog_get(name)
        report = isotropy_test(e.model, e.v, spec_for(e, family), 40)
        assert not report.isotropic
        assert not report.vanishing

    def test_sample_floor(self):
        e = catalog_get("heisenberg3")
        with pytest.raises(ValueError, match="n \\+ 1"):
            isotropy_test(e.model, e.v, spec_for(e, "exponential"), 3)

    @pytest.mark.parametrize("family", ["exponential", "infinite_series", "half_pole"])
    @pytest.mark.parametrize("name", ["heisenberg3", "solvable2"])
    def test_matches_one_direction_at_a_time(self, name, family):
        # the loop that drew and evaluated one direction per attempt is the
        # reference; "half_pole" rejects every direction with s <= 0
        e = catalog_get(name)
        spec = spec_for(e, family) if family != "half_pole" else MetricSpec.for_vector(
            PhiFamily.custom(lambda s: 1.0 / max(s, 0.0), lambda s: -1.0 / max(s, 0.0) ** 2,
                             lambda s: 2.0 / max(s, 0.0) ** 3, lambda s: -6.0 / max(s, 0.0) ** 4),
            e.v)
        n, count, seed = e.model.m_dim, 60, 9
        rng = np.random.default_rng(seed)
        s_vals, f_vals = [], []
        while len(s_vals) < count:
            y = unit_directions(n, 1, rng)[0]
            try:
                s_val = s_curvature(e.model, e.v, spec, y, path="generic")
                f_val = spec.phi.phi(e.v.c * float(y[-1]))
            except (SingularityError, ZeroDivisionError):
                continue
            s_vals.append(s_val)
            f_vals.append(f_val)
        s_arr, f_arr = np.array(s_vals), np.array(f_vals)
        c_ref = float(s_arr @ f_arr) / ((n + 1) * float(f_arr @ f_arr))
        res_ref = float(np.max(np.abs(s_arr - (n + 1) * c_ref * f_arr)))
        report = isotropy_test(e.model, e.v, spec, count, seed=seed)
        assert report.samples_used == count
        assert abs(report.c_h - c_ref) <= 1e-12
        assert abs(report.residual - res_ref) <= 1e-12

    def test_attempt_limit(self):
        e = catalog_get("heisenberg3")
        always_pole = PhiFamily.custom(lambda s: 1.0 / 0.0, lambda s: 0.0,
                                       lambda s: 0.0, lambda s: 0.0)
        with pytest.raises(DomainError, match="degenerate sample set"):
            isotropy_test(e.model, e.v, MetricSpec.for_vector(always_pole, e.v), 4)

    def test_deterministic(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        r1 = isotropy_test(e.model, e.v, spec, 30, seed=5)
        r2 = isotropy_test(e.model, e.v, spec, 30, seed=5)
        assert r1 == r2
