import mpmath
import numpy as np
import pytest
import sympy

from conftest import FAMILIES, sample_in_domain, spec_for

from homfinsler import (
    CoefficientBundle,
    DomainError,
    MetricSpec,
    PhiFamily,
    SingularityError,
    berwald_workspace,
    catalog_get,
    coefficients_exponential,
    coefficients_generic,
    coefficients_infinite_series,
    curvature_sample,
    isotropy_test,
    mean_berwald,
    phi_family,
    s_curvature,
    s_curvature_via_tensors,
    transcription_audit,
)
from homfinsler import curvature
from homfinsler.curvature import _factor_derivs, _row_error, _s_rows, unit_directions

ALL_FAMILIES = ("randers", "kropina", "matsumoto", "infinite_series", "exponential")

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
        assert c.psi == pytest.approx(0.5 / (2 * -0.875))

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

    def test_phi_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = float(rng.uniform(1.2, 4.0))
            b = float(rng.uniform(0.1, 0.9))
            n = int(rng.integers(2, 9))
            for c in (coefficients_infinite_series(s, b, n),
                      coefficients_exponential(0.5 * b * s / 4.0, b, n)):
                assert abs(c.recompute_phi() - c.Phi) <= 1e-10 * (1.0 + abs(c.Phi))

    def test_singularities(self):
        with pytest.raises(SingularityError, match="s = 0"):
            coefficients_infinite_series(0.0, 0.5, 3)
        with pytest.raises(SingularityError, match="s = 1"):
            coefficients_exponential(1.0, 0.5, 3)
        with pytest.raises(SingularityError, match="phi - s"):
            coefficients_generic(phi_family("matsumoto"), 0.5, 0.6, 3)

    def test_psi_singularity(self):
        c = CoefficientBundle(s=1.0, b=0.5, n=2, Q=1.0, Qp=1.0, Qpp=1.0,
                              Delta=0.0, Phi=1.0)
        with pytest.raises(SingularityError, match="psi"):
            c.psi


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
        with pytest.raises(ValueError, match="path"):
            s_curvature(e.model, e.v, spec, [1.0, 1.0], path="nope")

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
                     lambda: mean_berwald(e.model, e.v, spec, y, path="finite_difference"),
                     lambda: berwald_workspace(e.model, e.v, spec, y)):
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
        spec = MetricSpec.for_vector(phi_family("randers"), e.v)
        with pytest.raises(ValueError, match="closed-form"):
            s_curvature(e.model, e.v, spec, [1.0, 0.5], path="closed_form")
        # generic path still works
        s_curvature(e.model, e.v, spec, [1.0, 0.5], path="generic")

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
# Berwald workspace and mean Berwald curvature
# ---------------------------------------------------------------------------

class TestBerwaldWorkspace:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_euler_identity(self, family, rng):
        e = catalog_get("heisenberg3")
        spec = spec_for(e, family)
        for y in sample_in_domain(e, family, 20, rng):
            ws = berwald_workspace(e.model, e.v, spec, y)
            assert abs(float(ws.s_y @ y)) <= 1e-12 * (1.0 + abs(ws.s))
            assert np.max(np.abs(ws.s_yy - ws.s_yy.T)) == 0.0

    def test_s_y_vanishes_at_v(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        vf = e.v.frame_coords(e.model)
        ws = berwald_workspace(e.model, e.v, spec, vf)
        assert np.max(np.abs(ws.s_y)) == 0.0
        assert ws.s == e.v.b

    def test_rejects_family_without_factor(self):
        e = catalog_get("solvable2")
        spec = MetricSpec.for_vector(phi_family("randers"), e.v)
        with pytest.raises(ValueError, match="closed-form"):
            berwald_workspace(e.model, e.v, spec, [1.0, 0.5])

    @pytest.mark.parametrize("family,s_ranges", [
        # ranges keep clear of the zeros of the factor denominator at b = 0.5
        ("infinite_series", [(-2.0, -0.6), (1.3, 2.4)]),
        ("exponential", [(-0.8, 0.5)]),
    ])
    def test_factor_derivatives_match_finite_differences(self, family, s_ranges):
        # the analytic dW/ds, d2W/ds2 against Richardson differences of W
        b, n = 0.5, 3

        def w_of(s):
            return _factor_derivs(family, s, b, n)[0]

        pts = np.concatenate([np.linspace(lo, hi, 25) for lo, hi in s_ranges])
        for s in pts:
            _, dw, d2w = _factor_derivs(family, float(s), b, n)
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

    def test_step_underflow(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        with pytest.raises(DomainError, match="underflow"):
            mean_berwald(e.model, e.v, spec, [1.0, 0.3],
                         path="finite_difference", step=-1.0)

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


# ---------------------------------------------------------------------------
# the block kernel
# ---------------------------------------------------------------------------

def _scalar_or_error(model, v, spec, y, path):
    try:
        return s_curvature(model, v, spec, y, path=path), None
    except DomainError as exc:
        return None, exc


class TestBlockKernel:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("name", ["heisenberg3", "solvable2", "su2_like"])
    def test_rows_match_scalar(self, name, family, rng):
        e = catalog_get(name)
        n = e.model.m_dim
        spec = spec_for(e, family)
        vf = e.v.frame_coords(e.model)
        Y = np.vstack([rng.standard_normal((40, n)) * rng.uniform(0.1, 3.0, (40, 1)),
                       vf, np.eye(n), np.zeros(n)])        # y = v, s = 0 rows, y = 0
        paths = ("closed_form", "generic") if family in FAMILIES else ("generic",)
        for path in paths:
            rows = _s_rows(e.model, e.v, spec, Y, path)
            for k, y in enumerate(Y):
                ref, exc = _scalar_or_error(e.model, e.v, spec, y, path)
                if exc is None:
                    assert rows.flag[k] == 0
                    assert abs(rows.S[k] - ref) <= 1e-13 * (1.0 + abs(ref)), (path, y)
                else:
                    assert rows.flag[k] > 0 and np.isnan(rows.S[k])
                    err = _row_error(rows, k, y, family)
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


class TestCurvatureSample:
    def test_closed_tag(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        sample = curvature_sample(e.model, e.v, spec, [1.0, 0.3])
        assert sample.path == "closed_form"
        assert sample.S == pytest.approx(S_SOLV_EXP, rel=1e-12)
        assert sample.E.shape == (2, 2)

    def test_oracle_tag(self):
        e = catalog_get("solvable2")
        spec = spec_for(e, "exponential")
        sample = curvature_sample(e.model, e.v, spec, [1.0, 0.3],
                                  path="finite_difference")
        assert sample.path == "finite_difference"
        assert np.max(np.abs(sample.E - E_SOLV_EXP)) <= 1e-5


class TestSymbolicOracle:
    @pytest.mark.parametrize("family,s_ranges", [
        ("infinite_series", [(-2.0, -0.2), (0.2, 3.0)]),
        ("exponential", [(-2.0, 0.9)]),
    ])
    def test_rational_forms_match_sympy(self, family, s_ranges):
        # Q ... W'' derived from phi by sympy, evaluated with 30 digits
        s, b, n = sympy.symbols("s b n")
        phi = {"infinite_series": s**2 / (s - 1), "exponential": sympy.exp(s)}[family]
        q = sympy.simplify(sympy.diff(phi, s) / (phi - s * sympy.diff(phi, s)))
        qp, qpp = sympy.diff(q, s), sympy.diff(q, s, 2)
        delta = 1 + s * q + (b**2 - s**2) * qp
        big_phi = (-(q - s * qp) * (n * delta + 1 + s * q)
                   - (b**2 - s**2) * (1 + s * q) * qpp)
        w = big_phi / (2 * delta**2)
        exact = sympy.lambdify((s, b, n), [q, qp, qpp, delta, big_phi, w,
                                           sympy.diff(w, s), sympy.diff(w, s, 2)],
                               "mpmath")
        closed = {"infinite_series": coefficients_infinite_series,
                  "exponential": coefficients_exponential}[family]
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
            c = closed(sv, bv, nv)
            got = [c.Q, c.Qp, c.Qpp, c.Delta, c.Phi, *_factor_derivs(family, sv, bv, nv)]
            # relative, on a scale floored at 1 where a value crosses zero
            for name, g, r in zip(("Q", "Q'", "Q''", "Delta", "Phi", "W", "W'", "W''"),
                                  got, ref):
                assert abs(g - r) <= 1e-12 * max(abs(r), 1.0), (family, name, sv, bv, nv)
            checked += 1


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
