import math
import struct
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIP_B, dip_profile

from homfinsler import (
    DomainError,
    MetricSpec,
    PhiFamily,
    QuadratureError,
    SingularityError,
    ValidatedModeError,
    catalog_get,
    coefficients_generic,
    finsler_norm,
    phi_family,
    shen_check,
    volume_coefficient,
)

ALL_FAMILIES = ("randers", "kropina", "matsumoto", "infinite_series", "exponential")

# interior sampling intervals avoiding each family's poles
_SAMPLE_RANGES = {
    "randers": [(-0.9, 3.0)],
    "kropina": [(0.15, 3.0)],
    "matsumoto": [(-2.0, 0.85)],
    "infinite_series": [(-3.0, -0.2), (1.2, 4.0)],
    "exponential": [(-2.0, 2.0)],
}


def _sample_points(family, count=50):
    ranges = _SAMPLE_RANGES[family]
    per = count // len(ranges) + 1
    pts = np.concatenate([np.linspace(lo, hi, per) for lo, hi in ranges])
    return pts[:count]


# poles of each profile; the finite-difference step shrinks near them to
# keep the truncation error (driven by higher derivatives) under control
_POLES = {
    "randers": (),
    "kropina": (0.0,),
    "matsumoto": (1.0,),
    "infinite_series": (1.0,),
    "exponential": (),
}


def _step(family, s):
    dist = min((abs(s - p) for p in _POLES[family]), default=4.0)
    return min(0.005 * dist, 0.02)


def _richardson_d1(f, s, h):
    def d(hh):
        return (f(s + hh) - f(s - hh)) / (2.0 * hh)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def _richardson_d2(f, s, h):
    def d(hh):
        return (f(s + hh) - 2.0 * f(s) + f(s - hh)) / hh**2
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def _richardson_d3(f, s, h):
    def d(hh):
        return (f(s + 2 * hh) - 2 * f(s + hh) + 2 * f(s - hh) - f(s - 2 * hh)) / (2 * hh**3)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


class TestPhiFamilies:
    def test_spot_values(self):
        assert phi_family("infinite_series").phi(2.0) == pytest.approx(4.0)
        assert phi_family("exponential").phi(0.0) == 1.0
        assert phi_family("randers").phi(0.25) == 1.25
        assert phi_family("kropina").phi(0.5) == 2.0
        assert phi_family("matsumoto").phi(0.5) == 2.0

    def test_unknown_family(self):
        for name in ("nope", ["x"]):
            with pytest.raises(KeyError, match="built-ins"):
                phi_family(name)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_derivatives_match_finite_differences(self, family):
        phi = phi_family(family)
        for s in _sample_points(family):
            h = _step(family, s)
            for analytic, fd in ((phi.dphi, _richardson_d1),
                                 (phi.d2phi, _richardson_d2),
                                 (phi.d3phi, _richardson_d3)):
                a = analytic(s)
                approx = fd(phi.phi, s, h)
                assert abs(approx - a) <= 1e-7 * (1.0 + abs(a)), (family, s)

    def test_polynomial_family_matches_randers(self):
        poly = PhiFamily.polynomial([1.0, 1.0])
        randers = phi_family("randers")
        for s in np.linspace(-0.9, 2.0, 20):
            assert poly.phi(s) == pytest.approx(randers.phi(s))
            assert poly.dphi(s) == pytest.approx(randers.dphi(s))
            assert poly.d2phi(s) == 0.0
            assert poly.d3phi(s) == 0.0
        assert poly.in_domain(0.5)
        assert not poly.in_domain(-2.0)  # phi < 0 there

    def test_polynomial_rejects_empty(self):
        for coeffs in ([], [math.nan, 1.0, 1.0], [1.0, math.inf, 1.0], {"a": 1}, ["x"],
                       [[1.0], [1.0, 2.0]]):
            with pytest.raises(ValueError, match="non-empty 1-d sequence of finite numbers"):
                PhiFamily.polynomial(coeffs)

    def test_custom_requires_no_autodiff(self):
        fam = PhiFamily.custom(lambda s: 1.0, lambda s: 0.0,
                               lambda s: 0.0, lambda s: 0.0)
        assert fam.phi(3.0) == 1.0
        assert fam.in_domain(123.0)


class TestMetricSpec:
    def test_for_vector_uses_v_length(self):
        entry = catalog_get("solvable2")
        spec = MetricSpec.for_vector(phi_family("randers"), entry.v)
        assert spec.b == 0.5

    def test_for_vector_rejects_long_v(self):
        entry = catalog_get("solvable2")

        class FakeV:
            b = 1.2

        with pytest.raises(ValueError, match="< 1"):
            MetricSpec.for_vector(phi_family("randers"), FakeV())
        del entry

    def test_negative_b_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec(phi_family("randers"), -0.1)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf, -0.1])
    def test_b_must_be_finite_and_nonnegative(self, b):
        # a NaN passed the old b < 0 test, and an infinite b made shen_check's
        # grid warn
        with pytest.raises(ValueError, match=f"b must be finite and nonnegative, got {b}"):
            MetricSpec(phi_family("randers"), b)

        class NanV:
            b = math.nan

        with pytest.raises(ValueError, match="b must be finite"):
            MetricSpec.for_vector(phi_family("randers"), NanV())


class TestFinslerNorm:
    def test_spot_values(self):
        assert finsler_norm(MetricSpec(phi_family("exponential"), 0.5), 1.0, 0.0) == 1.0
        assert finsler_norm(MetricSpec(phi_family("randers"), 0.5), 2.0, 0.5) == 2.5
        assert finsler_norm(MetricSpec(phi_family("infinite_series"), 0.5), 1.0, 2.0) \
            == pytest.approx(4.0)

    def test_domain_errors(self):
        spec = MetricSpec(phi_family("infinite_series"), 0.5)
        with pytest.raises(DomainError, match="outside domain"):
            finsler_norm(spec, 1.0, 0.5)  # s in (0, 1): phi < 0
        with pytest.raises(DomainError, match="alpha"):
            finsler_norm(spec, 0.0, 2.0)

    def test_overflow_is_a_domain_error(self):
        spec = MetricSpec(phi_family("exponential"), 0.5)
        with pytest.raises(DomainError) as info:
            finsler_norm(spec, 1.0, 1000.0)
        assert str(info.value) == "overflow of phi (exponential) at s = 1000"
        callables = MetricSpec(PhiFamily.custom(math.exp, math.exp, math.exp, math.exp), 0.5)
        with pytest.raises(DomainError, match="overflow of phi \\(custom\\) at s = 1000"):
            finsler_norm(callables, 1.0, 1000.0)

    def test_pole_of_callables_is_a_domain_error(self):
        # phi = 1/s as callables raises ZeroDivisionError at s = 0, where the
        # exact Kropina is outside its domain; both give the same DomainError
        kropina = PhiFamily.custom(lambda s: 1.0 / s, lambda s: -1.0 / (s * s),
                                   lambda s: 2.0 / (s * s * s), lambda s: -6.0 / (s * s * s * s))
        for phi, name in ((kropina, "custom"), (phi_family("kropina"), "kropina")):
            with pytest.raises(DomainError) as info:
                finsler_norm(MetricSpec(phi, 0.5), 1.0, 0.0)
            assert str(info.value) == (f"s = 0 outside domain of {name} "
                                       "(phi > 0 and phi - s*phi' != 0)")
            assert not phi.in_domain(0.0)
        assert finsler_norm(MetricSpec(kropina, 0.5), 1.0, 0.5) == 2.0

    @settings(deadline=None, max_examples=100)
    @given(lam=st.floats(1e-3, 1e3), alpha=st.floats(0.1, 10.0),
           ratio=st.floats(-0.89, 0.89))
    @pytest.mark.parametrize("family", ["randers", "exponential"])
    def test_homogeneity(self, family, lam, alpha, ratio):
        spec = MetricSpec(phi_family(family), 0.9)
        beta = ratio * alpha
        f1 = finsler_norm(spec, lam * alpha, lam * beta)
        f0 = finsler_norm(spec, alpha, beta)
        assert abs(f1 - lam * f0) <= 1e-12 * max(1.0, abs(lam * f0))


class TestShenCheck:
    @pytest.mark.parametrize("b", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_randers_always_holds(self, b):
        report = shen_check(MetricSpec(phi_family("randers"), b))
        assert report.holds
        assert report.min_value == pytest.approx(1.0, abs=1e-14)

    def test_exponential_b_half(self):
        report = shen_check(MetricSpec(phi_family("exponential"), 0.5))
        assert report.holds
        # the expression e^s (1 - s + b^2 - s^2) is minimized at the s = b endpoint
        assert report.argmin_s == pytest.approx(0.5)
        assert report.min_value == pytest.approx(0.5 * math.exp(0.5), rel=1e-12)

    def test_infinite_series_fails_at_zero(self):
        spec = MetricSpec(phi_family("infinite_series"), 0.5)
        coarse = shen_check(spec, samples=3)  # grid {-b, 0, b}
        assert not coarse.holds
        assert coarse.argmin_s == 0.0
        assert coarse.min_value == pytest.approx(-2 * 0.5**2, abs=1e-12)
        fine = shen_check(spec, samples=201)
        assert not fine.holds
        assert fine.min_value < 0.0

    def test_kropina_singularity_recorded_not_raised(self):
        report = shen_check(MetricSpec(phi_family("kropina"), 0.3))
        assert not report.holds
        assert 0.0 in report.singular_points

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            shen_check(MetricSpec(phi_family("randers"), 0.5), samples=2)

    def test_overflowing_callables_are_singular_points(self):
        # math.exp overflows past s = 709.78, and the criterion e^s (1 - s + b^2 - s^2)
        # from s = 704 on the grid: those points are recorded, not raised
        phi = PhiFamily.custom(math.exp, math.exp, math.exp, math.exp)
        report = shen_check(MetricSpec(phi, 800.0))
        assert not report.holds
        assert report.singular_points == tuple(np.arange(704.0, 801.0, 8.0).tolist())
        assert np.isnan(phi.phi(np.array([0.0, 800.0]))).tolist() == [False, True]
        with pytest.raises(OverflowError):      # a float still reaches the callable
            phi.phi(800.0)

    def test_narrow_dip_between_grid_points(self):
        # the criterion of this cubic is -1e-6 at s = 0.0025 and positive on
        # every point of the 201-point grid; its roots locate the dip
        report = shen_check(MetricSpec(dip_profile(), DIP_B))
        assert not report.holds
        assert report.min_value == pytest.approx(-1.0e-6, rel=1e-3)
        assert report.argmin_s == pytest.approx(0.0025, rel=1e-3)
        assert report.singular_points == ()

    def test_dip_refuses_validated_volume(self):
        with pytest.raises(ValidatedModeError, match="positivity criterion min -9.99"):
            volume_coefficient(dip_profile(), DIP_B, 3, "bh", mode="validated")
        assert volume_coefficient(dip_profile(), DIP_B, 3, "bh") > 0.0

    @pytest.mark.parametrize("b", np.linspace(0.0, 0.99, 34).tolist() + [0.4999, 0.5, 0.5001])
    def test_matsumoto_holds_iff_b_below_one_half(self, b):
        # G = 1 - 3s + 2b^2 has its root (1 + 2b^2)/3 in [-b, b] iff b >= 1/2
        assert shen_check(MetricSpec(phi_family("matsumoto"), b)).holds == (b < 0.5)


# ---------------------------------------------------------------------------
# the float-or-array evaluator contract
# ---------------------------------------------------------------------------

# The scalar evaluators as plain float formulas, each integer power a
# product multiplied left to right, each polynomial in Horner form (the
# infinite series' phi' numerator is (s - 2) s, no longer s s - 2 s).
_SCALAR_REFERENCE = {
    "randers": (lambda s: 1.0 + s, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0),
    "kropina": (lambda s: 1.0 / s, lambda s: -1.0 / (s * s), lambda s: 2.0 / (s * s * s),
                lambda s: -6.0 / (s * s * s * s)),
    "matsumoto": (lambda s: 1.0 / (1.0 - s),
                  lambda s: 1.0 / ((1.0 - s) * (1.0 - s)),
                  lambda s: 2.0 / ((1.0 - s) * (1.0 - s) * (1.0 - s)),
                  lambda s: 6.0 / ((1.0 - s) * (1.0 - s) * (1.0 - s) * (1.0 - s))),
    "infinite_series": (lambda s: s * s / (s - 1.0),
                        lambda s: (s - 2.0) * s / ((s - 1.0) * (s - 1.0)),
                        lambda s: 2.0 / ((s - 1.0) * (s - 1.0) * (s - 1.0)),
                        lambda s: -6.0 / ((s - 1.0) * (s - 1.0) * (s - 1.0) * (s - 1.0))),
    "exponential": (math.exp,) * 4,
}
_POLY = [0.7, -0.3, 0.25, 0.125, -0.05]


def _numpy_polynomial(coeffs):
    """The polynomial evaluators as np.polynomial.Polynomial calls."""
    polys = [np.polynomial.Polynomial(coeffs)]
    for _ in range(3):
        polys.append(polys[-1].deriv())
    return tuple((lambda s, p=p: float(p(s))) for p in polys)


def _contract_cases():
    cases = [pytest.param(phi_family(fam), _SCALAR_REFERENCE[fam], _sample_points(fam, 60),
                          id=fam)
             for fam in ALL_FAMILIES]
    for k, coeffs in enumerate((_POLY, [1.0], [1.0, 1.0])):
        cases.append(pytest.param(PhiFamily.polynomial(coeffs), _numpy_polynomial(coeffs),
                                  np.linspace(-3.0, 3.0, 61), id=f"polynomial{k}"))
    return cases


def _evaluators(fam):
    return (fam.phi, fam.dphi, fam.d2phi, fam.d3phi)


def _bits(x):
    return struct.pack("<d", x)


def _old_shen_check(spec, samples=201):
    """shen_check as the per-point loop it was before the array pass."""
    b = spec.b
    grid = np.linspace(-b, b, samples)
    if not np.any(grid == 0.0):
        grid = np.sort(np.append(grid, 0.0))
    phi = spec.phi
    best_val = math.inf
    best_s = float(grid[0])
    positive_ok = True
    singular = []
    for s in map(float, grid):
        try:
            p = phi.phi(s)
            expr = p - s * phi.dphi(s) + (b * b - s * s) * phi.d2phi(s)
        except ZeroDivisionError:
            singular.append(s)
            continue
        if not (math.isfinite(p) and math.isfinite(expr)):
            singular.append(s)
            continue
        if p <= 0.0:
            positive_ok = False
        if expr < best_val:
            best_val = expr
            best_s = s
    holds = positive_ok and not singular and best_val > 0.0
    return holds, float(best_val), best_s, tuple(singular)


class TestEvaluatorContract:
    @pytest.mark.parametrize("fam, reference, points", _contract_cases())
    def test_scalar_values_unchanged(self, fam, reference, points):
        for s in points.tolist():
            for new, old in zip(_evaluators(fam), reference):
                for x in (s, np.float64(s)):
                    got = new(x)
                    assert isinstance(got, float), x
                    assert _bits(got) == _bits(old(x)), x

    @pytest.mark.parametrize("fam, reference, points", _contract_cases())
    def test_array_values_within_two_ulp(self, fam, reference, points):
        # exact for every profile but the exponential, whose arrays take numpy's exp
        for new in _evaluators(fam):
            got = np.broadcast_to(new(points), points.shape)
            want = np.array([new(s) for s in points.tolist()])
            if fam.name == "exponential":
                assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("b", [0.0, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("family", ALL_FAMILIES + ("polynomial",))
    def test_shen_check_matches_pointwise_loop(self, family, b):
        phi = PhiFamily.polynomial(_POLY) if family == "polynomial" else phi_family(family)
        spec = MetricSpec(phi, b)
        holds, min_value, argmin_s, singular = _old_shen_check(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = shen_check(spec)
        assert report.holds == holds
        assert report.argmin_s == argmin_s
        assert report.singular_points == singular
        if math.isinf(min_value):
            assert report.min_value == min_value
        else:
            assert abs(report.min_value - min_value) <= 1e-15 * abs(min_value)
        if family == "kropina":  # the pole s = 0 lies on every grid
            assert 0.0 in report.singular_points and not report.holds

    def test_custom_scalar_only_callables(self):
        # max() cannot take an array; on [-b, b] this is the Randers profile
        kinked = PhiFamily.custom(lambda s: 1.0 + max(s, -2.0),
                                  lambda s: 1.0 if s > -2.0 else 0.0,
                                  lambda s: 0.0, lambda s: 0.0)
        randers = phi_family("randers")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in ("bh", "ht"):
                assert volume_coefficient(kinked, 0.5, 3, form) \
                    == volume_coefficient(randers, 0.5, 3, form)
            assert shen_check(MetricSpec(kinked, 0.5)) == shen_check(MetricSpec(randers, 0.5))
            assert kinked.phi(np.array([[-3.0], [0.5]])).tolist() == [[-1.0], [1.5]]

    def test_custom_pole_reads_nan_on_arrays(self):
        def phi(s):
            return 1.0 / 0.0 if s < 0.0 else 1.0 + s

        fam = PhiFamily.custom(phi, lambda s: 1.0, lambda s: 0.0, lambda s: 0.0)
        got = fam.phi(np.array([-0.5, 0.5]))
        assert math.isnan(got[0]) and got[1] == 1.5
        with pytest.raises(ZeroDivisionError):
            fam.phi(-0.5)
        with pytest.raises(SingularityError, match="pole"):
            coefficients_generic(fam, -0.25, 0.5, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = shen_check(MetricSpec(fam, 0.5))
            assert not report.holds
            assert report.singular_points == tuple(np.linspace(-0.5, 0.5, 201)[:100])
            assert report.argmin_s >= 0.0
            with pytest.raises(QuadratureError, match="not finite"):
                volume_coefficient(fam, 0.5, 3, "bh")
            with pytest.raises(ValidatedModeError):
                volume_coefficient(fam, 0.5, 3, "ht", mode="validated")


# ---------------------------------------------------------------------------
# exact profiles
# ---------------------------------------------------------------------------

def _sympy_phi(s):
    return {"randers": 1 + s, "kropina": 1 / s, "matsumoto": 1 / (1 - s),
            "infinite_series": s**2 / (s - 1), "exponential": sympy.exp(s)}


# The hand-written domain tests that the derived ones replace.
_OLD_IN_DOMAIN = {
    "randers": lambda s: s > -1.0,
    "kropina": lambda s: s > 0.0,
    "matsumoto": lambda s: s < 1.0 and s != 0.5,
    "infinite_series": lambda s: s > 1.0,
    "exponential": lambda s: s != 1.0,
}


class TestExactProfiles:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_derived_evaluators_match_sympy(self, family):
        s = sympy.Symbol("s")
        derivs = sympy.lambdify(s, [sympy.diff(_sympy_phi(s)[family], s, j) for j in range(4)],
                                "mpmath")
        fam = phi_family(family)
        for x in _sample_points(family, 60).tolist():
            with mpmath.workdps(30):
                ref = [float(v) for v in derivs(mpmath.mpf(x))]
            for f, r in zip(_evaluators(fam), ref):
                assert abs(f(x) - r) <= 1e-14 * max(abs(r), 1.0), (family, x)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_derived_domain_equals_the_old_lambda(self, family):
        poles = [-1.0, 0.0, 0.5, 1.0, 2.0]
        grid = np.concatenate([np.linspace(-3.0, 3.0, 601), poles,
                               np.nextafter(poles, -np.inf), np.nextafter(poles, np.inf),
                               [-1e-300, 1e-300, -1e300, 1e300]])
        fam = phi_family(family)
        for x in grid.tolist():
            assert fam.in_domain(x) == _OLD_IN_DOMAIN[family](x), (family, x)

    def test_one_declaration_gives_one_object(self):
        assert phi_family("matsumoto") is phi_family("matsumoto")
        assert PhiFamily.polynomial([1.0, 2.0]).exact is PhiFamily.polynomial((1, 2)).exact
        assert PhiFamily.custom(math.exp, math.exp, math.exp, math.exp).exact is None

    @pytest.mark.parametrize("family,q", [
        ("randers", ((1.0,), (1.0,))),
        ("kropina", ((-1.0,), (0.0, 2.0))),
        ("matsumoto", ((1.0,), (1.0, -2.0))),
        ("infinite_series", ((-2.0, 1.0), (0.0, 1.0))),      # s(s - 2)/s^2, s cancelled
        ("exponential", ((1.0,), (1.0, -1.0))),
    ])
    def test_derived_q(self, family, q):
        assert phi_family(family).exact.Q == q

    def test_polynomial_q(self):
        # phi - s phi' = sum (1 - k) c_k s^k: no linear term, and none at all for c0 + c1 s
        assert PhiFamily.polynomial([0.0, 1.0]).exact.Q is None
        assert PhiFamily.polynomial([2.0, 1.0]).exact.Q == ((1.0,), (2.0,))
        assert PhiFamily.polynomial([0.0, 0.0, 1.0]).exact.Q == ((2.0,), (0.0, -1.0))   # -2/s
