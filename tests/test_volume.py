import math
import warnings

import mpmath
import numpy as np
import pytest

from homfinsler import (
    PhiFamily,
    QuadratureError,
    ValidatedModeError,
    phi_family,
    t_function,
    volume_coefficient,
)
from homfinsler.volume import _gegenbauer_rule

RIEMANNIAN = PhiFamily.custom(lambda s: 1.0, lambda s: 0.0, lambda s: 0.0, lambda s: 0.0)


class TestTFunction:
    def test_riemannian_is_one(self):
        for s, b, n in [(0.0, 0.5, 2), (0.3, 0.7, 5), (-0.2, 0.1, 11)]:
            assert t_function(RIEMANNIAN, s, b, n) == 1.0

    def test_randers_n2(self):
        phi = phi_family("randers")
        for s in (-0.4, 0.0, 0.8):
            assert t_function(phi, s, 0.5, 2) == pytest.approx(1.0 + s)

    def test_exponential_n2(self):
        phi = phi_family("exponential")
        for s, b in [(0.0, 0.3), (0.2, 0.4), (-0.5, 0.9)]:
            expected = math.exp(2 * s) * (1.0 - s + b * b - s * s)
            assert t_function(phi, s, b, 2) == pytest.approx(expected, rel=1e-14)
        assert t_function(phi, 0.0, 0.3, 2) == pytest.approx(1.09)


class TestGegenbauerRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 51])
    @pytest.mark.parametrize("count", [1, 8, 64])
    def test_weights_sum_to_mu0(self, n, count):
        _, w = _gegenbauer_rule(n, count)
        mu0 = math.exp(math.lgamma(0.5) + math.lgamma((n - 1) / 2) - math.lgamma(n / 2))
        assert w.sum() == pytest.approx(mu0, rel=1e-14)
        assert np.all(w > 0.0)

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    @pytest.mark.parametrize("count", [3, 8, 13])
    def test_exact_on_monomials(self, n, count):
        # int x^k (1-x^2)^a dx = B((k+1)/2, a+1) for even k, 0 for odd k
        x, w = _gegenbauer_rule(n, count)
        a = (n - 3) / 2
        for k in range(2 * count):
            exact = 0.0 if k % 2 else math.exp(
                math.lgamma((k + 1) / 2) + math.lgamma(a + 1) - math.lgamma(k / 2 + a + 1.5))
            assert float(w @ x**k) == pytest.approx(exact, rel=1e-12, abs=1e-14), k

    @pytest.mark.parametrize("count", [1, 5, 64])
    def test_chebyshev_case_n2(self, count):
        # weight (1-x^2)^(-1/2): nodes cos((2j-1) pi / 2N), weights pi/N
        x, w = _gegenbauer_rule(2, count)
        j = np.arange(count, 0, -1)
        assert np.allclose(x, np.cos((2 * j - 1) * math.pi / (2 * count)), rtol=0, atol=1e-15)
        assert np.allclose(w, math.pi / count, rtol=1e-12, atol=0)

    def test_cached_and_read_only(self):
        x, w = _gegenbauer_rule(5, 16)
        assert _gegenbauer_rule(5, 16)[0] is x
        with pytest.raises(ValueError):
            w[0] = 1.0


def _mp_factor(phi, b, n, form):
    """40-digit reference for f_bh / f_ht from the x = cos t integrals."""
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        mu0 = mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(n - 1) / 2)

        def weight(x):
            return (1 - x * x) ** (mpmath.mpf(n - 3) / 2)

        def t_weight(s):
            p, p1, p2 = (mpmath.diff(phi, s, k) for k in range(3))
            core = p - s * p1
            return p * core ** (n - 2) * (core + (b * b - s * s) * p2)

        if form == "bh":
            return float(mu0 / mpmath.quad(lambda x: weight(x) / phi(b * x) ** n, [-1, 0, 1]))
        return float(mpmath.quad(lambda x: weight(x) * t_weight(b * x), [-1, 0, 1]) / mu0)


class TestOracles:
    @pytest.mark.parametrize("n", [12, 16, 20, 51, 330, 400])
    def test_randers_bh_closed_form_large_n(self, n):
        f = volume_coefficient(phi_family("randers"), 0.9, n, "bh")
        assert f == pytest.approx((1 - 0.9**2) ** ((n + 1) / 2), rel=1e-12)

    @pytest.mark.parametrize("n", [7, 8, 12])
    @pytest.mark.parametrize("family", ["matsumoto", "infinite_series"])
    def test_ht_matches_mpmath(self, family, n):
        mp_phi = {"matsumoto": lambda s: 1 / (1 - s),
                  "infinite_series": lambda s: s**2 / (s - 1)}[family]
        f = volume_coefficient(phi_family(family), 0.9, n, "ht")
        assert f == pytest.approx(_mp_factor(mp_phi, 0.9, n, "ht"), rel=1e-10)

    @pytest.mark.parametrize("family", ["matsumoto", "one"])
    def test_ht_array_path_n16(self, family):
        # T evaluated on the whole node array at once
        phi, mp_phi = {"matsumoto": (phi_family("matsumoto"), lambda s: 1 / (1 - s)),
                       "one": (PhiFamily.polynomial([1.0]), lambda s: mpmath.mpf(1))}[family]
        f = volume_coefficient(phi, 0.9, 16, "ht")
        assert f == pytest.approx(_mp_factor(mp_phi, 0.9, 16, "ht"), rel=1e-10)

    def test_large_n_rule_overflow_is_silent(self):
        # the Christoffel sums overflow at the outermost nodes, where the
        # weights underflow to 0; that must raise no RuntimeWarning
        _gegenbauer_rule.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = volume_coefficient(phi_family("randers"), 0.9, 400, "bh", nodes=1024)
        assert f == pytest.approx(0.19**200.5, rel=1e-12)

    def test_kropina_ht_diverges(self):
        # T(s) grows like s^-(n+1) at the pole s = 0 of phi = 1/s
        with pytest.raises(QuadratureError, match="kropina"):
            volume_coefficient(phi_family("kropina"), 0.5, 3, "ht")


class TestVolumeCoefficient:
    @pytest.mark.parametrize("n", [2, 3, 7, 51])
    @pytest.mark.parametrize("form", ["bh", "ht"])
    def test_riemannian_is_one(self, n, form):
        assert volume_coefficient(RIEMANNIAN, 0.6, n, form) \
            == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("b", [0.1, 0.5, 0.9])
    def test_randers_bh_closed_form(self, n, b):
        f = volume_coefficient(phi_family("randers"), b, n, "bh")
        assert f == pytest.approx((1 - b * b) ** ((n + 1) / 2), abs=1e-6)

    def test_node_doubling_self_convergence(self):
        phi = phi_family("exponential")
        f64 = volume_coefficient(phi, 0.3, 2, "ht", nodes=64)
        f128 = volume_coefficient(phi, 0.3, 2, "ht", nodes=128)
        assert abs(f64 - f128) <= 1e-9 * abs(f64)
        # 10x node count as an independent reference value
        f640 = volume_coefficient(phi, 0.3, 2, "ht", nodes=640)
        assert abs(f64 - f640) <= 1e-9 * abs(f640)

    @pytest.mark.parametrize("family", ["randers", "exponential"])
    @pytest.mark.parametrize("form", ["bh", "ht"])
    def test_small_b_limit(self, family, form):
        f = volume_coefficient(phi_family(family), 1e-6, 3, form)
        assert abs(f - 1.0) <= 1e-5

    def test_series_bh_diverges(self):
        # phi(0) = 0 makes 1/phi^n non-integrable across t = pi/2
        with pytest.raises(QuadratureError):
            volume_coefficient(phi_family("infinite_series"), 0.5, 3, "bh")

    def test_series_ht_is_finite(self):
        # T(s) has no division by phi, so the ht weight stays integrable
        f = volume_coefficient(phi_family("infinite_series"), 0.5, 3, "ht")
        assert math.isfinite(f)

    def test_validated_mode_refuses_series(self):
        with pytest.raises(ValidatedModeError, match="not positive"):
            volume_coefficient(phi_family("infinite_series"), 0.5, 3, "ht",
                               mode="validated")

    def test_validated_mode_allows_randers(self):
        f = volume_coefficient(phi_family("randers"), 0.5, 3, "bh", mode="validated")
        assert f == pytest.approx(0.75**2, abs=1e-6)

    def test_validated_mode_is_shen_criterion(self):
        # phi = 1/(1 - s) stays positive on [-0.6, 0.6], but the positivity
        # criterion fails there (it needs b < 1/2), so validated mode refuses
        with pytest.raises(ValidatedModeError, match="matsumoto"):
            volume_coefficient(phi_family("matsumoto"), 0.6, 3, "bh", mode="validated")
        f = volume_coefficient(phi_family("exponential"), 0.9, 3, "ht", mode="validated")
        assert f == volume_coefficient(phi_family("exponential"), 0.9, 3, "ht")

    @pytest.mark.parametrize("form", ["bh", "ht"])
    def test_overflowing_callables_are_a_quadrature_error(self, form):
        phi = PhiFamily.custom(math.exp, math.exp, math.exp, math.exp)
        with pytest.raises(QuadratureError, match=f"{form} integrand not finite"):
            volume_coefficient(phi, 800.0, 3, form)
        with pytest.raises(ValidatedModeError, match="custom"):
            volume_coefficient(phi, 800.0, 3, form, mode="validated")

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n must"):
            volume_coefficient(RIEMANNIAN, 0.5, 1, "bh")
        with pytest.raises(ValueError, match="form"):
            volume_coefficient(RIEMANNIAN, 0.5, 3, "xx")
        with pytest.raises(ValueError, match="mode"):
            volume_coefficient(RIEMANNIAN, 0.5, 3, "bh", mode="loose")
        with pytest.raises(ValueError, match="nodes"):
            volume_coefficient(RIEMANNIAN, 0.5, 3, "ht", nodes=0)


class TestVolumeCoefficients:
    def test_bh_ht_differ_for_nonriemannian(self):
        randers = phi_family("randers")
        f_bh, f_ht = (volume_coefficient(randers, 0.6, 3, form) for form in ("bh", "ht"))
        assert abs(f_bh - f_ht) > 1e-3
