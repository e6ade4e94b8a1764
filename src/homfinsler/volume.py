"""Volume coefficients of the two standard Finsler volume forms.

Relative to the Riemannian volume of alpha, both the Busemann-Hausdorff and
the Holmes-Thompson volume forms rescale by a factor f(b) that depends only
on the profile phi, the 1-form length b and the dimension n.  With x = cos t
and the weight w(x) = (1 - x^2)^((n-3)/2),

    f_bh(b) = mu_0 / int_{-1}^{1} w(x) / phi(b x)^n dx
    f_ht(b) = int_{-1}^{1} w(x) T(b x) dx / mu_0,      mu_0 = B(1/2, (n-1)/2),

with the auxiliary weight

    T(s) = phi (phi - s phi')^(n-2) { (phi - s phi') + (b^2 - s^2) phi'' }.

For phi = 1 both factors are exactly 1.  The integrals use Gauss-Jacobi
(Gegenbauer) rules, which integrate the weight exactly, doubling the node
count until two successive factors agree to a relative _RTOL.  Each rule
evaluates phi (bh) or T (ht) on its whole node array in one call.  The bh
sum is scaled by its largest term, so phi^-n does not overflow at large n.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureError, ValidatedModeError
from .metrics import MetricSpec, PhiFamily, _check_b, shen_check

__all__ = [
    "t_function",
    "volume_coefficient",
]

_RTOL = 1e-11
_MAX_DOUBLINGS = 4


def t_function(phi: PhiFamily, s, b: float, n: int):
    """The Holmes-Thompson integrand weight T(s).

    s is a float or a float64 ndarray; an array gives T at every entry.
    """
    p = phi.phi(s)
    core = p - s * phi.dphi(s)
    return p * core ** (n - 2) * (core + (b * b - s * s) * phi.d2phi(s))


def _mu0(n: int) -> float:
    """int_{-1}^{1} (1 - x^2)^((n-3)/2) dx = B(1/2, (n-1)/2)."""
    h = (n - 1) / 2.0
    return math.exp(math.lgamma(0.5) + math.lgamma(h) - math.lgamma(h + 0.5))


@functools.lru_cache(maxsize=128)
def _gegenbauer_rule(n: int, count: int):
    """Nodes and weights of the count-point Gauss rule for (1 - x^2)^((n-3)/2).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic recurrence p_{k+1} = x p_k - beta_k p_{k-1}.  The weights are the
    Christoffel numbers 1 / sum_k q_k(x)^2 over the orthonormal polynomials
    q_k, which keep their relative accuracy in the tiny end weights.
    """
    a = (n - 3) / 2.0
    k = np.arange(2, count, dtype=float)
    beta = np.concatenate(([1.0 / (2 * a + 3)],
                           k * (k + 2 * a) / ((2 * k + 2 * a - 1) * (2 * k + 2 * a + 1))))
    off = np.sqrt(beta[:count - 1])
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = _mu0(n)
    prev = np.zeros(count)
    cur = np.full(count, 1.0 / math.sqrt(mu0))
    total = cur * cur
    # At large n and count the sums overflow at the outermost nodes.  That
    # happens only where the true weight is below about 1e-307, so 1/inf = 0
    # is its correctly rounded value; the overflow warning is noise.
    with np.errstate(over="ignore"):
        for j in range(count - 1):  # off[-1] at j = 0 only multiplies prev = 0
            prev, cur = cur, (x * cur - off[j - 1] * prev) / off[j]
            total += cur * cur
    w = 1.0 / total
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _factor(phi, b, n, form, count):
    x, w = _gegenbauer_rule(n, count)
    s = b * x
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if form == "bh":
            # phi^-n = sign(phi)^n exp(e) with e = -n log|phi|, summed relative
            # to the largest exponent m so that large n cannot overflow
            p = np.broadcast_to(phi.phi(s), s.shape)
            e = -n * np.log(np.abs(p))
            m = float(np.max(e))
            vals = np.sign(p) ** n * np.exp(e - m)
        else:
            vals = t_function(phi, s, b, n)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError(
                f"{form} integrand not finite at {count} nodes (b = {b:.6g}, n = {n})")
        integral = float(w @ vals)
        if form == "ht":
            return integral / _mu0(n)
        if integral == 0.0:
            raise QuadratureError("bh denominator integral evaluated to zero")
        return float(np.sign(integral) * np.exp(math.log(_mu0(n) / abs(integral)) - m))


def volume_coefficient(phi: PhiFamily, b: float, n: int, form: str,
                       mode: str = "formal", nodes: int = 64) -> float:
    """Volume rescaling factor f(b) for form "bh" or "ht".

    In validated mode F = alpha*phi(s) must be a Finsler metric for |s| <= b:
    the call is refused exactly when ``shen_check`` on (phi, b) fails, as in
    the validated curvature routes.  The formal mode attempts the quadrature
    regardless.  In either mode b must be finite and nonnegative (the
    ValueError of ``MetricSpec``).  ``nodes`` is the size of the first rule;
    QuadratureError is raised when the factor has not settled after four
    doublings, which is how non-integrable profiles surface.
    """
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if form not in ("bh", "ht"):
        raise ValueError(f"form must be 'bh' or 'ht', got {form!r}")
    if mode not in ("formal", "validated"):
        raise ValueError(f"mode must be 'formal' or 'validated', got {mode!r}")
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    _check_b(b)
    if mode == "validated":
        shen = shen_check(MetricSpec(phi, b))
        if not shen.holds:
            raise ValidatedModeError(
                f"validated mode: {phi.name} is not positive definite for |s| <= {b:.6g} "
                f"(positivity criterion min {shen.min_value:.6g} at s = {shen.argmin_s:.6g})")

    count = nodes
    cur = _factor(phi, b, n, form, count)
    for _ in range(_MAX_DOUBLINGS):
        prev, count = cur, 2 * count
        cur = _factor(phi, b, n, form, count)
        if abs(cur - prev) <= _RTOL * abs(cur):
            return cur
    raise QuadratureError(
        f"{form} factor did not converge for {phi.name} at b = {b:.6g}, n = {n}: "
        f"{prev:.12g} at {count // 2} nodes, {cur:.12g} at {count} nodes")
