"""(alpha, beta)-metric families.

A metric of this class is F = alpha * phi(s) with s = beta/alpha, where
alpha is a Riemannian norm and beta a 1-form.  Each family is described by
the profile phi together with its first three derivatives, which is all the
curvature formulas ever need.

Every built-in and every polynomial profile is exact, phi = (N/D)(s) e^{ks},
and is declared once by its coefficients (N, D, k); ``_exact_family``
derives its evaluators, its domain test and the rational Q = phi'/(phi -
s phi') of the closed curvature routes.  ``custom`` callables are not exact.

Every evaluator takes either a float or a float64 ndarray of s values.  On
a float (``np.float64`` included) it returns a float; on an array it returns
the values entry-wise, as an array or, for a constant derivative, as a float
that broadcasts against s.  Integer powers are written as products, whose
every step is one correctly rounded IEEE operation on a float and on an
array alike, so an array gives the scalar bits for every profile except the
exponential (numpy's exp rounds independently of libm's).  A pole reads as
inf or nan on an array, where the scalar call may raise ZeroDivisionError,
and an overflowing callable entry reads as nan.

The positivity criterion for F to be a genuine Finsler norm on |s| <= b is

    phi(s) > 0   and   phi(s) - s phi'(s) + (b^2 - s^2) phi''(s) > 0.

``shen_check`` evaluates it on a grid, in one array pass, and for an exact
profile also wherever it can change sign between grid points.  The
infinite-series profile fails it on any interval containing s = 0
(phi(0) = 0); curvature formulas for it are still well defined as rational
expressions, which is why the rest of the package distinguishes a "formal"
from a "validated" evaluation mode.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DomainError

__all__ = [
    "PhiFamily",
    "MetricSpec",
    "ShenReport",
    "finsler_norm",
    "shen_check",
]


@dataclass(frozen=True, eq=False)      # compared by identity: a cheap cache key
class ExactProfile:
    """phi^(j) = N[j]/D^(j+1) e^{ks} (j <= 3), Q = Q[0]/Q[1] or None if phi = s phi';
    the Shen criterion is e^{ks} (G0 + b^2 N2)/D^3 with G0 = N0 D^2 - s N1 D - s^2 N2,
    and ``roots`` holds the real parts of the roots of N0 and D."""

    N: tuple
    D: tuple
    k: int
    Q: tuple | None
    G0: tuple
    roots: tuple


@dataclass(frozen=True)
class PhiFamily:
    """A profile phi(s) with derivatives and a validity domain.

    ``in_domain(s)`` is true where phi > 0 and phi - s*phi' != 0, i.e. where
    F = alpha*phi(beta/alpha) is positive and the coefficient Q = phi'/(phi -
    s*phi') is finite.  ``exact`` is set by the builder of exact profiles,
    None for callables.
    """

    name: str
    phi: Callable[[float], float]
    dphi: Callable[[float], float]
    d2phi: Callable[[float], float]
    d3phi: Callable[[float], float]
    in_domain: Callable[[float], bool]
    exact: ExactProfile | None = None

    @classmethod
    def custom(cls, phi, dphi, d2phi, d3phi) -> "PhiFamily":
        """Build a family from user-supplied evaluators.

        All three derivatives must be supplied; nothing is differentiated
        automatically.  The evaluators need only accept a float: each is
        wrapped once so that it also takes an ndarray, which it is then
        called on entry by entry, a ZeroDivisionError or OverflowError
        reading as nan.  A float goes straight to the callable, so the scalar
        routes still see its exceptions.  The domain is checked pointwise
        (phi > 0 and phi - s*phi' != 0); a pole (ZeroDivisionError) is
        outside it.
        """
        def in_domain(s, phi=phi, dphi=dphi):
            try:
                val = phi(s)
                return val > 0.0 and val - s * dphi(s) != 0.0
            except ZeroDivisionError:
                return False

        phi, dphi, d2phi, d3phi = map(_entrywise, (phi, dphi, d2phi, d3phi))
        return cls(name="custom", phi=phi, dphi=dphi, d2phi=d2phi,
                   d3phi=d3phi, in_domain=in_domain)

    @classmethod
    def polynomial(cls, coefficients) -> "PhiFamily":
        """The exact family phi(s) = sum_k c_k s^k from ascending coefficients."""
        try:
            coeffs = np.asarray(coefficients, dtype=float)
        except (TypeError, ValueError):     # not numbers: refused below
            coeffs = np.empty(0)
        if coeffs.ndim != 1 or coeffs.size == 0 or not np.isfinite(coeffs).all():
            raise ValueError("polynomial coefficients must be a non-empty 1-d sequence of "
                             "finite numbers")
        return _exact_family("custom", tuple(coeffs.tolist()))


# Each built-in profile phi = (N/D)(s) e^{ks}, as ascending coefficients (N, D, k).
_BUILTINS = {
    "randers": ((1, 1), (1,), 0),                   # 1 + s
    "kropina": ((1,), (0, 1), 0),                   # 1/s
    "matsumoto": ((1,), (1, -1), 0),                # 1/(1 - s)
    "infinite_series": ((0, 0, 1), (-1, 1), 0),     # s^2/(s - 1)
    "exponential": ((1,), (1,), 1),                 # e^s
}


@functools.lru_cache(maxsize=256)
def _exact_family(name: str, num: tuple, den: tuple = (1,), k: int = 0) -> PhiFamily:
    """The family phi = (num/den)(s) e^{ks}, all of it derived from the coefficients.

    phi^(j) = N_j/D^(j+1) e^{ks}, N_(j+1) = N_j' D - (j+1) N_j D' + k N_j D, and as
    phi - s phi' = (N_0 D - s N_1)/D^2 e^{ks}, the domain is D != 0, N_0 D - s N_1 != 0
    and phi > 0, and Q = N_1/(N_0 D - s N_1) with any common power of s cancelled.
    The one k != 0 is the exponential's, of rational part 1: its evaluators are ``_exp``.
    """
    add, sub, mul, der, s = P.polyadd, P.polysub, P.polymul, P.polyder, (0.0, 1.0)
    d = np.array(den, dtype=float)
    nums = [np.array(num, dtype=float)]
    with np.errstate(all="ignore"):     # huge coefficients overflow; the evaluators say where
        for j in range(3):
            c = nums[-1]
            nums.append(add(sub(mul(der(c), d), (j + 1) * mul(c, der(d))), k * mul(c, d)))
        qd = tuple(sub(mul(nums[0], d), mul(s, nums[1])).tolist())
        g0 = sub(mul(nums[0], mul(d, d)), mul(s, add(mul(nums[1], d), mul(s, nums[2]))))
    q = None
    if any(qd):
        z = min(f[0] for f in (np.flatnonzero(nums[1]), np.flatnonzero(qd)) if f.size)
        q = (tuple(nums[1][z:].tolist()) or (0.0,), qd[z:])
    roots = tuple(np.concatenate([P.polyroots(nums[0]), P.polyroots(d)]).real.tolist())
    exact = ExactProfile(tuple(tuple(c.tolist()) for c in nums), tuple(d.tolist()), k, q,
                         tuple(g0.tolist()), roots)
    evals = (_exp,) * 4 if k else [_quotient(exact.N[j], exact.D, j + 1) for j in range(4)]

    def in_domain(s):
        top, dv = _horner(exact.N[0], s), _horner(exact.D, s)
        return dv != 0.0 and _horner(qd, s) != 0.0 and (top > 0.0 < dv or top < 0.0 > dv)

    return PhiFamily(name, *evals, in_domain=in_domain, exact=exact)


def _quotient(num: tuple, den: tuple, power: int):
    """num(s)/den(s)^power, compiled so that a call is one expression; the power a product."""
    src = _horner_source(num)
    if den != (1.0,):
        factors = [f"(d := {_horner_source(den)})"] + ["d"] * (power - 1)
        src += " / (" + " * ".join(factors) + ")"
    return eval("lambda s: " + src, {"inf": math.inf, "nan": math.nan})


def _horner_source(c: tuple) -> str:
    """sum_i c[i] s^i as source in the op order of ``_horner``, less its 1 * and + 0 steps."""
    src = repr(c[-1])
    for a in c[-2::-1]:
        src = f"({'s' if src == '1.0' else src + ' * s'}{f' + {a!r}' if a else ''})"
    return src


def _exp(s, _scalar=math.exp, _array=np.exp):
    """e^s: libm's exp on whatever math.exp takes, numpy's on arrays."""
    try:
        return _scalar(s)
    except TypeError:
        return _array(s)


def _horner(c, s):
    """sum_k c[k] s^k at s (a float or an array), in the op order of numpy's polyval."""
    acc = c[-1]
    for a in c[-2::-1]:
        acc = a + acc * s
    return acc


def _entrywise(f):
    """f on floats, and entry by entry on arrays, where a ZeroDivisionError (a pole)
    or an OverflowError reads nan, a non-finite entry."""
    def at(t):
        try:
            return f(t)
        except (ZeroDivisionError, OverflowError):
            return math.nan

    def evaluate(s):
        if isinstance(s, np.ndarray):
            return np.array([at(t) for t in s.ravel().tolist()], dtype=float).reshape(s.shape)
        return f(s)

    return evaluate


def phi_family(name: str) -> PhiFamily:
    """Look up a built-in family by tag; each tag gives one shared object."""
    if not isinstance(name, str) or name not in _BUILTINS:
        raise KeyError(f"unknown metric family {name!r}; built-ins: {sorted(_BUILTINS)}")
    return _exact_family(name, *_BUILTINS[name])


def _check_b(b: float) -> None:
    """Refuse a 1-form length b that is not finite and >= 0 (NaN included)."""
    if not 0.0 <= b < math.inf:
        raise ValueError(f"b must be finite and nonnegative, got {b}")


@dataclass(frozen=True)
class MetricSpec:
    """A profile phi paired with the (constant) 1-form length b."""

    phi: PhiFamily
    b: float

    def __post_init__(self):
        _check_b(self.b)

    @classmethod
    def for_vector(cls, phi: PhiFamily, v) -> "MetricSpec":
        """Spec whose b is the length of an invariant vector; requires b < 1."""
        if v.b >= 1.0:
            raise ValueError(f"invariant-vector route requires ||beta|| < 1, got {v.b}")
        return cls(phi=phi, b=v.b)

    @functools.cached_property
    def _shen(self) -> "ShenReport":
        """The validated gate's verdict, shen_check(self), once per spec (phi must be pure).

        The first ``shen_check(self)`` at the default 201 samples leaves its
        report here, so the gate reuses a check that the caller has made; a
        ``dataclasses.replace``d spec starts without one.
        """
        return shen_check(self)


def finsler_norm(spec: MetricSpec, alpha: float, beta: float) -> float:
    """F = alpha * phi(beta/alpha); degree-1 homogeneous in (alpha, beta).

    Raises DomainError when alpha <= 0, when s = beta/alpha leaves the domain
    where phi is a positive admissible profile, or when phi overflows at s.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    s = beta / alpha
    try:
        if not spec.phi.in_domain(s):
            raise DomainError(f"s = {s:.6g} outside domain of {spec.phi.name} "
                              "(phi > 0 and phi - s*phi' != 0)")
        return alpha * spec.phi.phi(s)
    except OverflowError:
        raise DomainError(f"overflow of phi ({spec.phi.name}) at s = {s:.6g}") from None


@dataclass(frozen=True)
class ShenReport:
    """Outcome of the positivity criterion on a grid over [-b, b]."""

    holds: bool
    min_value: float
    argmin_s: float
    singular_points: tuple = ()


def shen_check(spec: MetricSpec, samples: int = 201) -> ShenReport:
    """Evaluate phi - s*phi' + (b^2 - s^2)*phi'' on a uniform grid of [-b, b].

    The grid always contains both endpoints and s = 0 (0 is in every [-b, b]
    and is where the infinite-series profile degenerates).  ``holds`` is true
    iff the expression stays positive and phi itself is positive everywhere
    on the grid.  A phi-singularity at a grid point (a non-finite phi or
    expression) is recorded as a failure at that s, not raised.  The
    minimum is the first smallest value in grid order.

    Where the grid holds for an exact profile, the points where phi or the
    criterion can change sign between grid points are appended (see
    ``_sign_change_points``), and the report covers the combined set.

    Every call computes a fresh report.  At the default 201 samples the
    first one is also kept on the spec as its validated-mode verdict
    (``MetricSpec._shen``); other sample counts leave the spec as it is.
    """
    if samples < 3:
        raise ValueError("samples must be >= 3")
    b = spec.b
    grid = np.linspace(-b, b, samples)
    if not np.any(grid == 0.0):
        grid = np.sort(np.append(grid, 0.0))
    report = _shen_report(spec.phi, b, grid)
    extra = _sign_change_points(spec.phi.exact, b) if report.holds and spec.phi.exact else []
    if extra:
        report = _shen_report(spec.phi, b, np.concatenate([grid, extra]))
    if samples == 201:
        vars(spec).setdefault("_shen", report)
    return report


def _sign_change_points(exact: ExactProfile, b: float) -> list:
    """The real parts in [-b, b] of the roots of N_0, D and G, and their midpoints: phi and
    the criterion e^{ks} G/D^3, G = N_0 D^2 - s N_1 D + (b^2 - s^2) N_2, change sign only there."""
    g = [u + b * b * w for u, w in itertools.zip_longest(exact.G0, exact.N[2], fillvalue=0.0)]
    x = sorted({r for r in (*exact.roots, *_real_parts(g)) if abs(r) <= b})
    return x + [(u + v) / 2.0 for u, v in zip(x, x[1:])]


def _real_parts(c) -> list:
    """The real parts of the roots of sum_k c[k] s^k; a quadratic's in closed form."""
    if len(c) != 3 or c[2] == 0.0:
        return P.polyroots(c).real.tolist() if len(c) > 1 else []
    v = -c[1] / (2.0 * c[2])                # the real part of a complex pair
    h = math.sqrt(max(c[1] * c[1] - 4.0 * c[0] * c[2], 0.0)) / (2.0 * abs(c[2]))
    return [v - h, v + h]


def _shen_report(phi: PhiFamily, b: float, points: np.ndarray) -> ShenReport:
    with np.errstate(all="ignore"):
        p = phi.phi(points)
        expr = p - points * phi.dphi(points) + (b * b - points * points) * phi.d2phi(points)
        finite = np.isfinite(p) & np.isfinite(expr)
        positive_ok = not np.any(finite & (p <= 0.0))
    singular = tuple(points[~finite].tolist())
    if finite.any():
        k = int(np.argmin(np.where(finite, expr, math.inf)))
        best_val, best_s = float(expr[k]), float(points[k])
    else:
        best_val, best_s = math.inf, float(points[0])
    holds = positive_ok and not singular and best_val > 0.0
    return ShenReport(holds=holds, min_value=best_val, argmin_s=best_s,
                      singular_points=singular)
