"""(alpha, beta)-metric families.

A metric of this class is F = alpha * phi(s) with s = beta/alpha, where
alpha is a Riemannian norm and beta a 1-form.  Each family is described by
the profile phi together with its first three derivatives, which is all the
curvature formulas ever need.

Every evaluator takes either a float or a float64 ndarray of s values.  On
a float (``np.float64`` included) it returns a float; on an array it returns
the values entry-wise, as an array or, for a constant derivative, as a float
that broadcasts against s.  Integer powers are written as products, whose
every step is one correctly rounded IEEE operation on a float and on an
array alike, so an array gives the scalar bits for every profile except the
exponential (numpy's exp rounds independently of libm's).  A pole reads as
inf or nan on an array, where the scalar call may raise ZeroDivisionError.
The volume quadrature, ``shen_check`` and the batch curvature kernel
evaluate whole point sets in one call.

Built-in profiles:

    randers          phi(s) = 1 + s
    kropina          phi(s) = 1/s
    matsumoto        phi(s) = 1/(1 - s)
    infinite_series  phi(s) = s^2/(s - 1)
    exponential      phi(s) = exp(s)

The positivity criterion for F to be a genuine Finsler norm on |s| <= b is

    phi(s) > 0   and   phi(s) - s phi'(s) + (b^2 - s^2) phi''(s) > 0.

``shen_check`` evaluates it on a grid, in one array pass.  The
infinite-series profile fails it on any interval containing s = 0
(phi(0) = 0); curvature formulas for it are still well defined as rational
expressions, which is why the rest of the package distinguishes a "formal"
from a "validated" evaluation mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "PhiFamily",
    "MetricSpec",
    "ShenReport",
    "finsler_norm",
    "shen_check",
]


@dataclass(frozen=True)
class PhiFamily:
    """A profile phi(s) with derivatives and a validity domain.

    ``in_domain(s)`` is true where phi > 0 and phi - s*phi' != 0, i.e. where
    F = alpha*phi(beta/alpha) is positive and the coefficient Q = phi'/(phi -
    s*phi') is finite.  ``domain_desc`` is the human-readable version.
    """

    name: str
    phi: Callable[[float], float]
    dphi: Callable[[float], float]
    d2phi: Callable[[float], float]
    d3phi: Callable[[float], float]
    in_domain: Callable[[float], bool]
    domain_desc: str

    @classmethod
    def randers(cls) -> "PhiFamily":
        return cls(
            name="randers",
            phi=lambda s: 1.0 + s,
            dphi=lambda s: 1.0,
            d2phi=lambda s: 0.0,
            d3phi=lambda s: 0.0,
            in_domain=lambda s: s > -1.0,
            domain_desc="s in (-1, inf)",
        )

    @classmethod
    def kropina(cls) -> "PhiFamily":
        return cls(
            name="kropina",
            phi=lambda s: 1.0 / s,
            dphi=lambda s: -1.0 / (s * s),
            d2phi=lambda s: 2.0 / (s * s * s),
            d3phi=lambda s: -6.0 / (s * s * s * s),
            in_domain=lambda s: s > 0.0,
            domain_desc="s in (0, inf)",
        )

    @classmethod
    def matsumoto(cls) -> "PhiFamily":
        # phi - s*phi' = (1 - 2s)/(1 - s)^2 vanishes at s = 1/2
        return cls(
            name="matsumoto",
            phi=lambda s: 1.0 / (1.0 - s),
            dphi=lambda s: 1.0 / ((1.0 - s) * (1.0 - s)),
            d2phi=lambda s: 2.0 / ((1.0 - s) * (1.0 - s) * (1.0 - s)),
            d3phi=lambda s: 6.0 / ((1.0 - s) * (1.0 - s) * (1.0 - s) * (1.0 - s)),
            in_domain=lambda s: s < 1.0 and s != 0.5,
            domain_desc="s in (-inf, 1/2) or (1/2, 1)",
        )

    @classmethod
    def infinite_series(cls) -> "PhiFamily":
        # phi > 0 only for s > 1; phi - s*phi' = s^2/(s-1)^2 vanishes at s = 0
        return cls(
            name="infinite_series",
            phi=lambda s: s * s / (s - 1.0),
            dphi=lambda s: (s * s - 2.0 * s) / ((s - 1.0) * (s - 1.0)),
            d2phi=lambda s: 2.0 / ((s - 1.0) * (s - 1.0) * (s - 1.0)),
            d3phi=lambda s: -6.0 / ((s - 1.0) * (s - 1.0) * (s - 1.0) * (s - 1.0)),
            in_domain=lambda s: s > 1.0,
            domain_desc="s in (1, inf)",
        )

    @classmethod
    def exponential(cls) -> "PhiFamily":
        # phi - s*phi' = e^s (1 - s) vanishes at s = 1
        return cls(
            name="exponential",
            phi=_exp,
            dphi=_exp,
            d2phi=_exp,
            d3phi=_exp,
            in_domain=lambda s: s != 1.0,
            domain_desc="s in (-inf, 1) or (1, inf)",
        )

    @classmethod
    def custom(cls, phi, dphi, d2phi, d3phi, in_domain=None,
               domain_desc="custom") -> "PhiFamily":
        """Build a family from user-supplied evaluators.

        All three derivatives must be supplied; nothing is differentiated
        automatically.  The evaluators need only accept a float: each is
        wrapped once so that it also takes an ndarray, which it is then
        called on entry by entry, a ZeroDivisionError reading as nan.  A
        float goes straight to the callable, so the scalar routes still see
        its ZeroDivisionError.  Without ``in_domain`` the domain is checked
        pointwise (phi > 0 and phi - s*phi' != 0).
        """
        if in_domain is None:
            in_domain = _pointwise_domain(phi, dphi)
        phi, dphi, d2phi, d3phi = map(_entrywise, (phi, dphi, d2phi, d3phi))
        return cls(name="custom", phi=phi, dphi=dphi, d2phi=d2phi,
                   d3phi=d3phi, in_domain=in_domain, domain_desc=domain_desc)

    @classmethod
    def polynomial(cls, coefficients) -> "PhiFamily":
        """Custom family phi(s) = sum_k c_k s^k from ascending coefficients.

        The evaluators run Horner's rule on floats and on arrays alike.
        """
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("polynomial coefficients must be a non-empty 1-d sequence")
        derivs = [coeffs]
        for _ in range(3):
            derivs.append(np.polynomial.polynomial.polyder(derivs[-1]))
        p0, p1, p2, p3 = (_horner(c.tolist()) for c in derivs)
        return cls(name="custom", phi=p0, dphi=p1, d2phi=p2, d3phi=p3,
                   in_domain=_pointwise_domain(p0, p1),
                   domain_desc="pointwise: phi > 0 and phi - s*phi' != 0")


def _pointwise_domain(phi, dphi):
    def in_domain(s):
        val = phi(s)
        return val > 0.0 and val - s * dphi(s) != 0.0

    return in_domain


def _exp(s, _scalar=math.exp, _array=np.exp):
    """e^s: libm's exp on whatever math.exp takes, numpy's on arrays."""
    try:
        return _scalar(s)
    except TypeError:
        return _array(s)


def _horner(coeffs):
    """The evaluator of sum_k coeffs[k] s^k; the op order of numpy's polyval."""
    lead, rest = coeffs[-1], coeffs[-2::-1]

    def evaluate(s):
        acc = lead
        for c in rest:
            acc = c + acc * s
        return acc

    return evaluate


def _phi_at(f, s: float) -> float:
    """f(s) for a scalar evaluator f; a pole (ZeroDivisionError) reads nan."""
    try:
        return f(s)
    except ZeroDivisionError:
        return math.nan


def _entrywise(f):
    """f on floats, and entry by entry on arrays, where a ZeroDivisionError reads nan."""
    def evaluate(s):
        if isinstance(s, np.ndarray):
            flat = [_phi_at(f, t) for t in s.ravel().tolist()]
            return np.array(flat, dtype=float).reshape(s.shape)
        return f(s)

    return evaluate


_BUILTINS = {
    "randers": PhiFamily.randers,
    "kropina": PhiFamily.kropina,
    "matsumoto": PhiFamily.matsumoto,
    "infinite_series": PhiFamily.infinite_series,
    "exponential": PhiFamily.exponential,
}


def phi_family(name: str) -> PhiFamily:
    """Look up a built-in family by tag."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(
            f"unknown metric family {name!r}; built-ins: {sorted(_BUILTINS)}"
        ) from None


@dataclass(frozen=True)
class MetricSpec:
    """A profile phi paired with the (constant) 1-form length b."""

    phi: PhiFamily
    b: float

    def __post_init__(self):
        if self.b < 0.0:
            raise ValueError("b must be nonnegative")

    @classmethod
    def for_vector(cls, phi: PhiFamily, v) -> "MetricSpec":
        """Spec whose b is the length of an invariant vector; requires b < 1."""
        if v.b >= 1.0:
            raise ValueError(f"invariant-vector route requires ||beta|| < 1, got {v.b}")
        return cls(phi=phi, b=v.b)

    @functools.cached_property
    def _shen(self) -> "ShenReport":
        """shen_check(self), once per spec for validated mode (phi must be pure)."""
        return shen_check(self)


def finsler_norm(spec: MetricSpec, alpha: float, beta: float) -> float:
    """F = alpha * phi(beta/alpha); degree-1 homogeneous in (alpha, beta).

    Raises DomainError when alpha <= 0 or s = beta/alpha leaves the domain
    where phi is a positive admissible profile.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    s = beta / alpha
    if not spec.phi.in_domain(s):
        raise DomainError(
            f"s = {s:.6g} outside domain of {spec.phi.name} ({spec.phi.domain_desc})"
        )
    return alpha * spec.phi.phi(s)


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
    """
    if samples < 3:
        raise ValueError("samples must be >= 3")
    b = spec.b
    grid = np.linspace(-b, b, samples)
    if not np.any(grid == 0.0):
        grid = np.sort(np.append(grid, 0.0))

    phi = spec.phi
    with np.errstate(all="ignore"):
        p = phi.phi(grid)
        expr = p - grid * phi.dphi(grid) + (b * b - grid * grid) * phi.d2phi(grid)
        finite = np.isfinite(p) & np.isfinite(expr)
        positive_ok = not np.any(finite & (p <= 0.0))
    singular = tuple(grid[~finite].tolist())
    if finite.any():
        k = int(np.argmin(np.where(finite, expr, math.inf)))
        best_val, best_s = float(expr[k]), float(grid[k])
    else:
        best_val, best_s = math.inf, float(grid[0])
    holds = positive_ok and not singular and best_val > 0.0
    return ShenReport(holds=holds, min_value=best_val, argmin_s=best_s,
                      singular_points=singular)
