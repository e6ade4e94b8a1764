"""(alpha, beta)-metric families.

A metric of this class is F = alpha * phi(s) with s = beta/alpha, where
alpha is a Riemannian norm and beta a 1-form.  Each family is described by
the scalar profile phi together with its first three derivatives, which is
all the curvature formulas ever need.

Built-in profiles:

    randers          phi(s) = 1 + s
    kropina          phi(s) = 1/s
    matsumoto        phi(s) = 1/(1 - s)
    infinite_series  phi(s) = s^2/(s - 1)
    exponential      phi(s) = exp(s)

The positivity criterion for F to be a genuine Finsler norm on |s| <= b is

    phi(s) > 0   and   phi(s) - s phi'(s) + (b^2 - s^2) phi''(s) > 0.

``shen_check`` evaluates it on a grid.  The infinite-series profile fails it
on any interval containing s = 0 (phi(0) = 0); curvature formulas for it are
still well defined as rational expressions, which is why the rest of the
package distinguishes a "formal" from a "validated" evaluation mode.
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
            dphi=lambda s: -1.0 / s**2,
            d2phi=lambda s: 2.0 / s**3,
            d3phi=lambda s: -6.0 / s**4,
            in_domain=lambda s: s > 0.0,
            domain_desc="s in (0, inf)",
        )

    @classmethod
    def matsumoto(cls) -> "PhiFamily":
        # phi - s*phi' = (1 - 2s)/(1 - s)^2 vanishes at s = 1/2
        return cls(
            name="matsumoto",
            phi=lambda s: 1.0 / (1.0 - s),
            dphi=lambda s: 1.0 / (1.0 - s) ** 2,
            d2phi=lambda s: 2.0 / (1.0 - s) ** 3,
            d3phi=lambda s: 6.0 / (1.0 - s) ** 4,
            in_domain=lambda s: s < 1.0 and s != 0.5,
            domain_desc="s in (-inf, 1/2) or (1/2, 1)",
        )

    @classmethod
    def infinite_series(cls) -> "PhiFamily":
        # phi > 0 only for s > 1; phi - s*phi' = s^2/(s-1)^2 vanishes at s = 0
        return cls(
            name="infinite_series",
            phi=lambda s: s**2 / (s - 1.0),
            dphi=lambda s: (s**2 - 2.0 * s) / (s - 1.0) ** 2,
            d2phi=lambda s: 2.0 / (s - 1.0) ** 3,
            d3phi=lambda s: -6.0 / (s - 1.0) ** 4,
            in_domain=lambda s: s > 1.0,
            domain_desc="s in (1, inf)",
        )

    @classmethod
    def exponential(cls) -> "PhiFamily":
        # phi - s*phi' = e^s (1 - s) vanishes at s = 1
        return cls(
            name="exponential",
            phi=math.exp,
            dphi=math.exp,
            d2phi=math.exp,
            d3phi=math.exp,
            in_domain=lambda s: s != 1.0,
            domain_desc="s in (-inf, 1) or (1, inf)",
        )

    @classmethod
    def custom(cls, phi, dphi, d2phi, d3phi, in_domain=None,
               domain_desc="custom") -> "PhiFamily":
        """Build a family from user-supplied evaluators.

        All three derivatives must be supplied; nothing is differentiated
        automatically.  Without ``in_domain`` the domain is checked pointwise
        (phi > 0 and phi - s*phi' != 0).
        """
        if in_domain is None:
            def in_domain(s, _p=phi, _d=dphi):
                val = _p(s)
                return val > 0.0 and val - s * _d(s) != 0.0
        return cls(name="custom", phi=phi, dphi=dphi, d2phi=d2phi,
                   d3phi=d3phi, in_domain=in_domain, domain_desc=domain_desc)

    @classmethod
    def polynomial(cls, coefficients) -> "PhiFamily":
        """Custom family phi(s) = sum_k c_k s^k from ascending coefficients."""
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("polynomial coefficients must be a non-empty 1-d sequence")
        polys = [np.polynomial.Polynomial(coeffs)]
        for _ in range(3):
            polys.append(polys[-1].deriv())
        p0, p1, p2, p3 = polys
        return cls.custom(
            phi=lambda s: float(p0(s)),
            dphi=lambda s: float(p1(s)),
            d2phi=lambda s: float(p2(s)),
            d3phi=lambda s: float(p3(s)),
            domain_desc="pointwise: phi > 0 and phi - s*phi' != 0",
        )


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
    on the grid.  A phi-singularity at a grid point is recorded as a failure
    at that s, not raised.
    """
    if samples < 3:
        raise ValueError("samples must be >= 3")
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
    return ShenReport(holds=holds, min_value=float(best_val), argmin_s=best_s,
                      singular_points=tuple(singular))
