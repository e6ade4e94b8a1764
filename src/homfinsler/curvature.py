"""S-curvature and mean Berwald curvature at the origin of a homogeneous space.

With an orthonormal frame of m whose last vector points along the invariant
vector v (|v| = c = b), the curvature scalar at the origin is

    S(y) = Phi / (2 alpha Delta^2) * ( <[v,y]_m, y> + alpha Q <[v,y]_m, v> ),

where alpha = |y|, s = <v,y>/alpha, and Q, Delta, Phi are scalar functions
of (s, b, n) built from the metric profile phi:

    Q     = phi' / (phi - s phi')
    Delta = 1 + s Q + (b^2 - s^2) Q'
    Phi   = -(Q - s Q')(n Delta + 1 + s Q) - (b^2 - s^2)(1 + s Q) Q''
    psi   = Q' / (2 Delta)

Three independent evaluation routes are provided and cross-checked by the
test suite:

* ``generic``      - Q, Delta, Phi from phi and its derivatives (quotient rule);
* ``closed_form``  - for the profiles in _RATIONAL_Q (infinite series and
                     exponential), Q = N/D with polynomials N and D, from
                     which _rational_forms derives Q', Q'', Delta, Phi and
                     W = Phi/(2 Delta^2) as rational functions of s, so that
                     S = W/alpha <[v,y],y> + W Q <[v,y],v>;
* ``via tensors``  - S = -Phi/(2 alpha Delta^2) (r_00 - 2 alpha Q s_0) from
                     the contracted origin tensors instead of raw brackets.

The mean Berwald curvature E_ij = (1/2) d^2 S / dy_i dy_j has a closed form
for the same profiles (the Hessians of W(s) <[v,y],y>/alpha and of
(WQ)(s) <[v,y],v>, assembled at y/|y| and divided by |y|), and a
finite-difference route that Hessians the generic S.

Every route reads [v,y]_m = c (y @ br[-1]) from the frame brackets
br[a,b,c] = <[v_a,v_b]_m, v_c> that each model computes once.  A block of
directions Y (N x n) is then one matmul plus elementwise arithmetic in s:
``_s_rows`` evaluates the generic or closed S for every row at once, each
scalar guard becoming a per-row locus flag.  The finite-difference Hessian,
``isotropy_test`` and the CLI ``scan`` use it; single-vector calls keep the
scalar path.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .algebra import (
    InvariantVector,
    ReductiveModel,
    origin_tensors,
    validate_model,
)
from .errors import DomainError, FinslerError, SingularityError, ValidatedModeError
from .metrics import MetricSpec, PhiFamily, shen_check

__all__ = [
    "CoefficientBundle",
    "BerwaldWorkspace",
    "CurvatureSample",
    "IsotropyReport",
    "TranscriptionAudit",
    "coefficients_generic",
    "coefficients_infinite_series",
    "coefficients_exponential",
    "s_curvature",
    "s_curvature_via_tensors",
    "berwald_workspace",
    "mean_berwald",
    "curvature_sample",
    "isotropy_test",
    "transcription_audit",
    "unit_directions",
]

_SING_TOL = 1e-12


# ---------------------------------------------------------------------------
# coefficient bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientBundle:
    """The scalar coefficients (Q, Q', Q'', Delta, Phi) at one (s, b, n)."""

    s: float
    b: float
    n: int
    Q: float
    Qp: float
    Qpp: float
    Delta: float
    Phi: float

    @property
    def psi(self) -> float:
        if abs(self.Delta) < _SING_TOL:
            raise SingularityError(f"Delta = 0 at s = {self.s:.6g} (psi undefined)")
        return self.Qp / (2.0 * self.Delta)

    def recompute_phi(self) -> float:
        """Phi re-evaluated from (Q, Q', Q'', Delta); identity check hook."""
        s, b, n = self.s, self.b, self.n
        return (-(self.Q - s * self.Qp) * (n * self.Delta + 1.0 + s * self.Q)
                - (b * b - s * s) * (1.0 + s * self.Q) * self.Qpp)


def coefficients_generic(phi: PhiFamily, s: float, b: float, n: int) -> CoefficientBundle:
    """Coefficients from phi and its first three derivatives.

    Quotient-rule forms: with D = phi - s phi' (D' = -s phi''),

        Q   = phi'/D
        Q'  = phi phi'' / D^2
        Q'' = ((phi' phi'' + phi phi''') D + 2 s phi phi''^2) / D^3.

    A pole of phi (an evaluator's ZeroDivisionError or a non-finite value)
    raises SingularityError.
    """
    try:
        vals = (phi.phi(s), phi.dphi(s), phi.d2phi(s), phi.d3phi(s))
    except ZeroDivisionError:
        vals = (math.nan,)
    if not all(map(math.isfinite, vals)):
        raise SingularityError(f"pole of phi ({phi.name}) at s = {s:.6g}")
    p, p1, p2, p3 = vals
    d = p - s * p1
    if abs(d) < _SING_TOL * max(1.0, abs(p), abs(s * p1)):
        raise SingularityError(f"phi - s*phi' = 0 at s = {s:.6g} ({phi.name})")
    q = p1 / d
    qp = p * p2 / d**2
    qpp = ((p1 * p2 + p * p3) * d + 2.0 * s * p * p2**2) / d**3
    delta = 1.0 + s * q + (b * b - s * s) * qp
    phi_big = (-(q - s * qp) * (n * delta + 1.0 + s * q)
               - (b * b - s * s) * (1.0 + s * q) * qpp)
    return CoefficientBundle(s=s, b=b, n=n, Q=q, Qp=qp, Qpp=qpp,
                             Delta=delta, Phi=phi_big)


def _horner(c, s):
    """Value at s (a float or an array) of the polynomial with ascending coefficients c."""
    out = 0.0
    for a in reversed(c):
        out = out * s + a
    return out


# Q = phi'/(phi - s phi') = N/D, ascending in s: the only per-family closed-form
# data.  _rational_forms derives everything else from it.
_RATIONAL_Q = {
    "infinite_series": ((-2, 1), (0, 1)),   # phi = s^2/(s-1): Q = (s-2)/s
    "exponential": ((1,), (1, -1)),         # phi = exp(s):     Q = 1/(1-s)
}


_RationalForms = namedtuple("_RationalForms", "N D A B DN DN1 DN2 PN PN1 PN2")


@functools.lru_cache(maxsize=256)
def _rational_forms(family: str, b: float, n: int) -> _RationalForms:
    """Ascending coefficients in s of the closed-route polynomials at (b, n).

    From Q = N/D, by polynomial arithmetic:

        A  = N'D - ND'                      Q'    = A / D^2
        B  = A'D - 2AD'                     Q''   = B / D^3
        DN = D^2 + sND + (b^2 - s^2)A       Delta = DN / D^2
        PN = -(ND - sA)(n DN + D^2 + sND)
             - (b^2 - s^2)(D + sN)B         Phi   = PN / D^4

    so W = Phi/(2 Delta^2) = PN/(2 DN^2), in which D cancels.  DN1, DN2,
    PN1 and PN2 are the first two s-derivatives of DN and PN.
    """
    try:
        num, den = (np.array(c, dtype=float) for c in _RATIONAL_Q[family])
    except KeyError:
        raise ValueError(
            f"no closed-form coefficients for family {family!r} (closed forms "
            f"exist for {sorted(_RATIONAL_Q)}); use the generic path"
        ) from None
    add, sub, mul, der = P.polyadd, P.polysub, P.polymul, P.polyder
    s = np.array([0.0, 1.0])
    k = np.array([b * b, 0.0, -1.0])                 # b^2 - s^2
    a = sub(mul(der(num), den), mul(num, der(den)))
    bq = sub(mul(der(a), den), 2.0 * mul(a, der(den)))
    nd, d2 = mul(num, den), mul(den, den)
    s_nd = mul(s, nd)
    dn = add(add(d2, s_nd), mul(k, a))
    pn = -add(mul(sub(nd, mul(s, a)), add(add(n * dn, d2), s_nd)),
              mul(mul(k, add(den, mul(s, num))), bq))
    polys = (num, den, a, bq, dn, der(dn), der(dn, 2), pn, der(pn), der(pn, 2))
    return _RationalForms(*(tuple(map(float, c)) for c in polys))


def _closed_coefficients(family: str, s: float, b: float, n: int) -> CoefficientBundle:
    forms = _rational_forms(family, b, n)
    d = _guard(_horner(forms.D, s), s, f"pole of Q ({family})")
    return CoefficientBundle(s=s, b=b, n=n, Q=_horner(forms.N, s) / d,
                             Qp=_horner(forms.A, s) / d**2,
                             Qpp=_horner(forms.B, s) / d**3,
                             Delta=_horner(forms.DN, s) / d**2,
                             Phi=_horner(forms.PN, s) / d**4)


def coefficients_infinite_series(s: float, b: float, n: int) -> CoefficientBundle:
    """Closed coefficients for phi(s) = s^2/(s-1); singular at s = 0."""
    return _closed_coefficients("infinite_series", s, b, n)


def coefficients_exponential(s: float, b: float, n: int) -> CoefficientBundle:
    """Closed coefficients for phi(s) = exp(s); singular at s = 1."""
    return _closed_coefficients("exponential", s, b, n)


def _factor_derivs(family: str, s: float, b: float, n: int):
    """W(s) = PN/(2 DN^2) with dW/ds and d2W/ds2 by the quotient rule.

    These derivatives are derived directly from the rational function and are
    the authoritative route; see ``transcription_audit`` for the comparison
    against the pre-expanded polynomial tables.
    """
    forms = _rational_forms(family, b, n)
    num, num1, num2 = (_horner(c, s) for c in (forms.PN, forms.PN1, forms.PN2))
    den, den1, den2 = (_horner(c, s) for c in (forms.DN, forms.DN1, forms.DN2))
    _guard(den, s, "Delta = 0")
    w = num / (2.0 * den**2)
    dw = (num1 * den - 2.0 * num * den1) / (2.0 * den**3)
    d2w = (num2 * den**2 - 4.0 * num1 * den * den1
           - 2.0 * num * den * den2 + 6.0 * num * den1**2) / (2.0 * den**4)
    return w, dw, d2w


# Pre-expanded polynomial tables for dW/ds and d2W/ds2 (the error-prone
# hand-expanded route).  Kept verbatim for the audit; do not use in
# computations.  Each entry carries its sign: the exponential tables expand -W.

def _series_expanded_d1(s: float, b: float, n: int) -> float:
    b2, b4 = b * b, b**4
    num = ((n + 1) * s**7 + (-11 * n + 1) * s**6 + 36 * n * s**5
           - 2 * ((n + 13) * b2 + 18 * n) * s**4 + 4 * (n + 13) * b2 * s**3
           - 36 * b2 * s**2 + 8 * (2 - n) * b4 * s + 8 * (2 * n - 1) * b4)
    den = s**3 - 3.0 * s**2 + 2.0 * b2
    return num / (2.0 * den**3)


def _series_expanded_d2(s: float, b: float, n: int) -> float:
    b2, b4, b6 = b * b, b**4, b**6
    num = (-2 * (n + 1) * s**9 - 6 * (-5 * n + 1) * s**8 - 144 * n * s**7
           + 24 * ((n + 6) * b2 + 12 * n) * s**6
           - 4 * ((37 * n + 114) * b2 + 54 * n) * s**5
           + 36 * (20 + 11 * n) * b2 * s**4
           + 48 * ((-7 + n) * b4 - (n + 9) * b2) * s**3
           + 48 * (13 - 5 * n) * b4 * s**2
           + 288 * (n - 1) * b4 * s + 16 * (2 - n) * b6)
    den = s**3 - 3.0 * s**2 + 2.0 * b2
    return num / (2.0 * den**4)


def _exponential_expanded_d1(s: float, b: float, n: int) -> float:
    b2, b4 = b * b, b**4
    num = (2 * n * s**4 - 3 * (n + 3) * s**2
           + (4 * (n + 2) * b2 + 3 * n + 1) * s
           - (1 + n + 3 * n * b2 - b2 + 2 * n * b4))
    den = 1.0 + b2 - s - s * s
    return num / (2.0 * den**3)


def _exponential_expanded_d2(s: float, b: float, n: int) -> float:
    b2, b4 = b * b, b**4
    num = (4 * n * s**5 - 2 * n * s**4 - 4 * (n - 2 * n * b2 + 8) * s**3
           + (20 * (n + 2) * b2 + 6 * (2 * n - 1)) * s**2
           + 2 * (-6 * n * b4 - 8 * n * b2 + 2 * b2 - 3 * n - 11) * s
           + 2 * ((-n + 6) * b2 + (-n + 4) * b4 - 1))
    den = 1.0 + b2 - s - s * s
    return num / (2.0 * den**4)


_EXPANDED = {
    "infinite_series": (1.0, _series_expanded_d1, _series_expanded_d2),
    "exponential": (-1.0, _exponential_expanded_d1, _exponential_expanded_d2),
}


@dataclass(frozen=True)
class TranscriptionAudit:
    """Comparison of the expanded derivative tables against the derived forms."""

    family: str
    max_rel_first: float
    max_rel_second: float
    tolerance: float

    @property
    def first_matches(self) -> bool:
        return self.max_rel_first <= self.tolerance

    @property
    def second_matches(self) -> bool:
        return self.max_rel_second <= self.tolerance


def transcription_audit(family: str, b: float = 0.5, n: int = 3,
                        samples: int = 50, tolerance: float = 1e-6) -> TranscriptionAudit:
    """Compare the pre-expanded dW/ds, d2W/ds2 tables against quotient-rule forms.

    Samples in-domain s values (away from the denominator zeros).  The
    quotient-rule forms win on any mismatch; known discrepancies in the
    second-derivative tables are documented in the README.
    """
    sign, d1_table, d2_table = _EXPANDED[family]
    if family == "infinite_series":
        grid = np.concatenate([np.linspace(-2.0, -0.15, samples),
                               np.linspace(1.1, 4.0, samples)])
    else:
        grid = np.linspace(-0.9, 0.9, 2 * samples)
    forms = _rational_forms(family, b, n)
    max1 = 0.0
    max2 = 0.0
    used = 0
    for s in grid:
        if abs(_horner(forms.DN, s)) < 0.05 or abs(_horner(forms.D, s)) < 0.1:
            continue
        _, dw, d2w = _factor_derivs(family, s, b, n)
        max1 = max(max1, abs(sign * d1_table(s, b, n) - dw) / (1.0 + abs(dw)))
        max2 = max(max2, abs(sign * d2_table(s, b, n) - d2w) / (1.0 + abs(d2w)))
        used += 1
        if used >= samples:
            break
    return TranscriptionAudit(family=family, max_rel_first=max1,
                              max_rel_second=max2, tolerance=tolerance)


# ---------------------------------------------------------------------------
# S-curvature
# ---------------------------------------------------------------------------

def _check_inputs(model: ReductiveModel, v: InvariantVector, spec: MetricSpec, y,
                  mode: str = "formal"):
    """Checked y as a float array with alpha = |y|; also enforces ``mode``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (model.m_dim,):
        raise ValueError(f"y must have {model.m_dim} components")
    with np.errstate(over="ignore"):
        alpha = float(np.linalg.norm(y))
    if not sys.float_info.min <= alpha * alpha < math.inf:
        raise _y_error(y, alpha)
    _check_spec(model, v, spec, mode)
    return y, alpha


def _y_error(y: np.ndarray, alpha: float) -> DomainError:
    if not y.any():
        return DomainError("y = 0 is outside the slit tangent space")
    return DomainError(
        f"|y| = {alpha:.3g}: y must be finite, with |y|^2 a normal float "
        "(neither subnormal nor overflowing)")


def _check_spec(model: ReductiveModel, v: InvariantVector, spec: MetricSpec, mode: str):
    """The checks that do not depend on y: spec.b against |v|, and ``mode``."""
    if abs(spec.b - v.b) > 1e-9:
        raise ValueError(
            f"MetricSpec.b = {spec.b} does not match |v| = {v.b}; "
            "build the spec with MetricSpec.for_vector"
        )
    if mode == "validated":
        _require_validated(model, v, spec)
    elif mode != "formal":
        raise ValueError(f"mode must be 'formal' or 'validated', got {mode!r}")


def _require_validated(model: ReductiveModel, v: InvariantVector, spec: MetricSpec):
    report = validate_model(model, v)
    if not report.passed:
        bad = report.failed_checks()[0]
        raise ValidatedModeError(
            f"validated mode: model check {bad.name!r} failed "
            f"(residual {bad.residual:.3g} > {bad.tolerance:.3g})")
    shen = shen_check(spec)
    if not shen.holds:
        raise ValidatedModeError(
            f"validated mode: positivity criterion fails for {spec.phi.name} "
            f"(min {shen.min_value:.6g} at s = {shen.argmin_s:.6g})")


def _guard(value: float, s: float, locus: str) -> float:
    """value, or SingularityError naming the locus when it is (nearly) zero."""
    if abs(value) < _SING_TOL:
        raise SingularityError(f"{locus} at s = {s:.6g}")
    return value


def s_curvature(model: ReductiveModel, v: InvariantVector, spec: MetricSpec,
                y, path: str = "closed_form", mode: str = "formal") -> float:
    """S(H, y), positively homogeneous of degree 1 in y.

    ``path`` selects "closed_form" (the rational functions derived from
    ``_RATIONAL_Q``, for the infinite-series and exponential profiles) or
    "generic" (from phi derivatives).  Degenerate cases are exact: v = 0 or
    [v, y]_m = 0 give 0.
    """
    y, alpha = _check_inputs(model, v, spec, y, mode)
    if path not in ("closed_form", "generic"):
        raise ValueError(f"path must be 'closed_form' or 'generic', got {path!r}")
    if v.c == 0.0:
        return 0.0
    br = v.c * (y @ model._brackets[-1])         # [v, y]_m
    if not br.any():
        return 0.0
    bvy_y = float(br @ y)
    bvy_v = v.c * float(br[-1])                 # <[v, y]_m, v>
    s = v.c * float(y[-1]) / alpha
    if path == "generic":
        bundle = coefficients_generic(spec.phi, s, spec.b, model.m_dim)
        _guard(bundle.Delta, s, "Delta = 0")
        return bundle.Phi / (2.0 * alpha * bundle.Delta**2) * (
            bvy_y + alpha * bundle.Q * bvy_v)
    family = spec.phi.name
    forms = _rational_forms(family, spec.b, model.m_dim)
    q = _horner(forms.N, s) / _guard(_horner(forms.D, s), s, f"pole of Q ({family})")
    dn = _guard(_horner(forms.DN, s), s, "Delta = 0")
    w = _horner(forms.PN, s) / (2.0 * dn**2)
    return w / alpha * bvy_y + w * q * bvy_v


# Per-row flags of _s_rows: 0 marks a regular row, the others the locus at
# which the scalar call for that row raises (see _row_error).
_ROW_Y, _ROW_PHI_POLE, _ROW_PHI_D, _ROW_Q_POLE, _ROW_DELTA = 1, 2, 3, 4, 5

_Rows = namedtuple("_Rows", "S flag s phi")


def _phi_at(f, s: float) -> float:
    try:
        return f(s)
    except ZeroDivisionError:
        return math.nan


# The two helpers below keep each row of a block bit-identical to the scalar
# call: numpy's array power rounds differently from Python's float ``**`` in
# a few per cent of entries (also inside the profile evaluators, such as
# (s - 1)**3), which near Delta = 0 moved S by up to 2e-14 relative.

def _phi_rows(f, s: np.ndarray) -> np.ndarray:
    """The scalar evaluator f at every entry of s; a pole (ZeroDivisionError) reads nan."""
    ts = s.tolist()
    try:
        return np.fromiter(map(f, ts), float, len(ts))
    except ZeroDivisionError:
        return np.fromiter((_phi_at(f, t) for t in ts), float, len(ts))


def _pow_rows(x: np.ndarray, k: int) -> np.ndarray:
    """x**k entry by entry, rounded as the scalar route rounds it."""
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(k)), float, len(x))


def _s_rows(model: ReductiveModel, v: InvariantVector, spec: MetricSpec, Y,
            path: str, mode: str = "formal") -> _Rows:
    """S(H, y) at every row y of Y (N x n) by ``path``, in one array pass.

    The block form of ``s_curvature``: spec.b and ``mode`` are checked once,
    and every scalar guard is a row mask with the same threshold.  A row at
    which the scalar call raises gets S = nan and a nonzero ``flag``
    (``_row_error`` rebuilds that error); a row with [v, y]_m = 0 gets exactly
    0.  ``s`` is beta/alpha per row and ``phi`` is phi(s) on the generic
    route (None on the closed route).
    """
    _check_spec(model, v, spec, mode)
    if path not in ("closed_form", "generic"):
        raise ValueError(f"path must be 'closed_form' or 'generic', got {path!r}")
    Y = np.asarray(Y, dtype=float)
    n, b, c = model.m_dim, spec.b, v.c
    if Y.ndim != 2 or Y.shape[1] != n:
        raise ValueError(f"Y must have shape (N, {n})")
    # Stacked one-row products (Y[:, None, :] @ ...) run the same vector
    # kernels as the scalar route's y @ y and y @ br[-1], so they round alike.
    stacked = Y[:, None, :]
    with np.errstate(all="ignore"):
        alpha = np.sqrt((stacked @ Y[:, :, None])[:, 0, 0])
        sq = alpha * alpha
        bad_y = ~((sq >= sys.float_info.min) & (sq < math.inf))
        by = c * (stacked @ model._brackets[-1])[:, 0]           # [v, y]_m per row
        live = by.any(axis=1)
        bvy_y = (by[:, None, :] @ Y[:, :, None])[:, 0, 0]
        bvy_v = c * by[:, -1]
        s = c * Y[:, -1] / alpha
        if path == "generic":
            phi = spec.phi
            p, p1, p2, p3 = (_phi_rows(f, s) for f in (phi.phi, phi.dphi, phi.d2phi, phi.d3phi))
            d = p - s * p1
            q = p1 / d
            qp = p * p2 / _pow_rows(d, 2)
            qpp = ((p1 * p2 + p * p3) * d + 2.0 * s * p * _pow_rows(p2, 2)) / _pow_rows(d, 3)
            delta = 1.0 + s * q + (b * b - s * s) * qp
            phi_big = (-(q - s * qp) * (n * delta + 1.0 + s * q)
                       - (b * b - s * s) * (1.0 + s * q) * qpp)
            out = (phi_big / (2.0 * alpha * _pow_rows(delta, 2))
                   * (bvy_y + alpha * q * bvy_v))
            pole = ~(np.isfinite(p) & np.isfinite(p1) & np.isfinite(p2) & np.isfinite(p3))
            d_scale = np.maximum(np.maximum(np.abs(p), np.abs(s * p1)), 1.0)
            # the scalar checks run in the reverse order; a later mask wins
            loci = ((np.abs(delta) < _SING_TOL, _ROW_DELTA),
                    (np.abs(d) < _SING_TOL * d_scale, _ROW_PHI_D),
                    (pole, _ROW_PHI_POLE))
        else:
            p = None
            forms = _rational_forms(spec.phi.name, b, n)
            den = _horner(forms.D, s)
            dn = _horner(forms.DN, s)
            q = _horner(forms.N, s) / den
            w = _horner(forms.PN, s) / (2.0 * _pow_rows(dn, 2))
            out = w / alpha * bvy_y + w * q * bvy_v
            loci = ((np.abs(dn) < _SING_TOL, _ROW_DELTA),
                    (np.abs(den) < _SING_TOL, _ROW_Q_POLE))
    flag = np.zeros(len(Y), dtype=np.int8)
    for mask, code in loci:
        flag[mask] = code
    flag[~live] = 0
    flag[bad_y] = _ROW_Y
    S = np.where(flag > 0, math.nan, np.where(live, out, 0.0))
    return _Rows(S=S, flag=flag, s=s, phi=p)


def _row_error(rows: _Rows, k: int, y: np.ndarray, name: str) -> FinslerError:
    """The error that the scalar S raises at y, row k of a flagged block."""
    code, s = int(rows.flag[k]), float(rows.s[k])
    if code == _ROW_Y:
        with np.errstate(over="ignore"):
            return _y_error(y, float(np.linalg.norm(y)))
    if code == _ROW_PHI_D:
        return SingularityError(f"phi - s*phi' = 0 at s = {s:.6g} ({name})")
    locus = {_ROW_PHI_POLE: f"pole of phi ({name})", _ROW_Q_POLE: f"pole of Q ({name})",
             _ROW_DELTA: "Delta = 0"}[code]
    return SingularityError(f"{locus} at s = {s:.6g}")


def s_curvature_via_tensors(model: ReductiveModel, v: InvariantVector,
                            spec: MetricSpec, y, mode: str = "formal") -> float:
    """S(H, y) assembled from the contracted origin tensors.

    Uses S = -Phi/(2 alpha Delta^2) (r_00 - 2 alpha Q s_0) with
    r_00 = r_ij y^i y^j and s_0 = c s_ni y^i; must agree with
    ``s_curvature`` to rounding.
    """
    y, alpha = _check_inputs(model, v, spec, y, mode)
    if v.c == 0.0:
        return 0.0
    tensors = origin_tensors(model, v)
    r00 = float(y @ tensors.r @ y)
    s0 = v.c * float(tensors.s[-1] @ y)
    if r00 == 0.0 and s0 == 0.0:
        return 0.0
    s = v.c * float(y[-1]) / alpha
    bundle = coefficients_generic(spec.phi, s, spec.b, model.m_dim)
    _guard(bundle.Delta, s, "Delta = 0")
    return -bundle.Phi / (2.0 * alpha * bundle.Delta**2) * (
        r00 - 2.0 * alpha * bundle.Q * s0)


# ---------------------------------------------------------------------------
# mean Berwald curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BerwaldWorkspace:
    """Intermediates of the closed-form E assembly at one (model, v, y).

    ``factor`` is W(s) = Phi/(2 Delta^2) with its first two s-derivatives;
    ``s_y`` and ``s_yy`` are the y-derivatives of s = beta/alpha in the
    origin frame (where the lowered index is trivial: y_i = y^i).
    """

    s: float
    alpha: float
    factor: float
    dfactor_ds: float
    d2factor_ds2: float
    s_y: np.ndarray = field(repr=False)
    s_yy: np.ndarray = field(repr=False)
    y_lowered: np.ndarray = field(repr=False)


def _s_derivs(c: float, y: np.ndarray, alpha: float):
    """s = c y_n / alpha with its gradient and Hessian in y."""
    s = c * float(y[-1]) / alpha
    b_vec = np.zeros(len(y))
    b_vec[-1] = c
    s_y = (b_vec * alpha - s * y) / alpha**2
    s_yy = (-(np.outer(b_vec, y) + np.outer(y, b_vec)) * alpha
            + 3.0 * s * np.outer(y, y) - alpha**2 * s * np.eye(len(y))) / alpha**4
    return s, s_y, s_yy


def berwald_workspace(model: ReductiveModel, v: InvariantVector,
                      spec: MetricSpec, y) -> BerwaldWorkspace:
    """Populate the scalar factor and the s-derivative arrays for E.

    Only the profiles in ``_RATIONAL_Q`` (infinite series and exponential)
    carry a closed-form factor; other families raise ValueError.
    """
    y, alpha = _check_inputs(model, v, spec, y)
    s, s_y, s_yy = _s_derivs(v.c, y, alpha)
    w, dw, d2w = _factor_derivs(spec.phi.name, s, spec.b, model.m_dim)
    return BerwaldWorkspace(s=s, alpha=alpha, factor=w, dfactor_ds=dw,
                            d2factor_ds2=d2w, s_y=s_y, s_yy=s_yy,
                            y_lowered=y.copy())


def _hessian_of_product(f, s_y, s_yy, g, g_y, g_yy) -> np.ndarray:
    """Hessian in y of f(s(y)) g(y) from f = (f, f', f'') at s and g, g_y, g_yy.

    Every term is exactly symmetric, so the sum is too.
    """
    f0, f1, f2 = f
    t = np.outer(s_y, g_y)
    return f2 * g * np.outer(s_y, s_y) + f1 * g * s_yy + f1 * (t + t.T) + f0 * g_yy


def _mean_berwald_closed(model, v, spec, y, alpha) -> np.ndarray:
    """Half the Hessian of the closed S, assembled at y/|y| and divided by |y|."""
    n, family = model.m_dim, spec.phi.name
    y = y / alpha
    s, s_y, s_yy = _s_derivs(v.c, y, 1.0)
    w = _factor_derivs(family, s, spec.b, n)
    c = _closed_coefficients(family, s, spec.b, n)
    p = v.c * model._brackets[-1].T       # P[:, j] = [v, v_j]_m
    if not p.any():
        return np.zeros((n, n))
    py = p @ y
    g = float(py @ y)                     # <[v,y],y> at |y| = 1
    u = p.T @ y + py                      # <[v,v_i],y> + <[v,y],v_i>
    t = np.outer(u, y)
    g_yy = (p + p.T) - (t + t.T) - g * np.eye(n) + 3.0 * g * np.outer(y, y)
    first = _hessian_of_product(w, s_y, s_yy, g, u - g * y, g_yy)
    wq = (w[0] * c.Q, w[1] * c.Q + w[0] * c.Qp,
          w[2] * c.Q + 2.0 * w[1] * c.Qp + w[0] * c.Qpp)
    second = _hessian_of_product(wq, s_y, s_yy, float(py @ v.frame_coords(model)),
                                 v.c * p[-1, :], 0.0)  # <[v,v_i],v>; linear in y
    return 0.5 * (first + second) / alpha


@functools.lru_cache(maxsize=32)
def _stencil(n: int) -> np.ndarray:
    """Points of one central-difference Hessian level, in units of the step.

    The centre, then for each i the pair +e_i, -e_i and the four corners
    (+-e_i +- e_j) of every j > i: 1 + 2n + 2n(n - 1) rows, in the order in
    which a row-by-row fill of the full Hessian first meets them.
    """
    eye = np.eye(n)
    rows = [np.zeros(n)]
    for i in range(n):
        rows += [eye[i], -eye[i]]
        for j in range(i + 1, n):
            rows += [eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j], -eye[i] - eye[j]]
    out = np.array(rows)
    out.setflags(write=False)
    return out


def _stencil_hessian(vals: list, n: int, hh: float) -> np.ndarray:
    """The central-difference Hessian from S at the ``_stencil`` points; i < j mirrored."""
    out = np.empty((n, n))
    s0, k = vals[0], 1
    for i in range(n):
        out[i, i] = (vals[k] - 2.0 * s0 + vals[k + 1]) / hh**2
        k += 2
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = (vals[k] - vals[k + 1] - vals[k + 2]
                                     + vals[k + 3]) / (4.0 * hh**2)
            k += 4
    return out


def _mean_berwald_fd(model, v, spec, y, h) -> np.ndarray:
    """Half the Richardson-refined central-difference Hessian of S at unit y.

    The stencils of both step sizes are one block of generic S; the first
    flagged point raises the error that the scalar S raises there.
    """
    n = model.m_dim
    if h <= 0.0 or np.all(y + h * np.eye(n)[0] == y):
        raise DomainError(f"finite-difference step underflow (h = {h:.3g} |y|)")
    points = _stencil(n)
    block = y + np.concatenate([(h / 2.0) * points, h * points])
    rows = _s_rows(model, v, spec, block, "generic")
    bad = np.flatnonzero(rows.flag)
    if bad.size:
        raise _row_error(rows, bad[0], block[bad[0]], spec.phi.name)
    vals = rows.S.tolist()
    m = len(points)
    # one Richardson refinement of the O(h^2) central stencils
    refined = (4.0 * _stencil_hessian(vals[:m], n, h / 2.0)
               - _stencil_hessian(vals[m:], n, h)) / 3.0
    return 0.5 * refined


def mean_berwald(model: ReductiveModel, v: InvariantVector, spec: MetricSpec,
                 y, path: str = "closed_form", mode: str = "formal",
                 step: float | None = None) -> np.ndarray:
    """E(H, y) as an n x n symmetric matrix.

    "closed_form" assembles the Hessian of the closed S (exactly symmetric);
    "finite_difference" returns half the Richardson-refined central-difference
    Hessian of the generic-path S, with step ``step`` (default 1e-4 |y|).
    Both routes work at y/|y| and divide by |y|: E(lambda y) = E(y)/lambda.
    """
    y, alpha = _check_inputs(model, v, spec, y, mode)
    n = model.m_dim
    if v.c == 0.0:
        return np.zeros((n, n))
    if path == "closed_form":
        return _mean_berwald_closed(model, v, spec, y, alpha)
    if path == "finite_difference":
        if not model._brackets[-1].any():
            return np.zeros((n, n))
        h = 1e-4 if step is None else step / alpha
        return _mean_berwald_fd(model, v, spec, y / alpha, h) / alpha
    raise ValueError(
        f"path must be 'closed_form' or 'finite_difference', got {path!r}")


@dataclass(frozen=True)
class CurvatureSample:
    """S and E at one tangent vector, tagged with the evaluation route."""

    y: np.ndarray = field(repr=False)
    S: float = 0.0
    E: np.ndarray = field(default=None, repr=False)
    path: str = "closed_form"


def curvature_sample(model: ReductiveModel, v: InvariantVector, spec: MetricSpec,
                     y, path: str = "closed_form", mode: str = "formal") -> CurvatureSample:
    """Bundle S and E computed along one route.

    "closed_form" pairs the closed S with the closed E; "generic" and
    "finite_difference" pair the generic S with the finite-difference E.
    """
    y = np.asarray(y, dtype=float)
    if path == "closed_form":
        s_val = s_curvature(model, v, spec, y, path="closed_form", mode=mode)
        e_val = mean_berwald(model, v, spec, y, path="closed_form", mode=mode)
        tag = "closed_form"
    elif path in ("generic", "finite_difference"):
        s_val = s_curvature(model, v, spec, y, path="generic", mode=mode)
        e_val = mean_berwald(model, v, spec, y, path="finite_difference", mode=mode)
        tag = "finite_difference" if path == "finite_difference" else "generic"
    else:
        raise ValueError(f"unknown sample path {path!r}")
    return CurvatureSample(y=y, S=s_val, E=e_val, path=tag)


# ---------------------------------------------------------------------------
# isotropy
# ---------------------------------------------------------------------------

def unit_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform directions on the unit sphere (normalized Gaussian rows)."""
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


@dataclass(frozen=True)
class IsotropyReport:
    isotropic: bool
    c_h: float
    vanishing: bool
    residual: float
    samples_used: int


def isotropy_test(model: ReductiveModel, v: InvariantVector, spec: MetricSpec,
                  sample_count: int, seed: int = 0) -> IsotropyReport:
    """Least-squares fit of S(H, y) = (n+1) c F(y) over sampled directions.

    ``isotropic`` means the fit residual is below 1e-8 of the sample scale.
    Whenever it holds the fitted c must vanish (evaluating at y = v forces
    it), so isotropic S-curvature coincides with vanishing S-curvature here;
    ``vanishing`` reports max |S| <= 1e-10 * scale directly.
    """
    n = model.m_dim
    if sample_count < n + 1:
        raise ValueError(f"sample_count must be >= n + 1 = {n + 1}")
    rng = np.random.default_rng(seed)
    limit = 200 * sample_count
    s_parts, f_parts = [], []
    used = attempts = 0
    while used < sample_count:
        # the same draws, in the same order, as one direction per attempt
        if attempts >= limit:
            raise DomainError("degenerate sample set: could not draw in-domain directions")
        block = unit_directions(n, min(sample_count - used, limit - attempts), rng)
        attempts += len(block)
        rows = _s_rows(model, v, spec, block, "generic")
        keep = (rows.flag == 0) & np.isfinite(rows.S) & np.isfinite(rows.phi)
        s_parts.append(rows.S[keep])
        f_parts.append(rows.phi[keep])      # F(y) = phi(s) with alpha = 1 on the sphere
        used += int(np.count_nonzero(keep))
    s_arr = np.concatenate(s_parts)
    f_arr = np.concatenate(f_parts)
    denom = float(f_arr @ f_arr)
    if denom == 0.0:
        raise DomainError("degenerate sample set: F vanished on all directions")
    c_fit = float(s_arr @ f_arr) / ((n + 1) * denom)
    residual = float(np.max(np.abs(s_arr - (n + 1) * c_fit * f_arr)))
    scale = max(1.0, float(np.max(np.abs(s_arr))))
    return IsotropyReport(
        isotropic=residual <= 1e-8 * scale,
        c_h=c_fit,
        vanishing=float(np.max(np.abs(s_arr))) <= 1e-10 * scale,
        residual=residual,
        samples_used=used,
    )
