"""S-curvature and mean Berwald curvature at the origin of a homogeneous space.

With an orthonormal frame of m whose last vector points along the invariant
vector v (|v| = c = b), the curvature scalar at the origin is

    S(y) = Phi / (2 alpha Delta^2) * ( <[v,y]_m, y> + alpha Q <[v,y]_m, v> ),

where alpha = |y|, s = <v,y>/alpha, and Q, Delta, Phi are scalar functions
of (s, b, n) built from the metric profile phi:

    Q     = phi' / (phi - s phi')
    Delta = 1 + s Q + (b^2 - s^2) Q'
    Phi   = -(Q - s Q')(n Delta + 1 + s Q) - (b^2 - s^2)(1 + s Q) Q''

Three independent evaluation routes are provided and cross-checked by the
test suite:

* ``generic``      - Q, Delta, Phi from phi and its derivatives (quotient rule);
* ``closed_form``  - for every exact profile (the built-ins and the
                     polynomials), Q = N/D with the polynomials N and D that
                     ``metrics`` derives from phi, from which _rational_forms
                     derives Q', Q'', Delta, Phi and W = Phi/(2 Delta^2) as
                     rational functions of s, so that
                     S = W/alpha <[v,y],y> + W Q <[v,y],v>;
* ``via tensors``  - S = -Phi/(2 alpha Delta^2) (r_00 - 2 alpha Q s_0) from
                     the contracted origin tensors instead of raw brackets.

The mean Berwald curvature E_ij = (1/2) d^2 S / dy_i dy_j has a closed form
for the same profiles and a finite-difference route that Hessians the
generic S.  The closed form is the Hessian of W(s) <[v,y],y>/alpha +
(WQ)(s) <[v,y],v> at y/|y|, divided by |y|: one symmetric 4 x 4 matrix M of
scalars in (s, W, W', W'', Q, Q', Q'') sandwiched between the four vectors
s_y, y, <[v,v_i],y> + <[v,y],v_i> and <[v,v_i],v>, plus multiples of
P + P^T and of the identity (see ``_mean_berwald_closed``).

Every route reads [v,y]_m = c (y @ br[-1]) from the frame brackets
br[a,b,c] = <[v_a,v_b]_m, v_c> that each model computes once.  A block of
directions Y (N x n) is then one matmul plus elementwise arithmetic in s:
``_s_rows`` evaluates the generic or closed S for every row at once, each
scalar guard becoming a per-row locus flag.  The finite-difference Hessian,
``isotropy_test`` and the CLI ``scan`` use it; single-vector calls keep the
scalar path.  Both paths call the same formulas (``_quotient_coefficients``,
``_generic_s``, ``_closed_s``), once on floats and once on arrays.  Every
integer power in them, and in the built-in profiles, is a product, and a
product or quotient rounds alike on a float and on an array entry, so each
row equals the scalar S bit for bit; for the exponential profile the kernel
takes libm's exp once per row, as the scalar route does.

A scalar call does per-direction work only.  What depends on (model, v)
alone is one record per (model, v), kept in ``model._records`` (``_Record``):
br[-1]; Pt = c br[-1] with a flag for [v, .]_m = 0; closed E's Pt + Pt^T and
c Pt[:, -1]; and, built when first asked for, the tensor route's r and s[-1]
and the validated gate's model verdict.  The gate's Shen verdict is the
spec's ``_shen``, which a public ``shen_check`` at its default grid leaves
there, so a space that the caller has already checked is not checked again.
Per direction a call takes alpha = sqrt(y.dot(y)) (under numpy's overflow
guard only when some |y_i| >= 1e150), [v, y]_m, its two contractions and s,
then the coefficients at s: phi and its derivatives on the generic routes,
or the closed forms N, D, DN, PN (all ten for E) from one compiled Horner
evaluation.  The vector products of S and closed E use ``ndarray.dot``,
which matmul equals but for the sign of a zero sum (matmul adds the sum to
+0.0); a ``+ 0.0`` restores that sign, so every value keeps its bits.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .algebra import (
    DEFAULT_TOL,
    InvariantVector,
    ReductiveModel,
    _check_residuals,
    origin_tensors,
)
from .errors import DomainError, FinslerError, SingularityError, ValidatedModeError
from .metrics import ExactProfile, MetricSpec, PhiFamily, phi_family

__all__ = [
    "CoefficientBundle",
    "BerwaldWorkspace",
    "IsotropyReport",
    "TranscriptionAudit",
    "coefficients_generic",
    "coefficients_infinite_series",
    "coefficients_exponential",
    "s_curvature",
    "s_curvature_via_tensors",
    "berwald_workspace",
    "mean_berwald",
    "isotropy_test",
    "transcription_audit",
    "unit_directions",
]

_SING_TOL = 1e-12
_NO_Q = "phi - s*phi' = 0 at s = {:.6g} ({})"     # the locus where Q is undefined


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


def coefficients_generic(phi: PhiFamily, s: float, b: float, n: int) -> CoefficientBundle:
    """Coefficients from phi and its first three derivatives.

    Quotient-rule forms: with D = phi - s phi' (D' = -s phi''),

        Q   = phi'/D
        Q'  = phi phi'' / D^2
        Q'' = ((phi' phi'' + phi phi''') D + 2 s phi phi''^2) / D^3.

    A pole of phi (an evaluator's ZeroDivisionError or a non-finite value)
    raises SingularityError, and an evaluator's OverflowError DomainError.
    """
    return CoefficientBundle(s, b, n, *_generic_coefficients(phi, s, b, n))


def _generic_coefficients(phi: PhiFamily, s: float, b: float, n: int) -> tuple:
    """(Q, Q', Q'', Delta, Phi) as a plain tuple; see ``coefficients_generic``."""
    try:
        vals = (phi.phi(s), phi.dphi(s), phi.d2phi(s), phi.d3phi(s))
    except ZeroDivisionError:
        vals = (math.nan,)
    except OverflowError:
        raise DomainError(f"overflow of phi ({phi.name}) at s = {s:.6g}") from None
    if not all(map(math.isfinite, vals)):
        raise SingularityError(f"pole of phi ({phi.name}) at s = {s:.6g}")
    p, p1, p2, p3 = vals
    d = p - s * p1
    if abs(d) < _SING_TOL * max(1.0, abs(p), abs(s * p1)):
        raise SingularityError(_NO_Q.format(s, phi.name))
    return _quotient_coefficients(p, p1, p2, p3, d, s, b, n)


def _quotient_coefficients(p, p1, p2, p3, d, s, b, n) -> tuple:
    """(Q, Q', Q'', Delta, Phi) from phi and its first three derivatives, d = phi - s phi'.

    Floats or arrays alike; the caller guards d (and a pole of phi) first.
    """
    q = p1 / d
    qp = p * p2 / (d * d)
    qpp = ((p1 * p2 + p * p3) * d + 2.0 * s * p * (p2 * p2)) / (d * d * d)
    delta = 1.0 + s * q + (b * b - s * s) * qp
    phi_big = (-(q - s * qp) * (n * delta + 1.0 + s * q)
               - (b * b - s * s) * (1.0 + s * q) * qpp)
    return q, qp, qpp, delta, phi_big


def _generic_s(q, delta, phi_big, alpha, bvy_y, bvy_v):
    """S = Phi / (2 alpha Delta^2) (<[v,y]_m, y> + alpha Q <[v,y]_m, v>); floats or arrays."""
    return phi_big / (2.0 * alpha * (delta * delta)) * (bvy_y + alpha * q * bvy_v)


def _closed_s(num, den, dn, pn, alpha, bvy_y, bvy_v):
    """S = W/alpha <[v,y]_m, y> + W Q <[v,y]_m, v> from the values of N, D, DN and PN.

    Q = N/D and W = PN/(2 DN^2); floats or arrays, the caller guards D and DN.
    """
    q = num / den
    w = pn / (2.0 * (dn * dn))
    return w / alpha * bvy_y + w * q * bvy_v


def _libm_exp(t: float) -> float:
    """math.exp(t), inf where it overflows."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


class _RationalForms(namedtuple("_RationalForms", "N D A B DN DN1 DN2 PN PN1 PN2")):
    """The closed-route polynomials of ``_rational_forms``, with one-call evaluators."""

    @functools.cached_property
    def s_values_at(self):
        """s -> (N, D, DN, PN) at s (a float or an array): what closed S reads."""
        return _evaluator(self.N, self.D, self.DN, self.PN)

    @functools.cached_property
    def values_at(self):
        """s -> all ten polynomials at s, in field order: what closed E reads."""
        return _evaluator(*self)


def _evaluator(*polys):
    """s -> the values at s of these ascending coefficient tuples, as one call."""
    return functools.partial(_horner_code(tuple(map(len, polys))), *polys)


@functools.lru_cache(maxsize=64)
def _horner_code(lengths: tuple):
    """f(c_0, ..., c_k, s) -> (c_0(s), ..., c_k(s)) for coefficient tuples of these lengths.

    Straight-line code in the op order of ``metrics._horner``, so each value
    has its bits; compiled once per tuple of lengths, which depends on the
    profile's degrees and not on b or n, so a new space compiles nothing.
    """
    body, values = [], []
    for k, length in enumerate(lengths):
        names = [f"c{k}_{i}" for i in range(length)]
        body.append(f"    {', '.join(names)}, = c{k}")
        expr = names[-1]
        for a in names[-2::-1]:
            expr = f"{a} + ({expr}) * s"
        values.append(expr)
    args = "".join(f"c{k}, " for k in range(len(lengths)))
    scope = {}
    exec(f"def horner({args}s):\n" + "\n".join(body)
         + f"\n    return ({''.join(v + ', ' for v in values)})", scope)
    return scope["horner"]


@functools.lru_cache(maxsize=256)
def _rational_forms(exact: ExactProfile, b: float, n: int) -> _RationalForms | None:
    """Ascending coefficients in s of the closed-route polynomials at (b, n).

    From the profile's Q = N/D, by polynomial arithmetic:

        A  = N'D - ND'                      Q'    = A / D^2
        B  = A'D - 2AD'                     Q''   = B / D^3
        DN = D^2 + sND + (b^2 - s^2)A       Delta = DN / D^2
        PN = -(ND - sA)(n DN + D^2 + sND)
             - (b^2 - s^2)(D + sN)B         Phi   = PN / D^4

    so W = Phi/(2 Delta^2) = PN/(2 DN^2), in which D cancels.  DN1, DN2,
    PN1 and PN2 are the first two s-derivatives of DN and PN.  None without Q.
    """
    if exact.Q is None:
        return None
    num, den = (np.array(c) for c in exact.Q)
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


def _closed_coefficients(forms: _RationalForms, s: float, name: str) -> tuple:
    """(Q, Q', Q'', Delta, Phi) from the closed forms; a pole of Q raises."""
    num, den, a, bq, dn, _, _, pn, _, _ = forms.values_at(s)
    d = _guard(den, s, f"pole of Q ({name})")
    return num / d, a / (d * d), bq / (d * d * d), dn / (d * d), pn / (d * d * d * d)


def coefficients_infinite_series(s: float, b: float, n: int) -> CoefficientBundle:
    """Closed coefficients for phi(s) = s^2/(s-1); singular at s = 0."""
    forms = _rational_forms(phi_family("infinite_series").exact, b, n)
    return CoefficientBundle(s, b, n, *_closed_coefficients(forms, s, "infinite_series"))


def coefficients_exponential(s: float, b: float, n: int) -> CoefficientBundle:
    """Closed coefficients for phi(s) = exp(s); singular at s = 1."""
    forms = _rational_forms(phi_family("exponential").exact, b, n)
    return CoefficientBundle(s, b, n, *_closed_coefficients(forms, s, "exponential"))


def _factor_derivs(forms: _RationalForms | None, s: float, name: str):
    """W(s) = PN/(2 DN^2) with dW/ds and d2W/ds2 by the quotient rule; no Q raises at s.

    These derivatives are derived directly from the rational function and are
    the authoritative route; see ``transcription_audit`` for the comparison
    against the pre-expanded polynomial tables.
    """
    if forms is None:
        raise SingularityError(_NO_Q.format(s, name))
    return _w_derivs(*forms.values_at(s)[4:], s)


def _w_derivs(den, den1, den2, num, num1, num2, s):
    """(W, W', W'') from DN, DN', DN'' (den...) and PN, PN', PN'' (num...) at s;
    Delta = 0 raises."""
    _guard(den, s, "Delta = 0")
    w = num / (2.0 * (den * den))
    dw = (num1 * den - 2.0 * num * den1) / (2.0 * (den * den * den))
    d2w = (num2 * (den * den) - 4.0 * num1 * den * den1
           - 2.0 * num * den * den2 + 6.0 * num * (den1 * den1)) / (2.0 * (den * den * den * den))
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
    phi = phi_family(family)
    if family == "infinite_series":
        grid = np.concatenate([np.linspace(-2.0, -0.15, samples),
                               np.linspace(1.1, 4.0, samples)])
    else:
        grid = np.linspace(-0.9, 0.9, 2 * samples)
    forms = _rational_forms(phi.exact, b, n)
    max1 = max2 = 0.0
    used = 0
    for s in grid:
        _, den, dn, _ = forms.s_values_at(s)
        if abs(dn) < 0.05 or abs(den) < 0.1:
            continue
        _, dw, d2w = _factor_derivs(forms, s, family)
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

_S_PATHS = ("closed_form", "generic")
_E_PATHS = ("closed_form", "finite_difference")


class _Record:
    """What the scalar routes read at one (model, v) that does not depend on y.

    ``bn`` = br[-1], so that [v, y]_m = c (y @ bn); ``pt`` = c bn, whose row i
    is [v, v_i]_m, with ``live`` false where [v, .]_m = 0, and E's constants
    ``sym`` = Pt + Pt^T and ``col`` = c Pt[:, -1].  Built when first asked for:
    ``tensors``, the tensor route's (r, s[-1]), so that a bracket route never
    builds the origin tensors, and ``verdict``, the validated gate's model
    verdict: '' when every check of ``validate_model(model, v)`` passes,
    else the refusal naming the first that fails.  It is taken from the
    model's cached residuals and the v-invariance residual, with no
    ``ValidationReport``.  ``_check_spec`` makes one record per (model, v),
    kept in ``model._records``.
    """

    __slots__ = ("bn", "pt", "live", "sym", "col", "tensors", "verdict")

    def __init__(self, model: ReductiveModel, v: InvariantVector):
        self.bn = model._brackets[-1]
        self.pt = pt = v.c * self.bn
        self.live = bool(pt.any())
        self.sym, self.col = pt + pt.T, v.c * pt[:, -1]
        self.tensors = self.verdict = None


def _check_spec(model: ReductiveModel, v: InvariantVector, spec: MetricSpec, mode: str,
                path: str, paths: tuple) -> tuple:
    """Every check that does not depend on y, in this order: ``path`` is one of
    ``paths``; the closed path has closed forms (ValueError for callables);
    spec.b matches |v|; ``mode``.  Returns the closed forms (None on another
    path or without Q, which the closed routes raise at s) and the record."""
    if path not in paths:
        raise ValueError(f"path must be {paths[0]!r} or {paths[1]!r}, got {path!r}")
    forms = None
    if path == "closed_form":
        if spec.phi.exact is None:
            raise ValueError(f"no closed-form coefficients for family {spec.phi.name!r} (user "
                             "callables have no exact form); use the generic path")
        forms = _rational_forms(spec.phi.exact, spec.b, model.m_dim)
    if not abs(spec.b - v.b) <= 1e-9:           # a NaN is refused
        raise ValueError(f"MetricSpec.b = {spec.b} does not match |v| = {v.b}; "
                         "build the spec with MetricSpec.for_vector")
    rec = model._records.get(v)
    if rec is None:
        rec = model._records[v] = _Record(model, v)
    if mode == "validated":
        if rec.verdict is None:
            rec.verdict = next((f"validated mode: model check {name!r} failed "
                                f"(residual {residual:.3g} > {DEFAULT_TOL:.3g})"
                                for name, residual in _check_residuals(model, v)
                                if not residual <= DEFAULT_TOL), "")
        if rec.verdict:
            raise ValidatedModeError(rec.verdict)
        shen = spec._shen
        if not shen.holds:
            raise ValidatedModeError(
                f"validated mode: positivity criterion fails for {spec.phi.name} "
                f"(min {shen.min_value:.6g} at s = {shen.argmin_s:.6g})")
    elif mode != "formal":
        raise ValueError(f"mode must be 'formal' or 'validated', got {mode!r}")
    return forms, rec


def _check_inputs(model: ReductiveModel, v: InvariantVector, spec: MetricSpec, y,
                  mode: str, path: str, paths: tuple):
    """``_check_spec``, then y: (y as a float array and as a list, alpha = |y|,
    the closed forms, the record)."""
    forms, rec = _check_spec(model, v, spec, mode, path, paths)
    y = np.asarray(y, dtype=float)
    if y.shape != (model.m_dim,):
        raise ValueError(f"y must have {model.m_dim} components")
    ys = y.tolist()
    # np.linalg.norm is sqrt(y.dot(y)); below 1e150 no |y_i| can overflow y.dot(y),
    # and a NaN that slips past max() fails the range check as the norm's NaN would
    if max(map(abs, ys)) < 1e150 and y.flags.c_contiguous:
        alpha = math.sqrt(y.dot(y))
    else:
        with np.errstate(over="ignore"):
            alpha = float(np.linalg.norm(y))
    if not sys.float_info.min <= alpha * alpha < math.inf:
        raise _y_error(y, alpha)
    return y, ys, alpha, forms, rec


def _y_error(y: np.ndarray, alpha: float) -> DomainError:
    if not y.any():
        return DomainError("y = 0 is outside the slit tangent space")
    return DomainError(
        f"|y| = {alpha:.3g}: y must be finite, with |y|^2 a normal float "
        "(neither subnormal nor overflowing)")


def _guard(value: float, s: float, locus: str) -> float:
    """value, or SingularityError naming the locus when it is (nearly) zero."""
    if abs(value) < _SING_TOL:
        raise SingularityError(f"{locus} at s = {s:.6g}")
    return value


def s_curvature(model: ReductiveModel, v: InvariantVector, spec: MetricSpec,
                y, path: str = "closed_form", mode: str = "formal") -> float:
    """S(H, y), positively homogeneous of degree 1 in y.

    ``path`` selects "closed_form" (the rational functions derived from the
    profile's exact Q, for every built-in and polynomial profile) or
    "generic" (from phi derivatives).  Degenerate cases are exact: v = 0 or
    [v, y]_m = 0 give 0.  A family of user callables has no closed form and
    raises ValueError on the closed route, degenerate or not.
    """
    y, ys, alpha, forms, rec = _check_inputs(model, v, spec, y, mode, path, _S_PATHS)
    c = v.c
    raw = y.dot(rec.bn)                         # y @ bn, but for the sign of a zero
    br = c * raw                                # [v, y]_m
    if not any(br.tolist()):
        return 0.0
    bvy_y = float(br.dot(y)) + 0.0              # <[v, y]_m, y>
    bvy_v = c * (c * (float(raw[-1]) + 0.0))    # <[v, y]_m, v>
    s = c * ys[-1] / alpha
    if path == "generic":
        q, _, _, delta, phi_big = _generic_coefficients(spec.phi, s, spec.b, model.m_dim)
        _guard(delta, s, "Delta = 0")
        return _generic_s(q, delta, phi_big, alpha, bvy_y, bvy_v)
    if forms is None:
        raise SingularityError(_NO_Q.format(s, spec.phi.name))
    num, den, dn, pn = forms.s_values_at(s)
    _guard(den, s, f"pole of Q ({spec.phi.name})")
    _guard(dn, s, "Delta = 0")
    return _closed_s(num, den, dn, pn, alpha, bvy_y, bvy_v)


# Per-row flags of _s_rows: 0 marks a regular row, the others the locus at
# which the scalar call for that row raises (see _row_error).
_ROW_Y, _ROW_PHI_POLE, _ROW_PHI_D, _ROW_Q_POLE, _ROW_DELTA, _ROW_PHI_BIG = 1, 2, 3, 4, 5, 6

_Rows = namedtuple("_Rows", "S flag s phi")


def _s_rows(model: ReductiveModel, v: InvariantVector, spec: MetricSpec, Y,
            path: str, mode: str = "formal") -> _Rows:
    """S(H, y) at every row y of Y (N x n) by ``path``, in one array pass.

    The block form of ``s_curvature``: ``_check_spec`` runs once, and every
    scalar guard is a row mask with the same threshold.  A row at which the
    scalar call raises gets S = nan and a nonzero ``flag``
    (``_row_error`` rebuilds that error); a row with [v, y]_m = 0 gets exactly
    0.  ``s`` is beta/alpha per row and ``phi`` is phi(s) on the generic
    route (None on the closed route).
    """
    forms, rec = _check_spec(model, v, spec, mode, path, _S_PATHS)
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
        by = c * (stacked @ rec.bn)[:, 0]                        # [v, y]_m per row
        live = by.any(axis=1)
        bvy_y = (by[:, None, :] @ Y[:, :, None])[:, 0, 0]
        bvy_v = c * by[:, -1]
        s = c * Y[:, -1] / alpha
        if path == "generic":
            phi = spec.phi
            if phi.exact is None:                       # callables, as the scalar route calls them
                p, p1, p2, p3, big = _callable_rows(phi, s)
            elif phi.exact.k:                           # e^s: libm's exp, as the scalar route
                p = p1 = p2 = p3 = np.fromiter(map(_libm_exp, s.tolist()), float, len(s))
                big = p == math.inf                     # where math.exp overflows
            else:
                p, p1, p2, p3 = (np.broadcast_to(f(s), s.shape)
                                 for f in (phi.phi, phi.dphi, phi.d2phi, phi.d3phi))
                big = np.zeros(len(s), bool)
            d = p - s * p1
            q, _, _, delta, phi_big = _quotient_coefficients(p, p1, p2, p3, d, s, b, n)
            out = _generic_s(q, delta, phi_big, alpha, bvy_y, bvy_v)
            pole = ~(np.isfinite(p) & np.isfinite(p1) & np.isfinite(p2) & np.isfinite(p3))
            d_scale = np.maximum(np.maximum(np.abs(p), np.abs(s * p1)), 1.0)
            # the scalar checks run in the reverse order; a later mask wins
            loci = ((np.abs(delta) < _SING_TOL, _ROW_DELTA),
                    (np.abs(d) < _SING_TOL * d_scale, _ROW_PHI_D),
                    (pole, _ROW_PHI_POLE),
                    (big, _ROW_PHI_BIG))
        elif forms is None:                             # no Q: every live row raises
            p, out = None, np.full(len(s), math.nan)
            loci = ((live, _ROW_PHI_D),)
        else:
            p = None
            num, den, dn, pn = forms.s_values_at(s)
            out = _closed_s(num, den, dn, pn, alpha, bvy_y, bvy_v)
            loci = ((np.abs(dn) < _SING_TOL, _ROW_DELTA),
                    (np.abs(den) < _SING_TOL, _ROW_Q_POLE))
    flag = np.zeros(len(Y), dtype=np.int8)
    for mask, code in loci:
        flag[mask] = code
    flag[~live] = 0
    flag[bad_y] = _ROW_Y
    S = np.where(flag > 0, math.nan, np.where(live, out, 0.0))
    return _Rows(S=S, flag=flag, s=s, phi=p)


def _callable_rows(phi: PhiFamily, s: np.ndarray) -> tuple:
    """phi, phi', phi'', phi''' of a family of callables at every s, and the rows at
    which one of them overflows; a row's ZeroDivisionError reads as nan (a pole)."""
    vals, big = np.full((4, len(s)), math.nan), np.zeros(len(s), bool)
    for k, t in enumerate(s.tolist()):
        try:
            vals[:, k] = (phi.phi(t), phi.dphi(t), phi.d2phi(t), phi.d3phi(t))
        except (ZeroDivisionError, OverflowError) as exc:
            big[k] = isinstance(exc, OverflowError)
    return (*vals, big)


def _row_error(rows: _Rows, k: int, y: np.ndarray, name: str) -> FinslerError:
    """The error that the scalar S raises at y, row k of a flagged block."""
    code, s = int(rows.flag[k]), float(rows.s[k])
    if code == _ROW_Y:
        with np.errstate(over="ignore"):
            return _y_error(y, float(np.linalg.norm(y)))
    if code == _ROW_PHI_D:
        return SingularityError(_NO_Q.format(s, name))
    if code == _ROW_PHI_BIG:
        return DomainError(f"overflow of phi ({name}) at s = {s:.6g}")
    locus = {_ROW_PHI_POLE: f"pole of phi ({name})", _ROW_Q_POLE: f"pole of Q ({name})",
             _ROW_DELTA: "Delta = 0"}[code]
    return SingularityError(f"{locus} at s = {s:.6g}")


def s_curvature_via_tensors(model: ReductiveModel, v: InvariantVector,
                            spec: MetricSpec, y, mode: str = "formal") -> float:
    """S(H, y) assembled from the contracted origin tensors.

    Uses S = -Phi/(2 alpha Delta^2) (r_00 - 2 alpha Q s_0) with
    r_00 = r_ij y^i y^j and s_0 = c s_ni y^i, that is the generic assembly
    with <[v,y]_m, y> = -r_00 and <[v,y]_m, v> = 2 s_0; must agree with
    ``s_curvature`` to rounding.
    """
    y, ys, alpha, _, rec = _check_inputs(model, v, spec, y, mode, "generic", _S_PATHS)
    if rec.tensors is None:
        tensors = origin_tensors(model, v)
        rec.tensors = (tensors.r, tensors.s[-1])
    r, sn = rec.tensors
    r00 = float(y.dot(r).dot(y)) + 0.0
    s0 = v.c * (float(sn.dot(y)) + 0.0)
    if r00 == 0.0 and s0 == 0.0:
        return 0.0
    s = v.c * ys[-1] / alpha
    q, _, _, delta, phi_big = _generic_coefficients(spec.phi, s, spec.b, model.m_dim)
    _guard(delta, s, "Delta = 0")
    return _generic_s(q, delta, phi_big, alpha, -r00, 2.0 * s0)


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
    s_y = (b_vec * alpha - s * y) / (alpha * alpha)
    s_yy = (-(np.outer(b_vec, y) + np.outer(y, b_vec)) * alpha
            + 3.0 * s * np.outer(y, y) - alpha * alpha * s * np.eye(len(y))
            ) / (alpha * alpha * alpha * alpha)
    return s, s_y, s_yy


def berwald_workspace(model: ReductiveModel, v: InvariantVector,
                      spec: MetricSpec, y) -> BerwaldWorkspace:
    """Populate the scalar factor and the s-derivative arrays for E.

    Every exact profile (built-in or polynomial) carries a closed-form
    factor, derived from its Q; a family of user callables raises ValueError.
    """
    y, _, alpha, forms, _ = _check_inputs(model, v, spec, y, "formal", "closed_form", _E_PATHS)
    s, s_y, s_yy = _s_derivs(v.c, y, alpha)
    w, dw, d2w = _factor_derivs(forms, s, spec.phi.name)
    return BerwaldWorkspace(s=s, alpha=alpha, factor=w, dfactor_ds=dw,
                            d2factor_ds2=d2w, s_y=s_y, s_yy=s_yy,
                            y_lowered=y.copy())


def _mean_berwald_closed(forms, name, c, rec, y, alpha) -> np.ndarray:
    """Half the Hessian of the closed S, assembled at y/|y| and divided by |y|.

    At |y| = 1, with Pt = c br[-1] (Pt[i, j] = <[v, v_i]_m, v_j>), the
    Hessian of W(s) <[v,y],y> + (WQ)(s) <[v,y],v> is the rank-4 form

        H = V^T M V + f0 (Pt + Pt^T) - (k s + f0 g) I,   V = [a; y; u; r],

    with a = s_y = c e_n - s y, u = Pt y + y Pt, g = <y Pt, y>,
    G = c (y Pt)_n, r = c Pt[:, -1], (f0, f1, f2) = (W, W', W''), h1 and h2
    the first two s-derivatives of WQ, and k = f1 g + h1 G; M is symmetric
    with the entries below.  E = (H + H^T) / (4 |y|) is exactly symmetric.
    Pt, Pt + Pt^T and r come from the record; the ten closed forms are one
    evaluation at s.
    """
    n = len(y)
    y = y / alpha
    s = c * float(y[-1])
    if forms is None:
        raise SingularityError(_NO_Q.format(s, name))
    num, den, a, bq, *w_forms = forms.values_at(s)
    f0, f1, f2 = _w_derivs(*w_forms, s)
    d = _guard(den, s, f"pole of Q ({name})")
    q, qp, qpp = num / d, a / (d * d), bq / (d * d * d)
    h1 = f1 * q + f0 * qp
    h2 = f2 * q + 2.0 * f1 * qp + f0 * qpp
    pt = rec.pt
    # ndarray.dot with + 0.0 gives matmul's bits, as on the S routes
    yp = y.dot(pt) + 0.0                            # [v, y]_m
    g = float(yp.dot(y)) + 0.0
    big_g = c * float(yp[-1])
    k = f1 * g + h1 * big_g
    sy = -s * y
    sy[-1] += c
    vv = np.array((sy, y, (pt.dot(y) + 0.0) + yp, rec.col))
    m_ay = -k - f1 * g
    m = np.array(((f2 * g + h2 * big_g, m_ay, f1, h1),
                  (m_ay, k * s + 3.0 * f0 * g, -f0, 0.0),
                  (f1, -f0, 0.0, 0.0),
                  (h1, 0.0, 0.0, 0.0)))
    h = vv.T @ m @ vv + f0 * rec.sym
    h.flat[::n + 1] -= k * s + f0 * g
    return (h + h.T) / (4.0 * alpha)


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
        out[i, i] = (vals[k] - 2.0 * s0 + vals[k + 1]) / (hh * hh)
        k += 2
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = (vals[k] - vals[k + 1] - vals[k + 2]
                                     + vals[k + 3]) / (4.0 * (hh * hh))
            k += 4
    return out


def _mean_berwald_fd(model, v, spec, y) -> np.ndarray:
    """Half the Richardson-refined central-difference Hessian of S at unit y, step 1e-4.

    The stencils of both step sizes are one block of generic S; the first
    flagged point raises the error that the scalar S raises there.
    """
    n, h = model.m_dim, 1e-4
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
                 y, path: str = "closed_form", mode: str = "formal") -> np.ndarray:
    """E(H, y) as an n x n symmetric matrix.

    "closed_form" assembles the Hessian of the closed S (exactly symmetric);
    "finite_difference" returns half the Richardson-refined central-difference
    Hessian of the generic-path S, with step 1e-4 |y|.  Both routes work at
    y/|y| and divide by |y|: E(lambda y) = E(y)/lambda.  Where [v, .]_m = 0
    (v = 0 included) both give exact zeros.
    """
    y, _, alpha, forms, rec = _check_inputs(model, v, spec, y, mode, path, _E_PATHS)
    if not rec.live:
        return np.zeros((model.m_dim, model.m_dim))
    if path == "closed_form":
        return _mean_berwald_closed(forms, spec.phi.name, v.c, rec, y, alpha)
    return _mean_berwald_fd(model, v, spec, y / alpha) / alpha


# ---------------------------------------------------------------------------
# isotropy
# ---------------------------------------------------------------------------

def unit_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform directions on the unit sphere (normalized Gaussian rows)."""
    out = np.empty((count, n))
    k = 0
    while k < count:
        z = rng.standard_normal((count - k, n))
        # only the shortfall is redrawn, so the draws match one row at a time;
        # stacked one-row products round like np.linalg.norm of one row
        nrm = np.sqrt((z[:, None, :] @ z[:, :, None])[:, 0, 0])
        keep = nrm >= 1e-12
        got = int(np.count_nonzero(keep))
        out[k:k + got] = z[keep] / nrm[keep, None]
        k += got
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
