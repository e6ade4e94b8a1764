"""Independent reference computations for checking the program's outputs.

Nothing here calls the program.  The S-curvature oracle evaluates the
paper's formula

    S(y) = Phi / (2 alpha Delta^2) * ( <[v,y]_m, y> + alpha Q <[v,y]_m, v> )

on a batch of directions, with brackets taken straight from the structure
tensor and the frame, and Q, Delta, Phi from the profile's derivatives.  A
50-digit mpmath evaluation, which differentiates Q numerically instead of
using the quotient-rule forms, checks a subsample.  E is checked against a
central-difference Hessian of this S, volume factors against closed forms
or scipy.integrate.quad, and the positivity criterion against its truth
table.
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = ("randers", "kropina", "matsumoto", "infinite_series", "exponential")
CLOSED_FAMILIES = ("infinite_series", "exponential")

S_RTOL = 1e-8       # program S against the float oracle, relative to the term scale
MP_RTOL = 1e-9      # program S against the 50-digit evaluation
E_RTOL = 1e-5       # E against the central-difference Hessian of the oracle S
VOLUME_RTOL = 1e-8  # volume factors against closed forms or scipy.integrate.quad


def phi_derivs(family: str, s):
    """phi, phi', phi'', phi''' of the built-in profiles, elementwise."""
    s = np.asarray(s, dtype=float)
    one = np.ones_like(s)
    if family == "randers":
        return 1.0 + s, one, 0.0 * s, 0.0 * s
    if family == "kropina":
        return 1.0 / s, -1.0 / s**2, 2.0 / s**3, -6.0 / s**4
    if family == "matsumoto":
        u = 1.0 - s
        return 1.0 / u, 1.0 / u**2, 2.0 / u**3, 6.0 / u**4
    if family == "infinite_series":
        u = s - 1.0
        return s**2 / u, (s**2 - 2.0 * s) / u**2, 2.0 / u**3, -6.0 / u**4
    if family == "exponential":
        e = np.exp(s)
        return e, e, e, e
    raise KeyError(family)


def coefficients(family: str, s, b: float, n: int):
    """(Q, Delta, Phi) at s for the 1-form length b and dimension n."""
    p, p1, p2, p3 = phi_derivs(family, s)
    d = p - s * p1
    q = p1 / d
    qp = p * p2 / d**2
    qpp = ((p1 * p2 + p * p3) * d + 2.0 * s * p * p2**2) / d**3
    w = b * b - s * s
    delta = 1.0 + s * q + w * qp
    big_phi = -(q - s * qp) * (n * delta + 1.0 + s * q) - w * (1.0 + s * q) * qpp
    return q, delta, big_phi


def near_singular(s, b: float, n: int, margin: float = 0.05, delta_margin: float = 0.2):
    """True where s is within a margin of a singular locus of any family.

    The loci are s = 0 (Kropina, infinite series), s = 1/2 (Matsumoto),
    s = 1 (exponential) and Delta = 0 (any family).
    """
    s = np.asarray(s, dtype=float)
    bad = (np.abs(s) < margin) | (np.abs(s - 0.5) < margin) | (np.abs(s - 1.0) < margin)
    with np.errstate(all="ignore"):
        for fam in FAMILIES:
            _, delta, _ = coefficients(fam, s, b, n)
            bad |= ~np.isfinite(delta) | (np.abs(delta) < delta_margin)
    return bad


def shen_holds(family: str, b: float) -> bool:
    """Truth table of the positivity criterion on |s| <= b (b away from 1/2)."""
    if family in ("randers", "exponential"):
        return b < 1.0
    if family == "matsumoto":
        return b < 0.5
    return False


class Geometry:
    """Frame-coordinate bracket data of one space: K[b, d] = <[v, v_b]_m, v_d>."""

    def __init__(self, tensor, h_dim: int, inner_product, frame, c: float):
        t = np.asarray(tensor, dtype=float)
        g = np.asarray(inner_product, dtype=float)
        f = np.asarray(frame, dtype=float)
        n = f.shape[0]
        fg = np.zeros((n, t.shape[0]))
        fg[:, h_dim:] = f
        vg = c * fg[-1]
        bv = np.einsum("i,bj,ijk->bk", vg, fg, t)[:, h_dim:]
        self.K = bv @ g @ f.T
        self.c = float(c)
        self.n = n
        self.tensor, self.h_dim, self.g, self.frame = t, h_dim, g, f

    def contractions(self, Y):
        """<[v,y],y>, <[v,y],v> and magnitude bounds for rows of Y."""
        Y = np.atleast_2d(Y)
        K, aK = self.K, np.abs(self.K)
        q1 = np.einsum("nb,bd,nd->n", Y, K, Y)
        q2 = self.c * (Y @ K[:, -1])
        aY = np.abs(Y)
        m1 = np.einsum("nb,bd,nd->n", aY, aK, aY)
        m2 = self.c * (aY @ aK[:, -1])
        return q1, q2, m1, m2

    def s_values(self, family: str, b: float, Y):
        """Oracle S for rows of Y, and the scale its rounding error is relative to."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        alpha = np.linalg.norm(Y, axis=1)
        s = self.c * Y[:, -1] / alpha
        q, delta, big_phi = coefficients(family, s, b, self.n)
        q1, q2, m1, m2 = self.contractions(Y)
        pref = big_phi / (2.0 * alpha * delta**2)
        return pref * (q1 + alpha * q * q2), np.abs(pref) * (m1 + alpha * np.abs(q) * m2)

    def e_matrix(self, family: str, b: float, y, rel_step: float = 2e-4):
        """E = Hessian(S)/2 by Richardson-refined central differences."""
        y = np.asarray(y, dtype=float)
        n = y.size
        alpha = float(np.linalg.norm(y))

        def hessian(h):
            eye = np.eye(n) * h
            pts = [y]
            for i in range(n):
                pts += [y + eye[i], y - eye[i]]
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for i, j in pairs:
                pts += [y + eye[i] + eye[j], y + eye[i] - eye[j],
                        y - eye[i] + eye[j], y - eye[i] - eye[j]]
            vals, _ = self.s_values(family, b, np.array(pts))
            out = np.empty((n, n))
            for i in range(n):
                out[i, i] = (vals[1 + 2 * i] - 2.0 * vals[0] + vals[2 + 2 * i]) / h**2
            base = 1 + 2 * n
            for p, (i, j) in enumerate(pairs):
                a, bb, cc, d = vals[base + 4 * p: base + 4 * p + 4]
                out[i, j] = out[j, i] = (a - bb - cc + d) / (4.0 * h**2)
            return out

        h = rel_step * alpha
        return 0.5 * (4.0 * hessian(h / 2.0) - hessian(h)) / 3.0

    def s_mp(self, family: str, b: float, y, dps: int = 50) -> float:
        """S at one direction in 50-digit arithmetic, Q differentiated numerically."""
        import mpmath as mp

        with mp.workdps(dps):
            phi = _mp_phi(family)
            n = self.n
            h = self.h_dim
            yv = [mp.mpf(float(x)) for x in y]
            dim = self.tensor.shape[0]
            fg = [[mp.mpf(0)] * dim for _ in range(n)]
            for a in range(n):
                for j in range(n):
                    fg[a][h + j] = mp.mpf(float(self.frame[a, j]))
            c = mp.mpf(self.c)
            vg = [c * x for x in fg[-1]]
            yg = [mp.fsum(yv[a] * fg[a][i] for a in range(n)) for i in range(dim)]
            nz = np.argwhere(self.tensor != 0.0)
            br = [mp.mpf(0)] * dim
            for i, j, k in nz:
                if vg[i] != 0 and yg[j] != 0:
                    br[k] += vg[i] * yg[j] * mp.mpf(float(self.tensor[i, j, k]))
            zm = br[h:]
            g = [[mp.mpf(float(x)) for x in row] for row in self.g]

            def inner(x, z):
                return mp.fsum(x[i] * g[i][j] * z[j] for i in range(n) for j in range(n))

            ym = [yg[h + i] for i in range(n)]
            vm = [vg[h + i] for i in range(n)]
            q1 = inner(zm, ym)
            q2 = inner(zm, vm)
            alpha = mp.sqrt(mp.fsum(x * x for x in yv))
            s = c * yv[-1] / alpha
            bb = mp.mpf(b)

            def big_q(t):
                d1 = mp.diff(phi, t)
                return d1 / (phi(t) - t * d1)

            q0, qp, qpp = mp.diffs(big_q, s, 2)
            w = bb * bb - s * s
            delta = 1 + s * q0 + w * qp
            big_phi = -(q0 - s * qp) * (n * delta + 1 + s * q0) - w * (1 + s * q0) * qpp
            return float(big_phi / (2 * alpha * delta**2) * (q1 + alpha * q0 * q2))


def _mp_phi(family):
    import mpmath as mp

    return {
        "randers": lambda s: 1 + s,
        "kropina": lambda s: 1 / s,
        "matsumoto": lambda s: 1 / (1 - s),
        "infinite_series": lambda s: s**2 / (s - 1),
        "exponential": mp.exp,
    }[family]


def close(value, reference, scale, rtol) -> bool:
    value = np.asarray(value, dtype=float)
    return bool(np.all(np.isfinite(value))
                and np.all(np.abs(value - reference) <= rtol * np.maximum(scale, 1e-300)))


def e_ok(E, reference, y, s_scale, exact_symmetry: bool) -> bool:
    """E against the reference Hessian, plus symmetry and Euler's E y = 0."""
    E = np.asarray(E, dtype=float)
    if E.shape != reference.shape or not np.all(np.isfinite(E)):
        return False
    alpha = float(np.linalg.norm(y))
    scale = max(float(np.max(np.abs(reference))), float(s_scale) / alpha**2)
    sym_tol = 1e-12 if exact_symmetry else E_RTOL
    return bool(np.max(np.abs(E - reference)) <= E_RTOL * scale
                and np.max(np.abs(E - E.T)) <= sym_tol * scale
                and np.max(np.abs(E @ y)) <= E_RTOL * scale * alpha)


# ---------------------------------------------------------------------------
# volume factors
# ---------------------------------------------------------------------------

def volume_reference(family: str, b: float, n: int, form: str) -> float:
    """f_bh or f_ht: closed forms where known, scipy.integrate.quad otherwise."""
    if family == "one":
        return 1.0
    if family == "randers":
        return 1.0 if form == "ht" else (1.0 - b * b) ** ((n + 1) / 2.0)
    from scipy.integrate import quad

    def sin_pow(t):
        return math.sin(t) ** (n - 2)

    ref = math.sqrt(math.pi) * math.gamma((n - 1) / 2.0) / math.gamma(n / 2.0)
    if form == "bh":
        def f(t):
            p, _, _, _ = phi_derivs(family, b * math.cos(t))
            return sin_pow(t) / float(p) ** n
        val, _ = quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
        return ref / val

    def f(t):
        s = b * math.cos(t)
        p, p1, p2, _ = (float(x) for x in phi_derivs(family, s))
        core = p - s * p1
        return sin_pow(t) * p * core ** (n - 2) * (core + (b * b - s * s) * p2)
    val, _ = quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
    return val / ref

