"""Lie-algebra level description of a reductive homogeneous space.

A space is given by structure constants on a basis e_0..e_{dim_g-1} of g,
a split g = h + m (the first ``h_dim`` basis vectors span h), and an inner
product on m.  All curvature quantities at the origin are polynomial in the
brackets of an orthonormal frame of m, so everything downstream consumes the
frame-coordinate bracket produced here.

Conventions:

* indices are 0-based everywhere;
* the frame is stored row-wise (``frame[a]`` = a-th frame vector in
  m-coordinates) and is orthonormal for the given inner product;
* when an invariant vector v is supplied, the frame is built so that the
  *last* frame vector is v/|v|; in frame coordinates v = (0, ..., 0, c).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "StructureConstants",
    "ReductiveModel",
    "InvariantVector",
    "OriginTensors",
    "CheckResult",
    "ValidationReport",
    "build_model",
    "orthonormal_frame",
    "validate_model",
    "bracket_m",
    "origin_tensors",
]

DEFAULT_TOL = 1e-12
# floats per temporary of StructureConstants.jacobi_residual (256 kB); blocks
# start at dim_g = 14, and at dim_g = 16 and 22 they beat one d^4 temporary
_JACOBI_BLOCK = 2**15


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _normalize_entries(entries) -> dict:
    """Accept a {(i,j,k): value} mapping or an iterable of (i, j, k, value)."""
    if isinstance(entries, Mapping):
        items = [(int(i), int(j), int(k), float(v))
                 for (i, j, k), v in entries.items()]
    else:
        items = [(int(i), int(j), int(k), float(v)) for i, j, k, v in entries]
    table = {}
    for i, j, k, v in items:
        key = (i, j, k)
        if not math.isfinite(v):
            raise ValueError(f"structure constant {key} must be finite, got {v}")
        if key in table:
            raise ValueError(f"structure constant {key} supplied twice")
        table[key] = v
    return table


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Bracket table: [e_i, e_j] = sum_k tensor[i, j, k] e_k."""

    dim_g: int
    tensor: np.ndarray = field(repr=False)

    @classmethod
    def from_entries(cls, dim_g: int, entries, strict: bool = True) -> "StructureConstants":
        """Build from sparse entries with antisymmetric completion.

        Unspecified mirror entries (j, i, k) are filled with the negated
        value.  With ``strict=True`` (default) an explicitly supplied mirror
        that does not negate the original, or a nonzero diagonal entry
        (i == j), is rejected; ``strict=False`` stores the entries verbatim
        so ``validate_model`` can report the antisymmetry defect instead.
        """
        if dim_g < 0:
            raise ValueError("dim_g must be nonnegative")
        table = _normalize_entries(entries)
        tensor = np.zeros((dim_g, dim_g, dim_g))
        for (i, j, k), v in table.items():
            if not (0 <= i < dim_g and 0 <= j < dim_g and 0 <= k < dim_g):
                raise ValueError(f"structure constant index {(i, j, k)} out of range")
            if strict:
                if i == j and v != 0.0:
                    raise ValueError(f"nonzero diagonal structure constant {(i, j, k)}")
                mirror = table.get((j, i, k))
                if mirror is not None and mirror != -v:
                    raise ValueError(
                        f"conflicting structure constants: c{(i, j, k)} = {v} "
                        f"but c{(j, i, k)} = {mirror}"
                    )
            tensor[i, j, k] = v
            if (j, i, k) not in table:
                tensor[j, i, k] = -v
        tensor.setflags(write=False)
        return cls(dim_g=dim_g, tensor=tensor)

    def bracket(self, x, y) -> np.ndarray:
        """[x, y] of two vectors given in g-coordinates."""
        return np.einsum("i,j,ijk->k", x, y, self.tensor)

    def antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.tensor + self.tensor.transpose(1, 0, 2)), initial=0.0))

    def jacobi_residual(self) -> float:
        """max |[[x,y],z] + [[y,z],x] + [[z,x],y]| over all basis triples.

        t[l, a, b, c] = sum_m c[a, b, m] c[m, c, l] comes from BLAS as
        c.reshape(d^2, d) @ c[:, :, l], a few whole l-slices at a time so that
        each temporary stays within _JACOBI_BLOCK floats; the cyclic sum over
        (a, b, c) closes within a slice.  Every triple is kept, because a
        tensor built with ``strict=False`` need not be antisymmetric.
        """
        d = self.dim_g
        c2 = self.tensor.reshape(d * d, d)
        cl = np.ascontiguousarray(self.tensor.transpose(2, 0, 1))   # cl[l] = c[:, :, l]
        step = max(1, _JACOBI_BLOCK // max(d**3, 1))
        worst = 0.0
        for l0 in range(0, d, step):
            t = (c2 @ cl[l0:l0 + step]).reshape(-1, d, d, d)
            cyc = t + t.transpose(0, 2, 3, 1)                       # + t[l, c, a, b]
            cyc += t.transpose(0, 3, 1, 2)                          # + t[l, b, c, a]
            np.abs(cyc, out=cyc)
            worst = max(worst, float(np.max(cyc)))
        return worst


def _length(g: np.ndarray, v: np.ndarray) -> float:
    """sqrt(v @ g @ v), 0 where the square is negative.  Where the square is not a
    finite normal float, it is taken of v/max|v_i| and scaled back, so that a v too
    long or too short to square still gets its length."""
    with np.errstate(over="ignore"):
        sq = v @ g @ v
    if not sys.float_info.min <= abs(sq) < math.inf:
        scale = float(np.max(np.abs(v), initial=0.0))
        if 0.0 < scale < math.inf:          # neither v = 0 nor a v that is not finite
            w = v / scale
            return scale * float(np.sqrt(max(w @ g @ w, 0.0)))
    return float(np.sqrt(max(sq, 0.0)))


def orthonormal_frame(inner_product: np.ndarray, v=None) -> np.ndarray:
    """Orthonormal frame of m, with v/|v| as last vector when v is nonzero.

    Pivoted modified Gram-Schmidt in the given inner product, run on all
    candidates at once.  The candidates are the identity columns, kept as
    rows of one array; v/|v| goes first when v is nonzero.  Each further
    step takes the candidate of largest residual norm (the first on ties),
    drops it by zeroing its row, and projects every candidate off the new
    vector with one outer product.  A largest residual norm <= DEFAULT_TOL
    means the inner product is degenerate.  Rows of the result are the frame
    vectors.
    """
    g = np.asarray(inner_product, dtype=float)
    n = g.shape[0]
    u = None                       # the next frame vector, when it is already known
    if v is not None:
        v = np.asarray(v, dtype=float)
        c = _length(g, v)
        if c > 0.0:
            u = v / c
    seeded = u is not None
    cand = np.eye(n)
    frame = []
    while len(frame) < n:
        cg = cand @ g
        if u is None:
            norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", cg, cand), 0.0))
            j = int(np.argmax(norms))
            if norms[j] <= DEFAULT_TOL:
                raise ValueError("could not complete an orthonormal frame (inner product degenerate?)")
            u = cand[j] / norms[j]
            cand[j] = cg[j] = 0.0
        frame.append(u)
        if len(frame) < n:
            cand -= np.outer(cg @ u, u)
        u = None
    return np.array(frame[1:] + frame[:1] if seeded else frame)


@dataclass(frozen=True, eq=False)
class ReductiveModel:
    """Split algebra g = h + m with an inner product and orthonormal frame on m."""

    structure: StructureConstants
    h_dim: int
    m_dim: int
    inner_product: np.ndarray = field(repr=False)
    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.h_dim < 0 or self.m_dim <= 0:
            raise ValueError("h_dim must be >= 0 and m_dim > 0")
        if self.h_dim + self.m_dim != self.structure.dim_g:
            raise ValueError(
                f"h_dim + m_dim = {self.h_dim + self.m_dim} != dim_g = {self.structure.dim_g}"
            )
        g = np.asarray(self.inner_product, dtype=float)
        if g.shape != (self.m_dim, self.m_dim):
            raise ValueError("inner_product must be m_dim x m_dim")
        # written as not (x <= tol), so that a NaN entry is refused
        if not np.max(np.abs(g - g.T), initial=0.0) <= DEFAULT_TOL:
            raise ValueError("inner_product must be symmetric")
        if not np.min(np.linalg.eigvalsh(g)) > DEFAULT_TOL:
            raise ValueError("inner_product must be positive-definite")
        f = np.asarray(self.frame, dtype=float)
        if f.shape != (self.m_dim, self.m_dim):
            raise ValueError("frame must be m_dim x m_dim")
        gram = f @ g @ f.T
        if not np.max(np.abs(gram - np.eye(self.m_dim))) <= 1e-10:
            raise ValueError("frame is not orthonormal for the inner product")
        object.__setattr__(self, "inner_product", _readonly(g))
        object.__setattr__(self, "frame", _readonly(f))

    @functools.cached_property
    def _brackets(self) -> np.ndarray:
        """br[a, b, c] = <[v_a, v_b]_m, v_c> for the orthonormal frame (read-only).

        Computed once per model; [v, y]_m = c (y @ br[-1]) in frame
        coordinates.  Not a field, so repr and ``dataclasses.replace`` ignore it.
        """
        h, f = self.h_dim, self.frame
        tm = self.structure.tensor[h:, h:, h:]   # only [m, m] brackets reach m
        zm = np.tensordot(f, np.tensordot(f, tm, axes=(1, 0)), axes=(1, 1))
        return _readonly(zm.transpose(1, 0, 2) @ (self.inner_product @ f.T))

    @functools.cached_property
    def _residuals(self) -> tuple:
        """validate_model's residuals that do not involve v, once per model."""
        h, t = self.h_dim, self.structure.tensor
        red = inv_ip = 0.0
        if h:   # on empty blocks the contractions cost more than they save
            red = float(np.max(np.abs(t[:h, h:, :h])))
            # bw[a, i, j] = <[w_a, v_i]_m, v_j>; stacked one-row products round
            # like the per-vector frame @ (inner_product @ z)
            zw = np.tensordot(self.frame, t[:h, h:, h:], axes=(1, 1)).transpose(1, 0, 2)
            bw = ((zw[:, :, None, :] @ self.inner_product.T) @ self.frame.T)[:, :, 0]
            inv_ip = float(np.max(np.abs(bw + bw.transpose(0, 2, 1))))
        return (self.structure.antisymmetry_residual(),
                self.structure.jacobi_residual(), red, inv_ip)

    @functools.cached_property
    def _records(self) -> dict:
        """The curvature routes' y-independent data, one record per invariant vector.

        Keyed by v (compared by identity) and filled by ``curvature``; it lives
        and dies with the model, and ``dataclasses.replace`` starts it empty.
        """
        return {}


@dataclass(frozen=True, eq=False)
class InvariantVector:
    """The vector v in m matching the 1-form; c = |v| and b = ||beta|| = c."""

    coords: np.ndarray = field(repr=False)
    c: float
    b: float

    @classmethod
    def from_coords(cls, model: ReductiveModel, coords) -> "InvariantVector":
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (model.m_dim,):
            raise ValueError(f"v must have {model.m_dim} components, got {coords.shape}")
        c = _length(model.inner_product, coords)
        return cls(coords=_readonly(coords), c=c, b=c)

    def frame_coords(self, model: ReductiveModel) -> np.ndarray:
        """v in frame coordinates: exactly c times the last frame vector."""
        out = np.zeros(model.m_dim)
        out[-1] = self.c
        return out


def build_model(structure: StructureConstants, h_dim: int, inner_product,
                v_coords=None) -> tuple[ReductiveModel, InvariantVector]:
    """Assemble a model and its invariant vector, constructing the frame.

    A non-finite ``inner_product`` or ``v_coords``, or one of the wrong
    shape, raises ValueError naming the input before any frame is built.
    """
    m_dim = structure.dim_g - h_dim
    g = np.asarray(inner_product, dtype=float)
    if g.shape != (m_dim, m_dim):
        raise ValueError(f"inner_product must be {m_dim} x {m_dim}, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("inner_product must be finite")
    v = np.zeros(m_dim) if v_coords is None else np.asarray(v_coords, dtype=float)
    if v.shape != (m_dim,):
        raise ValueError(f"v_coords must have {m_dim} components, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("v_coords must be finite")
    frame = orthonormal_frame(g, v)
    model = ReductiveModel(structure=structure, h_dim=h_dim, m_dim=m_dim,
                           inner_product=g, frame=frame)
    return model, InvariantVector.from_coords(model, v)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def bracket_m(model: ReductiveModel, x, y) -> np.ndarray:
    """[x, y]_m for x, y in frame coordinates; result in frame coordinates.

    The bracket is taken in g and the h-component is discarded.
    """
    h, dim = model.h_dim, model.structure.dim_g
    xg = np.zeros(dim)
    yg = np.zeros(dim)
    xg[h:] = model.frame.T @ np.asarray(x, dtype=float)
    yg[h:] = model.frame.T @ np.asarray(y, dtype=float)
    return model.frame @ (model.inner_product @ model.structure.bracket(xg, yg)[h:])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self):
        return [c for c in self.checks if not c.passed]


def _check_residuals(model: ReductiveModel, v: InvariantVector | None = None) -> tuple:
    """(name, residual) for each of ``validate_model``'s checks, in its order.

    The four v-independent residuals come from the model's cache; the
    v-invariance residual is one contraction per call.
    """
    if v is not None and v.coords.shape != (model.m_dim,):
        raise ValueError("invariant vector has wrong dimension for this model")
    h = model.h_dim
    inv_v = 0.0
    if h and v is not None and v.c > 0.0:
        zv = np.tensordot(v.coords, model.structure.tensor[:h, h:, h:], axes=(0, 1))
        inv_v = float(np.max(np.abs(zv)))
    return tuple(zip(("antisymmetry", "jacobi", "reductivity", "inner_product_invariance",
                      "v_invariance"), model._residuals + (inv_v,)))


def validate_model(model: ReductiveModel, v: InvariantVector | None = None) -> ValidationReport:
    """Run the named structural checks and report max residuals.

    Checks: bracket antisymmetry, the Jacobi identity, reductivity
    ([h, m] stays in m), invariance of the inner product under h, and
    invariance of v under h ([w, v]_m = 0 for h-basis w).  Checks that
    quantify over h are vacuously true when h_dim = 0.  The first four are
    computed once per model; a check passes at residual <= DEFAULT_TOL.
    """
    return ValidationReport(checks=tuple(
        CheckResult(name, residual <= DEFAULT_TOL, residual, DEFAULT_TOL)
        for name, residual in _check_residuals(model, v)))


# ---------------------------------------------------------------------------
# origin tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OriginTensors:
    """The 1-form derivative tensors at the origin: r symmetric and s
    antisymmetric by construction."""

    r: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)


def origin_tensors(model: ReductiveModel, v: InvariantVector) -> OriginTensors:
    """The origin tensors derived from the brackets of the frame with v.

    With v = 0 every 1-form derived tensor is zero (Riemannian degeneration).
    s[i, j] = (c/2) <[v_i, v_j]_m, v_n> is built exactly antisymmetric and
    r[i, j] = -(c/2)(<[v_n, v_i]_m, v_j> + <[v_n, v_j]_m, v_i>) exactly
    symmetric.
    """
    if v.c == 0.0:
        n = model.m_dim
        return OriginTensors(r=np.zeros((n, n)), s=np.zeros((n, n)))
    br = model._brackets
    rn = br[-1]
    upper = np.triu(0.5 * br[:, :, -1], 1)
    return OriginTensors(r=v.c * (-0.5 * (rn + rn.T)), s=v.c * (upper - upper.T))
