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
    "christoffel_origin",
    "origin_tensors",
    "s0_r00",
]

DEFAULT_TOL = 1e-12


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
        if key in table:
            raise ValueError(f"structure constant {key} supplied twice")
        table[key] = v
    return table


@dataclass(frozen=True)
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
        """max |[[x,y],z] + [[y,z],x] + [[z,x],y]| over all basis triples."""
        c = self.tensor
        t = np.einsum("abm,mcl->abcl", c, c)
        cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
        return float(np.max(np.abs(cyc), initial=0.0))


def orthonormal_frame(inner_product: np.ndarray, v=None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal frame of m, with v/|v| as last vector when v is nonzero.

    Modified Gram-Schmidt in the given inner product: the frame is seeded
    with v/|v|, then completed with identity columns chosen by largest
    residual norm (pivoting); candidates with residual norm <= tol are
    rejected as dependent.  Rows of the result are the frame vectors.
    """
    g = np.asarray(inner_product, dtype=float)
    n = g.shape[0]

    def norm(x):
        return float(np.sqrt(max(x @ g @ x, 0.0)))

    accepted = []
    seeded = False
    if v is not None:
        v = np.asarray(v, dtype=float)
        c = norm(v)
        if c > 0.0:
            accepted.append(v / c)
            seeded = True

    candidates = [np.eye(n)[i].copy() for i in range(n)]
    for u in accepted:
        for cand in candidates:
            cand -= (cand @ g @ u) * u

    while len(accepted) < n and candidates:
        norms = [norm(cand) for cand in candidates]
        j = int(np.argmax(norms))
        if norms[j] <= tol:
            break
        u = candidates.pop(j) / norms[j]
        accepted.append(u)
        for cand in candidates:
            cand -= (cand @ g @ u) * u
    if len(accepted) < n:
        raise ValueError("could not complete an orthonormal frame (inner product degenerate?)")

    rows = accepted[1:] + [accepted[0]] if seeded else accepted
    return np.array(rows)


@dataclass(frozen=True)
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
        if np.max(np.abs(g - g.T), initial=0.0) > DEFAULT_TOL:
            raise ValueError("inner_product must be symmetric")
        if np.min(np.linalg.eigvalsh(g)) <= DEFAULT_TOL:
            raise ValueError("inner_product must be positive-definite")
        f = np.asarray(self.frame, dtype=float)
        if f.shape != (self.m_dim, self.m_dim):
            raise ValueError("frame must be m_dim x m_dim")
        gram = f @ g @ f.T
        if np.max(np.abs(gram - np.eye(self.m_dim))) > 1e-10:
            raise ValueError("frame is not orthonormal for the inner product")
        object.__setattr__(self, "inner_product", _readonly(g))
        object.__setattr__(self, "frame", _readonly(f))

    @functools.cached_property
    def _brackets(self) -> np.ndarray:
        """br[a, b, c] = <[v_a, v_b]_m, v_c> for the orthonormal frame (read-only).

        Computed once per model; [v, y]_m = c (y @ br[-1]) in frame
        coordinates.  Not a field, so equality and repr ignore it.
        """
        h, f = self.h_dim, self.frame
        tm = self.structure.tensor[h:, h:, h:]   # only [m, m] brackets reach m
        zm = np.tensordot(f, np.tensordot(f, tm, axes=(1, 0)), axes=(1, 1))
        return _readonly(zm.transpose(1, 0, 2) @ (self.inner_product @ f.T))


@dataclass(frozen=True)
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
        c = float(np.sqrt(max(coords @ model.inner_product @ coords, 0.0)))
        return cls(coords=_readonly(coords), c=c, b=c)

    def frame_coords(self, model: ReductiveModel) -> np.ndarray:
        """v in frame coordinates: exactly c times the last frame vector."""
        out = np.zeros(model.m_dim)
        out[-1] = self.c
        return out


def build_model(structure: StructureConstants, h_dim: int, inner_product,
                v_coords=None) -> tuple[ReductiveModel, InvariantVector]:
    """Assemble a model and its invariant vector, constructing the frame."""
    g = np.asarray(inner_product, dtype=float)
    m_dim = structure.dim_g - h_dim
    if v_coords is None:
        v_coords = np.zeros(m_dim)
    frame = orthonormal_frame(g, np.asarray(v_coords, dtype=float))
    model = ReductiveModel(structure=structure, h_dim=h_dim, m_dim=m_dim,
                           inner_product=g, frame=frame)
    return model, InvariantVector.from_coords(model, v_coords)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def _bracket_m_of_mcoords(model: ReductiveModel, xm, ym) -> np.ndarray:
    """m-projection of the bracket of two vectors given in m-coordinates."""
    h = model.h_dim
    dim = model.structure.dim_g
    xg = np.zeros(dim)
    yg = np.zeros(dim)
    xg[h:] = xm
    yg[h:] = ym
    return model.structure.bracket(xg, yg)[h:]


def bracket_m(model: ReductiveModel, x, y) -> np.ndarray:
    """[x, y]_m for x, y in frame coordinates; result in frame coordinates.

    The bracket is taken in g and the h-component is discarded.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = model.frame.T @ x
    ym = model.frame.T @ y
    zm = _bracket_m_of_mcoords(model, xm, ym)
    return model.frame @ (model.inner_product @ zm)


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


def validate_model(model: ReductiveModel, v: InvariantVector | None = None,
                   tol: float = DEFAULT_TOL) -> ValidationReport:
    """Run the named structural checks and report max residuals.

    Checks: bracket antisymmetry, the Jacobi identity, reductivity
    ([h, m] stays in m), invariance of the inner product under h, and
    invariance of v under h ([w, v]_m = 0 for h-basis w).  Checks that
    quantify over h are vacuously true when h_dim = 0.
    """
    if v is not None and v.coords.shape != (model.m_dim,):
        raise ValueError("invariant vector has wrong dimension for this model")

    checks = []

    def add(name, residual):
        residual = float(residual)
        checks.append(CheckResult(name=name, passed=residual <= tol,
                                  residual=residual, tolerance=tol))

    add("antisymmetry", model.structure.antisymmetry_residual())
    add("jacobi", model.structure.jacobi_residual())

    h, n, dim = model.h_dim, model.m_dim, model.structure.dim_g
    red = 0.0
    inv_ip = 0.0
    inv_v = 0.0
    for a in range(h):
        wg = np.zeros(dim)
        wg[a] = 1.0
        # reductivity: h-component of [e_a, e_(h+i)] must vanish
        for i in range(n):
            eg = np.zeros(dim)
            eg[h + i] = 1.0
            red = max(red, float(np.max(np.abs(model.structure.bracket(wg, eg)[:h]), initial=0.0)))
        # inner-product invariance: <[w,x]_m, y> + <x, [w,y]_m> = 0 on the frame
        bw = np.empty((n, n))
        for a2 in range(n):
            zm = model.structure.bracket(wg, np.concatenate([np.zeros(h), model.frame[a2]]))[h:]
            bw[a2] = model.frame @ (model.inner_product @ zm)
        inv_ip = max(inv_ip, float(np.max(np.abs(bw + bw.T), initial=0.0)))
        if v is not None and v.c > 0.0:
            zv = model.structure.bracket(wg, np.concatenate([np.zeros(h), v.coords]))[h:]
            inv_v = max(inv_v, float(np.max(np.abs(zv), initial=0.0)))
    add("reductivity", red)
    add("inner_product_invariance", inv_ip)
    add("v_invariance", inv_v)

    return ValidationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# origin tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OriginTensors:
    """Connection and 1-form derivative tensors at the origin.

    gamma[l, i, j] is symmetric in (i, j); r is symmetric and s antisymmetric
    by construction.
    """

    gamma: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)


def _christoffel(br: np.ndarray) -> np.ndarray:
    """gamma from the frame bracket tensor: the i >= j half, mirrored."""
    full = 0.5 * (-br.transpose(2, 0, 1) + br + br.transpose(0, 2, 1))
    return np.where(np.tri(br.shape[0], dtype=bool), full, full.transpose(0, 2, 1))


def christoffel_origin(model: ReductiveModel) -> np.ndarray:
    """Connection coefficients of the frame at the origin.

    gamma[l, i, j] for i >= j is
        (1/2) * (-<[v_i, v_j]_m, v_l> + <[v_l, v_i]_m, v_j> + <[v_l, v_j]_m, v_i>)
    and the i < j entries mirror the i > j ones (torsion-free symmetry).
    """
    return _christoffel(model._brackets)


def origin_tensors(model: ReductiveModel, v: InvariantVector) -> OriginTensors:
    """All origin tensors derived from the brackets of the frame with v.

    With v = 0 every 1-form derived tensor is zero (Riemannian degeneration).
    s[i, j] = (c/2) <[v_i, v_j]_m, v_n> is built exactly antisymmetric and
    r[i, j] = -(c/2)(<[v_n, v_i]_m, v_j> + <[v_n, v_j]_m, v_i>) exactly
    symmetric.
    """
    n = model.m_dim
    br = model._brackets
    gamma = _christoffel(br)
    if v.c == 0.0:
        return OriginTensors(gamma=gamma, r=np.zeros((n, n)), s=np.zeros((n, n)))
    upper = np.triu(0.5 * v.c * br[:, :, -1], 1)
    rn = br[-1]
    return OriginTensors(gamma=gamma, r=-0.5 * v.c * (rn + rn.T), s=upper - upper.T)


def s0_r00(model: ReductiveModel, v: InvariantVector, y) -> tuple[float, float]:
    """The two bracket contractions entering the curvature scalar.

    Returns (s_0, r_00) with s_0 = (1/2) <[v, y]_m, v> (linear in y) and
    r_00 = -<[v, y]_m, y> (quadratic in y); y is in frame coordinates.
    """
    y = np.asarray(y, dtype=float)
    if v.c == 0.0:
        return 0.0, 0.0
    vf = v.frame_coords(model)
    br = bracket_m(model, vf, y)
    return 0.5 * float(br @ vf), -float(br @ y)
