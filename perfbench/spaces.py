"""Seeded generators of reductive Lie algebras for the benchmark.

Every algebra is Jacobi and reductive by construction; ``self_check``
recomputes both properties (and the h-invariance of the inner product and
of v) with this module's own dense tensor, so a generator bug aborts the
run instead of showing up as a program failure.

Kinds:

* ``similitude``: (so(k) + R) x| R^k with h = so(k); m = span(D, T_1..T_k),
  [D, T_i] = mu T_i, so(k) acts on the T_i by rotation.  The inner product
  is the general h-invariant one, diag(l_D, l_T I_k), and v is along D.
* ``solvable``: rank-one R x|_A R^k, [X, Y_i] = sum_j A_ji Y_j, h = 0.
* ``nilpotent``: 2-step, [X_i, X_j] = sum_l C_ij^l Z_l with Z central, h = 0.

The h = 0 kinds use random SPD inner products and a random v with |v| = b.
Each space carries a corrupted twin: one structure constant perturbed so
that the Jacobi identity fails.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

JACOBI_TOL = 1e-12
TWIN_MIN_JACOBI = 1e-3


@dataclass
class GenSpace:
    name: str
    kind: str
    dim_g: int
    h_dim: int
    entries: dict = field(repr=False)        # {(i, j, k): value} with i < j
    inner_product: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)         # m-coordinates
    b: float = 0.0
    family: str = "exponential"
    twin_entries: dict = field(default=None, repr=False)

    @property
    def m_dim(self) -> int:
        return self.dim_g - self.h_dim

    @property
    def tensor(self) -> np.ndarray:
        return dense_tensor(self.dim_g, self.entries)

    def to_json(self) -> dict:
        """The space-file form documented in the project README."""
        return {
            "dim_g": self.dim_g,
            "h_dim": self.h_dim,
            "structure": [[i, j, k, val] for (i, j, k), val in sorted(self.entries.items())],
            "inner_product": [float(x) for x in self.inner_product.ravel()],
            "v": [float(x) for x in self.v],
            "mode": "formal",
            "metric": {"family": self.family},
        }


def dense_tensor(dim: int, entries: dict) -> np.ndarray:
    t = np.zeros((dim, dim, dim))
    for (i, j, k), val in entries.items():
        t[i, j, k] = val
        t[j, i, k] = -val
    return t


def jacobi_residual(t: np.ndarray) -> float:
    """max over basis triples of |[[x,y],z] + [[y,z],x] + [[z,x],y]|."""
    dim = t.shape[0]
    worst = 0.0
    for a in range(dim):
        # [[e_a, e_b], e_c] = sum_m t[a,b,m] t[m,c,:]
        ab_c = np.tensordot(t[a], t, axes=([1], [0]))          # (b, c, l)
        bc_a = np.tensordot(t, t[:, a, :], axes=([2], [0]))    # (b, c, l): [[b,c],a]
        ca_b = np.tensordot(t[:, a, :], t, axes=([1], [0]))    # (c, b, l): [[c,a],b]
        cyc = ab_c + bc_a + ca_b.transpose(1, 0, 2)
        worst = max(worst, float(np.max(np.abs(cyc), initial=0.0)))
    return worst


def self_check(sp: GenSpace) -> None:
    """Abort if a generated algebra is not what its construction promises."""
    t = sp.tensor
    h = sp.h_dim
    problems = []
    if jacobi_residual(t) > JACOBI_TOL:
        problems.append("jacobi")
    for a in range(h):
        ad = t[a, h:, :]                      # [e_a, e_(h+i)] for each i
        if np.any(ad[:, :h] != 0.0):
            problems.append("reductivity")
        am = ad[:, h:]                        # am[i, j]: e_(h+j) part of [e_a, e_(h+i)]
        ga = am @ sp.inner_product
        if np.max(np.abs(ga + ga.T), initial=0.0) > JACOBI_TOL:
            problems.append("inner_product_invariance")
        if np.max(np.abs(sp.v @ am), initial=0.0) > JACOBI_TOL:
            problems.append("v_invariance")
    g = sp.inner_product
    if np.max(np.abs(g - g.T)) > 0.0 or np.min(np.linalg.eigvalsh(g)) <= 1e-3:
        problems.append("inner_product")
    if abs(float(np.sqrt(sp.v @ g @ sp.v)) - sp.b) > 1e-12:
        problems.append("|v| != b")
    if jacobi_residual(dense_tensor(sp.dim_g, sp.twin_entries)) < TWIN_MIN_JACOBI:
        problems.append("twin satisfies jacobi")
    if problems:
        raise RuntimeError(f"generated space {sp.name} fails its own construction: {problems}")


def _random_spd(rng, n):
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    return a @ a.T + 0.5 * np.eye(n)


def _random_v(rng, g, b):
    u = rng.standard_normal(g.shape[0])
    return b * u / np.sqrt(u @ g @ u)


def _twin(rng, dim, entries):
    """Perturb one structure constant (i < j) until Jacobi fails clearly."""
    for _ in range(1000):
        i, j = sorted(rng.choice(dim, size=2, replace=False))
        k = int(rng.integers(dim))
        twin = dict(entries)
        twin[(int(i), int(j), k)] = twin.get((int(i), int(j), k), 0.0) + 0.5
        if jacobi_residual(dense_tensor(dim, twin)) >= TWIN_MIN_JACOBI:
            return twin
    raise RuntimeError("could not corrupt the algebra")


def similitude(rng, k: int, b: float, family: str, name: str) -> GenSpace:
    pairs = [(a, c) for a in range(k) for c in range(a + 1, k)]
    index = {p: i for i, p in enumerate(pairs)}
    K = len(pairs)
    dim = K + 1 + k
    d_idx, t0 = K, K + 1

    def gen(a, c):
        m = np.zeros((k, k))
        m[a, c], m[c, a] = 1.0, -1.0
        return m

    entries = {}
    for p, (a, c) in enumerate(pairs):
        for q, (e, f) in enumerate(pairs):
            if q <= p:
                continue
            comm = gen(a, c) @ gen(e, f) - gen(e, f) @ gen(a, c)
            for (r, s), idx in index.items():
                if comm[r, s] != 0.0:
                    entries[(p, q, idx)] = float(comm[r, s])
        g_ac = gen(a, c)
        for i in range(k):
            for r in range(k):
                if g_ac[r, i] != 0.0:
                    entries[(p, t0 + i, t0 + r)] = float(g_ac[r, i])
    mu = float(rng.uniform(0.5, 2.0))
    for i in range(k):
        entries[(d_idx, t0 + i, t0 + i)] = mu
    l_d, l_t = rng.uniform(0.5, 2.0, size=2)
    g = np.diag([l_d] + [l_t] * k)
    v = np.zeros(k + 1)
    v[0] = b / np.sqrt(l_d)
    sp = GenSpace(name, "similitude", dim, K, entries, g, v, b, family)
    sp.twin_entries = _twin(rng, dim, entries)
    return sp


def solvable(rng, m: int, b: float, family: str, name: str) -> GenSpace:
    k = m - 1
    a = rng.standard_normal((k, k)) / np.sqrt(k)
    entries = {(0, i + 1, j + 1): float(a[j, i]) for i in range(k) for j in range(k)}
    g = _random_spd(rng, m)
    sp = GenSpace(name, "solvable", m, 0, entries, g, _random_v(rng, g, b), b, family)
    sp.twin_entries = _twin(rng, m, entries)
    return sp


def nilpotent(rng, p: int, q: int, b: float, family: str, name: str) -> GenSpace:
    m = p + q
    entries = {}
    for i in range(p):
        for j in range(i + 1, p):
            for l in range(q):
                entries[(i, j, p + l)] = float(rng.standard_normal())
    g = _random_spd(rng, m)
    sp = GenSpace(name, "nilpotent", m, 0, entries, g, _random_v(rng, g, b), b, family)
    sp.twin_entries = _twin(rng, m, entries)
    return sp


def generate(rng, slot: tuple, name: str) -> GenSpace:
    """Build one space from a slot (kind, size, b, family); sizes are fixed."""
    kind, size, b, family = slot
    if kind == "similitude":
        sp = similitude(rng, size, b, family, name)
    elif kind == "solvable":
        sp = solvable(rng, size, b, family, name)
    else:
        sp = nilpotent(rng, size[0], size[1], b, family, name)
    self_check(sp)
    return sp


def write_space_file(sp: GenSpace, directory: str) -> str:
    path = os.path.join(directory, f"{sp.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sp.to_json(), fh)
    return path
