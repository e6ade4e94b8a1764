"""Shared helpers: catalog access, generated spaces and in-domain tangent-vector sampling."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from homfinsler import (
    MetricSpec,
    PhiFamily,
    StructureConstants,
    build_model,
    catalog_get,
    catalog_names,
    phi_family,
)

FAMILIES = ("infinite_series", "exponential")
DIP_B = 0.5


def dip_profile(s0=0.0025, depth=1e-6):
    """A cubic whose positivity criterion at b = DIP_B is -depth at s0 and
    positive elsewhere on the 201-point grid."""
    c2, c3 = -1.0 / 3.0, -2.0 * s0 / (6.0 * DIP_B * DIP_B)
    return PhiFamily.polynomial([s0 * s0 - depth - 2.0 * DIP_B * DIP_B * c2, 0.0, c2, c3])


def spec_for(entry, family):
    return MetricSpec.for_vector(phi_family(family), entry.v)


def closed_delta(family, s, b):
    """Delta as a function of s alone, used for in-domain rejection."""
    if family == "infinite_series":
        return (s**3 - 3.0 * s**2 + 2.0 * b * b) / s**2 if s != 0.0 else 0.0
    return (1.0 + b * b - s * s - s) / (1.0 - s) ** 2


def sample_in_domain(entry, family, count, rng, scale=(0.6, 1.8)):
    """Random tangent vectors keeping s and Delta away from singular loci."""
    n = entry.model.m_dim
    b = entry.v.b
    out = []
    while len(out) < count:
        y = rng.standard_normal(n)
        nrm = float(np.linalg.norm(y))
        if nrm < 1e-9:
            continue
        y = y / nrm * rng.uniform(*scale)
        s = entry.v.c * float(y[-1]) / float(np.linalg.norm(y))
        if family == "infinite_series" and abs(s) < 0.05:
            continue
        if family == "exponential" and abs(1.0 - s) < 0.05:
            continue
        if abs(closed_delta(family, s, b)) < 0.05:
            continue
        out.append(y)
    return np.array(out)


@pytest.fixture(params=sorted(catalog_names()))
def entry(request):
    return catalog_get(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(20240 + 17)


def make_model(dim_g, entries, h_dim=0, inner=None, v=None, strict=True):
    structure = StructureConstants.from_entries(dim_g, entries, strict=strict)
    if inner is None:
        inner = np.eye(dim_g - h_dim)
    return build_model(structure, h_dim, inner, v)


def similitude(k, mu, inner=None, v=None, twin=False):
    """(so(k) + R D) x| R^k with h = so(k) and m = span(D, T_1..T_k).

    The rotation generators act on the T_i, [D, T_i] = mu T_i; by default
    the inner product is the h-invariant diag(1.5, 0.8, ..., 0.8) and v lies
    along D.  ``twin`` perturbs [D, T_1], which breaks the Jacobi identity.
    """
    pairs = list(itertools.combinations(range(k), 2))
    h = len(pairs)
    gens = []
    for a, c in pairs:
        g = np.zeros((k, k))
        g[a, c], g[c, a] = 1.0, -1.0
        gens.append(g)
    entries = {}
    for p, q in itertools.combinations(range(h), 2):
        comm = gens[p] @ gens[q] - gens[q] @ gens[p]
        for r, (a, c) in enumerate(pairs):
            if comm[a, c] != 0.0:
                entries[(p, q, r)] = float(comm[a, c])
    for p, g in enumerate(gens):
        for i, r in zip(*np.nonzero(g.T)):
            entries[(p, h + 1 + int(i), h + 1 + int(r))] = float(g[r, i])
    for i in range(k):
        entries[(h, h + 1 + i, h + 1 + i)] = mu + (0.5 if twin and i == 0 else 0.0)
    if inner is None:
        inner = np.diag([1.5] + [0.8] * k)
        v = [0.5 / np.sqrt(1.5)] + [0.0] * k
    return make_model(h + 1 + k, entries, h_dim=h, inner=inner, v=v)


def _spd_and_v(rng, m, b):
    a = rng.standard_normal((m, m)) / np.sqrt(m)
    g = a @ a.T + 0.5 * np.eye(m)
    u = rng.standard_normal(m)
    return g, b * u / np.sqrt(u @ g @ u)


def solvable(m, seed, b=0.5):
    """R x|_A R^(m-1) with h = 0, a random A, SPD inner product and v of norm b."""
    rng = np.random.default_rng(seed)
    k = m - 1
    a = rng.standard_normal((k, k)) / np.sqrt(k)
    g, v = _spd_and_v(rng, m, b)
    return make_model(m, {(0, i + 1, j + 1): float(a[j, i]) for i in range(k) for j in range(k)},
                  inner=g, v=v)


def nilpotent(p, q, seed, b=0.5):
    """2-step nilpotent, [X_i, X_j] = sum_l C_ij^l Z_l with Z central, h = 0."""
    rng = np.random.default_rng(seed)
    entries = {(i, j, p + l): float(rng.standard_normal())
               for i in range(p) for j in range(i + 1, p) for l in range(q)}
    g, v = _spd_and_v(rng, p + q, b)
    return make_model(p + q, entries, inner=g, v=v)


def space_cases():
    """pytest params for the catalog spaces (by name) and seeded generated spaces
    (by builder) with n = 2 to 16; ``space_of`` turns one into a space."""
    cases = [pytest.param(name, id=name) for name in sorted(catalog_names())]
    makers = {
        "similitude3": lambda: similitude(2, 0.7),
        "similitude6": lambda: similitude(5, 1.3),
        "solvable3": lambda: solvable(3, 1),
        "solvable7": lambda: solvable(7, 2, b=0.3),
        "solvable16": lambda: solvable(16, 3, b=0.7),
        "nilpotent3": lambda: nilpotent(2, 1, 4),
        "nilpotent7": lambda: nilpotent(4, 3, 5, b=0.4),
        "nilpotent16": lambda: nilpotent(10, 6, 6),
    }
    cases += [pytest.param(make, id=name) for name, make in makers.items()]
    return cases


def space_of(case):
    """A space_cases() entry as an object with ``model`` and ``v``."""
    if isinstance(case, str):
        return catalog_get(case)
    model, v = case()
    return SimpleNamespace(model=model, v=v)
