import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, nilpotent, similitude, solvable, space_cases, space_of

from homfinsler import (
    InvariantVector,
    StructureConstants,
    bracket_m,
    build_model,
    catalog_get,
    catalog_names,
    origin_tensors,
    orthonormal_frame,
    validate_model,
)
from homfinsler import algebra


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

class TestStructureConstants:
    def test_antisymmetric_completion(self):
        sc = StructureConstants.from_entries(3, {(0, 1, 2): 1.0})
        assert sc.tensor[0, 1, 2] == 1.0
        assert sc.tensor[1, 0, 2] == -1.0
        assert sc.antisymmetry_residual() == 0.0

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            StructureConstants.from_entries(3, [(0, 1, 2, 1.0), (0, 1, 2, 1.0)])

    def test_conflicting_mirror_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            StructureConstants.from_entries(3, {(0, 1, 2): 1.0, (1, 0, 2): 0.0})

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            StructureConstants.from_entries(3, {(0, 0, 1): 2.0})

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            StructureConstants.from_entries(2, {(0, 1, 5): 1.0})

    def test_verbatim_mode_keeps_conflict(self):
        sc = StructureConstants.from_entries(3, {(0, 1, 2): 1.0, (1, 0, 2): 0.0},
                                             strict=False)
        assert sc.antisymmetry_residual() == 1.0

    def test_jacobi_residual_zero_for_catalog(self):
        for name in ("abelian3", "heisenberg3", "solvable2", "su2_like"):
            entry = catalog_get(name)
            assert entry.model.structure.jacobi_residual() <= 1e-12

    def test_jacobi_residual_detects_violation(self):
        # [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1] = e0 for this table
        sc = StructureConstants.from_entries(
            3, {(0, 1, 2): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0})
        assert sc.jacobi_residual() >= 1.0


def einsum_jacobi(st):
    """jacobi_residual by the original dense einsum over dim_g^4 entries."""
    c = st.tensor
    t = np.einsum("abm,mcl->abcl", c, c)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(cyc), initial=0.0))


def _perturbed(st, seed):
    """st with one structure constant and its mirror moved by 0.25."""
    rng = np.random.default_rng(seed)
    i, j = sorted(rng.choice(st.dim_g, size=2, replace=False))
    k = int(rng.integers(st.dim_g))
    t = st.tensor.copy()
    t[i, j, k] += 0.25
    t[j, i, k] -= 0.25
    return StructureConstants(dim_g=st.dim_g, tensor=t)


def _jacobi_cases():
    makers = {f"catalog:{name}": lambda name=name: catalog_get(name).model.structure
              for name in catalog_names()}
    generated = {
        "similitude3": lambda: similitude(2, 0.7),
        "similitude16": lambda: similitude(5, 1.3),       # dim_g 16 and 22: several blocks
        "similitude22": lambda: similitude(6, 0.9),
        "solvable7": lambda: solvable(7, 2),
        "solvable16": lambda: solvable(16, 3),
        "nilpotent7": lambda: nilpotent(4, 3, 5),
        "nilpotent16": lambda: nilpotent(10, 6, 6),
    }
    for name, make in generated.items():
        makers[name] = lambda make=make: make()[0].structure
        makers[f"{name}_twin"] = lambda make=make, seed=len(makers): _perturbed(
            make()[0].structure, seed)
    makers["similitude16_twin_conftest"] = lambda: similitude(5, 1.3, twin=True)[0].structure
    rng = np.random.default_rng(8)
    for dim in (3, 16, 22):
        # strict=False keeps conflicting mirrors and diagonal entries
        entries = {(int(i), int(j), int(k)): float(rng.standard_normal())
                   for i, j, k in rng.integers(dim, size=(4 * dim, 3))}
        makers[f"not_antisymmetric{dim}"] = lambda dim=dim, entries=entries: (
            StructureConstants.from_entries(dim, entries, strict=False))
    return [pytest.param(make, id=name) for name, make in makers.items()]


class TestJacobiAgainstEinsum:
    @pytest.mark.parametrize("make", _jacobi_cases())
    def test_matches_the_einsum(self, make):
        st = make()
        ref = einsum_jacobi(st)
        # exactly 0 where the einsum gives 0, else within 1e-12 relative
        assert abs(st.jacobi_residual() - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("dim,l", [(8, 0), (8, 7), (16, 0), (16, 9), (16, 15), (22, 0),
                                       (22, 13), (22, 21)])
    def test_a_defect_in_one_component_is_found(self, dim, l):
        # [e1, e2] = e3 and [e3, e4] = e_l: [[e1, e2], e4] = e_l is the only
        # defect, so every block of components must be searched
        st = StructureConstants.from_entries(dim, {(1, 2, 3): 1.0, (3, 4, l): 1.0})
        assert einsum_jacobi(st) == st.jacobi_residual() == 1.0

    def test_cases_cover_both_outcomes(self):
        structures = {p.id: p.values[0]() for p in _jacobi_cases()}
        refs = {name: einsum_jacobi(st) for name, st in structures.items()}
        for name in ("catalog:su2_like", "similitude22", "solvable16", "nilpotent16"):
            assert refs[name] == 0.0
        assert min(r for name, r in refs.items() if "twin" in name) > 1e-3
        assert min(st.antisymmetry_residual() for name, st in structures.items()
                   if name.startswith("not_antisymmetric")) > 0.0


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------

class TestFrame:
    def test_seeded_frame_puts_v_last(self):
        entry = catalog_get("heisenberg3")
        # v along e1 -> last frame vector is e1, completion picks e2, e3
        assert np.allclose(entry.model.frame, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_random_inner_products(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            g = a @ a.T + n * np.eye(n)
            v = rng.standard_normal(n)
            frame = orthonormal_frame(g, v)
            assert np.max(np.abs(frame @ g @ frame.T - np.eye(n))) < 1e-12
            c = np.sqrt(v @ g @ v)
            assert np.allclose(frame[-1], v / c, atol=1e-12)
            # a v whose square is a normal float keeps the bits of c = sqrt(v @ g @ v)
            model, iv = build_model(StructureConstants.from_entries(n, {}), 0, g, v)
            assert iv.c == float(c) and np.array_equal(model.frame, frame)

    def test_zero_v_unseeded(self):
        frame = orthonormal_frame(np.eye(3), np.zeros(3))
        assert np.max(np.abs(frame @ frame.T - np.eye(3))) < 1e-14

    def test_ties_go_to_the_first_candidate(self):
        assert np.array_equal(orthonormal_frame(np.eye(5)), np.eye(5))

    @pytest.mark.parametrize("b", [1e200, 1e-170])
    def test_v_too_long_or_short_to_square(self, b):
        # |v|^2 overflows or underflows: the length comes from v/max|v_i|, with
        # no warning (warnings are errors here), and the frame still ends in v/|v|
        assert np.array_equal(orthonormal_frame(np.eye(2), [0.0, b]), np.eye(2))
        model, v = make_model(2, {(0, 1, 1): 1.0}, v=[0.0, b])
        assert v.c == v.b == b and np.array_equal(model.frame, np.eye(2))


def loop_frame(inner_product, v=None, tol=1e-12):
    """orthonormal_frame by the original per-candidate loop, with its pivots.

    The frame and the identity-column index of each accepted candidate.
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

    candidates = [(i, np.eye(n)[i].copy()) for i in range(n)]
    for u in accepted:
        for _, cand in candidates:
            cand -= (cand @ g @ u) * u

    pivots = []
    while len(accepted) < n and candidates:
        norms = [norm(cand) for _, cand in candidates]
        j = int(np.argmax(norms))
        if norms[j] <= tol:
            break
        i, cand = candidates.pop(j)
        u = cand / norms[j]
        accepted.append(u)
        pivots.append(i)
        for _, cand in candidates:
            cand -= (cand @ g @ u) * u
    if len(accepted) < n:
        raise ValueError("could not complete an orthonormal frame (inner product degenerate?)")

    rows = accepted[1:] + [accepted[0]] if seeded else accepted
    return np.array(rows), pivots


class TestFrameAgainstLoop:
    def test_random_spd_same_pivots_and_frame(self):
        rng = np.random.default_rng(11)
        for k in range(300):
            n = int(rng.integers(2, 17))
            a = rng.standard_normal((n, n)) / np.sqrt(n)
            g = a @ a.T + 0.5 * np.eye(n)
            v = (None, np.zeros(n), rng.standard_normal(n))[k % 3]
            ref, pivots = loop_frame(g, v)
            frame = orthonormal_frame(g, v)
            # another pivot anywhere would move whole rows by O(1)
            assert np.max(np.abs(frame - ref)) <= 1e-14 * np.max(np.abs(ref))
            if v is None or not v.any():
                # unseeded, row r lies in the span of the first r + 1 pivot columns
                for r in range(n):
                    assert not frame[r, pivots[r + 1:]].any()

    def test_catalog_frames_are_the_loop_frames(self):
        for name in catalog_names():
            entry = catalog_get(name)
            ref, _ = loop_frame(entry.model.inner_product, entry.v.coords)
            assert np.array_equal(entry.model.frame, ref)

    @pytest.mark.parametrize("g", [
        np.diag([1.0, 0.0, 2.0]),
        np.zeros((2, 2)),
        np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ], ids=["zero_direction", "zero", "rank_two"])
    def test_degenerate_inner_product_raises(self, g):
        for v in (None, np.eye(len(g))[-1]):
            with pytest.raises(ValueError, match="degenerate"):
                loop_frame(g, v)
            with pytest.raises(ValueError, match="degenerate"):
                orthonormal_frame(g, v)


class TestBuildModelInputs:
    ST = StructureConstants.from_entries(3, {(0, 1, 2): 1.0})

    @pytest.mark.parametrize("inner,v,match", [
        (np.eye(3), [np.nan, 0.0, 0.0], "v_coords must be finite"),
        (np.eye(3), [0.0, np.inf, 0.5], "v_coords must be finite"),
        (np.eye(3), [0.5, 0.0], "v_coords must have 3 components"),
        (np.eye(3), np.zeros((3, 1)), "v_coords must have 3 components"),
        (np.diag([1.0, np.nan, 1.0]), [0.5, 0.0, 0.0], "inner_product must be finite"),
        (np.full((3, 3), np.inf), None, "inner_product must be finite"),
        (np.eye(2), [0.5, 0.0, 0.0], "inner_product must be 3 x 3"),
    ])
    def test_rejected_before_the_frame(self, inner, v, match, monkeypatch):
        def no_frame(*args, **kwargs):
            raise AssertionError("frame built")
        monkeypatch.setattr(algebra, "orthonormal_frame", no_frame)
        with pytest.raises(ValueError, match=match):
            build_model(self.ST, 0, inner, v)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("strict", [True, False])
    def test_non_finite_structure_constant(self, value, strict):
        with pytest.raises(ValueError, match=r"structure constant \(0, 1, 2\) must be finite"):
            StructureConstants.from_entries(3, {(0, 1, 2): value}, strict=strict)

    @pytest.mark.parametrize("field,match", [
        ("frame", "not orthonormal"),
        ("inner_product", "must be symmetric"),
    ])
    def test_direct_construction_refuses_nan(self, field, match):
        # build_model checks finiteness itself; a model built or replaced
        # directly must not let a NaN through its tolerance comparisons
        model = catalog_get("heisenberg3").model
        bad = np.array(getattr(model, field))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(model, **{field: bad})


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

class TestValidateModel:
    def test_abelian_all_pass_with_zero_residuals(self):
        entry = catalog_get("abelian3")
        report = validate_model(entry.model, entry.v)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "antisymmetry", "jacobi", "reductivity",
            "inner_product_invariance", "v_invariance"]
        assert all(c.residual == 0.0 for c in report.checks)

    def test_heisenberg_h_empty_checks_vacuous(self, entry=None):
        e = catalog_get("heisenberg3")
        report = validate_model(e.model, e.v)
        assert report.passed

    def test_antisymmetry_failure_reported_with_residual(self):
        model, v = make_model(3, {(0, 1, 2): 1.0, (1, 0, 2): 0.0}, strict=False)
        report = validate_model(model, v)
        (bad,) = report.failed_checks()
        assert bad.name == "antisymmetry"
        assert bad.residual == 1.0

    def test_non_reductive_detected(self):
        # [e0, e1] = e0 with h = span{e0}: bracket of h with m lands in h
        model, v = make_model(2, {(0, 1, 0): 1.0}, h_dim=1)
        report = validate_model(model, v)
        names = {c.name: c for c in report.checks}
        assert not names["reductivity"].passed
        assert names["reductivity"].residual == pytest.approx(1.0)

    def test_so3_with_h_is_reductive_and_invariant(self):
        # cyclic so(3) brackets, h = span{e0}, m = span{e1, e2}
        entries = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0}
        model, v = make_model(3, entries, h_dim=1)
        report = validate_model(model, v)
        names = {c.name: c for c in report.checks}
        assert names["reductivity"].passed
        assert names["inner_product_invariance"].passed

    def test_non_invariant_inner_product_detected(self):
        entries = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0}
        model, v = make_model(3, entries, h_dim=1, inner=np.diag([1.0, 4.0]))
        report = validate_model(model, v)
        names = {c.name: c for c in report.checks}
        assert not names["inner_product_invariance"].passed

    def test_v_invariance(self):
        # rotation algebra acting on the (e1, e2) plane, e3 fixed
        entries = {(0, 1, 2): 1.0, (0, 2, 1): -1.0}
        model, v_ok = make_model(4, entries, h_dim=1, v=[0.0, 0.0, 0.5])
        report = validate_model(model, v_ok)
        assert report.passed
        v_bad = InvariantVector.from_coords(model, [0.5, 0.0, 0.0])
        report = validate_model(model, v_bad)
        names = {c.name: c for c in report.checks}
        assert not names["v_invariance"].passed
        assert [c.name for c in report.failed_checks()] == ["v_invariance"]
        assert validate_model(model, v_ok).passed    # v is not cached on the model

    def test_dimension_mismatch_is_structural_error(self):
        e2 = catalog_get("solvable2")
        e3 = catalog_get("abelian3")
        with pytest.raises(ValueError, match="dimension"):
            validate_model(e3.model, e2.v)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

class TestBracketM:
    def test_heisenberg_defining_relation(self):
        e = catalog_get("heisenberg_central_v")  # frame is the identity order
        out = bracket_m(e.model, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-14)

    def test_solvable_antisymmetric_relation(self):
        e = catalog_get("solvable2")  # frame (e1, e2)
        out = bracket_m(e.model, [0.0, 1.0], [1.0, 0.0])
        assert np.allclose(out, [0.0, -1.0], atol=1e-14)

    def test_self_bracket_vanishes(self, entry, rng):
        for _ in range(20):
            x = rng.standard_normal(entry.model.m_dim)
            assert np.max(np.abs(bracket_m(entry.model, x, x))) <= 1e-12

    def test_antisymmetry_1000_random_pairs(self, entry, rng):
        n = entry.model.m_dim
        worst = 0.0
        for _ in range(1000):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            resid = np.max(np.abs(bracket_m(entry.model, x, y)
                                  + bracket_m(entry.model, y, x)))
            worst = max(worst, float(resid))
        assert worst <= 1e-12

    @settings(deadline=None, max_examples=50)
    @given(a=st.floats(-10, 10), x0=st.floats(-5, 5), x1=st.floats(-5, 5),
           z0=st.floats(-5, 5), z1=st.floats(-5, 5))
    def test_bilinearity(self, a, x0, x1, z0, z1):
        e = catalog_get("heisenberg3")
        x = np.array([x0, x1, 0.7])
        z = np.array([z0, z1, -0.4])
        y = np.array([0.3, -1.1, 2.0])
        lhs = bracket_m(e.model, a * x + z, y)
        rhs = a * bracket_m(e.model, x, y) + bracket_m(e.model, z, y)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_h_component_is_discarded(self):
        # so(3) with h = span{e0}: [e1, e2] = e0 lies in h, so [.,.]_m = 0
        entries = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0}
        model, _ = make_model(3, entries, h_dim=1)
        out = bracket_m(model, [1.0, 0.0], [0.0, 1.0])
        assert np.max(np.abs(out)) <= 1e-14


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------

class TestChristoffel:
    def test_raw_formula_metric_compatibility(self, entry):
        # the unmirrored three-bracket expression is antisymmetric in (l, i),
        # which is exactly metric compatibility in an orthonormal frame
        br = entry.model._brackets
        n = entry.model.m_dim
        worst = 0.0
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    raw_lij = 0.5 * (-br[i, j, l] + br[l, i, j] + br[l, j, i])
                    raw_ilj = 0.5 * (-br[l, j, i] + br[i, l, j] + br[i, j, l])
                    worst = max(worst, abs(raw_lij + raw_ilj))
        assert worst <= 1e-12


# ---------------------------------------------------------------------------
# origin tensors and contractions
# ---------------------------------------------------------------------------

class TestOriginTensors:
    def test_abelian_zero(self):
        e = catalog_get("abelian3")
        tensors = origin_tensors(e.model, e.v)
        assert np.max(np.abs(tensors.r)) == 0.0
        assert np.max(np.abs(tensors.s)) == 0.0

    def test_zero_v_convention(self):
        model, v = make_model(3, {(0, 1, 2): 1.0})
        assert v.c == 0.0
        tensors = origin_tensors(model, v)
        assert np.max(np.abs(tensors.r)) == 0.0
        assert np.max(np.abs(tensors.s)) == 0.0

    def test_solvable_frozen_values(self):
        e = catalog_get("solvable2")
        tensors = origin_tensors(e.model, e.v)
        assert np.allclose(tensors.s, [[0.0, 0.25], [-0.25, 0.0]], atol=1e-14)
        assert np.allclose(tensors.r, [[0.0, 0.25], [0.25, 0.0]], atol=1e-14)

    def test_exact_symmetries(self, entry):
        tensors = origin_tensors(entry.model, entry.v)
        assert np.max(np.abs(tensors.s + tensors.s.T)) == 0.0
        assert np.max(np.abs(tensors.r - tensors.r.T)) == 0.0

    def test_contractions_match_direct_brackets(self, entry, rng):
        tensors = origin_tensors(entry.model, entry.v)
        n = entry.model.m_dim
        c = entry.v.c
        vf = entry.v.frame_coords(entry.model)
        for _ in range(1000):
            y = rng.standard_normal(n)
            br = bracket_m(entry.model, vf, y)
            r00 = float(y @ tensors.r @ y)
            s0 = c * float(tensors.s[-1] @ y)
            assert abs(r00 + float(br @ y)) <= 1e-10
            assert abs(s0 - 0.5 * float(br @ vf)) <= 1e-10


def old_origin_tensors(model, v):
    """r and s from the brackets with c inside the products: origin_tensors' reference bits."""
    n = model.m_dim
    br = model._brackets
    if v.c == 0.0:
        return np.zeros((n, n)), np.zeros((n, n))
    upper = np.triu(0.5 * v.c * br[:, :, -1], 1)
    rn = br[-1]
    return -0.5 * v.c * (rn + rn.T), upper - upper.T


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestOriginCache:
    @pytest.mark.parametrize("case", space_cases())
    def test_matches_the_per_call_formulas(self, case):
        sp = space_of(case)
        got = origin_tensors(sp.model, sp.v)
        want = old_origin_tensors(sp.model, sp.v)
        for name, ref in zip(("r", "s"), want):
            assert same_bits(getattr(got, name), ref), name

    def test_zero_v_after_the_cache_is_warm(self):
        # origin_tensors keeps nothing between calls: one at the model's own v
        # first leaves v = 0 its zero tensors
        e = catalog_get("heisenberg3")
        origin_tensors(e.model, e.v)
        zero = InvariantVector.from_coords(e.model, [0.0, 0.0, 0.0])
        tensors = origin_tensors(e.model, zero)
        assert same_bits(tensors.r, np.zeros((3, 3)))
        assert same_bits(tensors.s, np.zeros((3, 3)))


class TestFrameBrackets:
    def test_matches_bracket_m(self, entry):
        br = entry.model._brackets
        n = entry.model.m_dim
        eye = np.eye(n)
        for a in range(n):
            for b in range(n):
                assert np.max(np.abs(br[a, b] - bracket_m(entry.model, eye[a], eye[b]))) <= 1e-14

    def test_generated_model(self, rng):
        # h nonzero, a non-orthonormal inner product and a v off the axes
        model = make_model(4, {(0, 2, 3): 1.3, (0, 3, 2): -1.3, (2, 3, 1): 0.7,
                               (1, 2, 2): 0.4}, h_dim=1, strict=False,
                           inner=[[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]],
                           v=[0.2, -0.4, 0.3])[0]
        for _ in range(20):
            x, y = rng.standard_normal((2, 3))
            direct = bracket_m(model, x, y)
            assert np.max(np.abs(np.einsum("a,b,abc->c", x, y, model._brackets) - direct)) \
                <= 1e-13 * (1.0 + np.max(np.abs(direct)))

    def test_cached_read_only_and_not_a_field(self):
        model, _ = make_model(3, {(0, 1, 2): 1.0}, v=[0.0, 0.0, 0.5])
        twin, _ = make_model(3, {(0, 1, 2): 1.0}, v=[0.0, 0.0, 0.5])
        br = model._brackets
        assert model._brackets is br
        assert not br.flags.writeable
        assert repr(model) == repr(twin)
        assert "_brackets" not in {f.name for f in dataclasses.fields(model)}


def loop_residuals(model, v):
    """validate_model's residuals by the original per-basis-vector loops."""
    st = model.structure
    h, n, dim = model.h_dim, model.m_dim, st.dim_g
    red = inv_ip = inv_v = 0.0
    for a in range(h):
        wg = np.zeros(dim)
        wg[a] = 1.0
        for i in range(n):
            eg = np.zeros(dim)
            eg[h + i] = 1.0
            red = max(red, float(np.max(np.abs(st.bracket(wg, eg)[:h]), initial=0.0)))
        bw = np.empty((n, n))
        for a2 in range(n):
            zm = st.bracket(wg, np.concatenate([np.zeros(h), model.frame[a2]]))[h:]
            bw[a2] = model.frame @ (model.inner_product @ zm)
        inv_ip = max(inv_ip, float(np.max(np.abs(bw + bw.T), initial=0.0)))
        if v is not None and v.c > 0.0:
            zv = st.bracket(wg, np.concatenate([np.zeros(h), v.coords]))[h:]
            inv_v = max(inv_v, float(np.max(np.abs(zv), initial=0.0)))
    return [st.antisymmetry_residual(), st.jacobi_residual(), red, inv_ip, inv_v]


def _residual_cases():
    so3 = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0}
    rotation = {(0, 1, 2): 1.0, (0, 2, 1): -1.0}
    cases = [pytest.param(lambda name=name: (catalog_get(name).model, catalog_get(name).v),
                          id=f"catalog:{name}") for name in catalog_names()]
    cases += [
        pytest.param(lambda: make_model(3, so3, h_dim=1), id="so3_h1"),
        pytest.param(lambda: make_model(3, so3, h_dim=1, inner=np.diag([1.0, 4.0])),
                     id="non_invariant_inner"),
        pytest.param(lambda: make_model(2, {(0, 1, 0): 1.0}, h_dim=1), id="non_reductive"),
        pytest.param(lambda: make_model(4, rotation, h_dim=1, v=[0.0, 0.0, 0.5]), id="v_ok"),
        pytest.param(lambda: make_model(4, rotation, h_dim=1, v=[0.5, 0.0, 0.0]), id="v_bad"),
    ]
    for k, mu in ((2, 0.7), (3, 1.3), (4, 0.9)):
        for twin in (False, True):
            cases.append(pytest.param(lambda k=k, mu=mu, twin=twin: similitude(k, mu, twin=twin),
                                      id=f"similitude{k}{'_twin' if twin else ''}"))
    # a general SPD inner product and v: frame and inner product not diagonal
    a = np.random.default_rng(3).standard_normal((4, 4))
    cases.append(pytest.param(lambda: similitude(3, 1.1, inner=a @ a.T + 4.0 * np.eye(4),
                                                 v=[0.1, 0.05, -0.08, 0.12]),
                              id="similitude3_spd"))
    return cases


class TestResidualCache:
    @pytest.mark.parametrize("make", _residual_cases())
    def test_residuals_match_the_loop(self, make):
        model, v = make()
        residuals = [c.residual for c in validate_model(model, v).checks]
        assert np.array_equal(residuals, loop_residuals(model, v))
        # a second call reads the cache and reports the same figures
        assert [c.residual for c in validate_model(model, v).checks] == residuals

    def test_twin_breaks_jacobi(self):
        model, v = similitude(3, 1.3, twin=True)
        (bad,) = validate_model(model, v).failed_checks()
        assert bad.name == "jacobi" and bad.residual >= 0.1

    def test_cached_once_and_not_a_field(self):
        model, v = similitude(3, 1.3)
        res = model._residuals
        assert model._residuals is res
        assert "_residuals" not in {f.name for f in dataclasses.fields(model)}
        fresh = dataclasses.replace(model)
        assert "_residuals" not in vars(fresh)
        assert fresh._residuals == res

    def test_cache_serves_every_tolerance(self):
        model, v = similitude(3, 1.3, twin=True)
        report = validate_model(model, v)
        assert not report.passed
        assert all(c.tolerance == algebra.DEFAULT_TOL for c in report.checks)
        assert [c.residual for c in report.checks] == loop_residuals(model, v)


class TestEquality:
    def test_identity_equality_and_hashing(self):
        model, v = make_model(3, {(0, 1, 2): 1.0}, v=[0.0, 0.0, 0.5])
        twin, v2 = make_model(3, {(0, 1, 2): 1.0}, v=[0.0, 0.0, 0.5])
        for a, b in ((model, twin), (v, v2), (model.structure, twin.structure)):
            assert a == a
            assert a != b          # equal contents, distinct objects: no ValueError
            assert not (a == b)
            assert len({a: 0, b: 1}) == 2

    def test_catalog_entry_equality(self):
        e = catalog_get("heisenberg3")
        assert e == catalog_get("heisenberg3")
        assert e == dataclasses.replace(e)
        rebuilt = make_model(3, {(0, 1, 2): 1.0}, v=[0.5, 0.0, 0.0])[0]
        assert e != dataclasses.replace(e, model=rebuilt)
        assert {e: 1}[catalog_get("heisenberg3")] == 1


def s0_r00(model, v, y):
    """s_0 = c s_ni y^i and r_00 = r_ij y^i y^j from origin_tensors, as the tensor route reads them."""
    y = np.asarray(y, dtype=float)
    tensors = origin_tensors(model, v)
    return v.c * float(tensors.s[-1] @ y), float(y @ tensors.r @ y)


class TestS0R00:
    """The two origin_tensors contractions that enter the curvature scalar."""

    def test_y_equals_v(self, entry):
        vf = entry.v.frame_coords(entry.model)
        assert s0_r00(entry.model, entry.v, vf) == (0.0, 0.0)

    def test_solvable_values(self):
        e = catalog_get("solvable2")
        s0, r00 = s0_r00(e.model, e.v, [1.0, 1.0])
        assert s0 == pytest.approx(-0.125, abs=1e-14)
        assert r00 == pytest.approx(0.5, abs=1e-14)

    def test_heisenberg_values(self):
        e = catalog_get("heisenberg3")
        # y = e2 + e3 in algebra coordinates = (1, 1, 0) in the frame
        s0, r00 = s0_r00(e.model, e.v, [1.0, 1.0, 0.0])
        assert s0 == pytest.approx(0.0, abs=1e-14)
        assert r00 == pytest.approx(-0.5, abs=1e-14)

    def test_s0_linear_r00_quadratic(self, entry, rng):
        n = entry.model.m_dim
        y = rng.standard_normal(n)
        s0, r00 = s0_r00(entry.model, entry.v, y)
        s0_2, r00_2 = s0_r00(entry.model, entry.v, 2.0 * y)
        assert s0_2 == pytest.approx(2.0 * s0, abs=1e-12)
        assert r00_2 == pytest.approx(4.0 * r00, abs=1e-12)
