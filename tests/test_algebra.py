import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfinsler import (
    InvariantVector,
    StructureConstants,
    bracket_m,
    build_model,
    catalog_get,
    christoffel_origin,
    origin_tensors,
    orthonormal_frame,
    s0_r00,
    validate_model,
)


def make_model(dim_g, entries, h_dim=0, inner=None, v=None, strict=True):
    structure = StructureConstants.from_entries(dim_g, entries, strict=strict)
    if inner is None:
        inner = np.eye(dim_g - h_dim)
    return build_model(structure, h_dim, inner, v)


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

    def test_zero_v_unseeded(self):
        frame = orthonormal_frame(np.eye(3), np.zeros(3))
        assert np.max(np.abs(frame @ frame.T - np.eye(3))) < 1e-14


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

def brute_force_gamma(model):
    """Independent re-evaluation of the three-bracket formula (i >= j, mirrored)."""
    n = model.m_dim
    eye = np.eye(n)

    def ip(a, b):
        return float(a @ b)

    def br(a, b):
        return bracket_m(model, eye[a], eye[b])

    gamma = np.zeros((n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                ii, jj = (i, j) if i >= j else (j, i)
                gamma[l, i, j] = 0.5 * (
                    -ip(br(ii, jj), eye[l])
                    + ip(br(l, ii), eye[jj])
                    + ip(br(l, jj), eye[ii]))
    return gamma


class TestChristoffel:
    def test_abelian_zero(self):
        e = catalog_get("abelian3")
        assert np.max(np.abs(christoffel_origin(e.model))) == 0.0

    def test_matches_brute_force(self, entry):
        gamma = christoffel_origin(entry.model)
        assert np.allclose(gamma, brute_force_gamma(entry.model), atol=1e-13)

    def test_symmetric_in_lower_indices(self, entry):
        gamma = christoffel_origin(entry.model)
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) == 0.0

    def test_heisenberg_frozen_values(self):
        # identity frame order via the central-v variant
        e = catalog_get("heisenberg_central_v")
        gamma = christoffel_origin(e.model)
        expected = np.zeros((3, 3, 3))
        expected[2, 0, 1] = expected[2, 1, 0] = 0.5
        expected[1, 0, 2] = expected[1, 2, 0] = -0.5
        expected[0, 1, 2] = expected[0, 2, 1] = 0.5
        assert np.allclose(gamma, expected, atol=1e-14)

    def test_solvable_frozen_values(self):
        # the three terms cancel in the off-diagonal slot; only gamma[0,1,1]
        # (the <[v_0,v_1],v_1>-driven entry) survives
        e = catalog_get("solvable2")
        gamma = christoffel_origin(e.model)
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 1] = 1.0
        assert np.allclose(gamma, expected, atol=1e-14)

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


class TestS0R00:
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
