"""The scalar S and E routes against the per-call assembly they replaced.

The reference functions below rebuild every y-independent quantity on each
call, with numpy's matmul and ``metrics._horner``, as the scalar routes did
before they read a per-(model, v) record.  The routes must give the same
bits, or the same exception type and message, on every input.
"""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

from conftest import make_model, similitude, space_cases, space_of

from homfinsler import (
    MetricSpec,
    PhiFamily,
    StructureConstants,
    build_model,
    catalog_get,
    mean_berwald,
    phi_family,
    s_curvature,
    s_curvature_via_tensors,
    shen_check,
    validate_model,
)
from homfinsler import algebra, curvature, metrics
from homfinsler.curvature import _generic_coefficients, _guard, _rational_forms
from homfinsler.errors import DomainError, SingularityError, ValidatedModeError
from homfinsler.metrics import _horner

_NO_Q = "phi - s*phi' = 0 at s = {:.6g} ({})"


# ---------------------------------------------------------------------------
# reference routes: everything rebuilt per call
# ---------------------------------------------------------------------------

def ref_check_inputs(model, v, spec, y, mode, path, paths):
    if path not in paths:
        raise ValueError(f"path must be {paths[0]!r} or {paths[1]!r}, got {path!r}")
    forms = None
    if path == "closed_form":
        if spec.phi.exact is None:
            raise ValueError(f"no closed-form coefficients for family {spec.phi.name!r} (user "
                             "callables have no exact form); use the generic path")
        forms = _rational_forms(spec.phi.exact, spec.b, model.m_dim)
    if abs(spec.b - v.b) > 1e-9:
        raise ValueError(f"MetricSpec.b = {spec.b} does not match |v| = {v.b}; "
                         "build the spec with MetricSpec.for_vector")
    if mode == "validated":
        report = validate_model(model, v)
        if not report.passed:
            bad = report.failed_checks()[0]
            raise ValidatedModeError(
                f"validated mode: model check {bad.name!r} failed "
                f"(residual {bad.residual:.3g} > {bad.tolerance:.3g})")
        shen = spec._shen
        if not shen.holds:
            raise ValidatedModeError(
                f"validated mode: positivity criterion fails for {spec.phi.name} "
                f"(min {shen.min_value:.6g} at s = {shen.argmin_s:.6g})")
    elif mode != "formal":
        raise ValueError(f"mode must be 'formal' or 'validated', got {mode!r}")
    y = np.asarray(y, dtype=float)
    if y.shape != (model.m_dim,):
        raise ValueError(f"y must have {model.m_dim} components")
    with np.errstate(over="ignore"):
        alpha = float(np.linalg.norm(y))
    if not sys.float_info.min <= alpha * alpha < math.inf:
        if not y.any():
            raise DomainError("y = 0 is outside the slit tangent space")
        raise DomainError(
            f"|y| = {alpha:.3g}: y must be finite, with |y|^2 a normal float "
            "(neither subnormal nor overflowing)")
    return y, alpha, forms


def ref_s_curvature(model, v, spec, y, path="closed_form", mode="formal"):
    y, alpha, forms = ref_check_inputs(model, v, spec, y, mode, path,
                                       ("closed_form", "generic"))
    br = v.c * (y @ model._brackets[-1])
    if not br.any():
        return 0.0
    bvy_y = float(br @ y)
    bvy_v = v.c * float(br[-1])
    s = v.c * float(y[-1]) / alpha
    if path == "generic":
        q, _, _, delta, phi_big = _generic_coefficients(spec.phi, s, spec.b, model.m_dim)
        _guard(delta, s, "Delta = 0")
        return phi_big / (2.0 * alpha * (delta * delta)) * (bvy_y + alpha * q * bvy_v)
    if forms is None:
        raise SingularityError(_NO_Q.format(s, spec.phi.name))
    den = _guard(_horner(forms.D, s), s, f"pole of Q ({spec.phi.name})")
    dn = _guard(_horner(forms.DN, s), s, "Delta = 0")
    q = _horner(forms.N, s) / den
    w = _horner(forms.PN, s) / (2.0 * (dn * dn))
    return w / alpha * bvy_y + w * q * bvy_v


def ref_s_via_tensors(model, v, spec, y, mode="formal"):
    y, alpha, _ = ref_check_inputs(model, v, spec, y, mode, "generic",
                                   ("closed_form", "generic"))
    tensors = algebra.origin_tensors(model, v)
    r00 = float(y @ tensors.r @ y)
    s0 = v.c * float(tensors.s[-1] @ y)
    if r00 == 0.0 and s0 == 0.0:
        return 0.0
    s = v.c * float(y[-1]) / alpha
    q, _, _, delta, phi_big = _generic_coefficients(spec.phi, s, spec.b, model.m_dim)
    _guard(delta, s, "Delta = 0")
    return phi_big / (2.0 * alpha * (delta * delta)) * (-r00 + alpha * q * (2.0 * s0))


def ref_factor_derivs(forms, s, name):
    if forms is None:
        raise SingularityError(_NO_Q.format(s, name))
    num, num1, num2 = _horner(forms.PN, s), _horner(forms.PN1, s), _horner(forms.PN2, s)
    den, den1, den2 = _horner(forms.DN, s), _horner(forms.DN1, s), _horner(forms.DN2, s)
    _guard(den, s, "Delta = 0")
    w = num / (2.0 * (den * den))
    dw = (num1 * den - 2.0 * num * den1) / (2.0 * (den * den * den))
    d2w = (num2 * (den * den) - 4.0 * num1 * den * den1
           - 2.0 * num * den * den2 + 6.0 * num * (den1 * den1)) / (2.0 * (den * den * den * den))
    return w, dw, d2w


def ref_e_closed(forms, name, c, pt, y, alpha):
    n = len(y)
    y = y / alpha
    s = c * float(y[-1])
    f0, f1, f2 = ref_factor_derivs(forms, s, name)
    d = _guard(_horner(forms.D, s), s, f"pole of Q ({name})")
    q, qp, qpp = (_horner(forms.N, s) / d, _horner(forms.A, s) / (d * d),
                  _horner(forms.B, s) / (d * d * d))
    h1 = f1 * q + f0 * qp
    h2 = f2 * q + 2.0 * f1 * qp + f0 * qpp
    yp = y @ pt
    g = float(yp @ y)
    big_g = c * float(yp[-1])
    k = f1 * g + h1 * big_g
    a = -s * y
    a[-1] += c
    vv = np.array((a, y, pt @ y + yp, c * pt[:, -1]))
    m_ay = -k - f1 * g
    m = np.array(((f2 * g + h2 * big_g, m_ay, f1, h1),
                  (m_ay, k * s + 3.0 * f0 * g, -f0, 0.0),
                  (f1, -f0, 0.0, 0.0),
                  (h1, 0.0, 0.0, 0.0)))
    h = vv.T @ m @ vv + f0 * (pt + pt.T)
    h.flat[::n + 1] -= k * s + f0 * g
    return (h + h.T) / (4.0 * alpha)


def ref_e_fd(model, v, spec, y):
    """The Richardson-refined stencil Hessian, from one reference generic S per point."""
    n, h = model.m_dim, 1e-4
    points = curvature._stencil(n)
    block = y + np.concatenate([(h / 2.0) * points, h * points])
    vals = [ref_s_curvature(model, v, spec, row, path="generic") for row in block]
    m = len(points)
    refined = (4.0 * curvature._stencil_hessian(vals[:m], n, h / 2.0)
               - curvature._stencil_hessian(vals[m:], n, h)) / 3.0
    return 0.5 * refined


def ref_mean_berwald(model, v, spec, y, path="closed_form", mode="formal"):
    y, alpha, forms = ref_check_inputs(model, v, spec, y, mode, path,
                                       ("closed_form", "finite_difference"))
    pt = v.c * model._brackets[-1]
    if not pt.any():
        return np.zeros((model.m_dim, model.m_dim))
    if path == "closed_form":
        return ref_e_closed(forms, spec.phi.name, v.c, pt, y, alpha)
    return ref_e_fd(model, v, spec, y / alpha) / alpha


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _families():
    return {
        **{name: phi_family(name) for name in
           ("randers", "kropina", "matsumoto", "infinite_series", "exponential")},
        "polynomial": PhiFamily.polynomial([1.0, 0.5, 0.25, -0.125]),
        # Kropina as callables: a pole (ZeroDivisionError) at s = 0
        "custom": PhiFamily.custom(lambda s: 1.0 / s, lambda s: -1.0 / (s * s),
                                   lambda s: 2.0 / (s * s * s), lambda s: -6.0 / (s * s * s * s)),
    }


def _directions(n, count, rng):
    """Log-uniform lengths (e^+-3) on Gaussian directions, then e_n, an s = 0 row,
    the rows that the input check refuses or that take its slow path, and rows
    of +-1 and +-0."""
    g = rng.standard_normal((count, n))
    Y = g / np.linalg.norm(g, axis=1, keepdims=True) * np.exp(rng.uniform(-3.0, 3.0, (count, 1)))
    special = [np.eye(n)[-1], np.eye(n)[0], np.zeros(n)]
    for value in (math.nan, math.inf, -math.inf, 1e200, 1e153, 5e-324, 1e-160):
        row = np.ones(n)
        row[0] = value
        special.append(row)
    special.append(np.full(n, 1e-155))          # |y|^2 subnormal for every n here
    # signed zeros, where S can be an exact +-0
    special += list(rng.choice([-1.0, -0.0, 0.0, 1.0], (24, n)))
    return list(Y) + special


def outcome(fn, *args, **kwargs):
    """The bits of the value (repr tells -0.0 from 0.0), or the exception's type and text."""
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:    # every raise is compared
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    return type(value), repr(value)


_S_ROUTES = (
    ("closed", lambda *a, **k: s_curvature(*a, path="closed_form", **k),
     lambda *a, **k: ref_s_curvature(*a, path="closed_form", **k)),
    ("generic", lambda *a, **k: s_curvature(*a, path="generic", **k),
     lambda *a, **k: ref_s_curvature(*a, path="generic", **k)),
    ("tensors", s_curvature_via_tensors, ref_s_via_tensors),
)


# ---------------------------------------------------------------------------
# the same bits
# ---------------------------------------------------------------------------

class TestSameBitsAsPerCallAssembly:
    @pytest.mark.parametrize("mode", ["formal", "validated"])
    @pytest.mark.parametrize("case", space_cases())
    def test_s_routes(self, case, mode):
        sp = space_of(case)
        n = sp.model.m_dim
        rng = np.random.default_rng([n, int(sp.v.c * 1e6)])
        Y = _directions(n, 40, rng)
        for name, phi in _families().items():
            spec = MetricSpec.for_vector(phi, sp.v)
            for route, new, ref in _S_ROUTES:
                for y in Y:
                    got = outcome(new, sp.model, sp.v, spec, y, mode=mode)
                    want = outcome(ref, sp.model, sp.v, spec, y, mode=mode)
                    assert got == want, (route, name, y)

    @pytest.mark.parametrize("mode", ["formal", "validated"])
    @pytest.mark.parametrize("case", space_cases())
    def test_closed_e(self, case, mode):
        sp = space_of(case)
        n = sp.model.m_dim
        rng = np.random.default_rng([n, 7])
        Y = _directions(n, 12, rng)
        for name, phi in _families().items():
            spec = MetricSpec.for_vector(phi, sp.v)
            for y in Y:
                got = outcome(mean_berwald, sp.model, sp.v, spec, y, mode=mode)
                want = outcome(ref_mean_berwald, sp.model, sp.v, spec, y, mode=mode)
                assert got == want, (name, y)

    @pytest.mark.parametrize("mode", ["formal", "validated"])
    @pytest.mark.parametrize("case", [c for c in space_cases() if "16" not in c.id])
    def test_finite_difference_e(self, case, mode):
        sp = space_of(case)
        n = sp.model.m_dim
        rng = np.random.default_rng([n, 11])
        Y = _directions(n, 2, rng)
        for name, phi in _families().items():
            spec = MetricSpec.for_vector(phi, sp.v)
            for y in Y:
                got = outcome(mean_berwald, sp.model, sp.v, spec, y,
                              path="finite_difference", mode=mode)
                want = outcome(ref_mean_berwald, sp.model, sp.v, spec, y,
                               path="finite_difference", mode=mode)
                assert got == want, (name, y)

    def test_strided_and_listed_y(self):
        e = catalog_get("heisenberg3")
        spec = MetricSpec.for_vector(phi_family("exponential"), e.v)
        block = np.asfortranarray(np.random.default_rng(3).standard_normal((5, 3)))
        for y in [block[1], block[:, 0][:3], [1.0, 0.7, 0.4], (2, 1, 0.5)]:
            for _, new, ref in _S_ROUTES:
                assert outcome(new, e.model, e.v, spec, y) == outcome(ref, e.model, e.v, spec, y)

    def test_checks_before_y(self):
        # a bad path, a missing closed form, a mismatched b and a bad mode
        # are reported before y, in that order
        e = catalog_get("heisenberg3")
        good = MetricSpec.for_vector(phi_family("exponential"), e.v)
        custom = MetricSpec.for_vector(_families()["custom"], e.v)
        wrong_b = MetricSpec(phi_family("exponential"), 0.25)
        for spec, path, mode in [(good, "nope", "formal"), (custom, "closed_form", "formal"),
                                 (wrong_b, "generic", "formal"), (good, "generic", "strict")]:
            for y in ([1.0, 2.0], [math.nan] * 3):
                assert (outcome(s_curvature, e.model, e.v, spec, y, path=path, mode=mode)
                        == outcome(ref_s_curvature, e.model, e.v, spec, y, path=path, mode=mode))


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------

def _fresh_heisenberg():
    st = StructureConstants.from_entries(3, {(0, 1, 2): 1.0})
    return build_model(st, 0, np.eye(3), [0.5, 0.0, 0.0])


class TestRecord:
    def test_bracket_routes_leave_the_origin_tensors_unbuilt(self):
        model, v = _fresh_heisenberg()
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        y = np.array([1.0, 0.7, 0.4])
        s_curvature(model, v, spec, y)
        s_curvature(model, v, spec, y, path="generic", mode="validated")
        mean_berwald(model, v, spec, y)
        mean_berwald(model, v, spec, y, path="finite_difference")
        rec = model._records[v]
        assert rec.tensors is None
        s_curvature_via_tensors(model, v, spec, y)
        assert rec.tensors is not None

    def test_one_record_per_model_and_vector(self):
        model, v = _fresh_heisenberg()
        assert "_records" not in vars(model)
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        y = np.array([1.0, 0.7, 0.4])
        s_curvature(model, v, spec, y)
        rec = model._records[v]
        s_curvature(model, v, spec, y, path="generic")
        mean_berwald(model, v, spec, y)
        assert list(model._records.values()) == [rec]
        # an equal vector is another key: vectors compare by identity
        twin = algebra.InvariantVector.from_coords(model, v.coords)
        s_curvature(model, twin, spec, y)
        assert len(model._records) == 2 and model._records[v] is rec

    def test_replaced_model_starts_without_a_record(self):
        model, v = _fresh_heisenberg()
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        y = np.array([1.0, 0.7, 0.4])
        value = s_curvature(model, v, spec, y)
        copy = dataclasses.replace(model)
        assert "_records" not in vars(copy) and "_brackets" not in vars(copy)
        assert s_curvature(copy, v, spec, y) == value
        assert model._records[v] is not copy._records[v]

    def test_validated_gate_validates_once_per_model_and_vector(self, monkeypatch):
        # the gate takes its model verdict from the helper that validate_model
        # also uses, once per record
        calls = []
        real = curvature._check_residuals

        def counting(model, v=None):
            calls.append((model, v))
            return real(model, v)

        monkeypatch.setattr(curvature, "_check_residuals", counting)
        model, v = _fresh_heisenberg()
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        y = np.array([1.0, 0.7, 0.4])
        for _ in range(5):
            s_curvature(model, v, spec, y, path="generic", mode="validated")
            s_curvature_via_tensors(model, v, spec, y, mode="validated")
            mean_berwald(model, v, spec, y, mode="validated")
        assert calls == [(model, v)]
        # the public check is not cached
        assert validate_model(model, v) is not validate_model(model, v)

    def test_failed_verdict_repeats_its_message(self):
        broken = StructureConstants.from_entries(
            3, {(0, 1, 2): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0}, strict=False)
        model, v = build_model(broken, 0, np.eye(3), [0.5, 0.0, 0.0])
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        y = np.array([1.0, 0.7, 0.4])
        want = outcome(ref_s_curvature, model, v, spec, y, path="generic", mode="validated")
        assert want[0] is ValidatedModeError
        for _ in range(3):
            assert outcome(s_curvature, model, v, spec, y, path="generic",
                           mode="validated") == want


class TestOneEvaluationPerS:
    @pytest.mark.parametrize("name", ["infinite_series", "exponential", "matsumoto"])
    def test_evaluators_match_horner(self, name):
        forms = _rational_forms(phi_family(name).exact, 0.45, 6)
        s = np.random.default_rng(5).uniform(-3.0, 3.0, 50)
        want = [_horner(c, s) for c in forms]
        got = forms.values_at(s)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        for t in s.tolist():
            assert forms.values_at(t) == tuple(_horner(c, t) for c in forms)
            assert forms.s_values_at(t) == tuple(
                _horner(c, t) for c in (forms.N, forms.D, forms.DN, forms.PN))

    def test_a_new_space_compiles_nothing(self):
        phi = phi_family("matsumoto")
        first = _rational_forms(phi.exact, 0.3, 3)
        first.values_at(0.1)
        first.s_values_at(0.1)
        before = curvature._horner_code.cache_info().misses
        for b, n in [(0.31, 4), (0.52, 9), (0.77, 12)]:
            forms = _rational_forms(phi.exact, b, n)
            forms.values_at(0.1)
            forms.s_values_at(0.1)
        assert curvature._horner_code.cache_info().misses == before


# ---------------------------------------------------------------------------
# the validated gate
# ---------------------------------------------------------------------------

# one model per check of validate_model, failing that check alone
_BROKEN = {
    "antisymmetry": lambda: make_model(3, {(0, 1, 2): 1.0, (1, 0, 2): 0.5},
                                       v=[0.5, 0.0, 0.0], strict=False),
    "jacobi": lambda: similitude(2, 0.7, twin=True),
    # [h, m] reaches h
    "reductivity": lambda: make_model(3, {(0, 1, 0): 1.0, (1, 2, 2): 1.0}, h_dim=1, v=[0.0, 0.5]),
    # ad(h) is not skew on m
    "inner_product_invariance": lambda: make_model(3, {(0, 1, 2): 1.0, (1, 2, 2): 1.0},
                                                   h_dim=1, v=[0.0, 0.5]),
    # h rotates the (e1, e2) plane of a Heisenberg m, and v = e1 / 2 with it
    "v_invariance": lambda: make_model(4, {(0, 1, 2): 1.0, (0, 2, 1): -1.0, (1, 2, 3): 1.0},
                                       h_dim=1, v=[0.5, 0.0, 0.0]),
}


def _gate_cases():
    cases = space_cases()
    cases += [pytest.param(make, id=f"broken_{name}") for name, make in _BROKEN.items()]
    return cases


def _gate_calls(e_path):
    """The public checks and the validated routes, as (name, call, reference) on
    (model, v, spec, y)."""
    def e(new):
        return lambda *a: new(*a, path=e_path, mode="validated")
    return (
        ("validate_model", lambda m, v, spec, y: validate_model(m, v),
         lambda m, v, spec, y: validate_model(m, v)),
        ("shen_check", lambda m, v, spec, y: shen_check(spec),
         lambda m, v, spec, y: shen_check(spec)),
        ("generic S", lambda *a: s_curvature(*a, path="generic", mode="validated"),
         lambda *a: ref_s_curvature(*a, path="generic", mode="validated")),
        ("tensor S", lambda *a: s_curvature_via_tensors(*a, mode="validated"),
         lambda *a: ref_s_via_tensors(*a, mode="validated")),
        (f"{e_path} E", e(mean_berwald), e(ref_mean_berwald)),
    )


class TestValidatedGate:
    @pytest.mark.parametrize("case", _gate_cases())
    def test_every_call_order_matches_the_reference(self, case):
        # every order of the public checks and the validated routes, each on a
        # fresh model and spec; the families and the E route take turns
        sp = space_of(case)
        n = sp.model.m_dim
        y = np.random.default_rng([n, 13]).standard_normal(n)
        families = list(_families().values())
        want = {}
        for k, order in enumerate(itertools.permutations(range(5))):
            phi = families[k % len(families)]
            e_path = "finite_difference" if k % 2 else "closed_form"
            calls = _gate_calls(e_path)
            base = MetricSpec.for_vector(phi, sp.v)
            if (phi, e_path) not in want:
                ref_model, ref_spec = dataclasses.replace(sp.model), dataclasses.replace(base)
                want[phi, e_path] = [outcome(ref, ref_model, sp.v, ref_spec, y)
                                     for _, _, ref in calls]
            model, spec = dataclasses.replace(sp.model), dataclasses.replace(base)
            for i in order:
                name, new, _ = calls[i]
                assert outcome(new, model, sp.v, spec, y) == want[phi, e_path][i], (order, name)

    @pytest.mark.parametrize("name", sorted(_BROKEN))
    def test_each_broken_model_is_refused_for_its_check(self, name):
        model, v = _BROKEN[name]()
        (bad,) = validate_model(model, v).failed_checks()
        assert bad.name == name
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        y = np.resize([1.0, 0.7, 0.4], model.m_dim)
        with pytest.raises(ValidatedModeError, match=f"model check '{name}' failed"):
            s_curvature(model, v, spec, y, path="generic", mode="validated")

    @pytest.mark.parametrize("name", sorted(_families()))
    def test_public_checks_first_run_each_check_once(self, name, monkeypatch):
        grids, jacobi = [], []
        real_grid, real_jacobi = metrics._shen_report, StructureConstants.jacobi_residual
        monkeypatch.setattr(metrics, "_shen_report",
                            lambda *a: grids.append(a) or real_grid(*a))
        monkeypatch.setattr(StructureConstants, "jacobi_residual",
                            lambda self: jacobi.append(self) or real_jacobi(self))
        model, v = _fresh_heisenberg()
        spec = MetricSpec.for_vector(_families()[name], v)
        y = np.array([1.0, 0.7, 0.4])
        validate_model(model, v)
        report = shen_check(spec)
        first = len(grids)
        assert first and len(jacobi) == 1
        e_path = "closed_form" if spec.phi.exact else "finite_difference"
        for _ in range(3):
            outcome(s_curvature, model, v, spec, y, path="generic", mode="validated")
            outcome(s_curvature_via_tensors, model, v, spec, y, mode="validated")
            outcome(mean_berwald, model, v, spec, y, path=e_path, mode="validated")
        assert len(grids) == first and len(jacobi) == 1
        assert spec._shen is report

    def test_public_shen_check_seeds_only_at_its_default_grid(self):
        _, v = _fresh_heisenberg()
        spec = MetricSpec.for_vector(phi_family("exponential"), v)
        shen_check(spec, samples=3)
        shen_check(spec, samples=401)
        assert "_shen" not in vars(spec)
        report = shen_check(spec)
        assert vars(spec)["_shen"] is report
        # later calls compute a fresh report and leave the verdict as it is
        again = shen_check(spec)
        assert again is not report and again == report and spec._shen is report
        assert "_shen" not in vars(dataclasses.replace(spec))
