"""Sections of work, and the three workloads built from them.

A section makes a fixed number of program calls per round, times each call,
and checks every output against ``oracle``.  Its inputs for round r come
from a generator seeded by (seed, r, section), so a seed fixes every input
while the number of calls per round never depends on it.  Each workload
runs its own section at full size and the other two as a small panel, so
that every run reports every end-to-end metric while one group of layers
does nearly all of the work:

    direction_batch  Directions(full) + Survey(panel) + Cli(panel)
    space_survey     Survey(full)     + Directions(panel) + Cli(panel)
    cli_session      Cli(full)        + Directions(panel) + Survey(panel)

Program functions are looked up on their modules at call time, so the
tracer's wrappers apply when it is installed.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from homfinsler import algebra, catalog, curvature, metrics, volume
from homfinsler.errors import ValidatedModeError

import oracle
import spaces

FAMILIES = oracle.FAMILIES
CLOSED = oracle.CLOSED_FAMILIES
SHEN_FAMILIES = ("randers", "exponential")

# the catalog entries used here, restated: (dim, structure entries, v)
CATALOG = {
    "heisenberg3": (3, {(0, 1, 2): 1.0}, [0.5, 0.0, 0.0]),
    "solvable2": (2, {(0, 1, 1): 1.0}, [0.0, 0.5]),
}
CATALOG_NAMES = {  # name: (dim_g, h_dim, m_dim)
    "abelian3": (3, 0, 3), "heisenberg3": (3, 0, 3), "heisenberg_central_v": (3, 0, 3),
    "solvable2": (2, 0, 2), "su2_like": (3, 0, 3),
}

# survey slots: (kind, size, |v|, family).  Sizes and |v| never depend on
# the seed; the last three randers slots hit the known bh quadrature fault.
SURVEY_SLOTS = [
    ("similitude", 2, 0.3, "exponential"),
    ("similitude", 3, 0.45, "matsumoto"),
    ("similitude", 4, 0.6, "randers"),
    ("similitude", 5, 0.9, "kropina"),
    ("similitude", 6, 0.45, "infinite_series"),
    ("solvable", 4, 0.3, "randers"),
    ("solvable", 6, 0.6, "exponential"),
    ("solvable", 8, 0.9, "randers"),
    ("solvable", 10, 0.45, "matsumoto"),
    ("nilpotent", (3, 3), 0.6, "infinite_series"),
    ("nilpotent", (4, 2), 0.3, "kropina"),
    ("nilpotent", (4, 4), 0.9, "exponential"),
    ("nilpotent", (5, 3), 0.45, "exponential"),
    ("solvable", 12, 0.9, "randers"),
    ("solvable", 14, 0.9, "randers"),
    ("solvable", 16, 0.9, "randers"),
]
PANEL_SLOTS = [
    ("nilpotent", (3, 2), 0.45, "exponential"),
    ("solvable", 4, 0.3, "randers"),
    ("similitude", 2, 0.6, "infinite_series"),
    ("solvable", 6, 0.9, "exponential"),
    ("nilpotent", (4, 2), 0.3, "matsumoto"),
    ("similitude", 3, 0.45, "kropina"),
]


class Ledger:
    """Operation outcomes for the run, and rate samples per section and category.

    Every execution of a section closes one sample: for each category of
    call it made, calls divided by the seconds spent in them.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = Counter()
        self.ops = defaultdict(int)
        self.time = defaultdict(float)
        self.rates = defaultdict(list)
        self.section = ""
        self.slot_time = 0.0
        self.cli_ms = []
        self.scan_s = []
        self.child_rss_kb = 0
        self.section_s = defaultdict(float)

    def call(self, category, fn, *args, **kwargs):
        """Time one program call; returns (value, exception)."""
        t0 = perf_counter()
        try:
            value, exc = fn(*args, **kwargs), None
        except Exception as err:  # every raise is an outcome to be judged
            value, exc = None, err
        dt = perf_counter() - t0
        self.add(category, 1, dt)
        self.slot_time += dt
        return value, exc

    def add(self, category, count, seconds):
        key = f"{self.section}.{category}"
        self.ops[key] += count
        self.time[key] += seconds

    def judge(self, what, ok=True, exc=None, expect=None):
        """Count one operation; ``expect`` names an exception that is correct."""
        self.attempted += 1
        if expect is not None:
            if isinstance(exc, expect):
                return True
            ok = False                     # returned a value instead of refusing
        if exc is not None:
            self.failed += 1
            self.notes[f"{what}: {type(exc).__name__}: {str(exc)[:80]}"] += 1
            return False
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.notes[f"{what}: wrong output"] += 1
            return False
        return True

    def skip(self, count, what):
        for _ in range(count):
            self.judge(what, exc=RuntimeError("not run after an earlier failure"))

    def close_sample(self):
        for key, n in self.ops.items():
            if self.time[key] > 0.0:
                self.rates[key].append(n / self.time[key])
        self.ops.clear()
        self.time.clear()


def directions(rng, count, n, b):
    """Seeded Gaussian directions with random lengths, away from singular loci."""
    out = []
    while len(out) < count:
        y = rng.standard_normal((4 * count, n)) * np.exp(rng.uniform(-1.5, 1.5, (4 * count, 1)))
        s = b * y[:, -1] / np.linalg.norm(y, axis=1)
        out.extend(y[~oracle.near_singular(s, b, n)])
    return np.array(out[:count])


def s_ok(value, exc, ref, scale):
    return exc is None and oracle.close(value, ref, scale, oracle.S_RTOL)


def e_matches(E, geo, fam, b, y, exact_symmetry):
    _, scale = geo.s_values(fam, b, y)
    return oracle.e_ok(E, geo.e_matrix(fam, b, y), y, scale[0], exact_symmetry)


def at_least_unit(y):
    """y scaled up to |y| >= 1: the finite-difference E route steps by at
    least 1e-4 in absolute terms, too coarse for short y (a known fault)."""
    return y / min(1.0, float(np.linalg.norm(y)))


def _frame_ok(model, v_coords, b):
    f, g = model.frame, model.inner_product
    return (np.max(np.abs(f @ g @ f.T - np.eye(len(f)))) <= 1e-10
            and np.max(np.abs(f[-1] - np.asarray(v_coords) / b)) <= 1e-10)


class Space:
    """A built space with its oracle geometry and one MetricSpec per family."""

    def __init__(self, name, model, v, tensor):
        self.name, self.model, self.v = name, model, v
        self.n, self.b = model.m_dim, v.b
        self.geo = oracle.Geometry(tensor, model.h_dim, model.inner_product, model.frame, v.c)
        self.specs = {f: metrics.MetricSpec.for_vector(metrics.phi_family(f), v) for f in FAMILIES}


def catalog_space(name):
    dim, entries, v = CATALOG[name]
    entry = catalog.get(name)
    tensor = spaces.dense_tensor(dim, entries)
    if (not np.array_equal(entry.model.structure.tensor, tensor)
            or not np.array_equal(entry.v.coords, v) or not _frame_ok(entry.model, v, 0.5)):
        raise SystemExit(f"error: catalog entry {name} differs from its definition")
    return Space(name, entry.model, entry.v, tensor)


def generated_space(sp):
    st = algebra.StructureConstants.from_entries(sp.dim_g, sp.entries)
    model, v = algebra.build_model(st, sp.h_dim, sp.inner_product, sp.v)
    if not _frame_ok(model, sp.v, sp.b):
        raise SystemExit(f"error: frame of generated space {sp.name} is not orthonormal")
    return Space(sp.name, model, v, sp.tensor)


# ---------------------------------------------------------------------------
# Directions: curvature on a few fixed spaces
# ---------------------------------------------------------------------------

class Directions:
    """S by every route, closed and finite-difference E, isotropy fits and
    validated S, over many directions on fixed spaces."""

    # spaces; directions; of these, how many get a closed E, an FD E and a
    # validated S; isotropy samples
    SIZES = {
        "full": (("heisenberg3", "solvable2", "similitude"), 40, 8, 1, 6, 80),
        "panel": (("heisenberg3",), 30, 20, 2, 30, 80),
    }

    def __init__(self, seed, size):
        names, self.d, self.de, self.df, self.dv, self.iso = self.SIZES[size]
        self.spaces = []
        for name in names:
            if name == "similitude":
                rng = np.random.default_rng([seed, 7])
                gen = spaces.generate(rng, ("similitude", 5, 0.5, "exponential"), "similitude5")
                self.spaces.append(generated_space(gen))
            else:
                self.spaces.append(catalog_space(name))

    def inputs(self, rng):
        return [(sp, directions(rng, self.d, sp.n, sp.b), int(rng.integers(2**31)))
                for sp in self.spaces]

    def run(self, led, inputs):
        for sp, Y, iso_seed in inputs:
            for fam in FAMILIES:
                self._family(led, sp, fam, Y, iso_seed)

    def _family(self, led, sp, fam, Y, iso_seed):
        spec, geo, m, v = sp.specs[fam], sp.geo, sp.model, sp.v
        ref, scale = geo.s_values(fam, sp.b, Y)
        routes = [("generic", lambda y: curvature.s_curvature(m, v, spec, y, path="generic")),
                  ("tensors", lambda y: curvature.s_curvature_via_tensors(m, v, spec, y))]
        if fam in CLOSED:
            routes.append(("closed", lambda y: curvature.s_curvature(m, v, spec, y)))
        for route, fn in routes:
            for i, y in enumerate(Y):
                val, exc = led.call("s_formal", fn, y)
                led.judge(f"S {route} {fam}", s_ok(val, exc, ref[i], scale[i]), exc)
        mp_val = geo.s_mp(fam, sp.b, Y[0])
        led.judge(f"S mpmath {fam}", oracle.close(ref[0], mp_val, scale[0], oracle.MP_RTOL))

        paths = (["closed_form"] * self.de if fam in CLOSED else []) + ["finite_difference"] * self.df
        for i, path in enumerate(paths):
            y = Y[i] if path == "closed_form" else at_least_unit(Y[i])
            cat = "e_closed" if path == "closed_form" else "e_fd"
            val, exc = led.call(cat, curvature.mean_berwald, m, v, spec, y, path=path)
            ok = exc is None and e_matches(val, geo, fam, sp.b, y, exact_symmetry=path == "closed_form")
            led.judge(f"E {path} {fam}", ok, exc)

        if fam in SHEN_FAMILIES:
            for i in range(self.dv):
                val, exc = led.call("s_validated", curvature.s_curvature, m, v, spec, Y[i],
                                    path="generic", mode="validated")
                led.judge(f"S validated {fam}", s_ok(val, exc, ref[i], scale[i]), exc)
            rep, exc = led.call("isotropy", curvature.isotropy_test, m, v, spec, self.iso, seed=iso_seed)
            led.judge(f"isotropy {fam}", exc is None and isotropy_ok(rep, geo, fam, sp.b, self.iso, iso_seed), exc)
        elif fam == "infinite_series":
            _, exc = led.call("refusal", curvature.s_curvature, m, v, spec, Y[0], mode="validated")
            led.judge("validated refusal", exc=exc, expect=ValidatedModeError)


def isotropy_ok(rep, geo, fam, b, count, seed):
    """Refit S = (n+1) c F on the directions isotropy_test draws for this seed."""
    n = geo.n
    Y = np.random.default_rng(seed).standard_normal((count, n))
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    s_vals, scale = geo.s_values(fam, b, Y)
    f, _, _, _ = oracle.phi_derivs(fam, geo.c * Y[:, -1])
    c_fit = float(s_vals @ f) / ((n + 1) * float(f @ f))
    residual = float(np.max(np.abs(s_vals - (n + 1) * c_fit * f)))
    size = max(1.0, float(np.max(np.abs(s_vals))))
    c_tol = 1e-8 * float(scale @ np.abs(f)) / ((n + 1) * float(f @ f))
    return (rep.samples_used == count
            and abs(rep.c_h - c_fit) <= c_tol
            and abs(rep.residual - residual) <= 1e-8 * size
            and rep.isotropic == (residual <= 1e-8 * size)
            and rep.vanishing == (float(np.max(np.abs(s_vals))) <= 1e-10 * size))


# ---------------------------------------------------------------------------
# Survey: many generated spaces, each visited briefly
# ---------------------------------------------------------------------------

class Survey:
    """Build, validate (and reject a corrupted twin), positivity check, volume
    factors, a few formal S and one validated S per generated space."""

    SIZES = {"full": (SURVEY_SLOTS, 3), "panel": (PANEL_SLOTS, 1)}
    S_DIRECTIONS = 3

    def __init__(self, seed, size):
        self.slots, self.blocks = self.SIZES[size]
        self.volume_refs = {}

    def inputs(self, rng):
        out = []
        for blk in range(self.blocks):
            for i, slot in enumerate(self.slots):
                sp = spaces.generate(rng, slot, f"b{blk}s{i}")
                out.append((sp, directions(rng, self.S_DIRECTIONS, sp.m_dim, sp.b), i == 0))
        return out

    def run(self, led, inputs):
        for sp, Y, mp_check in inputs:
            led.slot_time = 0.0
            self._slot(led, sp, Y, mp_check)
            led.add("space", 1, led.slot_time)

    def _volume_family(self, fam, b):
        if fam in ("randers", "exponential") or (fam == "matsumoto" and b < 0.5):
            return fam, metrics.phi_family(fam)
        return "one", metrics.PhiFamily.polynomial([1.0])

    def _slot(self, led, sp, Y, mp_check):
        fam, b, n, tensor = sp.family, sp.b, sp.m_dim, sp.tensor
        planned = 5 + len(Y) * (2 if fam in CLOSED else 1) + mp_check + 1
        built, exc = led.call("build", lambda: algebra.build_model(
            algebra.StructureConstants.from_entries(sp.dim_g, sp.entries),
            sp.h_dim, sp.inner_product, sp.v))
        ok = exc is None and (np.array_equal(built[0].structure.tensor, tensor)
                              and _frame_ok(built[0], sp.v, b) and abs(built[1].c - b) <= 1e-12)
        if not led.judge(f"build {sp.kind}", ok, exc):
            led.skip(planned, f"slot {sp.kind}")
            return
        model, v = built
        geo = oracle.Geometry(tensor, sp.h_dim, model.inner_product, model.frame, v.c)
        spec = metrics.MetricSpec.for_vector(metrics.phi_family(fam), v)

        rep, exc = led.call("validate", algebra.validate_model, model, v)
        led.judge(f"validate {sp.kind}", exc is None and rep.passed, exc)

        def twin():
            st = algebra.StructureConstants.from_entries(sp.dim_g, sp.twin_entries)
            m2, v2 = algebra.build_model(st, sp.h_dim, sp.inner_product, sp.v)
            return algebra.validate_model(m2, v2)
        rep, exc = led.call("validate", twin)
        own = spaces.jacobi_residual(spaces.dense_tensor(sp.dim_g, sp.twin_entries))
        ok = exc is None and any(c.name == "jacobi" and not c.passed and abs(c.residual - own) <= 1e-9 * own
                                 for c in rep.checks)
        led.judge(f"twin rejected {sp.kind}", ok, exc)

        rep, exc = led.call("shen", metrics.shen_check, spec)
        led.judge(f"shen {fam}", exc is None and rep.holds == oracle.shen_holds(fam, b), exc)

        vol_name, vol_phi = self._volume_family(fam, b)
        for form in ("bh", "ht"):
            key = (vol_name, b, n, form)
            if key not in self.volume_refs:
                self.volume_refs[key] = oracle.volume_reference(vol_name, b, n, form)
            ref = self.volume_refs[key]
            val, exc = led.call("volume", volume.volume_coefficient, vol_phi, b, n, form)
            ok = exc is None and oracle.close(val, ref, abs(ref), oracle.VOLUME_RTOL)
            led.judge(f"volume {vol_name} {form} n={n} b={b}", ok, exc)

        ref, scale = geo.s_values(fam, b, Y)
        for path in (("generic", "closed_form") if fam in CLOSED else ("generic",)):
            for i, y in enumerate(Y):
                val, exc = led.call("s_formal", curvature.s_curvature, model, v, spec, y, path=path)
                led.judge(f"S {path} {fam}", s_ok(val, exc, ref[i], scale[i]), exc)
        if mp_check:
            led.judge(f"S mpmath {fam}", oracle.close(ref[0], geo.s_mp(fam, b, Y[0]), scale[0], oracle.MP_RTOL))

        if oracle.shen_holds(fam, b):
            val, exc = led.call("s_validated", curvature.s_curvature, model, v, spec, Y[0],
                                path="generic", mode="validated")
            led.judge(f"S validated {fam}", s_ok(val, exc, ref[0], scale[0]), exc)
        else:
            _, exc = led.call("refusal", curvature.s_curvature, model, v, spec, Y[0],
                              path="generic", mode="validated")
            led.judge(f"validated refusal {fam}", exc=exc, expect=ValidatedModeError)


# ---------------------------------------------------------------------------
# Cli: one-shot homfinsler commands and a large scan
# ---------------------------------------------------------------------------

CLI_BOOT = "import sys; from homfinsler.cli import entry; sys.argv[0] = 'homfinsler'; entry()"
SCAN_GRID = 10000


def child_env(root):
    """Environment of child interpreters: the sources on the path, no mode override."""
    env = {k: v for k, v in os.environ.items() if k != "FINSLER_MODE"}
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _rows(text, fmt):
    if fmt == "jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()
    keys = lines[0].split()
    return [dict(zip(keys, line.split())) for line in lines[1:] if not line.startswith("max ")]


def _ystr(y):
    return ",".join(repr(float(x)) for x in y)


class Cli:
    """Sequential one-shot commands in child interpreters (in-process main()
    when tracing) on catalog spaces and on generated space files."""

    def __init__(self, seed, size, root, work_dir, in_process):
        self.full = size == "full"
        self.root, self.in_process, self.scan_seed = root, in_process, seed
        self.env = child_env(root)
        self.out_path = os.path.join(work_dir, "cli-stdout.txt")
        self.err_path = os.path.join(work_dir, "cli-stderr.txt")
        self.heis = catalog_space("heisenberg3")
        self.sol2 = catalog_space("solvable2")
        self.first_scan = None
        if not self.full:
            return
        rng = np.random.default_rng([seed, 11])
        self.files = {}
        for slot, name in ((("similitude", 3, 0.45, "exponential"), "sim"),
                           (("solvable", 5, 0.6, "randers"), "solv"),
                           (("nilpotent", (3, 2), 0.3, "infinite_series"), "nil")):
            gen = spaces.generate(rng, slot, f"cli-{name}")
            self.files[name] = (spaces.write_space_file(gen, work_dir), generated_space(gen), gen.family)

    def inputs(self, rng):
        targets = {"heis": self.heis, "sol2": self.sol2}
        if self.full:
            targets.update((k, f[1]) for k, f in self.files.items())
        pick = {k: at_least_unit(directions(rng, 1, sp.n, sp.b)[0]) for k, sp in targets.items()}
        return pick, rng.standard_normal(2)

    def commands(self, inputs):
        """(argv, checker) pairs; every checker takes (exit code, stdout, stderr)."""
        pick, ab = inputs
        h, yh, ys2 = "catalog:heisenberg3", pick["heis"], pick["sol2"]
        cmds = [
            (["s-curv", "--space", h, "--metric", "exponential", f"--y={_ystr(yh)}", "--format", "csv"],
             s_checker(self.heis, "exponential", yh, "csv")),
            (["berwald", "--space", "catalog:solvable2", "--metric", "exponential", f"--y={_ystr(ys2)}",
              "--format", "csv"], e_checker(self.sol2, "exponential", ys2)),
            (["volume", "--space", "catalog:solvable2", "--metric", "randers", "--form", "bh"],
             volume_checker("randers", 0.5, 2, "bh", "table")),
        ]
        if not self.full:
            return cmds
        files = self.files
        sim_path, sim, _ = files["sim"]
        solv_path, solv, solv_fam = files["solv"]
        nil_path, nil, nil_fam = files["nil"]
        cmds += [
            (["catalog", "--format", "csv"], check_catalog),
            (["validate", "--space", h, "--metric", "exponential", "--format", "csv"], check_validate),
            (["validate", "--space", sim_path, "--mode", "validated", "--format", "csv"], check_validate),
            (["s-curv", "--space", solv_path, f"--y={_ystr(pick['solv'])}", "--format", "csv"],
             s_checker(solv, solv_fam, pick["solv"], "csv")),
            (["s-curv", "--space", nil_path, f"--y={_ystr(pick['nil'])}", "--format", "jsonl"],
             s_checker(nil, nil_fam, pick["nil"], "jsonl")),
            (["berwald", "--space", sim_path, f"--y={_ystr(pick['sim'])}", "--format", "csv"],
             e_checker(sim, "exponential", pick["sim"])),
            (["volume", "--space", sim_path, "--form", "ht", "--format", "csv"],
             volume_checker("exponential", sim.b, sim.n, "ht", "csv")),
            (["s-curv", "--space", h, "--metric", "infinite_series", f"--y={_ystr([ab[0], ab[1], 0.0])}"],
             refusal_checker(1)),
            (["s-curv", "--space", "catalog:no_such_space", "--metric", "exponential", "--y=1,1,1"],
             refusal_checker(2)),
            (["s-curv", "--space", h, "--metric", "kropina", "--mode", "validated", f"--y={_ystr(yh)}"],
             refusal_checker(3)),
        ]
        return cmds

    def run(self, led, inputs):
        for argv, check in self.commands(inputs):
            (code, out, err), wall = self._invoke(led, argv)
            led.cli_ms.append(wall * 1e3)
            try:
                ok = check(code, out, err)
            except (ValueError, KeyError, IndexError):  # unparseable output is a wrong output
                ok = False
            led.judge(f"cli {argv[0]}", ok)
        argv = ["scan", "--space", "catalog:heisenberg3", "--metric", "exponential",
                "--grid", str(SCAN_GRID), "--seed", str(self.scan_seed)]
        (code, out, err), wall = self._invoke(led, argv)
        led.scan_s.append(wall)
        if self.first_scan is None:
            self.first_scan = out
        try:
            ok = code == 0 and out == self.first_scan and scan_ok(self.heis, out)
        except ValueError:
            ok = False
        led.judge("cli scan", ok)

    def _invoke(self, led, argv):
        if self.in_process:
            from homfinsler import cli
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv, out=out)
                except SystemExit as exc:
                    code = exc.code
            return (code, out.getvalue(), err.getvalue()), perf_counter() - t0
        with open(self.out_path, "w+b") as fo, open(self.err_path, "w+b") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", CLI_BOOT] + argv, stdout=fo, stderr=fe,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(120.0, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            led.child_rss_kb = max(led.child_rss_kb, usage.ru_maxrss)
            fo.seek(0)
            fe.seek(0)
            return (proc.returncode, fo.read().decode(), fe.read().decode()), wall


def s_checker(sp, fam, y, fmt):
    def check(code, out, err):
        if code != 0:
            return False
        rows = _rows(out, fmt)
        ref, scale = sp.geo.s_values(fam, sp.b, y)
        want = {"generic", "via_tensors"} | ({"closed_form"} if fam in CLOSED else set())
        return ({r["path"] for r in rows} == want and len(rows) == len(want)
                and all(oracle.close(float(r["S"]), ref[0], scale[0], oracle.S_RTOL) for r in rows))
    return check


def e_checker(sp, fam, y):
    def check(code, out, err):
        if code != 0:
            return False
        rows = _rows(out, "csv")
        n = sp.n
        if len(rows) != n * n:
            return False
        e_closed, e_fd = np.empty((n, n)), np.empty((n, n))
        for r in rows:
            e_closed[int(r["i"]), int(r["j"])] = float(r["E_closed"])
            e_fd[int(r["i"]), int(r["j"])] = float(r["E_fd"])
        return (e_matches(e_closed, sp.geo, fam, sp.b, y, True)
                and e_matches(e_fd, sp.geo, fam, sp.b, y, False))
    return check


def volume_checker(fam, b, n, form, fmt):
    ref = oracle.volume_reference(fam, b, n, form)

    def check(code, out, err):
        rows = _rows(out, fmt) if code == 0 else []
        return (len(rows) == 1 and rows[0]["form"] == form and int(rows[0]["n"]) == n
                and oracle.close(float(rows[0]["f"]), ref, abs(ref), oracle.VOLUME_RTOL))
    return check


def refusal_checker(expected_code):
    def check(code, out, err):
        return code == expected_code and out == "" and err.startswith("error:") and "Traceback" not in err
    return check


def check_catalog(code, out, err):
    rows = _rows(out, "csv") if code == 0 else []
    return ({r["name"]: (int(r["dim_g"]), int(r["h_dim"]), int(r["m_dim"])) for r in rows} == CATALOG_NAMES
            and all(float(r["b"]) == 0.5 for r in rows) and len(rows) == len(CATALOG_NAMES))


def check_validate(code, out, err):
    rows = _rows(out, "csv") if code == 0 else []
    names = {"antisymmetry", "jacobi", "reductivity", "inner_product_invariance",
             "v_invariance", "shen_positivity"}
    return {r["check"] for r in rows} == names and all(r["passed"] == "true" for r in rows)


def scan_ok(sp, text):
    """Scan rows: unit directions, s = c y_n, S_closed = S_generic = oracle."""
    lines = text.splitlines()
    n = sp.n
    header = ["index"] + [f"y{i}" for i in range(n)] + ["s", "S_closed", "S_generic", "abs_diff"]
    if not lines or lines[0].split(",") != header or len(lines) != SCAN_GRID + 1:
        return False
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    Y = data[:, 1:1 + n]
    ref, scale = sp.geo.s_values("exponential", sp.b, Y)
    return bool(np.array_equal(data[:, 0], np.arange(SCAN_GRID))
                and np.all(np.abs(np.linalg.norm(Y, axis=1) - 1.0) <= 1e-12)
                and np.array_equal(data[:, 1 + n], sp.v.c * Y[:, -1])
                and oracle.close(data[:, 2 + n], ref, scale, oracle.S_RTOL)
                and oracle.close(data[:, 3 + n], ref, scale, oracle.S_RTOL))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    "direction_batch": ("directions", "survey", "cli"),
    "space_survey": ("survey", "directions", "cli"),
    "cli_session": ("cli", "directions", "survey"),
}
# executions per round of a workload's own section, and of a panel
REPEATS = {"directions": (8, 4), "survey": (6, 4), "cli": (1, 1)}


class Workload:
    """The sections of one workload; a round runs each section REPEATS
    times, each execution on fresh seeded inputs and closing one rate sample."""

    def __init__(self, name, seed, root, work_dir, in_process_cli):
        self.seed = seed
        for entry in catalog.names():     # the catalog is built lazily: build it in set-up
            catalog.get(entry)
        self.sections = []
        for i, kind in enumerate(WORKLOADS[name]):
            size = "full" if i == 0 else "panel"
            if kind == "directions":
                sec = Directions(seed, size)
            elif kind == "survey":
                sec = Survey(seed, size)
            else:
                sec = Cli(seed, size, root, work_dir, in_process_cli)
            self.sections.append((sec, REPEATS[kind][0 if i == 0 else 1]))

    def inputs(self, r, i, k):
        return self.sections[i][0].inputs(np.random.default_rng([self.seed, r, i, k]))

    def run_round(self, led, r):
        for i, (sec, repeats) in enumerate(self.sections):
            for k in range(repeats):
                inputs = self.inputs(r, i, k)
                gc.collect()
                led.section = type(sec).__name__
                t0 = perf_counter()
                sec.run(led, inputs)
                led.section_s[led.section] += perf_counter() - t0
                led.close_sample()
