"""Command-line front end.

Subcommands::

    homfinsler catalog
    homfinsler validate --space catalog:heisenberg3 --metric exponential
    homfinsler s-curv   --space ... --metric ... --y "1,1,1"
    homfinsler berwald  --space ... --metric ... --y "1,0.3"
    homfinsler volume   --space ... --metric ... --form bh
    homfinsler scan     --space ... --metric ... --grid 100 --seed 0

A space is either ``catalog:<name>`` or a path to a JSON file (schema in the
README; 0-based indices).  Exit codes: 0 success, 1 domain or singularity
error, 2 configuration error, 3 validation failure in validated mode.
Numbers are printed with 17 significant digits in every format so that CSV
and JSONL reparse to the exact same floats as the table output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import catalog
from .algebra import InvariantVector, ReductiveModel, StructureConstants, build_model, validate_model
from .curvature import (
    _EXPANDED,
    _s_rows,
    mean_berwald,
    s_curvature,
    s_curvature_via_tensors,
    unit_directions,
)
from .errors import ConfigError, DomainError, QuadratureError, ValidatedModeError
from .metrics import MetricSpec, PhiFamily, phi_family, shen_check
from .volume import volume_coefficient

_MODES = ("formal", "validated")


# ---------------------------------------------------------------------------
# space configuration files
# ---------------------------------------------------------------------------

def _integer(x) -> int:
    """int(x), refusing a float with a fractional part rather than truncating it."""
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _lookup(get, name):
    """get(name) for a catalog or family lookup, its KeyError a ConfigError."""
    try:
        return get(name)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from None


def _read_space(path: str) -> tuple[ReductiveModel, InvariantVector, PhiFamily | None, str]:
    """(model, v, phi or None, mode) from a JSON space file (schema in the README).

    The file is checked in one order: readable JSON, an object with the
    required keys, numbers of the right kind, ``metric`` an object, then the
    dimensions, the model and last the metric, so a bad metric in the file
    is refused also where ``--metric`` replaces it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read space config {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, too deep
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("space config must be a JSON object")
    for key in ("dim_g", "h_dim", "inner_product", "v"):
        if key not in data:
            raise ConfigError(f"space config missing key {key!r}")
    try:
        dim_g = _integer(data["dim_g"])
        h_dim = _integer(data["h_dim"])
        structure = [(_integer(i), _integer(j), _integer(k), float(val))
                     for i, j, k, val in data.get("structure", [])]
        inner_product = [float(x) for x in data["inner_product"]]
        coords = [float(x) for x in data["v"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed space config: {exc}") from None
    metric = data.get("metric")
    if metric is not None and not isinstance(metric, dict):
        raise ConfigError(f"space config 'metric' must be an object, got {metric!r}")
    mode = str(data.get("mode", "formal"))
    m_dim = dim_g - h_dim
    if m_dim <= 0:
        raise ConfigError(f"dim_g - h_dim must be positive, got {m_dim}")
    if len(inner_product) != m_dim * m_dim:
        raise ConfigError(f"inner_product must have {m_dim * m_dim} row-major entries, "
                          f"got {len(inner_product)}")
    if len(coords) != m_dim:
        raise ConfigError(f"v must have {m_dim} components, got {len(coords)}")
    try:
        model, v = build_model(StructureConstants.from_entries(dim_g, structure), h_dim,
                               np.array(inner_product).reshape(m_dim, m_dim), np.array(coords))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if metric is None:
        return model, v, None, mode
    if metric.get("family") != "custom":
        return model, v, _lookup(phi_family, metric.get("family")), mode
    if not metric.get("phi_coefficients"):
        raise ConfigError("custom metric needs 'phi_coefficients'")
    try:
        return model, v, PhiFamily.polynomial(metric["phi_coefficients"]), mode
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homfinsler",
        description="curvature of reductive homogeneous Finsler spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--space", required=True,
                       help="catalog:<name> or path to a JSON space file")
        p.add_argument("--metric", default=None,
                       help="metric family (overrides the config file)")
        p.add_argument("--mode", choices=_MODES, default=None,
                       help="formal or validated (default: FINSLER_MODE, then config)")
        p.add_argument("--format", choices=("table", "csv", "jsonl"), default=None,
                       help="output format (default: table; scan defaults to csv)")

    sub.add_parser("catalog", help="list the built-in example spaces") \
        .add_argument("--format", choices=("table", "csv", "jsonl"), default=None)

    p = sub.add_parser("validate", help="run model checks and the positivity criterion")
    add_common(p)

    p = sub.add_parser("s-curv", help="S-curvature at one tangent vector")
    add_common(p)
    p.add_argument("--y", required=True, help="comma-separated components")

    p = sub.add_parser("berwald", help="mean Berwald curvature at one tangent vector")
    add_common(p)
    p.add_argument("--y", required=True, help="comma-separated components")

    p = sub.add_parser("volume", help="volume rescaling factor f(b)")
    add_common(p)
    p.add_argument("--form", choices=("bh", "ht"), required=True)

    p = sub.add_parser("scan", help="S over random unit directions")
    add_common(p)
    p.add_argument("--grid", type=int, default=100, help="number of directions")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")

    return parser


def _load_space(args):
    """Returns (model, v, spec, mode)."""
    if args.space.startswith("catalog:"):
        entry = _lookup(catalog.get, args.space[len("catalog:"):])
        model, v, phi, config_mode = entry.model, entry.v, None, "formal"
    else:
        model, v, phi, config_mode = _read_space(args.space)
    mode = args.mode                    # the flag, else FINSLER_MODE, else the config's
    if mode is None:
        source, mode = "FINSLER_MODE", os.environ.get("FINSLER_MODE")
        if mode is None:
            source, mode = "config mode", config_mode
        if mode not in _MODES:
            raise ConfigError(f"{source} must be one of {_MODES}, got {mode!r}")
    if args.metric is not None:
        phi = _lookup(phi_family, args.metric)
    if phi is None:
        raise ConfigError("no metric family given (use --metric or the config file)")
    try:
        spec = MetricSpec.for_vector(phi, v)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return model, v, spec, mode


def _parse_y(text: str, n: int) -> np.ndarray:
    try:
        vals = [float(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse --y {text!r} as comma-separated floats") from None
    if len(vals) != n:
        raise ConfigError(f"--y needs {n} components for this space, got {len(vals)}")
    return np.array(vals)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(records, fmt: str, out) -> None:
    if not records:
        return
    keys = list(records[0].keys())
    if fmt == "csv":
        writer = csv.writer(out, delimiter=",", lineterminator="\n")
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_fmt(rec[k]) for k in keys])
    elif fmt == "jsonl":
        for rec in records:
            clean = {k: (None if isinstance(v, float) and not math.isfinite(v) else v)
                     for k, v in rec.items()}
            out.write(json.dumps(clean) + "\n")
    else:
        cells = [[_fmt(rec[k]) for k in keys] for rec in records]
        widths = [max(len(keys[c]), max(len(row[c]) for row in cells))
                  for c in range(len(keys))]
        out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
        for row in cells:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_catalog(args, out):
    records = []
    for name in catalog.names():
        entry = catalog.get(name)
        records.append({
            "name": name,
            "dim_g": entry.model.structure.dim_g,
            "h_dim": entry.model.h_dim,
            "m_dim": entry.model.m_dim,
            "b": entry.v.b,
            "notes": entry.notes,
        })
    _emit(records, args.format or "table", out)
    return 0


def _cmd_validate(args, out):
    model, v, spec, mode = _load_space(args)
    report = validate_model(model, v)
    shen = shen_check(spec)
    records = [{
        "check": c.name,
        "passed": c.passed,
        "value": c.residual,
        "threshold": c.tolerance,
    } for c in report.checks]
    records.append({
        "check": "shen_positivity",
        "passed": shen.holds,
        "value": shen.min_value,
        "threshold": 0.0,
    })
    _emit(records, args.format or "table", out)
    if mode == "validated" and (not report.passed or not shen.holds):
        bad = [r["check"] for r in records if not r["passed"]]
        print(f"error: validated mode: failing checks: {', '.join(bad)}", file=sys.stderr)
        return 3
    return 0


def _cmd_s_curv(args, out):
    model, v, spec, mode = _load_space(args)
    y = _parse_y(args.y, model.m_dim)
    records = []
    if spec.phi.name in _EXPANDED:      # the paper's two closed-form profiles
        records.append({"path": "closed_form",
                        "S": s_curvature(model, v, spec, y, path="closed_form", mode=mode)})
    records.append({"path": "generic",
                    "S": s_curvature(model, v, spec, y, path="generic", mode=mode)})
    records.append({"path": "via_tensors",
                    "S": s_curvature_via_tensors(model, v, spec, y, mode=mode)})
    _emit(records, args.format or "table", out)
    return 0


def _cmd_berwald(args, out):
    model, v, spec, mode = _load_space(args)
    y = _parse_y(args.y, model.m_dim)
    n = model.m_dim
    e_fd = mean_berwald(model, v, spec, y, path="finite_difference", mode=mode)
    has_closed = spec.phi.name in _EXPANDED
    e_closed = (mean_berwald(model, v, spec, y, path="closed_form", mode=mode)
                if has_closed else None)
    records = []
    for i in range(n):
        for j in range(n):
            rec = {"i": i, "j": j}
            if has_closed:
                rec["E_closed"] = float(e_closed[i, j])
            rec["E_fd"] = float(e_fd[i, j])
            if has_closed:
                rec["abs_diff"] = abs(float(e_closed[i, j]) - float(e_fd[i, j]))
            records.append(rec)
    fmt = args.format or "table"
    _emit(records, fmt, out)
    if fmt == "table" and has_closed:
        out.write(f"max |E_closed - E_fd| = "
                  f"{_fmt(float(np.max(np.abs(e_closed - e_fd))))}\n")
    return 0


def _cmd_volume(args, out):
    model, v, spec, mode = _load_space(args)
    f_val = volume_coefficient(spec.phi, spec.b, model.m_dim, args.form, mode=mode)
    _emit([{"form": args.form, "b": spec.b, "n": model.m_dim, "f": f_val}],
          args.format or "table", out)
    return 0


def _cmd_scan(args, out):
    model, v, spec, mode = _load_space(args)
    if spec.phi.name not in _EXPANDED:
        raise ConfigError(
            f"scan compares the generic route with the closed forms the paper gives, "
            f"for {' and '.join(sorted(_EXPANDED))}; got family {spec.phi.name!r}")
    if args.grid < 1:
        raise ConfigError("--grid must be at least 1")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    n = model.m_dim
    dirs = unit_directions(n, args.grid, np.random.default_rng(args.seed))
    closed = _s_rows(model, v, spec, dirs, "closed_form", mode)
    generic = _s_rows(model, v, spec, dirs, "generic", mode)
    # a row fails when either route flags it (the scalar call would raise)
    failed = (closed.flag > 0) | (generic.flag > 0)
    s_closed = np.where(failed, math.nan, closed.S)
    s_generic = np.where(failed, math.nan, generic.S)
    keys = ["index", *(f"y{comp}" for comp in range(n)), "s", "S_closed", "S_generic",
            "abs_diff"]
    rows = zip(range(len(dirs)), *dirs.T.tolist(), (v.c * dirs[:, -1]).tolist(),
               s_closed.tolist(), s_generic.tolist(), np.abs(s_closed - s_generic).tolist())
    fmt = args.format or "csv"
    if fmt == "csv":
        # every cell is numeric, so no cell needs csv quoting, and "%.17g"
        # prints each float exactly as _fmt does
        template = "%d," + ",".join(["%.17g"] * (len(keys) - 1))
        out.write(",".join(keys) + "\n" + "\n".join(template % row for row in rows) + "\n")
    else:
        _emit([dict(zip(keys, row)) for row in rows], fmt, out)
    return 0


_COMMANDS = {
    "catalog": _cmd_catalog,
    "validate": _cmd_validate,
    "s-curv": _cmd_s_curv,
    "berwald": _cmd_berwald,
    "volume": _cmd_volume,
    "scan": _cmd_scan,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        return command(args, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidatedModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
