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
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .algebra import InvariantVector, ReductiveModel, StructureConstants, build_model, validate_model
from .curvature import (
    _RATIONAL_Q,
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

@dataclass
class SpaceConfig:
    """Parsed space description (JSON file schema, 0-based indices)."""

    dim_g: int
    h_dim: int
    structure: list = field(default_factory=list)   # [i, j, k, value] rows
    inner_product: list = field(default_factory=list)  # row-major m_dim^2 floats
    v: list = field(default_factory=list)
    metric: dict | None = None
    mode: str = "formal"

    @classmethod
    def from_dict(cls, data: dict) -> "SpaceConfig":
        if not isinstance(data, dict):
            raise ConfigError("space config must be a JSON object")
        required = ("dim_g", "h_dim", "inner_product", "v")
        for key in required:
            if key not in data:
                raise ConfigError(f"space config missing key {key!r}")
        try:
            dim_g = int(data["dim_g"])
            h_dim = int(data["h_dim"])
            structure = [[int(i), int(j), int(k), float(val)]
                         for i, j, k, val in data.get("structure", [])]
            inner_product = [float(x) for x in data["inner_product"]]
            v = [float(x) for x in data["v"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed space config: {exc}") from None
        return cls(dim_g=dim_g, h_dim=h_dim, structure=structure,
                   inner_product=inner_product, v=v,
                   metric=data.get("metric"),
                   mode=str(data.get("mode", "formal")))

    def to_dict(self) -> dict:
        out = {
            "dim_g": self.dim_g,
            "h_dim": self.h_dim,
            "structure": [list(row) for row in self.structure],
            "inner_product": list(self.inner_product),
            "v": list(self.v),
            "mode": self.mode,
        }
        if self.metric is not None:
            out["metric"] = self.metric
        return out

    @classmethod
    def from_file(cls, path: str) -> "SpaceConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read space config {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path!r}: {exc}") from None
        return cls.from_dict(data)

    def build(self) -> tuple[ReductiveModel, InvariantVector]:
        m_dim = self.dim_g - self.h_dim
        if m_dim <= 0:
            raise ConfigError(f"dim_g - h_dim must be positive, got {m_dim}")
        if len(self.inner_product) != m_dim * m_dim:
            raise ConfigError(
                f"inner_product must have {m_dim * m_dim} row-major entries, "
                f"got {len(self.inner_product)}")
        if len(self.v) != m_dim:
            raise ConfigError(f"v must have {m_dim} components, got {len(self.v)}")
        try:
            structure = StructureConstants.from_entries(
                self.dim_g, [(i, j, k, val) for i, j, k, val in self.structure])
            g = np.array(self.inner_product, dtype=float).reshape(m_dim, m_dim)
            return build_model(structure, self.h_dim, g, np.array(self.v))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def phi(self) -> PhiFamily | None:
        if self.metric is None:
            return None
        family = self.metric.get("family")
        if family == "custom":
            coeffs = self.metric.get("phi_coefficients")
            if not coeffs:
                raise ConfigError("custom metric needs 'phi_coefficients'")
            try:
                return PhiFamily.polynomial(coeffs)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        try:
            return phi_family(family)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homfinsler",
        description="curvature of reductive homogeneous Finsler spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_metric=True):
        p.add_argument("--space", required=True,
                       help="catalog:<name> or path to a JSON space file")
        if needs_metric:
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


def _resolve_mode(flag_mode: str | None, config_mode: str) -> str:
    env = os.environ.get("FINSLER_MODE")
    if flag_mode is not None:
        return flag_mode
    if env is not None:
        if env not in _MODES:
            raise ConfigError(f"FINSLER_MODE must be one of {_MODES}, got {env!r}")
        return env
    if config_mode not in _MODES:
        raise ConfigError(f"config mode must be one of {_MODES}, got {config_mode!r}")
    return config_mode


def _load_space(args):
    """Returns (model, v, spec, mode)."""
    space = args.space
    metric_flag = getattr(args, "metric", None)
    if space.startswith("catalog:"):
        name = space[len("catalog:"):]
        try:
            entry = catalog.get(name)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
        model, v = entry.model, entry.v
        config_phi = None
        config_mode = "formal"
    else:
        config = SpaceConfig.from_file(space)
        model, v = config.build()
        config_phi = config.phi()
        config_mode = config.mode

    mode = _resolve_mode(args.mode, config_mode)

    phi = None
    if metric_flag is not None:
        try:
            phi = phi_family(metric_flag)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    elif config_phi is not None:
        phi = config_phi
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
    if spec.phi.name in _RATIONAL_Q:
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
    has_closed = spec.phi.name in _RATIONAL_Q
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
    if spec.phi.name not in _RATIONAL_Q:
        raise ConfigError(
            f"scan compares the closed and generic routes; family "
            f"{spec.phi.name!r} has no closed form")
    if args.grid < 1:
        raise ConfigError("--grid must be at least 1")
    n = model.m_dim
    dirs = unit_directions(n, args.grid, np.random.default_rng(args.seed))
    closed = _s_rows(model, v, spec, dirs, "closed_form", mode)
    generic = _s_rows(model, v, spec, dirs, "generic", mode)
    # a row fails when either route flags it (the scalar call would raise)
    failed = (closed.flag > 0) | (generic.flag > 0)
    s_closed = np.where(failed, math.nan, closed.S)
    s_generic = np.where(failed, math.nan, generic.S)
    columns = zip(dirs.tolist(), (v.c * dirs[:, -1]).tolist(), s_closed.tolist(),
                  s_generic.tolist(), np.abs(s_closed - s_generic).tolist())
    records = []
    for idx, (y, s, s_c, s_g, diff) in enumerate(columns):
        rec = {"index": idx}
        for comp in range(n):
            rec[f"y{comp}"] = y[comp]
        rec["s"] = s
        rec["S_closed"] = s_c
        rec["S_generic"] = s_g
        rec["abs_diff"] = diff
        records.append(rec)
    _emit(records, args.format or "csv", out)
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
