"""homfinsler benchmark: one workload, one seed, one run.

Run from the root of a checkout; the package is imported from src/ and is
not installed:

    python3 perfbench/run.py --workload direction_batch --seed 1 --seconds 20 --trace 0

The run sets up, then repeats whole rounds of the workload until --seconds
have passed (at least three rounds).  The next-to-last line of standard
output records the machine and the run; the last line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A full
record is written to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
PROBE_SAMPLES = 3
CHILD_TIMEOUT = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child(argv, env):
    """Run a child interpreter to completion; returns (stdout, stderr, wall seconds)."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT)
    wall = perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"error: probe {argv} failed:\n{done.stderr}")
    return done.stdout, done.stderr, wall


def probe(argv, env):
    out, _, _ = child([str(HERE / "probe.py")] + argv, env)
    return json.loads(out.strip().splitlines()[-1])


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def scipy_import_s(importtime_log):
    """Cumulative import time of the outermost scipy modules in an -X importtime log.

    The log lists a module after the modules it imports, one indent deeper;
    a module's parent is the next line with a smaller indent.
    """
    rows = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(2)), m.group(3), int(m.group(1))))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if is_scipy(name) and not is_scipy(parent):
            total += cumulative
    return total * 1e-6


def layer_probes(env):
    """Cold-start figures for the per-layer report, each a median of fresh interpreters."""
    starts = [child(["-c", "pass"], env)[2] for _ in range(2 * PROBE_SAMPLES - 1)]
    cold = [probe(["layers"], env) for _ in range(PROBE_SAMPLES)]
    scipy_s = [scipy_import_s(child(["-X", "importtime", "-c", "import homfinsler"], env)[1])
               for _ in range(PROBE_SAMPLES)]
    return {
        "python_start_ms": statistics.median(starts) * 1e3,
        "import_s": median_of(cold, "import_s"),
        "catalog_get_cold_ms": median_of(cold, "catalog_get_cold_ms"),
        "volume_first_call_ms": median_of(cold, "volume_first_call_ms"),
        "import_scipy_s": statistics.median(scipy_s),
    }


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_info():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit()}


def end_to_end(led, workload, setup_samples):
    def rate(key):
        return statistics.median(led.rates[key])

    validated = "Survey.s_validated" if workload == "space_survey" else "Directions.s_validated"

    rss_kb = (led.child_rss_kb if workload == "cli_session"
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "s_evals_per_s": (rate("Directions.s_formal"), "1/s"),
        "s_validated_per_s": (rate(validated), "1/s"),
        "e_closed_per_s": (rate("Directions.e_closed"), "1/s"),
        "e_fd_per_s": (rate("Directions.e_fd"), "1/s"),
        "isotropy_fits_per_s": (rate("Directions.isotropy"), "1/s"),
        "spaces_per_s": (rate("Survey.space"), "1/s"),
        "volume_evals_per_s": (rate("Survey.volume"), "1/s"),
        "cli_call_ms.p50": (statistics.median(led.cli_ms), "ms"),
        "cli_scan_s": (statistics.median(led.scan_s), "s"),
    }


def per_layer(tr, rounds, probes):
    import spans

    p50 = {
        "algebra.bracket_m_us.p50": ("algebra.bracket_m", 1e6, "us"),
        "algebra.origin_tensors_us.p50": ("algebra.origin_tensors", 1e6, "us"),
        "algebra.build_model_ms.p50": ("algebra.build_model", 1e3, "ms"),
        "algebra.validate_model_ms.p50": ("algebra.validate_model", 1e3, "ms"),
        "metrics.shen_check_us.p50": ("metrics.shen_check", 1e6, "us"),
        "curvature.s_closed_us.p50": ("curvature.s_closed", 1e6, "us"),
        "curvature.s_generic_us.p50": ("curvature.s_generic", 1e6, "us"),
        "curvature.s_tensors_us.p50": ("curvature.s_tensors", 1e6, "us"),
        "curvature.coefficients_generic_us.p50": ("curvature.coefficients_generic", 1e6, "us"),
        "curvature.s_validated_us.p50": ("curvature.s_validated", 1e6, "us"),
        "curvature.e_closed_us.p50": ("curvature.e_closed", 1e6, "us"),
        "curvature.e_fd_ms.p50": ("curvature.e_fd", 1e3, "ms"),
        "curvature.isotropy_test_ms.p50": ("curvature.isotropy_test", 1e3, "ms"),
        "volume.volume_coefficient_ms.p50": ("volume.volume_coefficient", 1e3, "ms"),
        "cli.main_ms.p50": ("cli.main", 1e3, "ms"),
        "cli.scan_main_s": ("cli.scan_main", 1.0, "s"),
    }
    out = {name: (tr.p50(span, scale), unit) for name, (span, scale, unit) in p50.items()}
    e_fd_calls = len(tr.durations.get("curvature.e_fd", ()))
    out.update({
        "metrics.phi_evals": (tr.counts["phi_evals"] / rounds, "count"),
        "curvature.s_calls_per_e_fd": (tr.counts["s_in_e_fd"] / max(e_fd_calls, 1), "count"),
        "volume.integrand_evals": (tr.counts["integrand_evals"] / rounds, "count"),
        "volume.first_call_ms": (probes["volume_first_call_ms"], "ms"),
        "catalog.get_cold_ms": (probes["catalog_get_cold_ms"], "ms"),
        "cli.import_s": (probes["import_s"], "s"),
        "cli.import_scipy_s": (probes["import_scipy_s"], "s"),
        "cli.python_start_ms": (probes["python_start_ms"], "ms"),
    })
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = (tr.self_s[layer] / rounds, "s")
        out[f"{layer}.calls"] = (tr.calls[layer] / rounds, "count")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "homfinsler" / "__init__.py").is_file():
        print(f"error: no homfinsler sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    out_dir = ROOT / ".perfbench_out"
    work_dir = out_dir / f"{args.workload}-seed{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = workloads.child_env(str(ROOT))

    setup_argv = ["setup", args.workload, str(args.seed), str(out_dir / f"setup-{os.getpid()}")]
    setup_samples = [] if args.trace else [
        probe(setup_argv, env)["setup_s"] for _ in range(SETUP_SAMPLES)]

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer().install()
    wl = workloads.Workload(args.workload, args.seed, str(ROOT), str(work_dir), bool(args.trace))
    led = workloads.Ledger()
    if tracer:
        tracer.reset()
    gc.collect()
    gc.freeze()       # collections during timed calls traverse only objects made since
    t_start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - t_start < args.seconds:
        wl.run_round(led, rounds)
        rounds += 1
    elapsed = perf_counter() - t_start

    if args.trace:
        figures = per_layer(tracer, rounds, layer_probes(env))
    else:
        figures = end_to_end(led, args.workload, setup_samples)
    result = {
        "correct": led.wrong == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "measured_s": elapsed,
            "machine": machine_info(), "failures": dict(led.notes)}
    record = dict(info, result=result, section_s=dict(led.section_s),
                  rate_medians={key: statistics.median(r) for key, r in led.rates.items()},
                  rate_samples=dict(led.rates), cli_ms=led.cli_ms, scan_s=led.scan_s,
                  setup_samples=setup_samples)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
