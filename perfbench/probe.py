"""Cold-start figures measured in a fresh interpreter; prints one JSON object.

    python3 perfbench/probe.py setup WORKLOAD SEED DIR
        import homfinsler, catalog build and the generation of the
        workload's fixed and first-round inputs (setup_s); DIR is a scratch
        directory for generated space files and is removed afterwards.
    python3 perfbench/probe.py layers
        cold import homfinsler, the first catalog.get and the first
        volume_coefficient call.
"""

import json
import os
import shutil
import sys
import time

T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def setup(workload, seed, directory):
    import homfinsler  # noqa: F401
    import workloads

    os.makedirs(directory, exist_ok=True)
    try:
        wl = workloads.Workload(workload, int(seed), os.path.dirname(HERE), directory, False)
        wl.inputs(0, 0, 0)
        return {"setup_s": time.perf_counter() - T0}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def layers():
    import homfinsler

    t1 = time.perf_counter()
    homfinsler.catalog_get("heisenberg3")
    t2 = time.perf_counter()
    phi = homfinsler.phi_family("exponential")
    t3 = time.perf_counter()
    homfinsler.volume_coefficient(phi, 0.5, 3, "bh")
    t4 = time.perf_counter()
    return {"import_s": t1 - T0, "catalog_get_cold_ms": (t2 - t1) * 1e3,
            "volume_first_call_ms": (t4 - t3) * 1e3}


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 5:
        print(json.dumps(setup(*sys.argv[2:])))
    elif mode == "layers":
        print(json.dumps(layers()))
    else:
        sys.exit(__doc__)
