"""extrec benchmark: cold CLI set-up plus warm operations, per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 30 --trace 0

Runs everything one process at a time:

1. set-up probes: fresh interpreters that import ``extrec.cli`` from the
   checkout's ``src`` and report when it is ready.  One warm-up probe is
   discarded (it may compile bytecode).  ``setup_s`` is the median of the
   rest, scaled by the median calibration kernel time (``calib.py``) taken
   before, between and after the probes.
   With ``--trace 1`` the probes run under ``-X importtime`` and give the
   numpy / scipy / extrec split instead.
2. one worker (``worker.py``): a fresh interpreter that imports ``extrec.cli``
   cold and runs the workload's ops warm through ``extrec.cli.main``.

Prints a run stamp and diagnostics as JSON lines, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  Exits 2 without a result
when the checkout has no ``src/extrec`` to measure.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("verify-catalog", "measure-sweep", "monte-carlo")
SETUP_PROBES = 5
#: Every run must end within this many seconds; the worker gets what is left.
RUN_BUDGET_S = 170.0

PROBE = "import time, extrec.cli; print(repr(time.monotonic()))"


#: The program is single-threaded apart from BLAS.  On a two-core machine a
#: spinning BLAS helper thread competes with the main thread and with the
#: machine's other tenants, which made run-to-run spread worse.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EXTROPY_SEED"}
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe_setup(importtime: bool) -> tuple[float, dict]:
    """One fresh interpreter: seconds from spawn until ``extrec.cli`` is imported,
    and (with importtime) the self time of the imports per top-level package."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", PROBE]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    ready = float(proc.stdout.strip().splitlines()[-1])
    return ready - start, (import_split(proc.stderr) if importtime else {})


def import_split(stderr: str) -> dict:
    """Sum ``-X importtime`` self times (microseconds) by top-level package."""
    out = {"numpy": 0.0, "scipy": 0.0, "extrec": 0.0, "other": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        if not self_us.strip().isdigit():
            continue  # the header line
        top = name.strip().split(".")[0]
        out[top if top in out else "other"] += int(self_us) * 1e-6
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "extrec" / "cli.py").is_file():
        print(f"error: no extrec package under {SRC}; run from the root of an extrec checkout",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    load_start = os.getloadavg()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    work.mkdir(parents=True, exist_ok=True)

    calib.warm_up()
    probe_setup(importtime=False)  # warm-up: bytecode compile and file cache
    kernel_s = [calib.steady_sample()]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(importtime=bool(args.trace)))
        kernel_s.append(calib.steady_sample())
    setup_raw_s = statistics.median(t for t, _ in probes)
    setup_s = setup_raw_s * calib.REFERENCE_S / statistics.median(kernel_s)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    budget = RUN_BUDGET_S - (time.monotonic() - began)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in result["metrics"].items()}
    if args.trace:
        for pkg in ("numpy", "scipy", "extrec"):
            metrics[f"setup.import_{pkg}_s"] = {
                "value": statistics.median(split[pkg] for _, split in probes), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": os.cpu_count(), "platform": platform.platform(),
             "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
             "setup_probes_raw_s": [t for t, _ in probes], "setup_raw_s": setup_raw_s,
             "setup_kernel_ms": [k * 1e3 for k in kernel_s], "run_wall_s": time.monotonic() - began}
    print(json.dumps({"stamp": stamp, "diagnostics": result["diagnostics"]}, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
