"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` directory on PYTHONPATH.
It imports ``extrec.cli`` cold, then calls ``extrec.cli.main(argv)`` (or a
library function) for every op, warm, with stdout and stderr captured.

``--trace 0`` runs whole passes until ``--seconds`` have passed and the
workload's tail percentile has at least ten ops beyond it.  ``--trace 1``
runs pass 0 once untraced and twice under cProfile, and reports per-layer
metrics from the first traced pass after checking that every count repeats
in the second.  Gates run after the timed or traced region.  The last stdout
line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Re-run every DETERMINISM_STRIDE-th op of pass 0 and compare output bytes.
DETERMINISM_STRIDE = 4


def run_op(cli, op, Outcome, library_output):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            if op.argv is not None:
                rc = cli.main(op.argv)
                text = None
            else:
                rc = None
                text = op.call()
            latency = time.perf_counter() - t
    except Exception as exc:  # a raising op is counted as failed, not fatal
        return Outcome(op, None, "", time.perf_counter() - t, f"{type(exc).__name__}: {exc}")
    return Outcome(op, rc, out.getvalue() if text is None else library_output(text), latency)


def tail_rank(p, n):
    """Index of the nearest-rank p-th percentile of n sorted values."""
    return max(0, math.ceil(round(p * n / 100, 6)) - 1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import extrec.cli as cli
    import_s = time.perf_counter() - t0

    import extrec
    src = (ROOT / "src").resolve()
    if not Path(extrec.__file__).resolve().is_relative_to(src):
        print(f"error: extrec was imported from {extrec.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    import workloads as W

    work = Path(args.work_dir)
    stamp = {"python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__, "cli_import_s": import_s}

    def run(op):
        return run_op(cli, op, W.Outcome, W.library_output)

    if args.trace:
        result = traced(args, run, W, work)
    else:
        result = timed(args, run, W, work)
    result["diagnostics"].update(stamp)
    print(json.dumps(result))
    return 0


class Books:
    """Gate failures and result counts, kept op by op.

    Ops after pass 0 are judged as soon as they finish (outside their timed
    region) and their output is dropped, so the worker's memory does not grow
    with the number of ops a run completes.
    """

    def __init__(self, W):
        self.W = W
        self.failed, self.messages = set(), []
        self.unverified = self.requested = self.unsettled = self.streams = self.aborted = 0

    def fail(self, i, case, errs):
        if errs:
            self.failed.add(i)
            self.messages += [f"{case}: {e}" for e in errs]

    def judge(self, i, o, oracle=False):
        """Cheap gates and result counts; with ``oracle``, also the reference forms."""
        r, u = self.W.results_requested(o)
        s, a = self.W.streams(o)
        self.requested, self.unsettled = self.requested + r, self.unsettled + u
        self.streams, self.aborted = self.streams + s, self.aborted + a
        errs = self.W.cheap_gate(o)
        if oracle:
            oracle_errs, skipped = self.W.oracle_gate(o)
            errs += oracle_errs
            self.unverified += skipped
        self.fail(i, o.op.case, errs)

    def rerun(self, i, o, run):
        """Determinism: the same op run again gives byte-identical output."""
        if run(o.op).out != o.out:
            self.fail(i, o.op.case, ["output differs when the op is run again"])


def timed(args, run, W, work):
    import calib

    cal = calib.Calibrator()
    books = Books(W)
    outcomes, started, pass0 = [], [], []
    start = time.perf_counter()
    hard_stop = start + args.seconds + max(30.0, args.seconds)
    index = 0
    while True:
        for op in W.build_pass(args.workload, args.seed, index, work):
            cal.maybe_sample()
            started.append(time.perf_counter())
            o = run(op)
            if index == 0:
                pass0.append(len(outcomes))
            else:
                books.judge(len(outcomes), o)
                o.out = ""
            outcomes.append(o)
        index += 1
        now = time.perf_counter()
        if now >= hard_stop or (now - start >= args.seconds
                                and len(outcomes) >= W.MIN_OPS[args.workload]):
            break
    cal.due = 0.0
    cal.maybe_sample()
    wall = time.perf_counter() - start

    for i in pass0:
        books.judge(i, outcomes[i], oracle=True)
    for i in pass0[::DETERMINISM_STRIDE]:
        books.rerun(i, outcomes[i], run)

    raw = sorted(o.latency for o in outcomes)
    scaled = [o.latency * cal.scale(t) for o, t in zip(outcomes, started)]
    lat = sorted(scaled)
    n = len(lat)
    p_tail = W.TAIL_PERCENTILE[args.workload]
    rank = tail_rank(p_tail, n)
    error_frac = len(books.failed) / n
    unsettled_frac = books.unsettled / books.requested if books.requested else 0.0
    aborted_frac = books.aborted / books.streams if books.streams else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[rank] * 1e3, "ms"),
        "ok_frac": (1.0 - error_frac, "ratio"),
        "settled_frac": (1.0 - unsettled_frac, "ratio"),
        "completed_frac": (1.0 - aborted_frac, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    diagnostics = {
        "passes": index, "ops": n, "wall_s": wall,
        "op_tail_percentile": p_tail, "ops_beyond_tail": n - 1 - rank,
        "raw_ops_per_s": n / sum(raw), "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": raw[rank] * 1e3, "calibration_samples": len(cal.kernel_s),
        "calibration_kernel_ms": {"min": min(cal.kernel_s) * 1e3, "median": statistics.median(cal.kernel_s) * 1e3,
                                  "max": max(cal.kernel_s) * 1e3},
        "error_frac": error_frac, "failed_ops": len(books.failed), "oracle_unsettled": books.unverified,
        "unsettled_frac": unsettled_frac, "results_requested": books.requested,
        "results_unsettled": books.unsettled,
        "aborted_frac": aborted_frac, "streams_requested": books.streams, "streams_aborted": books.aborted,
        "breakdown_ms": breakdown(outcomes, scaled),
        "failures": books.messages[:20],
    }
    return {"attempted": n, "failed": len(books.failed), "correct": not books.failed,
            "metrics": metrics, "diagnostics": diagnostics}


def breakdown(outcomes, scaled):
    """Median scaled latency and op count per case: per law on verify-catalog,
    per measure id on measure-sweep, per case on monte-carlo."""
    by_case = {}
    for o, lat in zip(outcomes, scaled):
        by_case.setdefault(o.op.case, []).append(lat)
    return {case: {"median_ms": statistics.median(v) * 1e3, "ops": len(v)}
            for case, v in sorted(by_case.items())}


def traced(args, run, W, work):
    import layers as T

    ops = W.build_pass(args.workload, args.seed, 0, work)
    t = time.perf_counter()
    plain = [run(op) for op in ops]
    plain_wall = time.perf_counter() - t

    mods = [m for name, m in sys.modules.items() if name.startswith("extrec.")]
    passes = []
    for _ in range(2):
        with T.QuadTally(mods) as tally:
            t = time.perf_counter()
            outs, stats = T.profile(lambda: [run(op) for op in ops])
            wall = time.perf_counter() - t
        passes.append((outs, T.Profile(stats, ROOT / "src" / "extrec", HERE), tally, wall))

    books = Books(W)
    for i, o in enumerate(plain):
        books.judge(i, o, oracle=True)
    for i in range(0, len(plain), DETERMINISM_STRIDE):
        books.rerun(i, plain[i], run)
    for outs, *_ in passes:
        for i, (a, b) in enumerate(zip(plain, outs)):
            if a.out != b.out:
                books.fail(i, a.op.case, ["traced output differs from the untraced one"])

    replicates = sum(W.REPLICATES for op in ops if op.command == "symtest")
    layer = [T.layer_metrics(prof, tally, replicates, books.streams, books.aborted)
             for _, prof, tally, _ in passes]
    unstable = {k: (layer[0][k][0], layer[1][k][0]) for k, (_, unit) in layer[0].items()
                if unit == "count" and layer[0][k][0] != layer[1][k][0]}
    if unstable:
        books.messages.append(f"counts differ between two traced passes: {unstable}")
    metrics = dict(layer[0])
    traced_wall = statistics.median(w for *_, w in passes)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    diagnostics = {"ops": len(ops), "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                   "deterministic_counts": {k: layer[0][k][0] for k in T.DETERMINISTIC},
                   "counts_repeat": not unstable, "oracle_unsettled": books.unverified,
                   "failures": books.messages[:20]}
    return {"attempted": 3 * len(ops), "failed": len(books.failed),
            "correct": not books.failed and not unstable,
            "metrics": metrics, "diagnostics": diagnostics}


if __name__ == "__main__":
    sys.exit(main())
