"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is pinned here.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import extrec.dist as dist
from extrec import measures as M
from extrec import symmetry as S
from extrec.dist import Exponential, Laplace, Logistic, Normal, Pareto, PowerFunction, Uniform, make_distribution
from extrec.quad import QuadStatus
from extrec.records import RecordLaw, simulate_records

from conftest import REPO, cli_env, ks_distance

# Golden seeds, frozen after first measurement (see tests for the values the
# batches produced when pinned).
RECORD_KS_SEED = 11                 # worst KS measured 0.0118 < 0.0163
CALIBRATION_DATA_BASE = 3_000_000   # measured size 0.036 at R=999
CALIBRATION_POWER_BASE = 6_000_000  # measured power 1.000
CALIBRATION_TEST_SEED = lambda r: 10_000 * r + 13


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_delta1_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.5, 1.0, 2.0, 5.0):
        mv = S.delta1(PowerFunction(theta=theta))
        target = (1.0 - theta) / (2.0 * (theta + 1.0))
        assert mv.is_finite, f"delta1 power({theta}) did not converge"
        worst = max(worst, abs(mv.value - target))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-6 and elapsed < 1.0,
           f"delta1 vs (1-theta)/(2(theta+1)): worst |err| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_power2_components():
    p2 = PowerFunction(theta=2.0)
    a, b = M.crj(p2), M.cpj(p2)
    err_crj = abs(a.value + 4.0 / 15.0)
    err_cpj = abs(b.value + 0.1)
    diff_err = abs((b.value - a.value) - 1.0 / 6.0)  # cpj - crj = -delta1 = 1/6
    ok = err_crj < 1e-6 and err_cpj < 1e-6 and diff_err < 2e-6
    report(2, ok, f"crj err {err_crj:.2e}, cpj err {err_cpj:.2e}, gap-vs-1/6 err {diff_err:.2e}")


def test_criterion_3_symmetric_law_equalities():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (Uniform(), Normal(), Laplace(mu=0, b=1), Logistic(mu=0, s=1)):
        rep = S.verify_characterizations(d, max_n=4, max_k=4, max_m=4, tol=1e-6)
        assert rep.verdict is S.Verdict.SYMMETRIC, d.spec_string()
        for e in rep.residuals:
            assert e.is_finite, (d.spec_string(), e.key(), e.status)
            worst = max(worst, abs(e.value))
    elapsed = time.perf_counter() - t0
    report(3, worst < 1e-6 and elapsed < 30.0,
           f"4 symmetric laws x 105 residuals: worst |res| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_asymmetric_detection():
    d2 = S.delta2(Pareto(theta=2.0), 1, 1)
    pareto_ok = d2.value > 1e-3  # divergent(+) satisfies the sign claim
    dk = S.delta_kij(Exponential(rate=1.0), 2)
    kij_ok = dk.is_finite and abs(dk.value) > 1e-3
    d3 = S.delta3(Exponential(rate=1.0), 2)
    d3_ok = d3.is_divergent
    report(4, pareto_ok and kij_ok and d3_ok,
           f"pareto delta2={d2.display()}, exp delta_kij(2)={dk.value:.4f}, exp delta3={d3.display()}")


def test_criterion_5_divergence_handling():
    t0 = time.perf_counter()
    e1 = Exponential(rate=1.0)
    results = [M.cpj(e1)] + [M.gcpj(e1, m) for m in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - t0
    ok = all(r.quad_status is QuadStatus.DIVERGED_NEGATIVE for r in results) and elapsed < 1.0
    report(5, ok, f"cpj/gcpj(exponential) all diverged_negative, ladder total {elapsed:.2f}s")


def test_criterion_6_record_law_validation():
    t0 = time.perf_counter()
    crit = 1.63 / math.sqrt(10_000)
    worst = 0.0
    for base in (Exponential(rate=1.0), Uniform()):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                for side in ("upper", "lower"):
                    rs = simulate_records(base, n, k, side, 10_000, seed=RECORD_KS_SEED)
                    assert rs.aborted == 0
                    law = RecordLaw(base, n, k, side)
                    worst = max(worst, ks_distance(rs.values, law.cdf))
    elapsed = time.perf_counter() - t0
    report(6, worst < crit and elapsed < 60.0,
           f"36 (base,n,k,side) combos at 1e4 draws: worst KS {worst:.4f} < {crit:.4f}, {elapsed:.0f}s")


def test_criterion_7_reduction_lattice():
    worst = 0.0
    checked = 0
    for d in (Uniform(), Exponential(rate=1.0), PowerFunction(theta=2.0), Pareto(theta=2.0),
              Normal(), Laplace(), Logistic()):
        pairs = [
            (M.record_crj_upper(d, 1, 1), M.crj(d)),
            (M.record_cpj_lower(d, 1, 1), M.cpj(d)),
            (M.gcrj(d, 2), M.crj(d)),
            (M.gcpj(d, 2), M.cpj(d)),
            (M.record_gcrj_upper(d, 1, 1, 2), M.crj(d)),
            (M.record_gcpj_lower(d, 2, 2, 2), M.record_cpj_lower(d, 2, 2)),
        ]
        for a, b in pairs:
            assert a.quad_status == b.quad_status, (d.spec_string(), a.measure_id)
            if a.is_finite:
                worst = max(worst, abs(a.value - b.value))
                checked += 1
    report(7, worst < 1e-9, f"{checked} convergent reduction pairs: worst gap {worst:.2e}")


def test_criterion_8_estimator_consistency():
    u = Uniform()
    vals = [S.empirical_crj(dist.sample(u, 10_000, seed)) for seed in range(50)]
    med = float(np.median(vals))
    err = abs(med + 1.0 / 6.0)
    report(8, err < 0.01, f"median empirical crj over 50 seeds = {med:.5f}, err {err:.4f}")


def test_criterion_9_test_calibration():
    t0 = time.perf_counter()
    nrm, e1 = Normal(), Exponential(rate=1.0)
    rejections = 0
    for r in range(500):
        xs = dist.sample(nrm, 200, CALIBRATION_DATA_BASE + r)
        rejections += S.symmetry_test(xs, 999, 0.05, CALIBRATION_TEST_SEED(r)).rejected
    size = rejections / 500.0
    rejections = 0
    for r in range(500):
        xs = dist.sample(e1, 200, CALIBRATION_POWER_BASE + r)
        rejections += S.symmetry_test(xs, 999, 0.05, CALIBRATION_TEST_SEED(r)).rejected
    power = rejections / 500.0
    elapsed = time.perf_counter() - t0
    ok = 0.02 <= size <= 0.08 and power > 0.5 and elapsed < 300.0
    report(9, ok, f"size {size:.3f} in [0.02, 0.08], power {power:.3f} > 0.5, {elapsed:.0f}s")


def test_criterion_10_determinism():
    data = REPO / "tests" / "data" / "exponential_200.txt"
    cases = [
        ("measure", "--dist", "exponential:rate=1", "--measure", "crj", "--output", "json"),
        ("records-sim", "--dist", "uniform", "--n", "2", "--k", "2",
         "--count", "200", "--seed", "123", "--output", "json"),
        ("symtest", "--input", str(data), "--seed", "9", "--output", "json"),
    ]
    ok = True
    for case in cases:
        outs = []
        for threads in ("1", "4"):
            env = cli_env(OMP_NUM_THREADS=threads, PYTHONHASHSEED=threads)
            proc = subprocess.run([sys.executable, "-m", "extrec.cli", *case],
                                  capture_output=True, text=True, env=env, cwd=REPO)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.encode())
        ok = ok and outs[0] == outs[1]
    report(10, ok, "seeded CLI JSON byte-identical across runs and thread counts")
