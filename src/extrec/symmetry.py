"""Symmetry characterization of continuous laws and a data-driven test.

A continuous law is symmetric about a point exactly when the reciprocal
density-quantile gap ``eta(u) = 1/dqf(1-u) - 1/dqf(u)`` vanishes on (0, 1/2).
The characterization equalities (residual-vs-past measures of the law and of
its k-records, plain, generalized, and inaccuracy-type) all reduce to
weighted integrals of ``eta`` over (0, 1/2); those antisymmetrized forms are
how every residual here is computed, because they stay finite in cases where
the individual measures diverge.  The gaps and their kernels are the rows of
:data:`extrec.measures.KERNELS` that name a verify family, and each row is its
gap's public function: ``delta1 = KERNELS["delta1"]``, called as
``row(d, *params, tol=...)``, which is :func:`extrec.measures.measure_value`.
:func:`verify_characterizations` plans its whole (n, k, m) grid once per
grid, not per law, with the planner every measure takes
(:func:`extrec.measures._plan`), and evaluates that plan on each law,
integrating each distinct kernel once; ``eta`` is defined there and
re-exported here.  On a support
with one infinite end every gap but ``kij`` diverges without quadrature: its
weight K(u) - K(1-u) tends to -1 as u -> 0, so the raw integral is -inf when
the upper end is infinite and +inf when the lower is, before the prefactor.
Where ``eta`` is 0.0 at every node, as on the symmetric catalog laws, no
kernel is evaluated.

The empirical side estimates the residual/past gap from data with plug-in
spacings estimators and calibrates it against a symmetrized bootstrap null.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dist import Distribution
from .quad import DEFAULT_TOL, QuadStatus, check_tol
from .records import check_params
from .measures import KERNELS, _Plan, _evaluate, _plan, eta

__all__ = [
    "RESIDUAL_TOL",
    "ClassC",
    "ResidualEntry",
    "SymmetryReport",
    "TestResult",
    "eta",
    "class_c_check",
    "delta1",
    "delta2",
    "delta3",
    "delta2_generalized",
    "delta_kij",
    "delta_crij",
    "verify_characterizations",
    "empirical_crj",
    "empirical_cpj",
    "symmetry_test",
]

#: Default equality tolerance for characterization residuals (two orders looser
#: than the quadrature tolerance they are computed at).
RESIDUAL_TOL = 1e-6

#: Elements per bootstrap resample matrix, about 0.5 MB of float64.
_CHUNK = 1 << 16


class ClassC(str, enum.Enum):
    """One-signed comparison classes of f(F^-1(1-u)) vs f(F^-1(u)) on (0, 1/2)."""

    MEMBER_LEQ = "member_leq"    # f(F^-1(1-u)) <= f(F^-1(u)), i.e. eta >= 0
    MEMBER_GEQ = "member_geq"    # f(F^-1(1-u)) >= f(F^-1(u)), i.e. eta <= 0
    MEMBER_EQUAL = "member_equal"
    NOT_MEMBER = "not_member"

    @property
    def is_member(self) -> bool:
        return self is not ClassC.NOT_MEMBER


def class_c_check(d: Distribution, grid_size: int = 512) -> ClassC:
    """Sign pattern of eta on a uniform grid over (1e-4, 1/2 - 1e-4)."""
    if grid_size < 64:
        raise ValueError(f"grid_size must be >= 64, got {grid_size}")
    values = eta(d, np.linspace(1e-4, 0.5 - 1e-4, grid_size))
    tol = 1e-10
    if np.all(np.abs(values) <= tol):
        return ClassC.MEMBER_EQUAL
    if np.all(values >= -tol):
        return ClassC.MEMBER_LEQ
    if np.all(values <= tol):
        return ClassC.MEMBER_GEQ
    return ClassC.NOT_MEMBER


# The gap rows of KERNELS, each the public function of its measure_id.
delta1 = KERNELS["delta1"]
delta2 = KERNELS["delta2"]
delta3 = KERNELS["delta3"]
delta2_generalized = KERNELS["delta2_generalized"]
delta_kij = KERNELS["delta_kij"]
delta_crij = KERNELS["delta_crij"]


class Verdict(str, enum.Enum):
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ResidualEntry:
    """One characterization-equality residual over the (n, k, m) grid."""

    family: str
    n: int | None
    k: int | None
    m: int | None
    value: float
    status: QuadStatus

    @property
    def is_finite(self) -> bool:
        return self.status is QuadStatus.CONVERGED

    def key(self) -> str:
        parts = [self.family] + [f"{lbl}={v}" for lbl, v in
                                 (("n", self.n), ("k", self.k), ("m", self.m)) if v is not None]
        return ":".join(parts)


@dataclass(frozen=True)
class SymmetryReport:
    distribution: str
    class_c: ClassC
    tolerance: float
    residuals: tuple[ResidualEntry, ...]
    verdict: Verdict


@functools.lru_cache(maxsize=8)
def _grid(max_n: int, max_k: int, max_m: int) -> tuple[tuple, _Plan]:
    """The grid's residual labels ``(family, n, k, m)`` and its plan, which
    depend on the bounds alone, so each grid is planned once and every law
    takes the same plan.  A label shows the row's planned params and its
    ``fixed`` ones.  The last few grids are kept, so a caller that sweeps the
    bounds does not grow the cache."""
    limits = {"n": max_n, "k": max_k, "m": max_m}
    plan = _plan([(row, dict(zip(row.params, values)))
                  for row in KERNELS.values() if row.family is not None
                  for values in itertools.product(*(range(1, limits[p] + 1)
                                                    for p in row.params))])
    labels = tuple((row.family, *map({**row.fixed, **params}.get, "nkm"))
                   for row, params, _, _ in plan.points)
    return labels, plan


def verify_characterizations(d: Distribution, max_n: int = 4, max_k: int = 4,
                             max_m: int = 4, tol: float = RESIDUAL_TOL,
                             quad_tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Evaluate every characterization residual over the (n, k, m) grid.

    Verdict, for a class member only: ``asymmetric`` if some finite residual
    is at or above ``tol`` in size, else ``symmetric`` if every residual is
    finite; anything else (non-membership, or a divergent or unsettled
    residual with every finite one below ``tol``) is ``inconclusive``.
    """
    check_params(max_n=max_n, max_k=max_k, max_m=max_m)
    check_tol(tol=tol, quad_tol=quad_tol)
    cls = class_c_check(d)
    labels, plan = _grid(max_n, max_k, max_m)
    entries = [ResidualEntry(*label, mv.value, mv.quad_status)
               for label, mv in zip(labels, _evaluate(d, plan, quad_tol))]

    if cls.is_member and any(e.is_finite and abs(e.value) >= tol for e in entries):
        verdict = Verdict.ASYMMETRIC
    elif cls.is_member and all(e.is_finite for e in entries):
        verdict = Verdict.SYMMETRIC
    else:
        verdict = Verdict.INCONCLUSIVE
    return SymmetryReport(distribution=d.spec_string(), class_c=cls, tolerance=tol,
                          residuals=tuple(entries), verdict=verdict)


# ---------------------------------------------------------------------------
# Empirical side


def _clean_sample(sample: Iterable[float], min_size: int = 2) -> np.ndarray:
    x = np.asarray(list(sample) if not isinstance(sample, np.ndarray) else sample,
                   dtype=float).ravel()
    if x.size < min_size:
        raise ValueError(f"sample must have at least {min_size} values, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return x


def empirical_cpj(sample: Iterable[float]) -> float:
    """Plug-in past estimator: -1/2 * sum (i/n)^2 * (x_(i+1) - x_(i))."""
    x = np.sort(_clean_sample(sample))
    n = x.size
    w = (np.arange(1, n) / n) ** 2
    return -0.5 * float(np.dot(w, np.diff(x)))


def empirical_crj(sample: Iterable[float]) -> float:
    """Plug-in residual estimator: -1/2 * sum (1 - i/n)^2 * (x_(i+1) - x_(i)).

    Evaluated as the past estimator of the reflected sample, which makes the
    reflection duality crj_hat(-X) == cpj_hat(X) hold with exact arithmetic.
    """
    return empirical_cpj(np.negative(_clean_sample(sample)))


@dataclass(frozen=True)
class TestResult:
    """Symmetry test outcome: statistic, bootstrap null summary, decision."""

    statistic: float
    bootstrap_replicates: int
    p_value: float
    alpha: float
    decision: str
    seed: int

    @property
    def rejected(self) -> bool:
        return self.decision == "reject"


def symmetry_test(sample: Iterable[float], replicates: int = 999,
                  alpha: float = 0.05, seed: int = 0) -> TestResult:
    """Two-sided symmetry test from the past/residual estimator gap.

    The statistic is T = cpj_hat - crj_hat on the median-centered sample.
    The null is emulated by resampling n points with replacement from the
    symmetrized multiset {x_i - med} U {med - x_i}; the p-value is
    (1 + #{|T*| >= |T|}) / (replicates + 1).  Deterministic under ``seed``.

    Summed by parts, the spacings form -1/2 * sum_j ((2j-n)/n)(x_(j+1)-x_(j))
    of T is mean(x) - (x_(1) + x_(n))/2, so each replicate costs O(n) with no
    sort: O(replicates * n) time, in chunks of about 0.5 MB.  T itself keeps
    the two-estimator path, which makes it exactly 0.0 on a symmetric
    multiset.  The two paths round differently, so ``>=`` is decided with a
    fixed slack of 1e-12 * max|x_i - med|: a replicate whose T* equals |T| in
    exact arithmetic, as ties on lattice data make common, always counts.
    """
    x = _clean_sample(sample, min_size=20)
    if replicates < 199:
        raise ValueError(f"replicates must be >= 199, got {replicates}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if x.max() == x.min():
        raise ValueError("degenerate sample: all values equal")
    n = x.size
    centered = x - np.median(x)
    t_obs = empirical_cpj(centered) - empirical_crj(centered)
    threshold = abs(t_obs) - 1e-12 * float(np.abs(centered).max())
    pool = np.concatenate([centered, -centered])
    rng = np.random.default_rng(seed)
    exceed = 0
    rows = max(1, _CHUNK // n)
    left = replicates
    while left > 0:
        r = min(rows, left)
        # the draw's stream does not depend on how the rows are chunked
        b = pool[rng.integers(0, 2 * n, size=(r, n))]
        t = b.mean(axis=1) - 0.5 * (b.min(axis=1) + b.max(axis=1))
        exceed += int(np.count_nonzero(np.abs(t) >= threshold))
        left -= r
    p = (1 + exceed) / (replicates + 1)
    decision = "reject" if p < alpha else "fail_to_reject"
    return TestResult(statistic=float(t_obs), bootstrap_replicates=replicates,
                      p_value=p, alpha=alpha, decision=decision, seed=seed)
