"""Adaptive quadrature on (0, 1) and on general intervals, with handling of
integrable endpoint singularities and explicit divergence detection.

Every integral is evaluated on a ladder of trimmed intervals (eps, 1 - eps)
with eps shrinking through a decade sequence that contains the canonical
rungs 1e-4, 1e-6, 1e-8, 1e-10.  Rungs are built incrementally: each deeper
rung adds the two thin edge strips to the previous rung, so the adaptive
Gauss-Kronrod core (QUADPACK) only ever sees well-scaled subintervals.

The ladder tail decides the outcome:

* successive rung values settle below ``tol``, or their Aitken-extrapolated
  tail settles (two extrapolation levels, which is exact for algebraic
  endpoint singularities) -> ``converged``;
* rung values march off monotonically without contracting, or blow past the
  magnitude cap -> ``diverged_positive`` / ``diverged_negative``;
* anything else, including a non-finite integrand value at an interior
  point -> ``no_convergence`` with a diagnostic.

Divergence is reported, never silently saturated into a finite number.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad as _qags

__all__ = [
    "DEFAULT_TOL",
    "EPS_LADDER",
    "MAGNITUDE_CAP",
    "QuadStatus",
    "QuadResult",
    "check_tol",
    "integrate_unit",
    "integrate_support",
]

DEFAULT_TOL = 1e-8
#: Trim levels; includes the canonical 1e-4 / 1e-6 / 1e-8 / 1e-10 rungs.
EPS_LADDER = tuple(10.0 ** -e for e in range(4, 11))
MAGNITUDE_CAP = 1e12

# Contraction thresholds for the ladder-difference analysis.
_AITKEN_MAX_RATIO = 0.95
_DIVERGENCE_MIN_RATIO = 0.98
_FAST_GROWTH_RATIO = 5.0


def check_tol(**values) -> None:
    """The one check of tolerances: each must be finite and > 0."""
    for label, v in values.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"{label} must be a positive finite number, got {v!r}")


class QuadStatus(str, enum.Enum):
    CONVERGED = "converged"
    DIVERGED_POSITIVE = "diverged_positive"
    DIVERGED_NEGATIVE = "diverged_negative"
    NO_CONVERGENCE = "no_convergence"


@dataclass(frozen=True)
class QuadResult:
    """Outcome of a ladder integration.

    ``value`` is +/-inf for diverged results and the last rung value for
    ``no_convergence``.  ``ladder`` keeps the rung values for diagnostics.
    """

    value: float
    abs_error_estimate: float
    status: QuadStatus
    detail: str = ""
    ladder: tuple[float, ...] = field(default=())

    @property
    def converged(self) -> bool:
        return self.status is QuadStatus.CONVERGED

    @property
    def diverged(self) -> bool:
        return self.status in (QuadStatus.DIVERGED_POSITIVE, QuadStatus.DIVERGED_NEGATIVE)


class _NonFiniteIntegrand(Exception):
    def __init__(self, where: float):
        self.where = where
        super().__init__(f"non-finite integrand value at u={where!r}")


def _piece(f, lo: float, hi: float, abs_tol: float) -> tuple[float, float]:
    """One QUADPACK call over [lo, hi]; flags non-finite integrand values."""

    def guarded(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise _NonFiniteIntegrand(x)
        return y

    res = _qags(guarded, lo, hi, epsabs=abs_tol, epsrel=1e-10, limit=120, full_output=1)
    return float(res[0]), float(res[1])


def _aitken_column(seq: list[float]) -> list[float | None]:
    """One Aitken delta-squared pass; None where the step is inapplicable."""
    out: list[float | None] = []
    for i in range(2, len(seq)):
        d1 = seq[i - 1] - seq[i - 2]
        d2 = seq[i] - seq[i - 1]
        if d1 == 0.0 or d2 == 0.0:
            out.append(None)
            continue
        r = d2 / d1
        if not abs(r) < _AITKEN_MAX_RATIO:
            out.append(None)
            continue
        out.append(seq[i] + d2 * r / (1.0 - r))
    return out


def _diverged(sign: float, vals: list[float], detail: str) -> QuadResult:
    status = QuadStatus.DIVERGED_POSITIVE if sign > 0 else QuadStatus.DIVERGED_NEGATIVE
    return QuadResult(math.copysign(math.inf, sign), math.inf, status, detail, tuple(vals))


def integrate_unit(f, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate ``f`` over the open interval (0, 1).

    ``f`` may blow up at either endpoint; integrable singularities are
    resolved by extrapolating the trim ladder, non-integrable ones are
    reported as divergence with the sign of the growth.
    """
    check_tol(tol=tol)
    rung_tol = tol / 50.0

    vals: list[float] = []
    qerr = 0.0
    try:
        v, e = _piece(f, EPS_LADDER[0], 1.0 - EPS_LADDER[0], rung_tol)
        vals.append(v)
        qerr += e
        for j in range(1, len(EPS_LADDER)):
            eps_new, eps_old = EPS_LADDER[j], EPS_LADDER[j - 1]
            d_lo, e_lo = _piece(f, eps_new, eps_old, rung_tol)
            d_hi, e_hi = _piece(f, 1.0 - eps_old, 1.0 - eps_new, rung_tol)
            vals.append(vals[-1] + d_lo + d_hi)
            qerr += e_lo + e_hi
            if abs(vals[-1]) > MAGNITUDE_CAP:
                return _diverged(vals[-1], vals,
                                 f"magnitude cap {MAGNITUDE_CAP:g} exceeded at eps={eps_new:g}")
            d = np.diff(vals)
            # Fast-growing tails are classified early; the deepest strips of a
            # strongly divergent integrand are numerically meaningless anyway.
            if (
                len(d) >= 3
                and abs(d[-1]) > max(1e3 * tol, 10.0 * qerr)
                and np.sign(d[-1]) == np.sign(d[-2]) == np.sign(d[-3])
                and abs(d[-1]) >= _FAST_GROWTH_RATIO * abs(d[-2])
                and abs(d[-2]) >= _FAST_GROWTH_RATIO * abs(d[-3])
            ):
                return _diverged(d[-1], vals, f"unbounded growth detected at eps={eps_new:g}")
    except _NonFiniteIntegrand as exc:
        return QuadResult(
            math.nan, math.inf, QuadStatus.NO_CONVERGENCE,
            f"non-finite integrand value at an interior point (u={exc.where:.6g})",
            tuple(vals),
        )

    d = list(np.diff(vals))

    # Raw ladder criterion: successive rung values settled below tol.
    if abs(d[-1]) + qerr <= tol:
        col = _aitken_column(vals[-3:])
        value = col[-1] if col and col[-1] is not None else vals[-1]
        return QuadResult(value, abs(d[-1]) + qerr, QuadStatus.CONVERGED, "", tuple(vals))

    # Extrapolated tail: one, then two Aitken levels.  Two levels remove two
    # geometric components, which covers mixed algebraic singularities.
    lvl1 = [w for w in _aitken_column(vals) if w is not None]
    if len(lvl1) >= 2 and abs(lvl1[-1] - lvl1[-2]) + qerr <= tol:
        return QuadResult(lvl1[-1], abs(lvl1[-1] - lvl1[-2]) + qerr, QuadStatus.CONVERGED, "", tuple(vals))
    if len(lvl1) >= 3:
        lvl2 = [z for z in _aitken_column(lvl1) if z is not None]
        if len(lvl2) >= 2 and abs(lvl2[-1] - lvl2[-2]) + qerr <= tol:
            return QuadResult(lvl2[-1], abs(lvl2[-1] - lvl2[-2]) + qerr, QuadStatus.CONVERGED, "", tuple(vals))

    # Monotone non-contracting growth with a consistent sign: divergent.
    if (
        d[-1] != 0.0
        and np.sign(d[-1]) == np.sign(d[-2]) == np.sign(d[-3])
        and abs(d[-1]) > max(tol, 10.0 * qerr)
        and abs(d[-1]) >= _DIVERGENCE_MIN_RATIO * abs(d[-2])
        and abs(d[-2]) >= _DIVERGENCE_MIN_RATIO * abs(d[-3])
    ):
        return _diverged(d[-1], vals, "monotone non-contracting ladder growth")

    return QuadResult(
        vals[-1], abs(d[-1]) + qerr, QuadStatus.NO_CONVERGENCE,
        f"ladder did not settle: last diffs {[float(x) for x in d[-3:]]}",
        tuple(vals),
    )


def _combine(a: QuadResult, b: QuadResult) -> QuadResult:
    ladder = a.ladder + b.ladder
    if a.converged and b.converged:
        return QuadResult(a.value + b.value, a.abs_error_estimate + b.abs_error_estimate,
                          QuadStatus.CONVERGED, "", ladder)
    if a.status is QuadStatus.NO_CONVERGENCE or b.status is QuadStatus.NO_CONVERGENCE:
        bad = a if a.status is QuadStatus.NO_CONVERGENCE else b
        return QuadResult(math.nan, math.inf, QuadStatus.NO_CONVERGENCE, bad.detail, ladder)
    if a.diverged and b.diverged and a.status is not b.status:
        return QuadResult(math.nan, math.inf, QuadStatus.NO_CONVERGENCE,
                          "opposite-sign divergence of the two half-axis integrals", ladder)
    div = a if a.diverged else b
    return QuadResult(div.value, math.inf, div.status, div.detail, ladder)


def integrate_support(f, support: tuple[float, float], tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate ``f`` over ``support``; either bound may be infinite.

    Infinite ends are mapped to (0, 1) by the rational substitution
    x = a + t/(1-t) (mirrored for the left tail), finite intervals by an
    affine map; the unit-interval ladder does the rest.
    """
    a, b = support
    if not a < b:
        raise ValueError(f"support must be a nonempty interval, got {support}")
    a_inf = math.isinf(a)
    b_inf = math.isinf(b)
    if a_inf and b_inf:
        left = integrate_support(f, (a, 0.0), tol / 2.0)
        right = integrate_support(f, (0.0, b), tol / 2.0)
        return _combine(left, right)
    if not a_inf and not b_inf:
        width = b - a

        def g(t: float) -> float:
            return f(a + width * t) * width

    elif not a_inf:  # (a, inf)

        def g(t: float) -> float:
            s = 1.0 - t
            return f(a + t / s) / (s * s)

    else:  # (-inf, b)

        def g(t: float) -> float:
            s = 1.0 - t
            return f(b - t / s) / (s * s)

    return integrate_unit(g, tol)
