"""Adaptive quadrature on (0, 1) and on general intervals, with handling of
integrable endpoint singularities and explicit divergence detection.

Every integral is evaluated on a ladder of trimmed intervals (eps, 1 - eps)
with eps shrinking through a decade sequence that contains the canonical
rungs 1e-4, 1e-6, 1e-8, 1e-10.  Rungs are built incrementally: each deeper
rung adds the two thin edge strips to the previous rung, so the quadrature
only ever sees well-scaled pieces.  The ladder's 13 pieces (the middle and
six pairs of strips) are integrated together by an adaptive Gauss-Kronrod
core: the 10-point Gauss / 21-point Kronrod pair of QUADPACK's ``dqk21``
(Piessens et al., 1983), applied to every interval that still needs work in
one integrand call per bisection round.  The middle piece starts as seven
intervals, cut at 1e-3, 1e-2, 0.1 and their mirrors, so it is graded by
decades toward both ends as the strips are: an integrand like 1/u at an end
settles in a few rounds, where bisecting down from 1/2 takes one round per
level.  The integrand maps an array of nodes to a stack of C rows, so C
integrands that share costly factors pay for them once per node.  It is
always called on whole intervals, the 21 nodes of each in turn, so an
integrand may keep what it computed at an interval for a later call.  An
interval is bisected while some row's |K21 - G10| is above its width's
share of the piece's error budget, up to 120 subintervals per piece; a
piece that stops above its budget is named in ``QuadResult.detail``.

Each row's piece sums are then replayed through the ladder, in ladder order;
a stack that is +-0.0 at every node ends on its first round, no piece over
its budget, and each of its rows replays to ``converged``, every rung 0.0.
A stack of at least ``_ARRAY_ROWS`` rows first goes through one array pass
over all its rows (:func:`_settle`), which settles each row where none of
rules 1-4 below fires and rule 5 or 6 does, with every Aitken step of its
level applicable; it takes each sum in the ladder's order, so it gives
those rows the ladder's bits.  The scalar ladder, :func:`_ladder`, decides
every other row and every row of a smaller stack, and stays the reference.
The threshold exists because the pass costs about as much on one row as the
scalar ladder on a dozen: every measure and verify's ``w*dqf`` gap stack stay
below it, and verify's 70-row ``K/dqf`` gap stack on a bounded asymmetric law
takes it.  The first check that holds decides the row.  At each rung, in order:

1. a non-finite integrand value at an interior point of a piece the rung
   adds -> ``no_convergence``;
2. past rung 0, a rung value beyond the magnitude cap -> ``diverged_*``;
3. fast growth: the last three ladder diffs share a sign and each is at
   least five times the one before -> ``diverged_*``.

At the last rung, in order:

4. two ends: the low strips so far and the high strips so far each grow as
   in 7, each past a floor of its own strips' error, with opposite signs ->
   ``no_convergence`` with the last rung value.  The symmetric trim would
   cancel such ends into a principal value, or read them as the faster end's
   divergence, so exits 2, 3 and 7 check this rule first;
5. raw: successive rung values settle below ``tol`` -> ``converged``;
6. Aitken-1, then Aitken-2: the Aitken-extrapolated tail settles at one, then
   at two extrapolation levels -> ``converged``;
7. monotone: the last three diffs share a sign and none contracts by more
   than 2% -> ``diverged_*``;
8. otherwise -> ``no_convergence``, naming the last three diffs.

Divergence is reported with the sign of the growth
(``diverged_positive`` / ``diverged_negative``), never silently saturated
into a finite number.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "EPS_LADDER",
    "MAGNITUDE_CAP",
    "QuadStatus",
    "QuadResult",
    "check_tol",
    "integrate_unit",
    "integrate_support",
    "integrate_support_stack",
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
    """The one check of tolerances: each must be finite and > 0, and not a bool."""
    for label, v in values.items():
        if isinstance(v, bool) or not 0.0 < v < math.inf:
            raise ValueError(f"{label} must be a positive finite number, got {v!r}")


class QuadStatus(str, enum.Enum):
    CONVERGED = "converged"
    DIVERGED_POSITIVE = "diverged_positive"
    DIVERGED_NEGATIVE = "diverged_negative"
    NO_CONVERGENCE = "no_convergence"


@dataclass(frozen=True)
class QuadResult:
    """Outcome of a ladder integration.

    ``value`` is +/-inf for diverged results.  For ``no_convergence`` it is
    nan after a non-finite integrand value and on the whole line, else the
    last rung value.  ``ladder`` keeps the rung values for diagnostics.
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


#: The ladder's pieces in the order the ladder consumes them: the middle
#: (eps_0, 1 - eps_0), then the low and the high strip of each deeper rung.
_LO = np.array([EPS_LADDER[0]] + [x for j in range(1, len(EPS_LADDER))
                                  for x in (EPS_LADDER[j], 1.0 - EPS_LADDER[j - 1])])
_HI = np.array([1.0 - EPS_LADDER[0]] + [x for j in range(1, len(EPS_LADDER))
                                        for x in (EPS_LADDER[j - 1], 1.0 - EPS_LADDER[j])])
#: The decades between eps_0 and 1/2 and their mirrors: a piece starts cut at
#: those inside it, so the middle is graded toward both ends as the strips
#: are, and (0.1, 0.9) keeps 1/2 a node.
_DECADES = [10.0 ** -e for e in range(round(-math.log10(EPS_LADDER[0])) - 1, 0, -1)]
_CUTS = tuple(_DECADES + [1.0 - c for c in reversed(_DECADES)])
#: The intervals bisection starts from, each with the piece it belongs to.
_A0, _B0, _OWN0 = (np.array(col) for col in zip(*[
    (a, b, p) for p, (lo, hi) in enumerate(zip(_LO.tolist(), _HI.tolist()))
    for a, b in itertools.pairwise([lo, *(c for c in _CUTS if lo < c < hi), hi])]))

#: Subintervals allowed per piece, and the relative accuracy asked of a piece
#: on top of its absolute budget.
_LIMIT = 120
_EPSREL = 1e-10

# dqk21: Kronrod abscissae on [0, 1] (the Gauss ones at odd index, 0 last),
# their Kronrod weights, and the Gauss weights of the odd abscissae.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208015259480, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

#: The 21 nodes on [-1, 1] in ascending order, and per node its Kronrod and
#: its Gauss weight (0 at the ten Kronrod-only nodes).
_NODES = np.array([-x for x in _XGK[:10]] + [0.0] + list(_XGK[9::-1]))
_WK = np.array(_WGK[:10] + _WGK[10:] + _WGK[9::-1])
_WG10 = np.array([_WG[i // 2] if i % 2 else 0.0 for i in range(10)] + [0.0]
                 + [_WG[i // 2] if i % 2 else 0.0 for i in range(9, -1, -1)])
_WEIGHTS = np.stack([_WK, _WG10], axis=1)
#: dqk21's roundoff floor on an interval's error: 50 ulp of the integral of |f|.
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _stack(F, x: np.ndarray) -> np.ndarray:
    """F at the nodes ``x`` as a (C, N) array; F may return one row as (N,)."""
    with np.errstate(all="ignore"):
        return np.asarray(F(x), dtype=float).reshape(-1, x.size)


def _gk_pieces(F, abs_tol: float):
    """Integrate the rows of F over every ladder piece [_LO[p], _HI[p]] at once.

    Bisection starts from ``_A0``, ``_B0``: each piece cut at the ``_CUTS``
    that lie inside it, so the middle piece starts as seven intervals.
    Each round evaluates F once, on the 21 nodes of every interval that
    needs work, and bisects the intervals whose
    |K21 - G10| exceeds their share of the piece budget
    ``max(abs_tol, _EPSREL * |piece sum|)`` for a row that is still over
    budget on that piece.  Per (row, piece) it returns the sum, the summed
    error estimate, the lowest node with a non-finite value (nan if none;
    such a row is not refined further) and whether the piece stopped above
    its budget, plus the subinterval count per piece.
    """
    npieces, width = _LO.size, _HI - _LO
    a, b, owner = _A0, _B0, _OWN0
    A = B = np.empty(0)
    OWN = np.empty(0, dtype=int)
    VAL = ERR = bad = None
    while True:
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
        y = _stack(F, x.ravel()).reshape(-1, a.size, _NODES.size)
        if bad is None:
            bad = np.full((y.shape[0], npieces), np.nan)
            VAL = ERR = np.empty((y.shape[0], 0))
        finite = np.isfinite(y)
        if not finite.all():
            row, i, j = np.nonzero(~finite)
            np.fmin.at(bad, (row, owner[i]), x[i, j])
            y = np.where(finite, y, 0.0)
        kg = (y @ _WEIGHTS) * half[:, None]
        resabs = (np.abs(y) @ _WK) * half
        err = np.maximum(np.abs(kg[..., 0] - kg[..., 1]), _ROUNDOFF * resabs)

        A, B = np.concatenate([A, a]), np.concatenate([B, b])
        OWN = np.concatenate([OWN, owner])
        VAL = np.concatenate([VAL, kg[..., 0]], axis=1)
        ERR = np.concatenate([ERR, err], axis=1)
        count = np.bincount(OWN, minlength=npieces)

        total, errsum = _piece_sums(OWN, npieces, VAL, ERR)
        budget = np.maximum(abs_tol, _EPSREL * np.abs(total))
        over = (errsum > budget) & np.isnan(bad)
        if not over.any():
            break
        share = budget[:, OWN] * ((B - A) / width[OWN])
        mid = 0.5 * (A + B)
        split = ((ERR > share) & over[:, OWN]).any(axis=0) & (A < mid) & (mid < B)
        room = _LIMIT - count
        for p in np.nonzero(np.bincount(OWN[split], minlength=npieces) > room)[0]:
            idx = np.nonzero(split & (OWN == p))[0]
            worst = (ERR[:, idx] / share[:, idx]).max(axis=0)
            split[idx] = False
            split[idx[np.argsort(-worst, kind="stable")[:room[p]]]] = True
        if not split.any():
            break
        a = np.concatenate([A[split], mid[split]])
        b = np.concatenate([mid[split], B[split]])
        owner = np.concatenate([OWN[split], OWN[split]])
        keep = ~split
        A, B, OWN, VAL, ERR = A[keep], B[keep], OWN[keep], VAL[:, keep], ERR[:, keep]
    return total, errsum, bad, over, count


def _piece_sums(owner: np.ndarray, npieces: int, *values: np.ndarray) -> list[np.ndarray]:
    """Per row of each of ``values``, the sum over each piece's intervals, added
    in interval order (an infinite value stays in its own piece): one
    bincount of the flattened rows into bin ``row * npieces + owner``."""
    rows = values[0].shape[0]
    at = (np.arange(0, rows * npieces, npieces)[:, None] + owner).ravel()
    return [np.bincount(at, v.ravel(), rows * npieces).reshape(rows, npieces) for v in values]


def _aitken_column(seq: list[float]) -> list[float]:
    """One Aitken delta-squared pass, keeping only the applicable steps: those
    whose two differences are nonzero and contract by a ratio below
    ``_AITKEN_MAX_RATIO``."""
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        d1, d2 = b - a, c - b
        if d1 and d2 and abs(r := d2 / d1) < _AITKEN_MAX_RATIO:
            out.append(c + d2 * r / (1.0 - r))
    return out


def _growing(d: list[float], floor: float, ratio: float) -> bool:
    """The last three ladder diffs share a sign, the last is above ``floor``,
    and each is at least ``ratio`` times the one before it."""
    a, b, c = d[-3:]
    return (abs(c) > floor and (a > 0 and b > 0 and c > 0 or a < 0 and b < 0 and c < 0)
            and abs(c) >= ratio * abs(b) and abs(b) >= ratio * abs(a))


def _ladder(v: list[float], e: list[float], bad: list[float], stopped: list[bool],
            count: list[int], tol: float) -> QuadResult:
    """Classify one row from its piece sums, consumed in ladder order.

    A piece the ladder never reaches, past an early divergence exit, cannot
    change the outcome, whatever its values.
    """
    notes: list[str] = []
    vals: list[float] = []
    d: list[float] = []
    total = qerr = 0.0

    def result(value, error, status, detail="") -> QuadResult:
        return QuadResult(value, error, status, "; ".join(filter(None, [detail, *notes])),
                          tuple(vals))

    def two_ends() -> QuadResult | None:
        """Rule 4 at rung j, the strips of each end so far taken on their own."""
        ends = [(v[s:2 * j + 1:2], max(tol, 10.0 * sum(e[s:2 * j + 1:2]))) for s in (1, 2)]
        if j >= 3 and (ends[0][0][-1] > 0) != (ends[1][0][-1] > 0) and all(
                _growing(x, floor, _DIVERGENCE_MIN_RATIO) for x, floor in ends):
            return result(vals[-1], math.inf, QuadStatus.NO_CONVERGENCE,
                          "opposite-sign divergence at the two ends")
        return None

    def diverged(sign: float, detail: str) -> QuadResult:
        status = QuadStatus.DIVERGED_POSITIVE if sign > 0 else QuadStatus.DIVERGED_NEGATIVE
        return two_ends() or result(math.copysign(math.inf, sign), math.inf, status, detail)

    for j, eps in enumerate(EPS_LADDER):
        # rung 0 is the middle piece; each deeper rung adds its low and high
        # strip, and their error estimates join qerr as one sum
        rung_err = 0.0
        for p in (2 * j - 1, 2 * j) if j else (0,):
            if not math.isnan(bad[p]):
                return result(math.nan, math.inf, QuadStatus.NO_CONVERGENCE,
                              f"non-finite integrand value at an interior point (u={bad[p]:.6g})")
            if stopped[p]:
                notes.append(f"piece ({_LO[p]:.10g}, {_HI[p]:.10g}) stopped above its error budget "
                             f"at {count[p]} subintervals")
            total += v[p]
            rung_err += e[p]
        qerr += rung_err
        if vals:
            d.append(total - vals[-1])
        vals.append(total)
        if j and abs(total) > MAGNITUDE_CAP:
            return diverged(total, f"magnitude cap {MAGNITUDE_CAP:g} exceeded at eps={eps:g}")
        # Fast-growing tails are classified early; the deepest strips of a
        # strongly divergent integrand are numerically meaningless anyway.
        if len(d) >= 3 and _growing(d, max(1e3 * tol, 10.0 * qerr), _FAST_GROWTH_RATIO):
            return diverged(d[-1], f"unbounded growth detected at eps={eps:g}")

    if opposed := two_ends():
        return opposed

    # Raw ladder criterion: successive rung values settled below tol.
    if abs(d[-1]) + qerr <= tol:
        return result((_aitken_column(vals[-3:]) or vals)[-1], abs(d[-1]) + qerr,
                      QuadStatus.CONVERGED)

    # Extrapolated tail: one, then two Aitken levels.  One level is exact for one
    # geometric component; the second only absorbs a much faster second one.
    col = vals
    for _ in range(2):
        col = _aitken_column(col)
        if len(col) >= 2 and abs(col[-1] - col[-2]) + qerr <= tol:
            return result(col[-1], abs(col[-1] - col[-2]) + qerr, QuadStatus.CONVERGED)

    # Monotone non-contracting growth with a consistent sign: divergent.
    if _growing(d, max(tol, 10.0 * qerr), _DIVERGENCE_MIN_RATIO):
        return diverged(d[-1], "monotone non-contracting ladder growth")

    return result(vals[-1], abs(d[-1]) + qerr, QuadStatus.NO_CONVERGENCE,
                  f"ladder did not settle: last diffs {d[-3:]}")


#: Rows from which a stack's ladder rows go through :func:`_settle` first.  On
#: a 2-core Xeon with numpy 2.4 the array pass took 110-120 us plus about 2 us
#: a row, the scalar ladder 12-14 us a row: they cross at 12 to 16 rows.
_ARRAY_ROWS = 12


def _aitken_steps(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_aitken_column` on the rows of ``col``, every step kept, and
    whether each applies."""
    d1, d2 = col[:, 1:-1] - col[:, :-2], col[:, 2:] - col[:, 1:-1]
    r = d2 / d1
    return col[:, 2:] + d2 * r / (1.0 - r), (d1 != 0) & (d2 != 0) & (np.abs(r) < _AITKEN_MAX_RATIO)


def _cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, from zero as ``_ladder``'s ``0.0 + x``
    is (it reads -0.0 as 0.0)."""
    return np.cumsum(np.concatenate([np.zeros(x.shape[:-1] + (1,)), x], axis=-1), axis=-1)[..., 1:]


def _ends(x: np.ndarray) -> np.ndarray:
    """The strips of each row as (rows, 2, strips): the low ones, then the high."""
    return x[:, 1:].reshape(len(x), -1, 2).transpose(0, 2, 1)


#: Per window of :func:`_settle`'s growth test, the ratio of :func:`_growing`:
#: fast growth (rule 3) from rung 3 on, then the two ends (rule 4).
_WINDOW_RATIO = np.array([_FAST_GROWTH_RATIO] * (len(EPS_LADDER) - 3) + [_DIVERGENCE_MIN_RATIO] * 2)


def _settle(v, e, bad, stopped, tol: float) -> list[QuadResult | None]:
    """Per row of the piece sums, its :func:`_ladder` result, or None where
    this pass leaves the row to ``_ladder``: one array pass over all rows.

    It settles a row where none of rules 1-4 fires at any rung and raw (5)
    settles, or Aitken-1 or Aitken-2 (6) settles with every step of its
    level applicable, so that the Aitken column is the one ``_ladder``
    builds.  Each sum is taken in ``_ladder``'s order, so a settled row gets
    its bits.  A comparison with nan is False, so a row with a non-finite
    sum is left to ``_ladder``.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = _cumsum(v)[:, ::2]
        qerr = _cumsum(np.concatenate([0.0 + e[:, :1], (0.0 + e[:, 1::2]) + e[:, 2::2]], axis=1))
        d = np.diff(vals, axis=1)
        # :func:`_growing` on windows of three: the diffs at each rung from 3
        # on against its qerr, and the last three low and high strips against
        # each end's strip errors
        w = np.concatenate([np.lib.stride_tricks.sliding_window_view(d, 3, axis=1),
                            _ends(v)[..., -3:]], axis=1)
        floor = np.concatenate([np.maximum(1e3 * tol, 10.0 * qerr[:, 3:]),
                                np.maximum(tol, 10.0 * _cumsum(_ends(e))[..., -1])], axis=1)
        a, b, c = np.abs(w).transpose(2, 0, 1)
        grows = ((c > floor) & ((w > 0).all(axis=2) | (w < 0).all(axis=2))
                 & (c >= _WINDOW_RATIO * b) & (b >= _WINDOW_RATIO * a))
        fired = (~np.isnan(bad).all(axis=1) | stopped.any(axis=1)            # rule 1
                 | (np.abs(vals[:, 1:]) > MAGNITUDE_CAP).any(axis=1)         # 2
                 | grows[:, :-2].any(axis=1)                                 # 3
                 | ((v[:, -2] > 0) != (v[:, -1] > 0)) & grows[:, -2] & grows[:, -1])  # 4
        # rules 5 and 6; raw takes the last Aitken-1 step where it applies
        q = qerr[:, -1]
        col1, step1 = _aitken_steps(vals)
        col2, step2 = _aitken_steps(col1)
        ok1 = step1.all(axis=1)
        errs = [np.abs(d[:, -1]) + q, np.abs(col1[:, -1] - col1[:, -2]) + q,
                np.abs(col2[:, -1] - col2[:, -2]) + q]
        raw, l1 = errs[0] <= tol, ok1 & (errs[1] <= tol)
        l2 = ok1 & step2.all(axis=1) & (errs[2] <= tol)
    value = np.where(raw, np.where(step1[:, -1], col1[:, -1], vals[:, -1]),
                     np.where(l1, col1[:, -1], col2[:, -1]))
    error = np.where(raw, errs[0], np.where(l1, errs[1], errs[2]))
    return [QuadResult(x, err, QuadStatus.CONVERGED, "", tuple(rung)) if done else None
            for done, x, err, rung in zip((~fired & (raw | l1 | l2)).tolist(), value.tolist(),
                                          error.tolist(), vals.tolist())]


#: The ladder's answer for a zero row, exactly 0.0 with zero error on every
#: piece, with no non-finite value and no stopped piece, whatever ``tol`` and
#: the counts: every rung is 0.0 and rule 5 holds.  A gap of a law that
#: declares its symmetry takes it without quadrature (``measures._structural``).
_ZERO_ROW = _ladder([0.0] * _LO.size, [0.0] * _LO.size, [math.nan] * _LO.size,
                    [False] * _LO.size, [0] * _LO.size, DEFAULT_TOL)


def _lift(f):
    """A scalar function as a one-row integrand, mapped over all nodes in one
    pass.  Only if an arithmetic error (overflow, division by zero) stops it
    are the nodes redone one by one, where a node that raises reads nan, a
    non-finite value, as in an array integrand: every piece is evaluated."""
    def value(x: float) -> float:
        try:
            return f(x)
        except ArithmeticError:
            return math.nan

    def F(x: np.ndarray) -> np.ndarray:
        try:
            return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)
        except ArithmeticError:
            return np.fromiter(map(value, x.tolist()), dtype=float, count=x.size)
    return F


def integrate_unit(f, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate the scalar function ``f`` over the open interval (0, 1)."""
    return integrate_support(f, (0.0, 1.0), tol)


def _combine(a: QuadResult, b: QuadResult) -> QuadResult:
    """The whole line from its two half-axis results, with both halves' notes,
    each half's prefixed with its interval: a half names its pieces and its
    nodes in its own (0, 1) coordinate."""
    head, value, error, status = "", math.nan, math.inf, QuadStatus.NO_CONVERGENCE
    if a.converged and b.converged:
        value, error = a.value + b.value, a.abs_error_estimate + b.abs_error_estimate
        status = QuadStatus.CONVERGED
    elif a.diverged and b.diverged and a.status is not b.status:
        head = "opposite-sign divergence of the two half-axis integrals"
    elif QuadStatus.NO_CONVERGENCE not in (a.status, b.status):
        div = a if a.diverged else b
        value, status = div.value, div.status
    notes = (f"{half}: {r.detail}" for half, r in (("(-inf, 0)", a), ("(0, inf)", b)) if r.detail)
    return QuadResult(value, error, status, "; ".join(filter(None, (head, *notes))),
                      a.ladder + b.ladder)


def integrate_support_stack(F, support: tuple[float, float],
                            tol: float = DEFAULT_TOL) -> list[QuadResult]:
    """Integrate every row of ``F`` over ``support``; either bound may be infinite.

    ``F`` maps an array of nodes to a (C, N) array, C integrands evaluated
    at the same N nodes, or to an (N,) array for one integrand.  Infinite
    ends are mapped to (0, 1) by the rational substitution x = a + t/(1-t)
    (mirrored for the left tail), finite intervals by an affine map, which on
    (0, 1) is the identity to the bit; the whole line is split at 0 into two
    half-axis ladders.  Each mapped row may blow up at either end of (0, 1):
    integrable singularities are resolved by extrapolating the trim ladder,
    non-integrable ones are reported as divergence with the sign of the growth.
    """
    a, b = support
    if not a < b:
        raise ValueError(f"support must be a nonempty interval, got {support}")
    a_inf = math.isinf(a)
    b_inf = math.isinf(b)
    if a_inf and b_inf:
        left = integrate_support_stack(F, (a, 0.0), tol / 2.0)
        right = integrate_support_stack(F, (0.0, b), tol / 2.0)
        return [_combine(lt, rt) for lt, rt in zip(left, right)]
    if not a_inf and not b_inf:
        width = b - a

        def g(t: np.ndarray) -> np.ndarray:
            return _stack(F, a + width * t) * width

    else:  # (a, inf) or (-inf, b)
        end, sign = (b, -1.0) if a_inf else (a, 1.0)

        def g(t: np.ndarray) -> np.ndarray:
            s = 1.0 - t
            return _stack(F, end + sign * (t / s)) / (s * s)

    check_tol(tol=tol)
    v, e, bad, stopped, count = _gk_pieces(g, tol / 50.0)
    count = count.tolist()
    settled = _settle(v, e, bad, stopped, tol) if len(v) >= _ARRAY_ROWS else [None] * len(v)
    return [done or _ladder(v[i].tolist(), e[i].tolist(), bad[i].tolist(), stopped[i].tolist(),
                            count, tol) for i, done in enumerate(settled)]


def integrate_support(f, support: tuple[float, float], tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate the scalar function ``f`` over ``support``, as one row of
    :func:`integrate_support_stack`."""
    return integrate_support_stack(_lift(f), support, tol)[0]
