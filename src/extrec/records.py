"""Laws of the n-th upper/lower k-record of an iid sequence.

The n-th upper k-record of X_1, X_2, ... is the value that becomes the k-th
largest observation when, for the n-th time, a new observation enters the
running top-k (for n = 1 this is the k-th largest of the first k draws,
i.e. their minimum).  Lower k-records mirror with the running bottom-k.

Both records share one law in u = p(x), the base sf (upper) or cdf (lower):
with N ~ Poisson(-k log u), ``phi_n(u) = u^k sum_{i<n} (-k log u)^i / i!`` is
P(N < n), the lower record's cdf; P(N >= n) is the upper record's; and the
density of phi, the record weight, times f is the record density.
:class:`PhiKernel` holds all three, and every record-level measure integral
downstream is built from phi and the weight.

The same identity is the sampler: phi_n(u) = P(exp(-G/k) < u) with
G ~ Gamma(n, 1), so p(R) has the law of exp(-G/k) and one Gamma draw and one
inversion give a record exactly (Dziubdziela & Kopocinski 1976; Arnold,
Balakrishnan & Nagaraja, *Records*, 1998).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import U_FLOOR, Distribution, _check_unit_open

__all__ = ["PhiKernel", "RecordLaw", "RecordSample", "simulate_records", "SIDES", "METHODS"]

SIDES = ("upper", "lower")
#: simulate_records methods: the exact Gamma inversion, and the definitional scan
METHODS = ("exact", "scan")

#: Largest -k*log(u) for which the plain ascending recurrence is safe; above
#: this the terms can overflow for large n and we switch to the log domain.
_LAM_DIRECT_MAX = 680.0

#: Largest batch of the record scan's stream, and the length of its one buffer.
_MAX_BATCH = 65536


def check_params(**values) -> None:
    """The one check of record parameters and counts: ``side`` in SIDES, every
    other label (n, k, m, a grid bound, a count) an integer >= 1."""
    for label, v in values.items():
        if label == "side":
            if v not in SIDES:
                raise ValueError(f"side must be one of {SIDES}, got {v!r}")
        elif not (isinstance(v, int) and v >= 1):
            raise ValueError(f"{label} must be an integer >= 1, got {v!r}")


@dataclass(frozen=True)
class PhiKernel:
    """phi_n(u) = P(N < n) for N ~ Poisson(lam), lam = -k log u: nondecreasing
    on [0, 1] from 0 to 1.  Its tail and density are ``_tail`` and ``_weight``,
    and each of the three falls back to the one log-domain Poisson term ``_log_pmf``.
    ``_partials`` gives phi_j for any j <= n from the pass that gives phi_n.
    ``L`` is -log u where a caller takes it from the complement of u."""

    n: int
    k: int

    def __post_init__(self):
        check_params(n=self.n, k=self.k)

    def __call__(self, u: float) -> float:
        _check_unit_open(u)
        return float(self._eval(u))

    @cached_property
    def _log_fact(self) -> np.ndarray:
        return np.array([math.lgamma(i + 1) for i in range(self.n + 1)])  # log i!, i <= n

    def _log_pmf(self, i, lam):
        """log P(N = i) for N ~ Poisson(lam), 0 <= i <= n: at an integer i, or at
        each i of an integer column against each lam of a row."""
        return i * np.log(lam) - lam - self._log_fact[i]

    def _eval(self, x, L=None):
        """phi at one u or at each u of an array, in [0, 1]."""
        out = self._partials(np.atleast_1d(np.asarray(x, dtype=float)), (self.n,), L)[0]
        return out if np.ndim(x) else out[0]

    def _partials(self, u: np.ndarray, ns, L=None) -> np.ndarray:
        """phi_{j,k} at each u of an array, one row for each j of ``ns`` (each
        at most n), from one pass of partial sums: phi_j's sum is the first j
        terms of phi_n's.  Past _LAM_DIRECT_MAX each j sums its own first j
        log-domain terms, so every row holds phi_{j,k} to the bit."""
        # partial sums ascending in i, which can overflow past _LAM_DIRECT_MAX
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = -self.k * np.log(u) if L is None else self.k * np.atleast_1d(L)
            term = total = 1.0
            sums = [total]
            for i in range(1, max(ns)):
                term = term * (lam / i)
                total = total + term
                sums.append(total)
            uk = u ** self.k
            out = np.minimum(1.0, [uk * sums[j - 1] for j in ns])
            if not lam.max() <= _LAM_DIRECT_MAX:  # there phi is summed in the log domain
                far = lam > _LAM_DIRECT_MAX
                g = self._log_pmf(np.arange(max(ns))[:, None], lam[far])
                for row, j in zip(out, ns):
                    top = g[:j].max(axis=0)
                    row[far] = np.minimum(1.0, np.exp(top + np.log(np.exp(g[:j] - top).sum(0))))
                out[:, lam == math.inf] = 0.0  # u = 0
        return out

    def _weight(self, u, L=None):
        """k u^(k-1) (-k log u)^(n-1) / (n-1)!, the density of phi, with 1/(n-1)! in log
        space past n = 20.  Where that is not a positive finite number (it overflows at
        large n; 1/(n-1)! underflows past n = 171) it is (k/u) P(N = n-1), in logs."""
        n, k = self.n, self.k
        inv_fact = 1.0 / math.factorial(n - 1) if n <= 20 else math.exp(-math.lgamma(n))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            L = -np.log(u) if L is None else np.asarray(L)
            lam = k * L
            w = k * u ** (k - 1) * lam ** (n - 1) * inv_fact
            direct = (w > 0.0) & (w < math.inf)
            if not np.all(direct):
                w = np.where(direct, w, np.exp(math.log(k) + L + self._log_pmf(n - 1, lam)))
        return w

    def _tail(self, lam: float) -> float:
        """P(N >= n) = 1 - phi for 0 < lam < n, without the cancellation: the
        terms from P(N = n), the largest, up until they stop adding."""
        term = total = math.exp(self._log_pmf(self.n, lam))
        j = self.n
        while term > 1e-17 * total:
            j += 1
            term *= lam / j
            total += term
        return total


@dataclass(frozen=True)
class RecordLaw:
    """Law of the n-th upper or lower k-record of iid draws from ``base``."""

    base: Distribution
    n: int
    k: int
    side: str = "upper"

    def __post_init__(self):
        check_params(n=self.n, k=self.k, side=self.side)

    @cached_property
    def _phi(self) -> PhiKernel:
        return PhiKernel(self.n, self.k)

    def _p_and_log(self, x: float) -> tuple[float, float]:
        """p(x), the base sf (upper) or cdf (lower), and -log p, from the complement q
        where p > 1/2 (p rounds to 1 once q < 2^-53); q is read only there."""
        upper = self.side == "upper"
        p = self.base.sf(x) if upper else self.base.cdf(x)
        if p > 0.5:
            return p, -math.log1p(-(self.base.cdf(x) if upper else self.base.sf(x)))
        return p, -math.log(p) if p > 0.0 else math.inf

    def pdf(self, x: float) -> float:
        """Record density; 0 outside the base support (closed-support convention)."""
        lo, hi = self.base.support
        if not lo < x < hi:
            return 0.0
        p, L = self._p_and_log(x)
        if p <= 0.0:
            # sf/cdf underflow deep in a tail, where the weight's log is undefined:
            # the (1, 1) record is the base law itself, any other density is 0 there
            return self.base.pdf(x) if self.n == self.k == 1 else 0.0
        return self._phi._weight(p, L) * self.base.pdf(x)

    def cdf(self, x: float) -> float:
        """Record cdf: phi_n(cdf(x)) for a lower record, and P(N >= n) for an upper
        one, which is 1 - phi_n(sf(x)) unless lam < n, where that would cancel."""
        if self.side == "lower":
            return float(self._phi._eval(self.base.cdf(x)))
        p, L = self._p_and_log(x)
        lam = self.k * L
        if lam >= self.n:
            return 1.0 - float(self._phi._eval(p, L))
        return self._phi._tail(lam) if lam > 0.0 else 0.0


@dataclass(frozen=True)
class RecordSample:
    """Simulated record values plus the number of realizations that hit the draw guard."""

    values: np.ndarray
    aborted: int


def _scan_one(n: int, k: int, upper: bool, rng: np.random.Generator, max_draws: int,
              buf: np.ndarray) -> float | None:
    """Literal definitional scan of one iid uniform stream until the n-th k-record;
    returns that record's uniform.  ``buf`` holds each batch of the stream."""
    first = np.maximum(rng.random(k), U_FLOOR)
    # min-heap of the k largest uniforms (sign-flipped for lower)
    top = (first if upper else -first).tolist()
    heapq.heapify(top)
    drawn = k
    seen = 1
    if seen == n:
        return top[0] if upper else -top[0]
    batch = 128
    while drawn < max_draws:
        m = min(batch, max_draws - drawn)
        us = rng.random(m, out=buf[:m])
        drawn += m
        # top[0] only rises, so the batch's candidates are the draws beyond its
        # value at batch start; each is rechecked in stream order.  Upper
        # candidates exceed top[0] >= U_FLOOR, so only lower ones need the floor.
        if upper:
            cand = us[us > top[0]]
        else:
            cand = -np.maximum(us[us < -top[0]], U_FLOOR)
        for x in cand.tolist():
            if x > top[0]:
                heapq.heapreplace(top, x)
                seen += 1
                if seen == n:
                    return top[0] if upper else -top[0]
        batch = min(batch * 2, _MAX_BATCH)
    return None


def _invert_gamma(base: Distribution, n: int, k: int, upper: bool, count: int,
                  seed: int) -> np.ndarray:
    """``count`` exact records: G ~ Gamma(n, 1) from ``default_rng(seed)``, and
    each record the inverse of whichever of p = exp(-G/k) and its complement
    q = -expm1(-G/k) is below 1/2."""
    t = np.random.default_rng(seed).standard_gamma(n, count) / k
    p, q = np.exp(-t), -np.expm1(-t)
    if not (p > 0.0).all():
        raise ValueError(f"the record probability exp(-G/k) underflows to 0 at n={n}, k={k}: "
                         f"the record lies beyond double precision")
    small = p < 0.5
    # p is the record's sf (upper) or cdf (lower), so a small p is inverted by
    # isf (upper) or quantile (lower), and a small q by the other one
    via_p, via_q = (base.isf, base.quantile) if upper else (base.quantile, base.isf)
    values = np.empty(count)
    with np.errstate(over="ignore"):  # a value off the open support raises below
        values[small] = via_p(p[small])
        values[~small] = via_q(q[~small])
    lo, hi = base.support
    if not ((lo < values) & (values < hi)).all():
        raise ValueError(f"a record value is not inside the open support ({lo:g}, {hi:g}) at "
                         f"n={n}, k={k}: it overflows or rounds onto an end of the support "
                         f"in double precision")
    return values


def simulate_records(base: Distribution, n: int, k: int, side: str, count: int,
                     seed: int, max_draws: int = 10_000_000,
                     method: str = "exact") -> RecordSample:
    """``count`` independent realizations of the n-th (upper|lower) k-record.

    ``method="exact"`` (the default) draws G ~ Gamma(n, 1) once per
    realization from ``default_rng(seed)``: the record's p (sf upper, cdf
    lower) has the law of exp(-G/k).  Each realization inverts whichever of
    p = exp(-G/k) and q = -expm1(-G/k) is below 1/2, through ``isf`` or
    ``quantile``, so both tails stay exact and no probability is rounded to
    0 or 1.  It never aborts; where p underflows to 0, or a record value
    overflows or rounds onto an end of the support (the closed end 1 of the
    uniform's upper records once p < 2^-54, say), it raises ValueError rather
    than clip.  ``max_draws`` is only checked.

    ``method="scan"`` is the definitional oracle.  Each realization scans its
    own iid stream of the uniforms that drive the inverse transform,
    maintaining the running top-k (bottom-k) and emitting the k-th extreme
    each time it changes.  The quantile is nondecreasing, so the records of
    F^-1(U) are F^-1 of the records of U: every record uniform goes through
    one ``quantile`` call at the end.  Realizations use seeds derived from
    ``(seed, index)``.  A realization whose stream exceeds ``max_draws`` is
    aborted and counted in ``aborted``; it is the most extreme records that
    are lost.

    Both methods are deterministic in ``seed``.
    """
    check_params(n=n, k=k, side=side, count=count)
    if max_draws < k:
        raise ValueError(f"max_draws must be >= k, got {max_draws}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    upper = side == "upper"
    if method == "exact":
        return RecordSample(values=_invert_gamma(base, n, k, upper, count, seed), aborted=0)
    buf = np.empty(_MAX_BATCH)
    us = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        u = _scan_one(n, k, upper, rng, max_draws, buf)
        if u is not None:
            us.append(u)
    return RecordSample(values=base.quantile(np.asarray(us, dtype=float)),
                        aborted=count - len(us))
