"""Laws of the n-th upper/lower k-record of an iid sequence.

The n-th upper k-record of X_1, X_2, ... is the value that becomes the k-th
largest observation when, for the n-th time, a new observation enters the
running top-k (for n = 1 this is the k-th largest of the first k draws,
i.e. their minimum).  Lower k-records mirror with the running bottom-k.

Both records share one law in u = p(x), the base sf (upper) or cdf (lower):
with N ~ Poisson(-k log u), ``phi_n(u) = u^k sum_{i<n} (-k log u)^i / i!`` is
P(N < n), the lower record's cdf; P(N >= n) is the upper record's; and the
density of phi, the record weight, times f is the record density.
:class:`PhiKernel` holds all three.  With L = -log u, phi^m, u phi, the
weight and u^p are each a :class:`Kernel` ``(u^b P(L))^m u^e``, P with
coefficients >= 0, and one evaluator, :class:`_Stack`, takes every kernel.

The same identity is the sampler: phi_n(u) = P(exp(-G/k) < u) with
G ~ Gamma(n, 1), so p(R) has the law of exp(-G/k) and one Gamma draw and one
inversion give a record exactly (Dziubdziela & Kopocinski 1976; Arnold,
Balakrishnan & Nagaraja, *Records*, 1998).
"""

from __future__ import annotations

import functools
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

#: Largest b*L = -b log u at which a base u^b P(L) is evaluated directly;
#: past it u^b is near underflow while P(L) can overflow for large n, so the
#: base is summed in the log domain.
_LAM_DIRECT_MAX = 680.0

#: Logs of the smallest normal and the largest float: a base with a
#: coefficient outside them is summed in the log domain at every node.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HUGE = math.log(np.finfo(float).max)

#: Largest batch of the record scan's stream, and the length of its one buffer.
_MAX_BATCH = 65536


def check_params(**values) -> None:
    """The one check of record parameters and counts: ``side`` in SIDES, every
    other label (n, k, m, a grid bound, a count) an integer >= 1, not a bool."""
    for label, v in values.items():
        if label == "side":
            if v not in SIDES:
                raise ValueError(f"side must be one of {SIDES}, got {v!r}")
        elif not (isinstance(v, int) and not isinstance(v, bool) and v >= 1):
            raise ValueError(f"{label} must be an integer >= 1, got {v!r}")


@dataclass(frozen=True)
class Kernel:
    """K(u) = (u^b P(L))^m u^e on [0, 1], L = -log u, P(L) = sum_j exp(logc[j]) L^j,
    at one u or an array of them; ``L`` is -log u where a caller takes it from 1 - u."""

    b: int
    logc: tuple[float, ...]
    m: int = 1
    e: int = 0

    def __call__(self, u, L=None):
        out = self.alone(np.array(u, float, ndmin=1), L if L is None else np.array(L, float, ndmin=1))
        return out[0] if np.ndim(u) else out[0, 0]

    @cached_property
    def alone(self) -> _Stack:
        """This kernel's one-kernel stack, built on first use and kept with it."""
        return _Stack((self,))


@functools.cache
def phi_power(n: int, k: int, m: int = 1, e: int = 0) -> Kernel:
    """phi_{n,k}(u)^m u^e, with phi's P(L) = sum_{i<n} (kL)^i / i!; phi_{1,k}(u)
    is u^k, so n = 1 is the power u^(km + e)."""
    if n == 1:
        return Kernel(k * m + e, (0.0,))
    return Kernel(k, tuple(i * math.log(k) - math.lgamma(i + 1) for i in range(n)), m, e)


def u_phi(n: int, k: int, m: int = 1) -> Kernel:
    """u phi_{n,k}(u); m is unused."""
    return phi_power(n, k, 1, 1)


@functools.cache
def weight(n: int, k: int, m: int = 1) -> Kernel:
    """The record weight k u^(k-1) (kL)^(n-1) / (n-1)!, the density of
    phi_{n,k} and the record density in u-space; m is unused."""
    return Kernel(k - 1, (-math.inf,) * (n - 1) + (n * math.log(k) - math.lgamma(n),))


class _Stack(tuple):
    """Kernels, in row order, called on the nodes u as one row per kernel.

    Each call evaluates each distinct base u^b P(L) once: one Horner pass in
    L over all of them, sorted by degree so that each starts from its own
    leading coefficient, then one ``u ** b`` per distinct b; each row then
    takes its power m and its factor u^e, so a row gets the same bits in any
    stack.  A base of degree >= 1 is exp(-bL + logsumexp_j(logc[j] + j log L))
    where b L > _LAM_DIRECT_MAX, where its direct value is not positive and
    finite, and everywhere if a coefficient is not a normal float; at u = 0 it
    takes its limit.  A base with each coefficient at most b^j / j!, as phi's,
    is at most u^b e^(bL) = 1, and is capped there."""

    def __init__(self, kernels):
        bases = sorted({(K.b, K.logc) for K in self}, key=lambda base: -len(base[1]))
        at = {base: i for i, base in enumerate(bases)}
        self.rows = [(at[K.b, K.logc], K.m, K.e) for K in self]
        degree = [len(logc) - 1 for _, logc in bases]
        # a coefficient that is not a normal float is nan, so its base's direct value is
        # never positive and finite, and the base is summed in the log domain everywhere
        self.coef = np.array([[math.exp(c) if c == -math.inf or _LOG_TINY <= c <= _LOG_HUGE
                               else math.nan for c in logc]
                              + [0.0] * (degree[0] - len(logc) + 1) for _, logc in bases])
        # per j: the bases of degree above j, which go on, and those of degree j, which start
        self.horner = [(j, sum(d > j for d in degree), sum(d >= j for d in degree))
                       for j in range(degree[0], -1, -1)]
        self.powers = {b: [i for i, (c, _) in enumerate(bases) if c == b] for b, _ in bases if b}
        self.poly = [base for base in bases if len(base[1]) > 1]  # degree >= 1, the first rows
        self.capped = [i for i, (b, logc) in enumerate(self.poly) if b > 0 and all(
            c <= j * math.log(b) - math.lgamma(j + 1) for j, c in enumerate(logc))]
        self.bmax = max((b for b, _ in self.poly), default=0)
        self.factors = {e for _, _, e in self.rows if e}

    def __call__(self, u: np.ndarray, L: np.ndarray | None = None) -> np.ndarray:
        base = np.empty((len(self.coef), u.size))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.poly and L is None:
                L = -np.log(u)
            for j, go, start in self.horner:
                if go:
                    base[:go] *= L
                    base[:go] += self.coef[:go, j, None]
                base[go:start] = self.coef[go:start, j, None]
            for b, rows in self.powers.items():
                ub = u ** b
                for i in rows:
                    base[i] *= ub
            if self.poly:
                top, poly = L.max(), base[:len(self.poly)]
                if (top * self.bmax > _LAM_DIRECT_MAX
                        or not (poly.min() > 0.0 and poly.max() < math.inf)):
                    for row, (b, logc) in zip(poly, self.poly):
                        far = ~((row > 0.0) & (row < math.inf))
                        if b * top > _LAM_DIRECT_MAX:
                            far |= b * L > _LAM_DIRECT_MAX
                        if far.any():
                            row[far] = _log_base(b, logc, L[far])
                for i in self.capped:
                    np.minimum(poly[i], 1.0, out=poly[i])
            ue = {e: u ** e for e in self.factors}
            out = np.empty((len(self), u.size))
            for row, (i, m, e) in zip(out, self.rows):
                if m == 1:
                    row[:] = base[i]
                else:
                    np.power(base[i], m, out=row)
                if e:
                    row *= ue[e]
        return out


def stack(kernels: tuple[Kernel, ...]) -> _Stack:
    """The stack of these kernels; one kernel's is the one kept on it."""
    return kernels[0].alone if len(kernels) == 1 else _Stack(kernels)


def _log_base(b: int, logc: tuple[float, ...], L: np.ndarray) -> np.ndarray:
    """exp(-bL + logsumexp_j(logc[j] + j log L)) over the nonzero terms of a
    base, and its limit at L = inf, u = 0: 0 for b > 0, inf for b = 0."""
    j = np.flatnonzero(np.array(logc) > -math.inf)
    g = np.take(logc, j)[:, None] + j[:, None] * np.log(L)
    if j[0] == 0:
        g[0] = logc[0]  # L^0 is 1 at L = 0 too
    peak = g.max(axis=0)
    peak[peak == -math.inf] = 0.0  # every term 0: L = 0 and no constant term
    out = np.exp(peak + np.log(np.exp(g - peak).sum(axis=0)) - b * L)
    out[L == math.inf] = 0.0 if b else math.inf
    return out


@dataclass(frozen=True)
class PhiKernel:
    """phi_n(u) = P(N < n) for N ~ Poisson(lam), lam = -k log u: nondecreasing
    on [0, 1] from 0 to 1.  phi and its density ``_weight`` are the kernels
    :func:`phi_power` and :func:`weight`, and ``_tail`` is 1 - phi without
    the cancellation.  ``L`` is -log u where a caller takes it from the
    complement of u."""

    n: int
    k: int

    def __post_init__(self):
        check_params(n=self.n, k=self.k)

    def __call__(self, u: float) -> float:
        _check_unit_open(u)
        return float(self._eval(u))

    def _eval(self, x, L=None):
        """phi at one u or at each u of an array, in [0, 1]."""
        return phi_power(self.n, self.k)(x, L)

    def _weight(self, u, L=None):
        """k u^(k-1) (-k log u)^(n-1) / (n-1)!, the density of phi."""
        return weight(self.n, self.k)(u, L)

    def _tail(self, lam: float) -> float:
        """P(N >= n) = 1 - phi for 0 < lam < n, without the cancellation: the
        terms from P(N = n), the largest, up until they stop adding."""
        term = total = math.exp(self.n * math.log(lam) - lam - math.lgamma(self.n + 1))
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
