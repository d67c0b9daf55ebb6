"""Laws of the n-th upper/lower k-record of an iid sequence.

The n-th upper k-record of X_1, X_2, ... is the value that becomes the k-th
largest observation when, for the n-th time, a new observation enters the
running top-k (for n = 1 this is the k-th largest of the first k draws,
i.e. their minimum).  Lower k-records mirror with the running bottom-k.

The analytic cdf of either record is a composition of the base cdf with the
kernel ``phi_n(u) = u^k * sum_{i<n} (-k log u)^i / i!``, which is also the
lower tail of a Poisson(-k log u) variable at n-1; the record density is
``phi_n'(p) * f`` with p the base sf (upper) or cdf (lower).  All record-level
measure integrals downstream are built from these two kernels.

The same identity is the sampler: phi_n(u) = P(exp(-G/k) < u) with
G ~ Gamma(n, 1), so p(R) has the law of exp(-G/k) and one Gamma draw and one
inversion give a record exactly (Dziubdziela & Kopocinski 1976; Arnold,
Balakrishnan & Nagaraja, *Records*, 1998).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dist import U_FLOOR, Distribution

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
    """Kernel u -> u^k * sum_{i=0}^{n-1} (-k log u)^i / i! on (0, 1).

    Nondecreasing, with limits 0 at 0+ and 1 at 1-.
    """

    n: int
    k: int

    def __post_init__(self):
        check_params(n=self.n, k=self.k)

    def __call__(self, u: float) -> float:
        if not 0.0 < u < 1.0:
            raise ValueError(f"phi is defined on open (0, 1), got u={u!r}")
        return float(self._eval(u))

    def _eval(self, x):
        """phi at one u or at each u of an array, in [0, 1]."""
        # partial sums accumulated ascending in i; log-domain fallback keeps
        # u^k * sum from turning into 0 * inf near u = 0
        u = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = -self.k * np.log(u)
            term = total = 1.0
            for i in range(1, self.n):
                term = term * (lam / i)
                total = total + term
            out = np.minimum(1.0, u ** self.k * total)
        if not lam.max() <= _LAM_DIRECT_MAX:
            far = (lam > _LAM_DIRECT_MAX) & (u >= 1e-300)
            lam_far = lam[far]
            g = (np.arange(self.n)[:, None] * np.log(lam_far)
                 - np.array([math.lgamma(i + 1) for i in range(self.n)])[:, None])
            m = g.max(axis=0, initial=-math.inf)
            s = np.exp(g - m).sum(axis=0)
            out[far] = np.minimum(1.0, np.exp(-lam_far + m + np.log(s)))
            out[u < 1e-300] = 0.0
        return out if np.ndim(x) else out[0]

    def at(self, u: float) -> float:
        """Closed-interval extension used by record cdfs: 0 at u<=0, 1 at u>=1."""
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        return float(self._eval(u))


@cache
def _record_weight(n: int, k: int, m: int):
    """k u^(k-1) (-k log u)^(n-1) / (n-1)!, the record density in u-space.
    m is unused: (n, k, m) is the kernel table's signature."""
    return lambda u: _weight(n, k, u, -np.log(u))


def _weight(n: int, k: int, u, L):
    """The record weight at u, with ``L`` = -log u given, so a caller can take it
    from the complement of u where u rounds to 1.  1/(n-1)! is taken in log
    space past n = 20; where the direct product is not a positive finite
    number (at large n it overflows, and 1/(n-1)! underflows past n = 171),
    the whole product is taken in the log domain."""
    inv_fact = 1.0 / math.factorial(n - 1) if n <= 20 else math.exp(-math.lgamma(n))
    lam = k * L
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = k * u ** (k - 1) * lam ** (n - 1) * inv_fact
        direct = (w > 0.0) & (w < math.inf)
        if not direct.all():
            log_w = math.log(k) - math.lgamma(n) + (k - 1) * np.log(u) + (n - 1) * np.log(lam)
            w = np.where(direct, w, np.exp(log_w))
    return w


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

    def pdf(self, x: float) -> float:
        """Record density; 0 outside the base support (closed-support convention)."""
        lo, hi = self.base.support
        if not lo < x < hi:
            return 0.0
        sf, cdf = self.base.sf(x), self.base.cdf(x)
        p, q = (sf, cdf) if self.side == "upper" else (cdf, sf)
        if p <= 0.0:
            # sf/cdf underflow deep in a tail, where the weight's log is undefined:
            # the (1, 1) record is the base law itself, any other density is 0 there
            return self.base.pdf(x) if self.n == self.k == 1 else 0.0
        # -log p from the complement q where p > 1/2: p itself rounds to 1 once q < 2^-53
        L = -np.log1p(-q) if p > 0.5 else -np.log(p)
        return _weight(self.n, self.k, p, L) * self.base.pdf(x)

    def cdf(self, x: float) -> float:
        if self.side == "upper":
            return 1.0 - self._phi.at(self.base.sf(x))
        return self._phi.at(self.base.cdf(x))


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
