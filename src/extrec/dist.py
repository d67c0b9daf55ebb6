"""Catalog of analytic continuous distributions.

Each law exposes ``pdf``/``cdf``/``sf``/``quantile``/``isf`` together with the
density-quantile function ``dqf(u) = f(F^-1(u))`` and its complement form
``dqf_c(u) = f(F^-1(1-u))``.  The complement is a first-class method because
every quantile-space integral downstream needs it evaluated without the
catastrophic cancellation of computing ``1 - u`` first; catalog members
provide closed forms (for symmetric laws it coincides with ``dqf`` exactly).
``quantile``, ``isf``, ``dqf`` and ``dqf_c`` take one u or an array of them, so
the quadrature and the samplers make one call per array.  Each checks u once,
on :class:`Distribution`, and calls its hook (``_quantile``, ``_isf``, ``_dqf``,
``_dqf_c``); closed forms go in the hooks, which receive u already checked.
Catalog laws write each hook once in numpy; a law defined by ``pdf``/``cdf``
alone gets all four lifted by :func:`lift` over one inverter, which always
reads the smaller tail: the sf at 1 - u for a quantile at u above 1/2.

Spec-string grammar (see :func:`make_distribution`)::

    name
    name:key=value
    name:key=value,key=value

Keys are case-sensitive, values are decimal literals (scientific notation
accepted).  Catalog: ``uniform``, ``exponential(rate)``, ``power(theta)``,
``pareto(theta)``, ``normal(mu, sigma)``, ``laplace(mu, b)``,
``logistic(mu, s)``.
"""

from __future__ import annotations

import math
import statistics
import struct
from dataclasses import dataclass, fields
from functools import partial
from typing import ClassVar

import numpy as np

__all__ = [
    "DistributionError",
    "SpecParseError",
    "Distribution",
    "Uniform",
    "Exponential",
    "PowerFunction",
    "Pareto",
    "Normal",
    "Laplace",
    "Logistic",
    "Scaled",
    "CATALOG",
    "make_distribution",
    "lift",
    "sample",
    "scale",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
#: standard normal; its inv_cdf (Wichura's AS 241) is the normal quantile
_STD_NORMAL = statistics.NormalDist()
#: Floor of every uniform fed to an inverse transform: a generator's uniforms
#: lie in [0, 1), and quantile takes only the open (0, 1).
U_FLOOR = 2.0 ** -53


class DistributionError(ValueError):
    """Invalid distribution parameter or argument."""


class SpecParseError(DistributionError):
    """Malformed or out-of-domain distribution spec string."""


class Distribution:
    """Continuous law over an open interval support.

    Subclasses provide ``pdf``/``cdf`` and the support.  ``quantile``, ``isf``,
    ``dqf`` and ``dqf_c`` check that u lies strictly inside (0, 1) and call
    the hooks ``_quantile``, ``_isf``, ``_dqf``, ``_dqf_c``, where closed forms
    go; a hook gets u, one value or an array, already checked.  The generic
    ``_quantile`` and ``_isf`` invert the cdf or the sf, whichever tail is the
    smaller, by bisection of the bracket's width to 1e-12 relative, then
    over the floats left in it down to two adjacent ones, one value at a
    time; unless a law defines ``sf``, it is ``1 - cdf`` and ``isf`` raises
    on p below 2^-53.  ``_dqf`` is
    ``pdf(quantile(u))``, ``_dqf_c`` is ``pdf(isf(u))``.  That costs a
    bisection per u, so :mod:`extrec.measures` integrates a law whose
    ``_quantile`` is this generic one in x, from ``pdf``, ``cdf`` and ``sf``,
    with no quantile but its median; only a ``K/dqf`` gap on a support with
    an infinite end stays in u.
    All instances are immutable and safe for concurrent use.
    """

    name: ClassVar[str] = "distribution"

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def params(self) -> dict[str, float]:
        return {}

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def sf(self, x: float) -> float:
        """Survival function; override when 1 - cdf loses the right tail."""
        return 1.0 - self.cdf(x)

    def quantile(self, u):
        """F^-1(u), u in (0, 1); one u or an array."""
        _check_unit_open(u)
        return self._quantile(u)

    def isf(self, p):
        """Inverse survival function: the x with sf(x) = p, p in (0, 1); one p or
        an array.  Catalog laws give a closed form that keeps small p exact."""
        _check_unit_open(p)
        return self._isf(p)

    def dqf(self, u):
        """Density-quantile function f(F^-1(u)), u in (0, 1); one u or an array."""
        _check_unit_open(u)
        return self._dqf(u)

    def dqf_c(self, u):
        """Complement form f(F^-1(1-u)), u in (0, 1); one u or an array."""
        _check_unit_open(u)
        return self._dqf_c(u)

    def _quantile(self, u):
        return lift(partial(self._invert, upper=False), u)

    def _isf(self, p):
        return lift(partial(self._invert, upper=True), p)

    def _dqf(self, u):
        return lift(self.pdf, self.quantile(u))

    def _dqf_c(self, u):
        return lift(self.pdf, self.isf(u))

    def _invert(self, p: float, upper: bool) -> float:
        """The x with cdf(x) = p, or sf(x) = p if ``upper``: the least float x
        with cdf(x) >= p (sf(x) <= p).  A p above 1/2 is read on the other
        tail, where 1 - p is exact.  Bisection halves the bracket's width
        until it is 1e-12 wide relative to its ends or to 1, then halves the
        count of floats in it down to two adjacent ones, so an answer near 0
        keeps its relative precision while every probe stays near the answer."""
        if p > 0.5:
            p, upper = 1.0 - p, not upper
        if upper and p < U_FLOOR and type(self).sf is Distribution.sf:
            raise DistributionError(f"isf: {self.name} has no sf, so no p < 2^-53: got {p!r}")
        g, s = (self.sf, -1.0) if upper else (self.cdf, 1.0)
        t = s * p  # s * g is nondecreasing with derivative pdf
        lo, hi = self._bracket(g if s > 0.0 else lambda x: -g(x), t)
        for _ in range(200):
            if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if s * g(mid) < t:
                lo = mid
            else:
                hi = mid
        lo, hi = _ordinal(lo), _ordinal(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if s * g(_from_ordinal(mid)) < t:
                lo = mid
            else:
                hi = mid
        return _from_ordinal(hi)

    def _bracket(self, g, t: float) -> tuple[float, float]:
        lo, hi = self.support
        if math.isinf(lo):
            lo = min(hi, 0.0) - 1.0 if math.isinf(hi) else hi - 1.0
            step = 1.0
            while g(lo) > t:
                lo -= step
                step *= 2.0
        if math.isinf(hi):
            hi = max(lo, 0.0) + 1.0
            step = 1.0
            while g(hi) < t:
                hi += step
                step *= 2.0
        return lo, hi

    def spec_string(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={_spec_number(v)}" for k, v in self.params.items())
        return f"{self.name}:{inner}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string()!r})"


def _spec_number(v: float) -> str:
    """``v`` as a spec writes it: ``{v:g}`` where that parses back to v, else
    the shortest string that does."""
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))


def _ordinal(x: float) -> int:
    """x's place in the order of the floats: its bit pattern, negated below 0."""
    n = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return -n if x < 0.0 else n


def _from_ordinal(n: int) -> float:
    return math.copysign(struct.unpack("<d", struct.pack("<q", abs(n)))[0], n)


def _check_unit_open(u) -> None:
    """Every u, one value or an array, lies strictly inside (0, 1)."""
    if isinstance(u, np.ndarray):  # np.ndim would cost more than the scalar check
        inside = (u > 0.0) & (u < 1.0)
        if inside.all():
            return
        u = float(u[~inside].flat[0])
    elif 0.0 < u < 1.0:
        return
    raise DistributionError(f"u must lie strictly inside (0, 1), got {u!r}")


def lift(fn, x):
    """``fn`` of one value, applied to each element of an array ``x``; a plain
    call when ``x`` is a single value."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


@dataclass(frozen=True, repr=False)
class _CatalogLaw(Distribution):
    """A catalog law: its dataclass fields are its ``params``, in spec order,
    and its ``support`` is a class constant.

    One check covers every field: ``mu`` must be finite, every other
    parameter must be > 0 and finite.
    """

    def __post_init__(self):
        params = self.params
        for key, v in params.items():
            if key != "mu" and not (v > 0 and math.isfinite(v)):
                raise DistributionError(f"{self.name}: {key} must be > 0, got {v}")
        if not math.isfinite(params.get("mu", 0.0)):
            raise DistributionError(f"{self.name}: mu must be finite, got {params['mu']}")

    @property
    def params(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, repr=False)
class Uniform(_CatalogLaw):
    """Uniform law on (0, 1)."""

    name: ClassVar[str] = "uniform"
    support: ClassVar[tuple[float, float]] = (0.0, 1.0)

    def pdf(self, x: float) -> float:
        return 1.0 if 0.0 < x < 1.0 else 0.0

    def cdf(self, x: float) -> float:
        return min(1.0, max(0.0, x))

    def _quantile(self, u):
        return u + 0.0  # a new array, not u

    def _isf(self, p):
        return 1.0 - p

    def _dqf(self, u):
        return 1.0 + 0.0 * u  # 1, in the shape of u

    _dqf_c = _dqf


@dataclass(frozen=True, repr=False)
class Exponential(_CatalogLaw):
    """Exponential law with the given rate; support (0, inf)."""

    rate: float = 1.0
    name: ClassVar[str] = "exponential"
    support: ClassVar[tuple[float, float]] = (0.0, math.inf)

    def pdf(self, x: float) -> float:
        return self.rate * math.exp(-self.rate * x) if x > 0.0 else 0.0

    def cdf(self, x: float) -> float:
        return -math.expm1(-self.rate * x) if x > 0.0 else 0.0

    def sf(self, x: float) -> float:
        return math.exp(-self.rate * x) if x > 0.0 else 1.0

    def _quantile(self, u):
        return -np.log1p(-u) / self.rate

    def _isf(self, p):
        return -np.log(p) / self.rate

    def _dqf(self, u):
        return self.rate * (1.0 - u)

    def _dqf_c(self, u):
        return self.rate * u


@dataclass(frozen=True, repr=False)
class PowerFunction(_CatalogLaw):
    """Power-function law: density theta * x^(theta-1) on (0, 1)."""

    theta: float = 1.0
    name: ClassVar[str] = "power"
    support: ClassVar[tuple[float, float]] = (0.0, 1.0)

    def pdf(self, x: float) -> float:
        return self.theta * x ** (self.theta - 1.0) if 0.0 < x < 1.0 else 0.0

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return min(1.0, x ** self.theta)

    def sf(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        return -math.expm1(self.theta * math.log(x)) if x < 1.0 else 0.0

    def _quantile(self, u):
        return u ** (1.0 / self.theta)

    def _isf(self, p):
        return np.exp(np.log1p(-p) / self.theta)

    def _dqf(self, u):
        return self.theta * u ** ((self.theta - 1.0) / self.theta)

    def _dqf_c(self, u):
        return self.theta * (1.0 - u) ** ((self.theta - 1.0) / self.theta)


@dataclass(frozen=True, repr=False)
class Pareto(_CatalogLaw):
    """Pareto law: density theta * x^(-theta-1) on (1, inf)."""

    theta: float = 1.0
    name: ClassVar[str] = "pareto"
    support: ClassVar[tuple[float, float]] = (1.0, math.inf)

    def pdf(self, x: float) -> float:
        return self.theta * x ** (-self.theta - 1.0) if x > 1.0 else 0.0

    def cdf(self, x: float) -> float:
        return -math.expm1(-self.theta * math.log(x)) if x > 1.0 else 0.0

    def sf(self, x: float) -> float:
        return x ** -self.theta if x > 1.0 else 1.0

    def _quantile(self, u):
        return (1.0 - u) ** (-1.0 / self.theta)

    def _isf(self, p):
        return np.power(p, -1.0 / self.theta)  # the same pow for one p and an array

    def _dqf(self, u):
        return self.theta * (1.0 - u) ** ((self.theta + 1.0) / self.theta)

    def _dqf_c(self, u):
        return self.theta * u ** ((self.theta + 1.0) / self.theta)


@dataclass(frozen=True, repr=False)
class Normal(_CatalogLaw):
    """Normal law with mean mu and standard deviation sigma."""

    mu: float = 0.0
    sigma: float = 1.0
    name: ClassVar[str] = "normal"
    support: ClassVar[tuple[float, float]] = (-math.inf, math.inf)

    def pdf(self, x: float) -> float:
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    def cdf(self, x: float) -> float:
        z = (x - self.mu) / self.sigma
        return 0.5 * math.erfc(-z / _SQRT2)

    def sf(self, x: float) -> float:
        z = (x - self.mu) / self.sigma
        return 0.5 * math.erfc(z / _SQRT2)

    def _quantile(self, u):
        return self.mu + self.sigma * lift(_STD_NORMAL.inv_cdf, u)

    def _isf(self, p):
        return self.mu - self.sigma * lift(_STD_NORMAL.inv_cdf, p)

    def _dqf(self, u):
        z = lift(_STD_NORMAL.inv_cdf, u)
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    _dqf_c = _dqf  # symmetric about mu: f(F^-1(1-u)) == f(F^-1(u))


@dataclass(frozen=True, repr=False)
class Laplace(_CatalogLaw):
    """Laplace law with location mu and scale b."""

    mu: float = 0.0
    b: float = 1.0
    name: ClassVar[str] = "laplace"
    support: ClassVar[tuple[float, float]] = (-math.inf, math.inf)

    def pdf(self, x: float) -> float:
        return math.exp(-abs(x - self.mu) / self.b) / (2.0 * self.b)

    def cdf(self, x: float) -> float:
        z = (x - self.mu) / self.b
        return 0.5 * math.exp(z) if z < 0.0 else 1.0 - 0.5 * math.exp(-z)

    def sf(self, x: float) -> float:
        z = (x - self.mu) / self.b
        return 0.5 * math.exp(-z) if z > 0.0 else 1.0 - 0.5 * math.exp(z)

    def _quantile(self, u):
        return self.mu + self.b * np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))

    def _isf(self, p):
        return self.mu - self.b * np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))

    def _dqf(self, u):
        return np.minimum(u, 1.0 - u) / self.b

    _dqf_c = _dqf


@dataclass(frozen=True, repr=False)
class Logistic(_CatalogLaw):
    """Logistic law with location mu and scale s."""

    mu: float = 0.0
    s: float = 1.0
    name: ClassVar[str] = "logistic"
    support: ClassVar[tuple[float, float]] = (-math.inf, math.inf)

    def pdf(self, x: float) -> float:
        t = math.exp(-abs(x - self.mu) / self.s)
        return t / (self.s * (1.0 + t) ** 2)

    def cdf(self, x: float) -> float:
        z = (x - self.mu) / self.s
        if z >= 0.0:
            return 1.0 / (1.0 + math.exp(-z))
        t = math.exp(z)
        return t / (1.0 + t)

    def sf(self, x: float) -> float:
        return self.cdf(2.0 * self.mu - x)

    def _quantile(self, u):
        return self.mu + self.s * (np.log(u) - np.log1p(-u))

    def _isf(self, p):
        return self.mu - self.s * (np.log(p) - np.log1p(-p))

    def _dqf(self, u):
        return u * (1.0 - u) / self.s

    _dqf_c = _dqf


@dataclass(frozen=True, repr=False)
class Scaled(Distribution):
    """Law of a*X for a base law X and a > 0; used for scale-covariance checks."""

    base: Distribution = None  # type: ignore[assignment]
    a: float = 1.0
    name: ClassVar[str] = "scaled"

    def __post_init__(self):
        if self.base is None:
            raise DistributionError("scaled: base distribution required")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise DistributionError(f"scaled: a must be > 0, got {self.a}")

    @property
    def support(self) -> tuple[float, float]:
        lo, hi = self.base.support
        return (self.a * lo, self.a * hi)

    @property
    def params(self) -> dict[str, float]:
        return {"a": self.a, **{f"base_{k}": v for k, v in self.base.params.items()}}

    def pdf(self, x: float) -> float:
        return self.base.pdf(x / self.a) / self.a

    def cdf(self, x: float) -> float:
        return self.base.cdf(x / self.a)

    def sf(self, x: float) -> float:
        return self.base.sf(x / self.a)

    def _quantile(self, u):
        return self.a * self.base.quantile(u)

    def _isf(self, p):
        return self.a * self.base.isf(p)

    def _dqf(self, u):
        return self.base.dqf(u) / self.a

    def _dqf_c(self, u):
        return self.base.dqf_c(u) / self.a


def scale(d: Distribution, a: float) -> Scaled:
    return Scaled(base=d, a=a)


CATALOG: dict[str, type[Distribution]] = {
    cls.name: cls
    for cls in (Uniform, Exponential, PowerFunction, Pareto, Normal, Laplace, Logistic)
}


def make_distribution(spec: str) -> Distribution:
    """Build a catalog member from a spec string like ``power:theta=2``.

    Raises :class:`SpecParseError` on unknown names, malformed key=value
    pairs, or parameters outside their domain.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise SpecParseError(f"empty distribution spec {spec!r}")
    name, sep, rest = spec.strip().partition(":")
    cls = CATALOG.get(name)
    if cls is None:
        known = ", ".join(sorted(CATALOG))
        raise SpecParseError(f"unknown distribution {name!r}; expected one of: {known}")
    kwargs: dict[str, float] = {}
    if sep:
        valid = {f.name for f in fields(cls)}
        for item in rest.split(","):
            key, eq, raw = item.partition("=")
            key = key.strip()
            if not eq or not key or not raw.strip():
                raise SpecParseError(f"malformed parameter {item!r} in spec {spec!r}; expected key=value")
            if key not in valid:
                raise SpecParseError(f"unknown parameter {key!r} for {name!r}; expected one of: "
                                     + ", ".join(sorted(valid)))
            if key in kwargs:
                raise SpecParseError(f"duplicate parameter {key!r} in spec {spec!r}")
            try:
                val = float(raw.strip())
            except ValueError:
                raise SpecParseError(f"parameter {key!r} has non-decimal value {raw.strip()!r}") from None
            kwargs[key] = val
    try:
        return cls(**kwargs)
    except DistributionError as exc:
        raise SpecParseError(f"bad parameters in spec {spec!r}: {exc}") from None


def sample(d: Distribution, count: int, seed: int) -> np.ndarray:
    """``count`` iid draws from ``d`` by inverse transform; deterministic in ``seed``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    u = np.random.default_rng(seed).random(count)
    np.maximum(u, U_FLOOR, out=u)
    return d.quantile(u)
