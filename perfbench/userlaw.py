"""A law defined only by its pdf and cdf, as a library user would write one.

It has no closed-form ``quantile``, ``dqf`` or ``dqf_c``, so every
quantile-form measure of it runs ``Distribution``'s generic bracketed
bisection.  No catalog law reaches that path.
"""

from __future__ import annotations

import math

from extrec.dist import Distribution


class Kumaraswamy(Distribution):
    """Kumaraswamy(a, b) on (0, 1): cdf 1 - (1 - x^a)^b; asymmetric unless a = b = 1."""

    name = "kumaraswamy"

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    @property
    def params(self) -> dict[str, float]:
        return {"a": self.a, "b": self.b}

    def pdf(self, x: float) -> float:
        if not 0.0 < x < 1.0:
            return 0.0
        return self.a * self.b * x ** (self.a - 1.0) * (1.0 - x ** self.a) ** (self.b - 1.0)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return -math.expm1(self.b * math.log1p(-x ** self.a))

    def sf(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        if x >= 1.0:
            return 0.0
        return math.exp(self.b * math.log1p(-x ** self.a))
