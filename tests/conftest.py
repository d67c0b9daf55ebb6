import math
import os
from pathlib import Path

import numpy as np
import pytest

from extrec import quad, records, symmetry
from extrec.dist import (
    Distribution,
    Exponential,
    Laplace,
    Logistic,
    Normal,
    Pareto,
    PowerFunction,
    Uniform,
)

CATALOG_MEMBERS = [
    Uniform(),
    Exponential(rate=1.0),
    PowerFunction(theta=2.0),
    Pareto(theta=2.0),
    Normal(),
    Laplace(),
    Logistic(),
]

SYMMETRIC_MEMBERS = [Uniform(), Normal(), Laplace(), Logistic()]


class Kumaraswamy(Distribution):
    """cdf 1 - (1 - x^a)^b on (0, 1), defined by pdf and cdf only, so every
    quantile, dqf and dqf_c comes from the generic bisection path."""

    name = "kumaraswamy"

    def __init__(self, a, b):
        self.a, self.b = a, b

    @property
    def support(self):
        return (0.0, 1.0)

    def pdf(self, x):
        if not 0.0 < x < 1.0:
            return 0.0
        return self.a * self.b * x ** (self.a - 1.0) * (1.0 - x ** self.a) ** (self.b - 1.0)

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return -math.expm1(self.b * math.log1p(-x ** self.a))


class UserNormal(Distribution):
    """The standard normal as a user writes it: pdf, cdf and sf only."""

    name = "user_normal"
    support = (-math.inf, math.inf)

    def pdf(self, x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def cdf(self, x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def sf(self, x):
        return 0.5 * math.erfc(x / math.sqrt(2.0))


class UserNormalNoSf(UserNormal):
    """The same law without its own sf, so sf is the generic 1 - cdf."""

    name = "user_normal_no_sf"
    sf = Distribution.sf


class UserLogistic(Distribution):
    """The standard logistic as a user writes it: pdf, cdf and sf only."""

    name = "user_logistic"
    support = (-math.inf, math.inf)

    def pdf(self, x):
        t = math.exp(-abs(x))
        return t / (1.0 + t) ** 2

    def cdf(self, x):
        if x >= 0.0:
            return 1.0 / (1.0 + math.exp(-x))
        t = math.exp(x)
        return t / (1.0 + t)

    def sf(self, x):
        return self.cdf(-x)


class UserBeta22(Distribution):
    """Beta(2, 2), symmetric about 1/2 on a bounded support, as a user writes
    it: pdf, cdf and sf only."""

    name = "user_beta22"
    support = (0.0, 1.0)

    def pdf(self, x):
        return 6.0 * x * (1.0 - x) if 0.0 < x < 1.0 else 0.0

    def cdf(self, x):
        return x * x * (3.0 - 2.0 * x) if 0.0 < x < 1.0 else float(x >= 1.0)

    def sf(self, x):
        return (1.0 - x) ** 2 * (1.0 + 2.0 * x) if 0.0 < x < 1.0 else float(x <= 0.0)


REPO = Path(__file__).resolve().parents[1]


def cli_env(**extra) -> dict:
    """Environment for a CLI subprocess, which imports the checkout's extrec as
    the pytest process does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


@pytest.fixture(params=CATALOG_MEMBERS, ids=lambda d: d.spec_string())
def catalog_member(request):
    return request.param


@pytest.fixture
def integrand_rounds(monkeypatch):
    """The calls the quadrature core makes to its integrand, one per bisection
    round, each recorded as the number of nodes it asks for."""
    rounds, gk_pieces = [], quad._gk_pieces

    def counting(F, *args):
        def G(x):
            rounds.append(x.size)
            return F(x)
        return gk_pieces(G, *args)

    monkeypatch.setattr(quad, "_gk_pieces", counting)
    return rounds


def cold_stacks() -> None:
    """Drop the kept kernels and grid plans, so the next evaluation builds new
    stacks whose tables are empty, as in a fresh process."""
    symmetry._grid.cache_clear()
    records.phi_power.cache_clear()
    records.weight.cache_clear()


def ks_distance(values, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance of a sample against a cdf."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    F = np.fromiter((cdf(float(v)) for v in x), dtype=float, count=n)
    return float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(0, n) / n)))


def assert_close(actual, expected, tol, label=""):
    assert math.isfinite(actual), f"{label}: non-finite value {actual}"
    assert abs(actual - expected) < tol, f"{label}: |{actual} - {expected}| >= {tol}"
