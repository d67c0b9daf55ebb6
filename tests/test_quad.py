import math
import re

import numpy as np
import pytest
from scipy.integrate import quad as quadpack

from extrec import quad as Q
from extrec.dist import Laplace
from extrec.quad import (QuadStatus, integrate_support, integrate_support_stack, integrate_unit,
                         integrate_unit_stack)

from conftest import assert_close


class TestIntegrateUnit:
    def test_smooth_linear(self):
        r = integrate_unit(lambda u: u)
        assert r.status is QuadStatus.CONVERGED
        assert_close(r.value, 0.5, 1e-10, "int u du")

    def test_endpoint_singularity_sqrt(self):
        # antiderivative 2*sqrt(u); integrable endpoint singularity
        r = integrate_unit(lambda u: u ** -0.5, tol=1e-6)
        assert r.status is QuadStatus.CONVERGED
        assert_close(r.value, 2.0, 1e-6, "int u^-1/2 du")

    def test_log_divergence_at_one(self):
        r = integrate_unit(lambda u: 1.0 / (1.0 - u))
        assert r.status is QuadStatus.DIVERGED_POSITIVE
        assert r.value == math.inf

    def test_negative_divergence(self):
        r = integrate_unit(lambda u: -1.0 / u)
        assert r.status is QuadStatus.DIVERGED_NEGATIVE
        assert r.value == -math.inf

    def test_fast_divergence_hits_cap(self):
        r = integrate_unit(lambda u: u ** -5.0)
        assert r.status is QuadStatus.DIVERGED_POSITIVE

    def test_interior_non_finite_value(self):
        def f(u):
            return math.nan if 0.3 < u < 0.4 else 1.0

        r = integrate_unit(f)
        assert r.status is QuadStatus.NO_CONVERGENCE
        assert "non-finite" in r.detail

    def test_converged_error_estimate_below_tol(self):
        for f in (lambda u: u * u, lambda u: u ** -0.25, lambda u: math.exp(u)):
            r = integrate_unit(f, tol=1e-8)
            assert r.status is QuadStatus.CONVERGED
            assert r.abs_error_estimate <= 1e-8

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_unit(lambda u: u, tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
    def test_tol_must_be_positive_and_finite(self, tol):
        # at tol=inf the raw ladder criterion would accept the first rung of u^-1/2
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            integrate_unit(lambda u: u ** -0.5, tol=tol)

    def test_linearity_spot_check(self):
        tol = 1e-8
        f = lambda u: u ** 2
        g = lambda u: math.sin(u)
        a, b = 2.5, -1.25
        rf = integrate_unit(f, tol)
        rg = integrate_unit(g, tol)
        rc = integrate_unit(lambda u: a * f(u) + b * g(u), tol)
        assert all(r.status is QuadStatus.CONVERGED for r in (rf, rg, rc))
        assert abs(rc.value - (a * rf.value + b * rg.value)) < 10 * tol


class TestIntegrateSupport:
    def test_exponential_decay(self):
        r = integrate_support(lambda x: math.exp(-x), (0.0, math.inf))
        assert r.status is QuadStatus.CONVERGED
        assert_close(r.value, 1.0, 1e-8, "int e^-x")

    def test_exponential_decay_rate2(self):
        r = integrate_support(lambda x: math.exp(-2.0 * x), (0.0, math.inf))
        assert_close(r.value, 0.5, 1e-8, "int e^-2x")

    def test_divergent_tail(self):
        # integrand tends to 1 at infinity
        r = integrate_support(lambda x: (1.0 - math.exp(-x)) ** 2, (0.0, math.inf))
        assert r.status is QuadStatus.DIVERGED_POSITIVE

    def test_finite_interval_affine(self):
        r = integrate_support(lambda x: x * x, (1.0, 3.0))
        assert_close(r.value, 26.0 / 3.0, 1e-8, "int x^2 on (1,3)")

    def test_left_tail(self):
        r = integrate_support(lambda x: math.exp(x), (-math.inf, 0.0))
        assert_close(r.value, 1.0, 1e-8, "int e^x on (-inf,0)")

    def test_doubly_infinite_gaussian(self):
        r = integrate_support(lambda x: math.exp(-x * x), (-math.inf, math.inf))
        assert r.status is QuadStatus.CONVERGED
        assert_close(r.value, math.sqrt(math.pi), 1e-8, "Gaussian integral")

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            integrate_support(lambda x: x, (2.0, 2.0))


def test_quantile_support_duality(catalog_member):
    """Survival-squared over the support equals u^2/dqf(1-u) over (0,1)."""
    d = catalog_member
    r_support = integrate_support(lambda x: d.sf(x) ** 2, d.support, 1e-8)
    r_quantile = integrate_unit(lambda u: u * u / d.dqf_c(u), 1e-8)
    if r_support.status is QuadStatus.CONVERGED and r_quantile.status is QuadStatus.CONVERGED:
        assert abs(r_support.value - r_quantile.value) < 1e-6


class TestCore:
    def test_rows_match_one_at_a_time(self):
        rows = (lambda u: u ** -0.5, lambda u: np.exp(u), lambda u: 1.0 / (1.0 - u),
                lambda u: -1.0 / u)
        stacked = integrate_unit_stack(lambda u: np.stack([f(u) for f in rows]))
        for f, r in zip(rows, stacked):
            alone = integrate_unit(lambda u: float(f(np.float64(u))))
            assert r.status is alone.status
            if r.converged:
                assert abs(r.value - alone.value) <= 1e-8

    def test_non_finite_row_leaves_the_others_alone(self):
        def F(u):
            bad = np.where((0.3 < u) & (u < 0.4), np.nan, 1.0)
            return np.stack([u * u, bad])
        good, bad = integrate_unit_stack(F)
        assert good.status is QuadStatus.CONVERGED
        assert_close(good.value, 1.0 / 3.0, 1e-10, "int u^2 du")
        assert bad.status is QuadStatus.NO_CONVERGENCE
        assert "non-finite" in bad.detail

    def test_one_row_may_come_back_flat(self):
        (r,) = integrate_support_stack(lambda x: np.exp(-x), (0.0, math.inf))
        assert_close(r.value, 1.0, 1e-8, "int e^-x")

    def test_non_finite_past_an_early_divergence_exit(self):
        # the cap fires on the first strip pair; the NaN strips lie deeper
        r = integrate_unit(lambda u: math.nan if u < 1e-8 else u ** -5.0)
        assert r.status is QuadStatus.DIVERGED_POSITIVE
        assert "magnitude cap" in r.detail

    def test_overflow_past_an_early_divergence_exit(self):
        # math's OverflowError in the deepest strips reads as a non-finite value
        r = integrate_unit(lambda u: u ** -40.0)
        assert r.status is QuadStatus.DIVERGED_POSITIVE

    def test_division_by_zero_is_a_non_finite_value(self):
        r = integrate_unit(lambda u: 1.0 / (u - 0.5))  # 0.5 is a node of the middle piece
        assert r.status is QuadStatus.NO_CONVERGENCE
        assert "non-finite integrand value at an interior point (u=0.5)" in r.detail

    def test_subdivision_limit_is_named_in_detail(self):
        # about 130 periods per subinterval even at the limit: the middle piece
        # stops far above its budget, and its error estimate keeps the ladder
        # from settling
        r = integrate_unit(lambda u: math.sin(1e5 * u))
        assert "piece (0.0001, 0.9999) stopped above its error budget at 120 subintervals" \
            in r.detail
        assert r.status is QuadStatus.NO_CONVERGENCE

    def test_converged_detail_is_empty(self):
        assert integrate_unit(lambda u: u * u).detail == ""


def test_rule_is_exact_on_polynomials():
    # K21 integrates x^j over [-1, 1] exactly up to j = 31, its embedded G10 up to j = 19
    for j in range(32):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(Q._WK @ Q._NODES ** j - exact) <= 1e-15, j
        if j < 20:
            assert abs(Q._WG10 @ Q._NODES ** j - exact) <= 1e-15, j
    assert abs(Q._WG10 @ Q._NODES ** 20 - 2.0 / 21) > 1e-6


def _geometric(a, r):
    """The six strip sums a r^j, j = 1..6, of a ladder whose tail is exactly geometric."""
    return [a * r ** j for j in range(1, 7)]


def _alternating(a):
    return [a * (-1) ** j for j in range(1, 7)]


#: case -> (rung-0 piece sum, the sum each deeper rung adds, a non-finite piece or
#: None, a stopped piece or None, status, value, detail pattern).  Each row is
#: decided by the named criterion and by no earlier one.
LADDER_CASES = {
    # steps of ratio -1 leave Aitken nothing to apply, so only the raw test settles
    "raw settle": (1.0, _alternating(1e-9), None, None, QuadStatus.CONVERGED, 1.0, ""),
    "aitken-1": (1.0, _geometric(1e-2, 0.5), None, None, QuadStatus.CONVERGED, 1.01, ""),
    # two geometric components: one Aitken level leaves 5e-8, the second 9e-10
    "aitken-2": (1.0, [1e-2 * (0.5 ** j + 0.05 ** j) for j in range(1, 7)], None, None,
                 QuadStatus.CONVERGED, 1.0 + 1e-2 * (1.0 + 0.05 / 0.95), ""),
    "fast growth": (1.0, _geometric(1.0, 10.0), None, None, QuadStatus.DIVERGED_POSITIVE,
                    math.inf, r"unbounded growth detected at eps=1e-07"),
    "monotone growth": (1.0, [-1.0] * 6, None, None, QuadStatus.DIVERGED_NEGATIVE, -math.inf,
                        r"monotone non-contracting ladder growth"),
    "magnitude cap": (1.0, [2e12] + [0.0] * 5, None, None, QuadStatus.DIVERGED_POSITIVE,
                      math.inf, r"magnitude cap 1e\+12 exceeded at eps=1e-05"),
    "non-finite piece": (1.0, _geometric(1e-2, 0.5), 3, None, QuadStatus.NO_CONVERGENCE,
                         math.nan, r"non-finite integrand value at an interior point \(u=0.25\)"),
    "not settled": (1.0, _alternating(1e-3), None, None, QuadStatus.NO_CONVERGENCE, 1.0,
                    r"ladder did not settle: last diffs \[.*\]"),
    "stopped piece": (1.0, _geometric(1e-10, 0.5), None, 0, QuadStatus.CONVERGED, 1.0 + 1e-10,
                      r"piece \(0.0001, 0.9999\) stopped above its error budget at 120 "
                      r"subintervals"),
}


@pytest.mark.parametrize("case", LADDER_CASES)
def test_ladder_criteria(case):
    """Synthetic piece sums, fed straight to the classifier: each way a row is
    decided gives its status, its value and its detail."""
    middle, steps, bad_at, stopped_at, status, value, detail = LADDER_CASES[case]
    # the whole step in the low strip and 0 in the high one, so each rung is
    # the previous one plus the step
    v = [middle] + [x for s in steps for x in (s, 0.0)]
    bad = [0.25 if p == bad_at else math.nan for p in range(13)]
    stopped = [p == stopped_at for p in range(13)]
    r = Q._ladder(v, [0.0] * 13, bad, stopped, [120] * 13, Q.DEFAULT_TOL)
    assert r.status is status
    if math.isnan(value):
        assert math.isnan(r.value)
    elif math.isinf(value):
        assert r.value == value
    else:
        assert abs(r.value - value) <= 1e-9
    assert re.fullmatch(detail, r.detail), r.detail


def _quadpack_ladder(f, tol):
    """The ladder fed with QUADPACK's QAGS on each piece, one piece at a time,
    with the budget the core gives a piece; returns the piece sums and the
    ladder's result."""
    rung_tol = tol / 50.0
    vals, errs, bad = [], [], []
    for lo, hi in zip(Q._LO, Q._HI):
        where = []

        def guarded(x):
            y = f(x)
            if math.isfinite(y):
                return y
            where.append(x)
            return 0.0

        v, e = quadpack(guarded, lo, hi, epsabs=rung_tol, epsrel=1e-10, limit=120,
                        full_output=1)[:2]
        vals.append(v)
        errs.append(e)
        bad.append(where[0] if where else math.nan)
    n = len(vals)
    return vals, Q._ladder(vals, errs, bad, [False] * n, [1] * n, tol)


QUADPACK_CASES = {
    "smooth": lambda u: math.exp(u) * math.cos(3.0 * u),
    "u^-a endpoints": lambda u: u ** -0.4 + 0.5 * (1.0 - u) ** -0.3,
    "log-singular": lambda u: u ** -0.3 * (-math.log(u)) ** 3,
    "laplace kink": Laplace(b=0.7).dqf,
    "divergent": lambda u: u ** -1.5,
}


@pytest.mark.parametrize("name", QUADPACK_CASES)
def test_core_against_quadpack(name):
    """QUADPACK is the oracle of the Gauss-Kronrod core: each piece agrees
    within its tolerance, and the ladder reaches the same status."""
    f = QUADPACK_CASES[name]
    tol = Q.DEFAULT_TOL
    ref_pieces, ref = _quadpack_ladder(f, tol)
    pieces = Q._gk_pieces(Q._lift(f), Q._LO, Q._HI, tol / 50.0)[0][0]
    for p, (v, w) in enumerate(zip(pieces, ref_pieces)):
        assert abs(v - w) <= max(tol / 50.0, 1e-10 * abs(w)), (p, v, w)
    r = integrate_unit(f, tol)
    assert r.status is ref.status
    if r.converged:
        assert abs(r.value - ref.value) <= tol
