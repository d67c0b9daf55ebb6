import math
import re

import numpy as np
import pytest
from scipy.integrate import quad as quadpack

from extrec import quad as Q
from extrec.dist import Laplace, Logistic
from extrec.quad import QuadStatus, integrate_support, integrate_support_stack, integrate_unit

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

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_opposite_sign_ends_are_not_a_principal_value(self, tol):
        # the trim cuts both ends by the same eps, so two log divergences of
        # opposite sign cancel rung by rung; each end alone keeps growing, also
        # where the other end is fast enough to trip the fast-growth exit or the
        # magnitude cap
        for f in (lambda u: 1.0 / u - 1.0 / (1.0 - u), lambda u: 1.0 / (1.0 - u) - 1.0 / u,
                  lambda u: 1.0 / u ** 2 - 1.0 / (1.0 - u), lambda u: u ** -3 - (1.0 - u) ** -3):
            r = integrate_unit(f, tol=tol)
            assert r.status is QuadStatus.NO_CONVERGENCE, r
            assert r.detail.startswith("opposite-sign divergence at the two ends"), r.detail
        for f in (lambda u: 1.0 / u + 1.0 / (1.0 - u), lambda u: u ** -40 - 1.0):
            r = integrate_unit(f, tol=tol)
            assert r.status is QuadStatus.DIVERGED_POSITIVE and r.value == math.inf, r

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

    def test_unit_interval_is_the_unit_ladder(self):
        # the affine map of (0, 1) is 0 + 1*t, times the width 1: the identity to
        # the bit, so (0, 1) gets the bits of the ladder run on F itself
        def F(u):
            return np.array([u ** -0.5, np.log(u) ** 2, 1.0 / (1.0 - u), np.cos(3.0 * u)])

        def bits(results):
            return [(r.status, r.detail, [x.hex() for x in (r.value, r.abs_error_estimate,
                                                            *r.ladder)]) for r in results]

        tol = Q.DEFAULT_TOL
        got = integrate_support_stack(F, (0.0, 1.0), tol)
        assert [r.status for r in got] == [QuadStatus.CONVERGED, QuadStatus.CONVERGED,
                                           QuadStatus.DIVERGED_POSITIVE, QuadStatus.CONVERGED]
        v, e, bad, stopped, count = Q._gk_pieces(F, tol / 50.0)
        core = [Q._ladder(*rows, count.tolist(), tol)
                for rows in zip(v.tolist(), e.tolist(), bad.tolist(), stopped.tolist())]
        assert bits(got) == bits(core)
        for f in (lambda u: u ** -0.5, lambda u: -1.0 / u):
            assert bits([integrate_unit(f)]) == bits([integrate_support(f, (0.0, 1.0))])

    def test_left_tail(self):
        r = integrate_support(lambda x: math.exp(x), (-math.inf, 0.0))
        assert_close(r.value, 1.0, 1e-8, "int e^x on (-inf,0)")

    def test_doubly_infinite_gaussian(self):
        r = integrate_support(lambda x: math.exp(-x * x), (-math.inf, math.inf))
        assert r.status is QuadStatus.CONVERGED
        assert_close(r.value, math.sqrt(math.pi), 1e-8, "Gaussian integral")

    def test_real_line_opposite_sign_divergence(self):
        # each half-axis integral diverges, one to +inf and one to -inf
        r = integrate_support(lambda x: x / (1.0 + x * x), (-math.inf, math.inf))
        assert r.status is QuadStatus.NO_CONVERGENCE
        assert r.detail.startswith("opposite-sign divergence of the two half-axis integrals; ")
        # each half's own exit survives
        assert r.detail.count("monotone non-contracting ladder growth") == 2, r.detail

    def test_real_line_one_divergent_half(self):
        # the left half settles on log 2, the right half diverges
        r = integrate_support(Logistic().cdf, (-math.inf, math.inf))
        assert r.status is QuadStatus.DIVERGED_POSITIVE
        assert r.value == math.inf

    def test_real_line_one_unsettled_half(self):
        # the right half settles, the left meets a non-finite value: no convergence
        r = integrate_support(lambda x: math.nan if x < -1.0 else math.exp(-x * x),
                              (-math.inf, math.inf))
        assert r.status is QuadStatus.NO_CONVERGENCE and math.isnan(r.value)
        assert r.detail.startswith("(-inf, 0): non-finite integrand value at an interior point"), \
            r.detail
        assert "(0, inf): " not in r.detail  # the settled half has no notes

    def test_real_line_keeps_both_halves_notes(self):
        # the left half meets a non-finite value, the right half never settles
        r = integrate_support(lambda x: math.nan if x < -1.0 else math.sin(x),
                              (-math.inf, math.inf))
        assert r.status is QuadStatus.NO_CONVERGENCE and math.isnan(r.value)
        left, right = r.detail.split("; ", 1)
        assert left.startswith("(-inf, 0): "), r.detail
        assert right.startswith("(0, inf): "), r.detail
        assert left.startswith("(-inf, 0): non-finite integrand value at an interior point"), \
            r.detail
        assert right.startswith("(0, inf): ladder did not settle: last diffs"), r.detail
        assert "stopped above its error budget" in right

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
        stacked = integrate_support_stack(lambda u: np.stack([f(u) for f in rows]), (0.0, 1.0))
        for f, r in zip(rows, stacked):
            alone = integrate_unit(lambda u: float(f(np.float64(u))))
            assert r.status is alone.status
            if r.converged:
                assert abs(r.value - alone.value) <= 1e-8

    def test_non_finite_row_leaves_the_others_alone(self):
        def F(u):
            bad = np.where((0.3 < u) & (u < 0.4), np.nan, 1.0)
            return np.stack([u * u, bad])
        good, bad = integrate_support_stack(F, (0.0, 1.0))
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

    @pytest.mark.parametrize("f, exact", [(lambda u: u ** -0.5, 2.0), (lambda u: -math.log(u), 1.0),
                                          (lambda u: 1.0 / u, math.inf)],
                             ids=["u^-1/2", "-log u", "1/u"])
    def test_singular_end_settles_in_few_rounds(self, integrand_rounds, f, exact):
        # the middle piece starts cut at the decades, so bisection does not
        # grade from 1/2 toward the end one level per round, which would take
        # 11-13 rounds
        r = integrate_unit(f)
        if math.isinf(exact):
            assert r.status is QuadStatus.DIVERGED_POSITIVE and r.value == exact
        else:
            assert r.status is QuadStatus.CONVERGED
            assert_close(r.value, exact, Q.DEFAULT_TOL, "singular end")
        assert len(integrand_rounds) <= 4

    def test_middle_piece_starts_cut_at_the_decades(self, integrand_rounds):
        integrate_unit(lambda u: u)
        assert integrand_rounds == [21 * (7 + Q._LO.size - 1)]


def _bits(results):
    """Every field of each result, floats as hex, so the sign of a zero counts."""
    return [(r.status, r.detail, [x.hex() for x in (r.value, r.abs_error_estimate, *r.ladder)])
            for r in results]


def _replayed(F, tol=Q.DEFAULT_TOL):
    """The ladder replayed on every row of F's piece sums."""
    v, e, bad, stopped, count = Q._gk_pieces(F, tol / 50.0)
    return [Q._ladder(*rows, count.tolist(), tol)
            for rows in zip(v.tolist(), e.tolist(), bad.tolist(), stopped.tolist())]


def _signed_zeros(calls):
    """A three-row integrand that is +0.0, -0.0 and +-0.0 at every node,
    counting its calls."""
    def F(x):
        calls.append(x.size)
        return np.stack([0.0 * x, -0.0 * x, np.where(x < 0.5, -0.0, 0.0)])
    return F


class TestZeroRows:
    """A row that is exactly 0.0 with zero error on every piece replays to
    the ladder's zero answer, ``_ZERO_ROW``, to the bit.  A stack that is
    +-0.0 at every node of its first round ends on that round, as no piece
    is over its budget; a nan, an inf or one nonzero node takes the full
    path."""

    @pytest.mark.parametrize("tol", [1e-6, Q.DEFAULT_TOL, 1e-12])
    def test_zero_rows_are_the_ladder_replayed(self, tol):
        def F(u):  # +0.0 rows, -0.0 rows, a non-finite zero row, and a nonzero row
            return np.stack([0.0 * u, -0.0 * u, np.where(u < 0.5, -0.0, np.nan), u])

        got = integrate_support_stack(F, (0.0, 1.0), tol)
        assert _bits(got) == _bits(_replayed(F, tol))
        assert _bits(got[:2]) == _bits([Q._ZERO_ROW] * 2)
        assert got[0].converged and got[0].ladder == (0.0,) * len(Q.EPS_LADDER)
        assert got[2].status is QuadStatus.NO_CONVERGENCE and got[3].converged

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_stopped_or_non_finite_zero_rows_replay(self, monkeypatch, zero):
        # no integrand gives a zero row with a stopped piece (a stopped piece
        # has a positive error), so the piece sums are set by hand
        n = Q._LO.size
        v, e = np.full((3, n), zero), np.zeros((3, n))
        bad, stopped = np.full((3, n), math.nan), np.zeros((3, n), dtype=bool)
        stopped[1, 4] = True
        bad[2, 5] = 0.25
        count = np.full(n, 120)
        monkeypatch.setattr(Q, "_gk_pieces", lambda F, abs_tol: (v, e, bad, stopped, count))
        got = integrate_support_stack(lambda u: u, (0.0, 1.0))
        assert _bits(got) == _bits([Q._ladder(*rows, count.tolist(), Q.DEFAULT_TOL) for rows in
                                    zip(v.tolist(), e.tolist(), bad.tolist(), stopped.tolist())])
        assert _bits(got[:1]) == _bits([Q._ZERO_ROW])
        assert got[1].converged and "stopped above its error budget" in got[1].detail
        assert got[2].status is QuadStatus.NO_CONVERGENCE and "u=0.25" in got[2].detail

    def test_whole_line_zero_row(self):
        (r,) = integrate_support_stack(lambda x: 0.0 * x, (-math.inf, math.inf))
        assert r.converged and r.value == 0.0 and r.abs_error_estimate == 0.0 and r.detail == ""

    @pytest.mark.parametrize("support", [(0.0, 1.0), (0.0, 0.5), (2.0, math.inf)])
    def test_one_round_every_row_the_zero_row(self, support):
        calls = []
        got = integrate_support_stack(_signed_zeros(calls), support)
        assert calls == [21 * Q._A0.size]
        assert _bits(got) == _bits([Q._ZERO_ROW] * 3)

    def test_whole_line_one_round_per_half(self, monkeypatch):
        halves, combine = [], Q._combine
        monkeypatch.setattr(Q, "_combine", lambda a, b: halves.append((a, b)) or combine(a, b))
        calls = []
        got = integrate_support_stack(_signed_zeros(calls), (-math.inf, math.inf))
        assert calls == [21 * Q._A0.size] * 2
        assert _bits([r for pair in halves for r in pair]) == _bits([Q._ZERO_ROW] * 6)
        assert _bits(got) == _bits([combine(Q._ZERO_ROW, Q._ZERO_ROW)] * 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_one_non_finite_node_replays(self, bad):
        def F(u):  # 1/2 is a node of the first round
            return np.stack([np.where(u == 0.5, bad, -0.0), 0.0 * u])

        got = integrate_support_stack(F, (0.0, 1.0))
        assert _bits(got) == _bits(_replayed(F))
        assert got[0].status is QuadStatus.NO_CONVERGENCE
        assert "non-finite integrand value at an interior point (u=0.5)" in got[0].detail
        assert _bits(got[1:]) == _bits([Q._ZERO_ROW])

    def test_one_nonzero_node_refines(self):
        calls = []

        def F(u):
            calls.append(u.size)
            return np.where(u == 0.5, 1.0, 0.0)

        # the round after the first bisects 1/2's interval, which makes 1/2 an
        # end, so the row's sums are 0.0 again and it ends a zero row
        got = integrate_support_stack(F, (0.0, 1.0))
        assert len(calls) == 2 and calls[0] == 21 * Q._A0.size
        assert _bits(got) == _bits(_replayed(F))


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


#: case -> (rung-0 piece sum, the sum each deeper rung adds, or its (low, high)
#: strip pair, a non-finite piece or None, a stopped piece or None, status,
#: value, detail pattern).  Each row is decided by the named criterion and by
#: no earlier one.
LADDER_CASES = {
    # steps of ratio -1 leave Aitken nothing to apply, so only the raw test settles
    "raw settle": (1.0, _alternating(1e-9), None, None, QuadStatus.CONVERGED, 1.0, ""),
    "aitken-1": (1.0, _geometric(1e-2, 0.5), None, None, QuadStatus.CONVERGED, 1.01, ""),
    # two geometric components: one Aitken level leaves 5e-8, the second 9e-10
    "aitken-2": (1.0, [1e-2 * (0.5 ** j + 0.05 ** j) for j in range(1, 7)], None, None,
                 QuadStatus.CONVERGED, 1.0 + 1e-2 * (1.0 + 0.05 / 0.95), ""),
    "fast growth": (1.0, _geometric(1.0, 10.0), None, None, QuadStatus.DIVERGED_POSITIVE,
                    math.inf, r"unbounded growth detected at eps=1e-07"),
    # the low strips grow tenfold, the high ones stay at -1: the rung diffs trip
    # the fast-growth exit, which reads the two ends first
    "two ends": (1.0, [(10.0 ** j, -1.0) for j in range(1, 7)], None, None,
                 QuadStatus.NO_CONVERGENCE, 1108.0, r"opposite-sign divergence at the two ends"),
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
    # a bare step goes whole in the low strip and 0 in the high one, so each
    # rung is the previous one plus the step
    v = [middle] + [x for s in steps for x in (s if isinstance(s, tuple) else (s, 0.0))]
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


#: case -> (rung-0 piece sum, the sums each deeper rung adds as in
#: LADDER_CASES, a non-finite piece or None, a stopped piece or None, status,
#: detail pattern, whether the array pass settles it).  Together the rows hit
#: every rule of the ladder, the early exits at an early rung.
ARRAY_CASES = {
    "raw, aitken step applies": (1.0, _geometric(1e-10, 0.5), None, None,
                                 QuadStatus.CONVERGED, "", True),
    "raw, no aitken step": (1.0, _alternating(1e-9), None, None, QuadStatus.CONVERGED, "", True),
    "aitken-1": (1.0, _geometric(1e-2, 0.5), None, None, QuadStatus.CONVERGED, "", True),
    "aitken-2": (1.0, [1e-2 * (0.5 ** j + 0.05 ** j) for j in range(1, 7)], None, None,
                 QuadStatus.CONVERGED, "", True),
    # the first step's diffs are 0 and 5e-3, so Aitken-1 skips it and
    # settles on the other four
    "skipped aitken step": (1.0, [0.0] + _geometric(1e-2, 0.5)[1:], None, None,
                            QuadStatus.CONVERGED, "", False),
    # Aitken-1 applies at every step, Aitken-2 at two of three, and settles
    "skipped aitken-2 step": (1.0, [-0.0015430631752208171, -0.00019807214089692226,
                                    -3.278952326741129e-05, -5.18555018968405e-06,
                                    -8.262705518391729e-07, -3.8803522792954176e-07], None, None,
                              QuadStatus.CONVERGED, "", False),
    "non-finite piece": (1.0, _geometric(1e-2, 0.5), 3, None, QuadStatus.NO_CONVERGENCE,
                         r"non-finite integrand value at an interior point \(u=0.25\)", False),
    "stopped piece": (1.0, _geometric(1e-10, 0.5), None, 2, QuadStatus.CONVERGED,
                      r"piece \(0.9999, 0.99999\) stopped above its error budget at 120 "
                      r"subintervals", False),
    "magnitude cap": (1.0, [2e12] + [0.0] * 5, None, None, QuadStatus.DIVERGED_POSITIVE,
                      r"magnitude cap 1e\+12 exceeded at eps=1e-05", False),
    # the steps grow tenfold to rung 3, then stop, so the rungs settle as raw
    # would take them
    "fast growth": (1.0, [1e-3, 1e-2, 1e-1, 0.0, 0.0, 0.0], None, None,
                    QuadStatus.DIVERGED_POSITIVE, r"unbounded growth detected at eps=1e-07", False),
    "two ends, early exit": (1.0, [(10.0 ** j, -1.0) for j in range(1, 7)], None, None,
                             QuadStatus.NO_CONVERGENCE, r"opposite-sign divergence at the two ends",
                             False),
    # the ends cancel, so the rungs settle as raw would take them
    "two ends, last rung": (1.0, [(1.0, -1.0)] * 6, None, None, QuadStatus.NO_CONVERGENCE,
                            r"opposite-sign divergence at the two ends", False),
    "monotone growth": (1.0, [-1.0] * 6, None, None, QuadStatus.DIVERGED_NEGATIVE,
                        r"monotone non-contracting ladder growth", False),
    "not settled": (1.0, _alternating(1e-3), None, None, QuadStatus.NO_CONVERGENCE,
                    r"ladder did not settle: last diffs \[.*\]", False),
    "-0.0 sums": (-0.0, [(-0.0, -0.0)] * 6, None, None, QuadStatus.CONVERGED, "", True),
    "-0.0 middle": (-0.0, _geometric(1e-10, 0.5), None, None, QuadStatus.CONVERGED, "", True),
    "-0.0 strips": (1.0, [(-0.0, -0.0)] * 6, None, None, QuadStatus.CONVERGED, "", True),
}


def test_array_pass_is_the_ladder(monkeypatch):
    """A stack of piece sums whose rows hit every rule: each row the array
    pass settles, and each it leaves to ``_ladder``, gets ``_ladder``'s bits."""
    n = Q._LO.size
    v = np.array([[middle] + [x for s in steps for x in (s if isinstance(s, tuple) else (s, 0.0))]
                  for middle, steps, *_ in ARRAY_CASES.values()])
    e = np.full(v.shape, 1e-13)
    bad = np.full(v.shape, math.nan)
    stopped = np.zeros(v.shape, dtype=bool)
    for i, (_, _, bad_at, stopped_at, *_) in enumerate(ARRAY_CASES.values()):
        if bad_at is not None:
            bad[i, bad_at] = 0.25
        if stopped_at is not None:
            stopped[i, stopped_at] = True
    count = np.full(n, 120)
    monkeypatch.setattr(Q, "_gk_pieces", lambda F, abs_tol: (v, e, bad, stopped, count))
    assert len(v) >= Q._ARRAY_ROWS
    got = integrate_support_stack(lambda u: u, (0.0, 1.0))
    want = [Q._ladder(*rows, count.tolist(), Q.DEFAULT_TOL)
            for rows in zip(v.tolist(), e.tolist(), bad.tolist(), stopped.tolist())]
    assert _bits(got) == _bits(want)
    settled = Q._settle(v, e, bad, stopped, Q.DEFAULT_TOL)
    for (case, (*_, status, detail, by_array)), r, done in zip(ARRAY_CASES.items(), got, settled):
        assert r.status is status and re.fullmatch(detail, r.detail), (case, r)
        assert (done is not None) == by_array, case
    # the ladder's 0.0 + -0.0 is 0.0
    assert [x.hex() for x in (got[-3].value, *got[-3].ladder)] == ["0x0.0p+0"] * 8


def test_small_stack_takes_the_scalar_ladder(monkeypatch):
    calls = []
    monkeypatch.setattr(Q, "_settle", lambda *args: calls.append(args) or [None] * len(args[0]))
    integrate_support_stack(lambda u: np.stack([u ** j for j in range(Q._ARRAY_ROWS - 1)]),
                            (0.0, 1.0))
    assert calls == []
    integrate_support_stack(lambda u: np.stack([u ** j for j in range(Q._ARRAY_ROWS)]),
                            (0.0, 1.0))
    assert len(calls) == 1


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
    pieces = Q._gk_pieces(Q._lift(f), tol / 50.0)[0][0]
    for p, (v, w) in enumerate(zip(pieces, ref_pieces)):
        assert abs(v - w) <= max(tol / 50.0, 1e-10 * abs(w)), (p, v, w)
    r = integrate_unit(f, tol)
    assert r.status is ref.status
    if r.converged:
        assert abs(r.value - ref.value) <= tol
