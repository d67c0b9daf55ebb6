import heapq
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from extrec.dist import Exponential, Normal, Pareto, PowerFunction, Uniform, scale
from extrec.quad import QuadStatus, integrate_support
from extrec.records import PhiKernel, RecordLaw, _record_weight, _scan_one, simulate_records

from conftest import CATALOG_MEMBERS, Kumaraswamy, assert_close, ks_distance

KS_CRIT_99 = 1.63 / math.sqrt(10_000)

#: every catalog law, a Scaled law and a law defined by pdf and cdf only
SCAN_LAWS = [*CATALOG_MEMBERS, scale(Exponential(rate=1.0), 2.5), Kumaraswamy(2.2, 2.7)]


def _scan_x(base, n, k, upper, rng, max_draws):
    """The scan on X that simulate_records replaced: each batch of uniforms is
    floored at 2^-53 and mapped through the quantile before the comparison."""
    sign = 1.0 if upper else -1.0

    def draw(m):
        return sign * base.quantile(np.maximum(rng.random(m), 2.0 ** -53))

    top = list(draw(k))
    heapq.heapify(top)
    drawn, seen, batch = k, 1, 128
    if seen == n:
        return sign * top[0]
    while drawn < max_draws:
        m = min(batch, max_draws - drawn)
        xs = draw(m)
        drawn += m
        for x in xs[xs > top[0]].tolist():
            if x > top[0]:
                heapq.heapreplace(top, x)
                seen += 1
                if seen == n:
                    return sign * top[0]
        batch = min(batch * 2, 65536)
    return None


class _Replay:
    """Generator stand-in that replays a fixed stream of uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.pos = 0

    def random(self, m, out=None):
        r = self.values[self.pos:self.pos + m]
        self.pos += m
        if out is None:
            return r.copy()
        out[:] = r
        return out


def _simulate_x(base, n, k, side, count, seed, max_draws=10_000_000):
    out = [_scan_x(base, n, k, side == "upper", np.random.default_rng([seed, i]), max_draws)
           for i in range(count)]
    kept = [v for v in out if v is not None]
    return np.asarray(kept, dtype=float), count - len(kept)


class TestPhiKernel:
    def test_first_record_is_identity(self):
        ph = PhiKernel(1, 1)
        for u in (0.1, 0.5, 0.9):
            assert ph(u) == u

    def test_two_term_value(self):
        # u*(1 - log u) at u = 1/e
        assert_close(PhiKernel(2, 1)(math.exp(-1)), 2 * math.exp(-1), 1e-15, "phi_2")

    def test_partial_sums_nondecreasing_in_n(self):
        u = 0.9
        assert PhiKernel(2, 2)(u) <= PhiKernel(3, 2)(u) <= 1.0

    def test_domain_errors(self):
        ph = PhiKernel(2, 1)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                ph(bad)

    def test_argument_validation(self):
        for n, k in ((0, 1), (1, 0), (-2, 3)):
            with pytest.raises(ValueError):
                PhiKernel(n, k)

    def test_limits(self):
        ph = PhiKernel(3, 2)
        assert ph(1e-250) < 1e-200
        assert ph(1.0 - 1e-12) > 1.0 - 1e-9
        assert ph.at(0.0) == 0.0 and ph.at(1.0) == 1.0

    def test_log_domain_path_tiny_u(self):
        # forces the log-domain branch; Poisson lower tail stays in [0, 1]
        for n, k in ((2, 1), (5, 3), (40, 2)):
            v = PhiKernel(n, k)._eval(1e-305)
            assert 0.0 <= v <= 1.0

    def test_log_domain_matches_direct_at_crossover(self):
        # direct and log-domain branches agree near the switch point
        ph = PhiKernel(4, 2)
        u = math.exp(-330.0)  # lam = 660 (direct); compare to log-domain formula
        direct = ph._eval(u)
        lam = -2 * math.log(u)
        logs = [i * math.log(lam) - math.lgamma(i + 1) for i in range(4)]
        m = max(logs)
        via_log = math.exp(-lam + m + math.log(sum(math.exp(g - m) for g in logs)))
        assert abs(direct - via_log) <= 1e-12 * max(direct, via_log)

    def test_large_n_no_overflow(self):
        v = PhiKernel(500, 1)._eval(math.exp(-400.0))
        assert 0.0 <= v <= 1.0 and math.isfinite(v)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=6),
    u=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    v=st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_phi_monotone_and_bounded(n, k, u, v):
    ph = PhiKernel(n, k)
    pu, pv = ph(u), ph(v)
    assert 0.0 <= pu <= 1.0
    if u < v:
        assert pu <= pv + 1e-12


def test_phi_monotone_dense_grid():
    grid = np.linspace(0.001, 0.999, 1024)
    for n in range(1, 7):
        for k in range(1, 7):
            ph = PhiKernel(n, k)
            vals = [ph(float(u)) for u in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestRecordLaw:
    def test_first_record_pdf_is_base_pdf(self):
        d = Exponential(rate=1.0)
        law = RecordLaw(d, 1, 1, "upper")
        for x in (0.1, 1.0, 3.0):
            assert law.pdf(x) == d.pdf(x)
            assert abs(law.cdf(x) - d.cdf(x)) < 1e-15

    def test_exponential_n2_pdf_value(self):
        law = RecordLaw(Exponential(rate=1.0), 2, 1, "upper")
        assert_close(law.pdf(1.0), math.exp(-1), 1e-12, "x e^-x at 1")

    def test_exponential_n2_cdf_value(self):
        law = RecordLaw(Exponential(rate=1.0), 2, 1, "upper")
        assert_close(law.cdf(1.0), 1 - 2 * math.exp(-1), 1e-12, "1 - e^-x (1+x)")

    def test_pdf_outside_support_is_zero(self):
        law = RecordLaw(Uniform(), 2, 1, "upper")
        assert law.pdf(-0.5) == 0.0 and law.pdf(1.5) == 0.0

    def test_cdf_limits(self):
        law = RecordLaw(Exponential(rate=1.0), 3, 2, "upper")
        assert law.cdf(-1.0) == 0.0
        assert law.cdf(1e9) == 1.0

    def test_pdf_integrates_to_one(self):
        for side in ("upper", "lower"):
            for n, k in ((1, 1), (2, 1), (2, 3), (3, 2)):
                law = RecordLaw(Exponential(rate=1.0), n, k, side)
                r = integrate_support(law.pdf, law.base.support, 1e-8)
                assert r.status is QuadStatus.CONVERGED
                assert abs(r.value - 1.0) < 1e-7, (side, n, k, r.value)

    def test_cdf_derivative_matches_pdf(self):
        law = RecordLaw(Exponential(rate=1.0), 2, 2, "upper")
        for x in np.linspace(0.2, 3.0, 25):
            h = 1e-5 * max(1.0, abs(x))
            deriv = (law.cdf(x + h) - law.cdf(x - h)) / (2 * h)
            assert abs(deriv - law.pdf(x)) < 1e-5 * max(1.0, law.pdf(x))

    @pytest.mark.parametrize("base", [Uniform(), Normal()], ids=("uniform", "normal"))
    def test_upper_lower_duality_symmetric_base(self, base):
        c = 0.5 if isinstance(base, Uniform) else 0.0
        for n, k in ((1, 1), (2, 1), (3, 3)):
            upper = RecordLaw(base, n, k, "upper")
            lower = RecordLaw(base, n, k, "lower")
            for t in (0.0, 0.1, 0.25, 0.4) if isinstance(base, Uniform) else (0.0, 0.5, 1.5, 3.0):
                s = upper.cdf(c + t) + lower.cdf(c - t)
                assert abs(s - 1.0) < 1e-9, (n, k, t, s)

    @pytest.mark.parametrize("n, x", [(130, 129.0), (150, 149.0), (200, 199.0), (180, 50.0)])
    def test_pdf_large_n_matches_gamma(self, n, x):
        # the n-th upper 1-record of Exponential(1) is Gamma(n).  From n ~ 140 the
        # direct weight overflows at the mode (x = n - 1), and past n = 171
        # 1/(n-1)! underflows, which zeroes the direct weight in the left tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = RecordLaw(Exponential(rate=1.0), n, 1, "upper").pdf(x)
        exact = stats.gamma(n).pdf(x)
        assert abs(got - exact) <= 1e-12 * exact, (got, exact)

    def test_weight_array_matches_scalar_past_overflow(self):
        w = _record_weight(200, 2, 1)
        u = np.exp(-np.linspace(1.0, 400.0, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = w(u)
            assert np.isfinite(values).all()
            assert values.tolist() == [w(float(v)) for v in u]

    def test_pdf_where_sf_rounds_to_one(self):
        # sf(1e-30) rounds to 1, so -log sf must come from cdf = 1e-30; the exact
        # density of the 2nd upper record of Exponential(1) is x e^-x
        got = RecordLaw(Exponential(rate=1.0), 2, 1, "upper").pdf(1e-30)
        assert abs(got - 1e-30) <= 1e-12 * 1e-30, got

    def test_lower_pdf_where_cdf_rounds_near_one(self):
        # lower mirror: cdf(x) = x^2 near x = 1, where -log cdf must come from sf;
        # the 2nd lower record of power(2) has density -2 log(x^2) * x = -4 x log x
        for x in (1.0 - 1e-10, 1.0 - 3e-13):
            got = RecordLaw(PowerFunction(theta=2.0), 2, 1, "lower").pdf(x)
            exact = -4.0 * x * math.log(x)
            assert abs(got - exact) <= 1e-12 * exact, (x, got, exact)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            RecordLaw(Uniform(), 0, 1, "upper")
        with pytest.raises(ValueError):
            RecordLaw(Uniform(), 1, 1, "sideways")


class TestSimulateRecords:
    def test_first_record_recovers_base_law(self):
        d = Uniform()
        rs = simulate_records(d, 1, 1, "upper", 10_000, seed=11)
        assert rs.aborted == 0
        assert ks_distance(rs.values, d.cdf) < KS_CRIT_99

    def test_gamma_moment_cross_check(self):
        # upper 1-records of the exponential stack up as Gamma(n, 1)
        rs = simulate_records(Exponential(rate=1.0), 3, 1, "upper", 10_000, seed=11)
        tol = 3.0 * math.sqrt(3.0 / 10_000)
        assert abs(rs.values.mean() - 3.0) < tol

    def test_empirical_cdf_matches_analytic(self):
        d = Exponential(rate=1.0)
        rs = simulate_records(d, 2, 2, "upper", 10_000, seed=11)
        law = RecordLaw(d, 2, 2, "upper")
        assert ks_distance(rs.values, law.cdf) < KS_CRIT_99

    def test_lower_records(self):
        d = Exponential(rate=1.0)
        rs = simulate_records(d, 2, 1, "lower", 10_000, seed=11)
        law = RecordLaw(d, 2, 1, "lower")
        assert ks_distance(rs.values, law.cdf) < KS_CRIT_99

    def test_deterministic_under_seed(self):
        a = simulate_records(Uniform(), 2, 2, "upper", 64, seed=5)
        b = simulate_records(Uniform(), 2, 2, "upper", 64, seed=5)
        assert np.array_equal(a.values, b.values) and a.aborted == b.aborted

    def test_abort_guard_counts(self):
        # a tiny draw budget cannot reach the 3rd record most of the time
        rs = simulate_records(Uniform(), 3, 1, "upper", 50, seed=1, max_draws=4, method="scan")
        assert rs.aborted > 0
        assert rs.values.size == 50 - rs.aborted

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (3, 2), (4, 3)])
    @pytest.mark.parametrize("base", SCAN_LAWS, ids=lambda d: d.spec_string())
    def test_bytes_match_scan_on_x(self, base, n, k, side):
        # the uniform-space scan keeps every sample byte of the scan on X
        rs = simulate_records(base, n, k, side, 20, seed=3, method="scan")
        values, aborted = _simulate_x(base, n, k, side, 20, seed=3)
        assert rs.values.tobytes() == values.tobytes()
        assert rs.aborted == aborted == 0

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_aborted_bytes_match_scan_on_x(self, side):
        rs = simulate_records(Normal(), 3, 1, side, 50, seed=1, max_draws=4, method="scan")
        values, aborted = _simulate_x(Normal(), 3, 1, side, 50, seed=1, max_draws=4)
        assert rs.values.tobytes() == values.tobytes()
        assert rs.aborted == aborted > 0

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1)])
    def test_exact_zero_draws_match_scan_on_x(self, n, k, side):
        # a generator can return exact 0.0; both scans floor it at 2^-53
        tiny = 2.0 ** -53
        stream = [0.0, 0.0, 0.5, 0.0, tiny, 0.25, 0.75, 0.0, tiny, 0.125] * 13
        d = Exponential(rate=1.0)
        u = _scan_one(n, k, side == "upper", _Replay(stream), len(stream), np.empty(65536))
        x = _scan_x(d, n, k, side == "upper", _Replay(stream), len(stream))
        assert (u is None and x is None) or d.quantile(np.array([u]))[0] == x

    def test_one_quantile_call_per_realization(self, monkeypatch):
        calls = []
        quantile = Normal.quantile

        def counted(self, u):
            calls.append(np.size(u))
            return quantile(self, u)

        monkeypatch.setattr(Normal, "quantile", counted)
        rs = simulate_records(Normal(), 4, 3, "upper", 50, seed=1, method="scan")
        assert rs.aborted == 0
        assert sum(calls) == 50  # evaluations, counted by element

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_one_inversion_per_realization(self, monkeypatch, side):
        calls = {"quantile": [], "isf": []}
        for name, fn in ((name, getattr(Normal, name)) for name in calls):
            def counted(self, u, name=name, fn=fn):
                calls[name].append(np.size(u))
                return fn(self, u)
            monkeypatch.setattr(Normal, name, counted)
        rs = simulate_records(Normal(), 4, 3, side, 50, seed=1)
        assert rs.aborted == 0 and rs.values.size == 50
        # evaluations counted by element; both tails are used at (4, 3)
        assert sum(calls["quantile"]) + sum(calls["isf"]) == 50
        assert sum(calls["quantile"]) > 0 and sum(calls["isf"]) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_records(Uniform(), 1, 1, "upper", 0, seed=1)
        with pytest.raises(ValueError):
            simulate_records(Uniform(), 1, 3, "upper", 5, seed=1, max_draws=2)
        with pytest.raises(ValueError, match="method"):
            simulate_records(Uniform(), 1, 1, "upper", 5, seed=1, method="stream")


#: exact-sampler sweep: 24 one-sample KS tests, so each runs at the 0.1% level
KS_CRIT_999 = 1.95 / math.sqrt(10_000)


class TestExactSampler:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (8, 1), (20, 5)])
    @pytest.mark.parametrize("base", [Exponential(rate=1.0), Normal(), Pareto(theta=0.7)],
                             ids=lambda d: d.spec_string())
    def test_matches_record_law(self, base, n, k, side):
        rs = simulate_records(base, n, k, side, 10_000, seed=17)
        assert rs.aborted == 0
        assert ks_distance(rs.values, RecordLaw(base, n, k, side).cdf) < KS_CRIT_999

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 2)])
    @pytest.mark.parametrize("base", [Exponential(rate=1.0), Normal()],
                             ids=lambda d: d.spec_string())
    def test_matches_scan(self, base, n, k, side):
        exact = simulate_records(base, n, k, side, 2000, seed=5)
        scan = simulate_records(base, n, k, side, 2000, seed=6, method="scan")
        assert scan.aborted == 0
        assert stats.ks_2samp(exact.values, scan.values).pvalue > 1e-3

    def test_deep_records_unbiased(self):
        # -log(1 - R) of the 8th upper 1-record of the uniform is Gamma(8, 1).  The
        # exact sampler keeps the streams a scan aborts, which hold the highest
        # records; the scan at the same size, with a million-draw guard, loses
        # about 3% of them and falls below the mean by more than 3 standard errors
        se = math.sqrt(8.0 / 3000)
        exact = simulate_records(Uniform(), 8, 1, "upper", 3000, seed=2)
        assert exact.aborted == 0
        assert abs(np.mean(-np.log1p(-exact.values)) - 8.0) < 3.0 * se
        scan = simulate_records(Uniform(), 8, 1, "upper", 3000, seed=2, max_draws=1_000_000,
                                method="scan")
        assert scan.aborted > 0
        assert np.mean(-np.log1p(-scan.values)) < 8.0 - 3.0 * se

    def test_underflow_raises(self):
        # p = exp(-G), G ~ Gamma(800) near 800, is below the least subnormal
        with pytest.raises(ValueError, match="n=800, k=1"):
            simulate_records(Exponential(rate=1.0), 800, 1, "upper", 10, seed=1)

    def test_overflow_raises(self):
        # R = exp(G / theta) with G near 10 and theta = 0.01 is past the largest double
        with pytest.raises(ValueError, match="n=10, k=1"):
            simulate_records(Pareto(theta=0.01), 10, 1, "upper", 10, seed=1)

    @pytest.mark.parametrize("base", [Uniform(), PowerFunction(theta=2.0)],
                             ids=lambda d: d.spec_string())
    def test_closed_end_raises(self, base):
        # isf(p) rounds to the upper end 1 once p = exp(-G) < 2^-54, as for most of
        # these G ~ Gamma(40) draws: the open support's end is not a record value
        with pytest.raises(ValueError, match=r"open support \(0, 1\) at n=40, k=1"):
            simulate_records(base, 40, 1, "upper", 1000, seed=1)

    def test_lower_mirror_keeps_full_precision(self):
        # the lower records of the same draws are quantile(p) = p, which stays in (0, 1)
        values = simulate_records(Uniform(), 40, 1, "lower", 1000, seed=1).values
        assert ((0.0 < values) & (values < 1.0)).all()

    def test_deterministic_and_max_draws_unused(self):
        a = simulate_records(Normal(), 3, 2, "lower", 64, seed=5)
        b = simulate_records(Normal(), 3, 2, "lower", 64, seed=5, max_draws=4)
        assert a.values.tobytes() == b.values.tobytes() and a.aborted == b.aborted == 0
