import gc
import heapq
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from extrec.dist import Exponential, Normal, Pareto, PowerFunction, Uniform, scale
from extrec.quad import _NODES, QuadStatus, integrate_support
from extrec.records import (_TABLE_INTERVALS, METHODS, RecordLaw, _scan_one, _Stack, phi_power,
                            simulate_records, u_phi, weight)

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


def phi(n, k):
    """phi_n at one u: the cdf of the n-th lower k-record of the uniform law,
    whose cdf is u on (0, 1)."""
    return RecordLaw(Uniform(), n, k, "lower").cdf


class TestPhiKernel:
    def test_first_record_is_identity(self):
        ph = phi(1, 1)
        for u in (0.1, 0.5, 0.9):
            assert ph(u) == u

    def test_two_term_value(self):
        # u*(1 - log u) at u = 1/e
        assert_close(phi(2, 1)(math.exp(-1)), 2 * math.exp(-1), 1e-15, "phi_2")

    def test_partial_sums_nondecreasing_in_n(self):
        u = 0.9
        assert phi(2, 2)(u) <= phi(3, 2)(u) <= 1.0

    def test_argument_validation(self):
        for n, k in ((0, 1), (1, 0), (-2, 3)):
            with pytest.raises(ValueError):
                phi(n, k)

    def test_limits(self):
        ph = phi(3, 2)
        assert ph(1e-250) < 1e-200
        assert ph(1.0 - 1e-12) > 1.0 - 1e-9
        assert phi_power(3, 2)(0.0) == 0.0 and phi_power(3, 2)(1.0) == 1.0

    def test_below_1e_300_is_the_gamma_sf(self):
        # phi_n(u) = P(G > -log u) for G ~ Gamma(n) at k = 1; at n = 800 it is near 1
        # where u is below 1e-300, on the kernel and on the lower record cdf of Exp(1)
        u = 1e-301
        exact = stats.gamma(800).sf(-math.log(u))
        for got in (phi_power(800, 1)(u), RecordLaw(Exponential(rate=1.0), 800, 1, "lower").cdf(u)):
            assert abs(got - exact) <= 1e-12 * exact, (got, exact)

    def test_subnormal_u_at_large_n(self):
        # lam = -log(5e-310) = 713 is far below n = 1000, so phi is 1; the direct
        # recurrence overflows on the way, and that raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi(1000, 1)(5e-310) == 1.0 and phi_power(1000, 1)(5e-310) == 1.0

    def test_log_domain_path_tiny_u(self):
        # forces the log-domain branch; Poisson lower tail stays in [0, 1]
        for n, k in ((2, 1), (5, 3), (40, 2)):
            v = phi_power(n, k)(1e-305)
            assert 0.0 <= v <= 1.0

    def test_log_domain_matches_direct_at_crossover(self):
        # direct and log-domain branches agree near the switch point
        u = math.exp(-330.0)  # lam = 660 (direct); compare to log-domain formula
        direct = phi_power(4, 2)(u)
        lam = -2 * math.log(u)
        logs = [i * math.log(lam) - math.lgamma(i + 1) for i in range(4)]
        m = max(logs)
        via_log = math.exp(-lam + m + math.log(sum(math.exp(g - m) for g in logs)))
        assert abs(direct - via_log) <= 1e-12 * max(direct, via_log)

    def test_large_n_no_overflow(self):
        v = phi_power(500, 1)(math.exp(-400.0))
        assert 0.0 <= v <= 1.0 and math.isfinite(v)


class TestKernelEdges:
    """Every kernel builder at u = 0, at u = 1 and below the smallest normal
    float, at orders whose bases take the log domain at every node (from
    n = 172 at k = 1, where 1/171! is subnormal) or where b L passes
    _LAM_DIRECT_MAX."""

    U = np.array([0.0, 1.0, 5e-324, 1e-310, 1e-300])

    @pytest.mark.parametrize("n", [1, 2, 150, 171, 200])
    @pytest.mark.parametrize("k", [1, 2])
    def test_every_builder(self, n, k):
        u = self.U
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phis = [K(u) for K in (*(phi_power(n, k, m) for m in (1, 2, 3)), u_phi(n, k))]
            w = weight(n, k)(u)
        for phi in phis:
            assert np.isfinite(phi).all() and ((0.0 <= phi) & (phi <= 1.0)).all(), phi
            assert phi[0] == 0.0 and phi[1] == 1.0, phi
        # the weight's limit at u = 0 is +inf where its power of u, k - 1, is 0
        assert w[0] == (math.inf if k == 1 and n >= 2 else 0.0 if k > 1 else 1.0)
        assert np.isfinite(w[1:]).all(), w
        assert w[1] == (0.0 if n >= 2 else k)
        L = -np.log(u[1:])
        exact = np.exp(math.log(k) + L + stats.gamma(n).logpdf(k * L))  # (k/u) Gamma(n).pdf(kL)
        normal = np.isfinite(exact) & (exact >= np.finfo(float).tiny)
        assert (exact[~normal] < np.finfo(float).tiny).all() and (w[1:][~normal] < 1e-300).all()
        assert (np.abs(w[1:] - exact)[normal] <= 1e-12 * exact[normal]).all(), (w, exact)

    @pytest.mark.parametrize("n", [171, 200, 400])
    def test_large_n_between_the_edges(self, n):
        # 1/i! is a normal float up to i = 170 and subnormal or 0 past it, so at
        # n = 171 these bases are direct here and at n >= 172 they are summed in
        # the log domain, also where a direct value would be finite but wrong:
        # phi_{n,1}(u) is the Gamma(n) sf at L = -log u, and the weight its pdf
        L = np.linspace(0.5 * n, 1.5 * n, 21)
        u = np.exp(-L)
        for got, exact in ((phi_power(n, 1)(u), stats.gamma(n).sf(L)),
                           (weight(n, 1)(u), stats.gamma(n).pdf(L) / u)):
            assert (np.abs(got - exact) <= 1e-12 * exact).all(), np.max(np.abs(got / exact - 1))

    @pytest.mark.parametrize("n, k", [(800, 800), (720, 720), (135, 10**4)])
    def test_coefficients_past_the_largest_float(self, n, k):
        # a coefficient above the largest float (phi's from n = k = 715, the
        # weight's at n = k = 720 and at n = 135 for k = 10^4) sends its base to
        # the log domain: phi_{n,k}(u) is the Gamma(n) sf at kL and the weight
        # (k/u) times its pdf; scipy's own values are off by up to 1.3e-12 here
        # (the kernels are within 6e-13 of 40-digit ones)
        L = np.linspace(0.5, 1.5, 21) * n / k
        u = np.exp(-L)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = phi_power(n, k)(u), weight(n, k)(u), phi(n, k)(0.5)
        for got, exact in zip(values, (stats.gamma(n).sf(k * L), k * stats.gamma(n).pdf(k * L) / u,
                                    stats.gamma(n).sf(k * math.log(2)))):
            assert (np.abs(got - exact) <= 3e-12 * exact).all(), np.max(np.abs(got / exact - 1))

    @pytest.mark.parametrize("n", [2, 5, 50, 171, 200, 400])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_phi_rows_are_at_most_one(self, n, k):
        # phi's base is capped at 1: its sum reaches 1 + 1 ulp directly and
        # 1 + 1.4e-13 in the log domain, which the power m would multiply
        u = np.concatenate([np.linspace(0.0, 1.0, 4001), -np.expm1(-np.logspace(-16, 0, 400)),
                            np.exp(-np.linspace(0.0, 800.0, 4001))])
        kernels = (phi_power(n, k), phi_power(n, k, 3), u_phi(n, k))
        for rows in (_Stack(kernels)(u), [K(u) for K in kernels]):
            assert all((0.0 <= row).all() and (row <= 1.0).all() for row in rows)
            assert (rows[2] <= u).all()


class TestStackTable:
    """A stack's table keeps its rows per quadrature interval, keyed by the
    interval's node bytes.  That is exact because a node's rows have the same
    bits in any array: the log-domain mask, the direct-or-log test and phi's
    cap at 1 each work node by node."""

    KERNELS = (phi_power(4, 4), phi_power(3, 2, 3), u_phi(4, 3), phi_power(1, 2, 4),
               phi_power(50, 5, 2), weight(200, 1), weight(3, 2))

    @staticmethod
    def nodes() -> np.ndarray:
        """Seven intervals of quadrature nodes: the middle of (0, 1), u near
        1e-300, where weight(200, 1) and b L > _LAM_DIRECT_MAX take the log
        domain, u near 1, where phi's sums reach 1 + 1 ulp and are capped,
        0 and subnormal u, and the 21 nodes of three quadrature intervals."""
        quad = [0.5 * (a + b) + 0.5 * (b - a) * _NODES
                for a, b in ((0.1, 0.2), (1e-10, 1e-9), (1.0 - 1e-4, 1.0 - 1e-5))]
        return np.concatenate([np.linspace(0.05, 0.95, 21), np.logspace(-305, -295, 21),
                               1.0 - np.logspace(-16, -1, 21),
                               [0.0, 5e-324, 1e-310, *np.logspace(-300, -1, 18)], *quad])

    # without weight(200, 1), whose subnormal coefficient sends every node to
    # the log domain, the nodes near 1e-300 send the whole array there and an
    # interval of the middle alone is direct
    @pytest.mark.parametrize("kernels", [KERNELS, KERNELS[:-2] + KERNELS[-1:]],
                             ids=["log domain everywhere", "log domain where it fires"])
    def test_rows_at_each_interval_are_its_rows_in_the_array(self, kernels):
        stack, u, per = _Stack(kernels), self.nodes(), _NODES.size
        whole = stack(u)
        assert (whole[:3] <= 1.0).all() and (whole[:3] == 1.0).any()
        for s in range(0, u.size, per):
            assert stack(u[s:s + per]).tobytes() == whole[:, s:s + per].tobytes(), s

    # a one-row stack keeps no table and reads every interval from its call
    @pytest.mark.parametrize("kernels, kept", [(KERNELS, 7), (KERNELS[:1], 0)],
                             ids=["7 rows", "1 row"])
    def test_table_is_the_call(self, kernels, kept):
        # cold, then with some intervals kept and the others new, in another order
        stack, u, per = _Stack(kernels), self.nodes(), _NODES.size
        rows, order = len(stack), [4, 0, 6, 1, 5, 2, 3]
        gap = np.subtract(*np.split(stack(np.concatenate([u, 1.0 - u])), 2, axis=1))
        for variant, want in ((False, stack(u)), (True, gap)):
            assert stack.table(u[:2 * per], variant).tobytes() == want[:, :2 * per].tobytes()
            got = stack.table(u.reshape(-1, per)[order].ravel(), variant)
            assert got.tobytes() == want.reshape(rows, -1, per)[:, order].tobytes()
        assert [len(t) for t in stack.tables] == [kept, kept]

    def test_table_keeps_the_first_intervals_read_only(self, monkeypatch):
        stack, per = _Stack(self.KERNELS), _NODES.size
        u = np.linspace(0.01, 0.99, (_TABLE_INTERVALS + 6) * per)
        want = stack(u)
        calls, call = [], _Stack.__call__
        monkeypatch.setattr(_Stack, "__call__", lambda self, x, L=None: calls.append(x.size)
                            or call(self, x, L))
        for _ in range(2):
            assert stack.table(u).tobytes() == want.tobytes()
        assert calls == [u.size, 6 * per]
        table = stack.tables[False]
        assert list(table) == [x.tobytes() for x in u.reshape(-1, per)[:_TABLE_INTERVALS]]
        assert not any(block.flags.writeable for block in table.values())


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=6),
    u=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    v=st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_phi_monotone_and_bounded(n, k, u, v):
    ph = phi(n, k)
    pu, pv = ph(u), ph(v)
    assert 0.0 <= pu <= 1.0
    if u < v:
        assert pu <= pv + 1e-12


def test_phi_monotone_dense_grid():
    grid = np.linspace(0.001, 0.999, 1024)
    for n in range(1, 7):
        for k in range(1, 7):
            ph = phi(n, k)
            vals = [ph(float(u)) for u in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_kernel_caches_are_bounded():
    # the builders keep their last few hundred kernels each; a kernel and its
    # one-kernel stack form a cycle, so it is freed at the next collection
    phi, w = weakref.ref(phi_power(97, 5, 3)), weakref.ref(weight(97, 5))
    for n in range(1, 301):
        phi_power(n, 13, 7), weight(n, 13)
    gc.collect()
    assert phi() is None and w() is None


@pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (4, 2), (30, 1)])
@pytest.mark.parametrize("d", CATALOG_MEMBERS, ids=lambda d: d.spec_string())
def test_record_law_reads_the_kernel_table(d, n, k):
    """The lower record's cdf and pdf are the kernels phi_power and weight, to
    the bit, phi at one u on the uniform law among them; L is passed so that
    both take the same -log p."""
    lower = RecordLaw(d, n, k, "lower")
    for u in (0.01, 0.2, 0.5, 0.8, 0.99):
        assert phi(n, k)(u) == float(phi_power(n, k)(u))
        x = float(d.quantile(u))
        p = d.cdf(x)
        assert lower.cdf(x) == float(phi_power(n, k)(p))
        if p <= 0.5:
            assert lower.pdf(x) == weight(n, k)(p, -math.log(p)) * d.pdf(x)


def test_numpy_integer_record_counts():
    d = Exponential(rate=1.0)
    a = simulate_records(d, np.int64(2), 1, "upper", 5, 0)
    b = simulate_records(d, 2, 1, "upper", 5, 0)
    assert a.values.tobytes() == b.values.tobytes() and a.aborted == b.aborted
    for flag in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            simulate_records(d, flag, 1, "upper", 5, 0)


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
        for side in ("upper", "lower"):
            law = RecordLaw(Exponential(rate=1.0), 3, 2, side)
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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 200])
    def test_upper_cdf_keeps_the_near_end_tail(self, n):
        # the n-th upper 1-record of Exponential(1) is Gamma(n); near x = 0 its cdf
        # is tiny and 1 - phi_n(sf(x)) would cancel it away
        law = RecordLaw(Exponential(rate=1.0), n, 1, "upper")
        xs = np.logspace(-30, 1, 311)
        exact = stats.gamma(n).cdf(xs)
        assert (exact > 1e-300).sum() >= 5
        for x, want in zip(xs[exact > 1e-300].tolist(), exact[exact > 1e-300].tolist()):
            got = law.cdf(x)
            assert abs(got - want) <= 1e-12 * want, (x, got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 200])
    def test_lower_cdf_keeps_the_near_end_value(self, n):
        # the n-th lower 1-record of power(2) has -log cdf = -2 log x ~ Gamma(n), so
        # its cdf is the Gamma(n) sf at -2 log x; near x = 0 it is tiny
        law = RecordLaw(PowerFunction(theta=2.0), n, 1, "lower")
        xs = np.logspace(-30, 0, 301)
        exact = stats.gamma(n).sf(-2.0 * np.log(xs))
        assert (exact > 1e-300).sum() >= 5
        for x, want in zip(xs[exact > 1e-300].tolist(), exact[exact > 1e-300].tolist()):
            got = law.cdf(x)
            assert abs(got - want) <= 1e-12 * want, (x, got, want)

    def test_weight_log_domain_is_the_gamma_density(self):
        # at n = 200, 1/(n-1)! underflows, so every u takes the log-domain branch;
        # the weight is (k/u) times the Gamma(n) density at -k log u
        n, k = 200, 2
        u = np.exp(-np.linspace(1.0, 400.0, 64))
        exact = (k / u) * stats.gamma(n).pdf(-k * np.log(u))
        got = weight(n, k)(u)
        assert (np.abs(got - exact) <= 1e-12 * exact).all(), np.max(np.abs(got / exact - 1))

    def test_weight_array_matches_scalar_past_overflow(self):
        w = weight(200, 2)
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

    @pytest.mark.parametrize("method", ["exact", "scan"])
    def test_seed_checked(self, method):
        # numpy's own error, "expected non-negative integer", named no argument
        for seed in (-1, True, 2.0, None):
            with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
                simulate_records(Uniform(), 2, 2, "upper", 8, seed=seed, method=method)
        a, b = (simulate_records(Uniform(), 2, 2, "upper", 8, seed=s, method=method)
                for s in (np.int64(5), 5))
        assert np.array_equal(a.values, b.values)

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

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("max_draws", [100.5, 100.0, True, np.float64(100)])
    def test_max_draws_must_be_an_integer(self, method, max_draws):
        with pytest.raises(ValueError, match=re.escape(
                f"max_draws must be an integer >= k, got {max_draws!r}")):
            simulate_records(Uniform(), 1, 1, "upper", 5, seed=1, max_draws=max_draws,
                             method=method)
        rs = simulate_records(Uniform(), 1, 1, "upper", 5, seed=1, max_draws=np.int64(100),
                              method=method)
        assert rs.values.size == 5


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
