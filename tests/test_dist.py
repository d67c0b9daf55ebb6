import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from extrec.dist import (
    CATALOG,
    Distribution,
    DistributionError,
    Exponential,
    Laplace,
    Logistic,
    Normal,
    Pareto,
    PowerFunction,
    Scaled,
    SpecParseError,
    Uniform,
    make_distribution,
    sample,
    scale,
)
from extrec.quad import QuadStatus, integrate_support

from conftest import (
    CATALOG_MEMBERS,
    Kumaraswamy,
    UserBeta22,
    UserLogistic,
    UserNormal,
    UserNormalNoSf,
    assert_close,
)

GRID = np.linspace(0.001, 0.999, 1024)


class TestSpecGrammar:
    def test_bare_names(self):
        for name in CATALOG:
            d = make_distribution(name)
            assert d.name == name

    def test_power_theta(self):
        d = make_distribution("power:theta=2")
        assert d.params == {"theta": 2.0}
        assert_close(d.pdf(0.5), 2 * 0.5, 1e-15, "pdf 2x")

    def test_uniform_is_standard(self):
        d = make_distribution("uniform")
        assert d.pdf(0.4) == 1.0 and d.support == (0.0, 1.0)

    def test_multiple_params(self):
        d = make_distribution("normal:mu=1.5,sigma=0.5")
        assert d.params == {"mu": 1.5, "sigma": 0.5}

    def test_scientific_notation_value(self):
        d = make_distribution("exponential:rate=2e-1")
        assert d.params["rate"] == 0.2

    @pytest.mark.parametrize("bad", [
        "power:theta=-1",          # out of parameter domain
        "power:theta=0",
        "normal:sigma=0",
        "gamma",                   # unknown name
        "power:alpha=2",           # unknown key
        "power:theta",             # missing '='
        "power:theta=abc",         # non-decimal
        "power:theta=inf",         # non-finite
        "power:theta=1,theta=2",   # duplicate
        "normal:",                 # empty parameter list
        "uniform:",
        "",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(SpecParseError):
            make_distribution(bad)

    def test_keys_case_sensitive(self):
        with pytest.raises(SpecParseError):
            make_distribution("power:Theta=2")

    def test_spec_string_round_trip(self):
        for spec in ("uniform", "exponential:rate=2", "power:theta=0.5",
                     "pareto:theta=3", "normal:mu=0,sigma=1", "laplace:mu=1,b=2",
                     "logistic:mu=-1,s=0.5"):
            d = make_distribution(spec)
            again = make_distribution(d.spec_string())
            assert again.params == d.params
        # a value that {v:g} would round to 6 digits is written in full
        for v in (1.2345678, 1 / 3, 0.1, 2.0, 1e-300, 123456789.0):
            d = Normal(mu=-v, sigma=v)
            assert make_distribution(d.spec_string()) == d, d.spec_string()


def _out_of_domain():
    """(law, key, value, message) for every catalog parameter and Scaled's factor."""
    scales = [("exponential", "rate"), ("power", "theta"), ("pareto", "theta"), ("normal", "sigma"),
              ("laplace", "b"), ("logistic", "s"), ("scaled", "a")]
    for law, key in scales:
        for text in ("0.0", "-1.0", "inf", "nan"):
            yield pytest.param(law, key, float(text), f"{law}: {key} must be > 0, got {text}",
                               id=f"{law}.{key}={text}")
    for law in ("normal", "laplace", "logistic"):
        for text in ("inf", "nan"):
            yield pytest.param(law, "mu", float(text), f"{law}: mu must be finite, got {text}",
                               id=f"{law}.mu={text}")


@pytest.mark.parametrize("law, key, value, message", _out_of_domain())
def test_parameter_check_messages(law, key, value, message):
    with pytest.raises(DistributionError) as exc:
        if law == "scaled":
            scale(Uniform(), value)
        else:
            CATALOG[law](**{key: value})
    assert str(exc.value) == message


class TestInvariants:
    def test_quantile_cdf_round_trip(self, catalog_member):
        d = catalog_member
        worst = max(abs(d.cdf(d.quantile(float(u))) - u) for u in GRID)
        assert worst < 1e-9, f"{d.spec_string()}: round trip off by {worst}"

    def test_cdf_quantile_round_trip_interior(self, catalog_member):
        d = catalog_member
        for u in (1e-6, 0.2, 0.5, 0.8, 1 - 1e-6):
            x = d.quantile(u)
            assert abs(d.cdf(x) - u) < 1e-9

    def test_dqf_matches_pdf_of_quantile(self, catalog_member):
        d = catalog_member
        worst = max(abs(d.dqf(float(u)) - d.pdf(d.quantile(float(u)))) for u in GRID)
        assert worst < 1e-9

    def test_dqf_c_matches_dqf_at_complement(self, catalog_member):
        d = catalog_member
        worst = max(abs(d.dqf_c(float(u)) - d.dqf(1.0 - float(u))) for u in GRID)
        assert worst < 1e-9

    def test_power_sf_left_of_the_support(self):
        assert PowerFunction(theta=2.0).sf(0.0) == PowerFunction(theta=0.5).sf(-3.0) == 1.0

    def test_dqf_positive(self, catalog_member):
        assert all(catalog_member.dqf(float(u)) > 0 for u in GRID)

    def test_pdf_normalization(self, catalog_member):
        d = catalog_member
        r = integrate_support(d.pdf, d.support, 1e-8)
        assert r.status is QuadStatus.CONVERGED
        assert abs(r.value - 1.0) < 1e-7

    def test_cdf_monotone_with_limits(self, catalog_member):
        d = catalog_member
        xs = [d.quantile(float(u)) for u in GRID]
        cs = [d.cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(cs, cs[1:]))
        lo, hi = d.support
        assert d.cdf(lo if math.isfinite(lo) else -1e12) < 1e-9
        assert d.cdf(hi if math.isfinite(hi) else 1e12) > 1 - 1e-9

    def test_dqf_rejects_boundary(self, catalog_member):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DistributionError):
                catalog_member.dqf(bad)


    def test_dqf_array_matches_scalar(self, catalog_member):
        # one formula serves both: the array call equals the scalar calls
        d = catalog_member
        for method in (d.dqf, d.dqf_c, d.quantile):
            values = method(GRID)
            assert isinstance(values, np.ndarray) and values.shape == GRID.shape
            for u, v in zip(GRID.tolist(), values):
                one = method(u)
                assert np.ndim(one) == 0
                assert abs(v - one) <= 1e-14 * abs(one), (method.__name__, u)

    def test_dqf_array_rejects_boundary(self, catalog_member):
        for bad in (0.0, 1.0):
            with pytest.raises(DistributionError):
                catalog_member.dqf(np.array([0.5, bad]))


class TestClosedFormsAgainstScipy:
    """scipy.stats as an independent oracle for pdf/cdf/quantile."""

    CASES = [
        (Uniform(), stats.uniform()),
        (Exponential(rate=1.5), stats.expon(scale=1 / 1.5)),
        (PowerFunction(theta=2.5), stats.powerlaw(2.5)),
        (Pareto(theta=2.0), stats.pareto(2.0)),
        (Normal(mu=0.5, sigma=2.0), stats.norm(0.5, 2.0)),
    ]

    @pytest.mark.parametrize("ours, oracle", CASES, ids=lambda c: getattr(c, "name", ""))
    def test_pdf_cdf_quantile(self, ours, oracle):
        for u in (0.01, 0.25, 0.5, 0.75, 0.99):
            x = ours.quantile(u)
            assert abs(x - oracle.ppf(u)) < 1e-8 * max(1.0, abs(x))
            assert abs(ours.pdf(x) - oracle.pdf(x)) < 1e-10
            assert abs(ours.cdf(x) - oracle.cdf(x)) < 1e-12
            assert abs(ours.sf(x) - oracle.sf(x)) < 1e-12
            y = ours.isf(u)
            assert abs(y - oracle.isf(u)) < 1e-8 * max(1.0, abs(y))

    def test_laplace_logistic(self):
        from extrec.dist import Laplace, Logistic

        for ours, oracle in ((Laplace(mu=1, b=2), stats.laplace(1, 2)),
                             (Logistic(mu=-1, s=0.5), stats.logistic(-1, 0.5))):
            for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
                assert abs(ours.pdf(x) - oracle.pdf(x)) < 1e-12
                assert abs(ours.cdf(x) - oracle.cdf(x)) < 1e-12


class TestDqfExamples:
    def test_power_closed_form(self):
        assert_close(PowerFunction(theta=2.0).dqf(0.25), 1.0, 1e-12, "theta*u^((t-1)/t)")

    def test_exponential_closed_form(self):
        assert_close(Exponential(rate=1.0).dqf(0.3), 0.7, 1e-12, "1-u")

    def test_pareto_closed_form(self):
        assert_close(Pareto(theta=1.0).dqf(0.5), 0.25, 1e-12, "(1-u)^2")


class TestGenericQuantileFallback:
    def test_bisection_newton_on_custom_law(self):
        from extrec.dist import Distribution

        class Tri(Distribution):
            name = "tri"

            @property
            def support(self):
                return (0.0, 1.0)

            def pdf(self, x):
                return 2.0 * x if 0 < x < 1 else 0.0

            def cdf(self, x):
                return min(1.0, max(0.0, x * x))

        d = Tri()
        assert d.params == {} and d.spec_string() == "tri"
        for u in (0.01, 0.3, 0.77, 0.999):
            assert abs(d.quantile(u) - math.sqrt(u)) < 1e-10
        # the base class lifts the scalar methods over an array
        u = np.array([0.01, 0.3, 0.77])
        assert np.array_equal(d.dqf(u), [d.dqf(float(v)) for v in u])
        assert np.array_equal(d.dqf_c(u), [d.pdf(d.isf(float(v))) for v in u])
        assert np.array_equal(d.quantile(u), [d.quantile(float(v)) for v in u])
        for p in (0.01, 0.3, 0.77, 0.999):
            assert abs(d.isf(p) - math.sqrt(1.0 - p)) < 1e-10


    @pytest.mark.parametrize("u", [1e-300, 1e-20, 1e-9, 0.3, 0.7, 1.0 - 1e-9])
    def test_user_logistic_matches_the_closed_forms(self, u):
        # each tail is read where it is exact: the cdf for u <= 1/2, the sf at 1 - u above
        d, ref = UserLogistic(), Logistic()
        for name in ("quantile", "isf", "dqf", "dqf_c"):
            got, want = getattr(d, name)(u), getattr(ref, name)(u)
            assert abs(got - want) <= 1e-13 * abs(want), (name, got, want)

    @pytest.mark.parametrize("u", [1e-40, 1e-100, 1e-300])
    def test_far_lower_tail_of_a_power_tail(self, u):
        d = Kumaraswamy(2.2, 2.7)
        exact = (-math.expm1(math.log1p(-u) / d.b)) ** (1.0 / d.a)
        assert abs(d.quantile(u) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("u", [0.5, 0.3, 1e-5, 1e-300])
    def test_heavy_left_cdf_is_probed_near_the_answer(self, u):
        # Frechet(3) in Python floats: x ** -3 overflows below x ~ 1e-103, so
        # the bisection must not probe far below a quantile that is not tiny
        class Frechet3(Distribution):
            name = "frechet3"

            @property
            def support(self):
                return (0.0, math.inf)

            def pdf(self, x):
                return 3.0 * x ** -4.0 * math.exp(-x ** -3.0)

            def cdf(self, x):
                return math.exp(-x ** -3.0)

        exact = (-math.log(u)) ** (-1.0 / 3.0)
        assert abs(Frechet3().quantile(u) - exact) <= 1e-13 * exact


#: laws given by pdf and cdf (and sf) only: quantile and isf are the generic inverter
INVERT_LAWS = [Kumaraswamy(2.2, 2.7), UserNormal(), UserNormalNoSf(), UserLogistic(), UserBeta22()]
INVERT_PS = (1e-300, 1e-20, 1e-5, 0.3, 0.5, 0.77, 1.0 - 1e-9)


class TestInvert:
    @pytest.mark.parametrize("d", INVERT_LAWS, ids=lambda d: d.name)
    def test_answer_is_the_least_float_past_the_crossing(self, d):
        # a p above 1/2 is read on the other tail at 1 - p: quantile reads the
        # cdf below 1/2 and the sf above, isf the other way round
        for p in INVERT_PS:
            for upper in (False, True):
                if upper and _unresolved(d, p):
                    continue  # isf raises there (TestIsf)
                x = d.isf(p) if upper else d.quantile(p)
                before, q = math.nextafter(x, -math.inf), min(p, 1.0 - p)
                if (p > 0.5) == upper:
                    assert d.cdf(before) < q <= d.cdf(x), (p, upper, x)
                else:
                    assert d.sf(x) <= q < d.sf(before), (p, upper, x)

    @pytest.mark.parametrize("d, calls", zip(INVERT_LAWS, (1004, 909, 1122, 1389, 853)),
                             ids=[d.name for d in INVERT_LAWS])
    def test_cdf_and_sf_calls_are_pinned(self, d, calls):
        # quantile and isf at every INVERT_PS, the generic sf's own cdf call
        # counted too: a change to where the bisection probes moves the counts
        d, count = copy.copy(d), [0]
        for name in ("cdf", "sf"):
            def counting(x, f=getattr(d, name)):
                count[0] += 1
                return f(x)
            setattr(d, name, counting)
        for p in INVERT_PS:
            d.quantile(p)
            if not _unresolved(d, p):
                d.isf(p)
        assert count[0] == calls

    @pytest.mark.parametrize("p", (1e-308, 6e-309))
    def test_answer_near_the_largest_float(self, p):
        # the bracket's doubling overflows to hi = inf, and every float in it
        # is past 2^1023: the search ends on the least float, not in a loop
        class UserPareto1(Distribution):
            name = "user_pareto1"
            support = (1.0, math.inf)

            def pdf(self, x):
                return 1.0 / (x * x) if x > 1.0 else 0.0

            def cdf(self, x):
                return 1.0 - 1.0 / x if x > 1.0 else 0.0

            def sf(self, x):
                return 1.0 / x if x > 1.0 else 1.0

        d = UserPareto1()
        x = d.isf(p)
        assert d.sf(x) <= p < d.sf(math.nextafter(x, -math.inf)), x


ISF_PS =(0.3, 1e-5, 1e-20, 1e-100, 1e-300)
#: every catalog law, Scaled laws and a law defined by pdf and cdf only
ISF_LAWS = [*CATALOG_MEMBERS, scale(Exponential(rate=1.0), 2.5), scale(Normal(), 0.5),
            Kumaraswamy(2.2, 2.7)]


def _unresolved(d, ps):
    """Where isf must raise: the generic isf of a law without its own sf has
    only 1 - cdf, which is 0 below 2^-53."""
    generic = type(d)._isf is Distribution._isf and type(d).sf is Distribution.sf
    return generic & (np.asarray(ps) < 2.0 ** -53)


class TestIsf:
    @pytest.mark.parametrize("p", ISF_PS)
    @pytest.mark.parametrize("d", [d for d in ISF_LAWS if math.isinf(d.support[1])],
                             ids=lambda d: d.spec_string())
    def test_round_trip(self, d, p):
        # an infinite upper end: sf carries every tail probability to full precision
        x = d.isf(p)
        assert abs(d.sf(x) - p) <= 1e-12 * p, (x, d.sf(x))

    @pytest.mark.parametrize("p", ISF_PS)
    @pytest.mark.parametrize("d", ISF_LAWS, ids=lambda d: d.spec_string())
    def test_brackets_the_crossing_of_sf(self, d, p):
        # on a support bounded above at 1 the tail 1 - x is resolved only to
        # 2^-53, so there sf(isf(p)) cannot return p; isf(p) still lies within
        # 1e-12 (relative) of where the law's own sf crosses p
        if _unresolved(d, p):
            with pytest.raises(DistributionError, match=re.escape(f"got {p!r}")):
                d.isf(p)
            return
        x = float(d.isf(p))
        dx = 1e-12 * max(1.0, abs(x))
        assert d.sf(x - dx) >= p >= d.sf(x + dx), x

    @pytest.mark.parametrize("d", ISF_LAWS, ids=lambda d: d.spec_string())
    def test_array_matches_scalar(self, d):
        ps = np.array([*ISF_PS, 0.5, 0.7, 1.0 - 1e-9])
        lost = _unresolved(d, ps)
        if lost.any():
            # the array raises at its first p the law cannot resolve, as one p does
            with pytest.raises(DistributionError, match=re.escape(f"got {float(ps[lost][0])!r}")):
                d.isf(ps)
            ps = ps[~lost]
        values = d.isf(ps)
        assert isinstance(values, np.ndarray) and values.shape == ps.shape
        for p, v in zip(ps.tolist(), values):
            one = d.isf(p)
            assert np.ndim(one) == 0
            assert np.float64(one).tobytes() == v.tobytes(), p

    def test_rejects_boundary(self, catalog_member):
        for bad in (0.0, 1.0, np.array([0.5, 1.0])):
            with pytest.raises(DistributionError):
                catalog_member.isf(bad)


class TestSampling:
    def test_uniform_mean(self):
        xs = sample(Uniform(), 10_000, seed=42)
        assert abs(xs.mean() - 0.5) < 0.02  # 3*sigma/sqrt(n) with sigma^2=1/12

    def test_exponential_mean(self):
        xs = sample(Exponential(rate=1.0), 10_000, seed=42)
        assert abs(xs.mean() - 1.0) < 0.04

    def test_determinism(self, catalog_member):
        a = sample(catalog_member, 512, seed=7)
        b = sample(catalog_member, 512, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = sample(Uniform(), 64, seed=1)
        b = sample(Uniform(), 64, seed=2)
        assert not np.array_equal(a, b)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample(Uniform(), 0, seed=1)

    def test_ks_against_cdf(self, catalog_member):
        from conftest import ks_distance

        xs = sample(catalog_member, 10_000, seed=11)
        assert ks_distance(xs, catalog_member.cdf) < 1.63 / 100.0


class _Rayleigh(Distribution):
    """A user law that gives its closed forms through the hooks only."""

    name = "rayleigh"
    support = (0.0, math.inf)

    def pdf(self, x):
        return x * math.exp(-0.5 * x * x) if x > 0.0 else 0.0

    def cdf(self, x):
        return -math.expm1(-0.5 * x * x) if x > 0.0 else 0.0

    def _quantile(self, u):
        return np.sqrt(-2.0 * np.log1p(-u))

    def _isf(self, p):
        return np.sqrt(-2.0 * np.log(p))

    def _dqf(self, u):
        return self._quantile(u) * (1.0 - u)

    def _dqf_c(self, u):
        return self._isf(u) * u


#: every catalog law, a Scaled law, a law defined by pdf and cdf only, and a
#: user law with closed-form hooks
HOOK_LAWS = [*CATALOG_MEMBERS, Scaled(Exponential(), 2.0), Kumaraswamy(2.2, 2.7), _Rayleigh()]
U_METHODS = ("quantile", "isf", "dqf", "dqf_c")


class TestOneHomeForTheOpenInterval:
    @pytest.mark.parametrize("d", HOOK_LAWS, ids=lambda d: d.spec_string())
    def test_public_methods_are_the_base_class_ones(self, d):
        for name in U_METHODS:
            assert getattr(type(d), name) is getattr(Distribution, name), name

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan])
    @pytest.mark.parametrize("name", U_METHODS)
    @pytest.mark.parametrize("d", HOOK_LAWS, ids=lambda d: d.spec_string())
    def test_rejects_u_off_the_open_interval(self, d, name, bad):
        method = getattr(d, name)
        for u in (bad, np.array([0.3, bad, 0.6])):
            with pytest.raises(DistributionError, match=r"strictly inside \(0, 1\)"):
                method(u)

    @pytest.mark.parametrize("name", U_METHODS)
    @pytest.mark.parametrize("d", HOOK_LAWS, ids=lambda d: d.spec_string())
    def test_returns_what_the_hook_returns(self, d, name):
        us = np.array([1e-9, 0.3, 0.5, 0.9])
        method, hook = getattr(d, name), getattr(d, "_" + name)
        assert np.array_equal(method(us), hook(us))
        for u in us.tolist():
            assert np.float64(method(u)).tobytes() == np.float64(hook(u)).tobytes(), u

    def test_generic_dqf_c_raises_where_one_minus_u_rounds_to_one(self):
        d = Kumaraswamy(2.2, 2.7)
        for u in (1e-20, np.array([0.3, 1e-20])):
            # dqf_c is pdf(isf(u)), so isf's rule for a law without its own sf holds
            with pytest.raises(DistributionError, match=r"isf: kumaraswamy has no sf.*got 1e-20"):
                d.dqf_c(u)

    def test_user_hooks_agree_with_the_generic_path(self):
        d, us = _Rayleigh(), np.array([1e-6, 0.2, 0.5, 0.8, 1.0 - 1e-6])
        for name in U_METHODS:
            closed = getattr(d, "_" + name)(us)
            generic = getattr(Distribution, "_" + name)(d, us)
            assert np.allclose(closed, generic, rtol=1e-9, atol=0.0), name


class TestScaled:
    def test_dqf_arrays_follow_the_base(self):
        d = scale(Normal(), 2.0)
        assert np.array_equal(d.dqf(GRID), Normal().dqf(GRID) / 2.0)
        assert np.array_equal(d.dqf_c(GRID[:5]), np.array([d.dqf_c(u) for u in GRID[:5]]))

    def test_scaled_exponential_matches_rate_change(self):
        d = scale(Exponential(rate=1.0), 2.0)
        ref = Exponential(rate=0.5)
        for x in (0.1, 1.0, 5.0):
            assert abs(d.pdf(x) - ref.pdf(x)) < 1e-14
            assert abs(d.cdf(x) - ref.cdf(x)) < 1e-14
        for u in (0.2, 0.8):
            assert abs(d.dqf(u) - ref.dqf(u)) < 1e-14

    def test_scale_requires_positive(self):
        with pytest.raises(DistributionError):
            scale(Uniform(), -1.0)

    def test_requires_a_base(self):
        with pytest.raises(DistributionError, match="scaled: base distribution required"):
            Scaled()


@settings(max_examples=100, deadline=None)
@given(u=st.floats(min_value=0.001, max_value=0.999),
       theta=st.floats(min_value=0.1, max_value=10.0))
def test_power_quantile_round_trip_property(u, theta):
    d = PowerFunction(theta=theta)
    assert abs(d.cdf(d.quantile(u)) - u) < 1e-9


@settings(max_examples=100, deadline=None)
@given(u=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_normal_quantile_inverse_property(u):
    d = Normal()
    assert abs(d.cdf(d.quantile(u)) - u) < 1e-9


@pytest.mark.parametrize("u", [1e-16, 1e-20, 1e-50, 1e-100, 1e-300])
def test_normal_quantile_far_tail_round_trip(u):
    d = Normal(mu=0.5, sigma=2.0)
    assert abs(d.cdf(d.quantile(u)) - u) <= 1e-12 * u
