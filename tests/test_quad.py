import math

import pytest

from extrec.quad import QuadStatus, integrate_support, integrate_unit

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
