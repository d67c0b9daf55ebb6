import itertools
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extrec import dist as D
from extrec import measures as M
from extrec import symmetry as S
from extrec.dist import (Distribution, Exponential, Laplace, Normal, Pareto, PowerFunction,
                         Uniform)
from extrec.quad import DEFAULT_TOL, QuadStatus, integrate_support_stack
from extrec.records import PhiKernel

from conftest import (CATALOG_MEMBERS, SYMMETRIC_MEMBERS, Kumaraswamy, UserBeta22, UserLogistic,
                      UserNormal, UserNormalNoSf, assert_close)

U, E1, P2, PA2, NM = Uniform(), Exponential(rate=1.0), PowerFunction(theta=2.0), Pareto(theta=2.0), Normal()


class TiltedCubic(Distribution):
    """Continuous density 1 + 0.5(x-1/2) - 4(x-1/2)^3 on (0,1).

    Its density-quantile comparison changes sign on (0, 1/2), so it sits
    outside the one-signed class; also exercises the generic quantile path.
    """

    name = "tilted_cubic"

    @property
    def support(self):
        return (0.0, 1.0)

    def pdf(self, x):
        if not 0.0 < x < 1.0:
            return 0.0
        t = x - 0.5
        return 1.0 + 0.5 * t - 4.0 * t ** 3

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        t = x - 0.5
        return x + 0.25 * t * t - t ** 4


KUMA = Kumaraswamy(2.2, 2.7)


class UserExponential(Distribution):
    """The standard exponential as a user writes it: pdf, cdf and sf only."""

    name = "user_exponential"
    support = (0.0, math.inf)

    def pdf(self, x):
        return math.exp(-x) if x > 0.0 else 0.0

    def cdf(self, x):
        return -math.expm1(-x) if x > 0.0 else 0.0

    def sf(self, x):
        return math.exp(-x) if x > 0.0 else 1.0


class NegExponential(Distribution):
    """-X for a standard exponential X, on (-inf, 0), with closed-form hooks."""

    name = "neg_exponential"
    support = (-math.inf, 0.0)

    def pdf(self, x):
        return math.exp(x) if x < 0.0 else 0.0

    def cdf(self, x):
        return math.exp(x) if x < 0.0 else 1.0

    def sf(self, x):
        return -math.expm1(x) if x < 0.0 else 0.0

    def _quantile(self, u):
        return np.log(u)

    def _isf(self, p):
        return np.log1p(-p)

    def _dqf(self, u):
        return u

    def _dqf_c(self, u):
        return 1.0 - u


def _kdqf_gap_kernels():
    """The distinct ``K/dqf`` gap kernels of verify's (4, 4, 4) grid."""
    kernels = {}
    for row in M.KERNELS.values():
        if row.family is not None and row.form == "K/dqf":
            for values in itertools.product(range(1, 5), repeat=len(row.params)):
                _, nkm = M.resolve(row, **dict(zip(row.params, values)))
                kernels[row.kernel(*nkm)] = None
    return list(kernels)


KDQF_GAPS = _kdqf_gap_kernels()


class TestEta:
    def test_midpoint_fixed_point(self):
        for d in CATALOG_MEMBERS:
            assert abs(S.eta(d, 0.5)) < 1e-12

    def test_exponential_closed_form(self):
        assert_close(S.eta(E1, 0.25), 8.0 / 3.0, 1e-12, "1/u - 1/(1-u)")

    def test_uniform_identically_zero(self):
        assert all(S.eta(U, u) == 0.0 for u in (0.01, 0.3, 0.49, 0.77))

    def test_symmetric_members_exactly_zero(self):
        for d in SYMMETRIC_MEMBERS:
            assert all(S.eta(d, float(u)) == 0.0 for u in np.linspace(0.001, 0.999, 101))

    def test_antisymmetry_grid(self):
        grid = np.linspace(0.001, 0.999, 1024)
        for d in CATALOG_MEMBERS:
            worst = max(abs(S.eta(d, float(u)) + S.eta(d, float(1.0 - u))) for u in grid)
            assert worst < 1e-9, d.spec_string()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            S.eta(U, 0.0)

    @pytest.mark.parametrize("d", CATALOG_MEMBERS + [KUMA, TiltedCubic()], ids=repr)
    def test_array_matches_scalar(self, d):
        grid = np.linspace(0.001, 0.999, 257)
        values = S.eta(d, grid)
        assert values.shape == grid.shape
        for u, v in zip(grid.tolist(), values.tolist()):
            assert abs(v - S.eta(d, u)) <= 1e-12 * max(1.0, abs(v)), u

    def test_array_domain_error(self):
        with pytest.raises(ValueError):
            S.eta(E1, np.array([0.25, 1.0]))

    def test_profile_is_one_call(self, monkeypatch):
        calls = []
        eta = S.eta
        monkeypatch.setattr(S, "eta", lambda d, u: calls.append(u) or eta(d, u))
        S.class_c_check(E1)
        S.class_c_check(E1, grid_size=128)
        assert [u.shape for u in calls] == [(512,), (128,)]
        for grid in calls:
            assert np.all(np.diff(grid) > 0)
            assert grid[0] > 0 and grid[-1] < 0.5


class TestClassC:
    def test_catalog_memberships(self):
        assert S.class_c_check(U) is S.ClassC.MEMBER_EQUAL
        assert S.class_c_check(NM) is S.ClassC.MEMBER_EQUAL
        assert S.class_c_check(E1) is S.ClassC.MEMBER_LEQ
        assert S.class_c_check(P2) is S.ClassC.MEMBER_GEQ
        assert S.class_c_check(PowerFunction(theta=0.5)) is S.ClassC.MEMBER_LEQ
        assert S.class_c_check(PA2) is S.ClassC.MEMBER_LEQ

    def test_sign_crossing_law_is_not_member(self):
        assert S.class_c_check(TiltedCubic()) is S.ClassC.NOT_MEMBER

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            S.class_c_check(U, grid_size=32)


class TestDelta1:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 5.0])
    def test_power_closed_form(self, theta):
        target = (1.0 - theta) / (2.0 * (theta + 1.0))
        mv = S.delta1(PowerFunction(theta=theta))
        assert mv.is_finite
        assert_close(mv.value, target, 1e-6, f"delta1 power({theta})")

    def test_normal_zero(self):
        mv = S.delta1(NM)
        assert mv.is_finite and abs(mv.value) < 1e-6

    def test_equals_crj_minus_cpj_when_finite(self):
        a = S.delta1(P2).value
        b = M.crj(P2).value - M.cpj(P2).value
        assert abs(a - b) < 1e-6

    def test_exponential_divergent_positive(self):
        mv = S.delta1(E1)
        assert mv.quad_status is QuadStatus.DIVERGED_POSITIVE


class TestDelta2:
    def test_uniform_zero_any_order(self):
        for n, k in ((1, 1), (2, 3), (4, 4)):
            mv = S.delta2(U, n, k)
            assert mv.is_finite and abs(mv.value) < 1e-8

    def test_pareto_positive(self):
        mv = S.delta2(PA2, 1, 1)
        assert mv.value > 1e-3  # divergent(+) counts as exceeding any bound

    def test_normal_zero(self):
        mv = S.delta2(NM, 3, 2)
        assert mv.is_finite and abs(mv.value) < 1e-6

    def test_reduces_to_delta1(self):
        a, b = S.delta2(P2, 1, 1).value, S.delta1(P2).value
        assert abs(a - b) < 1e-9


class TestDelta3:
    def test_uniform_zero(self):
        for m in (1, 2, 5):
            assert abs(S.delta3(U, m).value) < 1e-8

    def test_power2_m2_is_cpj_minus_crj(self):
        mv = S.delta3(P2, 2)
        assert_close(mv.value, 1.0 / 6.0, 1e-6, "cpj - crj at theta=2")
        assert abs(mv.value + S.delta1(P2).value) < 1e-9

    def test_exponential_divergent(self):
        for m in (1, 2, 4):
            mv = S.delta3(E1, m)
            assert mv.is_divergent, m
        # ladder sign: the past side is the divergent one
        assert S.delta3(E1, 2).quad_status is QuadStatus.DIVERGED_NEGATIVE

    def test_matches_gcpj_minus_gcrj_when_finite(self):
        a = S.delta3(P2, 3).value
        b = M.gcpj(P2, 3).value - M.gcrj(P2, 3).value
        assert abs(a - b) < 1e-6


class _Counted(Kumaraswamy):
    """KUMA, counting its pdf and cdf calls; its sf is the generic 1 - cdf,
    so an sf call counts once, as the cdf call it makes."""

    def __init__(self, a, b):
        super().__init__(a, b)
        self.calls = 0

    def pdf(self, x):
        self.calls += 1
        return super().pdf(x)

    def cdf(self, x):
        self.calls += 1
        return super().cdf(x)


def _pdf_cdf_points():
    """Every measure row at three (n, k, m) points on both sides, each
    distinct parameter set once."""
    cases = {}
    for row in M.KERNELS.values():
        if row.family is not None:
            continue
        for n, k, m in ((1, 1, 2), (2, 3, 1), (3, 2, 4)):
            for side in ("upper", "lower"):
                params, _ = M.resolve(row, n, k, m, side)
                label = "-".join([row.measure_id, *map(str, params.values())])
                cases.setdefault(label, pytest.param(
                    row, {"n": n, "k": k, "m": m, "side": side}, id=label))
    return list(cases.values())


class TestPdfCdfOnlyLaw:
    """A law given by pdf and cdf alone has only the generic inverter, a
    bisection per u, so its primary integrates in x and takes no quantile."""

    def test_crj_cpj_converge(self):
        assert_close(M.crj(KUMA).value, -0.19417706386, 1e-9, "crj kumaraswamy")
        assert_close(M.cpj(KUMA).value, -0.188884464352, 1e-9, "cpj kumaraswamy")

    @pytest.mark.parametrize("row, point", _pdf_cdf_points())
    def test_primary_in_x_agrees_with_oracle_in_u(self, row, point):
        # the quantile form bisects at every node: 52k-120k pdf and cdf calls
        d = _Counted(2.2, 2.7)
        a = M.measure_value(row, d, **point)
        calls = d.calls
        b = M.oracle_value(row, d, **point)
        assert calls < 5000, calls
        assert a.quad_status is b.quad_status, (a.display(), b.display())
        if a.is_finite:
            assert abs(a.value - b.value) <= 1e-9 * abs(b.value), (a.value, b.value)

    @pytest.mark.parametrize("gap, point, plus, minus", [
        ("delta1", {}, ("crj", "upper"), ("cpj", "lower")),
        ("delta3", {"m": 3}, ("gcpj", "lower"), ("gcrj", "upper")),
        ("delta2", {"n": 2, "k": 3}, ("record_crj_upper", "upper"),
         ("record_cpj_lower", "lower")),
        ("delta_crij", {"n": 3, "k": 2}, ("crij_upper", "upper"), ("cpij_lower", "lower")),
        ("delta_kij", {"n": 3, "k": 1}, ("kij_record", "upper"), ("kij_record", "lower")),
        ("delta2_generalized", {"n": 2, "k": 2, "m": 3}, ("record_gcrj_upper", "upper"),
         ("record_gcpj_lower", "lower")),
    ], ids=["delta1", "delta3_m3", "delta2", "delta_crij", "delta_kij", "delta2_generalized"])
    def test_gap_equals_measure_difference(self, gap, point, plus, minus):
        mv = M.measure_value(M.KERNELS[gap], KUMA, **point)
        a, b = (M.measure_value(M.KERNELS[mid], KUMA, side=side, **point)
                for mid, side in (plus, minus))
        assert mv.is_finite and a.is_finite and b.is_finite, [v.display() for v in (mv, a, b)]
        assert abs(mv.value - (a.value - b.value)) < 1e-8, (mv.value, a.value - b.value)


class TestUserWrittenSymmetricLaw:
    """Laws written by pdf, cdf and sf: every dqf and dqf_c comes from the
    generic inverter, which reads the smaller tail of each u."""

    @pytest.mark.parametrize("d", [UserNormal(), UserLogistic()], ids=lambda d: d.name)
    def test_verifies_symmetric(self, d):
        rep = S.verify_characterizations(d)
        assert rep.class_c is S.ClassC.MEMBER_EQUAL
        assert rep.verdict is S.Verdict.SYMMETRIC
        assert len(rep.residuals) == 105
        assert all(e.status is QuadStatus.CONVERGED for e in rep.residuals)

    @pytest.mark.parametrize("d", [UserNormal(), UserLogistic()], ids=lambda d: d.name)
    def test_primary_and_oracle_agree(self, d):
        # the primary integrates in x; where a K/dqf kernel reaches an infinite
        # end it is divergent by structure, and the oracle stays in x, where the
        # divergence shows, not in u, where it reads as no_convergence
        for row in M.KERNELS.values():
            if row.family is None:
                a, b = (form(row, d, 2, 2, 2, "upper")
                        for form in (M.measure_value, M.oracle_value))
                assert a.quad_status is b.quad_status, (row.measure_id, a.display(), b.display())
                if a.is_finite:
                    assert abs(a.value - b.value) <= 1e-9 * abs(b.value), (row.measure_id, a, b)

    def test_bounded_law_verifies_in_x(self):
        # every gap of a law on a bounded support is integrated in x, so no
        # residual needs a quantile; KUMA's 105 settle too, where the quantile
        # form left 101 unsettled, and its class keeps the verdict inconclusive
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep, kuma = S.verify_characterizations(UserBeta22()), S.verify_characterizations(KUMA)
        assert rep.class_c is S.ClassC.MEMBER_EQUAL
        assert rep.verdict is S.Verdict.SYMMETRIC
        assert len(rep.residuals) == 105
        assert all(e.status is QuadStatus.CONVERGED and abs(e.value) < 1e-12
                   for e in rep.residuals), max(abs(e.value) for e in rep.residuals)
        assert len(kuma.residuals) == 105
        assert all(e.status is QuadStatus.CONVERGED for e in kuma.residuals)
        assert kuma.class_c is S.ClassC.NOT_MEMBER and kuma.verdict is S.Verdict.INCONCLUSIVE

    def test_without_sf_no_false_divergence(self):
        # 1 - cdf cannot resolve the right tail below 2^-53, so the gaps do not
        # settle; they must not read as divergent either
        rep = S.verify_characterizations(UserNormalNoSf())
        assert rep.class_c.is_member and rep.verdict is S.Verdict.INCONCLUSIVE
        assert not any(e.status in (QuadStatus.DIVERGED_NEGATIVE, QuadStatus.DIVERGED_POSITIVE)
                       for e in rep.residuals)


class TestDeltaKij:
    def test_identically_zero_at_n1(self):
        for d in (U, E1, P2, PA2, NM):
            assert S.delta_kij(d, 1).value == 0.0

    def test_uniform_zero(self):
        for n in (2, 3, 5):
            assert abs(S.delta_kij(U, n).value) < 1e-8

    def test_normal_zero(self):
        mv = S.delta_kij(NM, 4)
        assert mv.is_finite and abs(mv.value) < 1e-6

    def test_exponential_quarter_at_n2(self):
        assert_close(S.delta_kij(E1, 2).value, 0.25, 1e-6, "delta_kij exp n=2")

    def test_exponential_known_values(self):
        # KIJ gaps of the unit exponential: 3/8 at n=3, 7/16 at n=4
        assert_close(S.delta_kij(E1, 3).value, 0.375, 1e-6, "n=3")
        assert_close(S.delta_kij(E1, 4).value, 0.4375, 1e-6, "n=4")

    def test_matches_direct_kij_difference(self):
        for d, n in ((E1, 2), (P2, 3), (PA2, 2)):
            gap = S.delta_kij(d, n).value
            direct = M.kij_record(d, n, 1, "upper").value - M.kij_record(d, n, 1, "lower").value
            assert abs(gap - direct) < 1e-6, (d.spec_string(), n)


class TestDeltaCrij:
    def test_reduces_to_delta1_at_order_one(self):
        a, b = S.delta_crij(P2, 1, 1).value, S.delta1(P2).value
        assert abs(a - b) < 1e-9

    def test_matches_direct_difference_when_finite(self):
        for d, n, k in ((P2, 2, 1), (P2, 1, 2)):
            gap = S.delta_crij(d, n, k).value
            direct = M.crij_upper(d, n, k).value - M.cpij_lower(d, n, k).value
            assert abs(gap - direct) < 1e-6


class TestVerify:
    def test_symmetric_members(self):
        for d in SYMMETRIC_MEMBERS:
            rep = S.verify_characterizations(d, 3, 3, 3)
            assert rep.verdict is S.Verdict.SYMMETRIC, d.spec_string()
            assert rep.class_c.is_member
            assert all(e.is_finite and abs(e.value) < 1e-6 for e in rep.residuals)

    def test_uniform_class_equal(self):
        rep = S.verify_characterizations(U, 2, 2, 2)
        assert rep.class_c is S.ClassC.MEMBER_EQUAL

    def test_pareto_asymmetric(self):
        rep = S.verify_characterizations(PA2, 3, 3, 3)
        assert rep.verdict is S.Verdict.ASYMMETRIC

    def test_exponential_asymmetric_with_divergences(self):
        rep = S.verify_characterizations(E1, 3, 3, 3)
        assert rep.verdict is S.Verdict.ASYMMETRIC
        assert any(e.status is QuadStatus.DIVERGED_NEGATIVE or
                   e.status is QuadStatus.DIVERGED_POSITIVE for e in rep.residuals)

    def test_power_asymmetric(self):
        rep = S.verify_characterizations(P2, 2, 2, 2)
        assert rep.verdict is S.Verdict.ASYMMETRIC
        # every comparison of this bounded-support law stays finite
        assert all(e.is_finite for e in rep.residuals)

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": math.inf}, "tol must be a positive finite number, got inf"),
        ({"quad_tol": math.inf}, "quad_tol must be a positive finite number, got inf"),
        ({"max_n": 0}, "max_n must be an integer >= 1, got 0"),
    ], ids=["tol", "quad_tol", "max_n"])
    def test_rejects_bad_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            S.verify_characterizations(U, **kwargs)

    def test_not_member_is_inconclusive(self):
        rep = S.verify_characterizations(TiltedCubic(), 1, 1, 1)
        assert rep.verdict is S.Verdict.INCONCLUSIVE

    def test_grid_shape(self):
        rep = S.verify_characterizations(U, 2, 3, 2)
        by_family = {}
        for e in rep.residuals:
            by_family.setdefault(e.family, 0)
            by_family[e.family] += 1
        assert by_family == {"crj_cpj": 1, "record_crj_cpj": 6, "gcrj_gcpj": 2,
                             "record_gcrj_gcpj": 12, "kij": 2, "crij_cpij": 6}

    def test_validation(self):
        with pytest.raises(ValueError):
            S.verify_characterizations(U, 0, 1, 1)
        with pytest.raises(ValueError):
            S.verify_characterizations(U, tol=-1.0)

    @pytest.mark.parametrize("d", CATALOG_MEMBERS, ids=lambda d: d.spec_string())
    def test_shared_kernels_bit_identical(self, d):
        # record_crj_cpj(n,k) and record_gcrj_gcpj(n,k,2) integrate one kernel;
        # so do gcrj_gcpj(m) and record_gcrj_gcpj(1,1,m), under prefactors +1/2
        # and -1/2, which flip the sign of zero and of a divergence
        bits = lambda v: struct.pack("<d", v)
        flip = {QuadStatus.DIVERGED_POSITIVE: QuadStatus.DIVERGED_NEGATIVE,
                QuadStatus.DIVERGED_NEGATIVE: QuadStatus.DIVERGED_POSITIVE}
        by_key = {e.key(): e for e in S.verify_characterizations(d).residuals}
        for n in range(1, 5):
            for k in range(1, 5):
                a = by_key[f"record_crj_cpj:n={n}:k={k}"]
                b = by_key[f"record_gcrj_gcpj:n={n}:k={k}:m=2"]
                assert (bits(a.value), a.status) == (bits(b.value), b.status), (n, k)
        for m in range(1, 5):
            a, b = by_key[f"gcrj_gcpj:m={m}"], by_key[f"record_gcrj_gcpj:n=1:k=1:m={m}"]
            assert a.status is flip.get(b.status, b.status), m
            if b.status is not QuadStatus.NO_CONVERGENCE:
                assert bits(a.value) == bits(-b.value), (m, a.value, b.value)
        # n = 1 record kernels are powers of u: phi_{1,k}^m = u^(km), u*phi_{1,k} = u^(k+1)
        a = by_key["crj_cpj"]
        for key in ("record_crj_cpj:n=1:k=1", "record_gcrj_gcpj:n=1:k=1:m=2"):
            assert (bits(a.value), a.status) == (bits(by_key[key].value), by_key[key].status), key
        a, b = by_key["gcrj_gcpj:m=4"], by_key["record_gcrj_gcpj:n=1:k=2:m=2"]
        assert a.status is flip.get(b.status, b.status)
        if b.status is not QuadStatus.NO_CONVERGENCE:
            assert bits(a.value) == bits(-b.value), (a.value, b.value)
        for k in range(1, 4):
            a, b = by_key[f"crij_cpij:n=1:k={k}"], by_key[f"record_gcrj_gcpj:n=1:k=1:m={k + 1}"]
            assert (bits(a.value), a.status) == (bits(b.value), b.status), k
        # the public functions, evaluated apart, agree bit for bit as well
        for k in range(1, 4):
            for a, b in ((M.record_crj_upper(d, 1, k), M.gcrj(d, 2 * k)),
                         (M.crij_upper(d, 1, k), M.gcrj(d, k + 1))):
                assert (bits(a.value), a.quad_status) == (bits(b.value), b.quad_status), k
        a, b = S.delta2(d, 2, 3), S.delta2_generalized(d, 2, 3, 2)
        assert (bits(a.value), a.quad_status) == (bits(b.value), b.quad_status)
        a, b = S.delta3(d, 3), S.delta2_generalized(d, 1, 1, 3)
        assert a.quad_status is flip.get(b.quad_status, b.quad_status)
        if b.quad_status is not QuadStatus.NO_CONVERGENCE:
            assert bits(a.value) == bits(-b.value)

    def test_distinct_kernels_integrated_once(self, monkeypatch):
        # 105 residuals over 74 distinct kernels: the 48 record kernels at n >= 2,
        # u^p for p in {1, 2, 3, 4, 5, 6, 8, 9, 12, 16}, 12 u*phi and 4 kij weights;
        # one stacked integrand per form, each kernel in exactly one stack
        calls = []
        integrand = M._integrand

        def counting(form, kernels, *args):
            calls.append((form, list(kernels)))
            return integrand(form, kernels, *args)

        monkeypatch.setattr(M, "_integrand", counting)
        rep = S.verify_characterizations(U)
        assert len(rep.residuals) == 105
        assert sorted(form for form, _ in calls) == ["K/dqf", "w*dqf"]
        seen = [K for _, kernels in calls for K in kernels]
        assert len(seen) == len(set(seen)) == 74

    def test_each_phi_evaluated_once_per_round(self, monkeypatch):
        # the K/dqf stack derives its 48 phi^m and 12 u*phi kernels from the 12
        # distinct phi_{n,k} with n >= 2: one partial-sum pass per distinct k per
        # bisection round gives phi_{2..4,k}, so 4 passes, not one per kernel or
        # per phi; the w*dqf stack's kij weights use no phi
        passes, rounds = [], []
        partials, integrate = PhiKernel._partials, M.integrate_support_stack

        def counted(self, u, ns, L=None):
            passes.append((self.n, self.k, tuple(ns)))
            return partials(self, u, ns, L)

        def counting(F, *args):
            def G(u):
                start = len(passes)
                out = F(u)
                rounds.append(passes[start:])
                return out
            return integrate(G, *args)

        monkeypatch.setattr(PhiKernel, "_partials", counted)
        monkeypatch.setattr(M, "integrate_support_stack", counting)
        S.verify_characterizations(P2)
        assert {len(r) for r in rounds} == {0, 4}
        assert all(sorted(r) == [(4, k, (2, 3, 4)) for k in range(1, 5)] for r in rounds if r)

    @pytest.mark.parametrize("d", SYMMETRIC_MEMBERS, ids=repr)
    def test_symmetric_law_takes_no_phi_pass(self, monkeypatch, d):
        # eta is 0 at every node, so the stacks evaluate no kernel, and every
        # gap row is exactly zero
        calls, partials = [], PhiKernel._partials
        monkeypatch.setattr(PhiKernel, "_partials", lambda self, u, ns, L=None: calls.append(ns)
                            or partials(self, u, ns, L))
        rep = S.verify_characterizations(d)
        assert calls == []
        assert rep.verdict is S.Verdict.SYMMETRIC
        assert all(e.value == 0.0 and e.status is QuadStatus.CONVERGED for e in rep.residuals)

    def test_second_law_takes_the_grid_plan(self, monkeypatch):
        # the grid's plan depends on the bounds alone: a second law at the
        # same grid resolves no point and asks _structural once per stack
        S.verify_characterizations(U)
        resolved, structural = [], []
        resolve, rule = M.resolve, M._structural
        monkeypatch.setattr(M, "resolve",
                            lambda *a, **kw: resolved.append((a, kw)) or resolve(*a, **kw))
        monkeypatch.setattr(M, "_structural", lambda *a: structural.append(a[1:]) or rule(*a))
        rep = S.verify_characterizations(E1)
        assert len(rep.residuals) == 105 and resolved == []
        assert sorted(structural) == [("K/dqf", None), ("w*dqf", None)]

    @pytest.mark.parametrize("d", [E1, P2, KUMA], ids=repr)
    def test_grids_in_turn_match_a_first_call(self, d):
        # a plan is keyed on its grid: each grid, verified after another, is
        # the grid verified first in a fresh cache, to the bit
        def bits(rep):
            return [(e.key(), e.status, e.value.hex()) for e in rep.residuals], rep.verdict

        grids = [(2, 2, 2), (4, 4, 4), (2, 2, 2)]
        first = {}
        for grid in grids:
            S._grid.cache_clear()
            first[grid] = bits(S.verify_characterizations(d, *grid))
        S._grid.cache_clear()
        for grid in grids:
            assert bits(S.verify_characterizations(d, *grid)) == first[grid], grid
        assert S._grid.cache_info().currsize == 2

    def test_bad_bounds_raise_with_a_grid_planned(self):
        S.verify_characterizations(U, 2, 2, 2)
        planned = S._grid.cache_info().currsize
        with pytest.raises(ValueError, match="max_n must be an integer >= 1, got 0"):
            S.verify_characterizations(U, max_n=0)
        with pytest.raises(ValueError, match="quad_tol must be a positive finite number"):
            S.verify_characterizations(U, 2, 2, 2, quad_tol=0.0)
        assert S._grid.cache_info().currsize == planned

    @pytest.mark.parametrize("d, most", [
        (Exponential(rate=1.7), 8), (Pareto(theta=2.5), 8), (PowerFunction(theta=2.0), 8),
        (PowerFunction(theta=0.7), 8), *((d, 2) for d in SYMMETRIC_MEMBERS)], ids=repr)
    def test_grid_settles_in_few_rounds(self, integrand_rounds, d, most):
        # eta is like 1/u at an end of every asymmetric law; with the middle
        # piece cut at the decades the grid needs 5-6 bisection rounds, where
        # grading it one level per round from 1/2 would take 23-25.  On a
        # half-line law verify decides the K/dqf gaps without quadrature, so
        # their stack is integrated here directly.
        S.verify_characterizations(d)
        if M._structural(d, "K/dqf", None) is not None:
            integrate_support_stack(*M._integrand("K/dqf", M._Stack(KDQF_GAPS), d, None, "u"), DEFAULT_TOL)
        assert len(integrand_rounds) <= most

    @pytest.mark.parametrize("d", [E1, PA2, PowerFunction(theta=0.777)], ids=repr)
    def test_stacked_residuals_match_one_row_at_a_time(self, d):
        # each residual of the shared-node stack against its row integrated alone
        rep = S.verify_characterizations(d, 3, 3, 3)
        by_id = {row.family: row for row in M.KERNELS.values() if row.family}
        for e in rep.residuals:
            alone = M.measure_value(by_id[e.family], d, e.n or 1, e.k or 1, e.m or 2)
            assert e.status is alone.quad_status, e.key()
            if e.is_finite:
                assert abs(e.value - alone.value) <= 1e-9 * max(1.0, abs(alone.value)), e.key()

    def test_report_invariant(self):
        for d in (U, E1, PA2):
            rep = S.verify_characterizations(d, 2, 2, 2)
            if rep.verdict is S.Verdict.SYMMETRIC:
                assert rep.class_c.is_member
                assert all(abs(e.value) < rep.tolerance for e in rep.residuals if e.is_finite)


class TestStructuralGaps:
    """On a support with one infinite end every K/dqf gap diverges, with the
    sign of that end, so verify takes no quadrature for it."""

    def test_every_kernel_runs_from_zero_to_one(self):
        assert len(KDQF_GAPS) == 70
        for K in KDQF_GAPS:
            at0, at1 = K(np.array([1e-20, 1.0 - 1e-15]))
            assert abs(at0) < 1e-12 and abs(at1 - 1.0) < 1e-12, (K, at0, at1)

    @pytest.mark.parametrize("d", [
        Exponential(rate=0.5), Exponential(rate=1.0), Exponential(rate=1.7), Pareto(theta=0.5),
        Pareto(theta=2.0), Pareto(theta=2.5), D.Scaled(Exponential(), 2.0), UserExponential(),
        NegExponential()], ids=repr)
    def test_quadrature_reaches_the_rule(self, d):
        rule = M._structural(d, "K/dqf", None)
        assert rule is not None
        assert rule.status is (QuadStatus.DIVERGED_NEGATIVE if d.support[0] > -math.inf
                               else QuadStatus.DIVERGED_POSITIVE)
        got = [qr.status for qr in integrate_support_stack(
            *M._integrand("K/dqf", M._Stack(KDQF_GAPS), d, None, "u"), DEFAULT_TOL)]
        assert got == [rule.status] * len(KDQF_GAPS)

    def test_residual_signs_on_a_lower_infinite_end(self):
        by_key = {e.key(): e.status for e in S.verify_characterizations(NegExponential()).residuals}
        assert by_key["crj_cpj"] is QuadStatus.DIVERGED_NEGATIVE
        assert by_key["gcrj_gcpj:m=2"] is QuadStatus.DIVERGED_POSITIVE

    @pytest.mark.parametrize("d", [NM, U, P2, UserNormal()], ids=repr)
    def test_whole_line_and_bounded_gaps_are_integrated(self, d):
        assert M._structural(d, "K/dqf", None) is None
        assert M._structural(d, "w*dqf", None) is None


class TestEmpiricalEstimators:
    def test_two_point_sample(self):
        assert S.empirical_crj([0.0, 1.0]) == -0.125
        assert S.empirical_cpj([0.0, 1.0]) == -0.125

    def test_explicit_formula_cross_check(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=257)
        s = np.sort(x)
        n = s.size
        i = np.arange(1, n)
        crj_direct = -0.5 * float(np.dot((1.0 - i / n) ** 2, np.diff(s)))
        cpj_direct = -0.5 * float(np.dot((i / n) ** 2, np.diff(s)))
        assert abs(S.empirical_crj(x) - crj_direct) < 1e-12
        assert abs(S.empirical_cpj(x) - cpj_direct) < 1e-12

    def test_consistency_uniform(self):
        import extrec.dist as dist

        vals = [S.empirical_crj(dist.sample(U, 10_000, seed)) for seed in range(50)]
        assert abs(float(np.median(vals)) - (-1.0 / 6.0)) < 0.01

    def test_consistency_exponential_crj(self):
        import extrec.dist as dist

        vals = [S.empirical_crj(dist.sample(E1, 10_000, seed)) for seed in range(20)]
        assert abs(float(np.median(vals)) - (-0.25)) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            S.empirical_crj([1.0])
        with pytest.raises(ValueError):
            S.empirical_cpj([1.0, math.nan])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60))
def test_estimator_reflection_duality_exact(xs):
    x = np.asarray(xs)
    assert S.empirical_cpj(x) == S.empirical_crj(-x)
    assert S.empirical_crj(x) == S.empirical_cpj(-x)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40))
def test_estimators_nonpositive(xs):
    assert S.empirical_crj(xs) <= 0.0
    assert S.empirical_cpj(xs) <= 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
                min_size=2, max_size=60))
def test_estimator_gap_is_mean_minus_midrange(xs):
    # the identity the bootstrap evaluates each replicate by
    x = np.asarray(xs)
    gap = S.empirical_cpj(x) - S.empirical_crj(x)
    assert abs(x.mean() - 0.5 * (x.min() + x.max()) - gap) <= 1e-12 * np.abs(x).max()


def _sorted_bootstrap_p(x, replicates, seed):
    """Reference bootstrap: each replicate sorted and its T* taken as the
    spacings form -1/2 * sum_j ((2j-n)/n)(x_(j+1)-x_(j)), one matrix of draws."""
    n = x.size
    centered = x - np.median(x)
    t_obs = S.empirical_cpj(centered) - S.empirical_crj(centered)
    pool = np.concatenate([centered, -centered])
    w = -0.5 * (2.0 * np.arange(1, n) - n) / n
    b = np.sort(pool[np.random.default_rng(seed).integers(0, 2 * n, size=(replicates, n))], axis=1)
    exceed = np.count_nonzero(np.abs(np.diff(b, axis=1) @ w) >= abs(t_obs))
    return (1 + exceed) / (replicates + 1)


def _exact_lattice_p(k, replicates, seed):
    """The p-value of the sample 0.1*k, k integer, in integer arithmetic: in
    units of 0.05 the centred values are 2k - (k_(a) + k_(b)), and 2n*T is
    2*sum - n*(min + max) of them."""
    n = k.size
    s = np.sort(k)
    c = 2 * k - (s[(n - 1) // 2] + s[n // 2])
    pool = np.concatenate([c, -c])
    stat = lambda b: np.abs(2 * b.sum(axis=-1) - n * (b.min(axis=-1) + b.max(axis=-1)))
    b = pool[np.random.default_rng(seed).integers(0, 2 * n, size=(replicates, n))]
    return (1 + int(np.count_nonzero(stat(b) >= stat(c)))) / (replicates + 1)


def _lattice_sample(n, seed):
    k = np.random.default_rng(seed).integers(0, 8, size=n)
    return k, k * 0.1


class TestSymmetryTest:
    def test_symmetric_multiset_never_rejects(self):
        base = [-2.0, -1.0, 0.0, 1.0, 2.0]
        padded = base + [v for p in (3, 4, 5, 6, 7, 8, 9) for v in (float(p), -float(p))] + [0.0]
        res = S.symmetry_test(padded, replicates=299, alpha=0.05, seed=4)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.decision == "fail_to_reject"

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=64)
        a = S.symmetry_test(x, replicates=499, alpha=0.05, seed=21)
        b = S.symmetry_test(x, replicates=499, alpha=0.05, seed=21)
        assert a == b

    def test_p_value_in_unit_interval_and_decision_rule(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            x = rng.normal(size=40)
            r = S.symmetry_test(x, replicates=199, alpha=0.3, seed=seed)
            assert 0.0 < r.p_value <= 1.0
            assert (r.decision == "reject") == (r.p_value < r.alpha)

    def test_strong_asymmetry_rejected(self):
        import extrec.dist as dist

        x = dist.sample(E1, 200, 101)
        r = S.symmetry_test(x, replicates=999, alpha=0.05, seed=0)
        assert r.decision == "reject"

    def test_validation(self):
        ok = list(range(20))
        with pytest.raises(ValueError):
            S.symmetry_test(ok[:10])            # too small
        with pytest.raises(ValueError):
            S.symmetry_test(ok, replicates=100)  # too few replicates
        with pytest.raises(ValueError):
            S.symmetry_test(ok, alpha=1.5)
        with pytest.raises(ValueError):
            S.symmetry_test([1.0] * 25)          # degenerate

    @pytest.mark.parametrize("n", [20, 37, 200])
    def test_lattice_ties_count_as_exceedances(self, n):
        # a replicate whose |T*| equals |T| exactly counts, whatever either side
        # rounded to; deciding by rounding moves 98 of these 150 p-values
        for seed in range(50):
            k, x = _lattice_sample(n, seed)
            p = S.symmetry_test(x, replicates=199, seed=seed).p_value
            assert p == _exact_lattice_p(k, 199, seed), seed

    @pytest.mark.parametrize("n", [20, 200, 2000])
    @pytest.mark.parametrize("d", [Normal(), E1, Laplace()], ids=lambda d: d.name)
    def test_matches_sorted_bootstrap(self, d, n):
        for seed in range(34):
            x = D.sample(d, n, 500 + seed)
            p = S.symmetry_test(x, replicates=199, seed=seed).p_value
            assert p == _sorted_bootstrap_p(x, 199, seed), seed

    @pytest.mark.parametrize("rows", [1, 7, 199], ids=["one-row", "partial-last", "all-at-once"])
    def test_chunking_does_not_change_result(self, monkeypatch, rows):
        # by default n = 1000 takes 65 rows a chunk, so 199 replicates take four
        samples = [D.sample(E1, 1000, 5), _lattice_sample(1000, 5)[1]]
        expected = [S.symmetry_test(x, replicates=199, seed=11) for x in samples]
        monkeypatch.setattr(S, "_CHUNK", rows * 1000)
        assert [S.symmetry_test(x, replicates=199, seed=11) for x in samples] == expected

    def test_bootstrap_memory_is_bounded(self):
        x = D.sample(E1, 5000, 7)
        tracemalloc.start()
        try:
            S.symmetry_test(x, replicates=999, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, peak
