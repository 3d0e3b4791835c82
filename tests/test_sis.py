import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from mpmath import mp
import hypothesis.strategies as st

from bdecay import (
    DomainError,
    EpsSisParams,
    InvalidParameterError,
    PrecisionExhaustedError,
    QuadratureFailureError,
    char_coeffs,
    decay_regime,
    exact_zeta,
    hitting_time_solve,
    lifetime_asymptotic,
    lifetime_direct,
    lifetime_expint,
    lifetime_taylor,
    mean_absorption_time,
    restrict_transient,
    steady_state,
)
from bdecay._numbers import to_mpf
from bdecay.sis import taylor_coeffs
from bdecay.validate import check_expint
from paper_formulas import (
    char_coeff0,
    char_coeff1,
    char_coeff2_limit,
    exp_integral,
    lifetime_double_sum,
    lifetime_streaming,
    weighted_expint_integral,
)

EULER_GAMMA = 0.5772156649015329


def harmonic(n):
    return sum(Fraction(1, k) for k in range(1, n + 1))


class TestParams:
    def test_derived_quantities(self):
        p = EpsSisParams(n=4, beta=Fraction(1, 2), delta=2, eps=1)
        assert p.tau == Fraction(1, 4)
        assert p.eps_star == Fraction(1, 2)
        assert p.x == 1

    def test_from_tau_and_from_x_agree(self):
        a = EpsSisParams.from_tau(10, Fraction(1, 5), 2)
        b = EpsSisParams.from_x(10, 2, 2)
        assert a == b

    @pytest.mark.parametrize("kw", [dict(beta=0), dict(delta=0), dict(eps=-1), dict(n=0)])
    def test_invalid(self, kw):
        base = dict(n=3, beta=1, delta=1, eps=0)
        base.update(kw)
        with pytest.raises(InvalidParameterError):
            EpsSisParams(**base)

    @pytest.mark.parametrize("n", [0, -2, Fraction(5, 2)])
    def test_from_x_rejects_bad_node_count_before_dividing(self, n):
        with pytest.raises(InvalidParameterError, match="n must be a positive integer"):
            EpsSisParams.from_x(n, 2, 1)


@pytest.mark.parametrize("n", [Fraction(5, 2), 2.5, 0, -3], ids=str)
@pytest.mark.parametrize(
    "route,args",
    [
        (lifetime_direct, (0.1,)),
        (taylor_coeffs, ()),
        (lifetime_taylor, (0.1,)),
        (lifetime_expint, (1.0,)),
        (lifetime_asymptotic, (2,)),
        (decay_regime, (Fraction(1, 2),)),
        (decay_regime, (1,)),
    ],
    ids=["lifetime_direct", "taylor_coeffs", "lifetime_taylor", "lifetime_expint",
         "lifetime_asymptotic", "decay_regime-below", "decay_regime-at"],
)
def test_lifetime_routes_reject_bad_node_count(route, args, n):
    with pytest.raises(InvalidParameterError, match="n must be a positive integer"):
        route(n, *args)


class TestClosedFormCoefficients:
    def test_coeff0_limit_is_one(self):
        p = EpsSisParams.from_tau(7, Fraction(2, 7), 1, 0)
        assert char_coeff0(p) == 1

    def test_coeff0_single_node(self):
        p = EpsSisParams(n=1, beta=2, delta=2, eps=3)
        assert char_coeff0(p) == 1 + Fraction(3, 2)

    def test_coeff0_matches_ground_state(self):
        p = EpsSisParams(n=2, beta=1, delta=1, eps=1)
        assert char_coeff0(p) == 5
        assert steady_state(p.ladder())[0] == Fraction(1, 5)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(1, 6),
        st.fractions(Fraction(1, 8), Fraction(3), max_denominator=8),
        st.fractions(Fraction(0), Fraction(2), max_denominator=8),
        st.fractions(Fraction(1, 4), Fraction(3), max_denominator=4),
    )
    def test_closed_forms_equal_recursion(self, n, tau, eps_star, delta):
        p = EpsSisParams(n=n, beta=tau * delta, delta=delta, eps=eps_star * delta)
        ladder = p.ladder()
        if p.eps == 0:
            ladder = restrict_transient(ladder)
        coeffs = char_coeffs(ladder, kmax=min(2, n))
        assert char_coeff0(p) == coeffs.f[0]
        assert char_coeff1(p) == coeffs.f[1]

    def test_coeff1_spec_point(self):
        p = EpsSisParams(n=2, beta=1, delta=1, eps=1)
        assert char_coeff1(p) == Fraction(7, 2)

    def test_coeff1_limit_is_lifetime(self):
        p = EpsSisParams.from_tau(9, Fraction(2, 9), Fraction(3, 2), 0)
        assert char_coeff1(p) == lifetime_direct(9, Fraction(2, 9), Fraction(3, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_coeff2_limit_matches_recursion(self, n):
        for delta in (Fraction(1), Fraction(2)):
            p = EpsSisParams.from_tau(n, Fraction(2, n), delta, 0)
            sub = restrict_transient(p.ladder())
            coeffs = char_coeffs(sub, kmax=2)
            assert char_coeff2_limit(p) == coeffs.f[2]

    def test_coeff2_two_nodes_leading_term_only(self):
        p = EpsSisParams.from_tau(2, Fraction(5, 7), Fraction(3), 0)
        assert char_coeff2_limit(p) == Fraction(1, 2 * 9)

    def test_coeff1_eps_decreasing_to_limit(self):
        n, tau = 6, Fraction(2, 6)
        limit = lifetime_direct(n, tau)
        gaps = []
        for k in range(6, 13):
            p = EpsSisParams(n=n, beta=tau, delta=1, eps=Fraction(1, 10**k))
            gaps.append(abs(char_coeff1(p) - limit))
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestLifetimeDirect:
    def test_single_node(self):
        assert lifetime_direct(1, Fraction(3, 7), Fraction(2)) == Fraction(1, 2)

    @pytest.mark.parametrize("tau", [Fraction(0), Fraction(1), Fraction(2, 5)])
    def test_two_nodes_formula(self, tau):
        delta = Fraction(4, 3)
        assert lifetime_direct(2, tau, delta) == (Fraction(3, 2) + tau / 2) / delta

    @pytest.mark.parametrize("tau", [Fraction(0), Fraction(1), Fraction(5, 3)])
    def test_three_nodes_formula(self, tau):
        want = Fraction(11, 6) + Fraction(4, 3) * tau + Fraction(2, 3) * tau ** 2
        assert lifetime_direct(3, tau) == want

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 60),
        st.fractions(Fraction(0), Fraction(2), max_denominator=30),
        st.fractions(Fraction(1, 30), Fraction(5), max_denominator=30),
    )
    def test_recursion_equals_double_sum(self, n, tau, delta):
        assert lifetime_direct(n, tau, delta) == lifetime_double_sum(n, tau, delta)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 60),
        st.fractions(Fraction(1, 60), Fraction(2), max_denominator=60),
        st.fractions(Fraction(1, 30), Fraction(5), max_denominator=30),
    )
    def test_equals_exact_hitting_time(self, n, tau, delta):
        ladder = EpsSisParams.from_tau(n, tau, delta).ladder()
        assert lifetime_direct(n, tau, delta) == hitting_time_solve(ladder)[-1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 300),
        st.one_of(
            st.just(Fraction(0)),
            st.fractions(Fraction(0), Fraction(2), max_denominator=10**6),
        ),
        st.fractions(Fraction(1, 1000), Fraction(1000), max_denominator=1000),
    )
    def test_product_tree_equals_streaming(self, n, tau, delta):
        assert lifetime_direct(n, tau, delta) == lifetime_streaming(n, tau, delta)

    @pytest.mark.parametrize("delta", [Fraction(1), Fraction(19, 16)])
    @pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(2), Fraction(3)])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 500, 1000, 2000])
    def test_product_tree_equals_streaming_at_scale(self, n, x, delta):
        # the tree splits at powers of two, and n = 2000 is the benchmark's size
        assert lifetime_direct(n, x / n, delta) == lifetime_streaming(n, x / n, delta)

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_pure_death_is_harmonic_time(self, n):
        assert lifetime_direct(n, 0, Fraction(3, 2)) == harmonic(n) / Fraction(3, 2)
        assert lifetime_direct(n, 0.0) == pytest.approx(float(harmonic(n)), rel=1e-15)

    def test_inexact_tau_streams_as_written(self):
        # values of the Fraction-free recursion, to the last bit
        assert lifetime_direct(50, 0.04, 1.25) == 9778.5577740077
        assert lifetime_direct(200, 0.01) == 2.1644530117613244e16
        assert lifetime_direct(30, mp.mpf(3) / 40) == mp.mpf("1586.8946013582749")

    def test_exact_tau_with_float_delta_divides_last(self):
        assert lifetime_direct(200, Fraction(1, 100), 0.5) == 4.32890602352264e16

    def test_exact_tau_with_mpf_delta(self):
        exact = lifetime_direct(50, Fraction(3, 50))
        value = lifetime_direct(50, Fraction(3, 50), mp.mpf(1.25))
        assert isinstance(value, mp.mpf)
        assert value == to_mpf(exact) / mp.mpf(1.25)


class TestTaylorCoeffs:
    def test_three_nodes(self):
        assert taylor_coeffs(3) == (Fraction(11, 6), Fraction(4, 3), Fraction(2, 3))

    def test_alternating_form_example(self):
        # j = 2, n = 3: (1!)^2 [C(3,2) 0!/2! - C(3,3) 1!/3!] = 3/2 - 1/6
        from bdecay.sis import _taylor_row_alternating

        assert _taylor_row_alternating(3)[1] == Fraction(3, 2) - Fraction(1, 6) == Fraction(4, 3)

    def test_row_equals_alternating_form(self):
        from bdecay.sis import _taylor_row, _taylor_row_alternating

        for n in range(1, 41):
            assert _taylor_row(n) == _taylor_row_alternating(n), n

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 30])
    def test_first_coefficient_is_harmonic(self, n):
        assert taylor_coeffs(n)[0] == harmonic(n)

    @pytest.mark.parametrize("n", [1, 4, 9, 21, 300])
    def test_lifetime_from_series_is_exact(self, n):
        for tau in (Fraction(1, 2 * n), Fraction(3, n), Fraction(0)):
            assert lifetime_taylor(n, tau, Fraction(2)) == lifetime_direct(n, tau, Fraction(2))

    def test_pure_death_is_harmonic_time(self):
        assert lifetime_taylor(3, 0) == harmonic(3)


class TestExpIntegral:
    def test_matches_independent_evaluation(self):
        # mpmath's expint(n, x) loses about 1.5 x bits for n > 1; for n = 1 it
        # is e1, which needs no such guard
        cases = [(n, x) for n in (1, 2, 7, 50, 200) for x in (0.1, 1.0, 10.0, 100.0)]
        for n, x in cases + [(1, 1e4)]:
            mine = exp_integral(n, x, bits=80)
            with mp.workprec(200 + (int(1.5 * x) if n > 1 else 0)):
                ref = mp.expint(n, x)
                assert abs(mine - ref) < mp.mpf(2) ** -70 * ref

    def test_recursion_residual(self):
        # x in {0.1, 1, 10}, k <= 100: residual <= 1e-12, the sandwich bounds,
        # and mpmath's expint within 1e-14
        ok, detail = check_expint("full")
        assert ok, detail

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_check_reads_the_production_orders(self, monkeypatch, k):
        # one order off by 1e-10 relative in the evaluator lifetime_expint
        # runs fails the check
        from bdecay import sis

        orders = sis._scaled_orders

        def perturbed(top, w):
            g = orders(top, w)
            g[k - 1] *= 1 + 1e-10
            return g

        monkeypatch.setattr(sis, "_scaled_orders", perturbed)
        ok, detail = check_expint("quick")
        assert not ok, detail

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 41, 101, 149, 150, 151, 171])
    def test_scaled_double_evaluator_matches_exp_integral(self, k):
        # e^w E_k(w) as the quadrature sees it: order k of the full ladder up to
        # 171, and order k at the top of its own ladder, whose seed differs
        from bdecay.sis import _scaled_orders

        ws = [1e-6, 1e-3, 0.1, 1.0, 1.5, 10.0, 50.0, 150.0, 199.9, 200.0, 200.1, 250.0, 1e3, 1e4]
        for w in ws:
            with mp.workprec(80):
                ref = mp.exp(w) * exp_integral(k, w, bits=80)
            for got in (_scaled_orders(171, w)[k - 1], _scaled_orders(k, w)[-1]):
                assert abs(got - ref) <= 1e-14 * ref, (k, w)


class TestWeightedExpintIntegral:
    @pytest.mark.parametrize("tau", [0.1, 0.3, 0.5])
    def test_upper_bound_cascade(self, tau):
        prev = weighted_expint_integral(tau, 1)
        for k in range(2, 21):
            cur = weighted_expint_integral(tau, k)
            assert cur < tau ** (k - 1) / (k - 1) ** 2
            assert cur < tau * prev
            prev = cur

    def test_high_order_underflows_instead_of_overflowing(self):
        tau, k = 0.5, 120
        val = weighted_expint_integral(tau, k)
        assert 0 < val < tau ** (k - 1) / (k - 1) ** 2

    def test_integrand_beyond_double_range_is_precision_exhausted(self):
        # 1/tau = 0.01, and 0.01^-171 overflows a double
        with pytest.raises(PrecisionExhaustedError):
            weighted_expint_integral(100.0, 171)

    @pytest.mark.parametrize("tau", [0.1, 0.3, 0.5, 0.9])
    def test_first_integral_bracket(self, tau):
        val = weighted_expint_integral(tau, 1)
        lo = tau * (EULER_GAMMA - math.log(tau))
        assert lo < val < lo + tau ** 1.5 * math.sqrt(math.pi) / 2


class TestLaplaceTransformForm:
    @pytest.mark.parametrize("n,tau", [(3, 0.8), (5, 0.5)])
    def test_double_integral_matches_direct(self, n, tau):
        # F(tau) = (1/beta) int_0^inf [ int_0^1 ((yu+1)^n - y^n)/((yu+1)-y) dy ]
        #          e^{-u/tau} du  -- quadrature cross-check only, never a
        # production path (the expint representation supersedes it)
        from mpmath import fp

        def inner(u):
            def g(y):
                num = (y * u + 1) ** n - y ** n
                den = (y * u + 1) - y
                return num / den

            return fp.quad(g, [0.0, 1.0]) * math.exp(-u / tau)

        outer = fp.quad(inner, [0.0, 80.0 * tau])
        beta = tau  # delta = 1
        want = float(lifetime_direct(n, Fraction(tau).limit_denominator(10)))
        assert abs(outer / beta - want) / want < 1e-6


# (n, x): the benchmark's referee grid, then larger sizes, where n! and the
# weights n!/(n+1-k)! alone leave the double range but beta F does not
EXPINT_GRID = [(n, x) for x in (Fraction(3, 2), Fraction(2), Fraction(3)) for n in range(5, 41, 5)]
EXPINT_GRID += [(60, Fraction(3)), (100, Fraction(2)), (150, Fraction(3)), (170, Fraction(3))]
EXPINT_GRID += [(200, Fraction(4)), (600, Fraction(3))]

# (n, x) on which the expint route is held to 1e-13 wherever beta F fits a double
TIGHT_SMALL = [
    (n, x)
    for n in range(2, 41)
    for x in map(Fraction, ("1.001", "1.01", "1.1", "1.5", 2, 3, 5, 10, n, 2 * n, 10 * n))
]
TIGHT_LARGE = [
    (n, Fraction(v)) for n in (50, 100, 200, 400, 700, 1000) for v in ("1.001", "1.1", "1.5", 2, 3, 10)
]


class TestLifetimeExpint:
    @pytest.mark.parametrize(
        "n,tau,rtol",
        [(2, 0.8, 1e-8), (5, 0.5, 1e-8), (8, 0.3, 1e-6)]
        + [pytest.param(n, x / n, 1e-10, id=f"{n}-{x / n}-1e-10") for n, x in EXPINT_GRID],
    )
    def test_matches_direct(self, n, tau, rtol):
        exact = tau if isinstance(tau, Fraction) else Fraction(tau).limit_denominator(10)
        want = float(lifetime_direct(n, exact))
        got = lifetime_expint(n, tau)
        assert abs(got - want) / want < rtol

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            lifetime_expint(10, 0.05)

    def test_result_beyond_double_range_is_precision_exhausted(self):
        # x = 100: beta F ~ e^723
        with pytest.raises(PrecisionExhaustedError):
            lifetime_expint(200, Fraction(1, 2))

    def test_unresolved_integrand_is_a_quadrature_failure(self):
        # a narrow peak away from the rule's scale: eight step halvings miss it
        from bdecay.sis import _exp_sinh

        with pytest.raises(QuadratureFailureError):
            _exp_sinh(lambda w: 1 / (1e-3 + (w - 5) ** 2), 1.0)

    @pytest.mark.parametrize("points", [TIGHT_SMALL, TIGHT_LARGE], ids=["small", "large"])
    def test_matches_direct_tightly_wherever_beta_f_fits_a_double(self, points):
        for n, x in points:
            tau = x / n
            want = lifetime_direct(n, tau)
            if want * tau > sys.float_info.max:
                with pytest.raises(PrecisionExhaustedError):
                    lifetime_expint(n, tau)
            else:
                got = Fraction(lifetime_expint(n, tau))
                assert abs(got - want) <= 1e-13 * want, (n, x)


class TestLifetimeAsymptotic:
    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            lifetime_asymptotic(50, 1)
        with pytest.raises(DomainError):
            lifetime_asymptotic(50, Fraction(1, 2))

    def test_ratio_marches_to_one(self):
        prev = None
        for n in (25, 50, 100, 200):
            ratio = lifetime_asymptotic(n, 2) / float(lifetime_direct(n, Fraction(2, n)))
            if prev is not None:
                assert abs(ratio - 1) < abs(prev - 1)
            prev = ratio
        assert 0.8 < prev < 1.2

    def test_doubling_exponent_consistency(self):
        # log F(2n) - log F(n) = n(ln x + 1/x - 1) - ln(2)/2 + prefactor terms
        x, n = 2.0, 64
        grow = math.log(lifetime_asymptotic(2 * n, x)) - math.log(lifetime_asymptotic(n, x))
        want = n * (math.log(x) + 1 / x - 1) - 0.5 * math.log(2)
        assert abs(grow - want) < 1e-12


class TestDecayRegime:
    def test_at_threshold_constant(self):
        est = decay_regime(1000, 1, 1)
        assert est.regime == "at"
        assert est.leading_estimate == pytest.approx(1 / math.sqrt(1000))
        assert est.order_only

    @pytest.mark.parametrize("n", [50, 100, 400])
    def test_at_threshold_estimate_tracks_exact_zeta(self, n):
        delta = Fraction(3, 2)
        est = decay_regime(n, 1, delta)
        zeta = exact_zeta(restrict_transient(EpsSisParams.from_x(n, 1, delta, 0).ladder()))
        assert est.leading_estimate == pytest.approx(-float(zeta), rel=0.15)

    def test_above_threshold_uses_lifetime(self):
        est = decay_regime(50, 2, 1)
        assert est.regime == "above"
        assert est.leading_estimate == pytest.approx(
            1 / float(lifetime_direct(50, Fraction(2, 50)))
        )

    def test_above_threshold_beyond_the_double_range(self):
        # F at n=2000, x=3 overflows a double, so 1/F stays an mpf
        est = decay_regime(2000, 3, 1)
        assert isinstance(est.leading_estimate, mp.mpf)
        with mp.workprec(53):
            assert est.leading_estimate == 1 / to_mpf(lifetime_direct(2000, Fraction(3, 2000)))
        assert mp.nstr(est.leading_estimate, 17) == "1.5589033760218997e-374"
        # a huge delta makes F underflow a double and 1/F overflow one
        est = decay_regime(50, 2, Fraction(10) ** 400)
        assert isinstance(est.leading_estimate, mp.mpf)
        assert mp.nstr(est.leading_estimate, 5) == "8.1812e+395"

    @pytest.mark.parametrize("x, exact", [(3.0, 3), (mp.mpf(3), 3), (2.7, Fraction(2.7))])
    def test_binary_x_is_read_at_its_value(self, x, exact):
        # in floats the lifetime recursion's x_j overflow at n = 2000, and
        # 1/F would read 0
        est = decay_regime(2000, x).leading_estimate
        assert est > 0
        assert est == decay_regime(2000, exact).leading_estimate

    @pytest.mark.parametrize(
        "delta, exact", [(1.0, 1), (0.75, Fraction(3, 4)), (mp.mpf(1), 1)]
    )
    def test_binary_delta_is_read_at_its_value(self, delta, exact):
        # F at n = 2000, x = 3 is beyond double range, so F / delta cannot
        # pass through a float
        est = decay_regime(2000, 3, delta)
        assert est == decay_regime(2000, 3, exact)
        assert est.leading_estimate > 0

    def test_below_threshold_order_only(self):
        est = decay_regime(50, Fraction(1, 2), 1)
        assert est.regime == "below"
        assert est.order_only
        assert est.leading_estimate == pytest.approx(1 / math.log(50))


class TestMeanAbsorptionTime:
    def test_two_nodes(self):
        rep = mean_absorption_time(EpsSisParams.from_tau(2, 1, 1, 0))
        assert rep.e_t == 2
        assert rep.f_direct == rep.f_taylor == 2

    def test_pure_death_harmonic(self):
        rep = mean_absorption_time(EpsSisParams.from_tau(3, Fraction(1, 10**9), 1, 0))
        assert abs(float(rep.e_t) - float(harmonic(3))) < 1e-6

    def test_three_nodes_above_threshold(self):
        rep = mean_absorption_time(EpsSisParams.from_tau(3, 1, 1, 0))
        assert rep.e_t == Fraction(23, 6)
        assert rep.regime == "above"
        assert rep.f_expint is not None
        assert rep.max_pairwise_relative_gap < 0.2  # asymptotic is rough at n=3

    def test_requires_absorbing_chain(self):
        with pytest.raises(InvalidParameterError):
            mean_absorption_time(EpsSisParams(n=3, beta=1, delta=1, eps=1))

    @pytest.mark.parametrize("x,regime", [(Fraction(2), "above"), (Fraction(1), "at"),
                                          (Fraction(1, 2), "below")])
    def test_one_exact_lifetime_per_report(self, monkeypatch, x, regime):
        from bdecay import sis

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lifetime_direct(*args, **kwargs)

        monkeypatch.setattr(sis, "lifetime_direct", counting)
        rep = mean_absorption_time(EpsSisParams.from_x(40, x, 1, 0))
        assert len(calls) == 1
        assert rep.regime == regime == decay_regime(40, x).regime

    def test_taylor_route_stops_above_its_domain(self, monkeypatch):
        from bdecay import sis

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lifetime_taylor(*args, **kwargs)

        monkeypatch.setattr(sis, "lifetime_taylor", counting)
        assert sis.TAYLOR_MAX_N == 600
        rep = mean_absorption_time(EpsSisParams.from_x(601, 2, 1, 0))
        assert calls == []
        assert rep.f_taylor is None
        assert rep.f_direct == lifetime_direct(601, Fraction(2, 601))
        # inside the domain the counter sees the call
        rep = mean_absorption_time(EpsSisParams.from_x(20, 2, 1, 0))
        assert len(calls) == 1
        assert rep.f_taylor == rep.f_direct

    def test_failed_quadrature_leaves_expint_out_of_the_gap(self, monkeypatch):
        from bdecay import sis

        def failing(*args, **kwargs):
            raise QuadratureFailureError("forced failure", error_estimate=1.0)

        params = EpsSisParams.from_tau(12, Fraction(1, 4), 1, 0)
        monkeypatch.setattr(sis, "lifetime_expint", failing)
        rep = mean_absorption_time(params)
        assert rep.f_expint is None
        direct, asym = float(rep.f_direct), rep.f_asymptotic
        assert rep.f_taylor == rep.f_direct
        assert rep.max_pairwise_relative_gap == abs(direct - asym) / max(abs(direct), abs(asym))

    def test_expint_beyond_forty_nodes(self):
        rep = mean_absorption_time(EpsSisParams.from_x(100, 2, 1, 0))
        direct = float(rep.f_direct)
        assert abs(rep.f_expint - direct) / direct < 1e-10

    def test_lifetime_beyond_the_double_range(self):
        # F ~ 7.6e314: no double holds beta F, and the asymptotic form is an mpf
        rep = mean_absorption_time(EpsSisParams.from_x(520, 10, 1, 0))
        assert rep.f_expint is None
        assert rep.f_taylor == rep.f_direct
        assert isinstance(rep.f_asymptotic, mp.mpf)
        ratio = rep.f_asymptotic * rep.f_direct.denominator / rep.f_direct.numerator
        assert rep.max_pairwise_relative_gap == pytest.approx(abs(1 - ratio) / max(1, ratio))

    def test_methods_agree_tightly_on_their_domains(self):
        rep = mean_absorption_time(EpsSisParams.from_tau(12, Fraction(1, 4), 1, 0))
        direct = float(rep.f_direct)
        assert rep.f_taylor == rep.f_direct
        assert abs(rep.f_expint - direct) / direct < 1e-6
