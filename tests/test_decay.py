import math
from dataclasses import replace
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, getcontext, localcontext
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings
from mpmath import mp
from mpmath.libmp import to_rational

from bdecay import (
    GENERATOR,
    STOCHASTIC,
    InconsistentCoefficientsError,
    InsufficientCoefficientsError,
    PrecisionCtx,
    PrecisionExhaustedError,
    RateLadder,
    ReducibleChainError,
    build_eps_sis_ladder,
    char_coeffs,
    decay_report,
    exact_zeta,
    lagrange_zeta,
    newton_bound,
    required_precision,
    restrict_transient,
)
from bdecay import decay
from bdecay._numbers import to_fraction, to_mpf
from bdecay.oracle import dense_spectrum, sturm_tol, sturm_zeta
from conftest import binary_copy, rational_ladders, rational_subgenerators


def two_node_coeffs():
    return char_coeffs(restrict_transient(build_eps_sis_ladder(2, 1, 1, 0)))


class TestLagrange:
    def test_single_zero_chain_is_exact_at_all_orders(self):
        sub = restrict_transient(build_eps_sis_ladder(1, 1, Fraction(3), 0))
        coeffs = char_coeffs(sub)
        assert coeffs.f == (Fraction(1), Fraction(1, 3))
        for order in (1, 2, 3):
            assert lagrange_zeta(coeffs, order) == -3

    def test_two_node_orders(self):
        coeffs = two_node_coeffs()
        assert lagrange_zeta(coeffs, 1) == Fraction(-1, 2)
        assert lagrange_zeta(coeffs, 2) == Fraction(-9, 16)  # -0.5625 exactly
        exact = -(2 - math.sqrt(2))
        assert exact < -0.5625 < -0.5

    def test_order_validation(self):
        coeffs = two_node_coeffs()
        with pytest.raises(ValueError):
            lagrange_zeta(coeffs, 4)

    def test_missing_coefficients_rejected(self):
        ladder = build_eps_sis_ladder(6, 1, 1, 1)
        with pytest.raises(InsufficientCoefficientsError):
            lagrange_zeta(char_coeffs(ladder, kmax=1), 3)


class TestNewtonBound:
    def test_vanishing_second_coefficient_reduces_to_first_bound(self):
        sub = restrict_transient(build_eps_sis_ladder(1, 1, 1, 0))
        coeffs = char_coeffs(sub)
        assert float(newton_bound(coeffs, 128)) == -1.0

    def test_two_node_value(self):
        nb = newton_bound(two_node_coeffs(), 128)
        assert abs(float(nb) + 1 / math.sqrt(3)) < 1e-15
        assert -(2 - math.sqrt(2)) <= float(nb)

    def test_bad_radicand_rejected(self):
        coeffs = two_node_coeffs()
        broken = replace(coeffs, f=(coeffs.f[0], coeffs.f[1], Fraction(50)))
        with pytest.raises(InconsistentCoefficientsError):
            newton_bound(broken, 128)


class TestExactZeta:
    def test_two_state_generator_trace(self):
        lam, mu = Fraction(5, 7), Fraction(2, 3)
        ladder = RateLadder(up=[lam], down=[mu], mode=GENERATOR)
        z = exact_zeta(ladder)
        assert abs(float(z) + float(lam + mu)) < 1e-30

    def test_pure_death_restricted(self):
        # all up-rates zero: triangular sub-generator, spectrum {-delta..-n delta}
        full = RateLadder(up=[0, 0, 0], down=[2, 4, 6], mode=GENERATOR)
        sub = restrict_transient(full)
        z = exact_zeta(sub)
        assert abs(float(z) + 2) < 1e-25

    def test_two_node_epidemic_quadratic_root(self):
        sub = restrict_transient(build_eps_sis_ladder(2, 1, 1, 0))
        z = exact_zeta(sub, PrecisionCtx(mantissa_bits=128))
        with mp.workprec(128):
            assert abs(z + (2 - mp.sqrt(2))) < 1e-12

    # the contract tests run the production kernel and its Sturm referee,
    # which share the admissibility and closed-class rules
    @pytest.mark.parametrize("zeta_fn", [exact_zeta, sturm_zeta], ids=lambda f: f.__name__)
    def test_reducible_unrestricted_rejected(self, zeta_fn):
        with pytest.raises(ReducibleChainError, match="^exact_zeta needs an irreducible ladder"):
            zeta_fn(build_eps_sis_ladder(3, 1, 1, 0))

    @pytest.mark.parametrize("zeta_fn", [exact_zeta, sturm_zeta], ids=lambda f: f.__name__)
    def test_single_state_chain_rejected(self, zeta_fn):
        with pytest.raises(ReducibleChainError, match="^a single-state chain has no decay"):
            zeta_fn(RateLadder(up=[], down=[], mode=GENERATOR))

    @pytest.mark.parametrize("zeta_fn", [exact_zeta, sturm_zeta], ids=lambda f: f.__name__)
    def test_precision_exhausted_on_tiny_eigenvalue(self, zeta_fn):
        # x = 3, n = 60: |zeta| ~ 5e-12.  The Sturm referee's absolute width
        # 2^-32 cannot resolve it at 64 bits and raises at its round-off floor;
        # the Perron kernel stops relative to zeta and resolves it there
        sub = restrict_transient(build_eps_sis_ladder(60, Fraction(3, 60), 1, 0))
        ref = sturm_zeta(sub, PrecisionCtx(mantissa_bits=required_precision(60, 3)))
        assert -1e-10 < float(ref) < 0
        if zeta_fn is sturm_zeta:
            with pytest.raises(PrecisionExhaustedError, match=r"resolution floor .* at 64 bits;"):
                zeta_fn(sub, PrecisionCtx(mantissa_bits=64))
        else:
            z = zeta_fn(sub, PrecisionCtx(mantissa_bits=64))
            with mp.workprec(256):
                assert abs(z - ref) <= mpmath.ldexp(abs(ref), 40 - 64)

    @settings(max_examples=10, deadline=None)
    @given(rational_ladders(min_states=3, max_states=9))
    def test_agrees_with_dense_oracle(self, ladder):
        ctx = PrecisionCtx()
        z = exact_zeta(ladder, ctx)
        spec = dense_spectrum(ladder, ctx)
        with mp.workprec(ctx.mantissa_bits):
            assert abs(z - spec[1]) <= 10 * sturm_tol(ctx)
            assert all(e <= sturm_tol(ctx) for e in spec)


def assert_matches_sturm(ladder, ctx):
    """exact_zeta and the Sturm referee agree to 10 tol, both as mpf."""
    z = exact_zeta(ladder, ctx)
    ref = sturm_zeta(ladder, ctx)
    assert isinstance(z, mpmath.mpf)
    assert isinstance(ref, mpmath.mpf)
    with mp.workprec(ctx.mantissa_bits):
        assert abs(z - ref) <= 10 * sturm_tol(ctx)


def scaled_rates(ladder, f):
    """The ladder with f applied to each of its rates."""
    return replace(
        ladder, up=list(map(f, ladder.up)), down=list(map(f, ladder.down)), loss0=f(ladder.loss0)
    )


kernel_ladders = st.one_of(
    rational_ladders(min_states=2, max_states=12), rational_subgenerators(max_states=12)
)
float_rates = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)
threshold_units = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=8)


class TestPerronAgainstSturm:
    @settings(max_examples=25, deadline=None)
    @given(rational_ladders(min_states=2, max_states=12))
    def test_generator_ladders(self, ladder):
        assert_matches_sturm(ladder, PrecisionCtx())

    @settings(max_examples=25, deadline=None)
    @given(rational_ladders(min_states=2, max_states=12, mode=STOCHASTIC))
    def test_stochastic_ladders(self, ladder):
        assert_matches_sturm(ladder, PrecisionCtx())

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        threshold_units,
        st.fractions(min_value=Fraction(1, 10**5), max_value=1, max_denominator=10**5),
    )
    def test_eps_sis_ladders(self, n, x, eps):
        ladder = build_eps_sis_ladder(n, x / n, 1, eps)
        assert_matches_sturm(ladder, PrecisionCtx(mantissa_bits=required_precision(n, max(x, 1))))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=10).flatmap(
        lambda w: st.tuples(st.lists(float_rates, min_size=w, max_size=w),
                            st.lists(float_rates, min_size=w, max_size=w))
    ))
    def test_float_rates(self, rates):
        up, down = rates
        assert_matches_sturm(RateLadder(up=up, down=down, mode=GENERATOR), PrecisionCtx())

    @settings(max_examples=20, deadline=None)
    @given(kernel_ladders, st.sampled_from([53, 128, 300]))
    def test_mpf_rates(self, ladder, rate_bits):
        # rates with rate_bits of binary mantissa, each rounded once to decimal
        with mp.workprec(rate_bits):
            assert_matches_sturm(scaled_rates(ladder, to_mpf), PrecisionCtx())

    @settings(max_examples=10, deadline=None)
    @given(kernel_ladders, st.sampled_from([400, -400]))
    def test_fraction_rates_beyond_double_range(self, ladder, exponent):
        # every float copy is 0 or not finite, so the float prelude gives no
        # start; one ulp of 1e400 at 2800 bits is below tol = 2^-1400
        scale = Fraction(10) ** exponent
        assert_matches_sturm(
            scaled_rates(ladder, lambda r: r * scale), PrecisionCtx(mantissa_bits=2800)
        )

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=60),
        st.fractions(min_value=Fraction(9, 8), max_value=3, max_denominator=8),
    )
    def test_restricted_above_threshold(self, n, x):
        sub = restrict_transient(build_eps_sis_ladder(n, x / n, 1, 0))
        assert_matches_sturm(sub, PrecisionCtx(mantissa_bits=required_precision(n, x)))

    @pytest.mark.parametrize("ctx", [PrecisionCtx(mantissa_bits=64)], ids=["float"])
    def test_reducible_subgenerator_takes_least_block(self, ctx):
        # zero up-rates cut M into 1-state blocks; the least one is not first
        sub = restrict_transient(RateLadder(up=[0, 0, 0], down=[6, 2, 4], mode=GENERATOR))
        assert exact_zeta(sub, ctx) == -2
        assert_matches_sturm(sub, ctx)

    @pytest.mark.parametrize(
        "ctx",
        [PrecisionCtx(mantissa_bits=bits) for bits in (64, 128, 1024)],
        ids=["float", "128bits", "1024bits"],
    )
    def test_closed_transient_class_is_precision_exhausted(self, ctx):
        # q_1 = 0 closes states 1..2 of the sub-generator: M is singular, zeta
        # is 0, and no precision resolves it; both kernels name the class
        sub = RateLadder(up=[1, 1], down=[0, 1], mode=GENERATOR, loss0=1)
        closed = r"^states 1\.\.2 form a closed transient class"
        for zeta_fn in (exact_zeta, sturm_zeta):
            with pytest.raises(PrecisionExhaustedError, match=closed) as err:
                zeta_fn(sub, ctx)
            assert "raise the precision" not in str(err.value), zeta_fn.__name__

    def test_bracket_that_stops_narrowing_is_precision_exhausted(self, stall_perron):
        # passes that never narrow the bracket: the kernel stops, not spins
        ladder = RateLadder(
            up=[Fraction(j % 7 + 1, 3) for j in range(30)],
            down=[Fraction(j % 5 + 2, 7) for j in range(30)],
            mode=GENERATOR,
        )
        stall_perron(30)
        with pytest.raises(PrecisionExhaustedError, match="^Perron bracket stopped shrinking"):
            exact_zeta(ladder, PrecisionCtx(mantissa_bits=64))


def assert_near_working_precision(ladder, bits):
    """exact_zeta at bits is within 2^-(bits - 40) |zeta| of exact_zeta at 4 bits."""
    z = exact_zeta(ladder, PrecisionCtx(mantissa_bits=bits))
    fine = exact_zeta(ladder, PrecisionCtx(mantissa_bits=4 * bits))
    with mp.workprec(4 * bits):
        assert abs(z - fine) <= mpmath.ldexp(abs(fine), 40 - bits)


TINY = Fraction(1, 10**400)


class TestFloatSeededKernel:
    """The float prelude only seeds the mpf iteration: a start it gets wrong
    or cannot give leaves the mpf result as it was without a prelude.
    """

    def test_start_above_lambda1_restarts_from_zero(self, monkeypatch):
        ladder = build_eps_sis_ladder(30, Fraction(2, 30), 1, Fraction(1, 10**5))
        ctx = PrecisionCtx(mantissa_bits=required_precision(30, 2))
        monkeypatch.setattr(decay, "_float_start", lambda down, up: None)
        unseeded = exact_zeta(ladder, ctx)
        above = -2 * float(unseeded)
        monkeypatch.setattr(decay, "_float_start", lambda down, up: (above, [1.0] * len(down)))
        shifts = []
        factor = decay._factor

        def counted(down, up, s):
            shifts.append(float(s))
            assert len(shifts) < 100, "the Perron iteration does not end"
            return factor(down, up, s)

        monkeypatch.setattr(decay, "_factor", counted)
        assert exact_zeta(ladder, ctx)._mpf_ == unseeded._mpf_
        assert shifts[:2] == [above, 0]

    @pytest.mark.parametrize(
        "ladder",
        [
            # zeta ~ -2.7e-318: the Perron vector overflows a double
            restrict_transient(build_eps_sis_ladder(1700, Fraction(3, 1700), 1, 0)),
            # a rate of 1e-400 is 0 as a double; zeta ~ -1e-400
            RateLadder(up=[1, TINY, 1], down=[1, TINY, 1], mode=GENERATOR),
        ],
        ids=["n1700_x3", "rate_1e-400"],
    )
    def test_prelude_declines_outside_double_range(self, ladder):
        # the mpf iteration then runs from shift 0, to the same relative stop
        assert decay._float_start(*decay._m_matrix_rates(ladder)) is None
        assert_near_working_precision(ladder, 128)

    @pytest.mark.parametrize(
        "n,x", [(100, Fraction(1, 2)), (200, 1), (300, 2), (400, 3)],
        ids=["n100_x1/2", "n200_x1", "n300_x2", "n400_x3"],
    )
    def test_polished_to_working_precision_absorbing(self, n, x):
        sub = restrict_transient(build_eps_sis_ladder(n, Fraction(x, n), 1, 0))
        assert_near_working_precision(sub, 128)

    @settings(max_examples=25, deadline=None)
    @given(rational_ladders(min_states=2, max_states=12))
    def test_polished_to_working_precision_random(self, ladder):
        assert_near_working_precision(ladder, 128)


def block_brackets(ladder, bits):
    """(Decimal bracket, mpf bracket) of each irreducible block of M: one
    `_perron_bracket`, from the same float start, on the kernel's Decimal
    rates in its context and on mpf rates at mp.workprec(bits).
    """
    rates = decay._m_matrix_rates(ladder)
    for a, b in decay._irreducible_blocks(*rates):
        down, up = rates[0][a:b], rates[1][a:b]
        start = decay._float_start(down, up)
        with localcontext(decay._decimal_context(bits)):
            ddown, dup = [list(map(decay._to_decimal, rs)) for rs in (down, up)]
            decimal_bracket = decay._perron_bracket(ddown, dup, start, bits)
        with mp.workprec(bits):
            mdown, mup = [list(map(to_mpf, rs)) for rs in (down, up)]
            mpf_bracket = decay._perron_bracket(mdown, mup, start, bits)
        yield decimal_bracket, mpf_bracket


def assert_brackets_agree(ladder, bits):
    """Each end of the Decimal bracket is within 2^-(bits - 40), relative,
    of the same end of the mpf bracket, compared exactly.
    """
    for (dlo, dhi), (mlo, mhi) in block_brackets(ladder, bits):
        assert type(dlo) is type(dhi) is Decimal
        assert type(mlo) is type(mhi) is mpmath.mpf
        for d, m in ((dlo, mlo), (dhi, mhi)):
            m = Fraction(*to_rational(m._mpf_))
            assert abs(Fraction(d) - m) <= m / 2 ** (bits - 40)


class TestOneLoopTwoArithmetics:
    """The Perron kernel's one loop runs on Decimal in production and on mpf
    at the same bits in these tests; both brackets close to 2^-(bits - 40)
    of lambda_1, so they agree to that width.
    """

    @settings(max_examples=40, deadline=None)
    @given(kernel_ladders, st.sampled_from([128, 730]))
    def test_decimal_bracket_matches_mpf(self, ladder, bits):
        assert_brackets_agree(ladder, bits)

    @pytest.mark.parametrize(
        "n,x,eps,bits",
        [(60, 3, Fraction(1, 10**5), 128), (30, Fraction(1, 2), Fraction(1, 10**5), 128),
         (100, Fraction(1, 2), 0, 128), (400, 3, 0, 730)],
        ids=["sweep_n60_x3", "sweep_n30_x1/2", "absorbing_n100_x1/2", "absorbing_n400_x3"],
    )
    def test_decimal_bracket_matches_mpf_sis(self, n, x, eps, bits):
        ladder = build_eps_sis_ladder(n, Fraction(x, n), 1, eps)
        if eps == 0:
            ladder = restrict_transient(ladder)
        assert_brackets_agree(ladder, bits)


class TestDecimalContext:
    def test_kernel_ignores_the_callers_context(self):
        ladder = restrict_transient(build_eps_sis_ladder(60, Fraction(3, 60), 1, 0))
        ctx = PrecisionCtx(mantissa_bits=required_precision(60, 3))
        want = exact_zeta(ladder, ctx)
        with localcontext() as caller:
            caller.prec, caller.rounding = 5, ROUND_FLOOR
            caller.clear_traps()
            caller.clear_flags()
            got = exact_zeta(ladder, ctx)
            assert getcontext() is caller
            assert (caller.prec, caller.rounding) == (5, ROUND_FLOOR)
            assert not any(caller.flags.values())
            assert not any(caller.traps.values())
        assert got._mpf_ == want._mpf_

    @pytest.mark.parametrize("bits,digits", [(64, 20), (128, 40), (730, 221), (2800, 844)])
    def test_fewest_digits_within_the_binary_roundoff(self, bits, digits):
        # unit roundoff 10^(1 - digits) / 2 is at most 2^-bits; one digit fewer is not
        ctx = decay._decimal_context(bits)
        assert (ctx.prec, ctx.rounding) == (digits, ROUND_HALF_EVEN)
        assert 10 ** (digits - 1) >= 2 ** (bits - 1) > 10 ** (digits - 2)


class TestRequiredPrecision:
    @pytest.mark.parametrize(
        "n,x,bits", [(10, 1, 128), (100, 2, 196), (50, 4, 196), (1, 1, 128)]
    )
    def test_values(self, n, x, bits):
        assert required_precision(n, x) == bits

    def test_invalid(self):
        with pytest.raises(ValueError):
            required_precision(0, 1)
        with pytest.raises(ValueError):
            required_precision(5, 0)


class TestDecayReport:
    def test_two_node_epidemic(self):
        sub = restrict_transient(build_eps_sis_ladder(2, 1, 1, 0))
        rep = decay_report(sub)
        assert abs(float(rep.zeta_exact) + 0.585786437626905) < 1e-12
        assert rep.zeta_lagrange[1] == Fraction(-1, 2)
        assert rep.zeta_lagrange[2] == Fraction(-9, 16)
        assert abs(float(rep.zeta_newton_bound) + 0.57735026918962576) < 1e-12
        assert rep.ordering_ok

    def test_single_node_everything_collapses(self):
        sub = restrict_transient(build_eps_sis_ladder(1, 1, 1, 0))
        rep = decay_report(sub)
        assert float(rep.zeta_exact) == pytest.approx(-1, abs=1e-25)
        assert all(v == -1 for v in rep.zeta_lagrange.values())
        assert float(rep.zeta_newton_bound) == -1.0

    def test_zero_down_rate_is_named(self):
        # the series need f_k, which a closed class above q_1 = 0 leaves undefined
        sub = RateLadder(up=(1, 2), down=(0, 3), loss0=1)
        with pytest.raises(ReducibleChainError, match="no normaliser"):
            decay_report(sub)

    @settings(max_examples=10, deadline=None)
    @given(rational_ladders(min_states=3, max_states=7))
    def test_ordering_invariant_random(self, ladder):
        assert decay_report(ladder).ordering_ok

    def test_newton_bound_a_few_ulps_below_the_bracket_is_ordered(self):
        # at 128 bits the rounded Newton bound lands some 10 ulps of zeta
        # below the low end of zeta's bracket here, so a zero slack fails
        sub = restrict_transient(build_eps_sis_ladder(400, Fraction(2, 400), 1, 0))
        assert decay_report(sub).ordering_ok

    def test_newton_bound_below_zeta_is_a_violation(self, monkeypatch):
        sub = restrict_transient(build_eps_sis_ladder(40, Fraction(2, 40), 1, 0))
        z = exact_zeta(sub)
        with mp.workprec(128):
            below = z - mpmath.ldexp(abs(z), -40)
        estimates = decay._decimal_estimates
        monkeypatch.setattr(
            decay, "_decimal_estimates", lambda coeffs, bits: (estimates(coeffs, bits)[0], below)
        )
        assert not decay_report(sub).ordering_ok

    @pytest.mark.parametrize("bits", [128, 730])
    @settings(max_examples=20, deadline=None)
    @given(st.one_of(rational_ladders(min_states=3, max_states=40),
                     rational_subgenerators(min_states=3, max_states=40)))
    def test_decimal_estimates_track_the_exact_route(self, bits, ladder):
        # the Lagrange orders and the Newton bound come from Decimal
        # coefficients, within O(n) roundings of the exact ones
        rep = decay_report(ladder, PrecisionCtx(mantissa_bits=bits))
        coeffs = char_coeffs(ladder, kmax=min(3, ladder.embedded().n_states - 1))
        tol = Fraction(ladder.n_states, 2 ** (bits - 8))
        for order in (1, 2, 3):
            exact = lagrange_zeta(coeffs, order)
            assert abs(rep.zeta_lagrange[order] - exact) <= tol * abs(exact), order
        exact = to_fraction(newton_bound(coeffs, bits))
        assert abs(to_fraction(rep.zeta_newton_bound) - exact) <= tol * abs(exact)
        assert rep.ordering_ok

    # on these ladders float sums of the coefficients, term by term,
    # overflow to nan or cancel in the Newton radicand (bound below zeta, or
    # a nonpositive radicand); read exactly, each reports its exact copy
    @pytest.mark.parametrize("number, n, x, eps", [
        (float, 70, 3, 0),
        (float, 102, 2, 0),
        (float, 166, 2, 0),
        (float, 200, 0.5, 0),
        (float, 200, 2, 1e-5),
        (mp.mpf, 70, 3, 0),
    ])
    def test_inexact_ladder_reports_its_binary_values(self, number, n, x, eps):
        with mp.workprec(53):
            ladder = build_eps_sis_ladder(n, number(x) / n, number(1), number(eps))
        if eps == 0:
            ladder = restrict_transient(ladder)
        rep = decay_report(ladder)
        assert rep.ordering_ok
        assert mpmath.isfinite(rep.zeta_exact) and mpmath.isfinite(rep.zeta_newton_bound)
        exact = decay_report(binary_copy(ladder))
        assert rep.zeta_lagrange == exact.zeta_lagrange
        assert all(type(v) is Fraction for v in rep.zeta_lagrange.values())
        assert rep.zeta_exact == exact.zeta_exact
        assert rep.zeta_newton_bound == exact.zeta_newton_bound

    @pytest.mark.parametrize("n", [4, 10, 25, 40])
    @pytest.mark.parametrize("x", [2, 3])
    def test_second_order_beats_first_above_threshold(self, n, x):
        sub = restrict_transient(build_eps_sis_ladder(n, Fraction(x, n), 1, 0))
        ctx = PrecisionCtx(mantissa_bits=required_precision(n, x))
        rep = decay_report(sub, ctx)
        with mp.workprec(ctx.mantissa_bits):
            z = to_mpf(rep.zeta_exact)
            e1 = abs(to_mpf(rep.zeta_lagrange[1]) - z)
            e2 = abs(to_mpf(rep.zeta_lagrange[2]) - z)
            assert e2 <= e1
