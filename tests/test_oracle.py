import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from mpmath import mp
from bdecay import (
    GENERATOR,
    STOCHASTIC,
    EpsSisParams,
    InvalidParameterError,
    PrecisionCtx,
    PrecisionExhaustedError,
    RateLadder,
    UnsupportedStructureError,
    build_eps_sis_ladder,
    exact_zeta,
    gillespie_simulate,
    hitting_time_solve,
    lifetime_direct,
    restrict_transient,
)
from bdecay import oracle
from bdecay._numbers import to_mpf
from bdecay.oracle import dense_spectrum, sturm_tol, sturm_zeta, survival_log_slope
from conftest import positive_rates
from paper_formulas import dense_matrix, transient_decay_fit


def harmonic(n):
    return sum(Fraction(1, k) for k in range(1, n + 1))


class TestDenseSpectrum:
    def test_pure_death_triangular(self):
        ladder = RateLadder(up=[0, 0, 0], down=[1, 2, 3], mode=GENERATOR)
        spec = [float(z) for z in dense_spectrum(ladder)]
        assert np.allclose(spec, [0, -1, -2, -3], atol=1e-18)

    def test_two_node_restricted_quadratic(self):
        sub = restrict_transient(build_eps_sis_ladder(2, 1, 1, 0))
        spec = [float(z) for z in dense_spectrum(sub)]
        assert np.allclose(spec, [-2 + math.sqrt(2), -2 - math.sqrt(2)])

    def test_matches_float_eigensolver(self):
        import random

        rng = random.Random(31)
        for _ in range(5):
            n = 8
            ladder = RateLadder(
                up=[Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)],
                down=[Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)],
                mode=GENERATOR,
            )
            spec = np.array([float(z) for z in dense_spectrum(ladder)])
            dense = np.array([[float(v) for v in row] for row in dense_matrix(ladder)])
            want = np.sort(np.linalg.eigvals(dense).real)[::-1]
            assert np.allclose(spec, want, atol=1e-12 * max(1, np.abs(want).max()))

    def test_size_guard(self):
        big = build_eps_sis_ladder(70, 1, 1, 1)
        with pytest.raises(InvalidParameterError):
            dense_spectrum(big)


def bisection_spectrum(ladder, ks, tol):
    """Referee: eigenvalues of ranks ks (1-indexed, smallest first) of the
    shifted ladder matrix by plain Sturm bisection, one bit per sweep, from a
    Gershgorin bracket, at the working precision.
    """
    n = ladder.n_states
    diag = [-to_mpf(ladder.out_rate(j)) for j in range(n)]
    offsq = [to_mpf(ladder.up[j] * ladder.down[j]) for j in range(n - 1)]

    def count_below(x):
        count, d = 0, None
        for j in range(n):
            d = diag[j] - x if j == 0 else (diag[j] - x) - offsq[j - 1] / d
            if d == 0:
                d = -mp.mpf(2) ** (-2 * mp.prec)
            count += d < 0
        return count

    radius = max(abs(a) for a in diag) + 2 * max([mp.sqrt(s) for s in offsq], default=0) + 1
    eigs = []
    for k in ks:
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if count_below(mid) >= k:
                hi = mid
            else:
                lo = mid
        eigs.append((lo + hi) / 2)
    return eigs


repeat_rates = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])


@st.composite
def spectrum_ladders(draw):
    """Exact ladders of up to 12 states, generator or stochastic, whole or
    restricted; zero up-rates split them into blocks, and rates drawn from a
    small set make those blocks share eigenvalues.
    """
    width = draw(st.integers(min_value=1, max_value=11))
    rates = st.one_of(repeat_rates, positive_rates)
    up = draw(st.lists(st.one_of(st.just(Fraction(0)), rates), min_size=width, max_size=width))
    down = draw(st.lists(rates, min_size=width, max_size=width))
    if draw(st.booleans()):
        return RateLadder(up=up, down=down, loss0=draw(rates))
    if draw(st.booleans()):
        scale = 2 * max(up + down) + 1
        up, down = [p / scale for p in up], [q / scale for q in down]
        return RateLadder(up=up, down=down, mode=STOCHASTIC)
    return RateLadder(up=up, down=down)


def assert_matches_bisection(ladder, ctx):
    """dense_spectrum, and sturm_zeta where the ladder has a decay parameter,
    lie within tol of `bisection_spectrum`.
    """
    n = ladder.n_states
    spec = dense_spectrum(ladder, ctx)
    with mp.workprec(ctx.mantissa_bits):
        tol = sturm_tol(ctx)
        ref = bisection_spectrum(ladder, range(1, n + 1), tol)
        assert all(abs(a - b) <= tol for a, b in zip(reversed(spec), ref))
    if ladder.reducible and not ladder.is_subgenerator:
        return  # no decay parameter
    k = n if ladder.is_subgenerator else n - 1
    zeta = sturm_zeta(ladder, ctx)
    with mp.workprec(ctx.mantissa_bits):
        assert abs(zeta - ref[k - 1]) <= tol


class TestSturmRefinement:
    @settings(max_examples=60, deadline=None)
    @given(spectrum_ladders())
    def test_matches_plain_bisection(self, ladder):
        assert_matches_bisection(ladder, PrecisionCtx())

    def test_repeated_eigenvalue_keeps_its_multiplicity(self):
        # three decoupled states at -1: the count jumps by 3, no bracket isolates
        ladder = RateLadder(up=[0, 0, 0], down=[1, 1, 1])
        spec = dense_spectrum(ladder)
        with mp.workprec(128):
            tol = sturm_tol(PrecisionCtx())
            assert abs(spec[0]) <= tol
            assert all(abs(e + 1) <= tol for e in spec[1:])

    def test_tolerance_of_one_ulp_closes(self):
        # eigenvalues 0 and -7/6; tol is one ulp of -7/6 at 64 bits, so a
        # regula falsi point clamped tol/2 inside an end can round onto it
        ladder = RateLadder(up=[Fraction(2, 3)], down=[Fraction(1, 2)])
        tol = Fraction(1, 2**63)
        with mp.workprec(64):
            tol = to_mpf(tol)
            spec = oracle._sturm_eigenvalues(ladder, [1, 2], tol)
            ref = bisection_spectrum(ladder, [1, 2], tol)
            assert all(abs(a - b) <= tol for a, b in zip(spec, ref))

    @pytest.mark.parametrize("referee", [dense_spectrum, sturm_zeta], ids=lambda f: f.__name__)
    def test_unclosable_bracket_is_precision_exhausted(self, referee):
        # eigenvalue -2e30: one ulp of it at 128 bits is 6e-9, far above tol
        with pytest.raises(PrecisionExhaustedError, match="^Sturm bracket cannot close"):
            referee(RateLadder(up=[10**30], down=[10**30]))

    def test_sweeps_per_eigenvalue_and_certificates(self, monkeypatch):
        # N = 30, x = 2, eps > 0: 31 simple eigenvalues.  Each float seed pair
        # isolates its eigenvalue, and about two Illinois steps close it: some
        # 4 mpf sweeps each, where bisection from the Gershgorin bracket took
        # about 71
        points = []
        sweep = oracle._raw_sweep

        def recorded(diag, offsq, x, tiny, prec):
            point = sweep(diag, offsq, x, tiny, prec)
            points.append((mp.make_mpf(point[0]), point[1]))
            return point

        monkeypatch.setattr(oracle, "_raw_sweep", recorded)
        ladder = EpsSisParams.from_x(30, 2, 1, Fraction(1, 10**5)).ladder()
        ctx = PrecisionCtx()
        spec = dense_spectrum(ladder, ctx)
        assert len(points) <= 5 * len(spec)
        with mp.workprec(ctx.mantissa_bits):
            tol = sturm_tol(ctx)
            for k, e in enumerate(reversed(spec), start=1):
                # the nearest swept points on either side certify e
                lo = max((p for p in points if p[0] < e), key=lambda p: p[0])
                hi = min((p for p in points if p[0] > e), key=lambda p: p[0])
                assert lo[1] < k <= hi[1]
                assert hi[0] - lo[0] <= tol
                assert e == (lo[0] + hi[0]) / 2


UNCLOSABLE_128 = r"^Sturm bracket cannot close to 5\.421e-20 at 128 bits$"


class TestFloatSeedsAreProposals:
    """The float pass only proposes mpf sweep points.  Whatever it proposes,
    or where it proposes none, every eigenvalue lies within tol of plain
    bisection, and an unclosable bracket raises as it did without seeds.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        spectrum_ladders(),
        st.lists(
            st.one_of(st.sampled_from([0.0, -1.0, -2.0, 1.0]), st.floats(-50, 50)),
            max_size=12,
        ),
    )
    def test_garbage_seeds(self, ladder, seeds):
        # seeds at exact eigenvalues make a pivot hit 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_float_seeds", lambda *args: seeds)
            assert_matches_bisection(ladder, PrecisionCtx())

    @pytest.mark.parametrize(
        "seeds", [[], [-2e30, 0.0], [-2e30 + k * 2.0**70 for k in range(-3, 4)]],
        ids=["none", "at_eigenvalues", "around_-2e30"],
    )
    def test_garbage_seeds_keep_the_unclosable_message(self, monkeypatch, seeds):
        monkeypatch.setattr(oracle, "_float_seeds", lambda *args: seeds)
        with pytest.raises(PrecisionExhaustedError, match=UNCLOSABLE_128):
            dense_spectrum(RateLadder(up=[10**30], down=[10**30]))

    @pytest.mark.parametrize("bits", [128, 730])
    def test_clusters_below_float_resolution(self, bits):
        # blocks {0, 1} and {2, 3}: eigenvalues 0 and about -2^-60, -2 and
        # about -2 - 2^-60; as doubles each pair is one value
        ladder = RateLadder(up=[1, 0, 1], down=[1, Fraction(1, 2**59), 1])
        ctx = PrecisionCtx(mantissa_bits=bits)
        assert_matches_bisection(ladder, ctx)
        spec = dense_spectrum(ladder, ctx)
        with mp.workprec(bits):
            # each pair comes out as two values, about 2^-60 apart
            gap = mp.mpf(2) ** -61
            assert spec[0] - spec[1] >= gap and spec[2] - spec[3] >= gap

    def test_rates_beyond_double_range_give_no_seeds(self):
        # eigenvalues 0 and -2e400: the float copies are not finite
        ladder = RateLadder(up=[10**400], down=[10**400])
        with mp.workprec(128):
            diag, offsq = oracle._sturm_arrays(ladder)
            assert oracle._float_seeds(diag, offsq, max(abs(d) for d in diag) + 1, [1, 2]) == []
        with pytest.raises(PrecisionExhaustedError, match=UNCLOSABLE_128):
            dense_spectrum(ladder)
        # one ulp of 2e400 at 2800 bits is 2^-1469, below tol = 2^-1400
        assert_matches_bisection(ladder, PrecisionCtx(mantissa_bits=2800))

    def test_decay_parameter_below_double_range(self):
        # a restricted ladder with zeta ~ -5e-401
        ladder = RateLadder(up=[1], down=[1], loss0=Fraction(1, 10**400))
        with pytest.raises(
            PrecisionExhaustedError,
            match=r"^\|zeta\| <= resolution floor 5\.421e-20 at 128 bits; raise the precision$",
        ):
            sturm_zeta(ladder)
        assert_matches_bisection(ladder, PrecisionCtx(mantissa_bits=2800))


class TestRawSweep:
    """`_raw_sweep` gives, bit for bit, what the generic `_sweep` gives on mpf
    objects at the same precision.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([64, 128, 730]), st.data())
    def test_matches_the_generic_sweep(self, bits, data):
        # small integers and halves make pivots hit 0
        values = st.one_of(
            st.sampled_from([Fraction(k, 2) for k in range(-6, 7)]),
            st.fractions(-50, 50, max_denominator=10**9),
        )
        n = data.draw(st.integers(1, 10))
        with mp.workprec(bits):
            diag = [to_mpf(v) for v in data.draw(st.lists(values, min_size=n, max_size=n))]
            squares = st.lists(values.map(abs), min_size=n - 1, max_size=n - 1)
            offsq = [to_mpf(v) for v in data.draw(squares)]
            x = to_mpf(data.draw(values))
            tiny = mp.mpf(2) ** (-2 * bits)
            x_, count, det = oracle._sweep(diag, offsq, x, tiny)
            got = oracle._raw_sweep(
                [d._mpf_ for d in diag], [s._mpf_ for s in offsq], x._mpf_, tiny._mpf_, bits
            )
            assert got == (x_._mpf_, count, det._mpf_)

    @pytest.mark.parametrize("bits", [64, 128, 730])
    def test_zero_pivot_is_nudged_alike(self, bits):
        # d_0 = -1, d_1 = (-2 + 1) - 1/(-1) = 0 exactly, nudged to -tiny,
        # and d_2 = (-2 + 1) - 1/(-tiny) > 0
        with mp.workprec(bits):
            diag, offsq, x = [mp.mpf(-2)] * 3, [mp.one] * 2, mp.mpf(-1)
            tiny = mp.mpf(2) ** (-2 * bits)
            _, count, det = oracle._sweep(diag, offsq, x, tiny)
            assert count == 2
            assert det == tiny * (1 / tiny - 1)
            got = oracle._raw_sweep(
                [d._mpf_ for d in diag], [s._mpf_ for s in offsq], x._mpf_, tiny._mpf_, bits
            )
            assert got == (x._mpf_, count, det._mpf_)


@st.composite
def absorbing_ladders(draw):
    """Ladders absorbing at 0 with up to 10 transient states; interior up-rates may vanish."""
    n = draw(st.integers(min_value=1, max_value=10))
    up_rates = st.one_of(st.just(Fraction(0)), positive_rates)
    up = [Fraction(0)] + draw(st.lists(up_rates, min_size=n - 1, max_size=n - 1))
    down = draw(st.lists(positive_rates, min_size=n, max_size=n))
    return RateLadder(up=up, down=down, mode=GENERATOR)


class TestHittingTimes:
    @settings(max_examples=50, deadline=None)
    @given(absorbing_ladders())
    def test_solves_generator_system_exactly(self, ladder):
        # -Q_S h = 1 on the transient states 1..n, Q_S cut from the dense Q
        h = hitting_time_solve(ladder)
        q = dense_matrix(ladder)
        n = ladder.n_states - 1
        assert len(h) == n
        for i in range(1, n + 1):
            assert -sum(q[i][j] * h[j - 1] for j in range(1, n + 1)) == 1
        assert hitting_time_solve(restrict_transient(ladder)) == h

    def test_two_node_first_step_values(self):
        h = hitting_time_solve(build_eps_sis_ladder(2, 1, 1, 0))
        assert h == (Fraction(3, 2), Fraction(2))

    def test_pure_death_is_harmonic(self):
        delta = Fraction(5, 3)
        ladder = RateLadder(up=[0, 0, 0], down=[delta, 2 * delta, 3 * delta], mode=GENERATOR)
        h = hitting_time_solve(ladder)
        assert h[-1] == harmonic(3) / delta

    def test_equals_exact_lifetime(self):
        n, tau = 20, Fraction(3, 20)
        h = hitting_time_solve(build_eps_sis_ladder(n, tau, 1, 0))
        assert h[-1] == lifetime_direct(n, tau)

    def test_restricted_input_accepted(self):
        sub = restrict_transient(build_eps_sis_ladder(5, Fraction(1, 5), 1, 0))
        h = hitting_time_solve(sub)
        assert h[-1] == lifetime_direct(5, Fraction(1, 5))

    def test_float_rates_keep_digits_above_threshold(self):
        # n = 400, x = 2: h_N ~ 9.05e32; subtraction-free elimination keeps
        # float rates at full relative accuracy
        h = hitting_time_solve(build_eps_sis_ladder(400, 2.0 / 400, 1.0, 0.0))
        want = lifetime_direct(400, Fraction(2, 400))
        assert isinstance(h[-1], float)
        assert abs(Fraction(h[-1]) - want) <= Fraction(1, 10**12) * want

    def test_irreducible_rejected(self):
        with pytest.raises(UnsupportedStructureError):
            hitting_time_solve(build_eps_sis_ladder(3, 1, 1, 1))

    def test_disconnected_transient_rejected(self):
        ladder = RateLadder(up=[0, 1], down=[1, 0], mode=GENERATOR)
        with pytest.raises(UnsupportedStructureError):
            hitting_time_solve(ladder)


class TestGillespie:
    def test_single_node_exponential_mean(self):
        params = EpsSisParams.from_tau(1, 1, 1, 0)
        res = gillespie_simulate(params, runs=20000, seed=7)
        assert res.runs_completed == 20000
        assert abs(res.mean - 1.0) <= 3 * res.stderr

    def test_mean_matches_exact_lifetime(self):
        params = EpsSisParams.from_tau(8, Fraction(1, 20), 1, 0)
        res = gillespie_simulate(params, runs=20000, seed=11)
        want = float(lifetime_direct(8, Fraction(1, 20)))
        assert abs(res.mean - want) <= 3 * res.stderr

    def test_fixed_seed_bit_identical(self):
        params = EpsSisParams.from_tau(4, Fraction(1, 8), 1, 0)
        a = gillespie_simulate(params, runs=200, seed=42)
        b = gillespie_simulate(params, runs=200, seed=42)
        assert a.times == b.times
        c = gillespie_simulate(params, runs=200, seed=43)
        assert a.times != c.times

    def test_times_follow_the_stated_stream(self):
        # run r: random.Random(f"{seed}:{r}"); per event the holding time is
        # drawn first, then the birth-or-death coin
        n, tau, seed = 5, Fraction(1, 6), 31
        res = gillespie_simulate(EpsSisParams.from_tau(n, tau, 1, 0), runs=3, seed=seed)
        beta = float(tau)
        for r in range(3):
            uniform = random.Random(f"{seed}:{r}").random
            t, s = 0.0, n
            while s:
                lam, mu = beta * s * (n - s), 1.0 * s
                inv_tot = 1.0 / (lam + mu)
                t -= math.log(1.0 - uniform()) * inv_tot
                s += 1 if uniform() < lam * inv_tot else -1
            assert res.times[r] == t

    def test_runs_are_independent_streams(self):
        params = EpsSisParams.from_tau(6, Fraction(1, 10), 1, 0)
        short = gillespie_simulate(params, runs=150, seed=5)
        long = gillespie_simulate(params, runs=300, seed=5)
        assert long.times[:150] == short.times

    def test_budget_abort_flags_partial_result(self):
        params = EpsSisParams.from_tau(6, Fraction(1, 12), 1, 0)
        res = gillespie_simulate(params, runs=10**7, seed=1, time_budget_s=0.2)
        assert res.budget_exhausted
        assert 0 < res.runs_completed < 10**7

    def test_requires_absorbing_chain(self):
        with pytest.raises(InvalidParameterError):
            gillespie_simulate(EpsSisParams(n=3, beta=1, delta=1, eps=1), runs=10)

    def test_survival_tail_above_threshold(self):
        # x = 2: metastable regime; the survival tail is log-linear with the
        # decay parameter as its slope
        params = EpsSisParams.from_tau(8, Fraction(1, 4), 1, 0)
        res = gillespie_simulate(params, runs=10000, seed=2718, time_budget_s=110)
        z = float(exact_zeta(restrict_transient(params.ladder())))
        slope = survival_log_slope(res.times)
        assert abs(slope - z) / abs(z) < 0.10

    def test_metadata_names_algorithm(self):
        params = EpsSisParams.from_tau(2, Fraction(1, 4), 1, 0)
        res = gillespie_simulate(params, runs=10, seed=0)
        assert "MT19937" in res.metadata["algorithm"]
        derivation = res.metadata["stream_derivation"]
        assert derivation.startswith('run r: u = random.Random(f"{seed}:{r}").random')
        assert "numpy_version" not in res.metadata
        assert len(res.times) == 10
        assert all(t > 0 for t in res.times) and res.start_state == 2


class TestTransientFit:
    def test_two_state_rate_is_rate_sum(self):
        ladder = RateLadder(up=[1], down=[1], mode=GENERATOR)
        fit = transient_decay_fit(ladder, np.linspace(0.1, 5.0, 30))
        assert fit.reliable
        assert abs(fit.rate + 2.0) < 1e-6

    def test_eps_sis_matches_exact_zeta(self):
        params = EpsSisParams(n=6, beta=Fraction(2, 6), delta=1, eps=Fraction(1, 1000))
        ladder = params.ladder()
        z = float(exact_zeta(ladder))
        grid = np.linspace(1.0 / abs(z), 3.0 / abs(z), 30)
        fit = transient_decay_fit(ladder, grid)
        assert fit.reliable
        assert abs(fit.rate - z) / abs(z) < 0.01

    def test_early_grid_flagged_unreliable(self):
        # window straddles the crossover of two comparable modes (-1 and -3)
        ladder = RateLadder(up=[1, 1], down=[1, 1], mode=GENERATOR)
        fit = transient_decay_fit(ladder, np.linspace(0.05, 0.8, 30))
        assert not fit.reliable

    def test_floor_dominated_grid_flagged_unreliable(self):
        ladder = RateLadder(up=[1], down=[1], mode=GENERATOR)
        fit = transient_decay_fit(ladder, np.linspace(20, 30, 30))
        assert not fit.reliable
        assert fit.points_used == 0

    def test_reducible_rejected(self):
        with pytest.raises(InvalidParameterError):
            transient_decay_fit(build_eps_sis_ladder(3, 1, 1, 0), np.linspace(0.1, 1, 10))


class TestSurvivalSlope:
    def test_exponential_sample_slope(self):
        rng = np.random.Generator(np.random.Philox(123))
        xs = rng.exponential(1 / 0.7, size=200000)
        slope = survival_log_slope(xs)
        assert abs(slope + 0.7) / 0.7 < 0.02
