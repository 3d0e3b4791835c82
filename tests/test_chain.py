from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from mpmath import mp

from bdecay import (
    GENERATOR,
    STOCHASTIC,
    InvalidParameterError,
    IrreducibleChainError,
    RateLadder,
    ReducibleChainError,
    UnsupportedStructureError,
    build_eps_sis_ladder,
    char_coeffs,
    restrict_transient,
    steady_state,
)
from bdecay.chain import _product_weights
from conftest import rational_ladders, rational_subgenerators, symmetrize
from paper_formulas import dense_matrix


class TestBuildEpsSis:
    def test_absorbing_without_self_infection(self):
        ladder = build_eps_sis_ladder(2, 1, 1, 0)
        assert ladder.up == (Fraction(0), Fraction(1))
        assert ladder.down == (Fraction(1), Fraction(2))
        assert ladder.reducible

    def test_self_infection_keeps_chain_irreducible(self):
        ladder = build_eps_sis_ladder(3, 2, 1, Fraction(1, 2))
        assert ladder.up == (Fraction(3, 2), Fraction(5), Fraction(9, 2))
        assert ladder.down == (Fraction(1), Fraction(2), Fraction(3))
        assert not ladder.reducible

    def test_single_node(self):
        ladder = build_eps_sis_ladder(1, 1, 1, 1)
        assert ladder.up == (Fraction(1),)
        assert ladder.down == (Fraction(1),)

    @pytest.mark.parametrize("beta,delta", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_nonpositive_rates_rejected(self, beta, delta):
        with pytest.raises(InvalidParameterError):
            build_eps_sis_ladder(3, beta, delta, 0)

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_eps_sis_ladder(3, 1, 1, -1)


sis_rates = st.fractions(min_value=Fraction(1, 50), max_value=5, max_denominator=50)


class TestExactRatePlumbing:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        sis_rates,
        sis_rates,
        st.one_of(st.just(Fraction(0)), sis_rates),
        st.sampled_from([Fraction, float, mp.mpf]),
    )
    def test_eps_sis_rates_are_the_formula(self, n, beta, delta, eps, kind):
        # one Fraction per exact rate; floats and mpf keep the formula's rounding
        convert = kind if kind is Fraction else lambda v: kind(float(v))
        beta, delta, eps = convert(beta), convert(delta), convert(eps)
        ladder = build_eps_sis_ladder(n, beta, delta, eps)
        expected = [(beta * j + eps) * (n - j) for j in range(n)]
        assert [type(r) for r in ladder.up] == [type(r) for r in expected]
        assert list(ladder.up) == expected
        assert ladder.down == tuple(j * delta for j in range(1, n + 1))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(rational_ladders(max_states=12), rational_subgenerators(max_states=12)))
    def test_lattice_f0_is_the_product_form(self, ladder):
        f0 = char_coeffs(ladder, kmax=0).f[0]
        assert type(f0) is Fraction
        assert f0 == sum(_product_weights(ladder.embedded()))


class TestSteadyState:
    def test_two_state(self):
        ladder = RateLadder(up=[Fraction(2, 3)], down=[Fraction(1, 5)], mode=GENERATOR)
        pi = steady_state(ladder)
        a, b = Fraction(2, 3), Fraction(1, 5)
        assert pi == (b / (a + b), a / (a + b))

    def test_matched_rates_give_uniform(self):
        up = [Fraction(3, 7), Fraction(1, 2), Fraction(5)]
        ladder = RateLadder(up=up, down=up, mode=GENERATOR)
        assert steady_state(ladder) == (Fraction(1, 4),) * 4

    def test_eps_sis_two_nodes(self):
        ladder = build_eps_sis_ladder(2, 1, 1, 1)
        assert ladder.up == (Fraction(2), Fraction(2))
        assert steady_state(ladder)[0] == Fraction(1, 5)

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleChainError):
            steady_state(build_eps_sis_ladder(4, 1, 1, 0))

    @settings(max_examples=30, deadline=None)
    @given(rational_ladders())
    def test_global_balance_exact(self, ladder):
        pi = steady_state(ladder)
        assert sum(pi) == 1
        for j in range(ladder.n_states - 1):
            assert pi[j] * ladder.up[j] == pi[j + 1] * ladder.down[j]


class TestSymmetrize:
    def test_single_step_weights(self):
        ladder = RateLadder(up=[Fraction(1)], down=[Fraction(4)], mode=GENERATOR)
        sym = symmetrize(ladder)
        assert sym.offdiag_sq == (Fraction(4),)
        assert float(sym.offdiag[0]) == 2.0
        assert sym.h_sq == (Fraction(1), Fraction(1, 4))
        assert float(sym.h[1]) == 0.5

    def test_symmetric_rates_leave_weights_flat(self):
        up = [Fraction(2, 3), Fraction(5, 4)]
        ladder = RateLadder(up=up, down=up, mode=GENERATOR)
        sym = symmetrize(ladder)
        assert sym.h_sq == (Fraction(1),) * 3
        assert sym.offdiag_sq == (up[0] ** 2, up[1] ** 2)

    def test_absorbing_ladder_rejected(self):
        with pytest.raises(ReducibleChainError):
            symmetrize(build_eps_sis_ladder(3, 1, 1, 0))

    @settings(max_examples=20, deadline=None)
    @given(rational_ladders(max_states=7))
    def test_spectrum_preserved(self, ladder):
        dense = np.array([[float(v) for v in row] for row in dense_matrix(ladder)])
        raw = np.sort(np.linalg.eigvals(dense).real)
        sym = symmetrize(ladder)
        n = ladder.n_states
        mat = np.diag([float(d) for d in sym.diag])
        off = [float(v) for v in sym.offdiag]
        for i in range(n - 1):
            mat[i, i + 1] = mat[i + 1, i] = off[i]
        symmetric = np.sort(np.linalg.eigvalsh(mat))
        assert np.allclose(raw, symmetric, rtol=1e-9, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(rational_ladders(mode=STOCHASTIC))
    def test_stochastic_rows_sum_to_one(self, ladder):
        for row in dense_matrix(ladder):
            assert sum(row) == 1


class TestRestrictTransient:
    def test_two_node_epidemic(self):
        sub = restrict_transient(build_eps_sis_ladder(2, 1, 1, 0))
        assert sub.up == (Fraction(1),)
        assert sub.down == (Fraction(2),)
        assert sub.loss0 == Fraction(1)
        assert sub.is_subgenerator

    def test_irreducible_input_is_an_error(self):
        with pytest.raises(IrreducibleChainError):
            restrict_transient(build_eps_sis_ladder(2, 1, 1, 1))

    def test_single_node_leaves_pure_loss(self):
        sub = restrict_transient(build_eps_sis_ladder(1, 1, Fraction(7, 3), 0))
        assert sub.n_states == 1
        assert sub.loss0 == Fraction(7, 3)
        assert sub.out_rate(0) == Fraction(7, 3)

    def test_interior_reducibility_rejected(self):
        ladder = RateLadder(up=[1, 0, 1], down=[1, 1, 1], mode=GENERATOR)
        with pytest.raises(UnsupportedStructureError):
            restrict_transient(ladder)

    def test_embedding_round_trips(self):
        full = build_eps_sis_ladder(4, Fraction(1, 3), 1, 0)
        assert restrict_transient(full).embedded() == full


class TestLadderValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            RateLadder(up=[-1], down=[1], mode=GENERATOR)

    @pytest.mark.parametrize("where", ["up", "down", "loss0"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), mp.inf, mp.nan],
                             ids=["float-inf", "float-nan", "mpf-inf", "mpf-nan"])
    def test_non_finite_rate_rejected(self, where, value):
        rates = {"up": [1, 1], "down": [1, 1], "loss0": 1}
        rates[where] = value if where == "loss0" else [1, value]
        with pytest.raises(InvalidParameterError, match="^rates must be finite$"):
            RateLadder(**rates)

    @pytest.mark.parametrize("where", ["up", "down", "loss0"])
    def test_mpf_beyond_double_range_accepted(self, where):
        big = mp.mpf("1e400")
        rates = {"up": [1, 1], "down": [1, 1], "loss0": 1}
        rates[where] = big if where == "loss0" else [1, big]
        ladder = RateLadder(**rates)
        assert big in (*ladder.up, *ladder.down, ladder.loss0)

    def test_stochastic_overflow_rejected(self):
        # state 1 carries p_1 + q_1 = 3/4 + 1/2 > 1
        with pytest.raises(InvalidParameterError):
            RateLadder(
                up=[Fraction(1, 2), Fraction(3, 4)],
                down=[Fraction(1, 2), Fraction(1, 4)],
                mode=STOCHASTIC,
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RateLadder(up=[1, 2], down=[1], mode=GENERATOR)

    def test_generator_dense_rows_sum_to_loss(self):
        sub = restrict_transient(build_eps_sis_ladder(3, 1, 1, 0))
        rows = dense_matrix(sub)
        assert sum(rows[0]) == -sub.loss0
        assert sum(rows[1]) == 0
