import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from mpmath import mp

from bdecay import (
    GENERATOR,
    STOCHASTIC,
    DegenerateCoefficientsError,
    InsufficientCoefficientsError,
    RateLadder,
    ReducibleChainError,
    build_eps_sis_ladder,
    char_coeffs,
    restrict_transient,
)
from bdecay.charpoly import (
    c1_explicit,
    c2_explicit,
    coefficient_table,
    diag_band_coeffs,
    newton_sums,
)
from bdecay.oracle import _sturm_eigenvalues, dense_spectrum
from conftest import binary_copy, positive_rates, rational_ladders, symmetrize
from paper_formulas import rho_eval


def second_order_table(ladder, kmax):
    """Direct second-order recursion, as an independent oracle for the table."""
    base = ladder.embedded()
    N = base.n_states - 1
    p = list(base.up) + [Fraction(0)]
    q = [Fraction(0)] + list(base.down)
    c = {}
    for j in range(N + 2):
        for k in range(min(j, kmax) + 1):
            if k == j:
                c[(k, j)] = Fraction(1)
            elif j == k + 1:
                c[(k, j)] = sum(p[m] + q[m] for m in range(j))
            else:
                jm = j - 1
                c[(k, j)] = (
                    (q[jm] + p[jm]) * c[(k, jm)]
                    - q[jm] * p[jm - 1] * c.get((k, jm - 1), Fraction(0))
                    + (c[(k - 1, jm)] if k >= 1 else Fraction(0))
                )
    return c


def referee_f(ladder, kmax):
    """f_0..f_kmax as the unscaled rates give them, one division per term:
    f_0 = sum_j prod_{m<j} p_m/q_{m+1}, f_k = sum_j c_k(j) / prod_{m<j} q_{m+1}.
    """
    base = ladder.embedded()
    weights = [1]
    for p, q in zip(base.up, base.down):
        weights.append(weights[-1] * p / q)
    f = [sum(weights)]
    table = coefficient_table(ladder, kmax)
    for k in range(1, kmax + 1):
        s, dq = 0, 1
        for j in range(1, base.n_states):
            dq = dq * base.down[j - 1]
            if j >= k:
                s = s + table.c(k, j) / dq
        f.append(s)
    return tuple(f)


@st.composite
def coefficient_ladders(draw):
    """Exact ladders char_coeffs accepts: irreducible generators and
    stochastic matrices, and restricted sub-generators, with or without
    zero interior up-rates."""
    kind = draw(st.sampled_from(["irreducible", "stochastic", "restricted", "zero-up"]))
    if kind == "stochastic":
        return draw(rational_ladders(max_states=7, mode=STOCHASTIC))
    if kind == "irreducible":
        return draw(rational_ladders(max_states=7))
    ladder = draw(rational_ladders(min_states=1, max_states=7))
    up = list(ladder.up)
    if kind == "zero-up" and up:
        for i in draw(st.sets(st.integers(0, len(up) - 1), min_size=1)):
            up[i] = Fraction(0)
    return RateLadder(up=up, down=ladder.down, loss0=draw(positive_rates))


def convert(ladder, number):
    return RateLadder(
        up=[number(v) for v in ladder.up],
        down=[number(v) for v in ladder.down],
        mode=ladder.mode,
        loss0=number(ladder.loss0),
    )


def to_binary_mpf(v):
    return mpmath.mpf(v.numerator) / v.denominator


class TestCoefficientTable:
    def test_two_node_epidemic_band(self):
        ladder = build_eps_sis_ladder(2, 1, 1, 0)
        table = coefficient_table(ladder, kmax=2)
        assert table.c(1, 2) == 2  # p0+q0+p1+q1 = 0+0+1+1

    @settings(max_examples=20, deadline=None)
    @given(rational_ladders(max_states=7))
    def test_matches_second_order_recursion(self, ladder):
        n = ladder.n_states - 1
        table = coefficient_table(ladder, kmax=n + 1)
        oracle = second_order_table(ladder, n + 1)
        for j in range(n + 2):
            for k in range(j + 1):
                assert table.c(k, j) == oracle[(k, j)]

    @settings(max_examples=20, deadline=None)
    @given(rational_ladders(max_states=8))
    def test_boundary_rows(self, ladder):
        n = ladder.n_states - 1
        table = coefficient_table(ladder, kmax=n + 1)
        prod = Fraction(1)
        for j in range(n + 2):
            assert table.c(j, j) == 1
            assert table.c(0, j) == prod
            if j <= n:
                prod *= ladder.up_rate(j)

    def test_out_of_range_is_zero_or_error(self):
        ladder = build_eps_sis_ladder(3, 1, 1, 1)
        table = coefficient_table(ladder, kmax=2)
        assert table.c(-1, 2) == 0
        assert table.c(3, 2) == 0
        with pytest.raises(InsufficientCoefficientsError):
            table.c(2, 9)


class TestExplicitForms:
    def test_c1_at_degree_one_collapses(self):
        ladder = build_eps_sis_ladder(4, 1, 2, Fraction(1, 3))
        assert c1_explicit(ladder, 1) == 1

    def test_c1_two_node_epidemic(self):
        ladder = build_eps_sis_ladder(2, 1, 1, 0)
        assert c1_explicit(ladder, 2) == 2

    @settings(max_examples=12, deadline=None)
    @given(rational_ladders(min_states=4, max_states=7))
    def test_closed_forms_equal_recursion(self, ladder):
        n = ladder.n_states - 1
        table = coefficient_table(ladder, kmax=n + 1)
        for j in range(1, n + 2):
            assert c1_explicit(ladder, j) == table.c(1, j)
        for j in range(2, n + 2):
            assert c2_explicit(ladder, j) == table.c(2, j)


class TestDiagBands:
    def test_initial_bands(self):
        ladder = build_eps_sis_ladder(3, 2, 1, 1)
        t0 = diag_band_coeffs(ladder, 0)
        t1 = diag_band_coeffs(ladder, 1)
        assert all(v == 1 for v in t0)
        p = list(ladder.up) + [Fraction(0)]
        q = [Fraction(0)] + list(ladder.down)
        for j in range(1, ladder.n_states + 1):
            assert t1[j] == sum(p[m] + q[m] for m in range(j))

    @settings(max_examples=10, deadline=None)
    @given(rational_ladders(min_states=5, max_states=9))
    def test_band_recursion_matches_table(self, ladder):
        n = ladder.n_states - 1
        table = coefficient_table(ladder, kmax=n + 1)
        for m in range(2, 5):
            band = diag_band_coeffs(ladder, m)
            for j in range(m, n + 2):
                assert band[j] == table.c(j - m, j)


class TestCharCoeffs:
    def test_two_node_restricted_vector(self):
        sub = restrict_transient(build_eps_sis_ladder(2, 1, 1, 0))
        coeffs = char_coeffs(sub)
        assert coeffs.f == (Fraction(1), Fraction(2), Fraction(1, 2))
        # zeros of 1 + 2 xi + xi^2/2 are -2 +- sqrt(2)
        roots = np.roots([0.5, 2.0, 1.0])
        assert np.allclose(sorted(roots), [-2 - math.sqrt(2), -2 + math.sqrt(2)])

    @settings(max_examples=20, deadline=None)
    @given(rational_ladders(max_states=8))
    def test_endpoint_formulas(self, ladder):
        coeffs = char_coeffs(ladder)
        n = coeffs.n
        prod_q = math.prod(ladder.down, start=Fraction(1))
        assert coeffs.f[n] == 1 / prod_q
        if n >= 2:
            prod_q_short = math.prod(ladder.down[:-1], start=Fraction(1))
            rate_sum = sum(ladder.up) + sum(ladder.down[:-1])  # q_0..q_{N-1}
            assert coeffs.f[n - 1] == 1 / prod_q_short + rate_sum / prod_q

    @settings(max_examples=20, deadline=None)
    @given(rational_ladders(max_states=8))
    def test_top_row_ties_to_f(self, ladder):
        coeffs = char_coeffs(ladder)
        n = coeffs.n
        table = coefficient_table(ladder, n + 1)
        for k in range(n + 1):
            assert table.c(k + 1, n + 1) * coeffs.f[n] == coeffs.f[k]

    def test_f0_is_inverse_ground_probability(self):
        from bdecay import steady_state

        ladder = build_eps_sis_ladder(5, Fraction(2, 5), 1, Fraction(1, 7))
        coeffs = char_coeffs(ladder, kmax=1)
        assert coeffs.f[0] == 1 / steady_state(ladder)[0]

    def test_unrestricted_absorbing_ladder_rejected(self):
        with pytest.raises(ReducibleChainError):
            char_coeffs(build_eps_sis_ladder(3, 1, 1, 0))

    @pytest.mark.parametrize("number", [Fraction, float], ids=["exact", "float"])
    def test_zero_down_rate_has_no_normaliser(self, number):
        # q_1 = 0 closes off states 1 and 2 of the sub-generator
        sub = RateLadder(up=(1, 2), down=(number(0), 3), loss0=1)
        with pytest.raises(ReducibleChainError, match="no normaliser"):
            char_coeffs(sub)

    @settings(max_examples=60, deadline=None)
    @given(coefficient_ladders())
    def test_lattice_equals_per_term_division(self, ladder):
        n = ladder.embedded().n_states - 1
        for kmax in range(n + 1):
            f = char_coeffs(ladder, kmax).f
            assert f == referee_f(ladder, kmax)
            assert all(type(v) is Fraction for v in f)

    @settings(max_examples=30, deadline=None)
    @given(coefficient_ladders(), st.sampled_from([float, to_binary_mpf]))
    def test_inexact_ladders_read_at_their_binary_values(self, ladder, number):
        inexact = convert(ladder, number)
        exact = binary_copy(inexact)
        for kmax in range(inexact.embedded().n_states):
            f = char_coeffs(inexact, kmax).f
            assert f == char_coeffs(exact, kmax).f
            assert all(type(v) is Fraction for v in f)


class TestRhoEval:
    def test_degree_zero_is_one(self):
        table = coefficient_table(build_eps_sis_ladder(3, 1, 1, 1), kmax=4)
        assert rho_eval(table, 0, Fraction(7, 2)) == 1

    def test_constant_term_is_up_product(self):
        ladder = build_eps_sis_ladder(4, 1, 1, Fraction(1, 2))
        table = coefficient_table(ladder, kmax=5)
        for j in range(5):
            assert rho_eval(table, j, 0) == table.c(0, j)

    def test_vanishes_at_matrix_eigenvalues(self):
        ladder = build_eps_sis_ladder(5, Fraction(1, 2), 1, Fraction(1, 3))
        table = coefficient_table(ladder, kmax=ladder.n_states)
        with mp.workprec(128):
            for xi in dense_spectrum(ladder):
                val = rho_eval(table, ladder.n_states, xi)
                # normalize by the local polynomial scale
                scale = abs(rho_eval(table, ladder.n_states, xi + mpmath.mpf("0.1"))) + 1
                assert abs(val) / scale < 1e-12


class TestNewtonSums:
    def test_two_node_restricted_values(self):
        sub = restrict_transient(build_eps_sis_ladder(2, 1, 1, 0))
        sums = newton_sums(char_coeffs(sub))
        assert sums.sum_z == -4
        assert sums.prod_neg_z == 2
        assert sums.sum_inv_z == -2
        r1, r2 = -2 + math.sqrt(2), -2 - math.sqrt(2)
        assert math.isclose(1 / r1 + 1 / r2, -2)
        assert math.isclose(r1 * r2, 2)

    def test_degenerate_rejected(self):
        from dataclasses import replace

        sub = restrict_transient(build_eps_sis_ladder(2, 1, 1, 0))
        coeffs = char_coeffs(sub)
        broken = replace(coeffs, f=(Fraction(0),) + coeffs.f[1:])
        with pytest.raises(DegenerateCoefficientsError):
            newton_sums(broken)

    def test_partial_vector_rejected(self):
        ladder = build_eps_sis_ladder(5, 1, 1, 1)
        with pytest.raises(InsufficientCoefficientsError):
            newton_sums(char_coeffs(ladder, kmax=3))

    @settings(max_examples=15, deadline=None)
    @given(rational_ladders(max_states=7))
    def test_inverse_square_sum_dominates_decay_rate(self, ladder):
        from bdecay import exact_zeta

        sums = newton_sums(char_coeffs(ladder))
        assert sums.sum_inv_z2 >= 0
        zeta = float(exact_zeta(ladder))
        assert float(sums.sum_inv_z2) >= 1 / zeta ** 2 * (1 - 1e-12)

    @settings(max_examples=15, deadline=None)
    @given(rational_ladders(max_states=7))
    def test_against_spectrum(self, ladder):
        sums = newton_sums(char_coeffs(ladder))
        spec = dense_spectrum(ladder)[1:]  # drop the exact-zero eigenvalue
        assert sums.sum_z == -(sum(ladder.up) + sum(ladder.down))
        for got, want in (
            (sums.sum_z, sum(spec)),
            (sums.sum_z2, sum(z * z for z in spec)),
            (sums.sum_inv_z, sum(1 / z for z in spec)),
            (sums.sum_inv_z2, sum(1 / (z * z) for z in spec)),
            (sums.prod_neg_z, math.prod([-z for z in spec], start=mp.mpf(1))),
        ):
            assert abs(float(got) - float(want)) <= 1e-10 * max(1.0, abs(float(want)))


class TestOrthogonalStructure:
    def rand_ladder(self, rng, n):
        return RateLadder(
            up=[Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)],
            down=[Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)],
            mode=GENERATOR,
        )

    def test_zero_interlacing(self):
        rng = random.Random(5)
        for n in (4, 8, 12):
            ladder = self.rand_ladder(rng, n)
            sym = symmetrize(ladder)
            diag = np.array([float(d) for d in sym.diag])
            off = np.array([float(v) for v in sym.offdiag])
            prev = None
            for j in range(1, n + 2):
                mat = np.diag(diag[:j])
                for i in range(j - 1):
                    mat[i, i + 1] = mat[i + 1, i] = off[i]
                zeros = np.sort(np.linalg.eigvalsh(mat))
                if prev is not None:
                    for i in range(len(prev)):
                        assert zeros[i] < prev[i] < zeros[i + 1]
                prev = zeros

    def test_christoffel_darboux_exact(self):
        # (xi-om) sum_{j<=m} h_{j+1}^2 x_j(xi) x_j(om)
        #   = p_m h_{m+1}^2 [x_m(om) x_{m+1}(xi) - x_m(xi) x_{m+1}(om)]
        rng = random.Random(11)
        for trial in range(5):
            n = rng.randint(2, 7)
            ladder = self.rand_ladder(rng, n)
            table = coefficient_table(ladder, kmax=n + 1)
            sym = symmetrize(ladder)
            up_prod = [Fraction(1)]
            for j in range(n):
                up_prod.append(up_prod[-1] * ladder.up[j])

            def x_comp(j, xi):
                return rho_eval(table, j, xi) / up_prod[j]

            for _ in range(4):
                xi = Fraction(rng.randint(-40, 10), rng.randint(1, 13))
                om = Fraction(rng.randint(-40, 10), rng.randint(1, 13))
                if xi == om:
                    continue
                for m in range(n):
                    lhs = (xi - om) * sum(
                        sym.h_sq[j] * x_comp(j, xi) * x_comp(j, om) for j in range(m + 1)
                    )
                    rhs = ladder.up[m] * sym.h_sq[m] * (
                        x_comp(m, om) * x_comp(m + 1, xi)
                        - x_comp(m, xi) * x_comp(m + 1, om)
                    )
                    assert lhs == rhs

    def test_eigenvector_orthogonality(self):
        # rows of the orthogonal eigenvector matrix: sum over eigenvalues of
        # x~_j(l) x~_m(l) = delta_jm with x~ = H x and x_0^2 normalization
        rng = random.Random(3)
        bits = 128
        for n in (4, 7, 10):
            ladder = self.rand_ladder(rng, n)
            table = coefficient_table(ladder, kmax=n + 1)
            sym = symmetrize(ladder, mantissa_bits=bits)
            with mp.workprec(bits):
                eigs = _sturm_eigenvalues(ladder, range(1, n + 2), mp.mpf(2) ** (10 - bits))
                up_prod = [mp.mpf(1)]
                for j in range(n):
                    up_prod.append(up_prod[-1] * mp.mpf(ladder.up[j].numerator) / ladder.up[j].denominator)
                h = [mp.sqrt(mp.mpf(v.numerator) / v.denominator) for v in sym.h_sq]
                qp_prod = [mp.mpf(1)]
                for j in range(n):
                    rate = ladder.down[j] * ladder.up[j]
                    qp_prod.append(qp_prod[-1] * mp.mpf(rate.numerator) / rate.denominator)

                vectors = []
                for lam in eigs:
                    rho = [rho_eval(table, j, lam) for j in range(n + 1)]
                    norm_sq = 1 + sum(rho[j] ** 2 / qp_prod[j] for j in range(1, n + 1))
                    x0 = 1 / mp.sqrt(norm_sq)
                    vectors.append([h[j] * x0 * rho[j] / up_prod[j] for j in range(n + 1)])
                tol = 10 * mp.mpf(2) ** (-bits // 2)
                for j in range(n + 1):
                    for m in range(j, n + 1):
                        acc = sum(vec[j] * vec[m] for vec in vectors)
                        want = 1 if j == m else 0
                        assert abs(acc - want) < tol
