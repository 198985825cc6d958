"""Difference tables, the moment condition, reconstruction, LP, inequalities."""

import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvprob as mv
from mvprob import analysis
from mvprob.errors import InputError
from mvprob.rationals import ZERO

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=40)


def lebesgue_moments(order):
    """Moments of the uniform density: m_k = 1/(k+1)."""
    return analysis.moment_sequence([F(1, k + 1) for k in range(order + 1)])


def beta_integral(k, r):
    """Quadrature oracle: integral of x^k (1-x)^r over [0, 1], exactly.

    Expand the binomial and integrate term by term; independent of the
    difference-table recursion.
    """
    return sum(
        (
            F(math.comb(r, h)) * (-1) ** h / (k + h + 1)
            for h in range(r + 1)
        ),
        ZERO,
    )


class TestDeltaTable:
    def test_worked_example(self):
        table = analysis.delta_table(analysis.moment_sequence(("1", "1/2", "1/3")))
        assert table.entry(1, 0) == F(-1, 2)
        assert table.entry(2, 0) == F(1, 3)

    def test_constant_sequence_vanishes(self):
        table = analysis.delta_table(analysis.moment_sequence(["1"] * 6))
        for r in range(1, 6):
            for k in range(6 - r):
                assert table.entry(r, k) == 0

    def test_lebesgue_entries_match_the_quadrature_oracle(self):
        m = lebesgue_moments(8)
        table = analysis.delta_table(m)
        for r in range(9):
            for k in range(9 - r):
                expected = beta_integral(k, r)
                assert (-1) ** r * table.entry(r, k) == expected
                # closed form of the same integral
                assert expected == F(
                    math.factorial(k) * math.factorial(r),
                    math.factorial(k + r + 1),
                )

    @settings(max_examples=150)
    @given(st.lists(unit_fractions, min_size=1, max_size=12))
    def test_recursion_agrees_with_binomial_identity(self, values):
        m = analysis.MomentSequence(tuple(values))
        table = analysis.delta_table(m)
        for r in range(m.order + 1):
            for k in range(m.order - r + 1):
                assert (-1) ** r * table.entry(r, k) == analysis.binomial_delta(m, r, k)


class TestHausdorffCondition:
    def test_lebesgue_passes(self):
        assert analysis.check_hausdorff(lebesgue_moments(3)).passed

    def test_sign_violation_position(self):
        report = analysis.check_hausdorff(analysis.moment_sequence(("1", "1/5", "9/10")))
        assert not report.passed
        assert report.witnesses == [{"reason": "sign", "position": (1, 1)}]

    def test_wrong_mass_fails(self):
        report = analysis.check_hausdorff(analysis.moment_sequence(("9/10", "1/2")))
        assert not report.passed and report.witnesses == [{"reason": "m0"}]

    def test_moments_of_random_grid_measures_pass(self):
        rng = Random(12)
        for _ in range(150):
            size = rng.randint(1, 5)
            points = sorted({F(rng.randint(0, 20), 20) for _ in range(size)})
            raw = [rng.randint(0, 8) for _ in points]
            while sum(raw) == 0:
                raw = [rng.randint(0, 8) for _ in points]
            total = sum(raw)
            mu = analysis.grid_measure(points, [F(w, total) for w in raw])
            m = analysis.moments_of_measure(mu, rng.randint(0, 8))
            assert analysis.check_hausdorff(m).passed


class TestMomentsOfMeasure:
    def test_point_mass_at_one(self):
        mu = analysis.grid_measure([F(1)], [F(1)])
        assert analysis.moments_of_measure(mu, 5).values == tuple([F(1)] * 6)

    def test_uniform_three_points(self):
        mu = analysis.grid_measure([F(0), F(1, 2), F(1)], [F(1, 3)] * 3)
        m = analysis.moments_of_measure(mu, 2)
        assert m.values == (F(1), F(1, 2), F(5, 12))

    def test_non_grid_atoms_rejected(self):
        mu = mv.measure(("a", "b"), (F(1, 2), F(1, 2)))
        with pytest.raises(InputError):
            analysis.moments_of_measure(mu, 2)


class TestReconstruction:
    def test_worked_example(self):
        mu = analysis.hausdorff_reconstruct(
            analysis.moment_sequence(("1", "1/2", "1/3")), 2
        )
        assert mu.atoms == ("0", "1/2", "1")
        assert mu.weights == (F(1, 3), F(1, 3), F(1, 3))

    def test_point_mass_moments_reconstruct_to_dirac(self):
        m = analysis.moment_sequence(["1"] * 7)
        for grid in (1, 3, 6):
            mu = analysis.hausdorff_reconstruct(m, grid)
            assert mu.weights[-1] == 1
            assert all(w == 0 for w in mu.weights[:-1])

    def test_first_moments_preserved_exactly(self):
        m = lebesgue_moments(16)
        for grid in range(1, 17):
            mu = analysis.hausdorff_reconstruct(m, grid)
            recovered = analysis.moments_of_measure(mu, 1)
            assert recovered.values[0] == F(1)
            assert recovered.values[1] == F(1, 2)

    def test_second_moment_error_shrinks_as_the_grid_doubles(self):
        m = lebesgue_moments(16)
        errors = []
        for grid in (2, 4, 8, 16):
            mu = analysis.hausdorff_reconstruct(m, grid)
            recovered = analysis.moments_of_measure(mu, 2)
            errors.append(abs(recovered.values[2] - m.values[2]))
        assert all(late <= early for early, late in zip(errors, errors[1:]))

    def test_condition_is_required(self):
        with pytest.raises(InputError):
            analysis.hausdorff_reconstruct(
                analysis.moment_sequence(("1", "1/5", "9/10")), 2
            )


class TestFeasibilitySearch:
    def test_recovers_exact_measure_on_matching_grid(self):
        mu = analysis.grid_measure([F(0), F(1, 2), F(1)], [F(1, 4), F(1, 2), F(1, 4)])
        m = analysis.moments_of_measure(mu, 3)
        fit = analysis.moment_fit_lp(m, 2)
        assert fit.passed
        assert analysis.moments_of_measure(fit.result, 3).values == m.values

    def test_variance_maximal_pair(self):
        fit = analysis.moment_fit_lp(analysis.moment_sequence(("1", "1/2", "1/2")), 1)
        assert fit.passed
        assert fit.result.weights == (F(1, 2), F(1, 2))

    def test_condition_violation_is_infeasible_on_every_grid(self):
        bad = analysis.moment_sequence(("1", "1/5", "9/10"))
        for grid in (1, 2, 5, 9):
            fit = analysis.moment_fit_lp(bad, grid)
            assert not fit.passed

    def test_certificate_is_checkable(self):
        bad = analysis.moment_sequence(("1", "1/5", "9/10"))
        fit = analysis.moment_fit_lp(bad, 4)
        y = fit.witnesses[0]["certificate"]
        points = [F(j, 4) for j in range(5)]
        rows = [[F(1)] * 5] + [[p**k for p in points] for k in range(3)]
        rhs = [F(1), F(1), F(1, 5), F(9, 10)]
        for j in range(5):
            assert sum(y[i] * rows[i][j] for i in range(4)) <= 0
        assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0

    def test_cross_check_with_reconstruction(self):
        m = analysis.moment_sequence(("1", "1/2", "1/3"))
        reconstructed = analysis.hausdorff_reconstruct(m, 2)
        fit = analysis.moment_fit_lp(m, 2)
        assert fit.passed
        assert analysis.moments_of_measure(fit.result, 2).values == m.values
        assert analysis.moments_of_measure(reconstructed, 2).values[:2] == m.values[:2]

    def test_wrong_total_mass_is_infeasible(self):
        fit = analysis.moment_fit_lp(analysis.moment_sequence(("9/10", "1/2")), 3)
        assert not fit.passed

    def test_off_grid_point_mass_is_infeasible(self):
        # the moments pin the support to {1/3}, which grid 4 misses
        point = analysis.grid_measure([F(1, 3)], [F(1)])
        m = analysis.moments_of_measure(point, 4)
        assert analysis.check_hausdorff(m).passed  # the condition itself holds
        fit = analysis.moment_fit_lp(m, 4)
        assert fit.verdict == "infeasible" and fit.witnesses[0]["certificate"]

    def test_size_guards(self):
        with pytest.raises(InputError):
            analysis.moment_fit_lp(analysis.moment_sequence(["1"] * 8), 4)
        with pytest.raises(InputError):
            analysis.moment_fit_lp(analysis.moment_sequence(("1", "1/2")), 65)


class TestPowerBounds:
    @settings(max_examples=200)
    @given(
        unit_fractions,
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=4),
    )
    def test_enclosure_brackets_the_true_power(self, x, num, den):
        exponent = F(num, den)
        lo, hi = analysis.pow_bounds(x, exponent, bits=40)
        assert lo <= hi
        assert lo**den <= x**num <= hi**den
        assert hi - lo <= F(1, 2**40) or lo == hi

    def test_integer_exponent_is_exact(self):
        lo, hi = analysis.pow_bounds(F(2, 3), F(3), bits=10)
        assert lo == hi == F(8, 27)


class TestHolder:
    FA = mv.function_algebra(("x", "y"))

    def state(self, wx, wy):
        return mv.measure_state(self.FA, mv.measure(("x", "y"), (F(wx), F(wy))))

    def test_worked_example_squares(self):
        s = self.state("1/2", "1/2")
        a = mv.element(self.FA, ("1/2", "1/2"))
        b = mv.element(self.FA, ("1", "0"))
        report = analysis.holder_check(s, a, b, F(2), F(2))
        assert report.verdict == "pass" and report.metrics["mode"] == "exact"
        assert report.result["lhs"] == F(1, 4)
        assert report.result["rhs_low"] == F(1, 8)  # the squared bound
        assert report.result["lhs"] ** 2 <= report.result["rhs_low"]

    def test_diagonal_attains_equality(self):
        s = self.state("1/3", "2/3")
        a = mv.element(self.FA, ("1/2", "3/4"))
        report = analysis.holder_check(s, a, a, F(2), F(2))
        assert report.verdict == "pass"
        # lhs = s(a^2) and the squared bound is s(a^2) * s(a^2)
        assert report.result["lhs"] ** 2 == report.result["rhs_low"]

    def test_fractional_exponents_against_exact_oracle(self):
        # values are perfect squares, so b^(3/2) is rational and the
        # inequality can be decided by cubing both sides exactly
        s = self.state("1/2", "1/2")
        a = mv.element(self.FA, ("1/4", "1/9"))
        b = mv.element(self.FA, ("4/9", "1/4"))
        p, q = F(3), F(3, 2)
        report = analysis.holder_check(s, a, b, p, q, precision=80)
        s_ap = mv.eval_state(s, mv.prod(mv.prod(a, a), a))
        s_bq = F(1, 2) * F(2, 3) ** 3 + F(1, 2) * F(1, 2) ** 3
        lhs = mv.eval_state(s, mv.prod(a, b))
        assert lhs**3 <= s_ap * s_bq**2  # the exact cubed comparison
        assert report.verdict == "pass"
        assert report.result["rhs_low"] ** 3 <= s_ap * s_bq**2 <= report.result["rhs_high"] ** 3

    def test_random_pairs_pass_at_default_precision(self):
        rng = Random(9)
        s = self.state("1/3", "2/3")
        for _ in range(25):
            a = mv.element(self.FA, (F(rng.randint(0, 12), 12), F(rng.randint(0, 12), 12)))
            b = mv.element(self.FA, (F(rng.randint(1, 12), 12), F(rng.randint(1, 12), 12)))
            report = analysis.holder_check(s, a, b, F(3), F(3, 2))
            assert report.verdict == "pass"

    def test_exact_equality_is_inconclusive_under_enclosures(self):
        s = self.state("1/2", "1/2")
        a = mv.element(self.FA, ("1/3", "1/3"))
        report = analysis.holder_check(s, a, a, F(3), F(3, 2))
        assert report.verdict == "inconclusive"
        assert report.result["rhs_low"] < report.result["lhs"] <= report.result["rhs_high"]

    def test_conjugate_exponent_validation(self):
        s = self.state("1/2", "1/2")
        a = mv.element(self.FA, ("1/2", "1/2"))
        with pytest.raises(InputError):
            analysis.holder_check(s, a, a, F(2), F(3))
        with pytest.raises(InputError):
            analysis.holder_check(s, a, a, F(1, 2), F(-1))

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 0)])
    def test_fractional_exponents_on_the_two_element_chain(self, a, b):
        # the 1-chain is the only chain with a product; its state reaches
        # the power bounds through the divisible extension's one atom
        chain = mv.finite_chain(1)
        s = mv.table_state(chain, {F(0): F(0), F(1): F(1)})
        report = analysis.holder_check(s, mv.element(chain, a), mv.element(chain, b), F(3, 2), F(3))
        assert report.verdict == "pass" and report.metrics["mode"] == "interval"
        assert report.result == {"lhs": F(a * b), "rhs_low": F(a * b), "rhs_high": F(a * b)}

    def test_needs_internal_product(self):
        chain = mv.finite_chain(2)
        s = mv.table_state(chain, {F(0): F(0), F(1, 2): F(1, 2), F(1): F(1)})
        a = mv.element(chain, "1/2")
        with pytest.raises(InputError):
            analysis.holder_check(s, a, a, F(2), F(2))
