"""Difference tables, the moment condition, reconstruction, LP, inequalities."""

import json
import math
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvprob as mv
from mvprob import analysis, cli, core
from mvprob.errors import InputError
from mvprob.rationals import ONE, ZERO

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


def bisection_root_bounds(y, n, bits):
    """Reference for `analysis._root_bounds`: dyadic bisection on fractions."""
    if y in (ZERO, ONE):
        return y, y
    lo, hi = ZERO, ONE
    for _ in range(bits):
        mid = (lo + hi) / 2
        if mid**n <= y:
            lo = mid
        else:
            hi = mid
    return lo, hi


def newton_floor_root(target, n):
    """Reference for `analysis._floor_root`: Newton's iteration from a power of two at or
    above the floor root, falling until it reaches it."""
    root = 1 << -(-target.bit_length() // n)
    while root:  # only a zero target takes the iterate to 0
        below = ((n - 1) * root + target // root ** (n - 1)) // n
        if below >= root:
            break
        root = below
    return root


def fraction_phase_one(matrix, rhs, pivots=None):
    """Reference for `analysis._phase_one`: the same Bland pivots on the full
    tableau of fractions.  ``pivots``, if given, collects the entering columns."""
    rows, cols = len(matrix), len(matrix[0])
    tableau = [matrix[i] + [ONE if j == i else ZERO for j in range(rows)] + [rhs[i]]
               for i in range(rows)]
    basis = list(range(cols, cols + rows))
    obj = [ZERO] * cols + [ONE] * rows + [ZERO]
    for i in range(rows):
        obj = [o - t for o, t in zip(obj, tableau[i])]
    while True:
        entering = next((j for j in range(cols + rows) if obj[j] < 0), None)
        if entering is None:
            break
        best_ratio, leaving = None, None
        for i in range(rows):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(rows):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [v - factor * p for v, p in zip(tableau[i], tableau[leaving])]
        factor = obj[entering]
        obj = [v - factor * p for v, p in zip(obj, tableau[leaving])]
        basis[leaving] = entering
        if pivots is not None:
            pivots.append(entering)
    if obj[-1] == 0:
        solution = [ZERO] * cols
        for i, var in enumerate(basis):
            if var < cols:
                solution[var] = tableau[i][-1]
        return solution, None
    return None, tuple(ONE - obj[cols + i] for i in range(rows))


def integer_system(matrix, rhs):
    """The arguments of `analysis._phase_one`: the columns of common * matrix and
    common * rhs, with common the lcm of every denominator."""
    common = math.lcm(*(v.denominator for v in rhs), *(v.denominator for r in matrix for v in r))
    columns = [[int(row[j] * common) for row in matrix] for j in range(len(matrix[0]))]
    return columns, [int(b * common) for b in rhs]


def fraction_delta_rows(values):
    """Reference for `analysis._delta_rows`: the forward differences as fractions."""
    rows = [list(values)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([prev[k + 1] - prev[k] for k in range(len(prev) - 1)])
    return rows


def hausdorff_witnesses(rows):
    """Reference for `analysis.check_hausdorff`'s witnesses, scanned on the fraction rows."""
    if rows[0][0] != 1:
        return [{"reason": "m0"}]
    for r, row in enumerate(rows):
        for k, value in enumerate(row):
            if (-1) ** r * value < 0:
                return [{"reason": "sign", "position": (r, k)}]
    return []


def fit_system(values, grid):
    """The equality rows `moment_fit_lp` builds: total mass, then one per moment."""
    points = [F(j, grid) for j in range(grid + 1)]
    matrix = [[F(1)] * len(points)] + [[p**k for p in points] for k in range(len(values))]
    return matrix, [F(1), *values]


def moments_of(points, weights, order):
    total = sum(weights)
    return [sum(w * p**k for p, w in zip(points, weights)) / total for k in range(order + 1)]


def fit_case(seed, kind, grid, order):
    """A moment sequence of the given order to fit on the given grid, of one of four kinds."""
    rng = Random(seed)
    weights = [F(rng.randint(1, 9)) for _ in range(3)]
    if kind == 0:  # a three-point measure on the grid: feasible
        points = [F(rng.randint(0, grid), grid) for _ in range(3)]
    elif kind == 1:  # a three-point measure on the 96-grid, mostly off the fitted one
        points = [F(rng.randint(0, 96), 96) for _ in range(3)]
    elif kind == 2:  # a Dirac mass off every grid up to 64
        points, weights = [F(rng.randint(1, 96), 97)], [F(1)]
    else:  # a random sequence of unit values: almost always infeasible
        return grid, [F(1)] + [F(rng.randint(0, 12), 12) for _ in range(order)]
    return grid, moments_of(points, weights, order)


def seeded_fit_case(seed):
    """Grid seed + 1 and order seed % 7, with the four kinds in turn."""
    return fit_case(seed, seed % 4, seed + 1, seed % 7)


def delta_entries(m):
    """`analysis._delta_rows` as fractions over the sequence's denominator."""
    return [[F(x, m.denominator) for x in row] for row in analysis._delta_rows(m)]


class TestDeltaTable:
    def test_worked_example(self):
        rows = delta_entries(analysis.moment_sequence(("1", "1/2", "1/3")))
        assert rows == [[1, F(1, 2), F(1, 3)], [F(-1, 2), F(-1, 6)], [F(1, 3)]]

    def test_constant_sequence_vanishes(self):
        rows = delta_entries(analysis.moment_sequence(["1"] * 6))
        assert rows[1:] == [[0] * (6 - r) for r in range(1, 6)]

    def test_lebesgue_entries_match_the_quadrature_oracle(self):
        rows = delta_entries(lebesgue_moments(8))
        for r in range(9):
            for k in range(9 - r):
                expected = beta_integral(k, r)
                assert (-1) ** r * rows[r][k] == expected
                # closed form of the same integral
                assert expected == F(
                    math.factorial(k) * math.factorial(r),
                    math.factorial(k + r + 1),
                )

    @settings(max_examples=150)
    @given(st.lists(unit_fractions, min_size=1, max_size=12))
    def test_recursion_agrees_with_binomial_identity(self, values):
        m = analysis.MomentSequence(tuple(values))
        rows = delta_entries(m)
        assert [len(row) for row in rows] == list(range(len(values), 0, -1))
        for r in range(m.order + 1):
            for k in range(m.order - r + 1):
                assert (-1) ** r * rows[r][k] == analysis.binomial_delta(m, r, k)


class TestDeltaTableAgainstFractionRecursion:
    """The integer rows against the fraction recursion they replaced."""

    def assert_same(self, values):
        m = analysis.MomentSequence(tuple(values))
        expected = fraction_delta_rows(values)
        assert m.denominator == math.lcm(*(v.denominator for v in values))
        assert delta_entries(m) == expected
        verdict = analysis.check_hausdorff(m)
        assert verdict.witnesses == hausdorff_witnesses(expected)
        return verdict

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=10**9), min_size=1, max_size=60
        ),
        st.booleans(),
    )
    def test_random_sequences(self, values, unit_mass):
        if unit_mass:
            values[0] = F(1)
        self.assert_same(values)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=1, max_denominator=10**9),
                st.integers(min_value=1, max_value=10**9),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=0, max_value=59),
    )
    def test_moments_of_measures(self, atoms, order):
        points, weights = zip(*atoms)
        values = moments_of(points, [F(w) for w in weights], order)
        assert self.assert_same(values).passed
        if order:  # the masses on a grid of about half the order
            grid, rows = order // 2 + 1, fraction_delta_rows(values)
            mu = analysis.hausdorff_reconstruct(analysis.MomentSequence(tuple(values)), grid)
            assert mu.weights == tuple(
                math.comb(grid, j) * (-1) ** (grid - j) * rows[grid - j][j]
                for j in range(grid + 1)
            )


class TestOneRowAtATime:
    """The scans keep one difference row alive and stop where they can."""

    def count_rows(self, monkeypatch):
        built, rows = [], analysis._delta_rows

        def counted(m):
            for row in rows(m):
                built.append(len(row))
                yield row

        monkeypatch.setattr(analysis, "_delta_rows", counted)
        return built

    def test_a_failure_at_row_one_builds_at_most_two_rows(self, monkeypatch):
        built = self.count_rows(monkeypatch)
        m = analysis.moment_sequence(["1", "1/5", "9/10", *["1/2"] * 60])
        verdict = analysis.check_hausdorff(m)
        assert verdict.witnesses == [{"reason": "sign", "position": (1, 1)}]
        assert verdict.metrics == {"entries": 63 * 64 // 2}  # the whole triangle
        assert len(built) <= 2

    def test_reconstruction_reads_the_first_grid_plus_one_rows(self, monkeypatch):
        built = self.count_rows(monkeypatch)
        mu = analysis.hausdorff_reconstruct(lebesgue_moments(20), 4)
        assert mu.weights == (F(1, 5),) * 5
        # the full scan of the moment check, then the anti-diagonal's rows
        assert built == [*range(21, 0, -1), *range(21, 16, -1)]

    def test_the_digit_budget_refuses_the_first_order_past_the_limit(self, monkeypatch):
        # L_w * L_p^k = 2 * (3 * 10^9)^k has 4,294 digits at k = 453 and 4,303 at 454;
        # there the bound is tight, and the report's refusal comes before any moment is computed
        measure = analysis.grid_measure([F(999999999, 10**9), F(1, 3)], [F(1, 2), F(1, 2)])
        limit = sys.get_int_max_str_digits()
        m = analysis.moments_of_measure(measure, 453)
        assert max(len(str(v.denominator)) for v in m.values) == 4294 <= limit
        assert analysis.verify_measure_moments(measure, 453).passed
        monkeypatch.setattr(analysis, "ZERO", None)  # a moment's sum starts from it: TypeError
        with pytest.raises(InputError, match=f"more than {limit} digits"):
            analysis.verify_measure_moments(measure, 454)

    def test_the_library_moments_have_the_same_digit_budget(self, monkeypatch):
        measure = analysis.grid_measure([F(999999999, 10**9), F(1, 3)], [F(1, 2), F(1, 2)])
        monkeypatch.setattr(analysis, "ZERO", None)  # a moment's sum starts from it: TypeError
        with pytest.raises(InputError, match=f"more than {sys.get_int_max_str_digits()} digits"):
            analysis.moments_of_measure(measure, 454)

    def test_the_moment_check_holds_one_row(self):
        # the atoms 999999999/10^9 and 1/3: the denominator of m_k has about 9.5 k digits
        measure = analysis.grid_measure([F(999999999, 10**9), F(1, 3)], [F(1, 2), F(1, 2)])
        m = analysis.moments_of_measure(measure, 300)
        tracemalloc.start()
        try:
            assert analysis.check_hausdorff(m).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole triangle takes about 57 MB; one row of 301 about 0.4 MB
        assert peak < 4 * 10**6


class TestPlantedSignDefects:
    """A lowered or raised moment makes the first failure land where it is planted."""

    def assert_witness(self, values, position):
        m = analysis.MomentSequence(tuple(values))
        verdict = analysis.check_hausdorff(m)
        assert verdict.witnesses == [{"reason": "sign", "position": position}]
        assert verdict.witnesses == hausdorff_witnesses(fraction_delta_rows(values))

    def test_first_position(self):
        # (0, k) are the values and (1, 0) is 1 - m1: (1, 1) is the first
        # position a unit sequence with m0 = 1 can fail at
        values = list(lebesgue_moments(40).values)
        values[2] = values[1] + F(1, 10**9)
        self.assert_witness(values, (1, 1))

    def test_middle_position(self):
        # lowering the last moment lowers its anti-diagonal (r, n - r) alone;
        # the Lebesgue entries there, r! (n - r)! / (n + 1)!, are least at r = n / 2
        n = 40
        values = list(lebesgue_moments(n).values)
        least = F(math.factorial(n // 2) ** 2, math.factorial(n + 1))
        values[n] -= least + least / 10**6
        self.assert_witness(values, (n // 2, n // 2))

    def test_last_position(self):
        # the Dirac mass at 3/4: the anti-diagonal entries (3/4)^(n-r) (1/4)^r
        # are least at r = n, where the scan ends
        n = 40
        values = [F(3, 4) ** k for k in range(n + 1)]
        values[n] -= 2 * F(1, 4) ** n
        self.assert_witness(values, (n, 0))


class TestHausdorffCondition:
    def test_lebesgue_passes(self):
        assert analysis.check_hausdorff(lebesgue_moments(3)).passed

    def test_sign_violation_position(self):
        report = analysis.check_hausdorff(analysis.moment_sequence(("1", "1/5", "9/10")))
        assert not report.passed
        assert report.witnesses == [{"reason": "sign", "position": (1, 1)}]

    def test_sequence_length_budget(self):
        assert analysis.MomentSequence((F(1),) * (analysis.MAX_ORDER + 1)).order == analysis.MAX_ORDER
        with pytest.raises(InputError, match=f"at most {analysis.MAX_ORDER + 1} entries"):
            analysis.MomentSequence((F(1),) * (analysis.MAX_ORDER + 2))

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

    @pytest.mark.parametrize("atom", ["a", "0.5", "3/2", "-1", "1/0", ""])
    def test_an_atom_that_names_no_point_of_the_interval_is_named(self, atom):
        mu = mv.measure(("1/2", atom), (F(1, 2), F(1, 2)))
        message = f"measure atoms must name rationals in [0, 1], got {atom!r}"
        with pytest.raises(InputError) as caught:
            analysis.moments_of_measure(mu, 2)
        assert str(caught.value) == message


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


class TestPhaseOneAgainstFractionPivoting:
    """The narrow integer tableau against the full fraction tableau it replaced."""

    def assert_same(self, grid, values):
        matrix, rhs = fit_system(values, grid)
        expected = fraction_phase_one(matrix, rhs)
        assert analysis._phase_one(*integer_system(matrix, rhs)) == expected
        # moment_fit_lp builds its integer system from j**k and grid itself
        fit = analysis.moment_fit_lp(analysis.MomentSequence(tuple(values)), grid)
        solution, certificate = expected
        if solution is None:
            assert fit.verdict == "infeasible"
            assert fit.witnesses == [{"certificate": certificate}]
        else:
            assert fit.passed and fit.result.weights == tuple(solution)

    @pytest.mark.parametrize("seed", range(64))
    def test_seeded_sequences(self, seed):
        self.assert_same(*seeded_fit_case(seed))

    @pytest.mark.parametrize("kind", range(4))
    @pytest.mark.parametrize("seed", range(3))
    def test_workload_shape(self, seed, kind):
        # grid 64 and order 6, the largest fit the budgets allow
        self.assert_same(*fit_case(seed, kind, analysis.MAX_FIT_GRID, analysis.MAX_FIT_MOMENTS))

    def test_an_artificial_column_reenters(self):
        # seed 4: grid 5, order 4, a three-point measure on the grid; the
        # artificial of row 2, basic at the start, leaves and enters again
        grid, values = seeded_fit_case(4)
        matrix, rhs = fit_system(values, grid)
        pivots = []
        solution, _ = fraction_phase_one(matrix, rhs, pivots)
        assert solution is not None and grid + 1 + 2 in pivots
        self.assert_same(grid, values)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_general_systems(self, data):
        # A of mixed sign and b >= 0: phase one has a finite optimum on any such system
        rows = data.draw(st.integers(min_value=1, max_value=4))
        cols = data.draw(st.integers(min_value=1, max_value=6))
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=12)
        matrix = [data.draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
        rhs = data.draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=12),
                                 min_size=rows, max_size=rows))
        assert analysis._phase_one(*integer_system(matrix, rhs)) == fraction_phase_one(matrix, rhs)

    @pytest.mark.parametrize("grid", [1, 2, 3, 7, 16, 64])
    def test_negative_variance(self, grid):
        # m2 < m1 ** 2: no measure at all, so a certificate on every grid
        self.assert_same(grid, [F(1), F(1, 2), F(1, 5)])

    @pytest.mark.parametrize(
        "grid,points,order",
        [(3, [F(1, 2)], 2), (3, [F(1, 2)], 5), (2, [F(0), F(1, 3), F(2, 3)], 4),
         (2, [F(0), F(1, 2), F(1)], 4), (12, [F(0), F(1, 2), F(1)], 4)],
    )
    def test_ratio_ties_go_to_the_smallest_basis_index(self, grid, points, order):
        # the first pivot enters point 0, whose column is 1 in the mass row
        # and the m0 row and 0 below; with m0 = 1 both rows have ratio 1,
        # so Bland's tie-break picks the mass row's artificial.  On the
        # first three cases the certificate depends on that choice.
        values = moments_of(points, [F(1)] * len(points), order)
        matrix, rhs = fit_system(values, grid)
        assert matrix[0][0] == matrix[1][0] == 1 and rhs[0] == rhs[1] == 1
        self.assert_same(grid, values)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(unit_fractions, min_size=0, max_size=5),
        st.booleans(),
    )
    def test_random_sequences(self, grid, tail, unit_mass):
        self.assert_same(grid, [F(1) if unit_mass else F(1, 2), *tail])


class TestRootAgainstBisection:
    """The integer n-th root against the bisection it replaced."""

    def assert_enclosure(self, y, n, bits):
        lo, hi = analysis._root_bounds(y, n, bits)
        assert (lo, hi) == bisection_root_bounds(y, n, bits)
        if y not in (ZERO, ONE):
            assert lo**n <= y < hi**n
            assert hi - lo == F(1, 2**bits)

    @pytest.mark.parametrize(
        "y,n,bits",
        [
            (F(1, 4), 2, 1), (F(1, 4), 2, 64), (F(1, 4), 2, 4096),  # dyadic roots
            (F(1, 8), 3, 1), (F(1, 8), 3, 2), (F(1, 8), 3, 1024),
            (F(1, 2**64), 2, 64), (F(1, 2**64), 64, 64), (F(1, 2**4096), 2, 4096),
            (1 - F(1, 2**64), 2, 64), (1 - F(1, 2**4096), 3, 4096), (1 - F(1, 2**10), 64, 1024),
            (F(1, 3 * 2**128), 2, 64), (F(1, 2**4097), 64, 64),  # floor root 0
            (F(2, 3), 64, 1), (F(2, 3), 2, 4096), (F(1, 10**9), 7, 2048), (F(5, 7), 64, 256),
            (ZERO, 5, 64), (ONE, 5, 64),
        ],
    )
    def test_edge_cases(self, y, n, bits):
        self.assert_enclosure(y, n, bits)

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_draws(self, seed):
        rng = Random(seed)
        bits = rng.choice([1, 2, 3, 17, 64, 200, 1024, 4096])
        n = rng.randint(2, 64 if bits <= 1024 else 4)
        den = rng.randint(2, 2 ** rng.randint(1, 200))
        self.assert_enclosure(F(rng.randint(1, den - 1), den), n, bits)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_draws(self, data):
        # the reference costs about bits**2 * n; keep each draw under 0.3 s
        bits = data.draw(st.integers(min_value=1, max_value=4096))
        n = data.draw(st.integers(min_value=2, max_value=max(2, min(64, 2**26 // bits**2))))
        den = data.draw(st.integers(min_value=2, max_value=2**300))
        num = data.draw(st.integers(min_value=1, max_value=den - 1))
        self.assert_enclosure(F(num, den), n, bits)


class TestFloorRootAgainstNewton:
    """The float-started integer root against Newton from a power of two and `math.isqrt`."""

    def assert_root(self, target, n):
        root = analysis._floor_root(target, n)
        assert root == newton_floor_root(target, n)
        assert root**n <= target < (root + 1) ** n
        if n == 2:
            assert root == math.isqrt(target)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 16, 31, 63, 64])
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 2**26 + 1, 3**300, 2**4096 - 1])
    def test_powers_and_their_neighbours(self, k, n):
        for target in (0, 1, 2, k**n - 1, k**n, k**n + 1):
            self.assert_root(target, n)

    @pytest.mark.parametrize("seed", range(32))
    def test_seeded_targets(self, seed):
        # targets up to 64 * 4,096 bits: a root at 4,096 bits with an exponent term of 64
        rng = Random(seed)
        n = rng.randint(2, 64)
        self.assert_root(rng.getrandbits(rng.randint(1, n * 4096)), n)


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


def reference_power_state(s, a, exponent):
    """s(a^k) as `holder_check` computed it at an integer exponent k: k - 1 products."""
    power = a
    for _ in range(int(exponent) - 1):
        power = core.prod(power, a)
    return mv.eval_state(s, power)


def pmv_states():
    """A state on each stock carrier with an internal product."""
    yield pytest.param(mv.identity_state(mv.standard_unit()), id="standard")
    yield pytest.param(mv.identity_state(mv.finite_chain(1)), id="chain1")
    for atoms, value, weights in (
        (("x",), None, (F(1),)),
        (("x", "y", "z"), None, (F(1, 3), F(0), F(2, 3))),
        (("x", "y"), mv.FiniteChain(1), (F(1, 2), F(1, 2))),
        (("x", "y", "z"), mv.FiniteChain(1), (F(1, 3), F(0), F(2, 3))),
    ):
        algebra = mv.function_algebra(atoms, value)
        label = f"{len(atoms)}x{'standard' if value is None else value.n}"
        yield pytest.param(mv.measure_state(algebra, mv.measure(atoms, weights)), id=label)


@pytest.mark.parametrize("s", list(pmv_states()))
def test_an_integer_power_is_the_repeated_product(s):
    # the atom-wise enclosure is exact at an integer exponent, at any precision
    rng = Random(11)
    pool = [core.random_element(rng, s.algebra) for _ in range(30)]
    pool += core.sweep_elements(s.algebra) or [mv.zero(s.algebra), mv.one(s.algebra)]
    for a in pool:
        for k in range(2, 9):
            exact = reference_power_state(s, a, F(k))
            for bits in (1, 64):
                assert analysis._power_state_bounds(s, a, F(k), bits) == (exact, exact)


def reference_power_state_bounds(s, a, exponent, bits):
    """`analysis._power_state_bounds` at a fractional exponent k / n as it was: each
    atom's enclosure [r, r + 1] / 2**bits of its power's n-th root, 0 and 1 exact,
    summed by the weights in `Fraction`s."""
    k, n = exponent.numerator, exponent.denominator
    lo = hi = ZERO
    for v, w in zip(core.ambient_vector(a), s.measure.weights):
        y = v**k
        if y in (ZERO, ONE):
            b_lo = b_hi = y
        else:
            root = newton_floor_root((y.numerator << (n * bits)) // y.denominator, n)
            b_lo, b_hi = F(root, 1 << bits), F(root + 1, 1 << bits)
        lo += w * b_lo
        hi += w * b_hi
    return lo, hi


@pytest.mark.parametrize("bits", [1, 8, 64, 1024])
@pytest.mark.parametrize("s", list(pmv_states()))
def test_a_fractional_power_is_one_dyadic_sum(s, bits):
    rng = Random(13)
    pool = [core.random_element(rng, s.algebra) for _ in range(10)]
    pool += core.sweep_elements(s.algebra) or [mv.zero(s.algebra), mv.one(s.algebra)]
    for a in pool:
        for exponent in (F(3, 2), F(5, 3), F(7, 4), F(1, 5), F(17, 16)):
            expected = reference_power_state_bounds(s, a, exponent, bits)
            assert analysis._power_state_bounds(s, a, exponent, bits) == expected


@pytest.mark.parametrize("atoms", [2, 3, 6])
def test_a_holder_check_takes_two_roots_per_atom_and_four_outer_ones(monkeypatch, atoms):
    # no value 0 or 1: every atom's power at p and at q needs a root; the outer
    # enclosures of s(a^p)^(1/p) and s(b^q)^(1/q) take two `pow_bounds` each
    names = tuple(f"x{i}" for i in range(atoms))
    algebra = mv.function_algebra(names)
    s = mv.measure_state(algebra, mv.measure(names, [F(1, atoms)] * atoms))
    a = mv.element(algebra, [F(i + 1, atoms + 1) for i in range(atoms)])
    b = mv.element(algebra, [F(1, i + 2) for i in range(atoms)])
    calls = []
    for name in ("_floor_root", "pow_bounds"):
        counted = getattr(analysis, name)
        monkeypatch.setattr(
            analysis, name, lambda *args, f=counted, name=name: calls.append(name) or f(*args)
        )
    assert analysis.holder_check(s, a, b, F(5, 2), F(5, 3)).passed
    assert calls.count("_floor_root") == 2 * atoms + 4
    assert calls.count("pow_bounds") == 4


@pytest.mark.parametrize("bits", [1, 64, 1024])
def test_an_atom_of_weight_zero_takes_no_root(monkeypatch, bits):
    # its term vanishes, so of three atoms strictly inside (0, 1) two take a root
    atoms = ("x", "y", "z")
    algebra = mv.function_algebra(atoms)
    s = mv.measure_state(algebra, mv.measure(atoms, (F(1, 3), F(0), F(2, 3))))
    a = mv.element(algebra, "(1/2,1/3,1/4)")
    calls, floor_root = [], analysis._floor_root
    counted = lambda *args: calls.append(args) or floor_root(*args)
    monkeypatch.setattr(analysis, "_floor_root", counted)
    bounds = analysis._power_state_bounds(s, a, F(3, 2), bits)
    assert len(calls) == 2
    assert bounds == reference_power_state_bounds(s, a, F(3, 2), bits)


class TestHolderPlantedDefects:
    """A defect planted in the step a `fail` branch guards reaches the CLI as exit 1."""

    DOC = str(Path(__file__).parent / "fixtures" / "basic.json")

    def fail_witness(self, argv, capsys):
        code = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["verdict"] == "fail"
        return report["witnesses"]

    def test_exact_mode_fails_on_a_defective_product(self, monkeypatch, capsys):
        # a.b read as the unit: s(a.b)^2 = 1 exceeds s(a^2) * s(b^2) = 1/4 * 1/2
        prod = core.prod
        monkeypatch.setattr(
            core, "prod", lambda x, y: core.one(x.algebra) if x != y else prod(x, y)
        )
        argv = ["holder", self.DOC, "s", "f1", "f2", "--p", "2", "--q", "2"]
        assert self.fail_witness(argv, capsys) == [{"lhs": "1", "rhs_high": "1/8"}]

    def test_interval_mode_fails_on_a_defective_root(self, monkeypatch, capsys):
        # halved floor roots reach every atom and outer enclosure; here f2's values 0
        # and 1 stay exact, and the outer roots put the right side below s(a.b) = 1/4
        floor_root = analysis._floor_root
        monkeypatch.setattr(analysis, "_floor_root", lambda target, n: floor_root(target, n) // 2)
        argv = ["--precision", "8", "holder", self.DOC, "s", "f1", "f2", "--p", "3", "--q", "3/2"]
        assert self.fail_witness(argv, capsys) == [{"lhs": "1/4", "rhs_high": "5265/65536"}]


class TestMomentPlantedDefects:
    """A defect planted in the step a moment re-check guards reaches the CLI."""

    DOC = str(Path(__file__).parent / "fixtures" / "basic.json")

    def test_a_wrong_fitted_measure_is_an_internal_error(self, monkeypatch, capsys):
        # mass 1/12 moved from 0 to 1/2: still a probability vector, wrong moments
        phase_one = analysis._phase_one

        def perturbed(columns, rhs):
            solution, certificate = phase_one(columns, rhs)
            assert solution == [F(1, 6), F(2, 3), F(1, 6)]
            return [solution[0] - F(1, 12), solution[1] + F(1, 12), solution[2]], certificate

        monkeypatch.setattr(analysis, "_phase_one", perturbed)
        code = cli.main(["moments", self.DOC, "fit", "leb", "--grid", "2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: AssertionError('the fitted measure has the given moments')")
        assert err.count("\n") == 1

    def test_a_reconstruction_that_moves_the_mean_fails(self, monkeypatch, capsys):
        # mass 1/12 moved from 0 to 1/2: m0 survives, m1 reads 13/24
        reconstruct = analysis.hausdorff_reconstruct

        def shifted(m, grid):
            weights = list(reconstruct(m, grid).weights)
            assert weights == [F(1, 3)] * 3
            weights[0] -= F(1, 12)
            weights[1] += F(1, 12)
            return analysis.grid_measure([F(j, grid) for j in range(grid + 1)], weights)

        monkeypatch.setattr(analysis, "hausdorff_reconstruct", shifted)
        code = cli.main(["moments", self.DOC, "reconstruct", "leb", "--grid", "2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["verdict"] == "fail"
        assert report["witnesses"] == [{"moment": "first moments not preserved"}]
        assert report["result"]["weights"] == ["1/4", "5/12", "1/3"]

    def test_measure_moments_that_break_the_condition_fail(self, monkeypatch, capsys):
        # m2 = 3/4 above m1 = 1/2: the first differences change sign
        monkeypatch.setattr(
            analysis, "moments_of_measure",
            lambda mu, order: analysis.moment_sequence(["1", "1/2", "3/4"]),
        )
        code = cli.main(["moments", self.DOC, "of-measure", "grid", "--order", "2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["verdict"] == "fail"
        assert report["witnesses"] == [{"reason": "sign"}]

    @pytest.mark.parametrize("grid", [1, 2, 3])
    def test_the_integer_check_agrees_with_the_fraction_moments(self, grid):
        # the reference: m0 and m1 of the reconstruction recomputed in Fractions
        m = lebesgue_moments(3)
        mu = analysis.hausdorff_reconstruct(m, grid)
        assert analysis.moments_of_measure(mu, 1).values == m.values[:2]
        assert analysis.verify_reconstruction(m, grid).passed
