"""Axiom checking: stock carriers pass, corrupted tables fail with witnesses."""

import pytest

import mvprob as mv
from mvprob.axioms import TableAlgebra, check_axioms
from mvprob.errors import InputError


def chain_names(n):
    return tuple(f"{k}/{n}" if 0 < k < n else ("0" if k == 0 else "1") for k in range(n + 1))


def lukasiewicz_table(n) -> TableAlgebra:
    """The n-chain written out as explicit tables (a known-good fixture)."""
    oplus = tuple(tuple(min(i + j, n) for j in range(n + 1)) for i in range(n + 1))
    neg = tuple(n - i for i in range(n + 1))
    return TableAlgebra(chain_names(n), oplus, neg)


def modular_addition_table(n) -> TableAlgebra:
    """Truncation replaced by addition mod n+1: breaks absorption."""
    oplus = tuple(tuple((i + j) % (n + 1) for j in range(n + 1)) for i in range(n + 1))
    neg = tuple(n - i for i in range(n + 1))
    return TableAlgebra(chain_names(n), oplus, neg)


def swapped_negation_table(n) -> TableAlgebra:
    """Negation fixes endpoints but scrambles the interior: breaks the identity."""
    neg = list(range(n + 1))
    neg[0], neg[n] = n, 0
    oplus = tuple(tuple(min(i + j, n) for j in range(n + 1)) for i in range(n + 1))
    return TableAlgebra(chain_names(n), oplus, tuple(neg))


def max_oplus_table(n) -> TableAlgebra:
    """Addition replaced by join: idempotent, so absorption fails."""
    oplus = tuple(tuple(max(i, j) for j in range(n + 1)) for i in range(n + 1))
    neg = tuple(n - i for i in range(n + 1))
    return TableAlgebra(chain_names(n), oplus, neg)


def replay_witness(table: TableAlgebra, report) -> bool:
    """Re-evaluate the reported law on the reported witness, independently."""
    index = {name: i for i, name in enumerate(table.names)}
    elems = [index[name] for name in report.witnesses[0]["elements"]]
    op = lambda a, b: table.oplus_table[a][b]
    non = lambda a: table.neg_table[a]
    law = report.witnesses[0]["axiom"]
    if law == "oplus-associativity":
        a, b, c = elems
        return op(a, op(b, c)) != op(op(a, b), c)
    if law == "oplus-commutativity":
        a, b = elems
        return op(a, b) != op(b, a)
    if law == "zero-neutral":
        (a,) = elems
        return op(a, table.zero) != a
    if law == "involution":
        (a,) = elems
        return non(non(a)) != a
    if law == "one-absorbing":
        (a,) = elems
        one = non(table.zero)
        return op(a, one) != one
    if law == "characteristic-identity":
        a, b = elems
        return op(non(op(non(a), b)), b) != op(non(op(non(b), a)), a)
    raise AssertionError(f"unexpected law {law}")


class TestStockCarriers:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_chains_pass_exhaustively(self, n):
        report = check_axioms(mv.finite_chain(n), "MV")
        assert report.passed and report.witnesses == []

    def test_chang_passes_by_sampling(self):
        report = check_axioms(mv.chang(), "MV", samples=10_000, seed=17)
        assert report.passed

    def test_standard_unit_mv_sampling(self):
        report = check_axioms(mv.standard_unit(), "MV", samples=10_000, seed=23)
        assert report.passed

    def test_standard_unit_fmv_sampling(self):
        report = check_axioms(mv.standard_unit(), "fMV", samples=2000, seed=4)
        assert report.passed
        assert report.seed == 4

    def test_boolean_function_algebra_pmv_exhaustive(self):
        algebra = mv.function_algebra(("p", "q"), mv.FiniteChain(1))
        report = check_axioms(algebra, "PMV")
        assert report.passed

    def test_chain_valued_function_algebra_mv_exhaustive(self):
        algebra = mv.function_algebra(("p", "q"), mv.FiniteChain(2))
        report = check_axioms(algebra, "MV")
        assert report.passed

    def test_known_good_table_passes(self):
        report = check_axioms(lukasiewicz_table(3), "MV")
        assert report.passed


class TestCorruptedFixtures:
    @pytest.mark.parametrize(
        "make", [modular_addition_table, swapped_negation_table, max_oplus_table]
    )
    def test_fails_with_valid_witness(self, make):
        table = make(3)
        report = check_axioms(table, "MV")
        assert not report.passed
        assert report.witnesses
        assert replay_witness(table, report)

    def test_witness_is_deterministic(self):
        table = modular_addition_table(3)
        first = check_axioms(table, "MV")
        second = check_axioms(table, "MV")
        assert first == second


class TestModeAndSignatureErrors:
    def test_exhaustive_on_infinite_carrier(self):
        with pytest.raises(InputError):
            check_axioms(mv.standard_unit(), "MV")

    def test_scalar_levels_need_sampling(self):
        with pytest.raises(InputError):
            check_axioms(mv.standard_unit(), "RMV")

    def test_pmv_needs_product(self):
        with pytest.raises(InputError):
            check_axioms(mv.finite_chain(3), "PMV")

    def test_rmv_needs_scalars(self):
        with pytest.raises(InputError):
            check_axioms(mv.finite_chain(3), "RMV", samples=10, seed=0)

    def test_unknown_level(self):
        with pytest.raises(InputError):
            check_axioms(mv.finite_chain(3), "XYZ")

    def test_sample_count_positive(self):
        with pytest.raises(InputError):
            check_axioms(mv.finite_chain(3), "MV", samples=0, seed=1)

    def test_table_shape_validation(self):
        with pytest.raises(InputError):
            TableAlgebra(("0", "1"), ((0,),), (1, 0))
        with pytest.raises(InputError):
            TableAlgebra(("0", "1"), ((0, 1), (1, 5)), (1, 0))
