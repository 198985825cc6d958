"""States: evaluation, faithfulness, the pseudo-metric, extension, quotients."""

import itertools
from fractions import Fraction as F

import pytest

import mvprob as mv
from mvprob.errors import InputError

U = mv.standard_unit()
C = mv.chang()
FA = mv.function_algebra(("x", "y"))
CH2 = mv.finite_chain(2)


def fa(*values):
    return mv.element(FA, values)


def chain_state(algebra):
    n = algebra.carrier.n
    return mv.table_state(algebra, {F(k, n): F(k, n) for k in range(n + 1)})


class TestEvaluation:
    def test_weighted_sum(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
        assert mv.eval_state(s, fa("1", "0")) == F(1, 2)

    def test_one_maps_to_one(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 3), F(2, 3))))
        assert mv.eval_state(s, mv.one(FA)) == 1

    def test_chang_first_coordinate(self):
        s = mv.chang_state(C)
        assert mv.eval_state(s, mv.lower(C, 7)) == 0
        assert mv.eval_state(s, mv.upper(C, 7)) == 1

    def test_identity_rule(self):
        s = mv.identity_state(U)
        assert mv.eval_state(s, mv.element(U, "5/9")) == F(5, 9)

    def test_carrier_mismatch(self):
        s = mv.identity_state(U)
        with pytest.raises(InputError):
            mv.eval_state(s, mv.element(CH2, "1/2"))


class TestTableValidation:
    def test_unique_chain_state_accepted(self):
        s = chain_state(mv.finite_chain(3))
        assert mv.eval_state(s, mv.element(mv.finite_chain(3), "2/3")) == F(2, 3)

    def test_nonlinear_table_rejected(self):
        with pytest.raises(InputError):
            mv.table_state(CH2, {F(0): F(0), F(1, 2): F(1, 4), F(1): F(1)})

    def test_top_must_map_to_one(self):
        with pytest.raises(InputError):
            mv.table_state(CH2, {F(0): F(0), F(1, 2): F(1, 2), F(1): F(1, 2)})

    def test_missing_entry_rejected(self):
        with pytest.raises(InputError):
            mv.table_state(CH2, {F(0): F(0), F(1): F(1)})


class TestStateLaws:
    """Linearity and monotonicity, exhaustively on finite carriers."""

    @pytest.mark.parametrize(
        "algebra,state",
        [
            (CH2, chain_state(CH2)),
            (
                mv.function_algebra(("x", "y"), mv.FiniteChain(2)),
                mv.measure_state(
                    mv.function_algebra(("x", "y"), mv.FiniteChain(2)),
                    mv.measure(("x", "y"), (F(1, 4), F(3, 4))),
                ),
            ),
        ],
    )
    def test_linear_and_monotone(self, algebra, state):
        pool = mv.core.enumerate_carrier(algebra)
        for a, b in itertools.product(pool, repeat=2):
            if mv.leq(a, mv.neg(b)):
                assert mv.eval_state(state, mv.oplus(a, b)) == mv.eval_state(
                    state, a
                ) + mv.eval_state(state, b)
            if mv.leq(a, b):
                assert mv.eval_state(state, a) <= mv.eval_state(state, b)
            assert mv.eval_state(state, mv.neg(a)) == 1 - mv.eval_state(state, a)

    def test_sigma_continuity_on_ascending_chains(self):
        # every ascending triple in a small carrier: the state of the
        # last entry equals the state of the chain's join
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(2, 5), F(3, 5))))
        pool = mv.core.enumerate_carrier(algebra)
        count = 0
        for a, b, c in itertools.product(pool, repeat=3):
            if mv.leq(a, b) and mv.leq(b, c):
                count += 1
                join = mv.join(mv.join(a, b), c)
                assert mv.eval_state(s, c) == mv.eval_state(s, join)
        assert count == 100  # the carrier has exactly 100 ascending triples


class TestFaithfulness:
    def test_positive_measure_is_faithful(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
        assert mv.is_faithful(s).passed

    def test_zero_weight_witness(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1), F(0))))
        report = mv.is_faithful(s)
        assert not report.passed
        witness = report.witnesses[0]["element"]
        assert witness.payload == (F(0), F(1))
        assert mv.eval_state(s, witness) == 0

    def test_chang_state_witness(self):
        report = mv.is_faithful(mv.chang_state(C))
        assert not report.passed
        assert report.witnesses == [{"element": mv.lower(C, 1)}]


class TestPseudoMetric:
    def test_identity_state_gives_absolute_difference(self):
        s = mv.identity_state(U)
        assert mv.rho(s, mv.element(U, "3/10"), mv.element(U, "4/5")) == F(1, 2)

    def test_zero_self_distance(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 3), F(2, 3))))
        a = fa("1/7", "6/7")
        assert mv.rho(s, a, a) == 0

    def test_degenerate_pair_under_nonfaithful_state(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1), F(0))))
        a, b = fa("1", "0"), fa("1", "1")
        assert a != b and mv.rho(s, a, b) == 0

    @pytest.mark.parametrize(
        "weights", [(F(1, 2), F(1, 2)), (F(1), F(0)), (F(1, 4), F(3, 4))]
    )
    def test_metric_iff_faithful_exhaustive(self, weights):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), weights))
        pool = mv.core.enumerate_carrier(algebra)
        separates = all(
            mv.rho(s, a, b) > 0
            for a, b in itertools.product(pool, repeat=2)
            if a != b
        )
        assert separates == mv.is_faithful(s).passed

    def test_triangle_inequality_exhaustive(self):
        algebra = mv.function_algebra(("x",), mv.FiniteChain(3))
        s = mv.measure_state(algebra, mv.measure(("x",), (F(1),)))
        pool = mv.core.enumerate_carrier(algebra)
        for a, b, c in itertools.product(pool, repeat=3):
            assert mv.rho(s, a, c) <= mv.rho(s, a, b) + mv.rho(s, b, c)


class TestVerifyMetric:
    def test_chain_sweep_counts_every_pair_and_triple(self):
        verdict = mv.states.verify_metric(chain_state(CH2), samples=0)
        assert verdict.passed and verdict.seed is None
        assert verdict.metrics == {"pairs": 9, "triples": 27, "faithful": True, "separates": True}

    def test_unchecked_table_breaks_the_triangle(self):
        # built past table_state's linearity check: s(1/2) = 0 but s(1) = 1
        values = ((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(1)))
        s = mv.State(CH2, mv.states.TableRule(values))
        verdict = mv.states.verify_metric(s, samples=0)
        assert verdict.verdict == "fail"
        triple = [mv.element(CH2, v) for v in ("0", "1/2", "1")]
        assert verdict.witnesses == [{"triple": triple}]
        assert verdict.metrics == {"pairs": 9, "triples": 27}

    def test_sampling_needs_a_seed(self):
        s = mv.identity_state(U)
        with pytest.raises(InputError):
            mv.states.verify_metric(s, samples=10)
        verdict = mv.states.verify_metric(s, samples=10, seed=3)
        assert verdict.passed and verdict.seed == 3
        assert verdict.metrics["pairs"] == verdict.metrics["triples"] == 10


class TestDivisibleExtension:
    def test_chain_extension_is_forced(self):
        s = chain_state(CH2)
        extension = mv.extend_state_divisible(s)
        hull_element = mv.element(extension.algebra, ("1/3",))
        assert mv.eval_state(extension, hull_element) == F(1, 3)

    def test_restriction_recovers_state(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 4), F(3, 4))))
        extension = mv.extend_state_divisible(s)
        for a in mv.core.enumerate_carrier(algebra):
            assert mv.eval_state(extension, mv.core.embed_in_ambient(a)) == mv.eval_state(s, a)

    def test_rational_homogeneity(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 4), F(3, 4))))
        extension = mv.extend_state_divisible(s)
        for a in mv.core.enumerate_carrier(algebra):
            image = mv.core.embed_in_ambient(a)
            for alpha in (F(1, 2), F(2, 3), F(1, 5)):
                assert mv.eval_state(
                    extension, mv.scalar_mul(alpha, image)
                ) == alpha * mv.eval_state(s, a)

    def test_zero_maps_to_zero(self):
        extension = mv.extend_state_divisible(chain_state(CH2))
        assert mv.eval_state(extension, mv.zero(extension.algebra)) == 0

    def test_faithfulness_is_preserved(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
        faithful = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
        assert mv.is_faithful(mv.extend_state_divisible(faithful)).passed
        degenerate = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1), F(0))))
        assert not mv.is_faithful(mv.extend_state_divisible(degenerate)).passed

    def test_chang_rejected(self):
        with pytest.raises(InputError):
            mv.extend_state_divisible(mv.chang_state(C))


class TestStateQuotient:
    def test_chang_collapses_to_two_elements(self):
        result = mv.state_quotient(C, mv.chang_state(C))
        assert result.algebra == mv.finite_chain(1)
        assert result.complete
        assert mv.is_faithful(result.state).passed
        assert result.project(mv.lower(C, 5)) == mv.zero(result.algebra)
        assert result.project(mv.upper(C, 5)) == mv.one(result.algebra)

    def test_faithful_measure_is_untouched(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 3), F(2, 3))))
        result = mv.state_quotient(FA, s)
        assert result.algebra == FA and result.state == s
        a = fa("1/5", "4/5")
        assert result.project(a) == a

    def test_degenerate_measure_drops_an_atom(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1), F(0))))
        result = mv.state_quotient(FA, s)
        assert mv.core.atoms_of(result.algebra) == ("x",)
        assert result.project(fa("2/3", "1/9")).payload == (F(2, 3),)
        assert mv.is_faithful(result.state).passed
        # infinite carrier: the quotient is not metrically complete
        assert not result.complete

    def test_quotient_of_finite_carrier_is_complete(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(0), F(1))))
        result = mv.state_quotient(algebra, s)
        assert result.complete
        assert mv.core.atoms_of(result.algebra) == ("y",)

    def test_state_factors_through_projection(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(0), F(1))))
        result = mv.state_quotient(algebra, s)
        for a in mv.core.enumerate_carrier(algebra):
            assert mv.eval_state(result.state, result.project(a)) == mv.eval_state(s, a)

    def test_projection_injective_iff_faithful(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
        for weights in ((F(1, 2), F(1, 2)), (F(0), F(1))):
            s = mv.measure_state(algebra, mv.measure(("x", "y"), weights))
            result = mv.state_quotient(algebra, s)
            pool = mv.core.enumerate_carrier(algebra)
            injective = all(
                result.project(a) != result.project(b)
                for a, b in itertools.product(pool, repeat=2)
                if a != b
            )
            assert injective == mv.is_faithful(s).passed

    def test_table_state_quotient(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
        table = {
            (F(0), F(0)): F(0),
            (F(0), F(1)): F(0),
            (F(1), F(0)): F(1),
            (F(1), F(1)): F(1),
        }
        s = mv.table_state(algebra, table)
        result = mv.state_quotient(algebra, s)
        assert mv.is_faithful(result.state).passed
        for payload, value in table.items():
            a = mv.element(algebra, payload)
            assert mv.eval_state(result.state, result.project(a)) == value

    def test_verify_quotient_sweeps_the_carrier(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1), F(0))))
        verdict = mv.states.verify_quotient(s)
        assert verdict.passed
        assert verdict.metrics == {"checks": 4, "complete": True}
        assert verdict.result == {"algebra": mv.function_algebra(("x",), mv.FiniteChain(1))}

    def test_verify_quotient_on_the_chang_slice(self):
        verdict = mv.states.verify_quotient(mv.chang_state(C))
        assert verdict.passed
        assert verdict.metrics["checks"] == 2 * (mv.core.CHANG_SWEEP_BOUND + 1)


class TestSequenceLimit:
    S = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))

    def test_constant_sequence(self):
        a = fa("1/3", "2/3")
        assert mv.sequence_limit(self.S, [a, a, a]) == a

    def test_tail_stabilization(self):
        a, b = fa("0", "0"), fa("1", "0")
        assert mv.rho(self.S, a, b) > 0
        assert mv.sequence_limit(self.S, [a, b, b, b]) == b

    def test_alternating_has_no_limit(self):
        a, b = fa("0", "0"), fa("1", "0")
        assert mv.sequence_limit(self.S, [a, b, a, b]) is None

    def test_single_entry_is_not_evidence(self):
        assert mv.sequence_limit(self.S, [fa("1", "1")]) is None

    def test_null_pair_tail_under_nonfaithful_state(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1), F(0))))
        a, b = fa("1/2", "0"), fa("1/2", "1")
        limit = mv.sequence_limit(s, [fa("0", "0"), a, b])
        assert limit is not None and mv.rho(s, limit, b) == 0

    def test_product_of_limits_on_product_carrier(self):
        # pointwise products of stabilizing sequences stabilize to the
        # product of the limits, up to pseudo-distance zero
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1), F(0))))
        xs = [fa("0", "0"), fa("1/2", "0"), fa("1/2", "1")]
        ys = [fa("1", "1"), fa("1", "1"), fa("1", "0")]
        lim_x = mv.sequence_limit(s, xs)
        lim_y = mv.sequence_limit(s, ys)
        products = [mv.prod(a, b) for a, b in zip(xs, ys)]
        lim_prod = mv.sequence_limit(s, products)
        assert lim_prod is not None
        assert mv.rho(s, lim_prod, mv.prod(lim_x, lim_y)) == 0

    def test_product_of_limits_faithful_case(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
        xs = [fa("0", "0"), fa("1/2", "1/3"), fa("1/2", "1/3")]
        ys = [fa("1", "1"), fa("3/4", "1"), fa("3/4", "1")]
        products = [mv.prod(a, b) for a, b in zip(xs, ys)]
        assert mv.sequence_limit(s, products) == mv.prod(
            mv.sequence_limit(s, xs), mv.sequence_limit(s, ys)
        )
