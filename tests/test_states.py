"""States: evaluation, faithfulness, the pseudo-metric, extension, quotients."""

import itertools
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvprob as mv
from element_reference import summable_pairs
from mvprob.errors import InputError
from mvprob.rationals import require_unit

U = mv.standard_unit()
C = mv.chang()
FA = mv.function_algebra(("x", "y"))
CH2 = mv.finite_chain(2)


def in_ambient(a):
    """``a`` retyped, values unchanged, into its divisible ambient."""
    return mv.Element(mv.core.divisible_ambient(a.algebra), mv.core.ambient_vector(a))


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

    def test_two_spellings_of_one_element_rejected(self):
        # the later spelling would win silently: s(1/2) = 1/2 is linear
        table = {F(0): F(0), "1/2": F(1, 3), F(1, 2): F(1, 2), F(1): F(1)}
        with pytest.raises(
            InputError, match=r"^keys '1/2' and Fraction\(1, 2\) name the same element$"
        ):
            mv.table_state(CH2, table)


def reference_table_state(algebra, values: dict):
    """`table_state` as it checked a table before: additivity on every
    summable pair of the compiled carrier, a reference for the check at
    the atom weights that replaced it.  It returns the table by payload."""
    if not mv.core.is_finite(algebra):
        raise InputError("table states need a finite carrier")
    table, spelled = {}, {}
    for raw_key, raw_value in values.items():
        key = mv.element(algebra, raw_key).payload
        if key in spelled:
            raise InputError(f"table keys {spelled[key]!r} and {raw_key!r} name the same element")
        spelled[key] = raw_key
        table[key] = require_unit(
            raw_value if isinstance(raw_value, F) else F(raw_value)
        )
    elements = mv.core.enumerate_carrier(algebra)
    missing = [e for e in elements if e.payload not in table]
    if missing:
        raise InputError(f"table misses {mv.core.format_element(missing[0])}")
    if table[mv.one(algebra).payload] != 1:
        raise InputError("a state must send 1 to 1")
    ranked = [table[e.payload] for e in elements]
    compiled = mv.core.compile_table(algebra)
    for a, b in summable_pairs(compiled):
        if ranked[compiled.oplus(a, b)] != ranked[a] + ranked[b]:
            raise InputError(f"table is not linear at {compiled.names[a]} + {compiled.names[b]}")
    return dict(zip((e.payload for e in elements), ranked))


def both_checks(algebra, values: dict):
    """Each check's values by payload on every element, or ``None`` where it refuses the table."""
    results = []
    for build in (mv.table_state, reference_table_state):
        try:
            built = build(algebra, values)
        except InputError:
            results.append(None)
            continue
        if isinstance(built, mv.State):
            built = {a.payload: mv.eval_state(built, a) for a in mv.core.enumerate_carrier(algebra)}
        results.append(built)
    return results


def measure_tables():
    """(id, algebra, the table of a state on it) for the differential gate."""
    for n in (1, 2, 3, 5):
        chain = mv.finite_chain(n)
        s = mv.identity_state(chain)
        yield f"chain{n}", chain, s
    for atoms, n, weight_sets in (
        (("x", "y"), 2, [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(0), F(1)), (F(1), F(0))]),
        (("x", "y", "z"), 1, [(F(1, 3),) * 3, (F(1, 2), F(1, 3), F(1, 6)), (F(0), F(1, 4), F(3, 4))]),
    ):
        algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
        for weights in weight_sets:
            name = f"{len(atoms)}x{n}-{'-'.join(map(str, weights))}"
            yield name, algebra, mv.measure_state(algebra, mv.measure(atoms, weights))


MEASURE_TABLES = [
    pytest.param(algebra, {a.payload: mv.eval_state(s, a) for a in mv.core.enumerate_carrier(algebra)},
                 id=name)
    for name, algebra, s in measure_tables()
]


def planted(table: dict, position: int) -> dict:
    """``table`` with the entry at rank ``position`` moved by 1/7 inside [0, 1]."""
    keys = list(table)
    key = keys[position]
    value = table[key]
    return {**table, key: value + F(1, 7) if value + F(1, 7) <= 1 else value - F(1, 7)}


class TestTableCheckAgainstSummablePairs:
    """The check at the atom weights accepts exactly the tables the
    summable-pair sweep accepts: on a product of chains, additivity
    forces the linear form, and a linear form with weights >= 0 summing
    to 1 is additive."""

    @pytest.mark.parametrize("algebra, table", MEASURE_TABLES)
    def test_measure_tables_are_accepted_by_both(self, algebra, table):
        found, expected = both_checks(algebra, table)
        assert expected is not None
        assert found == expected == table

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("algebra, table", MEASURE_TABLES)
    def test_a_planted_entry_is_refused_by_both(self, algebra, table, where):
        size = len(table)
        position = {"first": 0, "middle": size // 2, "last": size - 1}[where]
        found, expected = both_checks(algebra, planted(table, position))
        assert found is None and expected is None

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([(1, 4), (2, 2), (2, 3), (3, 1), (3, 2)]),
        st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3),
        st.data(),
    )
    def test_random_weights_with_one_entry_perturbed(self, shape, raw_weights, data):
        k, n = shape
        atoms = tuple(f"a{x}" for x in range(k))
        algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
        raw = raw_weights[:k] if sum(raw_weights[:k]) else [1] * k
        weights = tuple(F(w, sum(raw)) for w in raw)
        s = mv.measure_state(algebra, mv.measure(atoms, weights))
        table = {a.payload: mv.eval_state(s, a) for a in mv.core.enumerate_carrier(algebra)}
        key = data.draw(st.sampled_from(sorted(table)))
        table[key] = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        found, expected = both_checks(algebra, table)
        assert (found is None) == (expected is None)
        assert found == expected

    def test_the_refusal_names_the_first_failing_element_and_both_values(self):
        # 3 atoms over the 1-chain, weights 1/2, 1/3, 1/6; (0,1,1) and (1,1,0)
        # both break the linear form, and (0,1,1) comes first in rank order
        algebra = mv.function_algebra(("x", "y", "z"), mv.FiniteChain(1))
        s = mv.measure_state(algebra, mv.measure(("x", "y", "z"), (F(1, 2), F(1, 3), F(1, 6))))
        table = {a.payload: mv.eval_state(s, a) for a in mv.core.enumerate_carrier(algebra)}
        table[(F(0), F(1), F(1))] = F(1, 3)
        table[(F(1), F(1), F(0))] = F(1, 2)
        with pytest.raises(
            InputError, match=r"^table is not linear at \(0,1,1\): it gives 1/3, the atom weights give 1/2$"
        ):
            mv.table_state(algebra, table)


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

    def test_125_elements_count_every_pair_and_triple(self):
        # 3 atoms over the 4-chain: the sweep iterates n^2 pairs and n^3
        # triples without building either list
        atoms = ("x", "y", "z")
        algebra = mv.function_algebra(atoms, mv.FiniteChain(4))
        s = mv.measure_state(algebra, mv.measure(atoms, (F(1, 2), F(1, 3), F(1, 6))))
        verdict = mv.states.verify_metric(s, samples=0)
        assert verdict.passed and verdict.seed is None
        assert verdict.metrics == {
            "pairs": 125**2, "triples": 125**3, "faithful": True, "separates": True
        }

    def test_unchecked_table_breaks_the_triangle(self, monkeypatch):
        # planted past table_state's linearity check: s(1/2) = 0 but s(1) = 1, as (t, d) pairs
        values = {F(0): (0, 1), F(1, 2): (0, 1), F(1): (1, 1)}
        s = chain_state(CH2)
        ops = CH2.ops
        monkeypatch.setattr(mv.states, "_evaluate", lambda state, p: values[ops.decode(p)])
        verdict = mv.states.verify_metric(s, samples=0)
        assert verdict.verdict == "fail"
        triple = [mv.element(CH2, v) for v in ("0", "1/2", "1")]
        assert verdict.witnesses == [{"triple": triple}]
        # every pair passed; (0, 1/2, 1) is the 6th triple in enumeration order
        assert verdict.metrics == {"pairs": 9, "triples": 6}

    def test_sampling_needs_a_seed(self):
        s = mv.identity_state(U)
        with pytest.raises(InputError):
            mv.states.verify_metric(s, samples=10)
        verdict = mv.states.verify_metric(s, samples=10, seed=3)
        assert verdict.passed and verdict.seed == 3
        assert verdict.metrics["pairs"] == verdict.metrics["triples"] == 10


class TestDivisibleExtension:
    """The hull extension of a state is integration against its atom measure;
    the representation's image state is it on the atoms of positive weight."""

    def test_chain_extension_is_forced(self):
        extension = mv.embed_l1(CH2, chain_state(CH2)).image
        hull_element = mv.element(extension.algebra, ("1/3",))
        assert mv.eval_state(extension, hull_element) == F(1, 3)

    def test_restriction_recovers_state(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 4), F(3, 4))))
        extension = mv.embed_l1(algebra, s).image
        assert extension.algebra == mv.core.divisible_ambient(algebra)
        for a in mv.core.enumerate_carrier(algebra):
            assert mv.eval_state(extension, in_ambient(a)) == mv.eval_state(s, a)

    def test_rational_homogeneity(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 4), F(3, 4))))
        extension = mv.embed_l1(algebra, s).image
        for a in mv.core.enumerate_carrier(algebra):
            image = in_ambient(a)
            for alpha in (F(1, 2), F(2, 3), F(1, 5)):
                assert mv.eval_state(
                    extension, mv.scalar_mul(alpha, image)
                ) == alpha * mv.eval_state(s, a)

    def test_zero_maps_to_zero(self):
        extension = mv.embed_l1(CH2, chain_state(CH2)).image
        assert mv.eval_state(extension, mv.zero(extension.algebra)) == 0

    def test_the_image_drops_exactly_the_null_atoms(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
        faithful = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
        rep = mv.embed_l1(algebra, faithful)
        assert rep.injective and rep.image.measure == faithful.measure
        degenerate = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1), F(0))))
        rep = mv.embed_l1(algebra, degenerate)
        assert not rep.injective and rep.keep == (0,)
        assert rep.image.measure == mv.measure(("x",), (F(1),))
        assert mv.is_faithful(rep.image).passed

    def test_chang_extends_its_radical_quotient(self):
        with pytest.raises(InputError):
            mv.core.divisible_ambient(C)
        rep = mv.embed_l1(C, mv.chang_state(C))
        assert rep.image.measure == mv.measure(("x0",), (F(1),)) and rep.keep == (0,)


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
        # one chain-valued atom survives, so the quotient is its chain
        assert result.algebra == mv.finite_chain(2)
        assert result.state == mv.identity_state(result.algebra)

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
        assert verdict.result == {"algebra": mv.finite_chain(1)}

    def test_measure_and_table_states_with_equal_values_share_the_quotient(self):
        # the quotient depends only on the algebra and the null atoms,
        # not on the rule the state was given by
        cases = [
            (("x", "y"), 2, (F(0), F(1))),
            (("x", "y"), 1, (F(1), F(0))),
            (("x", "y", "z"), 1, (F(0), F(1), F(0))),
            (("x", "y", "z"), 1, (F(1, 3), F(0), F(2, 3))),
        ]
        for atoms, n, weights in cases:
            algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
            by_measure = mv.measure_state(algebra, mv.measure(atoms, weights))
            pool = mv.core.enumerate_carrier(algebra)
            by_table = mv.table_state(
                algebra, {a.payload: mv.eval_state(by_measure, a) for a in pool}
            )
            m = mv.state_quotient(algebra, by_measure)
            t = mv.state_quotient(algebra, by_table)
            assert m.algebra == t.algebra, (atoms, n, weights)
            assert m.state == t.state
            assert [m.project(a) for a in pool] == [t.project(a) for a in pool]

    def test_verify_quotient_on_the_chang_slice(self):
        verdict = mv.states.verify_quotient(mv.chang_state(C))
        assert verdict.passed
        assert verdict.metrics["checks"] == 2 * (mv.core.CHANG_SWEEP_BOUND + 1)


# ---------------------------------------------------------------------------
# Differential gate: the one null-ideal quotient against the two routes it
# replaced, a measure restriction and a table rebuild, kept here as references
# ---------------------------------------------------------------------------


def reference_measure_quotient(s):
    """Drop the weight-0 atoms of a measure state; the target stays a function algebra."""
    mu, carrier = s.measure, s.algebra.carrier
    keep = tuple(i for i, w in enumerate(mu.weights) if w != 0)
    if len(keep) == len(mu.atoms):
        return mv.states.StateQuotient(s.algebra, s, lambda a: a)
    atoms = tuple(mu.atoms[i] for i in keep)
    target = mv.function_algebra(atoms, carrier.value)
    restricted = mv.states.DiscreteMeasure(atoms, tuple(mu.weights[i] for i in keep))

    def project(a):
        return mv.Element(target, tuple(a.payload[i] for i in keep))

    return mv.states.StateQuotient(target, mv.measure_state(target, restricted), project)


def reference_table_quotient(s):
    """Quotient a table state by the ideal of its null elements and rebuild its table."""
    algebra = s.algebra
    table = [(a, mv.eval_state(s, a)) for a in mv.core.enumerate_carrier(algebra)]
    null = mv.spectra.ideal(algebra, [a.payload for a, v in table if v == 0])
    if not null.support:
        return mv.states.StateQuotient(algebra, s, lambda a: a)
    result = mv.spectra.quotient(algebra, null)
    values = {}
    for a, value in table:
        image = result.project(a)
        assert values.setdefault(image.payload, value) == value
    quotient_state = mv.table_state(result.algebra, values)
    return mv.states.StateQuotient(result.algebra, quotient_state, result.project)


def reference_chang_quotient(s):
    """Quotient the first-coordinate state by the radical onto a table state on the 1-chain."""
    result = mv.spectra.quotient(s.algebra, mv.spectra.radical(s.algebra))
    quotient_state = mv.table_state(result.algebra, {F(0): F(0), F(1): F(1)})
    return mv.states.StateQuotient(result.algebra, quotient_state, result.project)


def null_weights(k):
    """Weight vectors on k atoms: each Dirac mass, the uniform one, and on 3 atoms
    every way to put a zero among positive weights."""
    dirac = [tuple(F(int(i == j)) for j in range(k)) for i in range(k)]
    spread = [tuple(F(1, k) for _ in range(k))]
    if k == 2:
        return dirac + spread + [(F(1, 3), F(2, 3))]
    return dirac + spread + [
        (F(1, 2), F(1, 2), F(0)), (F(1, 2), F(0), F(1, 2)),
        (F(0), F(1, 2), F(1, 2)), (F(1, 6), F(0), F(5, 6)),
    ]


def gate_cases():
    """(state, reference quotient, elements swept) for the carriers the gate covers."""
    for n in range(1, 7):
        chain = mv.finite_chain(n)
        table = mv.table_state(chain, {F(j, n): F(j, n) for j in range(n + 1)})
        pool = mv.core.enumerate_carrier(chain)
        yield f"chain{n}-table", table, reference_table_quotient(table), pool
        yield f"chain{n}-identity", mv.identity_state(chain), reference_table_quotient(table), pool
    finite = [(("x", "y"), n) for n in (1, 2, 3)] + [(("x", "y", "z"), 1)]
    for atoms, n in finite:
        algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
        pool = mv.core.enumerate_carrier(algebra)
        for weights in null_weights(len(atoms)):
            s = mv.measure_state(algebra, mv.measure(atoms, weights))
            table = mv.table_state(algebra, {a.payload: mv.eval_state(s, a) for a in pool})
            name = f"{len(atoms)}x{n}-{'-'.join(map(str, weights))}"
            yield f"{name}-measure", s, reference_measure_quotient(s), pool
            yield f"{name}-table", table, reference_table_quotient(table), pool
    for atoms in (("x", "y"), ("x", "y", "z")):
        algebra = mv.function_algebra(atoms)
        rng = Random(len(atoms))
        pool = mv.core.atom_indicator_elements(algebra) + [
            mv.core.random_element(rng, algebra) for _ in range(40)
        ]
        for weights in null_weights(len(atoms)):
            s = mv.measure_state(algebra, mv.measure(atoms, weights))
            name = f"{len(atoms)}xstandard-{'-'.join(map(str, weights))}"
            yield f"{name}-measure", s, reference_measure_quotient(s), pool
    chang = mv.chang_state(C)
    yield "chang", chang, reference_chang_quotient(chang), mv.core.sweep_elements(C)


GATE = list(gate_cases())


def test_differential_gate_size():
    # chains 1-6 (table and identity), 20 finite measure states and their
    # tables, 12 rational measure states, and Chang
    assert len(GATE) == 12 + 2 * 20 + 12 + 1


@pytest.mark.parametrize("s, reference, pool", [c[1:] for c in GATE], ids=[c[0] for c in GATE])
def test_quotient_matches_the_routes_it_replaced(s, reference, pool):
    result = mv.state_quotient(s.algebra, s)
    one_survivor = (
        isinstance(reference.algebra.carrier, mv.FunctionAlgebra)
        and len(reference.algebra.carrier.atoms) == 1
        and isinstance(reference.algebra.carrier.value, mv.FiniteChain)
    )
    if one_survivor:  # the measure route kept a one-atom function algebra
        kept = tuple(x for x, w in zip(s.measure.atoms, s.measure.weights) if w)
        assert reference.algebra.carrier.atoms == kept
        assert result.algebra == mv.finite_chain(reference.algebra.carrier.value.n)
    else:
        assert result.algebra == reference.algebra
    assert mv.is_faithful(result.state).passed
    for a in pool:
        image, expected = result.project(a), reference.project(a)
        if one_survivor:
            assert (image.payload,) == expected.payload
        else:
            assert image == expected
        value = mv.eval_state(result.state, image)
        assert value == mv.eval_state(reference.state, expected) == mv.eval_state(s, a)


# ---------------------------------------------------------------------------
# Differential gate: the atom-measure evaluator against the four rules it
# replaced, and the faithfulness witnesses those rules gave
# ---------------------------------------------------------------------------


def reference_rule_value(algebra, rule, p):
    """The four-rule `_evaluate` that the dot product replaced, at an encoded payload.

    ``rule`` is ("measure", mu), ("identity", None), ("first-coordinate", None)
    or ("table", values), values[rank] being (payload, s(payload)).
    """
    kind, data = rule
    ops = algebra.ops
    if kind == "measure":
        return sum(w * F(x, d) for w, (x, d) in zip(data.weights, p))
    if kind == "identity":
        return F(*p)
    if kind == "first-coordinate":
        return F(0) if p[0] == 0 else F(1)
    return data[ops.index(p)][1]


def table_rule(algebra, table: dict):
    """The removed `TableRule`'s data: every element's value, in `enumerate_carrier` order."""
    return "table", tuple((a.payload, table[a.payload]) for a in mv.core.enumerate_carrier(algebra))


def evaluation_cases():
    """(id, state, its four-rule reference, elements compared)."""
    for n in range(1, 6):
        chain = mv.finite_chain(n)
        pool = mv.core.enumerate_carrier(chain)
        table = {a.payload: a.payload for a in pool}
        yield f"chain{n}-identity", mv.identity_state(chain), ("identity", None), pool
        yield f"chain{n}-table", mv.table_state(chain, table), table_rule(chain, table), pool
    finite = [(k, n) for k in (2, 3) for n in (1, 2, 3)] + [(3, 5)]
    for k, n in finite:
        atoms = ("x", "y", "z")[:k]
        algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
        pool = mv.core.enumerate_carrier(algebra)
        weight_sets = [(F(1, 3), F(2, 3)), (F(0), F(1))] if k == 2 else [
            (F(1, 2), F(1, 3), F(1, 6)), (F(1), F(0), F(0)), (F(1, 4), F(0), F(3, 4))
        ]
        for weights in weight_sets:
            mu = mv.measure(atoms, weights)
            s = mv.measure_state(algebra, mu)
            table = {a.payload: mv.eval_state(s, a) for a in pool}
            name = f"{k}x{n}-{'-'.join(map(str, weights))}"
            yield f"{name}-measure", s, ("measure", mu), pool
            yield f"{name}-table", mv.table_state(algebra, table), table_rule(algebra, table), pool
    rng = Random(19)
    yield "standard-identity", mv.identity_state(U), ("identity", None), [
        mv.core.random_element(rng, U) for _ in range(200)
    ]
    mu = mv.measure(("x", "y", "z"), (F(2, 7), F(0), F(5, 7)))
    algebra = mv.function_algebra(mu.atoms)
    yield "rational-measure", mv.measure_state(algebra, mu), ("measure", mu), [
        mv.core.random_element(rng, algebra) for _ in range(200)
    ]
    yield "chang", mv.chang_state(C), ("first-coordinate", None), [
        mv.core.random_element(rng, C) for _ in range(200)
    ]


EVALUATION = list(evaluation_cases())


def test_evaluation_gate_size():
    # chains 1-5 (identity and table); 2 weight sets on 2 atoms and 3 on
    # 3 atoms over chains 1-3, and 3 on the 216-element carrier, each as a
    # measure and a table; 3 seeded infinite cases
    assert len(EVALUATION) == 10 + 2 * (3 * 2 + 3 * 3 + 3) + 3
    assert max(len(pool) for _, _, _, pool in EVALUATION) == 216


@pytest.mark.parametrize(
    "s, rule, pool", [c[1:] for c in EVALUATION], ids=[c[0] for c in EVALUATION]
)
def test_evaluation_matches_the_four_rules(s, rule, pool):
    for a in pool:
        code = mv.element(s.algebra, a.payload).code
        assert mv.eval_state(s, a) == reference_rule_value(s.algebra, rule, code), a


def reference_table_witness(s):
    """The removed `TableRule`'s witness scan: the first nonzero element of state 0 in rank order."""
    for a in mv.core.enumerate_carrier(s.algebra)[1:]:
        if mv.eval_state(s, a) == 0:
            return a
    return None


WITNESS_WEIGHTS = {
    "first": (F(0), F(1, 3), F(2, 3)),
    "middle": (F(1, 3), F(0), F(2, 3)),
    "last": (F(1, 3), F(2, 3), F(0)),
    "two": (F(1), F(0), F(0)),
}


class TestFaithfulnessWitnesses:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("where", sorted(WITNESS_WEIGHTS))
    def test_a_table_state_names_the_first_null_element(self, where, n):
        atoms = ("x", "y", "z")
        algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
        s = mv.measure_state(algebra, mv.measure(atoms, WITNESS_WEIGHTS[where]))
        table = mv.table_state(
            algebra, {a.payload: mv.eval_state(s, a) for a in mv.core.enumerate_carrier(algebra)}
        )
        expected = reference_table_witness(table)
        assert expected is not None
        assert mv.is_faithful(table).witnesses == [{"element": expected}]
        assert mv.is_faithful(s).witnesses == [{"element": expected}]

    @pytest.mark.parametrize("where", sorted(WITNESS_WEIGHTS))
    def test_a_rational_measure_state_names_the_first_null_indicator(self, where):
        atoms = ("x", "y", "z")
        weights = WITNESS_WEIGHTS[where]
        algebra = mv.function_algebra(atoms)
        s = mv.measure_state(algebra, mv.measure(atoms, weights))
        first = atoms[weights.index(0)]
        assert mv.is_faithful(s).witnesses == [{"element": mv.core.indicator(algebra, first)}]

    def test_a_finite_measure_state_names_its_first_null_element(self):
        # 3 atoms over the 2-chain, weights (1, 0, 0): the first null element
        # in rank order is (0,0,1/2), before the indicator (0,1,0) of the
        # first null atom, as for the table state with the same values
        atoms = ("x", "y", "z")
        algebra = mv.function_algebra(atoms, mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(atoms, (F(1), F(0), F(0))))
        report = mv.is_faithful(s)
        assert report.verdict == "fail"
        assert report.witnesses == [{"element": mv.element(algebra, ("0", "0", "1/2"))}]
