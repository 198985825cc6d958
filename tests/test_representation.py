"""Divisible ambients, measure recovery, and the representation."""

import itertools
import json
from fractions import Fraction as F
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

import mvprob as mv
from mvprob import representation
from mvprob.core import random_element
from mvprob.documents import parse_document
from mvprob.errors import InputError

FIXTURES = Path(__file__).parent / "fixtures"
C = mv.chang()
CH2 = mv.finite_chain(2)
FA = mv.function_algebra(("x", "y"))
BOOL2 = mv.function_algebra(("p", "q"), mv.FiniteChain(1))


def chain_state(algebra):
    n = algebra.carrier.n
    return mv.table_state(algebra, {F(k, n): F(k, n) for k in range(n + 1)})


def in_ambient(a):
    """``a`` retyped, values unchanged, into its divisible ambient."""
    return mv.Element(mv.core.divisible_ambient(a.algebra), mv.core.ambient_vector(a))


class TestDivisibleHull:
    """The divisible ambient a semisimple carrier embeds into."""

    def test_contains_rationals_beyond_the_chain(self):
        ambient = mv.core.divisible_ambient(CH2)
        assert mv.element(ambient, ("1/3",)).payload == (F(1, 3),)
        with pytest.raises(InputError):
            mv.element(CH2, "1/3")

    def test_contains_every_embedded_base_element(self):
        ambient = mv.core.divisible_ambient(CH2)
        for a in mv.core.enumerate_carrier(CH2):
            image = in_ambient(a)
            assert image.algebra == ambient and image.payload == (a.payload,)

    def test_arbitrary_rationals_are_members(self):
        ambient = mv.core.divisible_ambient(CH2)
        for p, q in ((1, 7), (3, 5), (12, 13)):
            assert mv.element(ambient, (F(p, q),)).payload == (F(p, q),)

    def test_embedding_preserves_operations(self):
        embed = in_ambient
        pool = mv.core.enumerate_carrier(BOOL2)
        for a, b in itertools.product(pool, repeat=2):
            assert embed(mv.oplus(a, b)) == mv.oplus(embed(a), embed(b))
            assert embed(mv.neg(a)) == mv.neg(embed(a))

    def test_embedding_preserves_products_on_pmv_bases(self):
        embed = in_ambient
        pool = mv.core.enumerate_carrier(BOOL2)
        for a, b in itertools.product(pool, repeat=2):
            assert embed(mv.prod(a, b)) == mv.prod(embed(a), embed(b))

    def test_membership_closed_under_operations(self):
        ambient = mv.core.divisible_ambient(CH2)
        rng = Random(3)
        for _ in range(100):
            f = random_element(rng, ambient)
            g = random_element(rng, ambient)
            for result in (mv.oplus(f, g), mv.neg(f), mv.scalar_mul(F(2, 7), f)):
                assert result.algebra == ambient

    def test_non_semisimple_rejected(self):
        # the Chang algebra has no divisible ambient; spectra tests cover
        # that it is not semisimple
        with pytest.raises(InputError):
            mv.core.divisible_ambient(C)


def recovered_measure(s):
    # linearity makes the weight of an atom the state of its indicator,
    # and the state holds those weights: its divisible extension's measure
    atoms = mv.core.atoms_of(s.algebra)
    weights = [mv.eval_state(s, mv.indicator(s.algebra, x)) for x in atoms]
    assert s.measure == mv.measure(atoms, weights)
    return s.measure


class TestMeasureRecovery:
    def test_recovers_measure_state(self):
        mu = mv.measure(("x", "y"), (F(1, 2), F(1, 2)))
        s = mv.measure_state(FA, mu)
        assert recovered_measure(s) == mu

    def test_point_evaluation_gives_dirac(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1), F(0))))
        assert recovered_measure(s).weights == (F(1), F(0))

    def test_affine_mix(self):
        # averaging two states value by value averages their measures
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        mu1 = mv.measure(("x", "y"), (F(1), F(0)))
        mu2 = mv.measure(("x", "y"), (F(1, 3), F(2, 3)))
        s1 = mv.measure_state(algebra, mu1)
        s2 = mv.measure_state(algebra, mu2)
        mixed_table = {
            a.payload: (mv.eval_state(s1, a) + mv.eval_state(s2, a)) / 2
            for a in mv.core.enumerate_carrier(algebra)
        }
        mixed_state = mv.table_state(algebra, mixed_table)
        expected = mv.measure(
            ("x", "y"), tuple((a + b) / 2 for a, b in zip(mu1.weights, mu2.weights))
        )
        assert recovered_measure(mixed_state) == expected

    def test_round_trip_through_table_state(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        mu = mv.measure(("x", "y"), (F(1, 4), F(3, 4)))
        reference = mv.measure_state(algebra, mu)
        table = {
            a.payload: mv.eval_state(reference, a)
            for a in mv.core.enumerate_carrier(algebra)
        }
        recovered = recovered_measure(mv.table_state(algebra, table))
        assert recovered == mu


class TestPipeline:
    def test_chang_representation_collapses(self):
        rep = mv.embed_l1(C, mv.chang_state(C))
        assert not rep.injective
        assert rep.measure.weights == (F(1),)
        assert mv.represent(rep, mv.lower(C, 4)).payload == (F(0),)
        assert mv.represent(rep, mv.upper(C, 4)).payload == (F(1),)

    def test_already_represented_algebra_is_untouched(self):
        mu = mv.measure(("x", "y"), (F(1, 3), F(2, 3)))
        s = mv.measure_state(FA, mu)
        rep = mv.embed_l1(FA, s)
        assert rep.injective and rep.measure == mu
        a = mv.element(FA, ("1/5", "7/9"))
        assert mv.represent(rep, a).payload == a.payload

    def test_chain_becomes_constants(self):
        rep = mv.embed_l1(CH2, chain_state(CH2))
        assert rep.measure.weights == (F(1),)
        for a in mv.core.enumerate_carrier(CH2):
            assert mv.represent(rep, a).payload == (a.payload,)

    @pytest.mark.parametrize(
        "algebra,state",
        [
            (CH2, chain_state(CH2)),
            (mv.finite_chain(5), chain_state(mv.finite_chain(5))),
            (
                mv.function_algebra(("x", "y"), mv.FiniteChain(2)),
                mv.measure_state(
                    mv.function_algebra(("x", "y"), mv.FiniteChain(2)),
                    mv.measure(("x", "y"), (F(1, 4), F(3, 4))),
                ),
            ),
            (
                mv.function_algebra(("x", "y"), mv.FiniteChain(2)),
                mv.measure_state(
                    mv.function_algebra(("x", "y"), mv.FiniteChain(2)),
                    mv.measure(("x", "y"), (F(0), F(1))),
                ),
            ),
        ],
    )
    def test_integral_identity_exhaustive(self, algebra, state):
        rep = mv.embed_l1(algebra, state)
        for a in mv.core.enumerate_carrier(algebra):
            assert representation.integral(rep, a) == mv.eval_state(state, a)

    def test_integral_identity_on_chang_slice(self):
        s = mv.chang_state(C)
        rep = mv.embed_l1(C, s)
        for k in range(20):
            for e in (mv.lower(C, k), mv.upper(C, k)):
                assert representation.integral(rep, e) == mv.eval_state(s, e)

    def test_injective_iff_faithful_with_witness(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
        degenerate = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1), F(0))))
        rep = mv.embed_l1(algebra, degenerate)
        assert not rep.injective
        witness = mv.is_faithful(degenerate).witnesses[0]["element"]
        assert mv.represent(rep, witness) == mv.represent(rep, mv.zero(algebra))

        faithful = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
        rep = mv.embed_l1(algebra, faithful)
        assert rep.injective
        pool = mv.core.enumerate_carrier(algebra)
        images = {mv.represent(rep, a) for a in pool}
        assert len(images) == len(pool)

    def test_representation_map_is_a_homomorphism(self):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        s = mv.measure_state(algebra, mv.measure(("x", "y"), (F(0), F(1))))
        rep = mv.embed_l1(algebra, s)
        pool = mv.core.enumerate_carrier(algebra)
        for a, b in itertools.product(pool, repeat=2):
            assert mv.represent(rep, mv.oplus(a, b)) == mv.oplus(
                mv.represent(rep, a), mv.represent(rep, b)
            )
            assert mv.represent(rep, mv.neg(a)) == mv.neg(mv.represent(rep, a))

    def test_standard_unit_embeds(self):
        U = mv.standard_unit()
        s = mv.identity_state(U)
        rep = mv.embed_l1(U, s)
        assert rep.injective
        assert rep.measure == mv.measure((mv.core.CHAIN_HULL_ATOM,), (F(1),))
        assert rep.atom_elements == (mv.one(U),)
        for value in ("0", "1/3", "5/7", "1"):
            a = mv.element(U, value)
            assert mv.represent(rep, a).payload == (a.payload,)
            assert representation.integral(rep, a) == mv.eval_state(s, a)
        verdict = representation.verify_embedding(U, s, samples=50, seed=4)
        assert verdict.passed and verdict.metrics["elements_checked"] == 50

    def test_non_faithful_table_state_above_the_ideal_guard(self):
        # 81 elements, above the 64-element guard the ideal machinery had;
        # the null ideal is read off its support, at any carrier size
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(8))
        pool = mv.core.enumerate_carrier(algebra)
        assert len(pool) == 81
        s = mv.table_state(algebra, {a.payload: a.payload[0] for a in pool})
        quotient = mv.state_quotient(algebra, s)
        assert quotient.algebra == mv.finite_chain(8)
        for a in pool:
            assert mv.eval_state(quotient.state, quotient.project(a)) == mv.eval_state(s, a)
        assert mv.is_faithful(quotient.state).passed
        assert mv.states.verify_quotient(s).passed
        rep = mv.embed_l1(algebra, s)
        assert not rep.injective
        assert rep.measure == mv.measure(("x",), (F(1),))
        assert rep.atom_elements == (mv.core.indicator(algebra, "x"),)
        for a in mv.core.enumerate_carrier(algebra):
            assert representation.integral(rep, a) == mv.eval_state(s, a)


def reference_representation(algebra, s):
    """The representation by direct formulas, without `embed_l1` or `core.ambient_element`.

    On Chang every element goes to (0,) or (1,); on the other carriers the
    map is the ambient vector restricted to the atoms of positive weight,
    and an atom's weight is the state of its indicator's source.
    """
    carrier = algebra.carrier
    if isinstance(carrier, mv.FunctionAlgebra):
        atoms = carrier.atoms
        sources = tuple(mv.core.indicator(algebra, x) for x in atoms)
    else:
        atoms, sources = ("x0",), (mv.one(algebra),)
    if isinstance(carrier, mv.Chang):
        def vector(a):
            return (F(0) if a.payload.side == mv.core.LOWER else F(1),)
    else:
        vector = mv.core.ambient_vector
    weights = tuple(mv.eval_state(s, e) for e in sources)
    keep = [i for i, w in enumerate(weights) if w != 0]
    target = mv.function_algebra([atoms[i] for i in keep])
    return SimpleNamespace(
        measure=mv.measure([atoms[i] for i in keep], [weights[i] for i in keep]),
        target=target,
        atom_elements=tuple(sources[i] for i in keep),
        injective=not isinstance(carrier, mv.Chang) and len(keep) == len(atoms),
        represent=lambda a: mv.element(target, [vector(a)[i] for i in keep]),
    )


def pipeline_cases():
    yield pytest.param(C, mv.chang_state(C), id="chang")
    for n in range(1, 7):
        chain = mv.finite_chain(n)
        yield pytest.param(chain, chain_state(chain), id=f"chain{n}")
    for n in (1, 2, 3):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(n))
        for weights in ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (F(1), F(0)), (F(0), F(1))):
            s = mv.measure_state(algebra, mv.measure(("x", "y"), weights))
            table = mv.table_state(
                algebra, {a.payload: mv.eval_state(s, a) for a in mv.core.enumerate_carrier(algebra)}
            )
            label = f"{n}-{weights[0]}"
            yield pytest.param(algebra, s, id=f"measure-{label}")
            yield pytest.param(algebra, table, id=f"table-{label}")
    # infinite carriers, checked on seeded draws
    U = mv.standard_unit()
    yield pytest.param(U, mv.identity_state(U), id="standard")
    atoms = ("r0", "r1", "r2")
    algebra = mv.function_algebra(atoms)
    s = mv.measure_state(algebra, mv.measure(atoms, (F(1, 4), F(0), F(3, 4))))
    yield pytest.param(algebra, s, id="measure-rational-null-atom")
    rng, atoms = Random(20), tuple(f"g{i}" for i in range(20))  # as sampled-rational's embed-G
    raw = [rng.randint(1, 9) for _ in atoms]
    weights = [F(w, sum(raw)) for w in raw]
    algebra = mv.function_algebra(atoms)
    s = mv.measure_state(algebra, mv.measure(atoms, weights))
    yield pytest.param(algebra, s, id="measure-rational-20-atoms")


@pytest.mark.parametrize("algebra, state", list(pipeline_cases()))
def test_pipeline_matches_the_direct_formulas(algebra, state):
    rep = mv.embed_l1(algebra, state)
    expected = reference_representation(algebra, state)
    assert rep.measure == expected.measure
    assert rep.target == expected.target
    assert rep.atom_elements == expected.atom_elements
    assert rep.injective == expected.injective
    elements = mv.core.sweep_elements(algebra)
    if elements is None:
        rng = Random(5)
        elements = [random_element(rng, algebra) for _ in range(200)]
    for a in elements:
        assert mv.represent(rep, a) == expected.represent(a)


def stock_measure_states():
    """The fixture document's measure states, then the pipeline cases' measure states."""
    raw = json.loads((FIXTURES / "basic.json").read_text())
    doc = parse_document(raw)
    for name, s in sorted(doc.states.items()):
        if raw["states"][name]["rule"] == "measure":
            yield pytest.param(s, id=name)
    for p in pipeline_cases():
        if p.id.startswith("measure-"):
            yield pytest.param(p.values[1], id=p.id)


@pytest.mark.parametrize("state", list(stock_measure_states()))
def test_integral_is_the_fraction_sum_over_the_measure(state):
    rep = mv.embed_l1(state.algebra, state)
    rng = Random(17)
    for _ in range(100):
        a = random_element(rng, state.algebra)
        image = mv.represent(rep, a)
        expected = sum((v * w for v, w in zip(image.payload, rep.measure.weights)), F(0))
        assert representation.integral(rep, a) == expected == mv.eval_state(state, a)


class TestVerifyEmbedding:
    def test_chang_slice_with_its_measure(self):
        verdict = mv.representation.verify_embedding(C, mv.chang_state(C), samples=0)
        assert verdict.passed and verdict.seed is None
        assert verdict.metrics == {"elements_checked": 34, "injective": False, "faithful": False}
        assert verdict.result == mv.measure(("x0",), (F(1),))

    def test_rational_carrier_is_sampled_with_a_seed(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 3), F(2, 3))))
        with pytest.raises(InputError):
            mv.representation.verify_embedding(FA, s, samples=5)
        verdict = mv.representation.verify_embedding(FA, s, samples=5, seed=1)
        assert verdict.passed and verdict.seed == 1
        assert verdict.metrics["elements_checked"] == 5


class TestMorphismExtras:
    def test_identity_representation_passes_pmv(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
        rep = mv.embed_l1(FA, s)
        report = mv.verify_morphism_extras(rep, "PMV", samples=100, seed=1)
        assert report.passed

    def test_identity_representation_passes_fmv(self):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 3), F(2, 3))))
        rep = mv.embed_l1(FA, s)
        report = mv.verify_morphism_extras(rep, "fMV", samples=100, seed=2)
        assert report.passed

    def test_boolean_representation_passes(self):
        chain1 = mv.finite_chain(1)
        rep = mv.embed_l1(chain1, chain_state(chain1))
        report = mv.verify_morphism_extras(rep, "PMV")
        assert report.passed

    def test_corrupted_map_fails_with_witness(self, monkeypatch):
        s = mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
        rep = mv.embed_l1(FA, s)
        represent = mv.representation.represent

        def corrupted(rep, a):
            image = represent(rep, a)
            return mv.neg(image) if a.payload[0] == F(1, 2) else image

        monkeypatch.setattr(mv.representation, "represent", corrupted)
        report = mv.verify_morphism_extras(rep, "PMV", samples=100, seed=3)
        assert not report.passed and report.witnesses

    @pytest.mark.parametrize("level", ["PMV", "fMV"])
    @pytest.mark.parametrize("seed", [-1, -5])
    def test_a_negative_seed_is_refused(self, level, seed):
        # seed -1 would give the scalars Random(0), seed 0's product generator
        rep = mv.embed_l1(FA, mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 2), F(1, 2)))))
        with pytest.raises(InputError, match="^seed must be non-negative$"):
            mv.verify_morphism_extras(rep, level, samples=10, seed=seed)

    @pytest.mark.parametrize("level", ["PMV", "fMV"])
    @pytest.mark.parametrize("samples", [0, -2])
    def test_sampled_sweep_refuses_a_non_positive_count(self, level, samples, monkeypatch):
        # a constant map preserves products and scalars; with no draws,
        # nothing would tell it from the representation map
        rep = mv.embed_l1(FA, mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 2), F(1, 2)))))
        monkeypatch.setattr(mv.representation, "represent", lambda rep, a: mv.zero(rep.target))
        with pytest.raises(InputError, match="sample count must be positive"):
            mv.verify_morphism_extras(rep, level, samples=samples, seed=1)

    def test_finite_product_sweep_is_not_sized_by_the_count(self):
        chain1 = mv.finite_chain(1)
        rep = mv.embed_l1(chain1, chain_state(chain1))
        report = mv.verify_morphism_extras(rep, "PMV", samples=0)
        assert report.passed and report.metrics == {"checks": 4}

    def test_fmv_without_a_scalar_action_is_refused_before_any_product(self, monkeypatch):
        # the Boolean algebra has an internal product and no scalar action
        rep = mv.embed_l1(BOOL2, mv.measure_state(BOOL2, mv.measure(("p", "q"), (F(1, 2),) * 2)))
        represent, calls = mv.representation.represent, []

        def counting(rep, a):
            calls.append(a)
            return represent(rep, a)

        monkeypatch.setattr(mv.representation, "represent", counting)
        with pytest.raises(InputError, match="scalar action"):
            mv.verify_morphism_extras(rep, "fMV", samples=5, seed=1)
        assert calls == []

    def test_an_exhaustive_sweep_reports_no_seed(self):
        doc = parse_document(json.loads((FIXTURES / "basic.json").read_text()))
        rep = mv.embed_l1(doc.algebras["B"], doc.states["sB"])
        report = mv.verify_morphism_extras(rep, "PMV", seed=5)
        assert report.passed and report.metrics == {"checks": 16}
        assert report.seed is None

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_draws_are_those_of_the_seed(self, seed, monkeypatch):
        rep = mv.embed_l1(FA, mv.measure_state(FA, mv.measure(("x", "y"), (F(1, 3), F(2, 3)))))
        represent = mv.representation.represent
        seen = []

        def recording(rep, a):
            seen.append(a)
            return represent(rep, a)

        monkeypatch.setattr(mv.representation, "represent", recording)
        report = mv.verify_morphism_extras(rep, "fMV", samples=5, seed=seed)
        assert report.passed and report.metrics == {"checks": 10}
        rng = Random(seed)
        pairs = [(random_element(rng, FA), random_element(rng, FA)) for _ in range(5)]
        expected = [x for a, b in pairs for x in (mv.prod(a, b), a, b)]
        rng = Random(seed + 1)
        for _ in range(5):
            a = random_element(rng, FA)
            expected += [mv.scalar_mul(F(rng.randint(0, 60), 60), a), a]
        assert seen == expected
