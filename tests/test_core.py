"""Operation semantics on every carrier, checked against independent oracles."""

import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvprob as mv
import element_reference as reference
from mvprob import cli, core, documents, independence, spectra, states
from mvprob.axioms import check_axioms
from mvprob.core import ChangPair, random_element
from mvprob.errors import InputError
from mvprob.rationals import random_unit, require_unit

U = mv.standard_unit()
C = mv.chang()

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=50)


def u(x) -> mv.Element:
    return mv.element(U, F(x))


# ---------------------------------------------------------------------------
# Independent oracle for the Chang algebra: the lexicographic group Z x Z
# with unit (1, 0), truncated to [0, unit].  Python tuple comparison is
# lexicographic, which is exactly the order we need.
# ---------------------------------------------------------------------------

LEX_UNIT = (1, 0)


def to_lex(p: ChangPair):
    return (0, p.k) if p.side == "lower" else (1, -p.k)


def from_lex(v) -> ChangPair:
    i, j = v
    if i == 0:
        assert j >= 0
        return ChangPair("lower", j)
    assert i == 1 and j <= 0
    return ChangPair("upper", -j)


def lex_oplus(x: ChangPair, y: ChangPair) -> ChangPair:
    total = tuple(a + b for a, b in zip(to_lex(x), to_lex(y)))
    return from_lex(min(total, LEX_UNIT))


def lex_neg(x: ChangPair) -> ChangPair:
    return from_lex(tuple(a - b for a, b in zip(LEX_UNIT, to_lex(x))))


def chang_elements(bound=6):
    for side in ("lower", "upper"):
        for k in range(bound + 1):
            yield mv.Element(C, ChangPair(side, k))


class TestChangAgainstLexOracle:
    def test_oplus_matches_oracle(self):
        for a, b in itertools.product(chang_elements(), repeat=2):
            assert mv.oplus(a, b).payload == lex_oplus(a.payload, b.payload)

    def test_neg_matches_oracle(self):
        for a in chang_elements():
            assert mv.neg(a).payload == lex_neg(a.payload)

    def test_order_matches_lexicographic_order(self):
        for a, b in itertools.product(chang_elements(), repeat=2):
            assert mv.leq(a, b) == (to_lex(a.payload) <= to_lex(b.payload))

    def test_examples(self):
        assert mv.oplus(mv.lower(C, 2), mv.lower(C, 3)).payload == ChangPair("lower", 5)
        assert mv.neg(mv.lower(C, 4)).payload == ChangPair("upper", 4)
        assert mv.dist(mv.lower(C, 2), mv.upper(C, 3)).payload == ChangPair("upper", 5)


# ---------------------------------------------------------------------------
# Standard carrier
# ---------------------------------------------------------------------------


class TestStandardUnit:
    def test_oplus_truncates(self):
        assert mv.oplus(u("1/2"), u("7/10")).payload == F(1)

    def test_zero_neutral(self):
        assert mv.oplus(mv.zero(U), u("3/7")) == u("3/7")

    def test_neg(self):
        assert mv.neg(u("3/10")).payload == F(7, 10)
        assert mv.neg(mv.zero(U)) == mv.one(U)

    def test_odot(self):
        # evaluate the defining term the long way
        a, b = F(3, 10), F(4, 5)
        expected = 1 - min((1 - a) + (1 - b), F(1))
        assert mv.odot(u(a), u(b)).payload == expected == F(1, 10)

    def test_order_is_numeric(self):
        assert mv.leq(u("1/3"), u("1/2"))
        assert not mv.leq(u("1/2"), u("1/3"))

    def test_lattice_bounds(self):
        a = u("2/5")
        assert mv.join(a, mv.zero(U)) == a
        assert mv.meet(a, mv.one(U)) == a

    def test_dist(self):
        assert mv.dist(u("3/10"), u("4/5")).payload == F(1, 2)
        assert mv.dist(a := u("9/11"), a).payload == 0

    def test_partial_add(self):
        assert mv.partial_add(u("1/3"), u("1/2")).payload == F(5, 6)
        assert mv.partial_add(u("2/3"), u("1/2")) is None
        a = u("4/9")
        assert mv.partial_add(a, mv.zero(U)) == a

    def test_scalar_mul(self):
        a = u("5/7")
        assert mv.scalar_mul(F(1), a) == a
        assert mv.scalar_mul(F(1, 2), u("1/3")).payload == F(1, 6)

    def test_prod(self):
        assert mv.prod(u("1/2"), u("1/2")).payload == F(1, 4)
        a = u("3/8")
        assert mv.prod(a, mv.one(U)) == a


@settings(max_examples=300)
@given(unit_fractions, unit_fractions)
def test_characteristic_identity_on_standard_unit(x, y):
    a, b = u(x), u(y)
    lhs = mv.oplus(mv.neg(mv.oplus(mv.neg(a), b)), b)
    rhs = mv.oplus(mv.neg(mv.oplus(mv.neg(b), a)), a)
    assert lhs == rhs


@settings(max_examples=300)
@given(unit_fractions, unit_fractions)
def test_join_meet_are_max_min(x, y):
    assert mv.join(u(x), u(y)).payload == max(x, y)
    assert mv.meet(u(x), u(y)).payload == min(x, y)


@settings(max_examples=300)
@given(unit_fractions, unit_fractions)
def test_de_morgan(x, y):
    a, b = u(x), u(y)
    assert mv.meet(a, b) == mv.neg(mv.join(mv.neg(a), mv.neg(b)))


@settings(max_examples=300)
@given(unit_fractions, unit_fractions)
def test_dist_is_absolute_difference(x, y):
    assert mv.dist(u(x), u(y)).payload == abs(x - y)


@settings(max_examples=200)
@given(unit_fractions, unit_fractions, unit_fractions)
def test_dist_triangle(x, y, z):
    a, b, c = u(x), u(y), u(z)
    direct = mv.dist(a, c)
    assert mv.leq(direct, mv.oplus(mv.dist(a, b), mv.dist(b, c)))


@settings(max_examples=300)
@given(unit_fractions)
def test_involution(x):
    assert mv.neg(mv.neg(u(x))) == u(x)


# ---------------------------------------------------------------------------
# Chains, exhaustively
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5])
class TestChainExhaustive:
    def test_partial_add_cancellation(self, n):
        algebra = mv.finite_chain(n)
        pool = mv.core.enumerate_carrier(algebra)
        for a, b, c in itertools.product(pool, repeat=3):
            ac = mv.partial_add(a, c)
            bc = mv.partial_add(b, c)
            if ac is not None and bc is not None and ac == bc:
                assert a == b

    def test_join_is_least_upper_bound(self, n):
        algebra = mv.finite_chain(n)
        pool = mv.core.enumerate_carrier(algebra)
        for a, b in itertools.product(pool, repeat=2):
            j = mv.join(a, b)
            assert mv.leq(a, j) and mv.leq(b, j)
            for c in pool:
                if mv.leq(a, c) and mv.leq(b, c):
                    assert mv.leq(j, c)


# ---------------------------------------------------------------------------
# Function algebras: pointwise behaviour
# ---------------------------------------------------------------------------


class TestFunctionAlgebra:
    FA = mv.function_algebra(("x", "y"))

    def test_dist_pointwise(self):
        a = mv.element(self.FA, ("1", "0"))
        b = mv.element(self.FA, ("0", "1"))
        assert mv.dist(a, b).payload == (F(1), F(1))

    def test_scalar_pointwise(self):
        a = mv.element(self.FA, ("1", "1/2"))
        assert mv.scalar_mul(F(1, 2), a).payload == (F(1, 2), F(1, 4))

    def test_prod_pointwise(self):
        a = mv.element(self.FA, ("1", "0"))
        b = mv.element(self.FA, ("1/2", "1/2"))
        assert mv.prod(a, b).payload == (F(1, 2), F(0))

    def test_chain_valued_levels_enforced(self):
        chain_fa = mv.function_algebra(("p",), mv.FiniteChain(2))
        with pytest.raises(InputError):
            mv.element(chain_fa, ("1/3",))


# ---------------------------------------------------------------------------
# Signature and shape errors
# ---------------------------------------------------------------------------


class TestErrors:
    def test_carrier_mismatch(self):
        with pytest.raises(InputError):
            mv.oplus(u("1/2"), mv.element(mv.finite_chain(2), "1/2"))

    def test_no_scalar_action_on_chains(self):
        with pytest.raises(InputError):
            mv.scalar_mul(F(1, 2), mv.element(mv.finite_chain(2), "1/2"))

    def test_no_product_on_chang(self):
        with pytest.raises(InputError):
            mv.prod(mv.lower(C, 1), mv.lower(C, 1))

    def test_chain_product_closure_guard(self):
        with pytest.raises(InputError):
            mv.Algebra(mv.FiniteChain(2), internal_product=True)
        assert mv.finite_chain(1).internal_product

    def test_out_of_range_values(self):
        with pytest.raises(InputError):
            mv.element(U, F(3, 2))
        with pytest.raises(InputError):
            mv.element(U, F(-1, 2))

    def test_vector_arity(self):
        FA = mv.function_algebra(("x", "y"))
        with pytest.raises(InputError):
            mv.element(FA, ("1/2",))

    def test_floats_rejected(self):
        # exactness is the point: binary floats never enter
        with pytest.raises(InputError):
            mv.element(U, 0.5)
        with pytest.raises(InputError):
            mv.element(mv.function_algebra(("x",)), (0.25,))

    def test_negative_literals_rejected(self):
        with pytest.raises(InputError):
            mv.element(U, "-1/2")


# ---------------------------------------------------------------------------
# Trusted construction: op results and constants skip the payload check,
# so each must come out exactly as the boundary check would leave it
# ---------------------------------------------------------------------------


def stock_algebras():
    for n in range(1, 7):
        yield pytest.param(mv.finite_chain(n), id=f"chain{n}")
    yield pytest.param(U, id="standard")
    for n in (1, 2, 3):
        yield pytest.param(mv.function_algebra(("x", "y"), mv.FiniteChain(n)), id=f"2x{n}")
    yield pytest.param(mv.function_algebra(("x", "y", "z")), id="3xstandard")
    yield pytest.param(
        mv.function_algebra(("x",), internal_product=False, scalar_action=False),
        id="1xstandard-plain",
    )
    yield pytest.param(C, id="chang")


def trusted_results(algebra, rng):
    """Every kind of trusted result, on one seeded draw, the draw included."""
    a, b = random_element(rng, algebra), random_element(rng, algebra)
    results = [a, b, mv.oplus(a, b), mv.neg(a), mv.odot(a, b), mv.join(a, b), mv.meet(a, b),
               mv.dist(a, b), mv.zero(algebra), mv.one(algebra)]
    if algebra.internal_product:
        results.append(mv.prod(a, b))
    if algebra.scalar_action:
        results.append(mv.scalar_mul(random_unit(rng), a))
    if isinstance(algebra.carrier, mv.FunctionAlgebra):
        results.extend(mv.indicator(algebra, atom) for atom in algebra.carrier.atoms)
    return results


@pytest.mark.parametrize("algebra", list(stock_algebras()))
def test_trusted_results_pass_the_boundary_check_unchanged(algebra):
    rng = Random(8)
    for _ in range(150):
        for r in trusted_results(algebra, rng):
            assert r.algebra is algebra
            assert core._coerce_payload(algebra.carrier, r.payload) == r.payload
            if isinstance(algebra.carrier, mv.Chang):
                # op results are built unchecked too: the checked build agrees
                assert type(r.payload) is ChangPair and type(r.payload.k) is int
                assert ChangPair(r.payload.side, r.payload.k) == r.payload
            elif isinstance(algebra.carrier, mv.FunctionAlgebra):
                assert type(r.payload) is tuple
                assert all(type(v) is F for v in r.payload)
            else:
                assert type(r.payload) is F
            assert r == core.element(r.algebra, r.payload)


@pytest.mark.parametrize("algebra", list(stock_algebras()))
def test_ambient_images_pass_the_boundary_check_unchanged(algebra):
    # `represent` places images in the target through this unchecked route:
    # every atom kept, and each single atom alone; Chang's one value is its
    # class modulo the radical
    if isinstance(algebra.carrier, mv.Chang):
        atoms, vector = ("x0",), lambda a: (F(a.payload.side == core.UPPER),)
    else:
        atoms, vector = core.atoms_of(core.divisible_ambient(algebra)), core.ambient_vector
    keeps = [tuple(range(len(atoms)))] + [(x,) for x in range(len(atoms))]
    rng = Random(9)
    for _ in range(100):
        a = random_element(rng, algebra)
        for keep in keeps:
            target = mv.function_algebra([atoms[x] for x in keep])
            image = core.ambient_element(a, target, keep)
            assert image == mv.Element(target, tuple(vector(a)[x] for x in keep))
            assert type(image.payload) is tuple and all(type(v) is F for v in image.payload)


def test_enumeration_builds_its_elements_unchecked(monkeypatch):
    # the payloads are chain levels by construction: enumerating 3 atoms over
    # the 5-chain (216 elements) makes no `require_unit` call
    calls = []

    def counting(value):
        calls.append(value)
        return require_unit(value)

    monkeypatch.setattr(core, "require_unit", counting)
    monkeypatch.setattr(mv.rationals, "require_unit", counting)
    algebra = mv.function_algebra(("x", "y", "z"), mv.FiniteChain(5))
    pool = core.enumerate_carrier(algebra)
    assert len(pool) == 216 and calls == []
    monkeypatch.undo()
    for a in pool + core.enumerate_carrier(mv.finite_chain(5)):
        assert a == mv.Element(a.algebra, a.payload)
        assert core._coerce_payload(a.algebra.carrier, a.payload) == a.payload


CHAIN2 = mv.finite_chain(2)
FA2 = mv.function_algebra(("x", "y"))


@pytest.mark.parametrize("build", [mv.Element, mv.element], ids=["Element", "element"])
@pytest.mark.parametrize(
    "algebra, payload, message",
    [
        (U, F(3, 2), "value 3/2 outside [0, 1]"),
        (U, F(-1, 2), "value -1/2 outside [0, 1]"),
        (FA2, (F(1, 2), F(2)), "value 2 outside [0, 1]"),
        (CHAIN2, F(1, 3), "1/3 is not a level of the 2-chain"),
        (mv.function_algebra(("x",), mv.FiniteChain(3)), (F(1, 2),),
         "1/2 is not a level of the 3-chain"),
        (FA2, (F(1, 2),), "expected 2 values, got 1"),
        (FA2, (F(0),) * 3, "expected 2 values, got 3"),
    ],
    ids=["above", "below", "pointwise", "chain-level", "pointwise-level", "short", "long"],
)
def test_boundary_constructors_still_check(build, algebra, payload, message):
    with pytest.raises(InputError) as excinfo:
        build(algebra, payload)
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# Payload op sets against the reference Element definitions: the sweeps,
# the public Element ops and the compiled tables all compute through them
# ---------------------------------------------------------------------------


def differential_algebras():
    yield pytest.param(U, id="standard")
    for n in range(1, 7):
        yield pytest.param(mv.finite_chain(n), id=f"chain{n}")
    for k, n in ((1, 2), (2, 1), (2, 3), (3, 2)):
        atoms = tuple(f"x{i}" for i in range(k))
        yield pytest.param(mv.function_algebra(atoms, mv.FiniteChain(n)), id=f"{k}x{n}")
    for k in (1, 3):
        atoms = tuple(f"x{i}" for i in range(k))
        yield pytest.param(mv.function_algebra(atoms), id=f"{k}xstandard")
    yield pytest.param(C, id="chang")


def canonical(encoded):
    """A coprime pair (x, d) with 0 <= x <= d, or a tuple of them, one per atom."""
    if type(encoded) is not tuple:
        return False
    if type(encoded[0]) is tuple:
        return all(canonical(v) for v in encoded)
    x, d = encoded
    return type(x) is int and type(d) is int and 0 <= x <= d and math.gcd(x, d) == 1


def canonical_in(algebra, encoded):
    if isinstance(algebra.carrier, mv.Chang):  # (0, k) for lower(k), (1, k) for upper(k)
        return type(encoded) is tuple and encoded[0] in (0, 1) and type(encoded[1]) is int
    return canonical(encoded)


class TestOpSetsAgainstReference:
    """Each op set and the `Element` ops on every shape, Chang included, against the
    `element_reference` arithmetic: every op, `leq` and `partial_add`, with each
    encoding canonical and equal to the encoding of the reference payload."""

    @pytest.mark.parametrize("algebra", list(differential_algebras()))
    def test_payload_and_element_ops_match_the_reference(self, algebra):
        ops, r = core.payload_ops(algebra), reference

        def agrees(encoded, expected):
            return (
                canonical_in(algebra, encoded)
                and ops.decode(encoded) == expected.payload
                and ops.encode(expected.payload) == encoded
            )

        assert agrees(ops.zero, r.zero(algebra)) and agrees(ops.one, r.one(algebra))
        assert (mv.zero(algebra), mv.one(algebra)) == (r.zero(algebra), r.one(algebra))
        binary = ["oplus", "odot", "join", "meet", "dist"]
        binary += ["prod"] if algebra.internal_product else []
        chang_slice = core.sweep_elements(algebra) if algebra == C else None
        rng = Random(13)
        for _ in range(300):
            if chang_slice:
                a, b = rng.choice(chang_slice), rng.choice(chang_slice)
            else:
                a, b = random_element(rng, algebra), random_element(rng, algebra)
            x, y = ops.encode(a.payload), ops.encode(b.payload)
            assert agrees(x, a) and agrees(y, b)
            for name in binary:
                expected = getattr(r, name)(a, b)
                assert agrees(getattr(ops, name)(x, y), expected), name
                assert getattr(mv, name)(a, b) == expected, name
            expected = r.neg(a)
            assert agrees(ops.neg(x), expected)
            assert mv.neg(a) == expected
            assert ops.leq(x, y) == mv.leq(a, b) == (r.oplus(r.neg(a), b) == r.one(algebra))
            summable = r.oplus(r.neg(a), r.neg(b)) == r.one(algebra)
            assert mv.partial_add(a, b) == (r.oplus(a, b) if summable else None)
            if algebra.scalar_action:
                alpha = random_unit(rng)
                expected = r.scalar_mul(alpha, a)
                assert agrees(ops.scalar((alpha.numerator, alpha.denominator), x), expected)
                assert mv.scalar_mul(alpha, a) == expected


# ---------------------------------------------------------------------------
# Every route to an Element stores a canonical code: equality and hashing
# compare codes, so a pair left unreduced would make equal values differ
# ---------------------------------------------------------------------------


def assert_canonical(e):
    assert canonical_in(e.algebra, e.code), e
    assert e.code == e.algebra.ops.encode(e.payload), e
    assert mv.element(e.algebra, core.format_element(e)) == e


def stock_state(algebra):
    """The state of each stock carrier; with two atoms or more the last has weight 0."""
    if isinstance(algebra.carrier, mv.Chang):
        return mv.chang_state(algebra)
    if not isinstance(algebra.carrier, mv.FunctionAlgebra):
        return mv.identity_state(algebra)
    atoms = algebra.carrier.atoms
    weights = [F(1, len(atoms) - 1)] * (len(atoms) - 1) + [F(0)] if len(atoms) > 1 else [F(1)]
    return mv.measure_state(algebra, mv.measure(atoms, weights))


def stock_quotients(algebra):
    """The projections onto every quotient by a proper ideal."""
    if isinstance(algebra.carrier, mv.Chang):
        return [spectra.quotient(algebra, spectra.radical(algebra)).project]
    atoms = algebra.carrier.shape[0] or 1
    return [
        spectra.quotient(algebra, spectra.Ideal(algebra, frozenset(support))).project
        for size in range(atoms)
        for support in itertools.combinations(range(atoms), size)
    ]


def checked_inputs(e):
    """The raw forms the checked constructor takes for ``e``'s value: its payload, its
    text, and on the interval and chains an unreduced text and the ints 0 and 1."""
    yield e.payload
    yield core.format_element(e)
    if isinstance(e.payload, F):
        yield f"{2 * e.payload.numerator}/{2 * e.payload.denominator}"
        if e.payload in (0, 1):
            yield int(e.payload)
    elif isinstance(e.payload, tuple):
        yield [str(v) if x % 2 else v for x, v in enumerate(e.payload)]


@pytest.mark.parametrize("algebra", list(stock_algebras()))
def test_every_route_to_an_element_stores_a_canonical_code(algebra):
    rng = Random(21)
    pool = core.sweep_elements(algebra) or [random_element(rng, algebra) for _ in range(40)]
    built = list(pool)
    if core.is_finite(algebra):
        built += core.enumerate_carrier(algebra)
    built += [mv.Element(algebra, raw) for e in pool for raw in checked_inputs(e)]
    for _ in range(40):
        built += trusted_results(algebra, rng)  # the draws, every op, zero, one, indicators
        a, b = random_element(rng, algebra), random_element(rng, algebra)
        built += [r for r in (mv.partial_add(a, b), mv.partial_add(a, mv.neg(a))) if r]
    rep = mv.embed_l1(algebra, stock_state(algebra))
    images = [mv.represent(rep, e) for e in built]
    k = len(rep.keep)
    omega = independence.AtomLinearMap(  # f -> (mean of f, f at the first kept atom)
        rep.target, mv.function_algebra(("p", "q")),
        tuple((F(1, k), F(x == 0)) for x in range(k)),
    )
    linear = [independence.apply_atom_linear(omega, h) for h in images]
    projected = [project(e) for project in stock_quotients(algebra) for e in pool]
    for e in built + images + linear + projected:
        assert_canonical(e)


def test_the_canonical_code_check_sees_an_unreduced_pair(monkeypatch):
    # an enumeration that left 2/4 as (2, 4) would compare unequal to the checked 1/2
    assert_canonical(core.enumerate_carrier(mv.finite_chain(4))[2])
    monkeypatch.setattr(core, "gcd", lambda x, d: 1)
    half = core.enumerate_carrier(mv.finite_chain(4))[2]
    assert half.code == (2, 4) and half != mv.element(mv.finite_chain(4), "1/2")
    with pytest.raises(AssertionError):
        assert_canonical(half)


def test_the_sweeps_check_the_library_arithmetic(monkeypatch):
    # a unit-interval involution wrong at 1/3 alone: the Element op, the
    # sampled law sweep and the sampled metric sweep all see it
    neg = core._ValueOps.neg
    wrong = lambda self, a: (1, 7) if a == (1, 3) else neg(self, a)
    monkeypatch.setattr(core._ValueOps, "neg", wrong)
    assert mv.neg(u("1/3")) == u("1/7")
    assert mv.neg(u("1/4")) == u("3/4")
    report = check_axioms(U, "fMV", samples=200, seed=0)
    assert not report.passed
    assert report.witnesses == [{"axiom": "involution", "elements": ["1/3"]}]
    metric = states.verify_metric(states.identity_state(U), 200, 0)
    assert not metric.passed
    assert metric.witnesses == [{"pair": [u("2/3"), u("31/33")]}]
    # a rational function algebra whose op set is built after the plant binds the
    # planted value op once, and its sweeps see it at one atom's value
    pair = mv.function_algebra(("x", "y"))
    f = lambda *values: mv.element(pair, values)
    assert mv.neg(f("1/3", "1/2")) == f("1/7", "1/2")
    report = check_axioms(pair, "fMV", samples=200, seed=0)
    assert report.witnesses == [{"axiom": "involution", "elements": ["(2/29,1/3)"]}]
    assert report.metrics == {"checks": 606}
    s = mv.measure_state(pair, mv.measure(("x", "y"), (F(1, 3), F(2, 3))))
    metric = states.verify_metric(s, 200, 0)
    assert metric.witnesses == [{"pair": [f("7/30", "2/3"), f("1", "25/49")]}]
    assert metric.metrics == {"pairs": 190, "triples": 0}


# ---------------------------------------------------------------------------
# The integer op set's encoding: canonical, invertible, and the reference
# arithmetic on mixed denominators and on the nested terms of the laws
# ---------------------------------------------------------------------------

wide_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


@st.composite
def encoded_case(draw):
    atoms = draw(st.sampled_from([None, 1, 2, 4]))
    algebra = U if atoms is None else mv.function_algebra(tuple(f"x{i}" for i in range(atoms)))
    payload = lambda: draw(wide_fractions) if atoms is None else tuple(
        draw(wide_fractions) for _ in range(atoms)
    )
    return algebra, [payload() for _ in range(3)], [draw(wide_fractions) for _ in range(2)]


@settings(max_examples=300, deadline=None)
@given(encoded_case())
def test_encoded_payloads_are_canonical_and_match_the_reference(case):
    algebra, payloads, (alpha, beta) = case
    ops = core.payload_ops(algebra)
    x, y, z = encoded = [ops.encode(p) for p in payloads]
    for p, e in zip(payloads, encoded):
        assert canonical(e) and ops.decode(e) == p and ops.encode(ops.decode(e)) == e
    assert canonical(ops.zero) and canonical(ops.one)
    a, b, c = (mv.element(algebra, p) for p in payloads)
    r = reference
    ea, eb = (alpha.numerator, alpha.denominator), (beta.numerator, beta.denominator)
    cases = [
        (ops.oplus(x, y), r.oplus(a, b)),
        (ops.neg(x), r.neg(a)),
        (ops.dist(x, y), r.dist(a, b)),
        # the product-left-distribution, scalar-odot-homogeneity and
        # compatibility terms, three deep
        (ops.prod(z, ops.odot(x, ops.neg(ops.meet(x, y)))),
         r.prod(c, r.odot(a, r.neg(r.meet(a, b))))),
        (ops.scalar(ea, ops.odot(ops.scalar(eb, x), ops.neg(ops.scalar(ea, y)))),
         r.scalar_mul(alpha, r.odot(r.scalar_mul(beta, a), r.neg(r.scalar_mul(alpha, b))))),
        (ops.scalar(ea, ops.prod(x, ops.prod(y, ops.scalar(eb, z)))),
         r.scalar_mul(alpha, r.prod(a, r.prod(b, r.scalar_mul(beta, c))))),
    ]
    for result, expected in cases:
        assert canonical(result)
        assert ops.decode(result) == expected.payload
        assert result == ops.encode(expected.payload)


def parent_draw(rng, algebra):
    """The payload `core.random_element` drew before draws were encoded: per atom a
    rational with a uniform denominator up to 60 and a uniform numerator, or a
    uniform chain level; on Chang a fair side, then an index up to 40."""
    if isinstance(algebra.carrier, mv.Chang):
        side = "lower" if rng.random() < 0.5 else "upper"
        return ChangPair(side, rng.randint(0, 40))
    atoms, n = algebra.carrier.shape

    def value():
        if n is not None:
            return F(rng.randint(0, n), n)
        q = rng.randint(1, 60)
        return F(rng.randint(0, q), q)

    return value() if atoms is None else tuple(value() for _ in range(atoms))


@pytest.mark.parametrize("algebra", list(differential_algebras()))
def test_encoded_draws_replay_the_fraction_draws(algebra):
    # every seeded report depends on these draws and on the rng state they leave
    ops = core.payload_ops(algebra)
    for seed in range(20):
        new, old = Random(seed), Random(seed)
        for _ in range(25):
            assert ops.draw(new) == ops.encode(parent_draw(old, algebra))
        assert new.random() == old.random()
        new, old = Random(seed), Random(seed)
        assert [random_element(new, algebra).payload for _ in range(5)] == [
            parent_draw(old, algebra) for _ in range(5)
        ]
        assert new.random() == old.random()


# ---------------------------------------------------------------------------
# Element texts: `core.element` parses what `core.format_element` prints
# ---------------------------------------------------------------------------


def printed_elements(algebra):
    """A finite carrier whole; the interval and function algebras over it by
    seeded draws; Chang by its sweep slice and by draws."""
    if mv.core.is_finite(algebra):
        return mv.core.enumerate_carrier(algebra)
    rng = Random(7)
    drawn = [random_element(rng, algebra) for _ in range(300)]
    return drawn + (core.sweep_elements(algebra) or []) + [mv.zero(algebra), mv.one(algebra)]


@pytest.mark.parametrize("algebra", list(differential_algebras()))
def test_an_element_text_parses_back_to_its_element(algebra):
    for e in printed_elements(algebra):
        text = core.format_element(e)
        assert core.element(algebra, text) == e, text
        assert core.element(algebra, text).payload == e.payload


CH2 = mv.finite_chain(2)
FA_CHAIN = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
FA_UNIT = mv.function_algebra(("x", "y"))
HUGE = "1" * (sys.get_int_max_str_digits() + 1)  # a term past the int/str digit limit

# (algebra, text, message): every text the document grammar refuses, with its error
MALFORMED_TEXTS = [
    (U, "x", "not a rational literal: 'x'"),
    (U, "", "not a rational literal: ''"),
    (U, "1.5", "not a rational literal: '1.5'"),
    (U, "1/2\n", "not a rational literal: '1/2\\n'"),
    (U, " 1/2", "not a rational literal: ' 1/2'"),
    (U, "+1", "not a rational literal: '+1'"),
    (U, "1/0", "not a rational literal: '1/0'"),
    (U, "3/2", "value 3/2 outside [0, 1]"),
    (U, "-1/2", "value -1/2 outside [0, 1]"),
    (U, "(1/2)", "not a rational literal: '(1/2)'"),
    (U, "lower(1)", "not a rational literal: 'lower(1)'"),
    (CH2, "1/3", "1/3 is not a level of the 2-chain"),
    (CH2, "(1)", "not a rational literal: '(1)'"),
    (FA_CHAIN, "1/2", "function elements look like (p/q,...), got '1/2'"),
    (FA_CHAIN, "(1/2", "function elements look like (p/q,...), got '(1/2'"),
    (FA_CHAIN, "1/2)", "function elements look like (p/q,...), got '1/2)'"),
    (FA_CHAIN, "[0,1]", "function elements look like (p/q,...), got '[0,1]'"),
    (FA_CHAIN, "lower(1)", "function elements look like (p/q,...), got 'lower(1)'"),
    (FA_CHAIN, "()", "not a rational literal: ''"),
    (FA_CHAIN, "(1/2,)", "not a rational literal: ''"),
    (FA_CHAIN, "(1/2, 1/2)", "not a rational literal: ' 1/2'"),
    (FA_CHAIN, "(0;1)", "not a rational literal: '0;1'"),
    (FA_CHAIN, "(x,0)", "not a rational literal: 'x'"),
    (FA_CHAIN, "(1/2)", "expected 2 values, got 1"),
    (FA_CHAIN, "(1/2,1/2,1/2)", "expected 2 values, got 3"),
    (FA_CHAIN, "(1/3,0)", "1/3 is not a level of the 2-chain"),
    (FA_UNIT, "(3/2,0)", "value 3/2 outside [0, 1]"),
    (FA_UNIT, "((1/2,0))", "not a rational literal: '(1/2'"),
    (C, "1/2", "Chang elements look like lower(k)/upper(k), got '1/2'"),
    (C, "lower", "Chang elements look like lower(k)/upper(k), got 'lower'"),
    (C, "lower()", "Chang elements look like lower(k)/upper(k), got 'lower()'"),
    (C, "lower(-1)", "Chang elements look like lower(k)/upper(k), got 'lower(-1)'"),
    (C, "lower(+1)", "Chang elements look like lower(k)/upper(k), got 'lower(+1)'"),
    (C, "lower(1/2)", "Chang elements look like lower(k)/upper(k), got 'lower(1/2)'"),
    (C, "lower(x)", "Chang elements look like lower(k)/upper(k), got 'lower(x)'"),
    (C, "Lower(1)", "Chang elements look like lower(k)/upper(k), got 'Lower(1)'"),
    (C, "lower(1) ", "Chang elements look like lower(k)/upper(k), got 'lower(1) '"),
    (C, "lower(1)(2)", "Chang elements look like lower(k)/upper(k), got 'lower(1)(2)'"),
    (C, "upper(\u0663)", "Chang elements look like lower(k)/upper(k), got 'upper(\u0663)'"),
    (C, "middle(1)", "Chang elements look like lower(k)/upper(k), got 'middle(1)'"),
    # an index past the digit limit is an input error, never a ValueError (exit 3)
    (C, f"upper({HUGE})", f"rational literal has a term of more than {len(HUGE) - 1} digits"),
]

LABELS = {U: "standard", CH2: "chain2", FA_CHAIN: "2x2", FA_UNIT: "2xstandard", C: "chang"}
MALFORMED_IDS = [f"{LABELS[a]}-{t!r}"[:32] for a, t, _ in MALFORMED_TEXTS]


@pytest.mark.parametrize("algebra,text,message", MALFORMED_TEXTS, ids=MALFORMED_IDS)
def test_a_malformed_element_text_is_refused(algebra, text, message):
    with pytest.raises(InputError) as caught:
        core.element(algebra, text)
    assert str(caught.value) == message


@pytest.mark.parametrize("algebra,text,message", MALFORMED_TEXTS, ids=MALFORMED_IDS)
def test_a_malformed_table_key_exits_2_naming_its_state(algebra, text, message, tmp_path, capsys):
    # the key is parsed before the table state refuses an infinite carrier
    doc = {
        "algebras": {"A": documents.serialize_algebra(algebra)},
        "states": {"t": {"algebra": "A", "rule": "table", "values": {text: "0"}}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["state", str(path), "faithful", "t"]) == 2
    assert capsys.readouterr() == ("", f"error: states.t: {message}\n")


# ---------------------------------------------------------------------------
# Records: the frozen-record base keeps what `@dataclass(frozen=True)` gave
# ---------------------------------------------------------------------------


BOOL2 = mv.function_algebra(("x", "y"), mv.FiniteChain(1))


def record_samples():
    """One record of each of the 21 record classes, from the library's own builders."""
    raw = json.loads((Path(__file__).parent / "fixtures" / "basic.json").read_text())
    doc = documents.parse_document(raw)
    s_b, s_chain = doc.states["sB"], doc.states["schain"]
    table = core.compile_table(mv.finite_chain(2))
    space = mv.product_space(s_b, s_chain)
    gamma = mv.state_product_bilinear(space)
    samples = [
        mv.StandardUnit(), mv.FiniteChain(3), mv.function_algebra(("x", "y")).carrier,
        mv.Chang(), ChangPair("upper", 2), mv.finite_chain(1), doc.elements["f1"], table,
        doc.measures["mu"], doc.states["s"], mv.state_quotient(BOOL2, s_b),
        space, gamma,
        mv.extend_bilinear_divisible(gamma), doc.bilinear["gbeta"], doc,
        mv.radical(mv.chang()), mv.quotient(BOOL2, mv.ideal(BOOL2, [(F(0), F(0)), (F(1), F(0))])),
        mv.moment_sequence(["1", "1/2"]), mv.embed_l1(BOOL2, s_b),
        mv.Verdict("pass", [], {"checks": 1}),
    ]
    for record in samples:
        yield pytest.param(record, id=type(record).__name__)


RECORDS = list(record_samples())


def field_names(record) -> list[str]:
    return list(vars(type(record)).get("__annotations__", {}))


def dataclass_twin(record):
    """The record rebuilt as the frozen dataclass it used to be: same name, fields, values."""
    names = field_names(record)
    twin = dataclasses.make_dataclass(type(record).__qualname__, names, frozen=True)
    return twin(*(getattr(record, name) for name in names))


def test_every_record_class_has_a_sample():
    classes = {type(p.values[0]) for p in RECORDS}
    assert len(classes) == len(RECORDS) == 21
    assert all(isinstance(p.values[0], core._Record) for p in RECORDS)


@pytest.mark.parametrize("record", RECORDS)
def test_a_record_hashes_and_reprs_as_its_dataclass(record):
    # hash and repr keep set and dict order, `compile_table` keys and stderr text
    twin = dataclass_twin(record)
    assert repr(record) == repr(twin)
    values = tuple(getattr(record, name) for name in field_names(record))
    try:
        expected = hash(values)
    except TypeError:  # a dict or list field: the dataclass was unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected


@pytest.mark.parametrize("record", RECORDS)
def test_a_record_equals_only_records_of_its_class(record):
    names = field_names(record)
    values = [getattr(record, name) for name in names]
    built = [record.algebra, record.payload] if type(record) is mv.Element else values
    assert type(record)(*built) == record
    assert type(record)(**dict(zip(names, built))) == record
    sibling = type("Sibling", (core._Record,), {"__annotations__": dict.fromkeys(names, "object")})
    assert sibling(*values) != record and record != sibling(*values)
    assert record != dataclass_twin(record)


@pytest.mark.parametrize("record", RECORDS)
def test_a_record_refuses_assignment_and_deletion(record):
    for name in field_names(record) + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_records_of_different_classes_with_equal_fields_differ():
    assert mv.StandardUnit() != mv.Chang() and mv.StandardUnit() == mv.StandardUnit()
    assert len({mv.StandardUnit(), mv.Chang(), mv.StandardUnit()}) == 2


def test_a_record_repr_reaches_the_error_text():
    with pytest.raises(InputError) as excinfo:
        mv.Algebra(mv.FiniteChain(3), internal_product=True)
    assert str(excinfo.value) == "carrier FiniteChain(n=3) does not close under products"


def test_records_take_keywords_and_defaults():
    assert mv.Algebra(mv.FiniteChain(1), internal_product=True) == mv.Algebra(
        mv.FiniteChain(1), True, False
    )
    table = core.compile_table(mv.finite_chain(1))
    rebuilt = mv.TableAlgebra(
        table.names, table.oplus_table, table.neg_table, prod_table=table.prod_table
    )
    assert rebuilt == table and rebuilt.zero == 0
    assert mv.TableAlgebra(("0", "1"), ((0, 1), (1, 1)), (1, 0)).prod_table is None
    with pytest.raises(TypeError):
        mv.Algebra()
    with pytest.raises(TypeError):
        mv.Algebra(mv.Chang(), nonsense=True)


def test_a_state_caches_its_encoded_weights():
    s = states.measure_state(mv.function_algebra(("x", "y")), mv.measure(("x", "y"), (F(1, 3), F(2, 3))))
    assert "encoded_weights" not in vars(s)
    assert s.encoded_weights is s.encoded_weights == ((1, 2), 3)
    assert "encoded_weights" in vars(s)


def test_seeded_chang_draws_are_built_unchecked(monkeypatch):
    checks = []
    check = ChangPair.__post_init__
    monkeypatch.setattr(ChangPair, "__post_init__", lambda pair: checks.append(check(pair)))
    rng = Random(3)
    draws = [random_element(rng, C) for _ in range(500)]
    assert checks == [] and {d.payload.side for d in draws} == {"lower", "upper"}
    ChangPair("lower", 1)
    assert checks == [None]  # the counter sees a checked build
