"""Carrier shapes against the per-class branches they replaced.

Every carrier but Chang has a ``shape`` (atoms, levels), and `core`,
`spectra` and `states` read it wherever they once tested the carrier's
class.  The ``reference_*`` functions below are those class branches,
kept here as written before the shape existed; on every stock carrier the
shape-driven functions must give the same elements in the same order,
the same flags, refusals, draws, ideals and quotients.
"""

import itertools
from fractions import Fraction
from random import Random

import pytest

import mvprob as mv
from mvprob import core, documents, spectra
from mvprob.core import Chang, ChangPair, FiniteChain, FunctionAlgebra, StandardUnit
from mvprob.errors import InputError, UnsupportedCarrierError
from mvprob.rationals import ONE, ZERO, parse_unit, random_unit, require_unit

# ---------------------------------------------------------------------------
# The class branches
# ---------------------------------------------------------------------------


def reference_product_closed(carrier) -> bool:
    if isinstance(carrier, StandardUnit):
        return True
    if isinstance(carrier, FiniteChain):
        return carrier.n == 1
    if isinstance(carrier, FunctionAlgebra):
        return reference_product_closed(carrier.value)
    return False


def reference_divisible(carrier) -> bool:
    if isinstance(carrier, StandardUnit):
        return True
    if isinstance(carrier, FunctionAlgebra):
        return isinstance(carrier.value, StandardUnit)
    return False


def reference_coerce_value(carrier, raw) -> Fraction:
    if isinstance(raw, str):
        raw = parse_unit(raw)
    elif isinstance(raw, int):
        raw = Fraction(raw)
    value = require_unit(raw)
    if isinstance(carrier, FiniteChain) and (value * carrier.n).denominator != 1:
        raise InputError(f"{value} is not a level of the {carrier.n}-chain")
    return value


def reference_coerce_payload(carrier, raw):
    if isinstance(carrier, (StandardUnit, FiniteChain)):
        return reference_coerce_value(carrier, raw)
    if isinstance(carrier, FunctionAlgebra):
        if isinstance(raw, str):  # the element text (p/q,...)
            if not (raw.startswith("(") and raw.endswith(")")):
                raise InputError(f"function elements look like (p/q,...), got {raw!r}")
            raw = raw[1:-1].split(",")
        if isinstance(raw, (Fraction, int, ChangPair)):
            raise InputError("function algebra elements need one value per atom")
        values = tuple(reference_coerce_value(carrier.value, v) for v in raw)
        if len(values) != len(carrier.atoms):
            raise InputError(f"expected {len(carrier.atoms)} values, got {len(values)}")
        return values
    if isinstance(carrier, Chang):
        if isinstance(raw, str):  # the element text lower(k) or upper(k)
            for side in ("lower", "upper"):
                index = raw[len(side) + 1 : -1]
                if raw == f"{side}({index})" and index.isascii() and index.isdigit():
                    return ChangPair(side, int(index))
            raise InputError(f"Chang elements look like lower(k)/upper(k), got {raw!r}")
        if not isinstance(raw, ChangPair):
            raise InputError("Chang elements are ChangPair payloads")
        return raw
    raise UnsupportedCarrierError(f"unknown carrier {carrier!r}")


def reference_is_finite(algebra) -> bool:
    carrier = algebra.carrier
    if isinstance(carrier, FiniteChain):
        return True
    if isinstance(carrier, FunctionAlgebra):
        return isinstance(carrier.value, FiniteChain)
    return False


def reference_enumerate(algebra) -> list:
    """The payloads of a finite carrier, in lexicographic order."""
    carrier = algebra.carrier
    if isinstance(carrier, FiniteChain):
        return [Fraction(k, carrier.n) for k in range(carrier.n + 1)]
    if isinstance(carrier, FunctionAlgebra) and isinstance(carrier.value, FiniteChain):
        levels = [Fraction(k, carrier.value.n) for k in range(carrier.value.n + 1)]
        return list(itertools.product(levels, repeat=len(carrier.atoms)))
    raise UnsupportedCarrierError(f"carrier {carrier} is not finite")


def reference_random_payload(rng: Random, algebra):
    carrier = algebra.carrier
    if isinstance(carrier, Chang):
        side = "lower" if rng.random() < 0.5 else "upper"
        return ChangPair(side, rng.randint(0, core.CHANG_SAMPLE_BOUND))
    value = carrier.value if isinstance(carrier, FunctionAlgebra) else carrier
    if isinstance(value, FiniteChain):
        draw = lambda: Fraction(rng.randint(0, value.n), value.n)
    else:
        draw = lambda: random_unit(rng)
    if isinstance(carrier, FunctionAlgebra):
        return tuple(draw() for _ in carrier.atoms)
    return draw()


def reference_divisible_ambient(algebra):
    carrier = algebra.carrier
    if isinstance(carrier, (FiniteChain, StandardUnit)):
        return mv.function_algebra((core.CHAIN_HULL_ATOM,))
    if isinstance(carrier, FunctionAlgebra):
        return mv.function_algebra(carrier.atoms)
    raise UnsupportedCarrierError(f"carrier {carrier} has no divisible ambient")


def reference_atom_indicators(algebra) -> list:
    carrier = algebra.carrier
    if isinstance(carrier, (FiniteChain, StandardUnit)):
        return [mv.one(algebra)]
    if isinstance(carrier, FunctionAlgebra):
        return [mv.indicator(algebra, atom) for atom in carrier.atoms]
    raise UnsupportedCarrierError(f"carrier {carrier} has no atom indicators")


def reference_ideal_shape(algebra) -> tuple:
    """(k, n) for the product over k atoms of the n-chain; a chain has one atom."""
    carrier = algebra.carrier
    if isinstance(carrier, FiniteChain):
        return 1, carrier.n
    if reference_is_finite(algebra):
        return len(carrier.atoms), carrier.value.n
    raise UnsupportedCarrierError("ideal machinery needs a finite carrier")


def reference_supports(algebra) -> list:
    """The supports `spectra.ideals` lists, in its order."""
    if isinstance(algebra.carrier, Chang):
        return [frozenset(), spectra.CHANG_RADICAL, spectra.CHANG_ALL]
    k, _ = reference_ideal_shape(algebra)
    return [
        frozenset(k - 1 - y for y in c)
        for size in range(k + 1)
        for c in itertools.combinations(range(k), size)
    ]


def reference_listing(algebra, support):
    if isinstance(support, str):
        return support
    if not support:
        return [core.format_element(mv.zero(algebra))]
    k, n = reference_ideal_shape(algebra)
    levels = [Fraction(j, n) for j in range(n + 1)]
    if isinstance(algebra.carrier, FiniteChain):
        return sorted(map(core.format_payload, levels))
    choices = [levels if x in support else [ZERO] for x in range(k)]
    return sorted(map(core.format_payload, itertools.product(*choices)))


def reference_quotient(algebra, support):
    """The target algebra of a quotient by a nonempty proper support, and its projection."""
    carrier = algebra.carrier
    count = len(carrier.atoms) if isinstance(carrier, FunctionAlgebra) else 1
    keep = tuple(x for x in range(count) if x not in support)
    if len(keep) == 1 and isinstance(carrier.value, FiniteChain):
        target = mv.finite_chain(carrier.value.n)
        return target, lambda a: mv.Element(target, a.payload[keep[0]])
    target = mv.function_algebra(tuple(carrier.atoms[x] for x in keep), carrier.value)
    return target, lambda a: mv.Element(target, tuple(a.payload[x] for x in keep))


def reference_serialize(algebra) -> dict:
    carrier = algebra.carrier
    if isinstance(carrier, StandardUnit):
        return {
            "kind": "standard",
            "product": algebra.internal_product,
            "scalars": algebra.scalar_action,
        }
    if isinstance(carrier, FiniteChain):
        return {"kind": "chain", "n": carrier.n, "product": algebra.internal_product}
    if isinstance(carrier, FunctionAlgebra):
        return {
            "kind": "function",
            "atoms": list(carrier.atoms),
            "value": "standard" if isinstance(carrier.value, StandardUnit) else carrier.value.n,
            "product": algebra.internal_product,
            "scalars": algebra.scalar_action,
        }
    return {"kind": "chang"}


# ---------------------------------------------------------------------------
# The stock carriers
# ---------------------------------------------------------------------------


def stock_algebras():
    yield pytest.param(mv.standard_unit(), id="standard")
    for n in range(1, 6):
        yield pytest.param(mv.finite_chain(n), id=f"chain{n}")
    for atoms, n in ((("x",), 3), (("x", "y"), 1), (("x", "y"), 2), (("x", "y", "z"), 1)):
        algebra = mv.function_algebra(atoms, FiniteChain(n))
        yield pytest.param(algebra, id=f"{len(atoms)}x{n}")
    for atoms in (("x",), ("x", "y"), ("x", "y", "z")):
        yield pytest.param(mv.function_algebra(atoms), id=f"{len(atoms)}xstandard")
    yield pytest.param(mv.chang(), id="chang")


STOCK = list(stock_algebras())


def outcome(fn, *args):
    """``fn(*args)``, or the type of the `InputError` it raised."""
    try:
        return fn(*args)
    except InputError as exc:
        return type(exc)


def raw_payloads() -> list:
    """Inputs for coercion, in and out of the carrier, of every payload kind."""
    texts = ["0", "1", "1/2", "1/3", "2/3", "3/2", "-1/2", "x", "(1/2)", "(0,1)", "(1/2,1/3,1)"]
    texts += ["(1/2,x)", "()", "(1/2", "lower(2)", "upper(0)", "lower(x)", "lower(-1)", "side(1)"]
    values = [0, 1, 2, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(5, 4)]
    singles = texts + values + [ChangPair("lower", 1)]
    tuples = [(v,) * k for v in ("1/2", Fraction(1, 3), 1, Fraction(3, 2)) for k in (1, 2, 3)]
    return singles + tuples + [["0", "1"], ("1/2", "x"), ChangPair("upper", 0)]


def coercion(coerce, *args):
    try:
        return "ok", coerce(*args)
    except (InputError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# The gates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algebra", STOCK)
def test_finiteness_and_flags_are_the_class_branches(algebra):
    carrier = algebra.carrier
    assert core.is_finite(algebra) == reference_is_finite(algebra)
    # a flag the carrier does not permit is refused
    product = outcome(mv.Algebra, carrier, True, False)
    assert (product is InputError) == (not reference_product_closed(carrier))
    scalars = outcome(mv.Algebra, carrier, False, True)
    assert (scalars is InputError) == (not reference_divisible(carrier))
    if isinstance(carrier, FunctionAlgebra):
        rebuilt = mv.function_algebra(carrier.atoms, carrier.value)
        assert rebuilt.internal_product == reference_product_closed(carrier)
        assert rebuilt.scalar_action == reference_divisible(carrier)
    if isinstance(carrier, FiniteChain):
        assert mv.finite_chain(carrier.n).internal_product == reference_product_closed(carrier)


@pytest.mark.parametrize("algebra", STOCK)
def test_enumeration_order_and_rank_are_the_class_branches(algebra):
    expected = outcome(reference_enumerate, algebra)
    found = outcome(core.enumerate_carrier, algebra)
    if isinstance(expected, type):
        assert found is expected is UnsupportedCarrierError
        return
    assert [e.payload for e in found] == expected
    assert [core.rank(mv.Element(algebra, p)) for p in expected] == list(range(len(expected)))


@pytest.mark.parametrize("algebra", STOCK)
def test_coercion_accepts_and_refuses_as_the_class_branches(algebra):
    built = lambda raw: mv.Element(algebra, raw).payload
    results = [(coercion(built, raw), raw) for raw in raw_payloads()]
    expected = [
        (coercion(reference_coerce_payload, algebra.carrier, raw), raw)
        for raw in raw_payloads()
    ]
    assert results == expected
    assert {kind for (kind, _), _ in results} >= {"ok", "InputError"}


def test_an_unknown_carrier_is_refused():
    with pytest.raises(UnsupportedCarrierError):
        mv.Element(mv.Algebra(object()), Fraction(1, 2))
    with pytest.raises(UnsupportedCarrierError):
        mv.Element(mv.Algebra(object()), (Fraction(1, 2),))


@pytest.mark.parametrize("algebra", STOCK)
def test_the_divisible_ambient_and_its_indicators_are_the_class_branches(algebra):
    expected = outcome(reference_divisible_ambient, algebra)
    assert outcome(core.divisible_ambient, algebra) == expected
    indicators = outcome(reference_atom_indicators, algebra)
    assert outcome(core.atom_indicator_elements, algebra) == indicators
    if isinstance(expected, type):
        assert expected is indicators is UnsupportedCarrierError


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("algebra", STOCK)
def test_the_first_50_draws_are_the_class_branches(algebra, seed):
    rng, reference_rng = Random(seed), Random(seed)
    draws = [core.random_element(rng, algebra).payload for _ in range(50)]
    assert draws == [reference_random_payload(reference_rng, algebra) for _ in range(50)]


@pytest.mark.parametrize("algebra", STOCK)
def test_ideals_and_their_listings_are_the_class_branches(algebra):
    expected = outcome(reference_supports, algebra)
    found = outcome(spectra.ideals, algebra)
    if isinstance(expected, type):
        assert found is expected is UnsupportedCarrierError
        assert outcome(spectra.maximal_ideals, algebra) is UnsupportedCarrierError
        with pytest.raises(UnsupportedCarrierError, match="^ideal machinery needs a finite"):
            spectra.ideals(algebra)
        return
    assert [i.support for i in found] == expected
    for i in found:
        assert spectra.listing(i) == reference_listing(algebra, i.support)
    if not isinstance(algebra.carrier, Chang):
        k, _ = reference_ideal_shape(algebra)
        maximal = [s for s in expected if len(s) == k - 1]
        assert [i.support for i in spectra.maximal_ideals(algebra)] == maximal


@pytest.mark.parametrize("algebra", [p for p in STOCK if p.id != "chang"])
def test_quotients_are_the_class_branches(algebra):
    # every proper nonempty support, on the finite carriers and the
    # rational function algebras `states.state_quotient` passes here
    count = len(algebra.carrier.atoms) if isinstance(algebra.carrier, FunctionAlgebra) else 1
    rng = Random(7)
    if reference_is_finite(algebra):
        pool = core.enumerate_carrier(algebra)
    else:
        pool = [core.random_element(rng, algebra) for _ in range(20)] + [mv.one(algebra)]
    supports = [
        frozenset(c) for size in range(1, count) for c in itertools.combinations(range(count), size)
    ]
    for support in supports:
        result = spectra.quotient(algebra, spectra.Ideal(algebra, support))
        target, project = reference_quotient(algebra, support)
        assert result.algebra == target
        assert [result.project(a) for a in pool] == [project(a) for a in pool]
    with pytest.raises(InputError, match="improper"):
        spectra.quotient(algebra, spectra.Ideal(algebra, frozenset(range(count))))


@pytest.mark.parametrize("algebra", STOCK)
def test_the_identity_state_lives_on_one_value_carriers(algebra):
    if isinstance(algebra.carrier, (StandardUnit, FiniteChain)):
        s = mv.identity_state(algebra)
        assert mv.eval_state(s, mv.one(algebra)) == ONE
    else:
        with pytest.raises(InputError, match="^the identity state lives"):
            mv.identity_state(algebra)


@pytest.mark.parametrize("algebra", STOCK)
def test_the_document_spec_is_the_class_branches(algebra):
    carrier = algebra.carrier
    variants = [algebra]
    if not isinstance(carrier, Chang):  # every flag the carrier permits, on and off
        variants += [
            mv.Algebra(carrier, product, scalars)
            for product in (False, True) for scalars in (False, True)
            if outcome(mv.Algebra, carrier, product, scalars) is not InputError
        ]
    for variant in variants:
        assert documents.serialize_algebra(variant) == reference_serialize(variant)
