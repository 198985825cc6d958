"""States, the state pseudo-metric, and the null-ideal quotient.

A state is a normalized linear functional, held as its atom measure:
integration against the weights s(1_x) on the atoms of the divisible
ambient (Kroupa 2006; Panti 2008), which is also its rationally linear
extension to that ambient, or on the Chang algebra the first
lexicographic coordinate, which has no measure.  A measure, the identity
on the interval or a chain, and a value table on a finite carrier all
give such weights; a table is checked when constructed to be linear in
its atom weights at every element, and invalid tables are rejected,
never repaired; `table_state` alone parses and checks a table's keys and
values, a document's too.  One evaluator, `_evaluate`, gives every value as
integers (t, d): an element's code holds one coprime pair (x, e) per atom
(``algebra.ops``), and t / d is `rationals.weighted_sum` of w * x / e, w the
weights' numerators over their lcm, the sum that checks a table's linearity.
`eval_state` returns the `Fraction` t / d; the sampled metric sweep compares
pairs by cross-multiplication, and the finite one reads an integer matrix.

The quotient operation collapses pairs at pseudo-distance zero.  A
genuine metric completion can leave the rational carrier, so instead of
approximating limits the quotient result carries a completeness flag
(true exactly when the quotient carrier is finite).
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import Callable, Optional

from . import core
from .core import Algebra, Chang, Element, FunctionAlgebra, _Record, seeded
from .errors import InputError
from .rationals import ONE, ZERO, over_lcm, parse_rational, require_unit, weighted_sum
from .verdict import Verdict, sweep

# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


class DiscreteMeasure(_Record):
    """A normalized weight vector over named atoms."""

    atoms: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # a document's weights arrive unchecked: a bad one is named before the shape
        for w in self.weights:
            require_unit(w)
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise InputError("measure needs one weight per atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise InputError("duplicate atoms in measure")
        numerators, d = over_lcm(self.weights)
        if sum(numerators) != d:
            raise InputError(f"weights sum to {sum(self.weights)}, not 1")


def measure(atoms, weights) -> DiscreteMeasure:
    ws = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in weights)
    return DiscreteMeasure(tuple(atoms), ws)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


class State(_Record):
    """Integration against ``measure`` on `core.divisible_ambient`'s atoms; ``None`` on Chang."""

    algebra: Algebra
    measure: Optional[DiscreteMeasure]

    @functools.cached_property
    def encoded_weights(self) -> tuple[tuple[int, ...], int]:
        """The weights' numerators over their lcm, and that lcm."""
        return over_lcm(self.measure.weights)


def _on_ambient(algebra: Algebra, weights) -> State:
    """The state of ``weights`` on the atoms of ``algebra``'s divisible ambient."""
    atoms = core.atoms_of(core.divisible_ambient(algebra))
    return State(algebra, DiscreteMeasure(atoms, tuple(weights)))


def measure_state(algebra: Algebra, mu: DiscreteMeasure) -> State:
    carrier = algebra.carrier
    if not isinstance(carrier, FunctionAlgebra):
        raise InputError("measure states live on function algebras")
    if carrier.atoms != mu.atoms:
        raise InputError(f"measure atoms {mu.atoms} do not match {carrier.atoms}")
    return State(algebra, mu)


def identity_state(algebra: Algebra) -> State:
    """a |-> a on the interval and k/n |-> k/n on the n-chain, its only state: weight 1 on x0."""
    if isinstance(algebra.carrier, Chang) or algebra.carrier.shape[0] is not None:
        raise InputError("the identity state lives on the standard carrier or a chain")
    return _on_ambient(algebra, (ONE,))


def chang_state(algebra: Algebra) -> State:
    if not isinstance(algebra.carrier, Chang):
        raise InputError("the first-coordinate state lives on the Chang algebra")
    return State(algebra, None)


def keyed(mapping: dict, what: str, parse_key, parse_value) -> dict:
    """``mapping`` with each key, then each value parsed; two spellings of one key are refused."""
    spelled, parsed = {}, {}
    for text, value in mapping.items():
        key = parse_key(text)
        if key in spelled:
            raise InputError(f"keys {spelled[key]!r} and {text!r} name the same {what}")
        spelled[key] = text
        parsed[key] = parse_value(value)
    return parsed


def table_state(algebra: Algebra, values: dict) -> State:
    """Build a state from an explicit table, checked for linearity at each element.

    The one parser and checker of a table, a document's too: ``values`` maps
    payloads or element texts (what `core.element` coerces) to `Fraction`s or
    rational literals in [0, 1], checked per entry: key, repeated key, value.
    Every element of the finite carrier must be covered.  On a product of
    chains a table is additive iff s(a) = sum_x a(x) * s(1_x) at every a,
    s(1_x) read at `core.atom_indicator_elements`: a sums n * a(x) summable
    copies of (1/n) * 1_x, and such a form, weights >= 0, is additive.
    The state is those atom weights.  Keys are held as element codes, so no
    `Fraction` is hashed, and each sum is `rationals.weighted_sum` of a code."""
    table = keyed(
        values, "element", lambda key: core.element(algebra, key).code,
        lambda value: require_unit(value if isinstance(value, Fraction) else parse_rational(value)),
    )
    if not core.is_finite(algebra):
        raise InputError("table states need a finite carrier")
    elements = core.enumerate_carrier(algebra)
    missing = [e for e in elements if e.code not in table]
    if missing:
        raise InputError(f"table misses {core.format_element(missing[0])}")
    if table[algebra.ops.one] != ONE:
        raise InputError("a state must send 1 to 1")
    weights = [table[u.code] for u in core.atom_indicator_elements(algebra)]
    numerators, common = over_lcm(weights)
    for e in elements:
        total, d = weighted_sum(numerators, core.ambient_pairs(e))
        if table[e.code].numerator * common * d != total * table[e.code].denominator:
            raise InputError(
                f"table is not linear at {core.format_element(e)}: it gives "
                f"{table[e.code]}, the atom weights give {Fraction(total, common * d)}"
            )
    return _on_ambient(algebra, weights)


def _evaluate(s: State, p) -> tuple[int, int]:
    """(t, d), d > 0, with t / d the state's value at an element code the caller vouches for."""
    if s.measure is None:  # Chang's first coordinate, at (side, k): 1 on upper(k)
        return p[0], 1
    if type(p[0]) is int:  # one value (x, d): the identity state, weight 1 on x0
        return p
    weights, common = s.encoded_weights
    total, d = weighted_sum(weights, p)
    return total, common * d


def eval_state(s: State, a: Element) -> Fraction:
    if a.algebra != s.algebra:
        raise InputError("element does not belong to the state's algebra")
    return Fraction(*_evaluate(s, a.code))


def _unfaithful(witness: Element) -> Verdict:
    return Verdict("fail", [{"element": witness}], {"checks": 1})


def is_faithful(s: State) -> Verdict:
    """Pass iff only 0 has state 0; a failure names a nonzero null element:
    lower(1) on Chang, else one on the atoms of weight 0, the first in
    `enumerate_carrier` order (1/n at the last null atom) on a finite
    carrier, and the first null atom's indicator on a rational one."""
    if s.measure is None:
        return _unfaithful(core.lower(s.algebra, 1))
    weights = s.measure.weights
    null = [x for x, w in enumerate(weights) if w == ZERO]
    if not null:
        return Verdict("pass", [], {"checks": 1})
    n = s.algebra.carrier.shape[1]
    atom, level = (null[0], ONE) if n is None else (null[-1], Fraction(1, n))
    witness = tuple(level if x == atom else ZERO for x in range(len(weights)))
    return _unfaithful(Element(s.algebra, witness))


def rho(s: State, a: Element, b: Element) -> Fraction:
    """The state pseudo-metric: the state of the distance term."""
    return eval_state(s, core.dist(a, b))


def _triangle_failures(matrix, element):
    """The triples with rho(a, c) > rho(a, b) + rho(b, c) on rho's integer ``matrix``: for each
    (a, b) max_c rho(a, c) - rho(b, c) against rho(a, b), and the failing c only after a hit."""
    n = len(matrix)
    for a, row_a in enumerate(matrix):
        for b, (rab, row_b) in enumerate(zip(row_a, matrix)):
            if max(map(operator.sub, row_a, row_b)) > rab:
                for c, (x, y) in enumerate(zip(row_a, row_b)):
                    if x > rab + y:
                        yield (a * n + b) * n + c, {"triple": [element(a), element(b), element(c)]}


def verify_metric(s: State, samples: int, seed: Optional[int] = None) -> Verdict:
    """Check that ``rho`` is a pseudo-metric that separates iff ``s`` is faithful.

    Finite carriers are swept over every pair and, by (a, b) rows, every
    triple, with rho read from an n x n integer matrix: the state values over
    their lcm at the compiled distances.  Others are swept over ``samples``
    seeded pairs, then as many seeded triples, with rho the `_evaluate` pair
    of their encoded distance, compared by cross-multiplication (the finite
    rho is (x, 1)).  Two `verdict.sweep` stages, so a failing pair reports 0 ``triples``.
    """
    algebra = s.algebra
    if core.is_finite(algebra):
        pool = core.enumerate_carrier(algebra)
        table, indices = core.compile_table(algebra), range(len(pool))
        values, _ = over_lcm([eval_state(s, a) for a in pool])  # rho on one denominator
        matrix = [[values[table.dist(a, b)] for b in indices] for a in indices]
        metric, element = (lambda a, b: (matrix[a][b], 1)), pool.__getitem__
        pairs = itertools.product(indices, repeat=2)
        triangle = _triangle_failures(matrix, element)
        sizes = len(pool) ** 2, len(pool) ** 3
        seed = None
    else:
        rng = seeded(seed, samples)
        ops = algebra.ops
        metric = lambda a, b: _evaluate(s, ops.dist(a, b))
        element = lambda p: Element(algebra, ops.text(p))
        draw = lambda k: tuple(ops.draw(rng) for _ in range(k))
        pairs = [draw(2) for _ in range(samples)]
        triangle = (  # rho(a, c) = x / d > y / e + z / f
            (position, {"triple": [element(a), element(b), element(c)]})
            for position, (a, b, c) in enumerate([draw(3) for _ in range(samples)])
            for (x, d), (y, e), (z, f) in [(metric(a, c), metric(a, b), metric(b, c))]
            if x * e * f > (y * f + z * e) * d
        )
        sizes = samples, samples
    positive = True  # rho(a, b) > 0 at every swept pair a != b

    def pair_failures():
        nonlocal positive
        for position, (a, b) in enumerate(pairs):
            (x, d), (y, e) = metric(a, b), metric(b, a)
            if x * e != y * d or metric(a, a)[0]:
                yield position, {"pair": [element(a), element(b)]}
            positive = positive and (a == b or x > 0)

    stages = [("pairs", sizes[0], pair_failures()), ("triples", sizes[1], triangle)]
    verdict = sweep(stages, seed)
    if not verdict.passed:
        return verdict
    counts, faithful = verdict.metrics, is_faithful(s)
    if faithful.passed:
        separating = positive
    else:
        witness = faithful.witnesses[0]["element"]
        separating = rho(s, witness, core.zero(algebra)) > ZERO
    if separating != faithful.passed:
        return Verdict("fail", [{"separation": "does not match faithfulness"}], counts, seed)
    counts.update(faithful=faithful.passed, separates=separating)
    return Verdict("pass", [], counts, seed)


# ---------------------------------------------------------------------------
# Quotient by the null ideal
# ---------------------------------------------------------------------------


class StateQuotient(_Record):
    algebra: Algebra
    state: State
    project: Callable[[Element], Element]

    @property
    def complete(self) -> bool:  # the quotient is rho-complete iff its carrier is finite
        return core.is_finite(self.algebra)


def state_quotient(algebra: Algebra, s: State) -> StateQuotient:
    """Collapse pairs at pseudo-distance zero; the result is faithful.

    The null ideal of the first-coordinate state is the radical, onto
    the 1-chain.  Every other state is integration against its measure,
    so its null ideal is the lower set of 1_S, S the atoms of weight 0,
    and `spectra.quotient` drops them; the weights restrict to the
    surviving atoms, the target's ambient atoms (``x0`` on a chain).
    The original state factors through the projection exactly, and the
    projection is injective iff the state was already faithful.
    """
    if s.algebra != algebra:
        raise InputError("state does not live on the given algebra")
    if s.measure is None:
        weights, null = (ONE,), None  # the radical, onto the 1-chain
    else:
        weights = s.measure.weights
        null = frozenset(x for x, w in enumerate(weights) if w == ZERO)
        if not null:
            return StateQuotient(algebra, s, lambda a: a)  # a faithful state collapses nothing
    from . import spectra  # only a quotient that collapses something loads it

    ideal = spectra.radical(algebra) if null is None else spectra.Ideal(algebra, null)
    result = spectra.quotient(algebra, ideal)
    target = result.algebra
    return StateQuotient(target, _on_ambient(target, [w for w in weights if w]), result.project)


def verify_quotient(s: State) -> Verdict:
    """Check that ``s`` factors through its quotient, which is faithful.

    The factoring is checked on `core.sweep_elements`; on the other
    infinite carriers it holds by construction and is not swept.
    """
    quotient = state_quotient(s.algebra, s)
    elements = core.sweep_elements(s.algebra) or []
    failures = (
        (position, {"element": a})
        for position, a in enumerate(elements)
        if eval_state(quotient.state, quotient.project(a)) != eval_state(s, a)
    )
    verdict = sweep([("checks", len(elements), failures)])
    if not verdict.passed:
        return verdict
    faithful = is_faithful(quotient.state).passed
    return Verdict(
        "pass" if faithful else "fail",
        [] if faithful else [{"quotient": "state is not faithful"}],
        {**verdict.metrics, "complete": quotient.complete},
        None,
        {"algebra": quotient.algebra},
    )
