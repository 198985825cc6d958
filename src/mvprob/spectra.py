"""Ideals, radicals, quotients, and the finite semisimple embedding.

In a finite algebra every ideal is the lower set of an idempotent (the
join of an ideal is a member, and its truncated-addition closure is
idempotent), so enumeration walks idempotents rather than subsets.  The
explicit-set constructor still verifies the ideal laws exhaustively;
anything failing downward closure or addition closure is rejected.  The
Chang algebra is handled structurally: its ideal lattice is {0}, the
radical of all lower elements, and the whole carrier.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

from . import core
from .core import Algebra, Chang, Element, FiniteChain, FunctionAlgebra
from .errors import InputError, UnsupportedCarrierError
from .rationals import ONE, ZERO
from .verdict import Verdict

MAX_ENUMERABLE = 64  # size guard for carrier-wide enumeration

CHANG_RADICAL = "chang_radical"
CHANG_ALL = "chang_all"


@dataclass(frozen=True)
class Ideal:
    """A verified ideal: explicit member payloads, or a structural tag."""

    algebra: Algebra
    members: Union[frozenset, str]


def _guarded_elements(algebra: Algebra) -> list[Element]:
    size = core.carrier_size(algebra)
    if size is None:
        raise UnsupportedCarrierError("ideal machinery needs a finite carrier")
    if size > MAX_ENUMERABLE:
        raise InputError(f"carrier has {size} elements; the guard is {MAX_ENUMERABLE}")
    return core.enumerate_carrier(algebra)


def ideal(algebra: Algebra, payloads) -> Ideal:
    """Build an ideal from explicit members, verifying the ideal laws."""
    elements = _guarded_elements(algebra)
    members = frozenset(core.element(algebra, p).payload for p in payloads)
    if core.zero(algebra).payload not in members:
        raise InputError("an ideal must contain 0")
    member_elements = [e for e in elements if e.payload in members]
    for m in member_elements:
        for x in elements:
            if core.leq(x, m) and x.payload not in members:
                raise InputError(
                    f"not downward closed: {core.format_element(x)} <= "
                    f"{core.format_element(m)}"
                )
        for other in member_elements:
            if core.oplus(m, other).payload not in members:
                raise InputError(
                    f"not closed under addition at {core.format_element(m)}, "
                    f"{core.format_element(other)}"
                )
    return Ideal(algebra, members)


def ideal_contains(i: Ideal, e: Element) -> bool:
    if e.algebra != i.algebra:
        raise InputError("element does not belong to the ideal's algebra")
    if i.members == CHANG_RADICAL:
        return e.payload.side == core.LOWER
    if i.members == CHANG_ALL:
        return True
    return e.payload in i.members


def listing(i: Ideal) -> Union[str, list[str]]:
    """The members as sorted element texts, or the structural tag."""
    if isinstance(i.members, str):
        return i.members
    return sorted(core.format_element(Element(i.algebra, p)) for p in i.members)


def _is_proper(i: Ideal) -> bool:
    if i.members == CHANG_ALL:
        return False
    if i.members == CHANG_RADICAL:
        return True
    return core.one(i.algebra).payload not in i.members


def _idempotents(algebra: Algebra, elements: list[Element]) -> list[Element]:
    return [e for e in elements if core.oplus(e, e) == e]


def _principal(algebra: Algebra, top: Element, elements: list[Element]) -> Ideal:
    members = frozenset(x.payload for x in elements if core.leq(x, top))
    return Ideal(algebra, members)


def _sort_key(i: Ideal):
    if isinstance(i.members, str):
        return (1, i.members)
    return (0, len(i.members), sorted(repr(p) for p in i.members))


def ideals(algebra: Algebra) -> list[Ideal]:
    """Every ideal, the improper one included."""
    if isinstance(algebra.carrier, Chang):
        zero_ideal = Ideal(algebra, frozenset({core.zero(algebra).payload}))
        return [zero_ideal, Ideal(algebra, CHANG_RADICAL), Ideal(algebra, CHANG_ALL)]
    elements = _guarded_elements(algebra)
    found = [_principal(algebra, e, elements) for e in _idempotents(algebra, elements)]
    return sorted(found, key=_sort_key)


def maximal_ideals(algebra: Algebra) -> list[Ideal]:
    """Maximal proper ideals under inclusion."""
    if isinstance(algebra.carrier, Chang):
        return [Ideal(algebra, CHANG_RADICAL)]
    proper = [i for i in ideals(algebra) if _is_proper(i)]
    return [
        i
        for i in proper
        if not any(other is not i and i.members < other.members for other in proper)
    ]


def radical(algebra: Algebra) -> Ideal:
    """The intersection of all maximal ideals."""
    if isinstance(algebra.carrier, Chang):
        return Ideal(algebra, CHANG_RADICAL)
    members = functools.reduce(
        frozenset.intersection, (i.members for i in maximal_ideals(algebra))
    )
    return Ideal(algebra, members)


def is_semisimple(algebra: Algebra) -> bool:
    carrier = algebra.carrier
    if isinstance(carrier, Chang):
        return False
    if core.is_finite(algebra):
        return radical(algebra).members == frozenset({core.zero(algebra).payload})
    # the rational interval and rational function algebras are archimedean
    return True


def verify_semisimple(algebra: Algebra) -> Verdict:
    """Semisimplicity; a failure names a nonzero element of the radical."""
    if is_semisimple(algebra):
        return Verdict("pass", [], {"checks": 1})
    rad = radical(algebra)
    witness = core.lower(algebra, 1) if rad.members == CHANG_RADICAL else listing(rad)[1]
    return Verdict("fail", [{"radical-element": witness}], {"checks": 1})


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientResult:
    algebra: Algebra
    project: Callable[[Element], Element]


def _identity_result(algebra: Algebra) -> QuotientResult:
    return QuotientResult(algebra, lambda a: a)


def quotient(algebra: Algebra, i: Ideal) -> QuotientResult:
    """Quotient by a proper ideal: a ~ b iff their distance lies in it."""
    if i.algebra != algebra:
        raise InputError("ideal does not belong to the algebra")
    if not _is_proper(i):
        raise InputError("cannot quotient by the improper ideal")

    if isinstance(algebra.carrier, Chang):
        if i.members != CHANG_RADICAL:  # the only other proper ideal is {0}
            return _identity_result(algebra)
        target = core.finite_chain(1)

        def project(a: Element) -> Element:
            return Element(target, ZERO if a.payload.side == core.LOWER else ONE)

        return QuotientResult(target, project)

    if i.members == frozenset({core.zero(algebra).payload}):
        return _identity_result(algebra)

    # nontrivial proper ideals only exist on function algebras here: the
    # ideal's join is a 0/1 idempotent and the quotient drops its support
    carrier = algebra.carrier
    member_elements = [
        e for e in core.enumerate_carrier(algebra) if e.payload in i.members
    ]
    top = functools.reduce(core.join, member_elements)
    if core.oplus(top, top) != top:
        raise AssertionError("the join of an ideal is idempotent")
    keep = tuple(
        idx for idx, v in enumerate(top.payload) if v == ZERO
    )
    survivors = tuple(carrier.atoms[idx] for idx in keep)
    if len(survivors) == 1 and isinstance(carrier.value, FiniteChain):
        target = core.finite_chain(carrier.value.n)

        def project(a: Element) -> Element:
            return Element(target, a.payload[keep[0]])

    else:
        target = core.function_algebra(survivors, carrier.value)

        def project(a: Element) -> Element:
            return Element(target, tuple(a.payload[idx] for idx in keep))

    return QuotientResult(target, project)


# ---------------------------------------------------------------------------
# Semisimple embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingResult:
    source: Algebra
    target: Algebra
    embed: Callable[[Element], Element]


def semisimple_embedding(algebra: Algebra) -> EmbeddingResult:
    """Embed into a function algebra with one atom per maximal ideal.

    Each simple quotient is identified with a subchain of [0, 1]; the
    map is injective exactly when the radical is trivial, so the Chang
    algebra comes out non-injective.
    """
    carrier, collapse = algebra.carrier, lambda a: a
    if isinstance(carrier, Chang):
        result = quotient(algebra, radical(algebra))
        carrier, collapse = result.algebra.carrier, result.project
    if isinstance(carrier, FiniteChain):
        target = core.function_algebra(("M0",), carrier)

        def embed(a: Element) -> Element:
            return Element(target, (collapse(a).payload,))

        return EmbeddingResult(algebra, target, embed)
    if isinstance(carrier, FunctionAlgebra) and core.is_finite(algebra):
        _guarded_elements(algebra)
        target = core.function_algebra(carrier.atoms, carrier.value)

        def embed(a: Element) -> Element:
            return Element(target, a.payload)

        return EmbeddingResult(algebra, target, embed)
    raise UnsupportedCarrierError("semisimple embedding needs a finite carrier or Chang")
