"""Ideals, radicals and quotients.

Every finite carrier here is a product of chains, the product over k
atoms of the n-chain (a chain is the one-atom case), and its ``shape``
gives k and n.  Each of its ideals is the set of elements that vanish
off an atom set S, the lower set of the indicator 1_S (Cignoli,
D'Ottaviano and Mundici 2000).  So a finite `Ideal` is its support S, a
set of atom indices: there are 2^k ideals, the maximal ones are the k
supports of size k - 1, the radical is the empty support, membership is
pointwise, and the quotient keeps the atoms off S.  `quotient` takes a
support on a rational function algebra too: it is the one quotient, and
`states.state_quotient` drops a state's null atoms through it.  Nothing
sweeps the carrier.  Only `listing` enumerates an ideal, to render it,
on the levels `core.enumerate_carrier` gives the n-chain, and `ideals`
refuses a carrier whose ideals would take more than `MAX_LISTED` member
texts to render.  The Chang algebra is handled structurally: its ideals
are {0} (the empty support), the radical of all lower elements, and the
whole carrier.  The radical is the one ideal given on the infinite
carriers as well: they are semisimple, so it is {0}, the empty support.
"""

from __future__ import annotations

import itertools
from typing import Callable, Union

from . import core
from .core import Algebra, Chang, Element, _Record
from .errors import InputError, UnsupportedCarrierError
from .rationals import ZERO
from .verdict import Verdict

# member texts that listing every ideal, (n+2)^k of them, may render;
# `spectra ideals` at this ceiling takes about a second
MAX_LISTED = 200_000

FINITE_ONLY = "ideal machinery needs a finite carrier"
CHANG_RADICAL = "chang_radical"
CHANG_ALL = "chang_all"


class Ideal(_Record):
    """A verified ideal: the atom indices it may be nonzero at, or a Chang tag."""

    algebra: Algebra
    support: Union[frozenset, str]


def _support(e: Element) -> frozenset:
    return frozenset(x for x, (v, _) in enumerate(core.ambient_pairs(e)) if v)


def ideal(algebra: Algebra, payloads) -> Ideal:
    """The ideal with exactly the given members, or `InputError`.

    Every member vanishes off S, the union of the members' supports, and
    every ideal is the set of elements vanishing off some atom set, so
    the members form an ideal iff 0 is one of them and they number
    (n+1)^|S|, all of the elements vanishing off S.
    """
    if not core.is_finite(algebra):
        raise UnsupportedCarrierError(FINITE_ONLY)
    n = algebra.carrier.shape[1]
    members = frozenset(core.element(algebra, p) for p in payloads)
    if core.zero(algebra) not in members:
        raise InputError("an ideal must contain 0")
    support = frozenset().union(*map(_support, members))
    generated = (n + 1) ** len(support)
    if len(members) != generated:
        raise InputError(
            f"not an ideal: {len(members)} members, but the ideal they generate "
            f"has {generated}"
        )
    return Ideal(algebra, support)


def ideal_contains(i: Ideal, e: Element) -> bool:
    if e.algebra != i.algebra:
        raise InputError("element does not belong to the ideal's algebra")
    if i.support == CHANG_RADICAL:
        return e.code[0] == 0  # lower(k)
    if i.support == CHANG_ALL:
        return True
    if not i.support:
        return e == core.zero(e.algebra)
    return _support(e) <= i.support


def listing(i: Ideal) -> Union[str, list[str]]:
    """The members as sorted element texts, or the structural tag."""
    if isinstance(i.support, str):
        return i.support
    algebra = i.algebra
    if not i.support:
        return [core.format_element(core.zero(algebra))]
    atoms, n = algebra.carrier.shape
    members = levels = [e.payload for e in core.enumerate_carrier(core.finite_chain(n))]
    if atoms is not None:  # on a chain the support is its one atom: every level
        members = itertools.product(*[levels if x in i.support else [ZERO] for x in range(atoms)])
    return sorted(map(core.format_payload, members))


def _supports(k: int, size: int) -> list[frozenset]:
    """The supports of one size, lexicographic in the reflected indices k - 1 - x."""
    return [frozenset(k - 1 - y for y in c) for c in itertools.combinations(range(k), size)]


def ideals(algebra: Algebra) -> list[Ideal]:
    """Every ideal, the improper one included, in the order of `_supports` by size."""
    if isinstance(algebra.carrier, Chang):
        return [Ideal(algebra, s) for s in (frozenset(), CHANG_RADICAL, CHANG_ALL)]
    if not core.is_finite(algebra):
        raise UnsupportedCarrierError(FINITE_ONLY)
    atoms, n = algebra.carrier.shape
    k = atoms or 1  # a chain is one atom
    listed = (n + 2) ** k  # the sum over supports S of (n+1)^|S|
    if listed > MAX_LISTED:
        raise InputError(
            f"listing every ideal takes {listed} member texts; the budget is {MAX_LISTED}"
        )
    return [Ideal(algebra, s) for size in range(k + 1) for s in _supports(k, size)]


def maximal_ideals(algebra: Algebra) -> list[Ideal]:
    """Maximal proper ideals under inclusion: all atoms but one."""
    if isinstance(algebra.carrier, Chang):
        return [Ideal(algebra, CHANG_RADICAL)]
    if not core.is_finite(algebra):
        raise UnsupportedCarrierError(FINITE_ONLY)
    k = algebra.carrier.shape[0] or 1
    return [Ideal(algebra, s) for s in _supports(k, k - 1)]


def radical(algebra: Algebra) -> Ideal:
    """The intersection of all maximal ideals: {0}, the empty support, but on Chang."""
    return Ideal(algebra, frozenset() if is_semisimple(algebra) else CHANG_RADICAL)


def is_semisimple(algebra: Algebra) -> bool:
    """Every carrier but Chang, whose radical holds every lower(k).

    A finite carrier is a product of chains, each simple, so its maximal
    ideals meet in {0}; the rational interval and the rational function
    algebras are archimedean, hence semisimple too.
    """
    return not isinstance(algebra.carrier, Chang)


def verify_semisimple(algebra: Algebra) -> Verdict:
    """Semisimplicity; a failure names a nonzero element of the radical."""
    if is_semisimple(algebra):
        return Verdict("pass", [], {"checks": 1})
    return Verdict("fail", [{"radical-element": core.lower(algebra, 1)}], {"checks": 1})


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


class QuotientResult(_Record):
    algebra: Algebra
    project: Callable[[Element], Element]


def quotient(algebra: Algebra, i: Ideal) -> QuotientResult:
    """Quotient by a proper ideal: a ~ b iff their distance lies in it.

    A support S keeps the atoms off S.  The quotient of a chain-valued
    function algebra that keeps one atom is that atom's n-chain; a
    rational-valued one stays a function algebra.  Chang's radical
    quotient is the 1-chain of the classes modulo the radical.  The
    projection keeps an element's values at the kept atoms, its code's
    pairs (`core.ambient_element`).
    """
    if i.algebra != algebra:
        raise InputError("ideal does not belong to the algebra")
    if i.support == CHANG_ALL:
        raise InputError("cannot quotient by the improper ideal")
    if not i.support:
        return QuotientResult(algebra, lambda a: a)
    if i.support == CHANG_RADICAL:
        target, keep = core.finite_chain(1), (0,)
    else:
        carrier = algebra.carrier
        atoms, levels = carrier.shape  # a chain or the rational interval is one atom
        keep = tuple(x for x in range(atoms or 1) if x not in i.support)
        if not keep:
            raise InputError("cannot quotient by the improper ideal")
        if len(keep) == 1 and levels is not None:
            target = core.finite_chain(levels)
        else:
            target = core.function_algebra(tuple(carrier.atoms[x] for x in keep), carrier.value)

    def project(a: Element) -> Element:
        if a.algebra != algebra:
            raise InputError("element does not belong to the quotiented algebra")
        return core.ambient_element(a, target, keep)

    return QuotientResult(target, project)
