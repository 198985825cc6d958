"""Axiom verification with counterexample search.

The laws are written once against a value set plus the primitive
operations.  Exhaustive sweeps run on operation tables, so a finite
carrier is first compiled by `core.compile_table` and runs through the
same code as the explicit-table fixtures, associativity by table rows;
sampled sweeps of an algebra run on its draws' codes, the form an `Element` holds,
through `core.payload_ops`, the arithmetic of the `Element` ops.  Corrupted operation tables are how
negative controls enter: enumeration or sampling finds a witness tuple
naming the violated law.  Each law is one `verdict.sweep` stage under
the one counter ``checks``.
"""

from __future__ import annotations

import itertools
import operator
from random import Random
from typing import Optional, Union

from . import core
from .core import LEVELS, Algebra, TableAlgebra, seeded
from .errors import InputError
from .rationals import _below, format_rational
from .verdict import Verdict, sweep

AxiomTarget = Union[Algebra, TableAlgebra]
_UNIT = core._ValueOps(None)  # the interval's op set: its draw is `random_unit`'s, as (x, d)


# defined here, not re-exported, so a per-module trace counts these draws under axioms
def random_element(rng: Random, ops):
    """One seeded draw of an axiom sweep: the code of the op set's ``draw``."""
    return ops.draw(rng)


# ---------------------------------------------------------------------------
# The individual laws
# ---------------------------------------------------------------------------
#
# Each law is (name, arity, scalar arity, predicate); predicates receive
# the op set (a table or a payload op set), the element tuple (indices or
# codes), and the scalar tuple: integer pairs (x, d) for x/d in [0, 1],
# combined in integers, never through the op set, and reduced by ``scalar``.


def _law_assoc(ops, e, _):
    a, b, c = e
    return ops.oplus(a, ops.oplus(b, c)) == ops.oplus(ops.oplus(a, b), c)


def _law_comm(ops, e, _):
    a, b = e
    return ops.oplus(a, b) == ops.oplus(b, a)


def _law_neutral(ops, e, _):
    (a,) = e
    return ops.oplus(a, ops.zero) == a


def _law_involution(ops, e, _):
    (a,) = e
    return ops.neg(ops.neg(a)) == a


def _law_absorb(ops, e, _):
    (a,) = e
    return ops.oplus(a, ops.one) == ops.one


def _law_characteristic(ops, e, _):
    # the last MV axiom, not(not a + b) + b symmetric in a and b: the join term commutes
    a, b = e
    return ops.join(a, b) == ops.join(b, a)


def _law_pmv1(ops, e, _):
    c, a, b = e
    m = ops.meet(a, b)
    lhs = ops.prod(c, ops.odot(a, ops.neg(m)))
    rhs = ops.odot(ops.prod(c, a), ops.neg(ops.prod(c, m)))
    return lhs == rhs


def _law_pmv2(ops, e, _):
    c, a, b = e
    m = ops.meet(a, b)
    lhs = ops.prod(ops.odot(a, ops.neg(m)), c)
    rhs = ops.odot(ops.prod(a, c), ops.neg(ops.prod(m, c)))
    return lhs == rhs


def _law_pmv3(ops, e, _):
    a, b, c = e
    return ops.prod(a, ops.prod(b, c)) == ops.prod(ops.prod(a, b), c)


def _law_f_property(ops, e, _):
    a, b, c = e
    if ops.meet(a, b) != ops.zero:
        return True
    return (
        ops.meet(ops.prod(a, c), b) == ops.zero
        and ops.meet(ops.prod(c, a), b) == ops.zero
    )


def _law_rmv1(ops, e, s):
    a, b = e
    (alpha,) = s
    lhs = ops.scalar(alpha, ops.odot(a, ops.neg(b)))
    rhs = ops.odot(ops.scalar(alpha, a), ops.neg(ops.scalar(alpha, b)))
    return lhs == rhs


def _law_rmv2(ops, e, s):
    (a,) = e
    alpha, beta = (x, d), (y, f) = s
    lhs = ops.scalar((max(0, x * f - y * d), d * f), a)  # alpha - beta, truncated at 0
    rhs = ops.odot(ops.scalar(alpha, a), ops.neg(ops.scalar(beta, a)))
    return lhs == rhs


def _law_rmv3(ops, e, s):
    (a,) = e
    alpha, beta = (x, d), (y, f) = s
    return ops.scalar(alpha, ops.scalar(beta, a)) == ops.scalar((x * y, d * f), a)


def _law_rmv4(ops, e, _):
    (a,) = e
    return ops.scalar((1, 1), a) == a


def _law_compat(ops, e, s):
    a, b = e
    (alpha,) = s
    scaled = ops.scalar(alpha, ops.prod(a, b))
    return scaled == ops.prod(ops.scalar(alpha, a), b) and scaled == ops.prod(
        a, ops.scalar(alpha, b)
    )


_MV_LAWS = [
    ("oplus-associativity", 3, 0, _law_assoc),
    ("oplus-commutativity", 2, 0, _law_comm),
    ("zero-neutral", 1, 0, _law_neutral),
    ("involution", 1, 0, _law_involution),
    ("one-absorbing", 1, 0, _law_absorb),
    ("characteristic-identity", 2, 0, _law_characteristic),
]

_PMV_LAWS = [
    ("product-left-distribution", 3, 0, _law_pmv1),
    ("product-right-distribution", 3, 0, _law_pmv2),
    ("product-associativity", 3, 0, _law_pmv3),
    ("f-property", 3, 0, _law_f_property),
]

_RMV_LAWS = [
    ("scalar-odot-homogeneity", 2, 1, _law_rmv1),
    ("scalar-difference", 1, 2, _law_rmv2),
    ("scalar-composition", 1, 2, _law_rmv3),
    ("scalar-unit", 1, 0, _law_rmv4),
]

_FMV_LAWS = [
    ("scalar-product-compatibility", 2, 1, _law_compat),
]


# the associativity laws and the table each reads: exhaustive sweeps run them by rows
_ASSOCIATIVE = {_law_assoc: "oplus_table", _law_pmv3: "prod_table"}


def _laws_for(level: str, target: AxiomTarget) -> list:
    if level not in LEVELS:
        raise InputError(f"unknown level {level!r}; expected one of {LEVELS}")
    if isinstance(target, TableAlgebra):
        has_prod, has_scalar = target.prod_table is not None, False
    else:
        has_prod, has_scalar = target.internal_product, target.scalar_action
    laws = list(_MV_LAWS)
    if level in ("PMV", "fMV"):
        if not has_prod:
            raise InputError(f"level {level} needs an internal product")
        laws += _PMV_LAWS
    if level in ("RMV", "fMV"):
        if not has_scalar:
            raise InputError(f"level {level} needs a scalar action")
        laws += _RMV_LAWS
    if level == "fMV":
        laws += _FMV_LAWS
    return laws


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _failures(ops, name, law, cases, describe):
    """(position, witness) of each case in ``cases`` that breaks ``law``, lazily."""
    for position, (elems, scalars) in enumerate(cases):
        if not law(ops, elems, scalars):
            witness = [*map(describe, elems), *(format_rational(_UNIT.decode(s)) for s in scalars)]
            yield position, {"axiom": name, "elements": witness}


def _associativity_failures(table, name, describe):
    """`_failures` of associativity on ``table``, by rows: c -> a(bc) is ``get[b](table[a])``
    and c -> (ab)c is ``table[ab]``; only rows that differ are scanned for the failing c.
    (On one element the itemgetter returns no tuple, so the one triple is always scanned.)"""
    table = tuple(map(tuple, table))
    get, n = [operator.itemgetter(*row) for row in table], len(table)
    for a, row in enumerate(table):
        for b, (after, ab) in enumerate(zip(get, row)):
            if after(row) != table[ab]:
                for c, (bc, right) in enumerate(zip(table[b], table[ab])):
                    if row[bc] != right:
                        witness = [describe(a), describe(b), describe(c)]
                        yield (a * n + b) * n + c, {"axiom": name, "elements": witness}


def check_axioms(
    target: AxiomTarget,
    level: str = "MV",
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Verdict:
    """Verify the laws of ``level`` on ``target``, one `verdict.sweep` stage per law.

    With ``samples`` None every element tuple is enumerated (finite
    carriers only, no seed) on the operation tables, compiled by
    `core.compile_table` for a finite algebra; otherwise ``samples``
    seeded random tuples are drawn, which is also the only way to
    quantify over scalars: a case draws three elements, then two scalars,
    `random_unit`'s draws as the interval's encoded pairs (x, d).  The first
    violated law is reported with the element texts (then the scalars x/d)
    that broke it.  Exhaustive associativity, of ``oplus`` and of the
    product, runs by rows with the per-triple counts.
    """
    laws = _laws_for(level, target)
    # only infinite carriers have scalars, so this also refuses scalar levels
    if samples is None and isinstance(target, Algebra):
        if not core.is_finite(target):
            raise InputError("exhaustive mode needs a finite carrier; use sample mode")
        target = core.compile_table(target)
    if isinstance(target, TableAlgebra):
        ops, describe = target, target.names.__getitem__
        draw = lambda rng: _below(rng, len(target.names))
    else:
        ops = core.payload_ops(target)
        describe = lambda x: core.format_payload(ops.decode(x))
        draw = lambda rng: random_element(rng, ops)

    if samples is None:
        seed, elements = None, range(len(target.names))

        def cases_of(arity: int, _scalar_arity: int):
            cases = ((t, ()) for t in itertools.product(elements, repeat=arity))
            return len(elements) ** arity, cases

    else:
        rng = seeded(seed, samples)
        pool = [
            (tuple(draw(rng) for _ in range(3)), (_UNIT.draw(rng), _UNIT.draw(rng)))
            for _ in range(samples)
        ]

        def cases_of(arity: int, scalar_arity: int):
            return samples, ((t[:arity], s[:scalar_arity]) for t, s in pool)

    stages = []
    for name, arity, scalar_arity, law in laws:
        size, cases = cases_of(arity, scalar_arity)
        if samples is None and law in _ASSOCIATIVE:
            failures = _associativity_failures(getattr(target, _ASSOCIATIVE[law]), name, describe)
        else:
            failures = _failures(ops, name, law, cases, describe)
        stages.append(("checks", size, failures))
    return sweep(stages, seed)
