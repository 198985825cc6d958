"""Axiom verification with counterexample search.

The checker treats its target abstractly (a value set plus the primitive
operations), so the stock carriers and explicit-table fixtures run
through the same code path.  Corrupted operation tables are how negative
controls enter: enumeration or sampling finds a witness tuple naming the
violated law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Union

from . import core
from .core import Algebra, Chang, ChangPair, Element, FunctionAlgebra, StandardUnit
from .errors import InputError
from .rationals import ZERO, format_rational, random_unit
from .verdict import Verdict

LEVELS = ("MV", "PMV", "RMV", "fMV")

DEFAULT_SAMPLE_COUNT = 10_000
CHANG_SAMPLE_BOUND = 40


# ---------------------------------------------------------------------------
# Explicit-table algebras (axiom fixtures)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableAlgebra:
    """A finite algebra given by explicit operation tables.

    Used for corrupted fixtures; nothing guarantees the tables satisfy
    any law, that is exactly what `check_axioms` decides.
    """

    names: tuple[str, ...]
    oplus_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    zero: int = 0
    prod_table: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        n = len(self.names)
        if n == 0 or len(set(self.names)) != n:
            raise InputError("table algebra needs distinct element names")
        for label, table in (("oplus", self.oplus_table), ("prod", self.prod_table)):
            if table is None:
                continue
            if len(table) != n or any(len(row) != n for row in table):
                raise InputError(f"{label} table must be {n}x{n}")
            if any(v < 0 or v >= n for row in table for v in row):
                raise InputError(f"{label} table has out-of-range entries")
        if len(self.neg_table) != n or any(v < 0 or v >= n for v in self.neg_table):
            raise InputError("neg table has out-of-range entries")
        if not 0 <= self.zero < n:
            raise InputError("zero index out of range")


AxiomTarget = Union[Algebra, TableAlgebra]


# ---------------------------------------------------------------------------
# Random elements
# ---------------------------------------------------------------------------


def random_element(
    rng: Random,
    algebra: Algebra,
    max_denominator: int = 60,
    chang_bound: int = CHANG_SAMPLE_BOUND,
) -> Element:
    carrier = algebra.carrier
    if isinstance(carrier, StandardUnit):
        return Element(algebra, random_unit(rng, max_denominator))
    if isinstance(carrier, core.FiniteChain):
        return Element(algebra, Fraction(rng.randint(0, carrier.n), carrier.n))
    if isinstance(carrier, FunctionAlgebra):
        if isinstance(carrier.value, core.FiniteChain):
            n = carrier.value.n
            values = tuple(
                Fraction(rng.randint(0, n), n) for _ in carrier.atoms
            )
        else:
            values = tuple(random_unit(rng, max_denominator) for _ in carrier.atoms)
        return Element(algebra, values)
    if isinstance(carrier, Chang):
        side = core.LOWER if rng.random() < 0.5 else core.UPPER
        return Element(algebra, ChangPair(side, rng.randint(0, chang_bound)))
    raise InputError(f"cannot sample from carrier {carrier!r}")


def seeded(seed: Optional[int]) -> Random:
    """The generator of a sampled sweep; sampling without a seed is refused."""
    if seed is None:
        raise InputError("this sweep samples an infinite carrier and needs a seed")
    return Random(seed)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Sample:
    count: int
    seed: int


Mode = Union[Exhaustive, Sample]


# ---------------------------------------------------------------------------
# Operation adapters
# ---------------------------------------------------------------------------


class _Ops:
    """Uniform view of an axiom target: opaque values plus operations."""

    def __init__(self, target: AxiomTarget):
        self.target = target
        if isinstance(target, TableAlgebra):
            self.zero = target.zero
            self.one = target.neg_table[target.zero]
            self.has_prod = target.prod_table is not None
            self.has_scalar = False
            self.elements: Optional[list] = list(range(len(target.names)))
        else:
            self.zero = core.zero(target)
            self.one = core.one(target)
            self.has_prod = target.internal_product
            self.has_scalar = target.scalar_action
            self.elements = (
                core.enumerate_carrier(target) if core.is_finite(target) else None
            )

    def oplus(self, a, b):
        if isinstance(self.target, TableAlgebra):
            return self.target.oplus_table[a][b]
        return core.oplus(a, b)

    def neg(self, a):
        if isinstance(self.target, TableAlgebra):
            return self.target.neg_table[a]
        return core.neg(a)

    def prod(self, a, b):
        if isinstance(self.target, TableAlgebra):
            return self.target.prod_table[a][b]
        return core.prod(a, b)

    def scalar(self, alpha, a):
        return core.scalar_mul(alpha, a)

    def odot(self, a, b):
        return self.neg(self.oplus(self.neg(a), self.neg(b)))

    def join(self, a, b):
        return self.oplus(self.neg(self.oplus(self.neg(a), b)), b)

    def meet(self, a, b):
        return self.neg(self.join(self.neg(a), self.neg(b)))

    def sample(self, rng: Random):
        if isinstance(self.target, TableAlgebra):
            return rng.randrange(len(self.target.names))
        return random_element(rng, self.target)

    def describe(self, a) -> str:
        if isinstance(self.target, TableAlgebra):
            return self.target.names[a]
        return core.format_element(a)


# ---------------------------------------------------------------------------
# The individual laws
# ---------------------------------------------------------------------------
#
# Each law is (name, arity, scalar arity, predicate); predicates receive
# the ops adapter, the element tuple, and the scalar tuple.


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
    a, b = e
    left = ops.oplus(ops.neg(ops.oplus(ops.neg(a), b)), b)
    right = ops.oplus(ops.neg(ops.oplus(ops.neg(b), a)), a)
    return left == right


def _law_pmv1(ops, e, _):
    c, a, b = e
    lhs = ops.prod(c, ops.odot(a, ops.neg(ops.meet(a, b))))
    rhs = ops.odot(ops.prod(c, a), ops.neg(ops.prod(c, ops.meet(a, b))))
    return lhs == rhs


def _law_pmv2(ops, e, _):
    c, a, b = e
    lhs = ops.prod(ops.odot(a, ops.neg(ops.meet(a, b))), c)
    rhs = ops.odot(ops.prod(a, c), ops.neg(ops.prod(ops.meet(a, b), c)))
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
    alpha, beta = s
    lhs = ops.scalar(max(ZERO, alpha - beta), a)
    rhs = ops.odot(ops.scalar(alpha, a), ops.neg(ops.scalar(beta, a)))
    return lhs == rhs


def _law_rmv3(ops, e, s):
    (a,) = e
    alpha, beta = s
    return ops.scalar(alpha, ops.scalar(beta, a)) == ops.scalar(alpha * beta, a)


def _law_rmv4(ops, e, _):
    (a,) = e
    return ops.scalar(Fraction(1), a) == a


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


def _laws_for(level: str, ops: _Ops) -> list:
    if level not in LEVELS:
        raise InputError(f"unknown level {level!r}; expected one of {LEVELS}")
    laws = list(_MV_LAWS)
    if level in ("PMV", "fMV"):
        if not ops.has_prod:
            raise InputError(f"level {level} needs an internal product")
        laws += _PMV_LAWS
    if level in ("RMV", "fMV"):
        if not ops.has_scalar:
            raise InputError(f"level {level} needs a scalar action")
        laws += _RMV_LAWS
    if level == "fMV":
        laws += _FMV_LAWS
    return laws


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def check_axioms(
    target: AxiomTarget, level: str = "MV", mode: Mode = Exhaustive()
) -> Verdict:
    """Verify the laws of ``level`` on ``target``.

    Exhaustive mode enumerates every element tuple (finite carriers
    only); sample mode draws seeded random tuples, which is also the
    only way to quantify over scalars.  The first violated law is
    reported with the element texts (then scalars) that broke it.
    """
    ops = _Ops(target)
    laws = _laws_for(level, ops)
    needs_scalars = any(s > 0 for _, _, s, _ in laws)

    if isinstance(mode, Exhaustive):
        if ops.elements is None:
            raise InputError("exhaustive mode needs a finite carrier; use sample mode")
        if needs_scalars:
            raise InputError(f"level {level} quantifies over scalars; use sample mode")
        seed = None

        def cases_of(arity: int, _scalar_arity: int):
            return (
                (t, ()) for t in itertools.product(ops.elements, repeat=arity)
            )

    elif isinstance(mode, Sample):
        if mode.count < 1:
            raise InputError("sample count must be positive")
        seed = mode.seed
        rng = Random(mode.seed)
        pool = [
            (
                tuple(ops.sample(rng) for _ in range(3)),
                (random_unit(rng), random_unit(rng)),
            )
            for _ in range(mode.count)
        ]

        def cases_of(arity: int, scalar_arity: int):
            return ((t[:arity], s[:scalar_arity]) for t, s in pool)

    else:
        raise InputError(f"unknown mode {mode!r}")

    checks = 0
    for name, arity, scalar_arity, law in laws:
        for elems, scalars in cases_of(arity, scalar_arity):
            checks += 1
            if not law(ops, elems, scalars):
                witness = [ops.describe(x) for x in elems] + [
                    format_rational(s) for s in scalars
                ]
                return Verdict(
                    "fail", [{"axiom": name, "elements": witness}], {"checks": checks}, seed
                )
    return Verdict("pass", [], {"checks": checks}, seed)
