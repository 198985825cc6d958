"""The `Element` operations as written before the payload op sets.

Each primitive dispatches on its payload's type and builds its result
through the checked `mvprob.element`; each derived operation is its term
definition (Cignoli, D'Ottaviano and Mundici 2000) over these
primitives.  Nothing here calls an op set (`algebra.ops`), so the op sets, the
public `Element` ops and the compiled tables are checked against an
arithmetic they do not share.  `summable_pairs` reads a compiled table,
for the summable-pair sweeps the table-state and bilinear checks ran
before they were checked at their atom images.
"""

from fractions import Fraction

import mvprob as mv
from mvprob.core import ChangPair

ONE = Fraction(1)


def _chang_oplus(x: ChangPair, y: ChangPair) -> ChangPair:
    if x.side == "lower" and y.side == "lower":
        return ChangPair("lower", x.k + y.k)
    if x.side == "upper" and y.side == "upper":
        return ChangPair("upper", 0)
    low, up = (x, y) if x.side == "lower" else (y, x)
    return ChangPair("upper", max(up.k - low.k, 0))


def _same(a, b):
    if a.algebra != b.algebra:
        raise ValueError("carrier mismatch")
    return a.algebra


def oplus(a, b):
    algebra, pa, pb = _same(a, b), a.payload, b.payload
    if isinstance(pa, ChangPair):
        return mv.element(algebra, _chang_oplus(pa, pb))
    if isinstance(pa, tuple):
        return mv.element(algebra, tuple(min(x + y, ONE) for x, y in zip(pa, pb)))
    return mv.element(algebra, min(pa + pb, ONE))


def neg(a):
    p = a.payload
    if isinstance(p, ChangPair):
        return mv.element(a.algebra, ChangPair("upper" if p.side == "lower" else "lower", p.k))
    if isinstance(p, tuple):
        return mv.element(a.algebra, tuple(ONE - v for v in p))
    return mv.element(a.algebra, ONE - p)


def prod(a, b):
    algebra, pa, pb = _same(a, b), a.payload, b.payload
    if isinstance(pa, tuple):
        return mv.element(algebra, tuple(x * y for x, y in zip(pa, pb)))
    return mv.element(algebra, pa * pb)


def scalar_mul(alpha, a):
    p = a.payload
    if isinstance(p, tuple):
        return mv.element(a.algebra, tuple(alpha * v for v in p))
    return mv.element(a.algebra, alpha * p)


def zero(algebra):
    carrier = algebra.carrier
    if isinstance(carrier, mv.FunctionAlgebra):
        return mv.element(algebra, (Fraction(0),) * len(carrier.atoms))
    if isinstance(carrier, mv.Chang):
        return mv.element(algebra, ChangPair("lower", 0))
    return mv.element(algebra, Fraction(0))


def one(algebra):
    return neg(zero(algebra))


def odot(a, b):
    return neg(oplus(neg(a), neg(b)))


def join(a, b):
    return oplus(neg(oplus(neg(a), b)), b)


def meet(a, b):
    return neg(join(neg(a), neg(b)))


def dist(a, b):
    return oplus(odot(a, neg(b)), odot(b, neg(a)))


def summable_pairs(table):
    """Every index pair (a, b) of a `TableAlgebra`, in order, whose partial sum is defined:
    a <= neg(b)."""
    neg_table, one = table.neg_table, table.one
    for a in range(len(table.names)):
        row = table.oplus_table[neg_table[a]]
        for b in range(len(table.names)):
            if row[neg_table[b]] == one:
                yield a, b
