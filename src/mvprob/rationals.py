"""Unit-interval rational helpers.

Every scalar and carrier value in the package is an exact
`fractions.Fraction` confined to [0, 1].  Fraction keeps numerator and
denominator coprime, so the canonical form comes for free; these
helpers add parsing (one regex match, then two ints), range checks on
the numerator and denominator, and bounded random sampling: every seeded
draw of the package is `_below`, ``Random.randrange`` without its frames.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from random import Random

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)
# default enclosure width 2**-64 of analysis's interval comparisons; defined
# here so the CLI parser reads it without importing analysis
DEFAULT_PRECISION = 64

MAX_DRAW_DENOMINATOR = 60  # of a `random_unit` draw; every seeded report depends on it

# integer or integer/positive-integer, nothing else (no decimals, spaces, `+` or newline)
_RATIONAL_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with q > 0: the value ``Fraction(text)`` gives, from two ints."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise InputError(f"not a rational literal: {text!r}")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError as exc:  # a term beyond the interpreter's int/str digit limit
        raise InputError(
            f"rational literal has a term of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def parse_unit(text: str) -> Fraction:
    """Parse a rational literal and require it to lie in [0, 1]."""
    return require_unit(parse_rational(text))


def require_unit(value: Fraction) -> Fraction:
    if not isinstance(value, Fraction):
        raise InputError(f"expected an exact rational, got {type(value).__name__}")
    if not 0 <= value.numerator <= value.denominator:  # the denominator is positive
        raise InputError(f"value {value} outside [0, 1]")
    return value


def format_rational(value: Fraction) -> str:
    """Render as ``p`` or ``p/q``, never as a decimal.

    A term beyond the interpreter's int/str digit limit is refused as an
    input error: the parameters that made it, such as a moment order,
    must be lowered.
    """
    try:
        return str(value)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"cannot render a rational with a term of more than {limit} digits") from exc


def over_lcm(values) -> tuple[tuple[int, ...], int]:
    """The numerators of ``values`` over d, the lcm of their denominators, and d."""
    d = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


as_pair = operator.attrgetter("numerator", "denominator")  # x / e as `weighted_sum`'s (x, e)


def weighted_sum(weights, pairs) -> tuple[int, int]:
    """(t, d) with t / d the sum of w * x / e over the integers ``weights`` and the
    ``pairs`` (x, e), e > 0, and d the product of the e: no `Fraction` on the way."""
    total, d = 0, 1
    for w, (x, e) in zip(weights, pairs):
        total, d = total * e + w * x * d, d * e
    return total, d


def _below(rng: Random, n: int) -> int:
    """``rng.randrange(n)`` for n > 0, draw for draw: CPython's getrandbits rejection loop,
    so ``lo + _below(rng, hi - lo + 1)`` is ``rng.randint(lo, hi)``."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_unit(rng: Random) -> Fraction:
    """Random rational in [0, 1] with denominator at most `MAX_DRAW_DENOMINATOR`."""
    q = 1 + _below(rng, MAX_DRAW_DENOMINATOR)
    return Fraction(_below(rng, q + 1), q)
