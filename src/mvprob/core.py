"""Carriers and the many-valued algebra operations.

Four carriers are supported:

* ``StandardUnit`` -- the rational unit interval with truncated addition,
* ``FiniteChain(n)`` -- the chain {0, 1/n, ..., 1},
* ``FunctionAlgebra`` -- functions from a finite atom set into one of the
  two carriers above, with pointwise operations,
* ``Chang`` -- the algebra of infinitesimals k*eps and co-infinitesimals
  1 - k*eps, the standard example with a nonzero radical.

Every carrier but Chang has a `Shape` (atoms, levels): the atom count, ``None``
for one-value payloads, and the n of the n-chain's levels, ``None`` for rational
values.  Code reads it to tell carriers apart; only Chang is told by its type.
`element` checks a payload, or parses an element text, the one grammar of
documents and library callers: ``element(A, format_element(e)) == e``.

An algebra has one of three op sets (``algebra.ops``), all on plain integer
codes: a value of the interval or a chain is a coprime pair ``(x, d)``, a
function a tuple of those pairs mapped over its atoms, and a Chang pair
``(0, k)`` or ``(1, k)``.  Each has ``text``, the element text of a code,
``decode`` to `Fraction`s or a `ChangPair`, a seeded ``draw``, truncated addition,
the involution, and the product and scalar action where they exist; the derived
ops are term definitions, written once for the op sets and `TableAlgebra`.
An `Element` holds its value as its code, which the checked constructor parses
to once and the `Element` ops, `compile_table` and every sweep read; only this
module decodes.
All values are exact rationals and every operation is a pure function on
immutable data: elements can be shared freely between threads.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd
from random import Random
from typing import Optional, Sequence, Union

from .errors import InputError, UnsupportedCarrierError
from .rationals import (
    MAX_DRAW_DENOMINATOR, _below, as_pair, format_rational, parse_rational, require_unit,
)

# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_RECORD_METHODS = """\
def __init__(self{params}):
    pass{sets}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""


class _Record:
    """A frozen record, as ``@dataclass(frozen=True)`` made one, without the cost of
    `dataclasses` in every CLI process: importing it loads `inspect`.

    The fields are the subclass's own annotations, in order, and its class-level
    values are their defaults; ``__init__`` sets them with ``object.__setattr__``
    (writing ``__dict__`` would give up CPython's inline attribute layout), then
    calls ``__post_init__`` if the class has one.  Records are equal only within
    one class, hash as their field tuple and repr as the dataclass did.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        sets = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        if hasattr(cls, "__post_init__"):
            sets += "\n    self.__post_init__()"
        namespace = {"_set": object.__setattr__, "_cls": cls}
        exec(_RECORD_METHODS.format(
            params="".join(f", {f}=_cls.{f}" if f in cls.__dict__ else f", {f}" for f in fields),
            sets=sets,
            mine="".join(f"self.{f}, " for f in fields),
            theirs="".join(f"other.{f}, " for f in fields),
        ), namespace)
        for method in ("__init__", "__eq__", "__hash__"):
            setattr(cls, method, namespace[method])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


class StandardUnit(_Record):
    """The rational unit interval [0, 1]."""

    shape = (None, None)


class FiniteChain(_Record):
    """The (n+1)-element chain {0, 1/n, ..., n/n}."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise InputError("chain parameter must be an integer >= 1")

    @property
    def shape(self) -> Shape:
        return None, self.n


class FunctionAlgebra(_Record):
    """Functions from named atoms into a value carrier, pointwise ops."""

    atoms: tuple[str, ...]
    value: Union[StandardUnit, FiniteChain]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise InputError("function algebra needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise InputError(f"duplicate atom names in {self.atoms}")
        if not isinstance(self.value, (StandardUnit, FiniteChain)):
            raise InputError("value carrier must be StandardUnit or FiniteChain")

    @property
    def shape(self) -> Shape:
        return len(self.atoms), self.value.shape[1]


class Chang(_Record):
    """Lower elements k*eps and upper elements 1 - k*eps."""


Carrier = Union[StandardUnit, FiniteChain, FunctionAlgebra, Chang]
Shape = tuple[Optional[int], Optional[int]]  # (atoms, levels)

LOWER = "lower"
UPPER = "upper"


class ChangPair(_Record):
    """Chang payload: ``lower k`` is k*eps, ``upper k`` is 1 - k*eps."""

    side: str
    k: int

    def __post_init__(self) -> None:
        if self.side not in (LOWER, UPPER):
            raise InputError(f"Chang side must be 'lower' or 'upper', got {self.side!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0:
            raise InputError("Chang index must be a natural number")


Payload = Union[Fraction, tuple[Fraction, ...], ChangPair]


def _shape(carrier) -> Shape:
    """The carrier's `Shape`; Chang and objects that are no carrier have none."""
    shape = getattr(carrier, "shape", None)
    if shape is None:
        raise UnsupportedCarrierError(f"carrier {carrier!r} has no (atoms, levels) shape")
    return shape


def _product_closed(carrier: Carrier) -> bool:
    # pointwise multiplication leaves the carrier iff the values do
    return not isinstance(carrier, Chang) and _shape(carrier)[1] in (None, 1)


def _divisible(carrier: Carrier) -> bool:
    return not isinstance(carrier, Chang) and _shape(carrier)[1] is None


# the signature levels a law check names; an algebra's flags decide which it has
LEVELS = ("MV", "PMV", "RMV", "fMV")


class Algebra(_Record):
    """A carrier together with its signature flags."""

    carrier: Carrier
    internal_product: bool = False
    scalar_action: bool = False

    def __post_init__(self) -> None:
        if self.internal_product and not _product_closed(self.carrier):
            raise InputError(f"carrier {self.carrier} does not close under products")
        if self.scalar_action and not _divisible(self.carrier):
            raise InputError(f"carrier {self.carrier} is not divisible")

    @functools.cached_property
    def ops(self) -> _TermOps:
        """The op set of the codes, with its ``zero`` and ``one`` codes, built once.
        Its ``prod`` and ``scalar`` exist where the carrier can have them: the flags say
        whether the signature does."""
        if isinstance(self.carrier, Chang):
            return _CHANG_OPS
        atoms, levels = _shape(self.carrier)
        return _ValueOps(levels) if atoms is None else _PointwiseOps(_ValueOps(levels), atoms)


def standard_unit() -> Algebra:
    return Algebra(StandardUnit(), internal_product=True, scalar_action=True)


def finite_chain(n: int) -> Algebra:
    carrier = FiniteChain(n)
    return Algebra(carrier, internal_product=_product_closed(carrier))


def function_algebra(
    atoms: Sequence[str],
    value: Union[StandardUnit, FiniteChain, None] = None,
    internal_product: Optional[bool] = None,
    scalar_action: Optional[bool] = None,
) -> Algebra:
    """Build a function algebra; flags default to everything the carrier permits."""
    carrier = FunctionAlgebra(tuple(atoms), StandardUnit() if value is None else value)
    if internal_product is None:
        internal_product = _product_closed(carrier)
    if scalar_action is None:
        scalar_action = _divisible(carrier)
    return Algebra(carrier, internal_product=internal_product, scalar_action=scalar_action)


def chang() -> Algebra:
    return Algebra(Chang())


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


def _coerce_value(levels: Optional[int], raw) -> tuple[int, int]:
    if isinstance(raw, str):
        value = require_unit(parse_rational(raw))
    else:
        value = require_unit(Fraction(raw) if isinstance(raw, int) else raw)
    if levels is not None and levels % value.denominator:  # value * levels is no integer
        raise InputError(f"{value} is not a level of the {levels}-chain")
    return as_pair(value)


def _coerce(carrier: Carrier, raw) -> tuple:
    """The code of ``raw``, a payload or the element text an op set's ``text`` prints: ``p/q``
    on the interval and chains, ``(p/q,...)`` on function algebras and ``lower(k)``/``upper(k)``
    on Chang."""
    if isinstance(carrier, Chang):
        if isinstance(raw, str):
            for code, side in enumerate((LOWER, UPPER)):
                index = raw[len(side) + 1 : -1]
                if raw == f"{side}({index})" and index.isascii() and index.isdigit():
                    return code, parse_rational(index).numerator
            raise InputError(f"Chang elements look like lower(k)/upper(k), got {raw!r}")
        if not isinstance(raw, ChangPair):
            raise InputError("Chang elements are ChangPair payloads")
        return (0 if raw.side == LOWER else 1), raw.k
    atoms, levels = _shape(carrier)
    if atoms is None:
        return _coerce_value(levels, raw)
    if isinstance(raw, str):
        if not (raw.startswith("(") and raw.endswith(")")):
            raise InputError(f"function elements look like (p/q,...), got {raw!r}")
        raw = raw[1:-1].split(",")
    elif isinstance(raw, (Fraction, int, ChangPair)):
        raise InputError("function algebra elements need one value per atom")
    values = tuple([_coerce_value(levels, v) for v in raw])
    if len(values) != atoms:
        raise InputError(f"expected {atoms} values, got {len(values)}")
    return values


class Element(_Record):
    """A carrier-tagged value as its op set's ``code``: ``Element(algebra, raw)`` checks a
    payload or element text ``raw`` and stores its code (ops skip the check: `_trusted`)."""

    algebra: Algebra
    code: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "code", _coerce(self.algebra.carrier, self.code))

    @property
    def payload(self) -> Payload:  # the value as `Fraction`s, or a `ChangPair` on Chang
        return self.algebra.ops.decode(self.code)


def element(algebra: Algebra, payload) -> Element:
    """The checked element of ``payload``, a payload or its element text."""
    return Element(algebra, payload)


def format_element(e: Element) -> str:
    return e.algebra.ops.text(e.code)


def _trusted(algebra: Algebra, code) -> Element:
    """An element whose code lies in the carrier by construction, unchecked.

    Equality and hashing compare codes, so a code must be canonical, as `Element`
    stores it: coprime (x, d) with 0 <= x <= d per value, and (0, k) or (1, k), k >= 0,
    on Chang.  Only op results, constants, seeded draws, a finite carrier's
    enumeration and the ambient images of checked elements come through here, all
    canonical in [0, 1] and the chain levels; values from outside go through `Element`.
    """
    e = object.__new__(Element)
    object.__setattr__(e, "algebra", algebra)
    object.__setattr__(e, "code", code)
    return e


def zero(algebra: Algebra) -> Element:
    return _trusted(algebra, algebra.ops.zero)


def one(algebra: Algebra) -> Element:
    return _trusted(algebra, algebra.ops.one)


def indicator(algebra: Algebra, atom: str) -> Element:
    atoms = atoms_of(algebra)
    if atom not in atoms:
        raise InputError(f"unknown atom {atom!r}")
    return _trusted(algebra, tuple((1, 1) if a == atom else (0, 1) for a in atoms))


CHANG_SAMPLE_BOUND = 40  # draws take lower(k) and upper(k) for k up to this
# draws per sampled sweep; 10,000 fMV draws on [0, 1] take 0.27-0.46 s in process on a 2-vCPU Xeon
MAX_SAMPLES = 100_000


def seeded(seed: Optional[int], samples: int) -> Random:
    """The generator of a sweep of ``samples`` draws.

    No seed, a negative one, no draws or more than `MAX_SAMPLES` draws is refused.
    """
    if samples < 1:
        raise InputError("sample count must be positive")
    if samples > MAX_SAMPLES:
        raise InputError(f"sample count must be at most {MAX_SAMPLES}")
    if seed is None:
        raise InputError("this command samples; pass --seed")
    if seed < 0:  # Random(-s) draws what Random(s) draws
        raise InputError("seed must be non-negative")
    return Random(seed)


def random_element(rng: Random, algebra: Algebra) -> Element:
    """A seeded draw: the op set's ``draw``, a code, built unchecked."""
    return _trusted(algebra, algebra.ops.draw(rng))


def lower(algebra: Algebra, k: int) -> Element:
    return Element(algebra, ChangPair(LOWER, k))


def upper(algebra: Algebra, k: int) -> Element:
    return Element(algebra, ChangPair(UPPER, k))


def atoms_of(algebra: Algebra) -> tuple[str, ...]:
    if not isinstance(algebra.carrier, FunctionAlgebra):
        raise InputError("algebra has no atoms")
    return algebra.carrier.atoms


# ---------------------------------------------------------------------------
# Op sets and the Element operations that call them
# ---------------------------------------------------------------------------


class _TermOps:
    """The derived operations by their term definitions over ``oplus`` and
    ``neg`` (Cignoli, D'Ottaviano and Mundici 2000), written once: the
    op sets and `TableAlgebra` inherit them."""

    def odot(self, a, b):
        return self.neg(self.oplus(self.neg(a), self.neg(b)))

    def join(self, a, b):
        return self.oplus(self.neg(self.oplus(self.neg(a), b)), b)

    def meet(self, a, b):
        return self.neg(self.join(self.neg(a), self.neg(b)))

    def dist(self, a, b):
        return self.oplus(self.odot(a, self.neg(b)), self.odot(b, self.neg(a)))

    def leq(self, a, b):
        return self.oplus(self.neg(a), b) == self.one


class _ValueOps(_TermOps):
    """One-value codes of the interval or a chain, coprime ``(x, d)``: integers
    0 <= x <= d with gcd(x, d) == 1, so equal values have equal codes."""

    zero, one = (0, 1), (1, 1)

    def __init__(self, levels: Optional[int]):
        self.levels = levels

    def text(self, code) -> str:  # ``x`` or ``x/d``
        return format_rational(*code)

    def decode(self, code) -> Fraction:
        return Fraction(*code)

    def oplus(self, a, b):
        (x, d), (y, e) = a, b
        s, m = x * e + y * d, d * e
        if s >= m:
            return 1, 1
        g = gcd(s, m)
        return s // g, m // g

    def neg(self, a):
        return a[1] - a[0], a[1]

    def prod(self, a, b):
        x, d = a[0] * b[0], a[1] * b[1]
        g = gcd(x, d)
        return x // g, d // g

    def scalar(self, alpha, a):
        """alpha * a for a scalar pair ``alpha`` = (y, f), 0 <= y <= f, coprime or not."""
        x, d = alpha[0] * a[0], alpha[1] * a[1]
        g = gcd(x, d)
        return x // g, d // g

    def index(self, code) -> int:
        """The chain level of ``code``: x * (n // d)."""
        return code[0] * (self.levels // code[1])

    def draw(self, rng: Random):
        """`random_unit`'s draw, or a uniform chain level, as a code; the same `_below` calls."""
        d = self.levels or 1 + _below(rng, MAX_DRAW_DENOMINATOR)
        x = _below(rng, d + 1)
        g = gcd(x, d)
        return x // g, d // g


def _map1(op, a):
    return tuple(map(op, a))


def _map2(op, a, b):
    return tuple(map(op, a, b))


class _PointwiseOps(_TermOps):
    """Function-algebra codes: a tuple of `_ValueOps` codes, one per atom.
    Every op maps the value op over the atoms; the maps, by arity, bind the value ops once, here."""

    def __init__(self, value: _ValueOps, atoms: int):
        self.value, self.atoms = value, atoms
        self.zero, self.one = (value.zero,) * atoms, (value.one,) * atoms
        for op in ("decode", "neg", "oplus", "prod", "odot", "join", "meet", "dist"):
            mapped = _map1 if op in ("decode", "neg") else _map2
            setattr(self, op, functools.partial(mapped, getattr(value, op)))

    def text(self, code) -> str:
        return "(" + ",".join(map(self.value.text, code)) + ")"

    def scalar(self, alpha, a):
        return tuple([self.value.scalar(alpha, v) for v in a])

    def index(self, code) -> int:
        """The `rank` of a chain-valued code: its atoms' levels x * (n // d) in mixed
        radix n + 1."""
        position, n = 0, self.value.levels
        for x, d in code:
            position = position * (n + 1) + x * (n // d)
        return position

    def draw(self, rng: Random):
        return tuple([self.value.draw(rng) for _ in range(self.atoms)])


class _ChangOps(_TermOps):
    """Chang codes: ``(0, k)`` for lower(k) and ``(1, k)`` for upper(k)."""

    zero, one = (0, 0), (1, 0)

    def text(self, code) -> str:
        return f"{UPPER if code[0] else LOWER}({code[1]})"

    def decode(self, code) -> ChangPair:
        return ChangPair(UPPER if code[0] else LOWER, code[1])

    def oplus(self, x, y):
        # truncated sum in the lexicographic group Z x Z with unit (1, 0)
        (s, k), (t, j) = x, y
        if s == t:
            return (1, 0) if s else (0, k + j)
        return 1, max(j - k if t else k - j, 0)

    def neg(self, x):
        return 1 - x[0], x[1]

    def draw(self, rng: Random):
        return (0 if rng.random() < 0.5 else 1), _below(rng, CHANG_SAMPLE_BOUND + 1)


_CHANG_OPS = _ChangOps()


def _ops(a: Element, b: Element) -> _TermOps:
    """The op set of the one algebra of ``a`` and ``b``; the `Element` ops build their
    results from its codes unchecked."""
    if a.algebra != b.algebra:
        raise InputError(
            f"carrier mismatch: {a.algebra.carrier} vs {b.algebra.carrier}"
        )
    return a.algebra.ops


def oplus(a: Element, b: Element) -> Element:
    return _trusted(a.algebra, _ops(a, b).oplus(a.code, b.code))


def neg(a: Element) -> Element:
    return _trusted(a.algebra, a.algebra.ops.neg(a.code))


def odot(a: Element, b: Element) -> Element:
    return _trusted(a.algebra, _ops(a, b).odot(a.code, b.code))


def leq(a: Element, b: Element) -> bool:
    return _ops(a, b).leq(a.code, b.code)


def join(a: Element, b: Element) -> Element:
    return _trusted(a.algebra, _ops(a, b).join(a.code, b.code))


def meet(a: Element, b: Element) -> Element:
    return _trusted(a.algebra, _ops(a, b).meet(a.code, b.code))


def dist(a: Element, b: Element) -> Element:
    return _trusted(a.algebra, _ops(a, b).dist(a.code, b.code))


def partial_add(a: Element, b: Element) -> Optional[Element]:
    """Truncation-free sum; ``None`` marks the undefined case a > b*."""
    ops, x, y = _ops(a, b), a.code, b.code
    return _trusted(a.algebra, ops.oplus(x, y)) if ops.leq(x, ops.neg(y)) else None


def scalar_mul(alpha: Fraction, a: Element) -> Element:
    if not a.algebra.scalar_action:
        raise InputError("algebra has no scalar action")
    alpha = require_unit(alpha if isinstance(alpha, Fraction) else Fraction(alpha))
    return _trusted(a.algebra, a.algebra.ops.scalar(as_pair(alpha), a.code))


def prod(a: Element, b: Element) -> Element:
    ops = _ops(a, b)
    if not a.algebra.internal_product:
        raise InputError("algebra has no internal product")
    return _trusted(a.algebra, ops.prod(a.code, b.code))


# ---------------------------------------------------------------------------
# Carrier enumeration
# ---------------------------------------------------------------------------


def is_finite(algebra: Algebra) -> bool:
    return getattr(algebra.carrier, "shape", (None, None))[1] is not None


def enumerate_carrier(algebra: Algebra) -> list[Element]:
    """All elements of a finite carrier in lexicographic order, unchecked: reduced levels k/n."""
    if not is_finite(algebra):
        raise UnsupportedCarrierError(f"carrier {algebra.carrier} is not finite")
    atoms, n = algebra.carrier.shape
    levels = [(k // gcd(k, n), n // gcd(k, n)) for k in range(n + 1)]
    codes = levels if atoms is None else itertools.product(levels, repeat=atoms)
    return [_trusted(algebra, c) for c in codes]


class TableAlgebra(_Record, _TermOps):
    """A finite algebra as operation tables on indices, derived ops inherited.

    `compile_table` builds one from a carrier; a document may give one
    directly, and then nothing guarantees a law: `check_axioms` decides.
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

    @property
    def one(self) -> int:
        return self.neg_table[self.zero]

    def oplus(self, a: int, b: int) -> int:
        return self.oplus_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def prod(self, a: int, b: int) -> int:
        return self.prod_table[a][b]


def rank(e: Element) -> int:
    """The position of ``e`` in `enumerate_carrier`, by mixed radix."""
    if not is_finite(e.algebra):
        raise UnsupportedCarrierError(f"carrier {e.algebra.carrier} is not finite")
    return e.algebra.ops.index(e.code)


@functools.lru_cache(maxsize=8)
def compile_table(algebra: Algebra) -> TableAlgebra:
    """The tables of a finite algebra: index i is ``enumerate_carrier(algebra)[i]``.

    Every entry is the index of an ``algebra.ops`` result on the elements'
    codes, the arithmetic of the `Element` ops, so a sweep over the tables
    still checks it; building them costs n^2 integer code ops.
    The last few builds are kept, keyed on the frozen algebra value (the
    tables are immutable), so later sweeps of a carrier in one process
    reuse its build.
    """
    elements, ops = enumerate_carrier(algebra), algebra.ops
    codes, index = [e.code for e in elements], ops.index

    def table(op) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple([index(op(a, b)) for b in codes]) for a in codes)

    return TableAlgebra(
        tuple(map(ops.text, codes)),
        table(ops.oplus),
        tuple(index(ops.neg(a)) for a in codes),
        prod_table=table(ops.prod) if algebra.internal_product else None,
    )


CHANG_SWEEP_BOUND = 16  # deterministic slice of infinitesimal indices


def sweep_elements(algebra: Algebra) -> Optional[list[Element]]:
    """The elements a deterministic sweep covers, or ``None``.

    That is the whole carrier when it is finite, and lower(k), upper(k)
    for k up to `CHANG_SWEEP_BOUND` on the Chang algebra.
    """
    if is_finite(algebra):
        return enumerate_carrier(algebra)
    if isinstance(algebra.carrier, Chang):
        return [
            e
            for k in range(CHANG_SWEEP_BOUND + 1)
            for e in (lower(algebra, k), upper(algebra, k))
        ]
    return None


# ---------------------------------------------------------------------------
# Divisible ambient (shared by states, the representation and bilinear maps)
# ---------------------------------------------------------------------------

CHAIN_HULL_ATOM = "x0"


def divisible_ambient(algebra: Algebra) -> Algebra:
    """The rational function algebra a semisimple carrier embeds into.

    Chains and the standard algebra get a single synthetic atom;
    function algebras keep theirs.
    """
    if _shape(algebra.carrier)[0] is None:
        return function_algebra((CHAIN_HULL_ATOM,))
    return function_algebra(algebra.carrier.atoms)


def ambient_pairs(a: Element) -> tuple[tuple[int, int], ...]:
    """``a``'s values at the `divisible_ambient` atoms, as its coprime pairs (x, d).  On Chang
    the one value is ``a``'s class modulo the radical: 0 at lower(k), 1 at upper(k)."""
    code = a.code
    if isinstance(a.algebra.carrier, Chang):
        return ((code[0], 1),)
    return code if type(code[0]) is tuple else (code,)


def ambient_vector(a: Element) -> tuple[Fraction, ...]:  # `ambient_pairs` as `Fraction`s
    return tuple([Fraction(x, d) for x, d in ambient_pairs(a)])


def ambient_element(a: Element, target: Algebra, keep: Sequence[int]) -> Element:
    """``a``'s values at the `divisible_ambient` atoms ``keep``, in ``target``: the rational
    function algebra on them, or, for a quotient, one holding ``a``'s values, a chain when one
    atom is kept.  ``a``'s check covers the values."""
    pairs = ambient_pairs(a)
    code = tuple([pairs[x] for x in keep])
    return _trusted(target, code if _shape(target.carrier)[0] else code[0])


def atom_indicator_elements(algebra: Algebra) -> list[Element]:
    """Source elements whose ambient images are the atom indicators.

    They are the basis of the divisible ambient: every element there is
    f = sum_x f(x) * 1_x, so a rational-linear map off the ambient is
    fixed by its values at these elements.
    """
    if _shape(algebra.carrier)[0] is None:
        return [one(algebra)]
    return [indicator(algebra, atom) for atom in algebra.carrier.atoms]
