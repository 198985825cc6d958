"""The batch document format: named algebras, elements, measures, states,
moment sequences, and bilinear-map specifications.

One JSON-shaped structure serves every command.  Rational literals are
``p`` or ``p/q`` strings (decimals are rejected), and every reference is
resolved at load time.  Element values and element texts (table keys and
bilinear entries) go to `core.element` unparsed, and a table state's
values mapping to `states.table_state`, so each literal is parsed and
range-checked once, by the module that owns it.  Commands read documents
and never write one; `serialize_algebra` gives the document spec of an
algebra a report holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from . import core, states
from .core import (
    Algebra, Chang, ChangPair, Element, FiniteChain, FunctionAlgebra, StandardUnit, _Record,
)
from .errors import InputError
from .rationals import parse_rational, parse_unit
from .states import DiscreteMeasure, State

FORMAT_VERSION = "1"

AlgebraLike = Union[Algebra, core.TableAlgebra]


class BilinearSpec(_Record):
    """Declarative bilinear map; commands resolve it against live states."""

    kind: str  # "beta" | "state-product" | "left-scaling" | "table"
    left: str
    right: str
    codomain: Optional[str] = None
    bound: Optional[int] = None
    entries: tuple[tuple[tuple[core.Payload, core.Payload], Element], ...] = ()


class Document(_Record):
    version: str
    algebras: dict[str, AlgebraLike]
    elements: dict[str, Element]
    measures: dict[str, DiscreteMeasure]
    states: dict[str, State]
    moments: dict[str, tuple[Fraction, ...]]
    bilinear: dict[str, BilinearSpec]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# (what a field must be, the test); a null field counts as absent
_TEXT = ("a string", lambda v: isinstance(v, str))
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_FLAG = ("true or false", lambda v: isinstance(v, bool))
_MAPPING = ("a mapping", lambda v: isinstance(v, dict))
_TEXTS = ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
_ROWS = ("a list of lists of strings", lambda v: isinstance(v, list) and all(map(_TEXTS[1], v)))
_TEXT_VALUES = ("a mapping to strings", lambda v: _MAPPING[1](v) and _TEXTS[1](list(v.values())))
_REQUIRED = object()


def _field(raw: dict, key: str, where: str, kind, default=_REQUIRED):
    value = raw.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InputError(f"{where}: missing field {key!r}")
        return default
    if not kind[1](value):
        raise InputError(f"{where}.{key} must be {kind[0]}")
    return value


def _located(where: str, parse, *args):
    """``parse(*args)``, its input error prefixed with ``where``, the field it parses."""
    try:
        return parse(*args)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _section(raw: dict, key: str, kind=_MAPPING) -> dict:
    """A document section: a mapping from names to values of ``kind``."""
    section = _field(raw, key, "document", _MAPPING, {})
    for name, value in section.items():
        if not kind[1](value):
            raise InputError(f"{key}.{name} must be {kind[0]}")
    return section


def _parse_value_carrier(raw, where: str):
    if raw in (None, "standard"):
        return StandardUnit()
    if isinstance(raw, int):
        return FiniteChain(raw)
    raise InputError(f"{where}: value carrier must be 'standard' or a chain size")


def _parse_algebra(name: str, raw: dict) -> AlgebraLike:
    where = f"algebras.{name}"
    kind = _field(raw, "kind", where, _TEXT)
    if kind == "standard":
        return Algebra(
            StandardUnit(),
            internal_product=_field(raw, "product", where, _FLAG, True),
            scalar_action=_field(raw, "scalars", where, _FLAG, True),
        )
    if kind == "chain":
        n = _field(raw, "n", where, _INTEGER)
        carrier = FiniteChain(n)
        return Algebra(carrier, internal_product=_field(raw, "product", where, _FLAG, n == 1))
    if kind == "function":
        atoms = tuple(_field(raw, "atoms", where, _TEXTS))
        value = _parse_value_carrier(raw.get("value"), where)
        return core.function_algebra(
            atoms,
            value,
            internal_product=_field(raw, "product", where, _FLAG, None),
            scalar_action=_field(raw, "scalars", where, _FLAG, None),
        )
    if kind == "chang":
        return core.chang()
    if kind == "table":
        names = tuple(_field(raw, "elements", where, _TEXTS))
        index = {n: i for i, n in enumerate(names)}

        def resolve(entry: str) -> int:
            if entry not in index:
                raise InputError(f"{where}: unknown element {entry!r}")
            return index[entry]

        oplus = tuple(
            tuple(resolve(v) for v in row) for row in _field(raw, "oplus", where, _ROWS)
        )
        neg = tuple(resolve(v) for v in _field(raw, "neg", where, _TEXTS))
        prod = _field(raw, "prod", where, _ROWS, None)
        if prod is not None:
            prod = tuple(tuple(resolve(v) for v in row) for row in prod)
        zero = _field(raw, "zero", where, _TEXT, None)
        return core.TableAlgebra(
            names, oplus, neg, zero=0 if zero is None else resolve(zero), prod_table=prod
        )
    raise InputError(f"{where}: unknown kind {kind!r}")


def _parse_element(name: str, raw: dict, algebras: dict) -> Element:
    where = f"elements.{name}"
    algebra = _resolve_algebra(_field(raw, "algebra", where, _TEXT), algebras, where)
    carrier = algebra.carrier
    if isinstance(carrier, Chang):
        side = _field(raw, "side", where, _TEXT)
        return core.element(algebra, ChangPair(side, _field(raw, "k", where, _INTEGER)))
    if isinstance(carrier, FunctionAlgebra):
        return core.element(algebra, _field(raw, "values", where, _TEXTS))
    return core.element(algebra, _field(raw, "value", where, _TEXT))


def _resolve_algebra(name: str, algebras: dict, where: str) -> Algebra:
    if name not in algebras:
        raise InputError(f"{where}: unknown algebra {name!r}")
    algebra = algebras[name]
    if isinstance(algebra, core.TableAlgebra):
        raise InputError(f"{where}: table algebras only support axiom checks")
    return algebra


def _parse_measure(name: str, raw: dict) -> DiscreteMeasure:
    where = f"measures.{name}"
    atoms = tuple(_field(raw, "atoms", where, _TEXTS))
    weights = tuple(parse_rational(w) for w in _field(raw, "weights", where, _TEXTS))
    return DiscreteMeasure(atoms, weights)


def _parse_state(name: str, raw: dict, algebras: dict, measures: dict) -> State:
    where = f"states.{name}"
    algebra = _resolve_algebra(_field(raw, "algebra", where, _TEXT), algebras, where)
    rule = _field(raw, "rule", where, _TEXT)
    if rule == "measure":
        measure_name = _field(raw, "measure", where, _TEXT)
        if measure_name not in measures:
            raise InputError(f"{where}: unknown measure {measure_name!r}")
        return states.measure_state(algebra, measures[measure_name])
    if rule == "identity":
        return states.identity_state(algebra)
    if rule == "first-coordinate":
        return states.chang_state(algebra)
    if rule == "table":
        return _located(where, states.table_state, algebra, _field(raw, "values", where, _MAPPING))
    raise InputError(f"{where}: unknown rule {rule!r}")


def _parse_bilinear(name: str, raw: dict, doc_states: dict, algebras: dict) -> BilinearSpec:
    where = f"bilinear.{name}"
    kind = _field(raw, "kind", where, _TEXT)
    left = _field(raw, "left", where, _TEXT)
    right = _field(raw, "right", where, _TEXT)
    for ref in (left, right):
        if ref not in doc_states:
            raise InputError(f"{where}: unknown state {ref!r}")
    if kind in ("beta", "state-product", "left-scaling"):
        return BilinearSpec(kind, left, right)
    if kind == "table":
        codomain = _field(raw, "codomain", where, _TEXT)
        if codomain not in doc_states:
            raise InputError(f"{where}: unknown state {codomain!r}")
        left_algebra = doc_states[left].algebra
        right_algebra = doc_states[right].algebra
        cod_algebra = doc_states[codomain].algebra

        def pair(key: str) -> tuple[core.Payload, core.Payload]:
            try:
                a_text, b_text = key.split(";")
            except ValueError:
                raise InputError("entry keys look like '<a>;<b>'") from None
            a = core.element(left_algebra, a_text)
            return a.payload, core.element(right_algebra, b_text).payload

        entries = _located(
            where, states.keyed, _field(raw, "entries", where, _TEXT_VALUES), "pair", pair,
            lambda value: core.element(cod_algebra, value),
        )
        return BilinearSpec(
            kind,
            left,
            right,
            codomain,
            _field(raw, "bound", where, _INTEGER, None),
            tuple(sorted(entries.items(), key=lambda entry: repr(entry[0]))),
        )
    raise InputError(f"{where}: unknown kind {kind!r}")


def parse_document(raw: dict) -> Document:
    if not isinstance(raw, dict):
        raise InputError("document must be a mapping")
    version = raw.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported format version {version!r}")
    known = {"version", "algebras", "elements", "measures", "states", "moments", "bilinear"}
    for key in raw:
        if key not in known:
            raise InputError(f"unknown document section {key!r}")
    algebras = {
        name: _parse_algebra(name, spec) for name, spec in _section(raw, "algebras").items()
    }
    measures = {
        name: _parse_measure(name, spec) for name, spec in _section(raw, "measures").items()
    }
    elements = {
        name: _parse_element(name, spec, algebras)
        for name, spec in _section(raw, "elements").items()
    }
    doc_states = {
        name: _parse_state(name, spec, algebras, measures)
        for name, spec in _section(raw, "states").items()
    }
    moments = {
        name: tuple(parse_unit(v) for v in values)
        for name, values in _section(raw, "moments", _TEXTS).items()
    }
    bilinear = {
        name: _parse_bilinear(name, spec, doc_states, algebras)
        for name, spec in _section(raw, "bilinear").items()
    }
    return Document(version, algebras, elements, measures, doc_states, moments, bilinear)


# ---------------------------------------------------------------------------
# The report form of an algebra
# ---------------------------------------------------------------------------


def serialize_algebra(algebra: Algebra) -> dict:
    """The document spec of ``algebra``, as a report renders a quotient carrier."""
    carrier = algebra.carrier
    if isinstance(carrier, Chang):
        return {"kind": "chang"}
    atoms, n = carrier.shape
    flags = {"product": algebra.internal_product, "scalars": algebra.scalar_action}
    if atoms is not None:
        value = "standard" if n is None else n
        return {"kind": "function", "atoms": list(carrier.atoms), "value": value, **flags}
    if n is None:
        return {"kind": "standard", **flags}
    return {"kind": "chain", "n": n, "product": algebra.internal_product}
