"""Compiled carriers against the core ops they are built from.

Every stock finite carrier of at most 25 elements is compiled, and each
table entry is checked against the core op on the enumerated elements,
so the index sweeps of the axiom and metric checkers see the same
algebra as the `Element` operations.  The derived operations a
table inherits are checked against the reference definitions of
`element_reference`.
"""

import collections
import contextlib
import io
import json
import sys

import pytest

import element_reference as reference
import mvprob as mv
from mvprob import cli, core, documents
from mvprob.axioms import check_axioms


def stock_carriers():
    for n in range(1, 25):
        yield pytest.param(mv.finite_chain(n), id=f"chain{n}")
    for n in range(1, 5):
        yield pytest.param(mv.function_algebra(("x", "y"), mv.FiniteChain(n)), id=f"2x{n}")
    for k in range(2, 5):
        atoms = tuple(f"b{i}" for i in range(k))
        yield pytest.param(mv.function_algebra(atoms, mv.FiniteChain(1)), id=f"boolean{k}")


CARRIERS = list(stock_carriers())


@pytest.mark.parametrize("algebra", CARRIERS)
def test_rank_inverts_enumeration(algebra):
    elements = core.enumerate_carrier(algebra)
    assert len(elements) <= 25
    assert [core.rank(e) for e in elements] == list(range(len(elements)))


@pytest.mark.parametrize("algebra", CARRIERS)
def test_every_table_entry_is_the_rank_of_the_core_op(algebra):
    elements = core.enumerate_carrier(algebra)
    table = core.compile_table(algebra)
    position = {e: i for i, e in enumerate(elements)}
    assert table.names == tuple(core.format_element(e) for e in elements)
    assert table.zero == position[core.zero(algebra)]
    assert table.one == position[core.one(algebra)]
    for i, a in enumerate(elements):
        assert table.neg_table[i] == position[core.neg(a)]
        for j, b in enumerate(elements):
            assert table.oplus_table[i][j] == position[core.oplus(a, b)]
            if algebra.internal_product:
                assert table.prod_table[i][j] == position[core.prod(a, b)]
    assert (table.prod_table is None) == (not algebra.internal_product)


def larger_carriers():
    for k, n in ((3, 2), (2, 8), (3, 3), (2, 13), (3, 4), (3, 5)):
        atoms = tuple(f"x{i}" for i in range(k))
        yield pytest.param(mv.function_algebra(atoms, mv.FiniteChain(n)), id=f"{k}x{n}")
    for k in range(5, 8):
        atoms = tuple(f"b{i}" for i in range(k))
        yield pytest.param(mv.function_algebra(atoms, mv.FiniteChain(1)), id=f"boolean{k}")
    yield pytest.param(mv.finite_chain(215), id="chain215")


@pytest.mark.parametrize("algebra", CARRIERS + list(larger_carriers()))
def test_integer_tables_are_the_fraction_tables(algebra):
    # the tables built on encoded payloads, against a build in Fraction
    # arithmetic through the reference ops, on carriers up to 216 elements;
    # a result's index is its enumeration position, not `core.rank`, which
    # shares the table build's digit arithmetic
    elements = core.enumerate_carrier(algebra)
    assert len(elements) <= 216
    table = core.compile_table(algebra)
    positions = {e.payload: i for i, e in enumerate(elements)}
    position = lambda e: positions[e.payload]

    def fraction_table(op):
        return tuple(tuple(position(op(a, b)) for b in elements) for a in elements)

    assert table.oplus_table == fraction_table(reference.oplus)
    assert table.neg_table == tuple(position(reference.neg(a)) for a in elements)
    if algebra.internal_product:
        assert table.prod_table == fraction_table(reference.prod)


@pytest.mark.parametrize("algebra", CARRIERS[:8] + [c for c in CARRIERS if c.id.startswith("2x")])
def test_inherited_derived_ops_are_the_ranks_of_the_reference_results(algebra):
    elements = core.enumerate_carrier(algebra)
    table = core.compile_table(algebra)
    indices = range(len(elements))
    for name in ("odot", "join", "meet", "dist"):
        op, expected = getattr(table, name), getattr(reference, name)
        assert [[op(i, j) for j in indices] for i in indices] == [
            [core.rank(expected(a, b)) for b in elements] for a in elements
        ], name


@pytest.mark.parametrize("algebra", CARRIERS)
def test_mv_laws_are_checked_on_every_tuple(algebra):
    n = len(core.enumerate_carrier(algebra))
    report = check_axioms(algebra, "MV")
    assert report.passed
    assert report.metrics == {"checks": n**3 + 2 * n**2 + 3 * n}
    if algebra.internal_product:
        assert check_axioms(algebra, "PMV").passed


@pytest.mark.parametrize("algebra", CARRIERS[:6] + CARRIERS[-7:])
def test_summable_pairs_are_the_defined_partial_sums(algebra):
    elements = core.enumerate_carrier(algebra)
    expected = [
        (i, j)
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if core.partial_add(a, b) is not None
    ]
    assert list(reference.summable_pairs(core.compile_table(algebra))) == expected


def test_rank_refuses_infinite_carriers():
    with pytest.raises(mv.UnsupportedCarrierError):
        core.rank(mv.one(mv.standard_unit()))


# two table states on distinct chains, a measure state and a beta map:
# parsing compiles no carrier, `state metric t` compiles the carrier it
# sweeps once, and `product factorize` checks the map at its atom images
# and compiles nothing
COMPILE_DOC = {
    "algebras": {
        "T": {"kind": "chain", "n": 9},
        "PA": {"kind": "function", "atoms": ["p0", "p1"], "value": 1},
        "PB": {"kind": "chain", "n": 4},
    },
    "measures": {"mu": {"atoms": ["p0", "p1"], "weights": ["1/3", "2/3"]}},
    "states": {
        "t": {"algebra": "T", "rule": "table",
              "values": {f"{k}/9": f"{k}/9" for k in range(10)}},
        "pa": {"algebra": "PA", "rule": "measure", "measure": "mu"},
        "pb": {"algebra": "PB", "rule": "table",
               "values": {f"{k}/4": f"{k}/4" for k in range(5)}},
    },
    "bilinear": {"gbeta": {"kind": "beta", "left": "pa", "right": "pb"}},
}


def counted_builds(monkeypatch) -> collections.Counter:
    """The `compile_table` builds from here on, by algebra, with the cache emptied."""
    builds = collections.Counter()
    enumerate_carrier = core.enumerate_carrier

    def counting(algebra):
        if sys._getframe(1).f_code.co_name == "compile_table":
            builds[algebra] += 1
        return enumerate_carrier(algebra)

    monkeypatch.setattr(core, "enumerate_carrier", counting)
    core.compile_table.cache_clear()
    return builds


def test_parsing_compiles_no_carrier(monkeypatch):
    builds = counted_builds(monkeypatch)
    document = documents.parse_document(COMPILE_DOC)
    assert sorted(document.states) == ["pa", "pb", "t"]
    assert builds == {}


@pytest.mark.parametrize(
    "argv, swept",
    [
        (("state", "@doc", "metric", "t"), [mv.finite_chain(9)]),
        (("--seed", "2", "product", "@doc", "factorize", "pa", "pb", "gbeta", "--samples", "5"), []),
    ],
    ids=["metric-t", "factorize-gbeta"],
)
def test_each_carrier_is_compiled_once_per_command(tmp_path, monkeypatch, argv, swept):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(COMPILE_DOC))
    builds = counted_builds(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(path) if a == "@doc" else a for a in argv])
    assert code == 0
    assert builds == {algebra: 1 for algebra in swept}
