"""Document parsing and validation."""

import importlib
import json
import pkgutil
from fractions import Fraction as F
from pathlib import Path

import pytest

import mvprob as mv
from mvprob import core, documents, independence, rationals
from mvprob.errors import InputError

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name="basic.json"):
    return json.loads((FIXTURES / name).read_text())


class TestParsing:
    def test_full_fixture_parses(self):
        doc = documents.parse_document(load_fixture())
        assert doc.algebras["chain3"] == mv.finite_chain(3)
        assert doc.elements["half"].payload == F(1, 2)
        assert doc.measures["mu"].weights == (F(1, 2), F(1, 2))
        assert doc.states["sc"].measure is None
        assert doc.moments["leb"] == (F(1), F(1, 2), F(1, 3), F(1, 4))
        assert doc.bilinear["gbeta"].kind == "beta"

    def test_table_algebra_round_trips_names(self):
        doc = documents.parse_document(load_fixture())
        table = doc.algebras["mod4"]
        assert table.names == ("0", "a", "b", "1")
        assert table.oplus_table[1][2] == 3

    def test_decimal_literals_rejected(self):
        raw = {"measures": {"m": {"atoms": ["x"], "weights": ["0.5"]}}}
        with pytest.raises(InputError):
            documents.parse_document(raw)

    def test_unknown_reference_rejected(self):
        raw = {"states": {"s": {"algebra": "nope", "rule": "identity"}}}
        with pytest.raises(InputError):
            documents.parse_document(raw)

    def test_unknown_section_rejected(self):
        with pytest.raises(InputError):
            documents.parse_document({"spells": {}})

    def test_version_gate(self):
        with pytest.raises(InputError):
            documents.parse_document({"version": "99"})

    def test_unnormalized_measure_rejected(self):
        raw = {"measures": {"m": {"atoms": ["x", "y"], "weights": ["1/2", "1/3"]}}}
        with pytest.raises(InputError):
            documents.parse_document(raw)

    def test_chain_level_mismatch_rejected(self):
        raw = {
            "algebras": {"c": {"kind": "chain", "n": 2}},
            "elements": {"e": {"algebra": "c", "value": "1/3"}},
        }
        with pytest.raises(InputError):
            documents.parse_document(raw)

    def test_table_state_keys_use_element_text(self):
        raw = {
            "algebras": {"b": {"kind": "function", "atoms": ["x"], "value": 1}},
            "states": {
                "s": {
                    "algebra": "b",
                    "rule": "table",
                    "values": {"(0)": "0", "(1)": "1"},
                }
            },
        }
        doc = documents.parse_document(raw)
        one = mv.one(doc.algebras["b"])
        assert mv.eval_state(doc.states["s"], one) == 1

    def test_table_state_keys_naming_one_element_rejected(self):
        raw = {
            "algebras": {"b": {"kind": "function", "atoms": ["x"], "value": 2}},
            "states": {
                "s": {
                    "algebra": "b",
                    "rule": "table",
                    "values": {"(0)": "0", "(1/2)": "1/2", "(1)": "1", "(2/4)": "1/3"},
                }
            },
        }
        with pytest.raises(
            InputError, match=r"^states\.s: keys '\(1/2\)' and '\(2/4\)' name the same element$"
        ):
            documents.parse_document(raw)

    def test_table_bilinear_keys_naming_one_pair_rejected(self):
        raw = {
            "algebras": {"c1": {"kind": "chain", "n": 1}},
            "states": {"s1": {"algebra": "c1", "rule": "table", "values": {"0": "0", "1": "1"}}},
            "bilinear": {
                "g": {
                    "kind": "table", "left": "s1", "right": "s1", "codomain": "s1",
                    "entries": {"0;0": "0", "0;1": "0", "1;0": "0", "1;1": "1", "1;2/2": "0"},
                }
            },
        }
        with pytest.raises(
            InputError, match=r"^bilinear\.g: keys '1;1' and '1;2/2' name the same pair$"
        ):
            documents.parse_document(raw)

    def test_identity_rule_on_a_chain(self):
        # k/n |-> k/n is the n-chain's only state
        raw = {
            "algebras": {"c": {"kind": "chain", "n": 3}},
            "states": {"s": {"algebra": "c", "rule": "identity"}},
        }
        doc = documents.parse_document(raw)
        chain = doc.algebras["c"]
        assert doc.states["s"] == mv.identity_state(chain)
        for e in mv.core.enumerate_carrier(chain):
            assert mv.eval_state(doc.states["s"], e) == e.payload


class TestRoundTrip:
    def test_table_bilinear_round_trip(self):
        raw = {
            "algebras": {"c1": {"kind": "chain", "n": 1}},
            "states": {
                "s1": {
                    "algebra": "c1",
                    "rule": "table",
                    "values": {"0": "0", "1": "1"},
                }
            },
            "bilinear": {
                "g": {
                    "kind": "table",
                    "left": "s1",
                    "right": "s1",
                    "codomain": "s1",
                    "bound": 1,
                    "entries": {
                        "0;0": "0",
                        "0;1": "0",
                        "1;0": "0",
                        "1;1": "1",
                    },
                }
            },
        }
        spec = documents.parse_document(raw).bilinear["g"]
        assert (spec.kind, spec.left, spec.right, spec.codomain, spec.bound) == (
            "table", "s1", "s1", "s1", 1
        )
        chain = mv.finite_chain(1)
        assert dict(spec.entries) == {  # keyed by the arguments' codes
            ((0, 1), (0, 1)): mv.zero(chain), ((0, 1), (1, 1)): mv.zero(chain),
            ((1, 1), (0, 1)): mv.zero(chain), ((1, 1), (1, 1)): mv.one(chain),
        }

    def test_a_table_map_checks_each_key_element_and_value_once(self, monkeypatch):
        # 9 entries on the 2-chain: 18 key elements and 9 values, none checked again
        # when the map is built from the parsed entries
        calls, coerce = [], core._coerce
        monkeypatch.setattr(core, "_coerce", lambda *args: calls.append(args) or coerce(*args))
        levels = ("0", "2/4", "1")
        raw = {
            "algebras": {"c": {"kind": "chain", "n": 2}},
            "states": {"s": {"algebra": "c", "rule": "identity"}},
            "bilinear": {
                "g": {
                    "kind": "table", "left": "s", "right": "s", "codomain": "s", "bound": 1,
                    "entries": {f"{a};{b}": "0" for a in levels for b in levels},
                }
            },
        }
        doc = documents.parse_document(raw)
        s, spec = doc.states["s"], doc.bilinear["g"]
        space = mv.product_space(s, s)
        gamma = independence.table_bilinear(space, s, spec.entries, spec.bound)
        assert len(calls) == 18 + 9
        assert gamma.table == ((mv.zero(s.algebra),) * 3,) * 3


# 41 literals: 2 weights, 3 element values, 6 + 12 + 4 in table-state keys and values,
# 12 in bilinear keys and values and 2 moments; the 3 table states have 4 atom weights
LITERALS, TABLE_ATOM_WEIGHTS = 41, 1 + 2 + 1
COUNTED = {
    "algebras": {
        "c": {"kind": "chain", "n": 2},
        "c1": {"kind": "chain", "n": 1},
        "b": {"kind": "function", "atoms": ["x", "y"], "value": 1},
    },
    "measures": {"m": {"atoms": ["x", "y"], "weights": ["1/3", "2/3"]}},
    "elements": {
        "h": {"algebra": "c", "value": "1/2"},
        "f": {"algebra": "b", "values": ["0", "1"]},
    },
    "states": {
        "sc": {"algebra": "c", "rule": "table", "values": {"0": "0", "1/2": "1/2", "1": "1"}},
        "sb": {
            "algebra": "b",
            "rule": "table",
            "values": {"(0,0)": "0", "(0,1)": "1/4", "(1,0)": "3/4", "(1,1)": "1"},
        },
        "s1": {"algebra": "c1", "rule": "table", "values": {"0": "0", "1": "1"}},
        "sm": {"algebra": "b", "rule": "measure", "measure": "m"},
    },
    "moments": {"q": ["1", "1/2"]},
    "bilinear": {
        "g": {
            "kind": "table", "left": "s1", "right": "s1", "codomain": "s1",
            "entries": {"0;0": "0", "0;1": "0", "1;0": "0", "1;1": "1"},
        }
    },
}


def test_parsing_range_checks_each_literal_once(monkeypatch):
    # every module that binds `require_unit` calls the counting wrapper
    calls, check = [], rationals.require_unit
    counted = lambda value: calls.append(value) or check(value)
    package = [importlib.import_module(f"mvprob.{m.name}") for m in pkgutil.iter_modules(mv.__path__)]
    for module in package:
        if getattr(module, "require_unit", None) is check:
            monkeypatch.setattr(module, "require_unit", counted)
    doc = documents.parse_document(COUNTED)
    assert len(calls) == LITERALS + TABLE_ATOM_WEIGHTS
    assert sorted(doc.states["sb"].measure.weights) == [F(1, 4), F(3, 4)]
