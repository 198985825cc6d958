"""Ideals against a brute-force oracle and the enumerating reference, quotients."""

import contextlib
import functools
import io
import itertools
import json
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvprob as mv
from mvprob import cli, spectra
from mvprob.errors import InputError, UnsupportedCarrierError

C = mv.chang()
BOOL2 = mv.function_algebra(("p", "q"), mv.FiniteChain(1))


def brute_force_ideals(algebra):
    """Every subset satisfying the ideal laws; tiny carriers only.

    Operation tables are precomputed so the subset sweep is index
    arithmetic rather than element construction.
    """
    pool = mv.core.enumerate_carrier(algebra)
    size = len(pool)
    assert size <= 10
    index = {e.payload: i for i, e in enumerate(pool)}
    oplus = [[index[mv.oplus(a, b).payload] for b in pool] for a in pool]
    below = [[j for j, x in enumerate(pool) if mv.leq(x, a)] for a in pool]
    zero_index = index[mv.zero(algebra).payload]
    found = []
    for mask in range(1, 2**size):
        if not mask >> zero_index & 1:
            continue
        members = [i for i in range(size) if mask >> i & 1]
        closed = all(mask >> oplus[a][b] & 1 for a in members for b in members)
        lower_set = all(mask >> x & 1 for m in members for x in below[m])
        if closed and lower_set:
            found.append(frozenset(pool[i].payload for i in members))
    return sorted(found, key=lambda s: (len(s), sorted(repr(p) for p in s)))


def members(i):
    """The member payloads of ``i``, by `ideal_contains` over the carrier."""
    return frozenset(
        e.payload for e in mv.core.enumerate_carrier(i.algebra) if mv.ideal_contains(i, e)
    )


SMALL = [
    mv.finite_chain(1),
    mv.finite_chain(3),
    BOOL2,
    mv.function_algebra(("p", "q"), mv.FiniteChain(2)),
    mv.function_algebra(("p", "q", "r"), mv.FiniteChain(1)),
]


@pytest.mark.parametrize("algebra", SMALL)
def test_enumeration_matches_brute_force(algebra):
    expected = brute_force_ideals(algebra)
    actual = [members(i) for i in mv.ideals(algebra)]
    assert actual == expected


@pytest.mark.parametrize("algebra", SMALL)
def test_constructor_accepts_exactly_the_ideals(algebra):
    expected = {members(i): i for i in mv.ideals(algebra)}
    assert set(expected) == set(brute_force_ideals(algebra))
    pool = [e.payload for e in mv.core.enumerate_carrier(algebra)]
    zero, rest = pool[0], pool[1:]
    for mask in range(2 ** len(rest)):
        subset = [zero] + [p for j, p in enumerate(rest) if mask >> j & 1]
        if frozenset(subset) in expected:
            assert mv.ideal(algebra, subset) == expected[frozenset(subset)]
        else:
            with pytest.raises(InputError, match="not an ideal"):
                mv.ideal(algebra, subset)


class TestIdealExamples:
    def test_chain_ideals(self):
        algebra = mv.finite_chain(4)
        found = mv.ideals(algebra)
        assert len(found) == 2  # the zero ideal and the whole chain
        maximal = mv.maximal_ideals(algebra)
        assert len(maximal) == 1
        assert spectra.listing(maximal[0]) == ["0"]

    def test_boolean_square_has_two_maximal_ideals(self):
        assert len(mv.maximal_ideals(BOOL2)) == 2

    def test_chang_ideal_lattice(self):
        found = mv.ideals(C)
        assert len(found) == 3
        maximal = mv.maximal_ideals(C)
        assert len(maximal) == 1 and maximal[0].support == spectra.CHANG_RADICAL
        assert spectra.listing(found[0]) == ["lower(0)"]
        assert mv.ideal_contains(maximal[0], mv.lower(C, 123))
        assert not mv.ideal_contains(maximal[0], mv.upper(C, 123))

    def test_constructor_rejects_non_ideals(self):
        chain = mv.finite_chain(3)
        with pytest.raises(InputError):  # not closed under addition
            mv.ideal(chain, [F(0), F(1, 3)])
        with pytest.raises(InputError):  # not downward closed
            mv.ideal(BOOL2, [(F(0), F(0)), (F(1), F(1))])
        with pytest.raises(InputError):  # missing zero
            mv.ideal(chain, [F(1, 3)])

    def test_size_guard(self):
        # listing every ideal of the n-chain renders n + 2 member texts
        at_ceiling = mv.finite_chain(spectra.MAX_LISTED - 2)
        assert len(mv.ideals(at_ceiling)) == 2
        assert len(mv.ideals(mv.function_algebra(("a",), at_ceiling.carrier))) == 2
        with pytest.raises(InputError, match="the budget is"):
            mv.ideals(mv.finite_chain(spectra.MAX_LISTED - 1))
        with pytest.raises(InputError, match="the budget is"):
            mv.ideals(mv.function_algebra(tuple("abcdefghijkl"), mv.FiniteChain(1)))

    def test_unsupported_carrier(self):
        with pytest.raises(UnsupportedCarrierError):
            mv.ideals(mv.standard_unit())


class TestRadical:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_chains_are_simple(self, n):
        assert members(mv.radical(mv.finite_chain(n))) == frozenset({F(0)})

    def test_function_algebras_are_semisimple(self):
        algebra = mv.function_algebra(("p", "q"), mv.FiniteChain(3))
        zero = mv.zero(algebra).payload
        assert members(mv.radical(algebra)) == frozenset({zero})
        assert mv.is_semisimple(algebra)

    @pytest.mark.parametrize(
        "algebra", [mv.standard_unit(), mv.function_algebra(("p", "q"))], ids=["U", "F"]
    )
    def test_infinite_semisimple_carriers_have_radical_zero(self, algebra):
        r = mv.radical(algebra)
        assert r.support == frozenset()
        assert spectra.listing(r) == [mv.core.format_element(mv.zero(algebra))]
        assert mv.ideal_contains(r, mv.zero(algebra))
        assert not mv.ideal_contains(r, mv.one(algebra))
        assert mv.quotient(algebra, r).algebra == algebra
        for refused in (mv.ideals, mv.maximal_ideals):
            with pytest.raises(UnsupportedCarrierError):
                refused(algebra)

    def test_chang_radical_is_the_lower_part(self):
        assert mv.radical(C).support == spectra.CHANG_RADICAL
        assert not mv.is_semisimple(C)

    def test_radical_is_intersection_of_maximal(self):
        for algebra in (BOOL2, mv.function_algebra(("p", "q"), mv.FiniteChain(2))):
            expected = frozenset.intersection(
                *[members(i) for i in mv.maximal_ideals(algebra)]
            )
            assert members(mv.radical(algebra)) == expected


class TestQuotient:
    def test_quotient_by_zero_is_identity(self):
        algebra = mv.finite_chain(3)
        result = mv.quotient(algebra, mv.ideal(algebra, [F(0)]))
        assert result.algebra == algebra
        a = mv.element(algebra, "2/3")
        assert result.project(a) == a

    def test_chang_mod_radical_is_boolean(self):
        result = mv.quotient(C, mv.radical(C))
        assert result.algebra == mv.finite_chain(1)
        assert result.project(mv.lower(C, 9)).payload == F(0)
        assert result.project(mv.upper(C, 9)).payload == F(1)

    def test_chain_square_mod_first_coordinate(self):
        algebra = mv.function_algebra(("a", "b"), mv.FiniteChain(2))
        # the ideal generated by the indicator of the first atom
        members = [
            (F(k, 2), F(0)) for k in range(3)
        ]
        result = mv.quotient(algebra, mv.ideal(algebra, members))
        assert result.algebra == mv.finite_chain(2)
        assert result.project(mv.element(algebra, ("1/2", "1"))).payload == F(1)

    def test_projection_is_a_homomorphism(self):
        algebra = mv.function_algebra(("a", "b"), mv.FiniteChain(2))
        members = [(F(k, 2), F(0)) for k in range(3)]
        result = mv.quotient(algebra, mv.ideal(algebra, members))
        pool = mv.core.enumerate_carrier(algebra)
        for a, b in itertools.product(pool, repeat=2):
            assert result.project(mv.oplus(a, b)) == mv.oplus(
                result.project(a), result.project(b)
            )
            assert result.project(mv.neg(a)) == mv.neg(result.project(a))

    def test_projection_refuses_a_foreign_element(self):
        # the projection builds its image from the element's code unchecked, so an
        # element of another algebra (here a rational 1/3 for a 2-chain) is refused
        algebra = mv.function_algebra(("a", "b"), mv.FiniteChain(2))
        result = mv.quotient(algebra, mv.Ideal(algebra, frozenset({0})))
        foreign = mv.element(mv.function_algebra(("a", "b")), ("1/2", "1/3"))
        with pytest.raises(InputError, match="does not belong to the quotiented algebra"):
            result.project(foreign)
        with pytest.raises(InputError, match="does not belong to the quotiented algebra"):
            mv.quotient(C, mv.radical(C)).project(mv.element(mv.finite_chain(1), "1"))

    def test_kernel_matches_the_ideal(self):
        algebra = BOOL2
        members = [(F(0), F(0)), (F(1), F(0))]
        i = mv.ideal(algebra, members)
        result = mv.quotient(algebra, i)
        z = mv.zero(result.algebra)
        for a in mv.core.enumerate_carrier(algebra):
            assert (result.project(a) == z) == mv.ideal_contains(i, a)

    def test_improper_ideal_rejected(self):
        algebra = mv.finite_chain(2)
        whole = mv.ideals(algebra)[-1]
        with pytest.raises(InputError):
            mv.quotient(algebra, whole)

    def test_quotient_by_radical_is_semisimple(self):
        for algebra in (C, BOOL2, mv.finite_chain(4)):
            result = mv.quotient(algebra, mv.radical(algebra))
            assert mv.is_semisimple(result.algebra)


# ---------------------------------------------------------------------------
# Differential gate: the enumerating implementation as the reference
# ---------------------------------------------------------------------------


def reference_ideals(algebra):
    """Every ideal as a member set: the lower set of each idempotent.

    In a finite algebra the join of an ideal is a member and idempotent,
    so the ideals are exactly the principal ideals of idempotents.
    """
    elements = mv.core.enumerate_carrier(algebra)
    found = [
        frozenset(x.payload for x in elements if mv.leq(x, e))
        for e in elements
        if mv.oplus(e, e) == e
    ]
    return sorted(found, key=lambda m: (len(m), sorted(repr(p) for p in m)))


def reference_maximal(algebra, found):
    proper = [m for m in found if mv.one(algebra).payload not in m]
    return [m for m in proper if not any(m < other for other in proper)]


def reference_quotient(algebra, ideal_members):
    """The quotient algebra and projection, the kept atoms read off the join."""
    if ideal_members == frozenset({mv.zero(algebra).payload}):
        return algebra, lambda a: a
    pool = [e for e in mv.core.enumerate_carrier(algebra) if e.payload in ideal_members]
    top = functools.reduce(mv.join, pool)
    keep = [x for x, v in enumerate(top.payload) if v == 0]
    carrier = algebra.carrier
    if len(keep) == 1:
        target = mv.finite_chain(carrier.value.n)
        return target, lambda a: mv.element(target, a.payload[keep[0]])
    target = mv.function_algebra(tuple(carrier.atoms[x] for x in keep), carrier.value)
    return target, lambda a: mv.element(target, tuple(a.payload[x] for x in keep))


def render(algebra, ideal_members):
    return sorted(mv.core.format_element(mv.element(algebra, p)) for p in ideal_members)


def carriers_up_to(size):
    """Every chain and every k-atom function algebra over an n-chain of at most ``size`` elements."""
    found = [(f"chain{n}", mv.finite_chain(n)) for n in range(1, size)]
    for k in range(1, size.bit_length()):
        n = 1
        while (n + 1) ** k <= size:
            atoms = tuple(f"a{x}" for x in range(k))
            found.append((f"{k}x{n}", mv.function_algebra(atoms, mv.FiniteChain(n))))
            n += 1
    return found


CARRIERS_UP_TO_64 = carriers_up_to(64)


def test_differential_gate_covers_139_carriers():
    assert len(CARRIERS_UP_TO_64) == 139


@pytest.mark.parametrize(
    "algebra", [a for _, a in CARRIERS_UP_TO_64], ids=[name for name, _ in CARRIERS_UP_TO_64]
)
def test_supports_match_the_enumerating_reference(algebra):
    expected = reference_ideals(algebra)
    found = mv.ideals(algebra)
    assert [spectra.listing(i) for i in found] == [render(algebra, m) for m in expected]
    assert [spectra.listing(i) for i in mv.maximal_ideals(algebra)] == [
        render(algebra, m) for m in reference_maximal(algebra, expected)
    ]
    assert spectra.listing(mv.radical(algebra)) == render(
        algebra, frozenset.intersection(*reference_maximal(algebra, expected))
    )
    pool = mv.core.enumerate_carrier(algebra)
    for i, m in zip(found, expected):
        assert mv.ideal(algebra, m) == i
        assert [mv.ideal_contains(i, a) for a in pool] == [a.payload in m for a in pool]
        if mv.one(algebra).payload in m:
            continue
        result = mv.quotient(algebra, i)
        target, project = reference_quotient(algebra, m)
        assert result.algebra == target
        assert [result.project(a) for a in pool] == [project(a) for a in pool]


# ---------------------------------------------------------------------------
# The CLI beyond the old 64-element enumeration guard
# ---------------------------------------------------------------------------


def spectra_cli(tmp_dir, k, n, action):
    """Run ``spectra <action>`` on k atoms over the n-chain: (code, stdout, stderr)."""
    doc = {"algebras": {"A": {"kind": "function", "atoms": [f"a{x}" for x in range(k)],
                              "value": n}}}
    path = Path(tmp_dir) / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["spectra", str(path), action, "A"])
    return code, out.getvalue(), err.getvalue()


def test_ideals_of_125_elements(tmp_path):
    code, out, _ = spectra_cli(tmp_path, 3, 4, "ideals")
    assert code == 0
    report = json.loads(out)
    assert report["metrics"] == {"ideals": 8, "maximal": 3}
    assert report["result"]["maximal"][0] == render(
        mv.function_algebra(("a0", "a1", "a2"), mv.FiniteChain(4)),
        [(F(0), F(j, 4), F(k, 4)) for j in range(5) for k in range(5)],
    )


@pytest.mark.parametrize("action", ["radical", "semisimple"])
def test_twenty_atom_boolean_algebra_in_under_a_second(tmp_path, action):
    start = time.perf_counter()
    code, out, _ = spectra_cli(tmp_path, 20, 1, action)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    if action == "radical":
        assert report["result"]["radical"] == ["(" + ",".join("0" * 20) + ")"]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 24),
    n=st.integers(1, 24),
    action=st.sampled_from(["ideals", "radical", "semisimple"]),
)
def test_spectra_fuzz_keeps_the_exit_code_contract(k, n, action):
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = spectra_cli(directory, k, n, action)
    assert code in (0, 2)
    assert "Traceback" not in err
    if action == "ideals" and (n + 2) ** k > spectra.MAX_LISTED:
        assert (code, out) == (2, "")
        assert err == (
            f"error: listing every ideal takes {(n + 2) ** k} member texts; "
            f"the budget is {spectra.MAX_LISTED}\n"
        )
        return
    assert code == 0 and err == ""
    report = json.loads(out)
    if action == "ideals":
        assert report["metrics"] == {"ideals": 2**k, "maximal": k}
