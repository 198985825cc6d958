"""Product couplings, bounded bilinear maps, extensions, factorization."""

import itertools
import json
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvprob as mv
from element_reference import summable_pairs
from mvprob import cli, independence, representation
from mvprob.core import random_element
from mvprob.errors import InputError
from mvprob.rationals import ONE

BOOL2 = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
CH2 = mv.finite_chain(2)


def chain_state(algebra):
    n = algebra.carrier.n
    return mv.table_state(algebra, {F(k, n): F(k, n) for k in range(n + 1)})


def in_ambient(a):
    """``a`` retyped, values unchanged, into its divisible ambient."""
    return mv.Element(mv.core.divisible_ambient(a.algebra), mv.core.ambient_vector(a))


def unchecked_map(left, right, codomain, fn, bound=None):
    """``fn`` materialized over the finite domains without validation,
    for the tables `check_bilinear` must reject."""
    rights = mv.core.enumerate_carrier(right.algebra)
    table = tuple(
        tuple(fn(a, b) for b in rights) for a in mv.core.enumerate_carrier(left.algebra)
    )
    return mv.BilinearMap(left, right, codomain, table, bound)


def coupling(weights_a=(F(1, 2), F(1, 2))):
    s_a = mv.measure_state(BOOL2, mv.measure(("x", "y"), weights_a))
    s_b = chain_state(CH2)
    return s_a, s_b, mv.product_space(s_a, s_b)


class TestProductSpace:
    def test_weights_multiply(self):
        mu = mv.measure(("x", "y"), (F(1, 2), F(1, 2)))
        nu = mv.measure(("p", "q"), (F(1, 3), F(2, 3)))
        lam = independence.product_measure(mu, nu)
        assert lam.atoms == ("(x,p)", "(x,q)", "(y,p)", "(y,q)")
        assert lam.weights == (F(1, 6), F(1, 3), F(1, 6), F(1, 3))
        space = mv.product_space(
            mv.measure_state(mv.function_algebra(mu.atoms), mu),
            mv.measure_state(mv.function_algebra(nu.atoms), nu),
        )
        assert space.state.measure == lam
        assert space.state.algebra == mv.function_algebra(lam.atoms)

    def test_marginals_recover_the_factors(self):
        mu = mv.measure(("x", "y"), (F(1, 4), F(3, 4)))
        nu = mv.measure(("p", "q", "r"), (F(1, 2), F(1, 3), F(1, 6)))
        lam = independence.product_measure(mu, nu)
        left, right = independence.marginals(lam, mu.atoms, nu.atoms)
        assert left == mu and right == nu

    def test_point_mass_factor_copies_the_other_side(self):
        mu = mv.measure(("x", "y"), (F(1, 4), F(3, 4)))
        point = mv.measure(("p",), (F(1),))
        assert independence.product_measure(mu, point).weights == mu.weights

    def test_uniform_times_uniform(self):
        uniform2 = mv.measure(("a", "b"), (F(1, 2), F(1, 2)))
        lam = independence.product_measure(uniform2, uniform2)
        assert lam.weights == tuple([F(1, 4)] * 4)


class TestTensor:
    MU = mv.measure(("x", "y"), (F(1, 2), F(1, 2)))
    NU = mv.measure(("p", "q"), (F(1, 3), F(2, 3)))

    def setup_method(self):
        self.left = mv.function_algebra(("x", "y"))
        self.right = mv.function_algebra(("p", "q"))
        self.space = mv.product_space(
            mv.measure_state(self.left, self.MU), mv.measure_state(self.right, self.NU)
        )

    def test_pointwise_products(self):
        f = mv.element(self.left, ("1", "0"))
        g = mv.element(self.right, ("1/2", "1/2"))
        assert mv.tensor(self.space, f, g).payload == (F(1, 2), F(1, 2), F(0), F(0))

    def test_unit_tensor_unit(self):
        assert mv.tensor(
            self.space, mv.one(self.left), mv.one(self.right)
        ) == mv.one(self.space.state.algebra)

    def test_integral_identity(self):
        f = mv.element(self.left, ("1", "0"))
        g = mv.element(self.right, ("1/2", "1/2"))
        paired = mv.tensor(self.space, f, g)
        assert mv.eval_state(self.space.state, paired) == F(1, 4)

    def test_integral_identity_random(self):
        rng = Random(21)
        left_state = mv.measure_state(self.left, self.MU)
        right_state = mv.measure_state(self.right, self.NU)
        for _ in range(10_000):
            f = random_element(rng, self.left)
            g = random_element(rng, self.right)
            assert mv.eval_state(
                self.space.state, mv.tensor(self.space, f, g)
            ) == mv.eval_state(left_state, f) * mv.eval_state(right_state, g)

    def test_nonnegativity_is_inherited(self):
        f = mv.element(self.left, ("1/3", "0"))
        g = mv.element(self.right, ("0", "2/3"))
        assert all(v >= 0 for v in mv.tensor(self.space, f, g).payload)

    def test_space_mismatch(self):
        other = mv.function_algebra(("p", "q", "r"))
        with pytest.raises(InputError):
            mv.tensor(self.space, mv.one(other), mv.one(self.right))


class TestIndependenceIdentity:
    def test_exhaustive_pairs(self):
        s_a, s_b, space = coupling()
        for a in mv.core.enumerate_carrier(BOOL2):
            for b in mv.core.enumerate_carrier(CH2):
                paired = mv.beta(space, a, b)
                assert mv.eval_state(space.state, paired) == mv.eval_state(
                    s_a, a
                ) * mv.eval_state(s_b, b)

    def test_unit_marginal(self):
        s_a, _, space = coupling()
        for a in mv.core.enumerate_carrier(BOOL2):
            paired = mv.beta(space, a, mv.one(CH2))
            assert mv.eval_state(space.state, paired) == mv.eval_state(s_a, a)

    def test_verify_independence_counts_every_pair(self):
        s_a, s_b, *_ = coupling()
        verdict = independence.verify_independence(s_a, s_b)
        assert verdict.passed
        assert verdict.metrics == {"identities_checked": 4 * 3}

    def test_verify_independence_needs_finite_algebras(self):
        s_a, *_ = coupling()
        with pytest.raises(InputError):
            independence.verify_independence(s_a, mv.identity_state(mv.standard_unit()))

    def test_verify_marginals(self):
        mu = mv.measure(("x", "y"), (F(1, 4), F(3, 4)))
        nu = mv.measure(("p",), (F(1),))
        verdict = independence.verify_marginals(mu, nu)
        assert verdict.passed and verdict.metrics == {"atoms": 2}
        assert verdict.result == mv.measure(("(x,p)", "(y,p)"), mu.weights)


class TestBilinearChecks:
    def test_beta_is_bilinear_with_bound_one(self):
        _, _, space = coupling()
        gamma = mv.beta_bilinear(space)
        assert gamma.bound == 1
        report = mv.check_bilinear(gamma)
        assert report.passed

    def test_state_product_is_bilinear(self):
        *_, space = coupling()
        gamma = mv.state_product_bilinear(space)
        assert gamma.bound == 1 and mv.check_bilinear(gamma).passed

    def test_join_fixture_fails_additivity(self):
        s = chain_state(CH2)
        gamma = unchecked_map(s, s, s, mv.join)
        report = mv.check_bilinear(gamma)
        assert not report.passed
        assert report.witnesses[0]["check"][0] == "linearity"

    def test_construction_rejects_non_bilinear(self):
        s = chain_state(CH2)
        with pytest.raises(InputError):
            mv.bilinear_map(s, s, s, mv.join)

    def test_understated_bound_fails(self):
        # same pairing, but integrated against a lopsided state: the
        # claimed K = 1 is too small, K = 2 is enough
        s_a, s_b, space = coupling()
        atoms = space.state.measure.atoms
        weights = (F(1),) + (F(0),) * (len(atoms) - 1)
        skew = mv.measure_state(space.state.algebra, mv.measure(atoms, weights))
        gamma = unchecked_map(s_a, s_b, skew, lambda a, b: mv.beta(space, a, b))
        assert mv.check_bilinear(gamma).passed
        assert not mv.check_bilinear(with_bound(gamma, 1)).passed
        assert mv.check_bilinear(with_bound(gamma, 2)).passed


def with_bound(gamma, bound):
    """``gamma`` with the claimed constant K replaced by ``bound``."""
    return mv.BilinearMap(gamma.left, gamma.right, gamma.codomain, gamma.table, bound)


def planted_table(left, right, fn, cell=None, value=None):
    """``fn`` materialized into the standard unit, with ``cell`` overwritten."""
    unit = mv.standard_unit()

    def entry(a, b):
        if (a.payload, b.payload) == cell:
            return mv.element(unit, value)
        return mv.element(unit, fn(a, b))

    return unchecked_map(left, right, mv.identity_state(unit), entry)


def planted_defects():
    s1, s2 = chain_state(mv.finite_chain(1)), chain_state(CH2)
    dirac = mv.measure_state(BOOL2, mv.measure(("x", "y"), (F(1), F(0))))

    def product(a, b):
        return a.payload * b.payload

    # (table, bound, checks, witness): one check per pair in rank order,
    # linearity at every pair before the bound at any
    yield pytest.param(
        planted_table(s1, s2, product, (F(0), F(1, 2)), F(1, 4)), None,
        2, ("linearity", "0", "1/2"), id="left-linearity",
    )
    # the planted entry is the atom image gamma(1, 1), so the first pair
    # it contradicts is (1, 1/2)
    yield pytest.param(
        planted_table(s1, s2, product, (F(1), F(1)), F(1, 2)), None,
        5, ("linearity", "1", "1/2"), id="right-linearity",
    )
    # linear, but it charges the atom the left state gives weight 0
    yield pytest.param(
        planted_table(dirac, s1, lambda a, b: a.payload[1] * b.payload), 1,
        12, ("bound", "(0,1)", "1"), id="bound",
    )


@pytest.mark.parametrize("gamma, bound, checks, witness", list(planted_defects()))
def test_planted_defect_is_found_at_its_pinned_check(gamma, bound, checks, witness):
    report = mv.check_bilinear(with_bound(gamma, bound))
    assert not report.passed
    assert report.metrics == {"checks": checks}
    assert report.witnesses == [{"check": witness}]


def reference_check_bilinear(gamma):
    """`check_bilinear` as it checked a table before: additivity of each slot
    on every summable pair of its compiled domain, against every element of
    the other slot, then the bound.  A reference for the check at the atom
    images that replaced it."""
    left = mv.core.compile_table(gamma.left.algebra)
    right = mv.core.compile_table(gamma.right.algebra)
    slots = (
        ("left", left, right, gamma.table),
        ("right", right, left, tuple(zip(*gamma.table))),
    )
    checks = 0

    def fail(*witness):
        return mv.Verdict("fail", [{"check": witness}], {"checks": checks})

    for slot, varying, fixed, lookup in slots:
        for x, x2 in summable_pairs(varying):
            totals = lookup[varying.oplus(x, x2)]
            for y in range(len(fixed.names)):
                checks += 1
                parts = mv.partial_add(lookup[x][y], lookup[x2][y])
                if parts is None or parts != totals[y]:
                    if slot == "left":
                        return fail("left-linearity", left.names[x], left.names[x2], right.names[y])
                    return fail("right-linearity", left.names[y], right.names[x], right.names[x2])
    bound = gamma.bound
    if bound is not None:
        if bound < 1:
            return fail("bound", str(bound))
        rights = mv.core.enumerate_carrier(gamma.right.algebra)
        for a, row in zip(mv.core.enumerate_carrier(gamma.left.algebra), gamma.table):
            sa = mv.eval_state(gamma.left, a)
            for b, value in zip(rights, row):
                checks += 1
                level = mv.eval_state(gamma.codomain, value)
                cap = min(bound * sa * mv.eval_state(gamma.right, b), ONE)
                if level > cap:
                    return fail("bound", mv.core.format_element(a), mv.core.format_element(b))
    return mv.Verdict("pass", [], {"checks": checks})


def gate_domains():
    """(id, state) on the chains 1-4, 2 atoms over chains 1-2 and 3 atoms over the 1-chain."""
    for n in range(1, 5):
        yield f"chain{n}", mv.identity_state(mv.finite_chain(n))
    for atoms, n, weights in (
        (("x", "y"), 1, (F(1, 2), F(1, 2))),
        (("x", "y"), 2, (F(1, 3), F(2, 3))),
        (("x", "y", "z"), 1, (F(1, 2), F(0), F(1, 2))),
    ):
        algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
        yield f"{len(atoms)}x{n}", mv.measure_state(algebra, mv.measure(atoms, weights))


GATE_DOMAINS = dict(gate_domains())
# (state, the grid step of its atom images: 12-chain values need multiples of
# n_A * n_B / 12, and the others take any rational) per codomain
GATE_CODOMAINS = {
    "interval": (mv.identity_state(mv.standard_unit()), lambda na, nb: F(1, 7)),
    "chain12": (mv.identity_state(mv.finite_chain(12)), lambda na, nb: F(na * nb, 12)),
    "rational2": (
        mv.measure_state(mv.function_algebra(("u", "v")), mv.measure(("u", "v"), (F(1, 3), F(2, 3)))),
        lambda na, nb: F(1, 5),
    ),
}


def atom_image_table(left, right, codomain, step, rng):
    """A linear table, gamma(a, b) = sum a(x) * b(y) * I(x, y), its atom images I
    seeded multiples of ``step`` whose sum stays within 1 in each coordinate
    (all 0 when ``step`` > 1)."""
    pairs = len(mv.core.ambient_vector(mv.one(left.algebra))) * len(
        mv.core.ambient_vector(mv.one(right.algebra))
    )
    coordinates = len(mv.core.ambient_vector(mv.one(codomain.algebra)))
    images = []
    for _ in range(coordinates):
        counts = [0] * pairs
        for _ in range(int(1 / step)):  # a unit that falls on index `pairs` is unused
            spot = rng.randrange(pairs + 1)
            if spot < pairs:
                counts[spot] += 1
        images.append([c * step for c in counts])

    def entry(a, b):
        weights = [u * v for u in mv.core.ambient_vector(a) for v in mv.core.ambient_vector(b)]
        vector = tuple(sum(w * i for w, i in zip(weights, column)) for column in images)
        return mv.element(codomain.algebra, vector if coordinates > 1 else vector[0])

    return unchecked_map(left, right, codomain, entry)


def planted(gamma, cell, bound=None):
    """``gamma`` with the entry at the ``cell``-th pair in rank order changed, and ``bound``."""
    width = len(gamma.table[0])
    rows = [list(row) for row in gamma.table]
    value = rows[cell // width][cell % width]
    zero = mv.zero(value.algebra)
    rows[cell // width][cell % width] = mv.one(value.algebra) if value == zero else zero
    return mv.BilinearMap(gamma.left, gamma.right, gamma.codomain, tuple(map(tuple, rows)), bound)


class TestCheckBilinearAgainstSummablePairs:
    """`check_bilinear` at the atom images gives the summable-pair sweep's verdict."""

    @staticmethod
    def agree(gamma):
        verdict = mv.check_bilinear(gamma).passed
        assert verdict == reference_check_bilinear(gamma).passed
        return verdict

    @pytest.mark.parametrize("weights", [(F(1, 2), F(1, 2)), (F(1), F(0))], ids=["uniform", "dirac"])
    def test_every_built_in_map_on_the_coupling(self, weights):
        s_a, s_b, space = coupling(weights)
        maps = [
            mv.beta_bilinear(space),
            mv.state_product_bilinear(space),
            mv.left_scaling_bilinear(space),
        ]
        for gamma in maps:
            for bound in (gamma.bound, None, 0):
                self.agree(with_bound(gamma, bound))
        atoms = space.state.measure.atoms
        skew = mv.measure_state(
            space.state.algebra, mv.measure(atoms, (F(1),) + (F(0),) * (len(atoms) - 1))
        )
        for bound in (None, 1, 2):  # K = 1 is too small for the uniform coupling
            self.agree(mv.BilinearMap(maps[0].left, maps[0].right, skew, maps[0].table, bound))

    @pytest.mark.parametrize("left", GATE_DOMAINS)
    @pytest.mark.parametrize("right", GATE_DOMAINS)
    def test_linear_tables_and_planted_entries(self, left, right):
        s_a, s_b = GATE_DOMAINS[left], GATE_DOMAINS[right]
        na, nb = s_a.algebra.carrier.shape[1], s_b.algebra.carrier.shape[1]
        for name, (codomain, step) in GATE_CODOMAINS.items():
            rng = Random(f"{left} {right} {name}")
            gamma = atom_image_table(s_a, s_b, codomain, step(na, nb), rng)
            assert self.agree(gamma), name
            size = len(gamma.table) * len(gamma.table[0])
            for cell in (0, size // 2, size - 1):
                self.agree(planted(gamma, cell))

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.sampled_from(sorted(GATE_DOMAINS)),
        right=st.sampled_from(sorted(GATE_DOMAINS)),
        codomain=st.sampled_from(sorted(GATE_CODOMAINS)),
        seed=st.integers(0, 2**32),
        cell=st.none() | st.integers(0, 80),
        bound=st.sampled_from([None, 0, 1, 2, 3]),
    )
    def test_random_tables(self, left, right, codomain, seed, cell, bound):
        s_a, s_b = GATE_DOMAINS[left], GATE_DOMAINS[right]
        state, step = GATE_CODOMAINS[codomain]
        na, nb = s_a.algebra.carrier.shape[1], s_b.algebra.carrier.shape[1]
        gamma = atom_image_table(s_a, s_b, state, step(na, nb), Random(seed))
        size = len(gamma.table) * len(gamma.table[0])
        if cell is None:
            self.agree(with_bound(gamma, bound))
        else:
            self.agree(planted(gamma, cell % size, bound))


def apply_extension(ext, f, g):
    # the extension is linear off the pair atoms; (f, g) enters as f(x) * g(y)
    pair = mv.element(ext.domain, tuple(vf * vg for vf in f.payload for vg in g.payload))
    return independence.apply_atom_linear(ext, pair)


class TestBilinearExtension:
    def test_degenerate_decomposition_restricts_to_the_map(self):
        s_a, s_b, space = coupling()
        gamma = mv.beta_bilinear(space)
        ext = mv.extend_bilinear_divisible(gamma)
        for a in mv.core.enumerate_carrier(BOOL2):
            for b in mv.core.enumerate_carrier(CH2):
                extended = apply_extension(
                    ext, in_ambient(a), in_ambient(b)
                )
                direct = in_ambient(mv.independence.apply_bilinear(gamma, a, b))
                assert extended == direct

    def test_boolean_product_at_half(self):
        chain1 = mv.finite_chain(1)
        s = chain_state(chain1)
        gamma = mv.bilinear_map(s, s, s, mv.prod, bound=1)
        ext = mv.extend_bilinear_divisible(gamma)
        hull = mv.core.divisible_ambient(chain1)
        half = mv.element(hull, ("1/2",))
        assert apply_extension(ext, half, half).payload == (F(1, 4),)

    def test_bound_preserved_on_random_hull_pairs(self):
        s_a, s_b, space = coupling()
        gamma = mv.beta_bilinear(space)
        ext = mv.extend_bilinear_divisible(gamma)
        # faithful states: each image state is the hull extension, on every hull atom
        extended_left, extended_right = space.left.image, space.right.image
        assert extended_left.algebra == mv.core.divisible_ambient(s_a.algebra)
        assert extended_right.algebra == mv.core.divisible_ambient(s_b.algebra)
        cod_state = space.state
        rng = Random(33)
        for _ in range(1000):
            f = random_element(rng, extended_left.algebra)
            g = random_element(rng, extended_right.algebra)
            value = apply_extension(ext, f, g)
            level = mv.eval_state(cod_state, value)
            cap = min(
                gamma.bound
                * mv.eval_state(extended_left, f)
                * mv.eval_state(extended_right, g),
                ONE,
            )
            assert level <= cap

    def test_unbounded_rejected(self):
        s_a, s_b, space = coupling()
        gamma = mv.bilinear_map(
            s_a, s_b, space.state,
            lambda a, b: mv.beta(space, a, b),
            bound=None,
        )
        with pytest.raises(InputError):
            mv.extend_bilinear_divisible(gamma)


def scaled_atom_basis(algebra):
    # the reference basis (1/n) * 1_x with its scale n: linearity gives n * f((1/n) * 1_x) = f(1_x)
    carrier = algebra.carrier
    if isinstance(carrier, mv.FiniteChain):
        return carrier.n, [mv.element(algebra, F(1, carrier.n))]
    unit = F(1, carrier.value.n)
    basis = [
        mv.element(algebra, tuple(unit if y == x else F(0) for y in carrier.atoms))
        for x in carrier.atoms
    ]
    return carrier.value.n, basis


@pytest.mark.parametrize(
    "algebra",
    [mv.finite_chain(n) for n in range(1, 5)]
    + [mv.function_algebra(("x", "y"), mv.FiniteChain(n)) for n in range(1, 4)],
    ids=[f"chain{n}" for n in range(1, 5)] + [f"two-atoms-chain{n}" for n in range(1, 4)],
)
def test_indicator_values_equal_the_scaled_basis_values(algebra):
    n, basis = scaled_atom_basis(algebra)
    vector = mv.core.ambient_vector
    weights = (F(1),) if len(basis) == 1 else (F(1, 3), F(2, 3))
    s = mv.table_state(algebra, {
        a.payload: sum(w * v for w, v in zip(weights, vector(a)))
        for a in mv.core.enumerate_carrier(algebra)
    })
    assert s.measure.weights == tuple(
        n * mv.eval_state(s, u) for u in basis
    )

    codomain = mv.finite_chain(2 * n * n)
    gamma = mv.bilinear_map(
        s, s, chain_state(codomain),
        lambda a, b: mv.element(codomain, vector(a)[0] * sum(vector(b)) / 2),  # not symmetric
        bound=5,
    )
    assert mv.extend_bilinear_divisible(gamma).images == tuple(
        tuple(n * n * v for v in vector(independence.apply_bilinear(gamma, u, w)))
        for u in basis
        for w in basis
    )


def lipschitz_violations(gamma):
    """The number of quadruples (a, a2, b, b2) of the domains, and those that break
    rho_C(gamma(a, b), gamma(a2, b2)) <= min(K * min(rho_A(a, a2) + rho_B(b, b2), 1), 1).

    Slot linearity and the bound K, which `check_bilinear` proves for
    every validated map, imply the estimate; this sweep checks it.
    """
    lefts = mv.core.enumerate_carrier(gamma.left.algebra)
    rights = mv.core.enumerate_carrier(gamma.right.algebra)
    pairs = [(a, b) for a in lefts for b in rights]
    quadruples, violations = 0, []
    for (a, b), (a2, b2) in itertools.product(pairs, repeat=2):
        quadruples += 1
        lhs = mv.rho(
            gamma.codomain,
            independence.apply_bilinear(gamma, a, b),
            independence.apply_bilinear(gamma, a2, b2),
        )
        inner = min(mv.rho(gamma.left, a, a2) + mv.rho(gamma.right, b, b2), ONE)
        if lhs > min(gamma.bound * inner, ONE):
            violations.append((a, a2, b, b2))
    return quadruples, violations


class TestLipschitz:
    def test_equal_arguments_give_zero(self):
        s_a, s_b, space = coupling()
        gamma = mv.beta_bilinear(space)
        a = mv.element(BOOL2, ("1", "0"))
        b = mv.element(CH2, "1/2")
        assert mv.states.rho(
            gamma.codomain,
            independence.apply_bilinear(gamma, a, b),
            independence.apply_bilinear(gamma, a, b),
        ) == 0

    # each fixture map has (4 * 3) ** 2 quadruples
    def test_beta_quadruples(self):
        _, _, space = coupling()
        assert lipschitz_violations(mv.beta_bilinear(space)) == (144, [])

    def test_state_product_quadruples(self):
        *_, space = coupling()
        assert lipschitz_violations(mv.state_product_bilinear(space)) == (144, [])

    def test_left_scaling_quadruples(self):
        *_, space = coupling()
        assert lipschitz_violations(mv.left_scaling_bilinear(space)) == (144, [])

    def test_an_unbounded_map_breaks_the_estimate(self):
        # linear in each slot, but it charges the atom the left state
        # gives weight 0, so elements at pseudo-distance 0 are sent far apart
        dirac = mv.measure_state(BOOL2, mv.measure(("x", "y"), (F(1), F(0))))
        s1 = chain_state(mv.finite_chain(1))
        gamma = with_bound(planted_table(dirac, s1, lambda a, b: a.payload[1] * b.payload), 1)
        assert not mv.check_bilinear(gamma).passed
        quadruples, violations = lipschitz_violations(gamma)
        assert quadruples == 64 and violations
        a, a2, b, b2 = violations[0]
        assert mv.rho(dirac, a, a2) == 0 and b == b2


class TestFactorization:
    def gammas(self):
        *_, space = coupling()
        yield "beta", mv.beta_bilinear(space), space
        yield "state-product", mv.state_product_bilinear(space), space
        yield "left-scaling", mv.left_scaling_bilinear(space), space

    def test_triangle_and_uniqueness_for_three_fixtures(self):
        for name, gamma, space in self.gammas():
            rep_c = mv.embed_l1(gamma.codomain.algebra, gamma.codomain)
            omega = mv.factorize(gamma, space, rep_c)
            report = mv.verify_factorization(omega, space, gamma, rep_c, samples=120, seed=5)
            assert report.passed, name

    def test_pairing_factors_through_the_identity(self):
        _, _, space = coupling()
        gamma = mv.beta_bilinear(space)
        rep_c = mv.embed_l1(space.state.algebra, space.state)
        omega = mv.factorize(gamma, space, rep_c)
        size = len(space.state.measure.atoms)
        for i, image in enumerate(omega.images):
            assert image == tuple(ONE if j == i else F(0) for j in range(size))

    def test_state_product_factors_through_integration(self):
        s_a, s_b, space = coupling()
        gamma = mv.state_product_bilinear(space)
        rep_c = mv.embed_l1(gamma.codomain.algebra, gamma.codomain)
        omega = mv.factorize(gamma, space, rep_c)
        rng = Random(14)
        for _ in range(200):
            h = random_element(rng, space.state.algebra)
            value = independence.apply_atom_linear(omega, h)
            assert value.payload == (mv.eval_state(space.state, h),)

    def test_non_faithful_states_rejected(self):
        s_a, s_b, space = coupling(weights_a=(F(1), F(0)))
        gamma = mv.state_product_bilinear(space)
        rep_c = mv.embed_l1(gamma.codomain.algebra, gamma.codomain)
        with pytest.raises(InputError):
            mv.factorize(gamma, space, rep_c)

    def test_unbounded_rejected(self):
        s_a, s_b, space = coupling()
        gamma = mv.bilinear_map(
            s_a, s_b, space.state,
            lambda a, b: mv.beta(space, a, b),
            bound=None,
        )
        rep_c = mv.embed_l1(space.state.algebra, space.state)
        with pytest.raises(InputError):
            mv.factorize(gamma, space, rep_c)


def test_a_product_whose_marginals_differ_fails(monkeypatch, capsys):
    # a defect planted in the marginal sums reaches `product build` as exit 1
    marginals = independence.marginals
    monkeypatch.setattr(independence, "marginals", lambda lam, xs, ys: marginals(lam, xs, ys)[::-1])
    doc = str(Path(__file__).parent / "fixtures" / "basic.json")
    code = cli.main(["product", doc, "build", "mu", "nu"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["verdict"] == "fail"
    assert report["witnesses"] == [{"marginals": "do not match the factors"}]


@pytest.mark.parametrize(
    "name, left, right, message",
    [
        ("gdirac", "sBdirac", "schain", "factorization needs faithful states"),
        ("gtable", "t1", "t1", "factorization needs a bounded map"),
    ],
    ids=["non-faithful", "unbounded"],
)
def test_factorize_refuses_before_the_table_is_built(
    name, left, right, message, tmp_path, monkeypatch, capsys
):
    # each map is bilinear, so only the refusal stops it; it comes before
    # `bilinear_map` materializes the n_A x n_B table and sweeps it
    raw = json.loads((Path(__file__).parent / "fixtures" / "basic.json").read_text())
    raw["algebras"]["c1"] = {"kind": "chain", "n": 1}
    raw["states"]["sBdirac"] = {"algebra": "B", "rule": "measure", "measure": "dirac"}
    raw["states"]["t1"] = {"algebra": "c1", "rule": "table", "values": {"0": "0", "1": "1"}}
    raw["bilinear"]["gdirac"] = {"kind": "beta", "left": "sBdirac", "right": "schain"}
    raw["bilinear"]["gtable"] = {
        "kind": "table", "left": "t1", "right": "t1", "codomain": "t1",
        "entries": {"0;0": "0", "0;1": "0", "1;0": "0", "1;1": "1"},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    calls = []
    check_bilinear = independence.check_bilinear
    monkeypatch.setattr(
        independence, "check_bilinear", lambda gamma: calls.append(gamma) or check_bilinear(gamma)
    )
    code = cli.main(["--seed", "1", "product", str(path), "factorize", left, right, name])
    assert (code, capsys.readouterr(), len(calls)) == (2, ("", f"error: {message}\n"), 0)


def test_each_state_is_represented_once(monkeypatch):
    # a representation rebuilt per pair or per stage would multiply these counts
    s_a, s_b, _ = coupling()
    calls = []
    embed_l1 = representation.embed_l1
    monkeypatch.setattr(
        representation, "embed_l1", lambda algebra, s: calls.append(s) or embed_l1(algebra, s)
    )
    assert independence.verify_independence(s_a, s_b).passed
    assert calls == [s_a, s_b]
    calls.clear()
    verdict = independence.verify_universal_factorization(
        s_a, s_b, mv.state_product_bilinear, samples=4, seed=1
    )
    assert verdict.passed and len(calls) == 3 and calls[:2] == [s_a, s_b]  # then the codomain
