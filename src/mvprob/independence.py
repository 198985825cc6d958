"""Product spaces, bilinear maps, and the universal factorization.

A product space holds two states' representations and the product of
their measures, and every pairing reads both from it: the pairing sends
(f, g) to the pointwise product function on atom pairs, and integrating
a pairing against the product measure factors into the product of the
integrals, which is the independence identity.  Every hull element is
f = sum_x f(x) * 1_x, so a bilinear map is checked against its values at
pairs of atom indicators, and a bounded one extends through them to the
divisible hulls, as a linear map off the pair atoms.  Bounded bilinear
maps factor uniquely through the pairing by a linear map fixed on atom indicators.
One integer kernel, `_pairing`, pairs the coprime pairs (x, d) of two elements' codes:
`beta` builds its result as an `Element`, and the sweeps compare its integer sums,
building none.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Optional

from . import core, representation, states
from .core import Algebra, Element, _Record, random_element, seeded
from .errors import InputError
from .rationals import ONE, ZERO, as_pair, over_lcm, random_unit, weighted_sum
from .representation import MeasureRepresentation
from .states import DiscreteMeasure, State
from .verdict import Verdict, sweep

# ---------------------------------------------------------------------------
# Product spaces
# ---------------------------------------------------------------------------


def _pair_atoms(xs: tuple[str, ...], ys: tuple[str, ...]) -> tuple[str, ...]:
    """The atoms (x,y) of a product, lexicographic; two pairs spelled alike are refused."""
    sources: dict[str, tuple[str, str]] = {}
    for pair in ((x, y) for x in xs for y in ys):
        atom = f"({pair[0]},{pair[1]})"
        if sources.setdefault(atom, pair) != pair:
            raise InputError(f"pair atoms {sources[atom]} and {pair} are both spelled {atom!r}")
    return tuple(sources)


class ProductSpace(_Record):
    """The representations of two states and their product, held once as ``state``: the
    function algebra on the pairs of kept atoms, lexicographic, with the weights w_x * w_y."""

    left: MeasureRepresentation
    right: MeasureRepresentation
    state: State


def product_measure(mu_a: DiscreteMeasure, mu_b: DiscreteMeasure) -> DiscreteMeasure:
    atoms = _pair_atoms(mu_a.atoms, mu_b.atoms)
    return DiscreteMeasure(atoms, tuple(wx * wy for wx in mu_a.weights for wy in mu_b.weights))


def product_space(left: State, right: State) -> ProductSpace:
    """Represent both states (`representation.embed_l1`) and couple their measures."""
    rep_a = representation.embed_l1(left.algebra, left)
    rep_b = representation.embed_l1(right.algebra, right)
    lam = product_measure(rep_a.measure, rep_b.measure)
    return ProductSpace(rep_a, rep_b, states.measure_state(core.function_algebra(lam.atoms), lam))


def marginals(lam: DiscreteMeasure, xs: tuple[str, ...], ys: tuple[str, ...]):
    """Recompute the marginals of ``lam`` on ``xs`` and ``ys``: its row and column sums."""
    nb, weights = len(ys), lam.weights
    left = tuple(sum(weights[i : i + nb], ZERO) for i in range(0, len(weights), nb))
    right = tuple(sum(weights[j::nb], ZERO) for j in range(nb))
    return DiscreteMeasure(xs, left), DiscreteMeasure(ys, right)


def verify_marginals(mu_a: DiscreteMeasure, mu_b: DiscreteMeasure) -> Verdict:
    """Build the product measure, atoms of weight 0 kept; check its marginals are the factors."""
    lam = product_measure(mu_a, mu_b)
    ok = marginals(lam, mu_a.atoms, mu_b.atoms) == (mu_a, mu_b)
    return Verdict(
        "pass" if ok else "fail",
        [] if ok else [{"marginals": "do not match the factors"}],
        {"atoms": len(lam.atoms)},
        None,
        lam,
    )


def _represented(rep: MeasureRepresentation, a: Element) -> tuple[tuple[int, int], ...]:
    return representation.represent(rep, a).code


def _pairing(u, v) -> list[tuple[int, int]]:
    """The pair-atom values (x * y, d * e) of codes u and v, lexicographic, unreduced."""
    return [(x * y, d * e) for x, d in u for y, e in v]


def _paired(space: ProductSpace, u, v) -> Element:
    """The `_pairing` of codes u and v as a checked `Element` of the product algebra."""
    return Element(space.state.algebra, tuple([Fraction(x, d) for x, d in _pairing(u, v)]))


def tensor(space: ProductSpace, f: Element, g: Element) -> Element:
    """The pairing (f, g) -> f(x) * g(y) on atom pairs: `_paired`."""
    if core.atoms_of(f.algebra) != space.left.measure.atoms:
        raise InputError("left factor does not live on the left component space")
    if core.atoms_of(g.algebra) != space.right.measure.atoms:
        raise InputError("right factor does not live on the right component space")
    return _paired(space, f.code, g.code)


def beta(space: ProductSpace, a: Element, b: Element) -> Element:
    """Pair two source elements through the space's representations."""
    return tensor(
        space, representation.represent(space.left, a), representation.represent(space.right, b)
    )


def verify_independence(left: State, right: State) -> Verdict:
    """Check s(beta(a, b)) = s_A(a) * s_B(b) for every pair of two finite algebras, in
    rank order: s_A and s_B are evaluated once per element, and s(beta(a, b)) is the
    `_pairing` of a and b summed by the product weights (`_combines_to`, one column)."""
    for s in (left, right):
        if not core.is_finite(s.algebra):
            raise InputError("the exhaustive independence sweep needs finite algebras")
    space = product_space(left, right)
    lefts, rights = (
        [(a, _represented(rep, a), states.eval_state(rep.state, a))
         for a in core.enumerate_carrier(rep.source)]
        for rep in (space.left, space.right)
    )
    failures = (
        (position, {"pair": [a, b]})
        for position, ((a, u, sa), (b, v, sb)) in enumerate(itertools.product(lefts, rights))
        if not _combines_to((space.state.encoded_weights,), _pairing(u, v), (as_pair(sa * sb),))
    )
    return sweep([("identities_checked", len(lefts) * len(rights), failures)])


# ---------------------------------------------------------------------------
# Bilinear maps with verified structure
# ---------------------------------------------------------------------------


class BilinearMap(_Record):
    """A bilinear table on a pair of finite domains.

    ``table[i][j]`` is the value at the left domain's element of rank i
    and the right domain's element of rank j (see `core.rank`).
    ``bound`` is the claimed constant K of the state inequality
    s_C(gamma(a, b)) <= min(K * s_A(a) * s_B(b), 1).
    """

    left: State
    right: State
    codomain: State
    table: tuple[tuple[Element, ...], ...]
    bound: Optional[int]


def apply_bilinear(gamma: BilinearMap, a: Element, b: Element) -> Element:
    if a.algebra != gamma.left.algebra or b.algebra != gamma.right.algebra:
        raise InputError("arguments do not match the bilinear map's domains")
    return gamma.table[core.rank(a)][core.rank(b)]


def bilinear_map(
    left: State,
    right: State,
    codomain: State,
    fn: Callable[[Element, Element], Element],
    bound: Optional[int] = None,
) -> BilinearMap:
    """Materialize ``fn`` over the finite domains and validate it.

    The linearity of both slots and the claimed bound are verified by
    `check_bilinear`; a map that fails is refused.  A table meant to be
    broken is a `BilinearMap` built directly, which `check_bilinear`
    then judges.
    """
    rows = lambda lefts, rights: tuple(tuple(fn(a, b) for b in rights) for a in lefts)
    return _validated_map(left, right, codomain, rows, bound)


def _validated_map(left: State, right: State, codomain: State, rows, bound) -> BilinearMap:
    """The table ``rows(lefts, rights)`` of the finite domains, refused unless checked bilinear."""
    for s in (left, right):
        if not core.is_finite(s.algebra):
            raise InputError("bilinear tables need finite domains")
    if codomain.measure is None:
        raise InputError(
            "a bilinear map's codomain needs a state with an atom measure; "
            "Chang's first coordinate has none"
        )
    lefts, rights = core.enumerate_carrier(left.algebra), core.enumerate_carrier(right.algebra)
    gamma = BilinearMap(left, right, codomain, rows(lefts, rights), bound)
    report = check_bilinear(gamma)
    if not report.passed:
        raise InputError(f"not bilinear: {report.witnesses[0]['check']}")
    return gamma


def _atom_images(gamma: BilinearMap) -> tuple[tuple[Fraction, ...], ...]:
    """The ambient vectors of gamma(1_x, 1_y), read at `core.atom_indicator_elements`,
    over the atom pairs (x, y) in lexicographic order."""
    rights = core.atom_indicator_elements(gamma.right.algebra)
    return tuple(
        core.ambient_vector(apply_bilinear(gamma, ex, ey))
        for ex in core.atom_indicator_elements(gamma.left.algebra) for ey in rights
    )


def _columns(images) -> tuple[tuple[tuple[int, ...], int], ...]:
    """At each codomain atom, the images' values there over their lcm, and that lcm."""
    return tuple([over_lcm(column) for column in zip(*images)])


def _combines_to(columns, pairs, vector) -> bool:
    """Whether ``vector``, as pairs (x, e), is sum_k pairs[k] * images[k], the images read
    at their `_columns` and the (x, d) ``pairs`` summed by `weighted_sum`, compared by
    cross-multiplication."""
    sums = (weighted_sum(weights, pairs) + (common,) for weights, common in columns)
    return len(columns) == len(vector) and all(
        t * e == x * c * d for (t, d, c), (x, e) in zip(sums, vector)
    )


def _witness(check: str, *elements: Element) -> dict:
    return {"check": (check, *map(core.format_element, elements))}


def check_bilinear(gamma: BilinearMap) -> Verdict:
    """Verify slotwise linearity and the map's bound if it has one.

    On a product of chains a table is linear in each slot iff, at every
    pair (a, b), gamma(a, b) = sum_{x,y} a(x) * b(y) * gamma(1_x, 1_y) in
    the codomain's ambient: a sums n * a(x) summable copies of
    (1/n) * 1_x in either slot, and such a form, its images >= 0, adds
    every defined partial sum.  Two `verdict.sweep` stages, both counted
    as ``checks``, take the pairs in rank order: linearity, then the
    bound.  A failure's witness is ``{"check": (law, *element texts)}``
    with the arguments in (left, right) order.  Linearity sums the
    `_pairing` of a and b by the atom-pair images' integer `_columns`; the
    bound compares the `states._evaluate` pairs of s_A(a) and s_B(b), read
    once per element, and of each value by cross-multiplication.
    """
    lefts = core.enumerate_carrier(gamma.left.algebra)
    rights = core.enumerate_carrier(gamma.right.algebra)
    bound, width = gamma.bound, len(rights)
    if len(gamma.table) != len(lefts) or any(len(row) != width for row in gamma.table):
        raise InputError(f"a bilinear table needs {len(lefts)} rows of {width} values")
    if any(value.algebra != gamma.codomain.algebra for row in gamma.table for value in row):
        raise InputError("bilinear values must land in the codomain algebra")
    columns = _columns(_atom_images(gamma))

    def nonlinear():
        vs = [core.ambient_pairs(b) for b in rights]
        for i, (a, row) in enumerate(zip(lefts, gamma.table)):
            u = core.ambient_pairs(a)
            for j, (v, value) in enumerate(zip(vs, row)):
                if not _combines_to(columns, _pairing(u, v), core.ambient_pairs(value)):
                    yield i * width + j, _witness("linearity", a, rights[j])

    def levels(s, elements):
        return [states._evaluate(s, e.code) for e in elements]

    def over_bound():  # value t / f > min(bound * x / d * y / e, 1)
        right_levels = levels(gamma.right, rights)
        for i, (a, (x, d), row) in enumerate(zip(lefts, levels(gamma.left, lefts), gamma.table)):
            for j, ((y, e), (t, f)) in enumerate(zip(right_levels, levels(gamma.codomain, row))):
                if t > f or t * d * e > bound * x * y * f:
                    yield i * width + j, _witness("bound", a, rights[j])

    stages = [("checks", len(lefts) * width, nonlinear())]
    if bound is not None:
        below_one = [(-1, {"check": ("bound", str(bound))})]
        stages.append(("checks", len(lefts) * width, below_one if bound < 1 else over_bound()))
    return sweep(stages)


# ---------------------------------------------------------------------------
# Built-in bilinear maps
# ---------------------------------------------------------------------------


def beta_bilinear(space: ProductSpace) -> BilinearMap:
    """The pairing itself as a bilinear map: `beta`, each element represented once."""

    def rows(lefts, rights):
        vs = [_represented(space.right, b) for b in rights]
        us = (_represented(space.left, a) for a in lefts)
        return tuple(tuple([_paired(space, u, v) for v in vs]) for u in us)

    return _validated_map(space.left.state, space.right.state, space.state, rows, bound=1)


def table_bilinear(
    space: ProductSpace,
    codomain: State,
    entries: tuple[tuple[tuple[tuple, tuple], Element], ...],
    bound: Optional[int],
) -> BilinearMap:
    """The map given by explicit ((left, right) codes, value element) entries, as
    `documents` parses them: an argument pair is looked up by its codes."""
    lookup = dict(entries)

    def fn(a: Element, b: Element) -> Element:
        if (a.code, b.code) not in lookup:
            raise InputError(
                f"bilinear table misses ({core.format_element(a)}, {core.format_element(b)})"
            )
        return lookup[(a.code, b.code)]

    return bilinear_map(space.left.state, space.right.state, codomain, fn, bound=bound)


def state_product_bilinear(space: ProductSpace) -> BilinearMap:
    """(a, b) -> the constant s_A(a) * s_B(b) on a one-atom algebra."""
    left, right = space.left.state, space.right.state
    target = core.function_algebra(("pt",))
    cod = states.measure_state(target, DiscreteMeasure(("pt",), (ONE,)))
    return bilinear_map(
        left,
        right,
        cod,
        lambda a, b: Element(
            target, (states.eval_state(left, a) * states.eval_state(right, b),)
        ),
        bound=1,
    )


def left_scaling_bilinear(space: ProductSpace) -> BilinearMap:
    """(a, b) -> s_B(b) scaled copy of the represented left element."""
    rep_a, right = space.left, space.right.state
    return bilinear_map(
        rep_a.state,
        right,
        rep_a.image,
        lambda a, b: core.scalar_mul(
            states.eval_state(right, b), representation.represent(rep_a, a)
        ),
        bound=1,
    )


# ---------------------------------------------------------------------------
# Divisible extensions
# ---------------------------------------------------------------------------


class AtomLinearMap(_Record):
    """A rational-linear map off a function algebra, given on atom indicators.

    ``images[x]`` is the image of the indicator of atom x, so applying
    the map is one rational combination: f = sum_x f(x) * 1_x, summed
    on the images' integer ``columns``, held once.
    """

    domain: Algebra
    codomain: Algebra
    images: tuple[tuple[Fraction, ...], ...]

    @functools.cached_property
    def columns(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return _columns(self.images)


def apply_atom_linear(omega: AtomLinearMap, h: Element) -> Element:
    if h.algebra != omega.domain:
        raise InputError("argument does not live on the map's domain")
    sums = [(weighted_sum(weights, h.code), common) for weights, common in omega.columns]
    return Element(omega.codomain, tuple([Fraction(t, c * d) for (t, d), c in sums]))


def extend_bilinear_divisible(gamma: BilinearMap) -> AtomLinearMap:
    """The divisible extension of a bounded bilinear map, as a linear map.

    Bilinearity fixes the extension at the indicator pairs: (f, g) goes
    to sum_{x,y} f(x) g(y) * gamma(1_x, 1_y), which is the linear map
    off the function algebra on the pair atoms (x,y) of the two hulls
    whose image at the indicator of (x,y) is the ambient image of gamma
    at the sources in `core.atom_indicator_elements`: the atom images
    `check_bilinear` checks the table against, so the extension agrees
    with gamma at every pair of its domains.  It keeps the bound of gamma.
    """
    if gamma.bound is None:
        raise InputError("only bounded bilinear maps extend to the hulls")
    left = core.divisible_ambient(gamma.left.algebra)
    right = core.divisible_ambient(gamma.right.algebra)
    domain = core.function_algebra(_pair_atoms(core.atoms_of(left), core.atoms_of(right)))
    codomain = core.divisible_ambient(gamma.codomain.algebra)
    return AtomLinearMap(domain, codomain, _atom_images(gamma))


# ---------------------------------------------------------------------------
# Factorization through the product space
# ---------------------------------------------------------------------------


def factorize(
    gamma: BilinearMap, space: ProductSpace, rep_c: MeasureRepresentation
) -> AtomLinearMap:
    """The linear map omega off ``space.state.algebra`` completing the pairing triangle.

    The space's representations must be of gamma's domain states and
    ``rep_c`` of its codomain state, all three faithful.  On the
    indicator of an atom pair omega takes the represented value
    of gamma at the indicator sources; rational linearity then
    determines it on the whole product algebra, and composing with the
    pairing recovers gamma exactly.  The bound omega must keep is
    gamma's, which `verify_factorization` reads from gamma.
    """
    if gamma.bound is None:
        raise InputError("factorization needs a bounded map")
    for rep, s in ((space.left, gamma.left), (space.right, gamma.right), (rep_c, gamma.codomain)):
        if rep.state != s:
            raise InputError("representations must be built from the map's states")
        if not rep.injective:
            raise InputError("factorization needs faithful states")
    images = tuple(
        core.ambient_vector(representation.represent(rep_c, apply_bilinear(gamma, ex, ey)))
        for ex in space.left.atom_elements
        for ey in space.right.atom_elements
    )
    return AtomLinearMap(space.state.algebra, rep_c.target, images)


def verify_factorization(
    omega: AtomLinearMap,
    space: ProductSpace,
    gamma: BilinearMap,
    rep_c: MeasureRepresentation,
    samples: int = 200,
    seed: int = 0,
) -> Verdict:
    """Certify ``omega = factorize(gamma, space, rep_c)``: triangle, linearity, bound, uniqueness.

    The triangle sums the `_pairing` of each pair by omega's ``columns``.
    The bound is gamma's.  Uniqueness is certified on the rational span:
    an independently constructed candidate (through the divisible
    extension of gamma, a different computation route) must agree on
    every atom indicator and then on sampled rational combinations.
    Each check is a `verdict.sweep` stage, linearity and the bound on the
    same seeded sums h + h2.  A failure's witness is ``{"check": (stage, *texts)}``.
    """
    rng = seeded(seed, samples)
    sc, product = rep_c.image, space.state.algebra
    lefts = core.enumerate_carrier(gamma.left.algebra)
    rights = core.enumerate_carrier(gamma.right.algebra)
    draws = []  # (h, h2) with h2 <= not h, so h + h2 is a defined partial sum
    for _ in range(samples):
        h = random_element(rng, product)
        room = core.ambient_vector(core.neg(h))
        draws.append((h, Element(product, tuple(random_unit(rng) * v for v in room))))
    spans = [random_element(rng, product) for _ in range(samples)]
    ext = extend_bilinear_divisible(gamma)
    alternate = tuple(tuple([image[x] for x in rep_c.keep]) for image in ext.images)
    candidate = AtomLinearMap(omega.domain, omega.codomain, alternate)

    def triangle():
        if (omega.domain, omega.codomain) != (product, rep_c.target):
            raise InputError("omega must map the product algebra to rep_c's target")
        vs = [_represented(space.right, b) for b in rights]
        for i, a in enumerate(lefts):
            u, row = _represented(space.left, a), gamma.table[i]
            for j, v in enumerate(vs):
                image = representation.represent(rep_c, row[j]).code
                if not _combines_to(omega.columns, _pairing(u, v), image):
                    yield i * len(vs) + j, _witness("triangle", a, rights[j])

    nonlinear = (
        (position, _witness("linearity", h, h2))
        for position, (h, h2) in enumerate(draws)
        if core.partial_add(apply_atom_linear(omega, h), apply_atom_linear(omega, h2))
        != apply_atom_linear(omega, core.oplus(h, h2))
    )
    over_bound = (
        (position, _witness("bound", h))
        for position, (h, _) in enumerate(draws)
        if states.eval_state(sc, apply_atom_linear(omega, h))
        > min(gamma.bound * states.eval_state(space.state, h), ONE)
    )
    indicators = zip(space.state.measure.atoms, omega.images, candidate.images)
    disagreements = (
        (i, {"check": ("indicator-agreement", atom)})
        for i, (atom, image, other) in enumerate(indicators)
        if image != other
    )
    span_disagreements = (
        (position, _witness("span-agreement", h))
        for position, h in enumerate(spans)
        if apply_atom_linear(omega, h) != apply_atom_linear(candidate, h)
    )
    stages = [
        ("pairs_checked", len(lefts) * len(rights), triangle()),
        ("linearity_checks", samples, nonlinear),
        ("bound_checks", samples, over_bound),
        ("uniqueness_checks", len(omega.images), disagreements),
        ("uniqueness_checks", samples, span_disagreements),
    ]
    return sweep(stages, seed)


def verify_universal_factorization(
    left: State,
    right: State,
    make_gamma: Callable[[ProductSpace], BilinearMap],
    samples: int,
    seed: int,
) -> Verdict:
    """Factor a bounded bilinear map through the pairing and certify it.

    ``make_gamma`` builds the map from the product space of ``left`` and
    ``right``, which represents each state once.  A missing seed or an
    out-of-range ``samples`` is refused before any of that work, and a
    state that is not faithful before the map's table is built.
    """
    seeded(seed, samples)
    space = product_space(left, right)
    if not (space.left.injective and space.right.injective):
        raise InputError("factorization needs faithful states")
    gamma = make_gamma(space)
    rep_c = representation.embed_l1(gamma.codomain.algebra, gamma.codomain)
    omega = factorize(gamma, space, rep_c)
    return verify_factorization(omega, space, gamma, rep_c, samples, seed)
