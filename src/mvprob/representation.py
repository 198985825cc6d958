"""The integral representation.

The paper's proof takes the radical quotient, the divisible hull and the
state quotient of the hull: a function algebra with a strictly positive
measure in which the state is integration.  Here each step reads the
state's measure.  The radical is trivial off Chang (on Chang it is the
first coordinate's null ideal, onto the 1-chain: x0 of weight 1), the
hull extension of a state is its atom measure, and the state quotient
drops the atoms of weight 0.  So the map keeps an element's values at
the atoms of positive weight.  It is injective exactly when the state is
faithful, and it preserves products and scalars whenever the source
signature has them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import core, states
from .core import Algebra, Element, _Record, random_element, seeded
from .errors import InputError
from .rationals import ONE, _below
from .states import DiscreteMeasure, State
from .verdict import Verdict, sweep

# ---------------------------------------------------------------------------
# The measure representation
# ---------------------------------------------------------------------------


class MeasureRepresentation(_Record):
    """The map's image state and kept atoms, and the sources of the target's atom indicators."""

    source: Algebra
    state: State
    image: State  # the strictly positive weights on the function algebra of the kept atoms
    keep: tuple[int, ...]  # the indices of the divisible ambient's atoms of positive weight
    atom_elements: tuple[Element, ...]

    @property
    def measure(self) -> DiscreteMeasure:  # strictly positive weights
        return self.image.measure

    @property
    def target(self) -> Algebra:  # function algebra over the rational interval
        return self.image.algebra

    @property
    def injective(self) -> bool:  # no atom was dropped, and the source is not Chang
        return self.image.measure == self.state.measure


def represent(rep: MeasureRepresentation, a: Element) -> Element:
    """Apply the representation map."""
    if a.algebra != rep.source:
        raise InputError("element does not belong to the represented algebra")
    return core.ambient_element(a, rep.target, rep.keep)


def embed_l1(algebra: Algebra, s: State) -> MeasureRepresentation:
    """The representation of ``(algebra, s)``, read off the state's measure.

    Afterwards ``sum represent(rep, a)(x) * mu(x) == eval_state(s, a)``
    holds with zero tolerance for every element, and the map is
    injective iff ``s`` is faithful.
    """
    if s.algebra != algebra:
        raise InputError("state does not live on the given algebra")
    if s.measure is None:  # Chang: the first coordinate's null ideal is the radical
        atoms, weights, sources = (core.CHAIN_HULL_ATOM,), (ONE,), [core.one(algebra)]
    else:  # chains and function algebras are semisimple; no other carrier has atoms
        atoms, weights = s.measure.atoms, s.measure.weights
        sources = core.atom_indicator_elements(algebra)
    keep = tuple(x for x, w in enumerate(weights) if w)
    kept = tuple(atoms[x] for x in keep)
    image = states.measure_state(
        core.function_algebra(kept), DiscreteMeasure(kept, tuple(weights[x] for x in keep))
    )
    rep = MeasureRepresentation(algebra, s, image, keep, tuple(sources[x] for x in keep))
    if rep.injective != states.is_faithful(s).passed:
        raise AssertionError("the representation is injective iff the state is faithful")
    return rep


def integral(rep: MeasureRepresentation, a: Element) -> Fraction:
    """Integrate the represented element against the measure: the target's state."""
    return states.eval_state(rep.image, represent(rep, a))


def verify_embedding(
    algebra: Algebra, s: State, samples: int, seed: Optional[int] = None
) -> Verdict:
    """Check the integral identity of ``embed_l1(algebra, s)``.

    It is checked on `core.sweep_elements`, or on ``samples`` seeded
    elements of the other infinite carriers.  The result is the
    representing measure.
    """
    rep = embed_l1(algebra, s)
    elements = core.sweep_elements(algebra)
    if elements is None:
        rng = seeded(seed, samples)
        elements = [random_element(rng, algebra) for _ in range(samples)]
    else:
        seed = None
    failures = (
        (position, {"element": a})
        for position, a in enumerate(elements)
        if integral(rep, a) != states.eval_state(s, a)
    )
    verdict = sweep([("elements_checked", len(elements), failures)], seed)
    if not verdict.passed:
        return verdict
    verdict.metrics.update(injective=rep.injective, faithful=states.is_faithful(s).passed)
    return Verdict("pass", [], verdict.metrics, seed, rep.measure)


# ---------------------------------------------------------------------------
# Morphism checks for the richer signatures
# ---------------------------------------------------------------------------


def verify_morphism_extras(
    rep: MeasureRepresentation,
    level: str,
    samples: int = 200,
    seed: int = 0,
) -> Verdict:
    """Confirm the map preserves products (PMV) and scalars (fMV).

    Products are checked on every pair of a finite source, and the
    verdict then carries no seed, or on ``samples`` seeded pairs of an
    infinite one; scalars on ``samples`` seeded draws.  Every argument
    is checked before the first product.
    """
    if level not in ("PMV", "fMV"):
        raise InputError("level must be PMV or fMV")
    if not rep.source.internal_product:
        raise InputError("source algebra has no internal product")
    if level == "fMV" and not rep.source.scalar_action:
        raise InputError("fMV check needs a scalar action on the source")

    if core.is_finite(rep.source):  # no finite carrier has a scalar action
        pool = core.enumerate_carrier(rep.source)
        pairs = [(a, b) for a in pool for b in pool]
        seed = None
    else:
        rng = seeded(seed, samples)
        pairs = [
            (random_element(rng, rep.source), random_element(rng, rep.source))
            for _ in range(samples)
        ]

    products = (
        (position, {"check": ("product", core.format_element(a), core.format_element(b))})
        for position, (a, b) in enumerate(pairs)
        if represent(rep, core.prod(a, b)) != core.prod(represent(rep, a), represent(rep, b))
    )
    stages = [("checks", len(pairs), products)]
    if level == "fMV":
        scalar_rng = seeded(seed + 1, samples)
        draws = (
            (random_element(scalar_rng, rep.source), Fraction(_below(scalar_rng, 61), 60))
            for _ in range(samples)
        )
        scalars = (
            (position, {"check": ("scalar", str(alpha), core.format_element(a))})
            for position, (a, alpha) in enumerate(draws)
            if represent(rep, core.scalar_mul(alpha, a))
            != core.scalar_mul(alpha, represent(rep, a))
        )
        stages.append(("checks", samples, scalars))
    return sweep(stages, seed)
