"""The integral representation pipeline.

The pipeline sends an algebra with a state through the radical quotient,
into the divisible hull, and then through the state quotient; the result
is a function algebra with a strictly positive measure in which the
state is integration.  On a function algebra that measure is the one
`states.extend_state_divisible` gives, restricted to its atoms of
positive weight.  The map it produces is injective exactly when the
state is faithful, and it preserves products and scalars whenever the
source signature has them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import core, states
from .core import Algebra, Chang, Element, _Record, random_element, seeded
from .errors import InputError
from .states import DiscreteMeasure, State
from .verdict import Verdict, sweep

# ---------------------------------------------------------------------------
# The measure representation
# ---------------------------------------------------------------------------


class MeasureRepresentation(_Record):
    """The pipeline's steps, and the sources of the target's atom indicators."""

    source: Algebra
    state: State
    radical: states.StateQuotient  # onto a semisimple algebra; the identity off Chang
    hull: Algebra  # the divisible hull of the radical quotient
    quotient: states.StateQuotient  # of the hull by the extended state's null ideal
    atom_elements: tuple[Element, ...]
    injective: bool  # both quotients are identities

    @property
    def measure(self) -> DiscreteMeasure:  # strictly positive weights
        return self.quotient.state.measure

    @property
    def target(self) -> Algebra:  # function algebra over the rational interval
        return self.quotient.algebra


def represent(rep: MeasureRepresentation, a: Element) -> Element:
    """Apply the representation map."""
    if a.algebra != rep.source:
        raise InputError("element does not belong to the represented algebra")
    return rep.quotient.project(core.ambient_element(rep.radical.project(a)))


def embed_l1(algebra: Algebra, s: State) -> MeasureRepresentation:
    """Run the representation pipeline for ``(algebra, s)``.

    Afterwards ``sum represent(rep, a)(x) * mu(x) == eval_state(s, a)``
    holds with zero tolerance for every element, and the map is
    injective iff ``s`` is faithful.
    """
    if s.algebra != algebra:
        raise InputError("state does not live on the given algebra")
    if isinstance(algebra.carrier, Chang):
        # the null ideal of the first-coordinate state is the radical
        radical = states.state_quotient(algebra, s)
        sources = [core.one(algebra)]
    else:  # chains and function algebras are semisimple; no other carrier has atoms
        radical = states.identity_quotient(algebra, s)
        sources = core.atom_indicator_elements(algebra)

    # on the hull every state is a measure, so its quotient drops null atoms
    extended = states.extend_state_divisible(radical.state)
    hull = extended.algebra
    quotient = states.state_quotient(hull, extended)
    source_of = dict(zip(core.atoms_of(hull), sources))
    rep = MeasureRepresentation(
        source=algebra,
        state=s,
        radical=radical,
        hull=hull,
        quotient=quotient,
        atom_elements=tuple(source_of[x] for x in core.atoms_of(quotient.algebra)),
        injective=radical.algebra == algebra and quotient.algebra == hull,
    )
    if rep.injective != states.is_faithful(s).passed:
        raise AssertionError("the representation is injective iff the state is faithful")
    return rep


def integral(rep: MeasureRepresentation, a: Element) -> Fraction:
    """Integrate the represented element against the measure: the target's state."""
    return states.eval_state(rep.quotient.state, represent(rep, a))


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

    def f(a: Element) -> Element:
        return represent(rep, a)

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
        if f(core.prod(a, b)) != core.prod(f(a), f(b))
    )
    stages = [("checks", len(pairs), products)]
    if level == "fMV":
        scalar_rng = seeded(seed + 1, samples)
        draws = (
            (random_element(scalar_rng, rep.source), Fraction(scalar_rng.randint(0, 60), 60))
            for _ in range(samples)
        )
        scalars = (
            (position, {"check": ("scalar", str(alpha), core.format_element(a))})
            for position, (a, alpha) in enumerate(draws)
            if f(core.scalar_mul(alpha, a)) != core.scalar_mul(alpha, f(a))
        )
        stages.append(("checks", samples, scalars))
    return sweep(stages, seed)
