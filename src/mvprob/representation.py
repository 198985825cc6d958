"""The integral representation pipeline.

The pipeline sends an algebra with a state through the radical quotient,
into the divisible hull, and then through the state quotient; the result
is a function algebra with a strictly positive measure in which the
state is integration.  The map it produces is injective exactly when the
state is faithful, and it preserves products and scalars whenever the
source signature has them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional

from . import core, states
from .axioms import random_element, seeded
from .core import Algebra, Chang, Element, FunctionAlgebra
from .errors import InputError, UnsupportedCarrierError
from .rationals import ONE, ZERO
from .states import DiscreteMeasure, State
from .verdict import Verdict

# ---------------------------------------------------------------------------
# States <-> measures on finite function algebras
# ---------------------------------------------------------------------------


def kroupa_panti(s: State) -> DiscreteMeasure:
    """Recover the unique measure representing a state on a function algebra.

    Atom indicators are 0/1-valued, hence carrier members for every value
    chain, and linearity forces the weight of an atom to be the state of
    its indicator.
    """
    carrier = s.algebra.carrier
    if not isinstance(carrier, FunctionAlgebra):
        raise InputError("measure recovery needs a function algebra")
    weights = tuple(
        states.eval_state(s, core.indicator(s.algebra, atom))
        for atom in carrier.atoms
    )
    if sum(weights) != ONE:
        raise AssertionError("a linear state assigns total weight 1 to the atoms")
    return DiscreteMeasure(carrier.atoms, weights)


# ---------------------------------------------------------------------------
# The measure representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureRepresentation:
    source: Algebra
    state: State
    measure: DiscreteMeasure  # strictly positive weights
    target: Algebra  # function algebra over the rational interval
    atom_elements: tuple[Element, ...]  # sources of the atom indicators
    injective: bool
    collapse_chang: bool
    keep: tuple[int, ...]  # surviving ambient coordinates


def represent(rep: MeasureRepresentation, a: Element) -> Element:
    """Apply the representation map."""
    if a.algebra != rep.source:
        raise InputError("element does not belong to the represented algebra")
    if rep.collapse_chang:
        flat = ZERO if a.payload.side == core.LOWER else ONE
        vector: tuple[Fraction, ...] = (flat,)
    else:
        vector = core.ambient_vector(a)
    return Element(rep.target, tuple(vector[i] for i in rep.keep))


def embed_l1(algebra: Algebra, s: State) -> MeasureRepresentation:
    """Run the representation pipeline for ``(algebra, s)``.

    Afterwards ``sum represent(rep, a)(x) * mu(x) == eval_state(s, a)``
    holds with zero tolerance for every element, and the map is
    injective iff ``s`` is faithful.
    """
    if s.algebra != algebra:
        raise InputError("state does not live on the given algebra")
    carrier = algebra.carrier

    if isinstance(carrier, Chang):
        # radical quotient first: the two-element algebra with the factored state
        base = core.finite_chain(1)
        factored = states.table_state(base, {ZERO: ZERO, ONE: ONE})
        collapse = True
        injective_so_far = False
    elif isinstance(carrier, (core.FiniteChain, FunctionAlgebra)):
        base, factored, collapse, injective_so_far = algebra, s, False, True
    else:
        raise UnsupportedCarrierError(f"no representation for carrier {carrier!r}")

    extended = states.extend_state_divisible(factored)
    full = extended.rule.measure
    keep = tuple(i for i, w in enumerate(full.weights) if w != ZERO)
    injective = injective_so_far and len(keep) == len(full.atoms)

    atoms = tuple(full.atoms[i] for i in keep)
    mu = DiscreteMeasure(atoms, tuple(full.weights[i] for i in keep))
    target = core.function_algebra(atoms)
    sources = [core.one(algebra)] if collapse else core.atom_indicator_elements(base)

    rep = MeasureRepresentation(
        source=algebra,
        state=s,
        measure=mu,
        target=target,
        atom_elements=tuple(sources[i] for i in keep),
        injective=injective,
        collapse_chang=collapse,
        keep=keep,
    )
    if injective != states.is_faithful(s).passed:
        raise AssertionError("the representation is injective iff the state is faithful")
    return rep


def integral(rep: MeasureRepresentation, a: Element) -> Fraction:
    """Integrate the represented element against the measure."""
    image = represent(rep, a)
    return sum(
        (v * w for v, w in zip(image.payload, rep.measure.weights)), ZERO
    )


def verify_embedding(
    algebra: Algebra, s: State, samples: int, seed: Optional[int] = None
) -> Verdict:
    """Check the integral identity of ``embed_l1(algebra, s)``.

    It is checked on `core.sweep_elements`, or on ``samples`` seeded
    elements of the other infinite carriers.  The result is the
    representing measure.
    """
    rep = embed_l1(algebra, s)
    sweep = core.sweep_elements(algebra)
    if sweep is None:
        rng = seeded(seed, samples)
        sweep = [random_element(rng, algebra) for _ in range(samples)]
    else:
        seed = None
    counts = {"elements_checked": len(sweep)}
    for a in sweep:
        if integral(rep, a) != states.eval_state(s, a):
            return Verdict("fail", [{"element": a}], counts, seed)
    counts.update(injective=rep.injective, faithful=states.is_faithful(s).passed)
    return Verdict("pass", [], counts, seed, rep.measure)


# ---------------------------------------------------------------------------
# Morphism checks for the richer signatures
# ---------------------------------------------------------------------------


def verify_morphism_extras(
    rep: MeasureRepresentation,
    level: str,
    mapper: Optional[Callable[[Element], Element]] = None,
    samples: int = 200,
    seed: int = 0,
) -> Verdict:
    """Confirm the map preserves products (PMV) and scalars (fMV).

    ``mapper`` overrides the representation map; fixtures use it to
    inject corrupted maps as negative controls.
    """
    if level not in ("PMV", "fMV"):
        raise InputError("level must be PMV or fMV")
    if not rep.source.internal_product:
        raise InputError("source algebra has no internal product")
    f = mapper if mapper is not None else (lambda a: represent(rep, a))

    if core.is_finite(rep.source):
        pool = core.enumerate_carrier(rep.source)
        pairs = [(a, b) for a in pool for b in pool]
    else:
        rng = Random(seed)
        pairs = [
            (random_element(rng, rep.source), random_element(rng, rep.source))
            for _ in range(samples)
        ]

    checks = 0
    for a, b in pairs:
        checks += 1
        if f(core.prod(a, b)) != core.prod(f(a), f(b)):
            witness = ("product", core.format_element(a), core.format_element(b))
            return Verdict("fail", [{"check": witness}], {"checks": checks}, seed)
    if level == "fMV":
        if not rep.source.scalar_action:
            raise InputError("fMV check needs a scalar action on the source")
        rng = Random(seed + 1)
        for _ in range(samples):
            a = random_element(rng, rep.source)
            alpha = Fraction(rng.randint(0, 60), 60)
            checks += 1
            if f(core.scalar_mul(alpha, a)) != core.scalar_mul(alpha, f(a)):
                witness = ("scalar", str(alpha), core.format_element(a))
                return Verdict("fail", [{"check": witness}], {"checks": checks}, seed)
    return Verdict("pass", [], {"checks": checks}, seed)
