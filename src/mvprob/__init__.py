"""Exact-rational toolkit for many-valued algebras and their probability.

The package covers four carriers (the rational unit interval, finite
chains, finite function algebras, and the Chang algebra), states and
their pseudo-metrics, ideals and radicals, measure representations,
the classical moment condition with constructive reconstruction, and
product couplings with a universal factorization.
Everything computes in exact rational arithmetic.
"""

from .analysis import (
    DeltaTable,
    MomentSequence,
    check_hausdorff,
    delta_table,
    grid_measure,
    hausdorff_reconstruct,
    holder_check,
    moment_fit_lp,
    moment_sequence,
    moments_of_measure,
)
from .axioms import Exhaustive, Sample, check_axioms
from .core import (
    Algebra,
    Chang,
    ChangPair,
    Element,
    FiniteChain,
    FunctionAlgebra,
    StandardUnit,
    TableAlgebra,
    chang,
    dist,
    element,
    finite_chain,
    function_algebra,
    indicator,
    join,
    leq,
    lower,
    meet,
    nat_mul,
    nat_oplus,
    neg,
    odot,
    one,
    oplus,
    partial_add,
    prod,
    scalar_mul,
    standard_unit,
    upper,
    zero,
)
from .errors import InputError, NoLimitError, UnsupportedCarrierError
from .independence import (
    BilinearMap,
    ProductSpace,
    beta,
    beta_bilinear,
    bilinear_map,
    check_bilinear,
    extend_bilinear_divisible,
    extend_bilinear_stabilizing,
    extend_linear_divisible,
    factorize,
    left_scaling_bilinear,
    linear_map,
    lipschitz_check,
    product_space,
    state_product_bilinear,
    tensor,
    verify_factorization,
)
from .representation import (
    MeasureRepresentation,
    embed_l1,
    integral,
    kroupa_panti,
    represent,
    verify_morphism_extras,
)
from .spectra import (
    Ideal,
    ideal,
    ideal_contains,
    ideals,
    is_semisimple,
    maximal_ideals,
    quotient,
    radical,
)
from .states import (
    DiscreteMeasure,
    State,
    chang_state,
    eval_state,
    extend_state_divisible,
    identity_state,
    is_faithful,
    measure,
    measure_state,
    rho,
    sequence_limit,
    state_quotient,
    table_state,
)
from .verdict import Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
