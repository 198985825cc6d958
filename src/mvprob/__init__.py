"""Exact-rational toolkit for many-valued algebras and their probability.

The package covers four carriers (the rational unit interval, finite
chains, finite function algebras, and the Chang algebra), states and
their pseudo-metrics, ideals and radicals, measure representations,
the classical moment condition with constructive reconstruction, and
product couplings with a universal factorization.
Everything computes in exact rational arithmetic.

The namespace is lazy (PEP 562): ``import mvprob`` loads no submodule,
and a public name imports its defining module on first access.  Without
a bytecode cache every process compiles each module it imports, so
loading only what is used keeps a CLI command's start-up short: the CLI
imports a checker module (`axioms`, `spectra`, `analysis`, ...) in the
handler that runs it, and `states` imports `spectra` only to build a
quotient.  For the same reason no module imports `dataclasses`, which loads `inspect`: the
records derive from the private `core._Record`, and a command loads from
the standard library only what the modules import by name (`argparse`,
`json`, `fractions`, `random`, `re`, `pathlib`, `typing` and a few more).
"""

import importlib

# defining module -> the public names it contributes; every module is public too
_EXPORTS = {
    "analysis": (
        "MomentSequence", "check_hausdorff", "grid_measure", "hausdorff_reconstruct",
        "holder_check", "moment_fit_lp", "moment_sequence", "moments_of_measure",
    ),
    "axioms": ("check_axioms",),
    "core": (
        "Algebra", "Chang", "ChangPair", "Element", "FiniteChain", "FunctionAlgebra",
        "StandardUnit", "TableAlgebra", "chang", "dist", "element", "finite_chain",
        "function_algebra", "indicator", "join", "leq", "lower", "meet", "neg", "odot", "one",
        "oplus", "partial_add", "prod", "scalar_mul", "standard_unit", "upper", "zero",
    ),
    "errors": ("InputError", "UnsupportedCarrierError"),
    "independence": (
        "BilinearMap", "ProductSpace", "beta", "beta_bilinear", "bilinear_map", "check_bilinear",
        "extend_bilinear_divisible", "factorize", "left_scaling_bilinear", "product_space",
        "state_product_bilinear", "tensor", "verify_factorization",
    ),
    "rationals": (),
    "representation": (
        "MeasureRepresentation", "embed_l1", "integral", "represent", "verify_morphism_extras",
    ),
    "spectra": (
        "Ideal", "ideal", "ideal_contains", "ideals", "is_semisimple", "maximal_ideals",
        "quotient", "radical",
    ),
    "states": (
        "DiscreteMeasure", "State", "chang_state", "eval_state", "identity_state", "is_faithful",
        "measure", "measure_state", "rho", "state_quotient", "table_state",
    ),
    "verdict": ("Verdict",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
