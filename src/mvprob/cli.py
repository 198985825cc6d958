"""Batch front-end.

Every command loads a document, resolves the names it is given, calls
one library function and prints the `Verdict` it returns as a report
on standard output: command echo, verdict, witnesses (never empty on a
fail), check counts, and the seed when sampling was involved.  Reports
are canonical JSON with rationals rendered as p/q strings, so identical
input and seed give byte-identical output.  Diagnostics go to standard
error.  Exit codes: 0 pass, 1 failed verification (fail, infeasible, or
inconclusive verdicts), 2 input or schema errors or an unwritable
``--out`` (the file is written first), 3 an internal error: one
``internal error:`` line and no report.  Each call builds two parsers from
the `_COMMANDS` table: the globals and the command, then the command's own.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

# every command needs this closure (documents pulls in states); a handler
# imports what only it runs, so a process compiles no module its command
# does not use
from . import core, documents, states
from .core import LEVELS, Algebra, Element, TableAlgebra
from .errors import InputError
from .rationals import DEFAULT_PRECISION, format_rational, parse_rational
from .states import DiscreteMeasure
from .verdict import Verdict

DEFAULT_SAMPLE_COUNT = 10_000  # draws of `check-axioms --mode sample`


def _json_form(value):
    # the JSON form of a value a verdict may hold that JSON has no type for
    if isinstance(value, Element):
        return core.format_element(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, DiscreteMeasure):
        return {"atoms": value.atoms, "weights": value.weights}
    if isinstance(value, Algebra):
        return documents.serialize_algebra(value)
    from . import spectra  # loaded already if the verdict holds an Ideal

    if isinstance(value, spectra.Ideal):
        return spectra.listing(value)
    raise TypeError(f"a report cannot hold a {type(value).__name__}")


def render_report(command: str, verdict: Verdict) -> str:
    """The canonical JSON report of ``verdict`` under the echo ``command``."""
    payload = {
        "command": command,
        "verdict": verdict.verdict,
        "witnesses": verdict.witnesses,
        "metrics": verdict.metrics,
        "seed": verdict.seed,
    }
    if verdict.result is not None:
        payload["result"] = verdict.result
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_form) + "\n"


# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------


def _load_document(path: str) -> documents.Document:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read document {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"document {path} is not UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"document {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer beyond the interpreter's int/str digit limit
        raise InputError(
            f"document {path} has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    return documents.parse_document(raw)


def _named(section: dict, name: str, what: str):
    if name not in section:
        raise InputError(f"unknown {what} {name!r}")
    return section[name]


def _bilinear_constructor(doc: documents.Document, name: str, left: str, right: str):
    """How to build the named map, declared on ``left``, ``right``, from their product space."""
    from . import independence

    spec = _named(doc.bilinear, name, "bilinear map")
    if (spec.left, spec.right) != (left, right):
        raise InputError(
            f"bilinear map {name!r} is declared on ({spec.left}, {spec.right}), "
            f"not on ({left}, {right})"
        )
    if spec.kind == "table":
        if spec.bound is None:  # refused before its n_A x n_B table is built
            raise InputError("factorization needs a bounded map")
        codomain = doc.states[spec.codomain]
        return lambda space: independence.table_bilinear(space, codomain, spec.entries, spec.bound)
    return {
        "beta": independence.beta_bilinear,
        "state-product": independence.state_product_bilinear,
        "left-scaling": independence.left_scaling_bilinear,
    }[spec.kind]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_check_axioms(doc: documents.Document, args) -> Verdict:
    from . import axioms

    target = _named(doc.algebras, args.algebra, "algebra")
    samples = args.count if args.mode == "sample" else None
    return axioms.check_axioms(target, args.level, samples, args.seed)


def _cmd_state(doc: documents.Document, args) -> Verdict:
    s = _named(doc.states, args.state, "state")
    if args.action == "eval":
        if args.element is None:
            raise InputError("state eval needs an element name")
        value = states.eval_state(s, _named(doc.elements, args.element, "element"))
        return Verdict("pass", [], {"checks": 1}, None, {"value": value})
    if args.action == "faithful":
        return states.is_faithful(s)
    if args.action == "metric":
        return states.verify_metric(s, args.samples, args.seed)
    return states.verify_quotient(s)


def _cmd_spectra(doc: documents.Document, args) -> Verdict:
    from . import spectra

    algebra = _named(doc.algebras, args.algebra, "algebra")
    if isinstance(algebra, TableAlgebra):
        raise InputError("spectra commands need a carrier algebra, not a table")
    if args.action == "ideals":
        found, maximal = spectra.ideals(algebra), spectra.maximal_ideals(algebra)
        counts = {"ideals": len(found), "maximal": len(maximal)}
        return Verdict("pass", [], counts, None, {"ideals": found, "maximal": maximal})
    if args.action == "radical":
        return Verdict("pass", [], {"checks": 1}, None, {"radical": spectra.radical(algebra)})
    return spectra.verify_semisimple(algebra)


def _cmd_embed(doc: documents.Document, args) -> Verdict:
    from . import representation

    algebra = _named(doc.algebras, args.algebra, "algebra")
    s = _named(doc.states, args.state, "state")
    return representation.verify_embedding(algebra, s, args.samples, args.seed)


def _cmd_moments(doc: documents.Document, args) -> Verdict:
    from . import analysis

    if args.action == "of-measure":
        mu = _named(doc.measures, args.name, "measure")
        return analysis.verify_measure_moments(mu, args.order)
    m = analysis.MomentSequence(_named(doc.moments, args.name, "moment sequence"))
    if args.action == "check":
        return analysis.check_hausdorff(m)
    if args.action == "reconstruct":
        return analysis.verify_reconstruction(m, args.grid)
    return analysis.moment_fit_lp(m, args.grid)


def _cmd_holder(doc: documents.Document, args) -> Verdict:
    from . import analysis

    s = _named(doc.states, args.state, "state")
    a = _named(doc.elements, args.left, "element")
    b = _named(doc.elements, args.right, "element")
    p, q = parse_rational(args.p), parse_rational(args.q)
    return analysis.holder_check(s, a, b, p, q, precision=args.precision)


def _cmd_product(doc: documents.Document, args) -> Verdict:
    from . import independence

    if args.action == "build":
        mu_a = _named(doc.measures, args.left, "measure")
        mu_b = _named(doc.measures, args.right, "measure")
        return independence.verify_marginals(mu_a, mu_b)
    s_a = _named(doc.states, args.left, "state")
    s_b = _named(doc.states, args.right, "state")
    if args.action == "verify-independence":
        return independence.verify_independence(s_a, s_b)
    if args.gamma is None:
        raise InputError("product factorize needs a bilinear map name")
    construct = _bilinear_constructor(doc, args.gamma, args.left, args.right)
    return independence.verify_universal_factorization(s_a, s_b, construct, args.samples, args.seed)


# command: {argument: (its selector, the choices of the selector that read it)}
_READ_ONLY_BY = {
    "check-axioms": {"--count": ("mode", ("sample",))},
    "state": {"element": ("action", ("eval",)), "--samples": ("action", ("metric",))},
    "moments": {"--order": ("action", ("of-measure",)),
                "--grid": ("action", ("reconstruct", "fit"))},
    "product": {"gamma": ("action", ("factorize",)), "--samples": ("action", ("factorize",))},
}


def _echo(args) -> str:
    """The command as the report echoes it: no document path, no global flag, no sample
    count, and only the arguments that the chosen action (or mode) reads, in their order.
    An argument it does not read is refused unless at its default: the echo drops it."""
    words, only_by = [args.command], _READ_ONLY_BY.get(args.command, {})
    for name, spec in _COMMANDS[args.command][1].items():
        value = getattr(args, name.lstrip("-"))
        selector, readers = only_by.get(name, ("command", [args.command]))
        read = getattr(args, selector) in readers
        if not read and value != spec.get("default"):
            what = {"element": "element name", "gamma": "bilinear map name"}.get(name, name)
            chosen = args.action if hasattr(args, "action") else f"--mode {args.mode}"
            raise InputError(f"{args.command} {chosen} takes no {what}")
        if read and name != "--samples":
            words += [name, value] if name.startswith("--") else [value]
    return " ".join(map(str, words))


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


# `--seed`, `--out` and `--precision`, accepted before or after the command
_GLOBALS = {
    "--seed": {"type": int, "help": "seed for sampling commands"},
    "--out": {"help": "also write the report to this path"},
    "--precision": {"type": int, "default": DEFAULT_PRECISION,
                    "help": "enclosure width in bits for interval comparisons"},
}

# command: (help line, the arguments after the document with their add_argument keywords)
_COMMANDS = {
    "check-axioms": ("verify algebra laws", {
        "algebra": {}, "--level": {"choices": LEVELS, "default": "MV"},
        "--mode": {"choices": ("exhaustive", "sample"), "default": "exhaustive"},
        "--count": {"type": int, "default": DEFAULT_SAMPLE_COUNT},
    }),
    "state": ("state evaluation and verification", {
        "action": {"choices": ("eval", "faithful", "metric", "quotient")},
        "state": {}, "element": {"nargs": "?"}, "--samples": {"type": int, "default": 1000},
    }),
    "spectra": ("ideals, radical, semisimplicity", {
        "action": {"choices": ("ideals", "radical", "semisimple")}, "algebra": {},
    }),
    "embed": ("measure representation and integral identity", {
        "algebra": {}, "state": {}, "--samples": {"type": int, "default": 500},
    }),
    "moments": ("moment sequence analysis", {
        "action": {"choices": ("check", "of-measure", "reconstruct", "fit")},
        "name": {}, "--order": {"type": int, "default": 4}, "--grid": {"type": int, "default": 2},
    }),
    "holder": ("power-mean inequality check", {
        "state": {}, "left": {}, "right": {}, "--p": {"required": True}, "--q": {"required": True},
    }),
    "product": ("product spaces and factorization", {
        "action": {"choices": ("build", "verify-independence", "factorize")},
        "left": {}, "right": {}, "gamma": {"nargs": "?"}, "--samples": {"type": int, "default": 200},
    }),
}


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    """Parse ``argv`` with two parsers: the globals and the command, then the command's own.

    The first parser takes the command and the rest of argv as argparse's
    subparsers do (``nargs=PARSER``), so usage, errors and the namespace
    are those of one parser with a subparser per command.
    """
    parser = argparse.ArgumentParser(
        prog="mvprob",
        description="Exact verification of many-valued algebra, state, moment, and\n"
        "independence identities.",
        epilog="commands:\n"
        + "".join(f"  {name:<14}{line}\n" for name, (line, _) in _COMMANDS.items())
        + "\n`mvprob <command> -h` lists a command's arguments.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for flag, spec in _GLOBALS.items():
        parser.add_argument(flag, **spec)
    parser.add_argument(
        "command", nargs=argparse.PARSER, choices=_COMMANDS, help="a command, then its arguments"
    )
    args, extras = parser.parse_known_args(argv)
    args.command, *rest = args.command
    line, arguments = _COMMANDS[args.command]
    command = argparse.ArgumentParser(prog=f"mvprob {args.command}", description=line)
    # args holds every global already, so no default resets one given before the command
    for name, spec in {**_GLOBALS, "doc": {}, **arguments}.items():
        command.add_argument(name, **spec)
    args, more = command.parse_known_args(rest, args)
    if extras or more:
        parser.error(f"unrecognized arguments: {' '.join(extras + more)}")
    return args


_HANDLERS = {
    "check-axioms": _cmd_check_axioms,
    "state": _cmd_state,
    "spectra": _cmd_spectra,
    "embed": _cmd_embed,
    "moments": _cmd_moments,
    "holder": _cmd_holder,
    "product": _cmd_product,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        command = _echo(args)  # refuses an argument the echo would drop
        doc = _load_document(args.doc)
        verdict = _HANDLERS[args.command](doc, args)
        text = render_report(command, verdict)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must never pass for a verdict or a bad input
        import traceback  # a command that does not crash does not pay for this import

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(frame.filename).name}:{frame.lineno}"
        print(f"internal error: {exc!r} at {where}", file=sys.stderr)
        return 3
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return 0 if verdict.passed else 1
