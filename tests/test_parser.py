"""The command-line parser against the one-parser-per-command tree it replaced.

`reference_parser` builds every subcommand's parser on each call, with the
global flags declared twice; `cli._parse_args` builds only the invoked
command's.  Valid argv must give equal namespaces, and invalid argv the
same exit code and the same error text.
"""

import argparse
import contextlib
import io
import re

import pytest

from mvprob import cli
from mvprob.cli import DEFAULT_SAMPLE_COUNT
from mvprob.core import LEVELS
from mvprob.rationals import DEFAULT_PRECISION


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvprob",
        description="Exact verification of many-valued algebra, state, moment, "
        "and independence identities.",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for sampling commands")
    parser.add_argument("--out", default=None, help="also write the report to this path")
    parser.add_argument(
        "--precision",
        type=int,
        default=DEFAULT_PRECISION,
        help="enclosure width in bits for interval comparisons",
    )
    globals_parser = argparse.ArgumentParser(add_help=False)
    globals_parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    globals_parser.add_argument("--out", default=argparse.SUPPRESS)
    globals_parser.add_argument("--precision", type=int, default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="verify algebra laws", parents=[globals_parser])
    p.add_argument("doc")
    p.add_argument("algebra")
    p.add_argument("--level", choices=LEVELS, default="MV")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--count", type=int, default=DEFAULT_SAMPLE_COUNT)

    p = sub.add_parser("state", help="state evaluation and verification", parents=[globals_parser])
    p.add_argument("doc")
    p.add_argument("action", choices=("eval", "faithful", "metric", "quotient"))
    p.add_argument("state")
    p.add_argument("element", nargs="?")
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("spectra", help="ideals, radical, semisimplicity", parents=[globals_parser])
    p.add_argument("doc")
    p.add_argument("action", choices=("ideals", "radical", "semisimple"))
    p.add_argument("algebra")

    p = sub.add_parser("embed", help="measure representation and integral identity", parents=[globals_parser])
    p.add_argument("doc")
    p.add_argument("algebra")
    p.add_argument("state")
    p.add_argument("--samples", type=int, default=500)

    p = sub.add_parser("moments", help="moment sequence analysis", parents=[globals_parser])
    p.add_argument("doc")
    p.add_argument("action", choices=("check", "of-measure", "reconstruct", "fit"))
    p.add_argument("name")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--grid", type=int, default=2)

    p = sub.add_parser("holder", help="power-mean inequality check", parents=[globals_parser])
    p.add_argument("doc")
    p.add_argument("state")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = sub.add_parser("product", help="product spaces and factorization", parents=[globals_parser])
    p.add_argument("doc")
    p.add_argument(
        "action", choices=("build", "verify-independence", "factorize")
    )
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("gamma", nargs="?")
    p.add_argument("--samples", type=int, default=200)

    return parser


def _reference_commands() -> dict[str, tuple[argparse.ArgumentParser, str]]:
    """Each reference subcommand's parser and help line."""
    (subparsers,) = [
        action for action in reference_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    lines = {choice.dest: choice.help for choice in subparsers._choices_actions}
    return {name: (parser, lines[name]) for name, parser in subparsers.choices.items()}


def _outcome(parse, argv):
    """What ``parse(argv)`` does: its namespace, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


VALID = [
    # every command and action
    "check-axioms d A",
    "check-axioms d A --level PMV --mode sample --count 5",
    "check-axioms d A --level=fMV --mode=exhaustive",
    "state d eval s f1",
    "state d faithful s",
    "state d metric s --samples 3",
    "state d quotient s",
    "spectra d ideals B",
    "spectra d radical B",
    "spectra d semisimple B",
    "embed d F s",
    "embed d F s --samples 7",
    "moments d check m",
    "moments d of-measure g --order 3",
    "moments d reconstruct m --grid 4",
    "moments d fit m",
    "holder d s a b --p 2 --q 2",
    "holder d s a b --q=3/2 --p=3",
    "product d build mu nu",
    "product d verify-independence a b",
    "product d factorize a b g --samples 9",
    # the globals before and after the command, and mixed
    "--seed 1 state d metric s",
    "state d metric s --seed 1",
    "state --seed 1 d metric s",
    "--out o.json --precision 96 holder d s a b --p 3 --q 3/2",
    "holder d s a b --p 3 --q 3/2 --out o.json --precision 96",
    "--out o.json holder d s a b --precision 96 --p 3 --q 3/2",
    "--seed=3 check-axioms d A --mode sample",
    "check-axioms d A --mode sample --seed=3",
    # a repeated global: the last one given wins
    "--seed 1 --seed 2 embed d F s",
    "--seed 1 embed d F s --seed 2",
    "embed d F s --seed 1 --seed 2",
    # abbreviations
    "--pre 8 holder d s a b --p 3 --q 3/2",
    "holder d s a b --p 3 --q 3/2 --pre 8",
    "--se 4 state d metric s --sam 5",
    # absent optional positionals, and values that look like commands
    "product d build a b",
    "state d eval s",
    "--out state state d eval s x",
    "state state eval state state",
    "moments moments check moments",
    # negative numbers and the end of options
    "--seed -1 state d metric s",
    "state d metric s --samples -5",
    "state d eval -- s f1",
]

INVALID = [
    "",
    "bogus d",
    "--seed",
    "--seed x state d eval s",
    "state d eval s --seed x",
    "--seed 1.5 state d eval s",
    "holder d s a b --q 2",
    "holder d s a b",
    "check-axioms d A --level XX",
    "check-axioms d A --mode fast",
    "check-axioms d A --count many",
    "state d evaluate s",
    "state",
    "state d eval",
    "state d eval s f1 extra",
    "product d factorize a b g extra more",
    "--bogus state d eval s",
    "state d eval s --bogus",
    "--bogus state d eval s f1 extra",
    "--p 3 holder d s a b",
    "spectra d ideals",
    "moments d check m --order",
    "-- state d eval s f1",  # argparse reads "--" as the command
]


@pytest.mark.parametrize("line", VALID)
def test_valid_argv_gives_the_reference_namespace(line):
    argv = line.split()
    expected = _outcome(reference_parser().parse_args, argv)
    assert isinstance(expected, dict), expected
    assert _outcome(cli._parse_args, argv) == expected


@pytest.mark.parametrize("line", INVALID)
def test_invalid_argv_exits_2_with_the_reference_error(line):
    argv = line.split()
    code, out, err = _outcome(reference_parser().parse_args, argv)
    assert code == 2 and out == ""
    assert _outcome(cli._parse_args, argv) == (code, out, err)
    assert "error: " in err


def test_the_valid_table_reaches_every_command_and_action():
    reached = set()
    for line in VALID:
        args = reference_parser().parse_args(line.split())
        reached.add((args.command, getattr(args, "action", None)))
    expected = set()
    for name, (parser, _) in _reference_commands().items():
        actions = [action.choices for action in parser._actions if action.dest == "action"]
        expected |= {(name, action) for action in (actions[0] if actions else [None])}
    assert reached == expected


def test_the_main_help_lists_every_command_with_its_help_line():
    code, out, err = _outcome(cli._parse_args, ["-h"])
    assert (code, err) == (0, "")
    for name, (_, line) in _reference_commands().items():
        assert re.search(rf"^  {name} +{re.escape(line)}$", out, re.M), name
    for flag in ("--seed", "--out", "--precision"):
        assert flag in out


@pytest.mark.parametrize("command", list(_reference_commands()))
def test_a_command_help_lists_its_options(command):
    code, out, err = _outcome(cli._parse_args, [command, "-h"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: mvprob {command} ")
    reference = _reference_commands()[command][0].format_help()
    flags = set(re.findall(r"--[a-z]+", reference))
    assert flags and flags == set(re.findall(r"--[a-z]+", out))
    for positional in re.findall(r"^  ([a-z]+)$", reference, re.M):
        assert re.search(rf"^  {positional}$", out, re.M), positional


def test_main_returns_0_after_help(capsys):
    assert cli.main(["-h"]) == 0
    assert cli.main(["holder", "-h"]) == 0
    assert "usage: mvprob holder" in capsys.readouterr().out
