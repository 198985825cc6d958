"""Golden reports: every exit-0/1 command of acceptance criterion 9,
compared byte-for-byte with the report recorded in ``fixtures/golden``.

A change that alters any byte of a report (a metric key, a witness
shape, the draw order of a seeded sweep) fails here.
"""

from pathlib import Path

import pytest

from mvprob import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
DOC = str(FIXTURES / "basic.json")

# golden file stem -> (exit code, argv)
COMMANDS = {
    "check-axioms-chain3": (0, ("check-axioms", DOC, "chain3", "--level", "MV")),
    "check-axioms-mod4": (1, ("check-axioms", DOC, "mod4", "--level", "MV")),
    "check-axioms-U-sample": (0, ("--seed", "7", "check-axioms", DOC, "U", "--level", "fMV",
                                  "--mode", "sample", "--count", "400")),
    "state-eval-s-f1": (0, ("state", DOC, "eval", "s", "f1")),
    "state-faithful-sdirac": (1, ("state", DOC, "faithful", "sdirac")),
    "state-metric-schain": (0, ("state", DOC, "metric", "schain")),
    "state-quotient-sc": (0, ("state", DOC, "quotient", "sc")),
    "spectra-ideals-B": (0, ("spectra", DOC, "ideals", "B")),
    "spectra-radical-chain3": (0, ("spectra", DOC, "radical", "chain3")),
    "spectra-semisimple-C": (1, ("spectra", DOC, "semisimple", "C")),
    "embed-C-sc": (0, ("embed", DOC, "C", "sc")),
    "moments-check-leb": (0, ("moments", DOC, "check", "leb")),
    "moments-check-bad": (1, ("moments", DOC, "check", "bad")),
    "moments-of-measure-grid": (0, ("moments", DOC, "of-measure", "grid", "--order", "4")),
    "moments-reconstruct-leb": (0, ("moments", DOC, "reconstruct", "leb", "--grid", "2")),
    "moments-fit-bad": (1, ("moments", DOC, "fit", "bad", "--grid", "3")),
    "holder-s-f1-f2": (0, ("holder", DOC, "s", "f1", "f2", "--p", "2", "--q", "2")),
    "product-build-mu-nu": (0, ("product", DOC, "build", "mu", "nu")),
    "product-verify-independence-sB-schain": (
        0, ("product", DOC, "verify-independence", "sB", "schain")),
    "product-factorize-sB-schain-gbeta": (
        0, ("--seed", "5", "product", DOC, "factorize", "sB", "schain", "gbeta")),
}


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_report_matches_golden(stem, capsys):
    code, argv = COMMANDS[stem]
    assert cli.main(list(argv)) == code
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.json").read_text()
