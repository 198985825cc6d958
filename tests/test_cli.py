"""End-to-end command tests: verdicts, exit codes, determinism."""

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvprob import analysis, cli, core, spectra

FIXTURES = Path(__file__).parent / "fixtures"
DOC = str(FIXTURES / "basic.json")
DIGIT_LIMIT = sys.get_int_max_str_digits()  # CPython's int/str conversion limit


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "mvprob", *args],
        capture_output=True,
        text=True,
    )


def report_of(result):
    return json.loads(result.stdout)


# a command line that reaches each handler on the fixture
HANDLER_ARGV = {
    "check-axioms": ("check-axioms", DOC, "chain3"),
    "embed": ("--seed", "5", "embed", DOC, "F", "s"),
    "holder": ("holder", DOC, "s", "f1", "f2", "--p", "2", "--q", "2"),
    "moments": ("moments", DOC, "check", "leb"),
    "product": ("product", DOC, "build", "mu", "nu"),
    "spectra": ("spectra", DOC, "ideals", "B"),
    "state": ("state", DOC, "eval", "s", "f1"),
}


class TestExitCodes:
    def test_pass_is_zero(self):
        result = run("check-axioms", DOC, "chain3", "--level", "MV")
        assert result.returncode == 0
        assert report_of(result)["verdict"] == "pass"

    def test_verification_failure_is_one(self):
        result = run("check-axioms", DOC, "mod4", "--level", "MV")
        assert result.returncode == 1
        report = report_of(result)
        assert report["verdict"] == "fail"
        assert report["witnesses"]  # fail verdicts always carry a witness

    def test_unresolved_name_is_two(self):
        result = run("check-axioms", DOC, "missing", "--level", "MV")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unknown algebra" in result.stderr

    def test_schema_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"measures": {"m": {"atoms": ["x"], "weights": ["0.5"]}}}')
        result = run("moments", str(bad), "check", "m")
        assert result.returncode == 2

    def test_missing_file_is_two(self):
        result = run("moments", "no-such-file.json", "check", "leb")
        assert result.returncode == 2

    def test_usage_error_is_two(self):
        result = run("check-axioms")
        assert result.returncode == 2

    def test_every_handler_has_a_command_line(self):
        assert set(HANDLER_ARGV) == set(cli._HANDLERS)

    @pytest.mark.parametrize("command", sorted(HANDLER_ARGV))
    def test_an_internal_error_is_three_with_no_report(self, command, monkeypatch, capsys):
        def crash(doc, args):
            raise ZeroDivisionError("planted")

        monkeypatch.setitem(cli._HANDLERS, command, crash)
        assert cli.main(list(HANDLER_ARGV[command])) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: ZeroDivisionError('planted') at test_cli.py:")
        assert err.count("\n") == 1

    def test_sampling_without_seed_is_two(self):
        result = run("check-axioms", DOC, "U", "--level", "fMV", "--mode", "sample")
        assert result.returncode == 2
        assert "--seed" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [  # check-axioms: test_sampling_without_seed_is_two
            ("state", DOC, "metric", "s", "--samples", "5"),
            ("embed", DOC, "F", "s", "--samples", "5"),
            ("product", DOC, "factorize", "sB", "schain", "gbeta", "--samples", "5"),
        ],
        ids=["state-metric", "embed", "product-factorize"],
    )
    def test_a_sampling_command_without_a_seed_names_the_flag(self, argv, capsys):
        assert cli.main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: this command samples; pass --seed\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--seed", "1", "--samples", "0"), "sample count must be positive"),
            (("--samples", "5"), "this command samples; pass --seed"),
        ],
        ids=["bad-samples", "no-seed"],
    )
    def test_factorize_refuses_its_sampling_arguments_before_any_work(
        self, flags, message, monkeypatch, capsys
    ):
        from mvprob import representation

        def no_work(*args):
            raise AssertionError("embed_l1 ran before the arguments were checked")

        monkeypatch.setattr(representation, "embed_l1", no_work)
        assert cli.main(["product", DOC, "factorize", "sB", "schain", "gbeta", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infeasible_is_one(self):
        result = run("moments", DOC, "fit", "bad", "--grid", "4")
        assert result.returncode == 1
        assert report_of(result)["verdict"] == "infeasible"

    def test_reconstruct_on_violating_sequence_is_input_error(self):
        result = run("moments", DOC, "reconstruct", "bad", "--grid", "2")
        assert result.returncode == 2
        assert "condition" in result.stderr

    def test_bad_exponents_are_input_errors(self):
        result = run("holder", DOC, "s", "f1", "f2", "--p", "2", "--q", "5")
        assert result.returncode == 2
        result = run("holder", DOC, "s", "f1", "f2", "--p", "0.5", "--q", "2")
        assert result.returncode == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("check-axioms", DOC, "chain3", "--level", "MV"),
            ("--seed", "7", "check-axioms", DOC, "U", "--level", "fMV",
             "--mode", "sample", "--count", "300"),
            ("state", DOC, "eval", "s", "f1"),
            ("state", DOC, "metric", "schain"),
            ("--seed", "3", "state", DOC, "metric", "s", "--samples", "50"),
            ("spectra", DOC, "ideals", "B"),
            ("embed", DOC, "C", "sc"),
            ("--seed", "5", "embed", DOC, "F", "s", "--samples", "40"),
            ("moments", DOC, "check", "leb"),
            ("moments", DOC, "of-measure", "grid", "--order", "3"),
            ("moments", DOC, "reconstruct", "leb", "--grid", "2"),
            ("moments", DOC, "fit", "varmax", "--grid", "1"),
            ("holder", DOC, "s", "f1", "f2", "--p", "2", "--q", "2"),
            ("holder", DOC, "s", "f1", "f2", "--p", "3", "--q", "3/2"),
            ("product", DOC, "build", "mu", "nu"),
            ("product", DOC, "verify-independence", "sB", "schain"),
            ("--seed", "11", "product", DOC, "factorize", "sB", "schain", "gbeta"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, args):
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
        assert first.returncode in (0, 1)

    def test_seed_is_echoed(self):
        result = run(
            "--seed", "7", "check-axioms", DOC, "U",
            "--level", "fMV", "--mode", "sample", "--count", "200",
        )
        assert report_of(result)["seed"] == 7


class TestCommandBehaviour:
    def test_eval_result(self):
        result = run("state", DOC, "eval", "s", "f2")
        assert report_of(result)["result"]["value"] == "1/2"

    def test_faithful_witness(self):
        result = run("state", DOC, "faithful", "sdirac")
        report = report_of(result)
        assert report["verdict"] == "fail"
        assert report["witnesses"][0]["element"] == "(0,1)"

    def test_faithful_witness_of_a_finite_measure_state(self, tmp_path):
        # 3 atoms over the 2-chain, weights (1, 0, 0): the first null element
        # in rank order, not the indicator of the first null atom
        doc = {
            "algebras": {"T": {"kind": "function", "atoms": ["x", "y", "z"], "value": 2}},
            "measures": {"d": {"atoms": ["x", "y", "z"], "weights": ["1", "0", "0"]}},
            "states": {"t": {"algebra": "T", "rule": "measure", "measure": "d"}},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = run("state", str(path), "faithful", "t")
        assert result.returncode == 1, result.stderr
        report = report_of(result)
        assert report["verdict"] == "fail"
        assert report["witnesses"] == [{"element": "(0,0,1/2)"}]

    def test_quotient_reports_completeness(self):
        result = run("state", DOC, "quotient", "sc")
        report = report_of(result)
        assert report["verdict"] == "pass"
        assert report["metrics"]["complete"] is True
        assert report["result"]["algebra"]["kind"] == "chain"

    def test_quotient_of_a_non_faithful_table_state_above_64_elements(self, tmp_path):
        # the 8-chain squared has 81 elements; s(a) = a(x) is null on y
        levels = [str(F(j, 8)) for j in range(9)]
        values = {f"({a},{b})": a for a in levels for b in levels}
        doc = {
            "algebras": {"Q": {"kind": "function", "atoms": ["x", "y"], "value": 8}},
            "states": {"t": {"algebra": "Q", "rule": "table", "values": values}},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = run("state", str(path), "quotient", "t")
        assert result.returncode == 0, result.stderr
        report = report_of(result)
        assert report["metrics"] == {"checks": 81, "complete": True}
        assert report["result"]["algebra"]["kind"] == "chain"
        assert report["result"]["algebra"]["n"] == 8

    def test_spectra_semisimple_chang_fails(self):
        result = run("spectra", DOC, "semisimple", "C")
        assert result.returncode == 1

    @pytest.mark.parametrize("algebra, zero", [("F", "(0,0)"), ("U", "0")])
    def test_spectra_radical_of_an_infinite_semisimple_carrier_is_zero(self, algebra, zero):
        result = run("spectra", DOC, "radical", algebra)
        assert (result.returncode, result.stderr) == (0, "")
        report = report_of(result)
        assert report["verdict"] == "pass"
        assert report["result"]["radical"] == [zero]
        assert run("spectra", DOC, "semisimple", algebra).returncode == 0

    @pytest.mark.parametrize("algebra", ["F", "U"])
    def test_spectra_ideals_still_refuse_infinite_carriers(self, algebra):
        result = run("spectra", DOC, "ideals", algebra)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: ideal machinery needs a finite carrier\n"

    def test_embed_notes_injectivity(self):
        result = run("embed", DOC, "C", "sc")
        report = report_of(result)
        assert report["verdict"] == "pass"
        assert report["metrics"]["injective"] is False
        assert report["metrics"]["faithful"] is False

    def test_embed_standard_unit(self):
        result = run("--seed", "1", "embed", DOC, "U", "su")
        assert result.returncode == 0, result.stderr
        report = report_of(result)
        assert report["result"] == {"atoms": ["x0"], "weights": ["1"]}
        assert report["metrics"] == {
            "elements_checked": 500, "faithful": True, "injective": True
        }

    def test_independence_identity_count(self):
        result = run("product", DOC, "verify-independence", "sB", "schain")
        report = report_of(result)
        assert report["verdict"] == "pass"
        assert report["metrics"]["identities_checked"] == 16

    def test_factorize_all_gammas(self):
        for gamma in ("gbeta", "gprod", "gscale"):
            result = run(
                "--seed", "2", "product", DOC, "factorize", "sB", "schain", gamma
            )
            assert result.returncode == 0, result.stderr
            assert report_of(result)["verdict"] == "pass"

    def test_reconstruct_result(self):
        result = run("moments", DOC, "reconstruct", "leb", "--grid", "2")
        report = report_of(result)
        assert report["result"]["weights"] == ["1/3", "1/3", "1/3"]

    def test_out_flag_duplicates_stdout(self, tmp_path):
        out = tmp_path / "report.json"
        result = run("moments", DOC, "check", "leb", "--out", str(out))
        assert result.returncode == 0
        assert out.read_text() == result.stdout

    def test_an_unwritable_out_leaves_stdout_empty(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        result = run("--out", str(out), "state", DOC, "eval", "s", "f1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert result.stderr.count("\n") == 1 and not out.exists()

    def test_rationals_never_decimal(self):
        result = run("moments", DOC, "of-measure", "grid", "--order", "4")
        assert "." not in json.dumps(report_of(result)["result"])

    def test_holder_inconclusive_exit(self, tmp_path):
        doc = {
            "algebras": {"F": {"kind": "function", "atoms": ["x", "y"]}},
            "elements": {"third": {"algebra": "F", "values": ["1/3", "1/3"]}},
            "measures": {"mu": {"atoms": ["x", "y"], "weights": ["1/2", "1/2"]}},
            "states": {"s": {"algebra": "F", "rule": "measure", "measure": "mu"}},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = run("holder", str(path), "s", "third", "third", "--p", "3", "--q", "3/2")
        assert result.returncode == 1
        assert report_of(result)["verdict"] == "inconclusive"


class TestInputBoundary:
    @pytest.mark.parametrize(
        "doc",
        [
            {"algebras": []},
            {
                "algebras": {"C": {"kind": "chang"}},
                "states": {"t": {"algebra": "C", "rule": "table", "values": {"lower(x)": "0"}}},
            },
            {"algebras": {"F": {"kind": "function", "atoms": "xy"}}},
            {"algebras": {"c": {"kind": "chain", "n": True}}},
            {
                "algebras": {"C": {"kind": "chang"}},
                "elements": {"e": {"algebra": "C", "side": "lower", "k": True}},
            },
        ],
    )
    def test_malformed_document_is_an_input_error(self, doc, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = run("moments", str(path), "check", "leb")
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("--seed", "1", "state", DOC, "metric", "s", "--samples", "0"),
            ("--seed", "1", "embed", DOC, "F", "s", "--samples", "-3"),
            ("--seed", "1", "product", DOC, "factorize", "sB", "schain", "gbeta", "--samples", "0"),
        ],
        ids=["state-metric", "embed", "product-factorize"],
    )
    def test_non_positive_sample_count_is_an_input_error(self, argv):
        result = run(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: sample count must be positive\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--seed", "1", "check-axioms", DOC, "U", "--level", "MV", "--mode", "sample",
             "--count", str(core.MAX_SAMPLES + 1)),
            ("--seed", "1", "state", DOC, "metric", "s", "--samples", str(core.MAX_SAMPLES + 1)),
            ("--seed", "1", "embed", DOC, "F", "s", "--samples", str(core.MAX_SAMPLES + 1)),
            ("--seed", "1", "product", DOC, "factorize", "sB", "schain", "gbeta",
             "--samples", str(core.MAX_SAMPLES + 1)),
        ],
        ids=["check-axioms", "state-metric", "embed", "product-factorize"],
    )
    def test_sample_count_above_its_budget_is_an_input_error(self, argv):
        result = run(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: sample count must be at most {core.MAX_SAMPLES}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-axioms", DOC, "U", "--level", "fMV", "--mode", "sample"),
            ("state", DOC, "metric", "s", "--samples", "5"),
            ("embed", DOC, "F", "s", "--samples", "5"),
            ("product", DOC, "factorize", "sB", "schain", "gbeta", "--samples", "5"),
        ],
        ids=["check-axioms", "state-metric", "embed", "product-factorize"],
    )
    def test_a_negative_seed_is_an_input_error_before_any_draw(self, argv, monkeypatch, capsys):
        # Random(-s) draws what Random(s) draws: two report seeds, one sweep
        def no_generator(seed):
            raise AssertionError("a generator was made before the seed was checked")

        monkeypatch.setattr(core, "Random", no_generator)
        assert cli.main(["--seed", "-5", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must be non-negative\n"

    def test_moment_order_above_its_budget_is_an_input_error(self):
        result = run("moments", DOC, "of-measure", "grid", "--order", str(analysis.MAX_ORDER + 1))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: order must be between 0 and {analysis.MAX_ORDER}\n"

    def test_moment_sequence_at_its_length_budget_runs(self, tmp_path):
        # the moments of the Dirac mass at 1/2, m_0 to m_512
        path = tmp_path / "doc.json"
        values = ["1"] + [f"1/{2**k}" for k in range(1, analysis.MAX_ORDER + 1)]
        path.write_text(json.dumps({"moments": {"m": values}}))
        result = run("moments", str(path), "check", "m")
        assert result.returncode == 0
        assert report_of(result)["verdict"] == "pass"

    def test_moment_sequence_above_its_length_budget_is_an_input_error(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"moments": {"m": ["1"] * (analysis.MAX_ORDER + 2)}}))

        def no_rows(m):
            raise AssertionError("a difference row was built")

        monkeypatch.setattr(analysis, "_delta_rows", no_rows)
        code = cli.main(["moments", str(path), "check", "m"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: a moment sequence has at most {analysis.MAX_ORDER + 1} entries\n"
        )

    @pytest.mark.parametrize("precision", [-3, 0, analysis.MAX_PRECISION + 1])
    def test_precision_outside_its_budget_is_an_input_error(self, precision):
        result = run("holder", DOC, "s", "f1", "f2", "--p", "3", "--q", "3/2",
                     "--precision", str(precision))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: precision must be between 1 and {analysis.MAX_PRECISION} bits\n"
        )

    @pytest.mark.parametrize(
        "p,q", [("65/64", "65"), ("65", "65/64"), ("200001/200000", "200001")]
    )
    def test_exponent_above_its_budget_is_an_input_error(self, p, q):
        # unrefused, the last pair took over a minute of root-finding
        result = run("holder", DOC, "s", "f1", "f2", "--p", p, "--q", q)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: exponent numerators and denominators must be at most "
            f"{analysis.MAX_EXPONENT}\n"
        )

    def test_exponent_at_its_budget_runs(self):
        result = run("--precision", "8", "holder", DOC, "s", "f1", "f2",
                     "--p", f"{analysis.MAX_EXPONENT}/{analysis.MAX_EXPONENT - 1}",
                     "--q", str(analysis.MAX_EXPONENT))
        assert result.returncode == 0
        report = report_of(result)
        assert report["verdict"] == "pass" and report["metrics"]["precision"] == 8

    def test_ideal_listing_above_its_budget_is_an_input_error(self, tmp_path):
        n = spectra.MAX_LISTED - 1  # the ideals of the n-chain take n + 2 member texts
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"algebras": {"c": {"kind": "chain", "n": n}}}))
        result = run("spectra", str(path), "ideals", "c")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: listing every ideal takes {n + 2} member texts; "
            f"the budget is {spectra.MAX_LISTED}\n"
        )

    def test_factorize_refuses_states_the_map_is_not_declared_on(self):
        # gbeta is declared on (sB, schain)
        result = run("--seed", "2", "product", DOC, "factorize", "schain", "sB", "gbeta")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "(sB, schain)" in result.stderr and "(schain, sB)" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            (
                {
                    "algebras": {"c": {"kind": "chain", "n": 1}, "C": {"kind": "chang"}},
                    "states": {
                        "t": {"algebra": "c", "rule": "table", "values": {"0": "0", "1": "1"}},
                        "sc": {"algebra": "C", "rule": "first-coordinate"},
                    },
                    "bilinear": {
                        "g": {
                            "kind": "table", "left": "t", "right": "t", "codomain": "sc",
                            "bound": 1,
                            "entries": {
                                "0;0": "lower(0)", "0;1": "lower(0)",
                                "1;0": "lower(0)", "1;1": "upper(0)",
                            },
                        }
                    },
                },
                ["--seed", "1", "product", "@", "factorize", "t", "t", "g"],
                "a bilinear map's codomain needs a state with an atom measure; "
                "Chang's first coordinate has none",
            ),
            (
                {
                    "measures": {
                        "mu": {"atoms": ["a,b", "a"], "weights": ["1/2", "1/2"]},
                        "nu": {"atoms": ["c", "b,c"], "weights": ["1/2", "1/2"]},
                    }
                },
                ["product", "@", "build", "mu", "nu"],
                "pair atoms ('a,b', 'c') and ('a', 'b,c') are both spelled '(a,b,c)'",
            ),
        ],
        ids=["chang-codomain", "colliding-pair-atoms"],
    )
    def test_a_product_without_atom_pairs_is_refused(self, doc, argv, message, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main([str(path) if arg == "@" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_too_deeply_nested_document_is_an_input_error(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        result = run("moments", str(path), "check", "leb")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_non_utf8_document_is_an_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))  # a UTF-16 byte-order mark
        result = run("state", str(path), "eval", "s", "x")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: document {path} is not UTF-8: ")
        assert "Traceback" not in result.stderr

    def test_document_integer_beyond_the_digit_limit_is_an_input_error(self, tmp_path):
        # json.loads refuses to convert it; json.dumps could not write it either
        path = tmp_path / "doc.json"
        path.write_text('{"algebras": {"c": {"kind": "chain", "n": 1' + "0" * DIGIT_LIMIT + "}}}")
        result = run("spectra", str(path), "ideals", "c")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: document {path} has an integer of more than {DIGIT_LIMIT} digits\n"
        )

    @pytest.mark.parametrize("where", ["document", "argv"])
    def test_rational_literal_beyond_the_digit_limit_is_an_input_error(self, where, tmp_path):
        huge = "1" + "0" * DIGIT_LIMIT
        if where == "document":
            path = tmp_path / "doc.json"
            measure = {"atoms": ["x"], "weights": ["1/" + huge]}
            path.write_text(json.dumps({"measures": {"m": measure}}))
            argv = ("moments", str(path), "check", "m")
        else:
            argv = ("holder", DOC, "s", "f1", "f2", "--p", huge, "--q", "2")
        result = run(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: rational literal has a term of more than {DIGIT_LIMIT} digits\n"
        )

    @pytest.mark.parametrize("where", ["document", "argv"])
    def test_a_literal_with_a_trailing_newline_is_an_input_error(self, where, tmp_path, capsys):
        # a regex ending in `$` also matches before a final newline
        if where == "document":
            literal = "1/2\n"
            path = tmp_path / "doc.json"
            measure = {"atoms": ["x", "y"], "weights": [literal, "1/2"]}
            path.write_text(json.dumps({"measures": {"m": measure}}))
            argv = ["product", str(path), "build", "m", "m"]
        else:
            literal = "3\n"
            argv = ["holder", DOC, "s", "f1", "f2", "--p", literal, "--q", "3/2"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: not a rational literal: {literal!r}\n"

    @pytest.mark.parametrize("order,code", [(40, 0), (50, 2)])
    def test_result_beyond_the_digit_limit_is_refused(self, order, code, tmp_path):
        # the moment m_k has a denominator of 99k + 1 digits: 3,961 at order 40, 4,951 at 50
        path = tmp_path / "doc.json"
        measure = {"atoms": ["0", "1/1" + "0" * 99], "weights": ["1/2", "1/2"]}
        path.write_text(json.dumps({"measures": {"g": measure}}))
        result = run("moments", str(path), "of-measure", "g", "--order", str(order))
        assert result.returncode == code
        if code == 0:
            assert report_of(result)["verdict"] == "pass"
        else:
            assert result.stdout == ""
            assert result.stderr == (
                f"error: cannot render a rational with a term of more than {DIGIT_LIMIT} digits\n"
            )

    def test_an_unrenderable_moment_is_refused_before_the_difference_table(
        self, tmp_path, monkeypatch, capsys
    ):
        # m_454 is the first moment past the digit limit, so the report
        # cannot render it: the O(order^2) moment check never starts
        path = tmp_path / "doc.json"
        measure = {"atoms": ["999999999/1000000000", "1/3"], "weights": ["1/2", "1/2"]}
        path.write_text(json.dumps({"measures": {"g": measure}}))

        def no_rows(m):
            raise AssertionError("a difference row was built")

        monkeypatch.setattr(analysis, "_delta_rows", no_rows)
        code = cli.main(["moments", str(path), "of-measure", "g", "--order", "512"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot render a rational with a term of more than {DIGIT_LIMIT} digits\n"
        )

    @pytest.mark.parametrize(
        "grid, message",
        [("0", "grid size must be at least 1"), ("4", "grid 4 needs at least 5 moments")],
    )
    def test_a_grid_outside_the_sequence_is_refused_before_any_row(
        self, grid, message, monkeypatch, capsys
    ):
        def no_rows(m):
            raise AssertionError("a difference row was built")

        monkeypatch.setattr(analysis, "_delta_rows", no_rows)
        code = cli.main(["moments", DOC, "reconstruct", "leb", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            (
                {
                    "algebras": {"c": {"kind": "chain", "n": 2}},
                    "states": {
                        "t": {
                            "algebra": "c",
                            "rule": "table",
                            "values": {"0": "0", "1/2": "1/2", "2/4": "1/3", "1": "1"},
                        }
                    },
                },
                ["state", "@", "metric", "t"],
                "states.t: keys '1/2' and '2/4' name the same element",
            ),
            (
                {
                    "algebras": {"c": {"kind": "chain", "n": 1}},
                    "states": {
                        "t": {"algebra": "c", "rule": "table", "values": {"0": "0", "1": "1"}}
                    },
                    "bilinear": {
                        "g": {
                            "kind": "table", "left": "t", "right": "t", "codomain": "t",
                            "bound": 1,
                            "entries": {
                                "0;0": "0", "0;1": "0", "1;0": "0", "1;1": "1", "2/2;1": "0",
                            },
                        }
                    },
                },
                ["--seed", "1", "product", "@", "factorize", "t", "t", "g"],
                "bilinear.g: keys '1;1' and '2/2;1' name the same pair",
            ),
        ],
    )
    def test_two_spellings_of_one_key_are_refused(self, doc, argv, message, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main([str(path) if arg == "@" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"0;x": "0"}, "not a rational literal: 'x'"),
            ({"x;0": "0"}, "not a rational literal: 'x'"),
            ({"0;1/2": "0"}, "1/2 is not a level of the 1-chain"),
            ({"0;0": "7/3"}, "value 7/3 outside [0, 1]"),
            ({"0;0": "(0)"}, "not a rational literal: '(0)'"),
        ],
    )
    def test_a_bilinear_entry_error_names_its_map(self, entries, message, tmp_path, capsys):
        doc = {
            "algebras": {"c": {"kind": "chain", "n": 1}},
            "states": {"t": {"algebra": "c", "rule": "table", "values": {"0": "0", "1": "1"}}},
            "bilinear": {
                "g": {"kind": "table", "left": "t", "right": "t", "codomain": "t",
                      "bound": 1, "entries": entries},
            },
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["state", str(path), "faithful", "t"]) == 2
        assert capsys.readouterr() == ("", f"error: bilinear.g: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("state", DOC, "eval", "s"), "state eval needs an element name"),
            (("state", DOC, "faithful", "s", "f1"), "state faithful takes no element name"),
            (("state", DOC, "metric", "schain", "f1"), "state metric takes no element name"),
            (("state", DOC, "quotient", "s", "f1"), "state quotient takes no element name"),
            (("product", DOC, "build", "mu", "nu", "gbeta"),
             "product build takes no bilinear map name"),
            (("product", DOC, "verify-independence", "sB", "schain", "gbeta"),
             "product verify-independence takes no bilinear map name"),
            (("--seed", "1", "product", DOC, "factorize", "sB", "schain"),
             "product factorize needs a bilinear map name"),
        ],
        ids=["state-eval", "state-faithful", "state-metric", "state-quotient", "product-build",
             "product-verify-independence", "product-factorize"],
    )
    def test_an_action_is_refused_a_name_it_does_not_take(self, argv, message, capsys):
        # the report echo would drop the extra name, so it never reaches one
        assert cli.main(list(argv)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("state", DOC, "faithful", "s", "--samples", "7"),
             "state faithful takes no --samples"),
            (("moments", DOC, "check", "leb", "--order", "9", "--grid", "5"),
             "moments check takes no --order"),
            (("moments", DOC, "fit", "leb", "--order", "9"), "moments fit takes no --order"),
            (("moments", DOC, "of-measure", "grid", "--grid", "3"),
             "moments of-measure takes no --grid"),
            (("product", DOC, "build", "mu", "nu", "--samples", "3"),
             "product build takes no --samples"),
            (("check-axioms", DOC, "chain3", "--count", "5"),
             "check-axioms --mode exhaustive takes no --count"),
        ],
        ids=["state-faithful", "moments-check", "moments-fit", "moments-of-measure",
             "product-build", "check-axioms-exhaustive"],
    )
    def test_an_action_is_refused_a_flag_it_does_not_read(self, argv, message, capsys):
        # the report echo would drop the flag, so a report would not show it was ignored
        assert cli.main(list(argv)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_an_unread_flag_at_its_default_is_accepted(self, capsys):
        assert cli.main(["state", DOC, "faithful", "s", "--samples", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "state faithful s"

    def test_a_measure_with_a_non_point_atom_has_no_moments(self, capsys):
        assert cli.main(["moments", DOC, "of-measure", "mu"]) == 2
        message = "measure atoms must name rationals in [0, 1], got 'x'"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("value", [None, True, False, 0, 1, 0.5, [], ["1"], {}, {"1": "1"}])
    @pytest.mark.parametrize("where", ["state", "bilinear"])
    def test_a_non_string_table_value_is_an_input_error(self, where, value, tmp_path, capsys):
        # `states.table_state` parses a table state's values; a JSON 1 is no rational literal
        values, entries = {"0": "0", "1": "1"}, {"0;0": "0", "0;1": "0", "1;0": "0", "1;1": "1"}
        if where == "state":
            values["1"] = value
        else:
            entries["1;1"] = value
        doc = {
            "algebras": {"c": {"kind": "chain", "n": 1}},
            "states": {"t": {"algebra": "c", "rule": "table", "values": values}},
            "bilinear": {
                "g": {"kind": "table", "left": "t", "right": "t", "codomain": "t",
                      "bound": 1, "entries": entries},
            },
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["state", str(path), "faithful", "t"]) == 2
        message = (
            f"states.t: not a rational literal: {value!r}" if where == "state"
            else "bilinear.g.entries must be a mapping to strings"
        )
        assert capsys.readouterr() == ("", f"error: {message}\n")


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


BASIC = json.loads(Path(DOC).read_text())
WRONG_VALUES = [
    None, True, False, 0, 1, -1, 2.5, "", "x", "lower(x)", [], ["x"], [["x"]], {}, {"x": "1"},
]
CHEAP_COMMANDS = [
    ("check-axioms", "@", "chain3"),
    ("state", "@", "metric", "schain"),
    ("state", "@", "quotient", "sc"),
    ("state", "@", "faithful", "s"),
    ("spectra", "@", "semisimple", "B"),
    ("embed", "@", "C", "sc"),
    ("moments", "@", "of-measure", "grid"),
    ("moments", "@", "fit", "leb", "--grid", "3"),
    ("holder", "@", "s", "f1", "f2", "--p", "2", "--q", "2"),
    ("product", "@", "verify-independence", "sB", "schain"),
    ("--seed", "1", "product", "@", "factorize", "sB", "schain", "gbeta", "--samples", "5"),
]


@settings(max_examples=80, deadline=None)
@given(
    path=st.sampled_from(list(_paths(BASIC))),
    value=st.sampled_from(WRONG_VALUES),
    command=st.sampled_from(CHEAP_COMMANDS),
)
def test_wrong_typed_values_never_escape_the_exit_code_contract(path, value, command):
    doc = copy.deepcopy(BASIC)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    with tempfile.TemporaryDirectory() as directory:
        target = Path(directory) / "doc.json"
        target.write_text(json.dumps(doc))
        argv = [str(target) if word == "@" else word for word in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 1, 2)
