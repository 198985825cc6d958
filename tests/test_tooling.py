"""Source-level checks on the package itself."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mvprob

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvprob"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_assert_statements(module):
    # `python -O` strips assert statements; invariant checks raise explicitly
    tree = ast.parse((PACKAGE / module).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} asserts at lines {lines}"


def test_golden_reports_hold_under_optimized_python():
    # `python -O` drops assert statements and `__debug__` blocks from the
    # library; pytest still rewrites the asserts of the test modules
    # themselves.  The exact-analysis, bilinear and payload op-set
    # differential classes run there too, and so do `verdict.sweep` and its
    # planted defects.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    analysis_tests = str(ROOT / "tests" / "test_analysis.py")
    independence_tests = str(ROOT / "tests" / "test_independence.py")
    core_tests = str(ROOT / "tests" / "test_core.py")
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_golden.py"),
         f"{analysis_tests}::TestPhaseOneAgainstFractionPivoting",
         f"{analysis_tests}::TestDeltaTableAgainstFractionRecursion",
         f"{analysis_tests}::TestPlantedSignDefects",
         f"{independence_tests}::TestCheckBilinearAgainstSummablePairs",
         f"{core_tests}::TestOpSetsAgainstReference",
         str(ROOT / "tests" / "test_sweep.py")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_function_metrics_name_library_functions():
    # a name that no longer resolves would make its per-layer metric read 0
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (metrics,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "FUNCTION_METRICS" for t in node.targets)
    ]
    names = sorted({key for key, _ in ast.literal_eval(metrics)})
    assert names
    for name in names:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"mvprob.{module}"), function, None)), name


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{module} imports {unused} and never uses them"


TRUSTED_CONSTRUCTOR = "_trusted"  # core's unchecked Element builder


def _mentions(tree: ast.AST, name: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
        or (isinstance(node, ast.Constant) and node.value == name)
    ]


def test_trusted_constructor_is_defined_in_core():
    tree = ast.parse((PACKAGE / "core.py").read_text())
    defined = [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == TRUSTED_CONSTRUCTOR
    ]
    assert defined == [TRUSTED_CONSTRUCTOR]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "core.py")
)
def test_only_core_builds_unchecked_elements(module):
    # every Element made outside core.py goes through the payload check,
    # so nothing read from a document or argv can skip it
    lines = _mentions(ast.parse((PACKAGE / module).read_text()), TRUSTED_CONSTRUCTOR)
    assert lines == [], f"{module} uses {TRUSTED_CONSTRUCTOR} at lines {lines}"


STATE_CONSTRUCTOR = "State"  # a state is its measure on the ambient's atoms, or None on Chang


def _calls(tree: ast.AST, name: str) -> list[int]:
    """Lines of the calls in ``tree`` to ``name``, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ((isinstance(node.func, ast.Name) and node.func.id == name)
             or (isinstance(node.func, ast.Attribute) and node.func.attr == name))
    ]


def test_the_gate_finds_a_state_call():
    tree = ast.parse("s = State(a, None)\nt = states.State(a, mu)\nState\nStateQuotient(a, s, p)\n")
    assert _calls(tree, STATE_CONSTRUCTOR) == [1, 2]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "states.py")
)
def test_only_states_builds_a_state(module):
    # the invariant of a state, its measure on the divisible ambient's atoms
    # or None on Chang, is kept by the constructors in one module
    lines = _calls(ast.parse((PACKAGE / module).read_text()), STATE_CONSTRUCTOR)
    assert lines == [], f"{module} calls {STATE_CONSTRUCTOR} at lines {lines}"


DECODER = "decode"  # an op set's code-to-payload map, which `Element.payload` reads


def _decodes(tree: ast.AST) -> list[int]:
    """Lines of the ``decode`` calls and the ``.payload`` reads in ``tree``."""
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    return sorted(_calls(tree, DECODER) + [n.lineno for n in reads if n.attr == "payload"])


def test_the_gate_finds_a_decode_call_and_a_payload_read():
    source = "ops.decode(c)\ne.payload\ndecode(c)\nops.decode\npayload = {}\ne.code\n"
    assert _decodes(ast.parse(source)) == [1, 2, 3]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "core.py")
)
def test_only_core_decodes(module):
    # an Element holds its code, which every op and sweep reads and its op set
    # renders; a value's Fraction form is for library callers only
    lines = _decodes(ast.parse((PACKAGE / module).read_text()))
    assert lines == [], f"{module} decodes a code at lines {lines}"


def test_documents_builds_every_element_through_core_element():
    # one grammar: a document's element values and texts are all parsed by `core.element`
    lines = _calls(ast.parse((PACKAGE / "documents.py").read_text()), "Element")
    assert lines == [], f"documents.py calls Element at lines {lines}"


def _increments(tree: ast.AST) -> list[int]:
    """Lines of the ``x += 1`` statements in ``tree``, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
        and isinstance(node.value, ast.Constant) and node.value.value == 1
    )


def test_the_gate_finds_a_counter():
    source = "checks = 0\nfor _ in cases:\n    checks += 1\nself.n += 1\nm += 2\nk = k + 1\n"
    tree = ast.parse(source)
    assert _increments(tree) == [3, 4]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "verdict.py")
)
def test_only_verdict_sweep_counts(module):
    # a verifier hands `verdict.sweep` its stages, whose sizes and failure
    # positions are the counts; a counter of its own would be a second rule
    lines = _increments(ast.parse((PACKAGE / module).read_text()))
    assert lines == [], f"{module} counts its own checks at lines {lines}"


# core gives each carrier its shape; every other module reads the shape
# and names no carrier class but Chang in an isinstance test of a carrier
SHAPE_CLASSES = {"FiniteChain", "StandardUnit"}


def _class_tests(tree: ast.AST) -> list[int]:
    """Lines of the ``isinstance`` calls in ``tree`` that name a `SHAPE_CLASSES` class."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any(
            (isinstance(n, ast.Name) and n.id in SHAPE_CLASSES)
            or (isinstance(n, ast.Attribute) and n.attr in SHAPE_CLASSES)
            for n in ast.walk(node.args[1])
        )
    ]


def test_the_gate_finds_a_class_test():
    assert _class_tests(ast.parse("if isinstance(c, (core.FiniteChain, Chang)):\n    pass\n")) == [1]
    assert _class_tests(ast.parse("isinstance(c, Chang)")) == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "core.py")
)
def test_only_core_tests_for_the_interval_or_a_chain(module):
    # the shape decision stays in one place, as `_trusted` stays in core
    lines = _class_tests(ast.parse((PACKAGE / module).read_text()))
    assert lines == [], f"{module} tests a carrier's class at lines {lines}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_draw_goes_through_the_kernel(module):
    # `rationals._below` draws what randint and randrange draw, without their two frames
    tree = ast.parse((PACKAGE / module).read_text())
    lines = sorted(_calls(tree, "randint") + _calls(tree, "randrange"))
    assert lines == [], f"{module} calls randint or randrange at lines {lines}"


def test_the_gate_finds_a_randint_or_randrange_call():
    tree = ast.parse("rng.randint(0, 5)\nq = randrange(3)\nrng.random()\n")
    assert sorted(_calls(tree, "randint") + _calls(tree, "randrange")) == [1, 2]


# the public namespace; a name leaves it only with the code behind it
PUBLIC_NAMES = [
    "Algebra", "BilinearMap", "Chang", "ChangPair", "DiscreteMeasure", "Element",
    "FiniteChain", "FunctionAlgebra", "Ideal", "InputError", "MeasureRepresentation",
    "MomentSequence", "ProductSpace", "StandardUnit", "State", "TableAlgebra",
    "UnsupportedCarrierError", "Verdict", "analysis", "axioms", "beta", "beta_bilinear",
    "bilinear_map", "chang", "chang_state", "check_axioms", "check_bilinear", "check_hausdorff",
    "core", "dist", "element", "embed_l1", "errors", "eval_state", "extend_bilinear_divisible",
    "factorize", "finite_chain", "function_algebra", "grid_measure",
    "hausdorff_reconstruct", "holder_check", "ideal", "ideal_contains", "ideals", "identity_state",
    "independence", "indicator", "integral", "is_faithful", "is_semisimple", "join",
    "left_scaling_bilinear", "leq", "lower", "maximal_ideals", "measure", "measure_state", "meet",
    "moment_fit_lp", "moment_sequence", "moments_of_measure", "neg", "odot", "one", "oplus",
    "partial_add", "prod", "product_space", "quotient", "radical", "rationals", "represent",
    "representation", "rho", "scalar_mul", "spectra", "standard_unit", "state_product_bilinear",
    "state_quotient", "states", "table_state", "tensor", "upper", "verdict",
    "verify_factorization", "verify_morphism_extras", "zero",
]
SUBMODULES = [
    "analysis", "axioms", "core", "errors", "independence", "rationals", "representation",
    "spectra", "states", "verdict",
]
FIXTURE = str(ROOT / "tests" / "fixtures" / "basic.json")


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``, stdlib ones included."""
    result = _python(code + "\nimport sys\nprint(sorted(sys.modules))")
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def _cli_loads(*argv: str) -> set[str]:
    """The modules a command loads: mvprob's by their submodule name, the rest by theirs."""
    code = (
        "import contextlib, io\n"
        "from mvprob import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    exit_code = cli.main({list(argv)!r})\n"
        "if exit_code:\n"
        "    raise SystemExit(exit_code)\n"
    )
    return {name.removeprefix("mvprob.") for name in _loaded_after(code)}


def test_importing_the_package_loads_no_submodule():
    loaded = _loaded_after("import mvprob")
    assert {name for name in loaded if name.split(".")[0] == "mvprob"} == {"mvprob"}


def test_no_module_imports_dataclasses():
    # `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, about 10 ms of
    # every command's start; the records derive from `core._Record` instead
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name


@pytest.mark.parametrize(
    "argv",
    [
        ("check-axioms", FIXTURE, "chain3", "--level", "MV"),
        ("state", FIXTURE, "eval", "s", "f1"),
        ("spectra", FIXTURE, "ideals", "B"),
        ("embed", FIXTURE, "C", "sc"),
        ("moments", FIXTURE, "check", "leb"),
        ("holder", FIXTURE, "s", "f1", "f2", "--p", "2", "--q", "2"),
        ("--seed", "5", "product", FIXTURE, "factorize", "sB", "schain", "gbeta"),
    ],
    ids=["check-axioms", "state", "spectra", "embed", "moments", "holder", "product"],
)
def test_no_command_loads_dataclasses_or_inspect(argv):
    loaded = _cli_loads(*argv)
    assert "cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


# every command loads these; a handler imports what only it runs
SHARED_CLOSURE = {"cli", "core", "documents", "errors", "rationals", "states", "verdict"}


def _submodules(loaded: set[str]) -> set[str]:
    return loaded & {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}


@pytest.mark.parametrize(
    "argv, added",
    [
        (("state", FIXTURE, "eval", "s", "f1"), set()),
        (("state", FIXTURE, "faithful", "s"), set()),
        (("state", FIXTURE, "metric", "schain"), set()),
        (("state", FIXTURE, "quotient", "s"), set()),  # faithful: nothing to collapse
        (("state", FIXTURE, "quotient", "sdirac"), {"spectra"}),
        (("check-axioms", FIXTURE, "chain3", "--level", "MV"), {"axioms"}),
        (("spectra", FIXTURE, "ideals", "B"), {"spectra"}),
        (("moments", FIXTURE, "check", "leb"), {"analysis"}),
        (("holder", FIXTURE, "s", "f1", "f2", "--p", "2", "--q", "2"), {"analysis"}),
        (("embed", FIXTURE, "C", "sc"), {"representation"}),  # the measure is read, not built
        (("embed", FIXTURE, "F", "sdirac", "--seed", "1"), {"representation"}),
        (("--seed", "5", "product", FIXTURE, "factorize", "sB", "schain", "gbeta"),
         {"independence", "representation"}),  # faithful states: no quotient is built
    ],
    ids=[
        "state-eval", "state-faithful", "state-metric", "state-quotient-faithful",
        "state-quotient", "check-axioms", "spectra-ideals", "moments", "holder", "embed-chang",
        "embed-null-atom", "product",
    ],
)
def test_a_command_loads_the_shared_closure_and_what_its_handler_runs(argv, added):
    assert _submodules(_cli_loads(*argv)) == SHARED_CLOSURE | added


def test_representing_an_element_builds_no_algebra(monkeypatch):
    # `embed_l1` builds the target once; mapping an element only indexes its
    # values, also for a state with a null atom
    from mvprob import core, representation, states

    algebra = core.function_algebra(("x", "y", "z"))
    s = states.measure_state(algebra, states.measure(("x", "y", "z"), ("1/3", "0", "2/3")))
    function_algebra, embed_l1, calls = core.function_algebra, representation.embed_l1, []

    def counting(*args, **kwargs):
        calls.append(args)
        return function_algebra(*args, **kwargs)

    def embedded(algebra, s):
        rep = embed_l1(algebra, s)
        calls.clear()
        return rep

    monkeypatch.setattr(core, "function_algebra", counting)
    monkeypatch.setattr(representation, "embed_l1", embedded)
    verdict = representation.verify_embedding(algebra, s, samples=50, seed=3)
    assert verdict.passed and verdict.metrics["injective"] is False
    assert calls == []


def test_the_document_layer_loads_no_checker():
    loaded = _loaded_after("from mvprob import documents")
    assert {name for name in loaded if name.startswith("mvprob.")} == {
        f"mvprob.{name}" for name in SHARED_CLOSURE - {"cli"}
    }


def test_the_precision_default_is_the_analysis_constant():
    from mvprob import analysis, cli

    args = cli._parse_args(["state", FIXTURE, "eval", "s", "f1"])
    assert args.precision == analysis.DEFAULT_PRECISION == 64


def test_a_command_builds_two_parsers_per_call(monkeypatch, capsys):
    # the top parser and the invoked command's, each call anew: neither the
    # whole tree of command parsers nor a parser kept between calls
    import argparse

    from mvprob import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["state", FIXTURE, "eval", "s", "f1"]
    assert cli.main(argv) == 0
    assert built == ["mvprob", "mvprob state"]
    assert cli.main(argv) == 0
    assert len(built) == 4
    capsys.readouterr()


class TestNamespace:
    def test_all_is_the_pinned_public_namespace(self):
        assert sorted(mvprob.__all__) == PUBLIC_NAMES
        assert len(PUBLIC_NAMES) == 87

    def test_every_name_resolves(self):
        for name in PUBLIC_NAMES:
            value = getattr(mvprob, name)
            if name in SUBMODULES:
                assert value is importlib.import_module(f"mvprob.{name}")
            else:
                assert value.__module__.startswith("mvprob."), name
                assert value is getattr(sys.modules[value.__module__], name)

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(mvprob))

    def test_an_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mvprob.no_such_name  # noqa: B018
        assert not hasattr(mvprob, "no_such_name")

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from mvprob import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)


# public functions that no src code calls, each with the reason it stays
LIBRARY_ONLY = {
    "beta": "the pairing of two source elements on Elements; beta_bilinear and the product "
    "sweeps pair the represented values through independence._pairing",
    "ideal": "checks that given members form an ideal; commands build ideals from supports",
    "ideal_contains": "membership in an ideal given by its atom support; reports list members",
    "join": "the lattice join of the signature on Elements; sweeps run the op set's codes",
    "leq": "the order of the signature on Elements; partial_add and the sweeps compare "
    "codes through the op set",
    "meet": "the lattice meet of the signature on Elements; sweeps run the op set's codes",
    "moment_sequence": "parses Python values into a MomentSequence; documents build it directly",
    "odot": "the truncated product of the signature on Elements; sweeps run the op set's codes",
    "standard_unit": "builds the rational interval for library callers; documents name it",
    "verify_morphism_extras": "the fMV half of the main theorem, before its CLI route exists",
}
# unexported definitions that no src code references, each with the reason it stays
REFERENCE_ONLY = {
    "binomial_delta": "the closed form of each difference, the independent cross-check of "
    "_delta_rows' recursion",
}


def _modules(package: Path) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}


def _unreferenced_definitions(package: Path) -> set[tuple[str, str]]:
    """``(module, name)`` of each top-level ``def`` and ``class`` of
    ``package`` that it never references outside the definition itself.

    A reference is a ``from .m import name`` import, an ``m.name``
    attribute on the module ``m`` that defines the name, or the bare name
    in ``m`` outside its own definition; a field such as ``rule.measure``
    is none of these.  ``__init__`` holds the lazy namespace: its hooks
    are the module protocol's, and its export table names no caller.
    """
    trees = _modules(package)
    del trees["__init__"]
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                referenced.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                referenced.add((node.value.id, node.attr))
        for definition in tree.body:
            if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                inside = {id(node) for node in ast.walk(definition)}
                if any(
                    isinstance(node, ast.Name) and node.id == definition.name
                    and id(node) not in inside
                    for node in ast.walk(tree)
                ):
                    referenced.add((module, definition.name))
    defined = {
        (module, definition.name)
        for module, tree in trees.items()
        for definition in tree.body
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
    }
    return defined - referenced


def _exported(package: Path) -> set[tuple[str, str]]:
    exports = ast.literal_eval(next(
        node.value for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_EXPORTS"
    ))
    return {(module, name) for module, names in exports.items() for name in names}


def test_every_public_function_is_used_in_src_or_named_library_only():
    # a public function only tests call is a second route no command reaches
    unreferenced = _unreferenced_definitions(PACKAGE) & _exported(PACKAGE)
    assert {name for _, name in unreferenced} == set(LIBRARY_ONLY)


def test_every_unexported_definition_is_used_in_src_or_named_reference_only():
    # a private helper only tests call is src code that serves no command
    unreferenced = _unreferenced_definitions(PACKAGE) - _exported(PACKAGE)
    assert {name for _, name in unreferenced} == set(REFERENCE_ONLY)


def _defaulted_parameters(definition: ast.FunctionDef, method: bool) -> list:
    """``(position, name)`` of each parameter with a default; a
    keyword-only one has no position, and a method's position does not
    count ``self``."""
    args = definition.args
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(positional) - len(args.defaults)
    found = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _sets(call: ast.Call, position, parameter: str) -> bool:
    if any(k.arg in (parameter, None) for k in call.keywords):  # None: **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _unset_defaults(package: Path) -> set[tuple[str, str, str]]:
    """``(module, function, parameter)`` of each defaulted parameter of a
    ``def`` in ``package`` that no call in ``package`` sets, by position
    or by keyword.

    A top-level function ``f`` of ``m`` is called as bare ``f`` in ``m``
    or in a module that imports it with ``from .m import f``, or as
    ``m.f``; a method or nested function as ``x.f`` or bare ``f`` in
    ``m``.
    """
    trees = _modules(package)
    imported = {
        (importer, node.module, alias.name)
        for importer, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unset = set()
    for module, tree in trees.items():
        top = {id(node) for node in tree.body}
        methods = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for definition in ast.walk(tree):
            if not isinstance(definition, ast.FunctionDef):
                continue
            name = definition.name

            def calls_it(caller: str, func: ast.expr) -> bool:
                if isinstance(func, ast.Name):
                    return func.id == name and (
                        caller == module or (caller, module, name) in imported
                    )
                return isinstance(func, ast.Attribute) and func.attr == name and (
                    id(definition) not in top
                    or isinstance(func.value, ast.Name) and func.value.id == module
                )

            calls = [
                node
                for caller, caller_tree in trees.items()
                for node in ast.walk(caller_tree)
                if isinstance(node, ast.Call) and calls_it(caller, node.func)
            ]
            for position, parameter in _defaulted_parameters(definition, id(definition) in methods):
                if not any(_sets(call, position, parameter) for call in calls):
                    unset.add((module, name, parameter))
    return unset


def test_every_defaulted_parameter_is_set_by_some_src_call():
    # a default that every caller keeps is a knob only tests turn; the
    # console entry point reads sys.argv when argv is not given, and the
    # library-only functions have no src caller at all
    unset = {
        entry for entry in _unset_defaults(PACKAGE)
        if entry[:2] != ("cli", "main") and entry[1] not in LIBRARY_ONLY
    }
    assert unset == set()


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    (example,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    result = _python(example)
    assert result.returncode == 0, result.stderr


def test_readme_cli_examples_run_on_the_fixture(capsys):
    from mvprob import cli

    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    lines = [line for line in block.splitlines() if line.startswith("mvprob ")]
    assert len(lines) == 19
    for line in lines:
        argv = [FIXTURE if word == "doc.json" else word for word in shlex.split(line)[1:]]
        code = cli.main(argv)
        assert code in (0, 1), (line, capsys.readouterr().err)



def test_readme_document_sketch_factorizes(tmp_path, capsys):
    # the sketch's bilinear map is declared on two finite states, so `product factorize` runs
    from mvprob import cli, documents

    (block,) = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    ((name, spec),) = documents.parse_document(json.loads(block)).bilinear.items()
    path = tmp_path / "doc.json"
    path.write_text(block)
    argv = ["--seed", "5", "product", str(path), "factorize", spec.left, spec.right, name]
    assert cli.main(argv) == 0, capsys.readouterr().err
