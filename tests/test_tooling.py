"""Source-level checks on the package itself."""

import ast
import importlib
import os
import re
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
    # library; pytest still rewrites the asserts of the test module itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_golden.py")],
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


# the public namespace; a name leaves it only with the code behind it
PUBLIC_NAMES = [
    "Algebra", "BilinearMap", "Chang", "ChangPair", "DeltaTable", "DiscreteMeasure", "Element",
    "Exhaustive", "FiniteChain", "FunctionAlgebra", "Ideal", "InputError",
    "MeasureRepresentation", "MomentSequence", "ProductSpace", "Sample", "StandardUnit", "State",
    "TableAlgebra", "UnsupportedCarrierError", "Verdict", "analysis", "axioms", "beta",
    "beta_bilinear", "bilinear_map", "chang", "chang_state", "check_axioms", "check_bilinear",
    "check_hausdorff", "core", "delta_table", "dist", "element", "embed_l1", "errors",
    "eval_state", "extend_bilinear_divisible", "extend_state_divisible", "factorize",
    "finite_chain", "function_algebra", "grid_measure", "hausdorff_reconstruct", "holder_check",
    "ideal", "ideal_contains", "ideals", "identity_state", "independence", "indicator",
    "integral", "is_faithful", "is_semisimple", "join", "left_scaling_bilinear", "leq", "lower",
    "maximal_ideals", "measure", "measure_state", "meet", "moment_fit_lp", "moment_sequence",
    "moments_of_measure", "nat_mul", "nat_oplus", "neg", "odot", "one", "oplus", "partial_add",
    "prod", "product_space", "quotient", "radical", "rationals", "represent", "representation",
    "rho", "scalar_mul", "spectra", "standard_unit", "state_product_bilinear", "state_quotient",
    "states", "table_state", "tensor", "upper", "verdict", "verify_factorization",
    "verify_morphism_extras", "zero",
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
    """The mvprob modules a fresh interpreter holds after running ``code``."""
    result = _python(
        code + "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mvprob'))"
    )
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def _cli_loads(*argv: str) -> set[str]:
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
    assert _loaded_after("import mvprob") == {"mvprob"}


@pytest.mark.parametrize(
    "argv",
    [
        ("state", FIXTURE, "eval", "s", "f1"),
        ("state", FIXTURE, "metric", "schain"),
        ("spectra", FIXTURE, "ideals", "B"),
        ("check-axioms", FIXTURE, "chain3", "--level", "MV"),
    ],
    ids=["state-eval", "state-metric", "spectra-ideals", "check-axioms"],
)
def test_core_commands_load_no_analysis_layer(argv):
    loaded = _cli_loads(*argv)
    assert "cli" in loaded and "documents" in loaded
    assert not loaded & {"analysis", "independence", "representation"}, sorted(loaded)


def test_a_moments_command_loads_analysis_alone():
    loaded = _cli_loads("moments", FIXTURE, "check", "leb")
    assert "analysis" in loaded
    assert not loaded & {"independence", "representation"}, sorted(loaded)


def test_the_precision_default_is_the_analysis_constant():
    from mvprob import analysis, cli

    args = cli.build_parser().parse_args(["state", FIXTURE, "eval", "s", "f1"])
    assert args.precision == analysis.DEFAULT_PRECISION == 64


class TestNamespace:
    def test_all_is_the_pinned_public_namespace(self):
        assert sorted(mvprob.__all__) == PUBLIC_NAMES
        assert len(PUBLIC_NAMES) == 94

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
    "ideal": "checks that given members form an ideal; commands build ideals from supports",
    "ideal_contains": "membership in an ideal given by its atom support; reports list members",
    "moment_sequence": "parses Python values into a MomentSequence; documents build it directly",
    "nat_mul": "the partial n-fold sum n.a of the signature; no law sweep uses it",
    "nat_oplus": "the truncated n-fold sum of the signature; no law sweep uses it",
    "standard_unit": "builds the rational interval for library callers; documents name it",
    "verify_morphism_extras": "the fMV half of the main theorem, before its CLI route exists",
}


def _unreferenced_public_functions(package: Path) -> set[str]:
    """Public functions that ``package`` never references outside their own
    definition and ``__init__``.

    A reference is a ``from .m import name`` import, an ``m.name``
    attribute on the module ``m`` that defines the name, or the bare name
    in ``m`` outside its own ``def``; a field such as ``rule.measure`` is
    none of these.
    """
    trees = {
        p.stem: ast.parse(p.read_text()) for p in package.glob("*.py") if p.name != "__init__.py"
    }
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                referenced.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                referenced.add((node.value.id, node.attr))
        for definition in tree.body:
            if isinstance(definition, ast.FunctionDef):
                inside = {id(node) for node in ast.walk(definition)}
                if any(
                    isinstance(node, ast.Name) and node.id == definition.name
                    and id(node) not in inside
                    for node in ast.walk(tree)
                ):
                    referenced.add((module, definition.name))
    exports = ast.literal_eval(next(
        node.value for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_EXPORTS"
    ))
    public = {
        (module, definition.name)
        for module, names in exports.items()
        for definition in trees[module].body
        if isinstance(definition, ast.FunctionDef) and definition.name in names
    }
    return {name for module, name in public - referenced}


def test_every_public_function_is_used_in_src_or_named_library_only():
    # a public function only tests call is a second route no command reaches
    assert _unreferenced_public_functions(PACKAGE) == set(LIBRARY_ONLY)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    (example,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    result = _python(example)
    assert result.returncode == 0, result.stderr
