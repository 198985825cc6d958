"""The integer kernels of the exhaustive sweeps against their per-case references.

Associativity runs by rows of the compiled tables (`axioms._associativity_failures`),
the metric triangle on one integer matrix (`states._triangle_failures`), and the
linear combinations of states, table states and bilinear maps through
`rationals.weighted_sum`.  Each kernel is compared here with the per-case code it
replaced, kept below as a test-local reference: the same verdict, check count and
witness on every stock carrier, and on defects planted at the first, a middle and
the last triple.  Work counts pin that no kernel falls back to per-case work.
"""

import itertools
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import mvprob as mv
from mvprob import axioms, core, independence, states
from mvprob.errors import InputError
from mvprob.rationals import ZERO
from mvprob.verdict import Verdict, sweep


def stock_carriers():
    """The stock finite carriers up to 216 elements: short chains, and function
    algebras over chains up to 3 atoms over the 5-chain and 7 atoms over the 1-chain."""
    for n in range(1, 9):
        yield pytest.param(mv.finite_chain(n), id=f"chain{n}")
    for k, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (3, 5)):
        atoms = tuple(f"x{i}" for i in range(k))
        yield pytest.param(mv.function_algebra(atoms, mv.FiniteChain(n)), id=f"{k}x{n}")
    for k in range(3, 8):
        atoms = tuple(f"b{i}" for i in range(k))
        yield pytest.param(mv.function_algebra(atoms, mv.FiniteChain(1)), id=f"boolean{k}")


STOCK = list(stock_carriers())


def size(algebra):
    return len(core.enumerate_carrier(algebra))


# ---------------------------------------------------------------------------
# Associativity by rows
# ---------------------------------------------------------------------------


def reference_associativity(table, name, describe):
    """The per-triple sweep the row kernel replaced: `_law_assoc` on the table's ops."""
    n = len(table)
    for position, (a, b, c) in enumerate(itertools.product(range(n), repeat=3)):
        if table[a][table[b][c]] != table[table[a][b]][c]:
            yield position, {"axiom": name, "elements": [describe(a), describe(b), describe(c)]}


def first_failure(failures):
    return next(iter(failures), None)


def planted_table(n, m, c0):
    """A table whose first associativity failure is the triple (m, m, c0), c0 != m.

    Every row but m is a left projection, so a triple (a, b, c) with a != m
    passes.  Row m is p, the least index outside {m, c0}, except at c0,
    where it is c0: a triple (m, b, c) with b != m passes, and (m, m, c)
    fails exactly when r[r[c]] != r[m] = p, that is at c = c0.
    """
    p = min({0, 1, 2} - {m, c0})
    rows = [(a,) * n for a in range(n)]
    rows[m] = tuple(c0 if c == c0 else p for c in range(n))
    return tuple(rows)


def first_triple_table(n):
    # 0 + 0 = 1 and 0 + 1 = 0, but 1 + 0 = 1: 0 + (0 + 0) = 0 and (0 + 0) + 0 = 1
    rows = [(0,) * n for _ in range(n)]
    rows[0] = (1, 0) + (0,) * (n - 2)
    rows[1] = (1,) + (0,) * (n - 1)
    return tuple(rows)


N = 6
PLANTS = {  # where: (table, the triple its first failure is at)
    "first": (first_triple_table(N), (0, 0, 0)),
    "middle": (planted_table(N, N // 2, N // 2 + 1), (N // 2, N // 2, N // 2 + 1)),
    "last": (planted_table(N, N - 1, N - 2), (N - 1, N - 1, N - 2)),
}
NAMES = tuple(f"e{i}" for i in range(N))


def lukasiewicz(n):
    """The tables of the n-chain with a product, indices as levels: truncated sum and min."""
    return (
        tuple(tuple(min(a + b, n - 1) for b in range(n)) for a in range(n)),
        tuple(n - 1 - a for a in range(n)),
        tuple(tuple(min(a, b) for b in range(n)) for a in range(n)),
    )


def only_law(monkeypatch, name):
    """Make `check_axioms` sweep just the named law, as `_laws_for` gives it."""
    real = axioms._laws_for
    monkeypatch.setattr(
        axioms, "_laws_for",
        lambda level, target: [law for law in real(level, target) if law[0] == name],
    )


def with_reference(monkeypatch, fn, *args):
    """``fn(*args)`` with the per-triple associativity reference in place of the kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(axioms, "_associativity_failures", reference_associativity)
        return fn(*args)


def same_verdict(a: Verdict, b: Verdict) -> bool:
    return all(getattr(a, f) == getattr(b, f) for f in ("verdict", "witnesses", "metrics", "seed"))


class TestAssociativityByRows:
    @pytest.mark.parametrize("algebra", STOCK)
    def test_every_stock_table_passes_as_the_reference_does(self, algebra):
        table = core.compile_table(algebra)
        tables = [("oplus-associativity", table.oplus_table)]
        if table.prod_table is not None:
            tables.append(("product-associativity", table.prod_table))
        describe = table.names.__getitem__
        for name, rows in tables:
            kernel = first_failure(axioms._associativity_failures(rows, name, describe))
            reference = first_failure(reference_associativity(rows, name, describe))
            assert kernel == reference is None

    @pytest.mark.parametrize("algebra", [p for p in STOCK if size(p.values[0]) <= 64])
    @pytest.mark.parametrize("level", ["MV", "PMV"])
    def test_check_axioms_matches_the_reference(self, algebra, level, monkeypatch):
        if level == "PMV" and not algebra.internal_product:
            with pytest.raises(InputError, match="needs an internal product"):
                mv.check_axioms(algebra, level)
            return
        verdict = mv.check_axioms(algebra, level)
        assert verdict.passed
        assert same_verdict(verdict, with_reference(monkeypatch, mv.check_axioms, algebra, level))

    @pytest.mark.parametrize("where", sorted(PLANTS))
    def test_a_planted_failure_keeps_its_position_and_witness(self, where):
        table, (a, b, c) = PLANTS[where]
        witness = {"axiom": "law", "elements": [NAMES[x] for x in (a, b, c)]}
        expected = ((a * N + b) * N + c, witness)
        for failures in (reference_associativity, axioms._associativity_failures):
            assert first_failure(failures(table, "law", NAMES.__getitem__)) == expected

    @pytest.mark.parametrize("where", sorted(PLANTS))
    @pytest.mark.parametrize("law", ["oplus-associativity", "product-associativity"])
    def test_check_axioms_reports_a_planted_failure(self, law, where, monkeypatch):
        planted, (a, b, c) = PLANTS[where]
        oplus, neg, prod = lukasiewicz(N)
        if law == "oplus-associativity":
            oplus = planted
        else:
            prod = planted
        target = core.TableAlgebra(NAMES, oplus, neg, prod_table=prod)
        only_law(monkeypatch, law)
        verdict = mv.check_axioms(target, "PMV")
        assert verdict.witnesses == [{"axiom": law, "elements": [NAMES[x] for x in (a, b, c)]}]
        assert verdict.metrics == {"checks": (a * N + b) * N + c + 1}
        assert same_verdict(verdict, with_reference(monkeypatch, mv.check_axioms, target, "PMV"))

    def test_a_list_table_is_swept_as_its_tuples(self):
        table, triple = PLANTS["middle"]
        rows = [list(row) for row in table]
        kernel = first_failure(axioms._associativity_failures(rows, "law", NAMES.__getitem__))
        assert kernel == first_failure(reference_associativity(table, "law", NAMES.__getitem__))

    def test_a_one_element_table(self):
        # itemgetter with one key returns the entry itself, not a 1-tuple
        target = core.TableAlgebra(("z",), ((0,),), (0,), prod_table=((0,),))
        verdict = mv.check_axioms(target, "PMV")
        assert verdict.passed and verdict.metrics == {"checks": 6 + 4}
        assert list(axioms._associativity_failures(((0,),), "law", str)) == []

    @pytest.mark.parametrize("level", ["MV", "PMV"])
    def test_the_exhaustive_sweep_calls_no_associativity_law(self, level):
        # the work count of the row kernel: no per-triple call, in either law
        algebra = mv.function_algebra(("x", "y", "z"), mv.FiniteChain(1))
        codes = {axioms._law_assoc.__code__: 0, axioms._law_pmv3.__code__: 0}

        def count(frame, event, _):
            if event == "call" and frame.f_code in codes:
                codes[frame.f_code] += 1

        def run(*args):
            sys.setprofile(count)
            try:
                assert mv.check_axioms(*args).passed
            finally:
                sys.setprofile(None)

        run(algebra, level)
        assert list(codes.values()) == [0, 0]
        run(mv.standard_unit(), level, 5, 1)  # the counter does see a sampled sweep's calls
        assert codes[axioms._law_assoc.__code__] == 5
        assert codes[axioms._law_pmv3.__code__] == (5 if level == "PMV" else 0)


# ---------------------------------------------------------------------------
# The metric triangle on one integer matrix
# ---------------------------------------------------------------------------


def reference_metric(s: states.State) -> Verdict:
    """The finite branch of `states.verify_metric` before the integer kernel:
    a `Fraction` matrix, then every pair and every triple, one at a time."""
    pool = core.enumerate_carrier(s.algebra)
    table, indices = core.compile_table(s.algebra), range(len(pool))
    values = [states.eval_state(s, a) for a in pool]
    matrix = [[values[table.dist(a, b)] for b in indices] for a in indices]
    positive = True

    def pair_failures():
        nonlocal positive
        for position, (a, b) in enumerate(itertools.product(indices, repeat=2)):
            distance = matrix[a][b]
            if distance != matrix[b][a] or matrix[a][a] != ZERO:
                yield position, {"pair": [pool[a], pool[b]]}
            positive = positive and (a == b or distance > ZERO)

    triples = (
        (position, {"triple": [pool[a], pool[b], pool[c]]})
        for position, (a, b, c) in enumerate(itertools.product(indices, repeat=3))
        if matrix[a][c] > matrix[a][b] + matrix[b][c]
    )
    n = len(pool)
    verdict = sweep([("pairs", n**2, pair_failures()), ("triples", n**3, triples)])
    if not verdict.passed:
        return verdict
    counts, faithful = verdict.metrics, states.is_faithful(s)
    if faithful.passed:
        separating = positive
    else:
        separating = states.rho(s, faithful.witnesses[0]["element"], core.zero(s.algebra)) > ZERO
    if separating != faithful.passed:
        return Verdict("fail", [{"separation": "does not match faithfulness"}], counts)
    counts.update(faithful=faithful.passed, separates=separating)
    return Verdict("pass", [], counts)


def stock_states():
    """A state on each stock carrier up to 125 elements: the identity on a chain, and
    on a function algebra a faithful measure and, up to 64 elements, one with a null
    atom.  The per-triple reference takes 4 s on 125 elements, and 10^7 triples of
    `Fraction`s on 216 would take about 20 s."""
    for param in STOCK:
        (algebra,) = param.values
        if size(algebra) > 125:
            continue
        carrier = algebra.carrier
        if isinstance(carrier, mv.FiniteChain):
            yield pytest.param(states.identity_state(algebra), id=param.id)
            continue
        k = len(carrier.atoms)
        weights = [F(i + 1, k * (k + 1) // 2) for i in range(k)]
        yield pytest.param(mv.measure_state(algebra, mv.measure(carrier.atoms, weights)),
                           id=f"{param.id}-faithful")
        if size(algebra) <= 64:  # the reference takes 4 s on 125 elements
            null = [F(0)] + [F(1, k - 1)] * (k - 1)
            yield pytest.param(mv.measure_state(algebra, mv.measure(carrier.atoms, null)),
                               id=f"{param.id}-null")


class TestTriangleOnIntegers:
    @pytest.mark.parametrize("state", list(stock_states()))
    def test_every_stock_state_matches_the_reference(self, state):
        verdict = states.verify_metric(state, 0)
        assert verdict.passed
        assert same_verdict(verdict, reference_metric(state))

    @pytest.mark.parametrize(
        "where, triple",
        [("first", (0, 1, 2)), ("middle", (3, 4, 5)), ("last", (6, 5, 7))],
    )
    def test_a_planted_triangle_failure(self, where, triple, monkeypatch):
        # distances 2 off the diagonal, but rho(a, c) = 3 > rho(a, b) + rho(b, c) = 1 + 1:
        # on the 7-chain under the identity state, the level k/7 at index k is rho
        a, b, c = triple
        levels = [[0 if x == y else 2 for y in range(8)] for x in range(8)]
        for x, y, level in ((a, b, 1), (b, c, 1), (a, c, 3)):
            levels[x][y] = levels[y][x] = level
        monkeypatch.setattr(
            core, "compile_table", lambda algebra: SimpleNamespace(dist=lambda x, y: levels[x][y])
        )
        state = states.identity_state(mv.finite_chain(7))
        pool = core.enumerate_carrier(state.algebra)
        verdict = states.verify_metric(state, 0)
        assert verdict.witnesses == [{"triple": [pool[a], pool[b], pool[c]]}]
        assert verdict.metrics == {"pairs": 64, "triples": (a * 8 + b) * 8 + c + 1}
        assert same_verdict(verdict, reference_metric(state))

    def test_the_finite_metric_evaluates_each_element_once(self, monkeypatch):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(3))
        state = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 3), F(2, 3))))
        calls = count_calls(monkeypatch, states, "eval_state")
        assert states.verify_metric(state, 0).passed
        assert calls == [16]


# ---------------------------------------------------------------------------
# One integer linear-combination kernel
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, module, name):
    """A one-entry list counting the calls of ``module.name`` from here on."""
    calls, real = [0], getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def reference_combine(coefficients, vectors):
    """`independence._combine` before the integer kernel: `Fraction` products and sums."""
    columns = zip(*vectors)
    return tuple(sum((c * v for c, v in zip(coefficients, column)), ZERO) for column in columns)


class TestLinearCombinations:
    @pytest.mark.parametrize("width", [0, 1, 3])
    def test_combine_matches_fraction_arithmetic(self, width):
        coefficients = (F(1, 2), F(2, 3), F(0), F(1))
        vectors = [tuple(F(i + j, i + j + 3) for j in range(width)) for i in range(4)]
        expected = reference_combine(coefficients, vectors)
        assert independence._combine(coefficients, vectors) == expected

    @pytest.mark.parametrize(
        "algebra, table, message",
        [
            (
                mv.function_algebra(("x", "y"), mv.FiniteChain(1)),
                {"(0,0)": "0", "(0,1)": "1/4", "(1,0)": "1/2", "(1,1)": "1"},
                r"^table is not linear at \(1,1\): it gives 1, the atom weights give 3/4$",
            ),
            (
                mv.finite_chain(2),
                {"0": "0", "1/2": "1/3", "1": "1"},
                r"^table is not linear at 1/2: it gives 1/3, the atom weights give 1/2$",
            ),
        ],
        ids=["weights-sum-below-one", "chain"],
    )
    def test_a_table_state_names_its_first_nonlinear_element(self, algebra, table, message):
        # atom weights that do not sum to 1 are a linearity failure at 1, not a measure error
        with pytest.raises(InputError, match=message):
            states.table_state(algebra, table)

    def test_independence_evaluates_each_factor_once_and_each_pair_once(self, monkeypatch):
        algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
        left = mv.measure_state(algebra, mv.measure(("x", "y"), (F(1, 4), F(3, 4))))
        right = states.identity_state(mv.finite_chain(3))
        calls = count_calls(monkeypatch, states, "eval_state")
        verdict = independence.verify_independence(left, right)
        assert verdict.passed and verdict.metrics == {"identities_checked": 9 * 4}
        assert calls == [9 + 4 + 9 * 4]

    @pytest.mark.parametrize(
        "images, message",
        [
            (((F(1),), (F(1),)), "value 2 outside"),
            (((F(-1, 2),), (F(0),)), "value -1/2 outside"),
            (((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), "expected 1 values, got 2"),
        ],
        ids=["above-one", "negative", "wrong-width"],
    )
    def test_an_out_of_range_atom_linear_image_is_refused(self, images, message):
        # an AtomLinearMap is public, so its images may be anything
        domain = mv.function_algebra(("x", "y"))
        omega = independence.AtomLinearMap(domain, mv.function_algebra(("u",)), images)
        with pytest.raises(InputError, match=message):
            independence.apply_atom_linear(omega, mv.element(domain, ("1", "1")))

    def test_an_in_range_image_is_the_combination(self):
        domain, codomain = mv.function_algebra(("x", "y")), mv.function_algebra(("u", "v"))
        omega = independence.AtomLinearMap(domain, codomain, ((F(1, 2), F(1, 3)), (F(1, 4), F(0))))
        image = independence.apply_atom_linear(omega, mv.element(domain, ("1/2", "1")))
        assert image == mv.element(codomain, ("1/2", "1/6"))
