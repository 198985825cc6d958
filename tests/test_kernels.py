"""The integer kernels of the exhaustive sweeps against their per-case references.

Associativity runs by rows of the compiled tables (`axioms._associativity_failures`),
the metric triangle on one integer matrix (`states._triangle_failures`), the
sampled metric on the integer pairs of `states._evaluate`, the
linear combinations of states, table states and bilinear maps through
`rationals.weighted_sum`, and the product layer's pairing kernel
(`independence._pairing`) in the independence sweep, the factorization triangle,
a bilinear table's linearity and `beta_bilinear`'s table, and the sampled law
sweeps on integer scalar pairs.  Each kernel is compared here with the per-case
code it replaced, kept below as a test-local reference: the same verdict, check
count and witness on every stock carrier, and on defects planted at the first, a
middle and the last case.  Work counts pin that no kernel falls back to per-case work.
"""

import itertools
import sys
from fractions import Fraction as F
from random import Random
from types import SimpleNamespace

import pytest

import mvprob as mv
from mvprob import axioms, core, independence, representation, states
from mvprob.errors import InputError
from mvprob.rationals import ONE, ZERO, as_pair, format_rational, random_unit
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
# The sampled metric on integer pairs
# ---------------------------------------------------------------------------


def reference_sampled_metric(s: states.State, samples: int, seed: int) -> Verdict:
    """The sampled branch of `states.verify_metric` before the pair form: rho a `Fraction`
    per encoded distance, compared as `Fraction`s."""
    algebra = s.algebra
    rng = core.seeded(seed, samples)
    ops = algebra.ops
    element = lambda p: mv.Element(algebra, ops.decode(p))
    metric = lambda a, b: F(*states._evaluate(s, ops.dist(a, b)))
    draw = lambda k: tuple(ops.draw(rng) for _ in range(k))
    pairs = [draw(2) for _ in range(samples)]
    triples = [draw(3) for _ in range(samples)]
    positive = True

    def pair_failures():
        nonlocal positive
        for position, (a, b) in enumerate(pairs):
            distance = metric(a, b)
            if distance != metric(b, a) or metric(a, a) != ZERO:
                yield position, {"pair": [element(a), element(b)]}
            positive = positive and (a == b or distance > ZERO)

    triangle = (
        (position, {"triple": [element(a), element(b), element(c)]})
        for position, (a, b, c) in enumerate(triples)
        if metric(a, c) > metric(a, b) + metric(b, c)
    )
    verdict = sweep([("pairs", samples, pair_failures()), ("triples", samples, triangle)], seed)
    if not verdict.passed:
        return verdict
    counts, faithful = verdict.metrics, states.is_faithful(s)
    if faithful.passed:
        separating = positive
    else:
        separating = states.rho(s, faithful.witnesses[0]["element"], core.zero(algebra)) > ZERO
    if separating != faithful.passed:
        return Verdict("fail", [{"separation": "does not match faithfulness"}], counts, seed)
    counts.update(faithful=faithful.passed, separates=separating)
    return Verdict("pass", [], counts, seed)


def sampled_states():
    """Builders of the states the sampled metric sweeps: the identity on the interval,
    faithful and null-atom measure states on rational function algebras of 1-4 atoms,
    and Chang's first coordinate.  Each builds its algebra when called, so a planted
    value op reaches the op set."""
    yield pytest.param(lambda: states.identity_state(mv.standard_unit()), id="U")
    for k in range(1, 5):
        atoms = tuple(f"x{i}" for i in range(k))
        weights = {"faithful": [F(i + 1, k * (k + 1) // 2) for i in range(k)]}
        if k > 1:
            weights["null"] = [F(0)] + [F(1, k - 1)] * (k - 1)
        for kind, ws in weights.items():
            build = lambda atoms=atoms, ws=ws: mv.measure_state(
                mv.function_algebra(atoms), mv.measure(atoms, ws)
            )
            yield pytest.param(build, id=f"{k}-atoms-{kind}")
    yield pytest.param(lambda: states.chang_state(mv.chang()), id="chang")


class TestSampledMetricOnPairs:
    @pytest.mark.parametrize("build", list(sampled_states()))
    @pytest.mark.parametrize("planted", [False, True], ids=["stock", "planted-neg"])
    def test_the_pair_form_matches_the_fraction_loop(self, build, planted, monkeypatch):
        # the planted involution, wrong at 1/3 alone, makes some sweeps fail with a witness
        if planted:
            neg = core._ValueOps.neg
            monkeypatch.setattr(
                core._ValueOps, "neg", lambda self, a: (1, 7) if a == (1, 3) else neg(self, a)
            )
        state = build()
        verdicts = []
        for seed in range(20):
            for samples in (1, 7, 300):
                verdict = states.verify_metric(state, samples, seed)
                assert same_verdict(verdict, reference_sampled_metric(state, samples, seed))
                verdicts.append(verdict.passed)
        # every stock sweep passes; some planted ones fail wherever the value ops run
        assert all(verdicts) == (not planted or isinstance(state.algebra.carrier, mv.Chang))


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
    """The combination sum_k coefficients[k] * vectors[k] before the integer kernel:
    `Fraction` products and sums."""
    columns = zip(*vectors)
    return tuple(sum((c * v for c, v in zip(coefficients, column)), ZERO) for column in columns)


class TestLinearCombinations:
    @pytest.mark.parametrize("width", [0, 1, 3])
    def test_combine_matches_fraction_arithmetic(self, width):
        # the vectors are read at their integer columns, the coefficients and targets as pairs
        coefficients = (F(1, 2), F(2, 3), F(0), F(1))
        vectors = [tuple(F(i + j, i + j + 3) for j in range(width)) for i in range(4)]
        expected = reference_combine(coefficients, vectors)
        encode = lambda values: tuple(map(as_pair, values))
        columns, pairs = independence._columns(vectors), encode(coefficients)
        assert independence._combines_to(columns, pairs, encode(expected))
        for k in range(width):  # a value off at any one atom, or a missing one, is no match
            off = expected[:k] + (expected[k] + F(1, 7),) + expected[k + 1:]
            assert not independence._combines_to(columns, pairs, encode(off))
            assert not independence._combines_to(columns, pairs, encode(expected[:k]))

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
        assert calls == [9 + 4]  # each pair is summed on integers, never evaluated

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


# ---------------------------------------------------------------------------
# The product layer's pairing kernel
# ---------------------------------------------------------------------------


def stock_factor_states():
    """A state on each stock finite factor: chains 1-6 under the identity, and Boolean
    algebras on 1-4 atoms and 2 and 3 atoms over the 2- to 4-chain under a faithful
    measure and, from 2 atoms on, one whose first atom is null."""
    for n in range(1, 7):
        yield f"chain{n}", states.identity_state(mv.finite_chain(n))
    shapes = [(k, 1) for k in range(1, 5)] + [(k, n) for k in (2, 3) for n in range(2, 5)]
    for k, n in shapes:
        atoms = tuple(f"x{i}" for i in range(k))
        algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
        name = f"boolean{k}" if n == 1 else f"{k}x{n}"
        weights = [F(i + 1, k * (k + 1) // 2) for i in range(k)]
        yield name, mv.measure_state(algebra, mv.measure(atoms, weights))
        if k > 1:
            null = [F(0)] + [F(1, k - 1)] * (k - 1)
            yield f"{name}-null", mv.measure_state(algebra, mv.measure(atoms, null))


FACTORS = dict(stock_factor_states())
RIGHTS = {name: s for name, s in FACTORS.items() if size(s.algebra) <= 16}  # pairs up to 125 x 16


def faithful(s):
    return states.is_faithful(s).passed


def reference_tensor(space, f, g):
    """`independence.tensor` before the kernel: `Fraction` products, through `Element`."""
    return mv.Element(space.state.algebra, tuple([x * y for x in f.payload for y in g.payload]))


def reference_beta(space, a, b):
    left, right = representation.represent(space.left, a), representation.represent(space.right, b)
    return reference_tensor(space, left, right)


def reference_independence(left, right, beta=reference_beta):
    """`verify_independence` before the kernel: s evaluated at `beta` per pair."""
    space = mv.product_space(left, right)
    lefts = [(a, states.eval_state(left, a)) for a in core.enumerate_carrier(left.algebra)]
    rights = [(b, states.eval_state(right, b)) for b in core.enumerate_carrier(right.algebra)]
    failures = (
        (position, {"pair": [a, b]})
        for position, ((a, sa), (b, sb)) in enumerate(itertools.product(lefts, rights))
        if states.eval_state(space.state, beta(space, a, b)) != sa * sb
    )
    return sweep([("identities_checked", len(lefts) * len(rights), failures)])


def reference_apply_atom_linear(omega, h):
    """`apply_atom_linear` before the held columns: the `Fraction` combination of its images."""
    return mv.Element(omega.codomain, reference_combine(h.payload, omega.images))


def texts(*elements):
    return tuple(core.format_element(e) for e in elements)


def reference_triangle(omega, space, gamma, rep_c):
    """The triangle stage of `verify_factorization` before the kernel: omega applied to the
    pairing of each pair against the represented table value, as `Element`s."""
    lefts = core.enumerate_carrier(gamma.left.algebra)
    rights = core.enumerate_carrier(gamma.right.algebra)
    failures = (
        (position, {"check": ("triangle", *texts(a, b))})
        for position, (a, b) in enumerate(itertools.product(lefts, rights))
        if reference_apply_atom_linear(omega, reference_beta(space, a, b))
        != representation.represent(rep_c, independence.apply_bilinear(gamma, a, b))
    )
    return sweep([("pairs_checked", len(lefts) * len(rights), failures)])


def reference_check_bilinear(gamma):
    """`check_bilinear` before the kernel: linearity by `Fraction` combinations of the
    atom images, gamma(a, 1_y) once per a; the bound stage as it is."""
    vector = core.ambient_vector
    lefts = core.enumerate_carrier(gamma.left.algebra)
    rights = core.enumerate_carrier(gamma.right.algebra)
    images = [
        [vector(independence.apply_bilinear(gamma, ex, ey))
         for ey in core.atom_indicator_elements(gamma.right.algebra)]
        for ex in core.atom_indicator_elements(gamma.left.algebra)
    ]
    columns, width = list(zip(*images)), len(rights)

    def nonlinear():
        for i, (a, row) in enumerate(zip(lefts, gamma.table)):
            at_a = [reference_combine(vector(a), column) for column in columns]
            for j, (b, value) in enumerate(zip(rights, row)):
                if vector(value) != reference_combine(vector(b), at_a):
                    yield i * width + j, {"check": ("linearity", *texts(a, b))}

    def over_bound():
        for i, (a, row) in enumerate(zip(lefts, gamma.table)):
            sa = states.eval_state(gamma.left, a)
            for j, (b, value) in enumerate(zip(rights, row)):
                sb = states.eval_state(gamma.right, b)
                if states.eval_state(gamma.codomain, value) > min(gamma.bound * sa * sb, ONE):
                    yield i * width + j, {"check": ("bound", *texts(a, b))}

    stages = [("checks", len(lefts) * width, nonlinear())]
    if gamma.bound is not None:
        stages.append(("checks", len(lefts) * width, over_bound()))
    return sweep(stages)


def factorization(gamma, space):
    rep_c = mv.embed_l1(gamma.codomain.algebra, gamma.codomain)
    return mv.factorize(gamma, space, rep_c), rep_c


def same_triangle(omega, space, gamma, rep_c) -> bool:
    """Whether `verify_factorization`'s triangle stage agrees with the reference: verdict,
    witness and pair count (one draw, so the later stages stay cheap)."""
    verdict = mv.verify_factorization(omega, space, gamma, rep_c, samples=1, seed=0)
    reference = reference_triangle(omega, space, gamma, rep_c)
    return (verdict.verdict, verdict.witnesses, verdict.metrics["pairs_checked"]) == (
        reference.verdict, reference.witnesses, reference.metrics["pairs_checked"]
    )


def replaced(gamma, i, j):
    """``gamma`` with its table value at rank (i, j) replaced by its negation, unvalidated."""
    table = [list(row) for row in gamma.table]
    table[i][j] = mv.neg(table[i][j])
    return mv.BilinearMap(gamma.left, gamma.right, gamma.codomain,
                          tuple(map(tuple, table)), gamma.bound)


def plant_pairing(monkeypatch, space, a, b):
    """Negate `independence._pairing` at the pair (a, b), and return the reference `beta`
    planted the same way."""
    at = (independence._represented(space.left, a), independence._represented(space.right, b))
    pairing = independence._pairing
    monkeypatch.setattr(
        independence, "_pairing",
        lambda u, v: [(d - x, d) for x, d in pairing(u, v)] if (u, v) == at else pairing(u, v),
    )

    def planted_beta(sp, x, y):
        paired = reference_beta(sp, x, y)
        return mv.neg(paired) if (x, y) == (a, b) else paired

    return planted_beta


# the planted coupling: 2 atoms over the 2-chain (9 elements) by the 3-chain (4); no planted
# pair is an atom-indicator pair, so the atom images, and omega, stay those of beta
PLANT_LEFT, PLANT_RIGHT = FACTORS["2x2"], FACTORS["chain3"]
PLANTED_PAIRS = {"first": (0, 0), "middle": (4, 1), "last": (8, 3)}


class TestPairingKernel:
    @pytest.mark.parametrize("left", sorted(FACTORS))
    def test_beta_is_the_kernel_pairing_decoded(self, left):
        # a fault in the kernel, or in beta's Element wrapper, breaks one of the two equalities
        for right in RIGHTS.values():
            space = mv.product_space(FACTORS[left], right)
            for a in core.enumerate_carrier(space.left.source):
                u = independence._represented(space.left, a)
                for b in core.enumerate_carrier(space.right.source):
                    v = independence._represented(space.right, b)
                    decoded = tuple(F(x, d) for x, d in independence._pairing(u, v))
                    paired = mv.beta(space, a, b)
                    assert paired.payload == decoded
                    assert paired == reference_beta(space, a, b)

    @pytest.mark.parametrize("left", sorted(FACTORS))
    def test_independence_matches_the_reference(self, left):
        for right in RIGHTS.values():
            verdict = independence.verify_independence(FACTORS[left], right)
            assert verdict.passed
            assert same_verdict(verdict, reference_independence(FACTORS[left], right))

    @pytest.mark.parametrize("left", sorted(n for n, s in FACTORS.items() if faithful(s)))
    def test_the_triangle_matches_the_reference(self, left):
        # beta's table on every pair; the two maps into other codomains up to 16 x 16
        for right in filter(faithful, RIGHTS.values()):
            space = mv.product_space(FACTORS[left], right)
            gammas = [mv.beta_bilinear(space)]
            if size(space.left.source) <= 16:
                gammas += [mv.state_product_bilinear(space), mv.left_scaling_bilinear(space)]
            for gamma in gammas:
                omega, rep_c = factorization(gamma, space)
                assert same_triangle(omega, space, gamma, rep_c)

    @pytest.mark.parametrize("left", sorted(FACTORS))
    def test_check_bilinear_matches_the_reference(self, left):
        for right in RIGHTS.values():
            space = mv.product_space(FACTORS[left], right)
            gammas = [mv.beta_bilinear(space)]
            if size(space.left.source) <= 16:
                gammas += [mv.state_product_bilinear(space), mv.left_scaling_bilinear(space)]
            for gamma in gammas:
                verdict = mv.check_bilinear(gamma)
                assert verdict.passed and same_verdict(verdict, reference_check_bilinear(gamma))

    @pytest.mark.parametrize("left", ["2x2", "3x2", "boolean4"])
    def test_apply_atom_linear_matches_the_reference(self, left):
        rng = Random(7)
        for right in filter(faithful, RIGHTS.values()):
            space = mv.product_space(FACTORS[left], right)
            gamma = mv.beta_bilinear(space)
            omega, _ = factorization(gamma, space)
            for linear in (omega, mv.extend_bilinear_divisible(gamma)):
                for _ in range(5):
                    h = core.random_element(rng, linear.domain)
                    expected = reference_apply_atom_linear(linear, h)
                    assert independence.apply_atom_linear(linear, h) == expected

    @pytest.mark.parametrize("where", sorted(PLANTED_PAIRS))
    def test_a_planted_independence_failure(self, where, monkeypatch):
        i, j = PLANTED_PAIRS[where]
        space = mv.product_space(PLANT_LEFT, PLANT_RIGHT)
        a = core.enumerate_carrier(PLANT_LEFT.algebra)[i]
        b = core.enumerate_carrier(PLANT_RIGHT.algebra)[j]
        planted_beta = plant_pairing(monkeypatch, space, a, b)
        verdict = independence.verify_independence(PLANT_LEFT, PLANT_RIGHT)
        assert verdict.witnesses == [{"pair": [a, b]}]
        assert verdict.metrics == {"identities_checked": i * 4 + j + 1}
        reference = reference_independence(PLANT_LEFT, PLANT_RIGHT, planted_beta)
        assert same_verdict(verdict, reference)

    @pytest.mark.parametrize("where", sorted(PLANTED_PAIRS))
    def test_a_planted_triangle_failure(self, where):
        i, j = PLANTED_PAIRS[where]
        space = mv.product_space(PLANT_LEFT, PLANT_RIGHT)
        gamma = replaced(mv.beta_bilinear(space), i, j)
        omega, rep_c = factorization(gamma, space)
        assert omega == factorization(mv.beta_bilinear(space), space)[0]
        verdict = mv.verify_factorization(omega, space, gamma, rep_c, samples=1, seed=0)
        a = core.enumerate_carrier(PLANT_LEFT.algebra)[i]
        b = core.enumerate_carrier(PLANT_RIGHT.algebra)[j]
        assert verdict.witnesses == [{"check": ("triangle", *texts(a, b))}]
        assert verdict.metrics["pairs_checked"] == i * 4 + j + 1
        assert same_triangle(omega, space, gamma, rep_c)

    @pytest.mark.parametrize("where", sorted(PLANTED_PAIRS))
    def test_a_planted_linearity_failure(self, where):
        i, j = PLANTED_PAIRS[where]
        space = mv.product_space(PLANT_LEFT, PLANT_RIGHT)
        gamma = replaced(mv.beta_bilinear(space), i, j)
        verdict = mv.check_bilinear(gamma)
        a = core.enumerate_carrier(PLANT_LEFT.algebra)[i]
        b = core.enumerate_carrier(PLANT_RIGHT.algebra)[j]
        assert verdict.witnesses == [{"check": ("linearity", *texts(a, b))}]
        assert verdict.metrics == {"checks": i * 4 + j + 1}
        assert same_verdict(verdict, reference_check_bilinear(gamma))

    @pytest.mark.parametrize("side", ["domain", "codomain"])
    def test_an_omega_off_other_algebras_is_refused(self, side):
        # the triangle reads omega's columns only, so it checks omega's algebras first
        space = mv.product_space(PLANT_LEFT, PLANT_RIGHT)
        gamma = mv.beta_bilinear(space)
        omega, rep_c = factorization(gamma, space)
        algebra = omega.domain if side == "domain" else omega.codomain
        renamed = mv.function_algebra(tuple(f"z{i}" for i in range(len(algebra.carrier.atoms))))
        domain, codomain = (renamed, omega.codomain) if side == "domain" else (omega.domain, renamed)
        moved = independence.AtomLinearMap(domain, codomain, omega.images)
        with pytest.raises(InputError, match="^omega must map the product algebra to rep_c's target$"):
            mv.verify_factorization(moved, space, gamma, rep_c, samples=1, seed=0)

    def test_no_element_is_built_per_pair(self, monkeypatch):
        # on 16 x 5 elements, 80 pairs: the independence sweep and the triangle build
        # O(n_A + n_B) checked elements (the triangle's one draw builds a few)
        left, right = FACTORS["2x3"], FACTORS["chain4"]
        space = mv.product_space(left, right)
        gamma = mv.state_product_bilinear(space)
        omega, rep_c = factorization(gamma, space)
        calls = count_calls(monkeypatch, core, "_coerce")
        assert independence.verify_independence(left, right).passed
        assert calls[0] <= 16 + 5
        calls[0] = 0
        assert mv.verify_factorization(omega, space, gamma, rep_c, samples=1, seed=0).passed
        assert calls[0] <= 16 + 5


# ---------------------------------------------------------------------------
# The sampled law sweeps on integer scalars
# ---------------------------------------------------------------------------
#
# The laws as they were with `Fraction` scalars: the scalar arithmetic in
# `Fraction`s, each scalar encoded only where the op set takes it, and each PMV
# law's meet computed twice.


def encoded(alpha):
    return alpha.numerator, alpha.denominator


def reference_rmv1(ops, e, s):
    a, b = e
    (alpha,) = s
    lhs = ops.scalar(encoded(alpha), ops.odot(a, ops.neg(b)))
    rhs = ops.odot(ops.scalar(encoded(alpha), a), ops.neg(ops.scalar(encoded(alpha), b)))
    return lhs == rhs


def reference_rmv2(ops, e, s):
    (a,) = e
    alpha, beta = s
    lhs = ops.scalar(encoded(max(ZERO, alpha - beta)), a)
    rhs = ops.odot(ops.scalar(encoded(alpha), a), ops.neg(ops.scalar(encoded(beta), a)))
    return lhs == rhs


def reference_rmv3(ops, e, s):
    (a,) = e
    alpha, beta = s
    inner = ops.scalar(encoded(alpha), ops.scalar(encoded(beta), a))
    return inner == ops.scalar(encoded(alpha * beta), a)


def reference_rmv4(ops, e, _):
    (a,) = e
    return ops.scalar(encoded(F(1)), a) == a


def reference_compat(ops, e, s):
    a, b = e
    (alpha,) = s
    scaled = ops.scalar(encoded(alpha), ops.prod(a, b))
    return scaled == ops.prod(ops.scalar(encoded(alpha), a), b) and scaled == ops.prod(
        a, ops.scalar(encoded(alpha), b)
    )


def reference_pmv1(ops, e, _):
    c, a, b = e
    lhs = ops.prod(c, ops.odot(a, ops.neg(ops.meet(a, b))))
    rhs = ops.odot(ops.prod(c, a), ops.neg(ops.prod(c, ops.meet(a, b))))
    return lhs == rhs


def reference_pmv2(ops, e, _):
    c, a, b = e
    lhs = ops.prod(ops.odot(a, ops.neg(ops.meet(a, b))), c)
    rhs = ops.odot(ops.prod(a, c), ops.neg(ops.prod(ops.meet(a, b), c)))
    return lhs == rhs


REFERENCE_LAWS = {
    "product-left-distribution": reference_pmv1,
    "product-right-distribution": reference_pmv2,
    "scalar-odot-homogeneity": reference_rmv1,
    "scalar-difference": reference_rmv2,
    "scalar-composition": reference_rmv3,
    "scalar-unit": reference_rmv4,
    "scalar-product-compatibility": reference_compat,
}


def reference_law_failures(ops, name, law, arity, scalar_arity, pool):
    describe = ops.text
    for position, (elems, scalars) in enumerate(pool):
        elems, scalars = elems[:arity], scalars[:scalar_arity]
        if not law(ops, elems, scalars):
            witness = [describe(x) for x in elems] + [format_rational(s) for s in scalars]
            yield position, {"axiom": name, "elements": witness}


def reference_sampled_axioms(target, level, samples, seed):
    """The sampled branch of `check_axioms` with a `random_unit` pool of `Fraction` scalars."""
    ops = target.ops
    rng = core.seeded(seed, samples)
    pool = [
        (tuple(ops.draw(rng) for _ in range(3)), (random_unit(rng), random_unit(rng)))
        for _ in range(samples)
    ]
    stages = [
        ("checks", samples,
         reference_law_failures(ops, name, REFERENCE_LAWS.get(name, law), arity, scalars, pool))
        for name, arity, scalars, law in axioms._laws_for(level, target)
    ]
    return sweep(stages, seed)


def scalar_algebras():
    """The divisible carriers of the scalar laws: the interval and rational function
    algebras of 1-3 atoms, each built when called, after any plant."""
    yield pytest.param(mv.standard_unit, id="U")
    for k in range(1, 4):
        yield pytest.param(
            lambda k=k: mv.function_algebra(tuple(f"x{i}" for i in range(k))), id=f"{k}-atoms"
        )


class TestScalarPairs:
    @pytest.mark.parametrize("build", list(scalar_algebras()))
    @pytest.mark.parametrize("level", ["RMV", "fMV"])
    @pytest.mark.parametrize("planted", [False, True], ids=["stock", "planted-scalar"])
    def test_the_pair_laws_match_the_fraction_laws(self, build, level, planted, monkeypatch):
        # the planted action, wrong at alpha = 1/2 alone (in any encoding), makes some sweeps fail
        if planted:
            scalar = core._ValueOps.scalar
            monkeypatch.setattr(
                core._ValueOps, "scalar",
                lambda self, alpha, a: scalar(self, (1, 3) if F(*alpha) == F(1, 2) else alpha, a),
            )
        algebra = build()
        verdicts = []
        for seed in range(20):
            for samples in (1, 7, 300):
                verdict = mv.check_axioms(algebra, level, samples, seed)
                reference = reference_sampled_axioms(algebra, level, samples, seed)
                assert same_verdict(verdict, reference), (seed, samples)
                verdicts.append(verdict.passed)
        assert all(verdicts) != planted

    @pytest.mark.parametrize("atoms", [None, 3], ids=["U", "3-atoms"])
    def test_a_sweep_draws_no_fraction_scalar(self, atoms, monkeypatch):
        algebra = mv.standard_unit() if atoms is None else mv.function_algebra(("x", "y", "z"))
        draws = [
            count_calls(monkeypatch, module, "random_unit")
            for name, module in list(sys.modules.items())
            if name.startswith("mvprob") and hasattr(module, "random_unit")
        ]
        scalar, seen = core._ValueOps.scalar, []

        def recording(self, alpha, a):
            seen.append(alpha)
            return scalar(self, alpha, a)

        monkeypatch.setattr(core._ValueOps, "scalar", recording)
        verdict = mv.check_axioms(algebra, "fMV", 300, 0)
        assert verdict.passed and verdict.metrics == {"checks": 15 * 300}
        assert draws and all(calls == [0] for calls in draws)
        assert len(seen) >= 300 * (1 if atoms is None else 3)
        assert all(
            type(alpha) is tuple and len(alpha) == 2 and all(type(v) is int for v in alpha)
            for alpha in seen
        )


# ---------------------------------------------------------------------------
# The pairing as a bilinear table
# ---------------------------------------------------------------------------


SMALL_FACTORS = {
    (left, right): (FACTORS[left], FACTORS[right])
    for left in sorted(FACTORS) for right in sorted(FACTORS)
    if size(FACTORS[left].algebra) <= 16 and size(FACTORS[right].algebra) <= 5
}


class TestBetaTable:
    @pytest.mark.parametrize("pair", sorted(SMALL_FACTORS), ids="-by-".join)
    def test_the_table_is_the_per_pair_beta(self, pair):
        space = mv.product_space(*SMALL_FACTORS[pair])
        per_pair = mv.bilinear_map(
            space.left.state, space.right.state, space.state,
            lambda a, b: mv.beta(space, a, b), bound=1,
        )
        gamma = mv.beta_bilinear(space)
        assert gamma == per_pair
        assert all(v.payload == w.payload for r, s in zip(gamma.table, per_pair.table)
                   for v, w in zip(r, s))

    def test_each_element_is_represented_once(self, monkeypatch):
        space = mv.product_space(FACTORS["2x3"], FACTORS["chain4"])
        calls = count_calls(monkeypatch, representation, "represent")
        assert mv.beta_bilinear(space).bound == 1
        assert calls == [16 + 5]
