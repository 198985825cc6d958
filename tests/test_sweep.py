"""`verdict.sweep`, and a defect planted at the first and the last case of
every stage of the eight verifiers that run through it.

A first-case plant must report its stage's counter at 1 (after the sizes
of the stages before it that share the counter), and a last-case plant at
the stage's size: together with the passing sweep, which reports the
sizes, that pins each size to the number of cases its loop checks.
"""

import itertools
from fractions import Fraction as F
from random import Random
from types import SimpleNamespace

import pytest

import mvprob as mv
from mvprob import axioms, core, independence, representation, states
from mvprob.errors import InputError
from mvprob.rationals import ONE, ZERO, format_rational, random_unit
from mvprob.verdict import sweep

U = mv.standard_unit()
C = mv.chang()
CH2 = mv.finite_chain(2)
BOOL2 = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
FIRST, LAST = "first", "last"


def chain_state(algebra):
    n = algebra.carrier.n
    return mv.table_state(algebra, {F(k, n): F(k, n) for k in range(n + 1)})


def nth_call(at, fn, bad, counts=lambda *args: True):
    """``fn`` with its ``at``-th counted call (1-based) answered by ``bad``;
    ``counts`` picks the calls that count."""
    calls = itertools.count(1)

    def planted(*args):
        if counts(*args) and next(calls) == at:
            return bad(*args)
        return fn(*args)

    return planted


def other(x):
    """An element of ``x``'s algebra that differs from ``x`` in every value."""
    flip = lambda v: ZERO if v else ONE
    payload = tuple(map(flip, x.payload)) if isinstance(x.payload, tuple) else flip(x.payload)
    return mv.Element(x.algebra, payload)


def untouched():
    raise AssertionError("a stage after the first failure was pulled")
    yield  # pragma: no cover


class TestSweepDriver:
    def test_a_pass_adds_every_size_and_keeps_the_seed(self):
        verdict = sweep([("a", 3, iter(())), ("b", 0, []), ("a", 4, [])], seed=9)
        assert verdict.passed and verdict.witnesses == []
        assert verdict.metrics == {"a": 7, "b": 0} and verdict.seed == 9

    def test_a_failure_counts_its_position_and_stops(self):
        stages = [
            ("a", 3, []),
            ("b", 5, iter([(2, "w"), (4, "later")])),
            ("a", 4, untouched()),
            ("c", 1, untouched()),
        ]
        verdict = sweep(stages)
        assert verdict.verdict == "fail" and verdict.witnesses == ["w"]
        assert verdict.metrics == {"a": 3, "b": 3, "c": 0} and verdict.seed is None

    def test_a_failure_before_the_first_case_counts_nothing(self):
        verdict = sweep([("checks", 6, []), ("checks", 6, [(-1, "bound")])])
        assert verdict.witnesses == ["bound"] and verdict.metrics == {"checks": 6}


# ---------------------------------------------------------------------------
# check_axioms: one stage per law, all counted as checks
# ---------------------------------------------------------------------------

TABLE_SWEEPS = {  # (algebra, level): each law's stage size is n^arity
    "MV-chain3": (mv.finite_chain(3), "MV"),
    "PMV-boolean": (BOOL2, "PMV"),
}
SAMPLES = 12


def laws_of(algebra, level):
    return axioms._laws_for(level, algebra)


def plant_law(monkeypatch, algebra, level, index, at, seen):
    laws = laws_of(algebra, level)
    name, arity, scalar_arity, law = laws[index]

    def broken(ops, e, s):
        seen.append((e, s))
        return False

    planted = nth_call(at, law, broken)
    laws[index] = (name, arity, scalar_arity, planted)
    monkeypatch.setattr(axioms, "_laws_for", lambda level, target: laws)
    return name, arity


class TestPlantedLaws:
    @pytest.mark.parametrize("sweep_id", sorted(TABLE_SWEEPS))
    def test_each_stage_size_is_its_case_count(self, sweep_id, monkeypatch):
        algebra, level = TABLE_SWEEPS[sweep_id]
        n = len(core.enumerate_carrier(algebra))
        laws, counted = laws_of(algebra, level), []
        for index, (name, arity, scalar_arity, law) in enumerate(laws):
            calls = itertools.count(1)
            counted.append(calls)
            counting = lambda ops, e, s, law=law, calls=calls: next(calls) > 0 and law(ops, e, s)
            laws[index] = (name, arity, scalar_arity, counting)
        monkeypatch.setattr(axioms, "_laws_for", lambda level, target: laws)
        verdict = mv.check_axioms(algebra, level)
        assert verdict.passed
        sizes = [n ** arity for _, arity, _, _ in laws]
        assert [next(calls) - 1 for calls in counted] == sizes
        assert verdict.metrics == {"checks": sum(sizes)}

    @pytest.mark.parametrize("where", [FIRST, LAST])
    @pytest.mark.parametrize(
        "sweep_id, index",
        [(s, i) for s in sorted(TABLE_SWEEPS) for i in range(len(laws_of(*TABLE_SWEEPS[s])))],
    )
    def test_exhaustive(self, sweep_id, index, where, monkeypatch):
        algebra, level = TABLE_SWEEPS[sweep_id]
        n = len(core.enumerate_carrier(algebra))
        sizes = [n ** arity for _, arity, _, _ in laws_of(algebra, level)]
        at = 1 if where == FIRST else sizes[index]
        name, arity = plant_law(monkeypatch, algebra, level, index, at, [])
        verdict = mv.check_axioms(algebra, level)
        names = core.compile_table(algebra).names
        element = names[0] if where == FIRST else names[-1]
        assert verdict.witnesses == [{"axiom": name, "elements": [element] * arity}]
        assert verdict.metrics == {"checks": sum(sizes[:index]) + at}
        assert verdict.seed is None

    @pytest.mark.parametrize("where", [FIRST, LAST])
    @pytest.mark.parametrize("index", range(len(laws_of(U, "fMV"))))
    def test_sampled(self, index, where, monkeypatch):
        at = 1 if where == FIRST else SAMPLES
        seen = []
        name, _ = plant_law(monkeypatch, U, "fMV", index, at, seen)
        verdict = mv.check_axioms(U, "fMV", SAMPLES, 5)
        ((elems, scalars),) = seen
        texts = [format_rational(U.ops.decode(x)) for x in elems]
        texts += [format_rational(F(x, d)) for x, d in scalars]  # scalars are pairs (x, d)
        assert verdict.witnesses == [{"axiom": name, "elements": texts}]
        assert verdict.metrics == {"checks": index * SAMPLES + at}
        assert verdict.seed == 5

    def test_a_sampled_pass_counts_every_draw_under_every_law(self):
        verdict = mv.check_axioms(U, "fMV", SAMPLES, 5)
        assert verdict.passed and verdict.metrics == {"checks": 15 * SAMPLES}


# ---------------------------------------------------------------------------
# states.verify_metric: pairs, then triples, then separation
# ---------------------------------------------------------------------------


def script_draws(monkeypatch, draws):
    """Make the seeded draws of one-value op sets return the codes of ``draws`` in order."""
    it = iter([d.code for d in draws])
    monkeypatch.setattr(core._ValueOps, "draw", lambda self, rng: next(it))


def u(text):
    return mv.element(U, text)


class TestPlantedMetric:
    samples = 5

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_pair(self, where, monkeypatch):
        # an asymmetric distance at one ordered pair of the sampled pairs
        k = 1 if where == FIRST else self.samples
        zero, p, q = u("0"), u("1/3"), u("1/2")
        pairs = [(p, q) if i == k else (zero, zero) for i in range(1, self.samples + 1)]
        draws = [x for pair in pairs for x in pair] + [zero] * (3 * self.samples)
        script_draws(monkeypatch, draws)
        planted, dist = (p.code, q.code), core._ValueOps.dist
        monkeypatch.setattr(
            core._ValueOps, "dist",
            lambda self, a, b: dist(self, a, a) if (a, b) == planted else dist(self, a, b),
        )
        verdict = states.verify_metric(mv.identity_state(U), self.samples, 3)
        assert verdict.witnesses == [{"pair": [p, q]}]
        assert verdict.metrics == {"pairs": k, "triples": 0} and verdict.seed == 3

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_triple(self, where, monkeypatch):
        # rho read as the pair (0, 1) at distance 1/2 breaks the triangle at (0, 1/2, 1) only
        k = 1 if where == FIRST else self.samples
        zero, half, one = u("0"), u("1/2"), u("1")
        triples = [(zero, half, one) if i == k else (zero,) * 3 for i in range(1, self.samples + 1)]
        draws = [zero] * (2 * self.samples) + [x for t in triples for x in t]
        script_draws(monkeypatch, draws)
        ops = U.ops
        evaluate = states._evaluate
        monkeypatch.setattr(
            states, "_evaluate",
            lambda s, p: (0, 1) if ops.decode(p) == F(1, 2) else evaluate(s, p),
        )
        verdict = states.verify_metric(mv.identity_state(U), self.samples, 3)
        assert verdict.witnesses == [{"triple": [zero, half, one]}]
        assert verdict.metrics == {"pairs": self.samples, "triples": k}

    def test_finite_sizes_are_the_pair_and_triple_counts(self):
        verdict = states.verify_metric(chain_state(CH2), 0)
        assert verdict.metrics == {"pairs": 9, "triples": 27, "faithful": True, "separates": True}

    def test_separation_mismatch(self, monkeypatch):
        # 0 and 1 of the 1-chain planted at distance 0: a faithful state that does not separate
        chain1 = mv.finite_chain(1)
        compile_table = core.compile_table

        def null_distance(algebra):
            table = compile_table(algebra)
            return SimpleNamespace(dist=lambda a, b: 0 if a != b else table.dist(a, b))

        monkeypatch.setattr(core, "compile_table", null_distance)
        verdict = states.verify_metric(chain_state(chain1), 0)
        assert verdict.witnesses == [{"separation": "does not match faithfulness"}]
        assert verdict.metrics == {"pairs": 4, "triples": 8} and verdict.seed is None


# ---------------------------------------------------------------------------
# states.verify_quotient
# ---------------------------------------------------------------------------


class TestPlantedQuotient:
    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_factoring(self, where, monkeypatch):
        s = chain_state(CH2)
        elements = core.enumerate_carrier(CH2)
        target = elements[0] if where == FIRST else elements[-1]
        quotient = states.state_quotient(CH2, s)
        project = lambda a: mv.neg(a) if a == target else quotient.project(a)
        planted = states.StateQuotient(quotient.algebra, quotient.state, project)
        monkeypatch.setattr(states, "state_quotient", lambda algebra, s: planted)
        verdict = states.verify_quotient(s)
        assert verdict.witnesses == [{"element": target}]
        assert verdict.metrics == {"checks": 1 if where == FIRST else len(elements)}

    def test_a_quotient_state_that_is_not_faithful(self, monkeypatch):
        s = mv.measure_state(BOOL2, mv.measure(("x", "y"), (ONE, ZERO)))
        identity = lambda algebra, s: states.StateQuotient(algebra, s, lambda a: a)
        monkeypatch.setattr(states, "state_quotient", identity)
        verdict = states.verify_quotient(s)
        assert verdict.witnesses == [{"quotient": "state is not faithful"}]
        assert verdict.metrics == {"checks": 4, "complete": True}
        assert verdict.result == {"algebra": BOOL2}

    def test_the_chang_sweep_size(self):
        verdict = states.verify_quotient(mv.chang_state(C))
        assert verdict.metrics == {"checks": 2 * (core.CHANG_SWEEP_BOUND + 1), "complete": True}


# ---------------------------------------------------------------------------
# independence: the independence identity, check_bilinear, verify_factorization
# ---------------------------------------------------------------------------


def coupling():
    s_a = mv.measure_state(BOOL2, mv.measure(("x", "y"), (F(1, 2), F(1, 2))))
    s_b = chain_state(CH2)
    return s_a, s_b, mv.product_space(s_a, s_b)


def pair_at(where):
    """The first or last pair of BOOL2 x CH2 in sweep order, and its 1-based position."""
    pairs = list(itertools.product(core.enumerate_carrier(BOOL2), core.enumerate_carrier(CH2)))
    return (pairs[0], 1) if where == FIRST else (pairs[-1], len(pairs))


def plant_beta(monkeypatch, target):
    """Negate the pairing kernel at the pair ``target``: `beta` and both sweeps call it."""
    *_, space = coupling()
    at = tuple(map(independence._represented, (space.left, space.right), target))
    pairing = independence._pairing
    monkeypatch.setattr(
        independence, "_pairing",
        lambda u, v: [(d - x, d) for x, d in pairing(u, v)] if (u, v) == at else pairing(u, v),
    )


def texts(*elements):
    return tuple(core.format_element(e) for e in elements)


class TestPlantedIndependence:
    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_identity(self, where, monkeypatch):
        (a, b), k = pair_at(where)
        s_a, s_b, space = coupling()
        paired = mv.beta(space, a, b)
        plant_beta(monkeypatch, (a, b))
        assert mv.beta(space, a, b) == mv.neg(paired)
        verdict = independence.verify_independence(s_a, s_b)
        assert verdict.witnesses == [{"pair": [a, b]}]
        assert verdict.metrics == {"identities_checked": k}


class TestPlantedBilinear:
    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_linearity(self, where):
        s_a, s_b, space = coupling()
        gamma = mv.beta_bilinear(space)
        (a, b), k = pair_at(where)
        i, j = divmod(k - 1, 3)
        value = gamma.table[i][j]
        wrong = mv.neg(value)
        table = tuple(
            tuple(wrong if (r, c) == (i, j) else v for c, v in enumerate(row))
            for r, row in enumerate(gamma.table)
        )
        verdict = mv.check_bilinear(mv.BilinearMap(s_a, s_b, space.state, table, 1))
        assert verdict.witnesses == [{"check": ("linearity", *texts(a, b))}]
        assert verdict.metrics == {"checks": k}

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_bound(self, where, monkeypatch):
        s_a, s_b, space = coupling()
        gamma = mv.beta_bilinear(space)
        (a, b), k = pair_at(where)
        i, j = divmod(k - 1, 3)
        planted = gamma.table[i][j].code
        evaluate = states._evaluate
        monkeypatch.setattr(
            states, "_evaluate",
            lambda s, p: (2, 1) if s is gamma.codomain and p == planted else evaluate(s, p),
        )
        verdict = mv.check_bilinear(gamma)
        assert verdict.witnesses == [{"check": ("bound", *texts(a, b))}]
        assert verdict.metrics == {"checks": 12 + k}

    def test_the_bound_is_capped_at_one(self, monkeypatch):
        # K = 2 at (1, 1): 3/2 stays under K * s_A(1) * s_B(1) = 2 but breaks min(2, 1) = 1
        s_a, s_b, space = coupling()
        gamma = mv.beta_bilinear(space)
        (a, b), k = pair_at(LAST)
        planted = gamma.table[-1][-1].code
        evaluate = states._evaluate
        monkeypatch.setattr(
            states, "_evaluate",
            lambda s, p: (3, 2) if s is gamma.codomain and p == planted else evaluate(s, p),
        )
        verdict = mv.check_bilinear(mv.BilinearMap(s_a, s_b, space.state, gamma.table, 2))
        assert verdict.witnesses == [{"check": ("bound", *texts(a, b))}]
        assert verdict.metrics == {"checks": 12 + k}

    @pytest.mark.parametrize("cut", ["row", "entry"])
    def test_a_table_of_the_wrong_shape_is_refused(self, cut):
        # zip would check only the cells present, and the stage sizes would overstate them
        s_a, s_b, space = coupling()
        table = mv.beta_bilinear(space).table
        table = table[:-1] if cut == "row" else table[:-1] + (table[-1][:-1],)
        with pytest.raises(InputError, match="needs 4 rows of 3 values"):
            mv.check_bilinear(mv.BilinearMap(s_a, s_b, space.state, table, 1))

    def test_a_bound_below_one_fails_before_the_first_pair(self):
        s_a, s_b, space = coupling()
        gamma = mv.beta_bilinear(space)
        verdict = mv.check_bilinear(mv.BilinearMap(s_a, s_b, space.state, gamma.table, 0))
        assert verdict.witnesses == [{"check": ("bound", "0")}]
        assert verdict.metrics == {"checks": 12}


class TestPlantedFactorization:
    samples, seed = 6, 4

    def setup(self):
        s_a, s_b, space = coupling()
        gamma = mv.state_product_bilinear(space)
        rep_c = mv.embed_l1(gamma.codomain.algebra, gamma.codomain)
        omega = mv.factorize(gamma, space, rep_c)
        return omega, space, gamma, rep_c

    def verify(self, omega, space, gamma, rep_c):
        return mv.verify_factorization(omega, space, gamma, rep_c, self.samples, self.seed)

    def draws(self, space):
        """The seeded draws in their documented order: each h and its h2 <= not h,
        then the span elements."""
        rng, product = Random(self.seed), space.state.algebra
        pairs = []
        for _ in range(self.samples):
            h = core.random_element(rng, product)
            room = mv.neg(h).payload
            pairs.append((h, mv.Element(product, tuple(random_unit(rng) * v for v in room))))
        return pairs, [core.random_element(rng, product) for _ in range(self.samples)]

    def counts(self, pairs=12, linearity=0, bound=0, uniqueness=0):
        return {
            "pairs_checked": pairs, "linearity_checks": linearity,
            "bound_checks": bound, "uniqueness_checks": uniqueness,
        }

    def test_a_pass_reports_every_size(self):
        omega, *rest = self.setup()
        verdict = self.verify(omega, *rest)
        n = self.samples
        assert verdict.passed and verdict.metrics == self.counts(12, n, n, len(omega.images) + n)

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_triangle(self, where, monkeypatch):
        args = self.setup()
        (a, b), k = pair_at(where)
        plant_beta(monkeypatch, (a, b))
        verdict = self.verify(*args)
        assert verdict.witnesses == [{"check": ("triangle", *texts(a, b))}]
        assert verdict.metrics == self.counts(pairs=k)

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_linearity(self, where, monkeypatch):
        args = self.setup()
        k = 1 if where == FIRST else self.samples
        monkeypatch.setattr(core, "partial_add", nth_call(k, core.partial_add, lambda a, b: None))
        verdict = self.verify(*args)
        h, h2 = self.draws(args[1])[0][k - 1]
        assert verdict.witnesses == [{"check": ("linearity", *texts(h, h2))}]
        assert verdict.metrics == self.counts(linearity=k)

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_bound(self, where, monkeypatch):
        args = self.setup()
        sc = args[-1].image
        k = 1 if where == FIRST else self.samples
        planted = nth_call(k, states.eval_state, lambda s, x: 2, lambda s, x: s is sc)
        monkeypatch.setattr(states, "eval_state", planted)
        verdict = self.verify(*args)
        h, _ = self.draws(args[1])[0][k - 1]
        assert verdict.witnesses == [{"check": ("bound", *texts(h))}]
        assert verdict.metrics == self.counts(linearity=self.samples, bound=k)

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_indicator_agreement(self, where, monkeypatch):
        omega, space, *rest = args = self.setup()
        i = 0 if where == FIRST else len(omega.images) - 1
        extend = independence.extend_bilinear_divisible

        def planted(gamma):
            ext = extend(gamma)
            image = tuple(ZERO if v else ONE for v in ext.images[i])
            images = ext.images[:i] + (image,) + ext.images[i + 1:]
            return independence.AtomLinearMap(ext.domain, ext.codomain, images)

        monkeypatch.setattr(independence, "extend_bilinear_divisible", planted)
        verdict = self.verify(*args)
        atom = space.state.measure.atoms[i]
        assert verdict.witnesses == [{"check": ("indicator-agreement", atom)}]
        n = self.samples
        assert verdict.metrics == self.counts(linearity=n, bound=n, uniqueness=i + 1)

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_span_agreement(self, where, monkeypatch):
        omega, space, *rest = args = self.setup()
        k = 1 if where == FIRST else self.samples
        apply = independence.apply_atom_linear
        planted = nth_call(
            k, apply, lambda m, h: other(apply(m, h)), lambda m, h: m is not omega
        )
        monkeypatch.setattr(independence, "apply_atom_linear", planted)
        verdict = self.verify(*args)
        h = self.draws(space)[1][k - 1]
        assert verdict.witnesses == [{"check": ("span-agreement", *texts(h))}]
        n = self.samples
        assert verdict.metrics == self.counts(
            linearity=n, bound=n, uniqueness=len(omega.images) + k
        )


# ---------------------------------------------------------------------------
# representation: the integral identity and the morphism extras
# ---------------------------------------------------------------------------


class TestPlantedRepresentation:
    @pytest.mark.parametrize("where", [FIRST, LAST])
    @pytest.mark.parametrize("state", [chain_state(CH2), mv.chang_state(C)], ids=["chain", "chang"])
    def test_embedding(self, state, where, monkeypatch):
        elements = core.sweep_elements(state.algebra)
        target = elements[0] if where == FIRST else elements[-1]
        integral = representation.integral
        monkeypatch.setattr(
            representation, "integral",
            lambda rep, a: integral(rep, a) + 1 if a == target else integral(rep, a),
        )
        verdict = representation.verify_embedding(state.algebra, state, 0)
        assert verdict.witnesses == [{"element": target}]
        assert verdict.metrics == {"elements_checked": 1 if where == FIRST else len(elements)}
        assert verdict.seed is None

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_product(self, where, monkeypatch):
        rep = mv.embed_l1(BOOL2, mv.measure_state(BOOL2, mv.measure(("x", "y"), (F(1, 2),) * 2)))
        pairs = list(itertools.product(core.enumerate_carrier(BOOL2), repeat=2))
        k = 1 if where == FIRST else len(pairs)
        prod = core.prod
        planted = nth_call(
            k, prod, lambda a, b: mv.neg(prod(a, b)), lambda a, b: a.algebra == BOOL2
        )
        monkeypatch.setattr(core, "prod", planted)
        verdict = mv.verify_morphism_extras(rep, "PMV", seed=1)
        assert verdict.witnesses == [{"check": ("product", *texts(*pairs[k - 1]))}]
        assert verdict.metrics == {"checks": k} and verdict.seed is None

    @pytest.mark.parametrize("where", [FIRST, LAST])
    def test_scalar(self, where, monkeypatch):
        samples = 5
        rep = mv.embed_l1(U, mv.identity_state(U))
        k = 1 if where == FIRST else samples
        scalar_mul, seen = core.scalar_mul, []

        def broken(alpha, a):
            seen.append((alpha, a))
            return other(scalar_mul(alpha, a))

        planted = nth_call(k, scalar_mul, broken, lambda alpha, a: a.algebra == U)
        monkeypatch.setattr(core, "scalar_mul", planted)
        verdict = mv.verify_morphism_extras(rep, "fMV", samples, 7)
        ((alpha, a),) = seen
        assert verdict.witnesses == [{"check": ("scalar", str(alpha), core.format_element(a))}]
        assert verdict.metrics == {"checks": samples + k} and verdict.seed == 7
