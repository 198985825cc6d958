"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line.  All comparisons are exact rational
equality; "zero tolerance" is the only tolerance in this file.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from random import Random

import mvprob as mv
from mvprob import analysis, independence, representation
from mvprob.rationals import ONE

FIXTURES = Path(__file__).parent / "fixtures"


def _conclude(number, name, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{timing}")
    assert not failures, failures[:3]
    if budget is not None:
        assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


def chain_state(algebra):
    n = algebra.carrier.n
    return mv.table_state(algebra, {F(k, n): F(k, n) for k in range(n + 1)})


def random_unit(rng, max_denominator):
    """A rational in [0, 1] with denominator at most ``max_denominator``."""
    q = rng.randint(1, max_denominator)
    return F(rng.randint(0, q), q)


def random_measure(rng, atoms, allow_zero=False):
    while True:
        raw = [rng.randint(0 if allow_zero else 1, 9) for _ in atoms]
        if sum(raw) > 0 and (not allow_zero or 0 in raw):
            break
    total = sum(raw)
    return mv.measure(atoms, [F(w, total) for w in raw])


# ---------------------------------------------------------------------------


def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    failures = []
    for n in range(1, 9):
        report = mv.check_axioms(mv.finite_chain(n), "MV")
        if not report.passed:
            failures.append(f"chain {n}: {report.witnesses}")
    chang_report = mv.check_axioms(mv.chang(), "MV", samples=3000, seed=101)
    if not chang_report.passed:
        failures.append(f"chang: {chang_report.witnesses}")

    from test_axioms import (
        max_oplus_table,
        modular_addition_table,
        replay_witness,
        swapped_negation_table,
    )

    for make in (modular_addition_table, swapped_negation_table, max_oplus_table):
        table = make(3)
        report = mv.check_axioms(table, "MV")
        if report.passed or not report.witnesses:
            failures.append(f"{make.__name__} not rejected")
        elif not replay_witness(table, report):
            failures.append(f"{make.__name__} witness does not replay")
    _conclude(1, "axiom suite", failures, time.perf_counter() - start, budget=5.0)


def test_criterion_2_distance_law():
    rng = Random(202)
    unit = mv.standard_unit()
    failures = []
    for _ in range(10_000):
        x, y = random_unit(rng, 997), random_unit(rng, 997)
        if mv.dist(mv.element(unit, x), mv.element(unit, y)).payload != abs(x - y):
            failures.append(f"dist({x},{y})")
    _conclude(2, "distance law", failures)


def test_criterion_3_metric_iff_faithful():
    rng = Random(303)
    algebra = mv.function_algebra(("x", "y"), mv.FiniteChain(2))
    pool = mv.core.enumerate_carrier(algebra)
    failures = []
    measures = [random_measure(rng, ("x", "y")) for _ in range(6)] + [
        random_measure(rng, ("x", "y"), allow_zero=True) for _ in range(4)
    ]
    for mu in measures:
        s = mv.measure_state(algebra, mu)
        faithful = mv.is_faithful(s)
        separates = all(
            mv.rho(s, a, b) > 0
            for a, b in itertools.product(pool, repeat=2)
            if a != b
        )
        if separates != faithful.passed:
            failures.append(f"{mu.weights}: separation != faithfulness")
        if not faithful.passed:
            witness = faithful.witnesses[0]["element"]
            if witness == mv.zero(algebra) or mv.rho(s, witness, mv.zero(algebra)) != 0:
                failures.append(f"{mu.weights}: bad degeneracy witness")
    _conclude(3, "metric iff faithful", failures)


def _embedding_instances():
    rng = Random(404)
    for n in range(1, 6):
        chain = mv.finite_chain(n)
        yield chain, chain_state(chain)
    for atoms in (("x",), ("x", "y")):
        for n in (1, 2, 3):
            algebra = mv.function_algebra(atoms, mv.FiniteChain(n))
            for _ in range(2):
                yield algebra, mv.measure_state(algebra, random_measure(rng, atoms))
            degenerate = random_measure(rng, atoms, allow_zero=True) if len(atoms) > 1 else None
            if degenerate is not None:
                yield algebra, mv.measure_state(algebra, degenerate)
            reference = mv.measure_state(algebra, random_measure(rng, atoms))
            table = {
                a.payload: mv.eval_state(reference, a)
                for a in mv.core.enumerate_carrier(algebra)
            }
            yield algebra, mv.table_state(algebra, table)


def test_criterion_4_measure_representation():
    start = time.perf_counter()
    failures = []
    count = 0
    for algebra, s in _embedding_instances():
        count += 1
        rep = mv.embed_l1(algebra, s)
        faithful = mv.is_faithful(s).passed
        if rep.injective != faithful:
            failures.append(f"instance {count}: injectivity != faithfulness")
        for a in mv.core.enumerate_carrier(algebra):
            if representation.integral(rep, a) != mv.eval_state(s, a):
                failures.append(f"instance {count}: integral identity at {a.payload}")
                break
        pool = mv.core.enumerate_carrier(algebra)
        images = {mv.represent(rep, a) for a in pool}
        if (len(images) == len(pool)) != rep.injective:
            failures.append(f"instance {count}: injectivity flag is wrong")
    # the non-semisimple negative instance
    chang = mv.chang()
    s = mv.chang_state(chang)
    rep = mv.embed_l1(chang, s)
    if rep.injective:
        failures.append("chang representation claims injectivity")
    for k in range(17):
        for e in (mv.lower(chang, k), mv.upper(chang, k)):
            if representation.integral(rep, e) != mv.eval_state(s, e):
                failures.append(f"chang integral identity at {e.payload}")
    if mv.represent(rep, mv.lower(chang, 1)) != mv.represent(rep, mv.zero(chang)):
        failures.append("chang radical not collapsed")
    _conclude(
        4,
        f"measure representation ({count + 1} instances)",
        failures,
        time.perf_counter() - start,
        budget=10.0,
    )


def test_criterion_5_holder_squares():
    rng = Random(505)
    failures = []
    for trial in range(10_000):
        size = rng.randint(1, 8)
        atoms = tuple(f"a{i}" for i in range(size))
        algebra = mv.function_algebra(atoms)
        mu = random_measure(rng, atoms)
        s = mv.measure_state(algebra, mu)
        a = mv.element(algebra, tuple(random_unit(rng, 30) for _ in atoms))
        b = mv.element(algebra, tuple(random_unit(rng, 30) for _ in atoms))
        report = analysis.holder_check(s, a, b, F(2), F(2))
        if report.verdict != "pass":
            failures.append(f"trial {trial}")
            break
        if trial % 10 == 0:
            diagonal = analysis.holder_check(s, a, a, F(2), F(2))
            squared = diagonal.result["lhs"] ** 2
            if diagonal.verdict != "pass" or squared != diagonal.result["rhs_low"]:
                failures.append(f"trial {trial}: diagonal equality")
                break
    _conclude(5, "holder p=q=2", failures)


def test_criterion_6_hausdorff_suite():
    start = time.perf_counter()
    rng = Random(606)
    failures = []

    # (i) recursion vs binomial identity, 10^3 random sequences
    for trial in range(1000):
        length = rng.randint(1, 12)
        m = analysis.MomentSequence(tuple(random_unit(rng, 24) for _ in range(length)))
        for r, row in enumerate(analysis._delta_rows(m)):
            for k, x in enumerate(row):
                if (-1) ** r * F(x, m.denominator) != analysis.binomial_delta(m, r, k):
                    failures.append(f"(i) trial {trial} at ({r},{k})")
                    break

    # (ii) moments of random grid measures satisfy the condition
    for trial in range(1000):
        size = rng.randint(1, 6)
        points = sorted({F(rng.randint(0, 24), 24) for _ in range(size)})
        mu = random_measure(rng, [str(p) for p in points])
        grid_mu = analysis.grid_measure(points, mu.weights)
        m = analysis.moments_of_measure(grid_mu, rng.randint(0, 6))
        if not analysis.check_hausdorff(m).passed:
            failures.append(f"(ii) trial {trial}")

    # (iii) reconstruction values and preserved moments
    reconstructed = analysis.hausdorff_reconstruct(
        analysis.moment_sequence(("1", "1/2", "1/3")), 2
    )
    if reconstructed.weights != (F(1, 3), F(1, 3), F(1, 3)):
        failures.append("(iii) uniform reconstruction")
    lebesgue = analysis.moment_sequence([F(1, k + 1) for k in range(17)])
    for grid in range(1, 17):
        mu = analysis.hausdorff_reconstruct(lebesgue, grid)
        recovered = analysis.moments_of_measure(mu, 1)
        if recovered.values[0] != ONE or recovered.values[1] != F(1, 2):
            failures.append(f"(iii) grid {grid} moments drift")

    # (iv) feasibility search against fixtures
    feasible_fixtures = [
        analysis.moments_of_measure(
            analysis.grid_measure([F(0), F(1, 2), F(1)], [F(1, 4), F(1, 2), F(1, 4)]), 3
        ),
        analysis.moment_sequence(("1", "1/2", "1/2")),
        analysis.moments_of_measure(
            analysis.grid_measure([F(1, 4), F(3, 4)], [F(1, 3), F(2, 3)]), 2
        ),
    ]
    grids = [2, 1, 4]
    for m, grid in zip(feasible_fixtures, grids):
        fit = analysis.moment_fit_lp(m, grid)
        if not fit.passed:
            failures.append(f"(iv) feasible fixture on grid {grid} rejected")
        elif analysis.moments_of_measure(fit.result, m.order).values != m.values:
            failures.append(f"(iv) moments drift on grid {grid}")
    violating = [
        analysis.moment_sequence(("1", "1/5", "9/10")),
        analysis.moment_sequence(("9/10", "1/2")),
        analysis.moment_sequence(("1", "1", "1/2")),
    ]
    for idx, m in enumerate(violating):
        for grid in (1, 3, 6):
            if analysis.moment_fit_lp(m, grid).passed:
                failures.append(f"(iv) violating fixture {idx} accepted on grid {grid}")
    _conclude(
        6, "hausdorff suite", failures, time.perf_counter() - start, budget=30.0
    )


def test_criterion_7_independence_identity():
    rng = Random(707)
    chain1, chain2, chain3 = mv.FiniteChain(1), mv.FiniteChain(2), mv.FiniteChain(3)
    instances = [
        (mv.function_algebra(("x", "y"), chain1), mv.finite_chain(2)),
        (mv.function_algebra(("x", "y"), chain3), mv.function_algebra(("p", "q"), chain1)),
        (mv.finite_chain(3), mv.finite_chain(5)),
        (mv.function_algebra(("x",), chain2), mv.function_algebra(("p", "q"), chain2)),
        (mv.function_algebra(("x", "y"), chain3), mv.function_algebra(("p", "q"), chain3)),
    ]
    failures = []
    pairs_total = 0
    for index, (left, right) in enumerate(instances):
        def state_for(algebra):
            if isinstance(algebra.carrier, mv.FunctionAlgebra):
                return mv.measure_state(
                    algebra, random_measure(rng, mv.core.atoms_of(algebra))
                )
            return chain_state(algebra)

        s_a, s_b = state_for(left), state_for(right)
        space = mv.product_space(s_a, s_b)
        for a in mv.core.enumerate_carrier(left):
            for b in mv.core.enumerate_carrier(right):
                pairs_total += 1
                paired = mv.beta(space, a, b)
                if mv.eval_state(space.state, paired) != mv.eval_state(
                    s_a, a
                ) * mv.eval_state(s_b, b):
                    failures.append(f"instance {index} at pair ({a.payload},{b.payload})")
    _conclude(7, f"independence identity ({pairs_total} pairs)", failures)


def test_criterion_8_factorization():
    failures = []
    quadruples = 0
    bool2 = mv.function_algebra(("x", "y"), mv.FiniteChain(1))
    ch2 = mv.finite_chain(2)
    s_a = mv.measure_state(bool2, mv.measure(("x", "y"), (F(1, 4), F(3, 4))))
    s_b = chain_state(ch2)
    space = mv.product_space(s_a, s_b)
    gammas = [
        ("beta", mv.beta_bilinear(space)),
        ("state-product", mv.state_product_bilinear(space)),
        ("left-scaling", mv.left_scaling_bilinear(space)),
    ]
    pairs = list(itertools.product(mv.core.enumerate_carrier(bool2), mv.core.enumerate_carrier(ch2)))
    for name, gamma in gammas:
        rep_c = mv.embed_l1(gamma.codomain.algebra, gamma.codomain)
        omega = mv.factorize(gamma, space, rep_c)
        report = mv.verify_factorization(omega, space, gamma, rep_c, samples=150, seed=808)
        if not report.passed:
            failures.append(f"{name}: {report.witnesses}")
        # continuity: rho_C(gamma(a, b), gamma(a2, b2)) <= min(K * min(rho_A + rho_B, 1), 1)
        # on every quadruple, which slot linearity and the bound K imply
        for (a, b), (a2, b2) in itertools.product(pairs, repeat=2):
            quadruples += 1
            lhs = mv.rho(
                gamma.codomain,
                independence.apply_bilinear(gamma, a, b),
                independence.apply_bilinear(gamma, a2, b2),
            )
            inner = min(mv.rho(gamma.left, a, a2) + mv.rho(gamma.right, b, b2), ONE)
            if lhs > min(gamma.bound * inner, ONE):
                failures.append(f"{name} continuity at {(a, a2, b, b2)}")
    if quadruples != 3 * 144:
        failures.append(f"{quadruples} continuity quadruples, not {3 * 144}")
    _conclude(8, f"factorization and continuity ({quadruples} quadruples)", failures)


def test_criterion_9_cli_end_to_end():
    doc = str(FIXTURES / "basic.json")
    sweeps = [
        (0, ("check-axioms", doc, "chain3", "--level", "MV")),
        (1, ("check-axioms", doc, "mod4", "--level", "MV")),
        (0, ("--seed", "7", "check-axioms", doc, "U", "--level", "fMV",
             "--mode", "sample", "--count", "400")),
        (0, ("state", doc, "eval", "s", "f1")),
        (1, ("state", doc, "faithful", "sdirac")),
        (0, ("state", doc, "metric", "schain")),
        (0, ("state", doc, "quotient", "sc")),
        (0, ("spectra", doc, "ideals", "B")),
        (0, ("spectra", doc, "radical", "chain3")),
        (1, ("spectra", doc, "semisimple", "C")),
        (0, ("embed", doc, "C", "sc")),
        (0, ("moments", doc, "check", "leb")),
        (1, ("moments", doc, "check", "bad")),
        (0, ("moments", doc, "of-measure", "grid", "--order", "4")),
        (0, ("moments", doc, "reconstruct", "leb", "--grid", "2")),
        (1, ("moments", doc, "fit", "bad", "--grid", "3")),
        (0, ("holder", doc, "s", "f1", "f2", "--p", "2", "--q", "2")),
        (0, ("product", doc, "build", "mu", "nu")),
        (0, ("product", doc, "verify-independence", "sB", "schain")),
        (0, ("--seed", "5", "product", doc, "factorize", "sB", "schain", "gbeta")),
        (2, ("state", doc, "eval", "missing", "f1")),
        (2, ("check-axioms", doc, "U", "--level", "fMV", "--mode", "sample")),
    ]
    failures = []
    for expected_code, args in sweeps:
        first = subprocess.run(
            [sys.executable, "-m", "mvprob", *args], capture_output=True, text=True
        )
        second = subprocess.run(
            [sys.executable, "-m", "mvprob", *args], capture_output=True, text=True
        )
        if first.returncode != expected_code:
            failures.append(f"{args}: exit {first.returncode} != {expected_code}")
        if first.stdout != second.stdout:
            failures.append(f"{args}: output not byte-identical")
        if expected_code in (0, 1):
            report = json.loads(first.stdout)
            if report["verdict"] == "fail" and not report["witnesses"]:
                failures.append(f"{args}: fail verdict without witnesses")
    _conclude(9, "cli end-to-end", failures)
