"""Seeded workloads for the mvprob benchmark.

A workload is a set of JSON documents plus a batch of CLI commands over
them.  Every document value, and the ``--seed`` of every sampling
command, is drawn from the workload seed, so one seed always gives the
same files and the same batch.  Each command carries the exit code and
verdict it must produce, known by construction (a corrupted table fails
``involution`` at a planted index, a Dirac moment sequence off the grid
is infeasible, a measure with a zero weight is not faithful, ...), and
where a check count or a value follows from the construction it is
recorded too.

Two scales exist: ``full`` is what the benchmark measures, ``tiny``
keeps the same command shapes on carriers small enough for the
benchmark's own tests.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Optional

WORKLOADS = ("finite-sweep", "sampled-rational", "exact-analysis")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome its construction guarantees.

    ``argv`` names documents as ``@<name>``; `resolve_argv` turns them
    into paths.  ``metrics`` and ``result`` list report fields whose
    values are known in advance; fields not listed are not checked.
    """

    label: str
    argv: tuple[str, ...]
    exit: int
    verdict: str
    metrics: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    witness: Optional[dict] = None


@dataclass(frozen=True)
class Workload:
    documents: dict  # document name -> JSON-shaped dict
    commands: tuple[Command, ...]

    def write(self, directory: Path) -> dict[str, Path]:
        """Write every document as ``<name>.json``; return name -> path."""
        paths = {}
        for name, doc in self.documents.items():
            path = directory / f"{name}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            paths[name] = path
        return paths


def resolve_argv(argv: tuple[str, ...], paths: dict[str, Path]) -> list[str]:
    return [str(paths[a[1:]]) if a.startswith("@") else a for a in argv]


def build(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    rng = Random(f"{name}/{seed}")
    builder = {
        "finite-sweep": _finite_sweep,
        "sampled-rational": _sampled_rational,
        "exact-analysis": _exact_analysis,
    }[name]
    documents, commands = builder(rng, scale == "tiny")
    labels = [c.label for c in commands]
    assert len(set(labels)) == len(labels), "command labels must be unique"
    return Workload(documents, tuple(commands))


# ---------------------------------------------------------------------------
# Value helpers
# ---------------------------------------------------------------------------


def _weights(rng: Random, k: int, zero_at: Optional[int] = None) -> list[Fraction]:
    """k rational weights summing to 1, all positive except ``zero_at``."""
    raw = [rng.randint(1, 9) for _ in range(k)]
    if zero_at is not None:
        raw[zero_at] = 0
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def _levels(n: int) -> list[Fraction]:
    return [Fraction(i, n) for i in range(n + 1)]


def _carrier(atoms: int, n: int) -> list[tuple[Fraction, ...]]:
    return list(itertools.product(_levels(n), repeat=atoms))


def _text(value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(str(v) for v in value) + ")"
    return str(value)


def _dot(values, weights) -> Fraction:
    return sum((v * w for v, w in zip(values, weights)), Fraction(0))


def _atoms(prefix: str, k: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(k)]


def _random_unit(rng: Random, max_den: int = 12) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(0, q), q)


def _interior_unit(rng: Random, max_den: int = 12) -> Fraction:
    """A rational strictly inside (0, 1), so no root enclosure short-cuts."""
    q = rng.randint(2, max_den)
    return Fraction(rng.randint(1, q - 1), q)


def _derived_seed(rng: Random) -> str:
    return str(rng.randrange(2**31))


def _mv_exhaustive_checks(n: int) -> int:
    # associativity n^3, commutativity n^2, neutral/involution/absorbing n
    # each, characteristic identity n^2
    return n**3 + 2 * n**2 + 3 * n


# ---------------------------------------------------------------------------
# finite-sweep: exhaustive checks on finite carriers through Element
# ---------------------------------------------------------------------------


def _finite_sweep(rng: Random, tiny: bool):
    size = (
        dict(ax=(2, 2), bad=6, chain=4, meas=(2, 1), quo=(2, 1), spec=(2, 1),
             emb=(2, 2), prod=((2, 1), 2), samples=5, evals=3)
        if tiny
        else dict(ax=(2, 4), bad=25, chain=9, meas=(2, 2), quo=(2, 2), spec=(3, 3),
                  emb=(3, 3), prod=((2, 3), 4), samples=40, evals=2)
    )
    algebras, elements, measures, doc_states, bilinear = {}, {}, {}, {}, {}
    commands: list[Command] = []

    # MV axioms on a function algebra over a chain
    k, n = size["ax"]
    algebras["A"] = {"kind": "function", "atoms": _atoms("a", k), "value": n}
    commands.append(Command(
        "axioms-A", ("check-axioms", "@finite", "A", "--level", "MV"), 0, "pass",
        {"checks": _mv_exhaustive_checks((n + 1) ** k)},
    ))

    # corrupted chain table: negation of levels j and j+1 swapped, so
    # involution first fails at level j, after every other MV-law case
    # before it has passed
    m = size["bad"]
    j = rng.randint(1, (m - 4) // 2)
    names = [f"c{i}" for i in range(m)]
    neg = [m - 1 - i for i in range(m)]
    neg[j], neg[j + 1] = neg[j + 1], neg[j]
    algebras["BAD"] = {
        "kind": "table",
        "elements": names,
        "zero": names[0],
        "oplus": [[names[min(a + b, m - 1)] for b in range(m)] for a in range(m)],
        "neg": [names[v] for v in neg],
    }
    commands.append(Command(
        "axioms-BAD", ("check-axioms", "@finite", "BAD", "--level", "MV"), 1, "fail",
        {"checks": m**3 + m**2 + m + j + 1},
        witness={"axiom": "involution", "elements": [names[j]]},
    ))

    # metric on a table state over a chain (the only state there is)
    n = size["chain"]
    algebras["T"] = {"kind": "chain", "n": n}
    doc_states["t"] = {
        "algebra": "T", "rule": "table",
        "values": {_text(v): _text(v) for v in _levels(n)},
    }
    commands.append(Command(
        "metric-t", ("state", "@finite", "metric", "t"), 0, "pass",
        {"pairs": (n + 1) ** 2, "triples": (n + 1) ** 3, "faithful": True, "separates": True},
    ))

    # metric on a faithful measure state
    k, n = size["meas"]
    algebras["M"] = {"kind": "function", "atoms": _atoms("m", k), "value": n}
    w_m = _weights(rng, k)
    measures["mu_m"] = {"atoms": _atoms("m", k), "weights": [_text(w) for w in w_m]}
    doc_states["sm"] = {"algebra": "M", "rule": "measure", "measure": "mu_m"}
    size_m = (n + 1) ** k
    commands.append(Command(
        "metric-sm", ("state", "@finite", "metric", "sm"), 0, "pass",
        {"pairs": size_m**2, "triples": size_m**3, "faithful": True, "separates": True},
    ))

    # non-faithful table state: one atom weighs nothing, so the null ideal
    # is nontrivial and the quotient goes through spectra.ideal/quotient
    k, n = size["quo"]
    algebras["Q"] = {"kind": "function", "atoms": _atoms("q", k), "value": n}
    w_q = _weights(rng, k, zero_at=rng.randrange(k))
    carrier_q = _carrier(k, n)
    doc_states["tq"] = {
        "algebra": "Q", "rule": "table",
        "values": {_text(v): _text(_dot(v, w_q)) for v in carrier_q},
    }
    commands.append(Command(
        "quotient-tq", ("state", "@finite", "quotient", "tq"), 0, "pass",
        {"checks": len(carrier_q), "complete": True},
    ))
    commands.append(Command(
        "faithful-tq", ("state", "@finite", "faithful", "tq"), 1, "fail"))

    # ideals, radical and semisimplicity of a product of chains: the
    # ideals are generated by the 2^k Boolean idempotents, k of them
    # maximal, and the radical is {0}
    k, n = size["spec"]
    algebras["S"] = {"kind": "function", "atoms": _atoms("s", k), "value": n}
    commands.append(Command(
        "ideals-S", ("spectra", "@finite", "ideals", "S"), 0, "pass",
        {"ideals": 2**k, "maximal": k},
    ))
    commands.append(Command(
        "radical-S", ("spectra", "@finite", "radical", "S"), 0, "pass",
        result={"radical": [_text((Fraction(0),) * k)]},
    ))
    commands.append(Command(
        "semisimple-S", ("spectra", "@finite", "semisimple", "S"), 0, "pass"))

    # integral representation of a faithful measure state
    k, n = size["emb"]
    algebras["E"] = {"kind": "function", "atoms": _atoms("e", k), "value": n}
    w_e = _weights(rng, k)
    measures["mu_e"] = {"atoms": _atoms("e", k), "weights": [_text(w) for w in w_e]}
    doc_states["se"] = {"algebra": "E", "rule": "measure", "measure": "mu_e"}
    commands.append(Command(
        "embed-E", ("embed", "@finite", "E", "se"), 0, "pass",
        {"elements_checked": (n + 1) ** k, "injective": True, "faithful": True},
        {"atoms": _atoms("e", k), "weights": [_text(w) for w in w_e]},
    ))

    # independence sweep and factorization of the pairing through the
    # product space; beta validation runs check_bilinear over both slots
    (k, n), nb = size["prod"]
    algebras["PA"] = {"kind": "function", "atoms": _atoms("p", k), "value": n}
    w_p = _weights(rng, k)
    measures["mu_p"] = {"atoms": _atoms("p", k), "weights": [_text(w) for w in w_p]}
    doc_states["pa"] = {"algebra": "PA", "rule": "measure", "measure": "mu_p"}
    algebras["PB"] = {"kind": "chain", "n": nb}
    doc_states["pb"] = {
        "algebra": "PB", "rule": "table",
        "values": {_text(v): _text(v) for v in _levels(nb)},
    }
    bilinear["gbeta"] = {"kind": "beta", "left": "pa", "right": "pb"}
    pairs = (n + 1) ** k * (nb + 1)
    commands.append(Command(
        "independence-pa-pb", ("product", "@finite", "verify-independence", "pa", "pb"),
        0, "pass", {"identities_checked": pairs},
    ))
    samples = size["samples"]
    commands.append(Command(
        "factorize-gbeta",
        ("--seed", _derived_seed(rng), "product", "@finite", "factorize", "pa", "pb",
         "gbeta", "--samples", str(samples)),
        0, "pass",
        {"pairs_checked": pairs, "linearity_checks": samples, "bound_checks": samples,
         "uniqueness_checks": k + samples},
    ))

    # quick commands: single evaluations with values known exactly, and
    # faithfulness verdicts
    quick = [("sm", "M", size["meas"], w_m), ("tq", "Q", size["quo"], w_q),
             ("se", "E", size["emb"], w_e)]
    for i in range(size["evals"]):
        state, alg, (k, n), w = quick[i % len(quick)]
        values = tuple(Fraction(rng.randint(0, n), n) for _ in range(k))
        name = f"x{i}"
        elements[name] = {"algebra": alg, "values": [_text(v) for v in values]}
        commands.append(Command(
            f"eval-{state}-{name}", ("state", "@finite", "eval", state, name), 0, "pass",
            result={"value": _text(_dot(values, w))},
        ))
    for state in ("sm",):
        commands.append(Command(
            f"faithful-{state}", ("state", "@finite", "faithful", state), 0, "pass"))

    doc = {"version": "1", "algebras": algebras, "elements": elements,
           "measures": measures, "states": doc_states, "bilinear": bilinear}
    return {"finite": doc}, commands


# ---------------------------------------------------------------------------
# sampled-rational: seeded sampling on carriers that cannot be enumerated
# ---------------------------------------------------------------------------


def _sampled_rational(rng: Random, tiny: bool):
    size = (
        dict(ax_u=20, ax_r=10, ax_c=20, metric=10, metric_c=10, rk=3, big=4, embed=10)
        if tiny
        else dict(ax_u=900, ax_r=300, ax_c=1500, metric=300, metric_c=600, rk=3, big=20,
                  embed=300)
    )
    rk, big = size["rk"], size["big"]
    w_r = _weights(rng, rk)
    w_z = _weights(rng, rk, zero_at=rng.randrange(rk))
    w_big = _weights(rng, big)
    doc = {
        "version": "1",
        "algebras": {
            "U": {"kind": "standard"},
            "R": {"kind": "function", "atoms": _atoms("r", rk), "value": "standard"},
            "G": {"kind": "function", "atoms": _atoms("g", big), "value": "standard"},
            "C": {"kind": "chang"},
        },
        "measures": {
            "mu_r": {"atoms": _atoms("r", rk), "weights": [_text(w) for w in w_r]},
            "mu_z": {"atoms": _atoms("r", rk), "weights": [_text(w) for w in w_z]},
            "mu_g": {"atoms": _atoms("g", big), "weights": [_text(w) for w in w_big]},
        },
        "states": {
            "su": {"algebra": "U", "rule": "identity"},
            "sr": {"algebra": "R", "rule": "measure", "measure": "mu_r"},
            "sz": {"algebra": "R", "rule": "measure", "measure": "mu_z"},
            "sg": {"algebra": "G", "rule": "measure", "measure": "mu_g"},
            "sc": {"algebra": "C", "rule": "first-coordinate"},
        },
        "elements": {},
    }
    fmv_laws = 15  # 6 MV + 4 PMV + 4 RMV + scalar-product compatibility
    commands: list[Command] = []

    def sampled(label, argv, exit_code, verdict, metrics=None, result=None):
        commands.append(Command(
            label, ("--seed", _derived_seed(rng)) + argv, exit_code, verdict,
            metrics or {}, result or {},
        ))

    count = size["ax_u"]
    sampled("axioms-U-fMV", ("check-axioms", "@sampled", "U", "--level", "fMV", "--mode",
                             "sample", "--count", str(count)), 0, "pass",
            {"checks": fmv_laws * count})
    count = size["ax_r"]
    sampled("axioms-R-fMV", ("check-axioms", "@sampled", "R", "--level", "fMV", "--mode",
                             "sample", "--count", str(count)), 0, "pass",
            {"checks": fmv_laws * count})
    count = size["ax_c"]
    sampled("axioms-C-MV", ("check-axioms", "@sampled", "C", "--level", "MV", "--mode",
                            "sample", "--count", str(count)), 0, "pass",
            {"checks": 6 * count})
    for state, samples, faithful in (("su", size["metric"], True),
                                     ("sr", size["metric"], True),
                                     ("sc", size["metric_c"], False)):
        # a non-faithful state still passes: the metric must fail to
        # separate exactly when the state is not faithful
        sampled(f"metric-{state}", ("state", "@sampled", "metric", state, "--samples",
                                    str(samples)), 0, "pass",
                {"pairs": samples, "triples": samples, "faithful": faithful,
                 "separates": faithful})
    samples = size["embed"]
    sampled("embed-G", ("embed", "@sampled", "G", "sg", "--samples", str(samples)), 0,
            "pass", {"elements_checked": samples, "injective": True, "faithful": True},
            {"atoms": _atoms("g", big), "weights": [_text(w) for w in w_big]})

    # Chang: radical quotient and its representation (17 lower + 17 upper)
    commands.append(Command(
        "quotient-sc", ("state", "@sampled", "quotient", "sc"), 0, "pass",
        {"checks": 34, "complete": True}))
    commands.append(Command(
        "embed-C", ("embed", "@sampled", "C", "sc"), 0, "pass",
        {"elements_checked": 34, "injective": False, "faithful": False}))

    # negative controls and quick evaluations
    commands.append(Command("faithful-sz", ("state", "@sampled", "faithful", "sz"), 1, "fail"))
    commands.append(Command("faithful-sc", ("state", "@sampled", "faithful", "sc"), 1, "fail"))
    commands.append(Command("faithful-sr", ("state", "@sampled", "faithful", "sr"), 0, "pass"))
    commands.append(Command("semisimple-C", ("spectra", "@sampled", "semisimple", "C"), 1,
                            "fail", witness={"radical-element": "lower(1)"}))
    for i in range(3):
        state, alg, atoms, w = (("sr", "R", rk, w_r), ("sz", "R", rk, w_z),
                                ("sg", "G", big, w_big))[i % 3]
        values = tuple(_random_unit(rng) for _ in range(atoms))
        name = f"y{i}"
        doc["elements"][name] = {"algebra": alg, "values": [_text(v) for v in values]}
        commands.append(Command(
            f"eval-{state}-{name}", ("state", "@sampled", "eval", state, name), 0, "pass",
            result={"value": _text(_dot(values, w))}))
    u = _random_unit(rng)
    doc["elements"]["yu"] = {"algebra": "U", "value": _text(u)}
    commands.append(Command("eval-su-yu", ("state", "@sampled", "eval", "su", "yu"), 0,
                            "pass", result={"value": _text(u)}))
    return {"sampled": doc}, commands


# ---------------------------------------------------------------------------
# exact-analysis: moments, exact LP and root enclosures, little core work
# ---------------------------------------------------------------------------


def _holder_gap(values_a, values_b, weights, p: Fraction) -> float:
    q = p / (p - 1)
    lhs = sum(float(a * b * w) for a, b, w in zip(values_a, values_b, weights))
    sa = sum(float(w) * float(a) ** float(p) for a, w in zip(values_a, weights))
    sb = sum(float(w) * float(b) ** float(q) for b, w in zip(values_b, weights))
    return sa ** (1 / float(p)) * sb ** (1 / float(q)) - lhs


def _exact_analysis(rng: Random, tiny: bool):
    size = (
        dict(grid=8, fits=1, terms=9, atoms=4, precisions=(64, 96, 128))
        if tiny
        else dict(grid=64, fits=3, terms=41, atoms=20, precisions=(1024, 1024, 1024))
    )
    grid, terms, atoms = size["grid"], size["terms"], size["atoms"]
    moments: dict[str, list[str]] = {}
    commands: list[Command] = []

    # feasible fits: moments (orders 0..6) of a measure on three fixed
    # grid points with seeded weights
    support = (grid // 8, grid // 2, grid - grid // 8)
    for i in range(size["fits"]):
        w = _weights(rng, len(support))
        values = [_dot([Fraction(j, grid) ** r for j in support], w) for r in range(7)]
        moments[f"feas{i}"] = [_text(v) for v in values]
        commands.append(Command(
            f"fit-feas{i}", ("moments", "@exact", "fit", f"feas{i}", "--grid", str(grid)),
            0, "pass", {"grid": grid}))
    # infeasible fits: the moments of a Dirac mass off the grid have zero
    # variance, so only that point mass matches them; the point and its
    # mirror image are both fitted, which keeps the pivot work of the pair
    # nearly the same for every seed.  m2 < m1^2 is impossible outright.
    k = rng.randint(1, 6)
    for i, point in enumerate((Fraction(k, 13), Fraction(13 - k, 13))):
        moments[f"dirac{i}"] = [_text(point**r) for r in range(7)]
        commands.append(Command(
            f"fit-dirac{i}", ("moments", "@exact", "fit", f"dirac{i}", "--grid", str(grid)),
            1, "infeasible", {"grid": grid}))
    mean = Fraction(rng.randint(2, 8), 10)
    moments["negvar"] = [_text(v) for v in (Fraction(1), mean, mean * mean * Fraction(9, 10))]
    commands.append(Command(
        "fit-negvar", ("moments", "@exact", "fit", "negvar", "--grid", str(grid)),
        1, "infeasible", {"grid": grid}))

    # a long moment sequence of a measure on random rationals, and a copy
    # whose moments increase at one index, which no measure on [0, 1] has
    points = [_random_unit(rng, 12) for _ in range(6)]
    w = _weights(rng, 6)
    long_values = [_dot([x**r for x in points], w) for r in range(terms)]
    moments["long"] = [_text(v) for v in long_values]
    bump = rng.randint(2, terms - 1)
    bad = list(long_values)
    bad[bump] = (bad[bump - 1] + 1) / 2
    moments["bumped"] = [_text(v) for v in bad]
    entries = terms * (terms + 1) // 2
    commands.append(Command("check-long", ("moments", "@exact", "check", "long"), 0, "pass",
                            {"entries": entries}))
    commands.append(Command("check-bumped", ("moments", "@exact", "check", "bumped"), 1,
                            "fail", {"entries": entries}))
    commands.append(Command(
        "reconstruct-long",
        ("moments", "@exact", "reconstruct", "long", "--grid", str(terms - 1)),
        0, "pass", {"grid": terms - 1}))

    # conjugate-exponent inequality on a measure state with many atoms;
    # the elements are redrawn until the true gap is wide, so an outward
    # enclosure at these precisions can only pass
    names = _atoms("h", atoms)
    w_h = _weights(rng, atoms)
    exponents = [Fraction(3, 2), Fraction(5, 2), Fraction(3)]
    while True:
        a = [_interior_unit(rng) for _ in range(atoms)]
        b = [_interior_unit(rng) for _ in range(atoms)]
        if min(_holder_gap(a, b, w_h, p) for p in exponents + [Fraction(2)]) > 1e-3:
            break
    doc_exact = {
        "version": "1",
        "algebras": {"H": {"kind": "function", "atoms": names, "value": "standard"}},
        "measures": {"mu_h": {"atoms": names, "weights": [_text(v) for v in w_h]}},
        "states": {"sh": {"algebra": "H", "rule": "measure", "measure": "mu_h"}},
        "elements": {
            "ha": {"algebra": "H", "values": [_text(v) for v in a]},
            "hb": {"algebra": "H", "values": [_text(v) for v in b]},
        },
        "moments": moments,
    }
    for p, precision in zip(exponents, size["precisions"]):
        q = p / (p - 1)
        commands.append(Command(
            f"holder-p{_text(p)}",
            ("--precision", str(precision), "holder", "@exact", "sh", "ha", "hb",
             "--p", _text(p), "--q", _text(q)),
            0, "pass", {"mode": "interval", "precision": precision}))
    commands.append(Command(
        "holder-p2", ("holder", "@exact", "sh", "ha", "hb", "--p", "2", "--q", "2"),
        0, "pass", {"mode": "exact"}))

    # quick commands: short sequences and evaluations
    for i in range(2):
        point = Fraction(rng.randint(0, 6), 6)
        moments[f"short{i}"] = [_text(point**r) for r in range(4)]
        commands.append(Command(f"check-short{i}", ("moments", "@exact", "check",
                                                    f"short{i}"), 0, "pass", {"entries": 10}))
    for name, values in (("ha", a), ("hb", b)):
        commands.append(Command(
            f"eval-sh-{name}", ("state", "@exact", "eval", "sh", name), 0, "pass",
            result={"value": _text(_dot(values, w_h))}))
    commands.append(Command("faithful-sh", ("state", "@exact", "faithful", "sh"), 0, "pass"))
    return {"exact": doc_exact}, commands
