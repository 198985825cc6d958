"""Finite-difference moment analysis and power-mean inequality checks.

Everything here is exact.  The forward differences of a sequence are
integers over one denominator, the lcm of its sequence's, built one row
at a time: the moment condition is read off each row's integer signs,
and a reconstruction mass is one integer over it.  The feasibility search
is a phase-one simplex (Bland's rule, so it terminates) that pivots
fraction-free on integers from the unit determinant of its artificial
basis and holds only that block of its tableau.  Fractional powers are
outward dyadic enclosures from exact integer n-th roots (a float only
seeds Newton's iteration), a state's power one integer sum over them.
A comparison that cannot be decided at the requested enclosure width is
reported as inconclusive, never guessed.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from . import core, states
from .core import Element, _Record
from .errors import InputError
from .rationals import (
    DEFAULT_PRECISION, ONE, ZERO, format_rational, over_lcm, parse_rational, require_unit
)
from .states import DiscreteMeasure, State
from .verdict import Verdict

MAX_FIT_MOMENTS = 6  # highest moment index the feasibility search accepts
MAX_FIT_GRID = 64
# Enclosure bits per root.  A root's integers have about n * bits bits, so its cost grows
# with both budgets: at 4096 bits and an exponent term of 64, one root takes 60-75 ms on
# one 2-vCPU Xeon core (0.06-0.19 s with Newton from a power of two).
MAX_PRECISION = 4096
MAX_EXPONENT = 64  # largest numerator or denominator of the exponents p and q
# Highest moment order; a sequence holds at most MAX_ORDER + 1 values.  It
# bounds the length of a sequence, not its cost: an order whose moments may
# pass the integer-string digit limit is refused before any moment is
# computed (from 454 on 999999999/10^9 and 1/3).  On those atoms the
# sign scan takes 0.04-0.06 s at order 300 (the CLI command 0.32-0.42 s;
# 4.4-5.0 s with Fraction rows) and 0.17-0.22 s at order 453, on one
# 2-vCPU Xeon core.  It holds one row, not the table: a traced peak of
# 0.8 MB at order 300 and 1.8 MB at 453 (57 and 196 MB for the table).
MAX_ORDER = 512


# ---------------------------------------------------------------------------
# Moment sequences and their differences
# ---------------------------------------------------------------------------


class MomentSequence(_Record):
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise InputError("a moment sequence needs at least one entry")
        if len(self.values) > MAX_ORDER + 1:
            raise InputError(f"a moment sequence has at most {MAX_ORDER + 1} entries")
        for v in self.values:
            require_unit(v)

    @property
    def order(self) -> int:
        return len(self.values) - 1

    @property
    def denominator(self) -> int:
        """The lcm of the values' denominators, a denominator of every difference."""
        return math.lcm(*[v.denominator for v in self.values])


def moment_sequence(raw: Sequence) -> MomentSequence:
    values = []
    for v in raw:
        if isinstance(v, str):
            v = parse_rational(v)
        elif isinstance(v, int):
            v = Fraction(v)
        values.append(v)
    return MomentSequence(tuple(values))


def _delta_rows(m: MomentSequence) -> Iterator[list[int]]:
    """The rows D * delta^r m for r = 0, 1, ..., order, one at a time.

    Every difference is an integer combination of the sequence's values,
    so D = ``m.denominator`` makes each row integers; row r holds the
    r-th differences at k = 0, ..., order - r.  Only the current row is
    kept: a caller that stops early never builds the rest of the table.
    """
    row = list(over_lcm(m.values)[0])
    while row:
        yield row
        row = list(map(operator.sub, row[1:], row))


def binomial_delta(m: MomentSequence, r: int, k: int) -> Fraction:
    """(-1)^r times the r-th difference at k, via the binomial expansion.

    Kept separate from the recursive rows so the two can cross-check.
    """
    return sum(
        (
            Fraction(math.comb(r, h)) * (-1) ** h * m.values[k + h]
            for h in range(r + 1)
        ),
        ZERO,
    )


def check_hausdorff(m: MomentSequence) -> Verdict:
    """Decide complete monotonicity: m0 = 1 and (-1)^r * delta >= 0.

    A failure gives its reason, "m0" or "sign"; a sign failure also
    gives the lexicographically first offending position (r, k).  The
    signs are read off each row's integers, whose denominator is positive,
    and the scan stops at the first failing row.
    """
    entries = {"entries": (m.order + 1) * (m.order + 2) // 2}
    if m.values[0] != ONE:
        return Verdict("fail", [{"reason": "m0"}], entries)
    for r, row in enumerate(_delta_rows(m)):
        wrong = operator.gt if r % 2 else operator.lt
        k = next((k for k, x in enumerate(row) if wrong(x, 0)), None)
        if k is not None:
            return Verdict("fail", [{"reason": "sign", "position": (r, k)}], entries)
    return Verdict("pass", [], entries)


# ---------------------------------------------------------------------------
# Measures on rational grids
# ---------------------------------------------------------------------------


def grid_measure(points: Sequence[Fraction], weights: Sequence[Fraction]) -> DiscreteMeasure:
    """A measure whose atom names are the rational grid points."""
    for p in points:
        require_unit(p)
    return states.measure([format_rational(p) for p in points], weights)


def grid_points(mu: DiscreteMeasure) -> tuple[Fraction, ...]:
    """The points of [0, 1] that the measure's atoms name."""
    points = []
    for atom in mu.atoms:
        try:
            points.append(require_unit(parse_rational(atom)))
        except InputError:
            raise InputError(f"measure atoms must name rationals in [0, 1], got {atom!r}") from None
    return tuple(points)


def moments_of_measure(mu: DiscreteMeasure, order: int) -> MomentSequence:
    """Power moments of a grid measure, exactly, up to `MAX_ORDER`.  An order whose bound
    L_w * L_p^order on the moments' terms (L_w, L_p: the lcms of the weight and atom
    denominators) passes the int/str digit limit is refused before any moment."""
    if not 0 <= order <= MAX_ORDER:
        raise InputError(f"order must be between 0 and {MAX_ORDER}")
    points = grid_points(mu)
    l_w, l_p = (math.lcm(*[v.denominator for v in vs]) for vs in (mu.weights, points))
    format_rational(l_w * l_p**order)  # a bound past the digit limit: InputError
    values = tuple(
        sum((p**k * w for p, w in zip(points, mu.weights)), ZERO)
        for k in range(order + 1)
    )
    return MomentSequence(values)


def verify_measure_moments(mu: DiscreteMeasure, order: int) -> Verdict:
    """The moments of ``mu`` up to ``order``, checked against the moment condition; an
    order that `moments_of_measure` refuses is refused before any moment."""
    m = moments_of_measure(mu, order)
    check = check_hausdorff(m)
    witnesses = [{"reason": w["reason"]} for w in check.witnesses]
    return Verdict(check.verdict, witnesses, {"order": order}, None, {"moments": m.values})


def hausdorff_reconstruct(m: MomentSequence, grid: int) -> DiscreteMeasure:
    """Binomial reconstruction of a measure on {0, 1/N, ..., 1}.

    Masses are binom(N, j) * (-1)^(N-j) * delta^(N-j) m_j; under the
    moment condition they are nonnegative and sum to one exactly, and
    the zeroth and first moments of the result match the input exactly.
    """
    if grid < 1:
        raise InputError("grid size must be at least 1")
    if grid + 1 > len(m.values):
        raise InputError(f"grid {grid} needs at least {grid + 1} moments")
    if not check_hausdorff(m).passed:
        raise InputError("sequence fails the moment condition")
    # the mass at j reads row r = grid - j: only the first grid + 1 rows are built
    numerators = [
        math.comb(grid, r) * (-1) ** r * row[grid - r]
        for r, row in zip(range(grid + 1), _delta_rows(m))
    ][::-1]
    d = m.denominator
    if any(x < 0 for x in numerators) or sum(numerators) != d:
        raise AssertionError("reconstructed masses are a probability vector")
    masses = [Fraction(x, d) for x in numerators]
    return grid_measure([Fraction(j, grid) for j in range(grid + 1)], masses)


def verify_reconstruction(m: MomentSequence, grid: int) -> Verdict:
    """Reconstruct on the grid and check the zeroth and first moments survive.

    The check runs on integers, the masses' numerators n_j over their lcm
    d: the sum of n_j is d * m0 = d and the sum of j * n_j is grid * d * m1
    (a grid of at least 1 reads m1).  No moment is recomputed in `Fraction`s.
    """
    mu, m1 = hausdorff_reconstruct(m, grid), m.values[1]
    numerators, d = over_lcm(mu.weights)
    first = sum(map(operator.mul, range(grid + 1), numerators))
    ok = sum(numerators) == d and first * m1.denominator == grid * d * m1.numerator
    witnesses = [] if ok else [{"moment": "first moments not preserved"}]
    return Verdict("pass" if ok else "fail", witnesses, {"grid": grid}, None, mu)


# ---------------------------------------------------------------------------
# Exact feasibility search
# ---------------------------------------------------------------------------


def _phase_one(columns: list[list[int]], rhs: list[int]):
    """Minimize the artificial total for A w = b, w >= 0 (all b >= 0).

    The system comes as integers: the columns of c * A and c * b, for a
    positive common denominator c of A and b.  Returns ``(solution, None)``
    on feasibility or ``(None, y)`` with a verified Farkas certificate:
    y.A <= 0 componentwise and y.b > 0.

    The tableau [B^-1 cA | B^-1 | B^-1 cb], objective row last, is integers M
    over one positive d and pivots fraction-free (Bareiss 1968): each update
    divides exactly by the previous pivot.  The initial basis is I, so d starts
    at 1 and every entry of M is a minor of [cA | I | cb] with its cost row.
    That system is c * [A | I/c | b]: next to [A | I | b] only the artificial
    columns are scaled, all by 1/c, which scales every reduced cost by c and the
    ratios of an entering column by one positive factor.  So the signs, the
    ties, Bland's pivots (Bland 1977), the solution and y are those of A w = b.

    Bland's rule needs only the artificial block d * B^-1, the rhs and the
    objective row: (rows + 1)**2 integers.  Structural column j of M is that
    block times cA_j, and its objective entry, the price Bland's rule reads,
    is the same sum with the weights obj_k - d, obj_k the objective row's
    artificial entries.  The columns are priced in index order up to the
    first negative price and only the entering column is formed, so the
    pivots are those of the full tableau.
    """
    rows, cols, d = len(rhs), len(columns), 1
    # [artificial block | rhs] per row, then the objective row: cost 1 per artificial, priced out
    tableau = [[int(k == i) for k in range(rows)] + [b] for i, b in enumerate(rhs)]
    tableau.append([0] * rows + [-sum(rhs)])
    body, obj = tableau[:rows], tableau[rows]
    basis = list(range(cols, cols + rows))

    while True:
        weights = [o - d for o in obj[:rows]]
        prices = (sum(map(operator.mul, weights, a)) for a in columns)
        entering, price = next(((j, c) for j, c in enumerate(prices) if c < 0), (None, None))
        if entering is not None:
            a = columns[entering]
            column = [sum(map(operator.mul, row, a)) for row in body]
            column.append(price)
        else:
            k = next((k for k in range(rows) if obj[k] < 0), None)
            if k is None:
                break
            entering, column = cols + k, [row[k] for row in tableau]
        leaving = None
        for i in range(rows):
            coeff = column[i]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                # the ratios rhs / coeff, cross-multiplied: both coefficients are positive
                ratio = body[i][-1] * column[leaving]
                best = body[leaving][-1] * coeff
                if ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise AssertionError("phase one is bounded below by zero")
        pivot_row, pivot = tableau[leaving], column[leaving]
        for i, row in enumerate(tableau):
            if i != leaving:
                factor = column[i]
                row[:] = [(v * pivot - factor * p) // d for v, p in zip(row, pivot_row)]
        d = pivot
        basis[leaving] = entering

    if obj[-1] == 0:
        solution = [ZERO] * cols
        for i, var in enumerate(basis):
            if var < cols:
                solution[var] = Fraction(body[i][-1], d)
        return solution, None
    yvec = tuple(ONE - Fraction(o, d) for o in obj[:rows])
    ys = over_lcm(yvec)[0]
    if sum(map(operator.mul, ys, rhs)) <= 0:
        raise AssertionError("a Farkas certificate has y.b > 0")
    if any(sum(map(operator.mul, ys, a)) > 0 for a in columns):
        raise AssertionError("a Farkas certificate has y.A <= 0")
    return None, yvec


def moment_fit_lp(m: MomentSequence, grid: int) -> Verdict:
    """Search a grid measure with the given moments, or certify none exists.

    Equality constraints: total mass one plus one row per moment index.
    Solved by exact integer pivoting; no floating point anywhere.  The
    result is the measure; an infeasible verdict's witness is the Farkas
    certificate (row multipliers).
    """
    if m.order > MAX_FIT_MOMENTS:
        raise InputError(f"at most {MAX_FIT_MOMENTS + 1} moments are supported")
    if not 1 <= grid <= MAX_FIT_GRID:
        raise InputError(f"grid size must be between 1 and {MAX_FIT_GRID}")
    # the row of moment k holds (j / grid)**k, whose denominators divide grid**k
    common = math.lcm(grid**m.order, *[v.denominator for v in m.values])
    scales = [common // grid**k for k in range(m.order + 1)]
    columns = [[common] + [j**k * s for k, s in enumerate(scales)] for j in range(grid + 1)]
    rhs = [common] + [v.numerator * (common // v.denominator) for v in m.values]
    solution, certificate = _phase_one(columns, rhs)
    if solution is None:
        return Verdict("infeasible", [{"certificate": certificate}], {"grid": grid})
    # A w = b on the integer system: the weights' numerators over their lcm d
    numerators, d = over_lcm(solution)
    if any(x < 0 for x in numerators) or any(
        sum(map(operator.mul, row, numerators)) != d * b for row, b in zip(zip(*columns), rhs)
    ):
        raise AssertionError("the fitted measure has the given moments")
    mu = grid_measure([Fraction(j, grid) for j in range(grid + 1)], solution)
    return Verdict("pass", [], {"grid": grid}, None, mu)


# ---------------------------------------------------------------------------
# Outward rational enclosures for fractional powers
# ---------------------------------------------------------------------------


def _floor_root(target: int, n: int) -> int:
    """floor(target ** (1/n)) for target >= 0 and n >= 2: `math.isqrt` at n = 2, else one
    Newton step from the float root of the leading bits, which lands at or above the floor
    root from any positive start (AM-GM; the floor of the sum is the sum of floors over n),
    and then Newton's iterate falls to the floor root."""
    if n == 2 or target < 2:  # 0 and 1 are their own roots
        return math.isqrt(target)
    shift = max(0, -(-(target.bit_length() - 960) // n))  # at most 960 bits in a float
    root = int(float(target >> n * shift) ** (1 / n) * 2**50) << shift >> 50
    root = ((n - 1) * root + target // root ** (n - 1)) // n
    while True:
        below = ((n - 1) * root + target // root ** (n - 1)) // n
        if below >= root:
            return root
        root = below


def _root_bounds(y: Fraction, n: int, bits: int) -> tuple[Fraction, Fraction]:
    """The dyadic interval [r, r + 1] / 2**bits that holds the n-th root of y, r the
    `_floor_root` of y * 2**(n*bits), floored: for y in (0, 1) it keeps its width even when
    the root is dyadic, so lo**n <= y < hi**n, and 0 and 1 are their own roots."""
    if y in (ZERO, ONE):
        return y, y
    root = _floor_root((y.numerator << (n * bits)) // y.denominator, n)
    return Fraction(root, 1 << bits), Fraction(root + 1, 1 << bits)


def pow_bounds(x: Fraction, exponent: Fraction, bits: int = DEFAULT_PRECISION):
    """Enclose x**exponent for x in [0, 1], exponent >= 0, outward-rounded."""
    require_unit(x)
    if exponent < 0:
        raise InputError("exponent must be nonnegative")
    if exponent.denominator == 1:
        exact = x ** int(exponent)
        return exact, exact
    return _root_bounds(x**exponent.numerator, exponent.denominator, bits)


def _interval_pow(iv: tuple[Fraction, Fraction], exponent: Fraction, bits: int):
    lo, _ = pow_bounds(iv[0], exponent, bits)
    _, hi = pow_bounds(min(iv[1], ONE), exponent, bits)
    return lo, hi


# ---------------------------------------------------------------------------
# The power-mean inequality check
# ---------------------------------------------------------------------------


def _power_state_bounds(s: State, a: Element, exponent: Fraction, bits: int):
    """Enclose s(a^exponent) = sum_x w_x * a(x)^exponent; exact at an integer exponent.  At
    k / n, with weights w_x / L and values x / e, it is [sum w_x * r_x, sum w_x * (r_x + 1)]
    / (L * 2**bits), r_x the floor root of x^k * 2**(n*bits) / e^k, floored; at the values 0
    and 1, r_x is 0 or 2**bits with no + 1, as `_root_bounds` keeps them exact, and an atom
    of weight 0 adds nothing and takes no root."""
    k, n = exponent.numerator, exponent.denominator
    powers = [(x**k, d**k) for x, d in core.ambient_pairs(a)]
    if n == 1:
        exact = Fraction(*states._evaluate(s, powers))
        return exact, exact
    weights, common = s.encoded_weights
    low = width = 0
    for w, (x, e) in zip(weights, powers):
        if w and 0 < x < e:
            low += w * _floor_root((x << n * bits) // e, n)
            width += w
        else:  # 0 and 1: r_x is x * 2**bits; weight 0: no term
            low += (w * x) << bits
    return Fraction(low, common << bits), Fraction(low + width, common << bits)


def holder_check(
    s: State,
    a: Element,
    b: Element,
    p: Fraction,
    q: Fraction,
    precision: int = DEFAULT_PRECISION,
) -> Verdict:
    """Check s(a.b) <= s(a^p)^(1/p) * s(b^q)^(1/q).

    The conjugate pair must satisfy 1/p + 1/q = 1 exactly.  With
    p = q = 2 both sides are squared and compared in rationals (mode
    "exact"); any other pair goes through outward enclosures of the
    fractional powers (mode "interval") and may come back inconclusive
    at the requested precision, which is the honest answer when the
    enclosures overlap.  The result holds lhs, rhs_low and rhs_high.
    A precision outside 1 to `MAX_PRECISION` bits, or an exponent with a
    numerator or denominator above `MAX_EXPONENT`, is refused.
    """
    if a.algebra != s.algebra or b.algebra != s.algebra:
        raise InputError("elements must live on the state's algebra")
    if not s.algebra.internal_product:
        raise InputError("the inequality needs an internal product")
    if not 1 <= precision <= MAX_PRECISION:
        raise InputError(f"precision must be between 1 and {MAX_PRECISION} bits")
    p, q = Fraction(p), Fraction(q)
    if p < 1 or q < 1 or Fraction(1, 1) / p + Fraction(1, 1) / q != ONE:
        raise InputError("exponents must be conjugate: 1/p + 1/q = 1 with p, q >= 1")
    if max(p.numerator, p.denominator, q.numerator, q.denominator) > MAX_EXPONENT:
        raise InputError(f"exponent numerators and denominators must be at most {MAX_EXPONENT}")

    lhs = states.eval_state(s, core.prod(a, b))
    if p == 2 and q == 2:
        sa = states.eval_state(s, core.prod(a, a))
        sb = states.eval_state(s, core.prod(b, b))
        verdict = "pass" if lhs * lhs <= sa * sb else "fail"
        return _holder_verdict(verdict, "exact", precision, lhs, sa * sb, sa * sb)

    lo_a, hi_a = _interval_pow(_power_state_bounds(s, a, p, precision), 1 / p, precision)
    lo_b, hi_b = _interval_pow(_power_state_bounds(s, b, q, precision), 1 / q, precision)
    rhs = lo_a * lo_b, hi_a * hi_b  # all quantities nonnegative here
    if lhs <= rhs[0]:
        verdict = "pass"
    elif lhs > rhs[1]:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return _holder_verdict(verdict, "interval", precision, lhs, rhs[0], rhs[1])


def _holder_verdict(verdict, mode, precision, lhs, rhs_low, rhs_high) -> Verdict:
    witnesses = [{"lhs": lhs, "rhs_high": rhs_high}] if verdict == "fail" else []
    return Verdict(
        verdict,
        witnesses,
        {"mode": mode, "precision": precision},
        None,
        {"lhs": lhs, "rhs_low": rhs_low, "rhs_high": rhs_high},
    )
