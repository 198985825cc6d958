"""Rational literals: the integer parser against `Fraction(text)`, the parser it replaced."""

import sys
from fractions import Fraction
from random import Random

import pytest

from mvprob.errors import InputError
from mvprob.rationals import _below, parse_rational, parse_unit, random_unit, require_unit

DIGIT_LIMIT = sys.get_int_max_str_digits()  # CPython's int/str conversion limit


def _term(rng: Random, digits: int, leading_zeros: bool) -> str:
    text = str(rng.randint(10 ** (digits - 1), 10**digits - 1))
    return "0" * rng.randint(1, 3) + text if leading_zeros else text


def _seeded_literals(seed: int, count: int) -> list[str]:
    rng = Random(seed)
    literals = []
    for _ in range(count):
        sign = "-" if rng.random() < 0.3 else ""
        p = _term(rng, rng.randint(1, 40), rng.random() < 0.3)
        q = "" if rng.random() < 0.3 else "/" + _term(rng, rng.randint(1, 40), False)
        literals.append(sign + p + q)
    return literals


EDGE_LITERALS = [
    "0", "-0", "0/5", "-0/5", "1", "-1", "007", "-007/10", "00/1", "1/1", "6/4", "-6/4",
    "9" * DIGIT_LIMIT, "-" + "9" * DIGIT_LIMIT, "1/" + "9" * DIGIT_LIMIT,
    "7" * DIGIT_LIMIT + "/" + "3" * DIGIT_LIMIT, "0" * 10 + "7" * (DIGIT_LIMIT - 10),
]


@pytest.mark.parametrize("literals", [EDGE_LITERALS, _seeded_literals(0, 300), _seeded_literals(1, 300)],
                         ids=["edges", "seed-0", "seed-1"])
def test_the_integer_parser_gives_the_value_fraction_gives(literals):
    for text in literals:
        value, reference = parse_rational(text), Fraction(text)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (reference.numerator, reference.denominator), text


@pytest.mark.parametrize(
    "text",
    ["1" * (DIGIT_LIMIT + 1), "-1/" + "1" * (DIGIT_LIMIT + 1), "0" + "1" * DIGIT_LIMIT],
    ids=["numerator", "denominator", "leading-zero"],
)
def test_a_term_beyond_the_digit_limit_is_an_input_error(text):
    with pytest.raises(ValueError):  # the parser replaced refused it as well
        Fraction(text)
    with pytest.raises(InputError) as caught:
        parse_rational(text)
    assert str(caught.value) == f"rational literal has a term of more than {DIGIT_LIMIT} digits"


@pytest.mark.parametrize(
    "text",
    ["1.5", " 1", "1 ", "+1", "1/0", "1/02", "1/-2", "1/2\n", "1\n", "", "-", "/2", "1/", "1_0",
     "1e3", 1, None],
)
def test_anything_but_p_or_p_over_q_is_refused(text):
    with pytest.raises(InputError) as caught:
        parse_rational(text)
    assert str(caught.value) == f"not a rational literal: {text!r}"


@pytest.mark.parametrize("text", ["0", "-0", "0/7", "1", "7/7", "3/4", "0001/2"])
def test_a_unit_literal_passes_the_range_check(text):
    assert parse_unit(text) == Fraction(text)


@pytest.mark.parametrize("value", [Fraction(-1, 3), Fraction(4, 3), Fraction(-1), Fraction(2)])
def test_a_value_off_the_unit_interval_is_refused(value):
    with pytest.raises(InputError) as caught:
        require_unit(value)
    assert str(caught.value) == f"value {value} outside [0, 1]"


# every n the sweeps draw below (the denominators up to 60, the numerators up to 61, the
# Chang index up to 41, table sizes) and the edges of the getrandbits width up to 2**70 + 1
BELOW = list(range(1, 131)) + [m for k in range(1, 71) for m in (2**k - 1, 2**k, 2**k + 1)]


def test_below_draws_what_randrange_and_randint_draw():
    # the same stream draw for draw, interleaved with random() as the Chang draw is,
    # so every later draw of a sweep sees the same generator state
    for seed in range(100):
        kernel, reference = Random(seed), Random(seed)
        for n in BELOW:
            assert _below(kernel, n) == reference.randrange(n)
            assert kernel.random() == reference.random()
            assert 5 + _below(kernel, n) == reference.randint(5, 5 + n - 1)
        assert kernel.getstate() == reference.getstate()


def test_random_unit_draws_what_randint_drew():
    for seed in range(20):
        kernel, reference = Random(seed), Random(seed)
        for _ in range(200):
            q = reference.randint(1, 60)
            assert random_unit(kernel) == Fraction(reference.randint(0, q), q)
        assert kernel.getstate() == reference.getstate()
