"""Expression grammar: parsing, canonicalization, printing round trips."""

import random
from fractions import Fraction

import pytest

from sullivan.algebra import Algebra
from sullivan.fields import GaussianRational, QI
from sullivan.parsing import ParseError, format_element, parse_element


@pytest.fixture
def alg():
    return Algebra(
        [
            ("e0", 1, "even"),
            ("psi1", 1, "odd"),
            ("psi2", 1, "odd"),
            ("x4", 4, "even"),
            ("x7", 7, "even"),
        ]
    )


def test_basic_expression(alg):
    e = parse_element("x4^2 - 2*x7", alg)
    assert e == alg.gen("x4") * alg.gen("x4") + alg.gen("x7").scale(-2)


def test_square_zero_repeat_is_an_error(alg):
    with pytest.raises(ParseError):
        parse_element("e0*e0", alg)
    with pytest.raises(ParseError):
        parse_element("e0^2", alg)


def test_koszul_canonicalization(alg):
    e = parse_element("1/2*psi1*psi2 + 1/2*psi2*psi1", alg)
    assert e == alg.gen("psi1") * alg.gen("psi2")


def test_unknown_generator_position(alg):
    with pytest.raises(ParseError) as err:
        parse_element("x4 + 3*zz", alg)
    assert err.value.position == 7


def test_malformed_syntax(alg):
    for text in ("", "x4 +", "2 ** x4", "x4 x7", "^3", "1/0"):
        with pytest.raises(ParseError):
            parse_element(text, alg)


def test_whitespace_insensitive(alg):
    assert parse_element("  x4 ^ 2-2 * x7 ", alg) == parse_element("x4^2-2*x7", alg)


def test_imaginary_literal_requires_qi(alg):
    with pytest.raises(ParseError):
        parse_element("i*x4", alg)
    qi = Algebra([("x4", 4, "even")], QI)
    e = parse_element("i*x4 - 1/2*x4", qi)
    assert e.terms[((0, 1),)] == GaussianRational(Fraction(-1, 2), 1)


def test_print_parse_round_trip_randomized(alg):
    rng = random.Random(5)
    for _ in range(200):
        e = alg.zero()
        for _ in range(rng.randint(0, 5)):
            d = rng.randint(0, 8)
            basis = alg.monomial_basis(d)
            if not basis:
                continue
            e = e + alg.monomial(rng.choice(basis), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert parse_element(format_element(e), alg) == e


def test_print_parse_round_trip_gaussian():
    qi = Algebra([("x2", 2, "even"), ("y1", 1, "even")], QI)
    rng = random.Random(6)
    for _ in range(100):
        e = qi.zero()
        for _ in range(rng.randint(0, 4)):
            d = rng.randint(0, 6)
            basis = qi.monomial_basis(d)
            if not basis:
                continue
            coeff = QI.coerce(Fraction(rng.randint(-5, 5))) + QI.imaginary_unit() * rng.randint(-5, 5)
            e = e + qi.monomial(rng.choice(basis), coeff)
        assert parse_element(format_element(e), qi) == e


def test_zero_prints_as_zero(alg):
    assert format_element(alg.zero()) == "0"
    assert str(alg.one()) == "1"


@pytest.mark.parametrize(
    "alone, in_monomial",
    [
        ("1", "x2"),
        ("-1", "-x2"),
        ("3", "3*x2"),
        ("-1/2", "-1/2*x2"),
        ("i", "i*x2"),
        ("-i", "-i*x2"),
        ("2*i", "2*i*x2"),
        ("1/2 - 3*i", "1/2*x2 - 3*i*x2"),
    ],
)
def test_qi_coefficient_text_is_pinned(alone, in_monomial):
    qi = Algebra([("x2", 2, "even")], QI)
    scalar = parse_element(alone, qi)
    assert format_element(scalar) == str(scalar) == alone
    (coeff,) = scalar.terms.values()
    assert str(coeff) == alone
    assert (type(coeff) is Fraction) == ("i" not in alone)
    element = parse_element(in_monomial, qi)
    assert format_element(element) == str(element) == in_monomial
    assert element == qi.gen("x2").scale(coeff)
