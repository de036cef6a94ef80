"""Field arithmetic: exactness, canonical form, parse/print round trips."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sullivan.algebra import Algebra
from sullivan.fields import FIELDS, QI, QQ, FieldError, GaussianRational
from sullivan.parsing import format_element, parse_element


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_rational_sum():
    assert QQ.coerce(Fraction(1, 2)) + Fraction(1, 3) == Fraction(5, 6)


def test_imaginary_unit_squares_to_minus_one():
    i = QI.imaginary_unit()
    assert i * i == gr(-1)


def test_gaussian_division():
    # (1+i)/(1-i): multiply by the conjugate by hand -> (1+i)^2 / 2 = i
    num = gr(1, 1)
    den = gr(1, -1)
    by_conjugate = (num * den.conjugate()) * QI.fraction(1, 2)
    assert num / den == by_conjugate == gr(0, 1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)
    with pytest.raises(ZeroDivisionError):
        QQ.fraction(1, 0)


def test_is_real():
    assert QQ.is_real(Fraction(3, 4))
    assert not QI.is_real(QI.imaginary_unit())
    assert QI.is_real(QI.imaginary_unit() - QI.imaginary_unit())


def test_real_qi_scalars_are_fractions():
    assert type(gr(3, 0)) is Fraction and gr(3, 0) == 3
    assert type(GaussianRational(2)) is Fraction
    for x in (QI.zero, QI.one, QI.fraction(2, 3), QI.coerce(5), QI.coerce(Fraction(1, 2))):
        assert type(x) is Fraction
    assert QI.coerce(gr(1, 2)) == gr(1, 2)


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_gaussian_copy_and_pickle(round_trip):
    x = gr(1, 2)
    y = round_trip(x)
    assert type(y) is GaussianRational and y == x and hash(y) == hash(x)
    row = {0: gr(Fraction(1, 3), -1), 3: Fraction(5, 7), 4: QI.imaginary_unit()}
    out = round_trip(row)
    assert out == row
    assert [type(v) for v in out.values()] == [type(v) for v in row.values()]


def test_coerce_rejects_junk():
    with pytest.raises(FieldError):
        QQ.coerce(0.5)
    with pytest.raises(FieldError):
        QQ.coerce(gr(0, 1))
    assert QQ.coerce(gr(2, 0)) == Fraction(2)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_field_axioms_gaussian(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == gr(0)
    if a:
        assert a * (gr(1) / a) == gr(1)


@given(rationals, rationals)
def test_canonical_form_unique(p, q):
    x, y = gr(p, q), gr(p, q)
    assert x == y and hash(x) == hash(y)
    if q == 0:
        assert x == p and hash(x) == hash(Fraction(p))


@pytest.mark.parametrize(
    "field_tag,text",
    [
        ("Q", "5/6"),
        ("Q", "-3"),
        ("Qi", "1/2 + 2/3*i"),
        ("Qi", "1/2 - 2/3*i"),
        ("Qi", "-7/2"),
        ("Qi", "i"),
        ("Qi", "-i"),
        ("Qi", "3*i"),
    ],
)
def test_scalar_text_round_trip(field_tag, text):
    scalars = Algebra([], FIELDS[field_tag])  # no generators: elements are scalars
    value = parse_element(text, scalars)
    assert format_element(value) == text
    assert parse_element(format_element(value), scalars) == value
    if field_tag == "Qi":
        assert str(value.terms[()]) == text


@given(gaussians)
def test_gaussian_format_parse_round_trip(x):
    scalars = Algebra([], QI)
    assert parse_element(str(x), scalars) == scalars.scalar(x)
    assert parse_element(format_element(scalars.scalar(x)), scalars) == scalars.scalar(x)


# Oracle: Q(i) arithmetic on mixed Fraction / GaussianRational operands
# against an independent model, a + b*i as the pair (a, b) of Fractions.
# Small values make cancellation to a real result frequent.

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
qi_scalars = st.one_of(
    small_rationals, st.builds(GaussianRational, small_rationals, small_rationals)
)


def _pair(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    assert type(x) is Fraction
    return x, Fraction(0)


def _assert_is(result, re, im):
    """result is re + im*i in canonical form: exactly a Fraction when real."""
    if im == 0:
        assert type(result) is Fraction
        assert result == re
    else:
        assert type(result) is GaussianRational
        assert (result.re, result.im) == (re, im)


@given(qi_scalars, qi_scalars)
def test_qi_arithmetic_matches_pair_model(x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    _assert_is(x + y, a + c, b + d)
    _assert_is(x - y, a - c, b - d)
    _assert_is(x * y, a * c - b * d, a * d + b * c)
    n = c * c + d * d
    if n:
        _assert_is(x / y, (a * c + b * d) / n, (b * c - a * d) / n)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    _assert_is(-x, -a, -b)
    _assert_is(x.conjugate(), a, -b)
    _assert_is(x * x.conjugate(), a * a + b * b, 0)
    _assert_is(x - x, 0, 0)
    assert (x == y) == ((a, b) == (c, d)) == (y == x)
    assert (x != y) == ((a, b) != (c, d))
    if x == y:
        assert hash(x) == hash(y)
