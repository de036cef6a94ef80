"""Exact sparse rank/kernel/RREF computations, cross-checked against sympy."""

import random
from fractions import Fraction

import pytest
import sympy

from sullivan.fields import QI, QQ, GaussianRational
from sullivan.linalg import kernel_basis, rank, reduce_against, row_reduce


def F(x, y=1):
    return Fraction(x, y)


def test_identity_matrix():
    rows = [{0: F(1)}, {1: F(1)}, {2: F(1)}]
    assert rank(rows, QQ, 3) == 3
    assert kernel_basis(rows, QQ, 3) == []


def test_zero_matrix():
    rows = [{} for _ in range(3)]
    assert rank(rows, QQ, 4) == 0
    kern = kernel_basis(rows, QQ, 4)
    assert len(kern) == 4
    for i, v in enumerate(kern):
        assert v[i] == 1


def test_proportional_rows():
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    assert rank(rows, QQ, 2) == 1
    kern = kernel_basis(rows, QQ, 2)
    assert kern == [{0: F(-2), 1: F(1)}]


def _random_matrix(rng, n, m):
    return [
        {j: x for j in range(m) if (x := F(rng.randint(-9, 9), rng.randint(1, 5)))}
        for _ in range(n)
    ]


def _dense(rows, n, m, to_sympy=sympy.Rational):
    return sympy.Matrix(n, m, lambda i, j: to_sympy(rows[i][j]) if j in rows[i] else 0)


def _annihilates(rows, v):
    return all(sum(row[c] * x for c, x in v.items() if c in row) == 0 for row in rows)


def test_rank_matches_sympy_and_kernel_annihilates():
    rng = random.Random(21)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_matrix(rng, n, m)
        r = rank(rows, QQ, m)
        assert r == _dense(rows, n, m).rank()
        kern = kernel_basis(rows, QQ, m)
        assert len(kern) == m - r
        for v in kern:
            assert _annihilates(rows, v)


def test_reduce_against_row_space():
    rows = [{0: F(1), 2: F(2)}, {1: F(1), 2: F(-1)}]
    red, pivots = row_reduce(rows, QQ, 3)
    v = reduce_against({0: F(3), 1: F(2), 2: F(4)}, red, pivots)
    assert 0 not in v and 1 not in v
    # reduced vector differs from the original by a row-space element
    assert v.get(2, F(0)) == F(4) - F(3) * F(2) - F(2) * F(-1)


def _q_scalar(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 5))


def _qi_scalar(rng):
    # a Fraction when the imaginary part drawn is 0
    return GaussianRational(_q_scalar(rng), _q_scalar(rng) if rng.random() < 0.5 else 0)


def _q_to_sympy(x):
    return sympy.Rational(x.numerator, x.denominator)


def _qi_to_sympy(x):
    if isinstance(x, Fraction):
        return _q_to_sympy(x)
    return _q_to_sympy(x.re) + sympy.I * _q_to_sympy(x.im)


def _canonical_scalar(x):
    """A real scalar is exactly a Fraction; a GaussianRational is never real."""
    return type(x) is Fraction or (type(x) is GaussianRational and x.im != 0)


def _from_sympy(field, x):
    re, im = (sympy.Rational(part) for part in sympy.sympify(x).as_real_imag())
    if field is QQ:
        assert im == 0
        return F(re.p, re.q)
    return GaussianRational(F(re.p, re.q), F(im.p, im.q))


# sympy's rref over Q(i) is slow, hence fewer matrices there
@pytest.mark.parametrize(
    "field, scalar, to_sympy, count",
    [(QQ, _q_scalar, _q_to_sympy, 40), (QI, _qi_scalar, _qi_to_sympy, 15)],
    ids=["Q", "Qi"],
)
def test_sparse_rref_matches_sympy(field, scalar, to_sympy, count):
    rng = random.Random(f"sparse rref {field.name}")
    for _ in range(count):
        n, m = rng.randint(1, 12), rng.randint(1, 15)
        fill = rng.uniform(0.05, 0.4)
        rows = [
            {j: x for j in range(m) if rng.random() < fill and (x := scalar(rng))}
            for _ in range(n)
        ]
        red, pivots = row_reduce(rows, field, m)
        assert all(_canonical_scalar(x) for row in red for x in row.values())
        expected, expected_pivots = _dense(rows, n, m, to_sympy).rref()
        assert pivots == list(expected_pivots)
        for i in range(n):
            for j in range(m):
                got = red[i].get(j, field.zero) if i < len(red) else field.zero
                assert got == _from_sympy(field, expected[i, j]), (i, j)
        kern = kernel_basis(rows, field, m)
        assert len(kern) == m - len(pivots)
        for v in kern:
            assert all(_canonical_scalar(x) for x in v.values())
            assert _annihilates(rows, v)
