"""Exact sparse rank/kernel/RREF computations, cross-checked against sympy."""

import random
from fractions import Fraction

import pytest
import sympy

from sullivan.fields import QI, QQ, GaussianRational
from sullivan.linalg import (
    homology,
    independent_subset,
    kernel_basis,
    rank,
    reduce_against,
    row_reduce,
)

import oracles


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


def _random_sparse(rng, scalar, n, m, fill):
    return [
        {j: x for j in range(m) if rng.random() < fill and (x := scalar(rng))}
        for _ in range(n)
    ]


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
        rows = _random_sparse(rng, scalar, n, m, rng.uniform(0.05, 0.4))
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


FIELDS = [(QQ, _q_scalar, _q_to_sympy), (QI, _qi_scalar, _qi_to_sympy)]


def _dependent_rows(rng, field, scalar, n, m):
    """n sparse rows of width m, some of them combinations of earlier ones,
    so that rank, independence and pivots are all exercised."""
    rows = []
    for _ in range(n):
        if rows and rng.random() < 0.4:
            row = {}
            for other in rng.sample(rows, min(len(rows), 2)):
                f = scalar(rng)
                for c, v in other.items():
                    row[c] = row.get(c, field.zero) + f * v
            rows.append({c: v for c, v in row.items() if v})
        else:
            rows.extend(_random_sparse(rng, scalar, 1, m, rng.uniform(0.1, 0.5)))
    return rows


@pytest.mark.parametrize("field, scalar, to_sympy", FIELDS, ids=["Q", "Qi"])
def test_rank_matches_sympy_on_dependent_rows(field, scalar, to_sympy):
    rng = random.Random(f"echelon rank {field.name}")
    for _ in range(30):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        rows = _dependent_rows(rng, field, scalar, n, m)
        assert rank(rows, field, m) == _dense(rows, n, m, to_sympy).rank()


def _greedy_by_rank(rows, ncols, to_sympy):
    """Brute force: keep each row in turn when it makes the rank grow."""
    chosen = []
    for idx in range(len(rows)):
        trial = [rows[i] for i in chosen + [idx]]
        if _dense(trial, len(trial), ncols, to_sympy).rank() == len(trial):
            chosen.append(idx)
    return chosen


@pytest.mark.parametrize("field, scalar, to_sympy", FIELDS, ids=["Q", "Qi"])
def test_independent_subset_is_greedy_first_independent(field, scalar, to_sympy):
    rng = random.Random(f"independent subset {field.name}")
    for _ in range(20):
        n, m = rng.randint(1, 9), rng.randint(1, 8)
        rows = _dependent_rows(rng, field, scalar, n, m)
        chosen, red, pivots = independent_subset(rows, field, m)
        assert chosen == _greedy_by_rank(rows, m, to_sympy)
        assert (red, pivots) == row_reduce([rows[i] for i in chosen], field, m)


@pytest.mark.parametrize("field, scalar, to_sympy", FIELDS, ids=["Q", "Qi"])
def test_elimination_leaves_input_rows_unmodified(field, scalar, to_sympy):
    rng = random.Random(f"inputs kept {field.name}")
    for _ in range(10):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        rows = _dependent_rows(rng, field, scalar, n, m)
        before = [dict(row) for row in rows]  # scalars are immutable
        row_reduce(rows, field, m)
        rank(rows, field, m)
        kernel_basis(rows, field, m)
        independent_subset(rows, field, m)
        assert rows == before
    image, bases, _ = _random_complex(rng, field, scalar, [3, 5, 4])
    before = [list(basis) for basis in bases], {key: list(image(key)) for key in bases[1]}
    homology(image, bases, field)
    assert ([list(basis) for basis in bases], {key: list(image(key)) for key in bases[1]}) == before


def _unit_upper(rng, field, scalar, n):
    return [
        [field.one if i == j else (scalar(rng) if j > i and rng.random() < 0.5 else field.zero)
         for j in range(n)]
        for i in range(n)
    ]


def _unit_upper_inverse(u, field):
    """Inverse of a unit upper-triangular matrix, by back substitution."""
    n = len(u)
    inv = [[field.zero] * n for _ in range(n)]
    for i in reversed(range(n)):
        for j in range(n):
            x = field.one if i == j else field.zero
            inv[i][j] = x - sum((u[i][k] * inv[k][j] for k in range(i + 1, n)), field.zero)
    return inv


def _matmul(a, b, ncols, field):
    """a times b, where b has ncols columns."""
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), field.zero) for j in range(ncols)]
        for row in a
    ]


def _random_complex(rng, field, scalar, dims):
    """(image, bases, field) of a random complex C^0 -> ... -> C^N with
    d^2 = 0: d_k = P_{k+1} D_k P_k^-1, where D_k sends a random set of basis
    vectors of C^k one to one onto basis vectors of C^(k+1) that D_(k+1)
    kills, and each P_k is random unit upper-triangular.  The keys of C^k
    are (k, j)."""
    ps = [_unit_upper(rng, field, scalar, n) for n in dims]
    hit = set()  # positions of C^k in the image of D_(k-1)
    maps = []
    for k, (n, n_hi) in enumerate(zip(dims, dims[1:])):
        free = [j for j in rng.sample(range(n), n) if j not in hit]
        targets = rng.sample(range(n_hi), rng.randint(0, min(len(free), n_hi)))
        std = [[field.zero] * n for _ in range(n_hi)]
        for j, i in zip(free, targets):
            std[i][j] = scalar(rng) or field.one
        hit = set(targets)
        d = _matmul(ps[k + 1], _matmul(std, _unit_upper_inverse(ps[k], field), n, field), n, field)
        maps.append(d)

    def image(key):
        k, j = key
        if k < len(maps):
            for i, row in enumerate(maps[k]):
                if row[j]:
                    yield (k + 1, i), row[j]

    bases = [[]] + [[(k, j) for j in range(n)] for k, n in enumerate(dims)] + [[]]
    return image, bases, field


def _sympy_homology_dims(image, bases, to_sympy):
    """dim ker - rank, each rank from sympy."""
    ranks = []
    for lo, hi in zip(bases, bases[1:]):
        index = {key: i for i, key in enumerate(hi)}
        m = sympy.zeros(len(hi), len(lo))
        for j, key in enumerate(lo):
            for k, c in image(key):
                m[index[k], j] = to_sympy(c)
        ranks.append(m.rank())
    return [len(b) - r_out - r_in for b, r_in, r_out in zip(bases[1:], ranks, ranks[1:])]


@pytest.mark.parametrize("field, scalar, to_sympy", FIELDS, ids=["Q", "Qi"])
def test_homology_matches_three_step_oracle(field, scalar, to_sympy):
    rng = random.Random(f"random complexes {field.name}")
    for _ in range(12):
        dims = [rng.randint(0, 6) for _ in range(rng.randint(2, 5))]
        image, bases, _ = _random_complex(rng, field, scalar, dims)
        # d^2 = 0, the premise of homology
        for lo in bases[1:-2]:
            for key in lo:
                d2 = {}
                for k, c in image(key):
                    for k2, c2 in image(k):
                        d2[k2] = d2.get(k2, field.zero) + c * c2
                assert not any(d2.values())
        classes = homology(image, bases, field)
        assert classes == oracles.homology(image, bases, field)
        assert [len(c) for c in classes] == _sympy_homology_dims(image, bases, to_sympy)
