"""Canonical monomials, Koszul signs, element arithmetic, monomial bases."""

import itertools
import random
from fractions import Fraction

import pytest

from sullivan.algebra import (
    Algebra,
    AlgebraError,
    Element,
    derivation_table,
    extend_derivation,
    relabel,
    transport,
)
from sullivan.fields import QI, QQ

from samples import integers, random_homogeneous


@pytest.fixture
def mixed():
    # one generator of every flavor that occurs downstream
    return Algebra(
        [
            ("e0", 1, "even"),   # square-zero
            ("psi1", 1, "odd"),  # polynomial (odd parity)
            ("psi2", 1, "odd"),
            ("x2", 2, "even"),   # polynomial
            ("y3", 3, "even"),   # square-zero
            ("x4", 4, "even"),   # polynomial
        ]
    )


# the coefficients random_homogeneous draws in this module
SCALARS = integers(6)


def test_square_zero_classification(mixed):
    flags = {g.name: g.square_zero for g in mixed.generators}
    assert flags == {
        "e0": True,
        "psi1": False,
        "psi2": False,
        "x2": False,
        "y3": True,
        "x4": False,
    }


def test_product_examples(mixed):
    e0, p1, p2, x4 = (mixed.gen(n) for n in ("e0", "psi1", "psi2", "x4"))
    assert x4 * x4 == mixed.monomial(((5, 2),))
    assert (e0 * e0).is_zero()
    assert p1 * p2 == p2 * p1
    y3, x2 = mixed.gen("y3"), mixed.gen("x2")
    assert y3 * x2 == x2 * y3
    assert (y3 * y3).is_zero()
    assert not (p1 * p1).is_zero()


def test_graded_commutativity_randomized(mixed):
    rng = random.Random(11)
    for _ in range(300):
        d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
        for p1 in (0, 1):
            for p2 in (0, 1):
                b1 = mixed.monomial_basis(d1, p1)
                b2 = mixed.monomial_basis(d2, p2)
                if not b1 or not b2:
                    continue
                x = mixed.monomial(rng.choice(b1))
                y = mixed.monomial(rng.choice(b2))
                sign = -1 if (d1 * d2 + p1 * p2) % 2 else 1
                assert x * y == (y * x).scale(sign)


def test_associativity_randomized(mixed):
    rng = random.Random(12)
    for _ in range(150):
        a = random_homogeneous(rng, mixed, rng.randint(0, 4), scalar=SCALARS)
        b = random_homogeneous(rng, mixed, rng.randint(0, 4), scalar=SCALARS)
        c = random_homogeneous(rng, mixed, rng.randint(0, 4), scalar=SCALARS)
        assert (a * b) * c == a * (b * c)


def test_linear_structure(mixed):
    x4 = mixed.gen("x4")
    assert x4 + x4 == x4.scale(2)
    assert (x4 + x4.scale(-1)).is_zero()
    assert mixed.gen("psi1").scale(0).is_zero()


def test_mixed_algebra_operands_rejected(mixed):
    other = Algebra([("x4", 4, "even")])
    with pytest.raises(AlgebraError):
        mixed.gen("x4") + other.gen("x4")
    with pytest.raises(AlgebraError):
        mixed.gen("x4") * other.gen("x4")


def brute_force_basis(alg, degree, parity=None):
    """Independent enumeration over exponent vectors."""
    ranges = []
    for g in alg.generators:
        cap = 1 if g.square_zero else (degree // g.degree if g.degree else 0)
        ranges.append(range(cap + 1))
    found = []
    for exps in itertools.product(*ranges):
        d = sum(e * g.degree for e, g in zip(exps, alg.generators))
        p = sum(e * g.parity for e, g in zip(exps, alg.generators)) % 2
        if d == degree and (parity is None or p == parity):
            found.append(tuple((g.id, e) for g, e in zip(alg.generators, exps) if e))
    return sorted(found, key=alg.monomial_key)


def test_monomial_basis_sphere_examples():
    ls4 = Algebra([("x4", 4, "even"), ("x7", 7, "even")])
    assert ls4.monomial_basis(8) == [((0, 2),)]
    assert ls4.monomial_basis(11) == [((0, 1), (1, 1))]
    assert ls4.monomial_basis(1) == []
    assert ls4.monomial_basis(0) == [()]


@pytest.mark.parametrize(
    "gens",
    [
        [("x4", 4, "even"), ("x7", 7, "even")],
        [("x2", 2, "even"), ("x3", 3, "even")],
        [("xc2", 2, "even"), ("xt2", 2, "even"), ("y3", 3, "even")],
        [("e0", 1, "even"), ("psi1", 1, "odd"), ("x2", 2, "even"), ("y3", 3, "even")],
    ],
)
def test_monomial_basis_matches_brute_force(gens):
    alg = Algebra(gens)
    for degree in range(13):
        for parity in (None, 0, 1):
            assert alg.monomial_basis(degree, parity) == brute_force_basis(
                alg, degree, parity
            )


def test_monomial_basis_brute_force_on_model_library():
    from sullivan.tduality import LIBRARY, library_presentation

    for name in LIBRARY:
        alg = library_presentation(name).algebra
        for degree in range(13):
            mine = alg.monomial_basis(degree)
            assert mine == brute_force_basis(alg, degree), (name, degree)


def test_degree_zero_generator_rejected_in_basis():
    alg = Algebra([("c", 0, "even"), ("x2", 2, "even")])
    with pytest.raises(AlgebraError):
        alg.monomial_basis(2)


@pytest.mark.parametrize(
    "name, field, ok",
    [("y1", QQ, True), ("_a_9", QQ, True), ("y 1", QQ, False), ("y^2", QQ, False),
     ("9y", QQ, False), ("", QQ, False), ("i", QQ, True), ("i", QI, False), ("i1", QI, True)],
)
def test_generator_names_the_grammar_reads_back(name, field, ok):
    # the parser reads `i` over Q(i) as the imaginary unit, never as a generator
    if ok:
        assert Algebra([(name, 1, "odd")], field).generators[0].name == name
    else:
        with pytest.raises(AlgebraError, match="bad generator name"):
            Algebra([(name, 1, "odd")], field)


def homogeneous_parts(element):
    """Split into (degree, parity) -> homogeneous Element."""
    alg = element.algebra
    parts = {}
    for m, c in element.terms.items():
        key = (alg.monomial_degree(m), alg.monomial_parity(m))
        parts.setdefault(key, {})[m] = c
    return {k: Element(alg, v) for k, v in sorted(parts.items())}


def test_homogeneity_queries(mixed):
    x2, y3 = mixed.gen("x2"), mixed.gen("y3")
    assert (x2 * x2).bidegree() == (4, 0)
    assert not (x2 + y3).is_homogeneous()
    assert (x2 + y3).bidegree() is None
    # zero has no bidegree but counts as homogeneous
    assert mixed.zero().bidegree() is None
    assert mixed.zero().is_homogeneous()
    parts = homogeneous_parts(x2 + y3 + mixed.one())
    assert sorted(parts) == [(0, 0), (2, 0), (3, 0)]


def test_transport_respects_reordering_signs():
    a = Algebra([("u1", 1, "even"), ("v1", 1, "even")])
    b = Algebra([("v1", 1, "even"), ("u1", 1, "even")])
    uv = a.gen("u1") * a.gen("v1")
    moved = transport(uv, b)
    # u1*v1 = -v1*u1, and the target stores v1 first
    assert moved == (b.gen("v1") * b.gen("u1")).scale(-1)
    assert transport(moved, a) == uv


def test_canonicalization_idempotent(mixed):
    rng = random.Random(13)
    for _ in range(50):
        e = random_homogeneous(rng, mixed, rng.randint(0, 5), scalar=SCALARS)
        again = Element.from_terms(mixed, list(e.terms.items()))
        assert again == e


# every (degree mod 2, parity) class, square-zero and polynomial alike
ALL_CLASSES = [
    ("a1", 1, "even"),  # square-zero
    ("p1", 1, "odd"),  # polynomial
    ("b2", 2, "even"),  # polynomial
    ("r2", 2, "odd"),  # square-zero
    ("c3", 3, "even"),  # square-zero
    ("q3", 3, "odd"),  # polynomial
]


def test_relabel_through_permutations_is_multiplicative():
    # Element.__mul__ is the oracle: moving a product must equal the product
    # of the moved factors, whatever order the target stores generators in
    src = Algebra(ALL_CLASSES)
    rng = random.Random(17)
    for _ in range(20):
        order = list(ALL_CLASSES)
        rng.shuffle(order)
        tgt = Algebra(order)
        id_map = {g.id: tgt.generator(g.name).id for g in src.generators}
        for _ in range(10):
            x = random_homogeneous(rng, src, rng.randint(0, 4), scalar=SCALARS)
            y = random_homogeneous(rng, src, rng.randint(0, 4), scalar=SCALARS)
            moved = relabel(x * y, tgt, id_map)
            assert moved == relabel(x, tgt, id_map) * relabel(y, tgt, id_map)
            assert transport(x * y, tgt) == moved
            assert transport(moved, src) == x * y


def test_relabel_order_reversing_map_picks_up_koszul_sign():
    # a map that preserves generator order moves monomials as they are; one
    # that swaps two generators must still apply their Koszul sign
    src = Algebra([("a", 1, "even"), ("b", 1, "even"), ("p", 1, "odd"), ("q", 1, "odd")])
    tgt = Algebra([("q", 1, "odd"), ("p", 1, "odd"), ("b", 1, "even"), ("a", 1, "even")])
    id_map = {g.id: tgt.generator(g.name).id for g in src.generators}
    a, b, p, q = (src.gen(n) for n in "abpq")
    ta, tb, tp, tq = (tgt.gen(n) for n in "abpq")
    # a*b = -b*a: (-1)^(1*1 + 0*0)
    assert relabel(a * b, tgt, id_map).terms == {((2, 1), (3, 1)): Fraction(-1)}
    assert relabel(a * b, tgt, id_map) == ta * tb
    # p*q = q*p: (-1)^(1*1 + 1*1)
    assert relabel(p * q, tgt, id_map).terms == {((0, 1), (1, 1)): Fraction(1)}
    assert relabel(a * b * p, tgt, id_map) == ta * tb * tp
    # a -> b, b -> a, p -> q, q -> p: increasing on the ids of a*b only
    swap = {0: 2, 1: 3, 2: 0, 3: 1}
    assert relabel(a * b, tgt, swap).terms == {((2, 1), (3, 1)): Fraction(1)}
    assert relabel(a * b, tgt, swap) == tb * ta
    assert relabel(a * p, tgt, swap) == tb * tq


def _random_derivation(rng, alg, shift):
    """Random generator images of bidegree (degree + shift, same parity)."""
    images = {}
    for g in alg.generators:
        if g.degree + shift < 0:
            continue
        basis = alg.monomial_basis(g.degree + shift, g.parity)
        image = alg.zero()
        for _ in range(2):
            if basis:
                image = image + alg.monomial(rng.choice(basis), Fraction(rng.randint(-3, 3)))
        images[g.id] = image
    return images


@pytest.mark.parametrize("shift", [1, -1], ids=["differential", "loop-shift"])
def test_extend_derivation_satisfies_leibniz(shift):
    alg = Algebra(ALL_CLASSES)
    rng = random.Random(19 + shift)
    for _ in range(10):
        images = _random_derivation(rng, alg, shift)
        table = derivation_table(images)
        D = lambda e: extend_derivation(alg, table, e)  # noqa: E731
        for g in alg.generators:
            assert D(alg.gen(g.name)) == images.get(g.id, alg.zero())
        for _ in range(20):
            dx = rng.randint(0, 4)
            x = random_homogeneous(rng, alg, dx, scalar=SCALARS)
            y = random_homogeneous(rng, alg, rng.randint(0, 4), scalar=SCALARS)
            assert D(x * y) == D(x) * y + (x * D(y)).scale((-1) ** dx)


def _leibniz_by_factors(alg, images, element):
    """Brute-force oracle: each monomial written as a product of single
    generators, D applied to one factor at a time through Element.__mul__."""
    out = alg.zero()
    for mono, coeff in element.terms.items():
        factors = [alg.generators[gid] for gid, exp in mono for _ in range(exp)]
        gens = [alg.gen(g.name) for g in factors]
        product = alg.one()
        for x in gens:
            product = product * x
        assert product == alg.monomial(mono)
        for i, g in enumerate(factors):
            term = alg.one().scale((-1) ** sum(f.degree for f in factors[:i]) * coeff)
            for x in gens[:i]:
                term = term * x
            term = term * images.get(g.id, alg.zero())
            for x in gens[i + 1 :]:
                term = term * x
            out = out + term
    return out


def test_extend_derivation_matches_factorwise_leibniz():
    # high powers of self-commuting generators take the j mod 2 shortcut
    rng = random.Random(23)
    for _ in range(300):
        specs = [(rng.randint(1, 4), rng.choice(["even", "odd"])) for _ in range(rng.randint(1, 4))]
        alg = Algebra([(f"g{i}", degree, parity) for i, (degree, parity) in enumerate(specs)])
        images = _random_derivation(rng, alg, 1)
        for _ in range(2):
            x = alg.zero()
            for _ in range(2):
                term = alg.one().scale(Fraction(rng.randint(-3, 3)))
                for g in alg.generators:
                    top = 1 if g.square_zero else 7
                    term = term * alg.gen(g.name) ** rng.randint(0, top)
                x = x + term
            got = extend_derivation(alg, derivation_table(images), x)
            assert got == _leibniz_by_factors(alg, images, x)
