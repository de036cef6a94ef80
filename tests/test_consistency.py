"""Cross-route consistency checks: every load-bearing sign convention is
validated here against an independent reimplementation or oracle."""

import random
from fractions import Fraction

import sympy

from sullivan.algebra import Algebra, derivation_table, extend_derivation, mul_monomials
from sullivan.constructions import central_extension, loopify, strip_generator, y_free_part
from sullivan.dgca import Presentation, _d_image, cohomology
from sullivan.linalg import matrix_of
from sullivan.tduality import btfold, library_presentation
from sullivan.twisted import TwistedCochain, gauge_transform


MIXED_GENS = [
    ("a1", 1, "even"),
    ("p1", 1, "odd"),
    ("q1", 1, "odd"),
    ("b2", 2, "even"),
    ("r2", 2, "odd"),
    ("c3", 3, "even"),
    ("s3", 3, "odd"),
    ("d4", 4, "even"),
]


def expanded_product_sign(alg, m1, m2):
    """Oracle for the Koszul sign: expand both monomials into single factors,
    concatenate, and bubble-sort by generator id, counting each adjacent
    swap with its own sign.  Completely independent of the merge logic."""
    factors = []
    for gid, exp in m1:
        factors.extend([gid] * exp)
    for gid, exp in m2:
        factors.extend([gid] * exp)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            g, h = factors[i], factors[i + 1]
            if g > h:
                gg, hh = alg.generators[g], alg.generators[h]
                if (gg.degree * hh.degree + gg.parity * hh.parity) % 2:
                    sign = -sign
                factors[i], factors[i + 1] = h, g
                changed = True
    # collapse exponents, killing repeated square-zero factors
    mono = []
    for gid in factors:
        if mono and mono[-1][0] == gid:
            if alg.generators[gid].square_zero:
                return 0, None
            mono[-1] = (gid, mono[-1][1] + 1)
        else:
            mono.append((gid, 1))
    return sign, tuple(mono)


def test_koszul_merge_matches_bubble_sort_oracle():
    alg = Algebra(MIXED_GENS)
    rng = random.Random(101)
    for _ in range(500):
        monos = []
        for _ in range(2):
            d = rng.randint(0, 7)
            basis = alg.monomial_basis(d)
            monos.append(rng.choice(basis) if basis else ())
        m1, m2 = monos
        assert mul_monomials(alg, m1, m2) == expanded_product_sign(alg, m1, m2)


def test_apply_d_handles_repeated_odd_degree_factors():
    # p has odd Z-degree but odd parity too, so p^2 is legal; the Leibniz
    # signs across the two copies must alternate
    pres = Presentation.build(
        [("p1", 1, "odd"), ("r2", 2, "odd")], {"p1": "r2"}
    )
    alg = pres.algebra
    p = alg.gen("p1")
    # d(p^2) = (dp) p - p (dp) = r2*p - p*r2 = 2 r2 p  (p r2 = -r2 p)
    expected = (alg.gen("r2") * p).scale(2)
    assert pres.apply_d(p * p) == expected
    # and d(p^3) = 3 r2 p^2 by the same reasoning
    assert pres.apply_d(p * p * p) == (alg.gen("r2") * p * p).scale(3)


def test_strip_plus_free_part_reconstructs():
    bt = btfold()
    ext = central_extension(bt, bt.algebra.gen("xc2"), name="yc1")
    # yc1 is square-zero of even parity, r2 square-zero of odd parity
    for alg, name in ((ext.total.algebra, "yc1"), (Algebra(MIXED_GENS), "r2")):
        y = alg.gen(name)
        gen = alg.generator(name)
        rng = random.Random(102)
        for _ in range(200):
            e = alg.zero()
            for _ in range(4):
                basis = alg.monomial_basis(rng.randint(0, 8))
                if basis:
                    e = e + alg.monomial(rng.choice(basis), Fraction(rng.randint(-5, 5)))
            assert y_free_part(e, gen) + y * strip_generator(e, gen) == e, name


def test_shift_anticommutes_with_d_globally():
    # d(s x) = -s(d x) is imposed on generators only; it then holds on all
    # elements because both sides extend the same way. Checked on products.
    for name in ("lS4", "lS2", "b2u1"):
        base = library_presentation(name)
        loop = loopify(base)
        lp = loop.presentation
        alg = lp.algebra
        shift = derivation_table(
            {alg.generator(g).id: alg.gen(s) for g, s in loop.shift_names.items()}
        )
        rng = random.Random(103)
        base_gen_names = [g.name for g in base.algebra.generators]
        for _ in range(100):
            # random element of the embedded base algebra
            e = alg.zero()
            for _ in range(3):
                d = rng.randint(0, 8)
                basis = [
                    m
                    for m in alg.monomial_basis(d)
                    if all(alg.generators[g].name in base_gen_names for g, _ in m)
                ]
                if basis:
                    e = e + alg.monomial(rng.choice(basis), Fraction(rng.randint(-4, 4)))
            lhs = lp.apply_d(extend_derivation(alg, shift, e))
            rhs = -extend_derivation(alg, shift, lp.apply_d(e))
            assert lhs == rhs, name


def test_gauge_transform_second_order_term():
    # two square-zero pairs: b = y1*y2 + z1*z2 has b^2 = 2 y1 y2 z1 z2 != 0
    # and b^3 = 0, exercising the divided power b^2/2!
    pres = Presentation.build(
        [("y1", 1, "even"), ("y2", 1, "even"), ("z1", 1, "even"), ("z2", 1, "even")],
        {},
    )
    alg = pres.algebra
    b = alg.gen("y1") * alg.gen("y2") + alg.gen("z1") * alg.gen("z2")
    bb = b * b
    assert not bb.is_zero() and (b * b * b).is_zero()
    one = TwistedCochain(pres, 0, {0: alg.one()})
    g = gauge_transform(b, one)
    assert g.component(0) == alg.one()
    assert g.component(-1) == b
    assert g.component(-2) == bb.scale(Fraction(1, 2))
    assert g.component(-3).is_zero()


def _sympy_cohomology_dims(pres, max_degree):
    """Independent ranks: same differential matrices, sympy elimination."""
    alg = pres.algebra
    bases = [alg.monomial_basis(d) for d in range(max_degree + 2)]
    dims = []
    prev_rank = 0
    for d in range(max_degree + 1):
        rows = matrix_of(_d_image(pres), bases[d], bases[d + 1])
        m = sympy.Matrix(
            len(bases[d + 1]), len(bases[d]), lambda i, j: sympy.Rational(rows[i].get(j, 0))
        )
        r = m.rank()
        dims.append(len(bases[d]) - r - prev_rank)
        prev_rank = r
    return dims


def test_cohomology_dims_match_sympy_oracle():
    for name in ("btfold", "cyc_b2u1", "lS6", "contractible"):
        pres = library_presentation(name)
        assert cohomology(pres, 8).dims == _sympy_cohomology_dims(pres, 8), name


def test_cohomology_representatives_closed_and_nonexact():
    pres = library_presentation("cyc_lS4")
    rep = cohomology(pres, 8)
    for d, reps in enumerate(rep.representatives):
        assert len(reps) == rep.dims[d]
        for r in reps:
            assert pres.is_cocycle(r)
    # a representative reduced against the image must stay nonzero
    from sullivan.linalg import reduce_against, row_reduce

    alg = pres.algebra
    for d in range(1, 9):
        if not rep.dims[d]:
            continue
        basis = alg.monomial_basis(d)
        index = {m: i for i, m in enumerate(basis)}
        prev = alg.monomial_basis(d - 1)
        cols = [
            {index[m]: c for m, c in pres.apply_d(alg.monomial(mono)).terms.items()}
            for mono in prev
        ]
        red, pivots = row_reduce(cols, alg.field, len(basis))
        for r in rep.representatives[d]:
            v = {index[m]: c for m, c in r.terms.items()}
            assert reduce_against(v, red, pivots)  # a nonzero sparse row
