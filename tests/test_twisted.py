"""Twisted differentials, gauge transforms, Fourier-Mukai machinery."""

import random
from fractions import Fraction

import pytest

from sullivan import twisted
from sullivan.constructions import central_extension, extension_fiber_product
from sullivan.dgca import Morphism, MorphismError, Presentation, inclusion
from sullivan.tduality import btfold, btfold_quintuple, library_presentation, sphere_model
from sullivan.twisted import (
    FMQuintuple,
    TwistError,
    TwistSpec,
    TwistedCochain,
    beck_chevalley_check,
    compose_fm,
    fm_inverse,
    fm_transform,
    gauge_transform,
    twisted_cohomology,
    twisted_d,
    twisted_d_raw,
)

from oracles import truncated_twisted_cohomology
from samples import random_cochain


@pytest.fixture(scope="module")
def tfold_q():
    return btfold_quintuple().quintuple


def test_cochain_validation():
    bt = btfold()
    with pytest.raises(TwistError):
        TwistedCochain(bt, 2, {0: bt.algebra.gen("y3")})  # wrong degree
    with pytest.raises(TwistError):
        TwistedCochain(bt, 3, {0: bt.algebra.gen("y3") + bt.algebra.gen("xc2")})
    c = TwistedCochain(bt, 2, {0: bt.algebra.gen("xc2"), 1: bt.algebra.zero()})
    assert c.powers() == [0]


def test_zero_cochain_adds_and_subtracts_in_either_order():
    # a zero cochain has no degree: whichever side it is on, the result
    # takes the degree of the other operand
    bt = btfold()
    w = TwistedCochain(bt, 2, {0: bt.algebra.gen("xc2"), 1: bt.algebra.one()})
    zero = TwistedCochain(bt, 0, {})
    for result, expected in ((zero + w, w), (w + zero, w), (zero - w, -w), (w - zero, w)):
        assert result == expected and result.degree == 2


def test_twist_spec_requires_closed_degree_three():
    bt = btfold()
    with pytest.raises(TwistError):
        TwistSpec(bt, bt.algebra.gen("xc2"))
    with pytest.raises(TwistError):
        TwistSpec(bt, bt.algebra.gen("y3"))  # not closed
    p1 = central_extension(bt, bt.algebra.gen("xc2"), name="yc1").total
    TwistSpec(p1, p1.parse("y3 - yc1*xt2"))  # valid


def test_twisted_d_zero_twist_is_componentwise_d():
    ls4 = sphere_model(4)
    t = TwistSpec(ls4, ls4.algebra.zero())
    w = TwistedCochain(ls4, 7, {0: ls4.algebra.gen("x7")})
    dw = twisted_d(t, w)
    assert dw.components == {0: ls4.algebra.gen("x4") ** 2}


def test_twisted_d_on_unit(tfold_q):
    s1 = tfold_q.side1
    t = tfold_q.twist1()
    one = TwistedCochain(s1, 0, {0: s1.algebra.one()})
    dw = twisted_d(t, one)
    assert dw.components == {-1: t.a}


def test_twisted_d_squares_to_zero(tfold_q):
    rng = random.Random(51)
    t = tfold_q.twist1()
    for _ in range(40):
        w = random_cochain(rng, tfold_q.side1, rng.randint(0, 6))
        assert twisted_d(t, twisted_d(t, w)).is_zero()


def test_twisted_d_square_measures_da():
    bt = btfold()
    a = bt.algebra.gen("y3")  # NOT closed: d y3 = xc2*xt2
    rng = random.Random(52)
    for _ in range(40):
        w = random_cochain(rng, bt, rng.randint(0, 6))
        lhs = twisted_d_raw(bt, a, twisted_d_raw(bt, a, w))
        da = bt.apply_d(a)
        expected = TwistedCochain(
            bt, w.degree + 2, {m - 1: da * e for m, e in w.components.items() if da * e}
        )
        assert lhs == expected


def test_gauge_transform_nilpotent_kernel(tfold_q):
    total = tfold_q.total
    b = total.parse("yc1*yt1")
    one = TwistedCochain(total, 0, {0: total.algebra.one()})
    g = gauge_transform(b, one)
    assert g.components == {-1: b, 0: total.algebra.one()}


def test_gauge_transform_zero_is_identity(tfold_q):
    rng = random.Random(53)
    total = tfold_q.total
    zero = total.algebra.zero()
    for _ in range(10):
        w = random_cochain(rng, total, rng.randint(0, 5))
        assert gauge_transform(zero, w) == w


def test_gauge_transform_non_nilpotent_rejected():
    bt = btfold()
    w = TwistedCochain(bt, 0, {0: bt.algebra.one()})
    with pytest.raises(TwistError):
        gauge_transform(bt.algebra.gen("xc2"), w)


def test_gauge_transform_builds_one_cochain(monkeypatch, tfold_q):
    total = tfold_q.total
    A = total.algebra
    b = total.parse("yc1*yt1")
    w = TwistedCochain(total, 2, {0: A.gen("xc2"), 1: A.one()})
    built = []
    init = TwistedCochain.__init__
    monkeypatch.setattr(
        TwistedCochain, "__init__",
        lambda self, *args: built.append(self) or init(self, *args),
    )
    g = gauge_transform(b, w)
    # the terms of every power of b gather in one component dict
    assert built == [g]
    assert g.components == {1: A.one(), 0: A.gen("xc2") + b, -1: b * A.gen("xc2")}


def test_gauge_intertwines_twists(tfold_q):
    # e^{u^-1 b}: (twisted by a + db) -> (twisted by a) cochain map
    total = tfold_q.total
    a = total.parse("y3 - yc1*xt2")
    b = total.parse("yc1*yt1")
    a_shifted = a + total.apply_d(b)
    rng = random.Random(54)
    for _ in range(30):
        w = random_cochain(rng, total, rng.randint(0, 6))
        lhs = gauge_transform(b, twisted_d_raw(total, a_shifted, w))
        rhs = twisted_d_raw(total, a, gauge_transform(b, w))
        assert lhs == rhs


def test_fm_closed_form_examples(tfold_q):
    q = tfold_q
    s1 = q.side1
    one = TwistedCochain(s1, 0, {0: s1.algebra.one()})
    out = fm_transform(q, one)
    assert out.components == {-1: q.side2.algebra.gen("yt1")}
    w = TwistedCochain(s1, 1, {0: s1.algebra.gen("yc1")})
    out2 = fm_transform(q, w)
    assert out2.components == {0: q.side2.algebra.one()}


def test_fm_cocycle_preservation(tfold_q):
    # headline property: twisted cocycles map to twisted cocycles.  The
    # engine does not claim a chain-map sign, but the observed relation is
    # uniformly d_{a2} o Phi = -(Phi o d_{a1}), consistent with the target
    # complex carrying the shifted differential -d.
    q = tfold_q
    t1, t2 = q.twist1(), q.twist2()
    rng = random.Random(55)
    checked = 0
    while checked < 25:
        w = random_cochain(rng, q.side1, rng.randint(0, 6))
        dw = twisted_d(t1, w)
        if dw.is_zero():
            assert twisted_d(t2, fm_transform(q, w)).is_zero()
            checked += 1
            continue
        lhs = twisted_d(t2, fm_transform(q, w))
        rhs = fm_transform(q, dw)
        assert lhs == -rhs
        checked += 1


def test_fm_invertibility_randomized(tfold_q):
    q = tfold_q
    rng = random.Random(56)
    for _ in range(40):
        k = rng.randint(0, 6)
        w = random_cochain(rng, q.side1, k)
        assert fm_inverse(q, fm_transform(q, w)) == w
        w2 = random_cochain(rng, q.side2, k)
        assert fm_transform(q, fm_inverse(q, w2)) == w2


def test_compose_reversal_kernel(tfold_q):
    q = tfold_q
    comp = compose_fm(q, q.reversed())
    total = comp.total
    e11 = total.algebra.gen("yc1")
    e12 = total.algebra.gen("yc1_2")
    et = total.algebra.gen("yt1")
    assert comp.b == (e11 - e12) * et
    assert comp.fiber_degree_2 == 2


def test_compose_equals_sequential(tfold_q):
    q = tfold_q
    qr = q.reversed()
    comp = compose_fm(q, qr)
    rng = random.Random(57)
    for _ in range(15):
        k = rng.randint(0, 5)
        w = random_cochain(rng, q.side1, k)
        assert fm_transform(comp, w) == fm_transform(qr, fm_transform(q, w))
        assert fm_transform(comp, w) == w.u_times(-1)


def _rank_two_tfold(fiber1, fiber2):
    """The rank-2 T-fold: base x1, x2, xh1, xh2, y3 with d y3 = x1 xh1 + x2 xh2,
    circles e1, e2 over x1, x2 on side 1 and f1, f2 over xh1, xh2 on side 2,
    and b = e1 f1 + e2 f2; fiber1 and fiber2 name the integration orders."""
    base = [("x1", 2, "even"), ("x2", 2, "even"), ("xh1", 2, "even"), ("xh2", 2, "even"),
            ("y3", 3, "even")]
    es = [("e1", 1, "even"), ("e2", 1, "even")]
    fs = [("f1", 1, "even"), ("f2", 1, "even")]
    d = {"y3": "x1*xh1 + x2*xh2"}
    de = {"e1": "x1", "e2": "x2"}
    df = {"f1": "xh1", "f2": "xh2"}
    side1 = Presentation.build(base + es, {**d, **de})
    side2 = Presentation.build(base + fs, {**d, **df})
    total = Presentation.build(base + es + fs, {**d, **de, **df})
    return FMQuintuple(
        incl1=inclusion(side1, total),
        incl2=inclusion(side2, total),
        fiber1=[total.algebra.generator(n) for n in fiber1],
        fiber2=[total.algebra.generator(n) for n in fiber2],
        a1=side1.parse("y3 - e1*xh1 - e2*xh2"),
        a2=side2.parse("y3 - x1*f1 - x2*f2"),
        b=total.parse("e1*f1 + e2*f2"),
    )


def _rank_two_quintuples(tfold_q):
    """The composite of the T-fold with its reverse, then the rank-2 T-fold
    in its four fiber orders."""
    return [compose_fm(tfold_q, tfold_q.reversed())] + [
        _rank_two_tfold(f, e)
        for f in (("f1", "f2"), ("f2", "f1"))
        for e in (("e1", "e2"), ("e2", "e1"))
    ]


def test_fm_inverse_inverts_quintuples_of_rank_two(tfold_q):
    rng = random.Random(59)
    for q in _rank_two_quintuples(tfold_q):
        for _ in range(20):
            k = rng.randint(0, 5)
            w = random_cochain(rng, q.side1, k, window=6)
            assert fm_inverse(q, fm_transform(q, w)) == w, str(w)
            w2 = random_cochain(rng, q.side2, k, window=6)
            assert fm_transform(q, fm_inverse(q, w2)) == w2, str(w2)


def test_fm_inverse_takes_its_sign_once_per_quintuple(tfold_q, monkeypatch):
    # u^2 Phi_-b Phi_b is +-1 on the unit cochain; the sign is the relative
    # orientation of the two fiber orders
    signs = []
    for q in _rank_two_quintuples(tfold_q):
        one = TwistedCochain(q.side1, 0, {0: q.side1.algebra.one()})
        back = fm_transform(q.reversed(), fm_transform(q, one)).u_times(2)
        assert back in (one, -one)
        signs.append(1 if back == one else -1)
    assert signs == [1, -1, 1, 1, -1]
    # fm_inverse reads the sign with two transforms on its first call only
    calls = []
    transform = twisted.fm_transform
    monkeypatch.setattr(twisted, "fm_transform", lambda q, w: calls.append(q) or transform(q, w))
    counts = []
    for q in _rank_two_quintuples(tfold_q):
        one = TwistedCochain(q.side2, 0, {0: q.side2.algebra.one()})
        for _ in range(2):
            before = len(calls)
            fm_inverse(q, one)
            counts.append(len(calls) - before)
        assert q.inverse_sign == signs.pop(0)
    assert counts == [3, 1] * 5


def test_trivial_quintuple_is_fiber_integration():
    # b = 0 over a pair of extensions by the same cocycle: the transform is
    # pull back then integrate, with no gauge factor
    bt = btfold()
    fp = extension_fiber_product(bt, bt.algebra.gen("xc2"), bt.algebra.gen("xc2"),
                                 names=("ya", "yb"))
    q = FMQuintuple(
        incl1=fp.incl1,
        incl2=fp.incl2,
        fiber1=[fp.gen2],
        fiber2=[fp.gen1],
        a1=fp.ext1.total.algebra.zero(),
        a2=fp.ext2.total.algebra.zero(),
        b=fp.total.algebra.zero(),
    )
    rng = random.Random(58)
    from sullivan.constructions import fiber_integration

    for _ in range(15):
        k = rng.randint(0, 6)
        w = random_cochain(rng, q.side1, k)
        out = fm_transform(q, w)
        expected = TwistedCochain(
            q.side2,
            k - 1,
            {
                m: fp.ext2.inclusion.apply(fiber_integration(fp.ext1, e))
                for m, e in w.components.items()
                if not fiber_integration(fp.ext1, e).is_zero()
            },
        )
        assert out == expected


def test_beck_chevalley_examples_and_randomized():
    bt = btfold()
    fp = extension_fiber_product(bt, bt.algebra.gen("xc2"), bt.algebra.gen("xt2"),
                                 names=("yc1", "yt1"))
    e1t = fp.ext1.total
    alpha = e1t.parse("xc2*xt2")
    beta = e1t.parse("y3")
    omega = alpha + e1t.algebra.gen("yc1") * beta
    assert beck_chevalley_check(fp, omega)
    assert beck_chevalley_check(fp, alpha)  # y-free: both sides zero
    rng = random.Random(59)
    for _ in range(60):
        e = e1t.algebra.zero()
        for _ in range(4):
            basis = e1t.algebra.monomial_basis(rng.randint(0, 8))
            if basis:
                e = e + e1t.algebra.monomial(rng.choice(basis), Fraction(rng.randint(-4, 4)))
        assert beck_chevalley_check(fp, e)


def edge_dim(pres, window):
    """Truncated dimension at component degree == window, where the outgoing
    differential is dropped: dim C^window - rank(d from degree window-1)."""
    from sullivan.dgca import _d_image
    from sullivan.linalg import matrix_of, rank

    alg = pres.algebra
    basis_top = alg.monomial_basis(window, 0)
    basis_prev = alg.monomial_basis(window - 1, 0) if window >= 1 else []
    m = matrix_of(_d_image(pres), basis_prev, basis_top)
    return len(basis_top) - rank(m, alg.field, len(basis_prev))


def test_twisted_cohomology_zero_twist_matches_untwisted():
    # oracle: with a = 0 the truncated complex decomposes as a sum over
    # component degrees of the untwisted complex; only components of degree
    # exactly `window` lose their outgoing differential
    from sullivan.dgca import cohomology

    for name in ("lS4", "lS2", "btfold"):
        pres = library_presentation(name)
        window = 8
        t = TwistSpec(pres, pres.algebra.zero())
        untwisted = cohomology(pres, window)
        for parity in (0, 1):
            expected = 0
            for d in range(parity % 2, window + 1, 2):
                if d == window:
                    expected += edge_dim(pres, window)
                else:
                    # these library models are purely even, so the full H^d
                    # is its even-parity part
                    expected += untwisted.dims[d]
            got = twisted_cohomology(t, parity, window).dim
            assert got == expected, (name, parity, got, expected)


def test_twisted_cohomology_contractible():
    c = library_presentation("contractible")
    t = TwistSpec(c, c.algebra.zero())
    assert twisted_cohomology(t, 0, 6).dim == 1
    assert twisted_cohomology(t, 1, 6).dim == 0


def test_twisted_cohomology_gauge_invariance_spot(tfold_q):
    total = tfold_q.total
    a = total.parse("y3 - yc1*xt2")
    b = total.parse("yc1*yt1")
    a2 = a + total.apply_d(b)
    for parity in (0, 1):
        d1 = twisted_cohomology(TwistSpec(total, a), parity, 6).dim
        d2 = twisted_cohomology(TwistSpec(total, a2), parity, 6).dim
        assert d1 == d2


def random_closed_twist(rng, pres):
    """A random combination of the closed degree-(3, even) basis elements."""
    from sullivan.algebra import EVEN
    from sullivan.dgca import closed_basis

    a = pres.algebra.zero()
    for e in closed_basis(pres, 3):
        if e.bidegree() == (3, EVEN):
            a = a + e.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return a


# every library extension, the T-fold total, and cyc_lS4, whose classes mix
# u-powers, so that the sign of the a-part shows in the representatives
@pytest.mark.parametrize("name", ["bu1-by-x2", "lS2-by-x2", "p1", "p2", "tfold", "cyc_lS4"])
def test_twisted_cohomology_matches_truncated_oracle(name, tfold_q):
    from sullivan.tduality import library_extensions

    if name == "tfold":
        total = tfold_q.total
    elif name == "cyc_lS4":
        total = library_presentation(name)
    else:
        total = library_extensions()[name].total
    rng = random.Random(f"twisted oracle {name}")
    for window in range(9):
        twist = TwistSpec(total, random_closed_twist(rng, total))
        for parity in (0, 1):
            rep = twisted_cohomology(twist, parity, window)
            expected = truncated_twisted_cohomology(twist, parity, window)
            assert rep.dim == len(expected), (window, parity)
            assert [str(r) for r in rep.representatives] == [str(r) for r in expected]


def test_fm_transform_wrong_side_rejected(tfold_q):
    q = tfold_q
    w = TwistedCochain(q.side2, 0, {0: q.side2.algebra.one()})
    with pytest.raises(TwistError):
        fm_transform(q, w)


def test_compose_side_mismatch_rejected(tfold_q):
    q = tfold_q
    with pytest.raises(TwistError):
        compose_fm(q, q)  # q.side2 differs from q.side1


def test_quintuple_sides_are_the_inclusions_endpoints(tfold_q):
    q = tfold_q
    back = q.reversed()
    for p in (q, back, compose_fm(q, back), compose_fm(back, q)):
        assert p.total is p.incl1.target is p.incl2.target
        assert p.side1 is p.incl1.source and p.side2 is p.incl2.source
    assert (back.total, back.side1, back.side2) == (q.total, q.side2, q.side1)


def _rebuilt(q, **changes):
    """The quintuple q with some of its data replaced, built afresh."""
    data = dict(
        incl1=q.incl1, incl2=q.incl2, fiber1=q.fiber1, fiber2=q.fiber2, a1=q.a1, a2=q.a2, b=q.b
    )
    data.update(changes)
    return FMQuintuple(**data)


def test_bad_quintuples_rejected_at_construction():
    q = btfold_quintuple().quintuple
    _rebuilt(q)  # the unchanged data passes
    T = q.total.algebra

    # a valid morphism that does not send generators to generators
    S = q.side1.algebra
    doubled = Morphism(
        q.side1, q.total,
        {"xc2": T.gen("xc2").scale(2), "xt2": "xt2", "y3": T.gen("y3").scale(2),
         "yc1": T.gen("yc1").scale(2)},
    ).ensure_verified()
    assert doubled.generator_ids is None
    with pytest.raises(TwistError, match="single generators"):
        _rebuilt(q, incl1=doubled)
    with pytest.raises(MorphismError, match="only a generator map"):
        doubled.restrict(T.gen("xc2"))

    # fiber lists that miss a generator or overlap the image
    for fiber1 in ([], [*q.fiber1, T.generator("xc2")]):
        with pytest.raises(TwistError, match="split as side image plus fiber"):
            _rebuilt(q, fiber1=fiber1)

    # the sub-presentation on xt2, yt1 (d yt1 = xt2) leaves the polynomial
    # generator xc2 in the fiber
    small = Presentation.build([("xt2", 2, "even"), ("yt1", 1, "even")], {"yt1": "xt2"})
    small_incl = inclusion(small, q.total).ensure_verified()
    with pytest.raises(TwistError, match="square-zero"):
        _rebuilt(q, incl1=small_incl, a1=small.algebra.zero(),
                 fiber1=[T.generator(n) for n in ("xc2", "y3", "yc1")])

    # a generator map that does not commute with d: d yc1 = xc2 goes to xt2;
    # a failed check is not remembered, so every build refuses it
    swapped = Morphism(q.side1, q.total, {"xc2": "xt2", "xt2": "xc2", "y3": "y3", "yc1": "yc1"})
    for _ in range(2):
        with pytest.raises(MorphismError, match="does not commute with d"):
            _rebuilt(q, incl1=swapped)

    # an inclusion into an independent rebuild of the total
    other = btfold_quintuple().quintuple
    assert other.total is not q.total
    with pytest.raises(TwistError, match="share their target"):
        _rebuilt(q, incl2=other.incl2)

    with pytest.raises(TwistError, match="not closed"):
        _rebuilt(q, a1=S.gen("y3"))  # d y3 = xc2*xt2
    with pytest.raises(TwistError, match="kernel relation fails"):
        _rebuilt(q, b=q.b.scale(2))


def test_quintuple_checks_each_law_once(monkeypatch, tfold_q):
    q = tfold_q
    assert q.twist1() is q.twist1() and q.twist2() is q.twist2()
    assert (q.twist1().a, q.twist2().a) == (q.a1, q.a2)
    calls = []
    verify = Morphism.verify
    monkeypatch.setattr(Morphism, "verify", lambda self: calls.append(self) or verify(self))
    back = q.reversed()
    assert (back.twist1().a, back.twist2().a) == (q.a2, q.a1)
    # both inclusions passed when q was built, so reversing checks neither again
    assert calls == []
