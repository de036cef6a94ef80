"""Differentials, presentations, morphisms, exact cohomology."""

import random
from fractions import Fraction

import pytest

from sullivan.algebra import Algebra
from sullivan.dgca import (
    Morphism,
    MorphismError,
    Presentation,
    PresentationError,
    closed_basis,
    cohomology,
    identity_morphism,
    inclusion,
)
from sullivan.fields import QI, QQ
from sullivan.tduality import btfold, contractible, library_presentation, sphere_model

import oracles
from samples import gaussians, integers, random_element, random_homogeneous


@pytest.fixture
def ls4():
    return sphere_model(4)


def test_apply_d_examples(ls4):
    a = ls4.algebra
    assert ls4.apply_d(a.gen("x7")) == a.gen("x4") * a.gen("x4")
    assert ls4.apply_d(a.gen("x4") * a.gen("x7")) == a.gen("x4") ** 3
    bt = btfold()
    assert bt.apply_d(bt.algebra.gen("y3")) == bt.parse("xc2*xt2")


def test_degree_violating_differential_rejected():
    # parity violation
    with pytest.raises(PresentationError):
        Presentation.build(
            [("a1", 1, "even"), ("p2", 2, "odd")], {"a1": "p2"}
        )
    # degree violation
    with pytest.raises(PresentationError):
        Presentation.build(
            [("y3", 3, "even"), ("xc2", 2, "even")], {"y3": "xc2"}
        )
    # inhomogeneous differential
    with pytest.raises(PresentationError):
        Presentation.build(
            [("a3", 3, "even"), ("x2", 2, "even"), ("w4", 4, "even")],
            {"a3": "w4 + x2"},
        )


def test_verify_d_squared():
    # the constructor refuses d^2 != 0, naming the first generator at fault
    with pytest.raises(PresentationError) as err:
        Presentation.build(
            [("x1", 1, "even"), ("z2", 2, "even"), ("w3", 3, "even")],
            {"x1": "z2", "z2": "w3"},
        )
    assert err.value.generator.name == "x1"
    residual = err.value.residual
    assert residual == residual.algebra.gen("w3")
    assert str(err.value) == "d^2 != 0: d(d x1) = w3"


def _random_presentation_data(rng, field):
    """An algebra on 2-5 generators of degree 1-4 and either parity, and a
    d of the right bidegree on a random subset of them, with no regard for
    d^2 = 0."""
    gens = [
        (f"g{k}", rng.randint(1, 4), rng.choice(["even", "odd"])) for k in range(rng.randint(2, 5))
    ]
    alg = Algebra(gens, field)
    scalar = gaussians if field is QI else integers(3)
    images = {}
    for g in alg.generators:
        if rng.random() < 0.7:
            dg = random_homogeneous(rng, alg, g.degree + 1, rng.randint(1, 3), scalar, g.parity)
            if dg:
                images[g.id] = dg
    return alg, images


@pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Qi"])
def test_constructor_d_squared_matches_oracle(field):
    # the constructor refuses exactly the presentations on which the
    # Fraction-loop oracle finds a nonzero d(d g), and names the first such
    # g in generator order with the same residual
    rng = random.Random(f"d squared oracle {field.name}")
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        alg, images = _random_presentation_data(rng, field)
        first = None
        for gen in alg.generators:
            if gen.id in images:
                residual = oracles.extend_derivation(alg, images, images[gen.id])
                if residual:
                    first = (gen, residual)
                    break
        diffs = {alg.generators[gid].name: dg for gid, dg in images.items()}
        if first is None:
            assert Presentation(alg, diffs).differentials == images
        else:
            with pytest.raises(PresentationError) as err:
                Presentation(alg, diffs)
            assert err.value.generator is first[0]
            assert err.value.residual == first[1]
        outcomes[first is None] += 1
    # both outcomes are well represented
    assert min(outcomes.values()) >= 30, outcomes


def test_is_cocycle(ls4):
    a = ls4.algebra
    assert ls4.is_cocycle(a.gen("x4"))
    assert not ls4.is_cocycle(a.gen("x7"))
    with pytest.raises(PresentationError):
        ls4.is_cocycle(a.gen("x4") + a.gen("x7"))


def test_leibniz_randomized():
    pres = library_presentation("cyc_lS4")
    alg = pres.algebra
    rng = random.Random(31)
    for _ in range(200):
        d1, d2 = rng.randint(0, 6), rng.randint(0, 6)
        for p1 in (0, 1):
            b1 = alg.monomial_basis(d1, p1)
            b2 = alg.monomial_basis(d2)
            if not b1 or not b2:
                continue
            x = alg.monomial(rng.choice(b1), Fraction(rng.randint(-3, 3)))
            y = alg.monomial(rng.choice(b2), Fraction(rng.randint(-3, 3)))
            lhs = pres.apply_d(x * y)
            rhs = pres.apply_d(x) * y + (x * pres.apply_d(y)).scale(-1 if d1 % 2 else 1)
            assert lhs == rhs


def test_d_squared_randomized_on_library():
    rng = random.Random(32)
    for name in ("lS2", "lS4", "btfold", "cyc_b2u1", "cyc_lS4", "contractible"):
        pres = library_presentation(name)
        alg = pres.algebra
        for _ in range(40):
            d = rng.randint(0, 8)
            basis = alg.monomial_basis(d)
            if not basis:
                continue
            e = alg.monomial(rng.choice(basis), Fraction(rng.randint(-5, 5)))
            assert pres.apply_d(pres.apply_d(e)).is_zero()


def test_morphism_phi1_and_counterexample():
    from sullivan.tduality import phi1_isomorphism

    fwd, bwd = phi1_isomorphism()
    assert fwd.verify() is None
    assert bwd.verify() is None

    # corrupt the assignment: both degree-2 generators to xc2
    cyc = fwd.source
    bt = fwd.target
    images = dict(fwd.images)
    shift_name = [n for n in images if n not in ("x3",) and str(images[n]) == "xt2"][0]
    images[shift_name] = bt.algebra.gen("xc2")
    broken = Morphism(cyc, bt, images)
    bad = broken.verify()
    assert bad is not None and bad[0].name == "x3"


def test_verify_names_the_first_failing_generator():
    # x2 fails to commute with d and y4 has an image of the wrong bidegree:
    # one pass over the generators reports x2, the earlier of the two
    source = Presentation.build([("x2", 2, "even"), ("y4", 4, "even")])
    target = Presentation.build([("t2", 2, "even"), ("t3", 3, "even")], {"t2": "t3"})
    gen, reason, residual = Morphism(source, target, {"x2": "t2", "y4": "t3"}).verify()
    assert (gen.name, reason, str(residual)) == ("x2", "does not commute with d", "-t3")


def test_identity_morphism_verifies(ls4):
    assert identity_morphism(ls4).verify() is None


def test_ensure_verified_runs_verify_once_per_pass(monkeypatch, ls4):
    calls = []
    verify = Morphism.verify
    monkeypatch.setattr(Morphism, "verify", lambda self: calls.append(self) or verify(self))
    good = identity_morphism(ls4)
    assert good.ensure_verified() is good
    assert good.ensure_verified() is good
    assert calls == [good]
    # a failure is not remembered: every call checks again and raises
    wide = Presentation.build([("x2", 2, "even"), ("y4", 4, "even")])
    bad = Morphism(Presentation.build([("x2", 2, "even")]), wide, {"x2": "y4"})
    for _ in range(2):
        with pytest.raises(MorphismError, match="wrong bidegree"):
            bad.ensure_verified()
    assert calls == [good, bad, bad]


def test_morphism_naturality_randomized():
    from sullivan.tduality import phi1_isomorphism

    fwd, _ = phi1_isomorphism()
    rng = random.Random(33)
    alg = fwd.source.algebra
    for _ in range(100):
        d = rng.randint(0, 7)
        basis = alg.monomial_basis(d)
        if not basis:
            continue
        e = alg.monomial(rng.choice(basis), Fraction(rng.randint(-4, 4)))
        assert fwd.apply(fwd.source.apply_d(e)) == fwd.target.apply_d(fwd.apply(e))


def test_cohomology_ls4(ls4):
    rep = cohomology(ls4, 11)
    expected = [1, 0, 0, 0, 1] + [0] * 7
    assert rep.dims == expected
    assert str(rep.representatives[4][0]) == "x4"
    for d, reps in enumerate(rep.representatives):
        for r in reps:
            assert ls4.is_cocycle(r)


def test_cohomology_odd_line():
    ls1 = sphere_model(1)
    rep = cohomology(ls1, 1)
    assert rep.dims == [1, 1]


def test_cohomology_contractible():
    rep = cohomology(contractible(), 2)
    assert rep.dims == [1, 0, 0]
    rep6 = cohomology(contractible(), 6)
    assert rep6.dims == [1, 0, 0, 0, 0, 0, 0]


def test_cohomology_stable_under_reordering():
    p1 = Presentation.build(
        [("xc2", 2, "even"), ("xt2", 2, "even"), ("y3", 3, "even")],
        {"y3": "xc2*xt2"},
    )
    p2 = Presentation.build(
        [("y3", 3, "even"), ("xt2", 2, "even"), ("xc2", 2, "even")],
        {"y3": "xc2*xt2"},
    )
    assert cohomology(p1, 6).dims == cohomology(p2, 6).dims


def test_closed_basis_consistency(ls4):
    assert [str(e) for e in closed_basis(ls4, 4)] == ["x4"]
    assert closed_basis(ls4, 7) == []
    assert [str(e) for e in closed_basis(ls4, 8)] == ["x4^2"]


def test_representatives_independent_mod_exact():
    bt = btfold()
    rep = cohomology(bt, 3)
    assert rep.dims == [1, 0, 2, 0]
    r2 = rep.representatives[2]
    names = sorted(str(e) for e in r2)
    assert names == ["xc2", "xt2"]


def _product_of_images(morphism, element):
    """Oracle: each monomial as a product of generator images through
    Element.__mul__, one factor at a time."""
    target = morphism.target.algebra
    out = target.zero()
    for mono, coeff in element.terms.items():
        term = target.scalar(coeff)
        for gid, exp in mono:
            for _ in range(exp):
                term = term * morphism.image_of(morphism.source.algebra.generators[gid])
        out = out + term
    return out


@pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Qi"])
def test_generator_map_apply_matches_product_of_images(field):
    # the target lists the generators in another order, so relabelling has
    # to re-sort monomials and pick up Koszul signs
    rng = random.Random(41)
    signs_seen = False
    for _ in range(30):
        specs = [
            (f"g{i}", rng.randint(1, 3), rng.choice(["even", "odd"]))
            for i in range(rng.randint(2, 6))
        ]
        shuffled = list(specs)
        rng.shuffle(shuffled)
        source = Presentation.build(specs, field=field)
        target = Presentation.build(shuffled + [("extra", 2, "even")], field=field)
        m = inclusion(source, target)
        assert m.generator_ids == {
            g.id: target.algebra.generator(g.name).id for g in source.algebra.generators
        }
        for _ in range(10):
            e = random_element(rng, source.algebra)
            image = m.apply(e)
            assert image == _product_of_images(m, e)
            assert m.restrict(image) == e
            ids = m.generator_ids
            signs_seen |= any(
                image.terms.get(tuple(sorted((ids[g], x) for g, x in mono))) == -c
                for mono, c in e.terms.items()
            )
    assert signs_seen


def test_restrict_refuses_what_is_not_in_the_image():
    source = Presentation.build([("x2", 2, "even"), ("y3", 3, "even")], {"y3": "x2^2"})
    target = Presentation.build(
        [("x2", 2, "even"), ("z1", 1, "even"), ("y3", 3, "even")], {"y3": "x2^2"}
    )
    incl = inclusion(source, target).ensure_verified()
    assert incl.restrict(target.parse("x2*y3 - 3*x2^2")) == source.parse("x2*y3 - 3*x2^2")
    with pytest.raises(MorphismError, match="not in the map's image: contains z1"):
        incl.restrict(target.parse("x2 + z1*x2"))
    with pytest.raises(MorphismError, match="not over the target algebra"):
        incl.restrict(source.parse("x2"))


def test_non_generator_maps_keep_the_product_path():
    rng = random.Random(43)
    source = Presentation.build([("x2", 2, "even"), ("y3", 3, "even"), ("p1", 1, "odd")])
    target = Presentation.build([("p1", 1, "odd"), ("y3", 3, "even"), ("x2", 2, "even")])
    t = target.algebra
    scaled = Morphism(source, target, {"x2": t.gen("x2").scale(2), "y3": "y3", "p1": "p1"})
    assert scaled.generator_ids is None
    for _ in range(20):
        e = random_element(rng, source.algebra)
        assert scaled.apply(e) == _product_of_images(scaled, e)

    # a generator sent to a generator of another bidegree
    wide = Presentation.build([("x2", 2, "even"), ("y4", 4, "even")])
    wrong = Morphism(Presentation.build([("x2", 2, "even")]), wide, {"x2": "y4"})
    assert wrong.generator_ids is None
    assert wrong.verify()[1] == "image has wrong bidegree"
    x2 = wrong.source.algebra.gen("x2")
    assert wrong.apply(x2 ** 3) == wide.algebra.gen("y4") ** 3

    # two square-zero generators sent to one: the product vanishes
    pair = Presentation.build([("a1", 1, "even"), ("b1", 1, "even")])
    line = Presentation.build([("z1", 1, "even")])
    merged = Morphism(pair, line, {"a1": "z1", "b1": "z1"})
    assert merged.generator_ids is None
    a1, b1 = pair.algebra.gen("a1"), pair.algebra.gen("b1")
    assert merged.apply(a1 * b1).is_zero()
    assert merged.apply(a1 + b1) == line.algebra.gen("z1").scale(2)
