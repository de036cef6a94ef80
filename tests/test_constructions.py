"""Central extensions, fiber integration, loops, cyclification, adjunction."""

import random
import warnings
from fractions import Fraction

import pytest

from sullivan.algebra import Algebra, AlgebraError
from sullivan.constructions import (
    CentralExtension,
    ConstructionError,
    adjunction_transpose,
    adjunction_transpose_inverse,
    central_extension,
    cocycle_as_morphism,
    cyclify,
    extension_fiber_product,
    fiber_integration,
    fiber_integration_via_cyclification,
    loopify,
    shifted_complex_d,
    strip_generator,
)
from sullivan.dgca import Morphism, MorphismError, Presentation, closed_basis
from sullivan.fields import QI, QQ
from sullivan.tduality import btfold, btfold_quintuple, library_extensions, sphere_model

import oracles
from samples import random_element, random_homogeneous


@pytest.fixture
def p1_setup():
    bt = btfold()
    ext = central_extension(bt, bt.algebra.gen("xc2"), name="yc1")
    return bt, ext


def test_central_extension_p1(p1_setup):
    bt, ext = p1_setup
    total = ext.total
    assert [g.name for g in total.algebra.generators] == ["xc2", "xt2", "y3", "yc1"]
    assert total.d_of_generator("yc1") == total.parse("xc2")
    oracles.assert_d_squared_zero(total)
    gen = total.algebra.generator("yc1")
    assert gen.degree == 1 and gen.parity == 0 and gen.square_zero


def test_central_extension_zero_cocycle():
    bt = btfold()
    ext = central_extension(bt, bt.algebra.zero(), degree=4, name="free3")
    assert ext.total.d_of_generator("free3").is_zero()
    assert ext.total.algebra.generator("free3").degree == 3


def test_central_extension_rejects_non_closed():
    bt = btfold()
    with pytest.raises(ConstructionError) as err:
        central_extension(bt, bt.algebra.gen("y3") + bt.algebra.zero(), name="z")
    assert "not closed" in str(err.value)
    assert "xc2*xt2" in str(err.value)


def test_name_collision_rejected(p1_setup):
    bt, _ = p1_setup
    with pytest.raises(ConstructionError):
        central_extension(bt, bt.algebra.gen("xc2"), name="y3")


@pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Qi"])
def test_extension_name_must_read_back(field):
    # a name the grammar cannot read back would dump a file that does not load
    bt = btfold(field)
    with pytest.raises(AlgebraError, match="bad generator name 'y 1'"):
        central_extension(bt, bt.algebra.gen("xc2"), name="y 1")
    if field is QI:
        with pytest.raises(AlgebraError, match="bad generator name 'i'"):
            central_extension(bt, bt.algebra.gen("xc2"), name="i")
    else:
        assert central_extension(bt, bt.algebra.gen("xc2"), name="i").new_gen.name == "i"


def test_fiber_integration_examples(p1_setup):
    bt, ext = p1_setup
    total = ext.total
    assert fiber_integration(ext, total.parse("xc2")).is_zero()
    assert fiber_integration(ext, total.parse("yc1*xt2")) == bt.parse("xt2")
    # generic a + y*b |-> b
    a = total.parse("xc2*xt2")
    b = total.parse("y3")
    omega = a + total.algebra.gen("yc1") * b
    assert fiber_integration(ext, omega) == bt.parse("y3")


def test_fiber_integration_polynomial_type_rejected():
    # an extension by a 3-cocycle adjoins a degree-2 (polynomial) generator,
    # for which the a + y*b decomposition is not unique
    ls3 = sphere_model(3)
    ext = central_extension(ls3, ls3.algebra.gen("x3"), name="q2")
    assert not ext.total.algebra.generator("q2").square_zero
    with pytest.raises(ConstructionError):
        fiber_integration(ext, ext.total.algebra.gen("q2"))


def test_shifted_complex_d():
    ls4 = sphere_model(4)
    a = ls4.algebra
    assert shifted_complex_d(ls4, a.gen("x4")).is_zero()
    assert shifted_complex_d(ls4, a.gen("x7")) == (a.gen("x4") ** 2).scale(-1)
    bt = btfold()
    assert shifted_complex_d(bt, bt.algebra.gen("y3")) == bt.parse("xc2*xt2").scale(-1)


def test_chain_map_and_projection_formula_randomized():
    rng = random.Random(41)
    for name, ext in library_extensions().items():
        total, base = ext.total, ext.base
        for _ in range(60):
            omega = random_homogeneous(rng, total.algebra, rng.randint(0, 8))
            lhs = shifted_complex_d(base, fiber_integration(ext, omega))
            rhs = fiber_integration(ext, total.apply_d(omega))
            assert lhs == rhs, name
            a_deg = rng.randint(0, 6)
            a = random_homogeneous(rng, base.algebra, a_deg)
            lifted = ext.inclusion.apply(a)
            lhs2 = fiber_integration(ext, lifted * omega)
            rhs2 = (a * fiber_integration(ext, omega)).scale(-1 if a_deg % 2 else 1)
            assert lhs2 == rhs2, name


def test_loopify_ls4():
    loop = loopify(sphere_model(4))
    lp = loop.presentation
    degs = {g.name: g.degree for g in lp.algebra.generators}
    assert degs == {"x4": 4, "x7": 7, "sx4": 3, "sx7": 6}
    assert lp.d_of_generator("sx4").is_zero()
    assert lp.d_of_generator("sx7") == lp.parse("-2*x4*sx4")
    oracles.assert_d_squared_zero(lp)


def test_loopify_zero_algebra_and_line():
    zero = Presentation(Algebra([]), {})
    assert loopify(zero).presentation.algebra.generators == ()
    line = loopify(sphere_model(3))
    degs = {g.name: g.degree for g in line.presentation.algebra.generators}
    assert degs == {"x3": 3, "sx3": 2}
    assert line.presentation.d_of_generator("x3").is_zero()
    assert line.presentation.d_of_generator("sx3").is_zero()


def test_loopify_degree_one_rejected():
    with pytest.raises(ConstructionError):
        loopify(btfold_with_degree_one())


def btfold_with_degree_one():
    bt = btfold()
    return central_extension(bt, bt.algebra.gen("xc2"), name="yc1").total


def test_cyclify_b2u1():
    cyc = cyclify(sphere_model(3))  # R[x3], d = 0
    cp = cyc.presentation
    degs = {g.name: g.degree for g in cp.algebra.generators}
    assert degs == {"x3": 3, "sx3": 2, "w2": 2}
    assert cp.d_of_generator("x3") == cp.parse("sx3*w2")
    assert cp.d_of_generator("sx3").is_zero()
    assert cp.d_of_generator("w2").is_zero()
    assert cyc.cocycle == cp.algebra.gen("w2")


def test_cyclify_ls4_matches_known_presentation():
    cyc = cyclify(sphere_model(4))
    cp = cyc.presentation
    assert cp.d_of_generator("w2").is_zero()
    assert cp.d_of_generator("sx4").is_zero()
    assert cp.d_of_generator("x4") == cp.parse("sx4*w2")
    assert cp.d_of_generator("sx7") == cp.parse("-2*x4*sx4")
    assert cp.d_of_generator("x7") == cp.parse("x4^2 + sx7*w2")
    oracles.assert_d_squared_zero(cp)


def test_cyclify_zero_algebra():
    zero = Presentation(Algebra([]), {})
    cyc = cyclify(zero)
    assert [g.name for g in cyc.presentation.algebra.generators] == ["w2"]
    assert cyc.presentation.d_of_generator("w2").is_zero()


def test_cyclify_super_flagged_experimental():
    pres = Presentation.build([("psi2", 2, "odd")], {})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cyclify(pres)
    assert any("experimental" in str(w.message) for w in caught)


def test_adjunction_transpose_tfold_data(p1_setup):
    bt, ext = p1_setup
    total = ext.total
    a31 = total.parse("y3 - yc1*xt2")
    phi = cocycle_as_morphism(total, a31)
    cyc = cyclify(phi.source)
    psi = adjunction_transpose(ext, cyc, phi)
    images = {k: str(v) for k, v in psi.images.items()}
    assert images == {"x3": "y3", "sx3": "xt2", "w2": "xc2"}
    # reverse direction recovers a31
    back = adjunction_transpose_inverse(ext, cyc, psi)
    assert back.image_of("x3") == a31


def test_adjunction_transpose_refuses_another_cyclification(p1_setup):
    bt, ext = p1_setup
    phi = cocycle_as_morphism(ext.total, ext.total.parse("y3 - yc1*xt2"))
    # the cyclification of an equal but separately built line is not phi's
    other = cocycle_as_morphism(ext.total, ext.total.parse("y3 - yc1*xt2"))
    with pytest.raises(ConstructionError, match="base of the given cyclification"):
        adjunction_transpose(ext, cyclify(other.source), phi)


def test_adjunction_zero_morphism(p1_setup):
    bt, ext = p1_setup
    phi = cocycle_as_morphism(ext.total, ext.total.algebra.zero(), degree=3)
    psi = adjunction_transpose(ext, cyclify(phi.source), phi)
    assert psi.image_of("x3").is_zero()
    assert psi.image_of("sx3").is_zero()
    assert psi.image_of("w2") == ext.cocycle


def test_adjunction_round_trip_randomized():
    rng = random.Random(42)
    exts = list(library_extensions().values())
    count = 0
    while count < 30:
        ext = exts[count % len(exts)]
        degree = rng.randint(2, 6)
        basis = closed_basis(ext.total, degree)
        if not basis:
            count += 1
            continue
        weights = [Fraction(rng.randint(-3, 3)) for _ in basis]
        cocycle = ext.total.algebra.zero()
        for w, e in zip(weights, basis):
            cocycle = cocycle + e.scale(w)
        phi = cocycle_as_morphism(ext.total, cocycle, degree=degree)
        cyc = cyclify(phi.source)
        psi = adjunction_transpose(ext, cyc, phi)
        back = adjunction_transpose_inverse(ext, cyc, psi)
        assert back.image_of(f"x{degree}") == cocycle
        again = adjunction_transpose(ext, cyc, back)
        assert again.source is psi.source
        assert again.images == psi.images
        count += 1


def test_cocycle_as_morphism_is_checked_by_verify(p1_setup):
    bt, ext = p1_setup
    total = ext.total
    with pytest.raises(MorphismError, match="fails at x3: does not commute with d"):
        cocycle_as_morphism(total, total.parse("y3"))
    odd = Presentation.build([("p2", 2, "odd")])
    with pytest.raises(MorphismError, match="fails at x2: image has wrong bidegree"):
        cocycle_as_morphism(odd, odd.parse("p2"))
    with pytest.raises(MorphismError, match="fails at x4: image has wrong bidegree"):
        cocycle_as_morphism(total, total.parse("xc2"), degree=4)
    with pytest.raises(ConstructionError, match="degree required"):
        cocycle_as_morphism(total, total.algebra.zero())


def test_fiber_integration_via_cyclification_examples(p1_setup):
    bt, ext = p1_setup
    total = ext.total
    a31 = total.parse("y3 - yc1*xt2")
    phi = cocycle_as_morphism(total, a31)
    via = fiber_integration_via_cyclification(ext, phi)
    (xg,) = via.source.algebra.generators
    assert via.image_of(xg.name) == fiber_integration(ext, a31) == bt.parse("-xt2")

    # y-free cocycle -> 0
    phi0 = cocycle_as_morphism(total, total.parse("xc2"))
    via0 = fiber_integration_via_cyclification(ext, phi0)
    (xg0,) = via0.source.algebra.generators
    assert via0.image_of(xg0.name).is_zero()

    # y1 * c -> c is the definition of the plain fiber integration; on a free
    # algebra y1 * c is closed only for c = 0, so the via-cyclification route
    # can only see this identity through the direct map
    for text in ("xt2", "xc2*xt2", "y3"):
        c = total.parse(text)
        assert fiber_integration(ext, total.algebra.gen("yc1") * c) == bt.parse(text)


def test_extension_fiber_product_structure():
    bt = btfold()
    fp = extension_fiber_product(bt, bt.algebra.gen("xc2"), bt.algebra.gen("xt2"),
                                 names=("yc1", "yt1"))
    total = fp.total
    assert [g.name for g in total.algebra.generators] == ["xc2", "xt2", "y3", "yc1", "yt1"]
    assert total.d_of_generator("yc1") == total.parse("xc2")
    assert total.d_of_generator("yt1") == total.parse("xt2")
    oracles.assert_d_squared_zero(total)
    # restricting to either generator recovers the single extensions
    assert fp.ext1.total.d_of_generator("yc1") == fp.ext1.total.parse("xc2")
    assert fp.ext2.total.d_of_generator("yt1") == fp.ext2.total.parse("xt2")
    fp.incl1.ensure_verified()
    fp.incl2.ensure_verified()


def test_strip_generator_signs(p1_setup):
    bt, ext = p1_setup
    total = ext.total
    y = total.algebra.generator("yc1")
    # y3 * yc1 = -yc1 * y3, so stripping gives -y3
    omega = total.parse("y3*yc1")
    assert strip_generator(omega, y) == total.parse("-y3")
    assert strip_generator(total.parse("yc1*y3"), y) == total.parse("y3")


def test_restrict_inverts_every_library_inclusion_and_fm_leg():
    q = btfold_quintuple().quintuple
    maps = {name: ext.inclusion for name, ext in library_extensions().items()}
    maps.update({"tfold leg 1": q.incl1, "tfold leg 2": q.incl2})
    rng = random.Random("restrict")
    for name, incl in maps.items():
        for _ in range(40):
            x = random_element(rng, incl.source.algebra)
            assert incl.restrict(incl.apply(x)) == x, (name, str(x))


def test_fiber_integration_matches_by_name_oracle():
    rng = random.Random("fiber integration")
    for name, ext in library_extensions().items():
        y = ext.total.algebra.gen(ext.new_gen.name)
        for _ in range(40):
            omega = random_element(rng, ext.total.algebra)
            omega = omega + y * random_element(rng, ext.total.algebra)
            expected = oracles.fiber_integration(ext, omega)
            assert fiber_integration(ext, omega) == expected, (name, str(omega))


def _recorded(monkeypatch, cls, attr):
    """The objects on which cls.attr is called from now on, in call order."""
    calls = []
    original = getattr(cls, attr)

    def recorded(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, attr, recorded)
    return calls


def test_cyclify_builds_one_presentation(monkeypatch):
    pres = sphere_model(4)
    built = _recorded(monkeypatch, Presentation, "__init__")
    cyc = cyclify(pres)
    assert built == [cyc.presentation]


def test_extension_fiber_product_reuses_the_inclusion_of_its_total(monkeypatch):
    bt = btfold()
    extensions = _recorded(monkeypatch, CentralExtension, "__init__")
    morphisms = _recorded(monkeypatch, Morphism, "__init__")
    fp = extension_fiber_product(bt, bt.algebra.gen("xc2"), bt.algebra.gen("xt2"),
                                 names=("yc1", "yt1"))
    first, second, total = extensions
    assert (first, second) == (fp.ext1, fp.ext2) and total.total is fp.total
    # each leg's inclusion, the total's inclusion of the first leg, and pi2*
    assert morphisms == [first.inclusion, second.inclusion, total.inclusion, fp.incl2]
    assert fp.incl1 is total.inclusion


def test_adjunction_round_trip_builds_and_verifies_each_morphism_once(monkeypatch, p1_setup):
    bt, ext = p1_setup
    phi = cocycle_as_morphism(ext.total, ext.total.parse("y3 - yc1*xt2"))
    verified = _recorded(monkeypatch, Morphism, "verify")
    built = _recorded(monkeypatch, Morphism, "__init__")
    presentations = _recorded(monkeypatch, Presentation, "__init__")
    cyc = cyclify(phi.source)
    psi = adjunction_transpose(ext, cyc, phi)
    back = adjunction_transpose_inverse(ext, cyc, psi)
    again = adjunction_transpose(ext, cyc, back)
    assert built == [psi, back, again]
    # phi was verified when cocycle_as_morphism built it
    assert verified == [psi, back, again]
    # the caller's cyclification is the only presentation the round trip builds
    assert presentations == [cyc.presentation]
    assert again.source is psi.source is cyc.presentation
