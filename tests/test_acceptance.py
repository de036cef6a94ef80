"""Acceptance suite: one test per criterion, exact assertions, timed budgets.

Every check is exact (tolerance zero); each test prints a single PASS line
with its runtime so the suite doubles as a verification report."""

import random
import time
from fractions import Fraction
from pathlib import Path

from sullivan.algebra import transport
from sullivan.constructions import (
    adjunction_transpose,
    adjunction_transpose_inverse,
    central_extension,
    cocycle_as_morphism,
    cyclify,
    fiber_integration,
    shifted_complex_d,
)
from sullivan.dgca import closed_basis, cohomology
from sullivan.fields import QI
from sullivan.linalg import rank
from sullivan.superminkowski import (
    build_superminkowski,
    hori_pipeline,
    mu_f1,
    verify_report,
)
from sullivan.tduality import (
    LIBRARY,
    btfold_quintuple,
    library_extensions,
    library_presentation,
    phi1_isomorphism,
    sphere_model,
)
from sullivan.twisted import (
    TwistedCochain,
    _twisted_basis,
    beck_chevalley_check,
    compose_fm,
    fm_inverse,
    fm_transform,
)

from samples import random_homogeneous

SEED = 20140901


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, detail=""):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            f"{self.name}: {elapsed:.2f}s exceeds the {self.seconds}s budget"
        )
        suffix = f"  [{detail}]" if detail else ""
        print(f"\n{self.name}: PASS ({elapsed:.2f}s < {self.seconds}s){suffix}")


def test_criterion_01_library_soundness():
    budget = Budget("criterion 1 (model-library soundness)", 1.0)
    for name in LIBRARY:
        pres = library_presentation(name)
        assert pres.verify_d_squared() is None, name
    budget.done(f"{len(LIBRARY)} presentations")


def test_criterion_02_sphere_cohomology():
    budget = Budget("criterion 2 (sphere cohomology)", 10.0)
    for n in range(2, 8):
        rep = cohomology(sphere_model(n), 3 * n)
        expected = [1 if d in (0, n) else 0 for d in range(3 * n + 1)]
        assert rep.dims == expected, (n, rep.dims)
    budget.done("n = 2..7, windows 3n")


def test_criterion_03_fiber_integration_laws():
    budget = Budget("criterion 3 (fiber-integration laws)", 10.0)
    rng = random.Random(SEED)
    exts = library_extensions()
    for name, ext in exts.items():
        total, base = ext.total, ext.base
        for _ in range(200):
            omega = random_homogeneous(rng, total.algebra, rng.randint(0, 8))
            # chain map: d[-1] (pi_* omega) = pi_*(d omega)
            assert shifted_complex_d(base, fiber_integration(ext, omega)) == (
                fiber_integration(ext, total.apply_d(omega))
            ), name
            # projection formula: pi_*((pi^* a) w) = (-1)^|a| a pi_* w
            a_deg = rng.randint(0, 6)
            a = random_homogeneous(rng, base.algebra, a_deg)
            lhs = fiber_integration(ext, ext.inclusion.apply(a) * omega)
            rhs = (a * fiber_integration(ext, omega)).scale(-1 if a_deg % 2 else 1)
            assert lhs == rhs, name
    budget.done(f"200 samples x {len(exts)} extensions, both laws")


def test_criterion_04_cyclification_fidelity():
    budget = Budget("criterion 4 (cyclification fidelity)", 1.0)
    cyc_b2 = cyclify(library_presentation("b2u1"))
    cp = cyc_b2.presentation
    assert [(g.name, g.degree) for g in cp.algebra.generators] == [
        ("x3", 3),
        ("sx3", 2),
        ("w2", 2),
    ]
    assert cp.d_of_generator("x3") == cp.parse("sx3*w2")
    assert cp.d_of_generator("sx3").is_zero()
    assert cp.d_of_generator("w2").is_zero()
    assert cp.verify_d_squared() is None

    cyc_s4 = cyclify(sphere_model(4))
    sp = cyc_s4.presentation
    assert [(g.name, g.degree) for g in sp.algebra.generators] == [
        ("x4", 4),
        ("x7", 7),
        ("sx4", 3),
        ("sx7", 6),
        ("w2", 2),
    ]
    assert sp.d_of_generator("x4") == sp.parse("sx4*w2")
    assert sp.d_of_generator("sx4").is_zero()
    assert sp.d_of_generator("sx7") == sp.parse("-2*x4*sx4")
    assert sp.d_of_generator("x7") == sp.parse("x4^2 + sx7*w2")
    assert sp.d_of_generator("w2").is_zero()
    assert sp.verify_d_squared() is None
    budget.done("cyc(b2u1) and cyc(lS4), generator for generator")


def test_criterion_05_adjunction_round_trip():
    budget = Budget("criterion 5 (adjunction round-trip)", 10.0)
    # the universal instance: a_{3,1} <-> the T-fold isomorphism
    bt = library_presentation("btfold")
    ext = central_extension(bt, bt.algebra.gen("xc2"), name="yc1")
    a31 = ext.total.parse("y3 - yc1*xt2")
    phi = cocycle_as_morphism(ext.total, a31, gen_name="x3")
    psi = adjunction_transpose(ext, phi)
    assert {k: str(v) for k, v in psi.images.items()} == {
        "x3": "y3",
        "sx3": "xt2",
        "w2": "xc2",
    }
    back = adjunction_transpose_inverse(ext, psi.cyclification, psi)
    assert back.image_of("x3") == a31

    rng = random.Random(SEED)
    exts = list(library_extensions().values())
    basis_cache = {}
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 500, "could not find enough cocycles"
        ext = exts[attempts % len(exts)]
        degree = rng.randint(2, 6)
        key = (id(ext), degree)
        if key not in basis_cache:
            basis_cache[key] = closed_basis(ext.total, degree)
        basis = basis_cache[key]
        if not basis:
            continue
        cocycle = ext.total.algebra.zero()
        for e in basis:
            cocycle = cocycle + e.scale(Fraction(rng.randint(-3, 3)))
        phi = cocycle_as_morphism(ext.total, cocycle, degree=degree, gen_name="xS")
        psi = adjunction_transpose(ext, phi)
        back = adjunction_transpose_inverse(ext, psi.cyclification, psi)
        assert back.image_of("xS") == cocycle
        assert adjunction_transpose(ext, back).images == psi.images
        done += 1
    budget.done("T-fold instance + 50 randomized morphisms, both directions")


def test_criterion_06_tfold_derivation():
    budget = Budget("criterion 6 (T-fold quintuple derivation)", 1.0)
    q = btfold_quintuple().quintuple
    assert q.a1 == q.side1.parse("y3 - yc1*xt2")
    assert q.a2 == q.side2.parse("y3 - xc2*yt1")
    assert q.b == q.total.parse("yc1*yt1")
    assert q.kernel_relation_residual.is_zero()
    budget.done()


def _closed_form_image(q, m, mono):
    """Independent oracle for the T-fold transform on a basis cochain:
    alpha at power m |-> e_t * alpha at power m - 1;
    e_c * beta at power m |-> beta at power m."""
    alg1 = q.side1.algebra
    alg2 = q.side2.algebra
    yc = alg1.generator("yc1")
    position = next((i for i, (gid, _) in enumerate(mono) if gid == yc.id), None)
    if position is None:
        alpha = alg2.zero() + transport(alg1.monomial(mono), alg2)
        image = alg2.gen("yt1") * alpha
        return TwistedCochain(q.side2, q.side1.algebra.monomial_degree(mono) + 2 * m - 1,
                              {m - 1: image} if not image.is_zero() else {})
    sign = 0
    for gid, exp in mono[:position]:
        g = alg1.generators[gid]
        sign += exp * (yc.degree * g.degree + yc.parity * g.parity)
    beta_mono = mono[:position] + mono[position + 1 :]
    coeff = Fraction(1) if sign % 2 == 0 else Fraction(-1)
    beta = transport(alg1.monomial(beta_mono, coeff), alg2)
    return TwistedCochain(q.side2, alg1.monomial_degree(mono) + 2 * m - 1, {m: beta})


def test_criterion_07_fm_component_formula():
    budget = Budget("criterion 7 (FM component formula)", 30.0)
    q = btfold_quintuple().quintuple
    window = 10
    checked = 0
    for k in (0, 1):
        for m, mono in _twisted_basis(q.side1, k, window):
            w = TwistedCochain.single(q.side1, m, q.side1.algebra.monomial(mono))
            assert fm_transform(q, w) == _closed_form_image(q, m, mono), (k, m, mono)
            checked += 1
    budget.done(f"{checked} basis cochains, window 10, both parity classes")


def test_criterion_08_invertibility_and_composition():
    budget = Budget("criterion 8 (invertibility, composition, Beck-Chevalley)", 60.0)
    q = btfold_quintuple().quintuple
    window = 10

    def expand(cochain, basis_index):
        return {
            basis_index[(m, mono)]: c
            for m, e in cochain.components.items()
            for mono, c in e.terms.items()
        }

    for k in (0, 1):
        basis1 = _twisted_basis(q.side1, k, window)
        index1 = {bm: i for i, bm in enumerate(basis1)}
        basis2 = _twisted_basis(q.side2, k - 1, window + 1)
        index2 = {bm: i for i, bm in enumerate(basis2)}
        forward_cols = []
        identity_cols = []
        for m, mono in basis1:
            w = TwistedCochain.single(q.side1, m, q.side1.algebra.monomial(mono))
            image = fm_transform(q, w)
            forward_cols.append(expand(image, index2))
            back = fm_inverse(q, image)
            identity_cols.append(expand(back, index1))
        # u Phi_-b Phi_b as a full matrix is the identity
        field = q.side1.algebra.field
        for j, col in enumerate(identity_cols):
            assert col == {j: field.one}
        # Phi_b itself has full rank on the windowed space
        assert rank(forward_cols, field, len(basis2)) == len(basis1)
        # and the reverse composite on side2 cochains is the identity as well
        basis2_small = _twisted_basis(q.side2, k, window)
        for m, mono in basis2_small:
            w = TwistedCochain.single(q.side2, m, q.side2.algebra.monomial(mono))
            assert fm_transform(q, fm_inverse(q, w)) == w

    comp = compose_fm(q, q.reversed())
    e11 = comp.total.algebra.gen("yc1")
    e12 = comp.total.algebra.gen("yc1_2")
    et = comp.total.algebra.gen("yt1")
    assert comp.b == (e11 - e12) * et

    dq = btfold_quintuple()
    rng = random.Random(SEED)
    for _ in range(200):
        e = random_homogeneous(
            rng, dq.fiber_product.ext1.total.algebra, rng.randint(0, 8), terms=4
        )
        assert beck_chevalley_check(dq.fiber_product, e)
    budget.done("full matrices both parities + reversal kernel + 200 BC samples")


def test_criterion_09_clifford_construction():
    budget = Budget("criterion 9 (Clifford construction)", 5.0)
    rep = verify_report()
    assert rep.passed, str(rep)
    names = [name for name, _, _ in rep.checks]
    assert any("45 anticommutator relations" in n for n in names)
    assert any("block forms" in n for n in names)
    assert any("G9B = i * G9A * G10" in n for n in names)
    budget.done()


def test_criterion_10_super_cocycle_identities():
    budget = Budget("criterion 10 (super cocycle identities)", 120.0)
    sm = build_superminkowski()
    cocycles = mu_f1(sm)
    # inputs real-certified
    for element in (sm.c2A, sm.c2B, cocycles.mu81):
        assert all(QI.is_real(c) for c in element.terms.values())
    # d mu81 = c2A * c2B, exactly, over Q(i)
    assert sm.base.apply_d(cocycles.mu81) == sm.c2A * sm.c2B
    # d muA = 0: the quartic cancellation
    dmuA = sm.extA.total.apply_d(cocycles.muA)
    assert dmuA.is_zero()
    dmuB = sm.extB.total.apply_d(cocycles.muB)
    assert dmuB.is_zero()
    budget.done(f"quartic identities over Q(i), {len(cocycles.muA.terms)}-term cocycle")


def test_criterion_11_hori_end_to_end():
    budget = Budget("criterion 11 (Hori end-to-end)", 300.0)
    rep = hori_pipeline(seed=SEED, samples=50, window=3)
    assert rep.passed, str(rep)
    names = [name for name, _, _ in rep.checks]
    assert any("a_{3,1} equals muA" in n for n in names)
    assert any("a_{3,2} equals muB" in n for n in names)
    assert any("kernel equals e9A * e9B" in n for n in names)
    budget.done("quintuple identities + 50 random cochains each way")


def test_criterion_12_out_of_scope_documented():
    budget = Budget("criterion 12 (exclusions documented)", 5.0)
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "Scope" in text
    assert "out of scope" in text.lower()
    # the chain-level isomorphism that replaces the topological statement
    fwd, bwd = phi1_isomorphism()
    assert fwd.verify() is None and bwd.verify() is None
    budget.done("README scope section + T-fold isomorphism check")
