"""Homotopy-theoretic constructions on presentations.

Central extensions by closed cocycles, fiber products of two extensions,
fiber integration along a square-zero extension generator, the free loop
algebra, cyclification, and the transpose across the homotopy-fiber /
cyclification adjunction.  Both directions of the transpose take the
cyclification of the source, which the caller builds once.  A cocycle is
its classifying map: `cocycle_as_morphism` returns the verified morphism
from the line (R[x_n], 0), so the transpose does not check it again.

An extension appends its generators, so the base's generator ids are its
first ids: an element goes in with its terms unchanged, and comes back
through `Morphism.restrict` of the extension's inclusion.

Sign conventions used throughout (all validated by tests):

* fiber integration strips the extension generator from the left:
  a + y*b |-> b;
* the shift operator s is an odd derivation, s(xy) = s(x)y + (-1)^|x| x s(y),
  with s(s g) = 0, and anticommutes with the differential: d(s g) = -s(d g);
* the adjunction transpose of phi: CE(h) -> CE(g^) sends g |-> y-free part
  of phi(g) and s g |-> MINUS the y-coefficient of phi(g); the minus sign is
  forced by requiring the transpose to commute with the differentials.
"""

from __future__ import annotations

import warnings

from .algebra import (
    Algebra,
    Element,
    EVEN,
    ODD,
    derivation_table,
    extend_derivation,
    mul_monomials,
)
from .dgca import Morphism, Presentation, inclusion
from .errors import SullivanError


class ConstructionError(SullivanError):
    pass


def _fresh_name(base, taken):
    if base not in taken:
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def _extend_algebra(pres, new_gens):
    """The old generators plus new ones appended at the end.

    Returns (algebra, diffs): the new algebra, and the old differentials
    carried over into it by id, keyed by generator name, to which the caller
    adds the new generators' differentials before building one Presentation.
    Elements never change their terms, so a carried element shares them.
    """
    old = pres.algebra
    gens = [(g.name, g.degree, g.parity) for g in old.generators]
    taken = {g.name for g in old.generators}
    for gname, gdeg, gpar in new_gens:
        if gname in taken:
            raise ConstructionError(f"generator name collision: {gname!r}")
        taken.add(gname)
        gens.append((gname, gdeg, gpar))
    algebra = Algebra(gens, old.field)
    diffs = {}
    for g in old.generators:
        dg = pres.d_of_generator(g)
        if not dg.is_zero():
            diffs[g.name] = Element(algebra, dg.terms)
    return algebra, diffs


class CentralExtension:
    """Extension of a presentation by one generator y with d y = cocycle."""

    def __init__(self, base, cocycle, total, new_gen, inclusion):
        self.base = base
        self.cocycle = cocycle
        self.total = total
        self.new_gen = new_gen
        self.inclusion = inclusion  # CE(base) -> CE(total)

    def __repr__(self):
        return f"<CentralExtension by {self.cocycle} adding {self.new_gen.name}>"


def central_extension(pres, cocycle, name=None, degree=None) -> CentralExtension:
    """Adjoin a generator y of degree n with d y = cocycle (degree n+1).

    The cocycle must be homogeneous, closed, of even parity and degree >= 2.
    For the zero cocycle the degree cannot be inferred and defaults to 2
    unless given explicitly.
    """
    if cocycle.algebra is not pres.algebra:
        raise ConstructionError("cocycle must live in the base presentation")
    if not cocycle.is_zero():
        bideg = cocycle.bidegree()
        if bideg is None:
            raise ConstructionError("classifying cocycle must be homogeneous")
        deg, par = bideg
        if degree is not None and degree != deg:
            raise ConstructionError("given degree does not match the cocycle")
    else:
        deg, par = (degree if degree is not None else 2), EVEN
    if deg < 2 or par != EVEN:
        raise ConstructionError(
            "classifying cocycle must have even parity and degree >= 2"
        )
    residual = pres.apply_d(cocycle)
    if not residual.is_zero():
        raise ConstructionError(f"classifying cocycle is not closed: d c = {residual}")
    gen_name = name if name is not None else _fresh_name(
        f"y{deg - 1}", {g.name for g in pres.algebra.generators}
    )
    algebra, diffs = _extend_algebra(pres, [(gen_name, deg - 1, EVEN)])
    diffs[gen_name] = Element(algebra, cocycle.terms)
    total = Presentation(algebra, diffs, name=(pres.name or "g") + f"[{gen_name}]")
    new_gen = algebra.generator(gen_name)
    incl = inclusion(pres, total, name="inclusion")
    return CentralExtension(pres, cocycle, total, new_gen, incl)


def strip_generator(element, gen) -> Element:
    """The b of the unique decomposition element = a + gen*b (gen square-zero).

    Monomials not containing gen are dropped; for the others the gen factor
    is moved to the front, with its Koszul sign, and removed."""
    alg = element.algebra
    g = alg.generators[gen.id]
    if not g.square_zero:
        raise ConstructionError(
            f"fiber integration needs a square-zero generator; {g.name} is polynomial type"
        )
    items = []
    for mono, coeff in element.terms.items():
        rest = tuple(f for f in mono if f[0] != g.id)
        if len(rest) == len(mono):
            continue
        sign, _ = mul_monomials(alg, ((g.id, 1),), rest)
        items.append((rest, coeff if sign > 0 else -coeff))
    return Element.from_terms(alg, items)


def fiber_integration(ext: CentralExtension, omega) -> Element:
    """a + y*b |-> b, lowering degree by deg(y); a chain map onto (CE(base), -d)."""
    if omega.algebra is not ext.total.algebra:
        raise ConstructionError("element is not over the extension's total presentation")
    return ext.inclusion.restrict(strip_generator(omega, ext.new_gen))


def shifted_complex_d(pres, element) -> Element:
    """The differential of the degree-shifted complex: d[-1] = -d."""
    return -pres.apply_d(element)


class LoopAlgebra:
    """The free loop presentation: generators g and s g, with d(s g) = -s(d g)."""

    def __init__(self, base, presentation, shift_names):
        self.base = base
        self.presentation = presentation
        self.shift_names = shift_names  # base gen name -> shifted gen name


def _loop(pres, extra_gens):
    """(algebra, diffs, shift_names) of the loop algebra, before a
    Presentation is built on them: the base generators, a shifted copy s g
    (degree - 1, same parity) of each with d(s g) = -s(d g), then the
    (name, degree, parity) extra_gens; a taken name gets a suffix."""
    base_gens = pres.algebra.generators
    for g in base_gens:
        if g.degree - 1 < 1:
            raise ConstructionError(
                f"cannot loop: shifted copy of {g.name} (degree {g.degree}) "
                "would have degree < 1"
            )
    if any(g.parity == ODD for g in base_gens):
        warnings.warn(
            "loop/cyclification of a presentation with odd generators is "
            "experimental: shifted generators keep the original parity",
            stacklevel=3,
        )
    taken = {g.name for g in base_gens}
    new_gens = []
    shifted = [(f"s{g.name}", g.degree - 1, g.parity) for g in base_gens]
    for name, degree, parity in shifted + extra_gens:
        name = _fresh_name(name, taken)
        taken.add(name)
        new_gens.append((name, degree, parity))
    shift_names = {g.name: spec[0] for g, spec in zip(base_gens, new_gens)}
    alg, diffs = _extend_algebra(pres, new_gens)
    # s on generators: g |-> s g, and s(s g) = 0
    shift = derivation_table({g.id: alg.gen(shift_names[g.name]) for g in base_gens})
    for g in base_gens:
        if g.name in diffs:
            diffs[shift_names[g.name]] = -extend_derivation(alg, shift, diffs[g.name])
    return alg, diffs, shift_names


def loopify(pres) -> LoopAlgebra:
    """Adjoin a shifted copy s g (degree - 1, same parity) of every generator.

    d extends the base differential by d(s g) = -s(d g)."""
    alg, diffs, shift_names = _loop(pres, [])
    looped = Presentation(alg, diffs, name=f"L({pres.name or 'g'})")
    return LoopAlgebra(pres, looped, shift_names)


class Cyclification:
    """Loop algebra plus a closed degree-2 class w with d a = d_L a + w * s a."""

    def __init__(self, base, presentation, shift_names, cocycle_name):
        self.base = base
        self.presentation = presentation
        self.shift_names = shift_names
        self.cocycle_name = cocycle_name

    @property
    def cocycle(self) -> Element:
        """The canonical degree-2 cocycle."""
        return self.presentation.algebra.gen(self.cocycle_name)


def cyclify(pres) -> Cyclification:
    """The cyclification: loop generators plus a degree-2 even class w2.

    On original generators d becomes d_L g + w2 * s g; on shifted generators
    d(s g) = -s(d g) as in the loop algebra; d w2 = 0."""
    alg, loop_diffs, shift_names = _loop(pres, [("w2", 2, EVEN)])
    wname = alg.generators[-1].name  # the w2 that _loop appended
    w = alg.gen(wname)
    diffs = {
        g.name: loop_diffs.pop(g.name, alg.zero()) + w * alg.gen(shift_names[g.name])
        for g in pres.algebra.generators
    }
    # s(s g) = 0, so the w2-term vanishes on shifted generators
    diffs.update(loop_diffs)
    cyc = Presentation(alg, diffs, name=f"cyc({pres.name or 'g'})")
    return Cyclification(pres, cyc, shift_names, wname)


class ExtensionFiberProduct:
    """Total presentation of two extensions of one base: CE(g)[e1, e2]."""

    def __init__(self, base, ext1, ext2, total, gen1, gen2, incl1, incl2):
        self.base = base
        self.ext1 = ext1
        self.ext2 = ext2
        self.total = total
        self.gen1 = gen1  # ext1's generator inside total
        self.gen2 = gen2
        self.incl1 = incl1  # CE(ext1.total) -> CE(total)
        self.incl2 = incl2


def extension_fiber_product(pres, c1, c2, names) -> ExtensionFiberProduct:
    """CE(g)[e_1, e_2] with d e_1 = c1, d e_2 = c2, plus both leg extensions.

    The total is the extension of the first leg by c2, so its inclusion is
    the first leg's map into the total; names are the names of e_1, e_2."""
    ext1 = central_extension(pres, c1, name=names[0])
    ext2 = central_extension(pres, c2, name=names[1])
    c2_up = ext1.inclusion.apply(c2)
    second = central_extension(ext1.total, c2_up, name=names[1])
    total = second.total
    gen1 = total.algebra.generator(names[0])
    gen2 = total.algebra.generator(names[1])
    incl2 = inclusion(ext2.total, total, name="pi2*")
    return ExtensionFiberProduct(pres, ext1, ext2, total, gen1, gen2, second.inclusion, incl2)


def y_free_part(element, gen) -> Element:
    """The a of element = a + gen*b."""
    items = [
        (mono, coeff)
        for mono, coeff in element.terms.items()
        if all(gid != gen.id for gid, _ in mono)
    ]
    return Element.from_terms(element.algebra, items)


def adjunction_transpose(ext: CentralExtension, cyc: Cyclification, phi: Morphism) -> Morphism:
    """Transpose phi: CE(h) -> CE(g^) to CE(cyc(h)) -> CE(g) over R[w2].

    cyc is the cyclification of h, phi's source.  Requires the extension to
    be by a 2-cocycle.  Generator images: h |-> y-free part of phi(h),
    restricted to the base; s h |-> minus the fiber integral of phi(h);
    w2 |-> classifying cocycle.  The result is verified, and a failure
    raises MorphismError."""
    if ext.new_gen.degree != 1:
        raise ConstructionError("adjunction transpose needs an extension by a 2-cocycle")
    if phi.target is not ext.total:
        raise ConstructionError("morphism target must be the extension's total presentation")
    if phi.source is not cyc.base:
        raise ConstructionError("phi must be defined on the base of the given cyclification")
    phi.ensure_verified()
    images = {}
    for g in phi.source.algebra.generators:
        img = phi.image_of(g)
        images[g.name] = ext.inclusion.restrict(y_free_part(img, ext.new_gen))
        images[cyc.shift_names[g.name]] = -fiber_integration(ext, img)
    images[cyc.cocycle_name] = ext.cocycle
    return Morphism(cyc.presentation, ext.base, images, name="transpose").ensure_verified()


def adjunction_transpose_inverse(ext: CentralExtension, cyc: Cyclification, psi: Morphism) -> Morphism:
    """Inverse transpose: from psi: CE(cyc(h)) -> CE(g) over R[w2] back to
    phi: CE(h) -> CE(g^), via phi(h) = psi(h) - y*psi(s h).  The result is
    verified, and a failure raises MorphismError."""
    if psi.source is not cyc.presentation:
        raise ConstructionError("psi must be defined on the given cyclification")
    if psi.target is not ext.base:
        raise ConstructionError("psi must land in the extension's base")
    if psi.image_of(cyc.cocycle_name) != ext.cocycle:
        raise ConstructionError("psi does not lie over R[w2]: w2 must map to the classifying cocycle")
    psi.ensure_verified()
    total = ext.total
    y = total.algebra.gen(ext.new_gen.name)
    images = {}
    for g in cyc.base.algebra.generators:
        a = ext.inclusion.apply(psi.image_of(g.name))
        b = ext.inclusion.apply(psi.image_of(cyc.shift_names[g.name]))
        images[g.name] = a - y * b
    return Morphism(cyc.base, total, images, name="transpose inverse").ensure_verified()


def cocycle_as_morphism(pres, element, degree=None) -> Morphism:
    """A closed even degree-n element as the verified morphism
    (R[x_n], 0) -> CE(g) sending x_n to it.

    n is read off the element; only a zero or inhomogeneous element needs
    `degree`.  `Morphism.ensure_verified` is the one check: an element that
    is not closed, not even or not of degree n raises MorphismError."""
    if degree is None:
        bideg = element.bidegree()
        if bideg is None:
            raise ConstructionError("degree required for a zero or inhomogeneous element")
        degree = bideg[0]
    name = f"x{degree}"
    line = Presentation.build([(name, degree, EVEN)], {}, field=pres.algebra.field)
    return Morphism(line, pres, {name: element}, name=f"cocycle {element}").ensure_verified()


def fiber_integration_via_cyclification(ext: CentralExtension, cocycle_morphism: Morphism) -> Morphism:
    """Fiber integration computed through the adjunction.

    Input: a cocycle as a morphism (R[x_{n+1}], 0) -> CE(g^).  Output: the
    degree-n cocycle on the base, as a morphism (R[x_n], 0) -> CE(g),
    obtained by transposing and projecting cyc(b^n u1) -> b^{n-1} u1.  The
    projection sends the degree-n line generator to MINUS the shifted
    generator, which is exactly the choice making the composite equal plain
    fiber integration."""
    src = cocycle_morphism.source
    if len(src.algebra.generators) != 1:
        raise ConstructionError("expected a morphism from a single-generator line")
    (xgen,) = src.algebra.generators
    cyc = cyclify(src)
    psi = adjunction_transpose(ext, cyc, cocycle_morphism)
    shifted = cyc.shift_names[xgen.name]
    value = -psi.image_of(shifted)
    return cocycle_as_morphism(ext.base, value, degree=xgen.degree - 1)
