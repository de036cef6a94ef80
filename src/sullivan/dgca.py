"""Differentials on free bigraded algebras: presentations, morphisms,
cocycle checks and cohomology in a degree window.

A presentation assigns to every generator a differential value that raises
the Z-degree by exactly 1 and preserves parity; d extends to all elements by
the graded Leibniz rule

    d(x*y) = (dx)*y + (-1)^|x| x*(dy)

where |x| is the Z-degree (the parity enters commutation only, never the
Leibniz sign).  d^2 = 0 is equivalent to d(dg) = 0 on generators; the
constructor checks it, so every Presentation that exists satisfies it.
"""

from __future__ import annotations

from .algebra import Algebra, Element, derivation_table, extend_derivation, relabel
from .errors import SullivanError
from .linalg import homology, kernel_basis, matrix_of
from .parsing import parse_element


class PresentationError(SullivanError):
    residual = None  # d(d generator) when the fault is d^2 != 0 there

    def __init__(self, message, generator=None):
        super().__init__(message)
        self.generator = generator  # the generator whose d is at fault, if known


class MorphismError(SullivanError):
    pass


class Presentation:
    """A free bigraded commutative algebra with a degree-+1 differential.

    The constructor checks d(d g) = 0 for every generator g, in generator
    order, and raises PresentationError naming the first g where it fails."""

    def __init__(self, algebra, differentials=None, name=None):
        self.algebra = algebra
        self.name = name
        self._d = {}
        differentials = differentials or {}
        for key, value in differentials.items():
            gen = algebra.generator(key)
            if isinstance(value, str):
                value = parse_element(value, algebra)
            if value.algebra is not algebra:
                raise PresentationError(f"d({gen.name}) lives in a different algebra")
            if value.is_zero():
                continue
            bideg = value.bidegree()
            if bideg is None:
                raise PresentationError(f"d({gen.name}) is not homogeneous", gen)
            deg, par = bideg
            if deg != gen.degree + 1 or par != gen.parity:
                raise PresentationError(
                    f"d({gen.name}) must have bidegree ({gen.degree + 1}, "
                    f"{'odd' if gen.parity else 'even'}); got ({deg}, {'odd' if par else 'even'})",
                    gen,
                )
            self._d[gen.id] = value
        self._table = derivation_table(self._d)  # the presentation is immutable
        for gen in algebra.generators:
            if gen.id in self._d:
                residual = self.apply_d(self._d[gen.id])
                if residual:
                    error = PresentationError(f"d^2 != 0: d(d {gen.name}) = {residual}", gen)
                    error.residual = residual
                    raise error

    @staticmethod
    def build(generators, differentials=None, field=None, name=None):
        """Construct from (name, degree, parity) triples and text differentials."""
        from .fields import QQ

        algebra = Algebra(generators, field if field is not None else QQ)
        return Presentation(algebra, differentials, name=name)

    def d_of_generator(self, gen):
        if isinstance(gen, str):
            gen = self.algebra.generator(gen)
        return self._d.get(gen.id, self.algebra.zero())

    @property
    def differentials(self):
        return dict(self._d)

    def apply_d(self, element) -> Element:
        """Leibniz extension of the generator assignment."""
        if element.algebra is not self.algebra:
            raise PresentationError("element belongs to a different algebra")
        return extend_derivation(self.algebra, self._table, element)

    def is_cocycle(self, element) -> bool:
        if not element.is_homogeneous():
            raise PresentationError("is_cocycle requires a homogeneous element")
        return self.apply_d(element).is_zero()

    def parse(self, text) -> Element:
        return parse_element(text, self.algebra)

    def same_structure(self, other) -> bool:
        """Structural equality: same field, generator list and differentials."""
        if self.algebra.field.name != other.algebra.field.name:
            return False
        mine = [(g.name, g.degree, g.parity) for g in self.algebra.generators]
        theirs = [(g.name, g.degree, g.parity) for g in other.algebra.generators]
        if mine != theirs:
            return False
        for g, h in zip(self.algebra.generators, other.algebra.generators):
            dg = self._d.get(g.id, self.algebra.zero())
            dh = other._d.get(h.id, other.algebra.zero())
            if {m: c for m, c in dg.terms.items()} != {m: c for m, c in dh.terms.items()}:
                return False
        return True

    def __repr__(self):
        label = self.name or "Presentation"
        gens = ", ".join(g.name for g in self.algebra.generators)
        return f"<{label}: [{gens}] over {self.algebra.field.name}>"


class Morphism:
    """A map between presentations given by generator images in the target.

    The map is a generator map when every image is a single target generator
    with coefficient one and its source generator's bidegree, and no two
    source generators share an image; `generator_ids` then holds its
    {source id: target id} dict, `apply` moves elements with `relabel`, and
    `restrict` moves them back.  Otherwise `generator_ids` is None and
    `apply` multiplies images.
    """

    def __init__(self, source, target, images, name=None):
        if source.algebra.field.name != target.algebra.field.name:
            raise MorphismError("source and target must share the coefficient field")
        self.source = source
        self.target = target
        self.name = name
        self._images = {}
        for key, value in images.items():
            gen = source.algebra.generator(key)
            if isinstance(value, str):
                value = parse_element(value, target.algebra)
            if value.algebra is not target.algebra:
                raise MorphismError(f"image of {gen.name} lives in the wrong algebra")
            self._images[gen.id] = value
        for gen in source.algebra.generators:
            if gen.id not in self._images:
                raise MorphismError(f"no image given for generator {gen.name}")
        self.generator_ids = _generator_ids(source.algebra, target.algebra, self._images)
        self._verified = False  # set once verify() has passed; a failure is not kept

    def image_of(self, gen):
        if isinstance(gen, str):
            gen = self.source.algebra.generator(gen)
        return self._images[gen.id]

    @property
    def images(self):
        return {
            self.source.algebra.generators[gid].name: img
            for gid, img in self._images.items()
        }

    def apply(self, element) -> Element:
        if element.algebra is not self.source.algebra:
            raise MorphismError("element is not over the source algebra")
        target = self.target.algebra
        if self.generator_ids is not None:
            return relabel(element, target, self.generator_ids)
        acc = {}
        for mono, coeff in element.terms.items():
            term = target.scalar(coeff)
            for gid, exp in mono:
                term = term * (self._images[gid] ** exp)
                if term.is_zero():
                    break
            for m, c in term.terms.items():
                prev = acc.get(m)
                acc[m] = c if prev is None else prev + c
        return Element(target, {m: c for m, c in acc.items() if c})

    def restrict(self, element) -> Element:
        """The inverse of a generator map on its image: the source element
        that the map sends to element.  Refused for any other map or element."""
        if element.algebra is not self.target.algebra:
            raise MorphismError("element is not over the target algebra")
        if self.generator_ids is None:
            raise MorphismError("only a generator map can be inverted on its image")
        back = {t: s for s, t in self.generator_ids.items()}
        for mono in element.terms:
            for gid, _ in mono:
                if gid not in back:
                    name = self.target.algebra.generators[gid].name
                    raise MorphismError(f"element is not in the map's image: contains {name}")
        return relabel(element, self.source.algebra, back)

    def verify(self):
        """None if degree/parity-preserving and d-commuting; else a counterexample.

        Each generator in turn has the bidegree of its image checked, then
        phi(d g) = d(phi g).  The counterexample is a triple (generator,
        reason, residual), the residual of a commutation fault being
        phi(d g) - d(phi g).  A pass is remembered."""
        for gen in self.source.algebra.generators:
            img = self._images[gen.id]
            if not img.is_zero():
                bideg = img.bidegree()
                if bideg is None:
                    return (gen, "image not homogeneous", img)
                if bideg != (gen.degree, gen.parity):
                    return (gen, "image has wrong bidegree", img)
            lhs = self.apply(self.source.d_of_generator(gen))
            rhs = self.target.apply_d(img)
            if lhs != rhs:
                return (gen, "does not commute with d", lhs - rhs)
        self._verified = True
        return None

    def ensure_verified(self):
        """Raise MorphismError unless verify() passes; a pass is remembered,
        so a morphism is checked once however often this is called."""
        if not self._verified:
            bad = self.verify()
            if bad is not None:
                gen, reason, residual = bad
                raise MorphismError(
                    f"morphism fails at {gen.name}: {reason}; residual = {residual}"
                )
        return self

    def then(self, other) -> "Morphism":
        """Composite mapping first through self, then through other."""
        if other.source is not self.target:
            raise MorphismError("composition mismatch")
        images = {
            gen.name: other.apply(self._images[gen.id])
            for gen in self.source.algebra.generators
        }
        return Morphism(self.source, other.target, images)

    def __repr__(self):
        label = self.name or "Morphism"
        return f"<{label}: {self.source!r} -> {self.target!r}>"


def _generator_ids(source, target, images):
    """{source id: target id} if images make a generator map, else None."""
    one = target.field.one
    ids = {}
    for gid, img in images.items():
        if len(img.terms) != 1:
            return None
        ((mono, coeff),) = img.terms.items()
        if len(mono) != 1 or mono[0][1] != 1 or coeff != one:
            return None
        g, h = source.generators[gid], target.generators[mono[0][0]]
        if (g.degree, g.parity) != (h.degree, h.parity):
            return None
        ids[gid] = h.id
    return ids if len(set(ids.values())) == len(ids) else None


def inclusion(source, target, name=None) -> Morphism:
    """The map sending each source generator to the target generator of the
    same name.  It is a generator map when the names carry the same
    bidegree on both sides; `ensure_verified` checks it commutes with d."""
    images = {g.name: target.algebra.gen(g.name) for g in source.algebra.generators}
    return Morphism(source, target, images, name=name)


def identity_morphism(pres) -> Morphism:
    return inclusion(pres, pres)


class CohomologyReport:
    """Exact cohomology of a presentation in the window 0..max_degree.

    Results above the window are not claimed; the degree-max_degree kernel
    does use the full differential into degree max_degree + 1.
    `representatives[k]` lists the degree-k class representatives for
    k = 0..max_degree; `max_degree` and `dims` are read off it.
    """

    def __init__(self, presentation, representatives):
        self.presentation = presentation
        self.representatives = representatives
        self.max_degree = len(representatives) - 1
        self.dims = [len(r) for r in representatives]

    def lines(self):
        out = [f"cohomology window: degrees 0..{self.max_degree} (nothing claimed above)"]
        for d, dim in enumerate(self.dims):
            reps = ", ".join(str(r) for r in self.representatives[d])
            out.append(f"H^{d}: dim {dim}" + (f"  [{reps}]" if reps else ""))
        return out

    def __str__(self):
        return "\n".join(self.lines())


def _d_image(pres):
    """d on monomial keys, as the image function of linalg.matrix_of."""
    alg = pres.algebra
    return lambda mono: pres.apply_d(alg.monomial(mono)).terms.items()


def cohomology(pres, max_degree) -> CohomologyReport:
    """Exact dimensions and representative cocycles for degrees 0..max_degree."""
    if max_degree < 0:
        raise PresentationError("max_degree must be >= 0")
    alg = pres.algebra
    bases = [[]] + [alg.monomial_basis(d) for d in range(max_degree + 2)]
    reps = [
        [Element.from_terms(alg, cls) for cls in classes]
        for classes in homology(_d_image(pres), bases, alg.field)
    ]
    return CohomologyReport(pres, reps)


def closed_basis(pres, degree):
    """Basis of the space of degree-`degree` cocycles, as Elements."""
    alg = pres.algebra
    basis = alg.monomial_basis(degree)
    matrix = matrix_of(_d_image(pres), basis, alg.monomial_basis(degree + 1))
    kernel = kernel_basis(matrix, alg.field, len(basis))
    return [Element.from_terms(alg, ((basis[c], v[c]) for c in sorted(v))) for v in kernel]
