"""Laurent-u twisted complexes and Fourier-Mukai transforms.

A twisted cochain of total degree k over a presentation is a finite sum
sum_m u^m * w_m with deg(u) = 2, where the component w_m is a homogeneous
even element of Z-degree k - 2m.  For a closed degree-3 even twist a, the
twisted differential is

    d_a(w) = d(w) + u^{-1} a w,    i.e. componentwise (d_a w)_m = d(w_m) + a*w_{m+1}.

A Fourier-Mukai quintuple consists of two central extensions of a common
total presentation, twists on both sides, and a kernel 2-cochain b with
d b = pi_1^* a_1 - pi_2^* a_2.  Its transform pulls back, multiplies by
e^{u^{-1} b} and fiber-integrates along the second leg.
"""

from __future__ import annotations

import math

from .algebra import Element, EVEN, relabel, transport
from .constructions import (
    ExtensionFiberProduct,
    _extend_algebra,
    _fresh_name,
    fiber_integration,
    strip_generator,
)
from .dgca import Morphism, Presentation
from .linalg import kernel_mod_image


class TwistError(ValueError):
    pass


class TwistedCochain:
    """Finite mapping u-power -> homogeneous even Element, with total degree."""

    def __init__(self, presentation, degree, components):
        self.presentation = presentation
        self.degree = degree
        comps = {}
        for power, element in components.items():
            if element.algebra is not presentation.algebra:
                raise TwistError("component lives in the wrong algebra")
            if element.is_zero():
                continue
            if not element.is_homogeneous():
                raise TwistError(f"component at u^{power} is not homogeneous")
            deg, par = element.bidegree()
            if par != EVEN:
                raise TwistError(f"component at u^{power} has odd parity")
            if deg != degree - 2 * power:
                raise TwistError(
                    f"component at u^{power} has degree {deg}, expected {degree - 2 * power}"
                )
            comps[power] = element
        self.components = comps

    @staticmethod
    def single(presentation, power, element, degree=None):
        if degree is None:
            degree = element.degree() + 2 * power
        return TwistedCochain(presentation, degree, {power: element})

    def is_zero(self):
        return not self.components

    def component(self, power) -> Element:
        return self.components.get(power, self.presentation.algebra.zero())

    def powers(self):
        return sorted(self.components)

    def u_times(self, shift=1) -> "TwistedCochain":
        """Multiplication by u^shift: moves every component up by shift."""
        return TwistedCochain(
            self.presentation,
            self.degree + 2 * shift,
            {m + shift: e for m, e in self.components.items()},
        )

    def __add__(self, other):
        self._check(other)
        comps = dict(self.components)
        for m, e in other.components.items():
            comps[m] = comps[m] + e if m in comps else e
        return TwistedCochain(self.presentation, self.degree, comps)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TwistedCochain(
            self.presentation, self.degree, {m: -e for m, e in self.components.items()}
        )

    def scale(self, c):
        return TwistedCochain(
            self.presentation, self.degree, {m: e.scale(c) for m, e in self.components.items()}
        )

    def _check(self, other):
        if self.presentation is not other.presentation:
            raise TwistError("cochains over different presentations")
        if self.degree != other.degree and self.components and other.components:
            raise TwistError("cochains of different total degree")

    def __eq__(self, other):
        if not isinstance(other, TwistedCochain):
            return NotImplemented
        if self.presentation is not other.presentation:
            return False
        if self.components != other.components:
            return False
        return self.is_zero() or other.is_zero() or self.degree == other.degree

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m in self.powers():
            e = self.components[m]
            if m == 0:
                parts.append(f"({e})")
            else:
                parts.append(f"u^{m}*({e})")
        return " + ".join(parts)

    def __repr__(self):
        return f"<TwistedCochain deg {self.degree}: {self}>"


class TwistSpec:
    """A presentation with a closed degree-(3, even) twisting class."""

    def __init__(self, presentation, a):
        if a.algebra is not presentation.algebra:
            raise TwistError("twist lives in the wrong algebra")
        if not a.is_zero():
            if not a.is_homogeneous() or a.bidegree() != (3, EVEN):
                raise TwistError("twist must be homogeneous of bidegree (3, even)")
            residual = presentation.apply_d(a)
            if not residual.is_zero():
                raise TwistError(f"twist is not closed: d a = {residual}")
        self.presentation = presentation
        self.a = a

    def __repr__(self):
        return f"<TwistSpec a = {self.a} on {self.presentation!r}>"


def twisted_d_raw(presentation, a, cochain) -> TwistedCochain:
    """Componentwise (d w)_m = d(w_m) + a * w_{m+1}; a need not be closed."""
    comps = {}
    powers = set(cochain.components)
    for m in set(powers) | {m - 1 for m in powers}:
        value = presentation.apply_d(cochain.component(m))
        nxt = cochain.component(m + 1)
        if not nxt.is_zero():
            value = value + a * nxt
        if not value.is_zero():
            comps[m] = value
    return TwistedCochain(presentation, cochain.degree + 1, comps)


def twisted_d(twist: TwistSpec, cochain: TwistedCochain) -> TwistedCochain:
    if cochain.presentation is not twist.presentation:
        raise TwistError("cochain is not over the twist's presentation")
    return twisted_d_raw(twist.presentation, twist.a, cochain)


def nilpotency_order(element, cap=64):
    """Smallest j with element^j = 0, or None if not reached within cap."""
    power = element.algebra.one()
    for j in range(1, cap + 1):
        power = power * element
        if power.is_zero():
            return j
    return None


def gauge_transform(b, cochain: TwistedCochain, cap=64) -> TwistedCochain:
    """Multiplication by e^{u^{-1} b} = sum_j u^{-j} b^j / j!.

    Requires b nilpotent (guaranteed for kernels built from square-zero
    extension generators); otherwise the series would not terminate on a
    polynomial-type class and an error is raised."""
    pres = cochain.presentation
    if b.algebra is not pres.algebra:
        raise TwistError("gauge kernel lives in the wrong algebra")
    if not b.is_zero() and (not b.is_homogeneous() or b.bidegree() != (2, EVEN)):
        raise TwistError("gauge kernel must be homogeneous of bidegree (2, even)")
    order = nilpotency_order(b, cap) if not b.is_zero() else 1
    if order is None:
        raise TwistError(
            "gauge kernel is not nilpotent: e^{u^{-1} b} is an infinite series"
        )
    result = cochain
    power = pres.algebra.one()
    for j in range(1, order):
        power = power * b
        coeff = pres.algebra.field.fraction(1, math.factorial(j))
        comps = {}
        for m, e in cochain.components.items():
            term = (power * e).scale(coeff)
            if not term.is_zero():
                comps[m - j] = comps[m - j] + term if m - j in comps else term
        result = result + TwistedCochain(pres, cochain.degree, comps)
    return result


class FMQuintuple:
    """The data of a Fourier-Mukai transform between twisted complexes.

    total     -- the shared total presentation CE(h)
    side1/2   -- the two leg presentations CE(g_1), CE(g_2)
    incl1/2   -- the inclusions CE(g_i) -> CE(h) (generators to generators)
    fiber1/2  -- ordered lists of total-presentation generators integrated
                 out by pi_{i*} (stripped left to right)
    a1/a2     -- closed degree-3 even twists on the two sides
    b         -- the kernel 2-cochain in CE(h) with d b = pi_1^* a1 - pi_2^* a2
    """

    def __init__(self, total, side1, side2, incl1, incl2, fiber1, fiber2, a1, a2, b):
        self.total = total
        self.side1 = side1
        self.side2 = side2
        self.incl1 = incl1
        self.incl2 = incl2
        self.fiber1 = list(fiber1)
        self.fiber2 = list(fiber2)
        self.a1 = a1
        self.a2 = a2
        self.b = b
        self.verify()

    def verify(self):
        for incl, side in ((self.incl1, self.side1), (self.incl2, self.side2)):
            if incl.source is not side or incl.target is not self.total:
                raise TwistError("inclusion endpoints are wrong")
            incl.ensure_verified()
        total_gens = {g.name for g in self.total.algebra.generators}
        for incl, fiber, side in (
            (self.incl1, self.fiber1, self.side1),
            (self.incl2, self.fiber2, self.side2),
        ):
            image_names = set()
            for g in side.algebra.generators:
                img = incl.image_of(g)
                if len(img.terms) != 1:
                    raise TwistError("inclusions must send generators to single generators")
                ((mono, coeff),) = img.terms.items()
                if len(mono) != 1 or mono[0][1] != 1 or coeff != side.algebra.field.one:
                    raise TwistError("inclusions must send generators to single generators")
                image_names.add(self.total.algebra.generators[mono[0][0]].name)
            fiber_names = {g.name for g in fiber}
            if image_names | fiber_names != total_gens or image_names & fiber_names:
                raise TwistError("total generators must split as side image plus fiber")
            for g in fiber:
                if not self.total.algebra.generators[g.id].square_zero:
                    raise TwistError("fiber generators must be square-zero type")
        for a, side in ((self.a1, self.side1), (self.a2, self.side2)):
            TwistSpec(side, a)  # validates closedness and bidegree
        residual = self.kernel_relation_residual
        if not residual.is_zero():
            raise TwistError(f"kernel relation fails: d b - (pi1* a1 - pi2* a2) = {residual}")

    @property
    def kernel_relation_residual(self) -> Element:
        lhs = self.total.apply_d(self.b)
        rhs = self.incl1.apply(self.a1) - self.incl2.apply(self.a2)
        return lhs - rhs

    def reversed(self) -> "FMQuintuple":
        return FMQuintuple(
            self.total,
            self.side2,
            self.side1,
            self.incl2,
            self.incl1,
            self.fiber2,
            self.fiber1,
            self.a2,
            self.a1,
            -self.b,
        )

    def twist1(self) -> TwistSpec:
        return TwistSpec(self.side1, self.a1)

    def twist2(self) -> TwistSpec:
        return TwistSpec(self.side2, self.a2)

    @property
    def fiber_degree_2(self):
        return sum(self.total.algebra.generators[g.id].degree for g in self.fiber2)

    def __repr__(self):
        return (
            f"<FMQuintuple {self.side1!r} <- {self.total!r} -> {self.side2!r}, "
            f"b = {self.b}>"
        )


def restrict_through(incl: Morphism, element) -> Element:
    """Invert a generator-to-generator inclusion on an element of its image.

    Every generator of the element must be the image of a (unique) source
    generator."""
    back = {}
    for g in incl.source.algebra.generators:
        ((mono, _),) = incl.image_of(g).terms.items()
        back[mono[0][0]] = g.id
    for mono in element.terms:
        for gid, _ in mono:
            if gid not in back:
                name = incl.target.algebra.generators[gid].name
                raise TwistError(f"element is not in the inclusion's image: contains {name}")
    return relabel(element, incl.source.algebra, back)


def fm_transform(q: FMQuintuple, cochain: TwistedCochain) -> TwistedCochain:
    """omega |-> pi_{2*}(e^{u^{-1} b} pi_1^* omega)."""
    if cochain.presentation is not q.side1:
        raise TwistError("cochain is not over the quintuple's first side")
    lifted = TwistedCochain(
        q.total,
        cochain.degree,
        {m: q.incl1.apply(e) for m, e in cochain.components.items()},
    )
    gauged = gauge_transform(q.b, lifted)
    comps = {}
    for m, e in gauged.components.items():
        for g in q.fiber2:
            e = strip_generator(e, g)
            if e.is_zero():
                break
        if not e.is_zero():
            comps[m] = restrict_through(q.incl2, e)
    return TwistedCochain(q.side2, cochain.degree - q.fiber_degree_2, comps)


def fm_inverse(q: FMQuintuple, cochain: TwistedCochain) -> TwistedCochain:
    """u * Phi_{-b} in the reverse direction; inverse of fm_transform."""
    return fm_transform(q.reversed(), cochain).u_times()


def compose_fm(q: FMQuintuple, qt: FMQuintuple, rename=None) -> FMQuintuple:
    """The quintuple of the composite transform Phi_{qt} o Phi_q.

    Requires q.side2 and qt.side1 to be the same presentation with the same
    twist.  The new total adjoins qt's first-leg fiber generators to
    q.total; the composite kernel is q1^* b + q2^* bt."""
    if not q.side2.same_structure(qt.side1):
        raise TwistError("composition mismatch: q.side2 differs from qt.side1")
    if transport(q.a2, qt.side1.algebra) != qt.a1:
        raise TwistError("composition mismatch: twists on the shared side differ")

    total_names = {g.name for g in q.total.algebra.generators}
    fresh_of = {}  # qt.total fiber generator -> name of its copy
    new_gens = []
    for g in qt.fiber1:
        gen = qt.total.algebra.generators[g.id]
        fresh = rename(gen.name) if rename else _fresh_name(gen.name, total_names)
        if fresh in total_names:
            raise TwistError(f"generator name collision: {fresh!r}")
        total_names.add(fresh)
        fresh_of[gen] = fresh
        new_gens.append((fresh, gen.degree, gen.parity))
    placeholder = _extend_algebra(q.total, new_gens, {}, name="fm-composite")
    alg = placeholder.algebra

    # lambda: CE(qt.total) -> CE(new total) on generator ids: shared-side gens
    # map through qt.incl1^{-1} then q.incl2; qt fiber gens map to their copies
    lam = {gen.id: alg.generator(fresh).id for gen, fresh in fresh_of.items()}
    for g in qt.side1.algebra.generators:
        ((mono, _),) = qt.incl1.image_of(g).terms.items()
        ((mono2, _),) = q.incl2.image_of(q.side2.algebra.generators[g.id]).terms.items()
        lam[mono[0][0]] = alg.generator(q.total.algebra.generators[mono2[0][0]].name).id

    diffs = {alg.generators[gid].name: dg for gid, dg in placeholder.differentials.items()}
    for gen, fresh in fresh_of.items():
        diffs[fresh] = relabel(qt.total.d_of_generator(gen), alg, lam)
    new_total = Presentation(alg, diffs, name="fm-composite")
    new_total.ensure_d_squared()

    q1 = Morphism(
        q.total,
        new_total,
        {g.name: alg.gen(g.name) for g in q.total.algebra.generators},
        name="q1",
    ).ensure_verified()
    qt_images = {
        g.name: alg.gen(alg.generators[lam[g.id]].name) for g in qt.total.algebra.generators
    }
    q2 = Morphism(qt.total, new_total, qt_images, name="q2").ensure_verified()

    incl1 = q.incl1.then(q1)
    incl2 = qt.incl2.then(q2)
    fiber1 = [alg.generators[lam[g.id]] for g in qt.fiber1]
    fiber1 += [alg.generator(q.total.algebra.generators[g.id].name) for g in q.fiber1]
    fiber2 = [alg.generator(q.total.algebra.generators[g.id].name) for g in q.fiber2]
    fiber2 += [alg.generators[lam[g.id]] for g in qt.fiber2]
    kernel = q1.apply(q.b) + q2.apply(qt.b)
    return FMQuintuple(
        new_total, q.side1, qt.side2, incl1, incl2, fiber1, fiber2, q.a1, qt.a2, kernel
    )


def beck_chevalley_check(fp: ExtensionFiberProduct, omega) -> bool:
    """p_2^* p_{1*} omega == pi_{2*} pi_1^* omega for omega over the first leg."""
    if omega.algebra is not fp.ext1.total.algebra:
        raise TwistError("element is not over the first-leg extension")
    down = fiber_integration(fp.ext1, omega)
    lhs = fp.ext2.inclusion.apply(down)
    lifted = fp.incl1.apply(omega)
    stripped = strip_generator(lifted, fp.gen1)
    rhs = restrict_through(fp.incl2, stripped)
    return lhs == rhs


class TwistedCohomologyReport:
    """Cohomology of the window-truncated 2-periodic twisted complex.

    Components of Z-degree above the window are excluded from both the
    cochain spaces and the differential targets; dimensions at the top edge
    of the window therefore refer to the truncated complex, and nothing is
    claimed beyond the window."""

    def __init__(self, twist, parity_class, window, dim, representatives):
        self.twist = twist
        self.parity_class = parity_class
        self.window = window
        self.dim = dim
        self.representatives = representatives

    def lines(self):
        out = [
            f"twisted cohomology, parity class {self.parity_class}, "
            f"window: component degrees 0..{self.window} (truncated complex)",
            f"dim = {self.dim}",
        ]
        for r in self.representatives:
            out.append(f"  representative: {r}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def _twisted_basis(presentation, total_degree, window):
    """Basis of the truncated cochain space: (power, monomial) pairs with
    0 <= total_degree - 2*power <= window."""
    alg = presentation.algebra
    out = []
    m_min = -((window - total_degree) // 2)  # ceil((total_degree - window) / 2)
    m_max = total_degree // 2
    for m in range(m_min, m_max + 1):
        d = total_degree - 2 * m
        for mono in alg.monomial_basis(d, EVEN):
            out.append((m, mono))
    return out


def twisted_cohomology(twist: TwistSpec, parity_class, window) -> TwistedCohomologyReport:
    """Exact cohomology of the truncated twisted complex in one parity class.

    By u-periodicity the complex only depends on the total degree mod 2; the
    computation fixes total degree k = parity_class."""
    if parity_class not in (0, 1):
        raise TwistError("parity class must be 0 or 1")
    twist.presentation.ensure_d_squared()
    pres = twist.presentation
    field = pres.algebra.field
    k = parity_class

    bases = {kk: _twisted_basis(pres, kk, window) for kk in (k - 1, k, k + 1)}
    index = {kk: {bm: i for i, bm in enumerate(bases[kk])} for kk in bases}

    def matrix(deg):
        rows = [[field.zero] * len(bases[deg]) for _ in bases[deg + 1]]
        for j, (m, mono) in enumerate(bases[deg]):
            image = twisted_d_raw(
                pres, twist.a, TwistedCochain.single(pres, m, pres.algebra.monomial(mono))
            )
            for mm, elem in image.components.items():
                for mono2, c in elem.terms.items():
                    key = (mm, mono2)
                    i = index[deg + 1].get(key)
                    if i is not None:  # window truncation drops the rest
                        rows[i][j] = c
        return rows

    rref_rows, pivots = kernel_mod_image(matrix(k), matrix(k - 1), field, len(bases[k]))
    reps = []
    for row in rref_rows:
        comps = {}
        for c, val in enumerate(row):
            if val:
                m, mono = bases[k][c]
                term = pres.algebra.monomial(mono, val)
                comps[m] = comps[m] + term if m in comps else term
        reps.append(TwistedCochain(pres, k, comps))
    return TwistedCohomologyReport(twist, parity_class, window, len(pivots), reps)
