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
from fractions import Fraction

from .algebra import Element, EVEN, relabel, transport
from .constructions import (
    ExtensionFiberProduct,
    _extend_algebra,
    _fresh_name,
    fiber_integration,
    strip_generator,
)
from .dgca import Morphism, Presentation, inclusion
from .errors import SullivanError
from .linalg import homology


class TwistError(SullivanError):
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
            bideg = element.bidegree()
            if bideg is None:
                raise TwistError(f"component at u^{power} is not homogeneous")
            deg, par = bideg
            if par != EVEN:
                raise TwistError(f"component at u^{power} has odd parity")
            if deg != degree - 2 * power:
                raise TwistError(
                    f"component at u^{power} has degree {deg}, expected {degree - 2 * power}"
                )
            comps[power] = element
        self.components = comps

    @staticmethod
    def single(presentation, power, element):
        """u^power * element, for a homogeneous nonzero element."""
        bideg = element.bidegree()
        if bideg is None:
            raise TwistError("single needs a homogeneous nonzero element")
        return TwistedCochain(presentation, bideg[0] + 2 * power, {power: element})

    def is_zero(self):
        return not self.components

    def component(self, power) -> Element:
        return self.components.get(power, self.presentation.algebra.zero())

    def powers(self):
        return sorted(self.components)

    def u_times(self, shift) -> "TwistedCochain":
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
        # a zero cochain has no degree, so the sum takes the other's
        degree = self.degree if self.components else other.degree
        return TwistedCochain(self.presentation, degree, comps)

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
            if a.bidegree() != (3, EVEN):
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


def gauge_transform(b, cochain: TwistedCochain) -> TwistedCochain:
    """Multiplication by e^{u^{-1} b} = sum_j u^{-j} b^j / j!.

    b is nilpotent exactly when each of its monomials has a square-zero
    factor.  Modulo the square-zero generators the algebra is a polynomial
    ring, which has no nilpotents; and a product of more than N monomials of
    b, N the number of square-zero generators in b, repeats one of them, so
    b^(N+1) = 0.  A b with a monomial of polynomial-type generators alone is
    refused; otherwise the series stops at the first vanishing power."""
    pres = cochain.presentation
    alg = pres.algebra
    if b.algebra is not alg:
        raise TwistError("gauge kernel lives in the wrong algebra")
    if not b.is_zero() and b.bidegree() != (2, EVEN):
        raise TwistError("gauge kernel must be homogeneous of bidegree (2, even)")
    gens = alg.generators
    if not all(any(gens[gid].square_zero for gid, _ in mono) for mono in b.terms):
        raise TwistError(
            "gauge kernel is not nilpotent: e^{u^{-1} b} is an infinite series"
        )
    comps = dict(cochain.components)
    power = b
    j = 1
    while not power.is_zero():
        coeff = Fraction(1, math.factorial(j))
        for m, e in cochain.components.items():
            term = (power * e).scale(coeff)
            if not term.is_zero():
                comps[m - j] = comps[m - j] + term if m - j in comps else term
        power = power * b
        j += 1
    return TwistedCochain(pres, cochain.degree, comps)


class FMQuintuple:
    """The data of a Fourier-Mukai transform between twisted complexes.

    incl1/2   -- the inclusions CE(g_i) -> CE(h) (generators to generators);
                 they share their target, the total presentation CE(h)
    fiber1/2  -- ordered lists of total-presentation generators integrated
                 out by pi_{i*} (stripped left to right, so the order is the
                 orientation: the sign of pi_{i*})
    a1/a2     -- closed degree-3 even twists on the two sides
    b         -- the kernel 2-cochain in CE(h) with d b = pi_1^* a1 - pi_2^* a2

    The total and the two sides are read off the inclusions: total is their
    common target, side1 and side2 their sources.
    """

    def __init__(self, incl1, incl2, fiber1, fiber2, a1, a2, b):
        self.total = incl1.target
        self.side1 = incl1.source
        self.side2 = incl2.source
        self.incl1 = incl1
        self.incl2 = incl2
        self.fiber1 = list(fiber1)
        self.fiber2 = list(fiber2)
        self.a1 = a1
        self.a2 = a2
        self.b = b
        self.inverse_sign = None  # fm_inverse's sign, set on its first call
        self.verify()

    def verify(self):
        if self.incl2.target is not self.total:
            raise TwistError("the two inclusions must share their target")
        self.incl1.ensure_verified()
        self.incl2.ensure_verified()
        total_gens = self.total.algebra.generators
        for incl, fiber in ((self.incl1, self.fiber1), (self.incl2, self.fiber2)):
            if incl.generator_ids is None:
                raise TwistError("inclusions must send generators to single generators")
            image = {total_gens[t] for t in incl.generator_ids.values()}
            if image | set(fiber) != set(total_gens) or image & set(fiber):
                raise TwistError("total generators must split as side image plus fiber")
            for g in fiber:
                if not g.square_zero:
                    raise TwistError("fiber generators must be square-zero type")
        # TwistSpec validates closedness and bidegree
        self._twists = (TwistSpec(self.side1, self.a1), TwistSpec(self.side2, self.a2))
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
            self.incl2, self.incl1, self.fiber2, self.fiber1, self.a2, self.a1, -self.b
        )

    def twist1(self) -> TwistSpec:
        return self._twists[0]

    def twist2(self) -> TwistSpec:
        return self._twists[1]

    @property
    def fiber_degree_2(self):
        return sum(g.degree for g in self.fiber2)

    def __repr__(self):
        return (
            f"<FMQuintuple {self.side1!r} <- {self.total!r} -> {self.side2!r}, "
            f"b = {self.b}>"
        )


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
            comps[m] = q.incl2.restrict(e)
    return TwistedCochain(q.side2, cochain.degree - q.fiber_degree_2, comps)


def fm_inverse(q: FMQuintuple, cochain: TwistedCochain) -> TwistedCochain:
    """s u^r Phi_{-b} in the reverse direction; inverse of fm_transform.

    r = len(q.fiber1) restores the u-degree that the two fiber integrations
    take, and the sign s = +-1 is their relative orientation: it is read off
    the unit cochain on the first call for q and kept on q."""
    rev = q.reversed()
    r = len(q.fiber1)
    if q.inverse_sign is None:
        one = TwistedCochain(q.side1, 0, {0: q.side1.algebra.one()})
        back = fm_transform(rev, fm_transform(q, one)).u_times(r)
        if back not in (one, -one):
            raise TwistError(f"u^{r} Phi_-b Phi_b is not +-1 on the unit cochain: {back}")
        q.inverse_sign = 1 if back == one else -1
    out = fm_transform(rev, cochain).u_times(r)
    return out if q.inverse_sign > 0 else -out


def compose_fm(q: FMQuintuple, qt: FMQuintuple) -> FMQuintuple:
    """The quintuple of the composite transform Phi_{qt} o Phi_q.

    Requires q.side2 and qt.side1 to be the same presentation with the same
    twist.  The new total adjoins qt's first-leg fiber generators to
    q.total; the composite kernel is q1^* b + q2^* bt."""
    if not q.side2.same_structure(qt.side1):
        raise TwistError("composition mismatch: q.side2 differs from qt.side1")
    if transport(q.a2, qt.side1.algebra) != qt.a1:
        raise TwistError("composition mismatch: twists on the shared side differ")

    taken = {g.name for g in q.total.algebra.generators}
    fresh = []  # the names of the copies of qt.fiber1, in its order
    for g in qt.fiber1:
        fresh.append(_fresh_name(g.name, taken))
        taken.add(fresh[-1])
    alg, diffs = _extend_algebra(
        q.total, [(name, g.degree, g.parity) for name, g in zip(fresh, qt.fiber1)]
    )

    # lambda: CE(qt.total) -> CE(new total) on generator ids.  The copies are
    # appended, so q.total's ids are the new total's first ids: shared-side
    # gens map through qt.incl1^{-1} then q.incl2, fiber gens to their copies
    n = len(q.total.algebra.generators)
    lam = {g.id: n + i for i, g in enumerate(qt.fiber1)}
    to_q_total = q.incl2.generator_ids
    for gid, tid in qt.incl1.generator_ids.items():
        lam[tid] = to_q_total[gid]

    for name, g in zip(fresh, qt.fiber1):
        diffs[name] = relabel(qt.total.d_of_generator(g), alg, lam)
    new_total = Presentation(alg, diffs, name="fm-composite")

    q1 = inclusion(q.total, new_total, name="q1").ensure_verified()
    qt_images = {g.name: alg.monomial(((lam[g.id], 1),)) for g in qt.total.algebra.generators}
    q2 = Morphism(qt.total, new_total, qt_images, name="q2").ensure_verified()

    gens = alg.generators
    fiber1 = [gens[lam[g.id]] for g in qt.fiber1] + [gens[g.id] for g in q.fiber1]
    fiber2 = [gens[g.id] for g in q.fiber2] + [gens[lam[g.id]] for g in qt.fiber2]
    kernel = q1.apply(q.b) + q2.apply(qt.b)
    return FMQuintuple(
        q.incl1.then(q1), qt.incl2.then(q2), fiber1, fiber2, q.a1, qt.a2, kernel
    )


def beck_chevalley_check(fp: ExtensionFiberProduct, omega) -> bool:
    """p_2^* p_{1*} omega == pi_{2*} pi_1^* omega for omega over the first leg."""
    if omega.algebra is not fp.ext1.total.algebra:
        raise TwistError("element is not over the first-leg extension")
    down = fiber_integration(fp.ext1, omega)
    lhs = fp.ext2.inclusion.apply(down)
    lifted = fp.incl1.apply(omega)
    stripped = strip_generator(lifted, fp.gen1)
    rhs = fp.incl2.restrict(stripped)
    return lhs == rhs


class TwistedCohomologyReport:
    """Cohomology of the window-truncated 2-periodic twisted complex.

    Components of Z-degree above the window are excluded from both the
    cochain spaces and the differential targets; dimensions at the top edge
    of the window therefore refer to the truncated complex, and nothing is
    claimed beyond the window.  `dim` is the number of representatives."""

    def __init__(self, twist, parity_class, window, representatives):
        self.twist = twist
        self.parity_class = parity_class
        self.window = window
        self.representatives = representatives
        self.dim = len(representatives)

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


def _window_powers(total_degree, window):
    """The u-powers m with 0 <= total_degree - 2*m <= window, ascending."""
    return range(-((window - total_degree) // 2), total_degree // 2 + 1)


def _twisted_basis(presentation, total_degree, window):
    """Basis of the truncated cochain space: (power, monomial) pairs with
    0 <= total_degree - 2*power <= window."""
    alg = presentation.algebra
    return [
        (m, mono)
        for m in _window_powers(total_degree, window)
        for mono in alg.monomial_basis(total_degree - 2 * m, EVEN)
    ]


def random_twisted_cochain(rng, presentation, total_degree, window):
    """A sparse random even cochain of up to three terms, with component
    degrees within the window."""
    alg = presentation.algebra
    powers = _window_powers(total_degree, window)
    comps = {}
    for _ in range(3):
        m = rng.choice(powers)  # the same draw as rng.randint(powers[0], powers[-1])
        basis = alg.monomial_basis(total_degree - 2 * m, EVEN)
        if basis:
            term = alg.monomial(rng.choice(basis), rng.randint(-4, 4))
            comps[m] = comps[m] + term if m in comps else term
    return TwistedCochain(presentation, total_degree, comps)


def twisted_cohomology(twist: TwistSpec, parity_class, window) -> TwistedCohomologyReport:
    """Exact cohomology of the truncated twisted complex in one parity class.

    By u-periodicity the complex only depends on the total degree mod 2; the
    computation fixes total degree k = parity_class."""
    if parity_class not in (0, 1):
        raise TwistError("parity class must be 0 or 1")
    pres = twist.presentation
    alg = pres.algebra
    k = parity_class

    def image(key):
        # u^m mono |-> u^m d(mono) + u^(m-1) a*mono, each part only if its
        # component degree lies in the window
        m, mono = key
        deg = alg.monomial_degree(mono)
        w = alg.monomial(mono)
        if deg < window:
            for mono2, c in pres.apply_d(w).terms.items():
                yield (m, mono2), c
        if deg + 3 <= window:
            for mono2, c in (twist.a * w).terms.items():
                yield (m - 1, mono2), c

    bases = [_twisted_basis(pres, kk, window) for kk in (k - 1, k, k + 1)]
    (classes,) = homology(image, bases, alg.field)
    reps = []
    for cls in classes:
        comps = {}
        for (m, mono), val in cls:
            term = alg.monomial(mono, val)
            comps[m] = comps[m] + term if m in comps else term
        reps.append(TwistedCochain(pres, k, comps))
    return TwistedCohomologyReport(twist, parity_class, window, reps)
