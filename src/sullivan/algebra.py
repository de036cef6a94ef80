"""Free (Z, Z/2)-bigraded commutative algebras on named generators.

A generator carries a cohomological Z-degree and a super Z/2-parity.  The
commutation rule for homogeneous x, y is

    x*y = (-1)^(|x||y| + p(x)p(y)) * y*x

with |.| the Z-degree and p the parity bit.  A generator g is of square-zero
type when degree(g) + parity(g) is odd (then g*g = 0), of polynomial type
otherwise.

Monomials are stored canonically as tuples of (generator id, exponent) pairs
sorted by id.  The sign rules live here and nowhere else: `mul_monomials`
computes the Koszul sign produced while sorting, `relabel` moves elements
between algebras through it, and `extend_derivation` applies the Leibniz
rule

    D(x*y) = D(x)*y + (-1)^|x| x*D(y)

of an odd-degree derivation such as the differential or the loop shift.  It
runs on integer numerators: `derivation_table` scales the derivation's
images once by their common denominator, and each call scales the element by
its own, so the sums are Python ints (Gaussian integers where a coefficient
is not real) that become field scalars only at the end.  Elements are finite
sparse sums of monomials with exact field coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import SullivanError
from .fields import QQ, GaussianRational

EVEN = 0
ODD = 1

PARITY_NAMES = {EVEN: "even", ODD: "odd"}

# the NAME token of the element grammar (sullivan.parsing)
NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(NAME)


class AlgebraError(SullivanError):
    pass


def parity_from_name(name):
    if name in (EVEN, ODD):
        return name
    try:
        return {"even": EVEN, "odd": ODD}[name]
    except KeyError:
        raise AlgebraError(f"parity must be 'even' or 'odd', got {name!r}") from None


class Generator:
    """A named generator with a fixed bidegree (degree, parity)."""

    __slots__ = ("id", "name", "degree", "parity")

    def __init__(self, id, name, degree, parity):
        self.id = id
        self.name = name
        self.degree = degree
        self.parity = parity

    @property
    def square_zero(self):
        return (self.degree + self.parity) % 2 == 1

    def __repr__(self):
        return f"Generator({self.name!r}, degree={self.degree}, parity={PARITY_NAMES[self.parity]})"


def is_generator_name(name, field) -> bool:
    """Whether name can name a generator over field: one NAME token, so
    that the element grammar reads it back, and not the imaginary unit `i`
    of a field that has one."""
    return _NAME_RE.fullmatch(name) is not None and not (
        name == "i" and field.has_imaginary_unit
    )


class Algebra:
    """A free bigraded commutative algebra on an ordered list of generators."""

    def __init__(self, generators, field=QQ):
        self.field = field
        gens = []
        by_name = {}
        for i, spec in enumerate(generators):
            name, degree, parity = spec
            if not is_generator_name(name, field):
                raise AlgebraError(f"bad generator name {name!r}")
            parity = parity_from_name(parity)
            if not isinstance(degree, int) or degree < 0:
                raise AlgebraError(f"generator {name!r}: degree must be an integer >= 0")
            if name in by_name:
                raise AlgebraError(f"duplicate generator name {name!r}")
            g = Generator(i, name, degree, parity)
            gens.append(g)
            by_name[name] = g
        self.generators = tuple(gens)
        # the Koszul sign tables mul_monomials reads, indexed by generator id
        self.degrees = tuple(g.degree for g in gens)
        self.parities = tuple(g.parity for g in gens)
        self.by_name = by_name
        self._bases = {}  # (degree, parity) -> sorted monomial basis

    @property
    def has_degree_zero_generator(self):
        return any(g.degree == 0 for g in self.generators)

    def generator(self, name):
        try:
            return self.by_name[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {(): self.field.one})

    def scalar(self, c):
        c = self.field.coerce(c)
        if not c:
            return self.zero()
        return Element(self, {(): c})

    def gen(self, name):
        g = self.generator(name)
        return Element(self, {((g.id, 1),): self.field.one})

    def monomial(self, mono, coeff=None):
        if coeff is None:
            return Element(self, {mono: self.field.one})
        coeff = self.field.coerce(coeff)
        if not coeff:
            return self.zero()
        return Element(self, {mono: coeff})

    def monomial_degree(self, mono):
        degrees = self.degrees
        return sum(e * degrees[i] for i, e in mono)

    def monomial_parity(self, mono):
        parities = self.parities
        return sum(e * parities[i] for i, e in mono) % 2

    def monomial_key(self, mono):
        """Deterministic order: (total degree, dense exponent vector)."""
        exps = [0] * len(self.generators)
        for i, e in mono:
            exps[i] = e
        return (self.monomial_degree(mono), tuple(exps))

    def monomial_basis(self, degree, parity=None):
        """All canonical monomials of the given degree (and parity, if not None).

        Returns them sorted by the deterministic monomial order, as a fresh
        list (each graded piece is enumerated once per algebra).  Requires
        every generator to have degree >= 1, otherwise the graded piece
        would be infinite-dimensional.
        """
        if degree < 0:
            raise AlgebraError("degree must be >= 0")
        if self.has_degree_zero_generator:
            raise AlgebraError("monomial basis undefined: algebra has a degree-0 generator")
        if parity is not None:
            parity = parity_from_name(parity)
        key = (degree, parity)
        if key in self._bases:
            return list(self._bases[key])
        # one generator at a time, without recursion (an algebra may have
        # thousands of generators): the prefixes on the generators so far, by
        # the degree they leave and their parity.  Smaller degrees left go
        # first, so a prefix extended by g is not extended by g again.
        partial = {(degree, EVEN): [()]}
        for g in self.generators:
            top = 1 if g.square_zero else degree
            for remaining, par in sorted(partial):
                prefixes = partial[remaining, par]
                for e in range(1, min(top, remaining // g.degree) + 1):
                    left = (remaining - e * g.degree, (par + e * g.parity) % 2)
                    factor = ((g.id, e),)
                    partial.setdefault(left, []).extend([acc + factor for acc in prefixes])
        pars = (EVEN, ODD) if parity is None else (parity,)
        out = [acc for par in pars for acc in partial.get((0, par), ())]
        del partial  # the other parity and the dead prefixes, before the sort
        out.sort(key=self.monomial_key)
        self._bases[key] = out
        return list(out)

    def format_monomial(self, mono):
        if not mono:
            return "1"
        parts = []
        for i, e in mono:
            name = self.generators[i].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self):
        gens = ", ".join(
            f"{g.name}:({g.degree},{PARITY_NAMES[g.parity]})" for g in self.generators
        )
        return f"Algebra[{self.field.name}]({gens})"


def mul_monomials(algebra, m1, m2):
    """Canonical product of two canonical monomials.

    Returns (sign, monomial) with sign in {+1, -1}, or (0, None) when the
    product vanishes because a square-zero generator is repeated.  The sign
    counts weighted transpositions while merging the two sorted factor
    sequences: moving x past y costs (-1)^(|x||y| + p(x)p(y)).
    """
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    degrees = algebra.degrees
    parities = algebra.parities
    # Suffix weights of m1: total degree and parity count not yet consumed.
    deg_left = par_left = 0
    for i, e in m1:
        deg_left += e * degrees[i]
        par_left += e * parities[i]
    out = []
    sign_exp = 0
    i1 = i2 = 0
    n1, n2 = len(m1), len(m2)
    while i1 < n1 and i2 < n2:
        g1, e1 = m1[i1]
        g2, e2 = m2[i2]
        if g1 < g2:
            out.append((g1, e1))
            deg_left -= e1 * degrees[g1]
            par_left -= e1 * parities[g1]
            i1 += 1
        elif g2 < g1:
            sign_exp += e2 * (degrees[g2] * deg_left + parities[g2] * par_left)
            out.append((g2, e2))
            i2 += 1
        else:
            deg, par = degrees[g1], parities[g1]
            if (deg + par) % 2:
                return 0, None  # a repeated square-zero generator
            deg_left -= e1 * deg
            par_left -= e1 * par
            sign_exp += e2 * (deg * deg_left + par * par_left)
            out.append((g1, e1 + e2))
            i1 += 1
            i2 += 1
    out.extend(m1[i1:])
    out.extend(m2[i2:])
    return (1 if sign_exp % 2 == 0 else -1), tuple(out)


class Element:
    """A finite sum of canonical monomials with nonzero field coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_terms(algebra, items):
        terms = {}
        for mono, coeff in items:
            if not coeff:
                continue
            acc = terms.get(mono)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[mono] = acc
            else:
                del terms[mono]
        return Element(algebra, terms)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def monomials(self):
        return sorted(self.terms, key=self.algebra.monomial_key)

    def bidegree(self):
        """(Z-degree, parity) of a homogeneous nonzero element; None for zero
        or for an inhomogeneous element."""
        alg = self.algebra
        bidegs = {(alg.monomial_degree(m), alg.monomial_parity(m)) for m in self.terms}
        return bidegs.pop() if len(bidegs) == 1 else None

    def is_homogeneous(self):
        """Zero counts as homogeneous."""
        return not self.terms or self.bidegree() is not None

    # -- arithmetic ---------------------------------------------------------

    def _check_same_algebra(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraError("operands belong to different algebras")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same_algebra(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            acc = c if acc is None else acc + c
            if acc:
                terms[m] = acc
            else:
                del terms[m]
        return Element(self.algebra, terms)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        self._check_same_algebra(other)
        terms = {}
        alg = self.algebra
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, m = mul_monomials(alg, m1, m2)
                if sign == 0:
                    continue
                c = c1 * c2
                if sign < 0:
                    c = -c
                acc = terms.get(m)
                acc = c if acc is None else acc + c
                if acc:
                    terms[m] = acc
                else:
                    del terms[m]
        return Element(self.algebra, terms)

    def __rmul__(self, other):
        # scalar * element; multiplication by scalars is commutative
        return self.scale(other)

    def scale(self, c):
        c = self.algebra.field.coerce(c)
        if not c:
            return self.algebra.zero()
        return Element(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("exponent must be a nonnegative integer")
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    # -- printing ------------------------------------------------------------

    def __str__(self):
        from .parsing import format_element

        return format_element(self)

    def __repr__(self):
        return f"<Element {self}>"


def relabel(element, target_algebra, id_map):
    """Move an element into another algebra through a map of generator ids.

    id_map sends every generator id the element uses to a target generator
    id of the same bidegree.  When id_map is strictly increasing on those
    ids, each monomial keeps its factor order and no sign arises.  Otherwise
    each monomial is rebuilt with `mul_monomials`, so a change of relative
    generator order picks up its Koszul sign.
    """
    field = target_algebra.field
    used = sorted({gid for mono in element.terms for gid, _ in mono})
    targets = [id_map[gid] for gid in used]
    if all(a < b for a, b in zip(targets, targets[1:])):
        return Element(
            target_algebra,
            {
                tuple((id_map[gid], exp) for gid, exp in mono): field.coerce(coeff)
                for mono, coeff in element.terms.items()
            },
        )
    items = []
    for mono, coeff in element.terms.items():
        sign = 1
        new = ()
        for gid, exp in mono:
            s, new = mul_monomials(target_algebra, new, ((id_map[gid], exp),))
            if s == 0:
                raise AlgebraError("relabel produced a vanishing monomial")
            sign *= s
        c = field.coerce(coeff)
        items.append((new, c if sign > 0 else -c))
    return Element.from_terms(target_algebra, items)


def transport(element, target_algebra):
    """Re-express an element in another algebra, matching generators by name.

    Used to compare elements built over two independently constructed copies
    of the same presentation; an extension moves elements by id instead, and
    back through `Morphism.restrict`.  Each generator used by the element
    must exist in the target with the same (degree, parity); the target's
    generator order may differ.
    """
    src = element.algebra
    if target_algebra is src:
        return element
    id_map = {}
    for mono in element.terms:
        for gid, _ in mono:
            if gid in id_map:
                continue
            g = src.generators[gid]
            h = target_algebra.generator(g.name)
            if (h.degree, h.parity) != (g.degree, g.parity):
                raise AlgebraError(f"generator {g.name!r} has different bidegree in target")
            id_map[gid] = h.id
    return relabel(element, target_algebra, id_map)


def derivation_table(images):
    """The image table `extend_derivation` reads for a derivation given on
    generators.

    images maps generator id -> Element.  Returns (D, table): D is the
    least common denominator of every image coefficient, and table maps each
    generator with a nonzero image to its ((monomial, c*D), ...) pairs.
    Each c*D is a Python int when c is real, and a GaussianRational with
    integral parts otherwise.
    """
    den = lcm(*{_denominator(c) for img in images.values() for c in img.terms.values()})
    table = {
        gid: tuple((m, _numerator(c, den)) for m, c in img.terms.items())
        for gid, img in images.items()
        if img.terms
    }
    return den, table


def _denominator(c):
    if type(c) is GaussianRational:
        return lcm(c.re.denominator, c.im.denominator)
    return c.denominator


def _numerator(c, den):
    """c * den, for den a multiple of the denominator of c."""
    if type(c) is GaussianRational:
        return c * den
    return c.numerator * (den // c.denominator)


def extend_derivation(algebra, table, element):
    """Leibniz extension of an odd-degree derivation given on generators.

    table is the derivation's `derivation_table`; generators without an
    entry map to zero.  Each factor g^exp contributes exp terms, the j-th
    with sign (-1)^(degree of everything to its left) and
    g^j * D(g) * g^(exp-j-1) in its place.  When exp >= 2, g commutes with
    itself, so g^2 commutes with everything and the j-th term equals the
    (j+2)-th: only j = 0 and j = 1 are formed, weighted by how many j of
    their parity there are.

    The sums run on integer numerators: the table's coefficients are scaled
    by its denominator D and the element's by their own common denominator
    E, so the loop adds Python ints (GaussianRationals with integral parts
    where a coefficient is not real).  Each nonzero sum becomes a field
    scalar once, divided by D*E; a sum that cancels builds no scalar.
    """
    den, images = table
    terms = element.terms
    scale = lcm(*{_denominator(c) for c in terms.values()})
    degrees = algebra.degrees
    acc = {}
    for mono, coeff in terms.items():
        num = _numerator(coeff, scale)
        prefix_degree = 0
        for pos, (gid, exp) in enumerate(mono):
            dgen = images.get(gid)
            if dgen is not None:
                for j in range(min(exp, 2)):
                    weight = (exp - j + 1) // 2  # the j' < exp with j' = j mod 2
                    nw = num * weight
                    left = mono[:pos] + (((gid, j),) if j else ())
                    right = (((gid, exp - j - 1),) if exp - j - 1 else ()) + mono[pos + 1 :]
                    sign = (prefix_degree + j * degrees[gid]) % 2
                    for m2, c2 in dgen:
                        s1, m12 = mul_monomials(algebra, left, m2)
                        if s1 == 0:
                            continue
                        if right:
                            s2, m_all = mul_monomials(algebra, m12, right)
                            if s2 == 0:
                                continue
                        else:
                            s2, m_all = 1, m12
                        c = nw * c2
                        if (sign == 1) ^ (s1 < 0) ^ (s2 < 0):
                            c = -c
                        prev = acc.get(m_all)
                        acc[m_all] = c if prev is None else prev + c
            prefix_degree += exp * degrees[gid]
    den *= scale
    return Element(
        algebra,
        {m: Fraction(v, den) if type(v) is int else v / den for m, v in acc.items() if v},
    )
