"""Seeded random elements and twisted cochains, shared by the tests so that
a seed draws the same inputs wherever it is used."""

from fractions import Fraction

from sullivan.fields import QI, GaussianRational
from sullivan.twisted import TwistedCochain


def integers(bound):
    """Scalars Fraction(k) with k uniform in -bound..bound (zero included)."""
    return lambda rng: Fraction(rng.randint(-bound, bound))


def fractions(rng):
    """Nonzero rationals with numerators up to 9 and denominators up to 6."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))


def gaussians(rng):
    """Q(i) scalars a + b*i with a, b from `fractions` or zero; b is nonzero
    three times in four."""
    re = fractions(rng) if rng.random() < 0.75 else 0
    im = fractions(rng) if rng.random() < 0.75 else 0
    return GaussianRational(re, im) if re or im else fractions(rng)


def random_homogeneous(rng, alg, degree, terms=3, scalar=integers(5), parity=None):
    """A sum of up to `terms` monomials, each drawn from
    alg.monomial_basis(degree, parity) with a coefficient from scalar(rng);
    zero if that graded piece is empty."""
    out = alg.zero()
    basis = alg.monomial_basis(degree, parity)
    for _ in range(terms):
        if not basis:
            break
        out = out + alg.monomial(rng.choice(basis), scalar(rng))
    return out


def random_element(rng, alg):
    """A sum of up to four monomials of degrees drawn from 0..6, of either
    parity, so in general inhomogeneous; coefficients k + l*i with k in
    -4..4, and l in -2..2 over Q(i) only."""
    field = alg.field
    out = alg.zero()
    for _ in range(4):
        basis = alg.monomial_basis(rng.randint(0, 6))
        if basis:
            coeff = field.coerce(rng.randint(-4, 4))
            if field is QI:
                coeff = coeff + QI.imaginary_unit() * rng.randint(-2, 2)
            out = out + alg.monomial(rng.choice(basis), coeff)
    return out


def random_cochain(rng, pres, k, window=8):
    """A twisted cochain of total degree k with up to three terms, each an
    even monomial of component degree within 0..window and a coefficient in
    -5..5."""
    comps = {}
    m_min = -((window - k) // 2)
    for _ in range(3):
        m = rng.randint(m_min, k // 2)
        basis = pres.algebra.monomial_basis(k - 2 * m, 0)
        if not basis:
            continue
        e = pres.algebra.monomial(rng.choice(basis), Fraction(rng.randint(-5, 5)))
        comps[m] = comps[m] + e if m in comps else e
    return TwistedCochain(pres, k, {m: e for m, e in comps.items() if not e.is_zero()})
