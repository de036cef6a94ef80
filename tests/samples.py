"""Seeded random homogeneous elements, shared by the tests so that a seed
draws the same elements wherever it is used."""

from fractions import Fraction

from sullivan.fields import GaussianRational


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
