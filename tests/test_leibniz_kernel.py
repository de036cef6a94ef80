"""The integer-numerator Leibniz kernel against the Fraction loop it runs in
place of (oracles.extend_derivation): the same terms in the same order, and
the same scalar type for every coefficient."""

import random
from fractions import Fraction

import pytest

from sullivan.algebra import Algebra, derivation_table, extend_derivation
from sullivan.constructions import cyclify, loopify
from sullivan.fields import QI, GaussianRational
from sullivan.superminkowski import build_superminkowski
from sullivan.tduality import LIBRARY, cyc_lS4, library_presentation

import oracles
from samples import fractions, gaussians, integers, random_homogeneous


def _assert_matches_oracle(got, alg, images, element):
    want = oracles.extend_derivation(alg, images, element)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
    assert all(type(c) in (Fraction, GaussianRational) for c in got.terms.values())


def _random_element(rng, alg, max_degree, scalars):
    """A sum of two random homogeneous elements, possibly of different degrees."""
    return sum(
        (
            random_homogeneous(rng, alg, rng.randint(0, max_degree), 4, rng.choice(scalars))
            for _ in range(2)
        ),
        alg.zero(),
    )


def _check_apply_d(pres, rng, max_degree, scalars, count):
    alg = pres.algebra
    for _ in range(count):
        e = _random_element(rng, alg, max_degree, scalars)
        _assert_matches_oracle(pres.apply_d(e), alg, pres.differentials, e)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_apply_d_matches_oracle_on_library(name):
    pres = library_presentation(name)
    rng = random.Random(f"kernel {name}")
    _check_apply_d(pres, rng, 8, [integers(5), fractions], 40)


def test_apply_d_matches_oracle_on_cyc_cyc_lS4():
    rng = random.Random("kernel cyc(cyc_lS4)")
    _check_apply_d(cyclify(cyc_lS4()).presentation, rng, 8, [fractions], 60)


@pytest.mark.parametrize("name", ["lS4", "lS7", "b3u1", "btfold"])
def test_loop_shift_matches_oracle(name):
    loop = loopify(library_presentation(name))
    alg = loop.presentation.algebra
    rng = random.Random(f"kernel shift {name}")
    shift = {alg.generator(g).id: alg.gen(s) for g, s in loop.shift_names.items()}
    # the shift itself (table denominator 1) and a rescaled copy of it
    scaled = {gid: img.scale(fractions(rng)) for gid, img in shift.items()}
    for images in (shift, scaled):
        table = derivation_table(images)
        for _ in range(30):
            e = _random_element(rng, alg, 8, [integers(5), fractions])
            _assert_matches_oracle(extend_derivation(alg, table, e), alg, images, e)


@pytest.fixture(scope="module")
def sm():
    return build_superminkowski()


@pytest.mark.parametrize("which", ["base", "extA", "extB"])
def test_apply_d_matches_oracle_on_superminkowski(sm, which):
    pres = {"base": sm.base, "extA": sm.extA.total, "extB": sm.extB.total}[which]
    rng = random.Random(f"kernel superminkowski {which}")
    _check_apply_d(pres, rng, 3, [fractions, gaussians], 40)


def test_non_real_derivation_matches_oracle():
    # Q(i) images with nonzero imaginary parts: the table's numerators are
    # GaussianRationals, and sums of them may cancel to real values
    classes = [(1, "even"), (1, "odd"), (2, "even"), (2, "odd"), (3, "even"), (3, "odd")]
    alg = Algebra([(f"g{i}", deg, par) for i, (deg, par) in enumerate(classes)], QI)
    rng = random.Random("kernel non-real")
    for _ in range(20):
        images = {
            g.id: random_homogeneous(rng, alg, g.degree + 1, 3, gaussians, g.parity)
            for g in alg.generators
        }
        table = derivation_table(images)
        for _ in range(10):
            e = _random_element(rng, alg, 6, [integers(3), fractions, gaussians])
            _assert_matches_oracle(extend_derivation(alg, table, e), alg, images, e)
