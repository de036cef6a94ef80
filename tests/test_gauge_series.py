"""The exact length of the gauge series e^{u^{-1} b}, against the capped
powering loop in tests/oracles.py."""

import random

import pytest

from sullivan.algebra import EVEN
from sullivan.superminkowski import build_superminkowski
from sullivan.tduality import btfold_quintuple, cyc_lS4
from sullivan.twisted import TwistError, gauge_transform

import oracles
from samples import integers, random_cochain, random_homogeneous

# the T-fold total, where yc1 and yt1 are square-zero; super-Minkowski extA,
# where the e's are square-zero and the psi's, of bidegree (1, odd), are of
# polynomial type; and cyc(lS4), whose degree 2 holds w2 alone
TOTALS = {
    "tfold": lambda: btfold_quintuple().quintuple.total,
    "extA": lambda: build_superminkowski().extA.total,
    "cyc_lS4": cyc_lS4,
}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_gauge_series_matches_the_capped_oracle(name):
    pres = TOTALS[name]()
    alg = pres.algebra
    # a nilpotent b in an algebra with n square-zero generators has
    # b^(n+1) = 0, so this cap never cuts a series short
    cap = sum(g.square_zero for g in alg.generators) + 1
    rng = random.Random(f"gauge series {name}")
    nilpotent = [
        mono
        for mono in alg.monomial_basis(2, EVEN)
        if any(alg.generators[gid].square_zero for gid, _ in mono)
    ]
    refused = summed = 0
    for _ in range(24):
        # half the time one monomial from the whole degree-2 piece, plus up
        # to six with a square-zero factor
        b = random_homogeneous(rng, alg, 2, rng.randint(0, 1), integers(3), EVEN)
        for _ in range(rng.randint(1, 6) if nilpotent else 0):
            b = b + alg.monomial(rng.choice(nilpotent), rng.randint(-3, 3))
        w = random_cochain(rng, pres, rng.randint(0, 2), window=2)
        want = oracles.gauge_series(b, w, cap)
        if want is None:
            with pytest.raises(TwistError, match="not nilpotent"):
                gauge_transform(b, w)
            refused += 1
        else:
            assert gauge_transform(b, w) == want
            summed += 1
    assert refused and summed
