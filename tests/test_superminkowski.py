"""Clifford data, psi-bilinears, super-Minkowski presentations, string
cocycles, and the twisted-complex exchange between the two extensions."""

import subprocess
import sys

import pytest

from sullivan.fields import QI
from sullivan.superminkowski import (
    GammaData,
    _matmul,
    bilinear,
    bilinear_symmetry,
    build_gamma,
    build_superminkowski,
    hori_pipeline,
    mu_f1,
    verify_report,
)


@pytest.fixture(scope="module")
def gd() -> GammaData:
    return build_gamma()


@pytest.fixture(scope="module")
def sm(gd):
    return build_superminkowski(gd)


@pytest.fixture(scope="module")
def cocycles(sm):
    return mu_f1(sm)


def eye(n, scale=1):
    return {(i, i): scale for i in range(n)}


def dense(m, n):
    return [[m.get((i, j), 0) for j in range(n)] for i in range(n)]


def test_anticommutators(gd):
    for a in range(9):
        for b in range(9):
            ab = dense(_matmul(gd.gamma[a], gd.gamma[b]), 16)
            ba = dense(_matmul(gd.gamma[b], gd.gamma[a]), 16)
            anti = [[x + y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
            expected = dense(eye(16, 2 * gd.eta[a]) if a == b else {}, 16)
            assert anti == expected, (a, b)


def test_squares_follow_recorded_signature(gd):
    for a in range(9):
        assert _matmul(gd.gamma[a], gd.gamma[a]) == eye(16, gd.eta[a])
    # over Q the timelike square is forced to +1 (mostly-minus signature)
    assert gd.eta[0] == 1 and all(e == -1 for e in gd.eta[1:])
    assert gd.lowering_eta == [-e for e in gd.eta]


def test_g9b_identity(gd):
    i = QI.imaginary_unit()
    lhs = {key: i * v for key, v in _matmul(gd.G9A, gd.G10).items()}
    assert lhs == gd.G9B


def test_convention_report_recorded(gd):
    text = "\n".join(gd.report)
    assert "mostly-plus (eta_00 = -1): rejected" in text
    assert "mostly-minus (eta_00 = +1): accepted" in text
    assert "charge conjugation" in text
    assert "index lowering" in text


def test_bilinear_antisymmetric_matrix_gives_zero(gd, sm):
    # C squares to the identity, so M = C A with A antisymmetric has C M = A
    A = {(0, 1): 1, (1, 0): -1}
    assert _matmul(gd.C, gd.C) == eye(32)
    M = _matmul(gd.C, A)
    assert bilinear_symmetry(gd, M) == "antisymmetric"
    assert bilinear(gd, sm.base.algebra, M).is_zero()


def test_bilinear_identity_matrix(gd, sm):
    ident = eye(32)
    assert bilinear_symmetry(gd, ident) == "symmetric"
    assert not bilinear(gd, sm.base.algebra, ident).is_zero()


def test_bilinear_g9a_is_c2a(gd, sm):
    assert bilinear(gd, sm.base.algebra, gd.G9A) == sm.c2A
    assert bilinear_symmetry(gd, gd.G9A) == "symmetric"
    assert bilinear_symmetry(gd, gd.G9B) == "symmetric"


def test_presentations_pass_d_squared(sm):
    assert sm.base.verify_d_squared() is None
    assert sm.extA.total.verify_d_squared() is None
    assert sm.extB.total.verify_d_squared() is None


def test_extension_differentials(sm):
    assert sm.extA.total.d_of_generator("e9A") == sm.extA.inclusion.apply(sm.c2A)
    assert sm.extB.total.d_of_generator("e9B") == sm.extB.inclusion.apply(sm.c2B)


def test_c2_cocycles_real_and_independent(sm):
    from sullivan.linalg import rank

    for c in (sm.c2A, sm.c2B):
        assert all(QI.is_real(x) for x in c.terms.values())
        assert sm.base.is_cocycle(c)
    monomials = sorted(set(sm.c2A.terms) | set(sm.c2B.terms))
    rows = [
        [c.terms.get(m, QI.zero) for m in monomials]
        for c in (sm.c2A, sm.c2B)
    ]
    assert rank(rows, QI) == 2


def test_de_real_coefficients(sm):
    for a in range(9):
        de = sm.base.d_of_generator(f"e{a}")
        assert not de.is_zero()
        assert all(QI.is_real(c) for c in de.terms.values())


def test_mu81_trivializes_the_product(sm, cocycles):
    assert sm.base.apply_d(cocycles.mu81) == sm.c2A * sm.c2B
    assert all(QI.is_real(c) for c in cocycles.mu81.terms.values())


def test_mu_iia_is_a_cocycle(sm, cocycles):
    assert sm.extA.total.is_cocycle(cocycles.muA)
    assert sm.extB.total.is_cocycle(cocycles.muB)


def test_mu_iia_completion_formula(sm, cocycles):
    inclA = sm.extA.inclusion
    e9A = sm.extA.total.algebra.gen("e9A")
    assert cocycles.muA == inclA.apply(cocycles.mu81) - e9A * inclA.apply(sm.c2B)
    inclB = sm.extB.inclusion
    e9B = sm.extB.total.algebra.gen("e9B")
    assert cocycles.muB == inclB.apply(cocycles.mu81) - inclB.apply(sm.c2A) * e9B


def test_quartic_scale(cocycles):
    # the closure of muA is a genuinely quartic cancellation
    assert len(cocycles.muA.terms) > 100


def test_verify_report_passes():
    rep = verify_report()
    assert rep.passed, str(rep)


def test_hori_pipeline_smoke():
    rep = hori_pipeline(samples=5, window=3)
    assert rep.passed, str(rep)


def test_matrices_match_numpy_oracle(gd):
    np = pytest.importorskip("numpy")
    letters = {
        "1": [[1, 0], [0, 1]],
        "s": [[0, 1], [1, 0]],
        "t": [[1, 0], [0, -1]],
        "e": [[0, -1], [1, 0]],
    }
    accepted = next(line for line in gd.report if "accepted" in line)
    words = accepted.split("words = ")[1].split()
    assert len(words) == 9
    for word, g in zip(words, gd.gamma):
        m = np.array(letters[word[0]], dtype=object)
        for ch in word[1:]:
            m = np.kron(m, np.array(letters[ch], dtype=object))
        assert dense(g, 16) == m.tolist(), word
    C = np.array(dense(gd.C, 32), dtype=object)
    for G in [*gd.Gamma, gd.G9A, gd.G9B]:
        assert dense(_matmul(gd.C, G), 32) == np.dot(C, np.array(dense(G, 32), dtype=object)).tolist()


def test_import_leaves_numpy_out():
    code = "import sys, sullivan.superminkowski; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_cli_out():
    # the CLI imports superminkowski, never the reverse: under python -m
    # sullivan.cli a reverse import would execute the CLI module twice
    code = "import sys, sullivan.superminkowski; print('sullivan.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
