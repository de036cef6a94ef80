"""Clifford data, psi-bilinears, super-Minkowski presentations, string
cocycles, and the twisted-complex exchange between the two extensions."""

import random
import subprocess
import sys

import pytest

from sullivan.fields import QI
from sullivan.superminkowski import (
    GammaData,
    _is_symmetric,
    _matmul,
    bilinear,
    build_gamma,
    build_superminkowski,
    hori_pipeline,
    mu_f1,
    verify_report,
)

import oracles


@pytest.fixture(scope="module")
def sm():
    return build_superminkowski()


@pytest.fixture(scope="module")
def gd(sm) -> GammaData:
    return sm.gamma_data


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
    # the search order of the word family
    assert "words = 111s 111e 11et 1est sett tett e1tt esst etst" in text
    assert "charge conjugation" in text
    assert "index lowering" in text


def bilinear_symmetry(gd, M):
    """Whether C M is symmetric, antisymmetric or neither."""
    CM = _matmul(gd.C, M)
    if _is_symmetric(CM):
        return "symmetric"
    anti = all(CM.get((j, i), 0) == -v for (i, j), v in CM.items())
    return "antisymmetric" if anti else "mixed"


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


def bilinear_matrices(gd):
    """Every matrix M the module passes to bilinear, by name."""
    ms = {f"Gamma^{a}": gd.Gamma[a] for a in range(9)}
    ms.update({"G9A": gd.G9A, "G9B": gd.G9B})
    ms.update({f"Gamma_{a} G10": _matmul(gd.Gamma_lower(a), gd.G10) for a in range(9)})
    ms.update({"G9A G10": _matmul(gd.G9A, gd.G10), "G9B G10": _matmul(gd.G9B, gd.G10)})
    return ms


def signed_permutation(rng, signs):
    perm = list(range(32))
    rng.shuffle(perm)
    return {(i, j): rng.choice(signs) for i, j in enumerate(perm)}


def test_bilinear_matches_dense_oracle(gd, sm):
    i = QI.imaginary_unit()
    matrices = bilinear_matrices(gd)
    matrices["identity"] = eye(32)
    matrices["antisymmetric"] = _matmul(gd.C, {(0, 1): 1, (1, 0): -1})
    rng = random.Random(20140901)
    for n in range(10):
        matrices[f"random {n}"] = signed_permutation(rng, [1, -1, i, -i])
    for alg in (sm.base.algebra, sm.extA.total.algebra):
        for name, M in matrices.items():
            assert bilinear(gd, alg, M) == oracles.bilinear(gd, alg, M), name


def test_block_forms(gd):
    # Gamma^a = [[0, eta_a g_a], [eta_a g_a, 0]], G9A = [[0, I], [-I, 0]],
    # G9B = [[0, I], [I, 0]], G10 = i [[I, 0], [0, -I]], entry by entry
    i = QI.imaginary_unit()
    for a in range(9):
        up = {key: gd.eta[a] * v for key, v in gd.gamma[a].items()}
        expected = {(r, c + 16): v for (r, c), v in up.items()}
        expected.update({(r + 16, c): v for (r, c), v in up.items()})
        assert gd.Gamma[a] == expected, a
    assert gd.G9A == {**{(r, r + 16): 1 for r in range(16)}, **{(r + 16, r): -1 for r in range(16)}}
    assert gd.G9B == {**{(r, r + 16): 1 for r in range(16)}, **{(r + 16, r): 1 for r in range(16)}}
    assert gd.G10 == {(r, r): i if r < 16 else -i for r in range(32)}


def test_every_bilinear_coefficient_matrix_is_symmetric(gd):
    for name, M in bilinear_matrices(gd).items():
        CM = dense(_matmul(gd.C, M), 32)
        assert CM == [list(col) for col in zip(*CM)], name


def test_verify_report_reports_what_build_gamma_checked(monkeypatch):
    from sullivan import superminkowski

    counts = {"_matmul": 0, "_verify_clifford": 0}
    for name in counts:
        original = getattr(superminkowski, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(superminkowski, name, counted)
    rep = verify_report()
    assert rep.passed, str(rep)
    # build_gamma's own checks, each made once (186 products and 2 Clifford
    # checks when the report re-ran them)
    assert counts == {"_matmul": 93, "_verify_clifford": 1}


def test_presentations_pass_d_squared(sm):
    oracles.assert_d_squared_zero(sm.base)
    oracles.assert_d_squared_zero(sm.extA.total)
    oracles.assert_d_squared_zero(sm.extB.total)


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
        {i: c.terms[m] for i, m in enumerate(monomials) if m in c.terms}
        for c in (sm.c2A, sm.c2B)
    ]
    assert rank(rows, QI, len(monomials)) == 2


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


def test_string_twisted_cohomology_odd_window_two(sm, cocycles):
    # over Q(i); every a*w of a parity-1 basis cochain leaves the window
    from sullivan.twisted import TwistSpec, twisted_cohomology

    for ext, mu in ((sm.extA, cocycles.muA), (sm.extB, cocycles.muB)):
        rep = twisted_cohomology(TwistSpec(ext.total, mu), 1, 2)
        assert rep.dim == 0
        assert rep.representatives == []


def test_string_twisted_cohomology_even_window_two(sm, cocycles):
    from sullivan.twisted import TwistSpec, twisted_cohomology

    for ext, mu in ((sm.extA, cocycles.muA), (sm.extB, cocycles.muB)):
        assert twisted_cohomology(TwistSpec(ext.total, mu), 0, 2).dim == 564


def test_string_twisted_cohomology_window_three(sm, cocycles, monkeypatch):
    from sullivan import twisted
    from sullivan.twisted import TwistSpec, twisted_cohomology

    for ext, mu in ((sm.extA, cocycles.muA), (sm.extB, cocycles.muB)):
        twist = TwistSpec(ext.total, mu)
        assert twisted_cohomology(twist, 0, 3).dim == 518
        assert twisted_cohomology(twist, 1, 3).dim == 5354
    # the same complex through the three-step kernel-mod-image reference
    twist = TwistSpec(sm.extA.total, cocycles.muA)
    rep = twisted_cohomology(twist, 1, 3)
    monkeypatch.setattr(twisted, "homology", oracles.homology)
    expected = twisted_cohomology(twist, 1, 3)
    assert [str(r) for r in rep.representatives] == [str(r) for r in expected.representatives]


def test_cohomology_to_degree_two(sm):
    # dims agree with the dense elimination that sparse elimination replaced
    from sullivan.dgca import cohomology

    assert cohomology(sm.base, 2).dims == [1, 32, 519]
    assert cohomology(sm.extA.total, 2).dims == [1, 32, 518]
    assert cohomology(sm.extB.total, 2).dims == [1, 32, 518]


def test_quartic_scale(cocycles):
    # the closure of muA is a genuinely quartic cancellation
    assert len(cocycles.muA.terms) > 100


def test_verify_report_passes():
    rep = verify_report()
    assert rep.passed, str(rep)


def test_hori_pipeline_smoke():
    rep = hori_pipeline(seed=20140901, samples=5, window=3)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("samples, window", [(0, 3), (-3, 3), (5, -1)])
def test_hori_pipeline_refuses_bad_counts_before_building(monkeypatch, samples, window):
    from sullivan import superminkowski

    def build(*args, **kwargs):
        raise AssertionError("refused arguments must not build anything")

    monkeypatch.setattr(superminkowski, "build_superminkowski", build)
    with pytest.raises(ValueError, match="samples >= 1 and window >= 0"):
        hori_pipeline(seed=20140901, samples=samples, window=window)


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
