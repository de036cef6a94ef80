"""Clifford data for the 9-dimensional Lorentzian spinor representation, the
super-Minkowski presentations, the string 3-cocycles, and the end-to-end
T-duality verification between their twisted complexes.

Conventions (all selected by deterministic searches and checked once, at
construction, never assumed):

* The nine 16x16 gamma matrices are 4-fold tensor words in the real 2x2
  matrices {I, sigma, tau, eps}.  Over the rationals a real 16-dimensional
  representation forces the mostly-minus Clifford signature
  eta = (+1, -1, ..., -1): a mostly-plus family of tensor words cannot
  exist, because the product of nine pairwise-anticommuting words is central
  (so equal to +-identity, of square +I) while also squaring to the product
  of the nine individual squares, which would be -I.  The failed default and
  the fallback are recorded in the construction report.
* The charge conjugation matrix is found by searching the block candidates
  built from gamma_0 for the one making every coefficient matrix
  C Gamma^a, C Gamma_9_IIA, C Gamma_9_IIB symmetric (symmetry is what makes
  the psi-bilinears nonzero, since the psi generators commute).
* The string cocycle lowers its vector index with the spacetime metric; the
  mostly-plus choice diag(-1, +1, ..., +1) is tried first and confirmed by
  the exact quartic identity d mu = c2_IIA * c2_IIB.

A psi-bilinear is summed from the nonzero entries of C M alone, and
`verify_report` reports the invariants that `build_gamma` checks.
"""

from __future__ import annotations

import itertools

from .algebra import Algebra, Element
from .constructions import central_extension
from .dgca import Presentation
from .fields import QI
from .report import Report
from .tduality import derive_quintuple, validate_config
from .twisted import fm_inverse, fm_transform, random_twisted_cochain

# Matrices are sparse dicts {(row, col): nonzero entry}; every one used here
# is a signed permutation, scaled by i in the case of G10.
_LETTERS = {
    "1": {(0, 0): 1, (1, 1): 1},
    "s": {(0, 1): 1, (1, 0): 1},
    "t": {(0, 0): 1, (1, 1): -1},
    "e": {(0, 1): -1, (1, 0): 1},
}


class CliffordError(RuntimeError):
    pass


def _word_matrix(word):
    """Kronecker product of the 2x2 letters of the word, left to right."""
    m = {(0, 0): 1}
    for ch in word:
        m = {
            (2 * i + k, 2 * j + l): a * b
            for (i, j), a in m.items()
            for (k, l), b in _LETTERS[ch].items()
        }
    return m


def _words_anticommute(u, v):
    hits = sum(1 for a, b in zip(u, v) if a != "1" and b != "1" and a != b)
    return hits % 2 == 1


def _search_word_family(squares):
    """First family of pairwise-anticommuting tensor words with the given
    squares (+1 words have an even number of 'e' letters, -1 words odd).

    Returns (words, None) on success or (None, reason) when the family
    cannot exist: the product of nine pairwise-anticommuting words is a
    central real element, hence +-identity with square +I, but it also
    squares to the product of the individual squares."""
    total = 1
    for s in squares:
        total *= s
    if total != 1:
        return None, (
            "no real tensor-word family: the product of all nine generators "
            "must square to +1, but the requested signature gives "
            f"{total}"
        )
    all_words = ["".join(p) for p in itertools.product("1ste", repeat=4)]
    even_e = [w for w in all_words if w.count("e") % 2 == 0 and w != "1111"]
    odd_e = [w for w in all_words if w.count("e") % 2 == 1]
    pools = [even_e if s == 1 else odd_e for s in squares]

    def extend(chosen, prev):
        """The first completion of chosen, depth first; prev is the pool
        index of its last word.  From the third word on, a word drawn from
        the same pool as the word before starts past that word."""
        level = len(chosen)
        if level == len(pools):
            return chosen
        pool = pools[level]
        start = prev + 1 if level >= 2 and pool is pools[level - 1] else 0
        for k in range(start, len(pool)):
            if all(_words_anticommute(pool[k], c) for c in chosen):
                found = extend(chosen + [pool[k]], k)
                if found:
                    return found
        return None

    words = extend([], -1)
    if words is None:
        return None, "exhaustive tensor-word search found no family"
    return words, None


def _eye(n):
    return {(i, i): 1 for i in range(n)}


def _scale(m, c):
    return {key: c * v for key, v in m.items()}


def _block(a, b, c, d):
    """The 32x32 matrix [[a, b], [c, d]] of four 16x16 blocks."""
    return {
        (i + r, j + s): v
        for m, r, s in ((a, 0, 0), (b, 0, 16), (c, 16, 0), (d, 16, 16))
        for (i, j), v in m.items()
    }


def _matmul(A, B):
    """Exact product, walking the nonzero entries only."""
    b_rows = {}
    for (l, j), b in B.items():
        b_rows.setdefault(l, []).append((j, b))
    out = {}
    for (i, l), a in A.items():
        for j, b in b_rows.get(l, ()):
            out[i, j] = out.get((i, j), 0) + a * b
    return {key: v for key, v in out.items() if v}


def _is_symmetric(m):
    return all(m.get((j, i), 0) == v for (i, j), v in m.items())


class GammaData:
    """The verified Clifford/bilinear data.

    gamma        -- nine 16x16 integer matrices, gamma_a gamma_b + gamma_b
                    gamma_a = 2 eta_ab I with eta the recorded signature
    eta          -- the Clifford signature vector (mostly-minus over Q)
    lowering_eta -- the spacetime metric used to lower the index in the
                    string cocycle (recorded, verified by the cocycle tests)
    C            -- 32x32 charge conjugation matrix
    Gamma        -- the nine 32x32 matrices with off-diagonal blocks gamma^a
    G9A, G9B, G10 -- the extra Dirac matrices; G9B = i * G9A * G10
    report       -- convention choices, as stable text lines
    """

    def __init__(self, gamma, eta, lowering_eta, C, Gamma, G9A, G9B, G10, report):
        self.gamma = gamma
        self.eta = eta
        self.lowering_eta = lowering_eta
        self.C = C
        self.Gamma = Gamma
        self.G9A = G9A
        self.G9B = G9B
        self.G10 = G10
        self.report = report

    def Gamma_lower(self, a):
        """Index lowered with the spacetime metric (not the Clifford signature)."""
        return _scale(self.Gamma[a], self.lowering_eta[a])


def _verify_clifford(gamma, eta):
    """gamma_a gamma_b + gamma_b gamma_a = 2 eta_ab I, checked as
    gamma_a^2 = eta_a I and gamma_a gamma_b = -gamma_b gamma_a for a != b."""
    for a in range(9):
        for b in range(a, 9):
            ab = _matmul(gamma[a], gamma[b])
            if a == b:
                ok = ab == _scale(_eye(16), eta[a])
            else:
                ok = ab == _scale(_matmul(gamma[b], gamma[a]), -1)
            if not ok:
                raise CliffordError(f"anticommutator relation fails at pair ({a}, {b})")


def build_gamma() -> GammaData:
    """Construct and verify the full Clifford/bilinear data.

    Every invariant failure aborts with the failed relation; the chosen
    conventions are recorded in the report."""
    report = []

    words = None
    eta = None
    for signature, label in (
        ([-1] + [1] * 8, "mostly-plus (eta_00 = -1)"),
        ([1] + [-1] * 8, "mostly-minus (eta_00 = +1)"),
    ):
        found, reason = _search_word_family(signature)
        if found is None:
            report.append(f"signature {label}: rejected ({reason})")
            continue
        words, eta = found, signature
        report.append(f"signature {label}: accepted, words = {' '.join(words)}")
        break
    if words is None:
        raise CliffordError("no Clifford representation found for either signature")

    gamma = [_word_matrix(w) for w in words]
    _verify_clifford(gamma, eta)

    Gamma = [_block({}, _scale(g, e), _scale(g, e), {}) for g, e in zip(gamma, eta)]
    i16, minus_i16 = _eye(16), _scale(_eye(16), -1)
    G9A = _block({}, i16, minus_i16, {})
    G9B = _block({}, i16, i16, {})
    imag = QI.imaginary_unit()
    G10 = _scale(_block(i16, {}, {}, minus_i16), imag)

    # G9B = i * G9A * G10, by construction of the blocks; verified, not assumed
    if _scale(_matmul(G9A, G10), imag) != G9B:
        raise CliffordError("identity G9B = i * G9A * G10 fails")

    g0 = gamma[0]
    minus_g0 = _scale(g0, -1)
    candidates = [
        ("off-diagonal [[0, g0], [g0, 0]]", _block({}, g0, g0, {})),
        ("off-diagonal [[0, g0], [-g0, 0]]", _block({}, g0, minus_g0, {})),
        ("diagonal [[g0, 0], [0, g0]]", _block(g0, {}, {}, g0)),
        ("diagonal [[g0, 0], [0, -g0]]", _block(g0, {}, {}, minus_g0)),
    ]
    C = None
    for label, cand in candidates:
        if all(_is_symmetric(_matmul(cand, G)) for G in [*Gamma, G9A, G9B]):
            C = cand
            report.append(f"charge conjugation: {label} (all bilinear matrices symmetric)")
            break
        report.append(f"charge conjugation candidate {label}: rejected (asymmetric bilinear)")
    if C is None:
        raise CliffordError("no charge conjugation candidate satisfies the symmetry invariant")

    # the spacetime metric for index lowering; confirmed later by the exact
    # quartic cocycle identity, which fails under the opposite choice
    lowering = [-e for e in eta]
    report.append(
        "index lowering metric: "
        + ("mostly-plus diag(-1, +1, ..., +1)" if lowering[0] == -1 else "mostly-minus")
    )

    gd = GammaData(
        gamma=gamma,
        eta=eta,
        lowering_eta=lowering,
        C=C,
        Gamma=Gamma,
        G9A=G9A,
        G9B=G9B,
        G10=G10,
        report=report,
    )
    return gd


def bilinear(gd: GammaData, algebra, M) -> Element:
    """(C M)_{alpha beta} psi^alpha psi^beta as an element.

    Each nonzero entry (a, b) of C M adds to the coefficient of
    psi^a psi^b, a diagonal one to (psi^a)^2.  The psi generators commute,
    so (a, b) and (b, a) land on one monomial: only the symmetric part of
    C M survives, and an antisymmetric C M gives zero."""
    psi_ids = [algebra.generator(f"psi{k}").id for k in range(1, 33)]
    items = []
    for (a, b), c in _matmul(gd.C, M).items():
        ia, ib = psi_ids[a], psi_ids[b]
        mono = ((ia, 2),) if ia == ib else ((min(ia, ib), 1), (max(ia, ib), 1))
        items.append((mono, QI.coerce(c)))
    return Element.from_terms(algebra, items)


def _require_real(element, what) -> Element:
    if not all(QI.is_real(c) for c in element.terms.values()):
        raise CliffordError(f"{what} has non-real coefficients")
    return element


class SuperMinkowski:
    """The base presentation and its two circle extensions.

    base: generators e0..e8 of bidegree (1, even) and psi1..psi32 of
    bidegree (1, odd), with d psi = 0 and d e^a the vector psi-bilinear.
    The extensions adjoin e9A (d e9A = c2A) and e9B (d e9B = c2B)."""

    def __init__(self, gd, base, c2A, c2B, extA, extB):
        self.gamma_data = gd
        self.base = base
        self.c2A = c2A
        self.c2B = c2B
        self.extA = extA
        self.extB = extB


def build_superminkowski() -> SuperMinkowski:
    gd = build_gamma()
    gens = [(f"e{a}", 1, "even") for a in range(9)]
    gens += [(f"psi{k}", 1, "odd") for k in range(1, 33)]
    algebra = Algebra(gens, QI)
    diffs = {
        f"e{a}": _require_real(bilinear(gd, algebra, gd.Gamma[a]), f"d e{a}") for a in range(9)
    }
    base = Presentation(algebra, diffs, name="superminkowski 8,1|16+16")
    c2A = _require_real(bilinear(gd, algebra, gd.G9A), "c2A")
    c2B = _require_real(bilinear(gd, algebra, gd.G9B), "c2B")
    for label, c in (("c2A", c2A), ("c2B", c2B)):
        if c.is_zero():
            raise CliffordError(f"{label} vanished; charge conjugation convention is broken")
    extA = central_extension(base, c2A, name="e9A")
    extB = central_extension(base, c2B, name="e9B")
    return SuperMinkowski(gd, base, c2A, c2B, extA, extB)


class StringCocycles:
    """mu81 on the base; muA, muB on the two extensions; all real-certified."""

    def __init__(self, mu81, muA, muB):
        self.mu81 = mu81
        self.muA = muA
        self.muB = muB


def mu_f1(sm: SuperMinkowski) -> StringCocycles:
    """The degree-3 string cocycles.

    mu81 = -i sum_a (psibar Gamma_a Gamma10 psi) e^a with the index lowered
    by the recorded spacetime metric; muA and muB extend it over the two
    circle extensions.  Reality of every bilinear and the exact identities
    d mu81 = c2A*c2B, d muA = 0, d muB = 0 are verified here."""
    gd = sm.gamma_data
    alg = sm.base.algebra
    minus_i = -QI.imaginary_unit()
    mu81 = alg.zero()
    for a in range(9):
        M = _matmul(gd.Gamma_lower(a), gd.G10)
        B = _require_real(bilinear(gd, alg, M).scale(minus_i), f"string bilinear at index {a}")
        mu81 = mu81 + B * alg.gen(f"e{a}")
    residual = sm.base.apply_d(mu81) - sm.c2A * sm.c2B
    if not residual.is_zero():
        raise CliffordError(
            "quartic identity d mu81 = c2A*c2B fails with the recorded lowering metric"
        )

    # each mu two ways: the explicit Gamma-matrix formula and h3 - e9*c2 of
    # the other extension
    mus = []
    for label, ext, G9, other_c2 in (
        ("A", sm.extA, gd.G9A, sm.c2B),
        ("B", sm.extB, gd.G9B, sm.c2A),
    ):
        incl = ext.inclusion
        e9 = ext.total.algebra.gen(f"e9{label}")
        tail = bilinear(gd, ext.total.algebra, _matmul(G9, gd.G10)).scale(minus_i)
        _require_real(tail, f"II{label} string bilinear")
        mu = incl.apply(mu81) + tail * e9
        if mu != incl.apply(mu81) - e9 * incl.apply(other_c2):
            raise CliffordError(f"the two expressions for mu{label} disagree")
        if not ext.total.is_cocycle(mu):
            raise CliffordError(f"mu{label} is not closed")
        mus.append(mu)
    return StringCocycles(mu81, *mus)


def hori_pipeline(seed, samples, window) -> Report:
    """Build everything, derive the quintuple, and verify the exchange.

    Asserts that the derived twists are exactly the two string cocycles,
    that the kernel is e9A*e9B, and that u Phi_{-b} Phi_b = id (and the
    reverse composite) on `samples` random twisted cochains per side."""
    import random

    from .algebra import transport

    if samples < 1 or window < 0:
        raise ValueError(f"need samples >= 1 and window >= 0; got {samples} and {window}")
    report = Report("superminkowski hori")
    sm = build_superminkowski()
    for line in sm.gamma_data.report:
        report.add(f"convention: {line}", True)
    cocycles = mu_f1(sm)
    report.add("d mu81 = c2A * c2B", True, "verified during construction")
    report.add("d muA = 0 and d muB = 0", True, "verified during construction")

    cfg = validate_config(sm.base, sm.c2A, sm.c2B, cocycles.mu81)
    derived = derive_quintuple(cfg, names=("e9A", "e9B"))
    q = derived.quintuple

    report.add(
        "derived side presentations match the circle extensions",
        q.side1.same_structure(sm.extA.total) and q.side2.same_structure(sm.extB.total),
    )
    a1_expected = transport(cocycles.muA, q.side1.algebra)
    a2_expected = transport(cocycles.muB, q.side2.algebra)
    report.add("a_{3,1} equals muA", q.a1 == a1_expected, f"residual = {q.a1 - a1_expected}")
    report.add("a_{3,2} equals muB", q.a2 == a2_expected, f"residual = {q.a2 - a2_expected}")
    kernel_expected = q.total.algebra.gen("e9A") * q.total.algebra.gen("e9B")
    report.add("kernel equals e9A * e9B", q.b == kernel_expected)
    report.add("kernel relation residual is zero", q.kernel_relation_residual.is_zero())

    rng = random.Random(seed)
    forward_ok = True
    backward_ok = True
    for n in range(samples):
        k = rng.randint(0, window)
        w = random_twisted_cochain(rng, q.side1, k, window)
        if fm_inverse(q, fm_transform(q, w)) != w:
            forward_ok = False
            break
        w2 = random_twisted_cochain(rng, q.side2, k, window)
        if fm_transform(q, fm_inverse(q, w2)) != w2:
            backward_ok = False
            break
    report.add(f"u Phi_-b Phi_b = id on {samples} random cochains", forward_ok)
    report.add(f"Phi_b u Phi_-b = id on {samples} random cochains", backward_ok)
    return report


def verify_report() -> Report:
    """The matrix-level invariant checklist (no presentations needed).

    `build_gamma` raises CliffordError unless the 45 Clifford relations, the
    G9B identity and the symmetry of every bilinear coefficient matrix hold,
    and it builds the block forms itself.  So the lines report its checks
    without re-running them, as `sullivan cyclify` reports d^2 = 0."""
    report = Report("superminkowski verify")
    gd = build_gamma()
    for line in gd.report:
        report.add(f"convention: {line}", True)
    for check in (
        "45 anticommutator relations",
        "block forms of Gamma^a, G9A, G9B, G10",
        "G9B = i * G9A * G10",
        "bilinear coefficient matrices symmetric",
    ):
        report.add(check, True)
    return report
