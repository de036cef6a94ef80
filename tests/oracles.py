"""Reference algorithms the engine's fast paths are checked against.

They are slower than the engine on purpose: each follows the textbook
definition step by step, on the `linalg` primitives that tests/test_linalg.py
checks against sympy."""

from sullivan.algebra import Element, mul_monomials
from sullivan.linalg import kernel_basis, matrix_of, reduce_against, row_reduce
from sullivan.twisted import TwistedCochain, _twisted_basis, twisted_d_raw


def kernel_mod_image(m_out, images, field, n):
    """ker(m_out) modulo the span of images, all in F^n.

    m_out has n columns; images are rows of width n, the columns of the
    incoming map.  Three steps: the kernel basis, each kernel vector reduced
    against the RREF of the image, and the RREF of what is left.  Returns
    (rref_rows, pivots), one row per basis class of the quotient.
    """
    kernel = kernel_basis(m_out, field, n)
    image_red, image_pivots = row_reduce(images, field, n)
    reduced = [reduce_against(v, image_red, image_pivots) for v in kernel]
    return row_reduce(reduced, field, n)


def homology(image, bases, field):
    """linalg.homology through kernel_mod_image: the same arguments, and the
    classes of each inner basis as (key, coeff) lists."""
    classes = []
    for basis_lo, basis, basis_hi in zip(bases, bases[1:], bases[2:]):
        index = {key: i for i, key in enumerate(basis)}
        images = [{index[k]: c for k, c in image(key)} for key in basis_lo]
        m_out = matrix_of(image, basis, basis_hi)
        rref_rows, _ = kernel_mod_image(m_out, images, field, len(basis))
        classes.append([[(basis[c], row[c]) for c in sorted(row)] for row in rref_rows])
    return classes


def truncated_twisted_cohomology(twist, parity, window):
    """Representatives of the truncated twisted cohomology, built as
    twisted_d_raw of each basis cochain with the components outside the
    window dropped afterwards, and taken through kernel_mod_image."""
    pres = twist.presentation
    alg = pres.algebra
    bases = {k: _twisted_basis(pres, k, window) for k in (parity - 1, parity, parity + 1)}

    def columns(k):
        """The image of each basis cochain of degree k, as a sparse row."""
        index = {key: i for i, key in enumerate(bases[k + 1])}
        cols = []
        for m, mono in bases[k]:
            cochain = TwistedCochain.single(pres, m, alg.monomial(mono))
            col = {}
            for mm, element in twisted_d_raw(pres, twist.a, cochain).components.items():
                for mono2, c in element.terms.items():
                    i = index.get((mm, mono2))
                    if i is not None:  # outside the window
                        col[i] = c
            cols.append(col)
        return cols

    rows = [{} for _ in bases[parity + 1]]
    for j, col in enumerate(columns(parity)):
        for i, c in col.items():
            rows[i][j] = c
    n = len(bases[parity])
    rref_rows, _ = kernel_mod_image(rows, columns(parity - 1), alg.field, n)
    reps = []
    for row in rref_rows:
        comps = {}
        for c in sorted(row):
            m, mono = bases[parity][c]
            term = alg.monomial(mono, row[c])
            comps[m] = comps[m] + term if m in comps else term
        reps.append(TwistedCochain(pres, parity, comps))
    return reps


# the Fraction loop that sullivan.algebra.extend_derivation runs on integer
# numerators; images is the {generator id: Element} dict itself
def extend_derivation(algebra, images, element):
    """Leibniz extension of an odd-degree derivation given on generators.

    images maps generator id -> Element, the derivation's value on that
    generator; generators without an entry map to zero.  Each factor g^exp
    contributes exp terms, the j-th with sign (-1)^(degree of everything to
    its left) and g^j * D(g) * g^(exp-j-1) in its place.  When exp >= 2, g
    commutes with itself, so g^2 commutes with everything and the j-th term
    equals the (j+2)-th: only j = 0 and j = 1 are formed, weighted by how
    many j of their parity there are.
    """
    acc = {}
    for mono, coeff in element.terms.items():
        prefix_degree = 0
        for pos, (gid, exp) in enumerate(mono):
            dgen = images.get(gid)
            gen = algebra.generators[gid]
            if dgen is not None:
                for j in range(min(exp, 2)):
                    weight = (exp - j + 1) // 2  # the j' < exp with j' = j mod 2
                    cw = coeff if weight == 1 else coeff * weight
                    left = mono[:pos] + (((gid, j),) if j else ())
                    right = (((gid, exp - j - 1),) if exp - j - 1 else ()) + mono[pos + 1 :]
                    sign = (prefix_degree + j * gen.degree) % 2
                    for m2, c2 in dgen.terms.items():
                        s1, m12 = mul_monomials(algebra, left, m2)
                        if s1 == 0:
                            continue
                        if right:
                            s2, m_all = mul_monomials(algebra, m12, right)
                            if s2 == 0:
                                continue
                        else:
                            s2, m_all = 1, m12
                        c = cw * c2
                        if (sign == 1) ^ (s1 < 0) ^ (s2 < 0):
                            c = -c
                        prev = acc.get(m_all)
                        acc[m_all] = c if prev is None else prev + c
            prefix_degree += exp * gen.degree
    return Element(algebra, {m: c for m, c in acc.items() if c})
