"""Reference algorithms the engine's fast paths are checked against.

They are slower than the engine on purpose: each follows the textbook
definition step by step, on the `linalg` primitives that tests/test_linalg.py
checks against sympy."""

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
