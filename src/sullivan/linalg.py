"""Exact Gaussian elimination over Q and Q(i): rank, kernel, reduction,
and the homology of a complex given by a linear map on basis keys.

Matrices are lists of row lists of field scalars; no other module builds
them.  Pivots are chosen by a smallest-coefficient heuristic to limit
intermediate coefficient growth.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import GaussianRational


def _size(x):
    """Crude bit-size proxy used by the pivot heuristic."""
    if isinstance(x, GaussianRational):
        return _size(x.re) + _size(x.im)
    if isinstance(x, Fraction):
        return abs(x.numerator).bit_length() + x.denominator.bit_length()
    return abs(int(x)).bit_length()


def row_reduce(rows, field, ncols=None):
    """Reduced row echelon form.

    Returns (rref_rows, pivot_columns).  The input is not modified.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    zero = field.zero
    pivots = []
    r = 0
    for col in range(ncols):
        best = None
        for k in range(r, len(rows)):
            v = rows[k][col]
            if v:
                if best is None or _size(v) < _size(rows[best][col]):
                    best = k
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = field.one / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rowr = rows[r]
                rows[k] = [a - f * b for a, b in zip(rows[k], rowr)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, field, ncols=None):
    red, pivots = row_reduce(rows, field, ncols)
    return len(pivots)


def kernel_basis(rows, field, ncols):
    """Basis of the right kernel {v : M v = 0}, via RREF free columns.

    Deterministic: one vector per free column, in column order, normalized
    with a 1 in the free position.
    """
    red, pivots = row_reduce(rows, field, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def reduce_against(vector, red_rows, pivots):
    """Reduce a vector modulo the row space given in RREF form."""
    v = list(vector)
    for r, pc in enumerate(pivots):
        if v[pc]:
            f = v[pc]
            row = red_rows[r]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def kernel_mod_image(m_out, m_in, field, n):
    """ker(m_out) modulo the column space of m_in, both maps touching F^n.

    m_out has n columns and m_in has n rows.  Returns (rref_rows, pivots):
    the reduced kernel vectors in RREF, one row per basis class of the
    quotient.
    """
    kernel = kernel_basis(m_out, field, n)
    image_red, image_pivots = row_reduce(list(zip(*m_in)), field, n)
    reduced = [reduce_against(v, image_red, image_pivots) for v in kernel]
    return row_reduce(reduced, field, n)


def matrix_of(image, basis_lo, basis_hi, field):
    """Matrix of a linear map: rows indexed by basis_hi, columns by basis_lo.

    image(key) yields the (key, coeff) pairs of the image of a basis_lo key,
    each key at most once; a key outside basis_hi raises KeyError."""
    index = {key: i for i, key in enumerate(basis_hi)}
    rows = [[field.zero] * len(basis_lo) for _ in basis_hi]
    for j, key in enumerate(basis_lo):
        for k, c in image(key):
            rows[index[k]][j] = c
    return rows


def homology(image, bases, field):
    """Homology of the complex bases[0] -> bases[1] -> ... under image.

    For each inner basis bases[1:-1], returns its classes: the RREF rows of
    ker/im as lists of (key, coeff) pairs with nonzero coeff, in basis order.
    Each matrix is built once and reused as the next incoming map."""
    classes = []
    incoming = matrix_of(image, bases[0], bases[1], field)
    for basis, basis_hi in zip(bases[1:], bases[2:]):
        outgoing = matrix_of(image, basis, basis_hi, field)
        rref_rows, _ = kernel_mod_image(outgoing, incoming, field, len(basis))
        classes.append([[(basis[c], v) for c, v in enumerate(row) if v] for row in rref_rows])
        incoming = outgoing
    return classes


def independent_subset(vectors, field, ncols):
    """Indices of a deterministic maximal independent subset, plus its RREF."""
    red = []
    pivots = []
    chosen = []
    for idx, vec in enumerate(vectors):
        v = reduce_against(vec, red, pivots)
        lead = next((c for c in range(ncols) if v[c]), None)
        if lead is None:
            continue
        inv = field.one / v[lead]
        v = [x * inv for x in v]
        # keep RREF shape: eliminate the new pivot from existing rows
        for r in range(len(red)):
            if red[r][lead]:
                f = red[r][lead]
                red[r] = [a - f * b for a, b in zip(red[r], v)]
        insert_at = 0
        while insert_at < len(pivots) and pivots[insert_at] < lead:
            insert_at += 1
        red.insert(insert_at, v)
        pivots.insert(insert_at, lead)
        chosen.append(idx)
    return chosen, red, pivots
