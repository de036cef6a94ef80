"""Exact sparse Gaussian elimination over Q and Q(i): rank, kernel,
reduction, and the homology of a complex given by a linear map on basis keys.

A row is a dict {column: nonzero field scalar} and a matrix is a list of
rows; no other module builds them.  Elimination touches only nonzero
entries.  Each row, sparsest first, is reduced by the pivot rows found so
far; what is left takes its smallest column as pivot, and that column is
cleared from the earlier pivot rows.  So every pivot is the leading column
of its row, and the result is the unique reduced row echelon form, whatever
the order of the rows.
"""

from __future__ import annotations


def _subtract(row, f, prow):
    """row -= f * prow in place, keeping only nonzero entries."""
    for c, v in prow.items():
        x = row.get(c)
        if x is None:
            row[c] = -(f * v)
        else:
            x -= f * v
            if x:
                row[c] = x
            else:
                del row[c]


def _insert(pivot_rows, row, one):
    """Reduce row (a dict this call may modify) by pivot_rows, a dict pivot
    column -> RREF row; add what is left as a new pivot row.  True if one was
    added."""
    # a pivot row is zero at every other pivot column, so each subtraction
    # leaves the row's other pivot entries as they were
    for c in [c for c in row if c in pivot_rows]:
        _subtract(row, row[c], pivot_rows[c])
    if not row:
        return False
    lead = min(row)
    if row[lead] != one:
        inv = one / row[lead]
        row = {c: v * inv for c, v in row.items()}
    for prow in pivot_rows.values():
        f = prow.get(lead)
        if f is not None:
            _subtract(prow, f, row)
    pivot_rows[lead] = row
    return True


def _sorted_rref(pivot_rows):
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def row_reduce(rows, field, ncols):
    """Reduced row echelon form of rows with entries in columns 0..ncols-1.

    Returns (rref_rows, pivot_columns), pivots ascending and each row 1 at
    its pivot.  The input rows are not modified."""
    pivot_rows = {}
    one = field.one
    for row in sorted(rows, key=len):
        if len(pivot_rows) == ncols:
            break  # full rank: every remaining row lies in the span
        _insert(pivot_rows, dict(row), one)
    return _sorted_rref(pivot_rows)


def rank(rows, field, ncols):
    red, pivots = row_reduce(rows, field, ncols)
    return len(pivots)


def kernel_basis(rows, field, ncols):
    """Basis of the right kernel {v : M v = 0}, via RREF free columns.

    Deterministic: one vector per free column, in column order, with a 1 in
    the free position.
    """
    red, pivots = row_reduce(rows, field, ncols)
    pivot_set = set(pivots)
    one = field.one
    basis = {fc: {fc: one} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(red, pivots):
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = -v
    return list(basis.values())


def reduce_against(vector, red_rows, pivots):
    """Reduce a vector modulo the row space given in RREF form."""
    v = dict(vector)
    for row, pc in zip(red_rows, pivots):
        f = v.get(pc)
        if f is not None:
            _subtract(v, f, row)
    return v


def kernel_mod_image(m_out, images, field, n):
    """ker(m_out) modulo the span of images, all in F^n.

    m_out has n columns; images are rows of width n, the columns of the
    incoming map.  Returns (rref_rows, pivots): the reduced kernel vectors in
    RREF, one row per basis class of the quotient.
    """
    kernel = kernel_basis(m_out, field, n)
    image_red, image_pivots = row_reduce(images, field, n)
    reduced = [reduce_against(v, image_red, image_pivots) for v in kernel]
    return row_reduce(reduced, field, n)


def _columns(image, basis_lo, basis_hi):
    """The image of each basis_lo key as a row indexed by basis_hi."""
    index = {key: i for i, key in enumerate(basis_hi)}
    return [{index[k]: c for k, c in image(key)} for key in basis_lo]


def _transpose(rows, ncols):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def matrix_of(image, basis_lo, basis_hi):
    """Matrix of a linear map: rows indexed by basis_hi, columns by basis_lo.

    image(key) yields the (key, nonzero coeff) pairs of the image of a
    basis_lo key, each key at most once; a key outside basis_hi raises
    KeyError.  Returns one sparse row per basis_hi key."""
    return _transpose(_columns(image, basis_lo, basis_hi), len(basis_hi))


def homology(image, bases, field):
    """Homology of the complex bases[0] -> bases[1] -> ... under image.

    For each inner basis bases[1:-1], returns its classes: the RREF rows of
    ker/im as lists of (key, coeff) pairs with nonzero coeff, in basis order.
    Each map is built once and reused as the next incoming map."""
    classes = []
    incoming = _columns(image, bases[0], bases[1])
    for basis, basis_hi in zip(bases[1:], bases[2:]):
        outgoing = _columns(image, basis, basis_hi)
        m_out = _transpose(outgoing, len(basis_hi))
        rref_rows, _ = kernel_mod_image(m_out, incoming, field, len(basis))
        classes.append([[(basis[c], row[c]) for c in sorted(row)] for row in rref_rows])
        incoming = outgoing
    return classes


def independent_subset(vectors, field, ncols):
    """Indices of a deterministic maximal independent subset, plus its RREF."""
    pivot_rows = {}
    one = field.one
    chosen = [
        idx
        for idx, vec in enumerate(vectors)
        if len(pivot_rows) < ncols and _insert(pivot_rows, dict(vec), one)
    ]
    return (chosen, *_sorted_rref(pivot_rows))
