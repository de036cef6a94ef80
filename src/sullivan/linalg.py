"""Exact sparse Gaussian elimination over Q and Q(i): rank, kernel,
reduction, and the homology of a complex given by a linear map on basis keys.

A row is a dict {column: nonzero field scalar} and a matrix is a list of
rows; no other module builds them.  Elimination touches only nonzero
entries and runs forward only: each row, sparsest first, is reduced in
ascending column order by the pivot rows found so far, until its leading
column is not yet a pivot; that column becomes a pivot, with entry 1.  The
pivot rows are then in echelon form, which is all that rank and homology
need.  `row_reduce` adds one back-substitution pass, from the last pivot
down, to reach the unique reduced row echelon form, whatever the order of
the rows.
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


def _add_row(pivot_rows, row, one):
    """Reduce row (a dict this call may modify) by pivot_rows, a dict pivot
    column -> echelon row (1 at its pivot, nothing left of it), in ascending
    column order; add what is left as a new pivot row.  True if one was
    added."""
    while row:
        lead = min(row)
        prow = pivot_rows.get(lead)
        if prow is None:
            f = row[lead]
            if f != one:
                inv = one / f
                row = {c: v * inv for c, v in row.items()}
            pivot_rows[lead] = row
            return True
        _subtract(row, row[lead], prow)
    return False


def _echelon(rows, one, ncols):
    """Pivot column -> echelon row for rows with entries in columns
    0..ncols-1.  The input rows are not modified."""
    pivot_rows = {}
    for row in sorted(rows, key=len):
        if len(pivot_rows) == ncols:
            break  # full rank: every remaining row lies in the span
        _add_row(pivot_rows, dict(row), one)
    return pivot_rows


def _back_substitute(pivot_rows):
    """Clear every pivot column from the other rows, from the last pivot
    down, so that each row is cleared only by rows already reduced.
    Returns the RREF rows and their pivots, ascending."""
    pivots = sorted(pivot_rows)
    for p in reversed(pivots):
        row = pivot_rows[p]
        for c in [c for c in row if c != p and c in pivot_rows]:
            _subtract(row, row[c], pivot_rows[c])
    return [pivot_rows[c] for c in pivots], pivots


def row_reduce(rows, field, ncols):
    """Reduced row echelon form of rows with entries in columns 0..ncols-1.

    Returns (rref_rows, pivot_columns), pivots ascending and each row 1 at
    its pivot.  The input rows are not modified."""
    return _back_substitute(_echelon(rows, field.one, ncols))


def rank(rows, field, ncols):
    return len(_echelon(rows, field.one, ncols))


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
    Each map is built once and reused as the next incoming map.

    The image lies in the kernel and has one pivot column for each of its
    dimensions, so the kernel is the image plus the kernel vectors that
    vanish at those pivots; the latter are the kernel of the outgoing map
    with the pivot columns left out.  Their RREF is the RREF of the kernel
    vectors reduced against the image."""
    classes = []
    incoming = _columns(image, bases[0], bases[1])
    for basis, basis_hi in zip(bases[1:], bases[2:]):
        outgoing = _columns(image, basis, basis_hi)
        image_pivots = _echelon(incoming, field.one, len(basis))
        free = [j for j in range(len(basis)) if j not in image_pivots]
        m_out = _transpose([outgoing[j] for j in free], len(basis_hi))
        kernel = [
            {free[c]: v for c, v in vec.items()}
            for vec in kernel_basis(m_out, field, len(free))
        ]
        rref_rows, _ = row_reduce(kernel, field, len(basis))
        classes.append([[(basis[c], row[c]) for c in sorted(row)] for row in rref_rows])
        incoming = outgoing
    return classes


def independent_subset(vectors, field, ncols):
    """Indices of a deterministic maximal independent subset, plus its RREF:
    each vector in turn is kept when it is independent of those kept
    before it."""
    pivot_rows = {}
    one = field.one
    chosen = [
        idx
        for idx, vec in enumerate(vectors)
        if len(pivot_rows) < ncols and _add_row(pivot_rows, dict(vec), one)
    ]
    return (chosen, *_back_substitute(pivot_rows))
