"""Dense exact linear algebra over a field.

Matrices are lists of rows of field scalars.  Shapes with zero rows or
columns are legal and show up constantly (zero-dimensional stalks), so
every routine takes explicit column counts where the matrix itself
cannot carry them.

Arithmetic goes through the field once per matrix reduced, row operation or
dot product (fields.py), never once per scalar, so over QQ it stays plain
comprehensions.
Every matrix is reduced on entry (rref, column_space_basis) or by its dot
products (mat_mul, mat_vec), so callers may pass raw ints, such as a +-1
boundary table or an unreduced linear combination, over any field; every
scalar returned is the field's canonical one.
"""

from __future__ import annotations

from .fields import QQ


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B, field=QQ):
    """A (m x k) times B (k x n); B must be nonempty to know n, else []."""
    m = len(A)
    if m == 0:
        return []
    k = len(A[0]) if A else 0
    if k != len(B):
        raise ValueError(f"shape mismatch: {m}x{k} times {len(B)}x?")
    cols = list(zip(*B)) if B else []
    dot = field.dot
    return [[dot(row, col) for col in cols] for row in A]


def mat_vec(A, v, field=QQ):
    dot = field.dot
    return [dot(row, v) for row in A]


def transpose(A, ncols):
    return [[A[i][j] for i in range(len(A))] for j in range(ncols)]


def rref(A, ncols, field=QQ):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = field.reduced(A)
    m = len(R)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        if R[r][c] != 1:
            R[r] = field.scaled(R[r], field.inv(R[r][c]))
        for i in range(m):
            if i != r and R[i][c]:
                R[i] = field.minus_multiple(R[i], R[i][c], R[r])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def rank(A, ncols, field=QQ):
    return len(rref(A, ncols, field)[1])


def kernel_basis(A, ncols, field=QQ):
    """Columns spanning ker(A), in echelon order (one per free column)."""
    R, pivots = rref(A, ncols, field)
    if len(pivots) == ncols:
        return []
    pivot_set = set(pivots)
    negated = [field.scaled(R[r], -1) for r in range(len(pivots))]
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [0] * ncols
        v[j] = 1
        for r, c in enumerate(pivots):
            v[c] = negated[r][j]
        basis.append(v)
    return basis


def solve(A, b, ncols, field=QQ):
    """One solution x of A x = b, or None if inconsistent."""
    aug = [row[:] + [bb] for row, bb in zip(A, b)]
    R, pivots = rref(aug, ncols + 1, field)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = R[r][ncols]
    return x


def column_space_basis(A, ncols, field=QQ):
    """Columns of A forming a basis of the column space (pivot columns)."""
    _, pivots = rref(A, ncols, field)
    return field.reduced([[row[j] for row in A] for j in pivots])


def extend_basis(base_cols, cand_cols, dim, field=QQ):
    """Indices of cand_cols that extend span(base_cols) to span(base+cand).

    All vectors have length dim; rref over the stacked columns, keeping
    candidate columns whose pivot falls in the candidate block.
    """
    n_base = len(base_cols)
    cols = base_cols + cand_cols
    if not cols:
        return []
    A = [[cols[j][i] for j in range(len(cols))] for i in range(dim)]
    _, pivots = rref(A, len(cols), field)
    return [p - n_base for p in pivots if p >= n_base]


def coordinates(basis_cols, v, dim, field=QQ):
    """Coordinates of v in the given (independent) column basis, or None."""
    if not basis_cols:
        return [] if not any(v) else None
    A = [[basis_cols[j][i] for j in range(len(basis_cols))] for i in range(dim)]
    return solve(A, v, len(basis_cols), field)


def is_zero(A):
    return all(not x for row in A for x in row)

