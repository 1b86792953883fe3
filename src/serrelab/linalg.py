"""Dense exact linear algebra over a field.

Matrices are lists of rows of field scalars.  Shapes with zero rows or
columns are legal and show up constantly (zero-dimensional stalks), so
every routine takes explicit column counts where the matrix itself
cannot carry them.
"""

from __future__ import annotations

from .fields import QQ


def zeros(m, n, field=QQ):
    z = field.zero
    return [[z for _ in range(n)] for _ in range(m)]


def identity(n, field=QQ):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(A, B, field=QQ):
    """A (m x k) times B (k x n); B must be nonempty to know n, else []."""
    m = len(A)
    if m == 0:
        return []
    k = len(A[0]) if A else 0
    if k != len(B):
        raise ValueError(f"shape mismatch: {m}x{k} times {len(B)}x?")
    n = len(B[0]) if B else 0
    z = field.zero
    out = []
    for i in range(m):
        Ai = A[i]
        row = []
        for j in range(n):
            s = z
            for t in range(k):
                a = Ai[t]
                if a:
                    s = s + a * B[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(A, v, field=QQ):
    z = field.zero
    out = []
    for row in A:
        s = z
        for a, x in zip(row, v):
            if a and x:
                s = s + a * x
        out.append(s)
    return out


def transpose(A, ncols):
    return [[A[i][j] for i in range(len(A))] for j in range(ncols)]


def copy(A):
    return [row[:] for row in A]


def rref(A, ncols, field=QQ):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = copy(A)
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
        inv = field.inv(R[r][c])
        R[r] = [x * inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
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
    pivot_set = set(pivots)
    z, o = field.zero, field.one
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [z] * ncols
        v[j] = o
        for r, c in enumerate(pivots):
            v[c] = -R[r][j]
        basis.append(v)
    return basis


def solve(A, b, ncols, field=QQ):
    """One solution x of A x = b, or None if inconsistent."""
    aug = [row[:] + [bb] for row, bb in zip(A, b)]
    R, pivots = rref(aug, ncols + 1, field)
    if ncols in pivots:
        return None
    z = field.zero
    x = [z] * ncols
    for r, c in enumerate(pivots):
        x[c] = R[r][ncols]
    return x


def column_space_basis(A, ncols, field=QQ):
    """Columns of A forming a basis of the column space (pivot columns)."""
    _, pivots = rref(A, ncols, field)
    m = len(A)
    return [[A[i][j] for i in range(m)] for j in pivots]


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


def mat_eq(A, B):
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        for a, b in zip(ra, rb):
            if a != b:
                return False
    return True


def is_zero(A):
    return all(not x for row in A for x in row)

