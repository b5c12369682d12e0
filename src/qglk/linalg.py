"""Small exact linear algebra over the rational-function field.

At a point: specializations, pivot_columns, column_basis and
certify_invertible evaluate a matrix exactly at seeded random rational
points and run Gaussian elimination over Q.  The seed only picks the
point: a bad point can cost a certificate, never fake one.

Symbolically: columns and hstack rearrange entries over any ring, and
invert_matrix is Gauss-Jordan elimination over the fraction field, used
only by fm.find_intertwiner to build phi once its proof has passed.
"""

import random
from fractions import Fraction

from .matrix import Matrix
from .ratfunc import PoleError


def _complexity(entry):
    return len(entry.num.keys) + sum(m for _, m in entry.den_factors)


def sample_points(nvars, seed, attempts=72):
    """Yields `attempts` seeded random rational points (x_1, ..., q)."""
    rng = random.Random(seed)
    for _ in range(attempts):
        yield tuple(
            Fraction(rng.randint(2, 10**6), rng.randint(2, 997))
            for _ in range(nvars)
        )


def specializations(mat, nvars, seed, attempts=72):
    """Yields mat evaluated exactly (a Matrix over Q) at successive seeded
    random rational points, skipping points where an entry has a pole.
    At most `attempts` points are drawn."""
    for point in sample_points(nvars, seed, attempts):
        try:
            at = mat.map(lambda e: e.evaluate(point))
        except PoleError:
            continue
        yield at


def pivot_columns(mat):
    """Pivot columns of exact Gaussian elimination on a matrix over Q:
    from left to right, each column not in the span of the columns
    before it."""
    rows = [list(r) for r in mat.rows]
    pivots = []
    for col in range(mat.ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        head = rows[top]
        inv = 1 / head[col]
        for r in range(top + 1, len(rows)):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], head)]
        pivots.append(col)
    return pivots


def column_basis(mat, nvars, seed=0xC0FFEE):
    """Indices of independent columns, chosen at one seeded sample point.

    The columns returned are independent over the fraction field.  They
    span the column space unless the point is a common root of the
    maximal minors, in which case fewer columns come back and the checks
    that count them fail.
    """
    for at in specializations(mat, nvars, seed):
        return pivot_columns(at)
    raise PoleError("every sample point hit a pole")


def columns(mat, indices):
    """Submatrix formed by the chosen columns."""
    return Matrix(
        mat.nrows,
        len(indices),
        [[mat.rows[i][j] for j in indices] for i in range(mat.nrows)],
        mat.zero,
    )


def hstack(a, b):
    if a.nrows != b.nrows:
        raise ValueError("row counts differ")
    return Matrix(
        a.nrows,
        a.ncols + b.ncols,
        [ra + rb for ra, rb in zip(a.rows, b.rows)],
        a.zero,
    )


def certify_invertible(mat, nvars, seed=0xC0FFEE, attempts=72):
    """Certificate that a matrix over the fraction field is invertible.

    A nonsingular specialization at a rational point proves the symbolic
    determinant is a nonzero rational function.  Points hitting poles or
    a vanishing determinant are redrawn, so only a long run of unlucky
    samples leaves a genuinely invertible matrix unproved.
    """
    if mat.nrows != mat.ncols:
        return False, "not square"
    if mat.nrows == 0:
        return True, "empty matrix"
    for at in specializations(mat, nvars, seed, attempts):
        if len(pivot_columns(at)) == mat.nrows:
            return True, "nonzero determinant at a sample point"
    return False, f"determinant vanished or hit poles at {attempts} sample points"


def invert_matrix(mat, one):
    """Exact inverse by symbolic Gauss-Jordan elimination.

    Only for matrices already certified invertible; raises ValueError if
    the matrix turns out singular.
    """
    n = mat.nrows
    if mat.ncols != n:
        raise ValueError("only square matrices invert")
    work = [list(r) for r in mat.rows]
    aug = [[one if i == j else mat.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        best = None
        for r in range(col, n):
            if not work[r][col].is_zero():
                c = _complexity(work[r][col])
                if best is None or c < best[1]:
                    best = (r, c)
        if best is None:
            raise ValueError(f"matrix is singular at column {col}")
        r = best[0]
        work[col], work[r] = work[r], work[col]
        aug[col], aug[r] = aug[r], aug[col]
        inv = work[col][col].inv()
        work[col] = [e * inv for e in work[col]]
        aug[col] = [e * inv for e in aug[col]]
        for r2 in range(n):
            if r2 != col and not work[r2][col].is_zero():
                f = work[r2][col]
                work[r2] = [a - f * b for a, b in zip(work[r2], work[col])]
                aug[r2] = [a - f * b for a, b in zip(aug[r2], aug[col])]
    return Matrix(n, n, aug, mat.zero)
