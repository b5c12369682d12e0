"""Small exact linear algebra for the intertwiner's proof.

At a point: sample_points draws seeded random rational points and
pivot_columns runs Gaussian elimination over Q on a matrix evaluated
there.  The seed only picks the point: a bad point can cost a
certificate, never fake one.

Over any ring: columns and hstack rearrange entries.  Nothing here
inverts a matrix; the intertwiner is returned as its two bases.
"""

import random
from fractions import Fraction

from .matrix import Matrix


def sample_points(nvars, seed, attempts=72):
    """Yields `attempts` seeded random rational points (x_1, ..., q)."""
    rng = random.Random(seed)
    for _ in range(attempts):
        yield tuple(
            Fraction(rng.randint(2, 10**6), rng.randint(2, 997))
            for _ in range(nvars)
        )


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
