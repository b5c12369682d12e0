"""Small exact linear algebra for the intertwiner's proof.

At a point: sample_points draws seeded random rational points and
pivot_columns finds the pivot columns of a matrix over Q evaluated
there, by fraction-free elimination on integer rows.  The seed only
picks the point: a bad point can cost a certificate, never fake one.

Over any ring: columns and hstack rearrange entries.  Nothing here
inverts a matrix; the intertwiner is returned as its two bases.
"""

import random
from fractions import Fraction
from math import gcd, lcm

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
    """Pivot columns of a matrix over Q, its entries ints or Fractions:
    from left to right, each column not in the span of the columns
    before it.

    Each row is first cleared of denominators, then eliminated
    fraction-free: a row r below the pivot row h becomes
    h[col] * r - r[col] * h, divided by the gcd of its entries.  Each
    step is a nonzero row scaling or an invertible row operation, so the
    pivot columns are those over Q (see qglk.fm).
    """
    rows = []
    for row in mat.rows:
        if any(row):
            den = lcm(*(a.denominator for a in row))
            rows.append([a.numerator * (den // a.denominator) for a in row])
    pivots = []
    for col in range(mat.ncols):
        # rows holds the nonzero rows not yet pivoted on, zero before col
        if not rows:
            break
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            continue
        head = rows.pop(piv)
        h = head[col]
        left = []
        for r in rows:
            f = r[col]
            if f:
                r = [h * a - f * b for a, b in zip(r, head)]
                g = gcd(*r)
                if not g:
                    continue
                if g > 1:
                    r = [a // g for a in r]
            left.append(r)
        rows = left
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
