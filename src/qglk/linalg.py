"""Small exact linear algebra for the intertwiner's proof.

At a point: sample_points draws seeded random rational points and
pivot_columns finds the pivot columns of a matrix evaluated there, by
Gaussian elimination over F_P, P = 2^61 - 1.  Columns independent mod P
are independent over Q, so neither the seed, which only picks the
point, nor P can fake a certificate: either can only cost one.

Over any ring: columns and hstack rearrange entries.  Nothing here
inverts a matrix.
"""

import random
from fractions import Fraction

from .matrix import Matrix
from .poly import P


def sample_points(nvars, seed, attempts=72):
    """Yields `attempts` seeded random rational points (x_1, ..., q)."""
    rng = random.Random(seed)
    for _ in range(attempts):
        yield tuple(
            Fraction(rng.randint(2, 10**6), rng.randint(2, 997))
            for _ in range(nvars)
        )


def _residue(a):
    """a mod P for an int, or a Fraction whose denominator P does not
    divide; any other Fraction raises ValueError."""
    if a.denominator == 1:
        return a.numerator % P
    if not a.denominator % P:
        raise ValueError(f"{a} has no residue mod P")
    return a.numerator * pow(a.denominator, -1, P) % P


def pivot_columns(mat):
    """Pivot columns over F_P of a matrix of ints or Fractions (see
    _residue): from left to right, each column whose residue is not in
    the span of the residues of the columns before it.

    Gaussian elimination on the residues mod P = 2^61 - 1.  Columns
    independent mod P have a minor whose residue is nonzero, and
    reduction is a ring homomorphism, so that minor is nonzero over Q:
    the columns are independent over Q too.  Reduction can only lose
    pivots, so a full set of pivots is a certificate (see qglk.fm).
    """
    rows = []
    for row in mat.rows:
        row = [_residue(a) for a in row]
        if any(row):
            rows.append(row)
    pivots = []
    for col in range(mat.ncols):
        # rows holds the nonzero rows not yet pivoted on, from column col on
        if not rows:
            break
        piv = next((i for i, r in enumerate(rows) if r[0]), None)
        if piv is None:
            rows = [r[1:] for r in rows]
            continue
        head = rows.pop(piv)
        inv = pow(head[0], -1, P)
        head = [a * inv % P for a in head[1:]]
        left = []
        for r in rows:
            f = r[0]
            r = [(a - f * b) % P for a, b in zip(r[1:], head)] if f else r[1:]
            if any(r):
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
