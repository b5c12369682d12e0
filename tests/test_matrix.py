from hypothesis import given, settings
from hypothesis import strategies as st

from qglk.matrix import Matrix
from qglk.poly import Poly
from qglk.ratfunc import RationalFunction

NV = 3  # x1, x2, q


def pairwise_matmul(a, b):
    """Matrix product accumulated one pairwise + at a time."""
    out = Matrix.zeros(a.nrows, b.ncols, a.zero)
    for i in range(a.nrows):
        for k in range(a.ncols):
            if a.rows[i][k].is_zero():
                continue
            for j in range(b.ncols):
                if not b.rows[k][j].is_zero():
                    out.rows[i][j] = out.rows[i][j] + a.rows[i][k] * b.rows[k][j]
    return out


def small_polys(max_terms):
    exps = st.tuples(*([st.integers(-1, 1)] * NV))
    return st.dictionaries(exps, st.integers(-3, 3), max_size=max_terms).map(
        lambda d: Poly(NV, d)
    )


def rf_entries():
    # shared binomial denominators so dot products really cancel
    dens = st.sampled_from(
        [Poly.one(NV), Poly.one(NV) - Poly.x(NV, 1), Poly.x(NV, 1) - Poly.x(NV, 2)]
    )
    return st.tuples(small_polys(2), dens, dens).map(
        lambda t: RationalFunction(NV, t[0], ((t[1], 1), (t[2], 1)))
    )




def matrix_pairs(entries, zero):
    @st.composite
    def pairs(draw):
        n, m, k = (draw(st.integers(0, 3)) for _ in range(3))
        a = Matrix(n, m, [[draw(entries) for _ in range(m)] for _ in range(n)], zero)
        b = Matrix(m, k, [[draw(entries) for _ in range(k)] for _ in range(m)], zero)
        return a, b

    return pairs()


class TestMatmul:
    @given(matrix_pairs(rf_entries(), RationalFunction.zero(NV)))
    @settings(max_examples=60, deadline=None)
    def test_rational_function_sum_matches_pairwise(self, ab):
        a, b = ab
        got = a @ b
        assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
        assert got == pairwise_matmul(a, b)

    @given(matrix_pairs(small_polys(3), Poly.zero(NV)))
    @settings(max_examples=60, deadline=None)
    def test_laurent_scalar_product_unchanged(self, ab):
        # Laurent polynomial entries take the generic (non-RationalFunction) branch
        a, b = ab
        got = a @ b
        ref = pairwise_matmul(a, b)
        assert [[e.keys for e in r] for r in got.rows] == [
            [e.keys for e in r] for r in ref.rows
        ]

    def test_empty_blocks(self):
        zero = RationalFunction.zero(NV)
        x = RationalFunction.x(NV, 1)
        row = Matrix(1, 2, [[x, x]], zero)
        assert (Matrix(0, 1, [], zero) @ row).nrows == 0
        # a 2x0 times 0x2 product is a 2x2 block of zeros
        prod = Matrix(2, 0, [[], []], zero) @ Matrix(0, 2, [], zero)
        assert (prod.nrows, prod.ncols) == (2, 2) and prod.is_zero()
        assert (row @ Matrix(2, 0, [[], []], zero)).ncols == 0
