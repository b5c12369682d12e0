import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglk.matrix import Matrix, entry_witness, first_off, witness
from qglk.poly import Poly
from qglk.ratfunc import RationalFunction

NV = 3  # x1, x2, q


def pairwise_matmul(a, b):
    """Matrix product accumulated one pairwise + at a time."""
    out = Matrix(a.nrows, b.ncols, [[a.zero] * b.ncols] * a.nrows, a.zero)
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
        x = RationalFunction.from_poly(Poly.x(NV, 1))
        row = Matrix(1, 2, [[x, x]], zero)
        assert (Matrix(0, 1, [], zero) @ row).nrows == 0
        # a 2x0 times 0x2 product is a 2x2 block of zeros
        prod = Matrix(2, 0, [[], []], zero) @ Matrix(0, 2, [], zero)
        assert prod == Matrix(2, 2, [[zero] * 2] * 2, zero)
        assert (row @ Matrix(2, 0, [[], []], zero)).ncols == 0


def pole_free_points():
    # rf_entries' denominators are 1 - x1 and x1 - x2; no coordinate is zero
    coord = st.fractions(min_value=1, max_value=20, max_denominator=7)
    return st.tuples(coord, coord, coord).filter(lambda p: p[0] != 1 and p[0] != p[1])


class TestEvaluation:
    @given(matrix_pairs(rf_entries(), RationalFunction.zero(NV)), pole_free_points())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_multiplicative(self, ab, point):
        # evaluation is a ring homomorphism: a product over Q at a point
        # equals the value of the symbolic product there
        a, b = ab

        def ev(e):
            return e.evaluate(point)

        assert (a @ b).map(ev) == a.map(ev) @ b.map(ev)


class TestWeightBlocks:
    def test_labels_are_checked_and_kept(self):
        one = Poly.one(3)
        e = Matrix.zero_block(2, 0, 2, Poly.zero(3))
        assert (e @ Matrix.scalar_block(2, 0, one)).block == (2, 0, 2)
        assert (-e).block == e.map(RationalFunction.from_poly).block == (2, 0, 2)
        plain = Matrix(1, 2, [[Poly.zero(3)] * 2], Poly.zero(3))
        assert (e + plain).block == (None, None, None) and e != plain
        with pytest.raises(ValueError, match="mixed n"):
            e + Matrix.zero_block(1, -1, 1, Poly.zero(2))
        with pytest.raises(ValueError, match="weight mismatch"):
            e - Matrix.zero_block(2, -2, 0, Poly.zero(3))
        with pytest.raises(ValueError, match="cannot compose: left source weight 0 != right"):
            e @ e
        with pytest.raises(ValueError, match="does not match the weight blocks"):
            Matrix(1, 1, [[one]], Poly.zero(3), (2, 0, 2))


def old_first_difference(got, want=None):
    """The scan entry_witness replaced: (row, column, got - want) at the
    first entry in row-major order where the matrices differ, or None."""
    for i, row in enumerate(got.rows):
        for j, a in enumerate(row):
            if want is None:
                if a:
                    return i, j, a
            elif a != want.rows[i][j]:
                return i, j, a - want.rows[i][j]
    return None


X1, Q = Poly.x(NV, 1), Poly.q(NV)
ZERO = Poly.zero(NV)


def square_blocks():
    """Pairs of 2 x 2 weight blocks (2, 0, 0) over Poly with few values."""
    values = st.sampled_from([ZERO, X1, Q, X1 - Q])

    @st.composite
    def pairs(draw):
        got, want = (
            Matrix(2, 2, [[draw(values) for _ in range(2)] for _ in range(2)], ZERO, (2, 0, 0))
            for _ in range(2)
        )
        return got, want

    return pairs()


class TestFirstBadEntry:
    def test_first_hit_in_row_major_order(self):
        values = [(0, 0, ZERO), (0, 1, X1), (1, 0, Q), (1, 1, ZERO)]
        assert first_off(values) == (0, 1, X1)
        assert first_off(values[2:]) == (1, 0, Q)
        assert first_off([(0, 0, ZERO), (1, 1, ZERO)]) is None

    def test_a_diagonal_target_is_reported_as_the_difference(self):
        assert first_off([(0, 0, Q), (1, 1, Q + X1)], Q) == (1, 1, X1)
        assert first_off([(0, 0, Q), (0, 1, ZERO), (1, 1, Q)], Q) is None

    def test_an_off_diagonal_nonzero_under_a_scalar_target(self):
        assert first_off([(0, 0, Q), (0, 1, X1), (1, 1, ZERO)], Q) == (0, 1, X1)

    def test_an_empty_block_gives_no_witness(self):
        assert first_off([], Q) is None
        assert witness((2, 0, 0), [], Q) == ""
        empty = Matrix.zero_block(2, 2, 4, ZERO)
        assert (empty.nrows, empty.ncols) == (0, 1)
        assert entry_witness(empty) == entry_witness(empty, empty) == ""

    def test_witness_names_the_entry_and_its_value(self):
        text = witness((2, 0, 0), [(0, 0, ZERO), (1, 0, X1)])
        where, value = text.split(" is off by ")
        assert where == "first bad entry at row 1 (subset {2}), column 0 (subset {1})"
        value, point = value.split(" at (x1, ..., q) = ")
        assert value == point.strip("()").split(", ")[0]

    @given(square_blocks())
    @settings(max_examples=60, deadline=None)
    def test_entry_witness_reports_the_old_first_difference(self, pair):
        got, want = pair
        for other in (want, None):
            bad = old_first_difference(got, other)
            expected = "" if bad is None else witness(got.block, [bad])
            assert entry_witness(got, other) == expected
