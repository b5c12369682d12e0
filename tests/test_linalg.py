from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglk import fm
from qglk.linalg import columns, pivot_columns, sample_points
from qglk.matrix import Matrix
from qglk.poly import P, Poly
from qglk.ratfunc import RationalFunction
from reference import (
    algebra_block,
    certify_invertible,
    column_basis,
    fraction,
    invert_matrix,
    reference_column_basis,
    reference_pivot_columns,
    specializations,
)

NV = 3  # x1, x2, q


def projectors(n):
    """p_w = F_{w+2} E_w / s_w below the top weight, on both sides."""
    for k in range(1, n + 1):
        w = n - 2 * k
        s = fraction(fm.commutator_scalar(n, k)).inv()
        yield (algebra_block(n, "F", w + 2) @ algebra_block(n, "E", w)).scale(s)
        F, E = fm.lowering_matrix(n, w + 2), fm.raising_matrix(n, w)
        yield (F.map(fraction) @ E.map(fraction)).scale(s)


class TestColumnBasis:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_point_pivots_match_symbolic_pivots_on_projectors(self, n):
        for p in projectors(n):
            at = next(specializations(p, n + 1, seed=0xC0FFEE))
            assert pivot_columns(at) == reference_column_basis(p)

    def test_empty_and_zero_matrices(self):
        zero = RationalFunction.zero(NV)
        assert column_basis(Matrix(0, 3, [], zero), NV) == []
        assert column_basis(Matrix(3, 0, [[]] * 3, zero), NV) == []
        assert column_basis(Matrix(2, 2, [[zero] * 2] * 2, zero), NV) == []

    def test_redraws_a_point_at_a_pole(self):
        # seed 2264692, found by a search over seeds, is one whose first
        # point has q = 1, a pole of 1 / (q - 1)
        seed = 2264692
        assert next(sample_points(NV, seed))[2] == 1
        den = Poly.q(NV) - Poly.one(NV)
        entry = RationalFunction(NV, Poly.one(NV), ((den, 1),))
        mat = Matrix(1, 2, [[RationalFunction.zero(NV), entry]], RationalFunction.zero(NV))
        assert column_basis(mat, NV, seed=seed) == [1]


def rationals(denominators):
    """Small ints (denominators False) or small Fractions, zero often."""
    if not denominators:
        return st.one_of(st.just(0), st.integers(-9, 9))
    return st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=7))


@st.composite
def rational_matrices(draw):
    """Int or Fraction matrices up to 5 x 5, empty shapes included; half
    of them products A B with a small inner dimension, so rank deficient."""
    entries = rationals(draw(st.booleans()))
    m, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))

    def mat(r, k):
        return Matrix(r, k, [[draw(entries) for _ in range(k)] for _ in range(r)], 0)

    if draw(st.booleans()):
        return mat(m, c)
    inner = draw(st.integers(0, 2))
    return mat(m, inner) @ mat(inner, c)


class TestPivotColumns:
    """linalg.pivot_columns, over F_P, against Gaussian elimination over
    Q: the two agree unless P divides the numerator of some minor, and
    the entries drawn are small (in [-9, 9], denominators <= 7)."""

    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    def test_matches_elimination_over_q(self, mat):
        assert pivot_columns(mat) == reference_pivot_columns(mat)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_nonzero_row_and_column_scalings_keep_the_pivots(self, data):
        mat = data.draw(rational_matrices())
        nonzero = st.builds(
            lambda a, b, sign: sign * Fraction(a, b),
            st.integers(1, 9), st.integers(1, 7), st.sampled_from([1, -1]),
        )
        rs = data.draw(st.lists(nonzero, min_size=mat.nrows, max_size=mat.nrows))
        cs = data.draw(st.lists(nonzero, min_size=mat.ncols, max_size=mat.ncols))
        rows = [[r * a * c for a, c in zip(row, cs)] for r, row in zip(rs, mat.rows)]
        scaled = Matrix(mat.nrows, mat.ncols, rows, 0)
        assert pivot_columns(scaled) == pivot_columns(mat) == reference_pivot_columns(mat)

    @pytest.mark.parametrize(
        "rows, ncols, want",
        [
            ([], 0, []),
            ([], 3, []),
            ([[], [], []], 0, []),
            ([[0, 0], [0, 0]], 2, []),
            ([[0, 0, 0], [0, 2, 4], [0, 0, 0], [0, 1, 2]], 3, [1]),
            ([[0, 1, 0], [0, 3, 5]], 3, [1, 2]),
            ([[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(2, 3)]], 2, [0]),
            ([[Fraction(0), 7], [Fraction(2, 9), 1], [5, 0]], 2, [0, 1]),
        ],
    )
    def test_degenerate_shapes(self, rows, ncols, want):
        mat = Matrix(len(rows), ncols, rows, 0)
        assert pivot_columns(mat) == reference_pivot_columns(mat) == want

    def test_reduction_mod_p_can_only_lose_pivots(self):
        # the columns are independent over Q, not mod P: an invertibility
        # check on them can only fail, never pass wrongly
        mat = Matrix(2, 2, [[1, 1], [1, 1 + P]], 0)
        assert reference_pivot_columns(mat) == [0, 1]
        assert pivot_columns(mat) == [0]

    @pytest.mark.parametrize("bad", [Fraction(1, P), Fraction(3, 2 * P)])
    def test_a_denominator_that_p_divides_is_refused(self, bad):
        with pytest.raises(ValueError, match="no residue mod P"):
            pivot_columns(Matrix(1, 2, [[1, bad]], 0))


def small_polys():
    exps = st.tuples(*([st.integers(-1, 1)] * NV))
    return st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(
        lambda d: Poly(NV, d)
    )


def rf_entries():
    dens = st.sampled_from(
        [Poly.one(NV), Poly.one(NV) - Poly.x(NV, 1), Poly.x(NV, 1) - Poly.q(NV, 1)]
    )
    return st.tuples(small_polys(), dens).map(
        lambda t: RationalFunction(NV, t[0], ((t[1], 1),))
    )


@st.composite
def low_rank_products(draw):
    """Products A·C with a small inner dimension, so rank deficient."""
    m, inner, c = draw(st.integers(1, 4)), draw(st.integers(0, 2)), draw(st.integers(1, 4))
    zero = RationalFunction.zero(NV)
    a = Matrix(m, inner, [[draw(rf_entries()) for _ in range(inner)] for _ in range(m)], zero)
    b = Matrix(inner, c, [[draw(rf_entries()) for _ in range(c)] for _ in range(inner)], zero)
    return a @ b


class TestColumnBasisProperties:
    @settings(max_examples=60, deadline=None)
    @given(low_rank_products())
    def test_pivots_are_independent_and_as_many_as_the_rank(self, mat):
        piv = column_basis(mat, NV)
        assert piv == sorted(set(piv))
        assert len(piv) == len(reference_column_basis(mat))
        chosen = columns(mat, piv)
        fresh = next(specializations(chosen, NV, seed=2024))
        assert len(pivot_columns(fresh)) == len(piv)


class TestCertificates:
    def test_certify_invertible(self):
        zero, one = RationalFunction.zero(NV), RationalFunction.const(NV, 1)
        x = RationalFunction.from_poly(Poly.x(NV, 1))
        assert certify_invertible(Matrix(2, 2, [[one, x], [x, one]], zero), NV)[0]
        singular = Matrix(2, 2, [[one, x], [x, x * x]], zero)
        ok, why = certify_invertible(singular, NV, attempts=3)
        assert not ok and "3 sample points" in why
        wide = Matrix(2, 3, [[zero] * 3] * 2, zero)
        assert certify_invertible(wide, NV) == (False, "not square")
        assert certify_invertible(Matrix(0, 0, [], zero), NV)[0]

    def test_invert_matrix(self):
        zero, one = RationalFunction.zero(NV), RationalFunction.const(NV, 1)
        x = RationalFunction.from_poly(Poly.x(NV, 1))
        m = Matrix(2, 2, [[one, x], [zero, one]], zero)
        assert m @ invert_matrix(m, one) == Matrix(2, 2, [[one, zero], [zero, one]], zero)
        with pytest.raises(ValueError, match="singular"):
            invert_matrix(Matrix(2, 2, [[one, x], [x, x * x]], zero), one)
