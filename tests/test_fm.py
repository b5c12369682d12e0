import json
import time
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qglk import cli, fm, ratfunc, superrep
from qglk.cli import main
from qglk.fm import (
    commutator_report,
    commutator_scalar,
    correspondence_tangent,
    epsilon_sign,
    find_intertwiner,
    intertwiner_report,
    k_of,
    lowering_matrix,
    lowering_unit,
    nilpotency_report,
    normalized_rep_report,
    raising_matrix,
)
from qglk.grassmann import (
    NonIsolatedFixedPointError,
    Space,
    euler_class_rf,
    fixed_points,
    hom_fiber,
    ratio_character,
    tangent_gr,
)
from qglk.linalg import columns, hstack, pivot_columns, sample_points
from qglk.matrix import Matrix, block_points, entry_witness, subset_label, weights
from qglk.poly import P, PointResidues, Poly
from qglk.ratfunc import PoleError, RationalFunction
from qglk.report import Report
from qglk.superrep import block_matrix

import reference
import test_superrep
from reference import (
    FullSweepBlocks,
    RaisedSumBlocks,
    algebra_block,
    certify_invertible,
    column_basis,
    correspondence_pairs,
    entry,
    failed_checks,
    fraction,
    fraction_points,
    full_symbolic_rank,
    inverse_euler,
    old_first_difference,
    phi_from_bases,
    reference_functor_matrix,
    reference_normalized_commutator,
    reference_normalized_rep_report,
    reference_normalized_square,
    reference_pivot_columns,
    reference_rf_evaluate,
    residue_mod_p,
    structure,
)
from rf_parser import parse
from weights import mult, rank, weight_monomial


def kernel_value(n, S_small, S_big, raising):
    """Kernel class at the fixed pair: twist times e(N_W), with
    N_W = T(Y_source) + T(Y_target) - T(W) restricted to the pair.

    The reference for the functor-matrix entries, which cancel T(Y_source)
    against the source Euler class at the character level.
    """
    S_src, S_tgt = (S_big, S_small) if raising else (S_small, S_big)
    nW = (
        tangent_gr(n, S_src)
        + hom_fiber(n, S_src)
        + tangent_gr(n, S_tgt)
        + hom_fiber(n, S_tgt)
        - correspondence_tangent(n, S_small, S_big)
    )
    tw = RationalFunction.from_poly(fm._twist(n, S_small, S_big, raising))
    return tw * euler_class_rf(nW)


class TestCorrespondence:
    def test_k_of_and_parity(self):
        assert k_of(4, 0) == 2
        assert k_of(3, 3) == 0
        assert k_of(3, -5) == 4
        with pytest.raises(ValueError):
            k_of(2, 1)

    def test_pair_enumeration(self):
        # raising out of weight 0 at n=2 shrinks a singleton to the empty set
        assert correspondence_pairs(2, 0) == [((), (1,)), ((), (2,))]
        # 6 nested pairs between 1-subsets and 2-subsets of {1,2,3}
        assert len(correspondence_pairs(3, 1)) == 6
        assert correspondence_pairs(1, 1) == []

    def test_tangent_at_the_point_pair(self):
        # n=1, pair (emptyset, {1}): every block of T_W is empty
        assert correspondence_tangent(1, (), (1,)) == Poly.zero(2)
        # n=2, pair ({1}, {1,2}): flag directions x2/x1 plus the fiber
        t = correspondence_tangent(2, (1,), (1, 2))
        assert mult(t, weight_monomial(2, (2,), (1,))) == 1
        assert mult(t, weight_monomial(2, (1,), (2,), 2)) == 1
        assert rank(t) == 1 + 2

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            correspondence_tangent(2, (2,), (1,))
        with pytest.raises(ValueError):
            correspondence_tangent(3, (1,), (1, 2, 3))


class TestKernelValues:
    def test_raising_kernel_n1(self):
        v = kernel_value(1, (), (1,), raising=True)
        assert v == parse("x1*(1 - q^-2)", 2)

    def test_lowering_kernel_n1(self):
        # twist exponent n - k_big vanishes here, structure-sheaf factor only
        v = kernel_value(1, (), (1,), raising=False)
        assert v == parse("1 - q^-2", 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entry_is_kernel_over_source_euler(self, n):
        for k_small in range(n):
            up = raising_matrix(n, n - 2 * (k_small + 1)).map(fraction)
            down = lowering_matrix(n, n - 2 * k_small).map(fraction)
            down = down.scale(fraction(lowering_unit(n)).inv())
            src_up = Space(n, k_small + 1)
            src_down = Space(n, k_small)
            for Ss, Sb in correspondence_pairs(n, k_small):
                assert entry(up, Ss, Sb) == kernel_value(
                    n, Ss, Sb, raising=True
                ) * inverse_euler(src_up, Sb)
                assert entry(down, Sb, Ss) == kernel_value(
                    n, Ss, Sb, raising=False
                ) * inverse_euler(src_down, Ss)


class TestFunctorMatrices:
    def test_raising_n1_value(self):
        m = raising_matrix(1, -1).map(fraction)
        assert (m.nrows, m.ncols) == (1, 1)
        assert entry(m, (), (1,)) == parse("x1", 2)

    def test_lowering_n1_values(self):
        norm = lowering_matrix(1, 1).map(fraction)
        raw = norm.scale(fraction(lowering_unit(1)).inv())
        assert entry(raw, (1,), ()) == parse("1 - q^-2", 2)
        assert entry(norm, (1,), ()) == parse("(q^2 - 1)/x1", 2)

    def test_raising_n2_closed_forms(self):
        m = raising_matrix(2, 0).map(fraction)
        assert entry(m, (), (1,)) == parse("x1*x2/(x2 - x1)", 3)
        assert entry(m, (), (2,)) == parse("x1*x2/(x1 - x2)", 3)

    def test_lowering_n2_closed_form(self):
        m = lowering_matrix(2, 2).map(fraction)
        expected = parse("((q^4 - q^2)*x1 - (q^2 - 1)*x2) / (x1*x2)", 3)
        assert entry(m, (1,), ()) == expected

    def test_lowering_unit(self):
        assert fraction(lowering_unit(2)) == parse("q^4/(x1*x2)", 3)
        raw = kernel_value(3, (1,), (1, 2), raising=False) * inverse_euler(Space(3, 1), (1,))
        norm = lowering_matrix(3, 1).map(fraction)
        assert entry(norm, (1, 2), (1,)) == raw * fraction(lowering_unit(3))

    def test_empty_blocks(self):
        top = raising_matrix(2, 2)
        assert (top.nrows, top.ncols) == (0, 1)
        bottom = lowering_matrix(2, -2)
        assert (bottom.nrows, bottom.ncols) == (0, 1)
        beyond = raising_matrix(2, 4)
        assert (beyond.nrows, beyond.ncols) == (0, 0)

    def test_compose_weight_check(self):
        e0 = raising_matrix(2, 0).map(fraction)
        e2 = raising_matrix(2, -2).map(fraction)
        assert (e0 @ e2).source_weight == -2
        with pytest.raises(ValueError):
            e2 @ e0

    def test_identity_and_scale(self):
        e = raising_matrix(2, 0).map(fraction)
        one = RationalFunction.const(3, 1)
        assert Matrix.scalar_block(2, 2, one) @ e == e
        assert e @ Matrix.scalar_block(2, 0, one) == e
        two = RationalFunction.const(3, 2)
        assert (e.scale(two) - e) == e

    def test_json_shape(self):
        # the schema-1 layout lives in the CLI
        d = cli._geometry_json(raising_matrix(2, 0))
        assert d["rows"] == [""]
        assert d["cols"] == ["1", "2"]
        assert set(d["entries"]) == {"|1", "|2"}
        assert d["source_weight"] == 0 and d["target_weight"] == 2


class TestRelationBatteries:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nilpotency(self, n):
        rep = nilpotency_report(n)
        assert rep.passed, "\n".join(rep.summary_lines())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commutator_scalars(self, n):
        rep = commutator_report(n)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert len(rep.notes) == n + 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extreme_weight_signs(self, n):
        # top block: FE = 0, so the commutator is the lone EF composition
        top = FullSweepBlocks(n).difference(n)
        s_top = commutator_scalar(n, 0)
        assert top[(0, 0)] == s_top
        assert epsilon_sign(n, 0) == (-1) ** (n - 1)
        # bottom block: EF = 0
        bot = FullSweepBlocks(n).difference(-n)
        assert bot[(0, 0)] == commutator_scalar(n, n)
        assert epsilon_sign(n, n) == -1

    def test_commutator_magnitude_is_x_free(self):
        d = FullSweepBlocks(3).difference(1)
        s = d[(0, 0)]
        assert s == parse("1 - q^6", 4) or s == parse("q^6 - 1", 4)

    def test_scalar_helper_signs(self):
        assert commutator_scalar(2, 0) == parse("q^4 - 1", 3)
        assert commutator_scalar(2, 1) == parse("1 - q^4", 3)


class TestNormalizedBlocks:
    def test_unnormalized_matches_superrep(self):
        e = block_matrix(2, "E", 0).map(RationalFunction.from_poly)
        assert entry(e, (), (1,)) == parse("(q - q^-1)*q^-1", 3)
        assert entry(e, (), (2,)) == parse("q - q^-1", 3)

    def test_normalization_units(self):
        e = fm.Blocks(2).op("algebra", "E", 0)
        assert entry(e, (), (1,)) == parse("(q - q^-1)*q^-3", 3)
        f = fm.Blocks(2).op("algebra", "F", 2)
        # k=0 at the source, so the sign is (-1)^(2-0-1) = -1
        assert entry(f, (1,), ()) == parse("-q^4", 3)
        assert entry(f, (2,), ()) == parse("-q^5", 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_battery(self, n):
        rep = normalized_rep_report(n)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert len(rep.checks) == 3 * (n + 1)


class TestIntertwiner:
    """phi_w = B_geo[w] B_alg[w]^-1, rebuilt from the bases find_intertwiner
    returns by the Gauss-Jordan reference of the tests."""

    def test_n1_pinned_blocks(self):
        bases, rep = find_intertwiner(1)
        assert rep.passed, "\n".join(rep.summary_lines())
        phi = phi_from_bases(1, bases)
        assert phi[-1][(0, 0)] == RationalFunction.const(2, 1)
        assert phi[1][(0, 0)] == parse("q^2*x1/(q^2 - 1)", 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exists_and_verifies(self, n):
        bases, rep = find_intertwiner(n)
        assert rep.passed, "\n".join(rep.summary_lines())
        for k in range(n + 1):
            alg, geo = bases[n - 2 * k]
            assert alg.nrows == geo.nrows == comb(n, k)
            assert full_symbolic_rank(alg) and full_symbolic_rank(geo)
        if n <= 2:
            # Gauss-Jordan meets only binomial denominators up to n = 2
            phi = phi_from_bases(n, bases)
            for k in range(n + 1):
                assert phi[n - 2 * k].nrows == phi[n - 2 * k].ncols == comb(n, k)

    def test_n2_off_diagonal(self):
        # a diagonal change of basis cannot intertwine both E and F at n=2
        phi = phi_from_bases(2, find_intertwiner(2)[0])
        middle = phi[0]
        off = [middle[(0, 1)], middle[(1, 0)]]
        assert any(off)

    def test_intertwining_equations_directly(self):
        n = 2
        phi = phi_from_bases(n, find_intertwiner(n)[0])
        for k in range(n + 1):
            w = n - 2 * k
            if w + 2 in phi:
                lhs = phi[w + 2] @ algebra_block(n, "E", w)
                rhs = raising_matrix(n, w).map(fraction) @ phi[w]
                assert lhs == rhs
            if w - 2 in phi:
                lhs = phi[w - 2] @ algebra_block(n, "F", w)
                rhs = lowering_matrix(n, w).map(fraction) @ phi[w]
                assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_report_matches_find_intertwiner(self, n):
        rep = intertwiner_report(n, seed=7)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert [c.name for c in rep.checks] == [
            c.name for c in find_intertwiner(n, seed=7)[1].checks
        ]
        assert len(rep.checks) == 4 * n + 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bases_match_the_symbolic_reference(self, n):
        for seed in (7, 0xC0FFEE):
            bases, rep = find_intertwiner(n, seed)
            assert rep.passed, "\n".join(rep.summary_lines())
            ref, basis = reference_prove_intertwiner(n, seed)
            assert sorted(bases) == sorted(basis["algebra"]) == [2 * k - n for k in range(n + 1)]
            for w, (alg, geo) in bases.items():
                d = comb(n, k_of(n, w))
                assert (alg.nrows, alg.ncols) == (geo.nrows, geo.ncols) == (d, d)
                assert alg == basis["algebra"][w]
                assert geo == basis["geometric"][w]


def reference_prove_intertwiner(n, seed):
    """The symbolic proof of the intertwiner, the reference for the
    derived one: on both sides it forms B[w] = [P_w | E_{w-2} P_{w-2}]
    over the fraction field and checks E*B = [E*P | 0] and
    F*B = [0 | s*P] as exact identities; pivots and invertibility come
    from the point-sampled references at seeded points of the symbolic
    matrices.  Returns the report and the bases {side: {w: B[w]}}."""
    rep = Report(f"intertwiner at n={n}")
    nvars = n + 1
    zero = RationalFunction.zero(nvars)
    weights = [n - 2 * k for k in range(n + 1)]
    sides = {
        "algebra": {
            w: (algebra_block(n, "E", w), algebra_block(n, "F", w)) for w in weights
        },
        "geometric": {
            w: (fm.raising_matrix(n, w).map(fraction), fm.lowering_matrix(n, w).map(fraction))
            for w in weights
        },
    }
    proj = {side: {} for side in sides}
    lifted = {side: {} for side in sides}
    basis = {side: {} for side in sides}

    def witness(side, w, identity, op, split, got, want, offset=0):
        bad = old_first_difference(got, want)
        if bad is None:
            return ""
        i, j = bad[0], bad[1] + offset
        return (
            f"{side} side, weight {w}: {identity} fails first at row {i} "
            f"(subset {subset_label(op.rows_points[i])}), column {j}"
        )

    ok_bases = True
    for w in reversed(weights):
        s = fraction(fm.commutator_scalar(n, k_of(n, w))).inv()
        for side, ops in sides.items():
            if w == n:
                p = Matrix.zero_block(n, w, w, zero)
            else:
                p = (ops[w + 2][1] @ ops[w][0]).scale(s)
            proj[side][w] = columns(p, column_basis(p, nvars, seed))
        r_alg, r_geo = (proj[side][w].ncols for side in sides)
        if r_alg != r_geo:
            rep.add(f"projector ranks agree at weight {w}", False, f"{r_alg} != {r_geo}")
            ok_bases = False
            continue
        short = []
        for side, ops in sides.items():
            if w > -n:
                lifted[side][w] = ops[w - 2][0] @ proj[side][w - 2]
            else:
                d = proj[side][w].nrows
                lifted[side][w] = Matrix(d, 0, [[]] * d, zero)
            b = basis[side][w] = hstack(proj[side][w], lifted[side][w])
            if b.ncols != b.nrows:
                short.append(f"{side}: {b.ncols} columns for a dim-{b.nrows} block")
        rep.add(f"transported bases fill the weight-{w} block", not short, "; ".join(short))
        ok_bases = ok_bases and not short
    if not ok_bases:
        return rep, basis

    for w in weights:
        why = []
        for side in sides:
            ok, msg = certify_invertible(basis[side][w], nvars, seed=seed)
            if not ok:
                why.append(f"{side} basis: {msg}")
        rep.add(f"phi at weight {w} is invertible", not why, "; ".join(why))

    for w in weights:
        k = k_of(n, w)
        if w < n:
            bad = ""
            for side, ops in sides.items():
                e, split = ops[w][0], proj[side][w].ncols
                got = e @ lifted[side][w]
                want = Matrix(got.nrows, got.ncols, [[zero] * got.ncols] * got.nrows, zero)
                bad = bad or witness(side, w, "E*B = [E*P | 0]", e, split, got, want, split)
            rep.add(f"phi intertwines E at weight {w}", not bad, bad)
        if w > -n:
            s_low = fraction(fm.commutator_scalar(n, k + 1))
            bad = ""
            for side, ops in sides.items():
                f, split = ops[w][1], proj[side][w].ncols
                got = f @ basis[side][w]
                left = Matrix(got.nrows, split, [[zero] * split] * got.nrows, zero)
                want = hstack(left, proj[side][w - 2].scale(s_low))
                bad = bad or witness(side, w, "F*B = [0 | s*P]", f, split, got, want)
            rep.add(f"phi intertwines F at weight {w}", not bad, bad)
    return rep, basis


def _negate_lowering_column(monkeypatch, weight, col):
    raw = fm.lowering_matrix

    def corrupted(n, source_weight):
        m = raw(n, source_weight)
        if source_weight == weight:
            for row in m.rows:
                row[col] = -row[col]
        return m

    monkeypatch.setattr(fm, "lowering_matrix", corrupted)


def _break_raising_entry(monkeypatch, weight):
    raw = fm.raising_matrix

    def corrupted(n, source_weight):
        m = raw(n, source_weight)
        if source_weight == weight:
            m.rows[0][0] = m.rows[0][0].expand() + RationalFunction.const(n + 1, 1)
        return m

    monkeypatch.setattr(fm, "raising_matrix", corrupted)


def _drop_commutator_sign(monkeypatch):
    def unsigned(n, k):
        return Poly.one(n + 1) - Poly.q(n + 1, 2 * n)

    monkeypatch.setattr(fm, "commutator_scalar", unsigned)


def _flip_parity_sign(monkeypatch):
    raw = fm.epsilon_sign
    monkeypatch.setattr(fm, "epsilon_sign", lambda n, k: -raw(n, k))


def _lowering_unit_off_by_q2(monkeypatch):
    def unit(n):
        return Poly.monomial(n + 1, (-1,) * n + (2 * n - 2,))

    monkeypatch.setattr(fm, "lowering_unit", unit)


def _perturb_correspondence_weight(monkeypatch):
    raw = fm.correspondence_tangent

    def perturbed(n, S_small, S_big):
        t = raw(n, S_small, S_big)
        if (tuple(S_small), tuple(S_big)) == ((1,), (1, 2)):
            # the flag line x3/x2 picks up a stray q
            t = t - ratio_character(n, [(3, 2)]) + ratio_character(n, [(3, 2)], 1)
        return t

    monkeypatch.setattr(fm, "correspondence_tangent", perturbed)


def _flag_lines_times_q(monkeypatch):
    """Every correspondence's flag line x_j / x_b picks up q: a fault that
    S_n maps to itself, so it breaks every geometric block alike."""
    raw = fm.correspondence_tangent

    def perturbed(n, S_small, S_big):
        (b,) = set(S_big) - set(S_small)
        line = [(j, b) for j in range(1, n + 1) if j not in S_big]
        return raw(n, S_small, S_big) - ratio_character(n, line) + ratio_character(n, line, 1)

    monkeypatch.setattr(fm, "correspondence_tangent", perturbed)


# the three intertwiner mutations, placed for each n: column min(2, n - 1)
# of the lowering block from weight n - 2 (from weight 1 at n = 1)
# negated, one raising entry off by one, the unsigned commutator scalar
INTERTWINER_MUTATIONS = {
    "negated lowering column": lambda mp, n: _negate_lowering_column(
        mp, n - 2 if n > 1 else 1, min(2, n - 1)
    ),
    "broken raising entry": lambda mp, n: _break_raising_entry(mp, -n),
    "unsigned commutator scalar": lambda mp, n: _drop_commutator_sign(mp),
}


class TestDerivedIntertwiner:
    @pytest.mark.parametrize("mutation", [None, *INTERTWINER_MUTATIONS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_the_symbolic_reference(self, monkeypatch, n, mutation):
        if mutation:
            INTERTWINER_MUTATIONS[mutation](monkeypatch, n)
        for seed in (7, 0xC0FFEE):
            ref, _ = reference_prove_intertwiner(n, seed)
            rep = intertwiner_report(n, seed)
            assert [c.name for c in rep.checks] == [c.name for c in ref.checks]
            assert rep.passed == ref.passed
            assert {c.name for c in failed_checks(ref)} <= {c.name for c in failed_checks(rep)}
            assert rep.passed == (mutation is None)

    def test_prefilled_blocks_make_no_symbolic_product(self, monkeypatch):
        blocks = fm.Blocks(3)
        for battery in (nilpotency_report, commutator_report, normalized_rep_report):
            assert battery(3, blocks=blocks).passed
        calls = []
        matmul = Matrix.__matmul__

        def counted(a, b):
            # products over Q at the sample points are the proof's own work
            if isinstance(a.zero, RationalFunction):
                calls.append((a.nrows, b.ncols))
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        rep = intertwiner_report(3, blocks=blocks)
        assert rep.passed and len(rep.checks) == 14
        assert calls == []

    def test_verify_builds_each_block_once(self, monkeypatch):
        calls = {}
        builders = ((fm, "raising_matrix"), (fm, "lowering_matrix"), (superrep, "block_matrix"))
        for module, name in builders:
            raw = getattr(module, name)

            def counted(*args, raw=raw, name=name):
                calls.setdefault(name, []).append(args)
                return raw(*args)

            monkeypatch.setattr(module, name, counted)
        lifts, raw_map = [], Matrix.map

        def mapped(m, fn):
            lifts.append(fn == RationalFunction.from_poly)
            return raw_map(m, fn)

        monkeypatch.setattr(Matrix, "map", mapped)
        assert main(["verify", "--n", "4", "--json"]) == 0
        assert lifts and not any(lifts)  # no algebra block is lifted to the fraction field
        # weights -6..6 in steps of 2: the five blocks and one beyond each
        # end.  The algebra blocks come from the one Relations of the
        # verification: E and F at those 7 weights, and the 12 one-site
        # blocks of the antipode axioms, with no block built twice
        counts = {name: len(args) for name, args in calls.items()}
        assert counts == {"raising_matrix": 7, "lowering_matrix": 7, "block_matrix": 31}
        assert len(set(calls["block_matrix"])) == 31

    def test_points_with_a_pole_or_a_vanishing_scalar_are_redrawn(self, monkeypatch):
        n = 2
        at_q_one = (Fraction(3), Fraction(7, 2), Fraction(5, 5))
        on_a_pole = (Fraction(3), Fraction(3), Fraction(2))
        assert commutator_scalar(n, 0).evaluate(at_q_one) == 0
        with pytest.raises(PoleError):
            raising_matrix(n, 0)[(0, 0)].evaluate(on_a_pole)
        drawn = []

        def points(nvars, seed, attempts=72):
            for point in (at_q_one, on_a_pole, (Fraction(5), Fraction(9, 4), Fraction(3))):
                drawn.append(point)
                yield point

        monkeypatch.setattr(fm, "sample_points", points)
        rep = intertwiner_report(n)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert len(drawn) == 3

    def test_a_retry_point_is_evaluated_once_for_every_basis(self, monkeypatch):
        # every basis is singular at the first point, so each (w, side)
        # retries; the report must not change, and one further point serves all
        n = 3
        want = [(c.name, c.passed, c.witness) for c in intertwiner_report(n).checks]
        raw_points, raw_basis = fm.sample_points, fm._transported_basis
        drawn, first = [], []

        def points(nvars, seed, attempts=72):
            for point in raw_points(nvars, seed, attempts):
                drawn.append(point)
                yield point

        def basis(at, side, w, pivots):
            first[:] = first or [at]
            b = raw_basis(at, side, w, pivots)
            return b.scale(0) if at is first[0] else b

        monkeypatch.setattr(fm, "sample_points", points)
        monkeypatch.setattr(fm, "_transported_basis", basis)
        rep = intertwiner_report(n)
        assert [(c.name, c.passed, c.witness) for c in rep.checks] == want
        assert len(drawn) == 2


def _located(check, side, weight, subset):
    assert check.witness.startswith(f"{side} side, weight {weight}: ")
    assert f"(subset {subset})" in check.witness
    assert "column" in check.witness and " at (x1, ..., q) = (" in check.witness
    assert "\n" not in check.witness and len(check.witness) < 300


class TestIntertwinerNegativeControls:
    def test_negated_lowering_column_fails_with_a_located_witness(self, monkeypatch, capsys):
        _negate_lowering_column(monkeypatch, weight=1, col=2)
        rep = intertwiner_report(3)
        # both commutators that contain the broken F_1, at weights 1 and -1
        assert [c.name for c in failed_checks(rep)] == [
            "phi intertwines F at weight 1",
            "phi intertwines F at weight -1",
        ]
        assert len(rep.checks) == 14
        _located(failed_checks(rep)[0], "geometric", 1, "{1,3}")
        assert "lowering twice from weight 3 vanishes fails: " in failed_checks(rep)[0].witness
        _located(failed_checks(rep)[1], "geometric", -1, "{1,3}")
        assert "weight -1 commutator is a (1-q^6) scalar on a dim-3 block fails: " in (
            failed_checks(rep)[1].witness
        )
        assert find_intertwiner(3)[0] == {}
        assert main(["verify", "--n", "3"]) == 1
        assert "phi intertwines F at weight 1" in capsys.readouterr().out

    def test_broken_e_relation_is_located(self, monkeypatch):
        _break_raising_entry(monkeypatch, -1)
        rep = intertwiner_report(3)
        assert "phi intertwines E at weight 1" in [c.name for c in failed_checks(rep)]
        bad = next(c for c in failed_checks(rep) if c.name == "phi intertwines E at weight 1")
        _located(bad, "geometric", 1, "{}")
        assert "raising twice from weight -1 vanishes fails: " in bad.witness

    def test_dropped_commutator_sign_fails_without_a_crash(self, monkeypatch):
        _drop_commutator_sign(monkeypatch)
        rep = intertwiner_report(3)
        assert len(rep.checks) == 14
        names = [c.name for c in failed_checks(rep)]
        assert names == [f"phi intertwines F at weight {w}" for w in (3, 1, -1)]
        for check in failed_checks(rep):
            assert check.witness.startswith("algebra side, weight ")
            assert "\n" not in check.witness and len(check.witness) < 300
            premise = check.witness.split(": ", 1)[1]
            assert premise.startswith(("FE - EF is eps*(1-q^6) at weight ", "sign relation s_"))


    def test_no_usable_sample_point_fails_without_a_crash(self, monkeypatch, capsys):
        # every s_w vanishes, so every point drawn is rejected
        monkeypatch.setattr(fm, "commutator_scalar", lambda n, k: Poly.zero(n + 1))
        rep = intertwiner_report(2)
        assert [(c.name, c.passed) for c in rep.checks] == [
            ("a pole-free sample point exists", False)
        ]
        assert failed_checks(rep)[0].witness == (
            "all 72 points drawn with seed 0xc0ffee hit a pole or a vanishing s_w"
        )
        assert "seed 0x7 " in failed_checks(intertwiner_report(2, seed=7))[0].witness
        assert find_intertwiner(2)[0] == {}
        assert cli.main(["verify", "--n", "2"]) == 1
        assert "[FAIL] a pole-free sample point exists" in capsys.readouterr().out


class TestGeometryBatteryNegativeControls:
    def test_negated_lowering_column_gives_located_witnesses(self, monkeypatch):
        _negate_lowering_column(monkeypatch, weight=1, col=2)
        failures = failed_checks(nilpotency_report(3)) + failed_checks(commutator_report(3))
        assert [c.name for c in failures] == [
            "lowering twice from weight 3 vanishes",
            "weight 1 commutator is a (1-q^6) scalar on a dim-3 block",
            "weight -1 commutator is a (1-q^6) scalar on a dim-3 block",
        ]
        for check in failures:
            assert check.witness.startswith("first bad entry at row ")
            assert "(subset {" in check.witness and "column " in check.witness
            assert " at (x1, ..., q) = (" in check.witness
            assert "\n" not in check.witness and len(check.witness) < 300
        # negated column 2 is subset {3} of Gr(1, 3)
        assert "row 0 (subset {1}), column 2 (subset {3})" in failures[1].witness

    def test_witness_names_the_first_bad_entry(self):
        d = FullSweepBlocks(2).difference(0)
        target = Matrix.scalar_block(2, 0, fraction(commutator_scalar(2, 1)))
        assert entry_witness(d, target) == ""
        d.rows[1][0] = d.rows[1][0] + RationalFunction.q(3, 1)
        witness = entry_witness(d, target)
        assert witness.startswith(
            "first bad entry at row 1 (subset {2}), column 0 (subset {1}) is off by "
        )
        # the added q is the whole difference, so the value is q's coordinate
        value, point = witness.split(" is off by ")[1].split(" at (x1, ..., q) = ")
        assert value == point.strip("()").split(", ")[-1]


def _geometry_failures(n):
    blocks = fm.Blocks(n)
    reports = [
        battery(n, blocks=blocks)
        for battery in (nilpotency_report, commutator_report, normalized_rep_report)
    ]
    reports.append(intertwiner_report(n, blocks=blocks))
    return {c.name: c.witness for r in reports for c in failed_checks(r)}


def _entry_located(witness, row_subset):
    assert f"first bad entry at row 0 (subset {row_subset}), column 0 (subset " in witness
    assert " at (x1, ..., q) = (" in witness
    assert "\n" not in witness and len(witness) < 300


class TestMutationFixtures:
    def test_flipped_parity_sign_fails_the_sign_checks(self, monkeypatch):
        _flip_parity_sign(monkeypatch)
        failures = _geometry_failures(3)
        # algebra F and its scalar flip together; the geometric sign does not
        assert list(failures) == [
            f"weight {w} sign matches (-1)^(n-k-1)" for w in (3, 1, -1, -3)
        ] + [f"phi intertwines F at weight {w}" for w in (3, 1, -1)]
        assert failures["weight 1 sign matches (-1)^(n-k-1)"].startswith(
            "observed -1, parity +1; "
        )
        _entry_located(failures["weight 1 sign matches (-1)^(n-k-1)"], "{1}")
        assert failures["phi intertwines F at weight 1"].startswith(
            "geometric side, weight 1: weight 1 sign matches (-1)^(n-k-1) fails: "
        )
        assert main(["verify", "--n", "3"]) == 1

    def test_lowering_unit_off_by_q2_fails_the_commutator(self, monkeypatch):
        _lowering_unit_off_by_q2(monkeypatch)
        failures = _geometry_failures(3)
        dims = {3: 1, 1: 3, -1: 3, -3: 1}
        assert list(failures) == [
            f"weight {w} commutator is a (1-q^6) scalar on a dim-{d} block" for w, d in dims.items()
        ] + [f"phi intertwines F at weight {w}" for w in (3, 1, -1)]
        bad = failures["weight -1 commutator is a (1-q^6) scalar on a dim-3 block"]
        _entry_located(bad, "{1,2}")
        assert main(["verify", "--n", "3"]) == 1

    def test_perturbed_correspondence_weight_fails_nilpotency(self, monkeypatch):
        _perturb_correspondence_weight(monkeypatch)
        failures = _geometry_failures(3)
        _entry_located(failures["raising twice from weight -1 vanishes"], "{}")
        _entry_located(failures["weight 1 commutator is a (1-q^6) scalar on a dim-3 block"], "{1}")
        assert "projector ranks agree at weight -1" in failures
        assert main(["verify", "--n", "3"]) == 1

    def test_flag_lines_times_q_fail_at_their_first_bad_entries(self, monkeypatch):
        # a symmetric fault breaks every block alike: each failing check
        # names its first bad entry in row-major order
        _flag_lines_times_q(monkeypatch)
        squares = {
            3: [("lowering", 3), ("lowering", 1), ("raising", -1), ("raising", -3)],
            4: [("lowering", 4), ("lowering", 2), ("raising", 0), ("lowering", 0)]
            + [("raising", -2), ("raising", -4)],
        }
        commutators = {3: (3, 1, -1), 4: (4, 2, 0, -2)}
        for n in (3, 4):
            blocks = fm.Blocks(n)
            nil = failed_checks(nilpotency_report(n, blocks=blocks))
            com = failed_checks(commutator_report(n, blocks=blocks))
            assert [c.name for c in nil] == [
                f"{op} twice from weight {w} vanishes" for op, w in squares[n]
            ]
            assert [c.name for c in com] == [
                f"weight {w} commutator is a (1-q^{2 * n}) scalar on a dim-{comb(n, k_of(n, w))}"
                " block"
                for w in commutators[n]
            ]
            for check in nil + com:
                assert check.witness.startswith("first bad entry at row ")
                assert " at (x1, ..., q) = (" in check.witness
                assert "\n" not in check.witness and len(check.witness) < 300
            _entry_located(nil[0].witness, "{1,2}")
        assert main(["verify", "--n", "3"]) == 1


def _geometric_keys(n):
    return [(gen, w) for gen in "EF" for w in weights(n) + [n + 2, -n - 2]]


def _expansions(monkeypatch):
    """The EulerEntry objects expanded from here on, in order."""
    expanded = []
    raw = fm.EulerEntry.expand
    monkeypatch.setattr(fm.EulerEntry, "expand", lambda e: expanded.append(e) or raw(e))
    return expanded


def _geometric_entries(blocks):
    return [e for key in _geometric_keys(blocks.n) for e in _nonzero(blocks.op("geometric", *key))]


def _read_by_decisions(blocks):
    """The entries that the square and commutator decisions read: the
    nonzero factor pairs a, b of each product a * b at every position."""
    n, read = blocks.n, []
    for w in weights(n):
        products = [(("E", w + 2), ("E", w)), (("F", w - 2), ("F", w))]
        products += [(("F", w + 2), ("E", w)), (("E", w - 2), ("F", w))]
        for left, right in products:
            A, B = (blocks.op("geometric", *key) for key in (left, right))
            for i, j in product(range(A.nrows), range(B.ncols)):
                pairs = [(a, row[j]) for a, row in zip(A.rows[i], B.rows) if a and row[j]]
                read += [e for pair in pairs for e in pair]
    return read


class TestEulerEntries:
    """Geometric entries keep their Euler data, and form their fraction
    only when expand() is called."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_entries_are_the_eager_reference(self, n):
        for w in weights(n):
            for raising in (True, False):
                got = (raising_matrix if raising else lowering_matrix)(n, w)
                want = reference_functor_matrix(n, w, raising)
                for row, ref in zip(got.rows, want.rows):
                    for e, r in zip(row, ref):
                        assert type(e) is (fm.EulerEntry if r else RationalFunction)
                        assert str(e) == str(r) and structure(fraction(e)) == structure(r)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_values_are_the_reference_values_and_expand_nothing(self, monkeypatch, n):
        expanded = _expansions(monkeypatch)
        blocks = fm.Blocks(n)
        entries = _geometric_entries(blocks)
        reference = [
            r
            for gen, w in _geometric_keys(n)
            for r in _nonzero(reference_functor_matrix(n, w, gen == "E"))
        ]
        assert len(entries) == len(reference)
        for point in list(sample_points(n + 1, 7))[:3]:
            at = PointResidues(point)
            for e, r in zip(entries, reference):
                assert e.residue(at) == residue_mod_p(r.evaluate(point))
        assert expanded == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_values_are_the_reference_values_and_expand_nothing(self, monkeypatch, n):
        # EulerEntry.evaluate reads the twist and Euler factors, as the
        # witness of a position refuted at a point does
        expanded = _expansions(monkeypatch)
        entries = _geometric_entries(fm.Blocks(n))
        reference = [
            r
            for gen, w in _geometric_keys(n)
            for r in _nonzero(reference_functor_matrix(n, w, gen == "E"))
        ]
        for point in list(sample_points(n + 1, 7))[:2]:
            assert [e.evaluate(point) for e in entries] == [
                reference_rf_evaluate(r, point) for r in reference
            ]
        assert expanded == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_a_vanishing_denominator_factor_raises_as_the_reference(self, n):
        # x1 = x2: every entry that divides by 1 - x1/x2 or 1 - x2/x1 has a pole
        point = (3, 3, *range(5, 5 + n - 2), Fraction(13, 2))
        poles = 0
        for gen in "EF":
            for w in weights(n):
                got = (raising_matrix if gen == "E" else lowering_matrix)(n, w)
                want = reference_functor_matrix(n, w, gen == "E")
                for e, r in zip(_nonzero(got), _nonzero(want)):
                    try:
                        value = r.evaluate(point)
                    except PoleError:
                        poles += 1
                        with pytest.raises(PoleError):
                            e.residue(PointResidues(point))
                        with pytest.raises(PoleError):
                            e.evaluate(point)
                        continue
                    assert e.residue(PointResidues(point)) == residue_mod_p(value)
                    assert e.evaluate(point) == value
        assert poles > 0

    def test_equal_fractions_with_other_data_compare_equal(self):
        (one,) = Poly.one(3).keys
        (up,) = weight_monomial(2, (2,), (1,)).keys  # x2/x1
        (down,) = weight_monomial(2, (1,), (2,)).keys  # x1/x2
        a = fm.EulerEntry(3, one, 1, (up, 1))  # 1 - x1/x2
        b = fm.EulerEntry(3, down, -1, (down, 1))  # -x1/x2 * (1 - x2/x1), the same fraction
        assert a == b and b == a
        assert a.expand() == b.expand() == parse("(x2 - x1)/x2", 3)
        c = fm.EulerEntry(3, down, 1, (down, 1))
        assert a != c and a.expand() != c.expand()
        # their data differ, but their normal forms agree
        assert (a.key, a.chi) != (b.key, b.chi) and a.form == b.form

    @pytest.mark.parametrize("n, entries", [(4, 64), (6, 384)])
    def test_decisions_read_exactly_their_entries_and_expand_none(self, monkeypatch, n, entries):
        # the squares and commutators read the factors of each product at
        # every position, as Euler data, and expand none
        expanded, read = _expansions(monkeypatch), []
        prove = fm._proven

        def reading(n, terms, diagonal):
            read.extend(e for _, a, b in terms for e in (a, b))
            return prove(n, terms, diagonal)

        monkeypatch.setattr(fm, "_proven", reading)
        blocks = fm.Blocks(n)
        for battery in (nilpotency_report, commutator_report, normalized_rep_report):
            assert battery(n, blocks=blocks).passed
        assert {id(e) for e in read} == {id(e) for e in _read_by_decisions(blocks)}
        assert len(_geometric_entries(blocks)) == entries
        assert intertwiner_report(n, blocks=blocks).passed
        assert expanded == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_point_stage_expands_nothing(self, monkeypatch, n):
        expanded = _expansions(monkeypatch)
        blocks = fm.Blocks(n)
        assert next(fm._at_points(blocks, 0xC0FFEE))
        assert expanded == []

    def test_negation_flips_the_sign_and_keeps_the_data(self, monkeypatch):
        expanded = _expansions(monkeypatch)
        e = raising_matrix(3, -1).rows[0][0]
        neg = -e
        assert type(neg) is fm.EulerEntry and (neg.key, neg.chi) == (e.key, e.chi)
        assert neg.sign == -e.sign and neg.form[0] == -e.form[0]
        assert expanded == []
        assert fraction(neg) == -fraction(e)

    def test_a_trivial_weight_is_refused_when_the_block_is_built(self, monkeypatch):
        raw = fm.correspondence_tangent
        monkeypatch.setattr(
            fm, "correspondence_tangent", lambda n, s, b: raw(n, s, b) - Poly.one(n + 1)
        )
        with pytest.raises(NonIsolatedFixedPointError):
            raising_matrix(2, 0)


def _nonzero(block):
    return [e for row in block.rows for e in row if e]


def _fm_outcomes(n, blocks):
    """(title, [(name, passed, witness)], notes) of the four fm batteries
    on one set of blocks."""
    batteries = (nilpotency_report, commutator_report, normalized_rep_report, intertwiner_report)
    reports = [battery(n, blocks=blocks) for battery in batteries]
    return [(r.title, [(c.name, c.passed, c.witness) for c in r.checks], r.notes) for r in reports]


# every mutation fixture that reaches an fm block, for each n; the Koszul
# cone fixture of tests/test_koszul.py reaches none
SWEEP_MUTATIONS = {
    **INTERTWINER_MUTATIONS,
    "flipped parity sign": lambda mp, n: _flip_parity_sign(mp),
    "lowering unit off by q^2": lambda mp, n: _lowering_unit_off_by_q2(mp),
    "perturbed correspondence weight": lambda mp, n: _perturb_correspondence_weight(mp),
    "flag lines times q": lambda mp, n: _flag_lines_times_q(mp),
    "dropped Koszul sign": lambda mp, n: mp.setattr(
        superrep, "apply_generator", test_superrep.unsigned
    ),
    "swapped K and H": lambda mp, n: mp.setattr(
        superrep, "apply_generator", test_superrep.swapped
    ),
}


class TestOrbitSweepAgainstFullSweep:
    """fm.Blocks against FullSweepBlocks, which forms whole matrices.  The
    name is kept from when fm.Blocks checked one entry per S_n-orbit: it
    now decides every position, and this is the full-sweep comparison of
    its checks, witnesses and notes."""

    @pytest.mark.parametrize(
        "n, mutation",
        [(n, None) for n in range(1, 6)] + [(n, m) for m in SWEEP_MUTATIONS for n in range(1, 5)],
    )
    def test_same_checks_witnesses_and_notes(self, monkeypatch, n, mutation):
        if mutation:
            SWEEP_MUTATIONS[mutation](monkeypatch, n)
        assert _fm_outcomes(n, fm.Blocks(n)) == _fm_outcomes(n, FullSweepBlocks(n))


def _constant_parity_sign(monkeypatch):
    """epsilon_sign fixed at +1: it no longer alternates with k, so the
    normalized commutator decides FE - EF, signs (-1, +1) on EF and FE."""
    monkeypatch.setattr(fm, "epsilon_sign", lambda n, k: 1)


def _acting(mutation):
    return lambda mp, n: mp.setattr(superrep, "apply_generator", mutation)


# every fixture that reaches the algebra side or the signs and scalars it
# is held to: SWEEP_MUTATIONS (the Koszul sign and K/H controls among
# them), the unpackable E, the grouplike controls and an epsilon that
# does not alternate
ALGEBRA_CONTROLS = {
    **SWEEP_MUTATIONS,
    "E times x_1": _acting(test_superrep.E_TIMES_X1),
    **{name: _acting(m) for name, m in test_superrep.GROUPLIKE_CONTROLS.items()},
    "constant parity sign": lambda mp, n: _constant_parity_sign(mp),
}


def _outcomes(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks], rep.notes


class TestNormalizedAgainstFractionField:
    """The normalized algebra checks read from superrep's decisions against
    the same checks multiplied out over the fraction field, in the report
    and in the intertwiner's premises."""

    @pytest.mark.parametrize("mutation", [None, *ALGEBRA_CONTROLS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_checks_witnesses_and_notes(self, monkeypatch, n, mutation):
        if mutation:
            ALGEBRA_CONTROLS[mutation](monkeypatch, n)
        blocks = fm.Blocks(n)
        got = normalized_rep_report(n, blocks=blocks)
        assert _outcomes(got) == _outcomes(reference_normalized_rep_report(n))
        if mutation == "constant parity sign":
            assert len(failed_checks(got)) == n
        proof = _outcomes(intertwiner_report(n, blocks=blocks))
        monkeypatch.setattr(fm, "_normalized_square", reference_normalized_square)
        monkeypatch.setattr(fm, "_normalized_commutator", reference_normalized_commutator)
        assert proof == _outcomes(intertwiner_report(n, blocks=blocks))


class TestOneDecisionPerIdentity:
    @pytest.mark.parametrize("n", [4, 6])
    def test_verify_decides_each_identity_once_per_weight(self, monkeypatch, capsys, n):
        # E^2, F^2 and EF + FE at each weight, shared by "defining
        # relations", the normalized algebra report and the intertwiner's
        # algebra premises; the Euler-data proofs read geometric entries
        # alone
        decisions, read = [], []
        holds, prove = superrep.packed_holds, fm._proven
        monkeypatch.setattr(superrep, "packed_holds", lambda *a: decisions.append(a) or holds(*a))

        def reading(n, terms, diagonal):
            read.extend(e for _, a, b in terms for e in (a, b))
            return prove(n, terms, diagonal)

        monkeypatch.setattr(fm, "_proven", reading)
        assert cli.main(["verify", "--n", str(n), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert len(decisions) == 3 * (n + 1)
        assert read and all(isinstance(e, fm.EulerEntry) for e in read)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_verify_raises_expands_and_divides_nothing(self, monkeypatch, capsys, n):
        # on the true action every geometric position is proven from Euler
        # data, so no entry expands and nothing is divided; and none could
        # expand in a decision: an entry is no fraction, and no decision
        # falls back on field arithmetic
        assert not issubclass(fm.EulerEntry, RationalFunction) and not hasattr(fm, "_field_sum")
        calls = []
        for owner, name in ((fm.EulerEntry, "expand"), (Poly, "exact_div")):
            raw = getattr(owner, name)
            counted = lambda *a, raw=raw, name=name: calls.append(name) or raw(*a)  # noqa: E731
            monkeypatch.setattr(owner, name, counted)
        assert cli.main(["verify", "--n", str(n), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert calls == []

    @pytest.mark.parametrize("n", [4, 6])
    def test_squares_and_commutators_decide_every_position(self, monkeypatch, n):
        # one decision per position of every block they check, each proven
        # from Euler data, so no entry expands and nothing is divided
        decided, calls = [], []
        prove = fm._proven
        monkeypatch.setattr(fm, "_proven", lambda *a: decided.append(prove(*a)) or decided[-1])
        for owner, name in ((fm.EulerEntry, "expand"), (Poly, "exact_div")):
            raw = getattr(owner, name)
            counted = lambda *a, raw=raw, name=name: calls.append(name) or raw(*a)  # noqa: E731
            monkeypatch.setattr(owner, name, counted)
        blocks = fm.Blocks(n)
        assert nilpotency_report(n, blocks=blocks).passed
        assert commutator_report(n, blocks=blocks).passed
        dim = {w: comb(n, k_of(n, w)) for w in weights(n)}
        squares = sum(dim[w] * (dim.get(w + 4, 0) + dim.get(w - 4, 0)) for w in weights(n))
        assert len(decided) == squares + sum(d * d for d in dim.values())
        assert None not in decided and calls == []


def _calls(monkeypatch, owner, name):
    """The positional arguments of each call of owner.name from here on."""
    calls, raw = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(a) or raw(*a, **kw))
    return calls


# common_denominator calls of nilpotency_report and commutator_report at
# n = 4 under each fault that fails a geometric check: the broken entry's
# own +, made as its block is built, and no other.  The witness of a
# position proven bad is a Poly difference, proven value minus s, and one
# refuted at the witness point (REFUTED) is the exact value there
COMMON_DENOMINATORS = {
    "negated lowering column": 0,
    "broken raising entry": 1,
    "flipped parity sign": 0,
    "lowering unit off by q^2": 0,
    "perturbed correspondence weight": 0,
    "flag lines times q": 0,
}


class TestWitnessFormsOneEntry:
    """A failing check forms no entry: a failing geometric square or
    commutator reads its witness from the decision that failed it, so no
    fraction-field product (Matrix.__matmul__) is formed, and the one
    difference its witness gives comes from the proven value or is the
    exact value at the point that refuted it.  The normalized algebra
    checks form none either (TestNormalizedAgainstFractionField and
    TestOneDecisionPerIdentity pin them)."""

    def products_and_failures(self, monkeypatch, n):
        """The fraction-field products, the witnesses and the failed checks
        of the geometric batteries at n."""
        products = []
        matmul = Matrix.__matmul__

        def counted(a, b):
            if isinstance(a.zero, RationalFunction):
                products.append((a, b))
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        witnesses = _calls(monkeypatch, fm, "witness")
        blocks = fm.Blocks(n)
        batteries = (nilpotency_report, commutator_report)
        failures = [c.name for b in batteries for c in failed_checks(b(n, blocks=blocks))]
        return len(products), len(witnesses), failures

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_true_action_forms_no_entry(self, monkeypatch, n):
        assert self.products_and_failures(monkeypatch, n) == (0, 0, [])

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mutation", SWEEP_MUTATIONS)
    def test_one_entry_per_failing_product(self, monkeypatch, mutation, n):
        # no product is formed, and each failing check evaluates one
        # difference, its witness's, whether it fails against s or only
        # in its sign
        SWEEP_MUTATIONS[mutation](monkeypatch, n)
        products, witnesses, failures = self.products_and_failures(monkeypatch, n)
        assert products == 0
        assert witnesses == len(failures)
        if mutation == "negated lowering column":
            assert witnesses == 3

    @pytest.mark.parametrize("mutation", COMMON_DENOMINATORS)
    def test_common_denominators_per_fallback_and_proven_witness(self, monkeypatch, mutation):
        # the broken entry's + is also the one expansion
        n = 4
        SWEEP_MUTATIONS[mutation](monkeypatch, n)
        calls = _calls(monkeypatch, ratfunc, "common_denominator")
        expanded = _expansions(monkeypatch)
        blocks = fm.Blocks(n)
        assert failed_checks(nilpotency_report(n, blocks=blocks)) + failed_checks(
            commutator_report(n, blocks=blocks)
        )
        assert len(calls) == len(expanded) == COMMON_DENOMINATORS[mutation]

    def test_a_proven_witness_expands_no_entry(self, monkeypatch):
        # the flipped sign fails positions whose Euler data prove the
        # opposite scalar: the witnesses are polynomials, and no entry
        # expands
        n = 4
        SWEEP_MUTATIONS["flipped parity sign"](monkeypatch, n)
        expanded = _expansions(monkeypatch)
        blocks = fm.Blocks(n)
        assert len(failed_checks(commutator_report(n, blocks=blocks))) == 5
        assert nilpotency_report(n, blocks=blocks).passed
        assert expanded == []

    @pytest.mark.parametrize(
        "mutation, points, subtractions",
        [(None, 0, 0), ("flipped parity sign", 0, 0), ("lowering unit off by q^2", 5, 0)],
    )
    def test_one_point_decides_both_commutator_signs(
        self, monkeypatch, mutation, points, subtractions
    ):
        # commutator_report(4) on prebuilt blocks, counted in point
        # refutations (_refuted) and common_denominator calls.  The true
        # action and the flipped sign prove every position from Euler
        # data; each of the flipped sign's 5 failing sign checks subtracts
        # s from its proven value, two Polys, for its witness.  Off by q^2,
        # each weight's first diagonal position is not proven, so it fails
        # for both signs, and its residues at the one witness point refute
        # s (5 refutations): its witness is the exact value there.
        n = 4
        if mutation:
            SWEEP_MUTATIONS[mutation](monkeypatch, n)
        blocks = fm.Blocks(n)
        for key in _geometric_keys(n):
            blocks.op("geometric", *key)
        calls = _calls(monkeypatch, ratfunc, "common_denominator")
        decided = _calls(monkeypatch, fm, "_refuted")
        failures = failed_checks(commutator_report(n, blocks=blocks))
        assert len(failures) == (5 if mutation else 0)
        assert (len(decided), len(calls)) == (points, subtractions)


def _residues_of(block):
    """A block over Q reduced mod P entry by entry."""
    return [[residue_mod_p(a) for a in row] for row in block.rows]


class TestIntegerPointStage:
    """The intertwiner's point stage over F_P, its entries the integer
    residues mod P (fm._at_points and linalg.pivot_columns), against the
    same stage over Q: the blocks evaluated to Fractions, the projectors
    scaled by 1 / s_w, Gaussian elimination in Fractions."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_pivots_and_ranks_as_over_q(self, n):
        blocks = fm.Blocks(n)
        for seed in (0xC0FFEE, 7, 2026):
            mod_p, fracs = next(fm._at_points(blocks, seed)), next(fraction_points(blocks, seed))
            assert mod_p.keys() == fracs.keys()
            for (side, gen, w), block in mod_p.items():
                # E and F reduce entry by entry; in place of p_w the
                # product F_{w+2} E_w, which is s_w p_w over Q
                want = fracs[side, gen, w]
                if gen == "p":
                    want = fracs[side, "F", w + 2] @ fracs[side, "E", w]
                assert _residues_of(block) == _residues_of(want), (side, gen, w)
            pivots = {}
            for side in fm.SIDES:
                for w in weights(n):
                    pivots[side, w] = reference_pivot_columns(fracs[side, "p", w])
                    assert pivot_columns(mod_p[side, "p", w]) == pivots[side, w]
            for side in fm.SIDES:
                for w in weights(n):
                    got = fm._transported_basis(mod_p, side, w, pivots)
                    want = fm._transported_basis(fracs, side, w, pivots)
                    assert pivot_columns(got) == reference_pivot_columns(want)
                    assert len(pivot_columns(got)) == comb(n, k_of(n, w))

    def test_a_point_distinct_over_q_but_equal_mod_p_is_skipped_like_a_pole(self, monkeypatch):
        # x2 = x1 + P: no entry has a pole over Q, but 1 - x1/x2 has residue 0
        n, blocks = 4, fm.Blocks(4)
        good = next(sample_points(n + 1, 0xC0FFEE))
        bad = (good[0], good[0] + P, *good[2:])
        monkeypatch.setattr(reference, "sample_points", lambda nvars, seed: iter([bad]))
        assert next(fraction_points(blocks, 0xC0FFEE), None) is not None
        with pytest.raises(PoleError):
            for key in fm._block_keys(n):
                fm._residue_block(blocks.op(*key), PointResidues(bad))

        def report(*points):
            monkeypatch.setattr(fm, "sample_points", lambda nvars, seed: iter(points))
            rep = intertwiner_report(n, blocks=blocks)
            return rep.title, [(c.name, c.passed, c.witness) for c in rep.checks], rep.notes

        alone = report(good)
        assert alone[1] and all(passed for _, passed, _ in alone[1])
        assert report(bad, good) == alone
        monkeypatch.setattr(fm, "sample_points", lambda nvars, seed: iter([bad, good]))
        (first,) = fm._at_points(blocks, 0xC0FFEE)
        monkeypatch.setattr(fm, "sample_points", lambda nvars, seed: iter([good]))
        assert first == next(fm._at_points(blocks, 0xC0FFEE))

    def test_flag_line_fault_fails_the_same_checks_with_the_same_witnesses(self, monkeypatch):
        _flag_lines_times_q(monkeypatch)
        blocks = fm.Blocks(4)
        got = _fm_outcomes(4, blocks)
        failed = [name for _, checks, _ in got for name, ok, _ in checks if not ok]
        assert len(failed) == 13
        assert failed[-3:] == [
            "projector ranks agree at weight -2",
            "projector ranks agree at weight 0",
            "transported bases fill the weight-2 block",
        ]
        monkeypatch.setattr(fm, "_at_points", fraction_points)
        monkeypatch.setattr(fm, "pivot_columns", reference_pivot_columns)
        assert _fm_outcomes(4, blocks) == got


# positions refuted at the witness point (squares, commutators) in
# nilpotency_report and commutator_report at n = 4 under each fault: the
# first failing position of each failing check, where Euler data prove no
# value, because an entry is no EulerEntry (a broken entry) or its terms
# neither cancel nor match the residues (a negated column, whose entries
# EulerEntry.__neg__ keeps as Euler data), and not where the value proven
# is the wrong one (the flipped sign).  Every one is refuted, so its
# witness is the exact value at the point, and none is "not proven".
REFUTED = {
    "negated lowering column": (1, 2),
    "broken raising entry": (1, 2),
    "unsigned commutator scalar": (0, 0),
    "flipped parity sign": (0, 0),
    "lowering unit off by q^2": (0, 5),
    "perturbed correspondence weight": (4, 2),
    "flag lines times q": (6, 4),
    "dropped Koszul sign": (0, 0),
    "swapped K and H": (0, 0),
}


def _checked_products(n, w):
    """(products, s) of the geometric squares and the commutator from
    weight w, as fm.Blocks hands them to _first_bad."""
    s = fm._signed_scalars(n)[fm.epsilon_sign(n, k_of(n, w))]
    checks = [([((gen, w + step), (gen, w))], None) for gen, step in (("E", 2), ("F", -2))]
    return checks + [([(("F", w + 2), ("E", w)), (("E", w - 2), ("F", w))], s)]


class TestEulerDecisionsAgainstRaisedSum:
    """fm.Blocks._first_bad, which proves what it can from Euler data,
    fails the rest, and reads a failing check's witness from the decision
    that failed it (the exact value at the point where residues refute
    it), against RaisedSumBlocks, which raises every position in the
    fraction field and forms the witnessed entry afresh by its products.
    The two agree on the true action and under every fault of
    SWEEP_MUTATIONS; on entries that lost their Euler data they do not
    (TestPointRefutation).  FullSweepBlocks is no reference for the
    proofs: it forms whole matrices and never reaches _first_bad (the
    last test pins that)."""

    @pytest.mark.parametrize(
        "n, mutation",
        [(n, None) for n in range(1, 6)] + [(n, m) for m in SWEEP_MUTATIONS for n in range(1, 5)],
    )
    def test_same_positions_witnesses_and_notes(self, monkeypatch, n, mutation):
        if mutation:
            SWEEP_MUTATIONS[mutation](monkeypatch, n)
        got, want = fm.Blocks(n), RaisedSumBlocks(n)
        for w in weights(n):
            for products, s in _checked_products(n, w):
                assert got._first_bad(products, s) == want._first_bad(products, s)
        assert _fm_outcomes(n, got) == _fm_outcomes(n, want)

    @pytest.mark.parametrize("mutation", REFUTED)
    def test_fallbacks_under_each_fault_are_pinned_and_repeat(self, monkeypatch, mutation):
        n = 4
        SWEEP_MUTATIONS[mutation](monkeypatch, n)
        refuted, expanded = _calls(monkeypatch, fm, "_refuted"), _expansions(monkeypatch)
        runs = []
        for _ in range(2):
            blocks = fm.Blocks(n)
            start = len(refuted)
            nilpotency_report(n, blocks=blocks)
            middle = len(refuted)
            commutator_report(n, blocks=blocks)
            runs.append((middle - start, len(refuted) - middle))
        assert runs == [REFUTED[mutation]] * 2
        assert len(expanded) == (2 if mutation == "broken raising entry" else 0)

    @pytest.mark.parametrize("n, refuted", [(1, 0), (2, 3), (3, 3), (4, 3)])
    def test_a_negated_column_raises_only_what_does_not_cancel(self, monkeypatch, n, refuted):
        # -entry keeps its Euler data (EulerEntry.__neg__), so a position
        # whose negated terms still cancel is proven; only those that do
        # not fail, and each failing check's first is refuted at the
        # witness point: nothing is expanded into the fraction field
        SWEEP_MUTATIONS["negated lowering column"](monkeypatch, n)
        seen, expanded = _calls(monkeypatch, fm, "_refuted"), _expansions(monkeypatch)
        blocks = fm.Blocks(n)
        assert all(isinstance(e, fm.EulerEntry) for e in _geometric_entries(blocks))
        nilpotency_report(n, blocks=blocks)
        commutator_report(n, blocks=blocks)
        assert (len(seen), expanded) == (refuted, [])

    @pytest.mark.parametrize("mutation", [None, "flag lines times q"])
    def test_the_full_sweep_reaches_no_euler_proof(self, monkeypatch, mutation):
        if mutation:
            SWEEP_MUTATIONS[mutation](monkeypatch, 3)

        def unreachable(*args):
            raise AssertionError("FullSweepBlocks reached fm.Blocks._first_bad")

        monkeypatch.setattr(fm.Blocks, "_first_bad", unreachable)
        monkeypatch.setattr(fm, "_proven", unreachable)
        assert _fm_outcomes(3, FullSweepBlocks(3))


def _plain_raising_entries(monkeypatch, n):
    """Each nonzero raising entry from weight 2 - n replaced by the equal
    fraction as a plain RationalFunction: the data Euler proofs read are
    gone, the values are not."""
    raw = fm.raising_matrix

    def plain(m, source_weight):
        block = raw(m, source_weight)
        if source_weight == 2 - n:
            for row in block.rows:
                row[:] = [fraction(e) for e in row]
        return block

    monkeypatch.setattr(fm, "raising_matrix", plain)


class TestPointRefutation:
    """A position that Euler data do not prove fails.  Its witness is the
    exact value at the first witness point where residues mod P refute
    it, and otherwise names the position as not proven from Euler data:
    no field arithmetic decides it."""

    @pytest.mark.parametrize("n, failing", [(5, 17), (6, 21)])
    def test_the_flag_line_fault_fails_in_seconds(self, monkeypatch, n, failing):
        _flag_lines_times_q(monkeypatch)
        start = time.perf_counter()
        failures = _geometry_failures(n)
        assert time.perf_counter() - start < 10
        assert len(failures) == failing
        squares = [
            f"{op} twice from weight {w} vanishes"
            for w in weights(n)
            for op, ok in (("raising", w + 4 <= n), ("lowering", w - 4 >= -n))
            if ok
        ]
        commutators = [
            f"weight {w} commutator is a (1-q^{2 * n}) scalar on a dim-{comb(n, k_of(n, w))} block"
            for w in weights(n)[:-1]
        ]
        assert list(failures)[: len(squares) + len(commutators)] == squares + commutators
        for name in squares + commutators:
            assert failures[name].startswith("first bad entry at row 0 (subset ")
            assert " at (x1, ..., q) = (" in failures[name]
            assert "\n" not in failures[name] and len(failures[name]) < 300
        rest = list(failures)[len(squares) + len(commutators) :]
        assert len(rest) == n - 1 and all(failures[name] for name in rest)

    @pytest.mark.parametrize("mutation", SWEEP_MUTATIONS)
    def test_no_fault_divides_or_expands(self, monkeypatch, mutation):
        # the one expansion is the broken entry's, for its own +, made as
        # the block is built
        SWEEP_MUTATIONS[mutation](monkeypatch, 4)
        expanded, divisions = _expansions(monkeypatch), _calls(monkeypatch, Poly, "exact_div")
        _fm_outcomes(4, fm.Blocks(4))
        assert divisions == []
        assert len(expanded) == (1 if mutation == "broken raising entry" else 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_plain_entries_are_not_proven(self, monkeypatch, capsys, n):
        # a negative control: the positions that read a plain entry agree
        # with their targets at the point, but Euler data prove none of
        # them, so the checks that hold them fail; the whole-matrix sweep,
        # which decides in the fraction field, still passes them
        _plain_raising_entries(monkeypatch, n)
        failures = _geometry_failures(n)
        v = 2 - n  # the weight the plain entries raise from
        squares = [f"raising twice from weight {w} vanishes" for w in (v, v - 2) if w + 4 <= n]
        commutators = [
            f"weight {w} commutator is a (1-q^{2 * n}) scalar on a dim-{comb(n, k_of(n, w))} block"
            for w in (v + 2, v)
        ]
        intertwines = [
            f"phi intertwines {gen} at weight {w}"
            for w in (v + 2, v)
            for gen, applies in (("E", w < n), ("F", w > -n))
            if applies
        ]
        assert list(failures) == squares + commutators + intertwines
        for name, bad in failures.items():
            assert "\n" not in bad and len(bad) < 300
            if name in squares + commutators:
                assert bad.startswith("first bad entry at row 0 (subset ")
                assert bad.endswith(" is not proven from Euler data")
            else:
                assert bad.startswith(f"geometric side, weight {name.split()[-1]}: ")
                assert "fails: first bad entry at row 0 (subset " in bad
        assert cli.main(["verify", "--n", str(n), "--json"]) == 1
        assert not json.loads(capsys.readouterr().out)["passed"]
        outcomes = _fm_outcomes(n, FullSweepBlocks(n))
        assert all(ok for _, checks, _ in outcomes for _, ok, _ in checks)


def _x3(e):
    """The packed key of the monomial x1^e1 x2^e2 q^e3."""
    ((key, _),) = Poly.monomial(3, e).keys.items()
    return key


def _euler3(sign, twist, chi):
    """The EulerEntry sign * X^twist * e(chi) in x1, x2, q, chi a dict
    {weight exponents: multiplicity}."""
    pairs = [(_x3(w), m) for w, m in chi.items() if m]
    return fm.EulerEntry(3, _x3(twist), sign, fm._flat(pairs))


def _form(e):
    return fm._collected(e.nvars, [(1, e)])


_EXPONENTS = st.tuples(*[st.integers(-2, 2)] * 3)
_MOVES = st.lists(st.sampled_from(["fold", "sign", "twist", "square", "swap"]), max_size=3)
_EULER_DATA = st.tuples(
    st.sampled_from((1, -1)),
    _EXPONENTS,
    st.dictionaries(_EXPONENTS.filter(any), st.integers(-2, 2).filter(bool), max_size=3),
)


def _inverse(w):
    return tuple(-a for a in w)


class TestNormalForms:
    """The normal-form lemma behind fm._proven and EulerEntry.__eq__: two
    Euler data have equal normal forms exactly when their expanded
    fractions are equal."""

    def test_a_weight_against_its_inverse(self):
        # 1 - x1^-1 = -x1^-1 (1 - x1): the fold flips the sign, moves the key
        w = (1, 0, 0)
        a = _euler3(1, (0, 0, 0), {w: 1})
        b = _euler3(-1, _inverse(w), {_inverse(w): 1})
        assert a.expand() == b.expand() and _form(a) == _form(b)
        c = _euler3(1, _inverse(w), {_inverse(w): 1})
        assert a.expand() != c.expand() and _form(a) != _form(c)

    def test_a_square_weight_against_the_weight(self):
        # e(w^2) / e(w) = 1 + w^-1 is no unit: no key or sign makes them equal
        w = (1, -1, 2)
        a = _euler3(1, (0, 0, 0), {(2, -2, 4): 1})
        for sign in (1, -1):
            for twist in [(0, 0, 0), w, _inverse(w)]:
                b = _euler3(sign, twist, {w: 1})
                assert a.expand() != b.expand() and _form(a) != _form(b)

    @settings(max_examples=100, deadline=None)
    @given(_EULER_DATA, _MOVES)
    # x1^-1 folds onto x1, whose key then follows that of x2/q: equal
    # forms must not depend on the order the weights are folded in
    @example((1, (0, 0, 0), {(-1, 0, 0): 1, (0, 1, -1): 1}), ["fold"])
    def test_equal_forms_exactly_when_equal_fractions(self, data, moves):
        sign, twist, chi = data
        a = _euler3(sign, twist, chi)
        chi = dict(chi)
        for move in moves:
            w = next(iter(chi), None)
            if move == "fold" and w:
                # 1 - w^-1 = -c (1 - c^-1), c = w^-1: the same fraction
                m = chi.pop(w)
                chi[_inverse(w)] = chi.get(_inverse(w), 0) + m
                sign *= (-1) ** (m % 2)
                twist = tuple(t - m * e for t, e in zip(twist, w))
            elif move == "sign":
                sign = -sign
            elif move == "twist":
                twist = (twist[0] + 1, *twist[1:])
            elif move == "square" and w:
                chi[tuple(2 * e for e in w)] = chi.pop(w)
            elif move == "swap" and w:
                chi[w[::-1]] = chi.get(w[::-1], 0) + chi.pop(w)
            chi = {v: m for v, m in chi.items() if m}
        b = _euler3(sign, twist, chi)
        assert (_form(a) == _form(b)) == (a.expand() == b.expand())
        # EulerEntry.__eq__ compares the entries' own normal forms
        assert (a == b) == (a.expand() == b.expand())


class TestResidues:
    """R_j = q^(2n) e(chi_j) (fm.residue), the residue of
    G(z) = prod_l (q^2 z - x_l) / (z prod_l (z - x_l)) at z = x_j."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_the_residues_sum_to_q_2n_minus_one(self, n):
        # the residue theorem on P^1: Res_0 G = 1, Res_infinity G = -q^(2n)
        total = RationalFunction.sum(n + 1, [fraction(fm.residue(n, j)) for j in range(1, n + 1)])
        assert total == Poly.q(n + 1, 2 * n) - Poly.one(n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_each_is_the_residue_of_g(self, n):
        x, q2 = partial(Poly.x, n + 1), Poly.q(n + 1, 2)
        for j in range(1, n + 1):
            num = Poly.one(n + 1)
            for l in range(1, n + 1):
                num = num * (q2 * x(j) - x(l))
            den = [(x(j), 1)] + [(x(j) - x(l), 1) for l in range(1, n + 1) if l != j]
            assert fraction(fm.residue(n, j)) == RationalFunction(n + 1, num, den)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_diagonal_term_is_minus_epsilon_times_a_residue(self, n):
        # FE - EF at (S, S): +F[S, S - j] E[S - j, S] for j in S and
        # -E[S, S + j] F[S + j, S] for j outside S, at every S
        for w in weights(n):
            minus_eps = RationalFunction.const(n + 1, -epsilon_sign(n, k_of(n, w)))
            F_up, E = lowering_matrix(n, w + 2).map(fraction), raising_matrix(n, w).map(fraction)
            E_down, F = raising_matrix(n, w - 2).map(fraction), lowering_matrix(n, w).map(fraction)
            for S in block_points(n, w):
                for j in range(1, n + 1):
                    if j in S:
                        T = tuple(i for i in S if i != j)
                        term = entry(F_up, S, T) * entry(E, T, S)
                    else:
                        T = tuple(sorted((*S, j)))
                        term = -(entry(E_down, S, T) * entry(F, T, S))
                    assert term == fraction(fm.residue(n, j)) * minus_eps
