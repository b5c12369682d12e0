import json
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

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
from qglk.poly import PointValues, Poly
from qglk.ratfunc import PoleError, RationalFunction
from qglk.report import Report
from qglk.superrep import block_matrix

import test_superrep
from reference import (
    FullSweepBlocks,
    algebra_block,
    certify_invertible,
    column_basis,
    correspondence_pairs,
    entry,
    failed_checks,
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
            up = raising_matrix(n, n - 2 * (k_small + 1))
            down = lowering_matrix(n, n - 2 * k_small).scale(lowering_unit(n).inv())
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
        m = raising_matrix(1, -1)
        assert (m.nrows, m.ncols) == (1, 1)
        assert entry(m, (), (1,)) == parse("x1", 2)

    def test_lowering_n1_values(self):
        raw = lowering_matrix(1, 1).scale(lowering_unit(1).inv())
        assert entry(raw, (1,), ()) == parse("1 - q^-2", 2)
        norm = lowering_matrix(1, 1)
        assert entry(norm, (1,), ()) == parse("(q^2 - 1)/x1", 2)

    def test_raising_n2_closed_forms(self):
        m = raising_matrix(2, 0)
        assert entry(m, (), (1,)) == parse("x1*x2/(x2 - x1)", 3)
        assert entry(m, (), (2,)) == parse("x1*x2/(x1 - x2)", 3)

    def test_lowering_n2_closed_form(self):
        m = lowering_matrix(2, 2)
        expected = parse("((q^4 - q^2)*x1 - (q^2 - 1)*x2) / (x1*x2)", 3)
        assert entry(m, (1,), ()) == expected

    def test_lowering_unit(self):
        assert lowering_unit(2) == parse("q^4/(x1*x2)", 3)
        raw = kernel_value(3, (1,), (1, 2), raising=False) * inverse_euler(Space(3, 1), (1,))
        norm = lowering_matrix(3, 1)
        assert entry(norm, (1, 2), (1,)) == raw * lowering_unit(3)

    def test_empty_blocks(self):
        top = raising_matrix(2, 2)
        assert (top.nrows, top.ncols) == (0, 1)
        bottom = lowering_matrix(2, -2)
        assert (bottom.nrows, bottom.ncols) == (0, 1)
        beyond = raising_matrix(2, 4)
        assert (beyond.nrows, beyond.ncols) == (0, 0)

    def test_compose_weight_check(self):
        e0 = raising_matrix(2, 0)
        e2 = raising_matrix(2, -2)
        assert (e0 @ e2).source_weight == -2
        with pytest.raises(ValueError):
            e2 @ e0

    def test_identity_and_scale(self):
        e = raising_matrix(2, 0)
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

    def test_a_scalar_with_a_denominator_is_refused(self, monkeypatch):
        # a fraction is never read as its numerator alone
        monkeypatch.setattr(fm, "commutator_scalar", lambda n, k: parse("1/(1 - q)", n + 1))
        with pytest.raises(ValueError, match="has a denominator"):
            normalized_rep_report(2)

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
                rhs = raising_matrix(n, w) @ phi[w]
                assert lhs == rhs
            if w - 2 in phi:
                lhs = phi[w - 2] @ algebra_block(n, "F", w)
                rhs = lowering_matrix(n, w) @ phi[w]
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
        "geometric": {w: (fm.raising_matrix(n, w), fm.lowering_matrix(n, w)) for w in weights},
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
        s = fm.commutator_scalar(n, k_of(n, w)).inv()
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
            s_low = fm.commutator_scalar(n, k + 1)
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
            m.rows[0][0] = m.rows[0][0] + RationalFunction.const(n + 1, 1)
        return m

    monkeypatch.setattr(fm, "raising_matrix", corrupted)


def _drop_commutator_sign(monkeypatch):
    def unsigned(n, k):
        return RationalFunction(n + 1, Poly.one(n + 1) - Poly.q(n + 1, 2 * n))

    monkeypatch.setattr(fm, "commutator_scalar", unsigned)


def _flip_parity_sign(monkeypatch):
    raw = fm.epsilon_sign
    monkeypatch.setattr(fm, "epsilon_sign", lambda n, k: -raw(n, k))


def _lowering_unit_off_by_q2(monkeypatch):
    def unit(n):
        return RationalFunction.from_poly(Poly.monomial(n + 1, (-1,) * n + (2 * n - 2,)))

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
    S_n maps to itself, so every geometric block stays equivariant."""
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
        monkeypatch.setattr(fm, "commutator_scalar", lambda n, k: RationalFunction.zero(n + 1))
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
        target = Matrix.scalar_block(2, 0, commutator_scalar(2, 1))
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

    def test_flag_lines_times_q_fail_on_orbit_representatives(self, monkeypatch):
        # a symmetric fault keeps every block equivariant, so the checks run
        # on one entry per orbit and must still catch it
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


class TestEquivarianceGate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_passes_on_every_geometric_block(self, n):
        blocks = fm.Blocks(n)
        assert all(blocks.equivariant(*key) for key in _geometric_keys(n))

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_negated_column_fails_it_on_that_block_only(self, monkeypatch, n):
        _negate_lowering_column(monkeypatch, weight=1 if n == 3 else 2, col=2)
        blocks = fm.Blocks(n)
        failing = [key for key in _geometric_keys(n) if not blocks.equivariant(*key)]
        assert failing == [("F", 1 if n == 3 else 2)]

    @staticmethod
    def euler(twist, chi=()):
        """The EulerEntry twist * e(chi) for a one-term twist in x1..x3, q."""
        ((key, sign),) = twist.keys.items()
        return fm.EulerEntry(4, key, sign, chi)

    def test_each_generator_is_checked(self):
        # on the weight-1 block of n = 3 (rows and columns {1}, {2}, {3}),
        # a shift along the 3-cycle commutes with (1 2 3) but not with (1 2),
        # and a lone entry at ({3}, {3}) commutes with (1 2) but not (1 2 3)
        one = self.euler(Poly.one(4))
        cyclic = Matrix.zero_block(3, 1, 1, RationalFunction.zero(4))
        for i in range(3):
            cyclic.rows[i][(i + 1) % 3] = one
        corner = Matrix.zero_block(3, 1, 1, RationalFunction.zero(4))
        corner.rows[2][2] = one
        assert not fm.is_equivariant(cyclic) and not fm.is_equivariant(corner)
        # x_i q^-1 * e(x_i / q) on the diagonal moves with every sigma
        diagonal = Matrix.zero_block(3, 1, 1, RationalFunction.zero(4))
        for i in range(3):
            x = Poly.x(4, i + 1) * Poly.q(4, -1)
            diagonal.rows[i][i] = self.euler(x, (*x.keys, 1))
        assert fm.is_equivariant(diagonal)
        x2 = Poly.x(4, 2) * Poly.q(4, -1)
        diagonal.rows[0][0] = self.euler(x2, (*x2.keys, 1))
        assert not fm.is_equivariant(diagonal)

    def test_an_entry_that_is_no_euler_entry_fails_it(self):
        # equivariant as fractions, but the gate reads Euler data only: a
        # False sends the products to every position, which is never wrong
        diagonal = Matrix.zero_block(3, 1, 1, RationalFunction.zero(4))
        for i in range(3):
            diagonal.rows[i][i] = self.euler(Poly.x(4, i + 1))
        assert fm.is_equivariant(diagonal)
        for i in range(3):
            diagonal.rows[i][i] = RationalFunction.from_poly(Poly.x(4, i + 1))
        assert not fm.is_equivariant(diagonal)

    def test_flag_lines_times_q_pass_it(self, monkeypatch):
        # the reduced sweep, not the gate, has to catch this fault
        _flag_lines_times_q(monkeypatch)
        blocks = fm.Blocks(4)
        assert all(blocks.equivariant(*key) for key in _geometric_keys(4))
        assert not nilpotency_report(4, blocks=blocks).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_representatives_are_the_first_entry_of_each_orbit(self, n):
        def image(p, S):
            return tuple(sorted(p[i - 1] for i in S))

        for source in weights(n):
            for target in (source - 4, source - 2, source, source + 2, source + 4):
                rows, cols = block_points(n, target), block_points(n, source)
                if not rows or not cols:
                    continue
                first = set()
                for i, S in enumerate(rows):
                    for j, T in enumerate(cols):
                        orbit = {
                            (rows.index(image(p, S)), cols.index(image(p, T)))
                            for p in permutations(range(1, n + 1))
                        }
                        first.add(min(orbit))
                assert fm.orbit_representatives(n, source, target) == sorted(first)

    def test_squares_and_commutators_form_one_entry_per_orbit(self, monkeypatch):
        n = 4
        blocks = fm.Blocks(n)
        for key in _geometric_keys(n):
            # an entry expands on first read, through the trial divisions
            # of euler_class_rf: expand every one first, so that the count
            # below sees the decisions alone
            for row in blocks.op("geometric", *key).rows:
                assert all(e.num is not None for e in row)
        decisions, divisions = [], []
        decide, divide = fm.raised_sum, Poly.exact_div
        monkeypatch.setattr(fm, "raised_sum", lambda *a: decisions.append(a) or decide(*a))
        monkeypatch.setattr(Poly, "exact_div", lambda *a: divisions.append(a) or divide(*a))
        assert nilpotency_report(n, blocks=blocks).passed
        assert commutator_report(n, blocks=blocks).passed
        reps = fm.orbit_representatives
        squares = sum(len(reps(n, w, w + 4)) + len(reps(n, w, w - 4)) for w in weights(n))
        commutators = sum(len(reps(n, w, w)) for w in weights(n))
        assert len(decisions) == squares + commutators
        # a passing check cancels nothing, so it makes no trial division
        assert normalized_rep_report(n, blocks=blocks).passed
        assert divisions == []


def _expansions(monkeypatch):
    """The EulerEntry objects expanded from here on, in order."""
    expanded = []
    raw = fm.EulerEntry._expand
    monkeypatch.setattr(fm.EulerEntry, "_expand", lambda e: expanded.append(e) or raw(e))
    return expanded


def _geometric_entries(blocks):
    return [e for key in _geometric_keys(blocks.n) for e in _nonzero(blocks.op("geometric", *key))]


def _read_by_decisions(blocks):
    """The entries that the square and commutator decisions read when every
    block is equivariant: the nonzero factor pairs a, b of each product
    a * b at each orbit representative."""
    n, read = blocks.n, []
    for w in weights(n):
        products = [(("E", w + 2), ("E", w)), (("F", w - 2), ("F", w))]
        products += [(("F", w + 2), ("E", w)), (("E", w - 2), ("F", w))]
        for left, right in products:
            A, B = (blocks.op("geometric", *key) for key in (left, right))
            for i, j in fm.orbit_representatives(n, B.source_weight, A.target_weight):
                pairs = [(a, row[j]) for a, row in zip(A.rows[i], B.rows) if a and row[j]]
                read += [e for pair in pairs for e in pair]
    return read


class TestEulerEntries:
    """Geometric entries keep their Euler data and expand on first read."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_entries_are_the_eager_reference(self, n):
        for w in weights(n):
            for raising in (True, False):
                got = (raising_matrix if raising else lowering_matrix)(n, w)
                want = reference_functor_matrix(n, w, raising)
                for row, ref in zip(got.rows, want.rows):
                    for e, r in zip(row, ref):
                        assert type(e) is (fm.EulerEntry if r else RationalFunction)
                        assert str(e) == str(r) and structure(e) == structure(r)

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
            at = PointValues(point)
            for e, r in zip(entries, reference):
                assert Fraction(*e.value(at)) == r.evaluate(point)
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
                            e.value(PointValues(point))
                        continue
                    assert Fraction(*e.value(PointValues(point))) == value
        assert poles > 0

    def test_equal_fractions_with_other_data_compare_equal(self):
        (one,) = Poly.one(3).keys
        (up,) = weight_monomial(2, (2,), (1,)).keys  # x2/x1
        (down,) = weight_monomial(2, (1,), (2,)).keys  # x1/x2
        a = fm.EulerEntry(3, one, 1, (up, 1))  # 1 - x1/x2
        b = fm.EulerEntry(3, down, -1, (down, 1))  # -x1/x2 * (1 - x2/x1), the same fraction
        assert a == b and b == a and a == parse("(x2 - x1)/x2", 3)
        assert a != fm.EulerEntry(3, down, 1, (down, 1))
        assert a.permute((2, 1)) == parse("(x1 - x2)/x1", 3)
        # the equivariance gate compares data, so it tells a and b apart
        assert fm._data(a) != fm._data(b)

    @pytest.mark.parametrize("n, counts", [(4, (32, 64)), (6, (72, 384))])
    def test_decisions_expand_exactly_the_entries_they_read(self, monkeypatch, n, counts):
        expanded = _expansions(monkeypatch)
        blocks = fm.Blocks(n)
        for battery in (nilpotency_report, commutator_report, normalized_rep_report):
            assert battery(n, blocks=blocks).passed
        read = _read_by_decisions(blocks)
        assert {id(e) for e in expanded} == {id(e) for e in read}
        assert (len(expanded), len(_geometric_entries(blocks))) == counts
        assert intertwiner_report(n, blocks=blocks).passed
        assert len(expanded) == counts[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gate_and_point_stage_expand_nothing(self, monkeypatch, n):
        expanded = _expansions(monkeypatch)
        blocks = fm.Blocks(n)
        assert all(blocks.equivariant(*key) for key in _geometric_keys(n))
        assert next(fm._at_points(blocks, 0xC0FFEE))
        assert expanded == []

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
        # algebra premises; the fraction-field zero test reads geometric
        # entries alone
        decisions, raised = [], []
        holds, raise_ = superrep.packed_holds, fm.raised_sum
        monkeypatch.setattr(superrep, "packed_holds", lambda *a: decisions.append(a) or holds(*a))

        def recording(nvars, terms, target=None):
            raised.extend(e for _, a, b in terms for e in (a, b))
            return raise_(nvars, terms, target)

        monkeypatch.setattr(fm, "raised_sum", recording)
        assert cli.main(["verify", "--n", str(n), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert len(decisions) == 3 * (n + 1)
        assert raised and all(isinstance(e, fm.EulerEntry) for e in raised)


class TestWitnessFormsOneEntry:
    """A failing geometric square or commutator forms only the entry its
    witness names: one fm.dot per failing square, two (F E and E F) per
    failing commutator, and a passing check none.  The normalized algebra
    checks call neither (TestNormalizedAgainstFractionField and
    TestOneDecisionPerIdentity pin them)."""

    @staticmethod
    def dots_and_failures(monkeypatch, n):
        calls = []
        raw = fm.dot
        monkeypatch.setattr(fm, "dot", lambda *a: calls.append(a) or raw(*a))
        blocks = fm.Blocks(n)
        batteries = (nilpotency_report, commutator_report)
        failures = [c.name for b in batteries for c in failed_checks(b(n, blocks=blocks))]
        return len(calls), failures

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_true_action_forms_no_entry(self, monkeypatch, n):
        assert self.dots_and_failures(monkeypatch, n) == (0, [])

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mutation", SWEEP_MUTATIONS)
    def test_one_entry_per_failing_product(self, monkeypatch, mutation, n):
        SWEEP_MUTATIONS[mutation](monkeypatch, n)
        calls, failures = self.dots_and_failures(monkeypatch, n)
        assert calls == sum(1 if "vanishes" in name else 2 for name in failures)
        if mutation == "negated lowering column":
            assert calls == 5

    @pytest.mark.parametrize("mutation, raisings", [(None, 9), ("flipped parity sign", 25)])
    def test_one_raising_decides_both_commutator_signs(self, monkeypatch, mutation, raisings):
        # commutator_report(4) on prebuilt blocks, counted in
        # common_denominator calls: each checked position is raised once
        # for both signs, and each failing sign check's witness forms one
        # entry.  Under the flipped sign, raising each weight's first
        # diagonal representative again against -s made 30 calls.
        n = 4
        if mutation:
            SWEEP_MUTATIONS[mutation](monkeypatch, n)
        blocks = fm.Blocks(n)
        for key in _geometric_keys(n):
            blocks.equivariant(*key)
        calls = []
        raw = ratfunc.common_denominator
        monkeypatch.setattr(ratfunc, "common_denominator", lambda *a: calls.append(a) or raw(*a))
        failures = failed_checks(commutator_report(n, blocks=blocks))
        assert len(failures) == (5 if mutation else 0)
        assert len(calls) == raisings


class TestIntegerPointStage:
    """The intertwiner's point stage in integers (fm._at_points and
    linalg.pivot_columns) against the same stage over Q: the blocks
    evaluated to Fractions, the projectors scaled by 1 / s_w, Gaussian
    elimination in Fractions."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_pivots_and_ranks_as_over_q(self, n):
        blocks = fm.Blocks(n)
        for seed in (0xC0FFEE, 7, 2026):
            ints, fracs = next(fm._at_points(blocks, seed)), next(fraction_points(blocks, seed))
            assert ints.keys() == fracs.keys()
            for key, block in ints.items():
                # each integer block is a nonzero multiple of its value over Q
                pairs = [(a, b) for ra, rb in zip(block.rows, fracs[key].rows) for a, b in zip(ra, rb)]
                c = next((a / b for a, b in pairs if b), 1)
                assert c and all(a == c * b for a, b in pairs), key
            pivots = {}
            for side in fm.SIDES:
                for w in weights(n):
                    pivots[side, w] = reference_pivot_columns(fracs[side, "p", w])
                    assert pivot_columns(ints[side, "p", w]) == pivots[side, w]
            for side in fm.SIDES:
                for w in weights(n):
                    got = fm._transported_basis(ints, side, w, pivots)
                    want = fm._transported_basis(fracs, side, w, pivots)
                    assert pivot_columns(got) == reference_pivot_columns(want)
                    assert len(pivot_columns(got)) == comb(n, k_of(n, w))

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
