from math import comb

import pytest

from qglk import cli, fm
from qglk.cli import main
from qglk.fm import (
    algebra_matrix,
    commutator_matrix,
    commutator_report,
    commutator_scalar,
    correspondence_pairs,
    correspondence_tangent,
    epsilon_sign,
    find_intertwiner,
    intertwiner_report,
    k_of,
    kernel_value,
    lowering_matrix,
    lowering_unit,
    nilpotency_report,
    normalized_family,
    normalized_rep_report,
    raising_matrix,
    scalar_block,
)
from qglk.grassmann import Character, Space, fixed_points, weight_monomial
from qglk.matrix import WeightBlock, entry_witness
from qglk.poly import Poly
from qglk.ratfunc import RationalFunction, parse


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
        assert correspondence_tangent(1, (), (1,)) == Character.zero()
        # n=2, pair ({1}, {1,2}): flag directions x2/x1 plus the fiber
        t = correspondence_tangent(2, (1,), (1, 2))
        assert t.weights[weight_monomial(2, (2,), (1,))] == 1
        assert t.weights[weight_monomial(2, (1,), (2,), 2)] == 1
        assert t.rank() == 1 + 2

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
            down = lowering_matrix(n, n - 2 * k_small, normalized=False)
            src_up = Space(n, k_small + 1)
            src_down = Space(n, k_small)
            for Ss, Sb in correspondence_pairs(n, k_small):
                assert up.entry(Ss, Sb) == kernel_value(
                    n, Ss, Sb, raising=True
                ) * src_up.inv_euler(Sb)
                assert down.entry(Sb, Ss) == kernel_value(
                    n, Ss, Sb, raising=False
                ) * src_down.inv_euler(Ss)


class TestFunctorMatrices:
    def test_raising_n1_value(self):
        m = raising_matrix(1, -1)
        assert (m.mat.nrows, m.mat.ncols) == (1, 1)
        assert m.entry((), (1,)) == parse("x1", 2)

    def test_lowering_n1_values(self):
        raw = lowering_matrix(1, 1, normalized=False)
        assert raw.entry((1,), ()) == parse("1 - q^-2", 2)
        norm = lowering_matrix(1, 1)
        assert norm.entry((1,), ()) == parse("(q^2 - 1)/x1", 2)

    def test_raising_n2_closed_forms(self):
        m = raising_matrix(2, 0)
        assert m.entry((), (1,)) == parse("x1*x2/(x2 - x1)", 3)
        assert m.entry((), (2,)) == parse("x1*x2/(x1 - x2)", 3)

    def test_lowering_n2_closed_form(self):
        m = lowering_matrix(2, 2)
        expected = parse("((q^4 - q^2)*x1 - (q^2 - 1)*x2) / (x1*x2)", 3)
        assert m.entry((1,), ()) == expected

    def test_lowering_unit(self):
        assert lowering_unit(2) == parse("q^4/(x1*x2)", 3)
        raw = lowering_matrix(3, 1, normalized=False)
        norm = lowering_matrix(3, 1)
        u = lowering_unit(3)
        assert norm.entry((1, 2), (1,)) == raw.entry((1, 2), (1,)) * u

    def test_empty_blocks(self):
        top = raising_matrix(2, 2)
        assert (top.mat.nrows, top.mat.ncols) == (0, 1)
        bottom = lowering_matrix(2, -2)
        assert (bottom.mat.nrows, bottom.mat.ncols) == (0, 1)
        beyond = raising_matrix(2, 4)
        assert (beyond.mat.nrows, beyond.mat.ncols) == (0, 0)

    def test_compose_weight_check(self):
        e0 = raising_matrix(2, 0)
        e2 = raising_matrix(2, -2)
        assert (e0 @ e2).source_weight == -2
        with pytest.raises(ValueError):
            e2 @ e0

    def test_identity_and_scale(self):
        e = raising_matrix(2, 0)
        one = RationalFunction.one(3)
        assert WeightBlock.scalar(2, 2, one) @ e == e
        assert e @ WeightBlock.scalar(2, 0, one) == e
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
        top = commutator_matrix(n, n)
        s_top = commutator_scalar(n, 0)
        assert top.mat[(0, 0)] == s_top
        assert epsilon_sign(n, 0) == (-1) ** (n - 1)
        # bottom block: EF = 0
        bot = commutator_matrix(n, -n)
        assert bot.mat[(0, 0)] == commutator_scalar(n, n)
        assert epsilon_sign(n, n) == -1

    def test_commutator_magnitude_is_x_free(self):
        d = commutator_matrix(3, 1)
        s = d.mat[(0, 0)]
        assert s == parse("1 - q^6", 4) or s == parse("q^6 - 1", 4)

    def test_scalar_helper_signs(self):
        assert commutator_scalar(2, 0) == parse("q^4 - 1", 3)
        assert commutator_scalar(2, 1) == parse("1 - q^4", 3)


class TestNormalizedBlocks:
    def test_unnormalized_matches_superrep(self):
        e = algebra_matrix(2, "E", 0, normalized=False)
        assert e.entry((), (1,)) == parse("(q - q^-1)*q^-1", 3)
        assert e.entry((), (2,)) == parse("q - q^-1", 3)

    def test_normalization_units(self):
        e = algebra_matrix(2, "E", 0)
        assert e.entry((), (1,)) == parse("(q - q^-1)*q^-3", 3)
        f = algebra_matrix(2, "F", 2)
        # k=0 at the source, so the sign is (-1)^(2-0-1) = -1
        assert f.entry((1,), ()) == parse("-q^4", 3)
        assert f.entry((2,), ()) == parse("-q^5", 3)

    def test_only_e_and_f(self):
        with pytest.raises(ValueError):
            algebra_matrix(2, "K", 0)

    def test_scalar_blocks(self):
        fam = normalized_family(3, 1)
        assert fam["K"] == scalar_block(3, 1, 3)
        assert fam["H"].mat[(0, 0)] == RationalFunction.q(4, 1)
        assert fam["E"].target_weight == 3
        assert fam["F"].target_weight == -1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_battery(self, n):
        rep = normalized_rep_report(n)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert len(rep.checks) == 6 * (n + 1)


class TestIntertwiner:
    def test_n1_pinned_blocks(self):
        phi, rep = find_intertwiner(1)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert phi[-1][(0, 0)] == RationalFunction.one(2)
        assert phi[1][(0, 0)] == parse("q^2*x1/(q^2 - 1)", 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exists_and_verifies(self, n):
        phi, rep = find_intertwiner(n)
        assert rep.passed, "\n".join(rep.summary_lines())
        for k in range(n + 1):
            w = n - 2 * k
            b = phi[w]
            assert b.nrows == b.ncols == comb(n, k)

    def test_n2_off_diagonal(self):
        # a diagonal change of basis cannot intertwine both E and F at n=2
        phi, _ = find_intertwiner(2)
        middle = phi[0]
        off = [middle[(0, 1)], middle[(1, 0)]]
        assert any(not v.is_zero() for v in off)

    def test_intertwining_equations_directly(self):
        n = 2
        phi, _ = find_intertwiner(n)
        for k in range(n + 1):
            w = n - 2 * k
            if w + 2 in phi:
                lhs = phi[w + 2] @ algebra_matrix(n, "E", w).mat
                rhs = raising_matrix(n, w).mat @ phi[w]
                assert lhs == rhs
            if w - 2 in phi:
                lhs = phi[w - 2] @ algebra_matrix(n, "F", w).mat
                rhs = lowering_matrix(n, w).mat @ phi[w]
                assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_report_matches_find_intertwiner(self, n):
        rep = intertwiner_report(n, seed=7)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert [c.name for c in rep.checks] == [
            c.name for c in find_intertwiner(n, seed=7)[1].checks
        ]
        assert len(rep.checks) == 4 * n + 2


def _negate_lowering_column(monkeypatch, weight, col):
    raw = fm.lowering_matrix

    def corrupted(n, source_weight, normalized=True):
        m = raw(n, source_weight, normalized)
        if source_weight == weight:
            for row in m.mat.rows:
                row[col] = -row[col]
        return m

    monkeypatch.setattr(fm, "lowering_matrix", corrupted)


def _located(check, side, weight, subset):
    assert check.witness.startswith(f"{side} side, weight {weight}: ")
    assert f"(subset {subset})" in check.witness
    assert "column" in check.witness and "\n" not in check.witness
    assert len(check.witness) < 300


class TestIntertwinerNegativeControls:
    def test_negated_lowering_column_fails_with_a_located_witness(self, monkeypatch, capsys):
        _negate_lowering_column(monkeypatch, weight=1, col=2)
        rep = intertwiner_report(3)
        assert [c.name for c in rep.failures] == ["phi intertwines F at weight 1"]
        assert len(rep.checks) == 14
        _located(rep.failures[0], "geometric", 1, "{1,3}")
        assert "F*B" in rep.failures[0].witness
        assert find_intertwiner(3)[0] == {}
        assert main(["verify", "--n", "3"]) == 1
        assert "phi intertwines F at weight 1" in capsys.readouterr().out

    def test_broken_e_relation_is_located(self, monkeypatch):
        raw = fm.raising_matrix

        def corrupted(n, source_weight):
            m = raw(n, source_weight)
            if source_weight == -1:
                m.mat.rows[0][0] = m.mat.rows[0][0] + RationalFunction.one(n + 1)
            return m

        monkeypatch.setattr(fm, "raising_matrix", corrupted)
        rep = intertwiner_report(3)
        assert "phi intertwines E at weight 1" in [c.name for c in rep.failures]
        bad = next(c for c in rep.failures if c.name == "phi intertwines E at weight 1")
        _located(bad, "geometric", 1, "{}")
        assert "E*B" in bad.witness and "(block E*P)" in bad.witness

    def test_dropped_commutator_sign_fails_without_a_crash(self, monkeypatch):
        def unsigned(n, k):
            return RationalFunction(n + 1, Poly.one(n + 1) - Poly.q(n + 1, 2 * n))

        monkeypatch.setattr(fm, "commutator_scalar", unsigned)
        rep = intertwiner_report(3)
        assert len(rep.checks) == 14
        names = [c.name for c in rep.failures]
        assert names and all(name.startswith("phi intertwines F") for name in names)
        for check in rep.failures:
            assert check.witness.startswith("algebra side, weight ")
            assert len(check.witness) < 300


class TestGeometryBatteryNegativeControls:
    def test_negated_lowering_column_gives_located_witnesses(self, monkeypatch):
        _negate_lowering_column(monkeypatch, weight=1, col=2)
        failures = nilpotency_report(3).failures + commutator_report(3).failures
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
        d = commutator_matrix(2, 0)
        target = WeightBlock.scalar(2, 0, commutator_scalar(2, 1))
        assert entry_witness(d, target) == ""
        d.mat.rows[1][0] = d.mat.rows[1][0] + RationalFunction.q(3, 1)
        witness = entry_witness(d, target)
        assert witness.startswith(
            "first bad entry at row 1 (subset {2}), column 0 (subset {1}) is off by "
        )
        # the added q is the whole difference, so the value is q's coordinate
        value, point = witness.split(" is off by ")[1].split(" at (x1, ..., q) = ")
        assert value == point.strip("()").split(", ")[-1]
