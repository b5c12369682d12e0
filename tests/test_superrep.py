from math import comb

import pytest

from qglk import cli, superrep
from qglk.cli import main
from qglk.matrix import Matrix
from qglk.poly import Poly
from qglk.superrep import (
    GENERATORS,
    antipode_report,
    apply_generator,
    block_matrix,
    verify_relations,
    weight_block_words,
    weight_blocks,
    weight_structure_report,
    word_from_subset,
)
from reference import basis_words, entry, full_matrix, subset_from_word, word_weight


def qp(n, coeffs):
    """The Laurent polynomial sum c q^e over coeffs {e: c}, in x_1..x_n, q."""
    return Poly(n + 1, {(0,) * n + (e,): c for e, c in coeffs.items()})


class TestBasis:
    def test_block_order_follows_subsets(self):
        # odd positions {1,2} < {1,3} < {2,3} lexicographically
        assert weight_block_words(3, -1) == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]

    def test_basis_is_block_concatenation(self):
        words = basis_words(3)
        assert len(words) == 8
        assert words[0] == (0, 0, 0)
        assert [word_weight(w) for w in words] == [3, 1, 1, 1, -1, -1, -1, -3]

    def test_subset_roundtrip(self):
        for w in basis_words(4):
            assert word_from_subset(4, subset_from_word(w)) == w

    def test_block_sizes(self):
        for n in range(1, 7):
            for k in range(n + 1):
                assert len(weight_block_words(n, n - 2 * k)) == comb(n, k)
        assert weight_block_words(3, 0) == []  # parity mismatch


class TestGeneratorAction:
    def test_one_site(self):
        assert apply_generator("E", (1,)) == [((0,), qp(1, {1: 1, -1: -1}))]
        assert apply_generator("E", (0,)) == []
        assert apply_generator("F", (0,)) == [((1,), qp(1, {0: 1}))]
        assert apply_generator("F", (1,)) == []
        assert apply_generator("K", (1,)) == [((1,), qp(1, {1: 1}))]
        assert apply_generator("H", (1,)) == [((1,), qp(1, {-1: 1}))]

    def test_two_site_raising_with_sign(self):
        # E(v1 (x) v1) = (q - q^-1) q^-1 v0 (x) v1 - (q - q^-1) v1 (x) v0
        img = dict(apply_generator("E", (1, 1)))
        assert img[(0, 1)] == qp(2, {0: 1, -2: -1})
        assert img[(1, 0)] == qp(2, {1: -1, -1: 1})

    def test_two_site_lowering(self):
        # F(v0 (x) v0) = v1 (x) v0 + q v0 (x) v1
        img = dict(apply_generator("F", (0, 0)))
        assert img[(1, 0)] == qp(2, {0: 1})
        assert img[(0, 1)] == qp(2, {1: 1})
        # F(v1 (x) v0) picks up the Koszul sign in slot 2
        img = dict(apply_generator("F", (1, 0)))
        assert img[(1, 1)] == qp(2, {1: -1})

    def test_anticommutator_is_central_scalar(self):
        n = 2
        E, F, K, Kinv = (full_matrix(n, g) for g in ("E", "F", "K", "Kinv"))
        D = E @ F + F @ E
        for i in range(2**n):
            for j in range(2**n):
                expected = qp(n, {n: 1, -n: -1}) if i == j else qp(n, {})
                assert D[i, j] == expected
        assert D == (K - Kinv)


class TestRelations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_relations_hold(self, n):
        rep = verify_relations(n)
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_weight_structure(self, n):
        rep = weight_structure_report(n)
        assert rep.passed, str(rep)

    def test_antipode(self):
        rep = antipode_report()
        assert rep.passed, str(rep)


class TestBlockMatrices:
    def test_raising_kills_top_block(self):
        m = block_matrix(3, "E", 3)
        assert m.nrows == 0 and m.ncols == 1

    def test_block_shapes(self):
        # raising from weight -1 at n=3: 3-dim block to 3-dim block
        m = block_matrix(3, "E", -1)
        assert (m.nrows, m.ncols) == (3, 3)
        m = block_matrix(4, "F", 0)
        assert (m.nrows, m.ncols) == (4, 6)

    def test_blocks_assemble_to_full(self):
        n = 3
        index = {w: i for i, w in enumerate(basis_words(n))}
        for g in GENERATORS:
            full = full_matrix(n, g)
            for m in weight_blocks(n):
                blk = block_matrix(n, g, m)
                for St in blk.rows_points:
                    for Ss in blk.cols_points:
                        i = index[word_from_subset(n, St)]
                        j = index[word_from_subset(n, Ss)]
                        assert entry(blk, St, Ss) == full[i, j]

    def test_entry_accessor_and_json(self):
        # rows and columns are odd-slot subsets; the CLI labels them by words
        m = block_matrix(2, "F", 2)
        assert entry(m, (1,), ()) == qp(2, {0: 1})
        assert entry(m, (2,), ()) == qp(2, {1: 1})
        d = cli._algebra_json(m)
        assert d["shape"] == [2, 1]
        assert d["entries"]["10|00"] == "1"
        assert d["entries"]["01|00"] == "q"

    def test_blocks_beyond_the_ends_are_empty(self):
        m = block_matrix(2, "F", 4)
        assert (m.nrows, m.ncols) == (1, 0)
        with pytest.raises(ValueError, match="parity"):
            block_matrix(2, "E", 1)

    def test_out_of_block_image_word_raises(self, monkeypatch):
        # an E that keeps the weight sends every word outside its target block
        monkeypatch.setattr(superrep, "apply_generator", lambda gen, word: [(word, qp(2, {0: 1}))])
        with pytest.raises(ValueError, match="outside the target block"):
            block_matrix(2, "E", 0)


APPLY = superrep.apply_generator


def unsigned(gen, word):
    """apply_generator without the Koszul sign of the odd letters left of
    the active slot."""
    out = APPLY(gen, word)
    if gen not in ("E", "F"):
        return out
    signed = []
    for w2, c in out:
        slot = next(i for i, (a, b) in enumerate(zip(word, w2)) if a != b)
        signed.append((w2, c * (-1) ** sum(word[:slot])))
    return signed


def swapped(gen, word):
    """apply_generator with the names K and H exchanged."""
    swap = {"K": "H", "H": "K", "Kinv": "Hinv", "Hinv": "Kinv"}
    return APPLY(swap.get(gen, gen), word)


def dense_relations(n):
    """The relation battery on dense 2^n x 2^n matrices: {check name: holds}."""
    E, F, K, Kinv, H, Hinv = (full_matrix(n, g) for g in GENERATORS)
    nvars, d = n + 1, 2**n
    zero = Poly.zero(nvars)
    unit = [[Poly.one(nvars) if i == j else zero for j in range(d)] for i in range(d)]
    one = Matrix(d, d, unit, zero)
    zeros = Matrix(d, d, [[zero] * d] * d, zero)
    return {
        "E^2 = 0": E @ E == zeros,
        "F^2 = 0": F @ F == zeros,
        "EF + FE = K - Kinv": E @ F + F @ E == K - Kinv,
        "HE = q^2 EH": H @ E == (E @ H).scale(Poly.q(nvars, 2)),
        "HF = q^-2 FH": H @ F == (F @ H).scale(Poly.q(nvars, -2)),
        "K central against E": K @ E == E @ K,
        "K central against F": K @ F == F @ K,
        "K central against H": K @ H == H @ K,
        "K Kinv = 1": K @ Kinv == one,
        "H Hinv = 1": H @ Hinv == one,
    }


def _located(check):
    assert check.witness.startswith("weight ")
    assert " first bad entry at row " in check.witness
    assert "(subset {" in check.witness and " at (x1, ..., q) = (" in check.witness
    assert "\n" not in check.witness and len(check.witness) < 300


class TestNegativeControls:
    def test_dropped_koszul_sign_fails_with_a_located_witness(self, monkeypatch, capsys):
        monkeypatch.setattr(superrep, "apply_generator", unsigned)
        rep = verify_relations(3)
        names = [c.name for c in rep.failures]
        assert "E^2 = 0" in names and "F^2 = 0" in names
        for check in rep.failures:
            _located(check)
        assert main(["verify", "--n", "3"]) == 1
        assert "[FAIL] E^2 = 0" in capsys.readouterr().out

    def test_swapped_k_and_h_fail_the_anticommutator(self, monkeypatch):
        monkeypatch.setattr(superrep, "apply_generator", swapped)
        rep = verify_relations(3)
        bad = next(c for c in rep.failures if c.name == "EF + FE = K - Kinv")
        _located(bad)

    @pytest.mark.parametrize("mutation", [None, unsigned, swapped])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_per_block_battery_matches_the_dense_reference(self, monkeypatch, n, mutation):
        if mutation:
            monkeypatch.setattr(superrep, "apply_generator", mutation)
        rep = verify_relations(n)
        assert {c.name: c.passed for c in rep.checks} == dense_relations(n)

    @pytest.mark.parametrize("n", [4, 6])
    def test_battery_forms_no_full_space_matrix(self, monkeypatch, n):
        shapes = []
        matmul = Matrix.__matmul__

        def recording(a, b):
            shapes.append((a.nrows, a.ncols, b.ncols))
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", recording)
        assert verify_relations(n).passed
        assert shapes and max(map(max, shapes)) == comb(n, n // 2)
