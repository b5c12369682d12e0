import re
from collections import Counter
from functools import reduce
from math import comb
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglk import cli, superrep
from qglk.cli import main
from qglk.matrix import Matrix, block_points, weights
from qglk.poly import Poly, kronecker
from qglk.superrep import (
    GENERATORS,
    PACK_BITS,
    antipode_report,
    apply_generator,
    block_matrix,
    pack,
    packed_holds,
    verify_relations,
    weight_structure_report,
    word_from_subset,
)
from reference import (
    basis_subsets,
    basis_words,
    entry,
    failed_checks,
    full_matrix,
    reference_verify_relations,
    subset_from_word,
    word_action,
    word_weight,
)


def qp(n, coeffs):
    """The Laurent polynomial sum c q^e over coeffs {e: c}, in x_1..x_n, q."""
    return Poly(n + 1, {(0,) * n + (e,): c for e, c in coeffs.items()})


class TestBasis:
    def test_block_order_follows_subsets(self):
        # odd positions {1,2} < {1,3} < {2,3} lexicographically
        assert block_points(3, -1) == ((1, 2), (1, 3), (2, 3))
        words = [word_from_subset(3, S) for S in block_points(3, -1)]
        assert words == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]

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
                assert len(block_points(n, n - 2 * k)) == comb(n, k)
        with pytest.raises(ValueError, match="parity"):
            block_points(3, 0)


class TestGeneratorAction:
    # a basis vector is named by its odd slots: v1 = {1} and v0 = {} on
    # one site, v1 (x) v0 = {1} and v0 (x) v1 = {2} on two
    def test_one_site(self):
        assert apply_generator("E", 1, (1,)) == [((), qp(1, {1: 1, -1: -1}))]
        assert apply_generator("E", 1, ()) == []
        assert apply_generator("F", 1, ()) == [((1,), qp(1, {0: 1}))]
        assert apply_generator("F", 1, (1,)) == []
        assert apply_generator("K", 1, (1,)) == [((1,), qp(1, {1: 1}))]
        assert apply_generator("H", 1, (1,)) == [((1,), qp(1, {-1: 1}))]

    def test_two_site_raising_with_sign(self):
        # E(v1 (x) v1) = (q - q^-1) q^-1 v0 (x) v1 - (q - q^-1) v1 (x) v0
        img = dict(apply_generator("E", 2, (1, 2)))
        assert img[(2,)] == qp(2, {0: 1, -2: -1})
        assert img[(1,)] == qp(2, {1: -1, -1: 1})

    def test_two_site_lowering(self):
        # F(v0 (x) v0) = v1 (x) v0 + q v0 (x) v1
        img = dict(apply_generator("F", 2, ()))
        assert img[(1,)] == qp(2, {0: 1})
        assert img[(2,)] == qp(2, {1: 1})
        # F(v1 (x) v0) picks up the Koszul sign in slot 2
        img = dict(apply_generator("F", 2, (1,)))
        assert img[(1, 2)] == qp(2, {1: -1})

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_subset_action_matches_word_action(self, n):
        for gen in GENERATORS:
            for word in basis_words(n):
                want = [(subset_from_word(w2), c) for w2, c in word_action(gen, word)]
                assert apply_generator(gen, n, subset_from_word(word)) == want, (gen, word)

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
        assert [c.name for c in rep.checks] == [f"H acts by q^{m} on weight {m}" for m in weights(n)]

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
        index = {S: i for i, S in enumerate(basis_subsets(n))}
        for g in GENERATORS:
            full = full_matrix(n, g)
            for m in weights(n):
                blk = block_matrix(n, g, m)
                for St in blk.rows_points:
                    for Ss in blk.cols_points:
                        assert entry(blk, St, Ss) == full[index[St], index[Ss]]

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
        # an E that keeps the weight sends every subset outside its target block
        monkeypatch.setattr(superrep, "apply_generator", lambda gen, n, S: [(S, qp(2, {0: 1}))])
        with pytest.raises(ValueError, match="outside the target block"):
            block_matrix(2, "E", 0)


APPLY = superrep.apply_generator


def unsigned(gen, n, S):
    """apply_generator without the Koszul sign of the odd slots left of
    the active slot."""
    out = APPLY(gen, n, S)
    if gen not in ("E", "F"):
        return out
    signed = []
    for S2, c in out:
        (slot,) = set(S) ^ set(S2)
        signed.append((S2, c * (-1) ** sum(i < slot for i in S)))
    return signed


def swapped(gen, n, S):
    """apply_generator with the names K and H exchanged."""
    swap = {"K": "H", "H": "K", "Kinv": "Hinv", "Hinv": "Kinv"}
    return APPLY(swap.get(gen, gen), n, S)


def _times(gen, factor):
    """A mutation of apply_generator: gen's coefficient on S times
    factor(n, S), every other generator as it is."""

    def mutation(g, n, S):
        out = APPLY(g, n, S)
        return out if g != gen else [(S2, c * factor(n, S)) for S2, c in out]

    return mutation


def h_off_diagonal(gen, n, S):
    """apply_generator with one off-diagonal entry in H's weight n - 2
    block: the subset {1} also goes to {2}."""
    out = APPLY(gen, n, S)
    if gen == "H" and S == (1,) and n > 1:
        return out + [((2,), qp(n, {0: 1}))]
    return out


# broken K, Kinv and H actions, each of which fails the scalar test
GROUPLIKE_CONTROLS = {
    # K times q on the subsets that hold 1: not a scalar on a block
    "K not a scalar": _times("K", lambda n, S: qp(n, {int(1 in S): 1})),
    # K times q^|S|: a scalar on each block, but one that changes with the weight
    "K scaled by weight": _times("K", lambda n, S: qp(n, {len(S): 1})),
    "Kinv negated": _times("Kinv", lambda n, S: -1),
    "H times q": _times("H", lambda n, S: qp(n, {1: 1})),
    "H off the diagonal": h_off_diagonal,
}


# every E entry times x_1: no E block packs, so E^2, F^2 and EF + FE take
# the Poly products, and EF + FE = x_1 (K - Kinv) fails
E_TIMES_X1 = _times("E", lambda n, S: Poly.x(n + 1, 1))


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
        names = [c.name for c in failed_checks(rep)]
        assert "E^2 = 0" in names and "F^2 = 0" in names
        for check in failed_checks(rep):
            _located(check)
        assert main(["verify", "--n", "3"]) == 1
        assert "[FAIL] E^2 = 0" in capsys.readouterr().out

    def test_swapped_k_and_h_fail_the_anticommutator(self, monkeypatch):
        monkeypatch.setattr(superrep, "apply_generator", swapped)
        rep = verify_relations(3)
        bad = next(c for c in failed_checks(rep) if c.name == "EF + FE = K - Kinv")
        _located(bad)

    @pytest.mark.parametrize(
        "mutation",
        [None, unsigned, swapped, pytest.param(E_TIMES_X1, id="E times x_1")]
        + [pytest.param(m, id=name) for name, m in GROUPLIKE_CONTROLS.items()],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_per_block_battery_matches_the_dense_reference(self, monkeypatch, n, mutation):
        if mutation:
            monkeypatch.setattr(superrep, "apply_generator", mutation)
        rep, ref = verify_relations(n), reference_verify_relations(n)
        outcomes = [(c.name, c.passed, c.witness) for c in rep.checks]
        assert outcomes == [(c.name, c.passed, c.witness) for c in ref.checks]
        assert rep.notes == ref.notes
        if n <= 4:
            assert {c.name: c.passed for c in rep.checks} == dense_relations(n)

    @pytest.mark.parametrize("n, products", [(4, 20), (6, 28)])
    def test_grouplike_relations_form_no_block_product(self, monkeypatch, n, products):
        # E^2, F^2 and EF + FE at every weight, with the empty blocks at
        # the ends, each over packed ints: the multiplied-out battery
        # forms 80 and 112 products of Poly entries
        k_blocks, formed = set(), []
        block_matrix, matmul = superrep.block_matrix, Matrix.__matmul__

        def recording_block(n, gen, w):
            block = block_matrix(n, gen, w)
            if gen == "K":
                k_blocks.add(id(block))
            return block

        def recording(a, b):
            formed.append((bool({id(a), id(b)} & k_blocks), type(a.zero), type(b.zero)))
            return matmul(a, b)

        monkeypatch.setattr(superrep, "block_matrix", recording_block)
        monkeypatch.setattr(Matrix, "__matmul__", recording)
        assert verify_relations(n).passed
        assert formed == [(False, int, int)] * products
        # a K that is no scalar falls back to the products with K
        formed.clear()
        monkeypatch.setattr(superrep, "apply_generator", GROUPLIKE_CONTROLS["K not a scalar"])
        assert not verify_relations(n).passed
        assert len(formed) > products and any(k for k, _, _ in formed)

    # the grouplike blocks each control's fallback must form
    FALLBACK_BLOCK = {
        "K not a scalar": "K",
        "K scaled by weight": "K",
        "Kinv negated": "Kinv",
        "H times q": "Hinv",
        "H off the diagonal": "Hinv",
    }

    @pytest.mark.parametrize(
        "n, control",
        # H off the diagonal needs two sites
        [(n, None) for n in range(1, 7)]
        + [(n, c) for c in GROUPLIKE_CONTROLS for n in range(2, 7)],
    )
    def test_grouplike_blocks_are_formed_only_on_a_fallback(self, monkeypatch, n, control):
        built, block_matrix = Counter(), superrep.block_matrix

        def recording(n, gen, w):
            built[gen] += 1
            return block_matrix(n, gen, w)

        monkeypatch.setattr(superrep, "block_matrix", recording)
        if control:
            monkeypatch.setattr(superrep, "apply_generator", GROUPLIKE_CONTROLS[control])
        rep = verify_relations(n)
        # E and F at every weight and one step beyond either end, H at
        # every weight; the scalars of K, Kinv, H and Hinv come from
        # apply_generator
        assert {g: built.pop(g) for g in "EFH"} == {"E": n + 3, "F": n + 3, "H": n + 1}
        if not control:
            assert rep.passed and not built
            return
        assert built[self.FALLBACK_BLOCK[control]] > 0 and set(built) <= {"K", "Kinv", "Hinv"}
        ref = reference_verify_relations(n)
        outcomes = [(c.name, c.passed, c.witness) for c in rep.checks]
        assert outcomes == [(c.name, c.passed, c.witness) for c in ref.checks]
        assert failed_checks(rep)

    # Poly products a failing check forms at its first bad weight
    POLY_PRODUCTS = {"E^2 = 0": 1, "F^2 = 0": 1, "K Kinv = 1": 1, "H Hinv = 1": 1}

    @pytest.mark.parametrize("mutation", [unsigned, swapped])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_a_control_forms_poly_products_at_its_first_bad_weight_only(
        self, monkeypatch, n, mutation
    ):
        monkeypatch.setattr(superrep, "apply_generator", mutation)
        formed, matmul = [], Matrix.__matmul__

        def recording(a, b):
            if not isinstance(a.zero, int):
                formed.append((b.source_weight, a.target_weight))
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", recording)
        rep, want = verify_relations(n), Counter()
        for check in failed_checks(rep):
            source, target = re.match(r"weight (-?\d+) -> (-?\d+): ", check.witness).groups()
            want[int(source), int(target)] += self.POLY_PRODUCTS.get(check.name, 2)
        assert failed_checks(rep) and Counter(formed) == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unpackable_entries_fall_back_to_the_poly_products(self, monkeypatch, n):
        monkeypatch.setattr(superrep, "apply_generator", E_TIMES_X1)
        formed, matmul = Counter(), Matrix.__matmul__

        def recording(a, b):
            formed[type(a.zero), a.target_weight - b.source_weight] += 1
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", recording)
        rep = verify_relations(n)
        assert [c.name for c in failed_checks(rep)] == ["EF + FE = K - Kinv"]
        _located(failed_checks(rep)[0])
        # F^2 still packs, and so does E^2 from the top weight, where both
        # E blocks are empty; E^2 below it and EF + FE at its first (top)
        # weight take the Poly products
        assert formed == {(int, -4): n + 1, (int, 4): 1, (Poly, 4): n, (Poly, 0): 2}

    @pytest.mark.parametrize("control", sorted(GROUPLIKE_CONTROLS))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grouplike_controls_fail_with_a_located_witness(self, monkeypatch, n, control):
        monkeypatch.setattr(superrep, "apply_generator", GROUPLIKE_CONTROLS[control])
        rep = verify_relations(n)
        assert failed_checks(rep)
        for check in failed_checks(rep):
            _located(check)

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


ZERO = Poly.zero(2)


@st.composite
def packing_cases(draw):
    """(bits, shift, products, target): A @ B = 0 built as [A A] [B; -B],
    or A @ B + C @ D = t with t the sum.  Entries are Laurent polynomials
    in q alone (nvars 2) with exponents from -shift; sometimes one entry
    of A is one the packer must refuse, and one entry of the right factor
    or of t is perturbed, also by 2^bits q^e - q^(e+1), which packs to 0."""
    bits, shift = draw(st.integers(2, 8)), draw(st.integers(0, 2))
    entry = st.dictionaries(st.integers(-shift, shift + 1), st.integers(-3, 3), max_size=3)
    m, k, p = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))

    def block(r, c):
        return Matrix(r, c, [[qp(1, draw(entry)) for _ in range(c)] for _ in range(r)], ZERO)

    def perturbed(M, low):
        e = draw(st.integers(low, 2))
        delta = draw(
            st.sampled_from([None, qp(1, {e: 1}), qp(1, {e: -1}), qp(1, {e: 2**bits, e + 1: -1})])
        )
        if delta is not None and M.nrows and M.ncols:
            i, j = draw(st.integers(0, M.nrows - 1)), draw(st.integers(0, M.ncols - 1))
            M.rows[i][j] = M.rows[i][j] + delta
        return M

    A, B = block(m, k), block(k, p)
    if k:
        wild = [None, None, qp(1, {-shift - 1: 1}), qp(1, {0: 2**bits}), qp(1, {0: 2**bits, 1: -1})]
        A.rows[0][0] = draw(st.sampled_from(wild)) or A.rows[0][0]
    if draw(st.booleans()):
        doubled = Matrix(m, 2 * k, [r + r for r in A.rows], ZERO)
        right = Matrix(2 * k, p, B.rows + (-B).rows, ZERO)
        return bits, shift, [(doubled, perturbed(right, -shift))], None
    C, D = block(m, k), block(k, p)
    return bits, shift, [(A, B), (C, D)], perturbed(A @ B + C @ D, -2 * shift)


class TestPackingLemma:
    """The packed decision of packed_holds against the Poly products: it
    may decline (None) but never disagrees.  PACK_BITS is lowered so that
    small coefficients reach the bound."""

    @given(packing_cases())
    @settings(max_examples=300, deadline=None)
    def test_packed_decision_is_the_poly_decision(self, case):
        bits, shift, products, target = case
        got = reduce(add, (A @ B for A, B in products))
        holds = not any(map(any, got.rows)) if target is None else got == target
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(superrep, "PACK_BITS", bits)
            ops = [(pack(A, shift), pack(B, shift)) for A, B in products]
            t = target and pack(target, 2 * shift)
            if target is None or t:
                assert packed_holds(ops, t) in (None, holds)

    @given(packing_cases(), st.lists(st.sampled_from((1, -1)), min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_a_sign_on_a_product_is_one_on_its_right_factor(self, case, signs):
        # signs of +-1 change no norm, so the bound and the decision are
        # those of the products with each right factor negated as signed
        bits, shift, products, target = case
        signs = signs[: len(products)]
        got = reduce(add, ((A @ B).scale(s) for (A, B), s in zip(products, signs)))
        holds = not any(map(any, got.rows)) if target is None else got == target
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(superrep, "PACK_BITS", bits)
            ops = [(pack(A, shift), pack(B, shift)) for A, B in products]
            flipped = [
                (pack(A, shift), pack(B.scale(s), shift)) for (A, B), s in zip(products, signs)
            ]
            t = target and pack(target, 2 * shift)
            if target is None or t:
                assert packed_holds(ops, t, signs) == packed_holds(flipped, t) in (None, holds)

    @pytest.mark.parametrize("bits", [4, PACK_BITS])
    def test_a_coefficient_of_2_to_the_bits_is_refused(self, monkeypatch, bits):
        # 2^b - q at shift 0 is 2^b - 2^b = 0 at q = 2^b: packing it would
        # alias zero, so the packer refuses it and the check falls back
        monkeypatch.setattr(superrep, "PACK_BITS", bits)
        p = qp(1, {0: 2**bits, 1: -1})
        assert p and p.evaluate((1, 2**bits)) == 0
        assert kronecker(p, bits, 0) is None
        assert pack(Matrix(1, 1, [[p]], ZERO), 0) is None
        assert packed_holds([(None, None)]) is None
        assert kronecker(qp(1, {0: 2**bits - 1, 1: -1}), bits, 0) == (-1, 2**bits)

    def test_refused_entries(self):
        assert kronecker(Poly.x(2, 1), PACK_BITS, 0) is None  # involves x_1
        assert kronecker(qp(1, {-2: 1}), PACK_BITS, 1) is None  # exponent below -shift
        assert kronecker(qp(1, {-2: 1, 3: -2}), 4, 2) == (1 - 2 * 2 ** (4 * 5), 3)
        assert kronecker(ZERO, PACK_BITS, 0) == (0, 0)

    def test_the_bound_declines_what_it_cannot_decide(self, monkeypatch):
        # [1 1] [2^3; 2^3] = 2^4: every entry packs at b = 4, but the
        # product's coefficient reaches the bound; at b = 5 it decides
        for bits, decision in ((4, None), (5, False)):
            monkeypatch.setattr(superrep, "PACK_BITS", bits)
            a = pack(Matrix(1, 2, [[qp(1, {0: 1})] * 2], ZERO), 0)
            c = pack(Matrix(2, 1, [[qp(1, {0: 8})]] * 2, ZERO), 0)
            assert packed_holds([(a, c)]) is decision
