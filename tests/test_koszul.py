import json
import re
from collections import Counter
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglk import cli, koszul
from qglk.grassmann import dual, euler_class_rf, exterior_powers
from qglk.koszul import (
    GradedComplex,
    _dual_line,
    _interpolating,
    _proposition,
    _source,
    cone_class,
    d_of,
    generic_bundle_data,
    koszul_complex,
    located_witness,
)
from qglk.poly import Poly
from qglk.ratfunc import RationalFunction
from reference import failed_checks, iterated_cone_classes, iterated_cone_report, reference_twist
from weights import rank

LIMIT = 1 << 14  # exponents lie in [-LIMIT, LIMIT)


def generalized_koszul(I, L, V, section_q_weight=0):
    """The interpolating complex: degree -j twisted by (L^dual)^{d(I,j)}."""
    duals = exterior_powers(dual(V))
    return _interpolating(duals, _dual_line(L), I, section_q_weight)


def proposition_source(I, i, L, V, section_q_weight=0):
    """Source complex of the one-step cone that moves i in I to i+1.

    Terms: degree -i carries Lambda^i V^dual (L^dual)^{d(I,i)} and degree
    -i+1 carries the same with one fewer L^dual; the class identity
    class(K^{I'}) = class(K^I) - class(source), I' = (I minus {i}) + {i+1},
    fixes the twist normalization.
    """
    duals = exterior_powers(dual(V))
    return _source(duals, _dual_line(L), I, i, section_q_weight)


def proposition_check(I, i, L, V, section_q_weight=0):
    """The one-step cone identity at total-class level, one move at a
    time: the reference for the sweep of koszul.endpoint_report."""
    duals = exterior_powers(dual(V))
    lhs, rhs = _proposition(duals, _dual_line(L), I, i, section_q_weight)
    lhs, rhs = lhs.total_class(), rhs.total_class()
    return lhs == rhs, lhs, rhs


def mono(n_x, q_exp=0, **xs):
    """The weight q^q_exp * prod x_i^e_i in x_1..x_n_x and q."""
    exps = [0] * n_x + [q_exp]
    for name, e in xs.items():
        exps[int(name[1:]) - 1] = e
    return Poly.monomial(n_x + 1, exps)


class TestDOf:
    def test_examples(self):
        assert d_of({1, 2}, 3) == 2
        assert d_of(set(), 7) == 0
        assert d_of({2, 5}, 4) == 1
        assert d_of({1, 2, 3}, 0) == 0


class TestGradedComplex:
    def test_merge_and_shift(self):
        w = mono(1, x1=1)
        a = GradedComplex(2, {0: w})
        b = a.shift(2)
        assert sorted(b.terms) == [-2]
        assert a.shift(1).shift(1) == a.shift(2)
        merged = a.merge(a)
        assert merged.term(0) == 2 * w
        assert merged.term(1) == Poly.zero(2)

    def test_shift_sign(self):
        w = mono(1, x1=1)
        a = GradedComplex(2, {0: w, -1: w**2})
        assert a.shift(1).total_class() == -a.total_class()
        assert a.shift(3).total_class() == a.shift(1).shift(2).total_class()

    def test_cone_of_identity_map_has_zero_class(self):
        a = GradedComplex(2, {0: mono(1, x1=1)})
        assert cone_class(a, a).total_class() == Poly.zero(2)
        assert GradedComplex(2).total_class() == Poly.zero(2)


class TestKoszulComplex:
    def test_rank_one(self):
        w = mono(1, x1=1)
        c = koszul_complex(w)
        assert sorted(c.terms) == [-1, 0]
        assert c.term(0) == mono(1)
        assert c.term(-1) == mono(1, x1=-1)

    def test_rank_two_top_term(self):
        V = mono(2, x1=1) + mono(2, x2=1)
        c = koszul_complex(V)
        assert c.term(-2) == mono(2, x1=-1, x2=-1)
        assert rank(c.term(-1)) == 2

    @pytest.mark.parametrize("qw", [0, 2])
    def test_total_class_is_euler_class(self, qw):
        V = mono(3, x1=1) + mono(3, x2=1) + mono(3, x3=1, q_exp=1)
        c = koszul_complex(V, section_q_weight=qw)
        # twisting every weight down by q^qw matches the per-term q^(qw j)
        shifted = V * mono(3, q_exp=-qw)
        total = RationalFunction.from_poly(c.total_class())
        assert total == euler_class_rf(shifted)


def assert_twist_matches(char, ell_inv, power, q_exp):
    """koszul._twist raises OverflowError exactly where the shift_exps
    reference does, and otherwise returns its value, whose terms are the
    exponents moved by plain tuple arithmetic: nothing wraps."""
    shift = [a * power for a in ell_inv]
    shift[-1] += q_exp
    try:
        want = reference_twist(char, ell_inv, power, q_exp)
    except OverflowError:
        with pytest.raises(OverflowError):
            koszul._twist(char, ell_inv, power, q_exp)
        return False
    got = koszul._twist(char, ell_inv, power, q_exp)
    assert got == want
    assert dict(got.terms) == {tuple(map(add, e, shift)): c for e, c in char.terms.items()}
    assert (got is char) == (not any(shift))  # a zero shift returns its input
    return True


@st.composite
def twist_cases(draw):
    """(char, ell_inv, power, q_exp) in N + 2 variables, N = 0..6: exponents
    near 0 and near both ends of their range, lines like the ones the
    batteries use and arbitrary ones, powers and q exponents near 0, at
    q^(c j) for both section weights c, and across +-2^15, where the
    offset path hands over to shift_exps."""
    nvars = draw(st.integers(2, 8))
    small = st.integers(-3, 3)
    exps = st.one_of(small, st.integers(-LIMIT, 3 - LIMIT), st.integers(LIMIT - 4, LIMIT - 1))
    char = draw(st.dictionaries(st.tuples(*[exps] * nvars), st.integers(-3, 3), max_size=4))
    line = st.one_of(st.integers(-1, 1), st.integers(-LIMIT, LIMIT))
    ell_inv = draw(st.tuples(*[line] * nvars))
    edge = st.one_of(
        small,
        st.integers(-2 * LIMIT - 3, 3 - 2 * LIMIT),
        st.integers(2 * LIMIT - 3, 2 * LIMIT + 3),
        st.integers(-4 * LIMIT, 4 * LIMIT),
    )
    section = st.builds(lambda c, j: c * j, st.sampled_from([2, 0]), st.integers(0, nvars))
    return Poly(nvars, char), ell_inv, draw(edge), draw(st.one_of(section, edge))


class TestOffsetTwist:
    """The twist (L^dual)^power q^q_exp as one key offset against
    Poly.shift_exps (reference.reference_twist)."""

    @given(twist_cases())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_shift_exps_reference(self, case):
        assert_twist_matches(*case)

    @pytest.mark.parametrize(
        "exps, ell_inv, power, q_exp, ok",
        [
            # q exponent from the bottom to the top of its range: offset path
            ((0, -LIMIT), (0, 0), 0, 2 * LIMIT - 1, True),
            # one past it: shift_exps refuses the shift
            ((0, -LIMIT), (0, 0), 0, 2 * LIMIT, False),
            # a twist one past the top: the guard bit shows
            ((LIMIT - 1, 0, 0), (1, 0, 0), 1, 0, False),
            ((-LIMIT, 0, 0), (1, 0, 0), 2 * LIMIT - 1, 0, True),
            ((-LIMIT, 0, 0), (1, 0, 0), 2 * LIMIT, 0, False),
            ((LIMIT - 1, 0, 0), (1, 0, 0), -2 * LIMIT, 0, False),
            # the bound counts |power| times the largest |exponent| of the
            # line plus |q_exp|: here they add up to 2^15 in the q field
            ((0, 0, -LIMIT), (0, 0, 1), LIMIT, LIMIT, False),
            ((0, 0, -LIMIT), (0, 0, 1), LIMIT, LIMIT - 1, True),
            ((0, 0, LIMIT - 1), (0, 0, -1), LIMIT, -LIMIT, False),
            ((0, 0, LIMIT - 1), (0, 0, -1), LIMIT, 1 - LIMIT, True),
            # a zero character still has its shift range-checked
            (None, (1, 0, 0), -2 * LIMIT, 0, True),
            (None, (1, 0, 0), 2 * LIMIT, 0, False),
        ],
    )
    def test_range_edges(self, exps, ell_inv, power, q_exp, ok):
        nvars = len(ell_inv)
        char = Poly.zero(nvars) if exps is None else Poly.monomial(nvars, exps)
        assert assert_twist_matches(char, ell_inv, power, q_exp) == ok

    def test_zero_shift_returns_its_input_and_lengths_must_agree(self):
        w = mono(2, x1=1, x2=-1)
        assert koszul._twist(w, (0, 0, -1), 0) is w
        assert koszul._twist(w, (0, 0, 0), 5, 0) is w
        with pytest.raises(ValueError, match="wrong length"):
            koszul._twist(w, (0, -1), 1)


class TestGeneralizedKoszul:
    def test_empty_index_set_is_plain(self):
        V, L = generic_bundle_data(3)
        assert generalized_koszul([], L, V) == koszul_complex(V)

    def test_full_index_set_twists_by_line(self):
        V, L = generic_bundle_data(3)
        [ell] = L.terms
        VL = Poly(V.nvars, {tuple(map(sum, zip(w, ell))): m for w, m in V.terms.items()})
        assert generalized_koszul([1, 2, 3], L, V) == koszul_complex(VL)
        assert generalized_koszul([1, 2, 3], L, V, 2) == koszul_complex(VL, 2)

    def test_middle_index_set(self):
        V, L = generic_bundle_data(2)
        c = generalized_koszul({2}, L, V)
        plain = koszul_complex(V)
        assert c.term(0) == plain.term(0)
        assert c.term(-1) == plain.term(-1)
        assert c.term(-2) == plain.term(-2) * dual(L)


class TestProposition:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("qw", [0, 2])
    def test_all_valid_moves(self, rank, qw):
        V, L = generic_bundle_data(rank)
        universe = range(1, rank + 1)
        for size in range(rank + 1):
            for I in combinations(universe, size):
                for i in I:
                    if i + 1 in I:
                        continue
                    ok, lhs, rhs = proposition_check(I, i, L, V, qw)
                    assert ok, f"I={I} i={i}: {lhs} != {rhs}"

    def test_invalid_moves_rejected(self):
        V, L = generic_bundle_data(3)
        with pytest.raises(ValueError):
            proposition_source([1, 2], 3, L, V)
        with pytest.raises(ValueError):
            proposition_source([1, 2], 1, L, V)

    def test_source_terms(self):
        V, L = generic_bundle_data(2)
        src = proposition_source([1], 1, L, V)
        # d(1) = 1: degree -1 holds Lambda^1 V^dual (L^dual), degree 0 the untwisted copy
        assert sorted(src.terms) == [-1, 0]
        assert src.term(-1) == exterior_powers(dual(V))[1] * dual(L)
        assert src.term(0) == exterior_powers(dual(V))[1]


class TestLineBundleArgument:
    """L must be one weight of multiplicity 1."""

    @pytest.mark.parametrize("bad", ["two weights", "multiplicity 2", "coefficient -1"])
    def test_rejected_by_every_entry_point(self, bad):
        V, L = generic_bundle_data(2)
        L = {
            "two weights": L + mono(3, x1=1),
            "multiplicity 2": 2 * L,
            "coefficient -1": -L,
        }[bad]
        for call in (
            lambda: generalized_koszul([1], L, V),
            lambda: proposition_check([1], 1, L, V),
            lambda: iterated_cone_classes(2, 1, L, V),
        ):
            with pytest.raises(ValueError, match="line bundle character must have rank 1"):
                call()


class TestIteratedCones:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("qw", [0, 2])
    def test_both_routes_all_k(self, N, qw):
        V, L = generic_bundle_data(N)
        for k in range(N + 1):
            res = iterated_cone_classes(N, k, L, V, qw)
            minus, plus = res.minus.total_class(), res.plus.total_class()
            assert minus == res.target_minus.total_class(), f"N={N} k={k} qw={qw} descending"
            assert plus == res.target_plus.total_class(), f"N={N} k={k} qw={qw} ascending"

    def test_degenerate_ends(self):
        V, L = generic_bundle_data(3)
        res = iterated_cone_classes(3, 3, L, V)
        assert res.plus_indices == []  # nothing to inject when the target is plain
        assert len(res.minus_indices) == 6
        res = iterated_cone_classes(3, 0, L, V)
        assert res.minus_indices == []  # seed already equals the target
        assert len(res.plus_indices) == 6

    def test_index_ranges(self):
        V, L = generic_bundle_data(4)
        res = iterated_cone_classes(4, 2, L, V)
        k, N = 2, 4
        assert res.minus_indices == [
            (a, p) for a in range(1, k + 1) for p in range(N - k + a, N + 1)
        ]
        P = N - k
        assert res.plus_indices == [
            (a, j) for a in range(1, P + 1) for j in range(1, P - a + 2)
        ]

    def test_report(self):
        rep = iterated_cone_report(3, 1)
        assert rep.passed
        assert any("descending indices" in n for n in rep.notes)

    def test_bad_arguments(self):
        V, L = generic_bundle_data(2)
        with pytest.raises(ValueError):
            iterated_cone_classes(2, 5, L, V)
        with pytest.raises(ValueError):
            iterated_cone_classes(3, 1, L, V)  # rank mismatch


class TestLocatedWitnesses:
    def test_by_terms_names_degree_weight_and_both_multiplicities(self):
        w = mono(1, x1=1)
        a = GradedComplex(2, {0: w, -1: 2 * w})
        b = GradedComplex(2, {0: w, -1: w})
        assert located_witness(a, b, ("a", "b")) == "degree -1, weight x1: a 2, b 1"

    def test_by_class_finds_a_degree_where_the_weight_differs(self):
        w, w2 = mono(1, x1=1), mono(1, x1=2)
        a = GradedComplex(2, {-1: w, 0: w})  # class 0
        b = GradedComplex(2, {0: w2})
        assert located_witness(a, b, ("a", "b"), by_class=True) == (
            "degree +0, weight x1^2: a 0, b 1; total class 0 vs 1"
        )


@pytest.fixture
def untwisted_step_block(monkeypatch):
    """Cone blocks without their L^dual twist."""

    def untwisted(char_top, ell_inv, degree):
        return GradedComplex(char_top.nvars, {degree: char_top, degree + 1: char_top})

    monkeypatch.setattr(koszul, "_step_block", untwisted)


@pytest.fixture
def shifted_d_window(monkeypatch):
    """d(I, j) = |I cap [1, j-1]|: wrong twists in K^I, K^{I'} and the
    cone source's top term; the step block itself is untouched."""
    monkeypatch.setattr(koszul, "d_of", lambda I, j: sum(1 for i in I if 1 <= i <= j - 1))


@pytest.fixture
def long_d_window(monkeypatch):
    """d(I, j) = |I cap [1, j+1]|: K^I counts each index one degree early,
    so index sets that differ only in rank + 1 get different twists."""
    monkeypatch.setattr(koszul, "d_of", lambda I, j: sum(1 for i in I if 1 <= i <= j + 1))


@pytest.fixture
def size_twist_in_degree_zero(monkeypatch):
    """d(I, 0) = |I|: every move keeps |I|, so every one-step identity
    still holds, but I and I + {rank + 1} get different K^I classes, so a
    sweep that shared their classes would report moves of i = rank."""
    raw = koszul.d_of
    monkeypatch.setattr(koszul, "d_of", lambda I, j: len(I) if j == 0 else raw(I, j))


@pytest.fixture
def odd_term_times_q(monkeypatch):
    """K^I terms of odd exterior degree j at twist height d > 0 times q:
    every move of an odd index changes such a term against the untouched
    cone source, so exactly those moves fail, under either weight c."""
    raw = koszul._term

    def faulty(duals, ell_inv, j, d, section_q_weight):
        term = raw(duals, ell_inv, j, d, section_q_weight)
        return term * Poly.q(term.nvars) if j % 2 and d > 0 else term

    monkeypatch.setattr(koszul, "_term", faulty)


def valid_moves(rank):
    """Every (I, i) with i in I and i + 1 not in I, in sweep order."""
    return [
        (I, i)
        for size in range(rank + 1)
        for I in combinations(range(1, rank + 1), size)
        for i in I
        if i + 1 not in I
    ]


def reference_sweep(rank, qw):
    """The one-step sweep move by move, both complexes built per move:
    the move count, the failing (I, i) in order and the first witness."""
    V, L = generic_bundle_data(rank)
    moves, bad, first = valid_moves(rank), [], ""
    for I, i in moves:
        if not proposition_check(I, i, L, V, qw)[0]:
            if not bad:
                duals = exterior_powers(dual(V))
                lhs, rhs = _proposition(duals, _dual_line(L), I, i, qw)
                first = located_witness(lhs, rhs, ("K^I'", "cone"), by_class=True)
            bad.append((I, i))
    return len(moves), bad, first


def chained_class(c):
    """Total class of a complex by chained Poly + and -, degree by degree."""
    total = Poly.zero(c.nvars)
    for d, char in c.terms.items():
        total = total + char if d % 2 == 0 else total - char
    return total


class TestSharedClassSweep:
    """The degree-local sweep of endpoint_report against the per-move
    reference: on the true complexes, under a fault in the step block,
    under three in the twist count d(I, j) and under one in the K^I terms;
    all but size_twist_in_degree_zero make every sweep of rank > 0 fail."""

    FAULTS = ["untwisted_step_block", "shifted_d_window", "long_d_window", "odd_term_times_q"]

    @pytest.mark.parametrize("fault", [None, *FAULTS, "size_twist_in_degree_zero"])
    @pytest.mark.parametrize("rank", range(7))
    def test_matches_per_move_reference(self, request, fault, rank):
        if fault:
            request.getfixturevalue(fault)
        V, L = generic_bundle_data(rank)
        duals, ell_inv = exterior_powers(dual(V)), _dual_line(L)
        # 2 then 0 then 2 again: terms must not leak between calls
        for qw in (2, 0, 2):
            total, bad, first = reference_sweep(rank, qw)
            assert koszul._one_step_sweep(duals, ell_inv, rank, qw) == (total, bad, first)
            check = koszul.endpoint_report(rank, qw).checks[-1]
            assert check.name == f"one-step cone identity holds for all {total} valid (I, i)"
            assert bool(bad) == (fault in self.FAULTS and rank > 0) == (not check.passed)
            if bad:
                assert check.witness.startswith(f"{len(bad)} of {total} moves fail, ")
                assert check.witness.endswith(f"; at the first, {first}")

    @pytest.mark.parametrize("qw", [2, 0])
    def test_odd_term_fault_fails_exactly_the_moves_of_odd_indices(self, odd_term_times_q, qw):
        counts = []
        for rank in range(7):
            V, L = generic_bundle_data(rank)
            duals, ell_inv = exterior_powers(dual(V)), _dual_line(L)
            total, bad, _ = koszul._one_step_sweep(duals, ell_inv, rank, qw)
            assert bad == [(I, i) for I, i in valid_moves(rank) if i % 2]
            counts.append(f"{len(bad)}/{total}")
        assert counts == ["0/0", "1/1", "1/3", "6/8", "8/20", "32/48", "48/112"]

    @pytest.mark.parametrize("rank", range(7))
    def test_one_class_per_twist_profile(self, monkeypatch, rank):
        # no K^I class is built per profile any more: each twisted term is
        # built at most once per (j, d), 0 <= d <= j <= rank, in the sweep's
        # table, plus once in each of the two endpoint complexes; a cone
        # source is built through _step_block once per distinct
        # (i, d(I, i)), however many moves share it
        counts = {"_term": 0, "_step_block": 0}
        for name in counts:
            raw = getattr(koszul, name)

            def counted(*args, name=name, raw=raw):
                counts[name] += 1
                return raw(*args)

            monkeypatch.setattr(koszul, name, counted)
        koszul.endpoint_report(rank)
        assert counts["_term"] <= (rank + 1) * (rank + 2) // 2 + 2 * (rank + 1)
        sources = {(i, d_of(I, i)) for I, i in valid_moves(rank)}
        assert counts["_step_block"] == len(sources) == rank * (rank + 1) // 2


class TestDegreeLocalDefect:
    """Each move's defect from the (j, d) table against the same difference
    of full complexes, class(K^{I'}) - class(K^I) + class(source), each
    class summed by chained + and -: equal as Poly values, on the true
    complexes and under every fault."""

    @pytest.mark.parametrize(
        "fault", [None, *TestSharedClassSweep.FAULTS, "size_twist_in_degree_zero"]
    )
    @pytest.mark.parametrize("rank", range(6))
    def test_equals_full_complex_difference(self, request, fault, rank):
        if fault:
            request.getfixturevalue(fault)
        V, L = generic_bundle_data(rank)
        duals, ell_inv = exterior_powers(dual(V)), _dual_line(L)
        for qw in (2, 0):
            seen = []
            for I, i, defect in koszul._move_defects(duals, ell_inv, rank, qw):
                Iprime = tuple(sorted((set(I) - {i}) | {i + 1}))
                full = (
                    chained_class(_interpolating(duals, ell_inv, Iprime, qw))
                    - chained_class(_interpolating(duals, ell_inv, I, qw))
                    + chained_class(_source(duals, ell_inv, I, i, qw))
                )
                assert isinstance(defect, Poly) and defect == full, (I, i, qw)
                seen.append((I, i))
            assert seen == valid_moves(rank)


def outcomes(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


class TestSharedTable:
    """koszul_battery_report reads one set of exterior powers of V^dual for
    its endpoints, sweep and both routes, and reports what the endpoint
    and iterated-cone reports give on their own."""

    @pytest.mark.parametrize(
        "fault", [None, *TestSharedClassSweep.FAULTS, "size_twist_in_degree_zero"]
    )
    def test_battery_is_the_endpoint_report_then_the_route_report(self, request, fault):
        if fault:
            request.getfixturevalue(fault)
        failed = 0
        for rank in range(7):
            for k in range(rank + 1):
                for qw in (2, 0):
                    battery = koszul.koszul_battery_report(rank, k, qw)
                    ends = koszul.endpoint_report(rank, qw)
                    routes = iterated_cone_report(rank, k, qw)
                    assert outcomes(battery) == outcomes(ends) + outcomes(routes)
                    assert battery.notes == ends.notes + routes.notes
                    failed += not battery.passed
        # every fault breaks some check at some rank
        assert bool(failed) == bool(fault)

    @pytest.mark.parametrize("rank", range(7))
    def test_one_exterior_power_table_and_no_exponent_shift(self, monkeypatch, rank):
        calls = Counter()
        raw_powers, raw_shift = koszul.exterior_powers, Poly.shift_exps

        def powers(char):
            calls["exterior_powers"] += 1
            return raw_powers(char)

        def shift_exps(char, shift):
            calls["shift_exps"] += 1
            return raw_shift(char, shift)

        monkeypatch.setattr(koszul, "exterior_powers", powers)
        monkeypatch.setattr(Poly, "shift_exps", shift_exps)
        for k in range(rank + 1):
            calls.clear()
            assert koszul.koszul_battery_report(rank, k).passed
            # the shared table, then one each inside the plain and the
            # twisted Koszul complex; every twist is one key offset
            assert calls == {"exterior_powers": 3}


def failing_checks(capsys):
    """Name to witness of every failing check in the captured --json document."""
    doc = json.loads(capsys.readouterr().out)
    checks = [c for r in doc["reports"] for c in r["checks"]]
    return {c["name"]: c["witness"] for c in checks if not c["passed"]}


class TestNegativeControl:
    """A cone block without its L^dual twist, a twist count read one step
    short, or odd K^I terms times q must fail, with located witnesses."""

    def test_cli_exits_one_with_bounded_located_witnesses(self, untwisted_step_block, capsys):
        assert cli.main(["koszul", "--rank", "3", "--k", "1", "--json"]) == 1
        failing = failing_checks(capsys)
        assert set(failing) == {
            "one-step cone identity holds for all 8 valid (I, i)",
            "descending route reaches the interpolating complex",
            "ascending route reaches it after the global twist",
        }
        assert all(len(w) < 300 for w in failing.values())
        sweep = failing["one-step cone identity holds for all 8 valid (I, i)"]
        assert sweep == (
            "8 of 8 moves fail, (I, i) = ((1,), 1), ((2,), 2), ((3,), 3), ...; "
            "at the first, degree -2, weight x3^-1*q^2: K^I' 0, cone 1; total class -1 vs 0"
        )
        for name in ("descending", "ascending"):
            witness = next(w for n, w in failing.items() if n.startswith(name))
            assert witness.startswith("degree ") and ": route " in witness

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_every_sweep_fails_with_a_short_witness(self, untwisted_step_block, rank):
        rep = koszul.endpoint_report(rank)
        assert [c.name for c in failed_checks(rep)] == [rep.checks[-1].name]
        witness = failed_checks(rep)[0].witness
        moves = re.findall(r"\(\([\d, ]*\), \d+\)", witness)
        assert len(witness) < 300 and 1 <= len(moves) <= 3
        total = re.search(r"all (\d+) valid", failed_checks(rep)[0].name).group(1)
        assert re.match(rf"\d+ of {total} moves fail, ", witness)

    def test_shifted_d_window_fails_endpoint_sweep_and_routes(self, shifted_d_window, capsys):
        assert cli.main(["koszul", "--rank", "3", "--k", "1", "--json"]) == 1
        failing = failing_checks(capsys)
        assert set(failing) == {
            "full index set gives the complex of the twisted bundle",
            "one-step cone identity holds for all 8 valid (I, i)",
            "descending route reaches the interpolating complex",
            "ascending route reaches it after the global twist",
        }
        assert failing["one-step cone identity holds for all 8 valid (I, i)"] == (
            "8 of 8 moves fail, (I, i) = ((1,), 1), ((2,), 2), ((3,), 3), ...; "
            "at the first, degree -1, weight x3^-1*x4*q^2: K^I' 0, cone 1; total class 0 vs -1"
        )

    def test_odd_term_times_q_fails_endpoint_sweep_and_routes(self, odd_term_times_q, capsys):
        assert cli.main(["koszul", "--rank", "3", "--k", "1", "--json"]) == 1
        failing = failing_checks(capsys)
        assert set(failing) == {
            "full index set gives the complex of the twisted bundle",
            "one-step cone identity holds for all 8 valid (I, i)",
            "descending route reaches the interpolating complex",
            "ascending route reaches it after the global twist",
        }
        assert failing["one-step cone identity holds for all 8 valid (I, i)"] == (
            "6 of 8 moves fail, (I, i) = ((1,), 1), ((3,), 3), ((1, 3), 1), ...; "
            "at the first, degree -1, weight x3^-1*x4^-1*q^3: K^I' 0, cone 1; total class 0 vs -1"
        )
