"""End-to-end acceptance battery.

Each test below pins one advertised guarantee of the package together with
the wall-clock budget it must meet on commodity hardware.  Everything is
checked with exact arithmetic; the timing assertions keep the exhaustive
sweeps honest about staying at desk scale.
"""

import time
from math import comb

from qglk import fm, koszul, superrep
from qglk.grassmann import Space
from qglk.matrix import block_points
from qglk.ratfunc import RationalFunction
from reference import (
    FullSweepBlocks,
    algebra_block,
    basis_words,
    entry,
    failed_checks,
    fraction,
    full_symbolic_rank,
    iterated_cone_report,
    phi_from_bases,
)
from rf_parser import parse


def fail_text(report):
    return "; ".join(f"{c.name}: {c.witness}" for c in failed_checks(report))


class TestAlgebraRelations:
    # exact E^2 = F^2 = 0, EF + FE = q^N - q^{-N}, grading and
    # conjugation identities on the full 2^N-dimensional tensor space
    def test_relation_battery_to_n6_under_10s(self):
        start = time.perf_counter()
        for n in range(1, 7):
            rep = superrep.verify_relations(n)
            assert rep.passed, f"n={n}: {fail_text(rep)}"
        assert time.perf_counter() - start < 10.0


class TestWeightDimensions:
    def test_block_dims_binomial_and_total_power_of_two_under_1s(self):
        start = time.perf_counter()
        for n in range(1, 7):
            total = 0
            for k in range(n + 1):
                points = block_points(n, n - 2 * k)
                assert len(points) == comb(n, k)
                total += len(points)
            assert total == 2**n
            assert len(basis_words(n)) == 2**n
            rep = superrep.weight_structure_report(n)
            assert rep.passed, f"n={n}: {fail_text(rep)}"
        assert time.perf_counter() - start < 1.0


class TestGeometricNilpotency:
    # composite fixed-point matrices of the raising and lowering
    # correspondences square to zero at every weight
    def test_squares_vanish_to_n5_under_60s(self):
        start = time.perf_counter()
        for n in range(1, 6):
            rep = fm.nilpotency_report(n)
            assert rep.passed, f"n={n}: {fail_text(rep)}"
        assert time.perf_counter() - start < 60.0


class TestGeometryBatteriesAtN6:
    # each battery on its own, building the N = 6 premises it needs
    def test_nilpotency_commutator_and_normalized_at_n6_under_60s(self):
        start = time.perf_counter()
        for battery, count in (
            (fm.nilpotency_report, 14),
            (fm.commutator_report, 14),
            (fm.normalized_rep_report, 21),
        ):
            rep = battery(6)
            assert rep.passed, f"{battery.__name__}: {fail_text(rep)}"
            assert len(rep.checks) == count
        assert time.perf_counter() - start < 60.0

    # the four fm batteries as `qglk verify --n 6` runs them, on one shared
    # set of blocks, so the N = 6 premises are built once
    def test_all_four_on_shared_blocks_under_60s(self):
        start = time.perf_counter()
        blocks = fm.Blocks(6)
        for battery, count in (
            (fm.nilpotency_report, 14),
            (fm.commutator_report, 14),
            (fm.normalized_rep_report, 21),
            (fm.intertwiner_report, 26),
        ):
            rep = battery(6, blocks=blocks)
            assert rep.passed, f"{battery.__name__}: {fail_text(rep)}"
            assert len(rep.checks) == count
        assert time.perf_counter() - start < 60.0


class TestCommutatorScalar:
    def test_commutator_is_signed_scalar_to_n5_under_120s(self):
        start = time.perf_counter()
        for n in range(1, 6):
            rep = fm.commutator_report(n)
            assert rep.passed, f"n={n}: {fail_text(rep)}"
            # the report must record each block's sign against the
            # parity prediction (-1)^(n-k-1)
            assert any("epsilon=" in note and "parity" in note for note in rep.notes)
        assert time.perf_counter() - start < 120.0

    def test_sign_equals_parity_at_every_weight(self):
        for n in range(1, 6):
            for k in range(n + 1):
                assert fm.epsilon_sign(n, k) == (-1) ** (n - k - 1)


class TestExtremeWeightClosedForms:
    # at the top and bottom weights the commutator block is 1x1 and its
    # value must be the pinned sign times (1 - q^{2n}), exactly
    def test_endpoint_scalars_to_n5(self):
        for n in range(1, 6):
            plain = parse(f"1 - q^{2 * n}", n + 1)
            top_point = ()
            bot_point = tuple(range(1, n + 1))
            blocks = FullSweepBlocks(n)
            top = entry(blocks.difference(n), top_point, top_point)
            bot = entry(blocks.difference(-n), bot_point, bot_point)
            assert top in (plain, -plain)
            assert bot in (plain, -plain)
            assert top == fm.commutator_scalar(n, 0)
            assert bot == fm.commutator_scalar(n, n)


class TestNormalizedRepAndIntertwiner:
    def test_normalized_battery_and_intertwiner_to_n4_under_120s(self):
        start = time.perf_counter()
        for n in range(1, 5):
            rep = fm.normalized_rep_report(n)
            assert rep.passed, f"n={n}: {fail_text(rep)}"

            bases, irep = fm.find_intertwiner(n)
            assert irep.passed, f"n={n}: {fail_text(irep)}"
            # one invertible square block per weight: block-diagonal by shape
            assert sorted(bases) == [2 * k - n for k in range(n + 1)]
            for k in range(n + 1):
                alg, geo = bases[n - 2 * k]
                assert alg.nrows == geo.nrows == comb(n, k)
                assert full_symbolic_rank(alg) and full_symbolic_rank(geo)
            if n <= 2:
                # phi itself, by Gauss-Jordan, which meets only binomial
                # denominators up to n = 2
                phi = phi_from_bases(n, bases)
                for k in range(n + 1):
                    assert phi[n - 2 * k].nrows == phi[n - 2 * k].ncols == comb(n, k)
        assert time.perf_counter() - start < 120.0

    def test_intertwiner_proof_at_n5_under_60s(self):
        start = time.perf_counter()
        rep = fm.intertwiner_report(5)
        assert rep.passed, fail_text(rep)
        assert len(rep.checks) == 22
        assert time.perf_counter() - start < 60.0

    def test_intertwiner_at_n6_under_60s(self):
        # with no shared blocks the report also builds all of its premises
        start = time.perf_counter()
        rep = fm.intertwiner_report(6)
        assert rep.passed, fail_text(rep)
        assert len(rep.checks) == 26
        assert time.perf_counter() - start < 60.0

    def test_intertwiner_equations_rechecked_directly(self):
        # independent restatement of the defining equations at n = 2
        n = 2
        phi = phi_from_bases(n, fm.find_intertwiner(n)[0])
        for w in (-2, 0):
            e_alg = algebra_block(n, "E", w)
            e_geo = fm.raising_matrix(n, w).map(fraction)
            assert phi[w + 2] @ e_alg == e_geo @ phi[w]
        for w in (2, 0):
            f_alg = algebra_block(n, "F", w)
            f_geo = fm.lowering_matrix(n, w).map(fraction)
            assert phi[w - 2] @ f_alg == f_geo @ phi[w]


class TestKoszulIdentities:
    def test_endpoints_cone_sweep_and_iterated_routes_under_30s(self):
        start = time.perf_counter()
        # endpoint identities plus the exhaustive one-step cone sweep
        for rank in range(7):
            rep = koszul.endpoint_report(rank)
            assert rep.passed, f"rank={rank}: {fail_text(rep)}"
        # both iterated-cone routes against the direct interpolating class
        for n in range(1, 5):
            for k in range(n + 1):
                rep = iterated_cone_report(n, k)
                assert rep.passed, f"n={n} k={k}: {fail_text(rep)}"
        assert time.perf_counter() - start < 30.0


class TestLocalizationSanity:
    def test_structure_sheaf_euler_characteristic_is_one_to_n6(self):
        for n in range(1, 7):
            for k in range(n + 1):
                sp = Space(n, k, with_fiber=False)
                assert sp.pushforward_det_tau_power(0) == RationalFunction.const(n + 1, 1)

    def test_p1_tautological_bundle_has_no_cohomology(self):
        sp = Space(2, 1, with_fiber=False)
        assert not sp.pushforward_det_tau_power(1)

    def test_det_tau_pushforwards_are_laurent_to_n5(self):
        # every pole from an Euler-class denominator must cancel in the sum
        for n in range(1, 6):
            for k in range(n + 1):
                sp = Space(n, k, with_fiber=False)
                for m in range(-3, 4):
                    val = sp.pushforward_det_tau_power(m)
                    assert val.is_polynomial(), f"n={n} k={k} m={m}: {val}"
