import json
from pathlib import Path

import pytest

from qglk import cli, fm, superrep
from qglk.cli import main
from qglk.matrix import Matrix
from qglk.ratfunc import RationalFunction
from qglk.report import Report
from test_fm import SWEEP_MUTATIONS, _negate_lowering_column
from test_superrep import E_TIMES_X1, GROUPLIKE_CONTROLS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_n1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 0
        assert "ALL CHECKS PASSED" in out
        assert "EF + FE" in out

    def test_n0_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "0")
        assert code == 2
        assert "between 1 and 6" in err

    def test_n7_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "7")
        assert code == 2

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["command"] == "verify"
        assert doc["passed"] is True
        assert doc["parameters"]["n"] == 2
        titles = [r["title"] for r in doc["reports"]]
        assert any("intertwiner" in t for t in titles)
        # stable ordering: re-serializing with sorted keys is the identity
        assert json.dumps(doc, sort_keys=True, indent=2) == out.strip()

    def test_n6_runs_all_four_fm_batteries(self, capsys, monkeypatch):
        # the batteries are stubbed: this pins the caps, not the mathematics
        seen = []

        def stub(name):
            def battery(n, *args, **kwargs):
                seen.append((name, n))
                rep = Report("stub")
                rep.add("stub check", True)
                return rep

            return battery

        batteries = (
            "nilpotency_report",
            "commutator_report",
            "normalized_rep_report",
            "intertwiner_report",
        )
        for name in batteries:
            monkeypatch.setattr(fm, name, stub(name))
        code, out, _ = run(capsys, "verify", "--n", "6", "--json")
        assert code == 0
        assert seen == [(name, 6) for name in batteries]
        assert json.loads(out)["skipped"] == []

    def test_n5_runs_the_intertwiner(self, capsys, monkeypatch):
        # the batteries are stubbed: this pins the caps, not the mathematics
        seen = []

        def stub(n, *args, **kwargs):
            seen.append((n, kwargs.get("seed")))
            rep = Report("stub")
            rep.add("stub check", True)
            return rep

        for name in ("nilpotency_report", "commutator_report", "normalized_rep_report"):
            monkeypatch.setattr(fm, name, stub)
        monkeypatch.setattr(fm, "intertwiner_report", stub)
        code, out, _ = run(capsys, "verify", "--n", "5", "--seed", "9")
        assert code == 0
        assert seen[-1] == (5, 9) and len(seen) == 4
        assert "skipped" not in out

    def test_max_weight_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--max-weight", "1")
        assert code == 0
        assert "weight 3" not in out.split("geometric nilpotency")[1].split("==")[0]

    def test_max_weight_keeps_every_intertwiner_premise(self, capsys, monkeypatch):
        def intertwiner(out):
            doc = json.loads(out)
            return next(r for r in doc["reports"] if r["title"] == "intertwiner at n=4")

        code, out, _ = run(capsys, "verify", "--n", "4", "--max-weight", "0", "--json")
        assert code == 0
        assert len(intertwiner(out)["checks"]) == 18

        # a broken F on the top block, outside the window, still fails
        raw = fm.lowering_matrix

        def corrupted(n, source_weight):
            m = raw(n, source_weight)
            if source_weight == 4:
                m.rows[0][0] = -m.rows[0][0]
            return m

        monkeypatch.setattr(fm, "lowering_matrix", corrupted)
        code, out, _ = run(capsys, "verify", "--n", "4", "--max-weight", "0", "--json")
        assert code == 1
        doc = json.loads(out)
        checks = [(r["title"], c) for r in doc["reports"] for c in r["checks"]]
        failed = [(title, c["name"]) for title, c in checks if not c["passed"]]
        assert failed == [
            ("intertwiner at n=4", "phi intertwines F at weight 4"),
            ("intertwiner at n=4", "phi intertwines F at weight 2"),
        ]
        assert len(intertwiner(out)["checks"]) == 18

    def test_max_weight_narrows_the_normalized_report_not_its_premises(self, capsys, monkeypatch):
        # every E entry times x_1 breaks EF + FE at every weight; the window
        # keeps the normalized report to weight 0, while the intertwiner
        # still decides the algebra commutators at 4 and 2 on demand
        monkeypatch.setattr(superrep, "apply_generator", E_TIMES_X1)
        code, out, _ = run(capsys, "verify", "--n", "4", "--max-weight", "0", "--json")
        assert code == 1
        reports = {r["title"]: r["checks"] for r in json.loads(out)["reports"]}
        failed = [(t, c["name"]) for t, cs in reports.items() for c in cs if not c["passed"]]
        assert failed == [
            ("defining relations on 4 tensor factors", "EF + FE = K - Kinv"),
            ("normalized algebra blocks at n=4", "FE - EF is eps*(1-q^8) at weight 0"),
        ] + [("intertwiner at n=4", f"phi intertwines F at weight {w}") for w in (4, 2, 0, -2)]
        assert len(reports["normalized algebra blocks at n=4"]) == 3
        premises = {c["name"]: c["witness"] for c in reports["intertwiner at n=4"]}
        for w in (4, 2):
            assert premises[f"phi intertwines F at weight {w}"].startswith(
                f"algebra side, weight {w}: FE - EF is eps*(1-q^8) at weight {w} fails: "
                "first bad entry at row 0 "
            )

    def test_negative_max_weight_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--max-weight", "-1")
        assert code == 2

    def test_seed_flag_accepts_hex(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "1", "--seed", "0xBEEF")
        assert code == 0


class TestMatrices:
    def test_algebra_n1_lowering_block(self, capsys):
        code, out, _ = run(capsys, "matrices", "--n", "1", "--weight", "1", "--side", "algebra")
        assert code == 0
        assert "[ 1 ]" in out
        assert "-- F on the weight-1 block" in out

    def test_parity_error(self, capsys):
        code, _, err = run(capsys, "matrices", "--n", "2", "--weight", "1", "--side", "algebra")
        assert code == 2
        assert "parity" in err

    def test_out_of_range_weight(self, capsys):
        code, _, err = run(capsys, "matrices", "--n", "2", "--weight", "4", "--side", "geometry")
        assert code == 2
        assert "outside" in err

    def test_geometry_json_two_columns(self, capsys):
        code, out, _ = run(
            capsys, "matrices", "--n", "2", "--weight", "0", "--side", "geometry", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        e = doc["blocks"]["E"]
        assert e["cols"] == ["1", "2"]
        assert e["rows"] == [""]
        assert doc["blocks"]["K"]["entries"]["1|1"] == "q^2"

    def test_geometry_k_and_h_are_scalar_blocks(self):
        # next to E and F as localized functor matrices, K central as q^n
        # and H grading as q^weight on the weight block
        fam = cli._geometry_blocks(3, 1)
        for gen, e in (("K", 3), ("H", 1)):
            assert fam[gen] == Matrix.scalar_block(3, 1, RationalFunction.q(4, e))
        assert fam["H"][(0, 0)] == RationalFunction.q(4, 1)
        assert fam["E"].target_weight == 3
        assert fam["F"].target_weight == -1

    def test_geometry_cap(self, capsys):
        code, _, err = run(capsys, "matrices", "--n", "6", "--weight", "0", "--side", "geometry")
        assert code == 2
        assert "capped" in err

    def test_invalid_side(self, capsys):
        code, _, _ = run(capsys, "matrices", "--n", "2", "--weight", "0", "--side", "both")
        assert code == 2


# `qglk matrices` output for n <= 3 at every weight, both sides, text and
# --json; the schema-1 layouts and the text format must not drift
GOLDEN = json.loads((Path(__file__).parent / "data" / "matrices_golden.json").read_text())


class TestMatricesGolden:
    @pytest.mark.parametrize("args", sorted(GOLDEN))
    def test_output_is_byte_identical(self, capsys, args):
        code, out, _ = run(capsys, "matrices", *args.split())
        assert code == 0
        assert out == GOLDEN[args]


CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
CONTROL_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_control_golden.json").read_text()
)


class TestCliGolden:
    # `verify --n 1..6 --json` and `koszul --rank r --k k --json` (r <= 5);
    # text mode: `verify --n 2`, `verify --n 3 --max-weight 1`,
    # `verify --n 5` and `koszul --rank 3 --k 1`
    @pytest.mark.parametrize("args", sorted(CLI_GOLDEN))
    def test_output_and_exit_code_are_byte_identical(self, capsys, args):
        code, out, _ = run(capsys, *args.split())
        assert code == CLI_GOLDEN[args]["exit"]
        assert out == CLI_GOLDEN[args]["out"]

    def test_failing_text_report_is_byte_identical(self, capsys, monkeypatch):
        # `verify --n 3` with column 2 of the lowering block from weight 1
        # negated: the FAIL lines, their witnesses and the exit code
        _negate_lowering_column(monkeypatch, weight=1, col=2)
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == CONTROL_GOLDEN["verify --n 3"]["exit"] == 1
        assert out == CONTROL_GOLDEN["verify --n 3"]["out"]

    @pytest.mark.parametrize("control", ["dropped Koszul sign", "swapped K and H"])
    def test_superrep_control_reports_are_byte_identical(self, capsys, monkeypatch, control):
        # `verify --n 3` under a broken generator action: the relation and
        # weight FAIL lines, with the word label of "wrong H value on ..."
        SWEEP_MUTATIONS[control](monkeypatch, 3)
        golden = CONTROL_GOLDEN[f"verify --n 3 [{control}]"]
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == golden["exit"] == 1
        assert out == golden["out"]

    @pytest.mark.parametrize("control", ["K not a scalar", "Kinv negated"])
    def test_grouplike_control_documents_are_byte_identical(self, capsys, monkeypatch, control):
        # `verify --n 3 --json` where K or Kinv fails the scalar test: the
        # relation witnesses come from the block products of the fallback,
        # recorded from the battery that multiplied out every relation
        monkeypatch.setattr(superrep, "apply_generator", GROUPLIKE_CONTROLS[control])
        golden = CONTROL_GOLDEN[f"verify --n 3 --json [{control}]"]
        code, out, _ = run(capsys, "verify", "--n", "3", "--json")
        assert code == golden["exit"] == 1
        assert out == golden["out"]

    def test_unpackable_control_document_is_byte_identical(self, capsys, monkeypatch):
        # `verify --n 3 --json` with every E entry times x_1: no E block
        # packs, so EF + FE = K - Kinv fails through the Poly products;
        # recorded from the battery that formed every E and F product
        monkeypatch.setattr(superrep, "apply_generator", E_TIMES_X1)
        golden = CONTROL_GOLDEN["verify --n 3 --json [E times x_1]"]
        code, out, _ = run(capsys, "verify", "--n", "3", "--json")
        assert code == golden["exit"] == 1
        assert out == golden["out"]

    @pytest.mark.parametrize(
        "control", ["flipped parity sign", "lowering unit off by q^2", "flag lines times q"]
    )
    def test_geometric_control_documents_are_byte_identical(self, capsys, monkeypatch, control):
        # `verify --n 3 --json` under a geometric fault: the observed sign
        # is the opposite of the parity, no sign matches, or a fault S_n
        # maps to itself breaks every block; recorded from the tree that
        # formed every entry of a failing block
        SWEEP_MUTATIONS[control](monkeypatch, 3)
        golden = CONTROL_GOLDEN[f"verify --n 3 --json [{control}]"]
        code, out, _ = run(capsys, "verify", "--n", "3", "--json")
        assert code == golden["exit"] == 1
        assert out == golden["out"]


class TestKoszul:
    def test_small_rank_passes(self, capsys):
        code, out, _ = run(capsys, "koszul", "--rank", "2", "--k", "1")
        assert code == 0
        assert "ALL CHECKS PASSED" in out

    def test_rank_zero_trivially_passes(self, capsys):
        code, _, _ = run(capsys, "koszul", "--rank", "0", "--k", "0")
        assert code == 0

    def test_rank_guard(self, capsys):
        code, _, err = run(capsys, "koszul", "--rank", "9", "--k", "2")
        assert code == 2
        assert "blow-up guard" in err

    def test_k_out_of_range(self, capsys):
        code, _, _ = run(capsys, "koszul", "--rank", "3", "--k", "5")
        assert code == 2

    def test_json_ranges_recorded(self, capsys):
        code, out, _ = run(capsys, "koszul", "--rank", "3", "--k", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        notes = doc["reports"][0]["notes"]
        assert any("descending indices" in t for t in notes)
        assert any("ascending indices" in t for t in notes)


class TestParsing:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["verify"]) == 2
