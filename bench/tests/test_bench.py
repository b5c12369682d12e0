"""Self-tests of the benchmark harness: python3 -m pytest bench/tests"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qglk import cli, fm, linalg, poly, ratfunc  # noqa: E402
from qglk.report import Report  # noqa: E402


SETUP = [{"setup_s": 0.1, "baseline_s": 0.08}]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    spans = tracer.Tracer(targets=(), clock=clock)

    def work(dt):
        clock.now += dt

    def leaf(dt):
        work(dt)

    def div(dt, ok):
        work(dt)
        return 1 if ok else None

    leaf = spans.wrap(leaf, "leaf")
    div = spans.wrap(div, "div", fails_on_none=True)

    def mid():
        work(1)
        leaf(2)
        div(8, False)
        work(3)
        leaf(4)

    mid = spans.wrap(mid, "mid")

    def root():
        work(5)
        mid()
        div(16, True)
        leaf(6)
        work(7)

    spans.wrap(root, "root")()
    s = spans.layer_stats()
    assert (s["leaf.calls"], s["leaf.total_s"], s["leaf.self_s"]) == (3, 12, 12)
    assert (s["mid.calls"], s["mid.total_s"], s["mid.self_s"]) == (1, 18, 4)
    assert (s["root.calls"], s["root.total_s"], s["root.self_s"]) == (1, 52, 12)
    assert s["div.calls"] == 2 and s["div.fail_ratio"] == 0.5
    assert (s["div.fail_self_s"], s["div.ok_self_s"]) == (8, 16)
    assert "leaf.fail_ratio" not in s


def _good_pass():
    ok = Report("fake battery")
    ok.add("holds", True)
    out = workloads.execute([lambda: workloads.report_checks(ok)])
    return run.parse_pass(0, json.dumps({"ready": 1.0, **out}), 0.5)


def test_a_failing_report_fails_the_pass():
    bad = Report("fake battery")
    bad.add("holds", True)
    bad.add("breaks", False, "witness")
    out = workloads.execute([lambda: workloads.report_checks(bad)])
    assert out["checks"] == 2 and out["failures"] == ["breaks"]
    failed = run.parse_pass(0, json.dumps({"ready": 1.0, **out}), 0.5)
    assert not failed["ok"]

    good = _good_pass()
    assert good["ok"] and good["setup_s"] == 0.5
    failed["wall_s"] = 1e6
    summary = run.summarize([failed, good], SETUP)
    assert summary["fail_ratio"] == 0.5
    assert summary["wall_s"] == good["wall_s"]
    assert summary["checks_per_pass"] == [1, 1]


def test_crashes_and_garbage_fail_the_pass():
    good_out = json.dumps({"ready": 1.0, "wall_s": 1.0, "cpu_s": 1.0, "checks": 1})
    assert run.parse_pass(0, good_out, 0.0)["ok"]
    assert not run.parse_pass(1, good_out, 0.0)["ok"]
    assert not run.parse_pass(0, "Traceback (most recent call last):", 0.0)["ok"]
    assert not run.parse_pass(0, "", 0.0)["ok"]
    raised = json.dumps({"ready": 1.0, "checks": 0, "error": "ValueError"})
    assert not run.parse_pass(0, raised, 0.0)["ok"]


def _snapshot():
    return {
        (id(owner), attr): value
        for owner in tracer._containers()
        for attr, value in vars(owner).items()
    }


def test_tracer_patches_by_identity_and_restores_everything():
    before = _snapshot()
    raw_mul = vars(poly.Poly)["__mul__"]
    raw_sum = vars(ratfunc.RationalFunction)["sum"]
    with tracer.Tracer() as spans:
        assert fm.column_basis is linalg.column_basis
        assert fm.column_basis is not before[(id(linalg), "column_basis")]
        assert vars(poly.Poly)["__rmul__"] is vars(poly.Poly)["__mul__"]
        assert vars(poly.Poly)["__mul__"] is not raw_mul
        assert isinstance(vars(ratfunc.RationalFunction)["sum"], classmethod)
        assert vars(ratfunc.RationalFunction)["sum"] is not raw_sum
        code = cli.main(["koszul", "--rank", "2", "--k", "1", "--json"])
        phi, rep = fm.find_intertwiner(2)
    assert code == 0 and rep.passed
    stats = spans.layer_stats()
    assert stats["cli.main.calls"] == 1
    assert stats["linalg.column_basis.calls"] > 0  # reached through fm's namespace
    assert stats["ratfunc.sum.calls"] > 0
    assert stats["poly.mul.calls"] > 0
    assert spans.absent == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_callables_are_reported_absent():
    targets = (
        ("linalg.gone", "linalg", "no_such_function", False),
        ("gone.module", "no_such_module", "f", False),
        ("laurent.gone", "laurent", "NoSuchClass.__mul__", False),
        ("poly.mul", "poly", "Poly.__mul__", False),
    )
    with tracer.Tracer(targets=targets) as spans:
        assert poly.Poly.one(1) * poly.Poly.one(1) == poly.Poly.one(1)
    assert spans.absent == ["linalg.gone", "gone.module", "laurent.gone"]
    assert spans.layer_stats()["poly.mul.calls"] == 1


def test_benchmark_json_names_only_metrics_the_harness_makes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    summary = run.summarize([_good_pass()], SETUP)
    assert {m["name"] for m in spec["end_to_end"]} <= summary.keys()
    layer_names = {"trace.overhead_ratio"}
    for name, _, _, fallible in tracer.TARGETS:
        stats = ["calls", "total_s", "self_s"]
        stats += ["fail_ratio", "fail_self_s", "ok_self_s"] if fallible else []
        layer_names |= {f"{name}.{s}" for s in stats}
    assert {m["name"] for m in spec["per_layer"]} <= layer_names


def test_exact_div_counts_repeat_between_traced_runs():
    # Slow: two traced N=4 verifications in fresh interpreters.  On the
    # seed code each makes 11,159 exact divisions.
    counts = []
    for _ in range(2):
        rec = run.spawn(
            ["trace", str(run.SRC), "intertwine-n4", "7", "0"], time.monotonic() + 170
        )
        assert rec["ok"], rec.get("error") or rec.get("stderr")
        counts.append(rec["layers"]["poly.exact_div.calls"])
    assert counts[0] == counts[1] > 0
