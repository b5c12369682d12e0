"""Time-to-verdict benchmark for qglk, standard library only.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from its
``src`` directory.  Every pass runs in a fresh interpreter (``child.py``),
one at a time, and must clear the workload's correctness gate.  Passes
are started until the next one is expected to end after ``--seconds``;
there is always at least one.  Set-up time is sampled separately from
import-only interpreters, each paired with a stdlib-only baseline.  The
bounded times are rescaled to a nominal machine speed (speed.py).

With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` untraced and traced passes alternate
and the last line carries the per-layer metrics, including the tracing
overhead.  Earlier lines give a table and a JSON record with the
environment, every pass, the pass count, the failure ratio and, from 20
passes on, the wall-time tail.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build"

SETUP_SAMPLES = 20
# every run must end within 180 s; a pass still running at this point is killed
RUN_DEADLINE_S = 170.0
TAIL_MIN_PASSES = 20
TAIL_BEYOND = 10


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # bytecode goes to the build directory, not into src/
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    # fixed string hashing keeps set iteration, and so the span counts, repeatable
    env["PYTHONHASHSEED"] = "0"
    return env


def parse_pass(returncode, stdout, spawned):
    """Pass record from a child's exit code and output.  A pass fails when
    the child exits non-zero, its output does not parse, it raised, or a
    check failed."""
    rec = {"ok": False}
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        rec["error"] = f"exit code {returncode}, unparsable output"
        return rec
    rec.update(out)
    if "ready" in out:
        rec["setup_s"] = out["ready"] - spawned
    if returncode != 0:
        rec["error"] = f"exit code {returncode}"
    rec["ok"] = (
        returncode == 0
        and "error" not in out
        and not out.get("failed_checks", 0)
        and "wall_s" in out
    )
    return rec


def spawn(args, deadline):
    """Runs child.py to completion (killing it at the deadline)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "killed at the run deadline"}
    rec = parse_pass(proc.returncode, proc.stdout, spawned)
    rec["process_s"] = time.monotonic() - spawned
    if not rec["ok"] and proc.stderr:
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def measure_setup(deadline):
    """Pairs of set-up times: a stdlib-only baseline interpreter, then one
    that imports qglk, spawned back to back so both see the same machine."""
    spawn(["baseline"], deadline)
    spawn(["setup", str(SRC)], deadline)  # warm the bytecode cache
    pairs = []
    for _ in range(SETUP_SAMPLES):
        base = spawn(["baseline"], deadline)
        rec = spawn(["setup", str(SRC)], deadline)
        if "setup_s" in base and "setup_s" in rec:
            pairs.append({"setup_s": rec["setup_s"], "baseline_s": base["setup_s"]})
    return pairs


def run_passes(workload, seed, seconds, kinds, deadline):
    """Alternates the pass kinds until the next pass would end after
    ``seconds``; every kind runs at least once."""
    passes = []
    start = time.monotonic()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        rec = spawn([kind, str(SRC), workload, str(seed), str(i)], deadline)
        rec["kind"] = kind
        passes.append(rec)
        i += 1
        if time.monotonic() >= deadline:
            break
        if i < len(kinds):
            continue
        nxt = kinds[i % len(kinds)]
        typical = statistics.median(
            p["process_s"] for p in passes if p["kind"] == nxt and "process_s" in p
        )
        if time.monotonic() - start + typical > seconds:
            break
    return passes


def tail(values):
    """The highest percentile with TAIL_BEYOND values beyond it."""
    if len(values) < TAIL_MIN_PASSES:
        return None
    ordered = sorted(values)
    i = len(ordered) - TAIL_BEYOND - 1
    return {"percentile": 100.0 * (i + 1) / len(ordered), "value": ordered[i]}


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(passes, setup_samples):
    """End-to-end numbers over the passes that cleared the gate; failed
    passes count only in the failure ratio.  Times are given at nominal
    machine speed (see speed.py) and, with a ``_raw`` suffix, as measured."""
    ok = [p for p in passes if p["ok"]]
    # with no pass cleared, correct is false and whole-process times stand in
    timed = ok or passes
    walls = [p.get("wall_s", p.get("process_s", 0.0)) for p in timed]
    cpus = [p.get("cpu_s", p.get("process_s", 0.0)) for p in timed]
    speeds = [p.get("speed", 1.0) for p in timed]
    checks = [p["checks"] for p in ok]
    return {
        "passes": len(passes),
        "fail_ratio": (len(passes) - len(ok)) / len(passes),
        "checks_per_pass": [min(checks), max(checks)] if checks else None,
        "wall_s": _median([w * f for w, f in zip(walls, speeds)]),
        "wall_raw_s": _median(walls),
        "wall_raw_s.tail": tail([p["wall_s"] for p in ok]),
        "cpu_s": _median([c * f for c, f in zip(cpus, speeds)]),
        "cpu_raw_s": _median(cpus),
        "setup_s": speed.NOMINAL_BASELINE_S
        * _median([s["setup_s"] / s["baseline_s"] for s in setup_samples]),
        "setup_raw_s": _median([s["setup_s"] for s in setup_samples]),
        "baseline_raw_s": _median([s["baseline_s"] for s in setup_samples]),
        "speed": _median(speeds),
        "peak_rss_mb": _median([p.get("rss_mb", 0.0) for p in timed]),
    }


def layer_summary(passes):
    """Per-layer medians over the traced passes, and the tracing overhead."""
    traced = [p for p in passes if p["kind"] == "trace" and p["ok"]]
    plain = [p for p in passes if p["kind"] == "plain" and p["ok"]]
    names = sorted({k for p in traced for k in p["layers"]})
    out = {}
    for k in names:
        v = statistics.median(p["layers"].get(k, 0) for p in traced)
        out[k] = int(v) if k.endswith(".calls") and v == int(v) else v
    if traced and plain:
        out["trace.overhead_ratio"] = statistics.median(
            p["wall_s"] * p["speed"] for p in traced
        ) / statistics.median(p["wall_s"] * p["speed"] for p in plain)
    absent = sorted({a for p in traced for a in p.get("absent", ())})
    return out, absent


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed):
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))  # what nproc(1) prints
    else:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": nproc,
        "git_sha": git_sha(),
        "seed": seed,
    }


def run_workload(spec, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = measure_setup(deadline) if not trace else []
    kinds = ["plain", "trace"] if trace else ["plain"]
    passes = run_passes(workload, seed, seconds, kinds, deadline)
    summary = summarize(passes, setup)
    record = {
        "workload": workload,
        "trace": trace,
        "environment": environment(seed),
        "summary": summary,
        "setup_samples": setup,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    if trace:
        values, absent = layer_summary(passes)
        record["layers"] = values
        record["absent"] = absent
        wanted = spec["per_layer"]
    else:
        values = summary
        wanted = spec["end_to_end"]
    # a layer whose callable a later change removed reads as zero work
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    attempted = len(passes)
    failed = sum(not p["ok"] for p in passes)

    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}) ==")
    print(f"  passes: {attempted}, failed: {failed}, checks per pass: "
          f"{summary['checks_per_pass']}")
    lines = [("fail_ratio", summary["fail_ratio"], "ratio")]
    lines += [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not trace:
        raw = ("wall_raw_s", "cpu_raw_s", "setup_raw_s", "baseline_raw_s")
        lines += [(k, summary[k], "s") for k in raw]
        lines.append(("speed", summary["speed"], "x nominal"))
        t = summary["wall_raw_s.tail"]
        if t:
            lines.append((f"wall_raw_s.tail (p{t['percentile']:.1f})", t["value"], "s"))
    for name, value, unit in lines:
        print(f"  {name:<44} {value:.6g} {unit}")
    if trace and record["absent"]:
        print(f"  absent callables: {', '.join(record['absent'])}")
    print(json.dumps({"record": record}))
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qglk" / "__init__.py").is_file():
        print(f"error: no qglk package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    BUILD.mkdir(exist_ok=True)

    chosen = names if args.workload == "all" else [args.workload]
    results = [
        run_workload(spec, w, args.seed, args.seconds, bool(args.trace)) for w in chosen
    ]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
