"""The benchmark's workloads and the correctness gate each pass must clear.

A workload maps a seed and a pass number to a list of calls.  Each call
runs one piece of qglk and returns ``(checks_run, failed_check_names)``.
Check names are collected but never compared against a fixed list, so
renaming a check does not break the benchmark; dropping checks shows in
``checks``.

Why these three (README.md has the measured shares):

* intertwine-n4 -- the ``qglk verify --n 4`` headline command.  The only
  workload that loads ``linalg`` and ``fm.find_intertwiner``; it is
  dominated by *failing* trial divisions in ``Poly.exact_div``.
* localize-n6 -- 49 localized pushforwards on Gr(k, 6).  The same
  ``poly``/``ratfunc`` layers, but nearly all division time is
  *successful* division, so a fast reject for failing divisions should
  leave it unchanged.
* algebra-koszul -- the relation, weight, antipode and Koszul batteries:
  ``superrep``, ``laurent``, ``koszul`` and ``matrix`` over cheap
  ``LaurentScalar`` entries.  It never touches ``ratfunc``.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

from qglk import cli, grassmann, koszul, superrep

MAX_FAILURE_NAMES = 20


def report_checks(report):
    """Checks run and names of the failed ones, for a qglk Report."""
    return len(report.checks), [c.name for c in report.checks if not c.passed]


def _verify_n4(seed):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", "--n", "4", "--json", "--seed", str(seed)])
    doc = json.loads(out.getvalue())
    checks = [c for r in doc["reports"] for c in r["checks"]]
    failures = [c["name"] for c in checks if not c["passed"]]
    if code != 0 or doc["passed"] is not True:
        failures.append(f"verify exited {code} with passed={doc['passed']}")
    return len(checks), failures


def intertwine_n4(seed, index):
    return [lambda: _verify_n4(seed)]


def _pushforward(k, m):
    value = grassmann.Space(6, k, with_fiber=False).pushforward_det_tau_power(m)
    label = f"pushforward of det(tau)^{m} on Gr({k},6)"
    failures = [] if value.is_polynomial() else [f"{label} is a Laurent polynomial"]
    if m != 0:
        return 1, failures
    if value != 1:
        failures.append(f"{label} equals one")
    return 2, failures


def _shuffled(items, seed, index):
    """A new call order for every pass, so peak memory is not one order's."""
    random.Random(f"{seed}/{index}").shuffle(items)
    return items


def localize_n6(seed, index):
    pairs = _shuffled([(k, m) for k in range(7) for m in range(-3, 4)], seed, index)
    return [lambda k=k, m=m: _pushforward(k, m) for k, m in pairs]


def algebra_koszul(seed, index):
    reports = [
        lambda: superrep.verify_relations(6),
        lambda: superrep.weight_structure_report(6),
        lambda: superrep.antipode_report(),
        lambda: koszul.endpoint_report(6),
    ]
    reports += [
        lambda r=r, k=k: koszul.koszul_battery_report(r, k)
        for r in range(6)
        for k in range(r + 1)
    ]
    reports = _shuffled(reports, seed, index)
    return [lambda make=make: report_checks(make()) for make in reports]


WORKLOADS = {
    "intertwine-n4": intertwine_n4,
    "localize-n6": localize_n6,
    "algebra-koszul": algebra_koszul,
}


def execute(calls):
    """Runs the calls in order; times them and gathers the gate's verdict."""
    checks = 0
    failures = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for call in calls:
        n, bad = call()
        checks += n
        failures += bad
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "checks": checks,
        "failures": failures[:MAX_FAILURE_NAMES],
        "failed_checks": len(failures),
    }
