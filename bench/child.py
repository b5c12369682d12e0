"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

    python3 child.py baseline
    python3 child.py setup <src>
    python3 child.py plain|trace <src> <workload> <seed> <pass number>

Prints one JSON object.  ``ready`` is the ``time.monotonic()`` stamp
taken once qglk and all of its modules are imported (for ``baseline``:
once BASELINE_MODULES are); on Linux it is the system-wide
CLOCK_MONOTONIC, so the parent turns it into set-up time.  ``speed`` is
the machine's relative speed over the pass (see speed.py).
"""

import sys
import time

# stdlib modules of the kind qglk imports; their import time tracks the
# machine's speed at start-up and does not depend on the program
BASELINE_MODULES = ("argparse", "dataclasses", "fractions", "json", "random", "typing")


def _import_qglk(src):
    import importlib
    import pkgutil

    sys.path.insert(0, src)
    import qglk

    for info in pkgutil.iter_modules(qglk.__path__):
        importlib.import_module(f"qglk.{info.name}")


def main(argv):
    mode = argv[1]
    if mode == "baseline":
        import importlib

        for name in BASELINE_MODULES:
            importlib.import_module(name)
    else:
        _import_qglk(argv[2])
    ready = time.monotonic()

    import json

    if mode in ("baseline", "setup"):
        print(json.dumps({"ready": ready}))
        return 0

    import contextlib
    import resource
    import traceback

    import speed
    import tracer
    import workloads

    name, seed, index = argv[3], int(argv[4]), int(argv[5])
    result = {"ready": ready}
    sampler = speed.Sampler()
    spans = tracer.Tracer() if mode == "trace" else None
    try:
        with sampler, spans or contextlib.nullcontext():
            result.update(workloads.execute(workloads.WORKLOADS[name](seed, index)))
    except Exception:
        result["error"] = traceback.format_exc(limit=-3)
    if "wall_s" in result:
        result["wall_s"] -= sampler.spent_s
        result["cpu_s"] -= sampler.spent_cpu_s
    result["speed"] = sampler.speed()
    result["speed_samples"] = len(sampler.samples)
    if spans:
        result["layers"] = spans.layer_stats()
        result["absent"] = spans.absent
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
