"""Span tracer that wraps qglk callables from outside the package.

Each target below is one layer boundary: a callable named by its module
and qualified name.  Installing the tracer replaces the target object
wherever a ``qglk`` module namespace or a ``qglk`` class dict holds that
same object (``fm`` re-exports ``linalg.column_basis``, ``Poly.__rmul__``
is ``Poly.__mul__``), and ``restore`` puts every original back.  A
target that no longer exists is listed in ``absent`` and skipped.

A span is opened on entry and closed on exit.  It knows its name, start,
end and parent (the span below it on the stack); on close it is folded
into per-name totals, because an N=4 verification opens tens of
thousands of spans.  Self time is a span's duration minus the time its
child spans cover.

Hot helpers such as ``poly.term_key`` (over 10^8 calls in one N=4
verification) are deliberately not targets: wrapping them would make the
traced run take hours and say nothing the ``poly.exact_div`` span does
not already say.
"""

import functools
import importlib
import sys
import time

PACKAGE = "qglk"

# (span name, module, qualified name, a None result means the call failed)
TARGETS = (
    ("cli.main", "cli", "main", False),
    ("poly.mul", "poly", "Poly.__mul__", False),
    ("poly.exact_div", "poly", "Poly.exact_div", True),
    ("ratfunc.init", "ratfunc", "RationalFunction.__init__", False),
    ("ratfunc.sum", "ratfunc", "RationalFunction.sum", False),
    ("ratfunc.evaluate", "ratfunc", "RationalFunction.evaluate", False),
    ("matrix.matmul", "matrix", "Matrix.__matmul__", False),
    ("linalg.column_basis", "linalg", "column_basis", False),
    ("linalg.invert_matrix", "linalg", "invert_matrix", False),
    ("linalg.certify_invertible", "linalg", "certify_invertible", False),
    ("fm.raising_matrix", "fm", "raising_matrix", False),
    ("fm.lowering_matrix", "fm", "lowering_matrix", False),
    ("fm.algebra_matrix", "fm", "algebra_matrix", False),
    ("fm.find_intertwiner", "fm", "find_intertwiner", False),
    ("fm.nilpotency_report", "fm", "nilpotency_report", False),
    ("fm.commutator_report", "fm", "commutator_report", False),
    ("fm.normalized_rep_report", "fm", "normalized_rep_report", False),
    ("grassmann.euler_class_rf", "grassmann", "euler_class_rf", False),
    ("grassmann.Space.pushforward", "grassmann", "Space.pushforward", False),
    ("superrep.full_matrix", "superrep", "full_matrix", False),
    ("superrep.block_matrix", "superrep", "block_matrix", False),
    ("superrep.verify_relations", "superrep", "verify_relations", False),
    ("laurent.mul", "laurent", "LaurentScalar.__mul__", False),
    ("koszul.endpoint_report", "koszul", "endpoint_report", False),
    ("koszul.iterated_cone_report", "koszul", "iterated_cone_report", False),
)


class SpanStats:
    """Totals of the closed spans that share one name."""

    __slots__ = ("calls", "total_s", "self_s", "failed", "fail_self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.fail_self_s = 0.0


def _resolve(module, qualname):
    """The raw object stored under qualname (a classmethod stays wrapped),
    or None when the module or attribute is gone."""
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module}")
    except ModuleNotFoundError:
        return None
    *owners, last = qualname.split(".")
    for part in owners:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    raw = vars(obj).get(last)
    if isinstance(raw, (classmethod, staticmethod)) or callable(raw):
        return raw
    return None


def _containers():
    """Every loaded qglk module and every class defined in one."""
    mods = [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    classes = {}
    for m in mods:
        for v in vars(m).values():
            if isinstance(v, type) and v.__module__.split(".")[0] == PACKAGE:
                classes[id(v)] = v
    return mods + list(classes.values())


class Tracer:
    """Installs spans on TARGETS; use as a context manager."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats = {}
        self.absent = []
        self._fallible = set()
        self._stack = []
        self._saved = []

    def _span(self, fn, name, fails_on_none):
        stats = self.stats.setdefault(name, SpanStats())
        if fails_on_none:
            self._fallible.add(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame[0] accumulates the time covered by this span's children
            frame = [0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += own
                if fails_on_none and result is None:
                    stats.failed += 1
                    stats.fail_self_s += own

        return traced

    def wrap(self, raw, name, fails_on_none=False):
        """A traced stand-in for raw: a function, classmethod or staticmethod."""
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._span(raw.__func__, name, fails_on_none))
        return self._span(raw, name, fails_on_none)

    def install(self):
        containers = _containers()
        for name, module, qualname, fails_on_none in self.targets:
            raw = _resolve(module, qualname)
            if raw is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(raw, name, fails_on_none)
            for owner in containers:
                for attr, value in list(vars(owner).items()):
                    if value is raw:
                        self._saved.append((owner, attr, raw))
                        setattr(owner, attr, wrapped)
        return self

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def layer_stats(self):
        """Flat ``<span>.<stat>`` numbers for every target that was present."""
        out = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.total_s"] = s.total_s
            out[f"{name}.self_s"] = s.self_s
            if name in self._fallible:
                out[f"{name}.fail_ratio"] = s.failed / s.calls if s.calls else 0.0
                out[f"{name}.fail_self_s"] = s.fail_self_s
                out[f"{name}.ok_self_s"] = s.self_s - s.fail_self_s
        return out
