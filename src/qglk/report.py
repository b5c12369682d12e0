"""Uniform pass/fail reporting for verification batteries."""


class Check:
    """One named verification.  witness is nonempty exactly when it failed."""

    __slots__ = ("name", "passed", "witness")

    def __init__(self, name, passed, witness=""):
        if passed and witness:
            raise ValueError("a passing check must not carry a witness")
        if not passed and not witness:
            raise ValueError("a failing check must explain itself")
        self.name, self.passed, self.witness = name, passed, witness


class Report:
    __slots__ = ("title", "checks", "notes")

    def __init__(self, title, checks=None, notes=None):
        self.title = title
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes

    def add(self, name, passed, witness=""):
        self.checks.append(Check(name, bool(passed), witness))

    def note(self, text):
        self.notes.append(text)

    def extend(self, other):
        self.checks.extend(other.checks)
        self.notes.extend(other.notes)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }

    def summary_lines(self):
        lines = [f"== {self.title} =="]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}")
            if not c.passed:
                lines.append(f"         {c.witness}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        lines.append(
            f"  {sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed"
        )
        return lines

    def __str__(self):
        return "\n".join(self.summary_lines())
