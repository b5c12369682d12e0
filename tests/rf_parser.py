"""Parser for rational-function fixtures in x1..x{nvars-1} and q.

Test helper: expressions such as ``"((q^4 - q^2)*x1 - (q^2 - 1)*x2) / (x1*x2)"``
are built with RationalFunction arithmetic, so a fixture reads like the
closed form it pins.  RationalFunction has no / or **: a / b is
a * b.inv() and a^e is a product of e copies of a (of a.inv() for e < 0).
"""

from qglk.ratfunc import RationalFunction


class _Parser:
    def __init__(self, text, nvars):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def error(self, msg):
        raise ValueError(f"parse error at column {self.pos}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        v = self.expr()
        if self.peek():
            self.error("trailing input")
        return v

    def expr(self):
        if self.peek() == "-":
            self.pos += 1
            v = -self.term()
        else:
            v = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                v = v + self.term()
            elif ch == "-":
                self.pos += 1
                v = v - self.term()
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                v = v * self.factor()
            elif ch == "/":
                self.pos += 1
                v = v * self.factor().inv()
            else:
                return v

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        v = self.atom()
        if self.peek() == "^":
            self.pos += 1
            neg = False
            if self.peek() == "-":
                self.pos += 1
                neg = True
            base, v = v.inv() if neg else v, RationalFunction.one(self.nvars)
            for _ in range(self.integer()):
                v = v * base
        return v

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            v = self.expr()
            self.take(")")
            return v
        if ch.isdigit():
            return RationalFunction.const(self.nvars, self.integer())
        if ch == "q":
            self.pos += 1
            return RationalFunction.q(self.nvars)
        if ch == "x":
            self.pos += 1
            i = self.integer()
            if not 1 <= i <= self.nvars - 1:
                self.error(f"variable x{i} out of range")
            return RationalFunction.x(self.nvars, i)
        self.error("expected a term")

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])


def parse(text, nvars):
    """Parse expressions in x1..x{nvars-1} and q into a RationalFunction."""
    return _Parser(text, nvars).parse()
