"""Parser for rational-function fixtures in x1..x{nvars-1} and q.

Test helper: expressions such as ``"((q^4 - q^2)*x1 - (q^2 - 1)*x2) / (x1*x2)"``
are built with RationalFunction arithmetic, so a fixture reads like the
closed form it pins.  RationalFunction has no / or **: a / b is
a * inverse(b), b inverted factor by factor, and a^e is a product of e
copies of a (of inverse(a) for e < 0).
"""

from qglk.poly import Poly
from qglk.ratfunc import RationalFunction

from reference import inverse


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
        v = self.product(self.expr())
        if self.peek():
            self.error("trailing input")
        return v

    def product(self, factors):
        v = RationalFunction.const(self.nvars, 1)
        for f in factors:
            v = v * f
        return v

    # Each method below returns a list of factors whose product is the
    # value, so that a / (b * c^2) inverts b and c one at a time: every
    # factor then has a unit or binomial numerator, as inv() requires.

    def expr(self):
        """The factors of a term, or the one sum of several terms."""
        if self.peek() == "-":
            self.pos += 1
            out = [RationalFunction.const(self.nvars, -1)] + self.term()
        else:
            out = self.term()
        while True:
            ch = self.peek()
            if ch not in ("+", "-"):
                return out
            self.pos += 1
            rest = self.product(self.term())
            out = [self.product(out) + (rest if ch == "+" else -rest)]

    def term(self):
        out = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                out = out + self.factor()
            elif ch == "/":
                self.pos += 1
                out = out + [inverse(f) for f in self.factor()]
            else:
                return out

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return [RationalFunction.const(self.nvars, -1)] + self.factor()
        out = self.atom()
        if self.peek() == "^":
            self.pos += 1
            neg = False
            if self.peek() == "-":
                self.pos += 1
                neg = True
            base = [inverse(f) for f in out] if neg else out
            out = base * self.integer()
        return out

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.expr()
            self.take(")")
            return out
        if ch.isdigit():
            return [RationalFunction.const(self.nvars, self.integer())]
        if ch == "q":
            self.pos += 1
            return [RationalFunction.from_poly(Poly.q(self.nvars))]
        if ch == "x":
            self.pos += 1
            i = self.integer()
            if not 1 <= i <= self.nvars - 1:
                self.error(f"variable x{i} out of range")
            return [RationalFunction.from_poly(Poly.x(self.nvars, i))]
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
