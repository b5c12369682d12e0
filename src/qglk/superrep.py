"""The quantum gl(1|1) action on N-fold tensor space.

The one-site space has an even basis vector (letter 0) and an odd one
(letter 1), so the N-site basis is indexed by 0/1 words.  Generators act
through the iterated coproduct

    Delta(E) = E (x) Kinv + 1 (x) E,      Delta(F) = F (x) 1 + K (x) F,

with K and H grouplike, and the Koszul sign (-1)^(parity of the letters
left of the active slot) whenever the odd operators E or F move past a
letter.  The raising operator E sends the weight-m block to weight m+2,
F sends it to m-2, and H acts on a word with k odd letters by q^(N-2k).

Block bases are ordered by the set of odd-letter positions, smallest set
first in lexicographic order; the localization side orders its fixed
points the same way, so block indices line up across the two models.
"""

from itertools import combinations
from math import comb

from .laurent import LaurentScalar
from .matrix import Matrix
from .poly import Poly
from .ratfunc import RationalFunction
from .report import Report

GENERATORS = ("E", "F", "K", "Kinv", "H", "Hinv")

WEIGHT_STEP = {"E": 2, "F": -2, "K": 0, "Kinv": 0, "H": 0, "Hinv": 0}


def word_weight(word):
    return len(word) - 2 * sum(word)


def word_from_subset(n, subset):
    w = [0] * n
    for i in subset:
        w[i - 1] = 1
    return tuple(w)


def subset_from_word(word):
    return tuple(i + 1 for i, p in enumerate(word) if p)


def weight_block_words(n, weight):
    """Basis words of the given weight, ordered by odd-position subset."""
    k2 = n - weight
    if k2 < 0 or k2 % 2 or k2 > 2 * n:
        return []
    k = k2 // 2
    return [word_from_subset(n, s) for s in combinations(range(1, n + 1), k)]


def weight_blocks(n):
    return {n - 2 * k: weight_block_words(n, n - 2 * k) for k in range(n + 1)}


def basis_words(n):
    out = []
    for k in range(n + 1):
        out.extend(weight_block_words(n, n - 2 * k))
    return out


def apply_generator(gen, word):
    """Image of a basis word under a generator, as (word, coefficient) pairs."""
    n = len(word)
    k = sum(word)
    if gen == "K":
        return [(word, LaurentScalar.q(n))]
    if gen == "Kinv":
        return [(word, LaurentScalar.q(-n))]
    if gen == "H":
        return [(word, LaurentScalar.q(n - 2 * k))]
    if gen == "Hinv":
        return [(word, LaurentScalar.q(2 * k - n))]
    out = []
    sign = 1
    if gen == "E":
        unit = LaurentScalar({1: 1, -1: -1})  # q - q^-1, the one-site E entry
        for j in range(1, n + 1):
            if word[j - 1] == 1:
                flipped = word[: j - 1] + (0,) + word[j:]
                # Kinv tail on slots j+1..n contributes q^-(n-j)
                out.append((flipped, sign * unit * LaurentScalar.q(-(n - j))))
                sign = -sign
        return out
    if gen == "F":
        for j in range(1, n + 1):
            if word[j - 1] == 0:
                flipped = word[: j - 1] + (1,) + word[j:]
                # K head on slots 1..j-1 contributes q^(j-1)
                out.append((flipped, LaurentScalar.q(j - 1) * sign))
            else:
                sign = -sign
        return out
    raise ValueError(f"unknown generator {gen!r}")


class RepMatrix:
    """A generator matrix with its row and column words attached."""

    __slots__ = ("n", "words_out", "words_in", "mat")

    def __init__(self, n, words_out, words_in, mat):
        self.n = n
        self.words_out = tuple(words_out)
        self.words_in = tuple(words_in)
        self.mat = mat

    @classmethod
    def build(cls, n, gen, words_in, words_out):
        index = {w: i for i, w in enumerate(words_out)}
        mat = Matrix.zeros(len(words_out), len(words_in), LaurentScalar.zero())
        for j, w in enumerate(words_in):
            for w2, coeff in apply_generator(gen, w):
                i = index.get(w2)
                if i is None:
                    raise ValueError(f"image word {w2} missing from the target basis")
                mat.rows[i][j] = mat.rows[i][j] + coeff
        return cls(n, words_out, words_in, mat)

    def entry(self, word_out, word_in):
        return self.mat[self.words_out.index(word_out), self.words_in.index(word_in)]

    def __matmul__(self, other):
        if self.words_in != other.words_out:
            raise ValueError("bases do not compose")
        return RepMatrix(self.n, self.words_out, other.words_in, self.mat @ other.mat)

    def __add__(self, other):
        return RepMatrix(self.n, self.words_out, self.words_in, self.mat + other.mat)

    def __sub__(self, other):
        return RepMatrix(self.n, self.words_out, self.words_in, self.mat - other.mat)

    def scale(self, s):
        return RepMatrix(self.n, self.words_out, self.words_in, self.mat.scale(s))

    def __eq__(self, other):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        return (
            self.words_out == other.words_out
            and self.words_in == other.words_in
            and self.mat == other.mat
        )

    def is_zero(self):
        return self.mat.is_zero()

    def to_rational(self, nvars):
        """Lift entries into the rational-function field (q-only values)."""

        def lift(s):
            return RationalFunction(
                nvars, Poly(nvars, {(0,) * (nvars - 1) + (e,): c for e, c in s.coeffs.items()})
            )

        return self.mat.map(lift)

    def to_json(self):
        entries = {}
        for i, wo in enumerate(self.words_out):
            for j, wi in enumerate(self.words_in):
                v = self.mat[i, j]
                if not v.is_zero():
                    key = "".join(map(str, wo)) + "|" + "".join(map(str, wi))
                    entries[key] = str(v)
        return {
            "shape": [len(self.words_out), len(self.words_in)],
            "rows": ["".join(map(str, w)) for w in self.words_out],
            "cols": ["".join(map(str, w)) for w in self.words_in],
            "entries": entries,
        }

    def __str__(self):
        return str(self.mat)


def full_matrix(n, gen):
    words = basis_words(n)
    return RepMatrix.build(n, gen, words, words)


def block_matrix(n, gen, source_weight):
    """Generator matrix from the weight block to its image block."""
    words_in = weight_block_words(n, source_weight)
    words_out = weight_block_words(n, source_weight + WEIGHT_STEP[gen])
    if not words_in:
        raise ValueError(f"no weight-{source_weight} block at n={n}")
    index = {w: i for i, w in enumerate(words_out)}
    mat = Matrix.zeros(len(words_out), len(words_in), LaurentScalar.zero())
    for j, w in enumerate(words_in):
        for w2, coeff in apply_generator(gen, w):
            mat.rows[index[w2]][j] = mat.rows[index[w2]][j] + coeff
    return RepMatrix(n, words_out, words_in, mat)


def verify_relations(n):
    """Check the defining relations on the full N-site space."""
    rep = Report(f"defining relations on {n} tensor factors")
    E = full_matrix(n, "E").mat
    F = full_matrix(n, "F").mat
    K = full_matrix(n, "K").mat
    Kinv = full_matrix(n, "Kinv").mat
    H = full_matrix(n, "H").mat
    Hinv = full_matrix(n, "Hinv").mat
    q2 = LaurentScalar.q(2)
    qm2 = LaurentScalar.q(-2)

    ok = (E @ E).is_zero()
    rep.add("E^2 = 0", ok, witness_or_empty(ok, "E^2"))
    ok = (F @ F).is_zero()
    rep.add("F^2 = 0", ok, witness_or_empty(ok, "F^2"))
    ok = (E @ F + F @ E) == (K - Kinv)
    rep.add("EF + FE = K - Kinv", ok, witness_or_empty(ok, "anticommutator"))
    ok = (H @ E) == (E @ H).scale(q2)
    rep.add("HE = q^2 EH", ok, witness_or_empty(ok, "H-E exchange"))
    ok = (H @ F) == (F @ H).scale(qm2)
    rep.add("HF = q^-2 FH", ok, witness_or_empty(ok, "H-F exchange"))
    for name, M in (("E", E), ("F", F), ("H", H)):
        ok = (K @ M) == (M @ K)
        rep.add(f"K central against {name}", ok, witness_or_empty(ok, f"K vs {name}"))
    one = Matrix.identity(2**n, LaurentScalar.const(1), LaurentScalar.zero())
    ok = (K @ Kinv) == one
    rep.add("K Kinv = 1", ok, witness_or_empty(ok, "K unit"))
    ok = (H @ Hinv) == one
    rep.add("H Hinv = 1", ok, witness_or_empty(ok, "H unit"))
    rep.note(f"EF + FE acts by K - Kinv = {LaurentScalar.q(n) - LaurentScalar.q(-n)}")
    rep.note(
        f"naming: K is the global scalar q^{n} and H grades blocks by q^lambda; "
        "swapping the two names is incompatible with the anticommutator value"
    )
    return rep


def weight_structure_report(n):
    """H is diagonal with value q^m on the weight-m block of size C(n, k)."""
    rep = Report(f"weight decomposition on {n} tensor factors")
    blocks = weight_blocks(n)
    total = sum(len(ws) for ws in blocks.values())
    rep.add(
        "blocks partition the basis",
        total == 2**n,
        "" if total == 2**n else f"sizes sum to {total}, expected {2 ** n}",
    )
    for k in range(n + 1):
        m = n - 2 * k
        words = blocks[m]
        ok = len(words) == comb(n, k)
        rep.add(
            f"dim of weight {m} block is C({n},{k})",
            ok,
            "" if ok else f"got {len(words)}, expected {comb(n, k)}",
        )
        expected = LaurentScalar.q(m)
        bad = [w for w in words for w2, c in apply_generator("H", w) if w2 != w or c != expected]
        rep.add(
            f"H acts by q^{m} on weight {m}",
            not bad,
            "" if not bad else f"wrong H value on {bad[0]}",
        )
    return rep


def antipode_report():
    """One-site antipode axioms: both convolution inverses of the identity."""
    rep = Report("one-site antipode axioms")
    zero = LaurentScalar.zero()
    one = LaurentScalar.const(1)

    def m2(rows):
        return Matrix(2, 2, rows, zero)

    unit = LaurentScalar({1: 1, -1: -1})
    E1 = m2([[zero, unit], [zero, zero]])
    F1 = m2([[zero, zero], [one, zero]])
    K1 = Matrix.diagonal([LaurentScalar.q(), LaurentScalar.q()], zero)
    K1i = Matrix.diagonal([LaurentScalar.q(-1), LaurentScalar.q(-1)], zero)
    H1 = Matrix.diagonal([LaurentScalar.q(), LaurentScalar.q(-1)], zero)
    H1i = Matrix.diagonal([LaurentScalar.q(-1), LaurentScalar.q()], zero)
    I2 = Matrix.identity(2, one, zero)

    SE = -(E1 @ K1)
    SF = -(K1i @ F1)

    # Delta(E) = E (x) Kinv + 1 (x) E, counit 0
    lhs = SE @ K1i + E1
    rep.add("S * id on E", lhs.is_zero(), witness_or_empty(lhs.is_zero(), "S(E)Kinv + E"))
    lhs = E1 @ K1 + SE
    rep.add("id * S on E", lhs.is_zero(), witness_or_empty(lhs.is_zero(), "E S(Kinv) + S(E)"))
    # Delta(F) = F (x) 1 + K (x) F, counit 0
    lhs = SF + K1i @ F1
    rep.add("S * id on F", lhs.is_zero(), witness_or_empty(lhs.is_zero(), "S(F) + S(K)F"))
    lhs = F1 + K1 @ SF
    rep.add("id * S on F", lhs.is_zero(), witness_or_empty(lhs.is_zero(), "F + K S(F)"))
    # grouplike generators
    ok = (K1i @ K1) == I2 and (K1 @ K1i) == I2
    rep.add("S on K inverts it", ok, witness_or_empty(ok, "S(K)K"))
    ok = (H1i @ H1) == I2 and (H1 @ H1i) == I2
    rep.add("S on H inverts it", ok, witness_or_empty(ok, "S(H)H"))
    return rep


def witness_or_empty(ok, label):
    return "" if ok else f"{label} is not the expected matrix"
