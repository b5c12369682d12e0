"""The quantum gl(1|1) action on N-fold tensor space.

The one-site space has an even basis vector (letter 0) and an odd one
(letter 1), so the N-site basis is indexed by 0/1 words.  Generators act
through the iterated coproduct

    Delta(E) = E (x) Kinv + 1 (x) E,      Delta(F) = F (x) 1 + K (x) F,

with K and H grouplike, and the Koszul sign (-1)^(parity of the letters
left of the active slot) whenever the odd operators E or F move past a
letter.  The raising operator E sends the weight-m block to weight m+2,
F sends it to m-2, and H acts on a word with k odd letters by q^(N-2k).

Coefficients are Poly in x_1..x_N and q (nvars = N + 1) that depend on q
alone: the ring whose fraction field holds the functor matrices of
:mod:`qglk.fm`.  A word is labelled by its set of odd-letter positions,
and block_matrix builds each generator as a weight block, a
:class:`qglk.matrix.Matrix` that carries its two weights, rows and
columns in lexicographic subset order; the localization side orders its
fixed points the same way, so block indices line up across the two
models.  The relation batteries check every identity block by block,
with located witnesses.
"""

from math import comb

from .grassmann import fixed_points
from .matrix import Matrix, entry_witness
from .poly import Poly
from .report import Report

GENERATORS = ("E", "F", "K", "Kinv", "H", "Hinv")

WEIGHT_STEP = {"E": 2, "F": -2, "K": 0, "Kinv": 0, "H": 0, "Hinv": 0}


def word_from_subset(n, subset):
    w = [0] * n
    for i in subset:
        w[i - 1] = 1
    return tuple(w)


def weight_block_words(n, weight):
    """Basis words of the given weight, ordered by odd-position subset."""
    if (n - weight) % 2:
        return []
    return [word_from_subset(n, s) for s in fixed_points(n, (n - weight) // 2)]


def weight_blocks(n):
    return {n - 2 * k: weight_block_words(n, n - 2 * k) for k in range(n + 1)}


def apply_generator(gen, word):
    """Image of a basis word under a generator, as (word, coefficient) pairs."""
    n = len(word)
    k = sum(word)

    def q(e):
        return Poly.q(n + 1, e)

    if gen == "K":
        return [(word, q(n))]
    if gen == "Kinv":
        return [(word, q(-n))]
    if gen == "H":
        return [(word, q(n - 2 * k))]
    if gen == "Hinv":
        return [(word, q(2 * k - n))]
    out = []
    sign = 1
    if gen == "E":
        for j in range(1, n + 1):
            if word[j - 1] == 1:
                flipped = word[: j - 1] + (0,) + word[j:]
                # the one-site entry q - q^-1 times the Kinv tail q^-(n-j)
                # on slots j+1..n
                out.append((flipped, (q(1 + j - n) - q(j - n - 1)) * sign))
                sign = -sign
        return out
    if gen == "F":
        for j in range(1, n + 1):
            if word[j - 1] == 0:
                flipped = word[: j - 1] + (1,) + word[j:]
                # K head on slots 1..j-1 contributes q^(j-1)
                out.append((flipped, q(j - 1) * sign))
            else:
                sign = -sign
        return out
    raise ValueError(f"unknown generator {gen!r}")


def _image_matrix(gen, words_in, words_out, mat):
    """Fills the zero matrix mat with gen from words_in to words_out and
    returns it.  Raises ValueError when an image word is not among
    words_out."""
    index = {w: i for i, w in enumerate(words_out)}
    for j, w in enumerate(words_in):
        for w2, coeff in apply_generator(gen, w):
            i = index.get(w2)
            if i is None:
                raise ValueError(f"image word {w2} of {gen} falls outside the target block")
            mat.rows[i][j] = mat.rows[i][j] + coeff
    return mat


def block_matrix(n, gen, source_weight):
    """Generator matrix from the weight block to its image block.

    A block outside [-n, n] is empty.  Raises ValueError when the
    generator sends a word of the source block outside the target block,
    so the blocks of a generator are the whole generator."""
    target_weight = source_weight + WEIGHT_STEP[gen]
    return _image_matrix(
        gen,
        weight_block_words(n, source_weight),
        weight_block_words(n, target_weight),
        Matrix.zero_block(n, source_weight, target_weight, Poly.zero(n + 1)),
    )


def _witness(pairs):
    """The located witness of the first (got, want) pair of blocks that
    differ, want None standing for zero; "" if none does."""
    for got, want in pairs:
        bad = entry_witness(got, want)
        if bad:
            return f"weight {got.source_weight} -> {got.target_weight}: {bad}"
    return ""


def verify_relations(n):
    """Check the defining relations on the N-site space, block by block.

    Every generator is the direct sum of its weight blocks (block_matrix
    raises otherwise), so a relation holds on the whole space exactly
    when it holds from every weight block.  Each check aggregates the
    blocks and reports the first failing one; no 2^N x 2^N matrix is
    formed.
    """
    rep = Report(f"defining relations on {n} tensor factors")
    nvars = n + 1
    # the empty blocks one step beyond either end close every product
    g = {(x, w): block_matrix(n, x, w) for x in GENERATORS for w in range(-n - 2, n + 3, 2)}
    one = Poly.one(nvars)
    q2 = Poly.q(nvars, 2)
    qm2 = Poly.q(nvars, -2)
    relations = {
        "E^2 = 0": lambda w: (g["E", w + 2] @ g["E", w], None),
        "F^2 = 0": lambda w: (g["F", w - 2] @ g["F", w], None),
        "EF + FE = K - Kinv": lambda w: (
            g["E", w - 2] @ g["F", w] + g["F", w + 2] @ g["E", w],
            g["K", w] - g["Kinv", w],
        ),
        "HE = q^2 EH": lambda w: (g["H", w + 2] @ g["E", w], (g["E", w] @ g["H", w]).scale(q2)),
        "HF = q^-2 FH": lambda w: (g["H", w - 2] @ g["F", w], (g["F", w] @ g["H", w]).scale(qm2)),
    }
    for x in "EFH":
        relations[f"K central against {x}"] = lambda w, x=x: (
            g["K", w + WEIGHT_STEP[x]] @ g[x, w],
            g[x, w] @ g["K", w],
        )
    relations["K Kinv = 1"] = lambda w: (g["K", w] @ g["Kinv", w], Matrix.scalar_block(n, w, one))
    relations["H Hinv = 1"] = lambda w: (g["H", w] @ g["Hinv", w], Matrix.scalar_block(n, w, one))
    weights = [n - 2 * k for k in range(n + 1)]
    for name, relation in relations.items():
        bad = _witness(relation(w) for w in weights)
        rep.add(name, not bad, bad)
    rep.note(f"EF + FE acts by K - Kinv = {Poly.q(nvars, n) - Poly.q(nvars, -n)}")
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
        expected = Poly.q(n + 1, m)
        bad = [w for w in words for w2, c in apply_generator("H", w) if w2 != w or c != expected]
        rep.add(
            f"H acts by q^{m} on weight {m}",
            not bad,
            "" if not bad else f"wrong H value on {bad[0]}",
        )
    return rep


def antipode_report():
    """One-site antipode axioms: S(E) = -E K and S(F) = -Kinv F make S a
    convolution inverse of the identity on both sides.  On one site E
    raises the weight -1 block to 1 and F lowers 1 to -1."""
    rep = Report("one-site antipode axioms")
    g = {(x, w): block_matrix(1, x, w) for x in GENERATORS for w in (1, -1)}
    E, F = g["E", -1], g["F", 1]
    SE = -(E @ g["K", -1])
    SF = -(g["Kinv", -1] @ F)
    one = {w: Matrix.scalar_block(1, w, Poly.one(2)) for w in (1, -1)}
    checks = {
        # Delta(E) = E (x) Kinv + 1 (x) E, counit 0
        "S * id on E": [(SE @ g["Kinv", -1] + E, None)],
        "id * S on E": [(E @ g["K", -1] + SE, None)],
        # Delta(F) = F (x) 1 + K (x) F, counit 0
        "S * id on F": [(SF + g["Kinv", -1] @ F, None)],
        "id * S on F": [(F + g["K", -1] @ SF, None)],
    }
    # grouplike generators: S(K) = Kinv and S(H) = Hinv
    for x in "KH":
        checks[f"S on {x} inverts it"] = [
            (a @ b, one[w])
            for w in (1, -1)
            for a, b in ((g[x + "inv", w], g[x, w]), (g[x, w], g[x + "inv", w]))
        ]
    for name, pairs in checks.items():
        bad = _witness(pairs)
        rep.add(name, not bad, bad)
    return rep
