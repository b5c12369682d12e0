"""Helpers for tests on characters: a character is a Poly mapping each
weight's key to its multiplicity, and a weight is a one-term Poly."""

from qglk.poly import Poly


def weight_monomial(n, num=(), den=(), q_exp=0):
    """The weight q^q_exp * prod x_i (i in num) / prod x_j (j in den) in
    x_1..x_n and q."""
    exps = [0] * (n + 1)
    for i in num:
        exps[i - 1] += 1
    for j in den:
        exps[j - 1] -= 1
    exps[n] = q_exp
    return Poly.monomial(n + 1, exps)


def mult(char, weight):
    """Multiplicity in char of a one-term Poly weight."""
    (k,) = weight.keys
    return char.keys.get(k, 0)


def rank(char):
    return sum(char.keys.values())
