"""Fixed-point matrices of the geometric raising and lowering operators.

The weight-(n-2k) space is modelled by the total space Y of the scaled
Hom(C^n, tau) bundle over Gr(k, n).  Raising and lowering act through the
one-step correspondence W whose torus-fixed points are nested pairs
S_small < S_big differing by one index b.  Push-pull against the kernel
localizes to a matrix over the fraction field: the (S_t, S_s) entry is
the kernel value at the pair divided by the Euler class of the source
tangent space, which collapses to

    twist * e(T_{S_t} Y_target - T_W)

with all cancellation done at the character level, so no rational-function
division beyond the final Euler class is ever needed.  The twist is the
restriction of det(tau) on the big side for raising and of x_b^(n - k_big)
for lowering.

Lowering is normalized by the global unit q^(2n) / (x_1 ... x_n); with it
the commutator of the two functors is the scalar
(-1)^(n-k-1) * (1 - q^(2n)) on each weight block, matching the algebra
side after E is scaled by q^(-n) and F by (-1)^(n-k-1) q^(2n).

Every matrix here is a :class:`qglk.matrix.WeightBlock` over the fraction
field, rows and columns labelled by fixed points.  algebra_matrix lifts
the algebra blocks of :mod:`qglk.superrep`, the same type over Poly, into
that field, so the two actions are compared block by block.
"""

from math import comb

from .grassmann import (
    det_tau_restrict,
    euler_class_rf,
    fixed_points,
    hom_fiber,
    ratio_character,
    tangent_gr,
)
from .linalg import certify_invertible, column_basis, columns, hstack, invert_matrix
from .matrix import Matrix, WeightBlock, entry_witness, first_difference, k_of, subset_label
from .poly import Monomial, Poly
from .ratfunc import RationalFunction
from .report import Report
from .superrep import block_matrix


def correspondence_pairs(n, k_small):
    """Fixed points of the one-step correspondence: nested pairs."""
    out = []
    for Sb in fixed_points(n, k_small + 1):
        for b in Sb:
            out.append((tuple(i for i in Sb if i != b), Sb))
    return out


def correspondence_tangent(n, S_small, S_big):
    """Tangent character of the correspondence at a nested fixed pair.

    Flag part: the small Grassmannian directions plus the line spanned by
    b moving inside the quotient by S_big.  Fiber part: the scaled Hom
    bundle through the small space.
    """
    small = set(S_small)
    big = set(S_big)
    extra = big - small
    if len(extra) != 1 or not small <= big:
        raise ValueError("expected nested subsets differing by one index")
    b = next(iter(extra))
    line = ratio_character(n, [(j, b) for j in range(1, n + 1) if j not in big])
    return tangent_gr(n, S_small) + line + hom_fiber(n, S_small)


def _transfer_index(S_small, S_big):
    return next(iter(set(S_big) - set(S_small)))


def _twist(n, S_small, S_big, raising):
    if raising:
        return det_tau_restrict(n, S_big)
    b = _transfer_index(S_small, S_big)
    e = n - len(S_big)
    return Monomial(tuple(e if i + 1 == b else 0 for i in range(n)), 0)


def kernel_value(n, S_small, S_big, raising):
    """Kernel class at the fixed pair: twist times e(N_W), with
    N_W = T(Y_source) + T(Y_target) - T(W) restricted to the pair."""
    S_src, S_tgt = (S_big, S_small) if raising else (S_small, S_big)
    nW = (
        tangent_gr(n, S_src)
        + hom_fiber(n, S_src)
        + tangent_gr(n, S_tgt)
        + hom_fiber(n, S_tgt)
        - correspondence_tangent(n, S_small, S_big)
    )
    tw = RationalFunction.from_poly(_twist(n, S_small, S_big, raising).to_poly())
    return tw * euler_class_rf(nW, n + 1)


def _pair_entry(n, S_small, S_big, raising):
    S_tgt = S_small if raising else S_big
    char = (
        tangent_gr(n, S_tgt)
        + hom_fiber(n, S_tgt)
        - correspondence_tangent(n, S_small, S_big)
    )
    tw = RationalFunction.from_poly(_twist(n, S_small, S_big, raising).to_poly())
    return tw * euler_class_rf(char, n + 1)


def lowering_unit(n):
    """The unit q^(2n) / (x_1 ... x_n) applied to every lowering matrix."""
    return RationalFunction.from_poly(Monomial((-1,) * n, 2 * n).to_poly())


def raising_matrix(n, source_weight):
    """Localized matrix of the raising functor from the given weight."""
    out = WeightBlock.zeros(n, source_weight, source_weight + 2, RationalFunction.zero(n + 1))
    for j, Ss in enumerate(out.cols_points):
        sset = set(Ss)
        for i, St in enumerate(out.rows_points):
            if set(St) <= sset:
                out.mat.rows[i][j] = _pair_entry(n, St, Ss, raising=True)
    return out


def lowering_matrix(n, source_weight, normalized=True):
    """Localized matrix of the lowering functor from the given weight."""
    out = WeightBlock.zeros(n, source_weight, source_weight - 2, RationalFunction.zero(n + 1))
    u = lowering_unit(n) if normalized else None
    for j, Ss in enumerate(out.cols_points):
        sset = set(Ss)
        for i, St in enumerate(out.rows_points):
            if sset <= set(St):
                v = _pair_entry(n, Ss, St, raising=False)
                out.mat.rows[i][j] = v * u if normalized else v
    return out


def epsilon_sign(n, k):
    return 1 if (n - k) % 2 else -1


def commutator_scalar(n, k):
    """(-1)^(n-k-1) * (1 - q^(2n)) in the fraction field."""
    nvars = n + 1
    p = Poly.one(nvars) - Poly.q(nvars, 2 * n)
    if epsilon_sign(n, k) < 0:
        p = -p
    return RationalFunction(nvars, p)


def commutator_matrix(n, weight, normalized=True):
    """FE - EF on the weight block, built from the localized matrices."""
    fe = lowering_matrix(n, weight + 2, normalized) @ raising_matrix(n, weight)
    ef = raising_matrix(n, weight - 2) @ lowering_matrix(n, weight, normalized)
    return fe - ef


def _weights(n, max_weight):
    ws = [n - 2 * k for k in range(n + 1)]
    if max_weight is None:
        return ws
    return [w for w in ws if abs(w) <= max_weight]


def nilpotency_report(n, max_weight=None):
    rep = Report(f"geometric nilpotency at n={n}")
    for w in _weights(n, max_weight):
        bad = entry_witness(raising_matrix(n, w + 2) @ raising_matrix(n, w))
        rep.add(f"raising twice from weight {w} vanishes", not bad, bad)
        bad = entry_witness(lowering_matrix(n, w - 2) @ lowering_matrix(n, w))
        rep.add(f"lowering twice from weight {w} vanishes", not bad, bad)
    return rep


def commutator_report(n, max_weight=None):
    """Checks FE - EF = eps * (1 - q^(2n)) Id per weight block and records
    the observed sign against the parity (-1)^(n-k-1)."""
    rep = Report(f"geometric commutator scalars at n={n}")
    base = RationalFunction(n + 1, Poly.one(n + 1) - Poly.q(n + 1, 2 * n))
    signed = {1: base, -1: -base}
    for w in _weights(n, max_weight):
        k = k_of(n, w)
        d = commutator_matrix(n, w)
        dim = comb(n, k)
        eps = next((c for c, s in signed.items() if d == WeightBlock.scalar(n, w, s)), None)
        pred = epsilon_sign(n, k)
        bad = "" if eps else entry_witness(d, WeightBlock.scalar(n, w, signed[pred]))
        rep.add(f"weight {w} commutator is a (1-q^{2*n}) scalar on a dim-{dim} block", not bad, bad)
        if eps is not None:
            rep.add(
                f"weight {w} sign matches (-1)^(n-k-1)",
                eps == pred,
                "" if eps == pred else f"observed {eps:+d}, parity {pred:+d}",
            )
            rep.note(f"weight {w}: epsilon={eps:+d}, parity (-1)^(n-k-1)={pred:+d}")
    return rep


def algebra_matrix(n, gen, source_weight, normalized=True):
    """Algebra generator on a weight block, lifted to the fraction field.

    Normalization: E picks up q^(-n) and F picks up (-1)^(n-k-1) q^(2n),
    where k is taken at the source weight; with these units the algebra
    and geometry commutator scalars agree block by block.
    """
    if gen not in ("E", "F"):
        raise ValueError("only E and F have functor counterparts")
    block = block_matrix(n, gen, source_weight)
    mat = block.mat
    if normalized:
        if gen == "E":
            mat = mat.scale(Poly.q(n + 1, -n))
        else:
            mat = mat.scale(Poly.q(n + 1, 2 * n) * epsilon_sign(n, k_of(n, source_weight)))
    return WeightBlock(n, source_weight, block.target_weight, mat.map(RationalFunction.from_poly))


def scalar_block(n, weight, q_exp):
    """q^q_exp times the identity on the weight block."""
    return WeightBlock.scalar(n, weight, RationalFunction.q(n + 1, q_exp))


def normalized_family(n, weight):
    """The four normalized generators on one weight block: E and F as
    localized functor matrices, K central as q^n, H grading as q^weight."""
    return {
        "E": algebra_matrix(n, "E", weight),
        "F": algebra_matrix(n, "F", weight),
        "K": scalar_block(n, weight, n),
        "H": scalar_block(n, weight, weight),
    }


def normalized_rep_report(n, max_weight=None):
    """Full relation battery for the normalized algebra blocks: nilpotency,
    the commutator scalar matching the geometric one, K centrality, and the
    H-grading conjugation."""
    rep = Report(f"normalized algebra blocks at n={n}")
    q2 = RationalFunction.q(n + 1, 2)
    for w in _weights(n, max_weight):
        k = k_of(n, w)
        bad = entry_witness(algebra_matrix(n, "E", w + 2) @ algebra_matrix(n, "E", w))
        rep.add(f"E^2 vanishes from weight {w}", not bad, bad)
        bad = entry_witness(algebra_matrix(n, "F", w - 2) @ algebra_matrix(n, "F", w))
        rep.add(f"F^2 vanishes from weight {w}", not bad, bad)
        d = algebra_matrix(n, "F", w + 2) @ algebra_matrix(n, "E", w) - (
            algebra_matrix(n, "E", w - 2) @ algebra_matrix(n, "F", w)
        )
        bad = entry_witness(d, WeightBlock.scalar(n, w, commutator_scalar(n, k)))
        rep.add(f"FE - EF is eps*(1-q^{2*n}) at weight {w}", not bad, bad)
        e = algebra_matrix(n, "E", w)
        f = algebra_matrix(n, "F", w)
        bad = entry_witness(scalar_block(n, w + 2, n) @ e - e @ scalar_block(n, w, n))
        rep.add(f"K is central through E at weight {w}", not bad, bad)
        bad = entry_witness(
            scalar_block(n, w + 2, w + 2) @ e - (e @ scalar_block(n, w, w)).scale(q2)
        )
        rep.add(f"H conjugation scales E by q^2 at weight {w}", not bad, bad)
        bad = entry_witness(
            scalar_block(n, w - 2, w - 2) @ f
            - (f @ scalar_block(n, w, w)).scale(RationalFunction.q(n + 1, -2))
        )
        rep.add(f"H conjugation scales F by q^-2 at weight {w}", not bad, bad)
    return rep


def _located_witness(side, w, identity, op, split, got, want, offset=0):
    """Where got and want first differ, as a short witness; "" if equal.

    Rows are labelled by the target fixed points of op, columns by their
    index in B[w] = [P | E*P], whose first `split` columns are P.
    """
    bad = first_difference(got, want)
    if bad is None:
        return ""
    i, j = bad[0], bad[1] + offset
    block = "P" if j < split else "E*P"
    return (
        f"{side} side, weight {w}: {identity} fails first at row {i} "
        f"(subset {subset_label(op.rows_points[i])}), column {j} (block {block})"
    )


def _prove_intertwiner(n, seed):
    """The proof described in find_intertwiner.  Returns the report and,
    when the transported bases are square, {weight: (B_alg, B_geo)}."""
    rep = Report(f"intertwiner at n={n}")
    nvars = n + 1
    zero = RationalFunction.zero(nvars)
    weights = [n - 2 * k for k in range(n + 1)]
    sides = {
        "algebra": {w: (algebra_matrix(n, "E", w), algebra_matrix(n, "F", w)) for w in weights},
        "geometric": {w: (raising_matrix(n, w), lowering_matrix(n, w)) for w in weights},
    }
    proj = {side: {} for side in sides}  # P_w, pivot columns of p_w
    lifted = {side: {} for side in sides}  # E_{w-2} P_{w-2}
    basis = {side: {} for side in sides}  # B[w] = [P_w | E_{w-2} P_{w-2}]
    ok_bases = True
    for w in reversed(weights):
        s = commutator_scalar(n, k_of(n, w)).inv()
        for side, ops in sides.items():
            if w == n:  # E leaves the top weight for an empty block
                p = WeightBlock.zeros(n, w, w, zero).mat
            else:
                p = (ops[w + 2][1] @ ops[w][0]).scale(s).mat
            proj[side][w] = columns(p, column_basis(p, nvars, seed))
        r_alg, r_geo = (proj[side][w].ncols for side in sides)
        if r_alg != r_geo:
            why = f"algebra rank {r_alg}, geometric rank {r_geo}"
            rep.add(f"projector ranks agree at weight {w}", False, why)
            ok_bases = False
            continue
        short = []
        for side, ops in sides.items():
            if w > -n:
                lifted[side][w] = ops[w - 2][0].mat @ proj[side][w - 2]
            else:  # nothing below the bottom weight
                lifted[side][w] = Matrix.zeros(proj[side][w].nrows, 0, zero)
            b = basis[side][w] = hstack(proj[side][w], lifted[side][w])
            if b.ncols != b.nrows:
                short.append(f"{side}: {b.ncols} columns for a dim-{b.nrows} block")
        rep.add(f"transported bases fill the weight-{w} block", not short, "; ".join(short))
        ok_bases = ok_bases and not short

    if not ok_bases:
        return rep, None

    for w in weights:
        why = []
        for side in sides:
            ok, msg = certify_invertible(basis[side][w], nvars, seed=seed)
            if not ok:
                why.append(f"{side} basis: {msg}")
        rep.add(f"phi at weight {w} is invertible", not why, "; ".join(why))

    for w in weights:
        k = k_of(n, w)
        if w < n:
            bad = ""
            for side, ops in sides.items():
                e, split = ops[w][0], proj[side][w].ncols
                got = e.mat @ lifted[side][w]
                want = Matrix.zeros(got.nrows, got.ncols, zero)
                bad = bad or _located_witness(
                    side, w, "E*B = [E*P | 0]", e, split, got, want, offset=split
                )
            rep.add(f"phi intertwines E at weight {w}", not bad, bad)
        if w > -n:
            s_low = commutator_scalar(n, k + 1)
            bad = ""
            for side, ops in sides.items():
                f, split = ops[w][1], proj[side][w].ncols
                got = f.mat @ basis[side][w]
                want = hstack(
                    Matrix.zeros(got.nrows, split, zero), proj[side][w - 2].scale(s_low)
                )
                bad = bad or _located_witness(side, w, "F*B = [0 | s*P]", f, split, got, want)
            rep.add(f"phi intertwines F at weight {w}", not bad, bad)
    return rep, {w: (basis["algebra"][w], basis["geometric"][w]) for w in weights}


def find_intertwiner(n, seed=0xC0FFEE):
    """Proves that the normalized algebra action and the geometric one are
    intertwined by a block-diagonal phi, then builds phi.

    The proof never inverts a matrix.  On each side and at each weight w,
    p_w = F_{w+2} E_w / s_w is an idempotent (s_w is the commutator
    scalar, whose sign flips from weight to weight).  Its pivot columns
    P_w, chosen by exact elimination over Q at a point drawn from `seed`,
    and the columns E_{w-2} P_{w-2} transported up from the weight below
    form a basis B[w] = [P_w | E_{w-2} P_{w-2}].  The checks:

    * projector ranks agree, and B[w] is square on both sides (exact);
    * "phi at weight w is invertible": det B_alg[w] and det B_geo[w] are
      nonzero at a seeded rational point.  This is a one-sided
      certificate: a nonzero value proves the symbolic determinant
      nonzero, and an unlucky point can only fail the check;
    * "phi intertwines E at weight w": E_w B[w] = [E_w P_w | 0] on both
      sides, an exact identity.  E_w P_w is the second block of B[w+2];
    * "phi intertwines F at weight w": F_w B[w] = [0 | s_{w-2} P_{w-2}]
      on both sides, an exact identity.

    So X B[w] = B[w'] M_X with the same structure matrix M_X on both
    sides for X = E, F, and phi_w = B_geo[w] B_alg[w]^-1 satisfies
    phi_{w'} X_alg = X_geo phi_w.  The seed picks the sample points but
    never decides a PASS.

    Returns (phi, report); phi maps each weight to a Matrix over the
    fraction field, and is empty unless every check passed.
    """
    rep, bases = _prove_intertwiner(n, seed)
    if not rep.passed:
        return {}, rep
    one = RationalFunction.one(n + 1)
    phi = {w: b_geo @ invert_matrix(b_alg, one) for w, (b_alg, b_geo) in bases.items()}
    return phi, rep


def intertwiner_report(n, seed=0xC0FFEE):
    """The checks of find_intertwiner, without building phi."""
    return _prove_intertwiner(n, seed)[0]
