"""Command-line frontend: verification batteries and matrix dumps.

Exit codes: 0 when every check passes, 1 when a check fails, 2 on usage
errors.  With --json the output is a stable-ordered document carrying a
schema version, so CI diffs stay meaningful.
"""

import argparse
import json
import sys

from . import fm, koszul, superrep
from .matrix import Matrix
from .ratfunc import RationalFunction

ALGEBRA_CAP = 6
GEOMETRY_DUMP_CAP = 5  # `matrices --side geometry` prints whole blocks
KOSZUL_RANK_CAP = 5
DEFAULT_SEED = 0xC0FFEE


def _usage_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _print_json(payload):
    payload["schema"] = 1
    print(json.dumps(payload, sort_keys=True, indent=2))


def _finish(args, doc, reports):
    """Prints the reports, as the document doc with their outcome under
    --json, else as text, and returns the exit code."""
    passed = all(r.passed for r in reports)
    if args.json:
        _print_json({**doc, "passed": passed, "reports": [r.to_dict() for r in reports]})
    else:
        for r in reports:
            print("\n".join(r.summary_lines()))
        print("ALL CHECKS PASSED" if passed else "CHECKS FAILED")
    return 0 if passed else 1


def cmd_verify(args):
    n = args.n
    if n < 1 or n > ALGEBRA_CAP:
        return _usage_error(f"--n must be between 1 and {ALGEBRA_CAP}")
    if args.max_weight is not None and args.max_weight < 0:
        return _usage_error("--max-weight must be nonnegative")

    blocks = fm.Blocks(n)
    reports = [
        superrep.verify_relations(n),
        superrep.weight_structure_report(n),
        superrep.antipode_report(),
        fm.nilpotency_report(n, args.max_weight, blocks=blocks),
        fm.commutator_report(n, args.max_weight, blocks=blocks),
        fm.normalized_rep_report(n, args.max_weight, blocks=blocks),
        fm.intertwiner_report(n, seed=args.seed, blocks=blocks),
        koszul.endpoint_report(n),
    ]
    parameters = {"n": n, "max_weight": args.max_weight, "seed": args.seed}
    return _finish(args, {"command": "verify", "parameters": parameters, "skipped": []}, reports)


def _algebra_blocks(n, weight):
    return {g: superrep.block_matrix(n, g, weight) for g in ("E", "F", "K", "H")}


def _geometry_blocks(n, weight):
    return {
        "E": fm.raising_matrix(n, weight),
        "F": fm.lowering_matrix(n, weight),
        "K": Matrix.scalar_block(n, weight, RationalFunction.q(n + 1, n)),
        "H": Matrix.scalar_block(n, weight, RationalFunction.q(n + 1, weight)),
    }


def _block_json(block, label):
    """Schema-1 layout of a block; label turns a subset into a row or
    column name."""
    rows = [label(S) for S in block.rows_points]
    cols = [label(S) for S in block.cols_points]
    return {
        "rows": rows,
        "cols": cols,
        "entries": {
            f"{rows[i]}|{cols[j]}": str(v)
            for i, row in enumerate(block.rows)
            for j, v in enumerate(row)
            if v
        },
    }


def _algebra_json(block):
    def word(S):
        return "".join(map(str, superrep.word_from_subset(block.n, S)))

    return {"shape": [block.nrows, block.ncols], **_block_json(block, word)}


def _geometry_json(block):
    return {
        "n": block.n,
        "source_weight": block.source_weight,
        "target_weight": block.target_weight,
        **_block_json(block, lambda S: ",".join(map(str, S))),
    }


def _geometry_text(block):
    head = f"FunctorMatrix n={block.n} weight {block.source_weight} -> {block.target_weight}"
    return head + "\n" + str(block)


def cmd_matrices(args):
    n, w = args.n, args.weight
    if n < 1 or n > ALGEBRA_CAP:
        return _usage_error(f"--n must be between 1 and {ALGEBRA_CAP}")
    if (n - w) % 2:
        return _usage_error(f"weight {w} has the wrong parity for n={n}")
    k = (n - w) // 2
    if not 0 <= k <= n:
        return _usage_error(f"weight {w} is outside [-{n}, {n}]")
    if args.side == "geometry" and n > GEOMETRY_DUMP_CAP:
        return _usage_error(f"geometry side is capped at n={GEOMETRY_DUMP_CAP}")

    if args.side == "algebra":
        blocks, to_json, to_text = _algebra_blocks(n, w), _algebra_json, str
    else:
        blocks, to_json, to_text = _geometry_blocks(n, w), _geometry_json, _geometry_text
    if args.json:
        _print_json(
            {
                "command": "matrices",
                "parameters": {"n": n, "weight": w, "side": args.side},
                "blocks": {g: to_json(b) for g, b in blocks.items()},
            }
        )
    else:
        for g in ("E", "F", "K", "H"):
            print(f"-- {g} on the weight-{w} block (n={n}, {args.side}) --")
            print(to_text(blocks[g]))
    return 0


def cmd_koszul(args):
    r, k = args.rank, args.k
    if r < 0 or r > KOSZUL_RANK_CAP:
        return _usage_error(
            f"--rank must be between 0 and {KOSZUL_RANK_CAP} (symbolic blow-up guard)"
        )
    if not 0 <= k <= r:
        return _usage_error(f"--k must be between 0 and the rank {r}")
    doc = {"command": "koszul", "parameters": {"rank": r, "k": k}}
    return _finish(args, doc, [koszul.koszul_battery_report(r, k)])


def _seed(text):
    return int(text, 0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qglk",
        description=(
            "Exact checks that the quantum-supergroup action on tensor space "
            "agrees with its localized geometric realization"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the relation and intertwiner batteries")
    pv.add_argument("--n", type=int, required=True, help="number of tensor factors")
    pv.add_argument(
        "--max-weight",
        dest="max_weight",
        type=int,
        default=None,
        help="restrict geometry checks to |weight| <= this",
    )
    pv.add_argument("--json", action="store_true", help="machine-readable output")
    pv.add_argument(
        "--seed",
        type=_seed,
        default=DEFAULT_SEED,
        help="seed for the rational sample points behind the intertwiner's "
        "pivot columns and invertibility certificates",
    )
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("matrices", help="dump E, F, K, H on one weight block")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--weight", type=int, required=True)
    pm.add_argument("--side", choices=("algebra", "geometry"), required=True)
    pm.add_argument("--json", action="store_true")
    pm.set_defaults(func=cmd_matrices)

    pk = sub.add_parser("koszul", help="check the graded-complex identities")
    pk.add_argument("--rank", type=int, required=True)
    pk.add_argument("--k", type=int, required=True)
    pk.add_argument("--json", action="store_true")
    pk.set_defaults(func=cmd_koszul)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
