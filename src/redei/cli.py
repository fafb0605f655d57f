"""Command-line surface.

Subcommands: structure, classes, pairs, isolated, family, verify.
Formats: json, csv, text (default).  Exit codes: 0 success, 2 invalid
input, 3 verification failure, 4 family precondition unmet.  The
REDEI_THREADS environment variable, a positive integer, caps the verify
worker pool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, families, verify
from .cyclestruct import cycle_structure
from .gf import (
    build_field,
    first_with_character,
    parse_element,
    quadratic_character,
)
from .maps import NotAPermutation, build_permutation, cycle_decomposition
from .numthy import FactorizationError, prime_power_decomposition

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3
EXIT_FAMILY_PRECONDITION = 4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _given_q(args) -> int:
    if args.q is not None:
        return args.q
    if args.p is not None and args.k is not None:
        return args.p**args.k
    raise ValueError("supply --q, or both --p and --k")


def _resolve_q(args) -> int:
    q = _given_q(args)
    if q < 3 or q % 2 == 0 or prime_power_decomposition(q) is None:
        raise ValueError(f"q={q} is not an odd prime power")
    return q


def _emit(args, json_obj, text_lines, csv_text=None) -> None:
    if args.format == "json":
        print(json.dumps(json_obj))
    elif args.format == "csv":
        if csv_text is None:
            raise ValueError("no CSV form for this command")
        print(csv_text, end="")
    else:
        for line in text_lines:
            print(line)


def cmd_structure(args) -> int:
    try:
        q = _resolve_q(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    try:
        structure = cycle_structure(args.m, q, args.chi)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    obj = structure.to_json_obj()
    lines = [f"q={q} chi={args.chi} m={args.m}", f"structure {structure}"]
    csv_text = "length,count\n" + "".join(
        f"{ln},{mult}\n" for ln, mult in structure.counts
    )
    oracle_note = None
    if args.verify and q + 1 > 10**6:
        oracle_note = "oracle: skipped (projective line too large to enumerate)"
    elif args.verify:
        field = build_field(*prime_power_decomposition(q))
        if args.a is not None:
            try:
                a = parse_element(field, args.a)
            except ValueError as exc:
                return _fail(str(exc), EXIT_INVALID)
            if a == field.zero:
                return _fail("parameter a must be nonzero", EXIT_INVALID)
            if quadratic_character(field, a) != args.chi:
                return _fail(
                    f"element {args.a} has the wrong quadratic character", EXIT_INVALID
                )
        else:
            a = first_with_character(field, args.chi)
        try:
            table = build_permutation(field, args.m, a)
        except NotAPermutation as exc:
            return _fail(str(exc), EXIT_INVALID)
        if cycle_decomposition(table) != structure:
            print("oracle: MISMATCH (formula disagrees with the table)", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        obj = {"field": field.json_obj(), "structure": obj, "oracle": "agree"}
        oracle_note = "oracle: agree"
    if oracle_note:
        lines.append(oracle_note)
    _emit(args, obj, lines, csv_text)
    return EXIT_OK


def cmd_classes(args) -> int:
    try:
        q = _resolve_q(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    classes = catalog.structure_classes(q, args.chi)
    obj = catalog.classes_json_obj(q, args.chi, classes)
    lines = [f"q={q} chi={args.chi} classes={len(classes)}"]
    csv_lines = ["members,structure"]
    for cls in classes:
        members = ",".join(str(m) for m in cls.members)
        lines.append(f"members={members} structure={cls.structure}")
        csv_lines.append(f"{';'.join(str(m) for m in cls.members)},{cls.structure}")
    _emit(args, obj, lines, "\n".join(csv_lines) + "\n")
    return EXIT_OK


def cmd_pairs(args) -> int:
    try:
        q = _resolve_q(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    pairs = catalog.structure_pairs(q, args.chi)
    modulus = q - args.chi
    obj = {
        "q": q,
        "chi": args.chi,
        "pairs": [[m, n, (n - m) % modulus] for m, n in pairs.pairs],
    }
    lines = [f"q={q} chi={args.chi} pairs={len(pairs.pairs)}"]
    lines += [f"{m} {n} offset={(n - m) % modulus}" for m, n in pairs.pairs]
    _emit(args, obj, lines, catalog.pairs_csv(pairs))
    return EXIT_OK


def cmd_isolated(args) -> int:
    try:
        q = _resolve_q(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    values = catalog.isolated_values(q, args.chi)
    count = catalog.isolated_count(q, args.chi)
    obj = {"q": q, "chi": args.chi, "isolated": list(values), "count_formula": count}
    lines = [
        f"q={q} chi={args.chi}",
        f"isolated={','.join(str(m) for m in values)}",
        f"count_formula={count}",
    ]
    csv_text = "m\n" + "".join(f"{m}\n" for m in values)
    _emit(args, obj, lines, csv_text)
    return EXIT_OK


def _family_prediction(args):
    name = args.family
    if name == "frobenius":
        if args.p is None or args.k is None or args.l1 is None or args.l2 is None:
            raise ValueError("frobenius needs --p, --k, --l1, --l2")
        return families.frobenius_family(args.p, args.k, args.l1, args.l2, args.chi)
    if name == "p-qmp1":
        if args.p is None:
            raise ValueError("p-qmp1 needs --p")
        if args.q is not None:
            q = args.q
        elif args.twok is not None:
            q = args.p**args.twok
        elif args.k is not None:
            q = args.p**args.k
        else:
            raise ValueError("p-qmp1 needs --q, --twok, or --k")
        return families.p_qmp1_family(args.p, q, args.chi)
    q = _given_q(args)
    if name == "quarter":
        return families.quarter_family(q, args.chi)
    if name == "pm2":
        return families.pm2_family(q, args.chi)
    raise ValueError(f"unknown family {name!r}")


def cmd_family(args) -> int:
    if args.family == "p-qmp1" and args.chi is None:
        args.chi = -1
    if args.chi is None:
        return _fail("--chi is required", EXIT_INVALID)
    try:
        pred = _family_prediction(args)
    except (families.InvalidFamilyInput, FactorizationError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except ValueError as exc:
        return _fail(str(exc), EXIT_FAMILY_PRECONDITION)
    lines = [
        f"family={pred.family} q={pred.q} chi={pred.chi}",
        f"pair=({pred.pair[0]}, {pred.pair[1]})",
        f"applicable={pred.applicable} ({pred.reason})",
    ]
    if pred.structure is not None:
        lines.append(f"structure {pred.structure}")
    if args.verify:
        if pred.applicable:
            m1, m2 = pred.pair
            ok = catalog.pair_shares_structure(m1, m2, pred.q, pred.chi)
            if pred.structure is not None:
                ok = ok and pred.structure == cycle_structure(m1, pred.q, pred.chi)
                ok = ok and pred.structure == cycle_structure(m2, pred.q, pred.chi)
            if not ok:
                print("cross-check: MISMATCH", file=sys.stderr)
                return EXIT_VERIFY_FAILED
            lines.append("cross-check: agree")
        else:
            lines.append("cross-check: skipped (pair not applicable)")
    _emit(args, pred.to_json_obj(), lines)
    return EXIT_OK


def _worker_count(args) -> int:
    workers = args.workers if args.workers else (os.cpu_count() or 1)
    cap = os.environ.get("REDEI_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ValueError(f"REDEI_THREADS must be a positive integer, got {cap!r}")
        workers = min(workers, limit)
    return max(1, workers)


def cmd_verify(args) -> int:
    if args.qmax < 3 or args.qmax > 400:
        return _fail("--qmax must be between 3 and 400", EXIT_INVALID)
    try:
        workers = _worker_count(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    rows = verify.run_all(args.qmax, workers=workers)
    bad = None
    for name, checked, failures in rows:
        status = "ok" if not failures else f"FAILED ({len(failures)})"
        print(f"{name}: checked={checked} {status}")
        if failures and bad is None:
            bad = failures[0]
    if bad is not None:
        print(f"first counterexample: {bad}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("all properties hold")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redei",
        description="Cycle structures of Redei permutations over the "
        "projective line of a finite field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, chi_required=True):
        p.add_argument("--q", type=int, help="field size (odd prime power)")
        p.add_argument("--p", type=int, help="characteristic, with --k")
        p.add_argument("--k", type=int, help="extension degree, with --p")
        p.add_argument(
            "--chi",
            type=int,
            choices=(-1, 1),
            required=chi_required,
            help="quadratic character of the map parameter",
        )
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )

    p_structure = sub.add_parser("structure", help="cycle structure of one index")
    add_common(p_structure)
    p_structure.add_argument("--m", type=int, required=True, help="permutation index")
    p_structure.add_argument(
        "--verify", action="store_true", help="cross-check against the explicit table"
    )
    p_structure.add_argument(
        "--a", help="explicit parameter element (colon-separated residues)"
    )
    p_structure.set_defaults(func=cmd_structure)

    p_classes = sub.add_parser("classes", help="all indices grouped by structure")
    add_common(p_classes)
    p_classes.set_defaults(func=cmd_classes)

    p_pairs = sub.add_parser("pairs", help="same-structure pairs (1 < m < n)")
    add_common(p_pairs)
    p_pairs.set_defaults(func=cmd_pairs)

    p_isolated = sub.add_parser("isolated", help="indices with a unique structure")
    add_common(p_isolated)
    p_isolated.set_defaults(func=cmd_isolated)

    p_family = sub.add_parser("family", help="closed-form same-structure families")
    p_family.add_argument(
        "family", choices=("frobenius", "p-qmp1", "quarter", "pm2")
    )
    add_common(p_family, chi_required=False)
    p_family.add_argument("--l1", type=int, help="first power exponent (frobenius)")
    p_family.add_argument("--l2", type=int, help="second power exponent (frobenius)")
    p_family.add_argument("--twok", type=int, help="even exponent for p-qmp1")
    p_family.add_argument(
        "--verify", action="store_true", help="cross-check against the closed form"
    )
    p_family.set_defaults(func=cmd_family)

    p_verify = sub.add_parser("verify", help="run the exhaustive property sweeps")
    p_verify.add_argument("--qmax", type=int, default=400)
    p_verify.add_argument("--workers", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FactorizationError as exc:
        return _fail(str(exc), EXIT_INVALID)


if __name__ == "__main__":
    raise SystemExit(main())
