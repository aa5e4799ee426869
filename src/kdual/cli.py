"""Command-line front end.

Subcommands:

    kdual ring eval --ring NAME EXPR        evaluate a ring expression
    kdual ring slice --ring NAME --degree N --variant eq|pm
    kdual oracle verify --torus N           relation + injectivity checks
    kdual transform t --power K             iterated duality transform
    kdual cohomology z2-group --twist M --degree N
    kdual tdual enumerate --base circle-trivial|point
    kdual tdual k-groups --base circle-trivial
    kdual verify SUITE                      tables|oracle|transform|tdual|all

Generator names on the command line: t12 is the degree-(1, pm) torsion
class whose square is the Borel class t; chi, chi1, chi2 are the circle
classes; sigma the point class; e, c, chat the base classes; ell = 1 - L
in the degree-zero circle ring.  Oracle expressions use C0, C1, L, L1,
L2, L3, H, H12, H23, H13.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parse error, or golden data that is missing, lacks a field or a row,
holds a field of the wrong type, or fails certification.  Set
KDUAL_GOLDEN_DIR to point at an alternative directory holding tables.json.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import suites, tduality, transforms
from .expressions import ParseError, parse_expression
from .graded_algebra import EQ, PM, Degree, UnknownGeneratorError, degree_component
from .paper_rings import RING_NAMES, CertificationError, build_ring, verify_f_injective

USAGE_ERROR = 2


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(payload["text"])


def cmd_ring_eval(args):
    ring = build_ring(args.ring)
    element = parse_expression(ring, args.expression)
    payload = {"ring": ring.name, "input": args.expression,
               "value": str(element), "element": element.to_json(),
               "text": str(element)}
    _emit(payload, args.format)
    return 0


def cmd_ring_slice(args):
    ring = build_ring(args.ring)
    variant = EQ if args.variant == "eq" else PM
    slice_ = degree_component(ring, Degree(args.degree, variant))
    basis = [{"monomial": label, "order": order}
             for label, order in zip(slice_.labels, slice_.orders)]
    text = f"{ring.name} degree ({args.degree}, {variant}): {slice_.group}"
    if basis:
        text += "  basis: " + ", ".join(
            f"{b['monomial']}" + (f" (order {b['order']})" if b["order"] else "")
            for b in basis)
    payload = {"ring": ring.name, "degree": args.degree, "variant": variant,
               "group": slice_.group.to_json(), "basis": basis, "text": text}
    _emit(payload, args.format)
    return 0


def cmd_oracle_verify(args):
    if args.torus not in (1, 2, 3):
        print("the oracle covers the torus in dimensions 1, 2 and 3", file=sys.stderr)
        return USAGE_ERROR
    relations = [(id_, n, lhs, rhs) for id_, n, lhs, rhs in suites.ORACLE_RELATIONS
                 if n == args.torus]
    checks = []
    from .paper_rings import verify_relation_via_oracle
    for id_, n, lhs, rhs in relations:
        checks.append({"id": id_, "ok": verify_relation_via_oracle(n, lhs, rhs)})
    checks.append({"id": f"injectivity-{args.torus}",
                   "ok": verify_f_injective(args.torus)})
    ok = all(c["ok"] for c in checks)
    text = "\n".join(f"[{'pass' if c['ok'] else 'fail'}] {c['id']}" for c in checks)
    _emit({"torus": args.torus, "checks": checks, "text": text}, args.format)
    return 0 if ok else 1


def cmd_transform_t(args):
    try:
        table = transforms.t_power_table(args.power)
    except ValueError as err:
        print(err, file=sys.stderr)
        return USAGE_ERROR
    rows = [{"basis": label, "image": str(table[label])}
            for label in transforms.T_BASIS_LABELS]
    text = "\n".join(f"T^{args.power}({r['basis']}) = {r['image']}" for r in rows)
    _emit({"power": args.power, "values": rows, "text": text}, args.format)
    return 0


def cmd_cohomology_z2(args):
    group = transforms.group_cohomology_z2(args.twist, args.degree)
    payload = {"twist": args.twist, "degree": args.degree,
               "group": group.to_json(), "text": str(group)}
    _emit(payload, args.format)
    return 0


def cmd_tdual_enumerate(args):
    base = args.base.replace("-", "_")
    report = tduality.dual_pair_report(base)
    text = "\n".join(f"{line['pair']} <-> {line['dual']}"
                     for line in report["relations"])
    _emit({**report, "text": text}, args.format)
    return 0


def cmd_tdual_kgroups(args):
    base = args.base.replace("-", "_")
    rows = [tduality.twisted_k_mv(cls.representative).to_json()
            for cls in tduality.enumerate_pair_classes(base)]
    text_lines = []
    for row in rows:
        text_lines.append(row["pair"])
        for g in row["groups"]:
            text_lines.append(
                f"  K^(h+{g['degree']})[{g['side']}] = {g['modules']}  ({g['status']})")
    _emit({"base": base, "tables": rows, "text": "\n".join(text_lines)}, args.format)
    return 0


def cmd_verify(args):
    report = suites.run_suite(args.suite)
    payload = report.to_json()
    payload["text"] = report.to_text()
    _emit(payload, args.format)
    return report.exit_code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kdual",
        description="exact computations in involutive equivariant cohomology "
                    "and K-theory, with T-duality for Real circle bundles")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="evaluate in and inspect the built-in rings")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    ev = ring_sub.add_parser("eval", help="normalize a ring expression")
    ev.add_argument("--ring", required=True, choices=RING_NAMES)
    ev.add_argument("expression")
    ev.set_defaults(func=cmd_ring_eval)
    sl = ring_sub.add_parser("slice", help="monomial basis of one degree")
    sl.add_argument("--ring", required=True, choices=RING_NAMES)
    sl.add_argument("--degree", type=int, required=True)
    sl.add_argument("--variant", choices=("eq", "pm"), required=True)
    sl.set_defaults(func=cmd_ring_slice)

    oracle = sub.add_parser("oracle", help="fixed-point restriction tables")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    ov = oracle_sub.add_parser("verify", help="check the recorded ring relations")
    ov.add_argument("--torus", type=int, required=True)
    ov.set_defaults(func=cmd_oracle_verify)

    transform = sub.add_parser("transform", help="the duality transform")
    transform_sub = transform.add_subparsers(dest="transform_command", required=True)
    tt = transform_sub.add_parser("t", help="iterate the transform on the module basis")
    tt.add_argument("--power", type=int, default=1)
    tt.set_defaults(func=cmd_transform_t)

    cohomology = sub.add_parser("cohomology", help="group cohomology helpers")
    cohomology_sub = cohomology.add_subparsers(dest="cohomology_command", required=True)
    zg = cohomology_sub.add_parser("z2-group",
                                   help="cohomology of the order-2 group from its periodic resolution")
    zg.add_argument("--twist", type=int, choices=(0, 1), required=True)
    zg.add_argument("--degree", type=int, required=True)
    zg.set_defaults(func=cmd_cohomology_z2)

    tdual = sub.add_parser("tdual", help="duality of pairs over the built-in bases")
    tdual_sub = tdual.add_subparsers(dest="tdual_command", required=True)
    en = tdual_sub.add_parser("enumerate", help="all duality relations over a base")
    en.add_argument("--base", choices=("point", "circle-trivial"), required=True)
    en.set_defaults(func=cmd_tdual_enumerate)
    kg = tdual_sub.add_parser("k-groups", help="twisted K-tables of every class")
    kg.add_argument("--base", choices=("circle-trivial",), required=True)
    kg.set_defaults(func=cmd_tdual_kgroups)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=suites.SUITE_NAMES)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; re-raise as is
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (UnknownGeneratorError, ValueError, CertificationError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
