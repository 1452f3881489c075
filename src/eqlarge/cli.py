"""Command line front end.

Exit codes: 0 success, 1 a verification failure or a found witness, 2 bad
usage or unparseable input, 3 a declined computation (size or budget caps).
Timings go to stderr so identical runs give byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice

from . import verifier
from .catalog import catalog, parse_group_list
from .errors import (
    BudgetExceeded,
    EqlargeError,
    IndexBound,
    OrderBound,
    ParseError,
    UnknownCheck,
)
from .group import (
    ProductGroup,
    Subset,
    automorphism_group,
    center,
    class_count,
    derived_subgroup,
    exponent,
    inner_automorphisms,
    is_2_engel,
    is_abelian,
    max_centralizer_index,
    nilpotency_class,
    trivial_action,
)
from .largeness import INFINITE, NODE_CAP, UNBOUNDED, cover_number
from .probability import (
    autocommutativity_degree,
    commuting_probability,
    equation_largeness,
    probability,
    solution_set,
)
from .words import Const, parse_equation, parse_word, resolve_constant

__all__ = ["main"]

BUDGET_ERRORS = (OrderBound, IndexBound, BudgetExceeded)


def _node_cap(text):
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(
            f"the node cap (--budget-nodes) must be a positive integer, "
            f"got {text!r}")
    return cap


def _fraction_text(fr):
    return f"{fr.numerator}/{fr.denominator} (~{float(fr):.6g})"


def _invariant_json(v):
    if v is UNBOUNDED:
        return "unbounded"
    if v is INFINITE:
        return "infinite"
    return v


def _is_constant_name(name):
    """Whether the word grammar reads name, all of it, as a symbolic
    constant: an identifier other than x1, x2, ..."""
    try:
        word = parse_word(name)
    except ParseError:
        return False
    return word == Const(name) and not name.startswith("#")


def _parse_consts(G, pairs):
    """NAME=VALUE bindings, each value read as the literal #VALUE.  Each
    NAME is bound once, and only a name the word grammar reads as a
    constant is taken: a variable such as x1 could never use it."""
    out = {}
    for item in pairs or []:
        name, sep, val = item.partition("=")
        if not sep or not name:
            raise ParseError(f"--const needs NAME=VALUE, got {item!r}")
        if not _is_constant_name(name):
            raise ParseError(f"--const name {name!r} is not a constant: "
                             f"an identifier other than x1, x2, ...")
        if name in out:
            raise ParseError(f"--const binds {name} twice")
        out[name] = resolve_constant(G, "#" + val.removeprefix("#"))
    return out


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_info(args):
    G = catalog(args.group)
    cls = nilpotency_class(G)
    payload = {
        "label": G.label,
        "order": G.order,
        "abelian": is_abelian(G),
        "exponent": exponent(G),
        "center_size": center(G).size,
        "classes": class_count(G),
        "derived_size": derived_subgroup(G).size,
        "nilpotency_class": cls,
        "two_engel": is_2_engel(G),
        "max_centralizer_index": max_centralizer_index(G),
    }
    lines = [f"{k}: {v}" for k, v in payload.items()]
    _emit(payload, args.format, lines)
    return 0


def _cmd_solve(args):
    if args.max_solutions < 0:
        raise ParseError(f"--max-solutions must be at least 0, got "
                         f"{args.max_solutions}")
    G = catalog(args.group)
    consts = _parse_consts(G, args.const)
    eq = parse_equation(args.equation)
    sols = solution_set(G, eq, consts)
    total = G.order ** sols.arity
    shown = []
    P = ProductGroup((G,) * sols.arity)
    for idx in islice(sols.indices(), args.max_solutions):
        # a variable-free equation's one solution, index 0, prints as
        # G.name(0)
        shown.append([G.name(v) for v in P.decode(idx)] if sols.arity
                     else [G.name(idx)])
    payload = {
        "group": G.label,
        "equation": args.equation,
        "arity": sols.arity,
        "count": sols.count,
        "total": total,
        "fraction": f"{sols.fraction()}",
        "solutions": shown,
        "truncated": sols.count > len(shown),
    }
    lines = [
        f"group: {G.label}",
        f"equation: {args.equation}",
        f"solutions: {sols.count} of {total}",
        f"fraction: {_fraction_text(sols.fraction())}",
    ]
    lines += ["  " + " ".join(t) for t in shown]
    if payload["truncated"]:
        lines.append(f"  ... ({sols.count - len(shown)} more)")
    _emit(payload, args.format, lines)
    return 0


def _cmd_prob(args):
    G = catalog(args.group)
    consts = _parse_consts(G, args.const)
    if args.equation == "commuting":
        fr = commuting_probability(G)
    else:
        fr = probability(G, args.equation, consts)
    payload = {"group": G.label, "equation": args.equation,
               "probability": f"{fr}"}
    _emit(payload, args.format, [_fraction_text(fr)])
    return 0


def _certificate_json(translators):
    if translators is None:
        return None
    return {"translators": list(translators), "covered": True}


def _cmd_largeness(args):
    G = catalog(args.group)
    consts = _parse_consts(G, args.const)
    t0 = time.perf_counter()
    report = equation_largeness(G, args.equation, consts, args.budget_nodes)
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    payload = {
        "group": G.label,
        "equation": args.equation,
        "space": report.group_label,
        "space_order": report.group_order,
        "solution_count": report.subset_size,
        "genericity_number": _invariant_json(report.genericity_number),
        "largeness_number": _invariant_json(report.largeness_number),
        "genericity_certificate": _certificate_json(
            report.genericity_certificate),
        "largeness_certificate": _certificate_json(
            report.largeness_certificate),
    }
    lines = [
        f"group: {G.label}",
        f"equation: {args.equation}",
        f"solutions: {report.subset_size} of {report.group_order}"
        f" in {report.group_label}",
        f"genericity_number: {_invariant_json(report.genericity_number)}",
        f"largeness_number: {_invariant_json(report.largeness_number)}",
    ]
    if report.genericity_certificate:
        lines.append("cover translators: "
                     + " ".join(map(str, report.genericity_certificate)))
    _emit(payload, args.format, lines)
    return 0


def _load_subset(args, G):
    raw = args.subset
    if raw.startswith("solutions:"):
        X = solution_set(G, raw[len("solutions:"):],
                         _parse_consts(G, args.const)).as_subset()
        return X.parent, X
    try:
        obj = json.loads(raw)
    except ValueError:
        raise ParseError(f"--subset is neither JSON nor solutions:<eq>: "
                         f"{raw!r}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("elements"),
                                                   list):
        raise ParseError('--subset JSON needs an "elements" list')
    elements = obj["elements"]
    if any(type(e) is not int for e in elements):
        raise ParseError('--subset "elements" must be integer element '
                         'indices')
    if "group" in obj:
        if not isinstance(obj["group"], str):
            raise ParseError('--subset "group" must be a group spec string')
        G = catalog(obj["group"])
    try:
        return G, Subset.from_indices(G, elements)
    except IndexError as exc:
        raise ParseError(str(exc)) from None


def _cmd_cover(args):
    G = catalog(args.group)
    space, X = _load_subset(args, G)
    t0 = time.perf_counter()
    k, translators = cover_number(space, X, args.budget_nodes)
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    payload = {
        "group": space.label,
        "subset_size": X.size,
        "cover_number": k,
        "translators": list(translators),
    }
    lines = [
        str(k),
        "translators: " + " ".join(map(str, translators)),
    ]
    _emit(payload, args.format, lines)
    return 0


def _cmd_verify(args):
    groups = parse_group_list(args.groups)
    check_ids = None
    if args.checks is not None:
        check_ids = [c for c in map(str.strip, args.checks.split(",")) if c]
        if not check_ids:
            raise UnknownCheck(f"--checks {args.checks!r} names no check")
        for cid in check_ids:
            if cid not in verifier.CHECKS:
                raise UnknownCheck(f"no check named {cid!r}")
    t0 = time.perf_counter()
    results = verifier.run_suite(groups, check_ids, args.seed)
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    summary = verifier.suite_summary(results)
    rows = [verifier.result_to_dict(r) for r in results]
    if args.format == "json":
        print(json.dumps({"results": rows, "summary": summary},
                         sort_keys=True, indent=2))
    elif args.format == "csv":
        print("check,group,passed,vacuous,margin")
        for r in rows:
            margin = "" if r["margin"] is None else r["margin"]
            print(f"{r['check']},{r['group']},{r['passed']},"
                  f"{r['vacuous']},{margin}")
    else:
        for r in rows:
            state = "pass" if r["passed"] else "FAIL"
            extra = " vacuous" if r["vacuous"] else ""
            margin = "" if r["margin"] is None else f" margin={r['margin']}"
            print(f"{r['check']:24s} {r['group']:12s} {state}{extra}{margin}")
        print(f"total {summary['total']}, passed {summary['passed']}, "
              f"failed {summary['failed']}, vacuous {summary['vacuous']}")
    return 1 if summary["failed"] else 0


def _cmd_search(args):
    groups = parse_group_list(args.groups)
    witness = verifier.run_search(args.question, groups)
    if witness is None:
        _emit({"question": args.question, "witness": None}, args.format,
              [f"{args.question}: no witness found"])
        return 0
    _emit({"question": args.question, "witness": witness}, args.format,
          [f"{args.question}: WITNESS {json.dumps(witness, sort_keys=True)}"])
    return 1


def _cmd_ac(args):
    G = catalog(args.group)
    if args.sigma == "trivial":
        pair = trivial_action(G)
    elif args.sigma == "inner":
        pair = inner_automorphisms(G)
    else:
        pair = automorphism_group(G)
    report = autocommutativity_degree(G, Subset.full(G), pair)
    payload = {
        "group": G.label,
        "sigma": args.sigma,
        "sigma_order": report.sigma_order,
        "degree": f"{report.degree}",
        "fixed_pairs": report.fixed_pairs.size,
        "pair_space": report.sigma_order * G.order,
    }
    lines = [
        f"group: {G.label}",
        f"acting: {args.sigma} ({report.sigma_order} maps)",
        f"fixed pairs: {report.fixed_pairs.size} of "
        f"{report.sigma_order * G.order}",
        f"degree: {_fraction_text(report.degree)}",
    ]
    _emit(payload, args.format, lines)
    return 0


def _cmd_catalog(args):
    groups = parse_group_list(args.groups)
    payload = [{"label": G.label, "order": G.order} for G in groups]
    lines = [f"{G.label:12s} {G.order}" for G in groups]
    _emit(payload, args.format, lines)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="eqlarge",
        description="Equation solution sets in finite groups: fractions, "
                    "translate covers, and theorem-level checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, const=False, budget=False):
        sp.add_argument("--format", choices=["text", "json"],
                        default="text")
        if const:
            sp.add_argument("--const", action="append", metavar="NAME=VAL",
                            help="bind a symbolic constant to an element, "
                                 "VAL read as the literal #VAL (an index or "
                                 "a name); repeatable")
        if budget:
            sp.add_argument("--budget-nodes", type=_node_cap,
                            default=NODE_CAP,
                            help="node cap of each cover decision's "
                                 "search; a least cover asks one decision "
                                 "per k (default %(default)s)")

    sp = sub.add_parser("info", help="invariants of one group")
    sp.add_argument("group")
    common(sp)
    sp.set_defaults(fn=_cmd_info)

    sp = sub.add_parser("solve", help="enumerate solutions of an equation")
    sp.add_argument("group")
    sp.add_argument("equation")
    sp.add_argument("--max-solutions", type=int, default=24)
    common(sp, const=True)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("prob", help="fraction of satisfying assignments")
    sp.add_argument("group")
    sp.add_argument("equation",
                    help="an equation, or the word 'commuting'")
    common(sp, const=True)
    sp.set_defaults(fn=_cmd_prob)

    sp = sub.add_parser("largeness",
                        help="translate-cover invariants of a solution set")
    sp.add_argument("group")
    sp.add_argument("equation")
    common(sp, const=True, budget=True)
    sp.set_defaults(fn=_cmd_largeness)

    sp = sub.add_parser("cover", help="minimum translate cover of a subset")
    sp.add_argument("group")
    sp.add_argument("--subset", required=True,
                    help='\'{"elements":[...]}\' '
                         '(optionally with "group") or solutions:<equation>')
    common(sp, const=True, budget=True)
    sp.set_defaults(fn=_cmd_cover)

    sp = sub.add_parser("verify", help="run the fact checks")
    sp.add_argument("--groups", default="catalog<=16")
    sp.add_argument("--checks", default=None,
                    help="comma-separated check ids (default: all)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=["text", "json", "csv"],
                    default="text")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("search", help="hunt for open-question witnesses")
    sp.add_argument("question", help=", ".join(sorted(verifier.QUESTIONS)))
    sp.add_argument("--groups", default="catalog<=24")
    common(sp)
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("ac", help="fixed-pair fraction under automorphisms")
    sp.add_argument("group")
    sp.add_argument("--sigma", choices=["trivial", "inner", "full"],
                    default="inner")
    common(sp)
    sp.set_defaults(fn=_cmd_ac)

    sp = sub.add_parser("catalog", help="list the groups a spec expands to")
    sp.add_argument("groups", nargs="?", default="catalog<=24")
    common(sp)
    sp.set_defaults(fn=_cmd_catalog)

    return p


def _main(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BUDGET_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EqlargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    try:
        code = _main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (eqlarge solve ... | head -1): that is a
        # success, and stdout now points at devnull so the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
