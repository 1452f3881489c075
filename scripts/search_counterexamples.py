#!/usr/bin/env python3
"""Sweep the open-question searches over small groups and report witnesses.

Each hit carries the library's own verdict on it: run_search re-verifies a
witness through an independent code path and reports the outcome as
"reverified".  Exits 1 if any witness survives, 0 on a clean sweep.
"""
import argparse
import json
import sys
import time

from eqlarge.catalog import catalog_upto
from eqlarge.verifier import QUESTIONS, run_search


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=24,
                    help="largest group order to include (default 24)")
    ap.add_argument("--questions", default=None,
                    help="comma-separated question ids (default: all)")
    args = ap.parse_args(argv)

    question_ids = (args.questions.split(",") if args.questions
                    else sorted(QUESTIONS))
    groups = catalog_upto(args.max_order)

    findings = []
    for qid in question_ids:
        start = time.monotonic()
        hit = run_search(qid, groups)
        elapsed = time.monotonic() - start
        if hit is None:
            print(f"{qid}: no witness up to order {args.max_order} "
                  f"({elapsed:.2f}s)")
            continue
        stands = hit["reverified"]
        print(f"{qid}: WITNESS {json.dumps(hit, sort_keys=True)} "
              f"recheck={'ok' if stands else 'FAILED'} ({elapsed:.2f}s)")
        if stands:
            findings.append(hit)
        else:
            print(f"{qid}: witness did not survive the recheck, "
                  "treat as a bug in the search", file=sys.stderr)
            return 2

    if findings:
        print(f"\n{len(findings)} witness(es); the corresponding questions "
              "have a negative answer on this slice")
        return 1
    print("\nclean sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
