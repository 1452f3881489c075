#!/usr/bin/env python3
"""Run every theorem check over a catalog slice and summarise the outcome.

Writes one line per (check, group) pair, then a totals block.  With
--json the raw results also go to a file, sorted and indented, so two
runs on the same slice can be diffed byte for byte.
"""
import argparse
import json
import sys
import time

from eqlarge.catalog import catalog_upto
from eqlarge.verifier import CHECKS, result_to_dict, run_suite, suite_summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=16,
                    help="largest group order to include (default 16)")
    ap.add_argument("--checks", default=None,
                    help="comma-separated check ids (default: all)")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also dump results as JSON to PATH")
    ap.add_argument("--failures-only", action="store_true",
                    help="print only failing pairs")
    args = ap.parse_args(argv)

    check_ids = args.checks.split(",") if args.checks else None
    groups = catalog_upto(args.max_order)

    start = time.monotonic()
    results = run_suite(groups, check_ids=check_ids)
    elapsed = time.monotonic() - start

    for r in results:
        if args.failures_only and r.passed:
            continue
        status = "pass" if r.passed else "FAIL"
        if r.vacuous:
            status = "vac "
        margin = "" if r.margin is None else f"  margin {r.margin}"
        print(f"{status}  {r.check_id:<18} {r.group_label:<6}{margin}")

    summary = suite_summary(results)
    print(f"\n{len(groups)} groups, {len(check_ids or CHECKS)} checks, "
          f"{len(results)} pairs in {elapsed:.2f}s")
    print(f"passed {summary['passed']}  vacuous {summary['vacuous']}  "
          f"failed {summary['failed']}")
    if summary["failed"]:
        for item in summary["failures"]:
            print(f"  failure: {item}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump([result_to_dict(r) for r in results], fh,
                      sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
