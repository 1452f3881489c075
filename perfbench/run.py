#!/usr/bin/env python3
"""Benchmark for eqlarge, driven from outside through its public entry points.

    python3 perfbench/run.py --workload verify16 --seed 3 --seconds 60 --trace 0

One process, one thread, a closed loop with one client: the next item
starts when the previous one returns.  A pass runs every item of the
workload once, on groups built anew for that pass; passes repeat until the
next one would end past ``--seconds`` (at least one always runs).

Workloads (see perfbench/README.md for why each exists):

* ``verify16``: ``eqlarge verify --groups 'catalog<=16' --format json``;
  one item is a (check, group) pair, 870 per pass.
* ``linearize``: the criterion-7 sweep, ``linearize`` plus the factor check
  per shape and ``linearization_identity_holds(samples=100, seed=S)`` on S3,
  D4, Q8 and H3; one item is a (shape, group) identity check, 444 per pass.

Every item's output is hashed and compared with perfbench/refs.json,
recorded from the program by perfbench/record_refs.py.  An item fails on a
mismatch, an exception or an unexpected exit code.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics of perfbench/tracing.py.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and a record of the run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFS = HERE / "refs.json"

SETUP_REPS = 7
# verify16 maps the benchmark seed onto the verify seeds refs.json covers
VERIFY_SEEDS = 16

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


# --- hashing ----------------------------------------------------------------


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def short_sha(text):
    return sha(text)[:16]


def cli_digest(code, stdout):
    """Hash of one CLI invocation: its exit code and its stdout bytes."""
    return sha(f"{code}\n{stdout}")


def row_digest(row):
    return short_sha(json.dumps(row, sort_keys=True))


# --- driving the program ------------------------------------------------------


def eq(module):
    return importlib.import_module(f"eqlarge.{module}")


def run_cli(argv):
    """``eqlarge ARGV`` in-process: (exit code, captured stdout)."""
    cli = eq("cli")
    out = io.StringIO()
    saved = sys.argv
    sys.argv = ["eqlarge", *argv]
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main()
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        sys.argv = saved
    return code, out.getvalue()


def error_digest(exc):
    traceback.print_exception(exc, file=sys.stderr)
    return f"error:{type(exc).__name__}"


@dataclasses.dataclass
class Item:
    key: str
    digest: str
    seconds: float | None


@dataclasses.dataclass
class Pass:
    items: list
    digest: str | None = None     # whole-output hash, where there is one
    wall: float = 0.0
    cpu: float = 0.0


class ItemClock:
    """Times items and tells a tracer which item its spans belong to."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def begin(self, key):
        if self.tracer is not None:
            self.tracer.item = key
        return time.perf_counter()


# --- workloads ----------------------------------------------------------------


class Verify:
    """``eqlarge verify --format json``; items are the (check, group) rows."""

    def __init__(self, name, groups):
        self.name = name
        self.groups = groups

    def build_groups(self):
        eq("catalog").parse_group_list(self.groups)

    def argv(self, seed):
        return ["verify", "--groups", self.groups, "--format", "json",
                "--seed", str(seed % VERIFY_SEEDS)]

    def run_pass(self, seed, clock):
        verifier = eq("verifier")
        times = {}
        originals = dict(verifier.CHECKS)

        def timed(cid, run):
            def check(G):
                t0 = clock.begin(f"{cid}/{G.label}")
                try:
                    return run(G)
                finally:
                    times[cid, G.label] = time.perf_counter() - t0
            return check

        for cid, spec in originals.items():
            verifier.CHECKS[cid] = dataclasses.replace(
                spec, run=timed(cid, spec.run))
        try:
            code, stdout = run_cli(self.argv(seed))
        except Exception as exc:  # every row of the pass fails the gate
            code, stdout = error_digest(exc), ""
        finally:
            verifier.CHECKS.update(originals)
        rows = json.loads(stdout)["results"] if code in (0, 1) else []
        items = [Item(f"{r['check']}/{r['group']}", row_digest(r),
                      times.get((r["check"], r["group"])))
                 for r in rows]
        return Pass(items, cli_digest(code, stdout))

    def expected(self, refs, seed):
        ref = refs[self.name]
        per_seed = ref["seeds"][str(seed % VERIFY_SEEDS)]
        return {**ref["rows"], **per_seed["rows"]}, per_seed["stdout"]

    @staticmethod
    def record(code, stdout, base=None):
        """refs.json entries for one verify output, rows relative to base."""
        rows = {f"{r['check']}/{r['group']}": row_digest(r)
                for r in json.loads(stdout)["results"]}
        if base is None:
            return rows, {"stdout": cli_digest(code, stdout), "rows": {}}
        changed = {k: v for k, v in rows.items() if base.get(k) != v}
        return base, {"stdout": cli_digest(code, stdout), "rows": changed}


class Linearize:
    """The criterion-7 sweep; items are (shape, group) identity checks."""

    def __init__(self, name, labels, shapes=None):
        self.name = name
        self.labels = labels
        self.shapes = shapes            # None: every sweep shape

    def build_groups(self):
        catalog = eq("catalog")
        for label in self.labels:
            catalog.catalog(label)

    def run_pass(self, seed, clock):
        lin, words, catalog = eq("linearize"), eq("words"), eq("catalog")
        groups = [catalog.catalog(label) for label in self.labels]
        shapes = lin.enumerate_sweep_shapes()[:self.shapes]
        items = []
        for text, word, xbar, ybar in shapes:
            shape = f"{text} {list(xbar)}"
            try:
                phi = lin.linearize(word, xbar, ybar)
                cond = all(lin.check_factor_condition(f, word, xbar, ybar)
                           for f in phi)
                head = "\n".join(map(words.to_text, phi)) + f"\n{cond}"
            except Exception as exc:
                phi, head = None, error_digest(exc)
            for G in groups:
                key = f"{shape}@{G.label}"
                t0 = clock.begin(key)
                if phi is None:
                    items.append(Item(key, head, None))
                    continue
                try:
                    ok = lin.linearization_identity_holds(
                        G, word, xbar, ybar, phi, samples=100, seed=seed)
                    digest = short_sha(f"{head}\n{ok}")
                except Exception as exc:
                    digest = error_digest(exc)
                items.append(Item(key, digest, time.perf_counter() - t0))
        return Pass(items)

    def expected(self, refs, seed):
        return refs[self.name]["items"], None


WORKLOADS = {
    "verify16": Verify("verify16", "catalog<=16"),
    "linearize": Linearize("linearize", ("S3", "D4", "Q8", "H3")),
}


# --- measuring ----------------------------------------------------------------


def load_program():
    """Import eqlarge from this checkout's src/, never from elsewhere."""
    if not (SRC / "eqlarge" / "__init__.py").is_file():
        raise RuntimeError(f"no eqlarge sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("eqlarge")
    if Path(pkg.__file__).resolve().parent != SRC / "eqlarge":
        raise RuntimeError(f"eqlarge imported from {pkg.__file__}")


def setup_once(workload):
    """Seconds to import eqlarge afresh and build the workload's groups."""
    for name in [n for n in sys.modules
                 if n == "eqlarge" or n.startswith("eqlarge.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    load_program()
    eq("cli")
    workload.build_groups()
    return time.perf_counter() - t0


def one_pass(workload, seed, tracer=None):
    gc.collect()
    clock = ItemClock(tracer)
    if tracer is not None:
        tracer.install()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        result = workload.run_pass(seed, clock)
        result.wall = time.perf_counter() - w0
        result.cpu = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def gate(workload, result, refs, seed):
    """(attempted, failed) items of one pass."""
    expected, whole = workload.expected(refs, seed)
    if whole is None:
        attempted = len(result.items)
    else:
        attempted = len(expected)
        if result.digest != whole:
            return attempted, attempted
    return attempted, sum(1 for item in result.items
                          if expected.get(item.key) != item.digest)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed, seconds, trace, refs):
    """Run the workload for about ``seconds``; a report dict."""
    setups = [setup_once(workload) for _ in range(SETUP_REPS)]
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        plain.append(one_pass(workload, seed))
        if trace:
            tracer = tracing.Tracer()
            traced.append((one_pass(workload, seed, tracer), tracer))
        cycle = time.perf_counter() - t0
        if time.perf_counter() + cycle > deadline:
            break
    counts = [gate(workload, p, refs, seed)
              for p in plain + [p for p, _ in traced]]
    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)

    walls = [p.wall for p in plain]
    # a pass that produced no item timings counts as one slow item
    latencies = [i.seconds * 1e3 for p in plain for i in p.items
                 if i.seconds is not None] or [w * 1e3 for w in walls]
    items = len(plain[0].items)
    e2e = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu for p in plain),
        "items_per_s": statistics.median(len(p.items) / p.wall
                                         for p in plain),
        "item_p50_ms": statistics.median(latencies),
        "item_p95_ms": percentile(latencies, 95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }
    report = {
        "workload": workload.name, "seed": seed, "passes": len(plain),
        "items_per_pass": items, "item_samples": len(latencies),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "setup_samples": setups,
        "pass_walls": walls, "end_to_end": e2e,
    }
    if trace:
        verifier = eq("verifier")
        layers = [tracing.layer_metrics(t, list(verifier.CHECKS))
                  for _, t in traced]
        per_layer = {k: statistics.median(m[k] for m in layers)
                     for k in layers[0]}
        traced_wall = statistics.median(p.wall for p, _ in traced)
        per_layer["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1
        shares = tracing.layer_shares(traced[-1][1])
        report.update(per_layer=per_layer, layer_self_s=shares,
                      dominant=dominance(workload.name, shares))
        OUT.mkdir(exist_ok=True)
        traced[-1][1].write(OUT / f"spans-{workload.name}-{seed}.tsv")
    return report


# prototype shares: the layers expected to hold most self time
EXPECTED_DOMINANT = {
    "verify16": ["largeness"],
    "linearize": ["words"],
}


def dominance(name, shares):
    ranked = sorted(shares, key=shares.get, reverse=True)
    expected = EXPECTED_DOMINANT[name]
    top = ranked[:len(expected)]
    return {"expected": expected, "measured": top,
            "matches": sorted(top) == sorted(expected)}


def load_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def print_report(report, trace):
    e2e_spec, layer_spec = load_metrics()
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {report['passes']}  items/pass {report['items_per_pass']}"
          f"  item samples {report['item_samples']}")
    print(f"attempted {report['attempted']}  failed {report['failed']}  "
          f"fail_frac {report['fail_frac']:.6g}")
    if trace:
        spec, values = layer_spec, report["per_layer"]
        shares = report["layer_self_s"]
        total = sum(shares.values()) or 1.0
        for layer, s in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  layer {layer:12s} self {s:10.4f} s  "
                  f"{100 * s / total:5.1f}%")
        d = report["dominant"]
        print(f"dominant self-time layer(s): {', '.join(d['measured'])}; "
              f"prototype: {', '.join(d['expected'])}; "
              f"{'matches' if d['matches'] else 'DIFFERS'}")
    else:
        spec, values = e2e_spec, report["end_to_end"]
    metrics = {}
    for m in spec:
        value = values[m["name"]]
        print(f"  {m['name']:44s} {value:14.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        load_program()
        load_metrics()
        refs = json.loads(REFS.read_text())
    except (OSError, ValueError, RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    report = measure(workload, args.seed, args.seconds, bool(args.trace),
                     refs)
    OUT.mkdir(exist_ok=True)
    name = f"run-{workload.name}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2, sort_keys=True))
    print_report(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
