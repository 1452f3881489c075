"""Outside-in layer tracing for the benchmark.

The tracer replaces each public function of the eqlarge modules with a
timing wrapper, in every module namespace that holds it by name (``from .x
import f`` copies the reference, so patching the defining module alone
misses most callers).  Every wrapped call becomes a span with its parent
span and the benchmark item it ran under; a span's self time is its
duration minus the time of its child spans.

The ``words`` layer is the exception.  Its evaluator runs millions of times
per pass, so calls into it are folded into counters and into the calling
span instead of being stored one by one, and its own namespace is left
alone: a recursive ``evaluate`` counts once, at its outermost call.

This is a stand-in.  It sees only calls that go through a module attribute,
and it adds a wrapper call to each of them; the overhead shows as
``trace.overhead_frac``.  Counters and spans inside the program are meant
to replace it.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import time
import types
import weakref

LAYERS = ("catalog", "group", "words", "probability", "largeness",
          "linearize", "verifier", "cli")
LEAF_LAYERS = ("words",)

# groups of functions whose self time or call count is reported together
DECIDE = ("largeness.is_k_large", "largeness.is_k_generic")
COVER = ("largeness.cover_number", "largeness.genericity_number",
         "largeness.largeness_number", "largeness.largeness_report",
         "largeness.restrict_largeness")
SEARCHED = DECIDE + ("largeness.cover_number",)
AUTOMORPHISM = ("group.automorphism_group", "group.inner_automorphisms",
                "group.trivial_action")
PRODUCTS = ("group.power", "group.direct_product")
ENUMERATIONS = ("probability.solution_set",
                "probability.solution_sets_by_value")
REWRITES = ("linearize.linearize", "linearize.linearize_product")


def _modules():
    return {layer: importlib.import_module(f"eqlarge.{layer}")
            for layer in LAYERS}


def public_functions(module):
    """Module-level functions a module defines and does not mark private."""
    return {name: obj for name, obj in vars(module).items()
            if isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []      # (id, parent, item, name, start, end, child, leaf)
        self.stack = []      # open spans: [id, child_ns, leaf_ns]
        self.item = None
        self.leaf = {}       # name -> [calls, ns, units]
        self.counts = {}     # name -> summed probe value
        self._patched = []   # (namespace, attribute, original)
        self._tables = weakref.WeakKeyDictionary()
        self._ids = itertools.count()

    # --- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, probe=None):
        stack = self.stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            entry = [next(ids), 0, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((entry[0], parent, self.item, name, start, end,
                              entry[1], entry[2]))
            if probe is not None:
                self._count(name, probe(args, kwargs, result))
            return result

        return traced

    def _leaf_wrapper(self, fn, name, probe=None):
        stats = self.leaf.setdefault(name, [0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stats[0] += 1
                stats[1] += dt
                if probe is not None:
                    stats[2] += probe(args, kwargs, None)
                if stack:
                    stack[-1][1] += dt
                    stack[-1][2] += dt

        return traced

    def _count(self, name, value):
        if value:
            self.counts[name] = self.counts.get(name, 0) + value

    # --- probes: work sizes read from arguments and results -----------------

    def _probes(self):
        def space_order(args, kwargs, result):
            return args[0].order

        def new_power(args, kwargs, result):
            seen = self._tables.setdefault(args[0], set())
            n = args[1] if len(args) > 1 else kwargs["n"]
            if n < 2 or n in seen:
                return 0
            seen.add(n)
            return 1

        def one(args, kwargs, result):
            return 1

        def assignments(args, kwargs, result):
            if isinstance(result, dict):
                return sum(s.count for s in result.values())
            return args[0].order ** result.arity

        def factors(args, kwargs, result):
            phi = result[0] if isinstance(result, tuple) else result
            return len(phi)

        def product_factors(args, kwargs, result):
            return len(args[1])

        probes = {name: space_order for name in SEARCHED}
        probes.update({
            "group.power": new_power,
            "group.direct_product": one,
            "probability.solution_set": assignments,
            "probability.solution_sets_by_value": assignments,
            "linearize.linearize": factors,
            "linearize.linearize_product": factors,
            "words.evaluate_product": product_factors,
        })
        return probes

    # --- install / uninstall ------------------------------------------------

    def install(self):
        modules = _modules()
        namespaces = [importlib.import_module("eqlarge"), *modules.values()]
        probes = self._probes()
        for layer, module in modules.items():
            leaf = layer in LEAF_LAYERS
            for fname, fn in public_functions(module).items():
                name = f"{layer}.{fname}"
                if leaf:
                    wrapper = self._leaf_wrapper(fn, name, probes.get(name))
                else:
                    wrapper = self._span_wrapper(fn, name, probes.get(name))
                for ns in namespaces:
                    if leaf and ns is module:
                        continue
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        verifier = modules["verifier"]
        for cid, spec in list(verifier.CHECKS.items()):
            run = self._span_wrapper(spec.run, f"verifier.check.{cid}")
            self._patched.append((verifier.CHECKS, cid, spec))
            verifier.CHECKS[cid] = dataclasses.replace(spec, run=run)

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            if isinstance(ns, dict):
                ns[attr] = value
            else:
                setattr(ns, attr, value)
        self._patched.clear()

    # --- results ------------------------------------------------------------

    def self_seconds(self):
        """Self seconds per function name, leaf layers included."""
        out = {}
        for _, _, _, name, start, end, child, _ in self.spans:
            out[name] = out.get(name, 0) + (end - start - child)
        for name, (_, ns, _) in self.leaf.items():
            out[name] = out.get(name, 0) + ns
        return {name: ns / 1e9 for name, ns in out.items()}

    def inclusive_seconds(self):
        out = {}
        for _, _, _, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0) + (end - start)
        return {name: ns / 1e9 for name, ns in out.items()}

    def calls(self):
        out = {}
        for span in self.spans:
            out[span[3]] = out.get(span[3], 0) + 1
        for name, (n, _, _) in self.leaf.items():
            out[name] = out.get(name, 0) + n
        return out

    def write(self, path):
        """Spans as tab-separated lines, then one line per leaf counter."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span\tid\tparent\titem\tname\tstart_ns\tend_ns"
                     "\tchild_ns\tleaf_ns\n")
            for span in self.spans:
                fh.write("span\t" + "\t".join(map(str, span)) + "\n")
            fh.write("# leaf\tname\tcalls\tns\tunits\n")
            for name, (n, ns, units) in sorted(self.leaf.items()):
                fh.write(f"leaf\t{name}\t{n}\t{ns}\t{units}\n")


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(tracer, check_ids):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    selfs = tracer.self_seconds()
    incl = tracer.inclusive_seconds()
    calls = tracer.calls()
    counts = tracer.counts
    leaf = tracer.leaf

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    def layer_self(layer):
        return sum(s for n, s in selfs.items() if layer_of(n) == layer)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    searched = total(calls, SEARCHED)
    group_names = [n for n in selfs if layer_of(n) == "group"]
    structure = [n for n in group_names
                 if n not in AUTOMORPHISM and n not in PRODUCTS]
    evaluate_calls = leaf.get("words.evaluate", [0, 0, 0])[0]
    product_calls, _, product_factors = leaf.get(
        "words.evaluate_product", [0, 0, 0])
    words_s = layer_self("words")
    assignments = total(counts, ENUMERATIONS)
    probability_s = layer_self("probability")
    checks = ("linearize.check_factor_condition",
              "linearize.linearization_identity_holds",
              "linearize.product_identity_holds")

    m = {
        "largeness.decide_calls": total(calls, DECIDE),
        "largeness.decide_self_s": total(selfs, DECIDE),
        "largeness.cover_calls": calls.get("largeness.cover_number", 0),
        "largeness.cover_self_s": total(selfs, COVER),
        "largeness.space_order_mean": rate(total(counts, SEARCHED), searched),
        "largeness.self_s": layer_self("largeness"),
        "group.tables_built": total(counts, PRODUCTS),
        "group.power_self_s": selfs.get("group.power", 0.0),
        "group.direct_product_self_s": selfs.get("group.direct_product", 0.0),
        "group.automorphism_self_s": total(selfs, AUTOMORPHISM),
        "group.structure_self_s": total(selfs, structure),
        "group.self_s": layer_self("group"),
        "words.evaluate_calls": evaluate_calls,
        "words.evaluate_product_calls": product_calls,
        "words.self_s": words_s,
        "words.evals_per_s": rate(evaluate_calls + product_factors, words_s),
        "probability.calls": total(calls, ENUMERATIONS),
        "probability.assignments": assignments,
        "probability.self_s": probability_s,
        "probability.assignments_per_s": rate(assignments, probability_s),
        "linearize.calls": total(calls, REWRITES),
        "linearize.factors": total(counts, REWRITES),
        "linearize.rewrite_self_s": total(selfs, REWRITES),
        "linearize.check_self_s": total(selfs, checks),
        "linearize.self_s": layer_self("linearize"),
        "verifier.self_s": layer_self("verifier"),
        "catalog.self_s": layer_self("catalog"),
        "cli.self_s": layer_self("cli"),
    }
    for cid in check_ids:
        m[f"verifier.check_s.{cid}"] = incl.get(f"verifier.check.{cid}", 0.0)
    return m


def layer_shares(tracer):
    """Self seconds per layer, for the dominant-layer statement."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, s in tracer.self_seconds().items():
        out[layer_of(name)] += s
    return out
