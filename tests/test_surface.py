"""The library exports only what its own code uses.

Every function or class a module names in __all__ must be used somewhere
in src/eqlarge: by another module, or by its own module outside its own
definition.  Imports and re-exports in __init__.py are not uses.  The few
entry points that only the criteria, the benchmark or library callers
reach are listed in ALLOWED with the caller that keeps them.
"""

import ast
from functools import cache
from pathlib import Path

import eqlarge

SRC = Path(eqlarge.__file__).resolve().parent

ALLOWED = {
    # criterion 7 and perfbench's linearize workload run the sweep
    "linearize.enumerate_sweep_shapes",
    "linearize.linearize",
    "linearize.linearization_identity_holds",
    # the product form of the splitting, exported by the package next to
    # linearize; test_linearize checks it against the definition
    "linearize.linearize_product",
    # the public evaluation API, checked against the interpreter in
    # tests/reference_eval.py
    "words.evaluate",
    "words.evaluate_product",
    "probability.solution_sets_by_value",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _names(node):
    """Every name node loads or reads as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


@cache
def unused_exports():
    trees = _trees()
    # the names each top-level statement uses, by module
    uses = {module: [(node, _names(node)) for node in tree.body]
            for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        exports = _exports(tree)
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name not in exports):
                continue
            # in its own module, only statements other than its definition
            used = any(node.name in names
                       for other in uses if other not in (module, "__init__")
                       for _, names in uses[other]) or any(
                node.name in names
                for stmt, names in uses[module] if stmt is not node)
            if not used:
                out.append(f"{module}.{node.name}")
    return tuple(sorted(out))


def test_every_export_has_a_caller():
    assert sorted(set(unused_exports()) - ALLOWED) == []


def test_the_allowlist_names_only_uncalled_exports():
    # an entry whose name gained a caller in src/ is stale
    assert sorted(ALLOWED - set(unused_exports())) == []
