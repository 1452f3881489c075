"""The recursive word interpreter the package used before its compiled
evaluator, the recursive variable walk it used before every node carried
its var_bits, the set-based factor condition of the linearization, the
isinstance printer to_text used before it dispatched on exact node
types, and the automorphism search that tested every pair (a, b) before
it tested only generators, kept as slow, independent oracles for the
tests."""

import itertools

from eqlarge.errors import ArityMismatch
from eqlarge.group import ProductGroup, _greedy_generators
from eqlarge.words import (
    Comm,
    Conj,
    Const,
    Engel,
    Inv,
    Pow,
    Prod,
    Var,
    expand_engel,
    resolve_constant,
    word_arity,
)


def evaluate(G, w, assignment, constants=None, _memo=None):
    """Value of a word under an assignment (tuple indexed by Var index).

    Structurally equal subtrees are evaluated once per call via a memo
    keyed on the (frozen, hashable) nodes themselves.  Keying on id()
    would break here: expand_engel builds short-lived trees, and a freed
    node's address can be reused by a later, different node.
    """
    if _memo is None:
        _memo = {}
    key = w
    got = _memo.get(key)
    if got is not None:
        return got
    if isinstance(w, Var):
        if w.index >= len(assignment):
            raise ArityMismatch(
                f"word uses x{w.index + 1} but assignment has "
                f"{len(assignment)} entries")
        val = assignment[w.index]
    elif isinstance(w, Const):
        val = resolve_constant(G, w.name, constants)
    elif isinstance(w, Inv):
        val = G.inv(evaluate(G, w.body, assignment, constants, _memo))
    elif isinstance(w, Prod):
        val = G.mul(evaluate(G, w.left, assignment, constants, _memo),
                    evaluate(G, w.right, assignment, constants, _memo))
    elif isinstance(w, Pow):
        val = G.pow(evaluate(G, w.base, assignment, constants, _memo), w.exp)
    elif isinstance(w, Conj):
        val = G.conj(evaluate(G, w.base, assignment, constants, _memo),
                     evaluate(G, w.by, assignment, constants, _memo))
    elif isinstance(w, Comm):
        val = G.comm(evaluate(G, w.left, assignment, constants, _memo),
                     evaluate(G, w.right, assignment, constants, _memo))
    elif isinstance(w, Engel):
        val = evaluate(G, expand_engel(w), assignment, constants, _memo)
    else:
        raise TypeError(f"not a word node: {w!r}")
    _memo[key] = val
    return val


def evaluate_product(G, factors, assignment, constants=None):
    """Product of a factor list under one shared memo."""
    memo = {}
    acc = G.identity
    for f in factors:
        acc = G.mul(acc, evaluate(G, f, assignment, constants, memo))
    return acc


def solution_bits(G, equation, constants=None):
    """(bits, count) of an equation's solutions, one assignment at a time
    through the power's tuple codec."""
    arity = equation.arity
    bits = count = 0
    for idx, tup in enumerate(ProductGroup((G,) * arity).tuples()):
        if evaluate(G, equation.lhs, tup, constants) == \
                evaluate(G, equation.rhs, tup, constants):
            bits |= 1 << idx
            count += 1
    return bits, count


def buckets_by_value(G, word, constants=None):
    """{value: (bits, count)} over every assignment, one at a time."""
    out = {}
    for idx, tup in enumerate(
            ProductGroup((G,) * word_arity(word)).tuples()):
        v = evaluate(G, word, tup, constants)
        bits, count = out.get(v, (0, 0))
        out[v] = bits | 1 << idx, count + 1
    return dict(sorted(out.items()))


def word_variables(w):
    """The variable indices of a word, by a walk over its tree."""
    if isinstance(w, Var):
        return {w.index}
    if isinstance(w, Const):
        return set()
    if isinstance(w, Inv):
        return word_variables(w.body)
    if isinstance(w, Pow):
        return word_variables(w.base)
    if isinstance(w, (Prod, Comm, Engel)):
        return word_variables(w.left) | word_variables(w.right)
    if isinstance(w, Conj):
        return word_variables(w.base) | word_variables(w.by)
    raise TypeError(f"not a word node: {w!r}")


def factor_condition(w, v, xbar, ybar, zbar=None):
    """check_factor_condition on the walked variable sets of w and v."""
    vw, vv = word_variables(w), word_variables(v)
    zset = vv - set(xbar) if zbar is None else set(zbar)
    if (vw & zset) != (vv & zset):
        return False
    partner = dict(zip(xbar, ybar))
    for x in vv.intersection(xbar):
        if x not in vw and partner[x] not in vw:
            return False
    return any(x in vw for x in xbar) and any(y in vw for y in ybar)


def _atom_text(w):
    s = to_text(w)
    if isinstance(w, (Var, Const)):
        return s
    if isinstance(w, (Comm, Engel)):
        return s
    return "(" + s + ")"


def to_text(w):
    """Canonical print, by a chain of isinstance tests."""
    if isinstance(w, Var):
        return f"x{w.index + 1}"
    if isinstance(w, Const):
        return w.name
    if isinstance(w, Inv):
        return _atom_text(w.body) + "^-1"
    if isinstance(w, Pow):
        return _atom_text(w.base) + f"^{w.exp}"
    if isinstance(w, Conj):
        return _atom_text(w.base) + "^" + _conj_arg_text(w.by)
    if isinstance(w, Comm):
        return f"[{to_text(w.left)},{to_text(w.right)}]"
    if isinstance(w, Engel):
        return f"[{to_text(w.left)},{to_text(w.right)};{w.n}]"
    if isinstance(w, Prod):
        left = to_text(w.left)
        right = to_text(w.right)
        if isinstance(w.right, Prod):
            right = "(" + right + ")"
        return f"{left} * {right}"
    raise TypeError(f"not a word node: {w!r}")


def _conj_arg_text(w):
    # the conjugator slot must reparse as an atom, never as an exponent
    s = to_text(w)
    if isinstance(w, (Var, Const, Comm, Engel)):
        return s
    return "(" + s + ")"


def automorphism_action(G):
    """Every automorphism of G as an element tuple, sorted: the maps built
    along breadth-first words over G's greedy generators, sending each
    generator to an element of its order, that are bijective and
    multiplicative on all n^2 pairs (a, b)."""
    gens = _greedy_generators(G)
    n = G.order
    orders = [G.element_order(g) for g in range(n)]
    parent, via = [-1] * n, [-1] * n
    bfs = [G.identity]
    for x in bfs:
        for gi, g in enumerate(gens):
            y = G.mul(x, g)
            if y != G.identity and parent[y] < 0:
                parent[y], via[y] = x, gi
                bfs.append(y)
    maps = set()
    for images in itertools.product(
            *([h for h in range(n) if orders[h] == orders[g]] for g in gens)):
        m = [-1] * n
        m[G.identity] = G.identity
        for y in bfs[1:]:
            m[y] = G.mul(m[parent[y]], images[via[y]])
        if len(set(m)) == n and all(
                m[G.mul(a, b)] == G.mul(m[a], m[b])
                for a in range(n) for b in range(n)):
            maps.add(tuple(m))
    return tuple(sorted(maps))
