"""The recursive word interpreter the package used before its compiled
evaluator, the recursive variable walk it used before every node carried
its var_bits, the set-based factor condition of the linearization, the
isinstance printer to_text used before it dispatched on exact node
types, the automorphism search that tested every pair (a, b) before it
tested only generators, the compiler walk that words._compile
replaced, and a cover search with neither the greedy cover nor the
start from Y of largeness._CoverSearch, left translates by a G.mul loop,
where largeness gathers them along rows, permutation composition on
tuples, where group composes bytes by translate, powers by repeated
multiplication, where the compiler squares, and the upper central
series, which counts the class from the other end than
group.nilpotency_class, kept as slow, independent oracles for the
tests."""

import itertools
from array import array

from eqlarge.errors import ArityMismatch
from eqlarge.group import ProductGroup, Subset, _greedy_generators
from eqlarge.words import (
    _COMM,
    _IDENTITY,
    _INV,
    _LOAD_CONST,
    _LOAD_VAR,
    _MUL,
    Comm,
    Conj,
    Const,
    Engel,
    Inv,
    Pow,
    Prod,
    Var,
    _schedule,
    expand_engel,
    resolve_constant,
    word_arity,
)


def element_power(G, a, k):
    """a^k by |k| multiplications; k < 0 multiplies by the inverse."""
    if k < 0:
        a, k = G.inv(a), -k
    acc = G.identity
    for _ in range(k):
        acc = G.mul(acc, a)
    return acc


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
        val = element_power(
            G, evaluate(G, w.base, assignment, constants, _memo), w.exp)
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
    P = ProductGroup((G,) * equation.arity)
    bits = count = 0
    for idx in range(P.order):
        tup = P.decode(idx)
        if evaluate(G, equation.lhs, tup, constants) == \
                evaluate(G, equation.rhs, tup, constants):
            bits |= 1 << idx
            count += 1
    return bits, count


def buckets_by_value(G, word, constants=None):
    """{value: (bits, count)} over every assignment, one at a time."""
    out = {}
    P = ProductGroup((G,) * word_arity(word))
    for idx in range(P.order):
        v = evaluate(G, word, P.decode(idx), constants)
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


def compile_program(roots, product):
    """The Program compile_words builds, by the walk it used before: each
    node is pushed as (node, None) and again as (node, children), and
    emit and power are closures made afresh for every call.  The phases
    are words._schedule's."""
    # the steps' codes, operand slots (an inverse names its one operand
    # twice), and level << 3 | op, 0 for a load
    ops, left, right, keys = bytearray(), array("i"), array("i"), array("i")
    variables, names = {}, {}
    done = {}       # id(node) -> slot, for nodes that roots keeps alive
    # (left << 32 | right) << 3 | op -> slot, so structurally equal nodes
    # share a slot; an int key takes half the memory of a tuple
    slot_of = {}

    def emit(op, a=0, b=0, shared=True):
        slot = len(ops)
        if shared:
            key = (a << 32 | b) << 3 | op
            if key in slot_of:
                return slot_of[key]
            slot_of[key] = slot
        ops.append(op)
        left.append(a)
        right.append(b)
        keys.append(0 if op < _INV else
                    ((max(keys[a], keys[b]) >> 3) + 1) << 3 | op)
        return slot

    def power(a, k):
        if k == 0:
            return emit(_IDENTITY)
        if k < 0:
            a, k = emit(_INV, a, a), -k
        acc = None
        while True:
            if k & 1:
                acc = a if acc is None else emit(_MUL, acc, a)
            k >>= 1
            if not k:
                return acc
            a = emit(_MUL, a, a)

    expansions = []     # Engel expansions, alive while their ids are keys
    out = []
    for root in roots:
        # (node, None) is still to expand; (node, children) is ready once
        # the children pushed above it are done
        stack = [(root, None)]
        while stack:
            w, kids = stack.pop()
            if id(w) in done:
                continue
            t = type(w)
            if kids is None:
                if t is Comm or t is Prod:
                    kids = (w.left, w.right)
                elif t is Inv:
                    kids = (w.body,)
                elif t is Pow:
                    kids = (w.base,)
                elif t is Conj:
                    kids = (w.base, w.by)
                elif t is Engel:
                    kids = (expand_engel(w),)
                    expansions.append(kids)
                elif t is Var or t is Const:
                    kids = ()
                else:
                    raise TypeError(f"not a word node: {w!r}")
                if kids:
                    stack.append((w, kids))
                    stack.extend((k, None) for k in reversed(kids))
                    continue
            s = [done[id(k)] for k in kids]
            if t is Comm:
                slot = emit(_COMM, *s)
            elif t is Prod:
                slot = emit(_MUL, *s)
            elif t is Inv:
                slot = emit(_INV, s[0], s[0])
            elif t is Var:
                slot = emit(_LOAD_VAR, variables.setdefault(
                    w.index, len(variables)))
            elif t is Const:
                slot = emit(_LOAD_CONST, names.setdefault(w.name, len(names)))
            elif t is Pow:
                slot = power(s[0], w.exp)
            elif t is Conj:
                slot = emit(_MUL, s[0], emit(_COMM, *s))
            else:
                slot = s[0]         # Engel: its expansion's slot
            done[id(w)] = slot
        out.append(done[id(root)])
    if product:
        # a balanced fold, adjacent pairs first, adds log2(len(roots))
        # levels where a running product would add one per root; a fold
        # step is no node, so it skips the table
        while len(out) > 1:
            pairs = [emit(_MUL, a, b, False)
                     for a, b in zip(out[::2], out[1::2])]
            out = pairs + out[2 * len(pairs):]
        out = out or [emit(_IDENTITY)]
    done.clear()        # the walk's tables go before the schedule's
    slot_of.clear()
    prog = _schedule(ops, left, right, keys, out)
    prog.variables, prog.names = tuple(variables), tuple(names)
    return prog


def cover_decision(G, Y, k):
    """The translators of a cover of G by at most k left translates of Y,
    or None: the first cover met by a depth-first search from the empty
    cover that branches on the lowest uncovered element e, over every
    translator e * y^-1 in Y order, and prunes by the counting bound.
    Masks come from a G.mul loop."""
    ys = list(Y.indices())
    full = (1 << G.order) - 1
    masks = {}

    def mask(g):
        if g not in masks:
            masks[g] = sum({1 << G.mul(g, y) for y in ys})
        return masks[g]

    def dfs(uncovered, chosen):
        if not uncovered:
            return tuple(chosen)
        if len(chosen) + -(-uncovered.bit_count() // len(ys)) > k:
            return None
        e = (uncovered & -uncovered).bit_length() - 1
        for y in ys:
            g = G.mul(e, G.inv(y))
            sel = dfs(uncovered & ~mask(g), chosen + [g])
            if sel is not None:
                return sel
        return None

    return dfs(full, [])


def left_translate(G, X, g):
    """g*X, one G.mul per element of X."""
    bits = 0
    for x in X.indices():
        bits |= 1 << G.mul(g, x)
    return Subset(X.parent, bits)


def composition_table(perms):
    """Entry (i, j): the index of perms[i] after perms[j], composed as
    tuples."""
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[x] for x in q)] for q in perms)
                 for p in perms)


def upper_central_series(G):
    """[1, Z(G), ...] up to the first repetition; each step lifts the
    center of the quotient by the previous term."""
    series = [Subset.from_indices(G, [G.identity])]
    while True:
        prev = series[-1]
        bits = 0
        for g in range(G.order):
            if all((prev.bits >> G.comm(g, x)) & 1 for x in range(G.order)):
                bits |= 1 << g
        if bits == prev.bits:
            return series
        series.append(Subset(G, bits))
