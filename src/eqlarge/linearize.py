"""Splitting a supercommutator evaluated at products into commutator factors.

For a supercommutator v and designated variables xbar with fresh partners
ybar, substituting y*x for each designated x satisfies

    v(y1*x1, ..., z) = v(x, z) * v(y, z) * product(Phi)

where every factor of Phi is again a supercommutator, contains all the
undesignated variables of v, contains x_i or y_i whenever x_i occurs in v,
and mentions at least one x and at least one y.  The construction is exact:
it rewrites [AB, CD]-style products by conjugation-absorption, so the
identity holds in every group and is spot-checked by evaluation in tests.

The product form does the same for a product of supercommutators without
ever commuting two plain-x parts or two plain-y parts past each other.
"""

from __future__ import annotations

import random
from functools import cache

from .errors import (
    BudgetExceeded,
    NoXVariable,
    NotASupercommutator,
    PreconditionViolated,
)
from .words import (
    Comm,
    Const,
    Inv,
    Var,
    column_ops,
    compile_words,
    expand_engel,
    is_supercommutator,
    run_program,
    to_text,
    word_constants,
    word_variables,
)

__all__ = [
    "MAX_FACTORS",
    "linearize",
    "linearize_product",
    "check_factor_condition",
    "linearization_identity_holds",
    "product_identity_holds",
    "enumerate_sweep_shapes",
]


# commutator factors one expansion may create
MAX_FACTORS = 100_000


def _mask(indices):
    """The variable bits of the given indices, as in a node's var_bits."""
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


class _Expander:
    def __init__(self, xmap):
        self.xmap = xmap
        self.xmask = _mask(xmap)
        self.created = 0
        self._ysub_cache = {}
        self._phi_cache = {}

    def mk(self, a, b):
        self.created += 1
        if self.created > MAX_FACTORS:
            raise BudgetExceeded(
                f"linearization exceeds {MAX_FACTORS} factors")
        return Comm(a, b)

    def ysub(self, w):
        got = self._ysub_cache.get(id(w))
        if got is not None:
            return got
        if isinstance(w, Var):
            out = Var(self.xmap[w.index]) if w.index in self.xmap else w
        elif isinstance(w, Const):
            out = w
        elif isinstance(w, Inv):
            out = Inv(self.ysub(w.body))
        elif isinstance(w, Comm):
            out = Comm(self.ysub(w.left), self.ysub(w.right))
        else:
            raise NotASupercommutator(f"unexpected node {w!r}")
        self._ysub_cache[id(w)] = out
        return out

    def has_x(self, w):
        return w.var_bits & self.xmask

    def absorb(self, items, u):
        out = []
        for t in items:
            out.append(t)
            out.append(self.mk(t, u))
        return out

    def cps(self, j, items):
        acc = []
        for k in items:
            acc = [self.mk(j, k)] + self.absorb(acc, k)
        return acc

    def cp(self, j_items, k_items):
        acc = []
        for j in j_items:
            acc = self.absorb(acc, j) + self.cps(j, k_items)
        return acc

    def _pull(self, items, start, node):
        """Move the first occurrence of node at or after start to position
        start, conjugating the skipped prefix by it."""
        idx = None
        for i in range(start, len(items)):
            if items[i] is node:
                idx = i
                break
        if idx is None:
            raise AssertionError("expected factor missing from expansion")
        return (items[:start] + [node]
                + self.absorb(items[start:idx], node) + items[idx + 1:])

    def expand(self, v):
        """Factor list phi with subst(v) = v * ysub(v) * product(phi)."""
        got = self._phi_cache.get(id(v))
        if got is not None:
            return got
        phi = self._expand(v)
        self._phi_cache[id(v)] = phi
        return phi

    def _expand(self, v):
        if isinstance(v, Var):
            return [self.mk(self.ysub(v), v)]
        if isinstance(v, Inv):
            if isinstance(v.body, Var):
                return []
            phi_u = self.expand(v.body)
            b = self.ysub(v)
            inner = [Inv(t) for t in reversed(phi_u)]
            out = self.absorb(self.absorb(inner, v), b)
            out.append(self.mk(b, v))
            return out
        if isinstance(v, Comm):
            left, right = v.left, v.right
            j_items = [left]
            if self.has_x(left):
                j_items = [left, self.ysub(left)] + self.expand(left)
            k_items = [right]
            if self.has_x(right):
                k_items = [right, self.ysub(right)] + self.expand(right)
            raw = self.cp(j_items, k_items)
            ja, ka = j_items[0], k_items[0]
            jb = j_items[1] if len(j_items) > 1 else j_items[0]
            kb = k_items[1] if len(k_items) > 1 else k_items[0]
            pure_a = self._find_pair(raw, ja, ka)
            raw = self._pull(raw, 0, pure_a)
            pure_b = self._find_pair(raw, jb, kb)
            raw = self._pull(raw, 1, pure_b)
            return raw[2:]
        raise NotASupercommutator(f"cannot expand {to_text(v)}")

    @staticmethod
    def _find_pair(items, left, right):
        for f in items:
            if isinstance(f, Comm) and f.left is left and f.right is right:
                return f
        raise AssertionError("expected base pair missing from expansion")


def _prepare(v, xbar, ybar):
    v = expand_engel(v)
    if not is_supercommutator(v):
        raise NotASupercommutator(f"{to_text(v)} has a non-commutator node")
    xbar = tuple(xbar)
    ybar = tuple(ybar)
    if len(xbar) != len(ybar):
        raise PreconditionViolated("xbar and ybar must pair up")
    if len(set(xbar)) != len(xbar) or len(set(ybar)) != len(ybar):
        raise PreconditionViolated("designated variables must be distinct")
    if set(xbar) & set(ybar):
        raise PreconditionViolated("xbar and ybar overlap")
    return v, xbar, ybar


def check_factor_condition(w, v, xbar, ybar):
    """The structural condition every emitted factor must satisfy: same
    undesignated variables as v, x_i or its partner wherever v uses x_i,
    and at least one x and one y present.  Read off the var_bits masks."""
    vw, vv = w.var_bits, v.var_bits
    xmask = _mask(xbar)
    zmask = vv & ~xmask
    partner = dict(zip(xbar, ybar))
    return ((vw ^ vv) & zmask == 0
            and all(vw >> x & 1 or vw >> y & 1 for x, y in partner.items()
                    if vv >> x & 1)
            and vw & xmask != 0 and vw & _mask(ybar) != 0)


def linearize(v, xbar, ybar):
    """Factor list phi with v(..., y_i*x_i, ...) = v(x) * v(y) * prod(phi).

    Every returned factor passes check_factor_condition against (v, xbar,
    ybar); a violation would be a construction bug and raises.
    """
    v, xbar, ybar = _prepare(v, xbar, ybar)
    if v.var_bits & _mask(ybar):
        raise PreconditionViolated("ybar must be fresh for v")
    if not v.var_bits & _mask(xbar):
        raise NoXVariable(f"{to_text(v)} uses none of the designated "
                          "variables")
    phi = _Expander(dict(zip(xbar, ybar))).expand(v)
    for w in phi:
        if not check_factor_condition(w, v, xbar, ybar):
            raise AssertionError(
                f"construction emitted a bad factor for {to_text(v)}")
    return phi


def linearize_product(factors, xbar, ybar, n=None):
    """Same splitting for a product of supercommutators.

    Every input factor must use a designated variable and at least n others;
    every output factor then uses a designated variable and more than n
    others.  Returns (phi, prefix) where prefix lists the plain-x parts
    followed by the plain-y parts, so that substituting y*x into the
    product equals prod(prefix) * prod(phi).
    """
    prepared = []
    for w in factors:
        w2, xbar, ybar = _prepare(w, xbar, ybar)
        prepared.append(w2)
    if not prepared:
        raise PreconditionViolated("empty product")
    xmask = _mask(xbar)
    counts = []
    for w in prepared:
        if w.var_bits & _mask(ybar):
            raise PreconditionViolated("ybar must be fresh for every factor")
        if not w.var_bits & xmask:
            raise PreconditionViolated(
                f"factor {to_text(w)} uses no designated variable")
        counts.append((w.var_bits & ~xmask).bit_count())
    if n is None:
        n = min(counts)
    if any(c < n for c in counts):
        raise PreconditionViolated(
            f"every factor needs at least {n} undesignated variables")
    exp = _Expander(dict(zip(xbar, ybar)))
    items = []
    for w in prepared:
        items.extend([w, exp.ysub(w)] + exp.expand(w))
    pos = 0
    for w in prepared:
        items = exp._pull(items, pos, w)
        pos += 1
    for w in prepared:
        items = exp._pull(items, pos, exp.ysub(w))
        pos += 1
    prefix, phi = items[:pos], items[pos:]
    for w in phi:
        if not w.var_bits & xmask or (w.var_bits & ~xmask).bit_count() <= n:
            raise AssertionError("product construction emitted a bad factor")
    return phi, prefix


def linearization_identity_holds(G, v, xbar, ybar, phi, samples=100, seed=0,
                                 constants=None):
    """Spot-check the splitting identity of the one factor v by evaluation;
    v and the designation are validated as linearize does."""
    v, xbar, ybar = _prepare(v, xbar, ybar)
    return product_identity_holds(G, [v], xbar, ybar, phi, samples, seed,
                                  constants)


@cache
def _residues(n):
    """For an order n <= 256: the table of b mod n over the 256 byte
    values, and the bytes from 256 - 256 mod n up, whose deletion leaves
    (256 - 256 mod n) / n bytes on each residue."""
    return bytes(b % n for b in range(256)), bytes(range(256 - 256 % n, 256))


def _sample_column(rng, n, k):
    """k element indices drawn uniformly below n.  Up to order 256 they
    are random bytes with the biased top ones deleted and the rest taken
    mod n, in a few C-level calls, drawn again until k are kept; above
    it, a list from rng.choices."""
    if n > 256:
        return rng.choices(range(n), k=k)
    table, drop = _residues(n)
    out = rng.randbytes(k).translate(table, drop)
    while len(out) < k:
        out += rng.randbytes(k - len(out)).translate(table, drop)
    return out


def product_identity_holds(G, factors, xbar, ybar, phi, samples=50, seed=0,
                           constants=None):
    """Spot-check F(..., y_i*x_i, ...) = F(x) * F(y) * prod(phi)(x), with
    F = prod(factors) and F(y) the value with y_i in place of each x_i,
    over random columns of assignments and unbound constants, each drawn
    by _sample_column.

    F runs once, over the columns at x, at y and at y*x stacked into
    3 * samples rows, the constants repeated to match, and prod(phi) once
    at x.  Both compile once, so compile_words serves them again when the
    same words are checked in another group."""
    factors = [expand_engel(w) for w in factors]
    rng = random.Random(seed)
    bits = _mask((*xbar, *ybar))
    names = set()
    for w in factors:
        bits |= w.var_bits
        names |= {c for c in word_constants(w) if not c.startswith("#")}
    consts = dict(constants or {})
    for name in sorted(names - consts.keys()):
        consts[name] = _sample_column(rng, G.order, samples)
    ops = column_ops(G)
    x = [ops.column(_sample_column(rng, G.order, samples))
         for _ in range(bits.bit_length())]
    at_y, at_yx = list(x), list(x)
    for xi, yi in zip(xbar, ybar):
        at_y[xi] = x[yi]
        at_yx[xi] = ops.mul(x[yi], x[xi])
    stacked = list(map(ops.join, zip(x, at_y, at_yx)))
    tripled = {name: v if isinstance(v, int) else v * 3
               for name, v in consts.items()}
    (f,) = run_program(compile_words(factors, product=True), ops, stacked,
                       3 * samples, tripled)
    (tail,) = run_program(compile_words(phi, product=True), ops, x, samples,
                          consts)
    fx, fy, fyx = f[:samples], f[samples:2 * samples], f[2 * samples:]
    return fyx == ops.mul(ops.mul(fx, fy), tail)


def enumerate_sweep_shapes():
    """Deterministic supercommutator shapes for the linearization sweep:
    commutator depth up to 3 over at most 3 variables plus one symbolic
    constant, with inverse decorations on the leaves, each paired with a
    workable designation split.  Partner variables use the next free
    indices."""
    x1, x2, x3 = Var(0), Var(1), Var(2)
    g = Const("g")

    def decs(leaf):
        return [leaf, Inv(leaf), Inv(Inv(leaf))]

    shapes = []

    def add(v, xbar):
        ybar = tuple(3 + k for k in range(len(xbar)))
        shapes.append((to_text(v), v, tuple(xbar), ybar))

    pairs = [(x1, x2), (x2, x1), (x1, g), (g, x1), (x1, x1), (x1, x3),
             (x2, x3)]
    for a, b in pairs:
        for da in decs(a):
            for db in decs(b):
                v = Comm(da, db)
                vs = sorted(word_variables(v))
                add(v, (vs[0],))
                if len(vs) > 1:
                    add(v, tuple(vs))
    deep = [
        (Comm(Comm(x1, x2), x3), (2,)),
        (Comm(Comm(x1, x2), x3), (0,)),
        (Comm(x1, Comm(x2, x3)), (0,)),
        (Comm(x1, Comm(x2, x3)), (1,)),
        (Comm(Comm(x1, x2), Comm(x1, x3)), (1,)),
        (Comm(Comm(x1, x2), Comm(x2, x3)), (0,)),
        (Comm(Comm(x1, g), x2), (1,)),
        (Comm(Comm(x1, g), x2), (0,)),
        (Comm(Inv(Comm(x1, x2)), x3), (2,)),
        (Comm(x3, Inv(Comm(x1, x2))), (2,)),
        (Comm(Comm(Inv(x1), x2), x3), (2,)),
        (Comm(g, Comm(x1, x2)), (0,)),
    ]
    for v, xbar in deep:
        add(v, xbar)
    return shapes
