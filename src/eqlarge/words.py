"""Group words and equations.

Variables are ``x1, x2, ...`` (0-based ``Var`` indices internally).  Bare
identifiers are symbolic constants bound at evaluation time; ``#3`` and
``#name`` are element literals resolved against the group, with ``#e``
falling back to the identity when no element is named ``e``.

Conventions: ``u^v`` is conjugation ``v^-1 u v`` when v is a word and a
power when v is an integer literal, ``[u,v]`` is ``u^-1 v^-1 u v``,
``[u,v;n]`` iterates ``[...[u,v],v...],v]`` n times, and ``[u,v,w]`` is
sugar for ``[[u,v],w]``.  ``^`` binds tighter than ``*``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    NotAProductOfSupercommutators,
    ParseError,
    UnboundConstant,
)

__all__ = [
    "Var",
    "Const",
    "Inv",
    "Prod",
    "Pow",
    "Conj",
    "Comm",
    "Engel",
    "Equation",
    "VarProfile",
    "parse_word",
    "parse_equation",
    "to_text",
    "evaluate",
    "evaluate_product",
    "word_variables",
    "word_constants",
    "word_arity",
    "expand_engel",
    "flatten_product",
    "is_supercommutator",
    "var_profile",
    "move_constants_right",
    "IDENTITY_WORD",
]


def _cached_hash(cls):
    # frozen dataclasses recompute their hash from the whole subtree on
    # every call, which dominates memoised evaluation of large factor
    # lists; cache it on first use instead
    plain = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = plain(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_cached_hash
@dataclass(frozen=True)
class Var:
    index: int


@_cached_hash
@dataclass(frozen=True)
class Const:
    name: str


@_cached_hash
@dataclass(frozen=True)
class Inv:
    body: object


@_cached_hash
@dataclass(frozen=True)
class Prod:
    left: object
    right: object


@_cached_hash
@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@_cached_hash
@dataclass(frozen=True)
class Conj:
    base: object
    by: object


@_cached_hash
@dataclass(frozen=True)
class Comm:
    left: object
    right: object


@_cached_hash
@dataclass(frozen=True)
class Engel:
    left: object
    right: object
    n: int


IDENTITY_WORD = Const("#e")


@dataclass(frozen=True)
class Equation:
    lhs: object
    rhs: object

    @property
    def arity(self):
        return max(word_arity(self.lhs), word_arity(self.rhs))

    @property
    def constants(self):
        return word_constants(self.lhs) | word_constants(self.rhs)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lit>#[A-Za-z0-9_\-]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>-?\d+)"
    r"|(?P<op>[\*\^\[\](),;=]))")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}",
                             position=len(text) - len(rest))
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# Deepest word the parser accepts, as the height of the tree once Engel
# nodes are expanded and as the nesting of brackets.  Parsing recurses four
# frames per bracket level and evaluating about three per tree level, so an
# accepted word stays well inside Python's default recursion limit of 1000.
MAX_WORD_HEIGHT = 128


class _Parser:
    """Recursive descent.  word, term, atom and bracket return the node and
    its height once Engel nodes are expanded; depth counts open brackets."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.take()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}",
                             position=pos)

    def capped(self, height, pos):
        if height > MAX_WORD_HEIGHT:
            raise ParseError(f"word is more than {MAX_WORD_HEIGHT} levels "
                             f"deep", position=pos)
        return height

    def word(self):
        node, h = self.term()
        while self.peek()[1] == "*":
            pos = self.take()[2]
            right, hr = self.term()
            node, h = Prod(node, right), self.capped(max(h, hr) + 1, pos)
        return node, h

    def term(self):
        node, h = self.atom()
        while self.peek()[1] == "^":
            pos = self.take()[2]
            kind, val, _ = self.peek()
            if kind == "int":
                self.take()
                k = int(val)
                node = Inv(node) if k == -1 else Pow(node, k)
            else:
                by, hb = self.atom()
                node, h = Conj(node, by), max(h, hb)
            h = self.capped(h + 1, pos)
        return node, h

    def atom(self):
        kind, val, pos = self.take()
        if kind == "lit":
            return Const(val), 1
        if kind == "name":
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise ParseError("variables are numbered from x1",
                                     position=pos)
                return Var(idx - 1), 1
            return Const(val), 1
        if val in ("(", "["):
            self.depth = self.capped(self.depth + 1, pos)
            if val == "(":
                result = self.word()
                self.expect(")")
            else:
                result = self.bracket(pos)
            self.depth -= 1
            return result
        raise ParseError(f"unexpected token {val!r}", position=pos)

    def bracket(self, open_pos):
        parts = [self.word()]
        engel_n = None
        while True:
            kind, val, pos = self.take()
            if val == ",":
                parts.append(self.word())
            elif val == ";":
                kind2, val2, pos2 = self.take()
                if kind2 != "int" or int(val2) < 1:
                    raise ParseError("Engel count must be a positive integer",
                                     position=pos2)
                engel_n = int(val2)
                self.expect("]")
                break
            elif val == "]":
                break
            else:
                raise ParseError(f"expected ',' or ']' in commutator, "
                                 f"found {val!r}", position=pos)
        if len(parts) < 2:
            raise ParseError("commutator needs at least two arguments",
                             position=open_pos)
        if engel_n is not None:
            if len(parts) != 2:
                raise ParseError("Engel form takes exactly two arguments",
                                 position=open_pos)
            (left, hl), (right, hr) = parts
            return (Engel(left, right, engel_n),
                    self.capped(max(hl, hr) + engel_n, open_pos))
        node, h = parts[0]
        for extra, he in parts[1:]:
            node, h = Comm(node, extra), self.capped(max(h, he) + 1, open_pos)
        return node, h


def parse_word(text):
    p = _Parser(text)
    node, _ = p.word()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", position=pos)
    return node


def parse_equation(text):
    depth = 0
    split_at = None
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "=" and depth == 0:
            if split_at is not None:
                raise ParseError("more than one '=' at top level", position=i)
            split_at = i
    if split_at is None:
        raise ParseError("equation needs '='", position=len(text))
    return Equation(parse_word(text[:split_at]),
                    parse_word(text[split_at + 1:]))


def _atom_text(w):
    s = to_text(w)
    if isinstance(w, (Var, Const)):
        return s
    if isinstance(w, (Comm, Engel)):
        return s
    return "(" + s + ")"


def to_text(w):
    """Canonical print; parsing the result rebuilds the same tree for any
    tree the parser can produce."""
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


def word_variables(w):
    if isinstance(w, Var):
        return {w.index}
    if isinstance(w, Const):
        return set()
    if isinstance(w, Inv):
        return word_variables(w.body)
    if isinstance(w, Pow):
        return word_variables(w.base)
    if isinstance(w, (Prod, Comm)):
        return word_variables(w.left) | word_variables(w.right)
    if isinstance(w, Conj):
        return word_variables(w.base) | word_variables(w.by)
    if isinstance(w, Engel):
        return word_variables(w.left) | word_variables(w.right)
    raise TypeError(f"not a word node: {w!r}")


def word_constants(w):
    if isinstance(w, Const):
        return {w.name}
    if isinstance(w, Var):
        return set()
    if isinstance(w, Inv):
        return word_constants(w.body)
    if isinstance(w, Pow):
        return word_constants(w.base)
    if isinstance(w, (Prod, Comm)):
        return word_constants(w.left) | word_constants(w.right)
    if isinstance(w, Conj):
        return word_constants(w.base) | word_constants(w.by)
    if isinstance(w, Engel):
        return word_constants(w.left) | word_constants(w.right)
    raise TypeError(f"not a word node: {w!r}")


def word_arity(w):
    vs = word_variables(w)
    return max(vs) + 1 if vs else 0


def resolve_constant(G, name, constants=None):
    if constants and name in constants:
        return constants[name]
    if name.startswith("#"):
        body = name[1:]
        if body.isdigit():
            idx = int(body)
            if idx >= G.order:
                raise UnboundConstant(
                    f"literal {name} outside 0..{G.order - 1}")
            return idx
        by_name = G.element_by_name(body)
        if by_name is not None:
            return by_name
        if body == "e":
            return G.identity
        raise UnboundConstant(f"no element named {body!r} in {G.label}")
    raise UnboundConstant(f"constant {name!r} has no binding")


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


def expand_engel(w):
    """Rewrite every Engel node into nested commutators."""
    if isinstance(w, (Var, Const)):
        return w
    if isinstance(w, Inv):
        return Inv(expand_engel(w.body))
    if isinstance(w, Prod):
        return Prod(expand_engel(w.left), expand_engel(w.right))
    if isinstance(w, Pow):
        return Pow(expand_engel(w.base), w.exp)
    if isinstance(w, Conj):
        return Conj(expand_engel(w.base), expand_engel(w.by))
    if isinstance(w, Comm):
        return Comm(expand_engel(w.left), expand_engel(w.right))
    if isinstance(w, Engel):
        node = Comm(expand_engel(w.left), expand_engel(w.right))
        for _ in range(w.n - 1):
            node = Comm(node, expand_engel(w.right))
        return node
    raise TypeError(f"not a word node: {w!r}")


def flatten_product(w):
    """Top-level factor list, with Engel expanded and powers unrolled.

    Pow with exponent 0 contributes nothing; negative exponents unroll to
    repeated inverses.
    """
    w = expand_engel(w)
    if isinstance(w, Prod):
        return flatten_product(w.left) + flatten_product(w.right)
    if isinstance(w, Pow):
        base = w.base
        k = w.exp
        if k == 0:
            return []
        unit = expand_engel(base) if k > 0 else Inv(expand_engel(base))
        return flatten_product(unit) * abs(k) if isinstance(unit, Prod) \
            else [unit] * abs(k)
    return [w]


def is_supercommutator(w):
    """Words built from variables and constants by inverse and commutator
    only.  Expand Engel first if needed; Prod, Pow and Conj disqualify."""
    if isinstance(w, (Var, Const)):
        return True
    if isinstance(w, Inv):
        return is_supercommutator(w.body)
    if isinstance(w, Comm):
        return is_supercommutator(w.left) and is_supercommutator(w.right)
    return False


@dataclass(frozen=True)
class VarProfile:
    all_vars: frozenset
    vars_in_xbar: frozenset
    vars_outside_xbar: frozenset

    @property
    def var_count(self):
        return len(self.all_vars)

    @property
    def var_xbar(self):
        return len(self.vars_in_xbar)

    @property
    def var_xbar_prime(self):
        return len(self.vars_outside_xbar)


def var_profile(w, xbar):
    vs = frozenset(word_variables(w))
    xset = frozenset(xbar)
    return VarProfile(vs, vs & xset, vs - xset)


def move_constants_right(eq, verify_in=(), samples=16, seed=0):
    """Rewrite lhs = rhs so every lhs factor contains a variable.

    Leading constants move to the rhs on the left (inverted), trailing ones
    on the right (inverted), and an interior constant t passes a variable
    factor f by rewriting t*f as f*[f,t^-1]*t.  When no variable factor
    remains the lhs is the identity literal.  Groups passed via verify_in
    get the equivalence spot-checked on random assignments.
    """
    factors = flatten_product(eq.lhs)
    for f in factors:
        if not is_supercommutator(f):
            raise NotAProductOfSupercommutators(
                f"factor {to_text(f)} is not a supercommutator")
    rhs_left = []
    while factors and not word_variables(factors[0]):
        rhs_left.append(Inv(factors.pop(0)))
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if not word_variables(factors[i]) and \
                    word_variables(factors[i + 1]):
                t, f = factors[i], factors[i + 1]
                factors[i:i + 2] = [f, Comm(f, Inv(t)), t]
                changed = True
                break
    rhs_right = []
    while factors and not word_variables(factors[-1]):
        rhs_right.append(Inv(factors.pop()))
    rhs = eq.rhs
    for t in rhs_right:
        rhs = Prod(rhs, t)
    for t in rhs_left:
        rhs = Prod(t, rhs)
    lhs = IDENTITY_WORD
    if factors:
        lhs = factors[0]
        for f in factors[1:]:
            lhs = Prod(lhs, f)
    moved = Equation(lhs, rhs)
    if verify_in:
        import random
        rng = random.Random(seed)
        arity = max(eq.arity, moved.arity)
        for G in verify_in:
            consts = {name: rng.randrange(G.order)
                      for name in (eq.constants | moved.constants)
                      if not name.startswith("#")}
            for _ in range(samples):
                asg = tuple(rng.randrange(G.order) for _ in range(arity))
                before = evaluate(G, eq.lhs, asg, consts) == \
                    evaluate(G, eq.rhs, asg, consts)
                after = evaluate(G, moved.lhs, asg, consts) == \
                    evaluate(G, moved.rhs, asg, consts)
                if before != after:
                    raise NotAProductOfSupercommutators(
                        f"rewrite changed solutions in {G.label} at {asg}")
    return moved
