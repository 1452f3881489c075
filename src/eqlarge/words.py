"""Group words and equations.

Variables are ``x1, x2, ...`` (0-based ``Var`` indices internally).  Bare
identifiers are symbolic constants bound at evaluation time; ``#3`` and
``#name`` are element literals resolved against the group, with ``#e``
falling back to the identity when no element is named ``e``.

Conventions: ``u^v`` is conjugation ``v^-1 u v`` when v is a word and a
power when v is an integer literal, ``[u,v]`` is ``u^-1 v^-1 u v``,
``[u,v;n]`` iterates ``[...[u,v],v...],v]`` n times, and ``[u,v,w]`` is
sugar for ``[[u,v],w]``.  ``^`` binds tighter than ``*``.

Every node carries var_bits, set when it is built: bit i is set when
x(i+1) occurs in it, the OR of its children's bits.  It is no dataclass
field, so equality, hashing and repr see only the tree; word_variables
and word_arity read it without a walk.  The parser reads every number
through group._read_number, so an oversized one is a ParseError, and it
refuses variables past x1024 (MAX_VARIABLE).

Evaluation does not recurse.  compile_words turns a list of words into a
straight-line program, one slot per structurally distinct node, and
run_program runs it over whole columns of assignments, one column per
variable.  A product of many words is folded by a balanced tree, so the
program stays shallow.  Its steps are grouped by level (a load is level
0, any other step one more than its operands' highest) and op; after
the loads, each group is one kernel call over its operand columns
joined end to end, whose result is cut back into one column per step,
and a column is freed after the group that reads it last.  Every kernel
is elementwise.  A column is bytes for a table-backed group of order at
most 32, paged above 16: each kernel is a few C-level calls over the
whole column.  An inverse is one bytes.translate.  A product or commutator
splits the key a << w | b, w = 4 bits an element up to order 16 and 5
above, into a low byte and a page a >> (8 - w).  Up to order 16 there is
one page and the low byte goes through one 256-byte table.  Above it
each of 4 pages translates the low byte through its own table, masked
where A is on that page, and the pages are ORed together.  The tables
are kept on the group in G._packed.  A column is a list otherwise: a
table-backed group of order above 32 gathers each product through its
table rows, a componentwise product maps its own mul.  evaluate and
evaluate_product run the same program on a single row.

compile_words keeps its last COMPILE_CACHE_SIZE programs with their
roots, least recently used evicted first, and serves one again when it is
asked for the same root objects (identity, not equality) with the same
product flag: a factor list checked in several groups compiles once.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import getitem, is_

from .errors import (
    ArityMismatch,
    ParseError,
    UnboundConstant,
)
from .group import TableGroup, _paged_lanes, _read_number

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
    "parse_word",
    "parse_equation",
    "to_text",
    "Program",
    "compile_words",
    "column_ops",
    "run_program",
    "evaluate",
    "evaluate_product",
    "word_variables",
    "word_constants",
    "word_arity",
    "expand_engel",
    "is_supercommutator",
]


def _join_bits(node):
    """__post_init__ of the nodes with a left and a right child."""
    object.__setattr__(node, "var_bits",
                       node.left.var_bits | node.right.var_bits)


@dataclass(frozen=True)
class Var:
    index: int

    def __post_init__(self):
        object.__setattr__(self, "var_bits", 1 << self.index)


@dataclass(frozen=True)
class Const:
    name: str

    var_bits = 0


@dataclass(frozen=True)
class Inv:
    body: object

    def __post_init__(self):
        object.__setattr__(self, "var_bits", self.body.var_bits)


@dataclass(frozen=True)
class Prod:
    left: object
    right: object

    __post_init__ = _join_bits


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int

    def __post_init__(self):
        object.__setattr__(self, "var_bits", self.base.var_bits)


@dataclass(frozen=True)
class Conj:
    base: object
    by: object

    def __post_init__(self):
        object.__setattr__(self, "var_bits",
                           self.base.var_bits | self.by.var_bits)


@dataclass(frozen=True)
class Comm:
    left: object
    right: object

    __post_init__ = _join_bits


@dataclass(frozen=True)
class Engel:
    left: object
    right: object
    n: int

    __post_init__ = _join_bits


# Nodes that print as atoms: no parentheses as an operand of ^
_ATOMS = frozenset((Var, Const, Comm, Engel))


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
# nodes are expanded and as the nesting of brackets.  Evaluation keeps its
# own stack and word_variables reads var_bits, but parsing recurses four
# frames per bracket level, and to_text, word_constants and expand_engel
# recurse a frame or two per tree level, so an accepted
# word stays well inside Python's default recursion limit of 1000.
MAX_WORD_HEIGHT = 128

# Highest variable number the parser accepts; a node keeps its variables
# as the bits of an int, so x99999999999 would ask for gigabytes.
MAX_VARIABLE = 1024


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
                k = _read_number(val.lstrip("-"))
                if k is None:
                    raise ParseError("exponent out of range", position=pos)
                if val.startswith("-"):
                    k = -k
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
                idx = _read_number(m.group(1), MAX_VARIABLE)
                if not idx:
                    raise ParseError(f"variables are numbered x1 to "
                                     f"x{MAX_VARIABLE}", position=pos)
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
                engel_n = _read_number(val2) if val2.isdigit() else None
                if not engel_n:
                    raise ParseError("Engel count must be a positive integer"
                                     " of at most nine digits", position=pos2)
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
    return s if type(w) in _ATOMS else "(" + s + ")"


def to_text(w):
    """Canonical print; parsing the result rebuilds the same tree for any
    tree the parser can produce.  Commutators come first, the most common
    node of a linearized factor."""
    t = type(w)
    if t is Comm:
        return f"[{to_text(w.left)},{to_text(w.right)}]"
    if t is Var:
        return f"x{w.index + 1}"
    if t is Const:
        return w.name
    if t is Inv:
        return _atom_text(w.body) + "^-1"
    if t is Prod:
        left = to_text(w.left)
        right = to_text(w.right)
        if type(w.right) is Prod:
            right = "(" + right + ")"
        return f"{left} * {right}"
    if t is Pow:
        return _atom_text(w.base) + f"^{w.exp}"
    if t is Conj:
        # the conjugator slot must reparse as an atom, never as an exponent
        return _atom_text(w.base) + "^" + _atom_text(w.by)
    if t is Engel:
        return f"[{to_text(w.left)},{to_text(w.right)};{w.n}]"
    raise TypeError(f"not a word node: {w!r}")


def word_variables(w):
    bits = w.var_bits
    return {i for i in range(bits.bit_length()) if bits >> i & 1}


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
    return w.var_bits.bit_length()


def resolve_constant(G, name, constants=None):
    """The value of a constant: a ``#`` name is an element literal of G
    whatever constants binds, any other name its binding in constants."""
    if name.startswith("#"):
        body = name[1:]
        if body.isdecimal():
            idx = _read_number(body, G.order - 1)
            if idx is None:
                raise UnboundConstant(
                    f"literal {name[:24]} outside 0..{G.order - 1}")
            return idx
        by_name = G.element_by_name(body)
        if by_name is not None:
            return by_name
        if body == "e":
            return G.identity
        raise UnboundConstant(f"no element named {body!r} in {G.label}")
    if constants and name in constants:
        return constants[name]
    raise UnboundConstant(f"constant {name!r} has no binding")


# Steps of a compiled program.  The loads and the identity read no slot;
# the steps from _INV on read slots of lower levels.
_LOAD_VAR, _LOAD_CONST, _IDENTITY, _INV, _MUL, _COMM = range(6)


class Program:
    """Root words compiled into a straight-line program of phases: the
    loads, then one group of steps per (level, op), where a load has
    level 0 and any other step one more than its operands' highest.
    Step i writes slot i; ops, left and right are parallel arrays of its
    code and operand slots (a load's left numbers its variable or
    constant name; an inverse reads its left operand twice).  Phase p
    writes the slots starts[p]:starts[p + 1] and then frees the slots
    frees[free_starts[p]:free_starts[p + 1]], those it reads last or, if
    no step reads them, writes.  variables and names are what the loads
    number, and roots the root slots, never freed."""

    __slots__ = ("ops", "left", "right", "starts", "frees", "free_starts",
                 "variables", "names", "roots")


# (product, roots, program) of the programs compile_words keeps, least
# recently used first
COMPILE_CACHE_SIZE = 4
_compiled = []


def compile_words(roots, product=False):
    """Compile words into one straight-line program, without recursion.

    Each structurally distinct node gets one slot, Engel nodes being
    expanded first.  Powers unroll into products by repeated squaring and
    u^v becomes u*[u,v].  Steps follow a left-to-right walk of the words,
    so a missing variable or constant fails at the load a tree walk would
    reach first.  With product=True the roots are folded, in their order,
    by a balanced tree of products, which is the one root.  The steps are
    then renumbered into phases (see Program).

    The last COMPILE_CACHE_SIZE programs are kept with their roots, and one
    is served again for the same product flag and the very same root
    objects.  Matching by identity, not by id(), cannot be fooled by a
    freed node's address, and it needs no key of one int per root.
    """
    roots = tuple(roots)
    for i, (flag, kept, program) in enumerate(_compiled):
        if (flag == product and len(kept) == len(roots)
                and all(map(is_, kept, roots))):
            _compiled.append(_compiled.pop(i))
            return program
    program = _compile(roots, product)
    _compiled.append((product, roots, program))
    if len(_compiled) > COMPILE_CACHE_SIZE:
        del _compiled[0]
    return program


# The node of the identity step, which x^0 and an empty product compile to
_ONE = object()


def _unrolled(w):
    """The nodes a power of x stands for, its slot the last one's: x, then
    the identity for x^0, else the Prod tree of repeated squaring of x (of
    x^-1 below 0), whose walk makes the steps in the squaring's order."""
    a, k = (Inv(w.base), -w.exp) if w.exp < 0 else (w.base, w.exp)
    acc = None if k else _ONE
    while k:
        if k & 1:
            acc = a if acc is None else Prod(acc, a)
        k >>= 1
        a = Prod(a, a) if k else a
    return (w.base, acc)


def _compile(roots, product):
    """compile_words without its cache.  One left-to-right post-order walk
    keeps bare nodes on its stack: a node whose children are not all
    numbered pushes those above itself and is met again after them."""
    # the steps' codes, operand slots (an inverse names its one operand
    # twice), and level << 3 | op, 0 for a load
    ops, left, right, keys = bytearray(), array("i"), array("i"), array("i")
    variables, names = {}, {}
    done = {}       # id(node) -> slot, for nodes that roots or also keep
    # (left << 32 | right) << 3 | op -> slot, so structurally equal nodes
    # share a slot; an int key takes half the memory of a tuple
    slot_of = {}
    # id(node) -> the nodes it stands for, its slot the last one's: an
    # Engel expansion, u^v as u*[u,v], or a power unrolled
    also = {}
    out = []
    for root in (_ONE,) if product and not roots else roots:
        stack = [root]
        while stack:
            w = stack[-1]
            slot = done.get(id(w))
            if slot is not None:
                stack.pop()
                continue
            t = type(w)
            if t is Comm or t is Prod:
                a, b = done.get(id(w.left)), done.get(id(w.right))
                if a is None or b is None:
                    stack += w.right, w.left
                    continue
                op = _COMM if t is Comm else _MUL
            elif t is Inv:
                a = b = done.get(id(w.body))
                if a is None:
                    stack.append(w.body)
                    continue
                op = _INV
            elif t is Var:
                op, a, b = _LOAD_VAR, variables.setdefault(
                    w.index, len(variables)), 0
            elif t is Const:
                op, a, b = _LOAD_CONST, names.setdefault(w.name, len(names)), 0
            elif w is _ONE:
                op, a, b = _IDENTITY, 0, 0
            elif id(w) in also:
                slot = done[id(w)] = done[id(also[id(w)][-1])]
                stack.pop()
                continue
            else:
                also[id(w)] = seq = (
                    (expand_engel(w),) if t is Engel else
                    (Prod(w.base, Comm(w.base, w.by)),) if t is Conj else
                    _unrolled(w) if t is Pow else None)
                if seq is None:
                    raise TypeError(f"not a word node: {w!r}")
                stack += reversed(seq)
                continue
            stack.pop()
            key = (a << 32 | b) << 3 | op
            slot = slot_of.setdefault(key, len(ops))
            if slot == len(ops):
                ops.append(op)
                left.append(a)
                right.append(b)
                if op < _INV:
                    keys.append(0)
                else:
                    a, b = keys[a], keys[b]
                    keys.append(((a if a > b else b) | 7) + 1 | op)
            done[id(w)] = slot
        out.append(slot)
    del done, slot_of, also     # the walk's tables go before the schedule's
    # a balanced fold, adjacent pairs first, adds log2(len(roots)) levels
    # where a running product would add one per root; a fold step is no
    # node, so it shares no slot
    while product and len(out) > 1:
        a, b = out[::2], out[1::2]
        out = [*range(len(ops), len(ops) + len(b)), *a[len(b):]]
        ops.extend(bytes((_MUL,)) * len(b))
        left.extend(a[:len(b)])
        right.extend(b)
        keys.extend([((a if a > b else b) | 7) + 1 | _MUL for a, b in zip(
            map(keys.__getitem__, a), map(keys.__getitem__, b))])
    prog = _schedule(ops, left, right, keys, out)
    prog.variables, prog.names = tuple(variables), tuple(names)
    return prog


def _schedule(ops, left, right, keys, roots):
    """The Program of compiled steps renumbered into phases: the loads in
    slot order, then one group per (level, op) key, in slot order within
    a group.  An operand has a lower level than its reader, so an earlier
    phase writes it."""
    n = len(ops)
    order = sorted(range(n), key=keys.__getitem__)      # stable
    # step s moves to slot new[s]; the loads' phase comes first, even when
    # empty, then one phase per key
    new, starts, key = [0] * n, [0], 0
    for i, s in enumerate(order):
        new[s] = i
        if keys[s] != key:
            key = keys[s]
            starts.append(i)
    starts.append(n)
    loads = starts[1]
    prog = Program()
    prog.ops = bytearray(map(ops.__getitem__, order))
    prog.left, prog.right = (
        array("i", [side[s] for s in order[:loads]]
              + [new[side[s]] for s in order[loads:]])
        for side in (left, right))
    prog.roots = tuple([new[r] for r in roots])
    prog.starts = array("i", starts)
    del new, order      # lists of an int object per step
    # the slot of each slot's last reader, itself when nobody reads it and
    # n for a root; the readers come in slot order
    last = list(range(n))
    for i, a, b in zip(range(loads, n), prog.left[loads:],
                       prog.right[loads:]):
        last[a] = last[b] = i
    for r in prog.roots:
        last[r] = n
    # phase p frees the slots whose last reader it writes
    ends = sorted(last)
    prog.free_starts = array("i", [bisect_left(ends, b) for b in starts])
    prog.frees = array("i", sorted(range(n), key=last.__getitem__)[
        :prog.free_starts[-1]])
    return prog


# Largest order whose columns are bytes: two element indices of w = 5
# bits make a 10-bit key, whose low byte goes through one of 4 pages
PACKED_ORDER_BOUND = 32


def _packed_tables(G):
    """The translate tables of a group of order at most 32.  An element
    takes w = 4 bits up to order 16 and w = 5 above, and the key
    a << w | b splits into its low byte ((a mod 2^(8-w)) << w) | b and its
    page a >> (8-w), one page up to order 16 and four above.  The tables
    are a -> (a mod 2^(8-w)) << w, a -> a^-1, and per page a*b and
    [a,b] at the low byte, each paired with the page's indicator, a ->
    0xFF on the page's a and 0x00 elsewhere, as _paged_lanes takes them.
    Entries past the order are 0."""
    n = G.order
    w = max(4, (n - 1).bit_length())
    shift = 8 - w
    products, commutators = [], []
    for page in range(1 << (2 * w - 8)):
        product, commutator = bytearray(256), bytearray(256)
        for a in range(page << shift, min(n, (page + 1) << shift)):
            base = (a - (page << shift)) << w
            for b, ab in enumerate(G.table[a]):
                product[base | b] = ab
                commutator[base | b] = G.comm(a, b)
        indicator = bytes(255 if a >> shift == page else 0
                          for a in range(256))
        products.append((bytes(product), indicator))
        commutators.append((bytes(commutator), indicator))
    return (bytes((a & ((1 << shift) - 1)) << w for a in range(256)),
            bytes(G.inverses) + bytes(256 - n), tuple(products),
            tuple(commutators))


class _PackedColumns:
    """Column arithmetic of a table-backed group of order at most 32, on
    bytes columns.  A product or commutator packs the operands' key into
    its low byte, shifting A by one translate and merging it into B
    through int.from_bytes and |, and translates that through the page's
    256-byte table.  Up to order 16 there is one page and that is all.
    Above it each of the 4 pages' translates is ANDed with its indicator
    translated from A, and the pages are ORed together as int.from_bytes
    lanes.  An inverse is one translate.  The tables are built once per
    group and kept in G._packed."""

    column = bytes
    join = b"".join

    def __init__(self, G):
        self.group = G
        if G._packed is None:
            G._packed = _packed_tables(G)
        self._high, self._inverse, products, commutators = G._packed
        if len(products) == 1:
            ((self._product, _),), ((self._commutator, _),) = (
                products, commutators)
        else:
            self.mul = partial(self._paged, products)
            self.comm = partial(self._paged, commutators)

    @staticmethod
    def fill(value, length):
        return bytes((value,)) * length

    def _pack(self, A, B):
        return (int.from_bytes(A.translate(self._high), "little")
                | int.from_bytes(B, "little")).to_bytes(len(A), "little")

    def mul(self, A, B):
        return self._pack(A, B).translate(self._product)

    def inv(self, A):
        return A.translate(self._inverse)

    def comm(self, A, B):
        return self._pack(A, B).translate(self._commutator)

    def _paged(self, pages, A, B):
        """The pack of A and B through each page's product or commutator
        table, kept where A is on the page."""
        return _paged_lanes(self._pack(A, B), A, pages).to_bytes(
            len(A), "little")


class _ListColumns:
    """List columns: a list is read as it is, any other column copied."""

    @staticmethod
    def column(values):
        return values if type(values) is list else list(values)

    @staticmethod
    def fill(value, length):
        return [value] * length

    @staticmethod
    def join(columns):
        return list(chain.from_iterable(columns))


class _TableColumns(_ListColumns):
    """Column arithmetic of a table-backed group of order above 32, and the
    oracle of the bytes columns below that: every step is a C-level
    gather through the table rows.  Once the commutators asked for reach
    the table's size, a commutator table is built; it lives as long as
    this object, which is one call."""

    def __init__(self, G):
        self.group = G
        self._rows = G.table.__getitem__
        self._inverse = G.inverses.__getitem__
        self._comm_rows = None
        self._asked = 0

    def mul(self, A, B):
        return list(map(getitem, map(self._rows, A), B))

    def inv(self, A):
        return list(map(self._inverse, A))

    def comm(self, A, B):
        if self._comm_rows is None:
            self._asked += len(A)
            rows, inverse = self._rows, self._inverse
            if self._asked < self.group.order ** 2:
                ba = map(getitem, map(rows, B), A)
                ab = map(getitem, map(rows, A), B)
                return list(map(getitem, map(rows, map(inverse, ba)), ab))
            # [a,b] = (b*a)^-1 * (a*b); column a of the table is b*a
            self._comm_rows = tuple(
                tuple(map(getitem, map(rows, map(inverse, ba)), rows(a)))
                for a, ba in enumerate(zip(*self.group.table))).__getitem__
        return list(map(getitem, map(self._comm_rows, A), B))


class _MappedColumns(_ListColumns):
    """Column arithmetic through the group's own mul, inv and comm, for a
    componentwise product (no table; row(a) would build a whole row)."""

    def __init__(self, G):
        self.group = G

    def mul(self, A, B):
        return list(map(self.group.mul, A, B))

    def inv(self, A):
        return list(map(self.group.inv, A))

    def comm(self, A, B):
        return list(map(self.group.comm, A, B))


def column_ops(G):
    """Arithmetic on value columns of G, with column(values) to convert a
    column of element indices to its type and fill(value, length) to
    repeat one element.  Columns are bytes for a table-backed group of
    order at most PACKED_ORDER_BOUND (32, paged above 16) and lists
    otherwise.  One call makes one and shares it among its runs, so a
    commutator table above order 32 is built at most once."""
    if not isinstance(G, TableGroup):
        return _MappedColumns(G)
    if G.order <= PACKED_ORDER_BOUND:
        return _PackedColumns(G)
    return _TableColumns(G)


def run_program(program, ops, columns, length, constants=None):
    """The root value columns of a program over length rows, all of the
    column type of ops.

    columns[i] is the column of x(i+1), a list or bytes of length element
    indices; constants maps a name to an element or to such a column.
    Names resolve through resolve_constant, ``#`` literals first.  The
    loads run first, in slot order, so the first missing variable or
    constant raises.  Each later phase is one kernel call over its steps'
    operand columns joined end to end, its result cut back into one
    column per step, and each column is dropped after the phase that
    reads it last.
    """
    G, column, fill = ops.group, ops.column, ops.fill
    kernels = (None, None, None, ops.inv, ops.mul, ops.comm)
    codes, left, right, starts, frees, free_starts = (
        program.ops, program.left, program.right, program.starts,
        program.frees, program.free_starts)
    vals = [None] * len(codes)
    for i in range(starts[1]):      # phase 0, the loads
        op, a = codes[i], left[i]
        if op == _LOAD_VAR:
            x = program.variables[a]
            if x >= len(columns):
                raise ArityMismatch(
                    f"word uses x{x + 1} but assignment has "
                    f"{len(columns)} entries")
            vals[i] = column(columns[x])
        elif op == _LOAD_CONST:
            name = program.names[a]
            value = resolve_constant(G, name, constants)
            if not isinstance(value, int):
                vals[i] = column(value)
            elif 0 <= value < G.order:
                vals[i] = fill(value, length)
            else:
                raise UnboundConstant(
                    f"{name} = {value} outside 0..{G.order - 1}")
        else:
            vals[i] = fill(G.identity, length)
    read, join, step = vals.__getitem__, ops.join, length or 1
    for p in range(len(starts) - 1):
        b0, b1 = starts[p], starts[p + 1]
        if p:
            op = codes[b0]
            kernel = kernels[op]
            if b1 - b0 == 1:
                a = vals[left[b0]]
                vals[b0] = kernel(a) if op == _INV else \
                    kernel(a, vals[right[b0]])
            else:
                a = join(map(read, left[b0:b1]))
                out = kernel(a) if op == _INV else \
                    kernel(a, join(map(read, right[b0:b1])))
                # b1 - b0 columns, empty ones too when length is 0
                vals[b0:b1] = [out[i:i + length]
                               for i in range(0, (b1 - b0) * step, step)]
        for i in frees[free_starts[p]:free_starts[p + 1]]:
            vals[i] = None
    return [vals[r] for r in program.roots]


def _at(G, program, assignment, constants):
    (column,) = run_program(program, column_ops(G),
                            [[a] for a in assignment], 1, constants)
    return column[0]


def evaluate(G, w, assignment, constants=None):
    """Value of a word under an assignment (tuple indexed by Var index):
    its compiled program run on one row."""
    return _at(G, compile_words([w]), assignment, constants)


def evaluate_product(G, factors, assignment, constants=None):
    """Product of a factor list, as one compiled program run on one row."""
    return _at(G, compile_words(factors, product=True), assignment, constants)


def expand_engel(w):
    """Rewrite every Engel node into nested commutators.  A subtree with
    no Engel node comes back as the same object, so an Engel-free word is
    returned unchanged."""
    t = type(w)
    if t is Var or t is Const:
        return w
    if t is Inv:
        body = expand_engel(w.body)
        return w if body is w.body else Inv(body)
    if t is Pow:
        base = expand_engel(w.base)
        return w if base is w.base else Pow(base, w.exp)
    if t is Conj:
        base, by = expand_engel(w.base), expand_engel(w.by)
        return w if base is w.base and by is w.by else Conj(base, by)
    if t is Prod or t is Comm:
        left, right = expand_engel(w.left), expand_engel(w.right)
        return w if left is w.left and right is w.right else t(left, right)
    if t is Engel:
        right = expand_engel(w.right)
        node = Comm(expand_engel(w.left), right)
        for _ in range(w.n - 1):
            node = Comm(node, right)
        return node
    raise TypeError(f"not a word node: {w!r}")


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
