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
variable.  A column is bytes for a table-backed group of order at most
16: each step is a few C-level calls over the whole column, an inverse
one bytes.translate, a product or commutator the operands packed as
(a << 4) | b and translated through a 256-byte table, the tables kept
on the group in G._packed.  A column is a list otherwise: a larger
table-backed group gathers each product through its table rows, a
componentwise product maps its own mul.  evaluate and evaluate_product
run the same program on a single row.

compile_words keeps its last COMPILE_CACHE_SIZE programs with their
roots, least recently used evicted first, and serves one again when it is
asked for the same root objects (identity, not equality) with the same
product flag: a factor list checked in several groups compiles once.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from operator import getitem, is_

from .errors import (
    ArityMismatch,
    NotAProductOfSupercommutators,
    ParseError,
    UnboundConstant,
)
from .group import TableGroup, _read_number

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
    "flatten_product",
    "is_supercommutator",
    "move_constants_right",
    "IDENTITY_WORD",
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


IDENTITY_WORD = Const("#e")

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
# frames per bracket level, and to_text, word_constants, expand_engel and
# flatten_product recurse a frame or two per tree level, so an accepted
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
    if constants and name in constants:
        return constants[name]
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
    raise UnboundConstant(f"constant {name!r} has no binding")


# Steps of a compiled program.  Step i writes slot i; the operands of the
# steps from _INV on are earlier slots.
_LOAD_VAR, _LOAD_CONST, _IDENTITY, _INV, _MUL, _COMM = range(6)


class Program:
    """Root words compiled into a straight-line program: parallel arrays
    of step codes and operand slots, the slots to drop after each step
    (bit 1 the left operand, bit 2 the right), the variable indices and
    constant names that the loads number, and the root slots."""

    __slots__ = ("ops", "left", "right", "drops", "variables", "names",
                 "roots")


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
    reach first.  With product=True the roots are folded into a running
    product as each is finished, and that product is the one root.

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


def _compile(roots, product):
    """compile_words without its cache."""
    ops, left, right = bytearray(), array("i"), array("i")
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
        return slot

    def power(a, k):
        if k == 0:
            return emit(_IDENTITY)
        if k < 0:
            a, k = emit(_INV, a), -k
        acc = None
        while True:
            if k & 1:
                acc = a if acc is None else emit(_MUL, acc, a)
            k >>= 1
            if not k:
                return acc
            a = emit(_MUL, a, a)

    expansions = []     # Engel expansions, alive while their ids are keys
    out, acc = [], None
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
                slot = emit(_INV, *s)
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
        slot = done[id(root)]
        if not product:
            out.append(slot)
        else:       # a fold step is no node, so it skips the table
            acc = slot if acc is None else emit(_MUL, acc, slot, False)
    if product:
        out = [emit(_IDENTITY) if acc is None else acc]
    # walking back, the first read of a slot met is its last use; the
    # caller reads the roots
    used = bytearray(len(ops))
    for slot in out:
        used[slot] = 1
    drops = bytearray(len(ops))
    for i in range(len(ops) - 1, -1, -1):
        if ops[i] >= _INV and not used[left[i]]:
            used[left[i]] = 1
            drops[i] = 1
        if ops[i] >= _MUL and not used[right[i]]:
            used[right[i]] = 1
            drops[i] |= 2
    prog = Program()
    prog.ops, prog.left, prog.right, prog.drops = ops, left, right, drops
    prog.variables, prog.names = tuple(variables), tuple(names)
    prog.roots = tuple(out)
    return prog


# Largest order whose element indices pack two to a byte
PACKED_ORDER_BOUND = 16


def _packed_tables(G):
    """The translate tables of a group of order at most 16: a -> a << 4,
    a -> a^-1, and a*b and [a,b] at the byte (a << 4) | b.  Entries past
    the order are 0."""
    n = G.order
    product, commutator = bytearray(256), bytearray(256)
    for a, row in enumerate(G.table):
        for b, ab in enumerate(row):
            product[a << 4 | b] = ab
            commutator[a << 4 | b] = G.comm(a, b)
    return (bytes((a << 4) & 255 for a in range(256)),
            bytes(G.inverses) + bytes(256 - n), bytes(product),
            bytes(commutator))


class _PackedColumns:
    """Column arithmetic of a table-backed group of order at most 16, on
    bytes columns.  A product or commutator packs the operands as
    (a << 4) | b, shifting A by one translate and merging it into B
    through int.from_bytes and |, then translates the packed column
    through a 256-byte table; an inverse is one translate.  The tables
    are built once per group and kept in G._packed."""

    column = bytes

    def __init__(self, G):
        self.group = G
        if G._packed is None:
            G._packed = _packed_tables(G)
        self._high, self._inverse, self._product, self._commutator = \
            G._packed

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


class _ListColumns:
    """List columns: a list is read as it is, any other column copied."""

    @staticmethod
    def column(values):
        return values if type(values) is list else list(values)

    @staticmethod
    def fill(value, length):
        return [value] * length


class _TableColumns(_ListColumns):
    """Column arithmetic of a table-backed group of order above 16: every
    step is a C-level gather through the table rows.  Once the
    commutators asked for reach the table's size, a commutator table is
    built; it lives as long as this object, which is one call."""

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
    order at most PACKED_ORDER_BOUND and lists otherwise.  One call makes
    one and shares it among its runs, so a commutator table above order
    16 is built at most once."""
    if not isinstance(G, TableGroup):
        return _MappedColumns(G)
    if G.order <= PACKED_ORDER_BOUND:
        return _PackedColumns(G)
    return _TableColumns(G)


def run_program(program, ops, columns, length, constants=None):
    """The root value columns of a program over length rows, all of the
    column type of ops.

    columns[i] is the column of x(i+1), a list or bytes of element
    indices; constants maps a name to an element or to such a column.
    Unbound names resolve as literals.  Each column is dropped after its
    last use.
    """
    G = ops.group
    mul, inv, comm, column = ops.mul, ops.inv, ops.comm, ops.column
    left, right, drops, names = (program.left, program.right, program.drops,
                                 program.names)
    vals = [None] * len(program.ops)
    for i, op in enumerate(program.ops):
        a = left[i]
        if op == _MUL:
            vals[i] = mul(vals[a], vals[right[i]])
        elif op == _COMM:
            vals[i] = comm(vals[a], vals[right[i]])
        elif op == _INV:
            vals[i] = inv(vals[a])
        elif op == _LOAD_VAR:
            x = program.variables[a]
            if x >= len(columns):
                raise ArityMismatch(
                    f"word uses x{x + 1} but assignment has "
                    f"{len(columns)} entries")
            vals[i] = column(columns[x])
        elif op == _LOAD_CONST:
            name = names[a]
            value = (constants[name] if constants and name in constants
                     else resolve_constant(G, name))
            if not isinstance(value, int):
                vals[i] = column(value)
            elif 0 <= value < G.order:
                vals[i] = ops.fill(value, length)
            else:
                raise UnboundConstant(
                    f"{name} = {value} outside 0..{G.order - 1}")
        else:
            vals[i] = ops.fill(G.identity, length)
        drop = drops[i]
        if drop & 1:
            vals[a] = None
        if drop & 2:
            vals[right[i]] = None
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


def move_constants_right(eq):
    """Rewrite lhs = rhs so every lhs factor contains a variable.

    Leading constants move to the rhs on the left (inverted), trailing ones
    on the right (inverted), and an interior constant t passes a variable
    factor f by rewriting t*f as f*[f,t^-1]*t.  When no variable factor
    remains the lhs is the identity literal.
    """
    factors = flatten_product(eq.lhs)
    for f in factors:
        if not is_supercommutator(f):
            raise NotAProductOfSupercommutators(
                f"factor {to_text(f)} is not a supercommutator")
    rhs_left = []
    while factors and not factors[0].var_bits:
        rhs_left.append(Inv(factors.pop(0)))
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if not factors[i].var_bits and factors[i + 1].var_bits:
                t, f = factors[i], factors[i + 1]
                factors[i:i + 2] = [f, Comm(f, Inv(t)), t]
                changed = True
                break
    rhs_right = []
    while factors and not factors[-1].var_bits:
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
    return Equation(lhs, rhs)
