"""Finite groups on 0-based element indices.

A group is backed by an explicit Cayley table or is a direct product of
factor groups.  ProductGroup owns the package's one tuple<->index codec
for products and powers (leftmost factor most significant).  A product's
rows (row(h): h*z for every z) are folded from the factor rows;
direct_product and power fold each row on first use and keep it up to
1024 elements, and multiply componentwise above that.  All derived
machinery (centralizers, central series, quotients, automorphisms) lives
here as module-level functions.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import partial

from .errors import (
    NotAGroup,
    NotAPermutation,
    NotASubgroup,
    NotNormal,
    OrderBound,
)

__all__ = [
    "Group",
    "TableGroup",
    "ProductGroup",
    "Subset",
    "Homomorphism",
    "McWitness",
    "VALIDATION_BOUND",
    "INDEX_BOUND",
    "from_cayley_table",
    "from_permutation_generators",
    "direct_product",
    "projections",
    "power",
    "quotient",
    "center",
    "centralizer",
    "subgroup_generated",
    "normal_closure",
    "conjugacy_classes",
    "class_count",
    "lower_central_series",
    "upper_central_series",
    "nilpotency_class",
    "exponent",
    "derived_subgroup",
    "is_abelian",
    "is_2_engel",
    "max_centralizer_index",
    "automorphism_group",
    "inner_automorphisms",
    "trivial_action",
    "mc_witness",
    "image_subset",
    "preimage_subset",
    "is_subgroup",
    "subgroup_as_group",
    "cycle_name",
]

VALIDATION_BOUND = 512
INDEX_BOUND = 1 << 26
TABLE_MATERIALIZE_BOUND = 1024
PERM_CLOSURE_CAP = 2048
AUTOMORPHISM_ORDER_BOUND = 64
AUTOMORPHISM_GENERATOR_BOUND = 3
MC_SUBSET_CAP = 1_000_000


def _read_number(digits, bound=999_999_999):
    """A string of decimal digits as an int, or None past bound.  The
    default is past every size cap and every element order; int() would
    not even read a few thousand digits."""
    if len(digits.lstrip("0")) > len(str(bound)):
        return None
    n = int(digits)
    return n if n <= bound else None


class Group:
    """Base class: a finite group on indices 0..order-1."""

    order: int
    identity: int
    names: tuple | None
    label: str

    def __init__(self):
        self._powers = {}
        # cover decisions by subset bits, kept by largeness.is_k_generic
        self._decisions = {}
        # translate tables of the bytes column arithmetic, built by
        # words.column_ops on first use at order 16 or less
        self._packed = None

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def row(self, h):
        """The products h*z for every element z, in index order."""
        raise NotImplementedError

    def conj(self, a, b):
        """a conjugated by b, that is b^-1 * a * b."""
        return self.mul(self.mul(self.inv(b), a), b)

    def comm(self, a, b):
        """The commutator a^-1 * b^-1 * a * b."""
        return self.mul(self.inv(self.mul(b, a)), self.mul(a, b))

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            k >>= 1
        return acc

    def element_order(self, a):
        acc, k = a, 1
        while acc != self.identity:
            acc = self.mul(acc, a)
            k += 1
        return k

    def name(self, a):
        if self.names is not None:
            return self.names[a]
        return str(a)

    def element_by_name(self, text):
        """The element that name() calls text, or None."""
        if self.names is not None:
            try:
                return self.names.index(text)
            except ValueError:
                return None
        a = _read_number(text, self.order - 1) if text.isdecimal() else None
        return a if str(a) == text else None

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"<Group {self.label} order {self.order}>"


class TableGroup(Group):
    """Group backed by an explicit multiplication table."""

    def __init__(self, table, names=None, label="G", validate=True,
                 assoc_bound=VALIDATION_BOUND):
        super().__init__()
        rows = tuple(tuple(int(v) for v in row) for row in table)
        n = len(rows)
        if n == 0:
            raise NotAGroup("empty table")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NotAGroup(f"row {i} has length {len(row)}, expected {n}",
                                witness=(i,))
            for j, v in enumerate(row):
                if not 0 <= v < n:
                    raise NotAGroup(
                        f"entry ({i},{j}) = {v} is outside 0..{n - 1}",
                        witness=(i, j))
        self.order = n
        self.table = rows
        self.names = tuple(names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise NotAGroup(f"{len(self.names)} names for {n} elements")
        self.label = label
        self.identity = self._find_identity()
        if validate:
            self._check_latin()
        self.inverses = self._find_inverses()
        if validate and n <= assoc_bound:
            self._check_associative()

    def _find_identity(self):
        ident = tuple(range(self.order))
        for e, row in enumerate(self.table):
            if row == ident and all(self.table[g][e] == g
                                    for g in range(self.order)):
                return e
        raise NotAGroup("no two-sided identity element")

    def _check_latin(self):
        n = self.order
        full = set(range(n))
        for i, row in enumerate(self.table):
            if set(row) != full:
                raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}",
                                witness=(i,))
        for j in range(n):
            col = {self.table[i][j] for i in range(n)}
            if col != full:
                raise NotAGroup(
                    f"column {j} is not a permutation of 0..{n - 1}",
                    witness=(j,))

    def _find_inverses(self):
        e = self.identity
        out = []
        for g, row in enumerate(self.table):
            try:
                h = row.index(e)
            except ValueError:
                raise NotAGroup(f"element {g} has no right inverse",
                                witness=(g,)) from None
            if self.table[h][g] != e:
                raise NotAGroup(f"inverse of {g} is one-sided",
                                witness=(g, h))
            out.append(h)
        return tuple(out)

    def _check_associative(self):
        t = self.table
        for a in range(self.order):
            ta = t[a]
            for b in range(self.order):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(self.order):
                    if tab[c] != ta[tb[c]]:
                        raise NotAGroup(
                            f"associativity fails at ({a},{b},{c})",
                            witness=(a, b, c))

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]

    def row(self, h):
        return self.table[h]


class ProductGroup(Group):
    """Direct product of factor groups.

    Element index is mixed-radix with the leftmost factor most significant,
    matching itertools.product order over the factor element ranges.
    encode, decode and tuples are the package's one tuple<->index codec,
    and an element is named "(a,b,...)" from its components' names.
    A ProductGroup built directly multiplies componentwise and keeps no
    rows; direct_product and power fold each row on first use and keep it
    up to TABLE_MATERIALIZE_BOUND elements.
    """

    def __init__(self, factors, label=None):
        super().__init__()
        self.factors = tuple(factors)
        order = math.prod(f.order for f in self.factors)
        if order > INDEX_BOUND:
            raise OrderBound(
                f"product order {order} exceeds index bound {INDEX_BOUND}")
        self.order = order
        strides = []
        acc = 1
        for f in reversed(self.factors):
            strides.append(acc)
            acc *= f.order
        self.strides = tuple(reversed(strides))
        self.identity = self.encode(tuple(f.identity for f in self.factors))
        self.names = None
        if label is None:
            label = "x".join(f.label for f in self.factors) if self.factors else "C1"
        self.label = label

    def decode(self, g):
        out = []
        for f, s in zip(self.factors, self.strides):
            out.append((g // s) % f.order)
        return tuple(out)

    def encode(self, parts):
        acc = 0
        for v, s in zip(parts, self.strides):
            acc += v * s
        return acc

    def tuples(self):
        """Every element as a tuple of factor elements, in index order."""
        return itertools.product(*(range(f.order) for f in self.factors))

    def mul(self, a, b):
        acc = 0
        for f, s in zip(self.factors, self.strides):
            acc += f.mul((a // s) % f.order, (b // s) % f.order) * s
        return acc

    def inv(self, a):
        acc = 0
        for f, s in zip(self.factors, self.strides):
            acc += f.inv((a // s) % f.order) * s
        return acc

    def row(self, h):
        """Row h folded from the factor rows of decode(h), one factor F of
        order n at a time: (p, x) in P x F has index p * n + x.  The fold
        starts from the first factor's own row, which saves a copy."""
        if not self.factors:
            return (0,)
        parts = self.decode(h)
        row = self.factors[0].row(parts[0])
        for f, v in zip(self.factors[1:], parts[1:]):
            n = f.order
            row = tuple(t * n + x for t in row for x in f.row(v))
        return row

    def name(self, a):
        return _joined_name(
            f.name(v) for f, v in zip(self.factors, self.decode(a)))

    def element_by_name(self, text):
        """Resolve "(a,b,...)" component by component; a comma inside
        unbalanced parentheses belongs to a component."""
        if not self.factors:
            return self.identity if text == "()" else None
        if not (text.startswith("(") and text.endswith(")")):
            return None
        parts = []
        for piece in text[1:-1].split(","):
            if parts and parts[-1].count("(") != parts[-1].count(")"):
                parts[-1] += "," + piece
            else:
                parts.append(piece)
        if len(parts) != len(self.factors):
            return None
        values = [f.element_by_name(p) for f, p in zip(self.factors, parts)]
        if None in values:
            return None
        return self.encode(values)


def _joined_name(parts):
    return "(" + ",".join(parts) + ")"


class _TabledProduct(TableGroup, ProductGroup):
    """A product that keeps its rows: each row is folded by ProductGroup.row
    the first time row(h) or mul(h, z) asks for it and packed, as bytes up
    to order 256 and as 16-bit array('H') above, so an entry costs one or
    two bytes rather than a pointer, or a pointer and an int object of its
    own past 256.  The ProductGroup codec gives tuples, and elements are
    named by their components."""

    def __init__(self, factors, label=None):
        ProductGroup.__init__(self, factors, label)
        self._rows = [None] * self.order
        self._pack = bytes if self.order <= 256 else partial(array, "H")
        # the inverse of (a, b, ...) is (a^-1, b^-1, ...), folded as rows are
        inverses = (0,)
        for f in self.factors:
            n = f.order
            column = [f.inv(x) for x in range(n)]
            inverses = tuple(t * n + x for t in inverses for x in column)
        self.inverses = inverses
        self.names = tuple(map(_joined_name, itertools.product(
            *([f.name(v) for v in range(f.order)] for f in self.factors))))

    def row(self, h):
        row = self._rows[h]
        if row is None:
            row = self._rows[h] = self._pack(ProductGroup.row(self, h))
        return row

    def mul(self, a, b):
        return self.row(a)[b]

    @property
    def table(self):
        """Every row in index order, folding those not asked for yet."""
        return tuple(map(self.row, range(self.order)))


@dataclass(frozen=True)
class Subset:
    """Subset of a group's elements as a bit vector (bit i = element i)."""

    parent: Group
    bits: int

    @classmethod
    def from_indices(cls, parent, indices):
        bits = 0
        for i in indices:
            if not 0 <= i < parent.order:
                raise IndexError(f"element {i} outside 0..{parent.order - 1}")
            bits |= 1 << i
        return cls(parent, bits)

    @classmethod
    def full(cls, parent):
        return cls(parent, (1 << parent.order) - 1)

    @classmethod
    def empty(cls, parent):
        return cls(parent, 0)

    @property
    def size(self):
        return self.bits.bit_count()

    def contains(self, i):
        return (self.bits >> i) & 1 == 1

    def complement(self):
        return Subset(self.parent, self.bits ^ ((1 << self.parent.order) - 1))

    def elements(self):
        m = self.bits
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def indices(self):
        return list(self.elements())

    def __iter__(self):
        return self.elements()

    def __len__(self):
        return self.size

    def __contains__(self, i):
        return self.contains(i)


class Homomorphism:
    """Map between groups given elementwise; validated unless told not to."""

    def __init__(self, source, target, mapping, validate=True):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != source.order:
            raise NotAGroup(
                f"map has {len(self.mapping)} entries for order {source.order}")
        if validate:
            if self.mapping[source.identity] != target.identity:
                raise NotAGroup("map does not send identity to identity")
            for a in range(source.order):
                for b in range(source.order):
                    if self.mapping[source.mul(a, b)] != target.mul(
                            self.mapping[a], self.mapping[b]):
                        raise NotAGroup(
                            f"map is not multiplicative at ({a},{b})",
                            witness=(a, b))

    def __call__(self, a):
        return self.mapping[a]

    def __repr__(self):
        return f"<Hom {self.source.label} -> {self.target.label}>"


def from_cayley_table(table, names=None, label="G", validate=True):
    return TableGroup(table, names=names, label=label, validate=validate)


def _check_permutation(perm, degree):
    if len(perm) != degree or sorted(perm) != list(range(degree)):
        raise NotAPermutation(
            f"{perm} is not a permutation of 0..{degree - 1}")


def cycle_name(perm):
    """Disjoint-cycle string for a permutation tuple, 1-based points."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = perm[j]
        parts.append("(" + " ".join(str(p) for p in cyc) + ")")
    return "".join(parts) if parts else "e"


def from_permutation_generators(degree, generators, label=None,
                                cap=PERM_CLOSURE_CAP):
    """Closure of the generators under composition, identity first."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        _check_permutation(g, degree)
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        p = queue.pop(0)
        for g in gens:
            q = tuple(p[g[i]] for i in range(degree))
            if q not in index:
                if len(elems) >= cap:
                    raise OrderBound(
                        f"permutation closure exceeds cap {cap}")
                index[q] = len(elems)
                elems.append(q)
                queue.append(q)
    if label is None:
        label = f"perm{degree}<{len(elems)}>"
    return _composition_group(elems, tuple(map(cycle_name, elems)), label)


def _composition_group(perms, names, label):
    """Distinct permutation tuples as a group: element i times element j
    is perms[i] after perms[j].  NotAGroup when the set is not closed."""
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        try:
            table.append([index[tuple(p[i] for i in q)] for q in perms])
        except KeyError:
            raise NotAGroup("permutation set is not closed under "
                            "composition") from None
    return TableGroup(table, names=names, label=label, validate=False)


def _product(factors, label):
    """The one size rule for built products: rows folded from the factor
    rows on first use and kept up to TABLE_MATERIALIZE_BOUND elements,
    componentwise multiplication above it."""
    if math.prod(f.order for f in factors) <= TABLE_MATERIALIZE_BOUND:
        return _TabledProduct(factors, label)
    return ProductGroup(factors, label)


def direct_product(*factors, label=None):
    return _product(factors, label)


def projections(P):
    """Coordinate projections of a direct product, as Homomorphisms."""
    if not isinstance(P, ProductGroup):
        raise NotAGroup(f"{P.label} was not built as a direct product")
    columns = zip(*P.tuples())
    return [Homomorphism(P, f, column, validate=False)
            for f, column in zip(P.factors, columns)]


def power(G, n):
    """Direct power G^n, cached on G.  n = 0 gives the trivial group."""
    if n < 0:
        raise OrderBound("negative power")
    cached = G._powers.get(n)
    if cached is None:
        cached = G if n == 1 else _product((G,) * n, f"{G.label}^{n}")
        G._powers[n] = cached
    return cached


def is_subgroup(G, sub):
    bits = sub.bits if isinstance(sub, Subset) else Subset.from_indices(G, sub).bits
    if not (bits >> G.identity) & 1:
        return False
    elems = list(Subset(G, bits).elements())
    for a in elems:
        if not (bits >> G.inv(a)) & 1:
            return False
        for b in elems:
            if not (bits >> G.mul(a, b)) & 1:
                return False
    return True


def subgroup_as_group(G, sub, label=None):
    """Reindex a subgroup subset as a standalone group.

    Returns (group, elements) where elements[i] is the parent index of
    the subgroup's element i.
    """
    elems = sorted(sub.elements() if isinstance(sub, Subset) else sub)
    if not is_subgroup(G, Subset.from_indices(G, elems)):
        raise NotASubgroup(f"{elems} is not a subgroup of {G.label}")
    pos = {g: i for i, g in enumerate(elems)}
    table = [[pos[G.mul(a, b)] for b in elems] for a in elems]
    names = tuple(G.name(g) for g in elems) if G.names is not None else None
    if label is None:
        label = f"sub({G.label},{len(elems)})"
    return TableGroup(table, names=names, label=label, validate=False), elems


def center(G):
    n = G.order
    bits = 0
    for g in range(n):
        if all(G.mul(g, h) == G.mul(h, g) for h in range(n)):
            bits |= 1 << g
    return Subset(G, bits)


def centralizer(G, sub):
    elems = list(sub.elements() if isinstance(sub, Subset) else sub)
    bits = 0
    for g in range(G.order):
        if all(G.mul(g, s) == G.mul(s, g) for s in elems):
            bits |= 1 << g
    return Subset(G, bits)


def subgroup_generated(G, gens):
    gens = list(gens.elements() if isinstance(gens, Subset) else gens)
    bits = 1 << G.identity
    frontier = [G.identity]
    for g in gens:
        if not (bits >> g) & 1:
            bits |= 1 << g
            frontier.append(g)
    queue = list(frontier)
    while queue:
        a = queue.pop()
        for g in gens:
            b = G.mul(a, g)
            if not (bits >> b) & 1:
                bits |= 1 << b
                queue.append(b)
    return Subset(G, bits)


def normal_closure(G, gens):
    gens = list(gens.elements() if isinstance(gens, Subset) else gens)
    current = set(gens)
    while True:
        conjs = {G.conj(a, g) for a in current for g in range(G.order)}
        sub = subgroup_generated(G, conjs | current)
        new = set(sub.elements())
        if new == current:
            return sub
        current = new


def conjugacy_classes(G):
    """Classes as sorted lists, ordered by their minimal element."""
    seen = 0
    out = []
    for g in range(G.order):
        if (seen >> g) & 1:
            continue
        orbit = {G.conj(g, h) for h in range(G.order)}
        for x in orbit:
            seen |= 1 << x
        out.append(sorted(orbit))
    return out


def class_count(G):
    return len(conjugacy_classes(G))


def is_abelian(G):
    n = G.order
    return all(G.mul(a, b) == G.mul(b, a)
               for a in range(n) for b in range(a + 1, n))


def lower_central_series(G):
    """[G, [G,G], [[G,G],G], ...] down to the first repetition."""
    series = [Subset.full(G)]
    while True:
        prev = series[-1]
        gens = {G.comm(a, g) for a in prev.elements() for g in range(G.order)}
        nxt = subgroup_generated(G, gens)
        if nxt.bits == prev.bits:
            return series
        series.append(nxt)


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


def nilpotency_class(G):
    series = lower_central_series(G)
    last = series[-1]
    if last.size == 1 and last.contains(G.identity):
        return len(series) - 1
    return None


def exponent(G):
    acc = 1
    for g in range(G.order):
        acc = math.lcm(acc, G.element_order(g))
    return acc


def derived_subgroup(G):
    gens = {G.comm(a, b) for a in range(G.order) for b in range(G.order)}
    return subgroup_generated(G, gens)


def is_2_engel(G):
    """True when [[x,y],y] is trivial for all x, y."""
    e = G.identity
    for x in range(G.order):
        for y in range(G.order):
            if G.comm(G.comm(x, y), y) != e:
                return False
    return True


def max_centralizer_index(G):
    worst = 1
    for g in range(G.order):
        c = centralizer(G, [g])
        worst = max(worst, G.order // c.size)
    return worst


def quotient(G, N):
    """Quotient by a normal subgroup subset.

    Returns (Q, projection).  Coset representatives are minimal indices, so
    scanning elements in order assigns coset ids deterministically.
    """
    if not isinstance(N, Subset):
        N = Subset.from_indices(G, N)
    if not is_subgroup(G, N):
        raise NotASubgroup(f"subset of size {N.size} is not a subgroup")
    nelems = list(N.elements())
    for g in range(G.order):
        for x in nelems:
            if not N.contains(G.conj(x, g)):
                raise NotNormal(
                    f"conjugate of {x} by {g} leaves the subgroup",
                    witness=(g, x))
    coset_id = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_id[g] >= 0:
            continue
        cid = len(reps)
        reps.append(g)
        for x in nelems:
            coset_id[G.mul(g, x)] = cid
    table = [[coset_id[G.mul(a, b)] for b in reps] for a in reps]
    names = None
    if G.names is not None:
        names = tuple(f"{G.name(r)}N" for r in reps)
    Q = TableGroup(table, names=names, label=f"{G.label}/N{N.size}",
                   validate=False)
    proj = Homomorphism(G, Q, coset_id, validate=G.order <= VALIDATION_BOUND)
    return Q, proj


def image_subset(phi, X):
    bits = 0
    for x in X.elements():
        bits |= 1 << phi(x)
    return Subset(phi.target, bits)


def preimage_subset(phi, Y):
    bits = 0
    for x in range(phi.source.order):
        if Y.contains(phi(x)):
            bits |= 1 << x
    return Subset(phi.source, bits)


def _greedy_generators(G):
    """Small generating set: repeatedly add the element that grows the
    generated subgroup the most (ties to the smaller index)."""
    gens = []
    current = subgroup_generated(G, [])
    while current.size < G.order:
        best = None
        best_size = current.size
        for g in range(G.order):
            if current.contains(g):
                continue
            grown = subgroup_generated(G, gens + [g]).size
            if grown > best_size:
                best, best_size = g, grown
        gens.append(best)
        current = subgroup_generated(G, gens)
    return gens


def _action_group(maps, label):
    """Distinct automorphism tuples, sorted, as a group under composition,
    together with that sorted tuple of maps."""
    maps = tuple(sorted(set(maps)))
    names = tuple(f"a{i}" for i in range(len(maps)))
    return _composition_group(maps, names, label), maps


def automorphism_group(G):
    """All automorphisms by brute force over generator images.

    Returns (A, action) where action[i] is the i-th automorphism as an
    element tuple and A multiplies by composition: action[A.mul(i,j)] is
    action[i] after action[j].
    """
    if G.order > AUTOMORPHISM_ORDER_BOUND:
        raise OrderBound(
            f"order {G.order} exceeds automorphism bound "
            f"{AUTOMORPHISM_ORDER_BOUND}")
    gens = _greedy_generators(G)
    if len(gens) > AUTOMORPHISM_GENERATOR_BOUND:
        raise OrderBound(
            f"{len(gens)} generators exceed bound "
            f"{AUTOMORPHISM_GENERATOR_BOUND}")
    orders = [G.element_order(g) for g in range(G.order)]
    candidate_lists = [
        [h for h in range(G.order) if orders[h] == orders[g]] for g in gens]
    # breadth-first expressions of every element over the generators
    parent = [-1] * G.order
    via = [-1] * G.order
    bfs = [G.identity]
    seen = {G.identity}
    for x in bfs:
        for gi, g in enumerate(gens):
            y = G.mul(x, g)
            if y not in seen:
                seen.add(y)
                parent[y] = x
                via[y] = gi
                bfs.append(y)
    maps = []
    n = G.order
    for images in itertools.product(*candidate_lists):
        m = [-1] * n
        m[G.identity] = G.identity
        for y in bfs[1:]:
            m[y] = G.mul(m[parent[y]], images[via[y]])
        if len(set(m)) != n:
            continue
        # m(a*g) = m(a)*m(g) for every generator g gives m(a*b) = m(a)*m(b)
        # by induction on the length of b as a word in the generators
        if all(m[G.mul(a, g)] == G.mul(m[a], image)
               for g, image in zip(gens, images) for a in range(n)):
            maps.append(tuple(m))
    return _action_group(maps, f"Aut({G.label})")


def inner_automorphisms(G):
    maps = set()
    for a in range(G.order):
        maps.add(tuple(G.conj(g, a) for g in range(G.order)))
    return _action_group(maps, f"Inn({G.label})")


def trivial_action(G):
    ident = tuple(range(G.order))
    return _action_group([ident], f"Id({G.label})")


@dataclass(frozen=True)
class McWitness:
    """Minimal sets pinning the center at each level of the upper central
    quotient tower: centralizing witness_sets[i] inside G/Z_i cuts exactly
    the center of G/Z_i.  s is the largest witness size."""

    class_bound: int
    witness_sets: tuple
    s: int


def mc_witness(G, k, subset_cap=MC_SUBSET_CAP):
    """Witness sets for levels 0..k-1 of the central quotient tower."""
    if k < 1:
        raise OrderBound("need k >= 1")
    Q = G
    sets = []
    worst = 0
    for _ in range(k):
        z = center(Q)
        cmask = [centralizer(Q, [g]).bits for g in range(Q.order)]
        non_central = [g for g in range(Q.order) if not z.contains(g)]
        full = (1 << Q.order) - 1
        found = None
        examined = 0
        for size in range(len(non_central) + 1):
            for combo in itertools.combinations(non_central, size):
                examined += 1
                if examined > subset_cap:
                    raise OrderBound(
                        f"witness subset search exceeds cap {subset_cap}")
                acc = full
                for g in combo:
                    acc &= cmask[g]
                if acc == z.bits:
                    found = combo
                    break
            if found is not None:
                break
        sets.append(tuple(found))
        worst = max(worst, len(found))
        Q = quotient(Q, z)[0]
    return McWitness(class_bound=k, witness_sets=tuple(sets), s=worst)
