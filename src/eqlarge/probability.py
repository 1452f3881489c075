"""Solution sets of word equations and the fractions they occupy.

Equations are evaluated over all assignments of a finite group to their
variables; the solution set lives in the corresponding direct power, as a
bitmask indexed the same way the power group indexes tuples (leftmost
variable most significant).  All fractions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq

from . import group
from .errors import ActionNotClosed, ArityMismatch, IndexBound
from .group import (
    Group,
    Subset,
    class_count,
    direct_product,
    is_subgroup,
    power,
)
from .words import (
    column_ops,
    compile_words,
    parse_equation,
    parse_word,
    run_program,
    word_arity,
    word_variables,
)

__all__ = [
    "SolutionSet",
    "solution_set",
    "solution_set_json",
    "solution_sets_by_value",
    "probability",
    "commuting_probability",
    "equation_largeness",
    "fixed_subgroup",
    "AcReport",
    "autocommutativity_degree",
]


ARITY_CAP = 4


@dataclass(frozen=True)
class SolutionSet:
    group: Group
    arity: int
    bits: int
    count: int

    def fraction(self):
        return Fraction(self.count, self.group.order ** self.arity)

    def as_subset(self):
        """The solution set inside the direct power of the group."""
        P = power(self.group, self.arity)
        return Subset(P, self.bits)

    def indices(self):
        m = self.bits
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low


def solution_set_json(sols, index_threshold=1 << 16):
    """Interchange dict; indices are dropped past the threshold."""
    out = {"group": sols.group.label, "arity": sols.arity,
           "count": sols.count}
    if sols.count <= index_threshold:
        out["indices"] = list(sols.indices())
    return out


def _blocks(G, program, arity, constants, ranged=()):
    """Run a program over every assignment of G to the ranged constant
    names and then x1..x{arity}, leftmost coordinate most significant, one
    block per value of the first coordinate (the whole space when there is
    at most one).  Yields each block's first row and its root columns.
    The caps count the assignments of one tuple of ranged values."""
    n = G.order
    if arity > ARITY_CAP:
        raise ArityMismatch(
            f"arity {arity} exceeds the enumeration cap {ARITY_CAP}")
    if n ** max(arity, 1) > group.INDEX_BOUND:
        raise IndexBound(
            f"{n}**{arity} assignments exceed {group.INDEX_BOUND}")
    width = len(ranged) + arity
    lead = 1 if width > 1 else 0
    free = width - lead
    size = n ** free
    ops = column_ops(G)
    # the other coordinates count through their values, rightmost fastest
    tail = [ops.column([v for v in range(n)
                        for _ in range(n ** (free - 1 - j))] * n ** j)
            for j in range(free)]
    for first in range(n ** lead):
        columns = ([ops.fill(first, size)] if lead else []) + tail
        bound = {**(constants or {}), **dict(zip(ranged, columns))}
        yield first * size, run_program(program, ops, columns[len(ranged):],
                                        size, bound)


def solution_set(G, equation, constants=None):
    """All assignments satisfying the equation, as bits over the power."""
    if isinstance(equation, str):
        equation = parse_equation(equation)
    arity = equation.arity
    # a constant right side was evaluated first, so its errors come first
    sides = [equation.lhs, equation.rhs]
    if not word_variables(equation.rhs):
        sides.reverse()
    bits = {}
    counts = {}
    for offset, (a, b) in _blocks(G, compile_words(sides), arity, constants):
        _bucket(bytes(map(eq, a, b)), 2, offset, bits, counts)
    # the matching rows are the bucket of True, which is 1
    return SolutionSet(G, arity, bits.get(1, 0), counts.get(1, 0))


def solution_sets_by_value(G, word, constants=None):
    """Bucket all assignments of word by its value, in one enumeration.

    Returns a dict from the value index to a SolutionSet of the equation
    word = value.  Much cheaper than one solution_set call per value.
    """
    if isinstance(word, str):
        word = parse_word(word)
    return next(_sets_by_value(G, compile_words([word]), word_arity(word),
                               constants))


def _sets_by_value(G, program, arity, constants=None, ranged=()):
    """solution_sets_by_value of a word compiled by compile_words, once per
    tuple of values of the ranged constant names, which run over G ahead
    of the variables: one dict per tuple, in product order."""
    span = G.order ** arity
    bits = {}
    counts = {}
    for start, (values,) in _blocks(G, program, arity, constants, ranged):
        for at in range(0, len(values), span):
            chunk = values[at:at + span]
            _bucket(chunk, G.order, (start + at) % span, bits, counts)
            if (start + at + len(chunk)) % span == 0:
                yield {v: SolutionSet(G, arity, bits[v], counts[v])
                       for v in sorted(bits)}
                bits = {}
                counts = {}


def _bucket(values, order, offset, bits, counts):
    """Add each value's positions in the column, shifted by offset, to its
    bitmask in bits, and its count to counts.  A bytes column is read as
    it is."""
    if order <= 256:
        data = values if type(values) is bytes else bytes(values)
        backwards = data[::-1]
        zeros = b"0" * 256
        for v in set(data):
            ones = backwards.translate(zeros[:v] + b"1" + zeros[v + 1:])
            bits[v] = bits.get(v, 0) | int(ones, 2) << offset
            counts[v] = counts.get(v, 0) + data.count(v)
        return
    where = {}
    for i, v in enumerate(values):
        where.setdefault(v, []).append(len(values) - 1 - i)
    for v, places in where.items():
        digits = bytearray(b"0") * len(values)
        for p in places:
            digits[p] = 49      # ord("1")
        bits[v] = bits.get(v, 0) | int(digits, 2) << offset
        counts[v] = counts.get(v, 0) + len(places)


def probability(G, equation, constants=None):
    """Fraction of assignments satisfying the equation."""
    return solution_set(G, equation, constants).fraction()


def commuting_probability(G):
    """Fraction of commuting ordered pairs, which equals the number of
    conjugacy classes over the order."""
    return Fraction(class_count(G), G.order)


def equation_largeness(G, equation, constants=None, budget=None):
    """Largeness report for the solution set inside the direct power."""
    from .largeness import DEFAULT_BUDGET, largeness_report

    X = solution_set(G, equation, constants).as_subset()
    return largeness_report(X.parent, X, budget or DEFAULT_BUDGET)


def fixed_subgroup(G, sigma):
    """Elements fixed by a permutation of G given as a tuple; checked to
    form a subgroup."""
    bits = 0
    for g in range(G.order):
        if sigma[g] == g:
            bits |= 1 << g
    sub = Subset(G, bits)
    if not is_subgroup(G, sub):
        raise ActionNotClosed("fixed points do not form a subgroup; "
                              "the map is not an automorphism")
    return sub


@dataclass(frozen=True)
class AcReport:
    degree: Fraction
    fixed_pairs: Subset
    sigma_order: int
    subset_size: int


def autocommutativity_degree(G, H, action_pair):
    """Fraction of pairs (sigma, h) with sigma in the acting group and h in
    the subset H that satisfy sigma(h) = h, together with the set of such
    pairs inside the product of the acting group with G.

    action_pair is (A, action) where action[i] is the permutation of G
    performed by element i of A; rows are checked to be automorphisms.
    """
    A, action = action_pair
    if len(action) != A.order:
        raise ActionNotClosed("action table size mismatch")
    for row in action:
        if sorted(row) != list(range(G.order)):
            raise ActionNotClosed("action row is not a permutation")
        for a in range(G.order):
            for b in range(G.order):
                if row[G.mul(a, b)] != G.mul(row[a], row[b]):
                    raise ActionNotClosed(
                        "action row is not multiplicative")
    P = direct_product(A, G, label=f"{A.label}x{G.label}")
    bits = 0
    count = 0
    for s in range(A.order):
        row = action[s]
        for h in H.indices():
            if row[h] == h:
                bits |= 1 << P.encode((s, h))
                count += 1
    total = A.order * H.size
    return AcReport(
        degree=Fraction(count, total) if total else Fraction(0, 1),
        fixed_pairs=Subset(P, bits),
        sigma_order=A.order,
        subset_size=H.size,
    )
