"""Covers by left translates and the two derived size invariants.

A subset X of a finite group is k-generic when some k left translates of X
cover the group, and k-large when every k left translates of X intersect.
The two notions are complementary: X is k-large exactly when the complement
of X is not k-generic.  Everything here works on int bitmasks, one bit per
element, and the cover search is an exact depth-first search that always
branches on the lowest uncovered element, which keeps results deterministic.
The search for covers by translates of Y starts from the partial cover
{Y}, the translate by the identity.  That loses no cover: left-multiplying
every translator of a cover g1*Y, ..., gk*Y by g1^-1 gives a cover of the
same size that contains Y, the normalization naive_is_k_large and the
k = 2 scan use too.

The one question asked of the search is the k-decision.  The genericity
number, the least k, is found by asking it at k = ceil(|G|/|Y|), the
counting bound, and upward (iterative deepening), so a least cover is the
certificate of the first yes.

Two translates gY and hY cover G exactly when Y and g^-1*h*Y do, that is
when s*Z misses Z for s = g^-1*h and the complement Z.  So k = 2 is decided
by trying s = 0, 1, 2, ... in index order, each with |Z| lookups along row
s, and the first s that works is the certificate.  The search serves
k >= 3.

Decisions are remembered per group, in G._decisions, keyed by the subset's
bits: the largest k known to admit no cover and the smallest cover found.
A cover by j translates answers every k >= j, and no cover by k answers
every k' <= k.  The memo holds ints and tuples only and dies with the group.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceeded, EmptySubset
from .group import (
    TABLE_MATERIALIZE_BOUND,
    Subset,
    _paged_lanes,
    subgroup_as_group,
)

__all__ = [
    "NODE_CAP",
    "LargenessReport",
    "UNBOUNDED",
    "INFINITE",
    "at_least",
    "cover_number",
    "is_k_generic",
    "is_k_large",
    "largeness_number",
    "largeness_report",
    "naive_is_k_large",
    "restrict_largeness",
]


# search nodes each cover decision's DFS may visit
NODE_CAP = 10_000_000
# intersection tests naive_is_k_large may make, order**(k-1)
NAIVE_BUDGET = 10 ** 6


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


UNBOUNDED = _Sentinel("UNBOUNDED")
INFINITE = _Sentinel("INFINITE")


def at_least(value, k):
    """Compare a possibly-sentinel invariant against an integer bound."""
    if value is UNBOUNDED or value is INFINITE:
        return True
    return value >= k


@dataclass(frozen=True)
class LargenessReport:
    group_label: str
    group_order: int
    subset_size: int
    genericity_number: object
    largeness_number: object
    genericity_certificate: tuple | None
    largeness_certificate: tuple | None


def _membership(X):
    """X as '0'/'1' characters whose character i is element i's bit: up to
    order 256 a 256-byte translate table, up to TABLE_MATERIALIZE_BOUND
    one (table, indicator) pair per page of 256 elements, the indicator
    mapping the page's high byte to '1' and every other to '0', and above
    it a str."""
    n = X.parent.order
    chars = format(X.bits, f"0{n}b")[::-1]
    if n > TABLE_MATERIALIZE_BOUND:
        return chars
    chars = chars.encode().ljust(256, b"0")
    if n <= 256:
        return chars
    return [(chars[p:p + 256].ljust(256, b"0"),
             b"0" * j + b"1" + b"0" * (255 - j))
            for j, p in enumerate(range(0, n, 256))]


# the bytes of a 16-bit array that hold its entries' low bytes
_LOW = 0 if sys.byteorder == "little" else 1


def _gathered_mask(G, membership, g):
    """The mask of g*Y from Y's membership: bit z is set exactly when
    g^-1 * z lies in Y, so the bits are gathered along row g^-1, by one
    translate of the row as bytes up to order 256.  Up to
    TABLE_MATERIALIZE_BOUND, where tabled products keep 16-bit rows, the
    row's low bytes go through _paged_lanes with its high bytes as the
    pages.  On '0' and '1' (0x30, 0x31) AND and OR act as on the digits,
    so the lanes read back as the mask in binary.  Above it, where each
    page would translate the whole row, the row's characters are joined."""
    row = G.row(G.inv(g))
    if G.order <= 256:
        return int(bytes(row).translate(membership)[::-1], 2)
    if G.order > TABLE_MATERIALIZE_BOUND:
        return int("".join(itemgetter(*row)(membership))[::-1], 2)
    packed = (row if type(row) is array else array("H", row)).tobytes()
    lanes = _paged_lanes(packed[_LOW::2], packed[1 - _LOW::2], membership)
    return int(lanes.to_bytes(G.order, "big"), 2)


# About this many translators are scored at each step of the greedy cover
GREEDY_SPAN = 16


class _CoverSearch:
    """Whether G is covered by k left translates g*Y: a capped greedy cover
    first, then a depth-first search when the greedy cover is too large.
    The search starts from {Y}, the identity's translate, since a cover
    g1*Y, ..., gk*Y left-multiplied by g1^-1 is a cover that contains Y.

    Distinct translators can give the same translate when Y is a union of
    right cosets, so the translates through each element are deduplicated
    by mask.  The search prunes by the counting bound alone.  A packing of
    elements no translate covers two of adds nothing: the translators
    through e form e*Y^-1, |Y| of them, and pairwise disjoint for packed
    elements, so a packing never holds more than |G|/|Y| elements.
    """

    def __init__(self, G, Y, node_cap):
        self.G = G
        self.ylist = list(Y.indices())
        self.membership = _membership(Y)
        self.full = (1 << G.order) - 1
        self.node_cap = node_cap
        self.nodes = 0
        self.mask_cache = {}
        self.through_cache = {}
        self.greedy_cover = None

    def translate_mask(self, g):
        m = self.mask_cache.get(g)
        if m is None:
            m = _gathered_mask(self.G, self.membership, g)
            self.mask_cache[g] = m
        return m

    def through(self, e):
        """Unique translates containing element e, as (translator, mask)
        pairs; the first translator in Y order stands for each mask."""
        out = self.through_cache.get(e)
        if out is None:
            inv = self.G.inv
            erow = self.G.row(e)
            tmask = self.translate_mask
            seen = set()
            out = []
            for y in self.ylist:
                g = erow[inv(y)]
                m = tmask(g)
                if m not in seen:
                    seen.add(m)
                    out.append((g, m))
            self.through_cache[e] = out
        return out

    def candidates(self, uncovered):
        """Translates through the lowest uncovered element, sorted by
        descending fresh coverage with the translator breaking ties."""
        e = (uncovered & -uncovered).bit_length() - 1
        return sorted(self.through(e),
                      key=lambda gm: (-(gm[1] & uncovered).bit_count(), gm[0]))

    def greedy(self):
        """A cover, not necessarily least.  Each step scores the translates
        through the lowest uncovered element e by e*y^-1 for about
        GREEDY_SPAN y spread evenly over Y, and keeps the most fresh
        coverage, the least translator breaking ties."""
        G = self.G
        tmask = self.translate_mask
        step = max(1, len(self.ylist) // GREEDY_SPAN)
        yinvs = [G.inv(y) for y in self.ylist[::step]]
        uncovered = self.full
        chosen = []
        while uncovered:
            e = (uncovered & -uncovered).bit_length() - 1
            scored = []
            for y in yinvs:
                g = G.mul(e, y)
                scored.append((-(tmask(g) & uncovered).bit_count(), g))
            _, g = min(scored)
            chosen.append(g)
            uncovered &= ~tmask(g)
        return tuple(chosen)

    def search(self, k):
        """A cover by at most k translates, as a tuple of translators, or
        None: the greedy cover if it fits, else the first one found from
        {Y} on.  The greedy cover runs once per search object, and the
        node cap bounds each call's DFS."""
        if self.greedy_cover is None:
            self.greedy_cover = self.greedy()
        if len(self.greedy_cover) <= k:
            return self.greedy_cover
        self.nodes = 0
        e = self.G.identity
        return self.dfs(self.full & ~self.translate_mask(e), [e], k)

    def dfs(self, uncovered, chosen, k):
        """The first cover by at most k translates extending chosen."""
        if not uncovered:
            return tuple(chosen)
        need = -(-uncovered.bit_count() // len(self.ylist))
        if len(chosen) + need > k:
            return None
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise BudgetExceeded(f"cover search passed {self.node_cap} nodes")
        for g, m in self.candidates(uncovered):
            chosen.append(g)
            sel = self.dfs(uncovered & ~m, chosen, k)
            chosen.pop()
            if sel is not None:
                return sel
        return None


def cover_number(G, Y, node_cap=NODE_CAP):
    """Least k with k left translates of Y covering G, with translators.

    Decides k-genericity at k = ceil(|G|/|Y|) and upward; every smaller k
    is refuted when the first cover turns up, so it is a least one.  The
    decisions share one search, so the greedy cover runs once and each
    mask is built once; the node cap bounds each decision's DFS.  Raises
    EmptySubset for the empty set, which covers nothing.
    """
    if Y.size == 0:
        raise EmptySubset("the empty set admits no cover")
    k = -(-G.order // Y.size)
    search = []
    while True:
        generic, sel = _decide(G, Y, k, node_cap, search)
        if generic:
            return k, sel
        k += 1


def _two_cover(G, Y):
    """(e, s) for the least s with Y and s*Y covering G, or None.

    Y and s*Y cover G exactly when s*Z misses Z for Z = G minus Y: row s
    gathered at Z's positions shares no element with Z.
    """
    Z = Y.complement().indices()
    zset = set(Z)
    for s in range(G.order):
        if zset.isdisjoint(map(G.row(s).__getitem__, Z)):
            return G.identity, s
    return None


def is_k_generic(G, X, k, node_cap=NODE_CAP):
    """Whether some k left translates of X cover G, with the translators
    of a cover by at most k translates as the certificate, or None.

    k = 2 is answered by scanning s for the least s with s*Z missing the
    complement Z, with the certificate (e, s); k >= 3 by the search,
    which keeps the first cover met within k.  An answer already
    known for X on G, at this k or by monotonicity from another k, is
    served from G._decisions, so its cover may be one found for a
    smaller k.
    """
    return _decide(G, X, k, node_cap, [])


def _decide(G, X, k, node_cap, search):
    """is_k_generic, with search the list that holds X's _CoverSearch once
    a decision builds it, so that one least cover's decisions share its
    greedy cover and masks."""
    if k < 1:
        raise ValueError("k must be positive")
    if X.size == 0:
        return False, None
    if X.size == G.order:
        return True, (G.identity,)
    refuted, cover = G._decisions.get(X.bits, (0, None))
    if cover is not None and len(cover) <= k:
        return True, cover
    if k <= refuted or k * X.size < G.order:
        return False, None
    if k == 2:
        sel = _two_cover(G, X)
    else:
        if not search:
            search.append(_CoverSearch(G, X, node_cap))
        sel = search[0].search(k)
    if sel is None:
        G._decisions[X.bits] = (k, cover)
        return False, None
    G._decisions[X.bits] = (refuted, sel)
    return True, sel


def is_k_large(G, X, k, node_cap=NODE_CAP):
    """Whether every k left translates of X meet; on failure the witness
    translators give k translates of the complement that cover G, i.e.
    translates of X with empty intersection after inverting."""
    generic, sel = is_k_generic(G, X.complement(), k, node_cap)
    if not generic:
        return True, None
    return False, sel + (sel[-1],) * (k - len(sel))


def largeness_number(G, X, node_cap=NODE_CAP):
    """Greatest k such that X is k-large, with the translators of a least
    cover by translates of the complement; UNBOUNDED for the full group."""
    if X.size == 0:
        return 0, None
    if X.size == G.order:
        return UNBOUNDED, None
    n, sel = cover_number(G, X.complement(), node_cap)
    return n - 1, sel


def largeness_report(G, X, node_cap=NODE_CAP):
    """Both invariants of X with their covers; the genericity number is
    INFINITE for the empty set."""
    gen, gen_cert = (cover_number(G, X, node_cap) if X.size
                     else (INFINITE, None))
    lar, lar_cert = largeness_number(G, X, node_cap)
    return LargenessReport(
        group_label=G.label,
        group_order=G.order,
        subset_size=X.size,
        genericity_number=gen,
        largeness_number=lar,
        genericity_certificate=gen_cert,
        largeness_certificate=lar_cert,
    )


def naive_is_k_large(G, X, k):
    """Definition-chasing check that every k left translates of X meet.

    Fixing the first translator to the identity is harmless: translating
    all k sets on the left preserves whether they intersect.  Cost is
    order**(k-1) intersection tests.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if G.order ** (k - 1) > NAIVE_BUDGET:
        raise BudgetExceeded(f"{G.order}**{k - 1} exceeds {NAIVE_BUDGET}")
    masks = [0] * G.order
    for g in range(G.order):
        m = 0
        for y in X.indices():
            m |= 1 << G.mul(g, y)
        masks[g] = m

    def rec(depth, inter):
        if not inter:
            return False
        if depth == k - 1:
            return True
        return all(rec(depth + 1, inter & masks[g]) for g in range(G.order))

    return rec(0, masks[G.identity])


def restrict_largeness(G, X, H, node_cap=NODE_CAP):
    """Largeness of X cap H inside the subgroup H of G.

    H is given as a Subset forming a subgroup; returns the largeness number
    of the intersection measured in the subgroup.
    """
    Hgrp, elems = subgroup_as_group(G, H)
    pos = {g: i for i, g in enumerate(elems)}
    bits = 0
    for g in X.indices():
        if g in pos:
            bits |= 1 << pos[g]
    return largeness_number(Hgrp, Subset(Hgrp, bits), node_cap)
