"""Covers by left translates and the two derived size invariants.

A subset X of a finite group is k-generic when some k left translates of X
cover the group, and k-large when every k left translates of X intersect.
The two notions are complementary: X is k-large exactly when the complement
of X is not k-generic.  Everything here works on int bitmasks, one bit per
element, and the cover search is an exact branch and bound that always
branches on the lowest uncovered element, which keeps results deterministic.

Two translates gY and hY cover G exactly when Y and g^-1*h*Y do, that is
when s*Z misses Z for s = g^-1*h and the complement Z.  So k = 2 is decided
by trying s = 0, 1, 2, ... in index order, each with |Z| lookups along row
s, and the first s that works is the certificate.  The branch and bound
serves k >= 3 and least covers.

Decisions are remembered per group, in G._decisions, keyed by the subset's
bits: the largest k known to admit no cover and the smallest cover found.
A cover by j translates answers every k >= j, and no cover by k answers
every k' <= k.  The memo holds ints and tuples only and dies with the group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceeded, EmptySubset
from .group import Subset

__all__ = [
    "SearchBudget",
    "CoverCertificate",
    "LargenessReport",
    "UNBOUNDED",
    "INFINITE",
    "at_least",
    "left_translate",
    "cover_number",
    "is_k_generic",
    "is_k_large",
    "genericity_number",
    "largeness_number",
    "largeness_report",
    "naive_is_k_large",
    "restrict_largeness",
]


@dataclass(frozen=True)
class SearchBudget:
    node_cap: int = 10_000_000


DEFAULT_BUDGET = SearchBudget()


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
class CoverCertificate:
    translators: tuple
    covered: bool


@dataclass(frozen=True)
class LargenessReport:
    group_label: str
    group_order: int
    subset_size: int
    genericity_number: object
    largeness_number: object
    genericity_certificate: CoverCertificate | None
    largeness_certificate: CoverCertificate | None
    elapsed: float


def _membership(X):
    """X as a '0'/'1' string whose character i is element i's bit."""
    return format(X.bits, f"0{X.parent.order}b")[::-1]


def _gathered_mask(G, membership, g):
    """The mask of g*Y from Y's membership string: bit z is set exactly
    when g^-1 * z lies in Y, so the bits are gathered along row g^-1."""
    return int("".join(itemgetter(*G.row(G.inv(g)))(membership))[::-1], 2)


def left_translate(G, X, g):
    return Subset(X.parent, _gathered_mask(G, _membership(X), g))


# About this many translators are scored at each step of the greedy cover
GREEDY_SPAN = 16


class _CoverSearch:
    """Covers of G by left translates g*Y: a capped greedy cover first, then
    an exact branch and bound when the greedy cover is too large.

    Distinct translators can give the same translate when Y is a union of
    right cosets, so the translates through each element are deduplicated
    by mask.  A greedy packing of pairwise non-coverable elements gives the
    lower bound; branch and bound closes the gap to the greedy cover.
    """

    def __init__(self, G, Y, budget):
        self.G = G
        self.ylist = list(Y.indices())
        self.membership = _membership(Y)
        self.full = (1 << G.order) - 1
        self.budget = budget
        self.nodes = 0
        self.mask_cache = {}
        self.through_cache = {}
        self.best = None
        self.best_sel = None
        self.goal = None

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

    def packing_bound(self, uncovered, limit):
        """Greedily pick elements no single translate covers twice; their
        count bounds the cover size from below.  Stops past limit."""
        count = 0
        rem = uncovered
        while rem:
            e = (rem & -rem).bit_length() - 1
            count += 1
            if count > limit:
                return count
            for _, m in self.through(e):
                rem &= ~m
        return count

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

    def search(self, k=None):
        """A least cover when k is None, otherwise any cover by at most k
        translates or None, as a tuple of translators."""
        lb = -(-self.G.order // len(self.ylist))
        goal = lb if k is None else k
        if lb > goal:
            return None
        sel = self.greedy()
        if len(sel) <= goal:
            return sel
        if k is None:
            self.best, self.best_sel = len(sel), sel
        else:
            self.best, self.best_sel = k + 1, None
        lb = max(lb, self.packing_bound(self.full, self.best - 1))
        self.goal = lb if k is None else k
        if lb < self.best:
            self.dfs(self.full, [])
        return self.best_sel

    def dfs(self, uncovered, chosen):
        """Keep a cover strictly smaller than best; stop at the goal."""
        if not uncovered:
            if len(chosen) < self.best:
                self.best = len(chosen)
                self.best_sel = tuple(chosen)
            return
        need = -(-uncovered.bit_count() // len(self.ylist))
        if len(chosen) + need >= self.best:
            return
        self.nodes += 1
        if self.nodes > self.budget.node_cap:
            raise BudgetExceeded(
                f"cover search passed {self.budget.node_cap} nodes")
        for g, m in self.candidates(uncovered):
            chosen.append(g)
            self.dfs(uncovered & ~m, chosen)
            chosen.pop()
            if self.best <= self.goal:
                return


def cover_number(G, Y, budget=DEFAULT_BUDGET):
    """Least k with k left translates of Y covering G, with translators.

    Raises EmptySubset for the empty set, which covers nothing.
    """
    if Y.size == 0:
        raise EmptySubset("the empty set admits no cover")
    if Y.size == G.order:
        return 1, (G.identity,)
    sel = _CoverSearch(G, Y, budget).search()
    return len(sel), sel


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


def is_k_generic(G, X, k, budget=DEFAULT_BUDGET):
    """Whether some k left translates of X cover G, with a cover by at
    most k translators as the certificate.

    k = 2 is answered by scanning s for the least s with s*Z missing the
    complement Z, with the certificate (e, s); k >= 3 by the branch and
    bound, which keeps the first cover met within k.  An answer already
    known for X on G, at this k or by monotonicity from another k, is
    served from G._decisions, so its cover may be one found for a
    smaller k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if X.size == 0:
        return False, None
    if X.size == G.order:
        return True, CoverCertificate((G.identity,), True)
    refuted, cover = G._decisions.get(X.bits, (0, None))
    if cover is not None and len(cover) <= k:
        return True, CoverCertificate(cover, True)
    if k <= refuted or k * X.size < G.order:
        return False, None
    if k == 2:
        sel = _two_cover(G, X)
    else:
        sel = _CoverSearch(G, X, budget).search(k)
    if sel is None:
        G._decisions[X.bits] = (k, cover)
        return False, None
    G._decisions[X.bits] = (refuted, sel)
    return True, CoverCertificate(sel, True)


def is_k_large(G, X, k, budget=DEFAULT_BUDGET):
    """Whether every k left translates of X meet; on failure the witness
    translators give k translates of the complement that cover G, i.e.
    translates of X with empty intersection after inverting."""
    generic, cert = is_k_generic(G, X.complement(), k, budget)
    if not generic:
        return True, None
    sel = cert.translators
    return False, CoverCertificate(sel + (sel[-1],) * (k - len(sel)), True)


def genericity_number(G, X, budget=DEFAULT_BUDGET):
    """Least k such that X is k-generic; INFINITE for the empty set."""
    if X.size == 0:
        return INFINITE, None
    n, sel = cover_number(G, X, budget)
    return n, CoverCertificate(sel, True)


def largeness_number(G, X, budget=DEFAULT_BUDGET):
    """Greatest k such that X is k-large; UNBOUNDED for the full group."""
    if X.size == 0:
        return 0, None
    n, cert = genericity_number(G, X.complement(), budget)
    if n is INFINITE:
        return UNBOUNDED, None
    return n - 1, cert


def largeness_report(G, X, budget=DEFAULT_BUDGET):
    t0 = time.perf_counter()
    gen, gen_cert = genericity_number(G, X, budget)
    lar, lar_cert = largeness_number(G, X, budget)
    return LargenessReport(
        group_label=G.label,
        group_order=G.order,
        subset_size=X.size,
        genericity_number=gen,
        largeness_number=lar,
        genericity_certificate=gen_cert,
        largeness_certificate=lar_cert,
        elapsed=time.perf_counter() - t0,
    )


def naive_is_k_large(G, X, k, budget=10 ** 6):
    """Definition-chasing check that every k left translates of X meet.

    Fixing the first translator to the identity is harmless: translating
    all k sets on the left preserves whether they intersect.  Cost is
    order**(k-1) intersection tests.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if G.order ** (k - 1) > budget:
        raise BudgetExceeded(f"{G.order}**{k - 1} exceeds {budget}")
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


def restrict_largeness(G, X, H, budget=DEFAULT_BUDGET):
    """Largeness of X cap H inside the subgroup H of G.

    H is given as a Subset forming a subgroup; returns the largeness number
    of the intersection measured in the subgroup.
    """
    from .group import subgroup_as_group

    Hgrp, elems = subgroup_as_group(G, H)
    pos = {g: i for i, g in enumerate(elems)}
    bits = 0
    for g in X.indices():
        if g in pos:
            bits |= 1 << pos[g]
    return largeness_number(Hgrp, Subset(Hgrp, bits), budget)
