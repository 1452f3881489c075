"""Checks that pin theorem-level facts against brute-force computation.

A check is a generator function check_<id>(G): it yields one (margin,
witness) case per instance whose hypothesis holds, and returns before its
first yield when the hypothesis never applies.  The registry names each
check by its function and runs it through _verdict, which reports whether
the hypothesis applied at all (vacuous otherwise), whether the conclusion
held on every instance, and where meaningful a minimal margin: the gap
between an upper bound and the measured fraction.  A case gives its margin
as an unnormalized (numerator, denominator) pair of ints, and _verdict
turns the least one into the check's one exact Fraction.
Checks never weaken on failure; a false conclusion surfaces as
passed=False with a witness.  check_autocomm, which names a witness when
it passes, builds its own CheckResult.

The open-question searches at the bottom hunt for counterexample
configurations nobody has ruled out.  Each yields the candidates the fast
decision accepts, and run_search re-verifies them by the definition,
through naive_is_k_large: a candidate it refutes is skipped, and the first
one left is reported with reverified true, or reverified false when the
check is past naive_is_k_large's budget of |parent|**(k-1) <= 10**6
intersection tests.  Over catalog<=24 the first hits are A4 for
oq_cube_5large and D4 for oq_comm_2large_c (A4, Q8 and H2 are witnesses
too); oq_gamma_k finds none.
"""

from __future__ import annotations

import itertools
import math
import random
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .errors import BudgetExceeded, OrderBound, UnknownCheck, UnknownQuestion
from .group import (
    ProductGroup,
    Subset,
    _centralizer_indices,
    _engel_pair,
    automorphism_group,
    center,
    centralizer,
    class_count,
    conjugacy_classes,
    derived_subgroup,
    exponent,
    inner_automorphisms,
    is_2_engel,
    is_abelian,
    is_subgroup,
    max_centralizer_index,
    mc_witness,
    nilpotency_class,
    power,
    subgroup_generated,
    trivial_action,
)
from .largeness import (
    at_least,
    cover_number,
    is_k_large,
    largeness_number,
    naive_is_k_large,
    restrict_largeness,
)
from .probability import (
    _sets_by_value,
    autocommutativity_degree,
    commuting_probability,
)
from .words import compile_words, parse_word, word_arity

__all__ = [
    "CheckResult",
    "CheckSpec",
    "CHECKS",
    "QUESTIONS",
    "run_check",
    "run_suite",
    "run_search",
    "result_to_dict",
    "suite_summary",
]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    group_label: str
    hypothesis_holds: bool
    conclusion_holds: bool
    margin: Fraction | None
    witness: dict | None

    @property
    def vacuous(self):
        return not self.hypothesis_holds

    @property
    def passed(self):
        return (not self.hypothesis_holds) or self.conclusion_holds


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    run: object


def _verdict(check_id, cases_of, G):
    """The one way a check becomes a CheckResult: the registry runs every
    check but autocomm through here, bound to its id.  cases_of(G) yields
    a (margin, witness) pair for each instance whose hypothesis holds:
    margin is bound - measured as an int pair (num, den) with den > 0, or
    None when the instance has no bound, and witness is None when the
    conclusion held.  The hypothesis holds once a case is given, and the
    margin is the least one given, compared by cross-multiplying and
    reported as a Fraction.  The first witness fails the check, with no
    margin; the cases after it are not drawn."""
    hyp = False
    least = None
    for m, witness in cases_of(G):
        if witness is not None:
            return CheckResult(check_id, G.label, True, False, None, witness)
        hyp = True
        if m is not None and (least is None
                              or m[0] * least[1] < least[0] * m[1]):
            least = m
    return CheckResult(check_id, G.label, hyp, True,
                       None if least is None else Fraction(*least), None)


# "seed:check_id" of the run_check call in progress
_stream = ContextVar("stream")


def _rng(G):
    """The sampling stream of the check in progress on one group, keyed by
    run_check's seed and check id; seed 0 is what the test suite pins its
    frozen expectations against."""
    return random.Random(f"{_stream.get()}:{G.label}")


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _order_counts(G):
    """counts[d] = number of elements whose order divides d."""
    orders = [G.element_order(g) for g in range(G.order)]
    return {d: sum(1 for o in orders if d % o == 0)
            for d in _divisors(G.order)}


def _power_large(sols, k):
    """Exact k-largeness of a solution set inside the direct power."""
    X = sols.as_subset()
    ok, _ = is_k_large(X.parent, X, k)
    return ok


@cache
def _compiled(text):
    """A word's program and arity, compiled once per text (the checks use
    a fixed few texts, so the cache stays small)."""
    word = parse_word(text)
    return compile_words([word]), word_arity(word)


def _slices(G, text, ranged, constants=None):
    """A word's value buckets (dicts from value to SolutionSet), one for
    each tuple of values of the ranged constant names, in product order."""
    return _sets_by_value(G, *_compiled(text), constants, ranged)


def _by_value(G, text, constants=None):
    """A word's value buckets with all its constants bound."""
    return next(_slices(G, text, (), constants))


def _case(bound, count, total, fields, large=None):
    """The case of the fraction count/total held to the Fraction bound p/q,
    in ints: the margin (p*total - count*q, q*total), or the fields with
    the fraction as a witness when count*q > p*total or, the bound holding,
    large() is true."""
    p, q = bound.numerator, bound.denominator
    gap = p * total - count * q
    if gap < 0 or large is not None and large():
        return None, {**fields, "fraction": str(Fraction(count, total))}
    return (gap, q * total), None


def _bounded(instances, k=None):
    """The cases of the bounded-fraction checks, one per instance (bound,
    solution set, witness fields); with k given, a k-large solution set
    fails its instance too."""
    for bound, sols, fields in instances:
        yield _case(bound, sols.count, sols.group.order ** sols.arity, fields,
                    None if k is None else partial(_power_large, sols, k))


def _noncentral(G):
    """The least element outside the center, or None when G is abelian."""
    zen = center(G)
    return next((g for g in range(G.order) if not zen.contains(g)), None)


# --- counting facts ---------------------------------------------------------


def check_frobenius(G):
    """Each divisor d of the order divides the number of solutions of
    x^d = e."""
    bad = [d for d, c in _order_counts(G).items() if c % d != 0]
    yield None, {"failing_divisors": bad} if bad else None


def check_miller_bound(G):
    """A non-abelian group has at most 3/4 of its elements of order
    dividing 2."""
    if is_abelian(G):
        return
    yield _case(Fraction(3, 4), _by_value(G, "x1^2")[G.identity].count,
                G.order, {})


def check_laffey_p(G):
    """If p divides the order but the group is not a p-group, at most
    p/(p+1) of the elements satisfy x^p = e."""
    primes = _prime_factors(G.order)
    if len(primes) < 2:
        return
    yield from _bounded(
        (Fraction(p, p + 1), _by_value(G, f"x1^{p}")[G.identity], {"p": p})
        for p in primes)


def check_iiyori_yamaki(G):
    """Whenever x^d = e has exactly d solutions, those solutions form a
    subgroup."""
    orders = [G.element_order(g) for g in range(G.order)]
    exact = {}
    for d in _divisors(G.order):
        sols = [g for g in range(G.order) if d % orders[g] == 0]
        if len(sols) == d:
            exact[d] = sols
    if not exact:
        return
    bad = [d for d, sols in exact.items() if not is_subgroup(G, sols)]
    yield None, {"failing_divisors": bad} if bad else None


def check_erdos_turan(G):
    """The fraction of commuting pairs equals classes over order."""
    mu = _by_value(G, "[x1,x2]")[G.identity].fraction()
    expected = commuting_probability(G)
    yield (((0, 1), None) if mu == expected else
           (None, {"measured": str(mu), "class_ratio": str(expected)}))


def check_gustafson_58(G):
    """A non-abelian group has commuting probability at most 5/8."""
    if is_abelian(G):
        return
    yield _case(Fraction(5, 8), class_count(G), G.order, {})


# --- covers of small subsets ------------------------------------------------


def _some_subsets(G, rng, how_many):
    n = G.order
    if n <= 8:
        return [Subset(G, bits) for bits in range(1, (1 << n) - 1)]
    out = []
    for _ in range(how_many):
        bits = rng.getrandbits(n) & ((1 << n) - 1)
        if bits == 0 or bits == (1 << n) - 1:
            bits = 1 << rng.randrange(n)
        out.append(Subset(G, bits))
    return out


def check_two_generic_threshold(G):
    """A proper nonempty subset of size m in a group of order n with
    (n-m)(n-m-1) < n-1 needs at most two translates to cover."""
    n = G.order
    for X in _some_subsets(G, _rng(G), 200):
        m = X.size
        if (n - m) * (n - m - 1) >= n - 1:
            continue
        k, _sel = cover_number(G, X)
        yield None, ({"subset": list(X.indices()), "cover": k}
                     if k > 2 else None)


def check_sqrt2n_bound(G):
    """If the exponent does not divide l, solutions of x^l = e leave a gap
    of at least sqrt(n/2): in integers, 2(n-m)^2 >= n."""
    n = G.order
    exp = exponent(G)
    for ell in range(1, 13):
        if ell % exp == 0:
            continue
        m = _by_value(G, f"x1^{ell}")[G.identity].count
        yield None, ({"l": ell, "solutions": m}
                     if 2 * (n - m) * (n - m) < n else None)


def check_measure_lemma(G):
    """Covering with k translates forces fraction at least 1/k, and
    fraction above 1 - 1/k forces every k translates to meet."""
    rng = _rng(G)
    n = G.order
    for _ in range(40):
        bits = rng.getrandbits(n) & ((1 << n) - 1)
        if bits == 0:
            continue
        X = Subset(G, bits)
        m = X.size
        k, _sel = cover_number(G, X)
        if m * k < n:
            yield None, {"subset_size": m, "cover": k}
        L, _c = largeness_number(G, X)
        k2 = next((k2 for k2 in range(1, 7)
                   if m * k2 > (k2 - 1) * n and not at_least(L, k2)),
                  None)
        yield None, None if k2 is None else {"subset_size": m, "k": k2}


def check_subgroup_lemma(G):
    """If X is (k*l)-large in G and H has index k, then X cap H is l-large
    in H."""
    rng = _rng(G)
    subs = [center(G), derived_subgroup(G)]
    for _ in range(3):
        g = rng.randrange(G.order)
        subs.append(subgroup_generated(G, [g]))
    for H in subs:
        hsize = H.size
        if hsize == G.order:
            continue
        k = G.order // hsize
        for _ in range(5):
            bits = rng.getrandbits(G.order) & ((1 << G.order) - 1)
            if bits == 0 or bits == (1 << G.order) - 1:
                continue
            X = Subset(G, bits)
            L, _c = largeness_number(G, X)
            ell = L // k
            if ell < 1:
                continue
            LH, _ch = restrict_largeness(G, X, H)
            yield None, (None if at_least(LH, ell) else
                         {"subgroup_size": hsize,
                          "subset": list(X.indices())})


# --- bounded conjugacy and the center ---------------------------------------

# (word, number of variables, constants ranging over the group)
_WORD_FAMILY = [
    ("x1^2", 1, ()),
    ("[x1,g]", 1, ("g",)),
    ("x1*g*x2", 2, ("g",)),
    ("[x1,x2]*x1^3", 2, ()),
]


def _bounded_word_check(G, k_value, exponent_of):
    """For each family word and constant choice, every value bucket that is
    not an identity must have fraction at most 1 - 1/(2*k**e) with
    e = exponent_of(nvars, nconsts)."""
    for text, nvars, ranged in _WORD_FAMILY:
        bound = 1 - Fraction(1, 2 * k_value ** exponent_of(nvars, len(ranged)))
        total = G.order ** nvars
        yield from _bounded(
            (bound, sols, {"word": text, "value": c})
            for by_value in _slices(G, text, ranged)
            for c, sols in by_value.items() if sols.count != total)


def check_bfc_bound(G):
    """Word equations that are not identities miss a fraction controlled by
    the largest centralizer index."""
    k = max_centralizer_index(G)
    yield from _bounded_word_check(G, k, lambda nv, nc: nv * nv + nc * nv)


def check_center_by_finite(G):
    """Same with the index of the center as the control."""
    k = G.order // center(G).size
    yield from _bounded_word_check(G, k, lambda nv, nc: nv)


def _central_exponent(G):
    Z = center(G)
    return math.lcm(*[G.element_order(g) for g in Z.indices()])


def check_central_identity(G):
    """If a word equation holds 2-largely, dropping the constants to the
    identity makes it hold identically on central tuples."""
    Z = list(center(G).indices())
    gvals = sorted({G.identity, G.order - 1, _noncentral(G)} - {None})
    for text, nvars in [("[x1,g]", 1), ("x1^2*g", 1), ("x1*g*x2", 2)]:
        broken = None       # depends on the word only: g is set to e
        for g in gvals:
            for c, sols in _by_value(G, text, {"g": g}).items():
                if not _power_large(sols, 2):
                    continue
                if broken is None:
                    broken = _first_nontrivial(G, text, Z, nvars)
                yield None, ({"word": text, "g": g, "value": c,
                              "tuple": broken} if broken else None)


def _first_nontrivial(G, text, elements, nvars):
    """The first tuple over elements, in product order, where the word with
    g = e is not the identity, as a list; [] when there is none."""
    # every tuple of identities gives the identity, so its bucket is there
    ones = _by_value(G, text, {"g": G.identity})[G.identity].bits
    encode = ProductGroup((G,) * nvars).encode
    for tup in itertools.product(elements, repeat=nvars):
        if not ones >> encode(tup) & 1:
            return list(tup)
    return []


def check_center_gcd(G):
    """x1^a * x2^b = c holding 2-largely forces the central exponent to
    divide gcd(a, b); failing that, the equation misses half the pairs."""
    zexp = _central_exponent(G)
    for a, b in [(2, 2), (2, 4), (3, 3), (4, 6)]:
        divides = math.gcd(a, b) % zexp == 0
        for c, sols in _by_value(G, f"x1^{a}*x2^{b}").items():
            fields = {"powers": [a, b], "value": c}
            if _power_large(sols, 2):
                yield None, None if divides else fields
            if not divides:
                yield _case(Fraction(1, 2), sols.count, G.order ** 2, fields)


# --- order two and order three ----------------------------------------------


def _exp2_abelian(G):
    return is_abelian(G) and 2 % exponent(G) == 0


def check_square_eq(G):
    """Unless the group is abelian of exponent dividing 2 and c is the
    identity, x^2 = c misses a quarter of the group and is never
    4-large."""
    exempt = _exp2_abelian(G)
    yield from _bounded((
        (Fraction(3, 4), sols, {"value": c})
        for c, sols in _by_value(G, "x1^2").items()
        if not (exempt and c == G.identity)), 4)


def check_xaxb(G):
    """Solutions of x*a*x = b are exactly the solutions of (a*x)^2 = a*b;
    unless the group is abelian of exponent dividing 2 with a = b, they
    fill at most 3/4 of the group."""
    exp2_abelian = _exp2_abelian(G)
    # both sides bucket x by b, the second as a^-1*(a*x)^2 = b
    sides = zip(_slices(G, "x1*a*x1", ("a",)),
                _slices(G, "a^-1*(a*x1)^2", ("a",)))
    for a, (left, right) in enumerate(sides):
        for b in range(G.order):
            sols = left.get(b)
            if sols != right.get(b):
                yield None, {"a": a, "b": b}
            if not (exp2_abelian and a == b):
                yield _case(Fraction(3, 4), sols.count if sols else 0,
                            G.order, {"a": a, "b": b})


def _cube_solutions(G):
    return _by_value(G, "x1^3")[G.identity]


def check_cube_7large_engel(G):
    """If x^3 = e is 7-large, both-sided iterated commutators of length two
    collapse: [[x,y],y] = e everywhere."""
    if not _power_large(_cube_solutions(G), 7):
        return
    pair = _engel_pair(G)
    yield None, None if pair is None else {"x": pair[0], "y": pair[1]}


def check_cube_2large_exp3(G):
    """If [[x,y],y] = e holds everywhere and x^3 = e is 2-large, the
    exponent divides 3."""
    if not is_2_engel(G) or not _power_large(_cube_solutions(G), 2):
        return
    exp = exponent(G)
    yield None, None if 3 % exp == 0 else {"exponent": exp}


def check_cube_67(G):
    """If the exponent does not divide 3, x^3 = e misses at least a
    seventh of the group."""
    if 3 % exponent(G) == 0:
        return
    yield _case(Fraction(6, 7), _cube_solutions(G).count, G.order, {})


# --- commutator equations ---------------------------------------------------


def check_comm_product(G):
    """A product of commutators [x_i, g_i] = c is 2-large only when every
    g_i is central and c is the identity; otherwise it misses half."""
    zen = center(G)
    nc = _noncentral(G)
    g2vals = [G.identity] if nc is None else [G.identity, nc]

    def words():
        singles = zip(_slices(G, "[x1,g]", ("g",)),
                      _slices(G, "[g,x1]", ("g",)))
        for g1, (xg, gx) in enumerate(singles):
            yield "[x1,g]", [g1], xg
            yield "[g,x1]", [g1], gx
        products = [_slices(G, "[x1,g]*[x2,h]", ("g",), {"h": g2})
                    for g2 in g2vals]
        for g1, row in enumerate(zip(*products)):
            for g2, by_value in zip(g2vals, row):
                yield "[x1,g]*[x2,h]", [g1, g2], by_value

    yield from _bounded((
        (Fraction(1, 2), sols, {"word": text, "constants": gs, "value": c})
        for text, gs, by_value in words()
        for c, sols in by_value.items()
        if not (all(zen.contains(g) for g in gs) and c == G.identity)), 2)


def check_comm_abelian(G):
    """[x,y] = c is 4-large only in the abelian case with c = e; otherwise
    it misses a quarter of the pairs."""
    abelian = is_abelian(G)
    yield from _bounded((
        (Fraction(3, 4), sols, {"value": c})
        for c, sols in _by_value(G, "[x1,x2]").items()
        if not (abelian and c == G.identity)), 4)


def check_word_comm_abelian(G):
    """w * [x,y] = c with y fresh is 4-large only when the group is abelian
    and w = c holds identically; otherwise at most 3/4."""
    nc = _noncentral(G)
    gval = G.identity if nc is None else nc
    family = [("x1^2", "x1^2*[x1,x2]", None),
              ("[x1,g]", "[x1,g]*[x1,x2]", {"g": gval})]
    abelian = is_abelian(G)
    for part_text, full_text, consts in family:
        part = _by_value(G, part_text, consts)
        yield from _bounded((
            (Fraction(3, 4), sols, {"word": full_text, "value": c})
            for c, sols in _by_value(G, full_text, consts).items()
            # exempt when w = c holds identically
            if not (abelian and c in part and part[c].count == G.order)), 4)


def check_conj_comm(G):
    """If [g, h^x] = e holds k-largely with k the smaller centralizer
    index, the whole classes of g and h commute elementwise."""
    cls_of = {}
    for cl in conjugacy_classes(G):
        for g in cl:
            cls_of[g] = cl
    index = _centralizer_indices(G)
    pairs = itertools.product(range(G.order), repeat=2)
    for (g, h), by_value in zip(pairs, _slices(G, "[g,h^x1]", ("g", "h"))):
        k = min(index[g], index[h])
        commuting = by_value.get(G.identity)
        ok, _ = is_k_large(G, Subset(G, commuting.bits if commuting else 0), k)
        if ok:
            yield None, next(({"g": g, "h": h, "a": a, "b": b}
                              for a in cls_of[g] for b in cls_of[h]
                              if G.comm(a, b) != G.identity), None)


def check_triple_comm(G):
    """[[x,g],h] = c holding 2k-largely with k the index of the
    centralizer of h kills the triple commutator everywhere; the variant
    with the variable in the middle needs c central."""
    zen = center(G)
    index = _centralizer_indices(G)
    pairs = itertools.product(range(G.order), repeat=2)
    sides = zip(_slices(G, "[[x1,g],h]", ("g", "h")),
                _slices(G, "[[g,x1],h]", ("g", "h")))
    for (g, h), (left, middle) in zip(pairs, sides):
        need = 2 * index[h]
        for side, by_value in (("left", left), ("middle", middle)):
            for c, sols in by_value.items():
                if side == "middle" and not zen.contains(c):
                    continue
                if not _power_large(sols, need):
                    continue
                # a witness is the least x where the word is not e
                ones = by_value.get(G.identity)
                rest = ((1 << G.order) - 1) & ~(ones.bits if ones else 0)
                yield None, ({"side": side, "g": g, "h": h, "value": c,
                              "witness": (rest & -rest).bit_length() - 1}
                             if rest else None)


# --- nilpotency -------------------------------------------------------------


def check_nilp_mc(G):
    """Iterated commutator equations miss a fraction controlled by the size
    of a witness family whose centralizers cut the center."""
    for k in (1, 2):
        try:
            s = mc_witness(G, k).s
        except OrderBound:
            continue
        bound = 1 - Fraction(1, 2 * (s + 1) ** k)
        cls = nilpotency_class(G)
        word = "[" + ",".join(f"x{i + 1}" for i in range(k + 1)) + "]"
        yield from _bounded(
            (bound, sols, {"k": k, "value": c})
            for c, sols in _by_value(G, word).items()
            if not (cls is not None and cls <= k and c == G.identity))


def check_supercomm_const(G):
    """For a nilpotent group of class k, take a product of iterated
    commutator shapes in which every factor uses a quantified variable and
    at least n parameter slots.  Whenever filling the parameter slots with
    group elements makes the shape equal some constant
    max(2**(k-n), 1)-largely over the quantified variables, that constant
    is the identity."""
    cls = nilpotency_class(G)
    if cls is None:
        return

    def instances():
        yield "[x1,x2]", None, 0, _by_value(G, "[x1,x2]")
        singles = zip(_slices(G, "[x1,g]", ("g",)),
                      _slices(G, "[x1,g]*[x2,g]", ("g",)))
        nested = _slices(G, "[[x1,g],h]", ("g", "h"))
        for g, (single, product) in enumerate(singles):
            yield "[x1,g]", {"g": g}, 1, single
            yield "[x1,g]*[x2,g]", {"g": g}, 1, product
            for h in range(G.order):
                yield "[[x1,g],h]", {"g": g, "h": h}, 2, next(nested)

    for text, consts, nparams, by_value in instances():
        need = max(2 ** (cls - nparams), 1)
        for c, sols in by_value.items():
            if _power_large(sols, need):
                yield None, (None if c == G.identity else
                             {"word": text, "constants": consts, "value": c})


def check_nilpotent_identity(G):
    """In a nilpotent group of class k, an equation that holds
    2**k-largely holds identically."""
    cls = nilpotency_class(G)
    if cls is None:
        return
    nc = _noncentral(G)
    gval = G.identity if nc is None else nc
    for text, consts in [("x1^2", None), ("x1^3", None), ("[x1,x2]", None),
                         ("[x1,g]", {"g": gval})]:
        for c, sols in _by_value(G, text, consts).items():
            if _power_large(sols, 2 ** cls):
                yield None, (None if sols.count == G.order ** sols.arity
                             else {"word": text, "value": c,
                                   "count": sols.count})


def check_nilpotent_exponent(G):
    """In a nilpotent group of class k, x^n = c holding 2**k-largely
    forces c = e and exponent dividing n."""
    cls = nilpotency_class(G)
    if cls is None:
        return
    exp = exponent(G)
    for n in range(1, 13):
        for c, sols in _by_value(G, f"x1^{n}").items():
            if _power_large(sols, 2 ** cls):
                yield None, (None if c == G.identity and n % exp == 0
                             else {"n": n, "value": c})


# --- automorphisms ----------------------------------------------------------


def check_autocomm(G):
    """If some automorphism in the acting group moves some element, the
    fixed-pair fraction is at most 3/4 and the fixed-pair set is not
    4-large.  The one check that names a witness when it passes: the
    degree of every action."""
    H = Subset.full(G)
    variants = [("trivial", (trivial_action(G))),
                ("inner", inner_automorphisms(G))]
    if G.order <= 16:
        try:
            variants.append(("full", automorphism_group(G)))
        except OrderBound:
            pass
    hyp_any = False
    margins = []
    degrees = {}
    for name, pair in variants:
        report = autocommutativity_degree(G, H, pair)
        degrees[name] = str(report.degree)
        if report.degree == 1:
            continue
        hyp_any = True
        margins.append(Fraction(3, 4) - report.degree)
        ok4, _ = is_k_large(report.fixed_pairs.parent, report.fixed_pairs, 4)
        if report.degree > Fraction(3, 4) or ok4:
            return CheckResult("autocomm", G.label, True, False, None,
                               {"variant": name,
                                "degree": str(report.degree)})
    return CheckResult("autocomm", G.label, hyp_any, True,
                       min(margins, default=None), {"degrees": degrees})


# --- registry ---------------------------------------------------------------

CHECKS = {}
for _fn in [
    check_frobenius, check_miller_bound, check_laffey_p, check_iiyori_yamaki,
    check_erdos_turan, check_gustafson_58, check_two_generic_threshold,
    check_sqrt2n_bound, check_measure_lemma, check_subgroup_lemma,
    check_bfc_bound, check_center_by_finite, check_central_identity,
    check_center_gcd, check_square_eq, check_xaxb, check_cube_7large_engel,
    check_cube_2large_exp3, check_cube_67, check_comm_product,
    check_comm_abelian, check_word_comm_abelian, check_conj_comm,
    check_triple_comm, check_nilp_mc, check_supercomm_const,
    check_nilpotent_identity, check_nilpotent_exponent, check_autocomm,
]:
    _id = _fn.__name__.removeprefix("check_")
    CHECKS[_id] = CheckSpec(_id, _fn if _fn is check_autocomm
                            else partial(_verdict, _id, _fn))


def run_check(check_id, groups, seed=0):
    """One check over each group, its sampling streams keyed by seed."""
    if check_id not in CHECKS:
        raise UnknownCheck(f"no check named {check_id!r}; "
                           f"known: {', '.join(sorted(CHECKS))}")
    token = _stream.set(f"{int(seed)}:{check_id}")
    try:
        return [CHECKS[check_id].run(G) for G in groups]
    finally:
        _stream.reset(token)


def run_suite(groups, check_ids=None, seed=0):
    ids = list(CHECKS) if check_ids is None else list(check_ids)
    results = []
    for cid in ids:
        results.extend(run_check(cid, groups, seed))
    results.sort(key=lambda r: (r.check_id, r.group_label))
    return results


def suite_summary(results):
    failed = [r for r in results if not r.passed]
    non_vacuous = {r.check_id for r in results if not r.vacuous}
    return {
        "total": len(results),
        "passed": sum(1 for r in results if r.passed),
        "failed": len(failed),
        "vacuous": sum(1 for r in results if r.vacuous),
        "checks_with_content": sorted(non_vacuous),
        "failures": [{"check": r.check_id, "group": r.group_label}
                     for r in failed],
    }


def result_to_dict(r):
    return {
        "check": r.check_id,
        "group": r.group_label,
        "hypothesis": r.hypothesis_holds,
        "conclusion": r.conclusion_holds,
        "vacuous": r.vacuous,
        "passed": r.passed,
        "margin": None if r.margin is None else str(r.margin),
        "witness": r.witness,
    }


# --- open-question searches -------------------------------------------------


def _search_cube_5large(groups):
    """A group where x^3 = e is 5-large without the Engel collapse.

    The first hit in catalog order is A4: the cubes-to-identity set is
    5-large (though not 6-large) and A4 is not 2-Engel.
    """
    for G in groups:
        sols = _cube_solutions(G)
        if _power_large(sols, 5) and not is_2_engel(G):
            yield sols.as_subset(), 5, {"group": G.label,
                                        "question": "cube_5large"}


def _search_comm_2large_c(groups):
    """A non-identity constant c with [x,y] = c 2-large.

    The first hit in catalog order is D4 with c = r^2, the central
    rotation; A4, Q8 and H2 have such a constant too.
    """
    for G in groups:
        for c, sols in _by_value(G, "[x1,x2]").items():
            if c != G.identity and _power_large(sols, 2):
                yield sols.as_subset(), 2, {"group": G.label, "value": c,
                                            "question": "comm_2large_c"}


def _search_gamma_k(groups):
    """A pair set {(x0, x1): [x0, x1] centralizes g} that is 4-large while
    the derived subgroup does not centralize g."""
    for G in groups:
        der = derived_subgroup(G)
        commutators = None
        for g in range(G.order):
            cen = centralizer(G, [g])
            if all(cen.contains(d) for d in der.indices()):
                continue
            if commutators is None:     # one bucketing per group
                commutators = _by_value(G, "[x1,x2]")
            P = power(G, 2)
            bits = 0
            for c, sols in commutators.items():
                if cen.contains(c):
                    bits |= sols.bits
            X = Subset(P, bits)
            if is_k_large(P, X, 4)[0]:
                yield X, 4, {"group": G.label, "g": g, "question": "gamma_k"}


def _recheck(X, k):
    """naive_is_k_large's verdict on X, or None past its budget
    (|parent|**(k-1) <= NAIVE_BUDGET)."""
    try:
        return naive_is_k_large(X.parent, X, k)
    except BudgetExceeded:
        return None


QUESTIONS = {
    "oq_cube_5large": _search_cube_5large,
    "oq_comm_2large_c": _search_comm_2large_c,
    "oq_gamma_k": _search_gamma_k,
}


def run_search(question_id, groups):
    """The first candidate of a question that _recheck does not refute,
    with reverified telling whether the recheck ran; None if none."""
    if question_id not in QUESTIONS:
        raise UnknownQuestion(f"no question named {question_id!r}; "
                              f"known: {', '.join(sorted(QUESTIONS))}")
    for X, k, witness in QUESTIONS[question_id](groups):
        verdict = _recheck(X, k)
        if verdict is not False:
            return {**witness, "reverified": verdict is not None}
    return None
