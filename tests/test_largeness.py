import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_eval as ref
from eqlarge import cli, largeness
from eqlarge.catalog import catalog, catalog_upto
from eqlarge.errors import BudgetExceeded, EmptySubset
from eqlarge.group import (
    Subset,
    TableGroup,
    automorphism_group,
    center,
    direct_product,
    power,
    quotient,
    subgroup_generated,
)
from eqlarge.largeness import (
    GREEDY_SPAN,
    INFINITE,
    NAIVE_BUDGET,
    NODE_CAP,
    UNBOUNDED,
    _CoverSearch,
    _two_cover,
    at_least,
    cover_number,
    is_k_generic,
    is_k_large,
    largeness_number,
    largeness_report,
    naive_is_k_large,
    restrict_largeness,
)
from eqlarge.probability import solution_set

C3 = catalog("C3")
C4 = catalog("C4")
S3 = catalog("S3")
D4 = catalog("D4")


def subset(G, indices):
    return Subset.from_indices(G, indices)


def test_left_translate():
    X = subset(C4, [0, 1])
    assert sorted(ref.left_translate(C4, X, 1).indices()) == [1, 2]
    assert sorted(ref.left_translate(C4, X, 3).indices()) == [0, 3]
    assert ref.left_translate(C4, X, 0) == X


def test_cover_number_half_of_c4():
    n, translators = cover_number(C4, subset(C4, [0, 1]))
    assert n == 2
    assert translators == (0, 2)


def test_cover_number_empty_raises():
    with pytest.raises(EmptySubset):
        cover_number(C4, subset(C4, []))


def test_subgroup_cover_number_is_the_index():
    A3 = subgroup_generated(S3, [next(
        g for g in range(6) if S3.name(g) == "(1 2 3)")])
    assert A3.size == 3
    assert cover_number(S3, A3)[0] == 2
    rot = subgroup_generated(D4, [1])
    assert cover_number(D4, rot)[0] == 2
    assert cover_number(D4, center(D4))[0] == 4


def test_singleton_genericity():
    e = subset(C3, [0])
    ok2, cert2 = is_k_generic(C3, e, 2)
    assert not ok2 and cert2 is None
    ok3, cert3 = is_k_generic(C3, e, 3)
    assert ok3
    union = 0
    for g in cert3:
        union |= ref.left_translate(C3, e, g).bits
    assert union == (1 << C3.order) - 1


def test_index_two_subgroup_is_exactly_1_large():
    rot = subgroup_generated(D4, [1])
    assert is_k_large(D4, rot, 1)[0]
    ok, cert = is_k_large(D4, rot, 2)
    assert not ok
    # the certificate names two translates of the subgroup with empty
    # intersection
    a, b = cert
    inter = (ref.left_translate(D4, rot, a).bits
             & ref.left_translate(D4, rot, b).bits)
    assert inter == 0
    assert largeness_number(D4, rot)[0] == 1


def test_edge_subsets():
    empty = subset(S3, [])
    full = Subset.full(S3)
    assert largeness_report(S3, empty).genericity_number is INFINITE
    assert largeness_number(S3, full)[0] is UNBOUNDED
    assert is_k_large(S3, empty, 2) == (False, None) or \
        not is_k_large(S3, empty, 2)[0]
    assert is_k_generic(S3, full, 1)[0]
    assert largeness_number(S3, empty)[0] == 0
    assert cover_number(S3, full) == (1, (S3.identity,))
    for k in (1, 2, 3):
        assert is_k_large(S3, empty, k) == (False, (S3.identity,) * k)
        assert is_k_large(S3, full, k) == (True, None)
    assert largeness_number(S3, empty) == (0, None)
    assert largeness_number(S3, full) == (UNBOUNDED, None)
    for X in (empty, full):
        for decide in (is_k_generic, is_k_large, naive_is_k_large):
            with pytest.raises(ValueError, match="k must be positive"):
                decide(S3, X, 0)


def test_at_least_handles_sentinels():
    assert at_least(UNBOUNDED, 100)
    assert at_least(INFINITE, 100)
    assert at_least(3, 3)
    assert not at_least(2, 3)


def test_size_bounds_on_all_c4_subsets():
    n = C4.order
    for bits in range(1, 2 ** n - 1):
        X = Subset(C4, bits)
        m = X.size
        gnum = cover_number(C4, X)[0]
        lnum = largeness_number(C4, X)[0]
        assert gnum <= n - m + 1
        assert lnum <= m
        # duality against an independent brute-force check
        for k in (1, 2, 3):
            fast = is_k_large(C4, X, k)[0]
            assert fast == naive_is_k_large(C4, X, k)
            assert fast == (not is_k_generic(C4, X.complement(), k)[0])


def test_naive_agreement_on_random_s3_subsets():
    import random
    rng = random.Random(7)
    for _ in range(500):
        bits = rng.randrange(1, 2 ** 6 - 1)
        X = Subset(S3, bits)
        k = rng.randrange(1, 4)
        assert is_k_large(S3, X, k)[0] == naive_is_k_large(S3, X, k)


bits_d4 = st.integers(min_value=1, max_value=2 ** 8 - 2)


@given(bits_d4, st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_largeness_monotone_in_k(bits, k):
    X = Subset(D4, bits)
    if is_k_large(D4, X, k + 1)[0]:
        assert is_k_large(D4, X, k)[0]
    if is_k_generic(D4, X, k)[0]:
        assert is_k_generic(D4, X, k + 1)[0]


@given(bits_d4, st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_numbers_are_translate_invariant(bits, g):
    X = Subset(D4, bits)
    Y = ref.left_translate(D4, X, g)
    assert largeness_number(D4, X)[0] == largeness_number(D4, Y)[0]
    assert cover_number(D4, X)[0] == cover_number(D4, Y)[0]


@given(bits_d4)
@settings(max_examples=40, deadline=None)
def test_measure_implications(bits):
    X = Subset(D4, bits)
    n = D4.order
    for k in (2, 3, 4):
        if X.size * k > (k - 1) * n:
            assert is_k_large(D4, X, k)[0]
        if is_k_generic(D4, X, k)[0]:
            assert X.size * k >= n


def test_certificates_check_out():
    X = subset(S3, [0, 1, 5])
    gnum, cert = cover_number(S3, X)
    union = 0
    for g in cert:
        union |= ref.left_translate(S3, X, g).bits
    assert union == (1 << S3.order) - 1
    assert len(cert) == gnum
    lnum, lcert = largeness_number(S3, X)
    comp = X.complement()
    union = 0
    for g in lcert:
        union |= ref.left_translate(S3, comp, g).bits
    assert union == (1 << S3.order) - 1
    assert len(lcert) == lnum + 1


def test_restriction_to_a_subgroup():
    rot = subgroup_generated(D4, [1])
    # X = rot itself: X meets H in all of H
    assert restrict_largeness(D4, rot, rot)[0] is UNBOUNDED
    # X misses H entirely
    refl = rot.complement()
    assert restrict_largeness(D4, refl, rot)[0] == 0
    # a half of the rotation subgroup is a half of H: 1-large there
    X = subset(D4, [0, 2, 4, 5])
    num = restrict_largeness(D4, X, rot)[0]
    assert num == 1


def test_quotient_image_preserves_2_largeness():
    Q, coset_id = quotient(D4, center(D4))

    def image(X):
        return Subset.from_indices(Q, {coset_id[x] for x in X})

    X = subset(D4, [0, 1, 2, 4, 5])
    if is_k_large(D4, X, 2)[0]:
        assert is_k_large(Q, image(X), 2)[0]
    # and for every subset of D4 this direction holds
    rng = random.Random(3)
    for _ in range(80):
        X = Subset(D4, rng.randrange(1, 255))
        if is_k_large(D4, X, 2)[0]:
            assert is_k_large(Q, image(X), 2)[0]


def test_product_subsets():
    sq = power(C4, 2)
    X = subset(C4, [0, 1])
    # the preimage of X under the projection onto the first factor
    lifted = Subset.from_indices(
        sq, [sq.encode((x, c)) for x in X for c in range(C4.order)])
    assert lifted.size == X.size * C4.order
    assert largeness_number(sq, lifted)[0] == largeness_number(C4, X)[0]
    assert cover_number(sq, lifted)[0] == cover_number(C4, X)[0]


def test_budget_cap_is_honored():
    G = power(C4, 3)
    X = Subset(G, (1 << 40) - 1)
    with pytest.raises(BudgetExceeded):
        largeness_number(G, X, node_cap=3)


def test_report_bundle():
    rep = largeness_report(S3, subset(S3, [0, 1]))
    assert rep.group_label == "S3"
    assert rep.group_order == 6
    assert rep.subset_size == 2
    assert rep.genericity_number == 3
    assert rep.largeness_number == 1


def test_reports_of_one_input_are_equal():
    # the second report is served from the memo the first one filled
    G = catalog("S3")
    X = subset(G, [0, 1])
    assert largeness_report(G, X) == largeness_report(G, X)


def test_decision_keeps_the_first_cover_within_k():
    # at most 6 translates: the first cover met, from Y itself on; for
    # {3, 5, 10} it is a least one, for {0, 1, 5} it is not
    C15 = catalog("C15")
    Y = Subset(C15, 1064)
    assert is_k_generic(C15, Y, 6) == (True, (0, 12, 6, 9, 3))
    assert cover_number(C15, Y) == (5, (0, 12, 6, 9, 3))
    Y = Subset(C15, 35)
    assert is_k_generic(C15, Y, 6) == (True, (0, 2, 3, 6, 9, 12))
    assert cover_number(C15, Y)[0] == 5


def test_least_cover_keeps_the_first_of_equal_size():
    # the least cover is the first cover the k = 4 decision meets
    C18 = catalog("C18")
    assert largeness_number(C18, Subset(C18, 242039)) == (3, (0, 9, 1, 3))


MID_GROUPS = [G for G in catalog_upto(24) if 9 <= G.order]
LOW_GROUPS = [G for G in catalog_upto(8) if 2 <= G.order]


@st.composite
def mid_subsets(draw, groups=MID_GROUPS):
    G = draw(st.sampled_from(groups))
    full = (1 << G.order) - 1
    bits = draw(st.integers(1, full - 1))
    if draw(st.booleans()):
        bits ^= full
    return G, Subset(G, bits)


@given(mid_subsets(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_engine_against_definitions(case, k):
    G, Y = case
    n, translators = cover_number(G, Y)
    union = 0
    for g in translators:
        union |= ref.left_translate(G, Y, g).bits
    assert union == (1 << G.order) - 1
    # minimality by the definition, not by the memo cover_number filled
    if n > 1 and G.order ** (n - 2) <= NAIVE_BUDGET:
        assert naive_is_k_large(G, Y.complement(), n - 1)
    if G.order ** (k - 1) <= NAIVE_BUDGET:
        assert is_k_large(G, Y, k)[0] == naive_is_k_large(G, Y, k)


def covers_by_mul(G, Y, translators):
    union = 0
    for g in translators:
        for y in Y.indices():
            union |= 1 << G.mul(g, y)
    return union == (1 << G.order) - 1


# 512 elements: a tabled product with array('H') rows
Q8_CUBED = power(catalog("Q8"), 3)


@st.composite
def sparse_complements(draw):
    """Y = G minus a random Z of at most half of G, so that 2-covers exist
    for some draws and not for others."""
    G = draw(st.sampled_from([power(S3, 2), power(D4, 2), Q8_CUBED]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    Z = rng.sample(range(G.order), draw(st.integers(1, G.order // 2)))
    return G, Subset.from_indices(G, Z).complement()


@given(st.one_of(mid_subsets(LOW_GROUPS), mid_subsets(),
                 sparse_complements()))
@settings(max_examples=150, deadline=None)
def test_two_cover_against_the_search_and_the_definition(case):
    G, Y = case
    two = _two_cover(G, Y)
    dfs = _CoverSearch(G, Y, NODE_CAP).search(2)
    assert (two is None) == (dfs is None)
    assert (two is None) == naive_is_k_large(G, Y.complement(), 2)
    if two is not None:
        assert two[0] == G.identity
        assert covers_by_mul(G, Y, two)
        assert covers_by_mul(G, Y, dfs)
        # every smaller s puts some s*z in Z, outside both Y and s*Y
        Z = Y.complement().indices()
        assert all(any(G.mul(s, z) in Z for z in Z) for s in range(two[1]))
    generic, cert = is_k_generic(G, Y, 2)
    assert generic == (two is not None)
    if generic:
        assert len(cert) <= 2
        assert covers_by_mul(G, Y, cert)


def test_two_cover_names_the_least_translator():
    # Y = {e, r}: r*Y = {r, r2} meets Y, and r2*Y = {r2, r3} is the
    # first translate that completes the cover
    assert _two_cover(C4, subset(C4, [0, 1])) == (0, 2)
    assert is_k_generic(C4, subset(C4, [0, 1]), 2) == (True, (0, 2))
    assert _two_cover(C4, subset(C4, [0, 1, 2])) == (0, 1)
    assert _two_cover(C4, subset(C4, [0])) is None


# groups of 64 or more elements, so half of G is a subset the greedy
# cover scores only part of
CAPPED_GROUPS = [power(D4, 2), power(catalog("Q8"), 2), power(C4, 3)]


@given(mid_subsets(CAPPED_GROUPS + [Q8_CUBED]))
@settings(max_examples=40, deadline=None)
def test_capped_greedy_returns_covers(case):
    G, Y = case
    search = _CoverSearch(G, Y, NODE_CAP)
    sel = search.greedy()
    assert covers_by_mul(G, Y, sel)
    # each step builds at most one mask per scored translator, and the
    # stride len(Y) // GREEDY_SPAN keeps those under 2 * GREEDY_SPAN
    assert len(search.mask_cache) < len(sel) * 2 * GREEDY_SPAN


@given(mid_subsets(CAPPED_GROUPS), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_capped_decisions_match_the_definition(case, k):
    G, Y = case
    generic, cert = is_k_generic(G, Y, k)
    assert generic == (not naive_is_k_large(G, Y.complement(), k))
    if generic:
        assert covers_by_mul(G, Y, cert)


def check_decisions_against_the_oracle(G, Y):
    """is_k_generic, with the memo emptied before each decision, against
    the unanchored search of reference_eval from k = ceil(|G|/|Y|) up to
    the cover number."""
    k = -(-G.order // Y.size)
    while True:
        G._decisions.clear()
        generic, cert = is_k_generic(G, Y, k)
        expected = ref.cover_decision(G, Y, k)
        assert generic == (expected is not None), (G.label, Y.bits, k)
        if generic:
            assert len(cert) <= k and covers_by_mul(G, Y, cert)
            assert len(expected) <= k and covers_by_mul(G, Y, expected)
            break
        k += 1
    G._decisions.clear()
    assert cover_number(G, Y)[0] == k


@given(mid_subsets([G for G in catalog_upto(24) if G.order >= 2]))
@settings(max_examples=60, deadline=None)
def test_decisions_match_the_unanchored_search(case):
    check_decisions_against_the_oracle(*case)


@given(st.sampled_from(CAPPED_GROUPS), st.integers(0, 2 ** 32))
@settings(max_examples=25, deadline=None)
def test_capped_decisions_match_the_unanchored_search(G, seed):
    # 3/8 to 5/8 of G, where the oracle refutes k = 3 or 4 quickly
    rng = random.Random(seed)
    size = rng.randint(G.order * 3 // 8, G.order * 5 // 8)
    check_decisions_against_the_oracle(
        G, Subset.from_indices(G, rng.sample(range(G.order), size)))


def test_solution_set_decisions_match_the_unanchored_search():
    for G in catalog_upto(8):
        for eq in ["x1*x2=x2*x1", "x1^2*x2=x2*x1^2", "x1*x2*x1=x2",
                   "x1^2=x2^2"]:
            X = solution_set(G, eq).as_subset()
            for Y in (X, X.complement()):
                if Y.size:
                    check_decisions_against_the_oracle(Y.parent, Y)


def test_a_greedy_miss_is_closed_by_the_search():
    # 38 of D4^2's 64 elements: the greedy scores every second translator
    # through each element and needs 4 translates, where 3 suffice
    G = power(D4, 2)
    Y = Subset(G, 6151843474569792759)
    search = _CoverSearch(G, Y, NODE_CAP)
    assert len(search.greedy()) == 4
    sel = search.search(3)
    assert search.nodes > 0
    assert len(sel) == 3 and covers_by_mul(G, Y, sel)
    assert is_k_generic(G, Y, 3) == (True, sel)
    assert not naive_is_k_large(G, Y.complement(), 3)
    assert cover_number(G, Y)[0] == 3


# cheap equations for every group of catalog<=16, and the commutation
# equations on the groups of order 8 or less: on A4 their least cover
# takes 69,535 search nodes over the decisions k = 3, 4 and 5
CERTIFICATE_QUERIES = [
    (G.label, eq)
    for G in catalog_upto(16)
    for eq in ["x1^2=#e", "x1^3=x1", "x1*x2=#e", "x1^2*x2=x2*x1^2"]
    + (["x1*x2=x2*x1", "[x1,x2]=#e"] if G.order <= 8 else [])]


def test_the_a4_commuting_set_searches_from_y(monkeypatch):
    # 48 of A4^2's 144 elements; the greedy cover has 7 translates, so
    # the decisions k = 3, 4 and 5 all search, which takes 176,800 nodes
    # from the empty cover
    nodes = []
    search = _CoverSearch.search

    def counted(self, k):
        self.nodes = 0
        sel = search(self, k)
        nodes.append(self.nodes)
        return sel

    monkeypatch.setattr(_CoverSearch, "search", counted)
    X = solution_set(catalog("A4"), "x1*x2=x2*x1").as_subset()
    assert cover_number(X.parent, X) == (5, (0, 14, 69, 76, 127))
    assert len(nodes) == 3 and sum(nodes) <= 70_000


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli._main([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def test_printed_certificates_cover():
    for label, eq in CERTIFICATE_QUERIES:
        X = solution_set(catalog(label), eq).as_subset()
        P = X.parent
        rep = cli_json("largeness", label, eq)
        gen, lar = rep["genericity_certificate"], rep["largeness_certificate"]
        if X.size == 0:
            assert gen is None
        else:
            assert len(gen["translators"]) == rep["genericity_number"]
            assert covers_by_mul(P, X, gen["translators"]), (label, eq)
        if X.size == P.order:
            assert lar is None
        else:
            assert len(lar["translators"]) == rep["largeness_number"] + 1
            assert covers_by_mul(P, X.complement(), lar["translators"]), \
                (label, eq)
        if X.size:
            cov = cli_json("cover", label, "--subset", "solutions:" + eq)
            assert cov["cover_number"] == rep["genericity_number"]
            assert covers_by_mul(P, X, cov["translators"]), (label, eq)


def test_small_k_never_reaches_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the branch and bound ran for k <= 2")

    G = catalog("S4")
    monkeypatch.setattr(largeness, "_CoverSearch", refuse)
    for bits in (0xFFF, 0xFF00FF, 0x5A5A5A, 0x1, 0xFFFFFE):
        X = Subset(G, bits)
        for k in (1, 2):
            expected = naive_is_k_large(G, X, k)
            assert is_k_large(G, X, k)[0] == expected
            assert is_k_generic(G, X.complement(), k)[0] != expected


def decision_sequence(G, seed):
    """Subsets of three densities with every k from 1 to 5, shuffled."""
    rng = random.Random(seed)
    full = (1 << G.order) - 1
    sequence = []
    for _ in range(12):
        a, b = rng.getrandbits(G.order), rng.getrandbits(G.order)
        for bits in (a & b, a, a | b):
            bits &= full
            if bits not in (0, full):
                sequence.extend((bits, k) for k in range(1, 6))
    rng.shuffle(sequence)
    return sequence


def test_memo_answers_match_a_fresh_group():
    warm = catalog("S4")
    assert warm._decisions == {}
    for bits, k in decision_sequence(warm, 1) + decision_sequence(warm, 2):
        is_k_generic(warm, Subset(warm, bits), k)
    assert warm._decisions
    fresh = catalog("S4")
    assert fresh._decisions == {}
    for bits, k in decision_sequence(warm, 2):
        Yw, Yf = Subset(warm, bits), Subset(fresh, bits)
        ok, cert = is_k_generic(warm, Yw, k)
        assert ok == is_k_generic(fresh, Yf, k)[0]
        assert ok == (_CoverSearch(fresh, Yf, NODE_CAP).search(k)
                      is not None)
        if ok:
            assert len(cert) <= k
            assert covers_by_mul(warm, Yw, cert)
        large, lcert = is_k_large(warm, Yw.complement(), k)
        assert large == (not ok)
        if not large:
            assert len(lcert) == k
            assert covers_by_mul(warm, Yw, lcert)


def test_a_least_cover_leaves_its_decisions_in_the_memo(monkeypatch):
    built = []

    class Counted(_CoverSearch):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(largeness, "_CoverSearch", Counted)
    C15 = catalog("C15")
    Y = Subset(C15, 1064)
    c, sel = cover_number(C15, Y)
    assert c == 5 and built
    built.clear()
    assert is_k_generic(C15, Y, c) == (True, sel)
    assert is_k_generic(C15, Y, c - 1) == (False, None)
    assert cover_number(C15, Y) == (c, sel)
    assert built == []


def test_a_least_cover_runs_the_greedy_once(monkeypatch):
    runs = []
    greedy = _CoverSearch.greedy

    def counted(search):
        runs.append(search)
        return greedy(search)

    monkeypatch.setattr(_CoverSearch, "greedy", counted)
    G = catalog("S4")
    # ten elements: ceil(24/10) = 3 translates are refuted, 4 cover
    Z = Subset(G, 0x8A079C)
    c, sel = cover_number(G, Z)
    assert c == 4 and covers_by_mul(G, Z, sel)
    assert G._decisions[Z.bits] == (3, sel)
    assert len(runs) == 1


def test_memo_serves_a_smaller_cover_to_a_larger_k():
    G = catalog("S4")
    Y = Subset(G, 0xFFFF0F)
    ok, cert = is_k_generic(G, Y, 2)
    assert ok and len(cert) == 2
    assert G._decisions == {Y.bits: (0, cert)}
    assert is_k_generic(G, Y, 5) == (True, cert)
    assert is_k_large(G, Y.complement(), 4) == (
        False, cert + (cert[-1],) * 2)
    # ten elements that need four translates
    Z = Subset(G, 0x8A079C)
    assert is_k_generic(G, Z, 3) == (False, None)
    assert G._decisions[Z.bits] == (3, None)
    assert is_k_generic(G, Z, 2) == (False, None)
    ok, cert = is_k_generic(G, Z, 4)
    assert ok and G._decisions[Z.bits] == (3, cert)
    assert catalog("S4")._decisions == {}


E8 = catalog("E2^3")
# 1344 elements, above the product table bound
AUT_E8 = direct_product(automorphism_group(E8)[0], E8)
# groups above order 256 with paged masks: tabled products, whose rows
# are 16-bit arrays, and a table group of S4^2, whose rows are tuples
D7 = catalog("D7")
PAGED = [power(catalog("S4"), 2),
         direct_product(automorphism_group(D7)[0], D7),
         TableGroup(power(catalog("S4"), 2).table, validate=False)]


def check_gathered_masks(G, indices, step=1):
    Y = Subset.from_indices(G, indices)
    search = _CoverSearch(G, Y, NODE_CAP)
    for g in range(0, G.order, step):
        assert search.translate_mask(g) == ref.left_translate(G, Y, g).bits


@given(st.sampled_from(catalog_upto(24) + [power(D4, 2)]), st.data())
@settings(max_examples=40, deadline=None)
def test_gathered_masks_match_the_mul_loop(G, data):
    check_gathered_masks(G, data.draw(st.lists(st.integers(0, G.order - 1))))


@given(st.data())
@settings(max_examples=3, deadline=None)
def test_paged_masks_match_the_mul_loop(data):
    # every translate, a random Y, and the full and empty sets, whose
    # masks fill every page or none
    for G in PAGED:
        check_gathered_masks(
            G, data.draw(st.lists(st.integers(0, G.order - 1))))
        check_gathered_masks(G, [], step=7)
        check_gathered_masks(G, range(G.order), step=7)


@given(st.lists(st.integers(0, AUT_E8.order - 1), max_size=64))
@settings(max_examples=4, deadline=None)
def test_gathered_masks_match_the_mul_loop_above_the_bound(indices):
    check_gathered_masks(AUT_E8, indices)


def test_gathered_masks_match_the_mul_loop_past_16_bits():
    # 83521 elements, whose indices do not fit the 16-bit rows of the
    # paged gather: the masks are joined from the tuple rows
    G = power(catalog("C17"), 4)
    check_gathered_masks(G, range(0, G.order, 1009), step=8353)
    check_gathered_masks(G, [0, 1, 17, G.order - 1], step=8353)
