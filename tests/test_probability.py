import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqlarge.catalog import catalog
from eqlarge import group
from eqlarge.errors import (
    ActionNotClosed,
    ArityMismatch,
    IndexBound,
    OrderBound,
)
from eqlarge.group import (
    ProductGroup,
    Subset,
    center,
    class_count,
    inner_automorphisms,
    power,
    trivial_action,
)
from eqlarge.largeness import UNBOUNDED
from eqlarge.probability import (
    autocommutativity_degree,
    commuting_probability,
    equation_largeness,
    probability,
    solution_set,
    solution_sets_by_value,
)
from eqlarge.words import evaluate, parse_equation, parse_word

C2 = catalog("C2")
C3 = catalog("C3")
S3 = catalog("S3")
D4 = catalog("D4")
Q8 = catalog("Q8")
V = catalog("E2^2")


def test_solution_counts():
    assert solution_set(C2, parse_equation("x1^2 = #e")).count == 2
    assert solution_set(S3, parse_equation("x1^2 = #e")).count == 4
    ss = solution_set(S3, parse_equation("[x1,x2] = #e"))
    assert ss.arity == 2
    assert ss.count == 18


def test_probabilities_match_known_values():
    assert probability(S3, parse_equation("[x1,x2] = #e")) == Fraction(1, 2)
    assert probability(Q8, parse_equation("[x1,x2] = #e")) == Fraction(5, 8)
    assert probability(D4, parse_equation("x1^2 = #e")) == Fraction(3, 4)


def test_commuting_probability_is_class_count_over_order():
    for G in (C2, C3, S3, D4, Q8, V):
        assert commuting_probability(G) == Fraction(class_count(G), G.order)
        assert commuting_probability(G) == probability(
            G, parse_equation("[x1,x2] = #e"))


def test_solution_set_membership_is_faithful():
    P = ProductGroup((S3, S3))
    # x1 = x2^2 is not symmetric in x1 and x2, so a decode that swaps the
    # variables fails on it
    for text in ("[x1,x2] = #e", "x1 = x2^2"):
        eq = parse_equation(text)
        members = set(solution_set(S3, eq).indices())
        for idx in range(P.order):
            xy = P.decode(idx)
            expected = evaluate(S3, eq.lhs, xy) == evaluate(S3, eq.rhs, xy)
            assert (idx in members) == expected


def test_values_partition_the_assignment_space():
    by = solution_sets_by_value(S3, parse_word("x1^2"))
    assert {v: s.count for v, s in by.items()} == {0: 4, 3: 1, 4: 1}
    assert sum(s.count for s in by.values()) == S3.order
    by2 = solution_sets_by_value(D4, parse_word("[x1,x2]"))
    assert sum(s.count for s in by2.values()) == D4.order ** 2
    seen = 0
    for s in by2.values():
        assert seen & s.bits == 0
        seen |= s.bits


def test_equation_largeness_reports():
    rep = equation_largeness(S3, parse_equation("x1^3 = #e"))
    assert rep.subset_size == 3
    assert rep.largeness_number == 1
    assert rep.genericity_number == 2
    rep2 = equation_largeness(C3, parse_equation("x1^3 = #e"))
    assert rep2.largeness_number is UNBOUNDED
    assert rep2.genericity_number == 1
    rep3 = equation_largeness(D4, parse_equation("[x1,x2] = #e"))
    assert rep3.subset_size == 40
    assert rep3.largeness_number == 3
    assert rep3.genericity_number == 3
    union = 0
    comm = solution_set(D4, parse_equation("[x1,x2] = #e"))
    P = power(D4, 2)
    for g in rep3.genericity_certificate:
        for idx in comm.indices():
            union |= 1 << P.mul(g, idx)
    assert union == (1 << P.order) - 1


def test_constants_in_equations():
    r2 = 2
    eq = parse_equation("[x1,x2] = c")
    n = solution_set(D4, eq, constants={"c": r2}).count
    # commutator values in D4 land in the center, 40 pairs at the identity
    # and the remaining 24 at the central rotation
    assert n == 24
    assert probability(D4, eq, constants={"c": r2}) == Fraction(3, 8)


def test_conjugate_constants_have_equal_counts():
    eq = parse_equation("x1^2 = c")
    rng = random.Random(5)
    for _ in range(20):
        g = rng.randrange(S3.order)
        h = rng.randrange(S3.order)
        conj = S3.mul(S3.inv(h), S3.mul(g, h))
        assert solution_set(S3, eq, constants={"c": g}).count == \
            solution_set(S3, eq, constants={"c": conj}).count


@given(st.integers(min_value=0, max_value=7))
@settings(max_examples=8, deadline=None)
def test_swapping_commutator_arguments_inverts_the_value(c):
    eq = parse_equation("[x1,x2] = c")
    eq_swapped = parse_equation("[x2,x1] = c")
    n1 = solution_set(D4, eq, constants={"c": c}).count
    n2 = solution_set(D4, eq_swapped, constants={"c": D4.inv(c)}).count
    assert n1 == n2


def test_autocommutativity_degrees():
    full = Subset.full(S3)
    rep = autocommutativity_degree(S3, full, inner_automorphisms(S3))
    assert rep.degree == Fraction(1, 2)
    assert rep.sigma_order == 6
    assert rep.subset_size == 6
    rep_t = autocommutativity_degree(S3, full, trivial_action(S3))
    assert rep_t.degree == 1
    assert rep_t.sigma_order == 1
    # restricting to the center pins every inner automorphism
    repc = autocommutativity_degree(D4, center(D4), inner_automorphisms(D4))
    assert repc.degree == 1


def test_autocommutativity_rejects_non_actions():
    full = Subset.full(S3)
    A, action = inner_automorphisms(S3)
    with pytest.raises(ActionNotClosed, match="size"):
        autocommutativity_degree(S3, full, (A, action[:-1]))
    not_a_permutation = (tuple(range(5)) + (0,),) + tuple(action[1:])
    with pytest.raises(ActionNotClosed, match="not a permutation"):
        autocommutativity_degree(S3, full, (A, not_a_permutation))
    # swapping an element of order 2 with one of order 3 is a
    # permutation of S3 but no automorphism
    t = next(g for g in range(6) if S3.element_order(g) == 2)
    c = next(g for g in range(6) if S3.element_order(g) == 3)
    swap = list(range(6))
    swap[t], swap[c] = c, t
    T, _ = trivial_action(S3)
    with pytest.raises(ActionNotClosed, match="not multiplicative"):
        autocommutativity_degree(S3, full, (T, (tuple(swap),)))


def test_inner_action_degree_matches_commuting_probability():
    for G in (S3, D4, Q8):
        rep = autocommutativity_degree(G, Subset.full(G),
                                       inner_automorphisms(G))
        inner_order = G.order // center(G).size
        assert rep.sigma_order == inner_order
        # summing centralizer sizes over inner classes reproduces the
        # commuting-pair count scaled by the center
        total = rep.degree * inner_order * G.order
        assert total == commuting_probability(G) * G.order ** 2 \
            / center(G).size


def test_enumeration_limits(monkeypatch):
    with pytest.raises(ArityMismatch):
        solution_set(S3, parse_equation("x1*x2*x3*x4*x5 = #e"))
    # the one index bound, read at call time, caps enumerations and
    # products alike
    monkeypatch.setattr(group, "INDEX_BOUND", 100)
    with pytest.raises(IndexBound):
        solution_set(S3, parse_equation("x1*x2*x3*x4 = #e"))
    assert solution_set(S3, parse_equation("x1*x2 = #e")).count == 6
    with pytest.raises(OrderBound):
        power(catalog("S3"), 3)     # a fresh group, so no cached power
    S4 = catalog("S4")
    inner = inner_automorphisms(S4)     # 24 maps, so 576 pairs
    with pytest.raises(OrderBound):
        autocommutativity_degree(S4, Subset.full(S4), inner)
