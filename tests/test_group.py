from array import array

import pytest
from hypothesis import given, settings, strategies as st

import reference_eval as ref
from eqlarge.catalog import catalog, catalog_upto, parse_group_list
from eqlarge.errors import NotAGroup, NotASubgroup, NotNormal, OrderBound
from eqlarge.group import (
    TABLE_MATERIALIZE_BOUND,
    ProductGroup,
    Subset,
    TableGroup,
    automorphism_group,
    center,
    centralizer,
    class_count,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    exponent,
    from_cayley_table,
    from_permutation_generators,
    image_subset,
    inner_automorphisms,
    is_2_engel,
    is_abelian,
    is_subgroup,
    lower_central_series,
    max_centralizer_index,
    mc_witness,
    nilpotency_class,
    normal_closure,
    power,
    preimage_subset,
    projections,
    quotient,
    subgroup_generated,
    upper_central_series,
)
from eqlarge.probability import solution_set


def check_axioms(G):
    n = G.order
    seen_rows = all(
        sorted(G.mul(g, h) for h in range(n)) == list(range(n))
        for g in range(n))
    seen_cols = all(
        sorted(G.mul(g, h) for g in range(n)) == list(range(n))
        for h in range(n))
    assert seen_rows and seen_cols
    for g in range(n):
        assert G.mul(G.identity, g) == g
        assert G.mul(g, G.identity) == g
        assert G.mul(g, G.inv(g)) == G.identity
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_table_construction_trivial():
    G = from_cayley_table([[0]])
    assert G.order == 1
    assert G.identity == 0


def test_table_construction_c2():
    G = from_cayley_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.inv(1) == 1


def test_table_construction_rejects_bad_row():
    with pytest.raises(NotAGroup):
        from_cayley_table([[0, 1, 2], [1, 0, 0], [2, 0, 1]])


def test_table_identity_need_not_be_element_zero():
    # C2 written with the identity in slot 1
    G = from_cayley_table([[1, 0], [0, 1]])
    assert G.identity == 1
    assert G.mul(0, 0) == 1


def test_permutation_generators():
    G = from_permutation_generators(3, [(1, 2, 0), (1, 0, 2)])
    assert G.order == 6
    H = from_permutation_generators(4, [(1, 0, 3, 2)])
    assert H.order == 2
    T = from_permutation_generators(3, [])
    assert T.order == 1


def test_axioms_hold_for_constructed_groups():
    for spec in ("C6", "S3", "D4", "Q8", "H2", "C2xC3"):
        check_axioms(catalog(spec))


def test_products_and_powers():
    P = direct_product(catalog("S3"), catalog("C2"))
    assert P.order == 12
    V = power(catalog("C2"), 2)
    assert V.order == 4
    assert exponent(V) == 2
    assert power(catalog("S3"), 3).order == 216
    # same object comes back from the per-group cache
    G = catalog("S3")
    assert power(G, 2) is power(G, 2)


def test_product_tables_pack_their_rows():
    # a product with C1 factors, a nested product, the two ends of the
    # tabled range, and Aut(D7)xD7, whose 588 elements give array('H')
    # rows; rows are checked against componentwise products, every row up
    # to order 256 and every 37th above
    C2, D7 = catalog("C2"), catalog("D7")
    for P in (catalog("C2xC1xS3xC3xC3"),
              direct_product(direct_product(C2, catalog("C3")), catalog("Q8")),
              power(C2, 10), power(C2, 0),
              direct_product(automorphism_group(D7)[0], D7)):
        assert isinstance(P, TableGroup) and isinstance(P, ProductGroup)
        step = 1 if P.order <= 256 else 37
        for a in range(0, P.order, step):
            # mul folds row a on its first call, row(a) returns it
            assert [P.mul(a, b) for b in range(P.order)] == [
                ProductGroup.mul(P, a, b) for b in range(P.order)], P.label
            row = P.row(a)
            if P.order <= 256:
                assert type(row) is bytes, P.label
            else:
                assert type(row) is array and row.typecode == "H", P.label
        assert P.inverses == tuple(
            ProductGroup.inv(P, a) for a in range(P.order)), P.label
        assert P.names == tuple(
            ProductGroup.name(P, a) for a in range(P.order)), P.label
        assert P.table == tuple(map(P.row, range(P.order))), P.label


def test_products_fold_rows_on_first_use(folds):
    D7 = catalog("D7")
    P = direct_product(automorphism_group(D7)[0], D7)
    assert P.order == 588 and folds == []
    assert P.mul(5, 7) == ProductGroup.mul(P, 5, 7)
    assert P.row(5) is P.row(5)
    assert folds == [(P, 5)]


def test_mixed_radix_is_leftmost_major():
    G = catalog("C3")
    P = power(G, 2)
    assert P.encode((1, 0)) == 3
    assert P.encode((0, 1)) == 1
    assert P.decode(5) == (1, 2)


SMALL = ["C1", "C2", "C3", "C4", "S3", "Q8"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(SMALL), max_size=4))
def test_codec_round_trips(specs):
    factors = [catalog(s) for s in specs]
    for P in (ProductGroup(factors), direct_product(*factors)):
        tuples = list(P.tuples())
        assert len(tuples) == P.order
        for idx, parts in enumerate(tuples):
            assert P.decode(idx) == parts
            assert P.encode(parts) == idx


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.integers(1, 3), st.data())
def test_codec_order_is_solution_bit_order(spec, arity, data):
    G = catalog(spec)
    i = data.draw(st.integers(0, arity - 1))
    c = data.draw(st.integers(0, G.order - 1))
    # x_arity^0 is the identity; it only fixes the arity
    sols = solution_set(G, f"x{i + 1}*x{arity}^0=#{c}")
    P = ProductGroup((G,) * arity)
    assert set(sols.indices()) == {
        idx for idx in range(P.order) if P.decode(idx)[i] == c}


def test_folded_tables_match_componentwise_products():
    C2, C3, S3 = catalog("C2"), catalog("C3"), catalog("S3")
    products = [
        direct_product(S3, C2),
        power(catalog("C4"), 3),
        direct_product(catalog("D4"), catalog("Q8")),
        direct_product(ProductGroup((C2, C3)), S3),
        direct_product(direct_product(C2, C3), C2),
        power(C2, 0),
    ]
    for P in products:
        assert isinstance(P, TableGroup) and isinstance(P, ProductGroup)
        for a in range(P.order):
            assert P.inv(a) == ProductGroup.inv(P, a)
            for b in range(P.order):
                assert P.mul(a, b) == ProductGroup.mul(P, a, b)
        check_axioms(P)
    edge = power(C2, 10)
    assert edge.order == TABLE_MATERIALIZE_BOUND
    assert isinstance(edge, TableGroup)
    assert direct_product(S3, C2).names[:3] == ("(e,0)", "(e,1)", "((2 3),0)")


def test_products_above_the_bound_stay_componentwise():
    G = catalog("E2^3")
    A, _ = automorphism_group(G)
    P = direct_product(A, G)
    assert P.order == 1344 > TABLE_MATERIALIZE_BOUND
    assert isinstance(P, ProductGroup) and not isinstance(P, TableGroup)
    for idx, (s, h) in enumerate(P.tuples()):
        assert P.decode(idx) == (s, h)
        assert P.encode((s, h)) == idx
    for a in range(0, P.order, 37):
        for b in range(0, P.order, 41):
            (sa, ha), (sb, hb) = P.decode(a), P.decode(b)
            assert P.decode(P.mul(a, b)) == (A.mul(sa, sb), G.mul(ha, hb))


def test_rows_are_left_multiplication():
    C2, C3, S3 = catalog("C2"), catalog("C3"), catalog("S3")
    E8 = catalog("E2^3")
    aut_e8 = direct_product(automorphism_group(E8)[0], E8)
    groups = [
        S3,
        power(catalog("D4"), 2),
        ProductGroup((C2, C3)),
        ProductGroup((power(C3, 2), S3)),
        aut_e8,
        direct_product(aut_e8, C2),
    ]
    for G in groups:
        step = 1 if G.order <= TABLE_MATERIALIZE_BOUND else 97
        for h in range(0, G.order, step):
            row = G.row(h)
            assert len(row) == G.order
            assert all(row[z] == G.mul(h, z) for z in range(G.order))


def test_product_names_resolve():
    S4, C2 = catalog("S4"), catalog("C2")
    big = direct_product(S4, S4, C2)
    assert big.order > TABLE_MATERIALIZE_BOUND and big.names is None
    assert big.name(0) == "(e,e,0)"
    assert big.name(big.encode((1, 23, 1))) == (
        f"({S4.name(1)},{S4.name(23)},1)")
    nested = ProductGroup((direct_product(catalog("S3"), C2),
                           catalog("E2^3")))
    assert nested.name(nested.encode((3, 5))) == "(((2 3),1),5)"
    for G in (big, nested, direct_product(catalog("E2^3"), C2),
              power(C2, 0)):
        for a in range(0, G.order, 7):
            assert G.element_by_name(G.name(a)) == a
            if G.names is not None:
                assert G.names[a] == G.name(a)
    for text in ("(e,e)", "(e,e,2)", "(e,e,0,0)", "e", "(e,(1 2,0)"):
        assert big.element_by_name(text) is None
    assert power(C2, 0).element_by_name("()") == 0


def test_projections_are_homomorphisms():
    P = direct_product(catalog("S3"), catalog("C2"))
    pr = projections(P)
    assert [h.target.label for h in pr] == ["S3", "C2"]
    for h in pr:
        for a in range(P.order):
            for b in range(P.order):
                assert h(P.mul(a, b)) == h.target.mul(h(a), h(b))
    assert image_subset(pr[0], Subset.full(P)).size == 6


def test_quotients():
    C4 = catalog("C4")
    Q, pi = quotient(C4, Subset.from_indices(C4, [0, 2]))
    assert Q.order == 2
    D4 = catalog("D4")
    Q2, _ = quotient(D4, center(D4))
    assert Q2.order == 4
    assert exponent(Q2) == 2
    S3 = catalog("S3")
    Q3, pi3 = quotient(S3, Subset.from_indices(S3, [S3.identity]))
    assert Q3.order == 6
    assert [pi3(g) for g in range(6)] == list(range(6))


def test_quotient_rejects_bad_input():
    S3 = catalog("S3")
    t = next(g for g in range(6) if g != S3.identity
             and S3.mul(g, g) == S3.identity)
    with pytest.raises(NotNormal):
        quotient(S3, Subset.from_indices(S3, [S3.identity, t]))
    with pytest.raises(NotASubgroup):
        quotient(S3, Subset.from_indices(S3, [S3.identity, 3]))


def test_preimage_of_identity_is_the_kernel():
    D4 = catalog("D4")
    Z = center(D4)
    Q, pi = quotient(D4, Z)
    ker = preimage_subset(pi, Subset.from_indices(Q, [Q.identity]))
    assert ker.bits == Z.bits


def test_center_and_centralizers():
    S3 = catalog("S3")
    assert center(S3).size == 1
    assert center(catalog("Q8")).size == 2
    t = next(g for g in range(6) if g != S3.identity
             and S3.mul(g, g) == S3.identity)
    assert centralizer(S3, [t]).size == 2
    for spec in ("S3", "D4", "C6"):
        G = catalog(spec)
        assert center(G).bits == centralizer(G, Subset.full(G)).bits


def test_centralizer_is_antitone():
    G = catalog("D4")
    small = Subset.from_indices(G, [1])
    big = Subset.from_indices(G, [1, 4])
    inside = centralizer(G, big).bits & ~centralizer(G, small).bits
    assert inside == 0


def test_generated_subgroups():
    D4 = catalog("D4")
    r = next(g for g in range(8) if D4.name(g) == "r")
    assert subgroup_generated(D4, [r]).size == 4
    S3 = catalog("S3")
    t = next(g for g in range(6) if g != S3.identity
             and S3.mul(g, g) == S3.identity)
    assert normal_closure(S3, [t]).size == 6


def test_conjugacy_classes():
    S3 = catalog("S3")
    sizes = sorted(len(c) for c in conjugacy_classes(S3))
    assert sizes == [1, 2, 3]
    assert class_count(catalog("Q8")) == 5
    C6 = catalog("C6")
    assert all(len(c) == 1 for c in conjugacy_classes(C6))


def test_class_equation():
    for G in parse_group_list("catalog<=12"):
        classes = conjugacy_classes(G)
        assert sum(len(c) for c in classes) == G.order
        for c in classes:
            assert G.order % len(c) == 0


def test_central_series():
    D4 = catalog("D4")
    assert [s.size for s in lower_central_series(D4)] == [8, 2, 1]
    assert [s.size for s in upper_central_series(D4)] == [1, 2, 8]
    assert nilpotency_class(D4) == 2
    assert nilpotency_class(catalog("S3")) is None
    lcs = lower_central_series(catalog("S3"))
    assert lcs[-1].size == 3


def test_two_series_agree_on_the_class():
    for G in parse_group_list("catalog<=16"):
        k = nilpotency_class(G)
        ucs = upper_central_series(G)
        reaches = ucs[-1].size == G.order
        assert (k is not None) == reaches
        if k is not None:
            assert len(lower_central_series(G)) == k + 1
            assert len(ucs) == k + 1


def test_exponent_and_engel():
    assert exponent(catalog("S3")) == 6
    assert exponent(catalog("D4")) == 4
    assert is_2_engel(catalog("Q8"))
    assert is_2_engel(catalog("D4"))
    assert not is_2_engel(catalog("S3"))


def test_max_centralizer_index():
    assert max_centralizer_index(catalog("S3")) == 3
    assert max_centralizer_index(catalog("D4")) == 2
    assert max_centralizer_index(catalog("C6")) == 1


def test_derived_subgroup():
    assert derived_subgroup(catalog("D4")).size == 2
    assert derived_subgroup(catalog("C6")).size == 1


def test_automorphism_groups():
    A, _ = automorphism_group(catalog("C4"))
    assert A.order == 2
    B, _ = automorphism_group(catalog("C2xC2"))
    assert B.order == 6
    I, _ = inner_automorphisms(catalog("S3"))
    assert I.order == 6


def test_automorphisms_preserve_the_table():
    G = catalog("D4")
    A, act = automorphism_group(G)
    for s in range(A.order):
        row = act[s]
        for a in range(G.order):
            for b in range(G.order):
                assert row[G.mul(a, b)] == G.mul(row[a], row[b])


def test_automorphisms_match_the_pairwise_search():
    # every catalog<=24 group within the bounds, and D4xC4, where testing
    # the first generator alone accepts maps that are no automorphisms
    checked = 0
    for G in catalog_upto(24) + [catalog("D4xC4")]:
        try:
            _, action = automorphism_group(G)
        except OrderBound:
            continue
        assert action == ref.automorphism_action(G), G.label
        checked += 1
    assert checked == 43


def test_automorphism_search_fails_fast_past_its_bound():
    with pytest.raises(OrderBound):
        automorphism_group(catalog("E2^4"))


def test_mc_witness():
    C6 = catalog("C6")
    w = mc_witness(C6, 1)
    assert w.s == 0
    assert w.witness_sets == ((),)
    w3 = mc_witness(catalog("S3"), 1)
    assert w3.s == 2
    wd = mc_witness(catalog("D4"), 2)
    assert wd.class_bound == 2
    assert wd.s <= 2


def test_mc_witness_is_minimal_on_s3():
    S3 = catalog("S3")
    Z = center(S3)
    # no single element of S3 has a central centralizer
    for g in range(S3.order):
        assert centralizer(S3, [g]).bits != Z.bits


def test_subgroup_checks():
    D4 = catalog("D4")
    assert is_subgroup(D4, [0, 2])
    assert not is_subgroup(D4, [0, 1])
    assert not is_subgroup(D4, [1, 2])


def test_subset_basics():
    G = catalog("C4")
    X = Subset.from_indices(G, [0, 1])
    assert X.size == 2
    assert X.complement().size == 2
    assert list(X.indices()) == [0, 1]
    assert Subset.full(G).size == 4
    assert Subset.empty(G).size == 0
