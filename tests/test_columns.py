"""The bytes column arithmetic of groups of order at most 32 against the
list gather through the table rows, which it replaced there and which
stays its oracle, and against the recursive interpreter.

Every catalog group of order at most 32 and a few tabled products at both
page bounds (one page up to order 16, four pages up to 32) run mul, inv
and comm on random columns of every awkward length and on every pair
once, whole programs whose roots are each kind of load, and random words.
"""
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_eval as ref
from eqlarge import words
from eqlarge.catalog import catalog, catalog_upto
from eqlarge.errors import UnboundConstant
from eqlarge.group import automorphism_group, direct_product, power
from eqlarge.words import (
    PACKED_ORDER_BOUND,
    Comm,
    Const,
    Inv,
    Pow,
    Prod,
    Var,
    _MappedColumns,
    _PackedColumns,
    _TableColumns,
    column_ops,
    compile_words,
    parse_word,
    run_program,
)

C2 = catalog("C2")
PACKED = catalog_upto(16) + [
    power(C2, 4),                                       # C2^4
    direct_product(C2, catalog("D4")),                  # C2xD4
    direct_product(catalog("S3"), C2),
    direct_product(C2, catalog("C3"), label="C2xC3"),
]
# order 17 to 32, four pages: the catalog's groups there (C17..C32,
# D9..D16, S4, E3^3, E5^2, H3) and two tabled products at the bound
PAGED = [G for G in catalog_upto(32) if G.order > 16] + [
    power(C2, 5),                                       # C2^5
    direct_product(catalog("D4"), catalog("C4")),       # D4xC4
]
LENGTHS = (0, 1, 2, 100, 4096)
STEPS = [parse_word(text) for text in ("x1 * x2", "x1^-1", "[x1,x2]")]


def columns(G, length, count, seed):
    rng = random.Random(seed)
    return [[rng.randrange(G.order) for _ in range(length)]
            for _ in range(count)]


@pytest.mark.parametrize("G", PACKED + PAGED, ids=lambda G: G.label)
def test_packed_steps_match_the_gather(G):
    assert G.order <= PACKED_ORDER_BOUND and hasattr(G, "table")
    packed, oracle = column_ops(G), _TableColumns(G)
    assert type(packed) is _PackedColumns
    for length in LENGTHS:
        A, B = columns(G, length, 2, length)
        a, b = bytes(A), bytes(B)
        for got, want in ((packed.mul(a, b), oracle.mul(A, B)),
                          (packed.inv(a), oracle.inv(A)),
                          (packed.comm(a, b), oracle.comm(A, B))):
            assert type(got) is bytes
            assert list(got) == want
    # every pair once, past the size where the oracle tables commutators
    pairs = [(a, b) for a in range(G.order) for b in range(G.order)]
    A, B = [a for a, _ in pairs], [b for _, b in pairs]
    assert list(packed.mul(bytes(A), bytes(B))) == oracle.mul(A, B)
    assert list(packed.comm(bytes(A), bytes(B))) == oracle.comm(A, B)
    assert list(packed.comm(bytes(A), bytes(B))) == list(
        map(G.comm, A, B))
    # and the recursive interpreter, word by word
    for got, w in zip((packed.mul(bytes(A), bytes(B)), packed.inv(bytes(A)),
                       packed.comm(bytes(A), bytes(B))), STEPS):
        assert list(got) == [ref.evaluate(G, w, pair) for pair in pairs]


ROOTS = ["x2", "g", "h", "#e", "x1", "[x1,x2]^3 * h * x2^-1 * g"]


@pytest.mark.parametrize("G", PACKED + PAGED, ids=lambda G: G.label)
def test_packed_programs_match_the_gather(G):
    for length in LENGTHS:
        x1, x2, h = columns(G, length, 3, 7 + length)
        consts = {"g": length % G.order, "h": h}
        roots = [parse_word(text) for text in ROOTS]
        for program in (compile_words(roots),
                        compile_words(roots, product=True),
                        compile_words([], product=True)):
            for cols in ([x1, x2], [bytes(x1), bytes(x2)]):
                got = run_program(program, column_ops(G), cols, length,
                                  consts)
                want = run_program(program, _TableColumns(G), [x1, x2],
                                   length, consts)
                # one type for every root, so == never meets bytes and list
                assert {type(r) for r in got} == {bytes}
                assert {type(r) for r in want} == {list}
                assert [list(r) for r in got] == want
    e = G.identity
    (root,) = run_program(compile_words([], product=True), column_ops(G),
                          [], 3)
    assert root == bytes((e, e, e))


def test_packed_tables_are_built_once_per_group(monkeypatch):
    built = []

    def counted(G):
        built.append(G)
        return build(G)

    build = words._packed_tables
    monkeypatch.setattr(words, "_packed_tables", counted)
    for label, pages in (("D5", 1), ("H3", 4)):
        G = catalog(label)
        assert G._packed is None
        column_ops(G)
        tables = G._packed
        high, inverse, products, commutators = tables
        assert len(high) == len(inverse) == 256
        assert len(products) == len(commutators) == pages
        assert [len(t) for page in products + commutators
                for t in page] == [256] * 4 * pages
        column_ops(G)
        assert G._packed is tables
        assert built.count(G) == 1
        # a fresh group builds its own
        assert catalog(label)._packed is None
    assert len(built) == 2


def test_each_group_takes_one_path():
    assert type(column_ops(catalog("H2"))) is _PackedColumns
    assert type(column_ops(catalog("C17"))) is _PackedColumns
    assert type(column_ops(catalog("S4"))) is _PackedColumns
    assert type(column_ops(catalog("C33"))) is _TableColumns
    E8 = catalog("E2^3")
    big = direct_product(automorphism_group(E8)[0], E8)
    assert not hasattr(big, "table")
    assert type(column_ops(big)) is _MappedColumns
    C33 = catalog("C33")
    column_ops(C33)
    assert C33._packed is None


@pytest.mark.parametrize("label", ["D4", "C17", "C33"])
def test_a_scalar_constant_outside_the_group_is_refused(label):
    G = catalog(label)
    program = compile_words([parse_word("x1*g")])
    for value in (G.order, -1):
        with pytest.raises(UnboundConstant):
            run_program(program, column_ops(G), [[0]], 1, {"g": value})


def random_words(nvars, depth=3):
    """Words in x1..x{nvars} and the bound constant g, over products,
    inverses, powers -3..3 and commutators."""
    leaf = st.sampled_from([Var(i) for i in range(nvars)] + [Const("g")])

    def grow(sub):
        return st.one_of(
            sub.map(Inv),
            st.tuples(sub, sub).map(lambda p: Prod(*p)),
            st.tuples(sub, st.integers(min_value=-3, max_value=3)).map(
                lambda p: Pow(*p)),
            st.tuples(sub, sub).map(lambda p: Comm(*p)),
        )

    return st.recursive(leaf, grow, max_leaves=2 ** depth)


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PAGED), random_words(3),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from((0, 1, 20)))
def test_paged_programs_match_the_interpreter(G, w, seed, length):
    rng = random.Random(seed)
    cols = [[rng.randrange(G.order) for _ in range(length)]
            for _ in range(3)]
    consts = {"g": seed % G.order}
    (got,) = run_program(compile_words([w]), column_ops(G),
                         [bytes(c) for c in cols], length, consts)
    assert type(got) is bytes
    assert list(got) == [ref.evaluate(G, w, row, consts)
                         for row in zip(*cols)]
