"""The bytes column arithmetic of groups of order at most 16 against the
list gather through the table rows, which it replaced there and which
stays its oracle.

Every catalog group of order at most 16 and a few tabled products of that
size run mul, inv and comm on random columns of every awkward length,
and whole programs whose roots are each kind of load.
"""
import random

import pytest

from eqlarge.catalog import catalog, catalog_upto
from eqlarge.errors import UnboundConstant
from eqlarge.group import automorphism_group, direct_product, power
from eqlarge.words import (
    PACKED_ORDER_BOUND,
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
LENGTHS = (0, 1, 2, 100, 4096)


def columns(G, length, count, seed):
    rng = random.Random(seed)
    return [[rng.randrange(G.order) for _ in range(length)]
            for _ in range(count)]


@pytest.mark.parametrize("G", PACKED, ids=lambda G: G.label)
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


ROOTS = ["x2", "g", "h", "#e", "x1", "[x1,x2]^3 * h * x2^-1 * g"]


@pytest.mark.parametrize("G", PACKED, ids=lambda G: G.label)
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


def test_packed_tables_are_built_once_per_group():
    G = catalog("D5")
    assert G._packed is None
    column_ops(G)
    tables = G._packed
    assert [len(t) for t in tables] == [256] * 4
    column_ops(G)
    assert G._packed is tables
    # a fresh group builds its own
    assert catalog("D5")._packed is None


def test_each_group_takes_one_path():
    assert type(column_ops(catalog("H2"))) is _PackedColumns
    assert type(column_ops(catalog("C17"))) is _TableColumns
    assert type(column_ops(catalog("S4"))) is _TableColumns
    E8 = catalog("E2^3")
    big = direct_product(automorphism_group(E8)[0], E8)
    assert not hasattr(big, "table")
    assert type(column_ops(big)) is _MappedColumns
    C17 = catalog("C17")
    column_ops(C17)
    assert C17._packed is None


@pytest.mark.parametrize("label", ["D4", "C17"])
def test_a_scalar_constant_outside_the_group_is_refused(label):
    G = catalog(label)
    program = compile_words([parse_word("x1*g")])
    for value in (G.order, -1):
        with pytest.raises(UnboundConstant):
            run_program(program, column_ops(G), [[0]], 1, {"g": value})
