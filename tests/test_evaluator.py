"""The compiled evaluator against the recursive interpreter it replaced.

Words are drawn over every node kind, with powers -3..3, Engel counts up
to 3, bound and unbound constants and element literals; each is run
through evaluate, evaluate_product and the solution-set enumerations on
catalog groups up to order 24 and on a componentwise product without a
table.  Values, bits, counts and the error raised must all agree.  The
enumeration with constants ranging over the group is held to the same
buckets as binding each tuple of constants, and as a plain element loop.
"""
import itertools
import random
import weakref

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_eval as ref
from eqlarge.catalog import catalog, catalog_upto
from eqlarge.errors import ArityMismatch, UnboundConstant
from eqlarge.group import (
    TABLE_MATERIALIZE_BOUND,
    automorphism_group,
    direct_product,
    is_abelian,
)
from eqlarge.linearize import enumerate_sweep_shapes, linearize
from eqlarge.probability import (
    _sets_by_value,
    solution_set,
    solution_sets_by_value,
)
from eqlarge import words as words_module
from eqlarge.words import (
    COMPILE_CACHE_SIZE,
    Comm,
    Conj,
    Const,
    Engel,
    Equation,
    Inv,
    Pow,
    Prod,
    Var,
    _MappedColumns,
    _PackedColumns,
    _TableColumns,
    column_ops,
    compile_words,
    evaluate,
    evaluate_product,
    parse_equation,
    parse_word,
    run_program,
    word_arity,
)

# every non-abelian catalog group up to order 24, where commutators and
# the order of operands matter, plus a few abelian ones
SMALL = [G for G in catalog_upto(24) if not is_abelian(G)] + \
    [catalog(label) for label in ("C1", "C6", "E2^3")]
E8 = catalog("E2^3")
BIG = direct_product(automorphism_group(E8)[0], E8)     # 1344, componentwise
GROUPS = SMALL + [BIG]

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300,
                    suppress_health_check=[HealthCheck.too_slow])


# g is always bound and h only sometimes; #23 is out of range below order 24
CONSTANTS = ("g", "h", "#e", "#5", "#23")


def words(nvars, depth=3):
    """Words in x1..x{nvars} over all eight node kinds, where six of every
    eleven leaves are variables."""
    leaf = st.sampled_from([Var(i) for i in range(nvars)] * (6 // nvars)
                           + [Const(name) for name in CONSTANTS])

    def grow(sub):
        return st.one_of(
            sub.map(Inv),
            st.tuples(sub, sub).map(lambda p: Prod(*p)),
            st.tuples(sub, st.integers(min_value=-3, max_value=3)).map(
                lambda p: Pow(*p)),
            st.tuples(sub, sub).map(lambda p: Conj(*p)),
            st.tuples(sub, sub).map(lambda p: Comm(*p)),
            st.tuples(sub, sub, st.integers(min_value=1, max_value=3)).map(
                lambda p: Engel(*p)),
        )

    return st.recursive(leaf, grow, max_leaves=2 ** depth)


def outcome(fn, *args):
    """The value, or the error class for the two word errors."""
    try:
        return fn(*args)
    except (ArityMismatch, UnboundConstant) as exc:
        return type(exc)


def bound(G, g, h=None):
    """g bound; h bound too when given, else left to raise."""
    out = {"g": g % G.order}
    if h is not None:
        out["h"] = h % G.order
    return out


values = st.integers(min_value=0, max_value=10**6)


def rows(G, seed, length):
    """Eight assignments of the given length, spread over the group; a
    length under 3 makes words in x3 raise ArityMismatch."""
    rng = random.Random(seed)
    return [tuple(rng.randrange(G.order) for _ in range(length))
            for _ in range(8)]


@PROPERTY
@given(st.sampled_from(GROUPS), words(3), values,
       st.sampled_from((3, 3, 3, 2, 1, 0)), st.none() | values)
def test_evaluate_matches_the_interpreter(G, w, seed, length, h):
    consts = bound(G, seed, h)
    for asg in rows(G, seed, length):
        assert outcome(evaluate, G, w, asg, consts) == \
            outcome(ref.evaluate, G, w, asg, consts)


@PROPERTY
@given(st.sampled_from(GROUPS),
       st.lists(words(3, depth=2), min_size=1, max_size=5), values,
       st.sampled_from((3, 3, 3, 2)), st.none() | values)
def test_evaluate_product_matches_the_interpreter(G, factors, seed, length,
                                                  h):
    consts = bound(G, seed, h)
    for asg in rows(G, seed, length):
        assert outcome(evaluate_product, G, factors, asg, consts) == \
            outcome(ref.evaluate_product, G, factors, asg, consts)


def sets_agree(G, lhs, rhs, consts):
    """Bits and counts of solution_set and solution_sets_by_value against
    the one-assignment-at-a-time enumerations."""
    eq = Equation(lhs, rhs)
    got = outcome(lambda: solution_set(G, eq, consts))
    want = outcome(ref.solution_bits, G, eq, consts)
    if isinstance(want, type):
        assert got == want
    else:
        assert (got.bits, got.count) == want
    got = outcome(lambda: {v: (s.bits, s.count) for v, s in
                           solution_sets_by_value(G, lhs, consts).items()})
    assert got == outcome(ref.buckets_by_value, G, lhs, consts)


@settings(PROPERTY, max_examples=120)
@given(st.sampled_from(SMALL), words(2), words(2), values, st.none() | values)
def test_solution_sets_match_the_interpreter(G, lhs, rhs, g, h):
    sets_agree(G, lhs, rhs, bound(G, g, h))


@settings(PROPERTY, max_examples=15)
@given(words(1, depth=2), words(1, depth=2), values)
def test_solution_sets_above_the_table_bound(lhs, rhs, g):
    # one variable over 1344 elements: bucketing past 256 values, no table
    assert BIG.order > TABLE_MATERIALIZE_BOUND and not hasattr(BIG, "table")
    sets_agree(BIG, lhs, rhs, bound(BIG, g, g + 1))


def test_arity_three_spans_every_x1_block():
    G = catalog("S4")
    eq = parse_equation("[x1,x2]^x3 * g = x3^2 * [x2,g]")
    assert word_arity(eq.lhs) == 3 and G.order == 24
    sets_agree(G, eq.lhs, eq.rhs, {"g": 5})


def test_word_errors_are_raised_as_before():
    S3 = catalog("S3")
    # the left-to-right first failing leaf decides which error is raised
    for text, asg, err in (("[x1,x2]", (0,), ArityMismatch),
                           ("[x1,g]", (0,), UnboundConstant),
                           ("[g,x2]", (0,), UnboundConstant),
                           ("[x2,g]", (0,), ArityMismatch),
                           ("x1^0 * #7", (0,), UnboundConstant)):
        w = parse_word(text)
        with pytest.raises(err):
            ref.evaluate(S3, w, asg)
        with pytest.raises(err):
            evaluate(S3, w, asg)
    with pytest.raises(UnboundConstant):
        solution_set(S3, "[x1,g] = #e")
    with pytest.raises(UnboundConstant):
        solution_sets_by_value(S3, "x1 * #6")


# words with constants ranging over the group, each with the same word
# evaluated one element at a time through the group's own operations
RANGED = {
    "[g,h^x1]": (("g", "h"), lambda G, g, h, x: G.comm(g, G.conj(h, x))),
    "[[x1,g],h]": (("g", "h"), lambda G, g, h, x: G.comm(G.comm(x, g), h)),
    "x1*g*x2": (("g",), lambda G, g, x, y: G.mul(G.mul(x, g), y)),
    "(a*x1)^2": (("a",), lambda G, a, x: G.mul(G.mul(a, x), G.mul(a, x))),
    "[x1,x2]": ((), lambda G, x, y: G.comm(x, y)),
    "[g,h]": (("g", "h"), lambda G, g, h: G.comm(g, h)),
}


def listed(by_value):
    return [(v, s.bits, s.count) for v, s in by_value.items()]


def loop_buckets(G, fn, consts, arity):
    """Value buckets of fn over every assignment, by a plain element loop;
    keys in value order."""
    bits, counts = {}, {}
    for i, xs in enumerate(itertools.product(range(G.order), repeat=arity)):
        v = fn(G, *consts, *xs)
        bits[v] = bits.get(v, 0) | 1 << i
        counts[v] = counts.get(v, 0) + 1
    return [(v, bits[v], counts[v]) for v in sorted(bits)]


@pytest.mark.parametrize("text", sorted(RANGED))
def test_ranged_slices_match_bound_constants(text):
    ranged, fn = RANGED[text]
    word = parse_word(text)
    program = compile_words([word])
    arity = word_arity(word)
    for G in catalog_upto(24):
        tuples = list(itertools.product(range(G.order), repeat=len(ranged)))
        slices = list(_sets_by_value(G, program, arity, None, ranged))
        assert len(slices) == len(tuples)
        for consts, by_value in zip(tuples, slices):
            got = listed(by_value)
            bound = dict(zip(ranged, consts))
            assert got == listed(solution_sets_by_value(G, word, bound)), \
                (G.label, consts)
            assert got == loop_buckets(G, fn, consts, arity), \
                (G.label, consts)


def random_word(rng, depth):
    """A word in x1, x2 and g over products, inverses, powers and
    commutators, built afresh on each call."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((Var(0), Var(1), Const("g")))
    kind = rng.randrange(4)
    if kind == 0:
        return Inv(random_word(rng, depth - 1))
    if kind == 1:
        return Pow(random_word(rng, depth - 1), rng.randint(-3, 3))
    node = Prod if kind == 2 else Comm
    return node(random_word(rng, depth - 1), random_word(rng, depth - 1))


def test_the_compile_cache_never_serves_a_freed_word():
    # words die a few iterations after their last use, once the cache has
    # let go of them, so their addresses come back for later ones; a cache
    # that matched roots by id() would serve stale programs.  Word nodes are
    # acyclic, so refcounting alone frees them: no gc.collect() is needed
    G, rng = catalog("S4"), random.Random(7)
    consts = {"g": 5}
    alive = []
    for i in range(300):
        w, u = random_word(rng, 4), random_word(rng, 3)
        asg = (rng.randrange(G.order), rng.randrange(G.order))
        assert evaluate(G, w, asg, consts) == \
            ref.evaluate(G, w, asg, consts)
        assert evaluate_product(G, [u, w], asg, consts) == \
            ref.evaluate_product(G, [u, w], asg, consts)
        alive.append((weakref.ref(w), weakref.ref(u)))
        del w, u
        if i >= 3:
            assert alive[i - 3][0]() is None and alive[i - 3][1]() is None


def test_the_compile_cache_is_bounded_and_keeps_the_recent(compiles):
    rng = random.Random(3)
    hot = random_word(rng, 3)
    kept = [random_word(rng, 3) for _ in range(3 * COMPILE_CACHE_SIZE)]
    for w in kept:
        assert compile_words([w]) is compile_words([w])
        compile_words([hot])
        assert len(words_module._compiled) <= COMPILE_CACHE_SIZE
    # hot, used after every other word, was compiled once
    assert len(compiles) == len(kept) + 1
    assert len(words_module._compiled) == COMPILE_CACHE_SIZE
    compile_words([kept[0]])
    assert len(compiles) == len(kept) + 2
    # the same roots with and without product are two programs
    assert len(compile_words(kept[:2]).roots) == 2
    assert len(compile_words(kept[:2], product=True).roots) == 1


# one group of each column kind: bytes up to order 16, paged bytes up to
# 32, a list gather through the table above 32, and a componentwise map
COLUMN_KINDS = [(catalog("D4"), _PackedColumns),
                (catalog("H3"), _PackedColumns),
                (catalog("D17"), _TableColumns),
                (BIG, _MappedColumns)]


def interpreted(G, factors, columns, length, g=None):
    """The product of the factors, row by row through the interpreter,
    with g bound to its column's row when given."""
    return [ref.evaluate_product(G, factors, [c[i] for c in columns],
                                 g and {"g": g[i]})
            for i in range(length)]


@settings(PROPERTY, max_examples=12)
@given(st.integers(min_value=0, max_value=600), values)
@example(0, 0)
@example(1, 1)
@example(2, 2)
@example(599, 3)
@example(600, 4)
def test_long_products_match_the_interpreter(count, seed):
    rng = random.Random(seed)
    factors = [random_word(rng, rng.randint(0, 3)) for _ in range(count)]
    program = compile_words(factors, product=True)
    length = 5
    for G, kind in COLUMN_KINDS:
        ops = column_ops(G)
        assert type(ops) is kind
        x1, x2, g = ([rng.randrange(G.order) for _ in range(length)]
                     for _ in range(3))
        (got,) = run_program(program, ops, [x1, x2], length, {"g": g})
        assert list(got) == interpreted(G, factors, [x1, x2], length, g), \
            (G.label, count)


def test_the_heaviest_sweep_product_matches_the_interpreter():
    # [[x1,x2],[x1,x3]] with x2 designated: 6,140 factors, the sweep's
    # deepest and widest level groups
    (_, v, xbar, ybar), = [s for s in enumerate_sweep_shapes()
                           if s[0] == "[[x1,x2],[x1,x3]]" and s[2] == (1,)]
    phi = linearize(v, xbar, ybar)
    H3, rng, length = catalog("H3"), random.Random(5), 3
    columns = [[rng.randrange(H3.order) for _ in range(length)]
               for _ in range(4)]
    (got,) = run_program(compile_words(phi, product=True), column_ops(H3),
                         columns, length)
    assert list(got) == interpreted(H3, phi, columns, length)
