import pytest
from hypothesis import given, settings, strategies as st

import reference_eval as ref
from eqlarge.catalog import catalog
from eqlarge.errors import (
    ArityMismatch,
    NotAProductOfSupercommutators,
    ParseError,
    UnboundConstant,
)
from eqlarge.group import derived_subgroup, lower_central_series
from eqlarge.words import (
    Comm,
    Conj,
    Const,
    Engel,
    IDENTITY_WORD,
    Inv,
    Pow,
    Prod,
    Var,
    evaluate,
    expand_engel,
    flatten_product,
    is_supercommutator,
    move_constants_right,
    parse_equation,
    parse_word,
    to_text,
    word_arity,
    word_constants,
    word_variables,
)

S3 = catalog("S3")
D4 = catalog("D4")


def test_parse_commutator():
    assert parse_word("[x1,x2]") == Comm(Var(0), Var(1))


def test_parse_conjugation_of_constant():
    w = parse_word("x1^-1 * g * x1")
    assert w == Prod(Prod(Inv(Var(0)), Const("g")), Var(0))


def test_parse_engel():
    assert parse_word("[x1, x2; 3]") == Engel(Var(0), Var(1), 3)


def test_caret_is_conjugation_or_power():
    assert parse_word("x1^x2") == Conj(Var(0), Var(1))
    assert parse_word("x1^2") == Pow(Var(0), 2)
    assert parse_word("x1^0") == Pow(Var(0), 0)


def test_product_is_left_associative():
    w = parse_word("x1*x2*x3")
    assert w == Prod(Prod(Var(0), Var(1)), Var(2))


def test_parse_error_carries_position():
    with pytest.raises(ParseError):
        parse_word("[x1,x2")
    with pytest.raises(ParseError):
        parse_word("x1 * * x2")
    with pytest.raises(ParseError):
        parse_equation("x1")


names = st.sampled_from(["g", "h", "c"])


def words(max_depth):
    leaf = st.one_of(
        st.integers(min_value=0, max_value=3).map(Var),
        names.map(Const),
    )
    if max_depth == 0:
        return leaf
    sub = words(max_depth - 1)
    return st.one_of(
        leaf,
        sub.map(Inv),
        st.tuples(sub, sub).map(lambda p: Prod(*p)),
        st.tuples(sub, st.integers(min_value=-3, max_value=3).filter(
            lambda e: e != -1)).map(lambda p: Pow(*p)),
        st.tuples(sub, sub).map(lambda p: Conj(*p)),
        st.tuples(sub, sub).map(lambda p: Comm(*p)),
        st.tuples(sub, sub, st.integers(min_value=1, max_value=3)).map(
            lambda p: Engel(*p)),
    )


@given(words(3))
def test_text_round_trip(w):
    # NB: Pow(w, -1) prints as w^-1, which reads back as Inv(w); the
    # strategy skips that exponent so trees compare exactly.
    assert parse_word(to_text(w)) == w


CONSTS = {"g": 1, "h": 4, "c": 2}


@given(words(2), words(2), st.integers(min_value=0, max_value=6 ** 4 - 1))
@settings(max_examples=200)
def test_node_semantics_match_the_table(u, v, seed):
    asg = tuple(seed // 6 ** i % 6 for i in range(4))
    ev_u = evaluate(S3, u, asg, CONSTS)
    ev_v = evaluate(S3, v, asg, CONSTS)
    assert evaluate(S3, Prod(u, v), asg, CONSTS) == S3.mul(ev_u, ev_v)
    assert evaluate(S3, Inv(u), asg, CONSTS) == S3.inv(ev_u)
    assert evaluate(S3, Conj(u, v), asg, CONSTS) == S3.mul(
        S3.mul(S3.inv(ev_v), ev_u), ev_v)
    assert evaluate(S3, Comm(u, v), asg, CONSTS) == S3.mul(
        S3.mul(S3.inv(ev_u), S3.inv(ev_v)), S3.mul(ev_u, ev_v))
    acc = S3.identity
    for _ in range(3):
        acc = S3.mul(acc, ev_u)
    assert evaluate(S3, Pow(u, 3), asg, CONSTS) == acc
    assert evaluate(S3, Pow(u, -1), asg, CONSTS) == S3.inv(ev_u)


@given(words(2), words(2), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=6 ** 4 - 1))
@settings(max_examples=100)
def test_engel_unfolds_recursively(u, v, n, seed):
    asg = tuple(seed // 6 ** i % 6 for i in range(4))
    lhs = evaluate(S3, Engel(u, v, n), asg, CONSTS)
    rhs = evaluate(S3, Comm(Engel(u, v, n - 1), v), asg, CONSTS)
    assert lhs == rhs
    assert (evaluate(S3, Engel(u, v, 1), asg, CONSTS)
            == evaluate(S3, Comm(u, v), asg, CONSTS))


@given(words(3))
def test_engel_free_words_expand_to_themselves(w):
    # an expanded word holds no Engel node, whatever w held
    expanded = expand_engel(w)
    assert expand_engel(expanded) is expanded


def test_self_commutator_is_identity():
    for x in range(S3.order):
        assert evaluate(S3, parse_word("[x1,x1]"), (x,)) == S3.identity
        assert evaluate(S3, parse_word("x1^0"), (x,)) == S3.identity


def test_commutator_of_transpositions_is_a_cycle():
    t1 = next(g for g in range(6) if S3.name(g) == "(1 2)")
    t2 = next(g for g in range(6) if S3.name(g) == "(1 3)")
    val = evaluate(S3, parse_word("[x1,x2]"), (t1, t2))
    assert val != S3.identity
    three = S3.mul(val, S3.mul(val, val))
    assert three == S3.identity


def test_evaluate_errors():
    with pytest.raises(ArityMismatch):
        evaluate(S3, parse_word("[x1,x2]"), (0,))
    with pytest.raises(UnboundConstant):
        evaluate(S3, parse_word("[x1,g]"), (0,))


def test_literal_constants():
    assert evaluate(S3, parse_word("#e"), ()) == S3.identity
    assert evaluate(S3, parse_word("#3"), ()) == 3
    assert evaluate(S3, IDENTITY_WORD, ()) == S3.identity


def test_supercommutator_recognition():
    assert is_supercommutator(parse_word("[x1,[g,x2]]"))
    assert not is_supercommutator(parse_word("x1*x2"))
    assert not is_supercommutator(parse_word("x1^2"))
    assert is_supercommutator(Inv(parse_word("[x1,x2]")))
    # Engel is sugar; after expansion the word qualifies
    w = parse_word("[x1,x2;2]")
    assert not is_supercommutator(w)
    assert is_supercommutator(expand_engel(w))


def test_word_bookkeeping():
    w = parse_word("[x1,g]*[x2,h]")
    assert word_variables(w) == {0, 1}
    assert word_constants(w) == {"g", "h"}
    assert word_arity(w) == 2
    assert flatten_product(w) == [parse_word("[x1,g]"), parse_word("[x2,h]")]


WORDS = st.recursive(
    st.sampled_from([Var(0), Var(1), Var(4), Var(63), Var(64), Const("g"),
                     Const("#e")]),
    lambda sub: st.one_of(
        sub.map(Inv),
        st.tuples(sub, sub).map(lambda p: Prod(*p)),
        st.tuples(sub, st.integers(-3, 3)).map(lambda p: Pow(*p)),
        st.tuples(sub, sub).map(lambda p: Conj(*p)),
        st.tuples(sub, sub).map(lambda p: Comm(*p)),
        st.tuples(sub, sub, st.integers(1, 3)).map(lambda p: Engel(*p))),
    max_leaves=12)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(WORDS)
def test_variables_match_the_tree_walk(w):
    for word in (w, expand_engel(w), parse_word(to_text(w))):
        walked = ref.word_variables(word)
        assert word_variables(word) == walked
        assert word_arity(word) == max(walked, default=-1) + 1
        assert word.var_bits == sum(1 << i for i in walked)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(WORDS)
def test_text_matches_the_isinstance_printer(w):
    for word in (w, expand_engel(w)):
        assert to_text(word) == ref.to_text(word)


def test_variable_bits_stay_out_of_equality():
    a, b = Comm(Var(0), Const("g")), Comm(Var(0), Const("g"))
    assert a == b and hash(a) == hash(b) and a.var_bits == 1
    assert repr(a) == "Comm(left=Var(index=0), right=Const(name='g'))"


def test_move_constants_right():
    eq = move_constants_right(parse_equation("g = c"))
    assert to_text(eq.lhs) == "#e"
    eq2 = move_constants_right(parse_equation("[x1,g]*h = c"))
    assert to_text(eq2.lhs) == "[x1,g]"
    eq3 = move_constants_right(parse_equation("g*[x1,h] = c"))
    assert to_text(eq3.lhs) == "[x1,h]"
    # bare variables count as supercommutators, so this one passes through
    eq4 = move_constants_right(parse_equation("x1*x2 = c"))
    assert to_text(eq4.lhs) == "x1 * x2"
    # powers are expanded by flatten_product, so use a conjugation to
    # actually hit the rejection path
    with pytest.raises(NotAProductOfSupercommutators):
        move_constants_right(parse_equation("x1^x2 = c"))


def test_move_constants_right_preserves_solutions():
    consts = {"g": 1, "h": 4, "c": 2}
    for text in ("[x1,g]*h = c", "g*[x1,h] = c"):
        eq = parse_equation(text)
        moved = move_constants_right(eq)
        for x in range(D4.order):
            before = (evaluate(D4, eq.lhs, (x,), consts)
                      == evaluate(D4, eq.rhs, (x,), consts))
            after = (evaluate(D4, moved.lhs, (x,), consts)
                     == evaluate(D4, moved.rhs, (x,), consts))
            assert before == after


def test_supercommutator_values_stay_in_the_lower_central_series():
    for G in (S3, D4):
        gamma = lower_central_series(G)
        shapes = ["[x1,x2]", "[[x1,x2],x3]", "[x1,[x2,x3]]"]
        for text in shapes:
            w = parse_word(text)
            depth = len(word_variables(w))
            layer = gamma[min(depth - 1, len(gamma) - 1)]
            ar = word_arity(w)
            for seed in range(min(G.order ** ar, 216)):
                asg = tuple(seed // G.order ** i % G.order
                            for i in range(ar))
                assert layer.contains(evaluate(G, w, asg))


def test_supercommutator_range_inside_the_derived_subgroup():
    H = derived_subgroup(D4)
    w = parse_word("[x1,x2]")
    for a in H.indices():
        for b in H.indices():
            val = evaluate(D4, w, (a, b))
            assert val == D4.identity
