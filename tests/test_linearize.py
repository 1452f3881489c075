import hashlib
import operator

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_eval as ref
from eqlarge.catalog import catalog
from eqlarge.errors import (
    BudgetExceeded,
    NoXVariable,
    NotASupercommutator,
    PreconditionViolated,
)
from eqlarge.linearize import (
    LinearizeBudget,
    check_factor_condition,
    enumerate_sweep_shapes,
    linearization_identity_holds,
    linearize,
    linearize_product,
    product_identity_holds,
)
from eqlarge.words import (
    Comm,
    Const,
    Inv,
    Var,
    evaluate,
    parse_word,
    to_text,
    word_variables,
)

S3 = catalog("S3")
D4 = catalog("D4")
H3 = catalog("H3")
SWEEP_GROUPS = (S3, D4, catalog("Q8"), H3)


def test_single_variable_base_case():
    phi = linearize(parse_word("x1"), (0,), (1,))
    assert phi == [Comm(Var(1), Var(0))]


def test_inverted_variable_emits_nothing():
    assert linearize(parse_word("x1^-1"), (0,), (1,)) == []


def test_commutator_split_by_direct_evaluation():
    v = parse_word("[x1,x2]")
    phi = linearize(v, (0,), (2,))
    assert phi
    for x in range(D4.order):
        for y in range(D4.order):
            for z in range(D4.order):
                lhs = evaluate(D4, v, (D4.mul(y, x), z))
                rhs = D4.mul(evaluate(D4, v, (x, z)),
                             evaluate(D4, v, (y, z, y)))
                for f in phi:
                    rhs = D4.mul(rhs, evaluate(D4, f, (x, z, y)))
                assert lhs == rhs


def test_identity_checker_agrees():
    v = parse_word("[x1,x2]")
    phi = linearize(v, (0,), (2,))
    assert linearization_identity_holds(S3, v, (0,), (2,), phi, samples=200)
    assert linearization_identity_holds(D4, v, (0,), (2,), phi, samples=200)
    # S4's commutators do not all commute, so F(x) and F(y) keep their order
    assert linearization_identity_holds(catalog("S4"), v, (0,), (2,), phi,
                                        samples=200)
    # without the correction factors the identity must break somewhere in
    # S3 (in class-2 groups they all vanish, so D4 is no witness here)
    assert not linearization_identity_holds(S3, v, (0,), (2,), [],
                                            samples=200)


def test_factor_condition():
    v = parse_word("[x1,x2]")
    phi = linearize(v, (0,), (2,))
    for f in phi:
        assert check_factor_condition(f, v, (0,), (2,))
    # a factor with no designated variable fails
    assert not check_factor_condition(parse_word("x2"), v, (0,), (2,))
    # a factor missing the undesignated variable of v fails
    assert not check_factor_condition(parse_word("[x3,x1]"), v, (0,), (2,))
    # v itself has no y variable, so it fails the condition too
    assert not check_factor_condition(v, v, (0,), (2,))


def test_sweep_catalog_is_large_and_well_formed():
    shapes = enumerate_sweep_shapes()
    assert len(shapes) >= 50
    seen = set()
    for text, word, xbar, ybar in shapes:
        assert parse_word(text) == word
        seen.add((text, xbar))
        vars_w = word_variables(word)
        assert set(xbar) & vars_w
        assert not (set(ybar) & vars_w)
    assert len(seen) == len(shapes)


def test_sweep_shapes_split_correctly_in_s3():
    for text, word, xbar, ybar in enumerate_sweep_shapes():
        phi = linearize(word, xbar, ybar)
        for f in phi:
            assert check_factor_condition(f, word, xbar, ybar), \
                f"bad factor {to_text(f)} for {text}"
        assert linearization_identity_holds(S3, word, xbar, ybar, phi,
                                            samples=4, seed=11), text


def test_sweep_factors_print_the_same_bytes():
    digest = hashlib.sha256()
    for text, w, xbar, ybar in enumerate_sweep_shapes():
        phi = linearize(w, xbar, ybar)
        digest.update((text + "\n" + "\n".join(map(to_text, phi))
                       + "\n").encode())
    assert digest.hexdigest() == \
        "8e027a23c850ea9c18169e5e2f15f73d8892f8e0dfaf36c2230d267c61f4ab02"


def times_compiled(compiled, words):
    """How often roots that are exactly these word objects were compiled."""
    return sum(len(r) == len(words) and all(map(operator.is_, r, words))
               for r in compiled)


def test_each_shape_compiles_phi_and_v_once_for_all_groups(compiles):
    shapes = enumerate_sweep_shapes()
    for text, v, xbar, ybar in shapes:
        phi = linearize(v, xbar, ybar)
        for G in SWEEP_GROUPS:
            assert linearization_identity_holds(G, v, xbar, ybar, phi,
                                                samples=8), (text, G.label)
        if phi:
            assert times_compiled(compiles, phi) == 1, text
        assert times_compiled(compiles, [v]) == 1, text
    # prod(phi) and v are the only programs the checker compiles
    assert len(compiles) <= 2 * len(shapes)


def test_product_split():
    factors = [parse_word("[x1,x3]"), parse_word("[x2,x3]")]
    phi, prefix = linearize_product(factors, (0, 1), (3, 4), n=1)
    assert [to_text(w) for w in prefix] == \
        ["[x1,x3]", "[x2,x3]", "[x4,x3]", "[x5,x3]"]
    for f in phi:
        vw = word_variables(f)
        assert vw & {0, 1, 3, 4}
        assert len(vw - {0, 1}) > 1
    assert product_identity_holds(H3, factors, (0, 1), (3, 4), phi,
                                  samples=40)
    # without the correction factors the identity breaks in S3
    assert not product_identity_holds(S3, factors, (0, 1), (3, 4), [],
                                      samples=40)


def test_product_split_single_factor_matches_linearize():
    v = parse_word("[[x1,x2],x3]")
    phi, prefix = linearize_product([v], (0,), (3,))
    assert [to_text(w) for w in prefix][0] == "[[x1,x2],x3]"
    assert product_identity_holds(H3, [v], (0,), (3,), phi, samples=30)


def test_error_cases():
    with pytest.raises(NoXVariable):
        linearize(parse_word("[x2,x3]"), (0,), (4,))
    with pytest.raises(PreconditionViolated):
        linearize(parse_word("[x1,x2]"), (0,), (0,))
    with pytest.raises(PreconditionViolated):
        # ybar collides with a variable v already uses
        linearize(parse_word("[x1,x2]"), (0,), (1,))
    with pytest.raises(NotASupercommutator):
        linearize(parse_word("x1*x2"), (0,), (2,))
    with pytest.raises(NotASupercommutator):
        linearization_identity_holds(S3, parse_word("x1*x2"), (0,), (2,), [])
    with pytest.raises(PreconditionViolated):
        linearize_product([], (0,), (1,))
    with pytest.raises(PreconditionViolated):
        linearize_product([parse_word("[x2,x3]")], (0,), (4,))


def test_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        linearize(parse_word("[[x1,x2],x3]"), (0,), (3,),
                  budget=LinearizeBudget(max_factors=4))


def sweep_factors():
    """(shape text, v, xbar, ybar, phi) for every sweep shape."""
    for text, v, xbar, ybar in enumerate_sweep_shapes():
        yield text, v, xbar, ybar, linearize(v, xbar, ybar)


def test_recorded_variable_sets_match_the_tree_walk():
    for text, v, xbar, ybar, phi in sweep_factors():
        for w in phi:
            # set as the factor was built, not walked when asked
            assert word_variables(w) == ref.word_variables(w), \
                (text, to_text(w))
            assert w.var_bits == sum(1 << i for i in ref.word_variables(w))


def test_factor_condition_matches_the_set_oracle():
    shapes = list(sweep_factors())
    outcomes = set()
    for i, (text, v, xbar, ybar, phi) in enumerate(shapes):
        # the next shape's designation is the mismatched one
        _, v2, xbar2, ybar2, _ = shapes[(i + 1) % len(shapes)]
        for w in phi:
            for args in ((v, xbar, ybar), (v2, xbar2, ybar2),
                         (v, ybar, xbar), (v, xbar, ybar, ())):
                got = check_factor_condition(w, *args)
                assert got == ref.factor_condition(w, *args), \
                    (text, to_text(w), args)
                outcomes.add(got)
    assert outcomes == {True, False}


SUPERCOMMUTATORS = st.recursive(
    st.sampled_from([Var(0), Var(1), Var(2), Const("g")]),
    lambda sub: st.one_of(sub.map(Inv),
                          st.tuples(sub, sub).map(lambda p: Comm(*p))),
    max_leaves=5)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(SUPERCOMMUTATORS, st.sampled_from([(0,), (1,), (0, 2)]))
def test_linearized_factors_carry_their_variables(v, xbar):
    ybar = tuple(3 + k for k in range(len(xbar)))
    assume(v.var_bits & sum(1 << x for x in xbar))
    try:
        phi = linearize(v, xbar, ybar, budget=LinearizeBudget(2000))
    except BudgetExceeded:
        assume(False)
    for w in phi:
        assert word_variables(w) == ref.word_variables(w), to_text(w)
        assert check_factor_condition(w, v, xbar, ybar)
        assert ref.factor_condition(w, v, xbar, ybar)
