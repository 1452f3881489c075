"""The phases of a compiled program, read from its arrays alone.

Over random words and every sweep shape (each factor F and each product
of Phi): the loads come first, every later phase is one op at one level,
each above the levels of its operands, every operand is live when its
phase reads it, every slot but the roots is freed exactly once, by the
phase that reads it last (a slot nobody reads by its own phase), and the
roots stay.  One run of the sweep's heaviest product makes one kernel
call per level group, not one per step.  Every program is the one the
old two-visit compiler in reference_eval builds, array for array.
"""
import random

from hypothesis import given, settings, strategies as st

import reference_eval as ref
from eqlarge import verifier
from eqlarge.catalog import catalog, catalog_upto
from eqlarge.linearize import enumerate_sweep_shapes, linearize
from eqlarge.words import (
    _INV,
    Comm,
    Conj,
    Const,
    Engel,
    Inv,
    Pow,
    Prod,
    Var,
    _compile,
    column_ops,
    compile_words,
    parse_word,
    run_program,
)

SHAPES = enumerate_sweep_shapes()


def random_word(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((Var(0), Var(1), Var(2), Const("g"), Const("#e")))
    kind = rng.randrange(4)
    if kind == 0:
        return Inv(random_word(rng, depth - 1))
    if kind == 1:
        return Pow(random_word(rng, depth - 1), rng.randint(-3, 3))
    node = Prod if kind == 2 else Comm
    return node(random_word(rng, depth - 1), random_word(rng, depth - 1))


def dag_word(rng, depth, pool):
    """A random word over every node type, whose subtrees are at times
    nodes already in pool, so that one node object has several parents."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.2:
        w = rng.choice((Var(0), Var(1), Var(2), Const("g"), Const("#e")))
    else:
        kind = rng.randrange(6)
        a = dag_word(rng, depth - 1, pool)
        if kind == 0:
            w = Inv(a)
        elif kind == 1:
            w = Pow(a, rng.randint(-6, 6))
        else:
            b = dag_word(rng, depth - 1, pool)
            w = (Conj(a, b) if kind == 2 else
                 Engel(a, b, rng.randint(1, 3)) if kind == 3 else
                 (Prod, Comm)[kind - 4](a, b))
    pool.append(w)
    return w


PROGRAM_ARRAYS = ("ops", "left", "right", "starts", "frees", "free_starts",
                  "variables", "names", "roots")


def check_against_the_old_compiler(roots, product):
    got, want = _compile(roots, product), ref.compile_program(roots, product)
    for name in PROGRAM_ARRAYS:
        assert getattr(got, name) == getattr(want, name), name


def operands(program, i):
    op = program.ops[i]
    if op < _INV:
        return ()
    if op == _INV:
        return (program.left[i],)
    return (program.left[i], program.right[i])


def check_schedule(program):
    starts, n = program.starts, len(program.ops)
    assert starts[0] == 0 and starts[-1] == n
    assert all(a <= b for a, b in zip(starts, starts[1:]))
    phase_of = {}
    for p in range(len(starts) - 1):
        for i in range(starts[p], starts[p + 1]):
            phase_of[i] = p
    assert len(phase_of) == n
    # phase 0 holds every load, and only loads
    assert all((program.ops[i] < _INV) == (phase_of[i] == 0)
               for i in range(n))
    level = [0] * n
    keys = []
    for p in range(1, len(starts) - 1):
        steps = range(starts[p], starts[p + 1])
        assert steps
        for i in steps:
            assert all(phase_of[a] < p for a in operands(program, i))
            level[i] = 1 + max(level[a] for a in operands(program, i))
        keys.append({(level[i], program.ops[i]) for i in steps})
    # one (level, op) per phase, each phase its own group, levels rising,
    # so every step's level is above its operands'
    assert all(len(k) == 1 for k in keys)
    keys = [k.pop() for k in keys]
    assert keys == sorted(set(keys))
    # the phase of each slot's last reader, or the phase writing it;
    # readers come in phase order
    last = dict(phase_of)
    for i in range(n):
        for a in operands(program, i):
            last[a] = phase_of[i]
    roots = set(program.roots)
    live, freed = set(), []
    for p in range(len(starts) - 1):
        for i in range(starts[p], starts[p + 1]):
            assert all(a in live for a in operands(program, i))
        live.update(range(starts[p], starts[p + 1]))
        for i in program.frees[program.free_starts[p]:
                               program.free_starts[p + 1]]:
            assert i in live and i not in roots and last[i] == p
            live.remove(i)
            freed.append(i)
    assert sorted(freed) == sorted(set(range(n)) - roots)
    assert roots <= live


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=12), st.booleans())
def test_random_words_schedule(seed, count, product):
    rng = random.Random(seed)
    roots = [random_word(rng, 4) for _ in range(count)]
    check_schedule(compile_words(roots, product=product))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=12), st.booleans())
def test_random_programs_match_the_old_compiler(seed, count, product):
    rng = random.Random(seed)
    check_against_the_old_compiler(
        [random_word(rng, 4) for _ in range(count)], product)
    pool = []
    roots = [dag_word(rng, 4, pool) for _ in range(count)]
    check_against_the_old_compiler(roots, product)
    check_schedule(_compile(roots, product))


def test_sweep_and_verifier_programs_match_the_old_compiler(monkeypatch):
    for _, v, xbar, ybar in SHAPES:
        check_against_the_old_compiler([v], True)
        check_against_the_old_compiler(linearize(v, xbar, ybar), True)
    texts, compiled = set(), verifier._compiled

    def recorded(text):
        texts.add(text)
        return compiled(text)

    monkeypatch.setattr(verifier, "_compiled", recorded)
    verifier.run_suite(catalog_upto(16))
    assert len(texts) > 20
    for text in texts:
        check_against_the_old_compiler([parse_word(text)], False)


def test_sweep_shapes_schedule():
    for _, v, xbar, ybar in SHAPES:
        check_schedule(compile_words([v], product=True))
        check_schedule(compile_words(linearize(v, xbar, ybar), product=True))


class Counted:
    """Column arithmetic that counts its kernel calls."""

    def __init__(self, ops):
        self.inner, self.calls = ops, 0
        self.group, self.column = ops.group, ops.column
        self.fill, self.join = ops.fill, ops.join

    def call(self, kernel, *columns):
        self.calls += 1
        return kernel(*columns)

    def mul(self, A, B):
        return self.call(self.inner.mul, A, B)

    def comm(self, A, B):
        return self.call(self.inner.comm, A, B)

    def inv(self, A):
        return self.call(self.inner.inv, A)


def test_one_kernel_call_per_level_group():
    (_, v, xbar, ybar), = [s for s in SHAPES
                           if s[0] == "[[x1,x2],[x1,x3]]" and s[2] == (1,)]
    program = compile_words(linearize(v, xbar, ybar), product=True)
    D4 = catalog("D4")
    ops = Counted(column_ops(D4))
    rng = random.Random(1)
    columns = [bytes(rng.randrange(D4.order) for _ in range(10))
               for _ in range(4)]
    (got,) = run_program(program, ops, columns, 10)
    (want,) = run_program(program, column_ops(D4), columns, 10)
    groups = len(program.starts) - 2
    steps = len(program.ops) - program.starts[1]
    assert got == want
    assert ops.calls == groups
    assert steps > 300 * groups
