"""Acceptance gate: ten numbered criteria, one test each.

Runtime limits and expected values are asserted exactly as pinned; a
failure here is a release blocker, not a flaky test.
"""
import hashlib
import json
import random
import time
from fractions import Fraction

from eqlarge.catalog import catalog, catalog_upto
from eqlarge.group import (
    Subset,
    center,
    class_count,
    exponent,
    is_2_engel,
    is_subgroup,
    power,
)
from eqlarge.largeness import is_k_generic, is_k_large, naive_is_k_large
from eqlarge.probability import (
    commuting_probability,
    probability,
    solution_set,
)
from eqlarge.verifier import (
    result_to_dict,
    run_search,
    run_suite,
    suite_summary,
)
from eqlarge.words import parse_equation

COMM_E = parse_equation("[x1,x2] = #e")


def timed(limit):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < limit, f"took {elapsed:.1f}s, limit {limit}s"

    return check


def test_criterion_01_exact_probabilities():
    for G, eq, expected in (
            (catalog("S3"), COMM_E, Fraction(1, 2)),
            (catalog("Q8"), COMM_E, Fraction(5, 8)),
            (catalog("D4"), parse_equation("x1^2 = #e"), Fraction(3, 4))):
        done = timed(1.0)
        assert probability(G, eq) == expected
        done()
    # D4 meets the squares bound for non-abelian groups with margin zero
    assert Fraction(3, 4) - probability(
        catalog("D4"), parse_equation("x1^2 = #e")) == 0


def test_criterion_02_class_counting_identity():
    done = timed(30.0)
    groups = catalog_upto(24)
    assert len(groups) >= 20
    for G in groups:
        mu = probability(G, COMM_E)
        assert mu == Fraction(class_count(G), G.order), G.label
        assert mu == commuting_probability(G), G.label
    done()


def test_criterion_03_power_solution_counts():
    for G in catalog_upto(24):
        n = G.order
        for d in range(1, n + 1):
            if n % d:
                continue
            sols = solution_set(G, parse_equation(f"x1^{d} = #e"))
            assert sols.count % d == 0, (G.label, d)
            if sols.count == d:
                assert is_subgroup(G, Subset(G, sols.bits)), (G.label, d)


def test_criterion_04_duality_exhaustive_order_8():
    done = timed(120.0)
    groups = [G for G in catalog_upto(16) if G.order == 8]
    assert sorted(G.label for G in groups) == \
        ["C8", "D4", "E2^3", "H2", "Q8"]
    disagreements = []
    for G in groups:
        for bits in range(2 ** 8):
            X = Subset(G, bits)
            for k in (1, 2, 3):
                if is_k_large(G, X, k)[0] != naive_is_k_large(G, X, k):
                    disagreements.append((G.label, bits, k))
    assert disagreements == []
    done()


def test_criterion_05_measure_lemma_random_subsets():
    rng = random.Random(202404)
    groups = catalog_upto(16)
    for _ in range(1000):
        G = groups[rng.randrange(len(groups))]
        bits = rng.randrange(2 ** G.order)
        X = Subset(G, bits)
        k = rng.randrange(2, 6)
        if is_k_generic(G, X, k)[0]:
            assert X.size * k >= G.order, (G.label, bits, k)
        if X.size * k > (k - 1) * G.order:
            assert is_k_large(G, X, k)[0], (G.label, bits, k)


def test_criterion_06_generic_threshold_and_root_bound():
    done = timed(60.0)
    for G in [g for g in catalog_upto(8)]:
        n = G.order
        for bits in range(2 ** n):
            X = Subset(G, bits)
            t = n - X.size
            # size above n - 1/2 - sqrt(n - 3/4), checked in integers
            if t == 0 or (2 * t - 1) ** 2 < 4 * n - 3:
                assert is_k_generic(G, X, 2)[0], (G.label, bits)
    done()
    done2 = timed(60.0)
    for G in catalog_upto(24):
        n = G.order
        e = exponent(G)
        for ell in range(1, 13):
            if ell % e == 0:
                continue
            count = solution_set(G, parse_equation(f"x1^{ell} = #e")).count
            # mu <= 1 - 1/sqrt(2n), again squared into integers
            assert 2 * (n - count) ** 2 >= n, (G.label, ell)
    done2()


def test_criterion_07_linearization_sweep():
    from eqlarge.linearize import (
        check_factor_condition,
        enumerate_sweep_shapes,
        linearization_identity_holds,
        linearize,
    )
    done = timed(15.0)
    shapes = enumerate_sweep_shapes()
    assert len(shapes) >= 50
    groups = [catalog(lbl) for lbl in ("S3", "D4", "Q8", "H3")]
    for text, word, xbar, ybar in shapes:
        phi = linearize(word, xbar, ybar)
        for f in phi:
            assert check_factor_condition(f, word, xbar, ybar), text
        for G in groups:
            assert linearization_identity_holds(
                G, word, xbar, ybar, phi, samples=100, seed=7), \
                (text, G.label)
    done()


def test_criterion_08_verifier_suite_catalog_16():
    done = timed(300.0)
    results = run_suite(catalog_upto(16))
    summary = suite_summary(results)
    assert summary["failed"] == 0, summary["failures"]
    # the bytes of `eqlarge verify --format json` at seed 0, the north star
    rows = [result_to_dict(r) for r in results]
    out = json.dumps({"results": rows, "summary": summary}, sort_keys=True,
                     indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "68cec595db336a5768272bb7194906567de30d72f1aae70a149c3d871ec65176"
    assert len(summary["checks_with_content"]) >= 20
    by = {(r.check_id, r.group_label): r for r in results}

    cube = by[("cube_67", "S3")]
    assert cube.hypothesis_holds and cube.conclusion_holds
    # mu = 1/2 against the 6/7 bound; the gap is 6/7 - 1/2
    assert cube.margin == Fraction(6, 7) - Fraction(1, 2) == Fraction(5, 14)

    nonabelian = {"A4", "D3", "D4", "D5", "D6", "D7", "D8",
                  "H2", "Q8", "S3"}
    for lbl in nonabelian:
        assert by[("comm_abelian", lbl)].hypothesis_holds, lbl

    for lbl in ("D4", "Q8"):
        r = by[("nilp_mc", lbl)]
        assert r.hypothesis_holds and r.conclusion_holds
        # one central step with a two-element centralizer witness:
        # bound 1 - (1/2)(2+1)^-1 = 5/6 against the attained 5/8
        bound = 1 - Fraction(1, 2) * Fraction(1, 3)
        assert r.margin == bound - commuting_probability(catalog(lbl))
        assert r.margin == Fraction(5, 24)

    ac = by[("autocomm", "S3")]
    assert ac.hypothesis_holds and ac.conclusion_holds
    assert ac.witness["degrees"]["inner"] == "1/2"
    assert ac.margin == Fraction(3, 4) - Fraction(1, 2)
    done()


def _reverify_cube_witness(label):
    G = catalog(label)
    sols = solution_set(G, parse_equation("x1^3 = #e"))
    X = Subset(G, sols.bits)
    return naive_is_k_large(G, X, 5) and not is_2_engel(G)


def _reverify_comm_witness(label, value):
    G = catalog(label)
    P = power(G, 2)
    bits = 0
    for idx in range(P.order):
        if G.comm(idx % G.order, idx // G.order) == value:
            bits |= 1 << idx
    X = Subset(P, bits)
    return value != G.identity and bits and naive_is_k_large(P, X, 2)


def test_criterion_09_counterexample_searches():
    """Both searches hit over catalog<=24, and both hits are true.

    A4, x1^3 = #e: 9 of the 12 elements solve it.  The complement is the
    three double transpositions, which lie in one coset of the Klein
    subgroup V.  A left translate of the complement covers 3 of the 4
    points of a single V-coset, so each of the three cosets needs two
    translates and six are needed in all.  The solution set is therefore
    5-large but not 6-large, while A4 is not 2-Engel.

    D4, [x1,x2] = r^2 (value 2, the central rotation): 24 of the 64 pairs
    solve it and X.X^-1 is all of D4^2, so no two translates of the 40
    commuting pairs cover D4^2 and the set is 2-large although r^2 is not
    the identity.
    """
    groups = catalog_upto(24)

    hit = run_search("oq_cube_5large", groups)
    assert hit == {"group": "A4", "question": "cube_5large",
                   "reverified": True}
    assert _reverify_cube_witness(hit["group"]), hit
    G = catalog("A4")
    cubes = Subset(G, solution_set(G, parse_equation("x1^3 = #e")).bits)
    assert not naive_is_k_large(G, cubes, 6)

    hit = run_search("oq_comm_2large_c", groups)
    assert hit == {"group": "D4", "value": 2, "question": "comm_2large_c",
                   "reverified": True}
    assert _reverify_comm_witness(hit["group"], hit["value"]), hit
    G = catalog("D4")
    central = [z for z in center(G).indices() if z != G.identity]
    assert central == [hit["value"]]


def _report_class_counts():
    doc = {}
    for G in catalog_upto(24):
        doc[G.label] = {"order": G.order,
                        "classes": class_count(G),
                        "mu": str(commuting_probability(G))}
    return json.dumps(doc, sort_keys=True, indent=2)


def _report_duality():
    doc = {}
    for G in [g for g in catalog_upto(16) if g.order == 8]:
        profile = {}
        for bits in range(2 ** 8):
            X = Subset(G, bits)
            key = "".join("L" if is_k_large(G, X, k)[0] else "-"
                          for k in (1, 2, 3))
            profile[key] = profile.get(key, 0) + 1
        doc[G.label] = profile
    return json.dumps(doc, sort_keys=True, indent=2)


def _report_suite():
    return json.dumps([result_to_dict(r) for r in run_suite(catalog_upto(16))],
                      sort_keys=True, indent=2)


def test_criterion_10_byte_identical_reports():
    for build in (_report_class_counts, _report_duality, _report_suite):
        first = build().encode()
        second = build().encode()
        assert first == second, build.__name__
