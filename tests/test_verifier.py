import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqlarge import cli, verifier
from eqlarge.catalog import catalog, catalog_upto, parse_group_list
from eqlarge.errors import BudgetExceeded, UnknownCheck, UnknownQuestion
from eqlarge.group import McWitness, Subset, TableGroup, center
from eqlarge.verifier import (
    CHECKS,
    QUESTIONS,
    result_to_dict,
    run_check,
    run_search,
    run_suite,
    suite_summary,
)

S3 = catalog("S3")
C6 = catalog("C6")
D4 = catalog("D4")
Q8 = catalog("Q8")


def only(results):
    assert len(results) == 1
    return results[0]


def test_miller_bound_on_s3():
    r = only(run_check("miller_bound", [S3]))
    assert r.hypothesis_holds
    assert r.conclusion_holds
    assert r.margin == Fraction(1, 12)


def test_erdos_turan_is_an_equality():
    for G in (S3, D4, Q8, C6):
        r = only(run_check("erdos_turan", [G]))
        assert r.hypothesis_holds and r.conclusion_holds


def test_gustafson_is_vacuous_on_abelian_groups():
    r = only(run_check("gustafson_58", [C6]))
    assert not r.hypothesis_holds
    assert r.conclusion_holds
    d = result_to_dict(r)
    assert d["vacuous"] and d["passed"]
    r2 = only(run_check("gustafson_58", [S3]))
    assert r2.hypothesis_holds and r2.conclusion_holds


def test_frobenius_counts_on_s4():
    S4 = catalog("S4")
    assert only(run_check("frobenius", [S4])).passed
    # x^4 = e has exactly 16 solutions in S4, and d divides every count
    counts = verifier._order_counts(S4)
    assert counts[4] == 16
    assert all(c % d == 0 for d, c in counts.items())


def test_cube_bound_margin_on_s3():
    r = only(run_check("cube_67", [S3]))
    assert r.hypothesis_holds and r.conclusion_holds
    assert r.margin == Fraction(5, 14)


def test_nilpotent_commuting_bound_margins():
    for G, margin in ((D4, Fraction(5, 24)), (Q8, Fraction(5, 24))):
        r = only(run_check("nilp_mc", [G]))
        assert r.hypothesis_holds and r.conclusion_holds
        assert r.margin == margin


def test_autocommutativity_margin_on_s3():
    r = only(run_check("autocomm", [S3]))
    assert r.conclusion_holds
    assert r.margin == Fraction(1, 4)


def test_autocomm_folds_only_the_rows_it_reads(folds):
    # Aut(D7)xD7 has 588 elements; the decisions read a few of its rows
    r = only(run_check("autocomm", [catalog("D7")]))
    assert r.conclusion_holds
    products = {P.label: P.order for P, _ in folds}
    assert products["Aut(D7)xD7"] == 588
    assert len(folds) == len(set(folds)) < 588


def test_comm_abelian_fires_exactly_on_nonabelian_groups():
    groups = catalog_upto(16)
    res = run_check("comm_abelian", groups)
    fired = sorted(r.group_label for r in res if r.hypothesis_holds)
    assert fired == ["A4", "D3", "D4", "D5", "D6", "D7", "D8",
                     "H2", "Q8", "S3"]
    assert all(r.conclusion_holds for r in res)


def test_run_suite_filters_and_orders():
    groups = parse_group_list("S3,C4")
    res = run_suite(groups, check_ids=["erdos_turan", "frobenius"])
    assert [(r.check_id, r.group_label) for r in res] == [
        ("erdos_turan", "C4"), ("erdos_turan", "S3"),
        ("frobenius", "C4"), ("frobenius", "S3")]
    assert run_suite(groups, check_ids=[]) == []


def test_suite_summary_shape():
    res = run_suite(parse_group_list("S3,D4"))
    s = suite_summary(res)
    assert s["total"] == len(res)
    assert s["failed"] == 0
    assert s["passed"] + s["vacuous"] >= s["total"]
    assert "erdos_turan" in s["checks_with_content"]


def test_suite_is_deterministic():
    groups = parse_group_list("S3,D4,Q8")
    first = [result_to_dict(r) for r in run_suite(groups)]
    second = [result_to_dict(r) for r in run_suite(groups)]
    assert first == second


def test_result_dict_schema():
    d = result_to_dict(only(run_check("miller_bound", [S3])))
    assert set(d) == {"check", "group", "hypothesis", "conclusion",
                      "vacuous", "passed", "margin", "witness"}
    assert d["margin"] == "1/12"


def verdict_fields(cases_of):
    r = verifier._verdict("toy", cases_of, S3)
    assert (r.check_id, r.group_label) == ("toy", "S3")
    return r.hypothesis_holds, r.conclusion_holds, r.margin, r.witness


def test_verdict_without_cases_is_a_vacuous_pass():
    def no_cases(G):
        return
        yield

    assert verdict_fields(no_cases) == (False, True, None, None)


def test_verdict_keeps_the_least_margin():
    # margins are unnormalized (num, den) pairs; the least one comes back
    # as a Fraction
    def margins(G):
        yield (2, 6), None
        yield None, None
        yield (3, 12), None

    assert verdict_fields(margins) == (True, True, Fraction(1, 4), None)


def test_verdict_stops_at_the_first_witness():
    def fails(G):
        yield (1, 3), None
        yield None, {"order": G.order}
        raise AssertionError("drawn past the witness")

    assert verdict_fields(fails) == (True, False, None, {"order": 6})


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 12),
                          st.integers(0, 60), st.integers(1, 60)),
                min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_integer_cases_match_the_fractions(draws):
    # each draw is a bound p/q and a fraction count/total, count <= total
    cases, fractions = [], []
    for p, q, count, total in draws:
        bound, count = Fraction(p, q), min(count, total)
        mu = Fraction(count, total)
        asked = []

        def large():
            asked.append(True)
            return True

        # a large solution set fails its case, and large() is asked only
        # when the bound holds
        margin, witness = verifier._case(bound, count, total, {"i": 0},
                                         large)
        assert witness == {"i": 0, "fraction": str(mu)}
        assert asked == ([] if mu > bound else [True])
        margin, witness = verifier._case(bound, count, total, {})
        assert (witness is not None) == (mu > bound)
        if witness is None:
            assert Fraction(*margin) == bound - mu
            cases.append((margin, None))
            fractions.append(bound - mu)
    r = verifier._verdict("toy", lambda G: iter(cases), S3)
    assert r.margin == min(fractions, default=None)
    assert r.hypothesis_holds == bool(cases) and r.conclusion_holds


def test_registry_names_each_check_by_its_function():
    # definition order, with autocomm last
    def line(cid):
        return getattr(verifier, f"check_{cid}").__code__.co_firstlineno

    assert list(CHECKS) == sorted(CHECKS, key=line)
    assert list(CHECKS)[-1] == "autocomm"
    for cid, spec in CHECKS.items():
        fn = getattr(verifier, f"check_{cid}")
        assert spec.check_id == cid
        assert spec.run is fn or (spec.run.func, spec.run.args) == (
            verifier._verdict, (cid, fn))


def test_every_check_passes_on_the_small_catalog():
    groups = parse_group_list("C1,C2,C6,S3,D4,Q8,E2^2")
    res = run_suite(groups)
    assert len(res) == len(CHECKS) * len(groups)
    bad = [r for r in res if not (r.conclusion_holds or not r.hypothesis_holds)]
    assert bad == []


def test_unknown_ids_raise():
    with pytest.raises(UnknownCheck):
        run_check("no_such_check", [S3])
    with pytest.raises(UnknownQuestion):
        run_search("no_such_question", [S3])


def test_questions_on_witness_free_groups():
    groups = parse_group_list("C1,C2,C3,C4,C5,S3,D5,E2^2")
    assert run_search("oq_cube_5large", groups) is None
    assert run_search("oq_comm_2large_c", groups) is None
    assert run_search("oq_gamma_k", groups) is None
    assert set(QUESTIONS) == {"oq_comm_2large_c", "oq_cube_5large",
                              "oq_gamma_k"}


def test_question_witnesses_are_found_and_reverified():
    # {(x,y): [x,y] = r^2} is 2-large in D4^2 even though r^2 is not the
    # identity: the complement is the 40 commuting pairs, and no two
    # translates of it cover the 64 pairs.  The sweep reports it and the
    # re-verification is part of the result.
    hit = run_search("oq_comm_2large_c", [D4])
    assert hit == {"group": "D4", "value": 2, "question": "comm_2large_c",
                   "reverified": True}
    # x^3 = 1 cuts out 9 of the 12 elements of A4; its complement lies in
    # one Klein subgroup, so five translates can never cover the group and
    # the solution set is 5-large while A4 is not 2-Engel.
    hit2 = run_search("oq_cube_5large", [catalog("A4")])
    assert hit2 is not None
    assert hit2["group"] == "A4"
    assert hit2["reverified"]


def test_the_recheck_refutes_a_false_hit(monkeypatch):
    # a fast decision that wrongly calls every gamma_k pair set of S3
    # 4-large is caught by naive_is_k_large, which checks each candidate
    checked = []
    naive = verifier.naive_is_k_large

    def counted(G, X, k):
        checked.append(k)
        return naive(G, X, k)

    monkeypatch.setattr(verifier, "is_k_large", lambda G, X, k: (True, None))
    monkeypatch.setattr(verifier, "naive_is_k_large", counted)
    assert run_search("oq_gamma_k", [S3]) is None
    # one candidate per transposition, the elements A3 does not centralize
    assert checked == [4, 4, 4]


def test_a_hit_past_the_recheck_budget_is_reported_unverified(
        monkeypatch, capsys):
    def past_budget(G, X, k):
        raise BudgetExceeded("past the budget")

    monkeypatch.setattr(verifier, "naive_is_k_large", past_budget)
    assert run_search("oq_comm_2large_c", [D4]) == {
        "group": "D4", "value": 2, "question": "comm_2large_c",
        "reverified": False}
    # a witness (exit 1), not a budget error (exit 3)
    argv = ["search", "oq_cube_5large", "--groups", "A4", "--format", "json"]
    assert cli._main(argv) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == {
        "group": "A4", "question": "cube_5large", "reverified": False}


def test_forced_hypotheses_report_the_least_witness(monkeypatch):
    # with every largeness hypothesis forced, the checks fail and must name
    # the least witness a plain element loop finds
    monkeypatch.setattr(verifier, "is_k_large", lambda *args: (True, None))
    w = only(run_check("triple_comm", [S3])).witness
    assert w["side"] == "left" and w["witness"] == min(
        x for x in range(S3.order)
        if S3.comm(S3.comm(x, w["g"]), w["h"]) != S3.identity)
    monkeypatch.setattr(verifier, "_power_large", lambda *args: True)
    w = only(run_check("central_identity", [D4])).witness
    Z = list(center(D4).indices())
    assert w["word"] == "x1*g*x2" and w["tuple"] == next(
        [a, b] for a in Z for b in Z if D4.mul(a, b) != D4.identity)


def forced(check_id, G):
    """A check that must fail: its witness."""
    r = only(run_check(check_id, [G]))
    assert (r.hypothesis_holds, r.conclusion_holds, r.margin) == (
        True, False, None), check_id
    return r.witness


def test_forced_largeness_names_the_first_large_bucket(monkeypatch):
    # every bucket k-large: the checks fail at their first bucket
    monkeypatch.setattr(verifier, "_power_large", lambda *args: True)
    assert forced("square_eq", S3) == {"value": 0, "fraction": "2/3"}
    assert forced("comm_abelian", D4) == {"value": 0, "fraction": "5/8"}
    assert forced("word_comm_abelian", C6) == {
        "word": "x1^2*[x1,x2]", "value": 0, "fraction": "1/3"}
    assert forced("comm_product", D4) == {
        "word": "[x1,g]", "constants": [1], "value": 0, "fraction": "1/2"}
    # an abelian group with c = e is exempt, so nothing is left to fail
    for check_id in ("comm_abelian", "comm_product"):
        r = only(run_check(check_id, [C6]))
        assert not r.hypothesis_holds and r.witness is None
    # only the buckets that miss the identity tuple are large: the ones
    # before it are passed over within their bounds
    monkeypatch.setattr(verifier, "_power_large",
                        lambda sols, k: not sols.bits & 1)
    assert forced("square_eq", D4) == {"value": 2, "fraction": "1/4"}
    assert forced("comm_abelian", S3) == {"value": 3, "fraction": "1/4"}
    assert forced("word_comm_abelian", D4) == {
        "word": "x1^2*[x1,x2]", "value": 2, "fraction": "3/8"}
    assert forced("comm_product", S3) == {
        "word": "[x1,g]", "constants": [1], "value": 3, "fraction": "1/3"}


def test_forced_bounds_name_the_first_bucket_past_them(monkeypatch):
    # a control of 1 makes every bound 1/2
    monkeypatch.setattr(verifier, "max_centralizer_index", lambda G: 1)
    assert forced("bfc_bound", D4) == {
        "word": "x1^2", "value": 0, "fraction": "3/4"}
    monkeypatch.setattr(verifier, "center", Subset.full)
    assert forced("center_by_finite", S3) == {
        "word": "x1^2", "value": 0, "fraction": "2/3"}
    # s = 0 makes both bounds 1/2; on S3 every [x1,x2] bucket is within
    # it, so the first failure is at k = 2
    monkeypatch.setattr(verifier, "mc_witness",
                        lambda G, k: McWitness(k, (), 0))
    assert forced("nilp_mc", D4) == {"k": 1, "value": 0, "fraction": "5/8"}
    assert forced("nilp_mc", S3) == {"k": 2, "value": 0, "fraction": "3/4"}


# (check, group, verifier attributes patched to force a failure, witness)
FORCED = [
    ("frobenius", "S3", {"_order_counts": lambda G: {1: 1, 2: 3, 3: 3, 6: 6}},
     {"failing_divisors": [2]}),
    ("miller_bound", "C2", {"is_abelian": lambda G: False},
     {"fraction": "1"}),
    ("laffey_p", "C2", {"_prime_factors": lambda n: [2, 3]},
     {"p": 2, "fraction": "1"}),
    ("iiyori_yamaki", "S3", {"is_subgroup": lambda G, s: False},
     {"failing_divisors": [1, 3, 6]}),
    ("erdos_turan", "S3", {"commuting_probability": lambda G: Fraction(1)},
     {"measured": "1/2", "class_ratio": "1"}),
    ("gustafson_58", "C2", {"is_abelian": lambda G: False},
     {"fraction": "1"}),
    ("two_generic_threshold", "S3", {"cover_number": lambda G, X: (3, ())},
     {"subset": [0, 1, 2, 3], "cover": 3}),
    ("sqrt2n_bound", "C2", {"exponent": lambda G: 13},
     {"l": 2, "solutions": 2}),
    ("measure_lemma", "S3", {"cover_number": lambda G, X: (3, ())},
     {"subset_size": 1, "cover": 3}),
    ("subgroup_lemma", "S3",
     {"restrict_largeness": lambda G, X, H: (0, None)},
     {"subgroup_size": 2, "subset": [1, 2, 3, 4, 5]}),
    ("central_identity", "D4", {"_power_large": lambda *args: True},
     {"word": "x1*g*x2", "g": 0, "value": 0, "tuple": [0, 2]}),
    ("center_gcd", "D4", {"_power_large": lambda *args: True},
     {"powers": [3, 3], "value": 0}),
    ("center_gcd", "C2", {"_power_large": lambda *args: False,
                          "_central_exponent": lambda G: 5},
     {"powers": [2, 2], "value": 0, "fraction": "1"}),
    ("xaxb", "C2", {"_exp2_abelian": lambda G: False},
     {"a": 0, "b": 0, "fraction": "1"}),
    ("cube_7large_engel", "S3", {"_power_large": lambda *args: True},
     {"x": 1, "y": 2}),
    ("cube_2large_exp3", "C2", {"_power_large": lambda *args: True},
     {"exponent": 2}),
    ("cube_67", "C3", {"exponent": lambda G: 2}, {"fraction": "1"}),
    ("conj_comm", "S3", {"is_k_large": lambda *args: (True, None)},
     {"g": 1, "h": 1, "a": 1, "b": 2}),
    ("triple_comm", "S3", {"is_k_large": lambda *args: (True, None)},
     {"side": "left", "g": 1, "h": 1, "value": 0, "witness": 2}),
    ("supercomm_const", "D4", {"_power_large": lambda *args: True},
     {"word": "[x1,x2]", "constants": None, "value": 2}),
    ("nilpotent_identity", "D4", {"_power_large": lambda *args: True},
     {"word": "x1^2", "value": 0, "count": 6}),
    ("nilpotent_exponent", "D4", {"_power_large": lambda *args: True},
     {"n": 1, "value": 0}),
    ("autocomm", "S3", {"is_k_large": lambda *args: (True, None)},
     {"variant": "inner", "degree": "1/2"}),
]


@pytest.mark.parametrize("check_id, label, patches, witness", FORCED,
                         ids=[f"{c}-{g}" for c, g, _, _ in FORCED])
def test_forced_failures_name_their_witness(monkeypatch, check_id, label,
                                            patches, witness):
    for name, value in patches.items():
        monkeypatch.setattr(verifier, name, value)
    assert forced(check_id, catalog(label)) == witness


def test_every_failure_under_forced_hypotheses_has_a_witness(monkeypatch):
    monkeypatch.setattr(verifier, "is_k_large", lambda *args: (True, None))
    monkeypatch.setattr(verifier, "cover_number", lambda G, X: (3, ()))
    monkeypatch.setattr(verifier, "restrict_largeness",
                        lambda *args: (0, None))
    res = run_suite(parse_group_list("C2,C3,C6,S3,D4,Q8"))
    failed = [r for r in res if not r.passed]
    assert {"cube_2large_exp3", "cube_7large_engel", "measure_lemma",
            "subgroup_lemma", "two_generic_threshold"} <= {
        r.check_id for r in failed}
    assert [(r.check_id, r.group_label) for r in failed
            if r.witness is None] == []


def test_sampled_checks_at_other_seeds_are_pinned():
    # the sha256 of the results of the checks that draw from _rng, as
    # verify --seed prints them, over catalog<=16
    ids = ["two_generic_threshold", "measure_lemma", "subgroup_lemma"]
    pins = {3: "7f27fa84836987a0ae22dd2511db79a2"
               "d9ef50d6c3d01845f0d79db46270c323",
            11: "c097a3b7597c0a588d7b00965ef198c8"
                "9b89afebcde4bb879c0b73a0d413648e"}
    groups = catalog_upto(16)
    for seed, digest in pins.items():
        rows = [result_to_dict(r) for r in run_suite(groups, ids, seed)]
        text = json.dumps(rows, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, seed


def test_noncentral_is_none_only_in_abelian_groups():
    # S3 with 0 and 1 swapped: the identity is 1, and 0 is not central
    swap = [1, 0, *range(2, S3.order)]
    G = TableGroup([[swap[S3.mul(swap[a], swap[b])]
                     for b in range(S3.order)]
                    for a in range(S3.order)])
    assert G.identity == 1
    assert verifier._noncentral(G) == 0
    assert verifier._noncentral(D4) == min(
        g for g in range(D4.order) if not center(D4).contains(g))
    assert verifier._noncentral(C6) is None
