from fractions import Fraction

import pytest

from eqlarge import verifier
from eqlarge.catalog import catalog, catalog_upto, parse_group_list
from eqlarge.errors import UnknownCheck, UnknownQuestion
from eqlarge.group import center
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
    r = only(run_check("frobenius", [catalog("S4")]))
    assert r.passed if hasattr(r, "passed") else r.conclusion_holds
    # d = 4 has exactly 16 solutions in S4 and 4 divides 16
    counts = r.witness["counts"] if r.witness else None
    if counts is not None:
        assert counts.get(4, counts.get("4")) == 16


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
