import json
import os
import subprocess
import sys

from eqlarge.words import MAX_WORD_HEIGHT

BUDGET_TRAP = {"elements": [2, 3, 8, 12, 14, 15, 18, 19]}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "eqlarge.cli", *args],
                          capture_output=True, text=True, env=env)


def test_prob_text():
    p = run_cli("prob", "S3", "[x1,x2]=#e")
    assert p.returncode == 0
    assert p.stdout.strip() == "1/2 (~0.5)"


def test_prob_with_constant():
    p = run_cli("prob", "D4", "[x1,x2]=c", "--const", "c=2")
    assert p.returncode == 0
    assert p.stdout.strip() == "3/8 (~0.375)"
    q = run_cli("prob", "D4", "[x1,x2]=c", "--const", "c=#2",
                "--format", "json")
    assert json.loads(q.stdout) == {
        "equation": "[x1,x2]=c", "group": "D4", "probability": "3/8"}


def test_cover_text():
    p = run_cli("cover", "C4", "--subset", '{"elements": [0, 1]}')
    assert p.returncode == 0
    assert p.stdout.splitlines() == ["2", "translators: 0 2"]
    assert "elapsed" in p.stderr


def test_solve_lists_solutions():
    p = run_cli("solve", "C4", "x1^2=#e")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert "solutions: 2 of 4" in lines
    assert "fraction: 1/2 (~0.5)" in lines
    assert [ln.strip() for ln in lines[-2:]] == ["0", "2"]


def test_solve_names_componentwise_product_elements():
    # S4xS4xC2 has 1152 elements, above the product table bound
    p = run_cli("solve", "S4xS4xC2", "x1^2=#e", "--max-solutions", "3")
    assert p.returncode == 0
    assert [ln.strip() for ln in p.stdout.splitlines()[-4:]] == [
        "(e,e,0)", "(e,e,1)", "(e,(3 4),0)", "... (197 more)"]
    p = run_cli("solve", "S4xS4xC2", "x1=g", "--const", "g=((1 2),(1 3 2),1)")
    assert p.returncode == 0
    assert "solutions: 1 of 1152" in p.stdout.splitlines()
    assert p.stdout.splitlines()[-1].strip() == "((1 2),(1 3 2),1)"
    p = run_cli("solve", "S4xS4xC2", "x1=g", "--const", "g=((1 2),e)")
    assert p.returncode == 2
    assert "no element named" in p.stderr


def test_largeness_report():
    p = run_cli("largeness", "S3", "x1^3=#e")
    assert p.returncode == 0
    out = p.stdout
    assert "genericity_number: 2" in out
    assert "largeness_number: 1" in out


def test_info():
    p = run_cli("info", "S3")
    assert p.returncode == 0
    assert "order: 6" in p.stdout
    assert "classes: 3" in p.stdout
    assert "nilpotency_class: None" in p.stdout


def test_ac_inner():
    p = run_cli("ac", "S3", "--sigma", "inner")
    assert p.returncode == 0
    assert "degree: 1/2 (~0.5)" in p.stdout
    assert "fixed pairs: 18 of 36" in p.stdout


def test_catalog_listing():
    p = run_cli("catalog", "catalog<=8")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert len(lines) == 15
    assert lines[0].split() == ["C1", "1"]
    assert any(ln.split() == ["Q8", "8"] for ln in lines)


def test_verify_json_is_deterministic():
    args = ("verify", "all", "--groups", "S3,C4", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["results"])


def test_verify_csv():
    p = run_cli("verify", "erdos_turan", "--groups", "S3,C4",
                "--format", "csv")
    assert p.returncode == 0
    assert p.stdout.splitlines() == [
        "check,group,passed,vacuous,margin",
        "erdos_turan,C4,True,False,0",
        "erdos_turan,S3,True,False,0"]


def test_verify_checks_flag():
    p = run_cli("verify", "--checks", "erdos_turan,frobenius",
                "--groups", "C4", "--format", "csv")
    assert p.returncode == 0
    rows = p.stdout.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["erdos_turan", "frobenius"]


def test_search_no_witness():
    p = run_cli("search", "oq_gamma_k", "--groups", "C2,S3")
    assert p.returncode == 0
    assert p.stdout.strip() == "oq_gamma_k: no witness found"


def test_search_witness_exits_nonzero():
    p = run_cli("search", "oq_comm_2large_c", "--groups", "D4")
    assert p.returncode == 1
    assert p.stdout.startswith("oq_comm_2large_c: WITNESS ")
    payload = json.loads(p.stdout.split("WITNESS ", 1)[1])
    assert payload == {"group": "D4", "question": "comm_2large_c",
                       "reverified": True, "value": 2}


def test_usage_errors_exit_2():
    assert run_cli("prob", "Z9", "x1=#e").returncode == 2
    p = run_cli("prob", "Z9", "x1=#e")
    assert "did you mean C9?" in p.stderr
    assert run_cli("prob", "S3", "x1*=").returncode == 2
    assert run_cli("verify", "all", "--groups", "S3", "--jobs", "1")\
        .returncode == 2
    assert run_cli("frobnicate").returncode == 2


def test_budget_exhaustion_exits_3():
    p = run_cli("cover", "S4", "--subset", json.dumps(BUDGET_TRAP),
                env_extra={"EQLARGE_BUDGET_NODES": "2"})
    assert p.returncode == 3
    assert "nodes" in p.stderr


def test_bad_node_cap_exits_2():
    subset = ("cover", "C4", "--subset", '{"elements": [0, 1]}')
    for raw in ("abc", "-5", "0"):
        p = run_cli(*subset, env_extra={"EQLARGE_BUDGET_NODES": raw})
        assert p.returncode == 2, raw
        assert "positive integer" in p.stderr
        assert "Traceback" not in p.stderr
    for raw in ("-5", "0"):
        p = run_cli(*subset, "--budget-nodes", raw)
        assert p.returncode == 2, raw
        assert "positive integer" in p.stderr
        assert "Traceback" not in p.stderr
    p = run_cli(*subset, "--budget-nodes", "5",
                env_extra={"EQLARGE_BUDGET_NODES": "abc"})
    assert p.returncode == 0
    assert p.stdout.splitlines()[0] == "2"


def test_bad_subset_elements_exit_2():
    for elements in ("[0, \"a\"]", "[0, 1.5]", "5"):
        p = run_cli("cover", "C4", "--subset",
                    '{"elements": %s}' % elements)
        assert p.returncode == 2, elements
        assert "Traceback" not in p.stderr
        assert '"elements"' in p.stderr


def test_over_deep_words_exit_2():
    cap = MAX_WORD_HEIGHT
    deep = ("[x1,x2;100000]", "*".join(["x1"] * 3000),
            "(" * 3000 + "x1" + ")" * 3000)
    for word in deep:
        p = run_cli("prob", "S3", word + "=#e")
        assert p.returncode == 2, word[:20]
        assert "Traceback" not in p.stderr
        assert "levels deep" in p.stderr
    just_under = {
        f"[x1,x2;{cap - 1}]": "2/3 (~0.666667)",
        "*".join(["x1"] * cap): "2/3 (~0.666667)",
        "(" * cap + "x1" + ")" * cap: "1/6 (~0.166667)",
    }
    for word, fraction in just_under.items():
        p = run_cli("prob", "S3", word + "=#e")
        assert p.returncode == 0, word[:20]
        assert p.stdout.strip() == fraction
    for word in (f"[x1,x2;{cap}]", "*".join(["x1"] * (cap + 1)),
                 "(" * (cap + 1) + "x1" + ")" * (cap + 1)):
        assert run_cli("prob", "S3", word + "=#e").returncode == 2


def test_closed_stdout_exits_0():
    # stdout is a pipe nobody reads, so every write or flush raises
    # BrokenPipeError; a large output breaks inside the command, a small
    # one at the final flush
    script = """
import os, sys
read_end, write_end = os.pipe()
os.close(read_end)
sys.stdout = open(write_end, "w")
from eqlarge import cli
sys.argv = ["eqlarge", *sys.argv[1:]]
cli.main()
"""
    for args in (("solve", "S4xS4xC2", "x1=x1", "--max-solutions", "2000"),
                 ("prob", "S3", "[x1,x2]=#e")):
        p = subprocess.run([sys.executable, "-c", script, *args],
                           capture_output=True, text=True)
        assert p.returncode == 0, (args, p.stderr)
        assert "Traceback" not in p.stderr
        assert "BrokenPipeError" not in p.stderr
