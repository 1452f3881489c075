import contextlib
import io
import json
import os
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st

from eqlarge.verifier import CHECKS
from eqlarge.words import MAX_VARIABLE, MAX_WORD_HEIGHT

BUDGET_TRAP = {"elements": [2, 3, 8, 12, 14, 15, 18, 19]}


# the checkout's src/, which pytest's pythonpath setting does not pass on
# to child processes
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def child_env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run([sys.executable, "-m", "eqlarge.cli", *args],
                          capture_output=True, text=True,
                          env=child_env(env_extra))


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


def test_const_values_read_as_literals():
    # each value works as --const exactly as it does as #VALUE in the word
    p = run_cli("prob", "E2^2", "[x1,g]=#e", "--const", "g=#e")
    assert p.returncode == 0
    assert p.stdout.strip() == "1/1 (~1)"
    p = run_cli("solve", "Q8", "x1=g", "--const", "g=-1")
    assert p.returncode == 0
    assert p.stdout.splitlines()[-1].strip() == "-1"
    assert p.stdout.splitlines()[-1] == run_cli(
        "solve", "Q8", "x1=#-1").stdout.splitlines()[-1]


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


def test_solve_max_solutions_bounds_the_list():
    p = run_cli("solve", "C4", "x1^2=#e", "--max-solutions", "0",
                "--format", "json")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["solutions"] == [] and doc["truncated"] is True
    p = run_cli("solve", "C4", "x1^2=#e", "--max-solutions", "-1")
    assert p.returncode == 2
    assert "--max-solutions" in p.stderr and not p.stdout


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
    args = ("verify", "--checks", ",".join(CHECKS), "--groups", "S3,C4",
            "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["results"])


def test_verify_csv():
    p = run_cli("verify", "--checks", "erdos_turan", "--groups", "S3,C4",
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
    # a --checks value that names no check runs nothing and passes nothing
    for value in (",", " ", ""):
        p = run_cli("verify", "--checks", value, "--groups", "C4")
        assert p.returncode == 2, repr(value)
        assert "names no check" in p.stderr and not p.stdout


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
    assert run_cli("verify", "--groups", "S3", "--jobs", "1").returncode == 2
    # check ids go through --checks only; there is no positional selector
    assert run_cli("verify", "all", "--groups", "S3").returncode == 2
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


def test_oversized_numbers_in_words_exit_2():
    digits = "9" * 5000
    for argv in (["prob", "S3", f"x{digits}=#e"],
                 ["prob", "S3", f"x1^{digits}=#e"],
                 ["prob", "S3", f"[x1,x2;{digits}]=#e"],
                 ["prob", "S3", f"x1=#{digits}"],
                 ["prob", "E2^2", "x1=g", "--const", f"g={digits}"],
                 ["prob", "S3", "x99999999999=#e"],
                 ["prob", "S3", f"x{MAX_VARIABLE + 1}=#e"]):
        p = run_cli(*argv)
        assert p.returncode == 2, argv[2][:24]
        assert "Traceback" not in p.stderr
    p = run_cli("prob", "S3", f"x1*x{MAX_VARIABLE}=x{MAX_VARIABLE}*x1")
    assert p.returncode == 2 and "enumeration cap" in p.stderr


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
                           capture_output=True, text=True, env=child_env())
        assert p.returncode == 0, (args, p.stderr)
        assert "Traceback" not in p.stderr
        assert "BrokenPipeError" not in p.stderr


# past the size cap: declined with 3 before anything is built; a catalog
# sweep is capped by its table entries in all, so catalog<=300 and
# catalog<=2048 are refused although each member is within the cap
OVERSIZED_SPECS = ["C100000", "D5000", "E2^40", "E3^99999999999",
                   "perm:1000000:(1 2)", "catalog<=3000", "catalog<=300",
                   "catalog<=2048", "C" + "9" * 5000]
GROUP_SPECS = ["C1", "C2", "C4", "S3", "D4", "Q8", "H2", "E2^2", "C2xC3",
               "perm:3:(1 2);(1 2 3)", "catalog<=4", "Z9", "C0", "D2", "S9",
               "E4^2", "E2^0", "H7", "s3", "", "x", "C2x", "catalog<=x",
               "perm:3:(1 a)", "perm:x:(1 2)", "perm:3:(1 2", "perm:2:(1 3)",
               "perm:3:(1 1)", "perm:", "@", "@.", "@no-such-file.json",
               *OVERSIZED_SPECS]
WORD_PIECES = ["x1", "x2", "x5", "x0", "#e", "#1", "#99", "#-1", "g", "c",
               "^2", "^-1", "^", "*", "[", "]", ",", ";2", ";0", "(", ")",
               "=", " ", "[x1,x2]", "[x1,g]", "x1^3"]
VALUES = ["0", "1", "3", "-1", "abc", "", "99999999999999999999", "1.5"]
SUBSETS = ['{"elements": [0, 1]}', '{"elements": [0, 99]}',
           '{"elements": []}', '{"elements": [true]}', '{"elements": 5}',
           '{"group": 5}', '{"group": "S3", "elements": [0, 3]}',
           '{"group": [], "elements": []}', "[1, 2]", "nonsense",
           "solutions:x1^2=#e", "solutions:x1*=", "solutions:x1=g"]

words = st.lists(st.sampled_from(WORD_PIECES), min_size=1, max_size=6).map(
    "".join)
values = st.sampled_from(VALUES)


@st.composite
def cli_argv(draw):
    group = st.sampled_from(GROUP_SPECS)
    command = draw(st.sampled_from(
        ["info", "solve", "prob", "largeness", "cover", "verify", "search",
         "ac", "catalog", "frobnicate", "--help"]))
    argv = [command]
    if command in ("info", "solve", "prob", "largeness", "cover", "ac"):
        argv.append(draw(group))
    if command in ("solve", "prob", "largeness"):
        argv.append(draw(words))
    if command == "cover":
        argv += ["--subset", draw(st.sampled_from(SUBSETS))]
    if command == "verify":
        argv += ["--checks", draw(st.sampled_from(
            ["erdos_turan,frobenius", "frobenius", "all", "nope", ""]))]
    if command == "search":
        argv.append(draw(st.sampled_from(
            ["oq_gamma_k", "oq_cube_5large", "oq_comm_2large_c", "nope",
             ""])))
    if command in ("verify", "search"):
        argv += ["--groups", draw(group)]
    if command == "catalog":
        argv.append(draw(group))
    options = {
        "--const": st.tuples(st.sampled_from(["g", "c", "", "g=", "=1"]),
                             st.sampled_from(["", "=1", "=#e", "=e", "=r",
                                              "=99", "=#-1", "=(1 2)"])
                             ).map("".join),
        "--budget-nodes": values,
        "--max-solutions": values,
        "--seed": values,
        "--format": st.sampled_from(["text", "json", "csv", "xml"]),
        "--sigma": st.sampled_from(["trivial", "inner", "full", "outer"]),
        "--checks": st.sampled_from(["frobenius", "nope", ""]),
    }
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=3)):
        argv += [flag, draw(options[flag])]
    return argv


def run_in_process(argv):
    """cli._main(argv) with small caps, output discarded: the exit code.

    Products and powers past 4096 elements and searches past 2000 nodes
    are declined with 3, which keeps every fuzzed command quick.
    """
    from eqlarge import cli, group

    saved = group.INDEX_BOUND, os.environ.get("EQLARGE_BUDGET_NODES")
    group.INDEX_BOUND = 4096
    os.environ["EQLARGE_BUDGET_NODES"] = "2000"
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli._main(argv)
            except SystemExit as exc:
                return exc.code
    finally:
        group.INDEX_BOUND = saved[0]
        if saved[1] is None:
            os.environ.pop("EQLARGE_BUDGET_NODES")
        else:
            os.environ["EQLARGE_BUDGET_NODES"] = saved[1]


@given(cli_argv())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cli_exit_codes_are_total(argv):
    assert run_in_process(argv) in (0, 1, 2, 3), argv


def test_unreadable_specs_exit_2():
    for argv in (["solve", "perm:3:(1 a)", "x1=x1"],
                 ["info", "@no-such-file.json"],
                 ["info", "@."],
                 ["cover", "C1", "--subset", '{"group": [], "elements": []}']):
        assert run_in_process(argv) == 2, argv


def test_oversized_specs_exit_3_quickly():
    for spec in OVERSIZED_SPECS:
        start = time.monotonic()
        p = run_cli("catalog", spec)
        assert p.returncode == 3, spec[:24]
        assert "Traceback" not in p.stderr
        assert "size cap" in p.stderr
        assert time.monotonic() - start < 5.0, spec[:24]
    # the cap itself is allowed: a degree-2048 transposition is cheap
    assert run_in_process(["info", "perm:2048:(1 2)"]) == 0
    assert run_in_process(["info", "perm:2049:(1 2)"]) == 3
