import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from eqlarge import cli, group, verifier
from eqlarge.catalog import catalog
from eqlarge.verifier import CHECKS
from eqlarge.words import MAX_VARIABLE, MAX_WORD_HEIGHT

# eight elements of S4 whose 4-translate decision takes 66 search nodes
BUDGET_TRAP = {"elements": [9, 10, 12, 14, 18, 20, 22, 23]}


def run_cli(*argv):
    """The command run in this process: (returncode, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli._main(list(argv))
        except SystemExit as exc:   # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def small_caps():
    """Products and powers past 4096 elements and searches past 2000 nodes
    are declined with 3, which keeps every fuzzed command quick.  The
    --budget-nodes default is NODE_CAP, 10**7 nodes; the fixture patches
    it down to 2000."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group, "INDEX_BOUND", 4096)
        mp.setattr(cli, "NODE_CAP", 2000)
        yield


# for the few tests that need a process of their own: the checkout's src/,
# which pytest's pythonpath setting does not pass on to child processes
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run_process(module, *args):
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=child_env())


def test_child_processes_import_this_checkout(monkeypatch, tmp_path):
    # src/ goes first, and what PYTHONPATH already held stays on the path
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    script = "import sys, eqlarge; print(eqlarge.__file__); print(sys.path)"
    p = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=child_env())
    assert p.returncode == 0, p.stderr
    where, path = p.stdout.splitlines()
    assert where.startswith(os.path.join(SRC, "eqlarge"))
    assert str(tmp_path) in path


def test_exit_codes_reach_the_process():
    # what _main returns is the exit status of eqlarge.cli run as a program
    for code, argv in (
            (0, ["prob", "S3", "[x1,x2]=#e"]),
            (1, ["search", "oq_comm_2large_c", "--groups", "D4"]),
            (2, ["prob", "Z9", "x1=#e"]),
            (2, ["frobnicate"]),
            (3, ["cover", "S4", "--subset", json.dumps(BUDGET_TRAP),
                 "--budget-nodes", "2"])):
        p = run_process("eqlarge.cli", *argv)
        assert p.returncode == code, argv
        assert "Traceback" not in p.stderr


def test_prob_text():
    code, out, _ = run_cli("prob", "S3", "[x1,x2]=#e")
    assert code == 0
    assert out.strip() == "1/2 (~0.5)"


def test_prob_with_constant():
    code, out, _ = run_cli("prob", "D4", "[x1,x2]=c", "--const", "c=2")
    assert code == 0
    assert out.strip() == "3/8 (~0.375)"
    _, out, _ = run_cli("prob", "D4", "[x1,x2]=c", "--const", "c=#2",
                        "--format", "json")
    assert json.loads(out) == {
        "equation": "[x1,x2]=c", "group": "D4", "probability": "3/8"}


def test_const_values_read_as_literals():
    # each value works as --const exactly as it does as #VALUE in the word
    code, out, _ = run_cli("prob", "E2^2", "[x1,g]=#e", "--const", "g=#e")
    assert code == 0
    assert out.strip() == "1/1 (~1)"
    code, out, _ = run_cli("solve", "Q8", "x1=g", "--const", "g=-1")
    assert code == 0
    assert out.splitlines()[-1].strip() == "-1"
    assert out.splitlines()[-1] == run_cli(
        "solve", "Q8", "x1=#-1")[1].splitlines()[-1]


def test_a_const_name_bound_twice_is_refused():
    code, _, err = run_cli("prob", "Q8", "x1=g", "--const", "g=#e",
                           "--const", "g=1")
    assert code == 2
    assert "twice" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["x1", "x2", "x01", "x0", "x99999"])
def test_a_const_name_read_as_a_variable_is_refused(name):
    code, _, err = run_cli("prob", "Q8", "x1=#e", "--const", f"{name}=2")
    assert code == 2
    assert "not a constant" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["1g", "g h", " g", "g*h", "[g,h]", "#e",
                                  "#2", "g^2", "g-h"])
def test_a_const_name_that_is_no_identifier_is_refused(name):
    code, _, err = run_cli("prob", "Q8", "x1=g", "--const", f"{name}=2")
    assert code == 2
    assert "not a constant" in err and "Traceback" not in err


def test_distinct_const_names_still_bind():
    code, out, _ = run_cli("prob", "Q8", "x1*g=h", "--const", "g=1",
                           "--const", "h=1", "--const", "_x1=2")
    assert code == 0
    assert out.strip() == "1/8 (~0.125)"


def test_python_dash_m_eqlarge_runs_the_command():
    p = run_process("eqlarge", "prob", "S3", "[x1,x2]=#e")
    assert p.returncode == 0
    assert p.stdout.strip() == "1/2 (~0.5)"
    assert run_process("eqlarge", "prob", "S3", "x1=#e", "--const",
                       "x1=2").returncode == 2
    assert run_process("eqlarge").returncode == 2


def test_cover_text():
    code, out, err = run_cli("cover", "C4", "--subset",
                             '{"elements": [0, 1]}')
    assert code == 0
    assert out.splitlines() == ["2", "translators: 0 2"]
    assert "elapsed" in err


def test_solve_lists_solutions():
    code, out, _ = run_cli("solve", "C4", "x1^2=#e")
    assert code == 0
    lines = out.splitlines()
    assert "solutions: 2 of 4" in lines
    assert "fraction: 1/2 (~0.5)" in lines
    assert [ln.strip() for ln in lines[-2:]] == ["0", "2"]


def test_solve_max_solutions_bounds_the_list():
    code, out, _ = run_cli("solve", "C4", "x1^2=#e", "--max-solutions", "0",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solutions"] == [] and doc["truncated"] is True
    code, out, err = run_cli("solve", "C4", "x1^2=#e", "--max-solutions",
                             "-1")
    assert code == 2
    assert "--max-solutions" in err and not out


def test_solve_names_componentwise_product_elements():
    # S4xS4xC2 has 1152 elements, above the product table bound
    code, out, _ = run_cli("solve", "S4xS4xC2", "x1^2=#e",
                           "--max-solutions", "3")
    assert code == 0
    assert [ln.strip() for ln in out.splitlines()[-4:]] == [
        "(e,e,0)", "(e,e,1)", "(e,(3 4),0)", "... (197 more)"]
    code, out, _ = run_cli("solve", "S4xS4xC2", "x1=g", "--const",
                           "g=((1 2),(1 3 2),1)")
    assert code == 0
    assert "solutions: 1 of 1152" in out.splitlines()
    assert out.splitlines()[-1].strip() == "((1 2),(1 3 2),1)"
    code, _, err = run_cli("solve", "S4xS4xC2", "x1=g", "--const",
                           "g=((1 2),e)")
    assert code == 2
    assert "no element named" in err


def test_largeness_report():
    code, out, _ = run_cli("largeness", "S3", "x1^3=#e")
    assert code == 0
    assert "genericity_number: 2" in out
    assert "largeness_number: 1" in out


def test_info():
    code, out, _ = run_cli("info", "S3")
    assert code == 0
    assert "order: 6" in out
    assert "classes: 3" in out
    assert "nilpotency_class: None" in out


def test_ac_inner():
    code, out, _ = run_cli("ac", "S3", "--sigma", "inner")
    assert code == 0
    assert "degree: 1/2 (~0.5)" in out
    assert "fixed pairs: 18 of 36" in out


def test_catalog_listing():
    code, out, _ = run_cli("catalog", "catalog<=8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert lines[0].split() == ["C1", "1"]
    assert any(ln.split() == ["Q8", "8"] for ln in lines)


def test_verify_json_is_deterministic():
    args = ("verify", "--checks", ",".join(CHECKS), "--groups", "S3,C4",
            "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first[0] == 0
    assert first[1] == second[1]
    doc = json.loads(first[1])
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["results"])


def test_verify_seed_ends_with_the_command(capsys, monkeypatch):
    argv = ["verify", "--checks", "measure_lemma", "--groups", "S3",
            "--seed", "3"]
    assert cli._main(argv) == 0
    capsys.readouterr()
    assert verifier._stream.get(None) is None
    # later checks in this process sample at seed 0 again
    keys, real = [], random.Random
    monkeypatch.setattr(random, "Random",
                        lambda key: keys.append(key) or real(key))
    verifier.run_check("measure_lemma", [catalog("S3")])
    assert keys == ["0:measure_lemma:S3"]


def test_verify_bounded_checks_over_catalog_24():
    # the bounded-fraction checks and the checks beside them over the
    # groups of order 17 to 24 too, which the seed-0 catalog<=16 pin misses
    checks = ("bfc_bound,center_by_finite,central_identity,comm_product,"
              "square_eq,comm_abelian,word_comm_abelian,nilp_mc,"
              "nilpotent_identity")
    code, out, _ = run_cli("verify", "--groups", "catalog<=24", "--checks",
                           checks, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "264662b3a161d265e313212882736c898f30a6c31e40061e274dd1b050bbb8bf"


def test_verify_csv():
    code, out, _ = run_cli("verify", "--checks", "erdos_turan", "--groups",
                           "S3,C4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "check,group,passed,vacuous,margin",
        "erdos_turan,C4,True,False,0",
        "erdos_turan,S3,True,False,0"]


def test_verify_checks_flag():
    code, out, _ = run_cli("verify", "--checks", "erdos_turan,frobenius",
                           "--groups", "C4", "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["erdos_turan", "frobenius"]
    # a --checks value that names no check runs nothing and passes nothing
    for value in (",", " ", ""):
        code, out, err = run_cli("verify", "--checks", value, "--groups",
                                 "C4")
        assert code == 2, repr(value)
        assert "names no check" in err and not out


def test_search_no_witness():
    code, out, _ = run_cli("search", "oq_gamma_k", "--groups", "C2,S3")
    assert code == 0
    assert out.strip() == "oq_gamma_k: no witness found"


def test_search_witness_exits_nonzero():
    code, out, _ = run_cli("search", "oq_comm_2large_c", "--groups", "D4")
    assert code == 1
    assert out.startswith("oq_comm_2large_c: WITNESS ")
    payload = json.loads(out.split("WITNESS ", 1)[1])
    assert payload == {"group": "D4", "question": "comm_2large_c",
                       "reverified": True, "value": 2}


def test_search_bytes_over_catalog_24():
    # (question, format, exit code, sha256 of the output)
    pins = [
        ("oq_cube_5large", "json", 1,
         "d6e3d9dd94e6222f390891c0278295a8d437ca5f4f8bde84f783c0f7e92fb718"),
        ("oq_cube_5large", "text", 1,
         "5215b311cd93236d58329bc2377fca55390e8d0127131c98aec1249a471c14d9"),
        ("oq_comm_2large_c", "json", 1,
         "3b64ffe63a32bbf9bfcb28c85329c666a9ba3a22cc1aa543d5c0e3138ee88dc5"),
        ("oq_comm_2large_c", "text", 1,
         "e8c4ba53491d0b6118f1dc9374caaaf2b72ead4e34ddf528f1c59d4c2ae2092a"),
        ("oq_gamma_k", "json", 0,
         "6069a192d4b884bc30fb3e720f606363a295db14fbb75b8da086a829edcaf039"),
        ("oq_gamma_k", "text", 0,
         "6eedc9159c6335a9f448ea5a25289de0e3e4deaddc1afc7aa30c6ba93332377c"),
    ]
    for question, fmt, expected, digest in pins:
        code, out, _ = run_cli("search", question, "--groups", "catalog<=24",
                               "--format", fmt)
        assert code == expected, (question, fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, \
            (question, fmt)


# (argv, sha256 of the text output, sha256 of the json output); the last
# three are a full set (largeness unbounded), an empty set (genericity
# infinite) and a constant binding
COVER_PINS = [
    (("largeness", "S3", "x1*x2=x2*x1"),
     "dbc20532e5d41cf3716482abc057fce09b602b6ce2c0b54d92727f6836ea9ccb",
     "c2a79eb7b802831e10be2be82abc50e9def70ec6640af4db22ac58893e8b9082"),
    (("largeness", "D4", "[x1,x2]=#e"),
     "e3944b11b97f4144cf5caedd9326f8c4cc786738ad4f09cff1d7dca903cde881",
     "77c1bfa1ffee64e024d8834eb5a09f6715a53a2d3bf5a94a2139325c75ab8297"),
    (("largeness", "Q8", "x1^2=#e"),
     "60f345acc3663622a34afec8a23d2319e9a4dba4baf37064b8d3492991c9efcc",
     "cdeb3f3117f6ab6055bd0c72ed1af8f0a45bc940e4f7c6bdc0649d33e16a6685"),
    (("largeness", "D8", "x1^2*x2=x2*x1^2"),
     "200c09b3692dd59a8251755027be849061a362777101754116ca32ab3ced3e57",
     "b3a59b45787f698d99ed5e25caa06e295796f2577bce529765a3b3850ad09fe3"),
    (("cover", "S3", "--subset", "solutions:x1*x2=x2*x1"),
     "6145e893d049ef50bd644788108c9d485cce649878878f2fdb552d8adc2881cd",
     "552ca535e26348f82f3f58d4ee9e9d5a4ed16ae297da376b848a9209e4d4afe2"),
    (("cover", "D4", "--subset", "solutions:[x1,x2]=#e"),
     "51241bca7c63c0dd22fbd385c62e48e96753eb69d9ef360e5eed01656476c9f0",
     "afd2e0dbf13b03823c8f37d8aae5c8d08da0251dc955f069690b4f3c801396b2"),
    (("cover", "Q8", "--subset", "solutions:x1^2=#e"),
     "40f427fa45fd5f9748babc5e16b32aa7216e7b4fa1b8640c486621e11f7f194f",
     "de122ede7ab152dd1a7f43c2a2df44d6961c8b6a531c001d7d57f4b6da700455"),
    (("cover", "D8", "--subset", "solutions:x1^2*x2=x2*x1^2"),
     "a8ab6e1ddbb0f34ded6790e88c54e156062e92e522f6cce48242b711bcdfcd15",
     "5eda6fa0a675d659d35e1271f70716099187fe88969ae5e4ace05fd830a0a94d"),
    (("cover", "C2", "--subset", "solutions:x1^2=#e"),
     "b20a9a5ef9a0700b934f343dd1a8114d452b45ee96771be83b61f6111010e272",
     "77859f1355e53ab6622d04503432f1a61f9f5335010dbf07fb3bbad48cac61da"),
    (("cover", "D4", "--subset", "solutions:[x1,x2]=c", "--const", "c=2"),
     "1ede9f650e56a9980ee6aa19b6abfe90599a344ffe1392a4b1b4f55c12c4771a",
     "9afa938ca1f2293a654f402d2f93044b19f60f0c47feff0983be63c74e9120c3"),
    (("largeness", "C2", "x1^2=#e"),
     "30fdbf29986405be8fcc9ea4ad04c0f955bf1ed16afab8020d3ba2ed6fb8b88c",
     "a3c954214a53867f0218da9c0e1b7d66e1b734e739b71292e41a301dce875426"),
    (("largeness", "C2", "x1*x1^-1=#1"),
     "0e8b44a4d29ed9e3478a46196f8aa61bffc9bab029127a96d655c030a9ce79ca",
     "ad3d1b95001c7c11745ff9b8f2bc859c67a11fe706f1c6b44dd75171c40543d3"),
    (("largeness", "D4", "[x1,x2]=c", "--const", "c=2"),
     "b4a3b10d10653ec6266f3c5df5f3d78aeed09cbfc832dd51b86e1735367c35fc",
     "7aebd81e72ee869aeff9eac741dfbf92a0ca7c1e5c2f700231fdb12cc7d08c35"),
]


def test_cover_and_largeness_bytes():
    for argv, *digests in COVER_PINS:
        for fmt, digest in zip(("text", "json"), digests):
            code, out, _ = run_cli(*argv, "--format", fmt)
            assert code == 0, (argv, fmt)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, \
                (argv, fmt)


def test_usage_errors_exit_2():
    assert run_cli("prob", "Z9", "x1=#e")[0] == 2
    _, _, err = run_cli("prob", "Z9", "x1=#e")
    assert "did you mean C9?" in err
    assert run_cli("prob", "S3", "x1*=")[0] == 2
    assert run_cli("verify", "--groups", "S3", "--jobs", "1")[0] == 2
    # check ids go through --checks only; there is no positional selector
    assert run_cli("verify", "all", "--groups", "S3")[0] == 2
    assert run_cli("frobnicate")[0] == 2


def test_budget_exhaustion_exits_3():
    code, _, err = run_cli("cover", "S4", "--subset", json.dumps(BUDGET_TRAP),
                           "--budget-nodes", "2")
    assert code == 3
    assert "nodes" in err


def test_the_node_cap_is_set_by_the_option_alone(monkeypatch):
    # the environment sets no cap: the trap above is searched in full
    monkeypatch.setenv("EQLARGE_BUDGET_NODES", "2")
    code, out, _ = run_cli("cover", "S4", "--subset", json.dumps(BUDGET_TRAP))
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_bad_node_cap_exits_2():
    subset = ("cover", "C4", "--subset", '{"elements": [0, 1]}')
    for raw in ("abc", "-5", "0"):
        code, _, err = run_cli(*subset, "--budget-nodes", raw)
        assert code == 2, raw
        assert "positive integer" in err
        assert "Traceback" not in err
    code, out, _ = run_cli(*subset, "--budget-nodes", "5")
    assert code == 0
    assert out.splitlines()[0] == "2"


def test_bad_subset_elements_exit_2():
    for elements in ("[0, \"a\"]", "[0, 1.5]", "5"):
        code, _, err = run_cli("cover", "C4", "--subset",
                               '{"elements": %s}' % elements)
        assert code == 2, elements
        assert "Traceback" not in err
        assert '"elements"' in err


def test_over_deep_words_exit_2():
    cap = MAX_WORD_HEIGHT
    deep = ("[x1,x2;100000]", "*".join(["x1"] * 3000),
            "(" * 3000 + "x1" + ")" * 3000)
    for word in deep:
        code, _, err = run_cli("prob", "S3", word + "=#e")
        assert code == 2, word[:20]
        assert "Traceback" not in err
        assert "levels deep" in err
    just_under = {
        f"[x1,x2;{cap - 1}]": "2/3 (~0.666667)",
        "*".join(["x1"] * cap): "2/3 (~0.666667)",
        "(" * cap + "x1" + ")" * cap: "1/6 (~0.166667)",
    }
    for word, fraction in just_under.items():
        code, out, _ = run_cli("prob", "S3", word + "=#e")
        assert code == 0, word[:20]
        assert out.strip() == fraction
    for word in (f"[x1,x2;{cap}]", "*".join(["x1"] * (cap + 1)),
                 "(" * (cap + 1) + "x1" + ")" * (cap + 1)):
        assert run_cli("prob", "S3", word + "=#e")[0] == 2


def test_oversized_numbers_in_words_exit_2():
    digits = "9" * 5000
    for argv in (["prob", "S3", f"x{digits}=#e"],
                 ["prob", "S3", f"x1^{digits}=#e"],
                 ["prob", "S3", f"[x1,x2;{digits}]=#e"],
                 ["prob", "S3", f"x1=#{digits}"],
                 ["prob", "E2^2", "x1=g", "--const", f"g={digits}"],
                 ["prob", "S3", "x99999999999=#e"],
                 ["prob", "S3", f"x{MAX_VARIABLE + 1}=#e"]):
        code, _, err = run_cli(*argv)
        assert code == 2, argv[2][:24]
        assert "Traceback" not in err
    code, _, err = run_cli("prob", "S3",
                           f"x1*x{MAX_VARIABLE}=x{MAX_VARIABLE}*x1")
    assert code == 2 and "enumeration cap" in err


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
# an @file table past the size cap, declined with 3 like the specs above
OVERSIZED_TABLE = {"table": [[0]] * 2049}
# @file contents that hold no table of int rows, or names or a label that
# are not strings: declined with 2, a float is never read as an int
BAD_TABLES = ['{"table": 5}', '{"table": [5]}', '{"table": [["a"]]}',
              '{"table": [[1e400]]}', '{"table": [[0.7]]}',
              '{"table": [[true]]}', '{"table": [[0]], "names": 7}',
              '{"table": [[0]], "names": [7]}', '{"table": [[0]], "label": 7}']
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


@given(cli_argv())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cli_exit_codes_are_total(argv):
    with small_caps():
        assert run_cli(*argv)[0] in (0, 1, 2, 3), argv


def test_unreadable_specs_exit_2(tmp_path):
    for argv in (["solve", "perm:3:(1 a)", "x1=x1"],
                 ["info", "@no-such-file.json"],
                 ["info", "@."],
                 ["cover", "C1", "--subset", '{"group": [], "elements": []}']):
        with small_caps():
            assert run_cli(*argv)[0] == 2, argv
    path = tmp_path / "g.json"
    for data in BAD_TABLES:
        path.write_text(data)
        code, _, err = run_cli("info", f"@{path}")
        assert code == 2, data
        assert err.startswith("error: ") and err.count("\n") == 1, data


def test_oversized_specs_exit_3_quickly(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(OVERSIZED_TABLE))
    for spec in [*OVERSIZED_SPECS, f"@{path}"]:
        start = time.monotonic()
        code, _, err = run_cli("catalog", spec)
        assert code == 3, spec[:24]
        assert "Traceback" not in err
        assert "size cap" in err
        assert time.monotonic() - start < 5.0, spec[:24]
    # the cap itself is allowed: a degree-2048 transposition is cheap
    with small_caps():
        assert run_cli("info", "perm:2048:(1 2)")[0] == 0
        assert run_cli("info", "perm:2049:(1 2)")[0] == 3
