"""Self-test of the benchmark at toy size.

    python3 -m pytest -q perfbench/test_perfbench.py

Each toy workload runs the benchmark's own code on small inputs.  Its
reference hashes come from the real ``eqlarge`` command in a subprocess,
so a pass with no failures shows the in-process capture is byte-identical
to the command line, traced or not.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import record_refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TOYS = [
    run.Verify("verify16", "catalog<=6"),
    run.Linearize("linearize", ("S3", "D4", "Q8", "H3"), shapes=3),
]


@pytest.fixture(scope="module")
def refs():
    run.load_program()
    return {w.name: record_refs.record(w) for w in TOYS}


def report_lines(report, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_report(report, trace)
    return out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", TOYS, ids=lambda w: w.name)
def test_toy_workload_matches_cli_and_prints_every_metric(workload, trace,
                                                          refs):
    report = run.measure(workload, 1, 0.0, trace, refs)
    assert report["attempted"] >= 1
    assert report["failed"] == 0

    lines = report_lines(report, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    e2e, per_layer = run.load_metrics()
    spec = per_layer if trace else e2e
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in lines)
    if trace:
        assert any(line.startswith("dominant self-time layer")
                   for line in lines)


def test_gate_counts_a_changed_output(refs):
    bad = json.loads(json.dumps(refs))
    key = next(iter(bad["linearize"]["items"]))
    bad["linearize"]["items"][key] = "0" * 16
    report = run.measure(TOYS[1], 0, 0.0, False, bad)
    assert report["failed"] == 1
    assert report["end_to_end"]["ok_frac"] == 11 / 12


def test_gate_fails_every_row_when_verify_output_differs(refs):
    bad = json.loads(json.dumps(refs))
    bad["verify16"]["seeds"]["0"]["stdout"] = run.sha("something else")
    report = run.measure(TOYS[0], 0, 0.0, False, bad)
    assert report["failed"] == report["attempted"] > 0


def test_tracer_restores_every_namespace():
    run.load_program()
    modules = [run.eq(layer) for layer in tracing.LAYERS]
    verifier = run.eq("verifier")
    before = [dict(vars(m)) for m in modules]
    checks = dict(verifier.CHECKS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verifier.is_k_large is not before[tracing.LAYERS.index(
            "verifier")]["is_k_large"]
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert verifier.CHECKS == checks


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linearize",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
