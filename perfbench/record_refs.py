#!/usr/bin/env python3
"""Record perfbench/refs.json, the expected output hash of every item.

    python3 perfbench/record_refs.py

Run it only on a commit whose outputs are known to be right, since every
later run is judged against what it records.  verify16 is recorded from
the real ``eqlarge`` command in a subprocess, so the in-process capture of
run.py is checked against it.  The linearize sweep has no command; it is
recorded in-process, once per seed of two, and refused if its outputs
depend on the seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run


def cli(argv):
    """The real command line: (exit code, stdout)."""
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    proc = subprocess.run([sys.executable, "-m", "eqlarge.cli", *argv],
                          cwd=run.ROOT, env=env, capture_output=True,
                          text=True, timeout=900, check=False)
    return proc.returncode, proc.stdout


def record(workload):
    """The refs.json section of one workload."""
    if isinstance(workload, run.Verify):
        base, seeds = None, {}
        for seed in range(run.VERIFY_SEEDS):
            base, seeds[str(seed)] = workload.record(
                *cli(workload.argv(seed)), base)
        return {"rows": base, "seeds": seeds}
    run.load_program()
    runs = [{i.key: i.digest for i in
             workload.run_pass(seed, run.ItemClock()).items}
            for seed in (0, 1)]
    if runs[0] != runs[1]:
        raise RuntimeError(f"{workload.name} outputs depend on the seed")
    return {"items": runs[0]}


def main():
    refs = {}
    for name, workload in run.WORKLOADS.items():
        print(f"recording {name}", file=sys.stderr, flush=True)
        refs[name] = record(workload)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
