"""Self-test of the benchmark (run from the repository root, about 2 minutes):

    python3 perfbench/selftest.py

1. Two traced runs of every workload give identical counts (every per-layer
   metric that is not a time), and every traced output passes the output
   checks.
2. The weight-live triple counts match the figures recorded in the roadmap:
   55,958 of 383,306 for E7 and 273,736 of 2,511,496 for E8.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def traced_counts(name: str, env) -> dict:
    wl = workloads.make_workload(name, SEED)
    run.prepare(wl)
    tally = run.Tally()
    report = run.traced_run(wl, env, tally)
    if tally.failures:
        raise AssertionError(f"{name}: traced outputs fail checks: {tally.failures[:3]}")
    return {k: v for k, v in report["metrics"].items()
            if run.layer_unit(k) != "s"}


def check_live_counts() -> None:
    from rootcover.cli import build_pipeline
    from tracer import weight_live_triples
    for kind, want in (("E7", 55958), ("E8", 273736)):
        got = weight_live_triples(build_pipeline(kind, with_rep=False).lie)
        if got != want:
            raise AssertionError(f"{kind}: {got} weight-live triples, want {want}")


def check_bare_directory() -> None:
    root = os.getcwd()
    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=root)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "verify-rep", "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True,
                              timeout=180, check=False)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("run.py must fail without ./src and print no result")


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    env = run.child_env(src)
    for name in workloads.WORKLOADS:
        first = traced_counts(name, env)
        second = traced_counts(name, env)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            raise AssertionError(f"{name}: counts differ between traced runs: {diff}")
        print(f"ok  {name}: {len(first)} counts repeat exactly, outputs pass checks")
    check_live_counts()
    print("ok  weight-live triples: E7 55958, E8 273736")
    check_bare_directory()
    print("ok  without ./src run.py exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
