"""rootcover benchmark: time to verdict of real CLI calls, with output checks.

Usage (from the repository root):
    python3 perfbench/run.py --workload verify-rep --seed 1 --seconds 25 --trace 0

One closed-loop client runs the workload's CLI calls one after another, each
as a fresh ``python3 -m rootcover.cli`` subprocess on ./src: one whole pass,
then the calls again in pass order while each still fits in --seconds.  Every
output is checked (see workloads.py).  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced
in-process run with --trace 1.  Earlier lines give the per-call detail by
name.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_LAUNCHES = 11
# Median time of reference_s() on the baseline machine (see README.md).
REFERENCE_NOMINAL_S = 0.125
REFERENCE_EVERY_S = 2.0

END_TO_END = {"setup_s": "s", "wall_adj_s": "s", "cpu_adj_s": "s",
              "peak_rss_mb": "MB", "main_call_adj_s": "s",
              "second_call_adj_s": "s"}
LAYER_UNITS = {"self_s": "s", "calls": "count", "pairs": "count",
               "triples": "count", "elements": "count", "sparse_rows": "count",
               "undecided": "count", "stdout_bytes": "bytes",
               "live_ratio": "ratio", "certified_ratio": "ratio",
               "unattributed_s": "s", "overhead_s": "s"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def child_env(src: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("ROOTCOVER_WORKERS", None)
    return env


def run_cli(argv: List[str], env: Dict[str, str]) -> Tuple[dict, bytes]:
    """One CLI call through launch.py: its report (code, wall, cpu,
    maxrss_mb) and its stdout."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "launch.py"), *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, check=False)
    try:
        return json.loads(proc.stderr), proc.stdout
    except ValueError:
        raise BenchError("launcher failed: "
                         + proc.stderr.decode(errors="replace")[-300:]) from None


def reference_s() -> float:
    """Wall time of a fixed pure-Python kernel: integer arithmetic, tuples in a
    dict, Fractions.  The collector is off so its work never varies; its time
    varies only with the speed the machine gives this process."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(450_000):
            acc += i * i % 7
        table: Dict[Tuple[int, int, int], int] = {}
        for i in range(90_000):
            key = (i % 977, i % 131, i)
            table[key] = table.get((key[0], key[1], i - 1), 0) + 1
        total = Fraction(0)
        for i in range(1, 4500):
            total += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(3, i)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_factor(before: float, after: float) -> float:
    """Multiplier to reference speed for a time measured between two
    reference_s() samples."""
    return REFERENCE_NOMINAL_S / ((before + after) / 2)


class Speed:
    """Samples of reference_s() taken between CLI calls, at most one per
    REFERENCE_EVERY_S, to adjust each call for the machine's speed then."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []     # (start, seconds)

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= REFERENCE_EVERY_S:
            self.samples.append((now, reference_s()))

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_NOMINAL_S over the mean of the last sample before t0 and
        the first after t1."""
        before = [r for t, r in self.samples if t <= t0][-1]
        after = next(r for t, r in self.samples if t >= t1)
        return speed_factor(before, after)


def measure_setup(env: Dict[str, str], src: str) -> float:
    """Median wall time of a fresh interpreter importing rootcover.cli, each
    launch speed-adjusted by reference samples taken just before and after it."""
    code = "import rootcover.cli, sys; sys.stdout.write(rootcover.cli.__file__)"
    speed = Speed()
    times = []
    for i in range(SETUP_LAUNCHES + 1):        # the first launch warms caches
        if i:
            speed.sample(force=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              check=False)
        dt = time.perf_counter() - t0
        where = os.path.realpath(proc.stdout.decode(errors="replace"))
        if proc.returncode != 0 or not where.startswith(os.path.realpath(src) + os.sep):
            raise BenchError("cannot import rootcover.cli from ./src: "
                             + proc.stderr.decode(errors="replace")[-300:])
        if i:
            times.append((t0, dt))
    speed.sample(force=True)
    return statistics.median(dt * speed.factor(t0, t0 + dt) for t0, dt in times)


@dataclass
class CallTime:
    kind: str
    start: float
    wall: float
    cpu: float
    rss_mb: float


def prepare(workload: workloads.Workload) -> None:
    """Untimed: the oracle's verdict for every quartic probe."""
    for call in workload.calls:
        if call.probe is not None:
            call.probe.decide()


def quantile(values: List[float], q: int) -> float:
    """The q-th quartile (1..3) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=4)[q - 1] if len(values) > 1 else values[0]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, call: workloads.Call, code: int, out: bytes,
              where: str) -> None:
        self.attempted += 1
        problem = call.check(code, out)
        if problem:
            self.failures.append(f"{where} {' '.join(call.argv)}: {problem}")


def timed_run(wl: workloads.Workload, env: Dict[str, str], seconds: float,
              tally: Tally) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """The workload's calls in pass order, over and over: one whole pass,
    then each further call while its last time says it ends within
    ``seconds``.

    Returns the end-to-end metrics and, per call kind, the raw and the
    speed-adjusted wall times.  Pass metrics use whole passes only."""
    speed = Speed()
    times: List[CallTime] = []
    n = len(wl.calls)
    start = time.perf_counter()
    while len(times) < n or (time.perf_counter() - start + times[-n].wall
                             <= seconds):
        call = wl.calls[len(times) % n]
        speed.sample()
        t0 = time.perf_counter()
        rep, out = run_cli(call.argv, env)
        tally.check(call, rep["code"], out, "untraced")
        times.append(CallTime(call.kind, t0, rep["wall"], rep["cpu"],
                              rep["maxrss_mb"]))
    speed.sample(force=True)
    adj = [speed.factor(c.start, c.start + c.wall) for c in times]
    samples: Dict[str, List[float]] = defaultdict(list)
    for c, f in zip(times, adj):
        samples[c.kind].append(c.wall)
        samples[c.kind + " adj"].append(c.wall * f)
    pass_wall, pass_adj, pass_cpu_adj = [], [], []
    for k in range(0, len(times) - n + 1, n):
        pt, pf = times[k:k + n], adj[k:k + n]
        pass_wall.append(sum(c.wall for c in pt))
        pass_adj.append(sum(c.wall * f for c, f in zip(pt, pf)))
        pass_cpu_adj.append(sum(c.cpu * f for c, f in zip(pt, pf)))
    metrics = {
        "wall_adj_s": statistics.median(pass_adj),
        "cpu_adj_s": statistics.median(pass_cpu_adj),
        "peak_rss_mb": max(c.rss_mb for c in times),
        "main_call_adj_s": statistics.median(samples[wl.main + " adj"]),
        "second_call_adj_s": statistics.median(samples[wl.second + " adj"]),
    }
    samples["wall"] = pass_wall
    samples["reference"] = [r for _, r in speed.samples]
    return metrics, samples


def traced_run(wl: workloads.Workload, env: Dict[str, str],
               tally: Tally) -> dict:
    argvs = [call.argv for call in wl.calls]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "tracer.py")],
                          input=json.dumps(argvs).encode(), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        raise BenchError("traced run failed: "
                         + proc.stderr.decode(errors="replace")[-500:])
    report = json.loads(proc.stdout)
    for call, res in zip(wl.calls, report["calls"]):
        tally.check(call, res["code"], res["stdout"].encode(), "traced")
    return report


def detail_lines(wl: workloads.Workload, samples: Dict[str, List[float]],
                 tally: Tally) -> List[str]:
    """Per-call timings by name, raw and speed-adjusted, with sample counts."""
    lines = []
    for kind, name in wl.detail_names.items():
        for suffix, key in (("", kind), (".adj", kind + " adj")):
            vals = samples[key]
            lines.append(f"{name}{suffix}.p50 {quantile(vals, 2):.6f} s (n={len(vals)})")
            if len(vals) >= 4:
                lines.append(f"{name}{suffix}.p75 {quantile(vals, 3):.6f} s")
    lines.append(f"wall_s {statistics.median(samples['wall']):.6f} s "
                 f"(n={len(samples['wall'])} passes)")
    lines.append(f"reference_s {statistics.median(samples['reference']):.6f} s "
                 f"(n={len(samples['reference'])})")
    ratio = len(tally.failures) / tally.attempted if tally.attempted else 1.0
    lines.append(f"failed_ratio {ratio:.6f} ({len(tally.failures)}/{tally.attempted})")
    return lines


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "rootcover", "cli.py")):
        print("perfbench: ./src/rootcover not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(src)
    wl = workloads.make_workload(args.workload, args.seed)
    try:
        setup_s = measure_setup(env, src)
        prepare(wl)
        tally = Tally()
        if args.trace:
            # one untraced pass for the overhead base, then the traced pass
            untraced, samples = timed_run(wl, env, 0.0, tally)
            before = reference_s()
            report = traced_run(wl, env, tally)
            traced = report["traced_wall_s"] * speed_factor(before, reference_s())
            metrics = dict(report["metrics"])
            metrics["trace.overhead_s"] = traced - (untraced["wall_adj_s"]
                                                    - len(wl.calls) * setup_s)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, samples = timed_run(wl, env, args.seconds, tally)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in tally.failures[:10]:
        print(f"FAILED {line}")
    for line in detail_lines(wl, samples, tally):
        print(line)
    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
