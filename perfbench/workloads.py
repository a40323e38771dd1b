"""The benchmark's workloads: the rootcover CLI calls of one pass, and the
checks every call's output must pass.

No expected value is taken from the code under test.  Byte-exact outputs are
checked against the sha256 prefixes of the behaviour lock; verification
payloads against the counts the exhaustive checks must keep; quartic
verdicts against an independent sympy oracle (see ``oracle.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import oracle

# First 16 hex digits of sha256(stdout), the behaviour lock of the roadmap.
STDOUT_SHA16: Dict[Tuple[str, ...], str] = {
    ("build", "--type", "A2"): "f57a928c2aa953ea",
    ("build", "--type", "D4"): "9941957b4a62bd02",
    ("build", "--type", "E6"): "b0522df614f12f9b",
    ("build", "--type", "E7"): "cde6ef5b16f1214d",
    ("build", "--type", "E8"): "6869f7e73f7d665e",
    ("table", "real-orbits"): "4dc8c548d6872287",
    ("delpezzo",): "e9bcf041cb193002",
}

# dim = rank + number of roots; exhaustive Jacobi covers dim^3 ordered triples.
LIE_DIM = {"E6": 6 + 72, "E7": 7 + 126, "E8": 8 + 240}

# Pair counts of the exhaustive representation-side checks: rep covers the
# 4 |V|^2 signed pairs of the cover (|V| = 2^rank), fixed_rep_hom the
# C(dim k, 2) pairs of the fixed subalgebra (dim 36 / 63), comm_relation the
# C(#roots, 2) root pairs.
PAIR_COUNTS = {
    "E6": {"rep": 16384, "fixed_rep_hom": 630, "comm_relation": 2556},
    "E7": {"rep": 65536, "fixed_rep_hom": 1953, "comm_relation": 7875},
}

E8_SAMPLES = 200000
QUARTIC_BATCH = 40
# Contact order of the marked tangent Z = 0 at (0:1:0): the restriction of
# the family is -X^4 (e6) or -X^3 Y (e7).
CONTACT = {"e6": 4, "e7": 3}


@dataclass
class Call:
    kind: str                      # label shared by the calls timed together
    argv: List[str]
    check: Callable[[int, bytes], Optional[str]]
    probe: Optional["oracle.Probe"] = None


@dataclass
class Workload:
    name: str
    calls: List[Call]
    main: str                      # kind reported as main_call_adj_s
    second: str                    # kind reported as second_call_adj_s
    detail_names: Dict[str, str] = field(default_factory=dict)


def sha16(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()[:16]


def _check_bytes(argv: Tuple[str, ...]) -> Callable[[int, bytes], Optional[str]]:
    want = STDOUT_SHA16[argv]

    def check(code: int, out: bytes) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = sha16(out)
        return None if got == want else f"stdout sha256 {got} != {want}"
    return check


def _check_verify(kind: str, depth: str) -> Callable[[int, bytes], Optional[str]]:
    def check(code: int, out: bytes) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if payload.get("ok") is not True:
            return "payload ok is not true"
        checks = payload.get("checks", {})
        for name, rec in checks.items():
            for key in ("ok", "nondegenerate"):
                if key in rec and rec[key] is not True:
                    return f"check {name}.{key} is {rec[key]!r}"
        jac = checks.get("jacobi", {})
        if depth == "exhaustive":
            if jac.get("covered_ordered") != LIE_DIM[kind] ** 3:
                return f"jacobi covered_ordered {jac.get('covered_ordered')}"
        elif jac.get("checked_unordered") != E8_SAMPLES:
            return f"jacobi checked_unordered {jac.get('checked_unordered')}"
        for name, pairs in PAIR_COUNTS.get(kind, {}).items():
            if checks.get(name, {}).get("pairs") != pairs:
                return f"{name} pairs {checks.get(name, {}).get('pairs')} != {pairs}"
        return None
    return check


def _check_quartic(probe: "oracle.Probe") -> Callable[[int, bytes], Optional[str]]:
    def check(code: int, out: bytes) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if payload.get("family") != probe.family:
            return "family mismatch"
        if payload.get("params") != [str(p) for p in probe.params]:
            return "params mismatch"
        if payload.get("contact_order") != CONTACT[probe.family]:
            return f"contact order {payload.get('contact_order')}"
        verdict = payload.get("verdict", {})
        return probe.judge(verdict.get("kind"), verdict.get("witness"))
    return check


def verify_call(kind: str, depth: str, *extra: str) -> Call:
    label = f"verify {kind}" + ("" if depth == "exhaustive" else "-sampled")
    return Call(label, ["verify", "--type", kind, "--depth", depth, *extra],
                _check_verify(kind, depth))


def fixed_call(label: str, *argv: str) -> Call:
    return Call(label, list(argv), _check_bytes(tuple(argv)))


def _small_rational(rng: random.Random) -> Fraction:
    """0 with probability 1/2, else +-a/b with a in 1..9 and b prime to 5, 7, 11."""
    if rng.random() < 0.5:
        return Fraction(0)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.choice((1, 2, 3, 4, 6, 8, 9)))


def quartic_batch(seed: int, size: int = QUARTIC_BATCH) -> List["oracle.Probe"]:
    rng = random.Random(f"quartic:{seed}")
    probes = []
    for _ in range(size):
        family = rng.choice(("e6", "e7"))
        nparams = 6 if family == "e6" else 7
        probes.append(oracle.Probe(family, tuple(_small_rational(rng)
                                                 for _ in range(nparams))))
    return probes


def make_workload(name: str, seed: int) -> Workload:
    if name == "verify-rep":
        return Workload(name,
                        [verify_call("E6", "exhaustive"),
                         verify_call("E7", "exhaustive")],
                        main="verify E7", second="verify E6",
                        detail_names={"verify E6": "verdict_s.E6",
                                      "verify E7": "verdict_s.E7"})
    if name == "verify-e8":
        return Workload(name,
                        [verify_call("E8", "exhaustive"),
                         verify_call("E8", "sampled", "--seed", str(seed),
                                     "--samples", str(E8_SAMPLES))],
                        main="verify E8", second="verify E8-sampled",
                        detail_names={"verify E8": "verdict_s.E8",
                                      "verify E8-sampled": "verdict_s.E8-sampled"})
    if name == "build-json":
        # build E8 is this workload's second call and one sample of a 0.6 s
        # call is noisy, so it runs twice per pass
        calls = [fixed_call(f"build {t}", "build", "--type", t)
                 for t in ("A2", "D4", "E6", "E7", "E8", "E8")]
        return Workload(name, calls,
                        main="build E7", second="build E8",
                        detail_names={f"build {t}": f"build_s.{t}"
                                      for t in ("A2", "D4", "E6", "E7", "E8")})
    if name == "side-quests":
        # table is this workload's main call and one sample of a 0.5 s call
        # is noisy, so it runs before, between and after the probe halves
        probes = [Call("quartic", probe.argv(), _check_quartic(probe), probe)
                  for probe in quartic_batch(seed)]
        half = len(probes) // 2
        table = fixed_call("table", "table", "real-orbits")
        calls = ([table, fixed_call("delpezzo", "delpezzo")] + probes[:half]
                 + [table] + probes[half:] + [table])
        return Workload(name, calls, main="table", second="quartic",
                        detail_names={"table": "table_s",
                                      "delpezzo": "delpezzo_s",
                                      "quartic": "probe_s"})
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-rep", "verify-e8", "build-json", "side-quests")
