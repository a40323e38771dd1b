"""Command-line driver: build, verify, and report, all output as JSON.

Commands
    build     full pipeline for a lattice type, structure constants to JSON
    verify    run the verification suites with exit 0 only when everything
              passes; Jacobi is exhaustive by default for every type (after
              checking the grading it evaluates the weight-live triples of
              weight 0 or a positive root and mirrors the rest through the
              verified involution), or sampled on request
    table     the real-orbit table over the E6 datum
    delpezzo  the blow-up lattice summary (126 / 72 / 56 / 27)
    counts    refinement counts by Arf invariant
    quartic   marked-family curves: contact order and smoothness verdict

Output is byte-identical across runs for a fixed configuration; sampled
verification records its seed.  Bad input, an unwritable --out path
included, exits 2 before any expensive work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import __version__
from .extension import Cocycle, build_extension
from .f2 import MAX_DIM, count_refinements_by_arf
from .heisrep import HeisRep, RepError, build_heisrep, verify_rep
from .lattice import (DelPezzoPicard, RootDatum, bitangent_complement,
                      classify_involutions, delpezzo_k_perp,
                      discriminant_group, lines, lines_meeting, mod2_space,
                      parse_type, root_datum, weyl_enumerate)
from .liealg import (FixedSubalgebra, IntegralLieAlgebra, Involution, LieError,
                     RMap, build_R, build_lie, build_theta, fixed_subalgebra,
                     identify_fixed, killing_form, verify_R, verify_jacobi)
from .grouplift import anticommutation_model_holds, verify_comm_relation
from .quartic import (E6Params, E7Params, e6_family, e7_family,
                      smoothness_probe, tangent_contact_order)
from .realtable import emit_table

SUPPORTED_PREFIXES = ("A", "D", "E")

# upper bound of verify --samples (default 200,000): sampled Jacobi checked
# 1,000,000 E8 triples in 1.6 to 1.9 s on a 2-core x86 VM
MAX_SAMPLES = 1_000_000

# upper bound on the bits of each quartic parameter's numerator and
# denominator: with every parameter a 2,048-bit numerator over a 2,048-bit
# denominator, quartic e7 took 2.6 s and quartic e6 1.6 s on a 2-core x86 VM,
# most of it in the exact Macaulay rank
MAX_PARAM_BITS = 2048


@dataclass
class RunConfig:
    command: str
    lattice_type: Optional[str] = None
    out: Optional[str] = None
    depth: str = "exhaustive"
    seed: Optional[int] = None

    def stamp(self) -> dict:
        # "workers" is a fixed field of the output format: every check runs
        # in this one process
        d = {"command": self.command, "workers": 1, "version": __version__}
        if self.lattice_type:
            d["type"] = self.lattice_type
        if self.depth != "exhaustive" or self.command == "verify":
            d["depth"] = self.depth
        if self.seed is not None:
            d["seed"] = self.seed
        return d


@dataclass
class Pipeline:
    datum: RootDatum
    cocycle: Cocycle
    lie: IntegralLieAlgebra
    theta: Involution
    fixed: FixedSubalgebra
    rep: Optional[HeisRep] = None
    rmap: Optional[RMap] = None


def canonical_type(name: str) -> str:
    """The canonical spelling of a supported type name ("e06" -> "E6"),
    checked before any enumeration so that bad input fails fast."""
    kind, rank = parse_type(name)
    if not 2 <= rank <= MAX_DIM:
        raise ValueError(f"rank {rank} is outside the supported range 2..{MAX_DIM}")
    return f"{kind}{rank}"


def build_pipeline(kind: str, with_rep: Optional[bool] = None) -> Pipeline:
    """Lattice -> cover -> Lie algebra -> involution -> fixed subalgebra,
    plus the monomial representation for the two marked exceptional types."""
    kind = canonical_type(kind)
    datum = root_datum(kind)
    m2 = mod2_space(datum)
    cocycle = build_extension(m2.space)
    lie = build_lie(datum, cocycle)
    theta = build_theta(lie)
    fixed = fixed_subalgebra(lie, theta)
    rep = rmap = None
    if with_rep is None:
        with_rep = kind in ("E6", "E7")
    if with_rep:
        rep = build_heisrep(cocycle, radical=m2.radical)
        rmap = build_R(fixed, rep)
    return Pipeline(datum, cocycle, lie, theta, fixed, rep, rmap)


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_build(cfg: RunConfig, args: argparse.Namespace) -> int:
    cfg.lattice_type = canonical_type(args.type)
    pipe = build_pipeline(cfg.lattice_type)
    lie = pipe.lie
    payload = {
        "config": cfg.stamp(),
        "lattice": pipe.datum.to_json_dict(),
        "cover": pipe.cocycle.to_json_dict(),
        "algebra": lie.to_json_dict(),
        "theta": [[i, _signed_index(pipe, i)] for i in range(lie.dim)],
        "trace_theta": pipe.theta.trace(),
        "dim": lie.dim,
        "fixed_dim": pipe.fixed.dim,
    }
    if pipe.rep is not None:
        payload["rep"] = pipe.rep.to_json_dict()
    _emit(payload, cfg.out)
    return 0


def _signed_index(pipe: Pipeline, i: int) -> int:
    j, s = pipe.theta.apply_basis(i)
    return s * (j + 1)


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must be between 1 and {MAX_SAMPLES}")
    cfg.lattice_type = canonical_type(args.type)
    cfg.depth = args.depth
    # exhaustive Jacobi draws nothing, so only a sampled run records a seed
    cfg.seed = (args.seed or 0) if cfg.depth == "sampled" else None
    # timing goes to stderr so the JSON payload stays byte-identical across runs
    def clock(name: str, t0: float, detail: str = "") -> None:
        print(f"[{name}] {time.perf_counter() - t0:.3f}s{detail}", file=sys.stderr)

    t_start = time.perf_counter()
    pipe = build_pipeline(cfg.lattice_type)
    clock("pipeline", t_start)
    checks: Dict[str, dict] = {}
    ok = True

    sample = None if cfg.depth == "exhaustive" else args.samples
    t0 = time.perf_counter()
    jr = verify_jacobi(pipe.lie, theta=pipe.theta, sample=sample, seed=cfg.seed)
    clock("jacobi", t0, f" live {jr.live} = evaluated {jr.evaluated} "
                        f"(monomial {jr.monomial}, general "
                        f"{jr.evaluated - jr.monomial}) + mirrored {jr.mirrored}, "
                        f"zero by grading {jr.zero_by_grading}")
    checks["jacobi"] = {
        "ok": jr.ok, "checked_unordered": jr.checked_unordered,
        "covered_ordered": jr.covered_ordered, "sampled": jr.sampled,
    }
    if not jr.ok:
        labels = pipe.lie.labels
        checks["jacobi"]["failures"] = [[labels[i] for i in triple]
                                        for triple in jr.failures[:5]]
    ok &= jr.ok

    checks["theta"] = {"trace": pipe.theta.trace(),
                       "ok": pipe.theta.trace() == -pipe.datum.rank}
    ok &= checks["theta"]["ok"]

    t0 = time.perf_counter()
    kf = killing_form(pipe.lie)
    checks["killing"] = {"nondegenerate": kf.nondegenerate}
    gk = killing_form(pipe.fixed)
    checks["fixed_killing"] = {"nondegenerate": gk.nondegenerate,
                               "dim": pipe.fixed.dim}
    clock("killing", t0)
    ok &= kf.nondegenerate and gk.nondegenerate

    if pipe.rep is not None:
        t0 = time.perf_counter()
        root_classes = sorted({pipe.datum.root_class_bits(i)
                               for i in range(len(pipe.datum.roots))})
        rr = verify_rep(pipe.rep, root_classes=root_classes)
        clock("rep", t0)
        checks["rep"] = {"ok": rr.ok, "pairs": rr.pairs_checked,
                         "commutant_dim": rr.commutant_dim}
        ok &= rr.ok

        t0 = time.perf_counter()
        hr = verify_R(pipe.rmap)
        clock("fixed_rep_hom", t0)
        checks["fixed_rep_hom"] = {"ok": hr.ok, "pairs": hr.pairs_checked}
        if not hr.ok:
            labels = pipe.fixed.labels
            checks["fixed_rep_hom"]["failures"] = [[labels[i], labels[j]]
                                                   for i, j in hr.failures[:5]]
        ok &= hr.ok

        t0 = time.perf_counter()
        rec = identify_fixed(pipe.fixed, pipe.rmap)
        clock("identify_fixed", t0)
        checks["identify_fixed"] = {"family": rec.family, "w_dim": rec.w_dim,
                                    "fixed_dim": rec.fixed_dim}

        t0 = time.perf_counter()
        comm = verify_comm_relation(pipe.rep, pipe.datum, all_pairs=True)
        clock("appendix", t0)
        # the root-lift squares were checked by verify_rep above
        checks["lift_order4"] = {"ok": not rr.root_square_failures,
                                 "roots": len(pipe.datum.roots)}
        checks["comm_relation"] = {"ok": comm.ok, "pairs": comm.pairs_checked}
        if not comm.ok:
            roots = pipe.datum.roots
            checks["comm_relation"]["failures"] = [[list(roots[g]), list(roots[d])]
                                                   for g, d in comm.failures[:5]]
        checks["anticommutation_model"] = {"ok": anticommutation_model_holds()}
        ok &= comm.ok

    print(f"[total] {time.perf_counter() - t_start:.3f}s", file=sys.stderr)
    payload = {"config": cfg.stamp(), "checks": checks, "ok": bool(ok)}
    _emit(payload, cfg.out)
    return 0 if ok else 1


def cmd_table(cfg: RunConfig, args: argparse.Namespace) -> int:
    datum = root_datum("E6")
    weyl = weyl_enumerate(datum)
    classes = classify_involutions(datum, weyl)
    rows = emit_table(datum, classes)
    header = f"{'class':>8} {'n(C)':>5} {'a(C)':>5} {'bitangents':>11} {'#J/2J':>6} {'orbits':>7}"
    print(header)
    for r in rows:
        print(f"{r.label:>8} {r.n_c:>5} {r.a_c:>5} {r.real_bitangents:>11} "
              f"{r.j_mod_2j_size:>6} {r.orbit_count:>7}")
    payload = {"config": cfg.stamp(), "weyl_order": len(weyl),
               "rows": [r.to_json_dict() for r in rows]}
    _emit(payload, cfg.out)
    return 0


def cmd_delpezzo(cfg: RunConfig, args: argparse.Namespace) -> int:
    pic = DelPezzoPicard.standard()
    kperp = delpezzo_k_perp(pic)
    e = (0, 0, 0, 0, 0, 0, 0, 1)
    comp = bitangent_complement(e, pic)
    all_lines = lines(pic)
    meeting = lines_meeting(e, pic)
    payload = {
        "config": cfg.stamp(),
        "e7_roots": len(kperp.roots),
        "e7_discriminant": discriminant_group(kperp.lattice),
        "e6_roots": len(comp.roots),
        "e6_discriminant": discriminant_group(comp.lattice),
        "lines": len(all_lines),
        "meeting_e": len(meeting),
    }
    ok = (payload["e7_roots"], payload["e6_roots"], payload["lines"],
          payload["meeting_e"]) == (126, 72, 56, 27)
    _emit(payload, cfg.out)
    return 0 if ok else 1


def cmd_counts(cfg: RunConfig, args: argparse.Namespace) -> int:
    g = args.g
    c0, c1 = count_refinements_by_arf(g)
    expected = (2 ** (g - 1) * (2 ** g + 1), 2 ** (g - 1) * (2 ** g - 1))
    payload = {"config": cfg.stamp(), "g": g, "arf0": c0, "arf1": c1,
               "expected": list(expected)}
    _emit(payload, cfg.out)
    return 0 if (c0, c1) == expected else 1


def cmd_quartic(cfg: RunConfig, args: argparse.Namespace) -> int:
    params = _parse_fraction_list(args.params)
    primes = tuple(int(p) for p in args.probe.split(","))
    family = args.family
    if family == "e6":
        if len(params) != 6:
            raise ValueError("e6 takes 6 parameters: p2,p5,p8,p6,p9,p12")
        curve = e6_family(E6Params(*params))
        expected_contact = 4
    elif family == "e7":
        if len(params) != 7:
            raise ValueError("e7 takes 7 parameters: p2,p10,p8,p14,p6,p12,p18")
        curve = e7_family(E7Params(*params))
        expected_contact = 3
    else:
        raise ValueError(f"unknown family {family!r}")
    contact = tangent_contact_order(curve, (0, 1, 0), (0, 0, 1))
    verdict = smoothness_probe(curve, primes)
    payload = {
        "config": cfg.stamp(),
        "family": family,
        "params": [str(p) for p in params],
        "contact_order": None if contact == math.inf else int(contact),
        "expected_contact": expected_contact,
        "verdict": verdict.to_json_dict(),
    }
    _emit(payload, cfg.out)
    return 0 if contact == expected_contact else 1


def _check_writable(path: str) -> None:
    """Raise ValueError unless ``path`` can be opened for writing."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ValueError(f"--out {path} is not a writable file path")


def _parse_fraction_list(text: str) -> Tuple[Fraction, ...]:
    params = []
    for part in text.split(","):
        # Fraction("1e999999999") would build 10**999999999 before any check
        exponent = part.lower().partition("e")[2]
        if exponent and abs(int(exponent)) > MAX_PARAM_BITS:
            raise ValueError(f"parameter {part} has an exponent above {MAX_PARAM_BITS}")
        value = Fraction(part)
        if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_PARAM_BITS:
            raise ValueError(f"parameter {part} is above {MAX_PARAM_BITS} bits")
        params.append(value)
    return tuple(params)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootcover",
        description="Exact constructions from simply laced root lattices and "
                    "double covers of their mod-2 quotients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit structure constants as JSON")
    p_build.add_argument("--type", required=True,
                         help="lattice type: A<n> (n>=2), D<n> (n>=3), E6, E7, E8")
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--type", required=True)
    p_verify.add_argument("--depth", choices=("exhaustive", "sampled"),
                          default="exhaustive",
                          help="Jacobi on every basis triple (default, all "
                               "types) or on --samples seeded random triples; "
                               "on E6-E8 sampled is the slower of the two")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=200000)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="real-orbit table")
    p_table.add_argument("which", choices=("real-orbits",))
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=cmd_table)

    p_dp = sub.add_parser("delpezzo", help="blow-up lattice summary")
    p_dp.add_argument("--out", default=None)
    p_dp.set_defaults(func=cmd_delpezzo)

    p_counts = sub.add_parser("counts", help="refinement counts by Arf invariant")
    p_counts.add_argument("--g", type=int, required=True)
    p_counts.add_argument("--out", default=None)
    p_counts.set_defaults(func=cmd_counts)

    p_q = sub.add_parser("quartic", help="marked quartic families")
    p_q.add_argument("family", choices=("e6", "e7"))
    p_q.add_argument("--params", required=True,
                     help="comma-separated rational parameters")
    p_q.add_argument("--probe", default="5,7,11",
                     help="comma-separated probe primes, each at most 1000")
    p_q.add_argument("--out", default=None)
    p_q.set_defaults(func=cmd_quartic)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    cfg = RunConfig(command=args.command, out=args.out)
    try:
        if cfg.out:
            _check_writable(cfg.out)
        return args.func(cfg, args)
    except (RepError, LieError) as exc:
        # a constructed object failed its own verification; not bad input
        print(f"verification failed: {exc}", file=sys.stderr)
        for witness in getattr(exc, "witnesses", ()):
            print(f"  failing pair {witness}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
