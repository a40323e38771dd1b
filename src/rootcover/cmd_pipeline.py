"""The commands ``build`` and ``verify``, and the pipeline they share: root
lattice, cover, Lie algebra, involution, fixed subalgebra and, for E6 and E7,
the monomial representation.

Loaded by the CLI only for these two commands.  Each takes the CLI's run
configuration and parsed arguments and returns its JSON payload and exit
code; the CLI writes the payload.  A constructed object that fails its own
verification (RepError, LieError) is reported here and exits 1 with no
payload.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, Optional, Tuple

# liealg, the largest source, is compiled first, before the rest of the stack
# is loaded: imported after its dependencies, it raised the peak RSS of
# verify --type E7 by 0.2 MB (each launch compiles from source when no
# bytecode is cached)
from .liealg import (FixedSubalgebra, IntegralLieAlgebra, Involution, LieError,
                     RMap, build_R, build_lie, build_theta, fixed_subalgebra,
                     identify_fixed, killing_form, verify_R, verify_jacobi)
from .grouplift import anticommutation_model_holds, verify_comm_relation
from .heisrep import HeisRep, RepError, build_heisrep, verify_rep
from .lattice import RootDatum, mod2_space, parse_type, root_datum
from .f2 import MAX_DIM, F2QuadraticSpace

# upper bound of verify --samples (default 200,000): sampled Jacobi checked
# 1,000,000 E8 triples in 0.94 to 1.02 s on a 2-core x86 VM
MAX_SAMPLES = 1_000_000

Result = Tuple[Optional[dict], int]


class Pipeline:
    def __init__(self, datum: RootDatum, cocycle: F2QuadraticSpace, lie: IntegralLieAlgebra,
                 theta: Involution, fixed: FixedSubalgebra,
                 rep: Optional[HeisRep], rmap: Optional[RMap]):
        self.datum = datum
        self.cocycle = cocycle
        self.lie = lie
        self.theta = theta
        self.fixed = fixed
        self.rep = rep
        self.rmap = rmap


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
    cocycle = mod2_space(datum)
    lie = build_lie(datum, cocycle)
    theta = build_theta(lie)
    fixed = fixed_subalgebra(lie, theta)
    rep = rmap = None
    if with_rep is None:
        with_rep = kind in ("E6", "E7")
    if with_rep:
        rep = build_heisrep(cocycle)
        rmap = build_R(fixed, rep)
    return Pipeline(datum, cocycle, lie, theta, fixed, rep, rmap)


def run(cfg, args: argparse.Namespace) -> Result:
    """Run ``cfg.command``; a failed construction check exits 1 with its
    first failing pairs on stderr."""
    try:
        return COMMANDS[cfg.command](cfg, args)
    except (RepError, LieError) as exc:
        # a constructed object failed its own verification; not bad input
        print(f"verification failed: {exc}", file=sys.stderr)
        for witness in getattr(exc, "witnesses", ()):
            print(f"  failing pair {witness}", file=sys.stderr)
        return None, 1


def cmd_build(cfg, args: argparse.Namespace) -> Result:
    cfg.lattice_type = canonical_type(args.type)
    pipe = build_pipeline(cfg.lattice_type)
    lie = pipe.lie
    cover = pipe.cocycle
    payload = {
        "config": cfg.stamp(),
        "lattice": pipe.datum.to_json_dict(),
        # beta as a 0/1 matrix: the upper-triangular rows of the mod-2 form
        "cover": {"dim": cover.dim,
                  "beta": [[(row >> j) & 1 for j in range(cover.dim)]
                           for row in cover.upper_rows]},
        "algebra": lie.to_json_dict(),
        "theta": [[i, _signed_index(pipe, i)] for i in range(lie.dim)],
        "trace_theta": pipe.theta.trace(),
        "dim": lie.dim,
        "fixed_dim": pipe.fixed.dim,
    }
    if pipe.rep is not None:
        payload["rep"] = pipe.rep.to_json_dict()
    return payload, 0


def _signed_index(pipe: Pipeline, i: int) -> int:
    j, s = pipe.theta.apply_basis(i)
    return s * (j + 1)


def cmd_verify(cfg, args: argparse.Namespace) -> Result:
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
                        f"+ mirrored {jr.mirrored}, "
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
        comm = verify_comm_relation(pipe.rep, pipe.datum)
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
    return payload, 0 if ok else 1


COMMANDS = {"build": cmd_build, "verify": cmd_verify}
