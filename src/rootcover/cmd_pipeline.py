"""The commands ``build`` and ``verify``, and the pipeline they share: root
lattice, cover, Lie algebra with its checked involution, fixed subalgebra
and, for E6 and E7, the monomial representation.

Loaded by the CLI only for these two commands.  Each takes the CLI's run
configuration and parsed arguments and returns its JSON payload and exit
code; the CLI writes the payload.  A constructed object that fails its own
verification (RepError, LieError, LatticeError, F2Error) is reported here
and exits 1 with no payload.
"""

from __future__ import annotations

import argparse
import time
from math import comb
from typing import Dict, Optional, Tuple

# liealg, the largest source, is compiled first, before the rest of the stack
# is loaded: imported after its dependencies, it raised the peak RSS of
# verify --type E7 by 0.2 MB (each launch compiles from source when no
# bytecode is cached)
from .liealg import (FixedSubalgebra, IntegralLieAlgebra, LieError, RMap,
                     build_lie, fixed_subalgebra, identify_fixed, killing_form,
                     verify_R, verify_jacobi)
from .heisrep import (HeisRep, RepError, anticommutation_model_holds, build_heisrep,
                      verify_rep)
from .lattice import LatticeError, RootDatum, mod2_space, parse_type, root_datum
from .f2 import MAX_DIM, F2Error, F2QuadraticSpace
from . import clock, intmat, note

# upper bound of verify --samples (default 200,000): on a 2-core x86 VM,
# sampled Jacobi checks 1,000,000 triples in 0.35 to 0.44 s on E8, 0.76 to
# 0.80 s on E7 (86% of its 8-bit draws rejected) and 0.96 s on A16, the
# slowest type (82% of its 9-bit draws rejected)
MAX_SAMPLES = 1_000_000

Result = Tuple[Optional[dict], int]


class Pipeline:
    def __init__(self, datum: RootDatum, cocycle: F2QuadraticSpace, lie: IntegralLieAlgebra,
                 fixed: FixedSubalgebra, rep: Optional[HeisRep], rmap: Optional[RMap]):
        self.datum = datum
        self.cocycle = cocycle
        self.lie = lie
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
    """Lattice -> cover -> Lie algebra (its involution checked) -> fixed
    subalgebra, plus the monomial representation for the two marked
    exceptional types.

    ``kind`` is a canonical type name ("E6", as from ``canonical_type``):
    ``run`` parses the CLI's spelling once, before any work starts."""
    datum = root_datum(kind)
    cocycle = mod2_space(datum)
    lie = build_lie(datum, cocycle)
    fixed = fixed_subalgebra(lie)
    rep = rmap = None
    if with_rep is None:
        with_rep = kind in ("E6", "E7")
    if with_rep:
        rep = build_heisrep(cocycle)
        rmap = RMap(fixed, rep)
    return Pipeline(datum, cocycle, lie, fixed, rep, rmap)


def run(cfg, args: argparse.Namespace) -> Result:
    """Run ``cfg.command``; a failed construction check exits 1 with its
    first failing pairs on stderr; a bad type name, checked outside the
    try, raises LatticeError as bad input (exit 2)."""
    cfg.lattice_type = canonical_type(args.type)
    try:
        return COMMANDS[cfg.command](cfg, args)
    except (RepError, LieError, LatticeError, F2Error) as exc:
        # a constructed object failed its own verification; not bad input
        note(f"verification failed: {exc}")
        for witness in getattr(exc, "witnesses", ()):
            note(f"  failing pair {witness}")
        return None, 1


def cmd_build(cfg, args: argparse.Namespace) -> Result:
    # the CLI notes [render] and [total] once it has written the payload
    t0 = time.perf_counter()
    pipe = build_pipeline(cfg.lattice_type)
    clock("pipeline", t0)
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
        "theta": [[i, _signed_index(lie, i)] for i in range(lie.dim)],
        "trace_theta": lie.theta_trace(),
        "dim": lie.dim,
        "fixed_dim": pipe.fixed.dim,
    }
    if pipe.rep is not None:
        payload["rep"] = pipe.rep.to_json_dict()
    return payload, 0


def _signed_index(lie: IntegralLieAlgebra, i: int) -> int:
    j, s = lie.theta_image(i)
    return s * (j + 1)


def cmd_verify(cfg, args: argparse.Namespace) -> Result:
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must be between 1 and {MAX_SAMPLES}")
    # random.Random seeds with |seed|, so -5 would draw the triples of 5
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, not {args.seed}")
    cfg.depth = args.depth
    # exhaustive Jacobi draws nothing, so only a sampled run records a seed
    cfg.seed = (args.seed or 0) if cfg.depth == "sampled" else None
    # timing goes to stderr so the JSON payload stays byte-identical across runs
    t_start = time.perf_counter()
    pipe = build_pipeline(cfg.lattice_type)
    clock("pipeline", t_start)
    checks: Dict[str, dict] = {}

    sample = None if cfg.depth == "exhaustive" else args.samples
    t0 = time.perf_counter()
    jr = verify_jacobi(pipe.lie, sample=sample, seed=cfg.seed)
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

    trace = pipe.lie.theta_trace()
    checks["theta"] = {"trace": trace, "ok": trace == -pipe.datum.rank}

    t0 = time.perf_counter()
    kf_ok = intmat.bareiss_det(killing_form(pipe.lie)) != 0
    checks["killing"] = {"nondegenerate": kf_ok}
    gk_ok = intmat.bareiss_det(killing_form(pipe.fixed)) != 0
    checks["fixed_killing"] = {"nondegenerate": gk_ok, "dim": pipe.fixed.dim}
    clock("killing", t0)

    if pipe.rep is not None:
        t0 = time.perf_counter()
        rr = verify_rep(pipe.rep, root_classes=sorted(set(pipe.datum.root_classes)))
        checks["rep"] = {"ok": rr.ok, "pairs": rr.pairs_checked,
                         "commutant_dim": rr.commutant_dim}
        # the root-lift squares were checked by verify_rep above
        checks["lift_order4"] = {"ok": not rr.root_square_failures,
                                 "roots": len(pipe.datum.roots)}
        # rho(c(g)) rho(c(d)) = (-1)^<g, d> rho(c(d)) rho(c(g)) on every root
        # pair is read from the table: M_u M_v = (-1)^beta(u, v) M_(u+v) holds
        # on every pair, so M_u M_v = (-1)^(beta(u, v) + beta(v, u)) M_v M_u,
        # and beta + beta^T is the pairing, which build_lie checked to be the
        # lattice gram mod 2
        checks["comm_relation"] = {"ok": not rr.failures,
                                   "pairs": comb(len(pipe.datum.roots), 2)}
        checks["anticommutation_model"] = {"ok": anticommutation_model_holds()}
        clock("rep", t0)

        t0 = time.perf_counter()
        hr = verify_R(pipe.rmap)
        clock("fixed_rep_hom", t0)
        checks["fixed_rep_hom"] = {"ok": hr.ok, "pairs": hr.pairs_checked}
        if not hr.ok:
            labels = pipe.fixed.labels
            checks["fixed_rep_hom"]["failures"] = [[labels[i], labels[j]]
                                                   for i, j in hr.failures[:5]]

        t0 = time.perf_counter()
        rec = identify_fixed(pipe.fixed, pipe.rmap)
        clock("identify_fixed", t0)
        checks["identify_fixed"] = {"family": rec.family, "w_dim": rec.w_dim,
                                    "fixed_dim": rec.fixed_dim}

    note(f"[total] {time.perf_counter() - t_start:.3f}s")
    # the run passes when every check in the payload does
    ok = all(value for check in checks.values() for key, value in check.items()
             if key in ("ok", "nondegenerate"))
    payload = {"config": cfg.stamp(), "checks": checks, "ok": ok}
    return payload, 0 if ok else 1


COMMANDS = {"build": cmd_build, "verify": cmd_verify}
