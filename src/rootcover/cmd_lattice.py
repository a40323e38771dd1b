"""The commands ``table``, ``delpezzo`` and ``counts``: the real-orbit table,
the blow-up lattice summary and the refinement counts.

Loaded by the CLI only for these commands.  They run on the lattice and F2
layers alone, so none of the cover, Lie-algebra or representation modules is
compiled.  Each command returns its JSON payload and exit code; the CLI
writes the payload.  Only ``counts`` takes input, --g, which it checks
before any work; no lattice, F2 or table check depends on input, so a
LatticeError, F2Error or RealTableError is a failed verification: it is
reported here and exits 1 with no payload.
"""

from __future__ import annotations

import argparse
from typing import Optional, Tuple

from . import note
from .f2 import MAX_ARF_G, F2Error, count_refinements_by_arf
from .lattice import (DelPezzoPicard, LatticeError, bitangent_complement,
                      classify_involutions, delpezzo_k_perp, discriminant_group,
                      lines, lines_meeting, root_datum, weyl_enumerate)
from .realtable import RealTableError, emit_table


def run(cfg, args: argparse.Namespace) -> Tuple[Optional[dict], int]:
    """Run ``cfg.command``; a failed check of its own exits 1."""
    try:
        return COMMANDS[cfg.command](cfg, args)
    except (LatticeError, F2Error, RealTableError) as exc:
        note(f"verification failed: {exc}")
        return None, 1


def cmd_table(cfg, args: argparse.Namespace) -> Tuple[dict, int]:
    datum = root_datum("E6")
    weyl = weyl_enumerate(datum)
    classes = classify_involutions(datum, weyl)
    rows = emit_table(datum, classes)
    # the CLI writes the text rows to stdout ahead of the JSON payload
    header = f"{'class':>8} {'n(C)':>5} {'a(C)':>5} {'bitangents':>11} {'#J/2J':>6} {'orbits':>7}"
    cfg.text = header + "\n" + "".join(
        f"{r.label:>8} {r.n_c:>5} {r.a_c:>5} {r.real_bitangents:>11} "
        f"{r.j_mod_2j_size:>6} {r.orbit_count:>7}\n" for r in rows)
    payload = {"config": cfg.stamp(), "weyl_order": len(weyl),
               "rows": [r.to_json_dict() for r in rows]}
    return payload, 0


def cmd_delpezzo(cfg, args: argparse.Namespace) -> Tuple[dict, int]:
    pic = DelPezzoPicard.standard()
    kperp = delpezzo_k_perp(pic)
    e = (0, 0, 0, 0, 0, 0, 0, 1)
    comp = bitangent_complement(pic, e)
    all_lines = lines(pic)
    meeting = lines_meeting(pic, all_lines, e)
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
    return payload, 0 if ok else 1


def cmd_counts(cfg, args: argparse.Namespace) -> Tuple[dict, int]:
    g = args.g
    if not 1 <= g <= MAX_ARF_G:
        raise ValueError(f"--g must be between 1 and {MAX_ARF_G}, not {g}")
    c0, c1 = count_refinements_by_arf(g)
    expected = (2 ** (g - 1) * (2 ** g + 1), 2 ** (g - 1) * (2 ** g - 1))
    payload = {"config": cfg.stamp(), "g": g, "arf0": c0, "arf1": c1,
               "expected": list(expected)}
    return payload, 0 if (c0, c1) == expected else 1


COMMANDS = {"table": cmd_table, "delpezzo": cmd_delpezzo, "counts": cmd_counts}
