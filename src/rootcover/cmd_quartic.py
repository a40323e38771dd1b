"""The ``quartic`` command: a marked E6 or E7 family member, its contact order
at the marked point and its smoothness verdict.

Loaded by the CLI only for this command.  It imports ``quartic`` alone (which
imports ``gaussian``), so a probe compiles none of the lattice or Lie-algebra
modules.  ``args.params`` arrives parsed and bounded by the CLI.
"""

from __future__ import annotations

from typing import Tuple

from .quartic import (FAMILIES, family_member, smoothness_probe,
                      tangent_contact_order)


def run(cfg, args) -> Tuple[dict, int]:
    """The payload and exit code of ``rootcover quartic``."""
    primes = tuple(map(_probe_item, args.probe.split(",")))
    curve = family_member(args.family, args.params)
    _, _, expected_contact = FAMILIES[args.family]
    contact = tangent_contact_order(curve)
    verdict = smoothness_probe(curve, primes)
    payload = {
        "config": cfg.stamp(),
        "family": args.family,
        "params": [str(p) for p in args.params],
        "contact_order": contact,
        "expected_contact": expected_contact,
        "verdict": verdict.to_json_dict(),
    }
    return payload, 0 if contact == expected_contact else 1


def _probe_item(item: str) -> int:
    try:
        return int(item)
    except ValueError:
        raise ValueError(f"--probe item {item!r} is not an integer") from None
