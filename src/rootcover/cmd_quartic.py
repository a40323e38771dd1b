"""The ``quartic`` command: a marked E6 or E7 family member, its contact order
at the marked point and its smoothness verdict.

Loaded by the CLI only for this command.  It imports ``quartic`` alone (which
imports ``gaussian``), so a probe compiles none of the lattice or Lie-algebra
modules.  ``args.params`` arrives parsed and bounded by the CLI.
"""

from __future__ import annotations

import math
from typing import Tuple

from .quartic import (E6Params, E7Params, e6_family, e7_family,
                      smoothness_probe, tangent_contact_order)


def run(cfg, args) -> Tuple[dict, int]:
    """The payload and exit code of ``rootcover quartic``."""
    params = args.params
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
    return payload, 0 if contact == expected_contact else 1
