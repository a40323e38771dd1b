"""Time the Jacobi kernels of ``verify`` in process, on E7 and E8.

Usage: python3 tools/bench_jacobi.py --src SRC --label NAME --out FILE

Imports rootcover from ``SRC`` (a checkout's ``src`` directory), builds the
E7 and E8 pipelines once, and times three things at ``SAMPLES`` samples and
seed ``SEED``, each as the median of ``REPEAT`` ``time.perf_counter``
readings: the sampled draw alone (every triple of the seeded sequence, each
sorted, nothing evaluated), the sampled scan (``verify_jacobi`` with
``sample`` set) and the exhaustive scan.  One row, tagged ``NAME``, is
appended to the JSON list in ``FILE`` (created if missing).  Stdlib only;
not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

SAMPLES = 200_000
SEED = 3
REPEAT = 9


def _median_s(fn) -> float:
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _consume_draws(n: int) -> None:
    # every draw is sorted, as the per-draw generator before the chunked draw
    # sorted it, so that draw_s times the same work on both sides
    from rootcover.sampling import sampled_triples
    for draws in sampled_triples(n, SAMPLES, SEED):
        for i, j, k in draws:
            if i > j:
                i, j = j, i
            if j > k:
                j, k = k, j
                if i > j:
                    i, j = j, i


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src directory of a checkout")
    ap.add_argument("--label", required=True, help="the name of the row")
    ap.add_argument("--out", required=True, help="JSON file the row is appended to")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.src).resolve()))
    from rootcover import liealg
    from rootcover.cmd_pipeline import build_pipeline

    row = {"label": args.label, "python": platform.python_version(),
           "machine": platform.machine(), "samples": SAMPLES, "seed": SEED,
           "repeat": REPEAT, "types": {}}
    for kind in ("E7", "E8"):
        lie = build_pipeline(kind).lie
        sampled = liealg.verify_jacobi(lie, sample=SAMPLES, seed=SEED)
        row["types"][kind] = {
            "draw_s": _median_s(lambda: _consume_draws(lie.dim)),
            "sampled_s": _median_s(lambda: liealg.verify_jacobi(
                lie, sample=SAMPLES, seed=SEED)),
            "exhaustive_s": _median_s(lambda: liealg.verify_jacobi(lie)),
            "sampled_evaluated": sampled.evaluated,
        }
        print(kind, json.dumps(row["types"][kind]), file=sys.stderr)

    out = Path(args.out)
    rows = json.loads(out.read_text()) if out.exists() else []
    rows.append(row)
    out.write_text(json.dumps(rows, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
