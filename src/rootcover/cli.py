"""Command-line driver: build, verify, and report, all output as JSON.

Commands
    build     full pipeline for a lattice type, structure constants to JSON
    verify    run the verification suites with exit 0 only when everything
              passes; Jacobi checks the weight grading, then is exhaustive by
              default for every type (it evaluates the weight-live triples of
              weight 0 or a positive root and mirrors the rest through the
              verified involution), or sampled on request (it skips the draws
              the grading proves zero)
    table     the real-orbit table over the E6 datum
    delpezzo  the blow-up lattice summary (126 / 72 / 56 / 27)
    counts    refinement counts by Arf invariant
    quartic   marked-family curves: contact order and smoothness verdict

Output is byte-identical across runs for a fixed configuration; sampled
verification records its seed.  Bad input, an unwritable --out path
included, exits 2 before any expensive work; a write to --out that fails
anyway, on a full disk say, exits 2 with the reason and no output, and so
does a failed write to stdout.  stderr carries only diagnostics, written
best-effort: a failed write there changes neither stdout nor the exit code.

This module holds the parser, the input checks and the output writer, and
imports no rootcover domain module.  Once the parser has chosen a command,
``main`` imports that command's module, and with it only the modules the
command runs: ``cmd_quartic`` (``quartic``, ``gaussian``) for ``quartic``,
``cmd_lattice`` (``lattice``, ``realtable``, ``f2``, ``intmat``) for
``table``, ``delpezzo`` and ``counts``, and ``cmd_pipeline`` (the lattice,
cover, Lie-algebra and representation stack) for ``build`` and ``verify``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import __version__, clock, note

# upper bound on the bits of each quartic parameter's numerator and
# denominator: with every parameter a 2,048-bit numerator over a 2,048-bit
# denominator, quartic e7 took 2.6 s and quartic e6 1.6 s on a 2-core x86 VM,
# most of it in the exact Macaulay rank
MAX_PARAM_BITS = 2048


class RunConfig:
    def __init__(self, command: str, out: Optional[str] = None):
        self.command = command
        self.out = out
        self.lattice_type: Optional[str] = None
        self.depth = "exhaustive"
        self.seed: Optional[int] = None
        # text that stdout gets ahead of the JSON, table's rows; --out gets
        # the JSON alone
        self.text = ""

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


def __getattr__(name: str):
    # perfbench/selftest.py imports build_pipeline from this module
    if name == "build_pipeline":
        from . import cmd_pipeline
        return cmd_pipeline.build_pipeline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _emit(payload: dict, out: Optional[str], head: str) -> None:
    """Write ``payload`` as the text of json.dumps(payload, sort_keys=True,
    indent=2), but for its values that render themselves, to ``out`` when
    given, then to stdout after ``head``, so that a failed write to ``out``
    leaves stdout empty.

    Dicts are walked by sorted key.  A callable value is called with the
    indentation of its line and returns its own text: ``build`` renders its
    bracket and matrix tables so.  Every other value goes through json.dumps,
    its lines shifted to their place.  Payload keys are strings.
    """
    # json is loaded after the command's modules: loaded ahead of them it
    # raised the peak RSS of verify --type E7 by 0.15 MB
    import json

    def render(value, indent: str) -> str:
        if callable(value):
            return value(indent)
        if isinstance(value, dict) and value:
            inner = indent + "  "
            return ("{\n" + ",\n".join(f"{inner}{json.dumps(k)}: {render(v, inner)}"
                                        for k, v in sorted(value.items()))
                    + "\n" + indent + "}")
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)

    text = render(payload, "") + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
    sys.stdout.write(head + text)


def _check_writable(path: str) -> None:
    """Raise ValueError unless ``path`` can be opened for writing."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ValueError(f"--out {path} is not a writable file path")


def _parse_fraction_list(text: str) -> Tuple[Fraction, ...]:
    params = []
    for part in text.split(","):
        try:
            # Fraction("1e999999999") would build 10**999999999 before any check
            exponent = int(part.lower().partition("e")[2] or 0)
            value = Fraction(part) if abs(exponent) <= MAX_PARAM_BITS else None
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--params item {part!r} is not a rational number") from None
        if value is None:
            raise ValueError(f"--params item {part} has an exponent above {MAX_PARAM_BITS}")
        if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_PARAM_BITS:
            raise ValueError(f"--params item {part} is above {MAX_PARAM_BITS} bits")
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

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--type", required=True)
    p_verify.add_argument("--depth", choices=("exhaustive", "sampled"),
                          default="exhaustive",
                          help="Jacobi on every basis triple (default, all "
                               "types) or on --samples seeded random triples; "
                               "both check the weight grading first, and "
                               "sampling skips the draws it proves zero")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=200000)
    p_verify.add_argument("--out", default=None)

    p_table = sub.add_parser("table", help="real-orbit table")
    p_table.add_argument("which", choices=("real-orbits",))
    p_table.add_argument("--out", default=None)

    p_dp = sub.add_parser("delpezzo", help="blow-up lattice summary")
    p_dp.add_argument("--out", default=None)

    p_counts = sub.add_parser("counts", help="refinement counts by Arf invariant")
    p_counts.add_argument("--g", type=int, required=True)
    p_counts.add_argument("--out", default=None)

    p_q = sub.add_parser("quartic", help="marked quartic families")
    p_q.add_argument("family", choices=("e6", "e7"))
    p_q.add_argument("--params", required=True,
                     help="comma-separated rational parameters")
    p_q.add_argument("--probe", default="5,7,11",
                     help="comma-separated distinct probe primes, each at "
                          "most 1000, their squares summing to at most "
                          "1,000,000")
    p_q.add_argument("--out", default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    cfg = RunConfig(command=args.command, out=args.out)
    try:
        if cfg.out:
            _check_writable(cfg.out)
        # the chosen command's module, and only it, brings in its stack
        if args.command == "quartic":
            args.params = _parse_fraction_list(args.params)
            from . import cmd_quartic as command
        elif args.command in ("build", "verify"):
            from . import cmd_pipeline as command
        else:
            from . import cmd_lattice as command
        t_start = time.perf_counter()
        payload, code = command.run(cfg, args)
        if payload is not None:
            t0 = time.perf_counter()
            _emit(payload, cfg.out, cfg.text)
            if cfg.command == "build":
                # build's payload is its large tables: writing them is a stage
                clock("render", t0)
                clock("total", t_start)
        sys.stdout.flush()
        return code
    except (ValueError, ZeroDivisionError) as exc:
        note(f"error: {exc}")
        return 2
    except OSError as exc:
        # no command opens a file: _emit reports a failed --out write itself
        note(f"error: cannot write stdout: {exc.strerror}")
        # what stdout still buffers would fail again at interpreter exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
