"""Traced in-process run: wraps rootcover's module interfaces, then calls
``rootcover.cli.main`` once per argv and reports per-layer spans and counts.

Usage: PYTHONPATH=src python3 perfbench/tracer.py < argv-list.json
Prints one JSON object: per-call exit codes and stdout, the traced wall time,
and the per-layer metrics.

A span is opened by each call of a wrapped function.  The wrapped functions
are the interface of each module: every public function that another
rootcover module imports by name, every public function of a module that
another imports whole (``from . import intmat``), and the methods listed in
METHODS.  Once wrapped, a function is traced wherever it is called from,
its home module included.  A span's self time is its duration minus the
durations of the spans nested directly inside it.  Each CLI call is one root
span, ``cli``, so cli self time is everything the CLI does outside the
other layers: argument parsing, payload assembly and ``json.dumps``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from math import comb
from typing import Callable, Dict, List, Tuple

import rootcover
import rootcover.cli

# (module, class, method, span name, timed): methods traced by the class attribute.
METHODS = (
    ("extension", "Cocycle", "beta", "extension.beta", False),
    ("gaussian", "MonoMat", "__mul__", "gaussian.monomat_mul", False),
    ("f2", "F2QuadraticSpace", "q", "f2.q", False),
    ("liealg", "FixedSubalgebra", "killing", "liealg.fixed_killing", True),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.module_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.verdicts: Counter = Counter()
        self.stack: List[List[float]] = []
        self.command = ""
        self.exhaustive_algebras: list = []

    # -- wrapping -----------------------------------------------------------

    def span(self, name: str, f: Callable) -> Callable:
        module = name.split(".", 1)[0]
        hook = HOOKS.get(name)

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook.before(self, args, kwargs)
            self.calls[name] += 1
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                own = dt - frame[0]
                self.self_s[name] += own
                self.module_s[(self.command, module)] += own
                self.stack[-1][0] += dt
            if hook is not None:
                hook.after(self, args, kwargs, result)
            return result
        return traced

    def counter(self, name: str, f: Callable) -> Callable:
        @functools.wraps(f)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return f(*args, **kwargs)
        return counted

    def install(self) -> None:
        modules = [importlib.import_module(f"rootcover.{m.name}")
                   for m in pkgutil.iter_modules(rootcover.__path__)]
        wrappers = {f: self.span(name, f)
                    for f, name in interface_functions(modules).items()}
        for mod in modules + [rootcover]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        for mod_name, cls_name, meth, name, timed in METHODS:
            cls = getattr(importlib.import_module(f"rootcover.{mod_name}"),
                          cls_name, None)
            f = getattr(cls, meth, None)
            if f is not None:
                setattr(cls, meth, (self.span if timed else self.counter)(name, f))

    # -- running ------------------------------------------------------------

    def run(self, argv: List[str]) -> dict:
        """One CLI call as the root span ``cli``; returns code and stdout."""
        self.command = argv[0]
        out, err = io.StringIO(), io.StringIO()
        frame = [0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rootcover.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        dt = time.perf_counter() - t0
        self.stack.pop()
        self.self_s["cli"] += dt - frame[0]
        text = out.getvalue()
        self.counts["cli.stdout_bytes"] += len(text.encode())
        return {"code": code, "stdout": text}


def interface_functions(modules) -> Dict[Callable, str]:
    """Public functions of each module that another module uses, by span name."""
    short = {m: m.__name__.rsplit(".", 1)[1] for m in modules}
    found: Dict[Callable, str] = {}

    def add(f, home) -> None:
        if (inspect.isfunction(f) and not f.__name__.startswith("_")
                and f.__module__ == home.__name__):
            found[f] = f"{short[home]}.{f.__name__}"

    for mod in modules:
        for val in vars(mod).values():
            if inspect.ismodule(val) and val in short and val is not mod:
                for f in vars(val).values():
                    add(f, val)
            elif inspect.isfunction(val):
                home = sys.modules.get(val.__module__)
                if home in short and home is not mod:
                    add(val, home)
    return found


class Hook:
    """Counts taken at a span boundary, from its arguments or its result."""

    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, kwargs, result) -> None:
        pass


class ResultCount(Hook):
    def __init__(self, counter: str, read: Callable) -> None:
        self.counter, self.read = counter, read

    def after(self, tracer, args, kwargs, result) -> None:
        tracer.counts[self.counter] += self.read(result)


class SparseRows(Hook):
    def before(self, tracer, args, kwargs):
        rows = list(args[0])
        tracer.counts["gaussian.sparse_rows"] += len(rows)
        return (rows,) + tuple(args[1:]), kwargs


class Jacobi(Hook):
    def after(self, tracer, args, kwargs, result) -> None:
        tracer.counts["liealg.verify_jacobi.triples"] += result.checked_unordered
        sample = args[1] if len(args) > 1 else kwargs.get("sample")
        if sample is None:
            tracer.exhaustive_algebras.append(args[0] if args else kwargs["L"])


class Verdict(Hook):
    def after(self, tracer, args, kwargs, result) -> None:
        tracer.verdicts[result.kind] += 1


HOOKS = {
    "heisrep.verify_rep": ResultCount("heisrep.verify_rep.pairs",
                                      lambda r: r.pairs_checked),
    "liealg.verify_R": ResultCount("liealg.verify_R.pairs",
                                   lambda r: r.pairs_checked),
    "grouplift.verify_comm_relation": ResultCount(
        "grouplift.verify_comm_relation.pairs", lambda r: r.pairs_checked),
    "lattice.weyl_enumerate": ResultCount("lattice.weyl_enumerate.elements", len),
    "gaussian.sparse_nullspace": SparseRows(),
    "gaussian.sparse_rank": SparseRows(),
    "liealg.verify_jacobi": Jacobi(),
    "quartic.smoothness_probe": Verdict(),
}


def weight_live_triples(L) -> int:
    """Unordered triples i < j < k of basis indices whose summed weight lies in
    the roots or is 0, counted with the public ``weight`` and ``datum.index``.

    Weights are packed into integers (balanced digits, one per coordinate) so
    that sums of weights are sums of integers; ordered triples are counted
    through the pair-sum distribution and repeated indices are removed by
    inclusion-exclusion.
    """
    weights = [tuple(L.weight(i)) for i in range(L.dim)]
    rank = len(weights[0])
    base = 2 * 3 * max(abs(c) for w in weights for c in w) + 1

    def pack(w) -> int:
        return sum(c * base ** t for t, c in enumerate(w))

    live = {pack(r) for r in L.datum.index} | {pack((0,) * rank)}
    keys = Counter(pack(w) for w in weights)
    pair_sums: Counter = Counter()
    for a, na in keys.items():
        for b, nb in keys.items():
            pair_sums[a + b] += na * nb
    every = sum(nc * pair_sums[t - c] for c, nc in keys.items() for t in live)
    doubled = sum(na * nb for a, na in keys.items() for b, nb in keys.items()
                  if 2 * a + b in live)
    tripled = sum(na for a, na in keys.items() if 3 * a in live)
    return (every - 3 * doubled + 2 * tripled) // 6


def layer_metrics(tr: Tracer, traced_wall_s: float) -> Dict[str, float]:
    s, c, n = tr.self_s, tr.calls, tr.counts
    live = sum(weight_live_triples(L) for L in tr.exhaustive_algebras)
    total = sum(comb(L.dim, 3) for L in tr.exhaustive_algebras)
    probes = sum(tr.verdicts.values())
    certified = tr.verdicts["SMOOTH"] + tr.verdicts["SINGULAR"]
    by_module: Dict[str, float] = defaultdict(float)
    for (_, module), val in tr.module_s.items():
        by_module[module] += val
    m = {
        "lattice.root_datum.self_s": s["lattice.root_datum"],
        "lattice.weyl_enumerate.self_s": s["lattice.weyl_enumerate"],
        "lattice.weyl_enumerate.elements": n["lattice.weyl_enumerate.elements"],
        "lattice.classify_involutions.self_s": s["lattice.classify_involutions"],
        "lattice.delpezzo.self_s": tr.module_s[("delpezzo", "lattice")],
        "extension.build_extension.self_s": s["extension.build_extension"],
        "extension.beta.calls": c["extension.beta"],
        "f2.q.calls": c["f2.q"],
        "intmat.bareiss_det.self_s": s["intmat.bareiss_det"],
        "intmat.bareiss_det.calls": c["intmat.bareiss_det"],
        "gaussian.monomat_mul.calls": c["gaussian.monomat_mul"],
        "gaussian.sparse_rows": n["gaussian.sparse_rows"],
        "gaussian.sparse_solve.self_s": (s["gaussian.sparse_nullspace"]
                                         + s["gaussian.sparse_rank"]),
        "heisrep.build_heisrep.self_s": s["heisrep.build_heisrep"],
        "heisrep.verify_rep.self_s": s["heisrep.verify_rep"],
        "heisrep.verify_rep.calls": c["heisrep.verify_rep"],
        "heisrep.verify_rep.pairs": n["heisrep.verify_rep.pairs"],
        "liealg.verify_jacobi.self_s": s["liealg.verify_jacobi"],
        "liealg.verify_jacobi.triples": n["liealg.verify_jacobi.triples"],
        "liealg.jacobi.live_ratio": live / total if total else 0.0,
        "liealg.fixed_killing.self_s": s["liealg.fixed_killing"],
        "liealg.killing_form.self_s": s["liealg.killing_form"],
        "liealg.verify_R.self_s": s["liealg.verify_R"],
        "liealg.verify_R.pairs": n["liealg.verify_R.pairs"],
        "liealg.identify_fixed.self_s": s["liealg.identify_fixed"],
        "liealg.build_lie.self_s": s["liealg.build_lie"],
        "liealg.build_theta.self_s": s["liealg.build_theta"],
        "liealg.fixed_subalgebra.self_s": s["liealg.fixed_subalgebra"],
        "grouplift.verify_comm_relation.self_s": s["grouplift.verify_comm_relation"],
        "grouplift.verify_comm_relation.pairs": n["grouplift.verify_comm_relation.pairs"],
        "grouplift.phi_of_root.self_s": s["grouplift.phi_of_root"],
        "realtable.emit_table.self_s": s["realtable.emit_table"],
        "quartic.smoothness_probe.self_s": s["quartic.smoothness_probe"],
        "quartic.tangent_contact_order.self_s": s["quartic.tangent_contact_order"],
        "quartic.certified_ratio": certified / probes if probes else 0.0,
        "quartic.undecided": probes - certified,
        "cli.self_s": s["cli"],
        "cli.stdout_bytes": n["cli.stdout_bytes"],
    }
    for module in MODULE_TOTALS:
        m[f"{module}.self_s"] = by_module[module]
    m["trace.unattributed_s"] = traced_wall_s - sum(s.values())
    return m


MODULE_TOTALS = ("f2", "intmat", "gaussian", "lattice", "extension", "heisrep",
                 "liealg", "grouplift", "realtable", "quartic")


def main() -> int:
    argvs = json.load(sys.stdin)
    tracer = Tracer()
    tracer.install()
    results = []
    t0 = time.perf_counter()
    for argv in argvs:
        results.append(tracer.run(argv))
    traced_wall_s = time.perf_counter() - t0
    json.dump({"calls": results, "traced_wall_s": traced_wall_s,
               "metrics": layer_metrics(tracer, traced_wall_s)}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
