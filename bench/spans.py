"""Outside-in tracer: wraps the package's callables from the benchmark's own
code and records one span per call.

A span holds a name, a start, an end and its parent span.  Spans are kept in
flat arrays in memory, nothing is written while an operation runs, and the
spans of each operation are reduced once it has returned: a span's self time
is its duration minus the part of it that its child spans cover.

Modules bind names with ``from .accept import psi_cap``, so every wrapper
is installed in each package namespace that holds the original object, not
only in the module that defines it.  A target that does not exist is skipped;
its metrics then read 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

PACKAGE = "vetopersuasion"
# Prefix of the stderr line on which bench/cli_child.py reports its trace.
MARKER = "BENCH-SPANS "
MODULES = ("dist", "prefs", "accept", "qsolve", "lsolve", "oracle", "cli")

# Private kernels and foreign entry points traced besides the public
# functions: (module, attribute, span name).
KERNELS = (
    ("dist", "quad", "dist.quad"),
    ("qsolve", "brentq", "qsolve.brentq"),
    ("qsolve", "_tangency_point", "qsolve.tangency"),
    ("qsolve", "_acceptance_cutoff", "qsolve.acceptance_cutoff"),
    ("qsolve", "_proposal_value", "qsolve.proposal_value"),
    ("oracle", "_indirect", "oracle.indirect"),
    ("cli", "_emit", "cli.emit"),
    ("cli", "_write_csv", "cli.emit"),
)

DIST_METHODS = ("support", "cdf", "cdf_below", "mean", "upper_partial_mean",
                "cond_mean_above", "expect")
PREFS_METHODS = ("loss", "loss_deriv", "utility", "utility_deriv", "risk_aversion")
DIST_FAMILIES = {"UniformInterval": "uniform", "FiniteAtoms": "atoms",
                 "ExponentialTilt": "tilt"}

# The CLI is traced by layer, not by function: parsing and emitting are the
# only CLI work; the rest of ``main`` dispatches into the solver layers.
CLI_FUNCTIONS = {"main": "cli.main", "build_parser": "cli.parse"}


class Tracer:
    """Span store.  ``wrap`` returns a traced version of a callable.

    Spans are appended when a call starts and closed when it returns.
    ``fold`` reduces the spans recorded so far into ``total`` and empties the
    store; the benchmark folds after each operation, when no span is open,
    so memory holds one operation's spans at a time.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._cur = [-1]
        self.counters: Counter = Counter()
        self.total = Summary()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[["Tracer", tuple, object], None]] = None) -> Callable:
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        cur, clock = self._cur, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(cur[0])
            ends.append(0.0)
            cur[0] = i
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                cur[0] = parents[i]
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def fold(self) -> None:
        """Reduce the recorded spans into ``total`` and clear the store."""
        if self._cur[0] != -1:
            raise RuntimeError("fold called inside an open span")
        if not self.start:
            return
        # Views on the stores; dropped before the stores are cleared.
        name = np.frombuffer(self.name, dtype=np.uint32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        k = len(self.names)
        own = self_times(parent, start, end)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        under = {}
        for child, anc in ANCESTOR_COUNTS:
            if child in self._ids and anc in self._ids:
                flags = under_ancestor(name, parent, self._ids[anc])
                under[f"{child}<{anc}"] = int(np.count_nonzero(
                    flags & (name == self._ids[child])))
        roots = float((end - start)[parent < 0].sum())
        self.total.add(Summary(
            {self.names[i]: int(calls[i]) for i in range(k) if calls[i]},
            {self.names[i]: float(self_s[i]) for i in range(k) if calls[i]},
            under, dict(self.counters), roots))
        self.counters.clear()
        del name, parent, start, end
        for store in (self.name, self.parent, self.start, self.end):
            del store[:]

    def summary(self) -> "Summary":
        self.fold()
        return self.total


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.t, self.nid = tracer, nid

    def __enter__(self) -> None:
        t = self.t
        self.i = len(t.start)
        t.name.append(self.nid)
        t.parent.append(t._cur[0])
        t.end.append(0.0)
        t._cur[0] = self.i
        t.start.append(time.perf_counter())

    def __exit__(self, *exc) -> None:
        t = self.t
        t.end[self.i] = time.perf_counter()
        t._cur[0] = t.parent[self.i]


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part its child spans cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another: the covered part is the sum of the children's
    durations.  ``parent`` is -1 for a root.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def under_ancestor(name: np.ndarray, parent: np.ndarray, anc: int) -> np.ndarray:
    """For each span, whether a span named ``anc`` is a proper ancestor."""
    has = parent >= 0
    up = np.where(has, parent, 0)
    flags = has & (name[up] == anc)
    while True:  # one step up the tree per pass; depth is small
        nxt = flags | (has & flags[up])
        if np.array_equal(nxt, flags):
            return flags
        flags = nxt


class Summary:
    """Reduced trace: calls and self seconds per span name, ancestor-scoped
    call counts, counters and the total root-span time.  Summaries of
    several processes add up."""

    def __init__(self, calls=None, self_s=None, under=None, counters=None,
                 roots_s: float = 0.0) -> None:
        self.calls: Dict[str, int] = dict(calls or {})
        self.self_s: Dict[str, float] = dict(self_s or {})
        self.under: Dict[str, int] = dict(under or {})
        self.counters: Dict[str, float] = dict(counters or {})
        self.roots_s = roots_s

    def add(self, other: "Summary") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.self_s, other.self_s),
                             (self.under, other.under), (self.counters, other.counters)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v
        self.roots_s += other.roots_s

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "under": self.under,
                "counters": self.counters, "roots_s": self.roots_s}

    @classmethod
    def from_json(cls, d: dict) -> "Summary":
        return cls(d["calls"], d["self_s"], d["under"], d["counters"], d["roots_s"])

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def ms(self, prefix: str) -> float:
        """Self milliseconds of the span ``prefix`` and of every span under
        that dotted prefix."""
        return 1e3 * sum(v for k, v in self.self_s.items()
                         if k == prefix or k.startswith(prefix + "."))

    def count(self, prefix: str, suffix: str = "") -> int:
        return sum(v for k, v in self.calls.items()
                   if (k == prefix or k.startswith(prefix + ".")) and k.endswith(suffix))


# Calls counted only under a given solver: (span, ancestor span).
ANCESTOR_COUNTS = (
    ("lsolve.uhat", "lsolve.solve_persuasion_first_binary"),
    ("lsolve.utilde", "lsolve.solve_proposal_first_binary"),
)


def _count_hull(tracer: Tracer, args: tuple, result) -> None:
    envelope = result[0]
    tracer.counters["lsolve.hull_vertices"] += len(envelope.breakpoints)
    tracer.counters["lsolve.hull_points"] += len(args[0])


ON_RESULT = {"lsolve.concavify": _count_hull}


def _public_functions(module) -> Iterable[Tuple[str, Callable]]:
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def _subclasses(cls) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Installation:
    """Wrappers installed into the package; ``undo`` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []
        self.missing: List[str] = []

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Installation:
    """Wrap every traced callable of the (already imported) package."""
    inst = Installation(tracer)
    mods = {m: sys.modules.get(f"{PACKAGE}.{m}") for m in MODULES}
    wrapped: Dict[int, Callable] = {}  # id(original) -> wrapper

    def add(fn: Callable, name: str) -> None:
        if id(fn) not in wrapped:
            wrapped[id(fn)] = tracer.wrap(fn, name, ON_RESULT.get(name))

    for layer, mod in mods.items():
        if mod is None:
            inst.missing.append(layer)
            continue
        if layer == "cli":
            for attr, span in CLI_FUNCTIONS.items():
                if hasattr(mod, attr):
                    add(getattr(mod, attr), span)
        else:
            for attr, fn in _public_functions(mod):
                add(fn, f"{layer}.{attr}")
    for modname, attr, span in KERNELS:
        mod = mods.get(modname)
        if mod is None or not callable(getattr(mod, attr, None)):
            inst.missing.append(f"{modname}.{attr}")
            continue
        add(getattr(mod, attr), span)

    # Rebind in every namespace of the package that holds an original.
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        ns = vars(mod)
        for attr, obj in list(ns.items()):
            w = wrapped.get(id(obj))
            if w is not None:
                ns[attr] = w
                inst._undo.append(functools.partial(ns.__setitem__, attr, obj))

    if mods["dist"] is not None and hasattr(mods["dist"], "TypeDistribution"):
        for cls in _subclasses(mods["dist"].TypeDistribution):
            family = DIST_FAMILIES.get(cls.__name__, cls.__name__.lower())
            _wrap_methods(inst, cls, DIST_METHODS, f"dist.{family}")
    if mods["prefs"] is not None and hasattr(mods["prefs"], "ProposerPreferences"):
        for cls in _subclasses(mods["prefs"].ProposerPreferences):
            _wrap_methods(inst, cls, PREFS_METHODS, "prefs")
    if mods["cli"] is not None:
        _wrap_parse_args(inst)
    return inst


def _wrap_methods(inst: Installation, cls: type, methods: Sequence[str], prefix: str) -> None:
    for attr in methods:
        try:
            static = inspect.getattr_static(cls, attr)
        except AttributeError:
            continue
        name = f"{prefix}.{attr}"
        if isinstance(static, property):
            new = property(inst.tracer.wrap(static.fget, name))
        elif inspect.isfunction(static):
            new = inst.tracer.wrap(static, name)
        else:
            continue
        own = attr in vars(cls)
        setattr(cls, attr, new)
        inst._undo.append(functools.partial(setattr, cls, attr, static) if own
                          else functools.partial(delattr, cls, attr))


def _wrap_parse_args(inst: Installation) -> None:
    """``main`` parses with the parser ``build_parser`` returns, so parse_args
    is traced on ArgumentParser itself, as part of cli.parse."""
    import argparse

    static = inspect.getattr_static(argparse.ArgumentParser, "parse_args")
    argparse.ArgumentParser.parse_args = inst.tracer.wrap(static, "cli.parse")
    inst._undo.append(functools.partial(setattr, argparse.ArgumentParser, "parse_args", static))


def layer_metrics(s: Summary, traced_wall_s: float, untraced_wall_s: float,
                  imports: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, by name, from a reduced trace."""

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = dict(imports)
    m.update({
        "cli.parse_ms": s.ms("cli.parse"),
        "cli.emit_ms": s.ms("cli.emit"),
        "dist.tilt.self_ms": s.ms("dist.tilt"),
        "dist.uniform.self_ms": s.ms("dist.uniform"),
        "dist.atoms.self_ms": s.ms("dist.atoms"),
        "dist.cdf.calls": s.count("dist", ".cdf"),
        "dist.cond_mean_above.calls": s.count("dist", ".cond_mean_above"),
        "dist.upper_partial_mean.calls": s.count("dist", ".upper_partial_mean"),
        "dist.quad.calls": s.n("dist.quad"),
        "dist.quad.self_ms": s.ms("dist.quad"),
        "prefs.calls": s.count("prefs"),
        "prefs.self_ms": s.ms("prefs"),
        "accept.psi_cap.calls": s.n("accept.psi_cap"),
        "accept.phi_threshold.calls": s.n("accept.phi_threshold"),
        "accept.best_acceptable_proposal.calls": s.n("accept.best_acceptable_proposal"),
        "accept.self_ms": s.ms("accept"),
        "qsolve.solve_persuasion_first.self_ms": s.ms("qsolve.solve_persuasion_first"),
        "qsolve.solve_cutoff.self_ms": s.ms("qsolve.solve_cutoff"),
        "qsolve.tangency.calls": s.n("qsolve.tangency"),
        "qsolve.brentq.calls": s.n("qsolve.brentq"),
        "qsolve.solve_proposal_first.self_ms": s.ms("qsolve.solve_proposal_first"),
        "qsolve.proposal_evals_per_solve": per(s.n("qsolve.proposal_value"),
                                               s.n("qsolve.solve_proposal_first")),
        "qsolve.acceptance_cutoff.calls": s.n("qsolve.acceptance_cutoff"),
        "lsolve.solve_persuasion_first_binary.self_ms":
            s.ms("lsolve.solve_persuasion_first_binary"),
        "lsolve.concavify.self_ms": s.ms("lsolve.concavify"),
        "lsolve.uhat.calls_per_solve": per(
            s.under.get("lsolve.uhat<lsolve.solve_persuasion_first_binary", 0),
            s.n("lsolve.solve_persuasion_first_binary")),
        "lsolve.hull_vertex_ratio": per(s.counters.get("lsolve.hull_vertices", 0),
                                        s.counters.get("lsolve.hull_points", 0)),
        "lsolve.solve_proposal_first_binary.self_ms":
            s.ms("lsolve.solve_proposal_first_binary"),
        "lsolve.utilde.calls_per_solve": per(
            s.under.get("lsolve.utilde<lsolve.solve_proposal_first_binary", 0),
            s.n("lsolve.solve_proposal_first_binary")),
        "lsolve.quasiconvexity_check.calls": s.n("lsolve.quasiconvexity_check"),
        "lsolve.quasiconvexity_check.self_ms": s.ms("lsolve.quasiconvexity_check"),
        "lsolve.three_type_values.self_ms": s.ms("lsolve.three_type_values"),
        "oracle.partition_search.self_ms": s.ms("oracle.partition_search"),
        "oracle.indirect.calls": s.n("oracle.indirect"),
        "oracle.verify_certificate.self_ms": s.ms("oracle.verify_certificate"),
        "oracle.proposal_first_grid.self_ms": s.ms("oracle.proposal_first_grid"),
        "oracle.binary_signal_search_atoms.self_ms": s.ms("oracle.binary_signal_search_atoms"),
    })
    # Layer totals: with bench (the benchmark's own glue inside each
    # operation) they add up to the traced wall time, less loop overhead.
    for layer in ("bench", "import", "cli") + MODULES[:-1]:
        m[f"{layer}.self_ms"] = s.ms(layer)
    m["trace.wall_ms"] = 1e3 * traced_wall_s
    m["trace.accounted_ratio"] = per(s.roots_s, traced_wall_s)
    m["trace.overhead_ratio"] = per(traced_wall_s, untraced_wall_s)
    return m
