"""Spans around the public functions of cwlattice, installed from outside.

``Tracer.installed()`` replaces each target attribute (a module function,
or a method or ``__init__`` on a class) with a wrapper that records a
span: name, start, end, parent span and operation id.  Layers that call
each other through module attributes (``cwlattice.saf.decode``,
``cwlattice.saf.node_process``, ...) are wrapped at those attributes too,
and every attribute is restored on exit.  Spans stay in memory, in flat
arrays, until ``summary`` reads them.

A few targets only count calls (``COUNTED``): they are called too often
for a span each, and a span would dominate their cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter


def _pairs(counts, graph, args):
    counts["cliques.build_graph.pairs"] += len(graph) * (len(graph) - 1) // 2


def _certified(counts, result, args):
    counts["cliques.max_clique.certified"] += result.complete


def _cliques(counts, result, args):
    counts["cliques.count_maximum_cliques.cliques"] += result.count


def _ambiguous(counts, result, args):
    counts["code.decode.ambiguous"] += result.ambiguous


def _failed(counts, result, args):
    counts["saf.node_process.failed"] += result is None


def _padded(counts, result, args):
    counts["saf.sink_recover.padded"] += result.padded_zeros


def _elements(counts, result, args):
    counts["lattice.FiniteLattice.elements"] += len(args[0])


# span name, the attributes it is installed at ("module:Owner.attr"), and
# an optional hook that adds work counts from the result
SPANS = (
    ("cliques.build_graph", ("cwlattice.cliques:build_graph",), _pairs),
    ("cliques.max_clique", ("cwlattice.cliques:max_clique",), _certified),
    ("cliques.count_maximum_cliques", ("cwlattice.cliques:count_maximum_cliques",), _cliques),
    ("cliques.extract_code", ("cwlattice.cliques:extract_code",), None),
    ("code.ConstantWeightCode", ("cwlattice.code:ConstantWeightCode.__init__",), None),
    ("code.decode", ("cwlattice.code:decode", "cwlattice.saf:decode"), _ambiguous),
    ("bounds.bound_report", ("cwlattice.bounds:bound_report",), None),
    ("saf.run_experiment", ("cwlattice.saf:run_experiment",), None),
    ("saf.run_trial", ("cwlattice.saf:run_trial",), None),
    ("saf.random_dag", ("cwlattice.saf:random_dag",), None),
    ("saf.NetworkTopology.in_edges", ("cwlattice.saf:NetworkTopology.in_edges",), None),
    ("saf.apply_adversary", ("cwlattice.saf:apply_adversary",), None),
    ("saf.node_process", ("cwlattice.saf:node_process",), _failed),
    ("saf.sink_recover", ("cwlattice.saf:sink_recover",), _padded),
    ("pool.PolynomialPool", ("cwlattice.pool:PolynomialPool.__init__",), None),
    ("pool.compose", ("cwlattice.pool:PolynomialPool.compose",), None),
    ("pool.decompose", ("cwlattice.pool:PolynomialPool.decompose",), None),
    ("pool.full_alphabet", ("cwlattice.pool:full_alphabet",), None),
    ("gf.is_irreducible",
     ("cwlattice.gf:is_irreducible", "cwlattice.pool:is_irreducible", "cwlattice:is_irreducible"),
     None),
    ("lattice.FiniteLattice", ("cwlattice.lattice:FiniteLattice.__init__",), _elements),
    ("lattice.FiniteLattice.decomposition_theorem_report",
     ("cwlattice.lattice:FiniteLattice.decomposition_theorem_report",), None),
    ("lattice.FiniteLattice.irreducible_decompositions",
     ("cwlattice.lattice:FiniteLattice.irreducible_decompositions",), None),
    ("lattice.FiniteLattice.is_birkhoff", ("cwlattice.lattice:FiniteLattice.is_birkhoff",), None),
    ("lattice.FiniteLattice.has_m3_sublattice",
     ("cwlattice.lattice:FiniteLattice.has_m3_sublattice",), None),
    ("lattice.MultiplicationTable", ("cwlattice.lattice:MultiplicationTable.__init__",), None),
    ("lattice.check_prime", ("cwlattice.lattice:check_prime",), None),
    ("lattice.check_primary", ("cwlattice.lattice:check_primary",), None),
)
COUNTED = (
    ("gf.Polynomial.__mul__", "cwlattice.gf:Polynomial.__mul__"),
    ("gf.Polynomial.__divmod__", "cwlattice.gf:Polynomial.__divmod__"),
)
# work counts the hooks above add
HOOK_COUNTS = (
    "cliques.build_graph.pairs",
    "cliques.max_clique.certified",
    "cliques.count_maximum_cliques.cliques",
    "code.decode.ambiguous",
    "saf.node_process.failed",
    "saf.sink_recover.padded",
    "lattice.FiniteLattice.elements",
)


def _resolve(target: str):
    """(owner, attribute name, current raw value) of "module:Owner.attr"."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        stack, counts = self._stack, self.counts
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result, args)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, targets, hook in SPANS:
                for target in targets:
                    owner, attr, raw = _resolve(target)
                    saved.append((owner, attr, raw))
                    setattr(owner, attr, self.wrap(name, raw, hook))
            for name, target in COUNTED:
                owner, attr, raw = _resolve(target)
                saved.append((owner, attr, raw))
                setattr(owner, attr, self.counted(f"{name}.calls", raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def mark(self) -> tuple[int, Counter]:
        """Position to summarize from later: span index and a count snapshot."""
        return len(self.start), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> tuple[dict, dict]:
        """(times, counts) of the spans and counts recorded after ``since``.

        times maps span name to [calls, busy_s, self_s]; counts holds span
        calls and the work counts, so it repeats exactly for equal work.
        """
        lo, counts_before = since
        hi = len(self.start)
        child = [0.0] * (hi - lo)
        duration = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += duration[i - lo]
        times = {name: [0, 0.0, 0.0] for name in dict.fromkeys(self.names)}
        for i in range(lo, hi):
            row = times[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += duration[i - lo]
            row[2] += duration[i - lo] - child[i - lo]
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        for name, (calls, _, _) in times.items():
            counts[f"{name}.calls"] = calls
        return times, dict(counts)
