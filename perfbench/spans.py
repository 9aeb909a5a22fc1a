"""Span tracing for the benchmark's traced run, installed from outside the package.

The package is not instrumented.  ``installed`` replaces the module
attributes that callers resolve at call time (``shortcut_algos.decompose``,
``oracles.hop_limited_dist``, ``cli.build_shortcuts`` and so on) and the
``__init__`` of the edge containers with timing wrappers, and restores the
originals on exit.  A wrapper records a span (name, start, end, parent);
wrappers for leaf calls made hundreds of thousands of times only add to a
per-name count and time, which is also charged to the enclosing span, so a
span's self time is its duration minus everything recorded inside it.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator

PKG = "shortcutforge"


class MissingTarget(RuntimeError):
    """A wrap target is gone, usually after a rename in the package."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "leaf_s")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0  # child spans
        self.leaf_s = 0.0  # aggregated leaf calls made directly inside

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.leaf_s

    @property
    def root(self) -> "Span":
        top = self
        while top.parent is not None:
            top = top.parent
        return top


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds, hits, edges]
        self.counts: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self.stack[-1] if self.stack else None
        sp = Span(name, perf_counter(), parent)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self.stack.pop()
            self.spans.append(sp)
            if parent is not None:
                parent.child_s += sp.duration

    def parent_name(self) -> str | None:
        return self.stack[-1].name if self.stack else None

    def leaf(self, name: str) -> list:
        return self.leaves.setdefault(name, [0, 0.0, 0, 0])

    def summary(self) -> dict[str, float]:
        """Per name: .s (inclusive), .self_s, .calls, plus every counter."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name + ".s"] += sp.duration
            out[sp.name + ".self_s"] += sp.self_s
            out[sp.name + ".calls"] += 1
        for name, (calls, seconds, hits, edges) in self.leaves.items():
            out[name + ".calls"] += calls
            out[name + ".s"] += seconds
            out[name + ".self_s"] += seconds
            out[name + ".hits"] += hits
            out[name + ".edges"] += edges
        for name, value in self.counts.items():
            out[name] += value
        return out

    def self_total(self, roots: tuple[str, ...]) -> float:
        """Summed self time of every span and leaf call under the given roots."""
        return sum(sp.self_s + sp.leaf_s for sp in self.spans if sp.root.name in roots)


# ---------------------------------------------------------------------------
# Counter hooks: (tracer, args, kwargs, result) -> None, run after the call's
# span has closed, so the top of the stack is the caller's span.


def _count_decompose(t: Tracer, args, kwargs, result) -> None:
    t.counts["chain_decomp.chains"] += len(result.chains)
    t.counts["chain_decomp.antichains"] += len(result.antichains)


def _count_union_edges(t: Tracer, args, kwargs, result) -> None:
    t.counts["oracles.union_edges"] += args[0].m


def _count_nice_paths(t: Tracer, args, kwargs, result) -> None:
    t.counts["hopset_algos.nice_paths.paths"] += len(result[0])


def _regime(name: str) -> Callable:
    # The large-D route calls the small-diameter construction on its sampled
    # graph; only calls made by the dispatcher itself say which regime ran.
    def hook(t: Tracer, args, kwargs, result) -> None:
        if t.parent_name() == "shortcut_algos.build_shortcuts":
            t.counts[name + ".regime_calls"] += 1

    return hook


# (module, attribute path, span name, hook).  Every entry must resolve, or the
# traced run stops and names what is missing.
SPAN_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("", "generate", "generators.generate", None),
    ("cli", "generate", "generators.generate", None),
    ("", "subdivide", "generators.subdivide", None),
    ("cli", "subdivide", "generators.subdivide", None),
    ("shortcut_algos", "transitive_closure", "graph_core.transitive_closure", None),
    ("chain_decomp", "transitive_closure", "graph_core.transitive_closure", None),
    ("shortcut_algos", "closure_digraph", "graph_core.closure_digraph", None),
    ("shortcut_algos", "bounded_reachability", "graph_core.bounded_reachability", None),
    ("shortcut_algos", "condense", "graph_core.condense", None),
    ("shortcut_algos", "scc_star_edges", "graph_core.scc_star_edges", None),
    ("hopset_algos", "apsp", "graph_core.apsp", None),
    ("hopset_algos", "hop_limited_dist", "graph_core.hop_limited_dist", None),
    ("cli", "load_edge_list", "graph_core.load_edge_list", None),
    ("cli", "dump_edge_list", "graph_core.dump_edge_list", None),
    ("shortcut_algos", "decompose", "chain_decomp.decompose", _count_decompose),
    ("shortcut_algos", "shortcut_small_diam", "shortcut_algos.small_diam",
     _regime("shortcut_algos.small_diam")),
    ("shortcut_algos", "shortcut_large_d", "shortcut_algos.large_d",
     _regime("shortcut_algos.large_d")),
    ("cli", "folklore", "shortcut_algos.folklore", None),
    ("", "build_shortcuts", "shortcut_algos.build_shortcuts", None),
    ("cli", "build_shortcuts", "shortcut_algos.build_shortcuts", None),
    ("hopset_algos", "_extract_nice_paths", "hopset_algos.nice_paths", _count_nice_paths),
    ("hopset_algos", "partition_subpaths", "hopset_algos.partition_subpaths", None),
    ("", "hopset_small_hop", "hopset_algos.small_hop", None),
    ("hopset_algos", "hopset_small_hop", "hopset_algos.small_hop", None),
    ("hopset_algos", "hopset_large_hop", "hopset_algos.large_hop", None),
    ("", "build_hopset", "hopset_algos.build_hopset", None),
    ("cli", "build_hopset", "hopset_algos.build_hopset", None),
    ("", "verify_shortcut", "oracles.verify_shortcut", None),
    ("cli", "verify_shortcut", "oracles.verify_shortcut", None),
    ("", "verify_hopset", "oracles.verify_hopset", None),
    ("cli", "verify_hopset", "oracles.verify_hopset", None),
    ("oracles", "apsp", "oracles.apsp", None),
    ("oracles", "hop_limited_dist", "oracles.hop_limited_dist", _count_union_edges),
)

# Leaf calls counted in aggregate: (module, attribute, name, edges in a
# result).  They call no other target, so their time is all self time.
LEAF_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("shortcut_algos", "first_incoming_edge", "shortcut_algos.first_incoming_edge", None),
    ("shortcut_algos", "shortcut_path", "line_shortcut.shortcut_path",
     lambda r: len(r.edges)),
    ("hopset_algos", "geometric_ladder", "hopset_algos.geometric_ladder", len),
)

# Container constructors: (module, class, name, index of the row iterable in
# the positional arguments or None).
INIT_TARGETS: tuple[tuple[str, str, str, int | None], ...] = (
    ("graph_core", "Digraph", "graph_core.containers", None),
    ("graph_core", "WeightedDigraph", "graph_core.containers", None),
    ("shortcut_algos", "ShortcutSet", "shortcut_algos.ShortcutSet", 1),
    ("hopset_algos", "HopsetEdges", "hopset_algos.HopsetEdges", 1),
)


def _resolve(module: str, attr: str) -> tuple[object, str, object]:
    mod = importlib.import_module(f"{PKG}.{module}" if module else PKG)
    owner = mod
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


def check_targets() -> list[str]:
    """Names of wrap targets that no longer resolve."""
    missing = []
    targets = [(m, a) for m, a, _, _ in SPAN_TARGETS]
    targets += [(m, a) for m, a, _, _ in LEAF_TARGETS]
    targets += [(m, f"{c}.__init__") for m, c, _, _ in INIT_TARGETS]
    targets.append(("cli", "main"))
    for module, attr in targets:
        try:
            _resolve(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{PKG}.{module + '.' if module else ''}{attr}")
    return missing


def _span_wrapper(t: Tracer, fn: Callable, name: str, hook: Callable | None) -> Callable:
    def wrapper(*args, **kwargs):
        with t.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(t, args, kwargs, result)
        return result

    return wrapper


def _leaf_wrapper(t: Tracer, fn: Callable, name: str, size: Callable | None) -> Callable:
    acc = t.leaf(name)
    stack = t.stack

    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        seconds = perf_counter() - start
        acc[0] += 1
        acc[1] += seconds
        if stack:
            stack[-1].leaf_s += seconds
        if result is not None:
            acc[2] += 1
            if size is not None:
                acc[3] += size(result)
        return result

    return wrapper


def _init_wrapper(t: Tracer, fn: Callable, name: str, rows_at: int | None) -> Callable:
    def wrapper(self, *args, **kwargs):
        with t.span(name):
            if rows_at is None:
                fn(self, *args, **kwargs)
                t.counts[name + ".edges"] += len(self.edges)
                return
            # Materialising inside the span keeps the row generator's own work
            # where the untraced program does it: inside __init__.
            if len(args) > rows_at:
                args = (*args[:rows_at], list(args[rows_at]), *args[rows_at + 1 :])
                rows = args[rows_at]
            else:
                rows = kwargs["tagged"] = list(kwargs["tagged"])
            t.counts[name + ".rows_in"] += len(rows)
            fn(self, *args, **kwargs)
            t.counts[name + ".rows_kept"] += len(self.tagged)

    return wrapper


def _cli_wrapper(t: Tracer, fn: Callable) -> Callable:
    def wrapper(argv=None):
        sub = argv[0] if argv else "none"
        with t.span(f"cli.{sub}"):
            return fn(argv)

    return wrapper


@contextlib.contextmanager
def installed(t: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore them."""
    missing = check_targets()
    if missing:
        raise MissingTarget("wrap targets not found: " + ", ".join(missing))
    saved: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, original: object, replacement: object) -> None:
        saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    try:
        for module, attr, name, hook in SPAN_TARGETS:
            owner, last, fn = _resolve(module, attr)
            patch(owner, last, fn, _span_wrapper(t, fn, name, hook))
        for module, attr, name, size in LEAF_TARGETS:
            owner, last, fn = _resolve(module, attr)
            patch(owner, last, fn, _leaf_wrapper(t, fn, name, size))
        for module, cls, name, rows_at in INIT_TARGETS:
            owner, last, fn = _resolve(module, f"{cls}.__init__")
            patch(owner, last, fn, _init_wrapper(t, fn, name, rows_at))
        owner, last, fn = _resolve("cli", "main")
        patch(owner, last, fn, _cli_wrapper(t, fn))
        yield t
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass, by name and unit.

_LAYER_UNITS = (
    ("graph_core.transitive_closure.s", "s"),
    ("graph_core.transitive_closure.calls", "count"),
    ("graph_core.closure_digraph.s", "s"),
    ("graph_core.bounded_reachability.s", "s"),
    ("graph_core.condense.s", "s"),
    ("graph_core.apsp.s", "s"),
    ("graph_core.hop_limited_dist.s", "s"),
    ("graph_core.containers.s", "s"),
    ("graph_core.containers.edges", "count"),
    ("graph_core.load_edge_list.s", "s"),
    ("graph_core.dump_edge_list.s", "s"),
    ("chain_decomp.decompose.self_s", "s"),
    ("chain_decomp.chains", "count"),
    ("chain_decomp.antichains", "count"),
    ("line_shortcut.shortcut_path.s", "s"),
    ("line_shortcut.shortcut_path.calls", "count"),
    ("line_shortcut.shortcut_path.edges", "count"),
    ("shortcut_algos.first_incoming_edge.s", "s"),
    ("shortcut_algos.first_incoming_edge.calls", "count"),
    ("shortcut_algos.first_incoming_edge.hit_ratio", "ratio"),
    ("shortcut_algos.ShortcutSet.s", "s"),
    ("shortcut_algos.ShortcutSet.rows_in", "count"),
    ("shortcut_algos.ShortcutSet.rows_kept", "count"),
    ("shortcut_algos.build_shortcuts.self_s", "s"),
    ("shortcut_algos.small_diam.self_s", "s"),
    ("shortcut_algos.large_d.self_s", "s"),
    ("shortcut_algos.folklore.self_s", "s"),
    ("shortcut_algos.small_diam.calls", "count"),
    ("shortcut_algos.large_d.calls", "count"),
    ("hopset_algos.nice_paths.s", "s"),
    ("hopset_algos.nice_paths.paths", "count"),
    ("hopset_algos.geometric_ladder.s", "s"),
    ("hopset_algos.geometric_ladder.calls", "count"),
    ("hopset_algos.geometric_ladder.edges", "count"),
    ("hopset_algos.HopsetEdges.s", "s"),
    ("hopset_algos.HopsetEdges.rows_in", "count"),
    ("hopset_algos.HopsetEdges.rows_kept", "count"),
    ("hopset_algos.partition_subpaths.s", "s"),
    ("hopset_algos.small_hop.self_s", "s"),
    ("hopset_algos.small_hop.calls", "count"),
    ("hopset_algos.large_hop.self_s", "s"),
    ("hopset_algos.large_hop.calls", "count"),
    ("oracles.verify_shortcut.self_s", "s"),
    ("oracles.verify_hopset.self_s", "s"),
    ("oracles.apsp.s", "s"),
    ("oracles.hop_limited_dist.s", "s"),
    ("oracles.union_edges", "count"),
    ("generators.generate.s", "s"),
    ("generators.subdivide.s", "s"),
    ("cli.gen.self_s", "s"),
    ("cli.shortcut.self_s", "s"),
    ("cli.hopset.self_s", "s"),
    ("cli.verify.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.bytes_read", "bytes"),
    ("trace.untraced_solve_s", "s"),
    ("trace.traced_solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_build_verify_s", "s"),
)
PER_LAYER: dict[str, str] = dict(_LAYER_UNITS)

# Metric name -> summary key where the two differ.
_RENAMED = {
    "shortcut_algos.small_diam.calls": "shortcut_algos.small_diam.regime_calls",
    "shortcut_algos.large_d.calls": "shortcut_algos.large_d.regime_calls",
}


def layer_metrics(summary: dict[str, float], p) -> dict[str, float]:
    """Per-layer values of one traced pass ``p``; layers that did not run read 0."""
    out = {name: float(summary.get(_RENAMED.get(name, name), 0.0))
           for name in PER_LAYER if not name.startswith("trace.")}
    calls = summary.get("shortcut_algos.first_incoming_edge.calls", 0.0)
    hits = summary.get("shortcut_algos.first_incoming_edge.hits", 0.0)
    out["shortcut_algos.first_incoming_edge.hit_ratio"] = hits / calls if calls else 0.0
    out["cli.bytes_written"] = float(p.bytes_written)
    out["cli.bytes_read"] = float(p.bytes_read)
    return out
