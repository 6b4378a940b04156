"""Per-layer spans recorded around calls into blockgraph's modules.

Nothing under ``src/`` is edited: each entry of ``TARGETS`` names a module
namespace and the attribute that code in that namespace looks up when it
calls into a layer (a module calls its own functions and the names it
imported through its globals, so replacing the attribute intercepts the
call).  A span records its metric, start, end and the span that caused it;
a layer's self-time is a span's duration minus that of its direct children.
If a target has disappeared, ``Tracer.installed`` raises instead of letting
the layer read zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter


def _pairs(counts, args, result):
    graph = args[0]
    counts["graph.pairs"] += graph.v * (graph.v - 1) // 2


def _found(counts, args, result):
    counts["cliques.found"] += len(result)


def _candidate(counts, args, result):
    counts["autgroup.candidates"] += 1
    counts["autgroup.generators"] += bool(result)


def _order(counts, args, result):
    counts["perms.group_order"] += result.order


def _bytes(counts, args, result):
    counts["report.structured_bytes"] += len(result.encode())


# (module, attribute, metric, count hook).  The module is the caller's
# namespace, e.g. ``blockgraph.cliques.verify_srg`` is the name
# ``census_report`` looks up.
TARGETS = (
    ("blockgraph.catalog", "builtin_design", "catalog.builtin_s", None),
    ("blockgraph.report", "builtin_generators", "catalog.builtin_s", None),
    ("blockgraph.catalog", "develop_base_blocks", "design.parse_s", None),
    ("blockgraph.catalog", "parse_design", "design.parse_s", None),
    ("blockgraph.catalog", "make_design", "design.parse_s", None),
    ("blockgraph.design", "parse_design", "design.parse_s", None),
    ("blockgraph.report", "validate_2design", "design.validate_s", None),
    # census_report's own time is its per-clique record loop
    ("blockgraph.report", "census_report", "cliques.analyse_s", None),
    ("blockgraph.cliques", "build_block_graph", "graph.build_s", None),
    ("blockgraph.cliques", "verify_srg", "graph.srg_s", _pairs),
    ("blockgraph.cliques", "delsarte_bound", "graph.srg_s", None),
    ("blockgraph.cliques", "clique_number", "cliques.omega_s", None),
    ("blockgraph.cliques", "enumerate_maximum_cliques", "cliques.enumerate_s", _found),
    ("blockgraph.cliques", "classify_clique", "cliques.analyse_s", None),
    ("blockgraph.cliques", "core_restriction", "cliques.analyse_s", None),
    ("blockgraph.cliques", "subdesign_test", "cliques.analyse_s", None),
    ("blockgraph.report", "graph_automorphism_group", "autgroup.search_s", None),
    ("blockgraph.autgroup", "default_seed_invariants", "autgroup.invariants_s", None),
    ("blockgraph.autgroup", "is_graph_automorphism", "perms.automorphism_check_s", _candidate),
    ("blockgraph.autgroup", "close_group", "perms.closure_s", _order),
    ("blockgraph.report", "close_group", "perms.closure_s", _order),
    ("blockgraph.report", "is_design_automorphism", "perms.automorphism_check_s", None),
    ("blockgraph.report", "induced_block_action", "perms.induced_action_s", None),
    ("blockgraph.report", "induced_clique_action", "perms.induced_action_s", None),
    ("blockgraph.report", "group_section", "report.group_section_s", None),
    ("blockgraph.report", "lift_to_design_automorphism", "report.lift_s", None),
    ("blockgraph.report", "render_text", "report.render_s", None),
    ("blockgraph.report", "render_structured", "report.render_s", _bytes),
    ("blockgraph.report", "check_paper_claims", "report.check_paper_s", None),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TARGETS))
COUNT_METRICS = (
    "graph.pairs", "cliques.found", "autgroup.candidates", "autgroup.generators",
    "perms.group_order", "report.structured_bytes",
)


class Tracer:
    """Spans kept in memory: [metric, start, end, parent index, request]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []

    def reset(self, request: str = "") -> None:
        self.spans, self.counts, self.request, self._stack = [], Counter(), request, []

    def span(self, metric: str, fn, *args, **kwargs):
        """Call fn inside a span; the span is closed even if fn raises."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [metric, perf_counter(), None, parent, self.request]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block; raise if one is missing."""
        originals = []
        try:
            for module_name, attr, metric, hook in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise RuntimeError(
                        f"trace target {module_name}.{attr} no longer exists; "
                        "perfbench/tracing.py must be updated"
                    )
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, metric, hook))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def _wrap(self, fn, metric, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(metric, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self-time per metric over the spans recorded since the last reset."""
        totals: Counter = Counter()
        for metric, start, end, parent, _ in self.spans:
            totals[metric] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)
