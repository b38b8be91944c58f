"""The traced run: spans around the calls into each layer's public
functions, recorded by wrapping the module attributes through which their
callers reach them.

A span records its duration and the part of it covered by child spans, so
self time is the difference.  A function that re-enters itself (directly
or through other functions) is counted at its outermost entry only.
Counts are made where the work happens, by hooks that see a span's
arguments and result; a hook's own time is charged to no span.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (span name, defining module, function); every intcalc module attribute
# that holds the function is patched
TARGETS = (
    ("formula.parse_formula", "intcalc.formula", "parse_formula"),
    ("kripke.rooted_countermodel", "intcalc.kripke", "rooted_countermodel"),
    ("kripke.satisfies", "intcalc.kripke", "satisfies"),
    ("kripke.satisfies_reference", "intcalc.kripke", "satisfies_reference"),
    ("kripke.labelled_sequent_holds", "intcalc.kripke", "labelled_sequent_holds"),
    ("kripke.nested_sequent_holds", "intcalc.kripke", "nested_sequent_holds"),
    ("kripke.enumerate_models", "intcalc.kripke", "enumerate_models"),
    ("search.prove", "intcalc.search", "prove"),
    ("labelled.premises_for", "intcalc.labelled", "premises_for"),
    ("labelled.check_inference", "intcalc.labelled", "check_inference"),
    ("labelled.check_derivation", "intcalc.labelled", "check_derivation"),
    ("nested.nested_premises_for", "intcalc.nested", "nested_premises_for"),
    ("nested.check_nested_derivation", "intcalc.nested", "check_nested_derivation"),
    ("graph.is_treelike", "intcalc.graph", "is_treelike"),
    ("graph.nestify_with_paths", "intcalc.graph", "nestify_with_paths"),
    ("transform.eliminate_structural", "intcalc.transform", "eliminate_structural"),
    ("transform.proof_to_nested", "intcalc.transform", "proof_to_nested"),
    ("proofio.load_proof", "intcalc.proofio", "load_proof"),
    ("proofio.dump_proof", "intcalc.proofio", "dump_proof"),
)

GENERATORS = {"kripke.enumerate_models"}


def _nodes(d) -> int:
    return sum(1 for _ in d.nodes())


def _on_prove(counts, args, kwargs, out, dt):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    key = f"search.{cfg.calculus}.s"
    counts[key] = counts.get(key, 0.0) + dt
    if out is None:
        counts["search.prove.none"] = counts.get("search.prove.none", 0) + 1
    else:
        counts["search.proof_nodes"] = counts.get("search.proof_nodes", 0) + _nodes(out)


def _on_eliminate(counts, args, kwargs, out, dt):
    d = args[0] if args else kwargs["d"]
    for key, n in (("transform.nodes_in", _nodes(d)), ("transform.nodes_out", _nodes(out[0])),
                   ("transform.height_in", d.height()), ("transform.height_out", out[0].height())):
        counts[key] = counts.get(key, 0) + n


def _on_proof_text(counts, args, kwargs, out, dt):
    text = out if isinstance(out, str) else (args[0] if args else kwargs["text"])
    counts["proofio.bytes"] = counts.get("proofio.bytes", 0) + len(text.encode())


HOOKS = {
    "search.prove": _on_prove,
    "transform.eliminate_structural": _on_eliminate,
    "proofio.load_proof": _on_proof_text,
    "proofio.dump_proof": _on_proof_text,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # span -> [calls, s, self_s, items]
        self.counts: dict = {}  # hook counts by name; (parent, child) span pairs
        self._stack: list[list] = []  # per open span: [time covered by children, name]
        self._open: set[str] = set()
        self._patched: list = []
        self.paused = False

    def take(self) -> tuple[dict, dict]:
        """The figures so far, and start again from zero."""
        out = self.stats, self.counts
        self.stats, self.counts = {}, {}
        return out

    def _record(self, name, dt, covered, calls=1, items=0):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += calls
        st[1] += dt
        st[2] += dt - covered
        st[3] += items
        if self._stack:
            self._stack[-1][0] += dt

    def _span(self, name, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            if self.paused or name in self._open:
                return fn(*args, **kwargs)
            self._open.add(name)
            if self._stack:
                edge = (self._stack[-1][1], name)
                self.counts[edge] = self.counts.get(edge, 0) + 1
            self._stack.append([0.0, name])
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered = self._stack.pop()[0]
                self._open.discard(name)
                self._record(name, dt, covered)
            if hook is not None:
                h0 = perf_counter()
                hook(self.counts, args, kwargs, out, dt)
                if self._stack:
                    self._stack[-1][0] += perf_counter() - h0
            return out

        return traced

    def _generator_span(self, name, fn):
        """A generator function: one call, each step timed, items counted."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if self.paused:
                yield from it
                return
            self._record(name, 0.0, 0.0)
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._record(name, perf_counter() - t0, 0.0, calls=0)
                    return
                self._record(name, perf_counter() - t0, 0.0, calls=0, items=1)
                yield item

        return traced

    def install(self) -> None:
        homes = {home: importlib.import_module(home) for _, home, _ in TARGETS}
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "intcalc" or k.startswith("intcalc.")) and m is not None]
        for name, home, attr in TARGETS:
            fn = getattr(homes[home], attr)
            wrapper = (self._generator_span if name in GENERATORS else self._span)(name, fn)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def stat(stats, span, field):
    st = stats.get(span)
    if st is None:
        return 0
    return st[("calls", "s", "self_s", "items").index(field)]


# Fallbacks: satisfies_reference entered directly from satisfies (decide_prop
# also calls it, to re-check countermodels).
FALLBACK = ("kripke.satisfies", "kripke.satisfies_reference")

# (metric, unit, better).  "<span>.<calls|s|self_s>" are span figures of
# the measured pass; kripke.enumerate_models.* are from set-up, where the
# oracle enumerates its models; the rest are counts made by the hooks.
PER_LAYER = (
    ("kripke.rooted_countermodel.calls", "count", "lower"),
    ("kripke.rooted_countermodel.s", "s", "lower"),
    ("search.prove.calls", "count", "lower"),
    ("search.prove.s", "s", "lower"),
    ("search.prove.none", "count", "lower"),
    ("search.g3int.s", "s", "lower"),
    ("search.nint-star.s", "s", "lower"),
    ("labelled.premises_for.calls", "count", "lower"),
    ("nested.nested_premises_for.calls", "count", "lower"),
    ("search.proof_nodes", "count", "lower"),
    ("nested.check_nested_derivation.calls", "count", "lower"),
    ("nested.check_nested_derivation.s", "s", "lower"),
    ("labelled.check_derivation.calls", "count", "lower"),
    ("labelled.check_derivation.s", "s", "lower"),
    ("labelled.check_inference.calls", "count", "lower"),
    ("transform.eliminate_structural.calls", "count", "lower"),
    ("transform.eliminate_structural.s", "s", "lower"),
    ("transform.eliminate_structural.self_s", "s", "lower"),
    ("transform.proof_to_nested.calls", "count", "lower"),
    ("transform.proof_to_nested.s", "s", "lower"),
    ("transform.proof_to_nested.self_s", "s", "lower"),
    ("transform.nodes_in", "count", "lower"),
    ("transform.nodes_out", "count", "lower"),
    ("transform.height_in", "count", "lower"),
    ("transform.height_out", "count", "lower"),
    ("graph.nestify_with_paths.calls", "count", "lower"),
    ("graph.nestify_with_paths.s", "s", "lower"),
    ("graph.is_treelike.calls", "count", "lower"),
    ("graph.is_treelike.s", "s", "lower"),
    ("proofio.load_proof.s", "s", "lower"),
    ("proofio.dump_proof.s", "s", "lower"),
    ("proofio.bytes", "bytes", "lower"),
    ("formula.parse_formula.calls", "count", "lower"),
    ("formula.parse_formula.s", "s", "lower"),
    ("kripke.satisfies.calls", "count", "lower"),
    ("kripke.satisfies.s", "s", "lower"),
    ("kripke.satisfies_reference.calls", "count", "lower"),
    ("kripke.lookup_ratio", "ratio", "higher"),
    ("kripke.labelled_sequent_holds.calls", "count", "lower"),
    ("kripke.labelled_sequent_holds.s", "s", "lower"),
    ("kripke.nested_sequent_holds.calls", "count", "lower"),
    ("kripke.nested_sequent_holds.s", "s", "lower"),
    ("kripke.enumerate_models.models", "count", "lower"),
    ("kripke.enumerate_models.s", "s", "lower"),
)

_SPANS = {name for name, _, _ in TARGETS}


def _value(metric, stats, counts, setup_stats):
    if metric == "kripke.satisfies_reference.calls":
        return counts.get(FALLBACK, 0)
    if metric == "kripke.lookup_ratio":
        calls = stat(stats, "kripke.satisfies", "calls")
        return (calls - counts.get(FALLBACK, 0)) / calls if calls else 0.0
    span, _, field = metric.rpartition(".")
    if span == "kripke.enumerate_models":
        return stat(setup_stats, span, "items" if field == "models" else field)
    if span in _SPANS and field in ("calls", "s", "self_s"):
        return stat(stats, span, field)
    return counts.get(metric, 0)


def per_layer(stats, counts, setup_stats) -> dict:
    return {name: {"value": _value(name, stats, counts, setup_stats), "unit": unit}
            for name, unit, _better in PER_LAYER}
