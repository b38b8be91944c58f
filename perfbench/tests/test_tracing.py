"""The traced run's spans: outermost entries only, self time, generators."""

import intcalc.kripke as kripke
import intcalc.search as search
from intcalc.formula import parse_formula
from intcalc.nested import NestedSequent
from intcalc.search import SearchConfig

import tracing


def test_spans_count_outermost_calls_and_restore():
    original = kripke.satisfies_reference
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kripke.satisfies_reference is not original
        models = list(kripke.enumerate_models(2, ["p"]))
        f = parse_formula("(p -> p) -> p | ~p")
        for m in models:
            kripke.satisfies_reference(m, "w0", f)
        search.decide_prop(parse_formula("p -> p"), 2, SearchConfig("nint-star", 4))
        search.prove(NestedSequent(succ=(parse_formula("p | ~p"),)), SearchConfig("nint-star", 4))
    finally:
        tracer.uninstall()
    assert kripke.satisfies_reference is original
    stats, counts = tracer.take()
    # recursion inside satisfies_reference is not counted again, and the
    # direct calls are no fallbacks from satisfies
    assert tracing.stat(stats, "kripke.satisfies_reference", "calls") == len(models)
    assert counts.get(tracing.FALLBACK, 0) == 0
    assert tracing.stat(stats, "kripke.enumerate_models", "calls") == 1
    assert tracing.stat(stats, "kripke.enumerate_models", "items") == len(models)
    # decide_prop reaches prove and rooted_countermodel through search's names
    assert tracing.stat(stats, "kripke.rooted_countermodel", "calls") == 1
    assert tracing.stat(stats, "search.prove", "calls") >= 2
    assert counts["search.prove.none"] == 1
    assert counts["search.proof_nodes"] > 0
    prove = stats["search.prove"]
    assert 0 <= prove[2] <= prove[1]
    metrics = tracing.per_layer(stats, counts, stats)
    assert {m for m, *_ in tracing.PER_LAYER} == set(metrics)
