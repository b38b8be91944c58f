"""The input generators against their definitions."""

import random

from intcalc.formula import And, Impl, Neg, Or, complexity, parse_formula, show_formula

import corpora


def test_layer_sizes():
    assert corpora.layer_sizes(5) == [3, 30, 570, 13530, 359670, 10243830]
    assert sum(corpora.layer_sizes(3)) == 14133


def test_unranking_matches_the_built_layers():
    full, lazy = corpora.Graded(3), corpora.Graded(1)
    for n in range(4):
        assert len(full.layers[n]) == full.sizes[n]
        for i in range(0, full.sizes[n], 7):
            assert lazy.unrank(n, i) == full.layers[n][i]


def test_unranked_layers_have_their_connective_count():
    g = corpora.Graded(3)
    rng = random.Random(0)
    for n in (4, 5, 6):
        assert all(complexity(f) == n for f in g.sample(rng, n, 50))
    # the first formulas of a layer are the negations of the layer below
    assert g.unrank(4, 0) == Neg(g.layers[3][0])
    last = g.unrank(4, g.sizes[4] - 1)
    assert last == Impl(g.layers[3][-1], g.layers[0][-1])


def test_sampling_repeats_per_seed():
    g = corpora.Graded(3)
    a = g.sample(random.Random(7), 5, 20)
    b = g.sample(random.Random(7), 5, 20)
    assert a == b and len(set(a)) == 20


def test_axiom_instances():
    inst = corpora.axiom_instances(corpora.BASE)
    assert len(inst) == len(set(inst)) == 105
    assert parse_formula("p -> q -> p") in inst
    assert parse_formula("false -> false") in inst


def test_families():
    assert show_formula(corpora.chain_forward(2)) == "(p0 -> p1) -> (p1 -> p2) -> p0 -> p2"
    assert show_formula(corpora.chain_backward(2)) == "(p1 -> p0) -> (p2 -> p1) -> p2 -> p0"
    lem = corpora.lem_conjunction(2)
    assert isinstance(lem, And) and lem.right == Neg(Neg(Or(parse_formula("p2"), parse_formula("~p2"))))


def test_random_models_are_valid():
    from intcalc.kripke import KripkeModel

    rng = random.Random(3)
    for n in range(1, 5):
        for _ in range(20):
            parts = corpora.random_model_parts(rng, n, ["p", "q"])
            assert len(parts[0]) == n
            KripkeModel(*parts)  # validates
