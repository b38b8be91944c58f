"""The benchmark's reference semantics, pinned on hand-computed cases.

Run with: python -m pytest -q perfbench/tests
"""

import itertools
from types import SimpleNamespace

import pytest

from intcalc.formula import parse_formula
from intcalc.graph import labelify
from intcalc.kripke import KripkeModel
from intcalc.labelled import parse_sequent
from intcalc.nested import parse_nested

import corpora
import refsem


def smallest_countermodel(text):
    cm = refsem.countermodel(parse_formula(text))
    return None if cm is None else len(cm[0])


@pytest.mark.parametrize("text, worlds", [
    ("((p -> q) -> p) -> p", 2),
    ("p | ~p", 2),
    ("~p | ~~p", 3),
    ("(p -> q) | (q -> p)", 3),
    ("(~p -> q | r) -> (~p -> q) | (~p -> r)", 4),
    ("p", 1),
    ("false", 1),
])
def test_smallest_countermodels(text, worlds):
    assert smallest_countermodel(text) == worlds


def test_kreisel_putnam_holds_on_three_worlds():
    assert refsem.countermodel(corpora.KREISEL_PUTNAM, max_worlds=3) is None


@pytest.mark.parametrize("text", corpora.AXIOM_SCHEMES + ("p -> ~~p", "~~(p | ~p)", "~~~p -> ~p"))
def test_theorems_hold(text):
    assert refsem.countermodel(parse_formula(text)) is None


def _rooted_preorders(n):
    """Every partial order on 0..n-1 with least element 0, by brute force."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {(i, i) for i in range(n)} | {p for p, b in zip(pairs, bits) if b}
        if any((j, i) in rel for (i, j) in rel if i != j):
            continue
        if any((a, d) not in rel for (a, b) in rel for (c, d) in rel if b == c):
            continue
        if all((0, j) in rel for j in range(n)):
            yield rel


def _canonical(rel, n):
    return min(tuple(sorted((perm[i], perm[j]) for i, j in rel))
               for perm in itertools.permutations(range(n)))


def test_rooted_frames_are_every_rooted_poset_once():
    for n in range(1, 5):
        listed = {_canonical({(i, j) for i in range(n) for j in up[i]}, n)
                  for up in refsem.ROOTED_FRAMES if len(up) == n}
        found = {_canonical(rel, n) for rel in _rooted_preorders(n)}
        assert listed == found
    assert len(refsem.ROOTED_FRAMES) == 9


def _model(worlds, leq, val):
    ws = worlds.split()
    rel = {(w, w) for w in ws} | {tuple(e.split("<")) for e in leq.split()}
    return KripkeModel(frozenset(ws), frozenset(rel),
                       {(a, ()): frozenset(v.split()) for a, v in val.items()})


def test_holds_at_on_a_fork():
    # w0 below w1 (p) and w2 (neither)
    m = _model("w0 w1 w2", "w0<w1 w0<w2", {"p": "w1"})
    assert not refsem.holds_at(m, "w0", parse_formula("p | ~p"))
    assert not refsem.holds_at(m, "w0", parse_formula("~p | ~~p"))
    assert refsem.holds_at(m, "w2", parse_formula("~p"))
    assert refsem.holds_at(m, "w1", parse_formula("~~p"))
    assert not refsem.holds_at(m, "w0", parse_formula("~~p"))


@pytest.mark.parametrize("leq, val", [
    ({("w0", "w0"), ("w1", "w1"), ("w0", "w1")}, {("p", ()): {"w0"}}),  # not monotone
    ({("w0", "w0"), ("w0", "w1")}, {}),  # not reflexive
    ({("w0", "w0"), ("w1", "w1"), ("w0", "w1"), ("w1", "w0"), ("w2", "w2"),
      ("w1", "w2")}, {}),  # not transitive
])
def test_explicit_rejects_bad_models(leq, val):
    worlds = {w for pair in leq for w in pair}
    with pytest.raises(ValueError):
        refsem.explicit(SimpleNamespace(worlds=worlds, leq=leq, valuation=val))


def test_sequent_truth():
    m = _model("w0 w1", "w0<w1", {"p": "w1"})
    # w <= v, v: p => w: p fails with w at w0 and v at w1
    assert not refsem.labelled_holds(m, parse_sequent("w<=v, v: p => w: p"))
    assert refsem.labelled_holds(m, parse_sequent("w<=v, w: p => v: p"))
    assert refsem.labelled_holds(m, parse_sequent(" => w: p -> p"))
    assert not refsem.labelled_holds(m, parse_sequent(" => w: p | ~p"))
    nested = parse_nested("-> p, [p -> q]")
    assert not refsem.nested_holds(m, nested)
    assert refsem.nested_holds(m, parse_nested("p -> [ -> p]"))
    # a nested sequent means what its labelled image means
    for text in ("-> p, [p -> q]", "p -> [ -> p]", "-> [p -> ], [ -> p]"):
        s = parse_nested(text)
        assert refsem.nested_holds(m, s) == refsem.labelled_holds(m, labelify(s))
