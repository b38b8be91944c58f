import pytest
from hypothesis import example, given, settings, strategies as st

from intcalc.formula import Atom, Param, fkey
from intcalc.graph import (
    SequentGraph,
    TreelikeViolation,
    dot_of_graph,
    graph_of_labelled,
    graph_of_nested,
    is_treelike,
    isomorphic,
    labelify,
    nestify,
    nestify_with_paths,
    tree_root,
    treelike_violation,
)
from intcalc.kripke import enumerate_models, labelled_sequent_holds, nested_sequent_holds
from intcalc.labelled import (
    DomAtom,
    Label,
    LabelledSequent,
    RelAtom,
    SequentError,
    parse_sequent,
)
from intcalc.nested import NestedSequent, parse_nested


# the worked example pair: a sequent with a self-loop and an undirected
# cycle, and its treelike variant
LOOPY = parse_sequent(
    "w0<=w0, w0<=w1, w1<=w2, w0<=w2, w0<=w3,"
    "w0: g0, w1: g1, w2: g2, w3: g3 => w0: d0, w1: d1, w2: d2, w3: d3"
)
TREE = parse_sequent(
    "w0<=w1, w1<=w2, w0<=w3,"
    "w0: g0, w1: g1, w2: g2, w3: g3 => w0: d0, w1: d1, w2: d2, w3: d3"
)
SIGMA = parse_nested("g0 -> d0, [g1 -> d1, [g2 -> d2]], [g3 -> d3]")


def test_graph_of_labelled_loopy():
    g = graph_of_labelled(LOOPY)
    assert ("w0", "w0") in g.edges
    # undirected cycle w0, w1, w2
    assert {("w0", "w1"), ("w1", "w2"), ("w0", "w2")} <= g.edges
    assert g.labelling["w1"] == ((Atom("g1"),), (Atom("d1"),))


def test_graph_of_single_labelled_formula():
    g = graph_of_labelled(parse_sequent(" => w: p"))
    assert g.vertices == frozenset({"w"})
    assert not g.edges
    assert g.labelling["w"] == ((), (Atom("p"),))


def test_graph_of_nested_prefixes():
    g = graph_of_nested(parse_nested("p -> q"))
    assert g.vertices == frozenset({"0"})
    g2 = graph_of_nested(SIGMA)
    assert g2.vertices == frozenset({"0", "00", "000", "01"})
    assert ("0", "00") in g2.edges and ("00", "000") in g2.edges


def test_graph_of_nested_edge():
    g = graph_of_nested(parse_nested("p -> q, [r -> s]"))
    assert g.edges == frozenset({("0", "00")})


def test_treelike_detection():
    ok, viol = is_treelike(LOOPY)
    assert not ok and viol.kind == "cycle" and "w0" in viol.detail
    ok2, viol2 = is_treelike(TREE)
    assert ok2 and viol2 is None
    ok3, viol3 = is_treelike(parse_sequent("w<=v, u<=v => "))
    assert not ok3 and viol3.kind == "backwards-branching"
    ok4, viol4 = is_treelike(parse_sequent("w<=v, u<=z => "))
    assert not ok4 and viol4.kind == "disconnected"


def test_treelike_directed_cycle():
    ok, viol = is_treelike(parse_sequent("w<=v, v<=w => "))
    assert not ok and viol.kind in ("cycle", "backwards-branching")


@pytest.mark.parametrize("text, kind, detail, root", [
    ("w<=v, v<=v, w: p => v: q", "cycle", "self-loop at v", None),
    ("w<=v, v<=w => ", "cycle", "every vertex has an incoming edge", None),
    ("r<=x, w<=v, v<=w => x: p", "cycle", "cycle through v", None),
    ("w<=v, u<=v => ", "backwards-branching", "u and w both reach v", None),
    ("w<=v, u<=z => ", "disconnected", "no path joins roots u, w", None),
    ("#a in D(u), w<=v => w: p", "disconnected", "no path joins roots u, w", None),
    (" => ", None, None, None),
    (" => w: p", None, None, "w"),
    ("w<=v, v<=u, #a in D(u) => v: p", None, None, "w"),
])
def test_treelike_verdicts_are_pinned(text, kind, detail, root):
    s = parse_sequent(text)
    viol = None if kind is None else TreelikeViolation(kind, detail)
    assert is_treelike(s) == (viol is None, viol)
    assert tree_root(s) == (None if root is None else Label(root))


_NAMES = ["w", "v", "u", "x"]
_LABELS = st.sampled_from([Label(n) for n in _NAMES])


@st.composite
def _skeletons(draw):
    """Sequents whose relational atoms make self-loops, directed cycles and
    backwards branching as well as trees, and whose domain atoms can hold
    the only occurrence of a label."""
    occs = st.lists(st.tuples(_LABELS, st.sampled_from([Atom("p"), Atom("q")])), max_size=3)
    return LabelledSequent(
        tuple(draw(st.lists(st.builds(RelAtom, _LABELS, _LABELS), max_size=5))),
        tuple(draw(st.lists(st.builds(DomAtom, st.just(Param("a")), _LABELS), max_size=2))),
        tuple(draw(occs)),
        tuple(draw(occs)),
    )


def _is_tree(vertices, edges):
    """One vertex without a parent, every other with one, and no vertex
    met twice on the way up from any vertex."""
    parent = {}
    for (a, b) in edges:
        if b in parent:
            return False
        parent[b] = a
    if len(set(vertices) - set(parent)) != 1:
        return not vertices
    for v in vertices:
        seen = set()
        while v in parent:
            if v in seen:
                return False
            seen.add(v)
            v = parent[v]
    return True


@given(_skeletons())
@example(LabelledSequent())
@settings(max_examples=400, deadline=None)
def test_treelike_from_labels_agrees_with_the_graph(s):
    g = graph_of_labelled(s)
    viol = treelike_violation(g)
    assert is_treelike(s) == (viol is None, viol)
    assert (viol is None) == _is_tree(g.vertices, g.edges)
    roots = g.vertices - {b for (_, b) in g.edges}
    expected = Label(min(roots)) if viol is None and roots else None
    assert tree_root(s) == expected


def test_isomorphic_worked_example():
    f = isomorphic(graph_of_labelled(TREE), graph_of_nested(SIGMA))
    assert f is not None
    assert f["w0"] == "0" and f["w2"] == "000"


def test_isomorphic_identity_and_negative():
    g = graph_of_labelled(TREE)
    assert isomorphic(g, g) is not None
    two_path = graph_of_labelled(parse_sequent("w<=v => "))
    isolated = SequentGraph(
        frozenset({"a", "b"}), frozenset(), {"a": ((), ()), "b": ((), ())}
    )
    assert isomorphic(two_path, isolated) is None


def test_isomorphic_is_equivalence_on_corpus():
    seqs = [
        TREE,
        parse_sequent("a<=b, b<=c, a<=d, a: g0, b: g1, c: g2, d: g3 "
                      "=> a: d0, b: d1, c: d2, d: d3"),
        parse_sequent("w<=v => w: p"),
    ]
    graphs = [graph_of_labelled(s) for s in seqs]
    # reflexive
    for g in graphs:
        assert isomorphic(g, g) is not None
    # symmetric with inverse bijection
    f = isomorphic(graphs[0], graphs[1])
    assert f is not None
    back = isomorphic(graphs[1], graphs[0])
    assert back is not None
    assert {v: k for k, v in f.items()} == {k: back[k] for k in back}
    # transitive via composition: g0 ~ g1 ~ g0 gives identity-compatible map
    comp = {k: back[f[k]] for k in f}
    assert set(comp) == set(graphs[0].vertices)


def test_isomorphic_budget():
    big = SequentGraph(
        frozenset(f"x{i}" for i in range(13)), frozenset(),
        {f"x{i}": ((), ()) for i in range(13)},
    )
    with pytest.raises(SequentError, match="limited"):
        isomorphic(big, big)


def test_nestify_worked_example():
    assert nestify(TREE) == SIGMA


def test_nestify_single():
    assert nestify(parse_sequent(" => w: p")) == parse_nested(" -> p")


def test_nestify_drops_domain_atoms():
    s = parse_sequent("w<=v, a in D(w), w: p(#a) => v: p(#a)")
    got = nestify(s)
    assert got == parse_nested("p(#a) -> , [ -> p(#a)]")
    # verified through the graphs: nested graph isomorphic to the
    # labelled one on the formula content
    gl = graph_of_labelled(s)
    gn = graph_of_nested(got)
    assert isomorphic(gl, gn) is not None


def test_nestify_rejects_non_treelike():
    with pytest.raises(SequentError, match="not treelike"):
        nestify(LOOPY)


def test_nestify_paths_with_equal_sibling_subtrees():
    # u and v hold equal subtrees, which keep the order of their labels; z
    # sorts first among w's children although its label sorts last
    s = parse_sequent("w<=u, w<=v, w<=z, u<=y, v<=x, u: s, v: s, x: q, y: q, z: p => ")
    nested, paths = nestify_with_paths(s)
    assert nested == parse_nested(" -> [p -> ], [s -> [q -> ]], [s -> [q -> ]]")
    assert paths == {Label("w"): (), Label("z"): (0,), Label("u"): (1,), Label("y"): (1, 0),
                     Label("v"): (2,), Label("x"): (2, 0)}


def test_labelify_examples():
    got = labelify(parse_nested(" -> p"))
    assert got == parse_sequent(" => w0: p")
    s = labelify(parse_nested("p -> q, [r -> s]"))
    assert len(s.rel) == 1 and len(s.ante) == 2


def test_roundtrips():
    sigmas = [
        SIGMA,
        parse_nested(" -> p -> q, [p -> q], [ -> r, [s -> ]]"),
        parse_nested(" -> "),
    ]
    for sig in sigmas:
        assert nestify(labelify(sig)) == sig
    trees = [TREE, parse_sequent("w<=v, w: p => v: q")]
    for t in trees:
        back = labelify(nestify(t))
        assert isomorphic(graph_of_labelled(back), graph_of_labelled(t)) is not None


def test_labelify_of_sigma_matches_tree_shape():
    lab = labelify(SIGMA)
    assert isomorphic(graph_of_labelled(lab), graph_of_labelled(TREE)) is not None


def test_translation_preserves_semantics():
    seqs = [
        parse_sequent("w<=v, w: p => v: p"),
        parse_sequent("w<=v, w: p -> q => v: q, w: p"),
        parse_sequent(" => w: p | q"),
    ]
    for m in enumerate_models(2, ["p", "q"]):
        for s in seqs:
            assert labelled_sequent_holds(m, s) == nested_sequent_holds(m, nestify(s))


def test_root_label():
    assert tree_root(TREE) == Label("w0")
    assert tree_root(LOOPY) is None


def test_dot_export():
    text = dot_of_graph(graph_of_labelled(TREE))
    assert text.startswith("digraph") and '"w0" -> "w1"' in text
