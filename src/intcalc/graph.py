"""Graphs of sequents, treelike detection, isomorphism, and the translation
between treelike labelled sequents and nested sequents.

The graph of a labelled sequent has the sequent's labels as vertices, one
edge per relational atom, and each vertex labelled with the formulas living
there.  Nested-sequent graphs use prefix strings ("0", "00", "01", ...) as
vertices.  A treelike labelled sequent (unique root, unique directed path to
every vertex) translates to the nested sequent with the isomorphic graph;
domain atoms are dropped in translation.

Whether a labelled sequent is treelike, and its root, are read off its
labels and relational atoms alone (`is_treelike`, `tree_root`); the
formulas at each vertex are looked at only by `graph_of_labelled`.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection
from dataclasses import dataclass

from .formula import Formula, cached, fkey
from .labelled import (
    Label,
    LabelledSequent,
    RelAtom,
    SequentError,
)
from .nested import NestedSequent, nkey

ISO_BUDGET = 12


@dataclass(frozen=True)
class SequentGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]
    labelling: dict[str, tuple[tuple[Formula, ...], tuple[Formula, ...]]]

    def __post_init__(self) -> None:
        for (a, b) in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise SequentError(f"edge ({a},{b}) endpoint is not a vertex")
        for v in self.vertices:
            if v not in self.labelling:
                raise SequentError(f"vertex {v} has no labelling entry")


def _skeleton(s: LabelledSequent) -> tuple[set[str], set[tuple[str, str]]]:
    """The vertices and edges of the graph of s."""
    return {l.name for l in s.labels()}, {(r.w.name, r.v.name) for r in s.rel}


def graph_of_labelled(s: LabelledSequent) -> SequentGraph:
    """The graph of s.  Each vertex's formulas are in canonical (`fkey`)
    order with no sort: s holds its labelled formulas sorted by label name,
    then by formula text, which is `fkey`."""
    verts, edges = _skeleton(s)
    ante: dict[str, list[Formula]] = {v: [] for v in verts}
    succ: dict[str, list[Formula]] = {v: [] for v in verts}
    for (w, f) in s.ante:
        ante[w.name].append(f)
    for (w, f) in s.succ:
        succ[w.name].append(f)
    lab = {v: (tuple(ante[v]), tuple(succ[v])) for v in verts}
    return SequentGraph(frozenset(verts), frozenset(edges), lab)


def graph_of_nested(s: NestedSequent, root_prefix: str = "0") -> SequentGraph:
    verts: set[str] = set()
    edges: set[tuple[str, str]] = set()
    lab: dict[str, tuple[tuple[Formula, ...], tuple[Formula, ...]]] = {}

    def walk(node: NestedSequent, prefix: str) -> None:
        verts.add(prefix)
        lab[prefix] = (node.ante, node.succ)
        for i, c in enumerate(node.children):
            child = f"{prefix}{i}"
            edges.add((prefix, child))
            walk(c, child)

    walk(s, root_prefix)
    return SequentGraph(frozenset(verts), frozenset(edges), lab)


@dataclass(frozen=True)
class TreelikeViolation:
    kind: str  # disconnected | cycle | backwards-branching | multiple-roots | no-root
    detail: str


def _treelike(
    vertices: Collection[str], edges: Collection[tuple[str, str]]
) -> tuple[TreelikeViolation | None, str | None]:
    """The first violation of the graph with these vertices and edges, or
    None and its root (None when it has no vertices)."""
    if not vertices:
        return None, None
    loops = [a for (a, b) in edges if a == b]
    if loops:
        return TreelikeViolation("cycle", f"self-loop at {min(loops)}"), None
    parents: dict[str, list[str]] = {}
    children: dict[str, list[str]] = {}
    for (a, b) in edges:
        parents.setdefault(b, []).append(a)
        children.setdefault(a, []).append(b)
    branched = [v for v, ps in parents.items() if len(ps) > 1]
    if branched:
        v = min(branched)
        return TreelikeViolation(
            "backwards-branching", f"{' and '.join(sorted(parents[v]))} both reach {v}"
        ), None
    roots = sorted(v for v in vertices if v not in parents)
    if not roots:
        return TreelikeViolation("cycle", "every vertex has an incoming edge"), None
    if len(roots) > 1:
        # distinguish plain disconnection from genuine multi-rootedness
        return TreelikeViolation(
            "disconnected", f"no path joins roots {', '.join(roots)}"
        ), None
    root = roots[0]
    # every other vertex has one parent: follow edges from the root
    reach = {root}
    frontier = [root]
    while frontier:
        for b in children.get(frontier.pop(), ()):
            if b not in reach:
                reach.add(b)
                frontier.append(b)
    if len(reach) < len(vertices):
        # an unreached vertex has one parent, and following parents from it
        # never reaches the root, so it sits on or below a directed cycle
        return TreelikeViolation("cycle", f"cycle through {min(set(vertices) - reach)}"), None
    return None, root


def treelike_violation(g: SequentGraph) -> TreelikeViolation | None:
    return _treelike(g.vertices, g.edges)[0]


@cached
def _shape(s: LabelledSequent) -> tuple[TreelikeViolation | None, str | None]:
    """The violation of s's graph, or None and its root.  Kept on s: the
    pipeline asks it of each output sequent in elimination's treelike walk
    and again in the nested translation."""
    return _treelike(*_skeleton(s))


def is_treelike(s: LabelledSequent) -> tuple[bool, TreelikeViolation | None]:
    """Unique root with a unique directed path to every other vertex."""
    v = _shape(s)[0]
    return (v is None), v


def tree_root(s: LabelledSequent) -> Label | None:
    """The root of a treelike sequent; None if it has no labels or is not
    treelike."""
    root = _shape(s)[1]
    return None if root is None else Label(root)


def isomorphic(g0: SequentGraph, g1: SequentGraph) -> dict[str, str] | None:
    """A bijection preserving edges and vertex labelling, or None.

    Exact search pruned by (in-degree, out-degree, labelling) signatures;
    refuses graphs beyond ISO_BUDGET vertices.
    """
    if len(g0.vertices) > ISO_BUDGET or len(g1.vertices) > ISO_BUDGET:
        raise SequentError(f"isomorphism search limited to {ISO_BUDGET} vertices")
    if len(g0.vertices) != len(g1.vertices) or len(g0.edges) != len(g1.edges):
        return None

    def sig(g: SequentGraph, v: str):
        ind = sum(1 for (_, b) in g.edges if b == v)
        outd = sum(1 for (a, _) in g.edges if a == v)
        ante, succ = g.labelling[v]
        return (ind, outd, tuple(map(fkey, ante)), tuple(map(fkey, succ)))

    sig0 = {v: sig(g0, v) for v in g0.vertices}
    sig1 = {v: sig(g1, v) for v in g1.vertices}
    if sorted(sig0.values()) != sorted(sig1.values()):
        return None
    order = sorted(g0.vertices)
    candidates = {
        v: [u for u in sorted(g1.vertices) if sig1[u] == sig0[v]] for v in order
    }

    def extend(i: int, mapping: dict[str, str], used: set[str]):
        if i == len(order):
            return dict(mapping)
        v = order[i]
        for u in candidates[v]:
            if u in used:
                continue
            ok = True
            for (a, b) in g0.edges:
                fa, fb = mapping.get(a), mapping.get(b)
                if a == v and fb is not None and (u, fb) not in g1.edges:
                    ok = False
                    break
                if b == v and fa is not None and (fa, u) not in g1.edges:
                    ok = False
                    break
            if ok:
                for (a, b) in g1.edges:
                    if a == u or b == u:
                        ra = _rev(mapping, a) if a != u else v
                        rb = _rev(mapping, b) if b != u else v
                        if ra is not None and rb is not None and (ra, rb) not in g0.edges:
                            ok = False
                            break
            if ok:
                mapping[v] = u
                used.add(u)
                res = extend(i + 1, mapping, used)
                if res is not None:
                    return res
                del mapping[v]
                used.discard(u)
        return None

    return extend(0, {}, set())


def _rev(mapping: dict[str, str], u: str) -> str | None:
    for k, v in mapping.items():
        if v == u:
            return k
    return None


def nestify(s: LabelledSequent) -> NestedSequent:
    """The translation of a treelike labelled sequent; domain atoms dropped.

    Labels that occur only in domain atoms (no formulas, no edges) are
    dropped rather than becoming empty nested nodes.
    """
    nested, _paths = nestify_with_paths(s)
    return nested


def nestify_with_paths(
    s: LabelledSequent,
) -> tuple[NestedSequent, dict[Label, tuple[int, ...]]]:
    """nestify plus the context path of each surviving label."""
    g = graph_of_labelled(s)
    ends = {v for e in g.edges for v in e}
    # no formulas and no edges: the label occurs only in domain atoms
    verts = {v for v in g.vertices if g.labelling[v] != ((), ()) or v in ends}
    if not verts:
        return NestedSequent(), {}
    # with no label dropped the graph is s's own, whose shape s may hold
    bad, root = _shape(s) if len(verts) == len(g.vertices) else _treelike(verts, g.edges)
    if bad is not None:
        full = treelike_violation(g)
        raise SequentError(f"sequent is not treelike: {(full or bad).kind}: {(full or bad).detail}")
    children: dict[str, list[str]] = {v: [] for v in verts}
    for (a, b) in sorted(g.edges):
        children[a].append(b)
    paths: dict[Label, tuple[int, ...]] = {}

    # children are stored canonically sorted, so read each child's index off
    # the node built, by identity: equal sibling subtrees are distinct
    # objects, which the stable sort keeps in the order of their labels
    built: dict[str, NestedSequent] = {}

    def build(v: str) -> NestedSequent:
        # the formulas are in canonical order already (graph_of_labelled)
        ante, succ = g.labelling[v]
        kids = sorted((build(b) for b in children[v]), key=nkey)
        built[v] = NestedSequent._presorted(ante, succ, tuple(kids))
        return built[v]

    def assign(v: str, path: tuple[int, ...]) -> None:
        paths[Label(v)] = path
        kids = built[v].children
        for b in children[v]:
            assign(b, path + (next(i for i, c in enumerate(kids) if c is built[b]),))

    nested = build(root)
    assign(root, ())
    return nested, paths


def labelify(s: NestedSequent, stem: str = "w") -> LabelledSequent:
    """Fresh labels per nesting node, one relational atom per bracket."""
    rel: list[RelAtom] = []
    ante: list[tuple[Label, Formula]] = []
    succ: list[tuple[Label, Formula]] = []
    counter = itertools.count()

    def walk(node: NestedSequent) -> Label:
        me = Label(f"{stem}{next(counter)}")
        for f in node.ante:
            ante.append((me, f))
        for f in node.succ:
            succ.append((me, f))
        for c in node.children:
            kid = walk(c)
            rel.append(RelAtom(me, kid))
        return me

    walk(s)
    return LabelledSequent(tuple(rel), (), tuple(ante), tuple(succ))


def dot_of_graph(g: SequentGraph, name: str = "sequent") -> str:
    """Graphviz export for inspection."""
    from .formula import show_formula

    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for v in sorted(g.vertices):
        ante, succ = g.labelling[v]
        a = ", ".join(show_formula(f) for f in ante)
        b = ", ".join(show_formula(f) for f in succ)
        text = f"{v}: {a} => {b}".replace('"', "'")
        lines.append(f'  "{v}" [label="{text}"];')
    for (a, b) in sorted(g.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
