"""Nested sequents and Fitting-style nested calculi.

A nested sequent is a tree X -> Y, [S1], ..., [Sn]; ante/succ and the
children are multisets (canonically sorted tuples), so bracket order never
matters for equality.  The tuples are always in canonical order: only the
public constructor sorts (parsing, the graph translation), and the edits
that build the premises of a rule keep the order.  `edit` filters what it
drops and inserts what it adds by bisection, and `replace_at` re-places only
the changed child among its siblings, each where a stable sort would put
it; no sort key is computed when the target is empty or a node has one
child.

Rule sets:

  nint / nintqc            original Fitting rules: neg_l, lift, imp_l,
                           exists_r and forall_l consume their principal
  nint-star / nintqc-star  the variants extracted from the labelled calculi,
                           which keep a copy of the principal (and imp_r,
                           neg_r, forall_r, exists_l, the shared rules)

A nested rule has no schema of its own: it is the image of a treelike
labelled rule (`RULE_TO_NESTED`) and reads that rule's row of the table in
`labelled.py` (`NESTED_ROWS`), whose pieces `nested_premises_for` places at
the hole, in a new bracket or in a child; Fitting's calculi use the same
rows with every rule consuming its principal.

nint and nintqc as written are incomplete: they do not prove the theorem
``~~(p | ~p)``.  Backwards, neg_r gives ``-> [~(p | ~p) ->]``.  The only
step there is neg_l, which consumes ``~(p | ~p)``; after or_r, the world
that neg_r then creates for ``~p`` holds ``p`` and has nothing to close
with.  Whether Fitting's published rules (NDJFL 2014) keep a copy of the
principal cannot be settled without that text, so the rows stay as they
are.  Their search is sound: `search.prove` searches them with the same
loop as every other calculus, and each proof it returns is built from
these rows and checks.

That loop commits to one copy instance per node, which loses proofs here,
where the copy rules are not invertible.  Of the 3,446 theorems among the
14,133 formulas of the graded layers 0-3, nint proves 3,440 at depth 12;
the search that backtracked over copy instances proved all 3,446.  The six
lost are ``~p -> ~p``, ``~q -> ~q``, ``~p -> p -> false``,
``~p -> p -> q``, ``~q -> q -> false`` and ``~q -> q -> p``.  In each,
after imp_r (twice, or imp_r and neg_r) the outer node holds ``~p`` and
the new child needs it.  neg_l and lift both apply to ``~p``, each with
one premise and neither closing at once, so the fair order takes neg_l,
which comes first; it consumes ``~p`` at the outer node, where ``p`` is
missing, and the child never gets it.

Text format: ``p(#a) -> p(#b), [false -> forall x. q(x,#b)]``.  The sequent
arrow is the first top-level ``->``; implications and quantified formulas
inside the antecedent list must be parenthesised.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .formula import (
    Exists,
    Forall,
    Formula,
    Impl,
    Param,
    cached,
    fkey,
    params_of,
    parse_formula,
    show_formula,
)
from .labelled import (
    CALCULI,
    EIGEN_PARAM,
    INSTANTIATES,
    RULES,
    SequentError,
    _depth,
    _insert,
    _need,
    _remove,
    _split_top,
    check_nodes,
    fresh_param,
)


@dataclass(frozen=True)
class NestedSequent:
    ante: tuple[Formula, ...] = ()
    succ: tuple[Formula, ...] = ()
    children: tuple["NestedSequent", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ante", tuple(sorted(self.ante, key=fkey)))
        object.__setattr__(self, "succ", tuple(sorted(self.succ, key=fkey)))
        object.__setattr__(
            self, "children", tuple(sorted(self.children, key=nkey))
        )

    @classmethod
    def _presorted(cls, ante, succ, children) -> "NestedSequent":
        """The sequent of three tuples already in canonical order."""
        s = object.__new__(cls)
        object.__setattr__(s, "ante", ante)
        object.__setattr__(s, "succ", succ)
        object.__setattr__(s, "children", children)
        return s

    def at(self, path: Sequence[int]) -> "NestedSequent":
        node = self
        for i in path:
            if not 0 <= i < len(node.children):
                raise SequentError(f"invalid context path {tuple(path)}")
            node = node.children[i]
        return node

    def replace_at(self, path: Sequence[int], new: "NestedSequent") -> "NestedSequent":
        if not path:
            return new
        i = path[0]
        if not 0 <= i < len(self.children):
            raise SequentError(f"invalid context path {tuple(path)}")
        kid = self.children[i].replace_at(path[1:], new)
        kids = self.children[:i] + self.children[i + 1:]
        if kids:
            # among equal keys a stable sort keeps the child at its index
            k = nkey(kid)
            i = min(max(i, bisect_left(kids, k, key=nkey)), bisect_right(kids, k, key=nkey))
        return NestedSequent._presorted(self.ante, self.succ, kids[:i] + (kid,) + kids[i:])

    def holes(self) -> Iterator[tuple[int, ...]]:
        return (hole for hole, _node in _walk(self))

    def formulas(self) -> Iterator[Formula]:
        yield from self.ante
        yield from self.succ
        for c in self.children:
            yield from c.formulas()

    @cached
    def params(self) -> frozenset[Param]:
        ps: set[Param] = set()
        for f in self.ante + self.succ:
            ps.update(params_of(f))
        for c in self.children:
            ps |= c.params()
        return frozenset(ps)

    def __repr__(self) -> str:
        return show_nested(self)


def _walk(s: NestedSequent) -> Iterator[tuple[tuple[int, ...], NestedSequent]]:
    """(hole, node) of every hole of s in preorder, walked with a stack: a
    nested generator would pass each hole up through all its ancestors."""
    stack = [((), s)]
    while stack:
        hole, node = stack.pop()
        yield hole, node
        kids = node.children
        stack.extend((hole + (i,), kids[i]) for i in range(len(kids) - 1, -1, -1))


def nkey(s: NestedSequent) -> str:
    return show_nested(s)


@cached
def show_nested(s: NestedSequent) -> str:
    def shw(f: Formula, ante: bool) -> str:
        t = show_formula(f)
        # an implication, or a quantifier whose scope runs to the end, in
        # the antecedent list would eat the sequent arrow
        if ante and isinstance(f, (Impl, Forall, Exists)):
            return f"({t})"
        return t

    left = ", ".join(shw(f, True) for f in s.ante)
    parts = [shw(f, False) for f in s.succ] + [f"[{show_nested(c)}]" for c in s.children]
    right = ", ".join(parts)
    return f"{left} -> {right}".strip()


def parse_nested(text: str) -> NestedSequent:
    return _read_nested(text, parse_formula)


def _read_nested(text: str, formula) -> NestedSequent:
    """parse_nested, reading each formula with `formula(text)`.

    The brackets are matched once, over the whole text.  Each node's own
    text is its span with each child's span cut down to `[]`; its sequent
    arrow is the first '->' there outside all parentheses, and each part
    `[]` of its succedent is the next child."""
    close: dict[int, int] = {}
    kids: dict[int, list[int]] = {-1: []}  # the open brackets in each node
    stack: list[int] = []
    for m in re.finditer(r"[\[\]]", text):
        i = m.start()
        if text[i] == "[":
            kids[stack[-1] if stack else -1].append(i)
            kids[i] = []
            stack.append(i)
        elif stack:
            close[stack.pop()] = i
        else:
            raise SequentError(f"unmatched ']' at {i} in nested sequent")
    if stack:
        raise SequentError(f"unclosed '[' at {stack[-1]} in nested sequent")

    def node(start: int, end: int, opens: list[int]) -> NestedSequent:
        own, at = [], start
        for i in opens:
            own.append(text[at:i])
            at = close[i] + 1
        own.append(text[at:end])
        pieces = "[]".join(own).split("->")
        depth = 0
        for n, piece in enumerate(pieces[:-1]):
            depth += _depth(piece)
            if not depth:
                break
        else:
            raise SequentError("missing top-level '->' in nested sequent")
        ante = tuple(formula(p) for p in _split_top("->".join(pieces[:n + 1])))
        succ: list[Formula] = []
        children: list[NestedSequent] = []
        child = iter(opens)
        for part in _split_top("->".join(pieces[n + 1:])):
            if part == "[]":
                i = next(child)
                children.append(node(i + 1, close[i], kids[i]))
            else:
                succ.append(formula(part))
        return NestedSequent(ante, tuple(succ), tuple(children))

    return node(0, len(text), kids[-1])


def edit(
    s: NestedSequent,
    drop_ante=(),
    drop_succ=(),
    add_ante=(),
    add_succ=(),
    add_children=(),
) -> NestedSequent:
    return NestedSequent._presorted(
        _insert(_remove(s.ante, drop_ante, "formula"), add_ante, fkey),
        _insert(_remove(s.succ, drop_succ, "formula"), add_succ, fkey),
        _insert(s.children, add_children, nkey),
    )


# ---------------------------------------------------------------------------
# calculi

class NRule(enum.Enum):
    # members are singletons: hash by identity in C, not by name in Python
    __hash__ = object.__hash__

    ID = "id"
    ID_Q = "id_q"
    AND_L = "and_l"
    AND_R = "and_r"
    OR_L = "or_l"
    OR_R = "or_r"
    NEG_L = "neg_l"
    NEG_R = "neg_r"
    IMP_L = "imp_l"
    IMP_R = "imp_r"
    LIFT = "lift"
    FORALL_L = "forall_l"
    FORALL_R = "forall_r"
    EXISTS_L = "exists_l"
    EXISTS_R = "exists_r"


# The treelike labelled rules and the nested rules they become: the paper's
# correspondence, read rule by rule.  A nested rule is named after its
# preimage without the star.  Labelled rules outside the treelike rule sets
# (the structural rules, the derived rules, the world-creating forall_r)
# have no nested counterpart, and each nested calculus has the images of a
# treelike rule set.
RULE_TO_NESTED = {r: NRule(r.value.removesuffix("_star"))
                  for r in RULES if r in CALCULI["intqcl-tree"]}
_PROP = frozenset(RULE_TO_NESTED[r] for r in CALCULI["g3int-tree"])
_FO = frozenset(RULE_TO_NESTED[r] for r in CALCULI["intqcl-tree"])

NESTED_CALCULI: dict[str, frozenset[NRule]] = {
    "nint": _PROP,
    "nintqc": _FO,
    "nint-star": _PROP,
    "nintqc-star": _FO,
}


def _nested_rules(calc: str) -> frozenset[NRule]:
    try:
        return NESTED_CALCULI[calc]
    except KeyError:
        raise SequentError(f"unknown nested calculus {calc!r}") from None


@dataclass(frozen=True)
class NWitness:
    formula: Formula | None = None  # principal formula
    param: Param | None = None      # eigen or instantiating parameter
    child: int | None = None        # active bracket (lift)


@dataclass(frozen=True)
class NestedDerivation:
    conclusion: NestedSequent
    rule: NRule
    hole: tuple[int, ...] = ()
    premises: tuple["NestedDerivation", ...] = ()
    witness: NWitness = field(default_factory=NWitness)

    def height(self) -> int:
        return 1 + max((p.height() for p in self.premises), default=0)

    def nodes(self) -> Iterator["NestedDerivation"]:
        """Every node, in pre-order, walked with a stack: a nested
        generator would pass each node up through all its ancestors."""
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(n.premises))

    def rule_counts(self) -> dict[NRule, int]:
        out: dict[NRule, int] = {}
        for n in self.nodes():
            out[n.rule] = out.get(n.rule, 0) + 1
        return out


# each nested rule reads the row of its treelike labelled preimage
NESTED_ROWS = {n: RULES[r] for r, n in RULE_TO_NESTED.items()}
_EIGEN_PARAM = frozenset(RULE_TO_NESTED[r] for r in EIGEN_PARAM if r in RULE_TO_NESTED)
_INSTANTIATE = frozenset(RULE_TO_NESTED[r] for r in INSTANTIATES if r in RULE_TO_NESTED)


def nested_premises_for(
    calc: str, rule: NRule, conclusion: NestedSequent, hole: Sequence[int], w: NWitness
) -> tuple[NestedSequent, ...]:
    """Premises demanded by the rule at the hole; context unchanged.

    The pieces of the rule's row go to the hole, to a new bracket at the
    hole, or to the antecedent of its child w.child (lift).  In the starred
    calculi a rule keeps its principal exactly when its row does; in
    Fitting's nint/nintqc every rule consumes it."""
    _nested_rules(calc)  # rejects an unknown calculus
    row = NESTED_ROWS[rule]
    node = conclusion.at(hole)
    f = w.formula
    _need(f is not None if row.shape is None else isinstance(f, row.shape),
          "{0.value}: principal has the wrong shape", rule)
    side = node.ante if row.side == "ante" else node.succ
    _need(f in side, "{0.value}: principal not present", rule)
    if row.pieces is None:  # id, id_q
        if rule is NRule.ID:
            _need(not f.args, "id: use id_q for predicates with arguments")
        _need(f in node.succ, "id: atom must occur on both sides of the hole node")
        return ()
    if rule is NRule.LIFT:
        _need(w.child is not None and 0 <= w.child < len(node.children),
              "lift: invalid child index")
    elif rule in _EIGEN_PARAM:
        _need(w.param is not None, "{0.value} needs an eigenparameter", rule)
        _need(w.param not in conclusion.params(),
              "eigenvariable {0!r} occurs in conclusion", w.param)
    elif rule in _INSTANTIATE:
        _need(w.param is not None, "{0.value} needs an instantiating parameter", rule)
    drop = () if row.keeps and calc.endswith("-star") else (f,)
    drop_ante, drop_succ = (drop, ()) if row.side == "ante" else ((), drop)
    out = []
    for (ante, succ, world, above) in row.pieces(f, w.param):
        # a new world holds one formula a side, so its tuples are in order
        kids = () if world is None else (NestedSequent._presorted(*world, ()),)
        new = edit(node, drop_ante, drop_succ, ante, succ, kids)
        if above:
            new = new.replace_at((w.child,), edit(new.children[w.child], add_ante=above))
        out.append(conclusion.replace_at(hole, new))
    return tuple(out)


def check_nested_inference(
    calc: str,
    rule: NRule,
    conclusion: NestedSequent,
    hole: Sequence[int],
    premises: Sequence[NestedSequent],
    witness: NWitness,
) -> tuple[bool, str]:
    try:
        if rule not in _nested_rules(calc):
            return False, f"rule {rule.value} not in calculus {calc}"
        want = nested_premises_for(calc, rule, conclusion, tuple(hole), witness)
    except SequentError as e:
        return False, str(e)
    if len(want) != len(premises):
        return False, f"{rule.value}: expected {len(want)} premises"
    for i, (a, b) in enumerate(zip(want, premises)):
        if a != b:
            return False, (
                f"{rule.value}: premise {i} mismatch: expected "
                f"{show_nested(a)!r}, got {show_nested(b)!r}"
            )
    return True, "ok"


def check_nested_derivation(
    calc: str, d: NestedDerivation
) -> tuple[bool, tuple[int, ...] | None, str]:
    """Checks every node; returns (ok, path-of-first-failure, diagnostic)."""
    return check_nodes(d, lambda n, prem: check_nested_inference(
        calc, n.rule, n.conclusion, n.hole, prem, n.witness))


def apply_nested_backward(
    calc: str, rule: NRule, goal: NestedSequent
) -> list[tuple[tuple[int, ...], tuple[NestedSequent, ...], NWitness]]:
    """All (hole, premises, witness) candidates; each re-checks."""
    if rule not in _nested_rules(calc):
        return []
    out = []
    for hole, ix in index_holes(goal):
        for w in _nested_candidates(rule, goal, ix.node, ix):
            try:
                prem = nested_premises_for(calc, rule, goal, hole, w)
            except SequentError:
                continue
            out.append((hole, prem, w))
    return out


class NodeIndex:
    """The lookup tables of one node of a nested sequent that candidate
    enumeration and the search's novelty test read, as
    `labelled.SequentIndex` holds those of a labelled sequent.  Each table
    is in first-occurrence order, so that reading it yields the same
    candidates in the same order as scanning the node.

    ante, succ: the distinct formulas (dicts used as ordered sets);
    ante_of, succ_of: the distinct formulas of each connective (keyed by
    class).
    """

    __slots__ = ("node", "ante", "succ", "ante_of", "succ_of")

    def __init__(self, node: NestedSequent):
        self.node = node
        self.ante = dict.fromkeys(node.ante)
        self.succ = dict.fromkeys(node.succ)
        self.ante_of = _by_class(self.ante)
        self.succ_of = _by_class(self.succ)


def _by_class(fs) -> dict[type, list[Formula]]:
    out: dict[type, list[Formula]] = {}
    for f in fs:
        out.setdefault(type(f), []).append(f)
    return out


def index_holes(s: NestedSequent) -> list[tuple[tuple[int, ...], NodeIndex]]:
    """(hole, index of its node) of every hole of s, in `holes()` order."""
    return [(hole, NodeIndex(node)) for hole, node in _walk(s)]


def _nested_candidates(
    rule: NRule, goal: NestedSequent, node: NestedSequent, ix: NodeIndex | None = None
) -> Iterator[NWitness]:
    """The witnesses worth trying for rule at the hole whose node is
    `node`, read off the node's index (built here when not given) and the
    rule's row; only the first-order rules read the parameters of the
    goal."""
    if ix is None:
        ix = NodeIndex(node)
    row = NESTED_ROWS[rule]
    if row.shape is None:
        fs = ix.ante if row.side == "ante" else ix.succ
    else:
        fs = (ix.ante_of if row.side == "ante" else ix.succ_of).get(row.shape, ())
    if row.pieces is None:  # id, id_q; only id_q takes atoms with arguments
        for f in fs:
            if not (rule is NRule.ID and f.args) and f in ix.succ:
                yield NWitness(formula=f)
    elif rule is NRule.LIFT:
        for f in fs:
            for i in range(len(node.children)):
                yield NWitness(formula=f, child=i)
    elif rule in _EIGEN_PARAM:
        if fs:
            a = fresh_param({p.name for p in goal.params()})
            for f in fs:
                yield NWitness(formula=f, param=a)
    elif rule in _INSTANTIATE:
        if fs:
            params = _inst_params(goal)
            for f in fs:
                for a in params:
                    yield NWitness(formula=f, param=a)
    else:
        for f in fs:
            yield NWitness(formula=f)


def _inst_params(goal: NestedSequent) -> list[Param]:
    # existing parameters first, then one fresh.  A fresh parameter names an
    # individual that no formula has introduced, which assumes a nonempty
    # domain: nintqc-star so proves (forall x. r(x)) -> exists x. r(x),
    # which the labelled calculi, needing a domain atom, do not
    have = sorted(goal.params(), key=lambda p: p.name)
    used = {p.name for p in have}
    return have + [fresh_param(used)]
