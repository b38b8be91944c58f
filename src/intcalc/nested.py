"""Nested sequents and Fitting-style nested calculi.

A nested sequent is a tree X -> Y, [S1], ..., [Sn]; ante/succ and the
children are multisets (canonically sorted tuples), so bracket order never
matters for equality.

Rule sets:

  nint / nintqc            original Fitting rules: neg_l, lift, imp_l,
                           exists_r and forall_l consume their principal
  nint-star / nintqc-star  the variants extracted from the labelled calculi,
                           which keep a copy of the principal (and imp_r,
                           neg_r, forall_r, exists_l, the shared rules)

Text format: ``p(#a) -> p(#b), [false -> forall x. q(x,#b)]``.  The sequent
arrow is the first top-level ``->``; implications and quantified formulas
inside the antecedent list must be parenthesised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .formula import (
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Formula,
    Impl,
    Neg,
    Or,
    Param,
    cached,
    fkey,
    params_of,
    parse_formula,
    show_formula,
    substitute_param,
)
from .labelled import Rule, SequentError, check_nodes, fresh_params


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
        kids = list(self.children)
        kids[i] = self.children[i].replace_at(path[1:], new)
        return NestedSequent(self.ante, self.succ, tuple(kids))

    def holes(self) -> Iterator[tuple[int, ...]]:
        yield ()
        for i, c in enumerate(self.children):
            for sub in c.holes():
                yield (i,) + sub

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

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def __repr__(self) -> str:
        return show_nested(self)


from .formula import cache_hash as _cache_hash

_cache_hash(NestedSequent)


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
    s, rest = _parse_nested(text, 0)
    if rest != len(text):
        raise SequentError(f"trailing input in nested sequent at {rest}")
    return s


def _parse_nested(text: str, start: int) -> tuple[NestedSequent, int]:
    # scan for the top-level arrow
    i, depth = start, 0
    arrow = -1
    while i < len(text):
        c = text[i]
        if c == "(" or c == "[":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "]":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and text.startswith("->", i):
            arrow = i
            break
        i += 1
    if arrow < 0:
        raise SequentError("missing top-level '->' in nested sequent")
    ante = [parse_formula(p) for p in _split_top(text[start:arrow]) if p]
    # walk the succedent: formulas and [children]
    succ: list[Formula] = []
    children: list[NestedSequent] = []
    i = arrow + 2
    cur: list[str] = []
    depth = 0

    def flush() -> None:
        t = "".join(cur).strip()
        if t:
            succ.append(parse_formula(t))
        cur.clear()

    while i < len(text):
        c = text[i]
        if c == "]" and depth == 0:
            break
        if c == "[" and depth == 0 and not "".join(cur).strip():
            flush()
            child, j = _parse_nested(text, i + 1)
            if j >= len(text) or text[j] != "]":
                raise SequentError(f"unclosed '[' at {i}")
            children.append(child)
            i = j + 1
            continue
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "[":
            depth += 1
        if c == "," and depth == 0:
            flush()
        else:
            cur.append(c)
        i += 1
    flush()
    return NestedSequent(tuple(ante), tuple(succ), tuple(children)), i


def _split_top(t: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for c in t:
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _remove(items: tuple, gone) -> tuple:
    out = list(items)
    for g in gone:
        try:
            out.remove(g)
        except ValueError:
            raise SequentError(f"formula {g!r} not present") from None
    return tuple(out)


def edit(
    s: NestedSequent,
    drop_ante=(),
    drop_succ=(),
    add_ante=(),
    add_succ=(),
    add_children=(),
) -> NestedSequent:
    return NestedSequent(
        _remove(s.ante, drop_ante) + tuple(add_ante),
        _remove(s.succ, drop_succ) + tuple(add_succ),
        s.children + tuple(add_children),
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


N_ARITY = {
    NRule.ID: 0, NRule.ID_Q: 0,
    NRule.AND_L: 1, NRule.OR_R: 1, NRule.NEG_L: 1, NRule.NEG_R: 1,
    NRule.IMP_R: 1, NRule.LIFT: 1, NRule.FORALL_L: 1, NRule.FORALL_R: 1,
    NRule.EXISTS_L: 1, NRule.EXISTS_R: 1,
    NRule.AND_R: 2, NRule.OR_L: 2, NRule.IMP_L: 2,
}

_PROP = frozenset(
    {NRule.ID, NRule.AND_L, NRule.AND_R, NRule.OR_L, NRule.OR_R, NRule.NEG_L,
     NRule.NEG_R, NRule.IMP_L, NRule.IMP_R, NRule.LIFT}
)
_FO = _PROP | frozenset(
    {NRule.ID_Q, NRule.FORALL_L, NRule.FORALL_R, NRule.EXISTS_L, NRule.EXISTS_R}
)

NESTED_CALCULI: dict[str, frozenset[NRule]] = {
    "nint": _PROP,
    "nintqc": _FO,
    "nint-star": _PROP,
    "nintqc-star": _FO,
}


# The treelike labelled rules and the nested rules they become: the paper's
# correspondence, read rule by rule.  Labelled rules without an image (the
# structural rules, the derived rules, the world-creating forall_r) have no
# nested counterpart.
RULE_TO_NESTED = {
    Rule.ID_STAR: NRule.ID,
    Rule.ID_Q_STAR: NRule.ID_Q,
    Rule.AND_L: NRule.AND_L,
    Rule.AND_R: NRule.AND_R,
    Rule.OR_L: NRule.OR_L,
    Rule.OR_R: NRule.OR_R,
    Rule.NEG_L: NRule.NEG_L,
    Rule.NEG_R: NRule.NEG_R,
    Rule.IMP_L_STAR: NRule.IMP_L,
    Rule.IMP_R: NRule.IMP_R,
    Rule.LIFT: NRule.LIFT,
    Rule.FORALL_L_STAR: NRule.FORALL_L,
    Rule.FORALL_R_STAR: NRule.FORALL_R,
    Rule.EXISTS_L: NRule.EXISTS_L,
    Rule.EXISTS_R_STAR: NRule.EXISTS_R,
}


def _nested_rules(calc: str) -> frozenset[NRule]:
    try:
        return NESTED_CALCULI[calc]
    except KeyError:
        raise SequentError(f"unknown nested calculus {calc!r}") from None


# Fitting's nint/nintqc are the starred calculi in which these copy rules
# also consume their principal formula, from the side given.
_FITTING_CONSUMES = {
    NRule.NEG_L: "ante", NRule.IMP_L: "ante", NRule.LIFT: "ante",
    NRule.FORALL_L: "ante", NRule.EXISTS_R: "succ",
}


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
        yield self
        for p in self.premises:
            yield from p.nodes()

    def rule_counts(self) -> dict[NRule, int]:
        out: dict[NRule, int] = {}
        for n in self.nodes():
            out[n.rule] = out.get(n.rule, 0) + 1
        return out


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise SequentError(msg)


def nested_premises_for(
    calc: str, rule: NRule, conclusion: NestedSequent, hole: Sequence[int], w: NWitness
) -> tuple[NestedSequent, ...]:
    """Premises demanded by the rule at the hole; context unchanged."""
    _nested_rules(calc)  # rejects an unknown calculus
    consume = None if calc.endswith("-star") else _FITTING_CONSUMES.get(rule)
    node = conclusion.at(hole)
    f = w.formula

    def up(new_node: NestedSequent) -> NestedSequent:
        if consume is not None:
            new_node = edit(new_node, **{"drop_" + consume: [f]})
        return conclusion.replace_at(hole, new_node)

    if rule in (NRule.ID, NRule.ID_Q):
        _need(isinstance(f, Atom), "id: principal must be atomic")
        if rule is NRule.ID:
            _need(not f.args, "id: use id_q for predicates with arguments")
        _need(f in node.ante and f in node.succ,
              "id: atom must occur on both sides of the hole node")
        return ()
    if rule is NRule.AND_L:
        _need(isinstance(f, And), "and_l: principal must be a conjunction")
        _need(f in node.ante, "and_l: principal not present")
        return (up(edit(node, drop_ante=[f], add_ante=[f.left, f.right])),)
    if rule is NRule.OR_R:
        _need(isinstance(f, Or), "or_r: principal must be a disjunction")
        _need(f in node.succ, "or_r: principal not present")
        return (up(edit(node, drop_succ=[f], add_succ=[f.left, f.right])),)
    if rule is NRule.OR_L:
        _need(isinstance(f, Or), "or_l: principal must be a disjunction")
        _need(f in node.ante, "or_l: principal not present")
        return (
            up(edit(node, drop_ante=[f], add_ante=[f.left])),
            up(edit(node, drop_ante=[f], add_ante=[f.right])),
        )
    if rule is NRule.AND_R:
        _need(isinstance(f, And), "and_r: principal must be a conjunction")
        _need(f in node.succ, "and_r: principal not present")
        return (
            up(edit(node, drop_succ=[f], add_succ=[f.left])),
            up(edit(node, drop_succ=[f], add_succ=[f.right])),
        )
    if rule is NRule.NEG_R:
        _need(isinstance(f, Neg), "neg_r: principal must be a negation")
        _need(f in node.succ, "neg_r: principal not present")
        child = NestedSequent((f.body,), (), ())
        return (up(edit(node, drop_succ=[f], add_children=[child])),)
    if rule is NRule.NEG_L:
        _need(isinstance(f, Neg), "neg_l: principal must be a negation")
        _need(f in node.ante, "neg_l: principal not present")
        return (up(edit(node, add_succ=[f.body])),)
    if rule is NRule.IMP_R:
        _need(isinstance(f, Impl), "imp_r: principal must be an implication")
        _need(f in node.succ, "imp_r: principal not present")
        child = NestedSequent((f.left,), (f.right,), ())
        return (up(edit(node, drop_succ=[f], add_children=[child])),)
    if rule is NRule.IMP_L:
        _need(isinstance(f, Impl), "imp_l: principal must be an implication")
        _need(f in node.ante, "imp_l: principal not present")
        return (
            up(edit(node, add_succ=[f.left])),
            up(edit(node, add_ante=[f.right])),
        )
    if rule is NRule.LIFT:
        _need(f is not None and f in node.ante, "lift: principal not present")
        _need(w.child is not None and 0 <= w.child < len(node.children),
              "lift: invalid child index")
        kid = node.children[w.child]
        new_kid = NestedSequent(kid.ante + (f,), kid.succ, kid.children)
        kids = list(node.children)
        kids[w.child] = new_kid
        return (up(NestedSequent(node.ante, node.succ, tuple(kids))),)
    if rule is NRule.FORALL_R:
        _need(isinstance(f, Forall), "forall_r: principal must be universal")
        _need(f in node.succ, "forall_r: principal not present")
        _need(w.param is not None, "forall_r needs an eigenparameter")
        _need(w.param not in conclusion.params(),
              f"eigenvariable {w.param!r} occurs in conclusion")
        inst = substitute_param(f.body, w.param, f.var)
        return (up(edit(node, drop_succ=[f], add_succ=[inst])),)
    if rule is NRule.EXISTS_L:
        _need(isinstance(f, Exists), "exists_l: principal must be existential")
        _need(f in node.ante, "exists_l: principal not present")
        _need(w.param is not None, "exists_l needs an eigenparameter")
        _need(w.param not in conclusion.params(),
              f"eigenvariable {w.param!r} occurs in conclusion")
        inst = substitute_param(f.body, w.param, f.var)
        return (up(edit(node, drop_ante=[f], add_ante=[inst])),)
    if rule is NRule.FORALL_L:
        _need(isinstance(f, Forall), "forall_l: principal must be universal")
        _need(f in node.ante, "forall_l: principal not present")
        _need(w.param is not None, "forall_l needs an instantiating parameter")
        inst = substitute_param(f.body, w.param, f.var)
        return (up(edit(node, add_ante=[inst])),)
    if rule is NRule.EXISTS_R:
        _need(isinstance(f, Exists), "exists_r: principal must be existential")
        _need(f in node.succ, "exists_r: principal not present")
        _need(w.param is not None, "exists_r needs an instantiating parameter")
        inst = substitute_param(f.body, w.param, f.var)
        return (up(edit(node, add_succ=[inst])),)
    raise SequentError(f"nested_premises_for does not handle {rule.value}")


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
    for hole in goal.holes():
        node = goal.at(hole)
        for w in _nested_candidates(rule, goal, node):
            try:
                prem = nested_premises_for(calc, rule, goal, hole, w)
            except SequentError:
                continue
            out.append((hole, prem, w))
    return out


_N_ANTE_SHAPE = {NRule.AND_L: And, NRule.OR_L: Or, NRule.NEG_L: Neg, NRule.IMP_L: Impl,
                 NRule.EXISTS_L: Exists, NRule.FORALL_L: Forall}
_N_SUCC_SHAPE = {NRule.AND_R: And, NRule.OR_R: Or, NRule.NEG_R: Neg, NRule.IMP_R: Impl,
                 NRule.FORALL_R: Forall, NRule.EXISTS_R: Exists}


def _nested_candidates(
    rule: NRule, goal: NestedSequent, node: NestedSequent
) -> Iterator[NWitness]:
    """The witnesses worth trying for rule at the hole whose node is
    `node`; only the first-order rules read the parameters of the goal."""
    if rule in (NRule.ID, NRule.ID_Q):
        for f in dict.fromkeys(node.ante):
            if isinstance(f, Atom) and f in node.succ:
                yield NWitness(formula=f)
        return
    if rule is NRule.LIFT:
        for f in dict.fromkeys(node.ante):
            for i in range(len(node.children)):
                yield NWitness(formula=f, child=i)
        return
    if rule in _N_ANTE_SHAPE:
        shape, side = _N_ANTE_SHAPE[rule], node.ante
    else:
        shape, side = _N_SUCC_SHAPE[rule], node.succ
    fs = [f for f in dict.fromkeys(side) if isinstance(f, shape)]
    if not fs:
        return
    if rule in (NRule.FORALL_R, NRule.EXISTS_L):
        a = fresh_params({p.name for p in goal.params()})[0]
        for f in fs:
            yield NWitness(formula=f, param=a)
    elif rule in (NRule.FORALL_L, NRule.EXISTS_R):
        params = _inst_params(goal)
        for f in fs:
            for a in params:
                yield NWitness(formula=f, param=a)
    else:
        for f in fs:
            yield NWitness(formula=f)


def _inst_params(goal: NestedSequent) -> list[Param]:
    # existing parameters first, then one fresh
    have = sorted(goal.params(), key=lambda p: p.name)
    used = {p.name for p in have}
    return have + fresh_params(used)
