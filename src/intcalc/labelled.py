"""Labelled sequents and the labelled calculi for intuitionistic logics.

Sequents are multisets of relational atoms (w <= v), domain atoms
(a in D(w)) and labelled formulae (w : A), encoded as canonically sorted
tuples so multiset equality is structural equality.

Rule sets:

  g3int      id, bot_l, and_l, and_r, or_l, or_r, imp_l, imp_r, ref, tra
  g3intqc    g3int + id_q, forall_l, forall_r, exists_l, exists_r, nd, cd
  g3int-ext  g3int + id_star, neg_l, neg_r, imp_l_star, lift
  intqcl     g3intqc + id_q_star, neg_l, neg_r, imp_l_star, forall_l_star,
             forall_r_star, exists_r_star, lift
  g3int-tree   g3int-ext minus {id, bot_l, imp_l, ref, tra}
  intqcl-tree  intqcl minus {id, id_q, bot_l, imp_l, forall_l, forall_r,
               exists_r, ref, tra, nd, cd}

The admissible-rule tags (lsub, psub, wk, ctr_*, cut) are supported by the
checker only; proof search and the transformation engine never emit them.

Text format: ``w<=v, a in D(w), w: p(#a) => v: p(#a)``.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

from .formula import (
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Impl,
    InternedValue,
    Neg,
    Or,
    Param,
    Var,
    cache_hash,
    cached,
    params_of,
    parse_formula,
    show_formula,
    substitute_param,
)


class SequentError(ValueError):
    """Raised for malformed sequent text or ill-formed rule applications."""


@dataclass(frozen=True, eq=False, slots=True)
class Label(InternedValue):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, slots=True)
class RelAtom(InternedValue):
    w: Label
    v: Label
    # the canonical sort key, computed once when the atom is interned
    key: tuple[str, str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.w.name, self.v.name))

    def __repr__(self) -> str:
        return f"{self.w}<={self.v}"


@dataclass(frozen=True, eq=False, slots=True)
class DomAtom(InternedValue):
    a: Param
    w: Label
    key: tuple[str, str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.a.name, self.w.name))

    def __repr__(self) -> str:
        return f"{self.a.name} in D({self.w})"


LabelledFormula = tuple[Label, Formula]

_atom_key = operator.attrgetter("key")
_TEXT = show_formula.slot


def _lf_key(lf: LabelledFormula):
    # label name, then the formula's text, read from its cache on the formula
    f = lf[1]
    return (lf[0].name, f.__dict__.get(_TEXT) or show_formula(f))


@dataclass(frozen=True)
class LabelledSequent:
    rel: tuple[RelAtom, ...] = ()
    dom: tuple[DomAtom, ...] = ()
    ante: tuple[LabelledFormula, ...] = ()
    succ: tuple[LabelledFormula, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rel", tuple(sorted(self.rel, key=_atom_key)))
        object.__setattr__(self, "dom", tuple(sorted(self.dom, key=_atom_key)))
        object.__setattr__(self, "ante", tuple(sorted(self.ante, key=_lf_key)))
        object.__setattr__(self, "succ", tuple(sorted(self.succ, key=_lf_key)))

    # -- multiset edits (each returns a new sequent) --
    def add(self, rel=(), dom=(), ante=(), succ=()) -> "LabelledSequent":
        return LabelledSequent(
            self.rel + tuple(rel),
            self.dom + tuple(dom),
            self.ante + tuple(ante),
            self.succ + tuple(succ),
        )

    def _remove(self, items, gone, what):
        out = list(items)
        for g in gone:
            try:
                out.remove(g)
            except ValueError:
                raise SequentError(f"{what} {g!r} not present") from None
        return tuple(out)

    def remove(self, rel=(), dom=(), ante=(), succ=()) -> "LabelledSequent":
        return LabelledSequent(
            self._remove(self.rel, rel, "relational atom"),
            self._remove(self.dom, dom, "domain atom"),
            self._remove(self.ante, ante, "antecedent formula"),
            self._remove(self.succ, succ, "succedent formula"),
        )

    def count_rel(self, r: RelAtom) -> int:
        return self.rel.count(r)

    def count_dom(self, d: DomAtom) -> int:
        return self.dom.count(d)

    @cached
    def labels(self) -> frozenset[Label]:
        ls = {r.w for r in self.rel} | {r.v for r in self.rel}
        ls |= {d.w for d in self.dom}
        ls |= {w for (w, _) in self.ante} | {w for (w, _) in self.succ}
        return frozenset(ls)

    @cached
    def params(self) -> frozenset[Param]:
        ps = {d.a for d in self.dom}
        for (_, f) in self.ante + self.succ:
            ps.update(params_of(f))
        return frozenset(ps)

    def atom_names(self) -> frozenset[str]:
        from .formula import atoms_of

        return frozenset().union(*(atoms_of(f) for (_, f) in self.ante + self.succ))

    def is_subset_of(self, other: "LabelledSequent") -> bool:
        def sub(xs, ys):
            pool = list(ys)
            for x in xs:
                if x in pool:
                    pool.remove(x)
                else:
                    return False
            return True

        return (
            sub(self.rel, other.rel)
            and sub(self.dom, other.dom)
            and sub(self.ante, other.ante)
            and sub(self.succ, other.succ)
        )

    def __repr__(self) -> str:
        return show_sequent(self)


cache_hash(LabelledSequent)


def show_sequent(s: LabelledSequent) -> str:
    left = [repr(r) for r in s.rel] + [repr(d) for d in s.dom]
    left += [f"{w}: {show_formula(f)}" for (w, f) in s.ante]
    right = [f"{w}: {show_formula(f)}" for (w, f) in s.succ]
    return f"{', '.join(left)} => {', '.join(right)}".strip()


def parse_sequent(text: str) -> LabelledSequent:
    if "=>" not in text:
        raise SequentError("missing '=>' in labelled sequent")
    left, right = text.split("=>", 1)
    rel: list[RelAtom] = []
    dom: list[DomAtom] = []
    ante: list[LabelledFormula] = []
    succ: list[LabelledFormula] = []

    def split_top(t: str) -> list[str]:
        parts, depth, cur = [], 0, []
        for c in t:
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            if c == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(c)
        if cur and "".join(cur).strip():
            parts.append("".join(cur))
        return [p.strip() for p in parts if p.strip()]

    for part in split_top(left):
        if "<=" in part:
            a, b = (x.strip() for x in part.split("<=", 1))
            rel.append(RelAtom(Label(a), Label(b)))
        elif " in " in part:
            a, d = part.split(" in ", 1)
            d = d.strip()
            if not (d.startswith("D(") and d.endswith(")")):
                raise SequentError(f"malformed domain atom {part!r}")
            name = a.strip()
            if name.startswith("#"):
                name = name[1:]
            dom.append(DomAtom(Param(name), Label(d[2:-1].strip())))
        elif ":" in part:
            w, f = part.split(":", 1)
            ante.append((Label(w.strip()), parse_formula(f)))
        else:
            raise SequentError(f"cannot read sequent part {part!r}")
    for part in split_top(right):
        if ":" not in part:
            raise SequentError(f"cannot read sequent part {part!r}")
        w, f = part.split(":", 1)
        succ.append((Label(w.strip()), parse_formula(f)))
    return LabelledSequent(tuple(rel), tuple(dom), tuple(ante), tuple(succ))


def substitute_sequent(s: LabelledSequent, kind: str, new, old) -> LabelledSequent:
    """[new/old] on labels (kind='label') or parameters (kind='param')."""
    if kind == "label":
        def ml(l: Label) -> Label:
            return new if l == old else l

        return LabelledSequent(
            tuple(RelAtom(ml(r.w), ml(r.v)) for r in s.rel),
            tuple(DomAtom(d.a, ml(d.w)) for d in s.dom),
            tuple((ml(w), f) for (w, f) in s.ante),
            tuple((ml(w), f) for (w, f) in s.succ),
        )
    if kind == "param":
        from .formula import rename_param

        return LabelledSequent(
            s.rel,
            tuple(DomAtom(new if d.a == old else d.a, d.w) for d in s.dom),
            tuple((w, rename_param(f, new, old)) for (w, f) in s.ante),
            tuple((w, rename_param(f, new, old)) for (w, f) in s.succ),
        )
    raise SequentError(f"unknown substitution kind {kind!r}")


def path_exists(rel: Sequence[RelAtom], start: Label, goal: Label) -> bool:
    """Undirected reachability through relational atoms; start == goal counts."""
    if start == goal:
        return True
    adj: dict[Label, set[Label]] = {}
    for r in rel:
        adj.setdefault(r.w, set()).add(r.v)
        adj.setdefault(r.v, set()).add(r.w)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if y == goal:
                    return True
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return False


def fresh_labels(used: set[str], n: int = 1, stem: str = "v") -> list[Label]:
    out: list[Label] = []
    i = 0
    while len(out) < n:
        name = f"{stem}{i}"
        if name not in used:
            used.add(name)
            out.append(Label(name))
        i += 1
    return out


def fresh_params(used: set[str], n: int = 1, stem: str = "a") -> list[Param]:
    out: list[Param] = []
    i = 0
    while len(out) < n:
        name = f"{stem}{i}"
        if name not in used:
            used.add(name)
            out.append(Param(name))
        i += 1
    return out


# ---------------------------------------------------------------------------
# rules and calculi

class Rule(enum.Enum):
    # members are singletons: hash by identity in C, not by name in Python
    __hash__ = object.__hash__

    ID = "id"
    ID_Q = "id_q"
    BOT_L = "bot_l"
    AND_L = "and_l"
    AND_R = "and_r"
    OR_L = "or_l"
    OR_R = "or_r"
    IMP_L = "imp_l"
    IMP_R = "imp_r"
    REF = "ref"
    TRA = "tra"
    FORALL_L = "forall_l"
    FORALL_R = "forall_r"
    EXISTS_L = "exists_l"
    EXISTS_R = "exists_r"
    ND = "nd"
    CD = "cd"
    ID_STAR = "id_star"
    ID_Q_STAR = "id_q_star"
    NEG_L = "neg_l"
    NEG_R = "neg_r"
    IMP_L_STAR = "imp_l_star"
    FORALL_L_STAR = "forall_l_star"
    FORALL_R_STAR = "forall_r_star"
    EXISTS_R_STAR = "exists_r_star"
    LIFT = "lift"
    # admissible tags: checker-only
    LSUB = "lsub"
    PSUB = "psub"
    WK = "wk"
    CTR_R = "ctr_R"
    CTR_FL = "ctr_Fl"
    CTR_FR = "ctr_Fr"
    CUT = "cut"


ARITY = {
    Rule.ID: 0, Rule.ID_Q: 0, Rule.BOT_L: 0, Rule.ID_STAR: 0, Rule.ID_Q_STAR: 0,
    Rule.AND_L: 1, Rule.OR_R: 1, Rule.IMP_R: 1, Rule.REF: 1, Rule.TRA: 1,
    Rule.FORALL_L: 1, Rule.FORALL_R: 1, Rule.EXISTS_L: 1, Rule.EXISTS_R: 1,
    Rule.ND: 1, Rule.CD: 1, Rule.NEG_L: 1, Rule.NEG_R: 1,
    Rule.FORALL_L_STAR: 1, Rule.FORALL_R_STAR: 1, Rule.EXISTS_R_STAR: 1,
    Rule.LIFT: 1, Rule.LSUB: 1, Rule.PSUB: 1, Rule.WK: 1,
    Rule.CTR_R: 1, Rule.CTR_FL: 1, Rule.CTR_FR: 1,
    Rule.AND_R: 2, Rule.OR_L: 2, Rule.IMP_L: 2, Rule.IMP_L_STAR: 2, Rule.CUT: 2,
}

ADMISSIBLE_TAGS = frozenset(
    {Rule.LSUB, Rule.PSUB, Rule.WK, Rule.CTR_R, Rule.CTR_FL, Rule.CTR_FR, Rule.CUT}
)

_G3INT = frozenset(
    {Rule.ID, Rule.BOT_L, Rule.AND_L, Rule.AND_R, Rule.OR_L, Rule.OR_R,
     Rule.IMP_L, Rule.IMP_R, Rule.REF, Rule.TRA}
)
_G3INTQC = _G3INT | frozenset(
    {Rule.ID_Q, Rule.FORALL_L, Rule.FORALL_R, Rule.EXISTS_L, Rule.EXISTS_R,
     Rule.ND, Rule.CD}
)
_G3INT_EXT = _G3INT | frozenset(
    {Rule.ID_STAR, Rule.NEG_L, Rule.NEG_R, Rule.IMP_L_STAR, Rule.LIFT}
)
_INTQCL = _G3INTQC | frozenset(
    {Rule.ID_Q_STAR, Rule.ID_STAR, Rule.NEG_L, Rule.NEG_R, Rule.IMP_L_STAR,
     Rule.FORALL_L_STAR, Rule.FORALL_R_STAR, Rule.EXISTS_R_STAR, Rule.LIFT}
)
_G3INT_TREE = _G3INT_EXT - frozenset(
    {Rule.ID, Rule.BOT_L, Rule.IMP_L, Rule.REF, Rule.TRA}
)
_INTQCL_TREE = _INTQCL - frozenset(
    {Rule.ID, Rule.ID_Q, Rule.BOT_L, Rule.IMP_L, Rule.FORALL_L, Rule.FORALL_R,
     Rule.EXISTS_R, Rule.REF, Rule.TRA, Rule.ND, Rule.CD}
)

CALCULI: dict[str, frozenset[Rule]] = {
    "g3int": _G3INT,
    "g3intqc": _G3INTQC,
    "g3int-ext": _G3INT_EXT,
    "intqcl": _INTQCL,
    "g3int-tree": _G3INT_TREE,
    "intqcl-tree": _INTQCL_TREE,
}


def rules_of(calc: str, with_tags: bool = True) -> frozenset[Rule]:
    try:
        base = CALCULI[calc]
    except KeyError:
        raise SequentError(f"unknown calculus {calc!r}") from None
    return base | ADMISSIBLE_TAGS if with_tags else base


STRUCTURAL = frozenset({Rule.REF, Rule.TRA, Rule.ND, Rule.CD})
DERIVED = frozenset(
    {Rule.ID, Rule.ID_Q, Rule.BOT_L, Rule.IMP_L, Rule.FORALL_L, Rule.FORALL_R,
     Rule.EXISTS_R}
)

# The classes of the logical rules, as the schemas in `premises_for` define
# them.  A consuming rule replaces its principal formula, which sits on the
# side given, by smaller pieces; a copy rule keeps its principal.  Both are
# listed in the order proof search tries them.  The eigen rules take a fresh
# label or parameter from their witness.
CONSUMES = {
    Rule.AND_L: "ante", Rule.OR_R: "succ", Rule.AND_R: "succ", Rule.OR_L: "ante",
    Rule.IMP_R: "succ", Rule.NEG_R: "succ", Rule.FORALL_R: "succ",
    Rule.FORALL_R_STAR: "succ", Rule.EXISTS_L: "ante",
}
COPIES = (Rule.NEG_L, Rule.LIFT, Rule.FORALL_L, Rule.FORALL_L_STAR,
          Rule.EXISTS_R, Rule.EXISTS_R_STAR, Rule.IMP_L, Rule.IMP_L_STAR)
EIGEN_LABEL = frozenset({Rule.IMP_R, Rule.NEG_R, Rule.FORALL_R})
EIGEN_PARAM = frozenset({Rule.FORALL_R, Rule.FORALL_R_STAR, Rule.EXISTS_L})


@dataclass(frozen=True)
class Witness:
    """Explicit instance data for one inference.

    principal: the principal labelled formula occurrence.
    rel/rel2: active relational atoms (rel2 only for tra).
    dom: active domain atom.
    label: eigenlabel (imp_r/neg_r/forall_r), the ref label, or the lsub
    replacement; label2 is the lsub replaced label.
    param: eigenparameter or instantiating parameter; param2 the psub
    replaced parameter.
    formula: second formula occurrence (id-family succedent side, cut).
    """

    principal: LabelledFormula | None = None
    rel: RelAtom | None = None
    rel2: RelAtom | None = None
    dom: DomAtom | None = None
    label: Label | None = None
    label2: Label | None = None
    param: Param | None = None
    param2: Param | None = None
    formula: LabelledFormula | None = None


@dataclass(frozen=True)
class LabelledDerivation:
    conclusion: LabelledSequent
    rule: Rule
    premises: tuple["LabelledDerivation", ...] = ()
    witness: Witness = field(default_factory=Witness)

    def height(self) -> int:
        return 1 + max((p.height() for p in self.premises), default=0)

    def nodes(self) -> Iterator["LabelledDerivation"]:
        yield self
        for p in self.premises:
            yield from p.nodes()

    def rule_counts(self) -> dict[Rule, int]:
        out: dict[Rule, int] = {}
        for n in self.nodes():
            out[n.rule] = out.get(n.rule, 0) + 1
        return out

    def all_labels(self) -> set[str]:
        used: set[str] = set()
        for n in self.nodes():
            used.update(l.name for l in n.conclusion.labels())
            for fld in (n.witness.label, n.witness.label2):
                if fld is not None:
                    used.add(fld.name)
        return used

    def all_params(self) -> set[str]:
        used: set[str] = set()
        for n in self.nodes():
            used.update(p.name for p in n.conclusion.params())
            for fld in (n.witness.param, n.witness.param2):
                if fld is not None:
                    used.add(fld.name)
        return used


# ---------------------------------------------------------------------------
# rule schemas: premises_for computes the premises demanded by (rule,
# conclusion, witness), or raises SequentError naming the violated side
# condition.  check_inference compares them with the supplied premises.

def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise SequentError(msg)


def _occurs_label(s: LabelledSequent, l: Label) -> bool:
    return l in s.labels()


def _occurs_param(s: LabelledSequent, a: Param) -> bool:
    return a in s.params()


def _atom_formula(f: Formula) -> Atom:
    _need(isinstance(f, Atom), f"principal formula {show_formula(f)} is not atomic")
    return f  # type: ignore[return-value]


def _required_dom(p: Atom, w: Label) -> list[DomAtom]:
    return [DomAtom(a, w) for a in dict.fromkeys(t for t in p.args if isinstance(t, Param))]


def premises_for(
    rule: Rule, conclusion: LabelledSequent, w: Witness
) -> tuple[LabelledSequent, ...]:
    s = conclusion
    if rule in (Rule.ID, Rule.ID_Q):
        _need(w.principal is not None and w.formula is not None and w.rel is not None,
              "id needs principal, formula and rel witnesses")
        (wl, pf) = w.principal
        (vl, pf2) = w.formula
        p = _atom_formula(pf)
        _need(pf2 == pf, "id: antecedent and succedent atoms differ")
        _need(w.rel == RelAtom(wl, vl), "id: rel witness must be w<=v for w:p, v:p")
        _need(w.rel in s.rel, "id: relational atom not in sequent")
        _need(w.principal in s.ante, "id: antecedent atom not present")
        _need(w.formula in s.succ, "id: succedent atom not present")
        if rule is Rule.ID:
            _need(not p.args, "id: use id_q for predicates with arguments")
        for d in _required_dom(p, wl):
            _need(d in s.dom, f"id_q: missing domain atom {d!r}")
        return ()
    if rule in (Rule.ID_STAR, Rule.ID_Q_STAR):
        _need(w.principal is not None and w.formula is not None,
              "id* needs principal and formula witnesses")
        (wl, pf) = w.principal
        (wl2, pf2) = w.formula
        p = _atom_formula(pf)
        _need(pf2 == pf and wl2 == wl, "id*: both occurrences must be w:p")
        _need(w.principal in s.ante, "id*: antecedent atom not present")
        _need(w.formula in s.succ, "id*: succedent atom not present")
        if rule is Rule.ID_STAR:
            _need(not p.args, "id*: use id_q_star for predicates with arguments")
        else:
            for a in dict.fromkeys(t for t in p.args if isinstance(t, Param)):
                _need(
                    any(d.a == a and path_exists(s.rel, d.w, wl) for d in s.dom),
                    f"id_q*: no domain atom for {a!r} with a path to {wl!r}",
                )
        return ()
    if rule is Rule.BOT_L:
        _need(w.principal is not None, "bot_l needs a principal witness")
        (wl, f) = w.principal
        _need(isinstance(f, Bot), "bot_l: principal must be false")
        _need(w.principal in s.ante, "bot_l: principal not present")
        return ()
    if rule is Rule.AND_L:
        (wl, f) = _principal_in(s.ante, w, And, "and_l")
        return (s.remove(ante=[w.principal]).add(ante=[(wl, f.left), (wl, f.right)]),)
    if rule is Rule.AND_R:
        (wl, f) = _principal_in(s.succ, w, And, "and_r")
        base = s.remove(succ=[w.principal])
        return (base.add(succ=[(wl, f.left)]), base.add(succ=[(wl, f.right)]))
    if rule is Rule.OR_L:
        (wl, f) = _principal_in(s.ante, w, Or, "or_l")
        base = s.remove(ante=[w.principal])
        return (base.add(ante=[(wl, f.left)]), base.add(ante=[(wl, f.right)]))
    if rule is Rule.OR_R:
        (wl, f) = _principal_in(s.succ, w, Or, "or_r")
        return (s.remove(succ=[w.principal]).add(succ=[(wl, f.left), (wl, f.right)]),)
    if rule is Rule.IMP_L:
        (wl, f) = _principal_in(s.ante, w, Impl, "imp_l")
        _need(w.rel is not None and w.rel in s.rel, "imp_l: rel witness not in sequent")
        _need(w.rel.w == wl, "imp_l: rel witness must start at the principal's label")
        vl = w.rel.v
        return (s.add(succ=[(vl, f.left)]), s.add(ante=[(vl, f.right)]))
    if rule is Rule.IMP_L_STAR:
        (wl, f) = _principal_in(s.ante, w, Impl, "imp_l_star")
        return (s.add(succ=[(wl, f.left)]), s.add(ante=[(wl, f.right)]))
    if rule is Rule.IMP_R:
        (wl, f) = _principal_in(s.succ, w, Impl, "imp_r")
        _need(w.label is not None, "imp_r needs an eigenlabel")
        _need(not _occurs_label(s, w.label),
              f"eigenvariable {w.label!r} occurs in conclusion")
        vl = w.label
        return (
            s.remove(succ=[w.principal]).add(
                rel=[RelAtom(wl, vl)], ante=[(vl, f.left)], succ=[(vl, f.right)]
            ),
        )
    if rule is Rule.NEG_R:
        (wl, f) = _principal_in(s.succ, w, Neg, "neg_r")
        _need(w.label is not None, "neg_r needs an eigenlabel")
        _need(not _occurs_label(s, w.label),
              f"eigenvariable {w.label!r} occurs in conclusion")
        vl = w.label
        return (
            s.remove(succ=[w.principal]).add(rel=[RelAtom(wl, vl)], ante=[(vl, f.body)]),
        )
    if rule is Rule.NEG_L:
        (wl, f) = _principal_in(s.ante, w, Neg, "neg_l")
        return (s.add(succ=[(wl, f.body)]),)
    if rule is Rule.REF:
        _need(w.label is not None, "ref needs a label witness")
        return (s.add(rel=[RelAtom(w.label, w.label)]),)
    if rule is Rule.TRA:
        _need(w.rel is not None and w.rel2 is not None, "tra needs two rel witnesses")
        _need(w.rel in s.rel and w.rel2 in s.rel, "tra: witnesses not in sequent")
        _need(w.rel.v == w.rel2.w, "tra: witnesses do not compose")
        return (s.add(rel=[RelAtom(w.rel.w, w.rel2.v)]),)
    if rule is Rule.FORALL_R:
        (wl, f) = _principal_in(s.succ, w, Forall, "forall_r")
        _need(w.label is not None and w.param is not None,
              "forall_r needs eigenlabel and eigenparameter")
        _need(not _occurs_label(s, w.label),
              f"eigenvariable {w.label!r} occurs in conclusion")
        _need(not _occurs_param(s, w.param),
              f"eigenvariable {w.param!r} occurs in conclusion")
        vl = w.label
        inst = substitute_param(f.body, w.param, f.var)
        return (
            s.remove(succ=[w.principal]).add(
                rel=[RelAtom(wl, vl)], dom=[DomAtom(w.param, vl)], succ=[(vl, inst)]
            ),
        )
    if rule is Rule.FORALL_R_STAR:
        (wl, f) = _principal_in(s.succ, w, Forall, "forall_r_star")
        _need(w.param is not None, "forall_r_star needs an eigenparameter")
        _need(not _occurs_param(s, w.param),
              f"eigenvariable {w.param!r} occurs in conclusion")
        inst = substitute_param(f.body, w.param, f.var)
        return (
            s.remove(succ=[w.principal]).add(
                dom=[DomAtom(w.param, wl)], succ=[(wl, inst)]
            ),
        )
    if rule is Rule.EXISTS_L:
        (wl, f) = _principal_in(s.ante, w, Exists, "exists_l")
        _need(w.param is not None, "exists_l needs an eigenparameter")
        _need(not _occurs_param(s, w.param),
              f"eigenvariable {w.param!r} occurs in conclusion")
        inst = substitute_param(f.body, w.param, f.var)
        return (
            s.remove(ante=[w.principal]).add(
                dom=[DomAtom(w.param, wl)], ante=[(wl, inst)]
            ),
        )
    if rule is Rule.EXISTS_R:
        (wl, f) = _principal_in(s.succ, w, Exists, "exists_r")
        _need(w.dom is not None and w.dom in s.dom, "exists_r: domain atom not present")
        _need(w.dom.w == wl, "exists_r: domain atom must sit at the principal label")
        inst = substitute_param(f.body, w.dom.a, f.var)
        return (s.add(succ=[(wl, inst)]),)
    if rule is Rule.EXISTS_R_STAR:
        (wl, f) = _principal_in(s.succ, w, Exists, "exists_r_star")
        _need(w.dom is not None and w.dom in s.dom,
              "exists_r_star: domain atom not present")
        _need(path_exists(s.rel, w.dom.w, wl),
              f"exists_r_star: no path from {w.dom.w!r} to {wl!r}")
        inst = substitute_param(f.body, w.dom.a, f.var)
        return (s.add(succ=[(wl, inst)]),)
    if rule is Rule.FORALL_L:
        (wl, f) = _principal_in(s.ante, w, Forall, "forall_l")
        _need(w.rel is not None and w.rel in s.rel, "forall_l: rel witness not present")
        _need(w.rel.w == wl, "forall_l: rel witness must start at the principal label")
        _need(w.dom is not None and w.dom in s.dom, "forall_l: domain atom not present")
        _need(w.dom.w == w.rel.v, "forall_l: domain atom must sit at the upper label")
        inst = substitute_param(f.body, w.dom.a, f.var)
        return (s.add(ante=[(w.rel.v, inst)]),)
    if rule is Rule.FORALL_L_STAR:
        (wl, f) = _principal_in(s.ante, w, Forall, "forall_l_star")
        _need(w.dom is not None and w.dom in s.dom,
              "forall_l_star: domain atom not present")
        _need(path_exists(s.rel, w.dom.w, wl),
              f"forall_l_star: no path from {w.dom.w!r} to {wl!r}")
        inst = substitute_param(f.body, w.dom.a, f.var)
        return (s.add(ante=[(wl, inst)]),)
    if rule is Rule.ND:
        _need(w.rel is not None and w.rel in s.rel, "nd: rel witness not present")
        _need(w.dom is not None and w.dom in s.dom, "nd: domain atom not present")
        _need(w.dom.w == w.rel.w, "nd: domain atom must sit at the lower label")
        return (s.add(dom=[DomAtom(w.dom.a, w.rel.v)]),)
    if rule is Rule.CD:
        _need(w.rel is not None and w.rel in s.rel, "cd: rel witness not present")
        _need(w.dom is not None and w.dom in s.dom, "cd: domain atom not present")
        _need(w.dom.w == w.rel.v, "cd: domain atom must sit at the upper label")
        return (s.add(dom=[DomAtom(w.dom.a, w.rel.w)]),)
    if rule is Rule.LIFT:
        _need(w.principal is not None and w.principal in s.ante,
              "lift: principal not present")
        _need(w.rel is not None and w.rel in s.rel, "lift: rel witness not present")
        (wl, f) = w.principal
        _need(w.rel.w == wl, "lift: rel witness must start at the principal label")
        return (s.add(ante=[(w.rel.v, f)]),)
    raise SequentError(f"premises_for does not handle {rule.value}")


def _principal_in(side, w: Witness, cls, name: str):
    _need(w.principal is not None, f"{name} needs a principal witness")
    (wl, f) = w.principal
    _need(isinstance(f, cls), f"{name}: principal has the wrong shape")
    _need(w.principal in side, f"{name}: principal occurrence not present")
    return (wl, f)


def _check_admissible(
    rule: Rule, conclusion: LabelledSequent, premises, w: Witness
) -> None:
    _need(len(premises) == ARITY[rule], f"{rule.value}: wrong number of premises")
    if rule is Rule.WK:
        _need(premises[0].is_subset_of(conclusion),
              "wk: premise is not a sub-multiset of the conclusion")
        return
    if rule is Rule.CTR_R:
        p, c = premises[0], conclusion
        _need(p.ante == c.ante and p.succ == c.succ, "ctr_R: formulae must agree")
        extra_rel = _multiset_diff(p.rel, c.rel)
        extra_dom = _multiset_diff(p.dom, c.dom)
        _need(extra_rel is not None and extra_dom is not None,
              "ctr_R: premise must extend the conclusion's atoms")
        _need(_is_submultiset(extra_rel, c.rel) and _is_submultiset(extra_dom, c.dom),
              "ctr_R: contracted atoms must remain in the conclusion")
        return
    if rule in (Rule.CTR_FL, Rule.CTR_FR):
        p, c = premises[0], conclusion
        _need(p.rel == c.rel and p.dom == c.dom, "ctr_F: atoms must agree")
        if rule is Rule.CTR_FL:
            _need(p.succ == c.succ, "ctr_Fl: succedents must agree")
            extra = _multiset_diff(p.ante, c.ante)
            pool = c.ante
        else:
            _need(p.ante == c.ante, "ctr_Fr: antecedents must agree")
            extra = _multiset_diff(p.succ, c.succ)
            pool = c.succ
        _need(extra is not None, "ctr_F: premise must extend the conclusion")
        _need(_is_submultiset(extra, pool),
              "ctr_F: contracted formulae must remain in the conclusion")
        return
    if rule is Rule.LSUB:
        _need(w.label is not None and w.label2 is not None, "lsub needs label, label2")
        got = substitute_sequent(premises[0], "label", w.label, w.label2)
        _need(got == conclusion, "lsub: conclusion is not the substituted premise")
        return
    if rule is Rule.PSUB:
        _need(w.param is not None and w.param2 is not None, "psub needs param, param2")
        got = substitute_sequent(premises[0], "param", w.param, w.param2)
        _need(got == conclusion, "psub: conclusion is not the substituted premise")
        return
    if rule is Rule.CUT:
        _need(w.formula is not None, "cut needs the cut formula")
        left = conclusion.add(succ=[w.formula])
        right = conclusion.add(ante=[w.formula])
        _need(premises[0] == left, "cut: left premise mismatch")
        _need(premises[1] == right, "cut: right premise mismatch")
        return
    raise SequentError(f"unhandled admissible tag {rule.value}")


def _multiset_diff(big, small):
    pool = list(big)
    for x in small:
        try:
            pool.remove(x)
        except ValueError:
            return None
    return tuple(pool)


def _is_submultiset(xs, ys) -> bool:
    return _multiset_diff(ys, xs) is not None


def check_inference(
    calc: str,
    rule: Rule,
    conclusion: LabelledSequent,
    premises: Sequence[LabelledSequent],
    witness: Witness,
) -> tuple[bool, str]:
    """True iff the premises are exactly the rule schema instantiated by
    the witness, side conditions included."""
    try:
        if rule not in rules_of(calc):
            return False, f"rule {rule.value} not in calculus {calc}"
        if rule in ADMISSIBLE_TAGS:
            _check_admissible(rule, conclusion, tuple(premises), witness)
            return True, "ok"
        want = premises_for(rule, conclusion, witness)
        if len(want) != len(premises):
            return False, f"{rule.value}: expected {len(want)} premises"
        for i, (a, b) in enumerate(zip(want, premises)):
            if a != b:
                return False, (
                    f"{rule.value}: premise {i} mismatch: expected "
                    f"{show_sequent(a)!r}, got {show_sequent(b)!r}"
                )
        return True, "ok"
    except SequentError as e:
        return False, str(e)


def check_derivation(calc: str, d: LabelledDerivation) -> tuple[bool, tuple[int, ...] | None, str]:
    """Checks every node; returns (ok, path-of-first-failure, diagnostic)."""
    return check_nodes(d, lambda n, prem: check_inference(
        calc, n.rule, n.conclusion, prem, n.witness))


def check_nodes(d, check) -> tuple[bool, tuple[int, ...] | None, str]:
    """The walk of a labelled or nested derivation: `check(node, premise
    conclusions)` gives (ok, diagnostic) for one inference; the result is
    (ok, path-of-first-failure, diagnostic)."""
    stack = [(d, ())]
    while stack:
        node, path = stack.pop()
        ok, msg = check(node, [p.conclusion for p in node.premises])
        if not ok:
            return False, path, msg
        for i, p in enumerate(node.premises):
            stack.append((p, path + (i,)))
    return True, None, "ok"


# ---------------------------------------------------------------------------
# backward application

def apply_backward(
    calc: str, rule: Rule, goal: LabelledSequent
) -> list[tuple[tuple[LabelledSequent, ...], Witness]]:
    """Every instantiation of rule whose conclusion matches goal.

    Eigenvariables are freshly generated; instantiating parameters range
    over the goal's parameters plus one fresh.
    """
    if rule not in rules_of(calc, with_tags=False):
        return []
    out: list[tuple[tuple[LabelledSequent, ...], Witness]] = []
    seen: set[Witness] = set()
    for w in _candidate_witnesses(rule, goal):
        if w in seen:
            continue
        seen.add(w)
        try:
            prem = premises_for(rule, goal, w)
        except SequentError:
            continue
        out.append((prem, w))
    return out


class SequentIndex:
    """The lookup tables of one labelled sequent that candidate enumeration
    and the search's novelty test read: the distinct occurrences, each
    table in first-occurrence order, so that reading a table yields the
    same candidates in the same order as scanning the whole sequent.

    rel, dom: the relational and domain atoms (dicts used as ordered sets);
    ante, succ: the labelled formulas;
    ante_of, succ_of: the occurrences of each connective (keyed by class);
    ante_at, succ_at: the formulas at each label (ordered sets);
    rel_from: the relational atoms from each label.
    """

    def __init__(self, s: LabelledSequent):
        self.rel = dict.fromkeys(s.rel)
        self.dom = dict.fromkeys(s.dom)
        self.ante = dict.fromkeys(s.ante)
        self.succ = dict.fromkeys(s.succ)
        self.ante_of, self.ante_at = _group(self.ante)
        self.succ_of, self.succ_at = _group(self.succ)
        self.rel_from: dict[Label, list[RelAtom]] = {}
        for r in self.rel:
            self.rel_from.setdefault(r.w, []).append(r)


def _group(occurrences):
    by_class: dict[type, list[LabelledFormula]] = {}
    at: dict[Label, dict[Formula, None]] = {}
    for occ in occurrences:
        by_class.setdefault(type(occ[1]), []).append(occ)
        at.setdefault(occ[0], {})[occ[1]] = None
    return by_class, at


def _fresh_label(s: LabelledSequent) -> Label:
    return fresh_labels({l.name for l in s.labels()})[0]


def _fresh_param(s: LabelledSequent) -> Param:
    return fresh_params({p.name for p in s.params()})[0]


_ANTE_SHAPE = {Rule.AND_L: And, Rule.OR_L: Or, Rule.NEG_L: Neg, Rule.IMP_L_STAR: Impl,
               Rule.EXISTS_L: Exists, Rule.FORALL_L_STAR: Forall, Rule.BOT_L: Bot}
_SUCC_SHAPE = {Rule.AND_R: And, Rule.OR_R: Or, Rule.IMP_R: Impl, Rule.NEG_R: Neg,
               Rule.FORALL_R: Forall, Rule.FORALL_R_STAR: Forall,
               Rule.EXISTS_R: Exists, Rule.EXISTS_R_STAR: Exists}


def _candidate_witnesses(
    rule: Rule, s: LabelledSequent, ix: SequentIndex | None = None
) -> Iterator[Witness]:
    """The witnesses worth trying for rule on s, read off the index of s
    (built here when not given).  Eigenvariables are fresh; premises_for
    still checks every side condition."""
    if ix is None:
        ix = SequentIndex(s)
    if rule in (Rule.ID, Rule.ID_Q):
        for r in ix.rel:
            succ = ix.succ_at.get(r.v, ())
            for f in ix.ante_at.get(r.w, ()):
                if isinstance(f, Atom) and f in succ:
                    yield Witness(principal=(r.w, f), formula=(r.v, f), rel=r)
    elif rule in (Rule.ID_STAR, Rule.ID_Q_STAR):
        for occ in ix.ante_of.get(Atom, ()):
            if occ in ix.succ:
                yield Witness(principal=occ, formula=occ)
    elif rule in _ANTE_SHAPE:
        occs = ix.ante_of.get(_ANTE_SHAPE[rule], ())
        if not occs:
            return
        if rule is Rule.EXISTS_L:
            a = _fresh_param(s)
            for occ in occs:
                yield Witness(principal=occ, param=a)
        elif rule is Rule.FORALL_L_STAR:
            # instantiation is witnessed by a domain atom already present
            for occ in occs:
                for d in ix.dom:
                    yield Witness(principal=occ, dom=d)
        else:
            for occ in occs:
                yield Witness(principal=occ)
    elif rule in _SUCC_SHAPE:
        occs = ix.succ_of.get(_SUCC_SHAPE[rule], ())
        if not occs:
            return
        if rule in (Rule.IMP_R, Rule.NEG_R):
            v = _fresh_label(s)
            for occ in occs:
                yield Witness(principal=occ, label=v)
        elif rule is Rule.FORALL_R:
            v, a = _fresh_label(s), _fresh_param(s)
            for occ in occs:
                yield Witness(principal=occ, label=v, param=a)
        elif rule is Rule.FORALL_R_STAR:
            a = _fresh_param(s)
            for occ in occs:
                yield Witness(principal=occ, param=a)
        elif rule in (Rule.EXISTS_R, Rule.EXISTS_R_STAR):
            for occ in occs:
                for d in ix.dom:
                    yield Witness(principal=occ, dom=d)
        else:
            for occ in occs:
                yield Witness(principal=occ)
    elif rule in (Rule.IMP_L, Rule.LIFT):
        occs = ix.ante_of.get(Impl, ()) if rule is Rule.IMP_L else ix.ante
        for occ in occs:
            for r in ix.rel_from.get(occ[0], ()):
                yield Witness(principal=occ, rel=r)
    elif rule is Rule.REF:
        for l in sorted(s.labels(), key=lambda x: x.name):
            yield Witness(label=l)
    elif rule is Rule.TRA:
        for r1 in ix.rel:
            for r2 in ix.rel_from.get(r1.v, ()):
                yield Witness(rel=r1, rel2=r2)
    elif rule is Rule.FORALL_L:
        for occ in ix.ante_of.get(Forall, ()):
            for r in ix.rel_from.get(occ[0], ()):
                for d in ix.dom:
                    if d.w == r.v:
                        yield Witness(principal=occ, rel=r, dom=d)
    elif rule in (Rule.ND, Rule.CD):
        for r in ix.rel:
            at = r.w if rule is Rule.ND else r.v
            for d in ix.dom:
                if d.w == at:
                    yield Witness(rel=r, dom=d)
