"""Labelled sequents and the labelled calculi for intuitionistic logics.

Sequents are multisets of relational atoms (w <= v), domain atoms
(a in D(w)) and labelled formulae (w : A), encoded as canonically sorted
tuples so multiset equality is structural equality.  The tuples are always
in canonical order: only the public constructor sorts (parsing,
substitution, the graph translation), and the edits that build the premises
of a rule keep the order, `remove` by filtering and `add` by inserting each
new item by bisection after the items of equal key, where a stable sort of
the concatenation would put it.

Rule sets:

  g3int      id, bot_l, and_l, and_r, or_l, or_r, imp_l, imp_r, ref, tra
  g3intqc    g3int + id_q, forall_l, forall_r, exists_l, exists_r, nd, cd
  g3int-ext  g3int + id_star, neg_l, neg_r, imp_l_star, lift
  intqcl     g3intqc + id_q_star, neg_l, neg_r, imp_l_star, forall_l_star,
             forall_r_star, exists_r_star, lift
  g3int-tree   g3int-ext minus {id, bot_l, imp_l, ref, tra}
  intqcl-tree  intqcl minus {id, id_q, bot_l, imp_l, forall_l, forall_r,
               exists_r, ref, tra, nd, cd}

The logical rules are written once, as the rows of one table (`RULES`):
the connective and side of the principal, whether the premises keep it,
and the pieces each premise adds at one world.  `premises_for` places the
pieces at labels, after the relational, domain and eigenvariable side
conditions; the nested calculi (`nested.py`) read the same rows.  The
classes of rules (`CONSUMES`, `COPIES`, the eigen and instantiating rules)
and candidate enumeration are read off the table too.  The saturation
rules (ref, tra, nd, cd) each add one atom (`ADDED_ATOM`).

The admissible-rule tags (lsub, psub, wk, ctr_*, cut) are supported by the
checker only; proof search and the transformation engine never emit them.

Text format: ``w<=v, a in D(w), w: p(#a) => v: p(#a)``.
"""

from __future__ import annotations

import enum
import operator
from bisect import insort_right
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .formula import (
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Formula,
    Impl,
    InternedValue,
    Neg,
    Or,
    Param,
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

    @classmethod
    def _presorted(cls, rel, dom, ante, succ) -> "LabelledSequent":
        """The sequent of four tuples already in canonical order."""
        s = object.__new__(cls)
        # field by field, as __init__ does, keeps the compact instance layout
        object.__setattr__(s, "rel", rel)
        object.__setattr__(s, "dom", dom)
        object.__setattr__(s, "ante", ante)
        object.__setattr__(s, "succ", succ)
        return s

    # -- multiset edits (each returns a new sequent) --
    def add(self, rel=(), dom=(), ante=(), succ=()) -> "LabelledSequent":
        return LabelledSequent._presorted(
            _insert(self.rel, rel, _atom_key),
            _insert(self.dom, dom, _atom_key),
            _insert(self.ante, ante, _lf_key),
            _insert(self.succ, succ, _lf_key),
        )

    def remove(self, rel=(), dom=(), ante=(), succ=()) -> "LabelledSequent":
        return LabelledSequent._presorted(
            _remove(self.rel, rel, "relational atom"),
            _remove(self.dom, dom, "domain atom"),
            _remove(self.ante, ante, "antecedent formula"),
            _remove(self.succ, succ, "succedent formula"),
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
        return (
            _is_submultiset(self.rel, other.rel)
            and _is_submultiset(self.dom, other.dom)
            and _is_submultiset(self.ante, other.ante)
            and _is_submultiset(self.succ, other.succ)
        )

    def __repr__(self) -> str:
        return show_sequent(self)


def _insert(items: tuple, new, key) -> tuple:
    """`items`, in canonical order, with each of `new` inserted after the
    items of equal key: the order a stable sort of items + new gives.  No
    key is computed while the target is empty."""
    if not new:
        return items
    out = list(items)
    for x in new:
        if out:
            insort_right(out, x, key=key)
        else:
            out.append(x)
    return tuple(out)


def _remove(items: tuple, gone, what: str) -> tuple:
    """`items` less one occurrence of each of `gone`; a filtered tuple in
    canonical order stays in it."""
    if not gone:
        return items
    out = list(items)
    for g in gone:
        try:
            out.remove(g)
        except ValueError:
            raise SequentError(f"{what} {g!r} not present") from None
    return tuple(out)


def show_sequent(s: LabelledSequent) -> str:
    left = [repr(r) for r in s.rel] + [repr(d) for d in s.dom]
    left += [f"{w}: {show_formula(f)}" for (w, f) in s.ante]
    right = [f"{w}: {show_formula(f)}" for (w, f) in s.succ]
    return f"{', '.join(left)} => {', '.join(right)}".strip()


def _depth(t: str) -> int:
    """The count of opening less closing brackets, `()` and `[]`, in t."""
    return t.count("(") + t.count("[") - t.count(")") - t.count("]")


def _split_top(t: str) -> list[str]:
    """The parts of t between the commas outside all brackets, stripped,
    with empty parts dropped.

    t is cut at every comma, and the pieces are joined again while the
    brackets they hold are unbalanced: the depth at a comma is the depth of
    the text before it, summed piece by piece.  Unbalanced text leaves its
    rest as the last part, for the formula reader to reject."""
    parts, cur, depth = [], [], 0
    for piece in t.split(","):
        cur.append(piece)
        depth += _depth(piece)
        if not depth:
            parts.append(",".join(cur))
            cur = []
    if cur:
        parts.append(",".join(cur))
    return [p for p in map(str.strip, parts) if p]


def parse_sequent(text: str) -> LabelledSequent:
    return _read_sequent(text, parse_formula)


def _read_sequent(text: str, formula) -> LabelledSequent:
    """parse_sequent, reading each formula with `formula(text)`."""
    if "=>" not in text:
        raise SequentError("missing '=>' in labelled sequent")
    left, right = text.split("=>", 1)
    rel: list[RelAtom] = []
    dom: list[DomAtom] = []
    ante: list[LabelledFormula] = []
    succ: list[LabelledFormula] = []

    for part in _split_top(left):
        # a formula can hold ' in ' (an atom named in); no atom holds ':'
        if ":" in part:
            w, f = part.split(":", 1)
            ante.append((Label(w.strip()), formula(f)))
        elif "<=" in part:
            a, b = part.split("<=", 1)
            rel.append(RelAtom(Label(a.strip()), Label(b.strip())))
        elif " in " in part:
            a, d = part.split(" in ", 1)
            d = d.strip()
            if not (d.startswith("D(") and d.endswith(")")):
                raise SequentError(f"malformed domain atom {part!r}")
            name = a.strip()
            if name.startswith("#"):
                name = name[1:]
            dom.append(DomAtom(Param(name), Label(d[2:-1].strip())))
        else:
            raise SequentError(f"cannot read sequent part {part!r}")
    for part in _split_top(right):
        if ":" not in part:
            raise SequentError(f"cannot read sequent part {part!r}")
        w, f = part.split(":", 1)
        succ.append((Label(w.strip()), formula(f)))
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


def _fresh_name(used: set[str], stem: str) -> str:
    """The first of stem0, stem1, ... not in `used`, which it is added to."""
    i = 0
    while f"{stem}{i}" in used:
        i += 1
    name = f"{stem}{i}"
    used.add(name)
    return name


def fresh_label(used: set[str], stem: str = "v") -> Label:
    return Label(_fresh_name(used, stem))


def fresh_param(used: set[str]) -> Param:
    return Param(_fresh_name(used, "a"))


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


# the premises of each admissible tag; a logical rule's come from its row
# and a saturation rule has one
_TAG_ARITY = {Rule.LSUB: 1, Rule.PSUB: 1, Rule.WK: 1, Rule.CTR_R: 1, Rule.CTR_FL: 1,
              Rule.CTR_FR: 1, Rule.CUT: 2}
ADMISSIBLE_TAGS = frozenset(_TAG_ARITY)

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


# the saturation rules, each of which adds one relational or domain atom
ADDED_ATOM = {
    Rule.REF: lambda w: RelAtom(w.label, w.label),
    Rule.TRA: lambda w: RelAtom(w.rel.w, w.rel2.v),
    Rule.ND: lambda w: DomAtom(w.dom.a, w.rel.v),
    Rule.CD: lambda w: DomAtom(w.dom.a, w.rel.w),
}
STRUCTURAL = frozenset(ADDED_ATOM)
DERIVED = frozenset(
    {Rule.ID, Rule.ID_Q, Rule.BOT_L, Rule.IMP_L, Rule.FORALL_L, Rule.FORALL_R,
     Rule.EXISTS_R}
)

# ---------------------------------------------------------------------------
# the rule table
#
# Each logical rule is one row, read at one world of the tree.  The paper's
# nested rules are its treelike labelled rules read at one node, so
# `premises_for` and `nested.nested_premises_for` place the same pieces, the
# one at labels and the other in the tree.  A row gives the connective of
# the principal (None: any formula), the side it sits on, whether the
# premises keep it (the copy rules do), and a function of the principal and
# the parameter (the eigen- or instantiating parameter; None in the
# propositional rules) that gives, for each premise, the tuple
#
#   (ante, succ, world, above)
#
# of the formulas the premise adds to the antecedent and the succedent at
# its world, the (ante, succ) content of a new world above it or None, and
# the formulas it adds to the antecedent of the world above.  A closing rule
# has no premises and no function.
#
# `at` says where the labelled rule puts its pieces: at the principal's
# label (HERE), at a fresh eigenlabel above it, which is also the new world
# (EIGEN), or at the upper label of its relational witness, which is also
# the world above (REL).  The placement is all that separates imp_l,
# forall_l, forall_r, id and id_q from their starred rows; exists_r differs
# from exists_r_star only in its domain side condition.  The rows are in the
# order proof search tries them.

HERE, EIGEN, REL = "here", "eigen", "rel"


@dataclass(frozen=True, slots=True)
class Row:
    shape: type | None
    side: str
    keeps: bool
    pieces: Callable | None
    at: str = HERE


def _inst(f, a: Param) -> Formula:
    return substitute_param(f.body, a, f.var)


def _ante_inst(f, a):
    return (((_inst(f, a),), (), None, ()),)


def _succ_inst(f, a):
    return (((), (_inst(f, a),), None, ()),)


def _imp_l(f, a):
    return (((), (f.left,), None, ()), ((f.right,), (), None, ()))


RULES: dict[Rule, Row] = {
    # closing rules
    Rule.BOT_L: Row(Bot, "ante", True, None),
    Rule.ID: Row(Atom, "ante", True, None, REL),
    Rule.ID_Q: Row(Atom, "ante", True, None, REL),
    Rule.ID_STAR: Row(Atom, "ante", True, None),
    Rule.ID_Q_STAR: Row(Atom, "ante", True, None),
    # consuming rules
    Rule.AND_L: Row(And, "ante", False, lambda f, a: (((f.left, f.right), (), None, ()),)),
    Rule.OR_R: Row(Or, "succ", False, lambda f, a: (((), (f.left, f.right), None, ()),)),
    Rule.AND_R: Row(And, "succ", False,
                    lambda f, a: (((), (f.left,), None, ()), ((), (f.right,), None, ()))),
    Rule.OR_L: Row(Or, "ante", False,
                   lambda f, a: (((f.left,), (), None, ()), ((f.right,), (), None, ()))),
    Rule.IMP_R: Row(Impl, "succ", False,
                    lambda f, a: (((), (), ((f.left,), (f.right,)), ()),), EIGEN),
    Rule.NEG_R: Row(Neg, "succ", False, lambda f, a: (((), (), ((f.body,), ()), ()),), EIGEN),
    Rule.FORALL_R: Row(Forall, "succ", False, _succ_inst, EIGEN),
    Rule.FORALL_R_STAR: Row(Forall, "succ", False, _succ_inst),
    Rule.EXISTS_L: Row(Exists, "ante", False, _ante_inst),
    # copy rules
    Rule.NEG_L: Row(Neg, "ante", True, lambda f, a: (((), (f.body,), None, ()),)),
    Rule.LIFT: Row(None, "ante", True, lambda f, a: (((), (), None, (f,)),), REL),
    Rule.FORALL_L: Row(Forall, "ante", True, _ante_inst, REL),
    Rule.FORALL_L_STAR: Row(Forall, "ante", True, _ante_inst),
    Rule.EXISTS_R: Row(Exists, "succ", True, _succ_inst),
    Rule.EXISTS_R_STAR: Row(Exists, "succ", True, _succ_inst),
    Rule.IMP_L: Row(Impl, "ante", True, _imp_l, REL),
    Rule.IMP_L_STAR: Row(Impl, "ante", True, _imp_l),
}

# The classes of the logical rules, read off the table.  A consuming rule
# replaces its principal, on the side given, by its pieces; a copy rule
# keeps it.  The eigen rules take a fresh label or parameter from their
# witness; the instantiating rules name a parameter by a domain atom.
CLOSERS = tuple(r for r, row in RULES.items() if row.pieces is None)
CONSUMES = {r: row.side for r, row in RULES.items()
            if row.pieces is not None and not row.keeps}
COPIES = tuple(r for r, row in RULES.items() if row.pieces is not None and row.keeps)
EIGEN_LABEL = frozenset(r for r, row in RULES.items() if row.at == EIGEN)
EIGEN_PARAM = frozenset(r for r in CONSUMES if RULES[r].shape in (Forall, Exists))
INSTANTIATES = frozenset(r for r in COPIES if RULES[r].shape in (Forall, Exists))


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
        """Every node, in pre-order, walked with a stack: a nested
        generator would pass each node up through all its ancestors."""
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(n.premises))

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

def _need(cond: bool, msg: str, *args) -> None:
    """Raise SequentError(msg) unless cond; with args, msg is a format
    string filled in only then."""
    if not cond:
        raise SequentError(msg.format(*args) if args else msg)


def premises_for(
    rule: Rule, conclusion: LabelledSequent, w: Witness
) -> tuple[LabelledSequent, ...]:
    s = conclusion
    row = RULES.get(rule)
    if row is None:
        return (_saturation_premise(rule, s, w),)
    _need(w.principal is not None, "{0.value} needs a principal witness", rule)
    f = w.principal[1]
    _need(row.shape is None or isinstance(f, row.shape),
          "{0.value}: principal has the wrong shape", rule)
    _need(w.principal in (s.ante if row.side == "ante" else s.succ),
          "{0.value}: principal occurrence not present", rule)
    _side_conditions(rule, row, s, w)
    if row.pieces is None:
        return ()
    if not row.keeps:
        s = s.remove(ante=[w.principal]) if row.side == "ante" else s.remove(succ=[w.principal])
    return tuple(s.add(*p) for p in placed(rule, w))


def placement(rule: Rule, w: Witness) -> tuple[Label, Param | None]:
    """The label at which the logical rule puts its pieces, and the
    parameter its row reads: the eigenparameter or the instantiating one."""
    at = RULES[rule].at
    label = w.principal[0] if at == HERE else w.label if at == EIGEN else w.rel.v
    if rule in EIGEN_PARAM:
        return label, w.param
    return label, (w.dom.a if rule in INSTANTIATES else None)


def placed(rule: Rule, w: Witness) -> list[tuple]:
    """The pieces of each premise of the logical rule, placed at labels:
    the (rel, dom, ante, succ) that the premise adds.  All of a premise's
    formulas go to one label, since a row with a new world is placed at
    its eigenlabel and a row with pieces above at its relational witness's
    upper label.  An eigenlabel comes with its relational atom and an
    eigenparameter with its domain atom."""
    label, a = placement(rule, w)
    rel = (RelAtom(w.principal[0], label),) if rule in EIGEN_LABEL else ()
    dom = (DomAtom(a, label),) if rule in EIGEN_PARAM else ()
    out = []
    for (ante, succ, world, above) in RULES[rule].pieces(w.principal[1], a):
        if world is not None:
            ante, succ = ante + world[0], succ + world[1]
        ante += above
        out.append((rel, dom, [(label, g) for g in ante] if ante else (),
                    [(label, g) for g in succ] if succ else ()))
    return out


def _side_conditions(rule: Rule, row: Row, s: LabelledSequent, w: Witness) -> None:
    """The relational, domain and eigenvariable conditions of a logical
    rule, and the other occurrence of a closing one."""
    (wl, f) = w.principal
    if row.at == REL:
        _need(w.rel is not None and w.rel in s.rel, "{0.value}: rel witness not in sequent", rule)
        _need(w.rel.w == wl, "{0.value}: rel witness must start at the principal's label", rule)
    elif row.at == EIGEN:
        _need(w.label is not None, "{0.value} needs an eigenlabel", rule)
        _need(w.label not in s.labels(), "eigenvariable {0!r} occurs in conclusion", w.label)
    if rule in EIGEN_PARAM:
        _need(w.param is not None, "{0.value} needs an eigenparameter", rule)
        _need(w.param not in s.params(), "eigenvariable {0!r} occurs in conclusion", w.param)
    elif rule in INSTANTIATES:
        # an instance needs a domain atom, so the labelled calculi allow an
        # empty domain: with no domain atom and no eigenparameter there is
        # no instance, and (forall x. r(x)) -> exists x. r(x) has no proof,
        # though nintqc-star, taking a fresh parameter, proves it
        _need(w.dom is not None and w.dom in s.dom, "{0.value}: domain atom not present", rule)
        if rule is Rule.FORALL_L:
            _need(w.dom.w == w.rel.v, "forall_l: domain atom must sit at the upper label")
        elif rule is Rule.EXISTS_R:
            _need(w.dom.w == wl, "exists_r: domain atom must sit at the principal label")
        else:
            _need(path_exists(s.rel, w.dom.w, wl),
                  "{0.value}: no path from {1!r} to {2!r}", rule, w.dom.w, wl)
    if row.shape is not Atom:
        return
    # the id family: the same atom in the succedent where the row places it
    at = wl if row.at == HERE else w.rel.v
    _need(w.formula == (at, f), "{0.value}: the succedent occurrence must sit at {1!r}", rule, at)
    _need(w.formula in s.succ, "{0.value}: succedent atom not present", rule)
    if rule in (Rule.ID, Rule.ID_STAR):
        _need(not f.args, "{0.value}: predicates with arguments need the id_q rules", rule)
        return
    for a in dict.fromkeys(t for t in f.args if isinstance(t, Param)):
        if rule is Rule.ID_Q:
            _need(DomAtom(a, wl) in s.dom, "id_q: missing domain atom {0!r}", DomAtom(a, wl))
        else:
            _need(any(d.a == a and path_exists(s.rel, d.w, wl) for d in s.dom),
                  "id_q*: no domain atom for {0!r} with a path to {1!r}", a, wl)


def _saturation_premise(rule: Rule, s: LabelledSequent, w: Witness) -> LabelledSequent:
    if rule is Rule.REF:
        _need(w.label is not None, "ref needs a label witness")
        return s.add(rel=[ADDED_ATOM[rule](w)])
    if rule is Rule.TRA:
        _need(w.rel is not None and w.rel2 is not None, "tra needs two rel witnesses")
        _need(w.rel in s.rel and w.rel2 in s.rel, "tra: witnesses not in sequent")
        _need(w.rel.v == w.rel2.w, "tra: witnesses do not compose")
        return s.add(rel=[ADDED_ATOM[rule](w)])
    if rule in (Rule.ND, Rule.CD):
        _need(w.rel is not None and w.rel in s.rel, "{0.value}: rel witness not present", rule)
        _need(w.dom is not None and w.dom in s.dom, "{0.value}: domain atom not present", rule)
        lower = rule is Rule.ND
        _need(w.dom.w == (w.rel.w if lower else w.rel.v),
              "{0.value}: domain atom must sit at the {1} label", rule,
              "lower" if lower else "upper")
        return s.add(dom=[ADDED_ATOM[rule](w)])
    raise SequentError(f"premises_for does not handle {rule.value}")


def _check_admissible(
    rule: Rule, conclusion: LabelledSequent, premises, w: Witness
) -> None:
    _need(len(premises) == _TAG_ARITY[rule], f"{rule.value}: wrong number of premises")
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
    rel_pairs, dom_pairs: their (w, v) and (a, w) pairs, which say whether
    a saturation rule's atom is missing without building the atom;
    ante, succ: the labelled formulas;
    ante_of, succ_of: the occurrences of each connective (keyed by class);
    ante_at, succ_at: the formulas at each label (ordered sets);
    rel_from: the relational atoms from each label.
    """

    def __init__(self, s: LabelledSequent):
        self.rel = dict.fromkeys(s.rel)
        self.dom = dict.fromkeys(s.dom)
        self.rel_pairs = {(r.w, r.v) for r in self.rel}
        self.dom_pairs = {(d.a, d.w) for d in self.dom}
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
    return fresh_label({l.name for l in s.labels()})


def _fresh_param(s: LabelledSequent) -> Param:
    return fresh_param({p.name for p in s.params()})


def _candidate_witnesses(
    rule: Rule, s: LabelledSequent, ix: SequentIndex | None = None, missing: bool = False
) -> Iterator[Witness]:
    """The witnesses worth trying for rule on s, read off the index of s
    (built here when not given) and the rule's row.  Eigenvariables are
    fresh; premises_for still checks every side condition.  With
    `missing`, a saturation rule yields only the witnesses whose added atom
    (`ADDED_ATOM`) is not in s yet, in the same order; other rules ignore
    it."""
    if ix is None:
        ix = SequentIndex(s)
    row = RULES.get(rule)
    if row is None:  # the saturation rules
        have_rel = ix.rel_pairs if missing else ()
        if rule is Rule.REF:
            for l in sorted(s.labels(), key=lambda x: x.name):
                if (l, l) not in have_rel:
                    yield Witness(label=l)
        elif rule is Rule.TRA:
            for r1 in ix.rel:
                for r2 in ix.rel_from.get(r1.v, ()):
                    if (r1.w, r2.v) not in have_rel:
                        yield Witness(rel=r1, rel2=r2)
        elif rule in (Rule.ND, Rule.CD):
            have_dom = ix.dom_pairs if missing else ()
            for r in ix.rel:
                at, to = (r.w, r.v) if rule is Rule.ND else (r.v, r.w)
                for d in ix.dom:
                    if d.w == at and (d.a, to) not in have_dom:
                        yield Witness(rel=r, dom=d)
        return
    # only the id_q rules take atoms with arguments
    plain = rule in (Rule.ID, Rule.ID_STAR)
    if rule in (Rule.ID, Rule.ID_Q):
        for r in ix.rel:
            succ = ix.succ_at.get(r.v, ())
            for f in ix.ante_at.get(r.w, ()):
                if isinstance(f, Atom) and not (plain and f.args) and f in succ:
                    yield Witness(principal=(r.w, f), formula=(r.v, f), rel=r)
        return
    if row.shape is None:
        occs = ix.ante
    else:
        occs = (ix.ante_of if row.side == "ante" else ix.succ_of).get(row.shape, ())
    if row.shape is Atom:  # id*, id_q*
        for occ in occs:
            if not (plain and occ[1].args) and occ in ix.succ:
                yield Witness(principal=occ, formula=occ)
    elif rule in EIGEN_LABEL or rule in EIGEN_PARAM:
        if not occs:
            return
        v = _fresh_label(s) if rule in EIGEN_LABEL else None
        a = _fresh_param(s) if rule in EIGEN_PARAM else None
        for occ in occs:
            yield Witness(principal=occ, label=v, param=a)
    elif row.at == REL:
        for occ in occs:
            for r in ix.rel_from.get(occ[0], ()):
                if rule in INSTANTIATES:  # forall_l: a domain atom at the upper label
                    for d in ix.dom:
                        if d.w == r.v:
                            yield Witness(principal=occ, rel=r, dom=d)
                else:
                    yield Witness(principal=occ, rel=r)
    elif rule in INSTANTIATES:
        # instantiation is witnessed by a domain atom already present
        for occ in occs:
            for d in ix.dom:
                yield Witness(principal=occ, dom=d)
    else:
        for occ in occs:
            yield Witness(principal=occ)
