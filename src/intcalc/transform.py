"""Proof transformations: admissible structural rules as executable
functions, and the elimination pipeline that turns G3Int/G3IntQC
derivations into derivations over the treelike rule sets, ready for the
nested translation.

The rewrites build their nodes unchecked.  Each public transform checks
its result once, every inference of it, before returning it (`_checked`);
a transform that calls another calls its unchecked body, so no result is
checked twice and a node that a later step throws away is never checked.
A failed check is an internal invariant breach, not a user error.

Elimination of ref, tra, nd and cd follows the paper's induction in one
post-order pass (`_eliminate`): a rule is first removed from the subproofs
above an inference, then from the inference itself, so each step works on
a subproof free of that rule and leaves none behind.

The case analysis, written once.  Each of ref, tra, nd and cd adds one
atom; its step drops the atom from the subproof above (`_drop_atom`) and
rewrites the inferences that read its last copy.  The relational rows of
the rule table (id, id_q, imp_l, forall_l, lift) read an atom w<=v and put
their pieces at v; nd and cd read a relational atom and a domain atom at
one end of it; forall_l, exists_r and their starred twins read a domain
atom, and id_q the domain atoms of its parameters at w.  One lemma moves
them: a rule that reads w<=v is its starred twin at v plus a lift of its
principal from w (`_starred_lift`).
- ref (w<=w): a relational row becomes its starred twin at w; a lift, nd
  or cd by w<=w duplicates what it adds, which is contracted.
- tra (w<=u from w<=v, v<=u): a relational row is re-issued at v, reading
  v<=u, under a lift by w<=v (id_q adds the domain atoms it reads at v and
  closes them with nd by w<=v); nd and cd move their domain atom in two
  steps, through v.
- nd and cd (a in D(x) from a source atom): a rule that reads a in D(x)
  names a by the source atom instead; forall_l becomes forall_l* at w over
  a lift of its instance (`_forall_l_star`), and id_q its starred twin
  under a lift.
The expansion of the derived rules (`_expand`) uses the same two rewrites
for id, id_q, imp_l and forall_l.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace as dc_replace

from .formula import (
    Formula,
    Param,
    convert_signature,
    params_of,
    rename_param,
    substitute_param,
)
from .graph import is_treelike, nestify_with_paths, tree_root
from .labelled import (
    ADDED_ATOM,
    ADMISSIBLE_TAGS,
    CALCULI,
    CONSUMES,
    DERIVED,
    EIGEN_LABEL,
    EIGEN_PARAM,
    DomAtom,
    Label,
    LabelledDerivation,
    LabelledFormula,
    LabelledSequent,
    REL,
    RULES,
    RelAtom,
    Rule,
    STRUCTURAL,
    SequentError,
    Witness,
    _multiset_diff,
    check_derivation,
    fresh_label,
    fresh_param,
    placed,
    premises_for,
    substitute_sequent,
)
from .nested import (
    RULE_TO_NESTED,
    NWitness,
    NestedDerivation,
    check_nested_derivation,
)


class TransformError(RuntimeError):
    """Internal invariant breach while rewriting a derivation."""


@dataclass
class TransformReport:
    calculus_in: str
    calculus_out: str
    height_before: int = 0
    height_after: int = 0
    rules_eliminated: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def text(self) -> str:
        lines = [
            f"calculus: {self.calculus_in} -> {self.calculus_out}",
            f"height: {self.height_before} -> {self.height_after}",
        ]
        if self.rules_eliminated:
            pretty = ", ".join(
                f"{r.value} x{n}" for r, n in sorted(
                    self.rules_eliminated.items(), key=lambda kv: kv[0].value
                )
            )
            lines.append(f"eliminated: {pretty}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.extend(f"step: {s}" for s in self.steps)
        return "\n".join(lines) + "\n"


def _checked(what: str, calc: str, d: LabelledDerivation, out: LabelledDerivation,
             same_height: bool = False) -> LabelledDerivation:
    """out, the rewrite of d, once every inference of it checks in calc
    (and, with same_height, once it is as high as d); out is d when nothing
    was rewritten, and is returned unchecked."""
    if out is d:
        return out
    if same_height and out.height() != d.height():
        raise TransformError(f"{what} changed the derivation height")
    ok, where, msg = check_derivation(calc, out)
    if not ok:
        raise TransformError(f"{what} produced a bad inference at {where}: {msg}")
    return out


def _no_tags(d: LabelledDerivation) -> None:
    for n in d.nodes():
        if n.rule in ADMISSIBLE_TAGS:
            raise SequentError(
                f"derivation contains checker-only rule {n.rule.value}; "
                "transformations require real inferences"
            )


def _same(x):
    return x


def _map_witness(w: Witness, label=_same, param=_same, formula=_same) -> Witness:
    """w with `label`, `param` and `formula` applied to every label,
    parameter and formula in it."""
    def opt(f, x):
        return None if x is None else f(x)

    def lf(o):
        return (label(o[0]), formula(o[1]))

    def rel(r):
        return RelAtom(label(r.w), label(r.v))

    return Witness(
        principal=opt(lf, w.principal), rel=opt(rel, w.rel), rel2=opt(rel, w.rel2),
        dom=opt(lambda d: DomAtom(param(d.a), label(d.w)), w.dom),
        label=opt(label, w.label), label2=opt(label, w.label2),
        param=opt(param, w.param), param2=opt(param, w.param2),
        formula=opt(lf, w.formula),
    )


def substitute_derivation(
    d: LabelledDerivation, kind: str, new, old, calc: str
) -> LabelledDerivation:
    """[new/old] through a derivation, height preserving.

    Eigenvariables clashing with either name are renamed first (the
    double-induction recipe), so side conditions survive.
    """
    _no_tags(d)
    return _checked("substitution", calc, d, _substitute(d, kind, new, old), same_height=True)


def _substitute(d: LabelledDerivation, kind: str, new, old) -> LabelledDerivation:
    used = _names_on_clash(d, {new.name, old.name})
    clash = {new, old}

    def sub(x):
        return new if x == old else x

    maps = (dict(label=sub) if kind == "label"
            else dict(param=sub, formula=lambda f: rename_param(f, new, old)))

    def go(n: LabelledDerivation) -> LabelledDerivation:
        n = _rename_eigen(n, clash, used)
        prem = tuple(go(p) for p in n.premises)
        concl = substitute_sequent(n.conclusion, kind, new, old)
        return LabelledDerivation(concl, n.rule, prem, _map_witness(n.witness, **maps))

    return go(d)


def _names_on_clash(d: LabelledDerivation, extra: set[str]):
    """The names a walk of d must avoid when it renames an eigenvariable:
    d's labels and parameters and `extra`.  The set is computed on the first
    call, that is on the first clash, and the same set is returned after,
    so that the fresh names taken are added to it."""
    return functools.cache(lambda: d.all_labels() | d.all_params() | extra)


def _rename_eigen(n: LabelledDerivation, clash: set, used) -> LabelledDerivation:
    """n with its eigenlabel, then its eigenparameter, renamed to a name
    fresh for `used()` where it is in `clash`."""
    for kind, eigen, fresh in (("label", EIGEN_LABEL, fresh_label),
                               ("param", EIGEN_PARAM, fresh_param)):
        old = getattr(n.witness, kind)
        if n.rule in eigen and old in clash:
            new = fresh(used())
            prem = tuple(_substitute(p, kind, new, old) for p in n.premises)
            n = LabelledDerivation(n.conclusion, n.rule, prem,
                                   dc_replace(n.witness, **{kind: new}))
    return n


def weaken_derivation(
    d: LabelledDerivation,
    calc: str,
    rel=(),
    dom=(),
    ante=(),
    succ=(),
) -> LabelledDerivation:
    """Adds the given material to every sequent; height preserving.

    Eigenvariables clashing with the added material are renamed first.
    """
    _no_tags(d)
    return _checked("weakening", calc, d, _weaken(d, rel, dom, ante, succ), same_height=True)


def _weaken(d: LabelledDerivation, rel=(), dom=(), ante=(), succ=()) -> LabelledDerivation:
    rel, dom, ante, succ = tuple(rel), tuple(dom), tuple(ante), tuple(succ)
    if not (rel or dom or ante or succ):
        return d
    extra = LabelledSequent(rel, dom, ante, succ)
    clash = extra.labels() | extra.params()
    used = _names_on_clash(d, {x.name for x in clash})

    def go(n: LabelledDerivation) -> LabelledDerivation:
        n = _rename_eigen(n, clash, used)
        prem = tuple(go(p) for p in n.premises)
        return LabelledDerivation(n.conclusion.add(rel, dom, ante, succ), n.rule, prem, n.witness)

    return go(d)


# ---------------------------------------------------------------------------
# inversion

def _eigen_witness(rule: Rule, occ: LabelledFormula, used: set[str],
                   label: Label | None = None, param: Param | None = None) -> Witness:
    """The witness of the consuming rule on occ; the eigennames it takes and
    is not given are picked fresh from `used`."""
    return Witness(
        principal=occ,
        label=(label or fresh_label(used)) if rule in EIGEN_LABEL else None,
        param=(param or fresh_param(used)) if rule in EIGEN_PARAM else None,
    )


def _pieces(rule: Rule, w: Witness) -> tuple[LabelledSequent, ...]:
    """What each premise of the consuming rule puts in place of its
    principal: its row's pieces, placed at labels."""
    return tuple(LabelledSequent(*p) for p in placed(rule, w))


def invert_derivation(
    d: LabelledDerivation,
    rule: Rule,
    witness: Witness,
    calc: str,
    premise_index: int = 0,
) -> LabelledDerivation:
    """Proof of the designated premise of (rule, witness) at d's conclusion.

    Height preserving except for and_l / exists_l in the extended calculi,
    where lift interaction may grow the proof.
    """
    _no_tags(d)
    return _checked("inversion", calc, d, _inverted(d, rule, witness, premise_index))


def _inverted(d: LabelledDerivation, rule: Rule, witness: Witness,
              premise_index: int) -> LabelledDerivation:
    want = premises_for(rule, d.conclusion, witness)
    if premise_index >= len(want):
        raise SequentError(f"{rule.value} has no premise {premise_index}")
    target = want[premise_index]
    if rule not in CONSUMES:
        # the rule keeps its conclusion in its premises
        c = d.conclusion
        return _weaken(
            d, _multiset_diff(target.rel, c.rel), _multiset_diff(target.dom, c.dom),
            _multiset_diff(target.ante, c.ante), _multiset_diff(target.succ, c.succ),
        )
    used = d.all_labels() | d.all_params()
    pw = _eigen_witness(rule, witness.principal, used, witness.label, witness.param)
    plan = (_pieces(rule, pw)[premise_index], pw)
    out = _invert(d, rule, premise_index, {pw.principal: [plan]}, used)
    if out.conclusion != target:
        raise TransformError(
            f"inversion produced {out.conclusion!r}, wanted {target!r}"
        )
    return out


def _apply_plans(s: LabelledSequent, side: str, occs) -> LabelledSequent:
    for occ, plans in occs.items():
        for piece, _w in plans:
            s = s.remove(**{side: [occ]})
            s = s.add(piece.rel, piece.dom, piece.ante, piece.succ)
    return s


def _invert(
    d: LabelledDerivation,
    rule: Rule,
    idx: int,
    occs: dict[LabelledFormula, list[tuple[LabelledSequent, Witness]]],
    used: set[str],
) -> LabelledDerivation:
    side = CONSUMES[rule]
    n = d
    w = n.witness
    tracked = occs.get(w.principal) if w.principal is not None else None

    # each tracked occurrence has a list of plans: the material replacing
    # it (a piece) and the witness whose eigennames that uses.  The node
    # consumes a tracked occurrence with its own instance of the target
    # rule: the chosen premise subproof realises one plan
    if n.rule is rule and tracked:
        plan_w = tracked[0][1]
        rest = {k: v for k, v in occs.items() if k != w.principal}
        if len(tracked) > 1:
            rest[w.principal] = tracked[1:]
        sub = n.premises[idx]
        # align the node's own fresh names with the plan's
        if plan_w.label is not None and w.label != plan_w.label:
            sub = _substitute(sub, "label", plan_w.label, w.label)
        if plan_w.param is not None and w.param != plan_w.param:
            sub = _substitute(sub, "param", plan_w.param, w.param)
        return _invert(sub, rule, idx, rest, used) if rest else sub

    # lift duplicates a tracked antecedent occurrence into the upper label
    if (
        n.rule is Rule.LIFT
        and side == "ante"
        and tracked
        and n.conclusion.ante.count(w.principal) <= len(tracked)
    ):
        u = w.rel.v
        up_occ = (u, w.principal[1])
        wu = _eigen_witness(rule, up_occ, used)
        grown = dict(occs)
        grown[up_occ] = grown.get(up_occ, []) + [(_pieces(rule, wu)[idx], wu)]
        cur = _invert(n.premises[0], rule, idx, grown, used)
        piece_w, plan_w = tracked[0]
        # unify the eigenparameter of the copy at u, if the rule takes one,
        # with the plan's; then lift each formula of the piece from w up to
        # u and close each domain atom of the piece at u with nd
        if plan_w.param is not None:
            cur = _substitute(cur, "param", plan_w.param, wu.param)
        for (lbl, g) in piece_w.ante:
            cur = LabelledDerivation(cur.conclusion.remove(ante=[(u, g)]), Rule.LIFT, (cur,),
                                     Witness(principal=(lbl, g), rel=w.rel))
        for d in piece_w.dom:
            cur = LabelledDerivation(cur.conclusion.remove(dom=[DomAtom(d.a, u)]), Rule.ND,
                                     (cur,), Witness(rel=w.rel, dom=d))
        return cur

    # context: the tracked occurrences ride along unchanged
    prem = tuple(_invert(p, rule, idx, occs, used) for p in n.premises)
    concl = _apply_plans(n.conclusion, side, occs)
    return LabelledDerivation(concl, n.rule, prem, w)


# ---------------------------------------------------------------------------
# contraction

def contract_derivation(
    d: LabelledDerivation, kind: Rule, duplicate, calc: str
) -> LabelledDerivation:
    """Removes one copy of a duplicated atom (ctr_R) or formula
    (ctr_Fl / ctr_Fr) from the end sequent, rebuilding the proof."""
    _no_tags(d)
    if kind is Rule.CTR_R:
        out = _contract_atom(d, duplicate)
    elif kind is Rule.CTR_FL:
        out = _contract_formula(d, duplicate, True)
    elif kind is Rule.CTR_FR:
        out = _contract_formula(d, duplicate, False)
    else:
        raise SequentError(f"{kind.value} is not a contraction kind")
    return _checked("contraction", calc, d, out)


def _contract_atom(d: LabelledDerivation, dup) -> LabelledDerivation:
    """hp: atoms persist upward, so one copy vanishes from every sequent."""
    is_rel = isinstance(dup, RelAtom)
    count = d.conclusion.count_rel(dup) if is_rel else d.conclusion.count_dom(dup)
    if count < 2:
        raise SequentError(f"duplicate {dup!r} not present twice")
    return _drop_atom(d, dup)


def _drop_atom(d: LabelledDerivation, atom, read=None) -> LabelledDerivation:
    """Proof of d's conclusion minus one copy of the relational or domain
    atom `atom`, which every sequent above keeps, since atoms persist upward.

    While a second copy is left, nothing reads the dropped one, and the walk
    only removes it from each sequent.  At a node n holding the last copy,
    `read(n, target, drop)` rewrites an inference that reads it into a proof
    of `target` (n's conclusion without it), using `drop` on subproofs, or
    returns None when n does not read it."""
    is_rel = isinstance(atom, RelAtom)

    def drop(n: LabelledDerivation) -> LabelledDerivation:
        c = n.conclusion
        target = c.remove(rel=[atom]) if is_rel else c.remove(dom=[atom])
        if read is not None and (c.count_rel(atom) if is_rel else c.count_dom(atom)) < 2:
            new = read(n, target, drop)
            if new is not None:
                return new
        return LabelledDerivation(target, n.rule, tuple(drop(p) for p in n.premises), n.witness)

    return drop(d)


def _contract_formula(
    d: LabelledDerivation, dup: LabelledFormula, left: bool
) -> LabelledDerivation:
    side = "ante" if left else "succ"
    if getattr(d.conclusion, side).count(dup) < 2:
        raise SequentError(f"duplicate {dup!r} not present twice")
    if CONSUMES.get(d.rule) == side and d.witness.principal == dup:
        return _contract_principal(d, dup)
    prem = tuple(_contract_formula(p, dup, left) for p in d.premises)
    return LabelledDerivation(d.conclusion.remove(**{side: [dup]}), d.rule, prem, d.witness)


def _contract_principal(n: LabelledDerivation, dup: LabelledFormula) -> LabelledDerivation:
    """The contracted formula is principal of a consuming rule: in each
    premise, invert the surviving copy with fresh eigennames, merge those
    onto the rule's own, contract the pieces the rule added, and reapply."""
    rule = n.rule
    w = n.witness
    fresh_w = _eigen_witness(rule, dup, n.all_labels() | n.all_params())
    prem = []
    for idx, (sub, piece) in enumerate(zip(n.premises, _pieces(rule, w))):
        p = _inverted(sub, rule, fresh_w, idx)
        if fresh_w.label is not None:
            p = _substitute(p, "label", w.label, fresh_w.label)
        if fresh_w.param is not None:
            p = _substitute(p, "param", w.param, fresh_w.param)
        for atom in piece.rel + piece.dom:
            p = _contract_atom(p, atom)
        for lf in piece.ante:
            p = _contract_formula(p, lf, True)
        for lf in piece.succ:
            p = _contract_formula(p, lf, False)
        prem.append(p)
    concl = n.conclusion.remove(**{CONSUMES[rule]: [dup]})
    return LabelledDerivation(concl, rule, tuple(prem), w)


# ---------------------------------------------------------------------------
# structural-rule elimination

def _eliminate(d: LabelledDerivation, rules: tuple, steps=None) -> LabelledDerivation:
    """Removes every occurrence of `rules`, by induction on the derivation:
    first from the subproofs above an inference, then from the inference
    itself.

    A node whose premises changed is rebuilt.  A node whose rule is in
    `rules` then stands on premises free of them, and its step
    (`_ref_step`, `_tra_step`, `_nd_step`) replaces it by a subproof of the
    same sequent without any occurrence, so the number of occurrences falls
    with every step; the step's note, if any, is appended to `steps`.
    Steps run leftmost-deepest first.

    Checking: each step is held here to its contract, that it keeps the
    sequent and leaves no occurrence behind, but no inference is checked
    while the pass runs: the steps build many nodes that later steps
    replace, and checking each node as it is built would cost most of an
    elimination's time.  The caller checks the pass's result once, every
    inference of it: `eliminate_ref`, `eliminate_tra` and
    `eliminate_nd_cd` before returning it, and `eliminate_structural`
    after each of its phases, besides its input and its output.  Every
    node that reaches a result is checked, in the calculus of the phase
    that built it; only the nodes thrown away go unchecked.
    """
    kind = "/".join(r.value for r in rules)

    def go(n: LabelledDerivation) -> LabelledDerivation:
        prem = tuple(go(p) for p in n.premises)
        if any(a is not b for a, b in zip(prem, n.premises)):
            n = LabelledDerivation(n.conclusion, n.rule, prem, n.witness)
        if n.rule not in rules:
            return n
        new, note = _step(n)
        if new.conclusion != n.conclusion:
            raise TransformError(f"{kind} elimination changed the sequent")
        if _count(new, rules):
            raise TransformError(f"{kind} elimination failed to decrease the measure")
        if steps is not None and note is not None:
            steps.append(note)
        return new

    return go(d)


def _count(d: LabelledDerivation, rules) -> int:
    return sum(1 for n in d.nodes() if n.rule in rules)


def _step(node: LabelledDerivation):
    """(proof of node's conclusion without its own ref/tra/nd/cd inference,
    the note for the report or None)."""
    w = node.witness
    P = node.premises[0]
    atom = ADDED_ATOM[node.rule](w)
    if node.rule is Rule.REF:
        return _ref_step(P, atom), f"ref at {w.label} rewritten"
    if node.rule is Rule.TRA:
        return (_tra_step(P, atom, w.rel, w.rel2),
                f"tra {w.rel!r} ; {w.rel2!r} rewritten")
    return _nd_step(P, atom, w.dom), None


def eliminate_ref(d: LabelledDerivation, calc: str) -> LabelledDerivation:
    """Removes every ref inference; input must be tra-free above each ref."""
    _no_tags(d)
    return _checked("ref elimination", calc, d, _eliminate(d, (Rule.REF,)))


# the relational rows (id, id_q, imp_l, forall_l, lift) read their
# relational atom w<=v and put their pieces at v; each but lift has a
# starred twin, the same rule with v = w, which the rule table places at the
# principal's label
_RELATIONAL = frozenset(r for r, row in RULES.items() if row.at == REL)
_STARRED = {r: Rule(f"{r.value}_star") for r in _RELATIONAL - {Rule.LIFT}}


def _ref_step(P: LabelledDerivation, zz: RelAtom) -> LabelledDerivation:
    """Proof of P's conclusion minus one copy of the self-loop zz."""

    def read(n: LabelledDerivation, target, drop):
        w = n.witness
        if zz not in (w.rel, w.rel2):
            return None
        if n.rule in _STARRED:
            return LabelledDerivation(target, _STARRED[n.rule], tuple(drop(p) for p in n.premises),
                                      Witness(principal=w.principal, formula=w.formula, dom=w.dom))
        if n.rule is Rule.LIFT:
            # self-lift: the premise duplicates the principal formula
            return _contract_formula(drop(n.premises[0]), w.principal, True)
        if n.rule is Rule.ND or n.rule is Rule.CD:
            # w = v = z: the added atom duplicates the source atom
            return drop(_contract_atom(n.premises[0], DomAtom(w.dom.a, zz.w)))
        if n.rule is Rule.TRA:
            raise TransformError("ref elimination hit a tra inference above it")
        raise TransformError(f"ref elimination: unhandled active case {n.rule.value}")

    return _drop_atom(P, zz, read)


def eliminate_tra(d: LabelledDerivation, calc: str) -> LabelledDerivation:
    """Removes every tra inference; input must be ref-free above each tra."""
    _no_tags(d)
    return _checked("tra elimination", calc, d, _eliminate(d, (Rule.TRA,)))


def _tra_step(P: LabelledDerivation, comp: RelAtom, r1: RelAtom,
              r2: RelAtom) -> LabelledDerivation:
    """Proof of P's conclusion minus one copy of the composite w<=u,
    given that w<=v and v<=u remain present."""
    wl, vl = r1.w, r1.v

    def read(n: LabelledDerivation, target, drop):
        w = n.witness
        if comp not in (w.rel, w.rel2):
            return None
        if n.rule in _RELATIONAL:
            # the inference again at v, reading v<=u, then a lift of its
            # principal from w up to v
            up = (vl, w.principal[1])
            doms = [DomAtom(a, vl) for a in params_of(up[1])] if n.rule is Rule.ID_Q else []
            again = LabelledDerivation(target.add(dom=doms, ante=[up]), n.rule,
                                       tuple(_weaken(drop(p), ante=[up]) for p in n.premises),
                                       dc_replace(w, principal=up, rel=r2))
            cur = LabelledDerivation(target.add(dom=doms), Rule.LIFT, (again,),
                                     Witness(principal=w.principal, rel=r1))
            for d in doms:
                cur = LabelledDerivation(cur.conclusion.remove(dom=[d]), Rule.ND, (cur,),
                                         Witness(rel=r1, dom=DomAtom(d.a, wl)))
            return cur
        if n.rule in (Rule.ND, Rule.CD):
            # the domain atom travels in two steps, through v: nd takes it
            # up by w<=v then v<=u, cd down by v<=u then w<=v
            mid = DomAtom(w.dom.a, vl)
            first, second = (r2, r1) if n.rule is Rule.ND else (r1, r2)
            p = _weaken(drop(n.premises[0]), dom=[mid])
            step = LabelledDerivation(p.conclusion.remove(dom=[ADDED_ATOM[n.rule](w)]), n.rule,
                                      (p,), Witness(rel=first, dom=mid))
            return LabelledDerivation(target, n.rule, (step,), Witness(rel=second, dom=w.dom))
        raise TransformError(f"tra elimination: unhandled active case {n.rule.value}")

    return _drop_atom(P, comp, read)


def eliminate_nd_cd(d: LabelledDerivation, calc: str) -> LabelledDerivation:
    """Removes every nd and cd inference; input must be ref/tra-free."""
    if any(n.rule in (Rule.REF, Rule.TRA) for n in d.nodes()):
        raise SequentError("eliminate nd/cd requires a ref/tra-free derivation")
    _no_tags(d)
    return _checked("nd/cd elimination", calc, d, _eliminate(d, (Rule.ND, Rule.CD)))


def _nd_step(P: LabelledDerivation, removed: DomAtom, src: DomAtom) -> LabelledDerivation:
    """Proof of P's conclusion minus one copy of `removed`, given that the
    source domain atom and its relational atom remain present."""

    def read(n: LabelledDerivation, target, drop):
        w = n.witness
        if n.rule is Rule.ID_Q:
            # the atom's parameters must be in the domain of its label
            (pw, pf) = w.principal
            if removed.w == pw and removed.a in pf.args:
                return _starred_lift(target, n.rule, w)
        if w.dom != removed:
            return None
        if n.rule is Rule.FORALL_L:
            return _forall_l_star(target, w, drop(n.premises[0]), src)
        if n.rule in (Rule.FORALL_L_STAR, Rule.EXISTS_R, Rule.EXISTS_R_STAR):
            star = Rule.FORALL_L_STAR if n.rule is Rule.FORALL_L_STAR else Rule.EXISTS_R_STAR
            return LabelledDerivation(target, star, (drop(n.premises[0]),),
                                      Witness(principal=w.principal, dom=src))
        if n.rule in (Rule.ND, Rule.CD):
            raise TransformError("nd/cd elimination hit another nd/cd above it")
        raise TransformError(f"nd/cd elimination: unhandled active case {n.rule.value}")

    return _drop_atom(P, removed, read)


def _starred_lift(concl: LabelledSequent, rule: Rule, w: Witness,
                  prem=()) -> LabelledDerivation:
    """concl from the inference (rule, w) of a relational row with a
    starred twin (id, id_q, imp_l), which reads w<=v, on the premises prem:
    the starred twin at v, on prem weakened by v:A, then a lift of the
    principal w:A up to v."""
    up = (w.rel.v, w.principal[1])
    star = LabelledDerivation(concl.add(ante=[up]), _STARRED[rule],
                              tuple(_weaken(p, ante=[up]) for p in prem),
                              Witness(principal=up, formula=w.formula))
    return LabelledDerivation(concl, Rule.LIFT, (star,),
                              Witness(principal=w.principal, rel=w.rel))


def _forall_l_star(concl: LabelledSequent, w: Witness, prem: LabelledDerivation,
                   dom: DomAtom) -> LabelledDerivation:
    """concl from the forall_l witness w (w:forall x.A, w<=v, a in D(v)) on
    the premise prem, which holds v:A(a): forall_l* at w, naming a by the
    domain atom `dom`, over a lift of A(a) from w up to v."""
    (wl, f) = w.principal
    inst = (wl, substitute_param(f.body, w.dom.a, f.var))
    p = _weaken(prem, ante=[inst])
    lift = LabelledDerivation(p.conclusion.remove(ante=[(w.rel.v, inst[1])]), Rule.LIFT, (p,),
                              Witness(principal=inst, rel=w.rel))
    return LabelledDerivation(concl, Rule.FORALL_L_STAR, (lift,),
                              Witness(principal=w.principal, dom=dom))


# ---------------------------------------------------------------------------
# derived-rule expansion (into the treelike rule set)

def expand_derived_rules(d: LabelledDerivation, calc: str) -> LabelledDerivation:
    """Replaces id, id_q, bot_l, imp_l, forall_l, forall_r and exists_r by
    their expansions over the treelike rule set, converting the signature
    to {~, &, |, ->} (false := p0 & ~p0) on the way.

    Requires a ref/tra/nd/cd-free derivation.
    """
    _no_tags(d)
    for n in d.nodes():
        if n.rule in STRUCTURAL:
            raise SequentError(
                "expand_derived_rules requires structural rules to be eliminated first"
            )
    return _checked("derived-rule expansion", calc, d, _expand(d))


def _conv_formula(f: Formula) -> Formula:
    return convert_signature(f, "toNeg")


def _conv_sequent(s: LabelledSequent, conv=_conv_formula) -> LabelledSequent:
    return LabelledSequent(
        s.rel,
        s.dom,
        tuple((w, conv(f)) for (w, f) in s.ante),
        tuple((w, conv(f)) for (w, f) in s.succ),
    )


def _expand(d: LabelledDerivation) -> LabelledDerivation:
    # a proof repeats its formulas at every node: convert each one once
    conv = functools.cache(_conv_formula)

    def go(n: LabelledDerivation) -> LabelledDerivation:
        w = _map_witness(n.witness, formula=conv)
        concl = _conv_sequent(n.conclusion, conv)
        prem = tuple(go(p) for p in n.premises)

        if n.rule is Rule.BOT_L:
            # false is p0 & ~p0: and_l, then neg_l on ~p0, then id* on p0
            occ = w.principal
            p0, neg = (occ[0], occ[1].left), (occ[0], occ[1].right)
            leaf_c = concl.remove(ante=[occ]).add(ante=[p0, neg], succ=[p0])
            leaf = LabelledDerivation(leaf_c, Rule.ID_STAR, (), Witness(principal=p0, formula=p0))
            negl = LabelledDerivation(leaf_c.remove(succ=[p0]), Rule.NEG_L, (leaf,),
                                      Witness(principal=neg))
            return LabelledDerivation(concl, Rule.AND_L, (negl,), Witness(principal=occ))
        if n.rule in (Rule.ID, Rule.ID_Q, Rule.IMP_L):
            return _starred_lift(concl, n.rule, w, prem)
        if n.rule is Rule.FORALL_L:
            return _forall_l_star(concl, w, prem[0], w.dom)
        if n.rule is Rule.FORALL_R:
            # the eigenlabel is fresh, so collapsing it onto the principal
            # label leaves the context untouched
            wl = w.principal[0]
            p = _ref_step(_substitute(prem[0], "label", wl, w.label), RelAtom(wl, wl))
            return LabelledDerivation(concl, Rule.FORALL_R_STAR, (p,),
                                      Witness(principal=w.principal, param=w.param))
        if n.rule is Rule.EXISTS_R:
            return LabelledDerivation(concl, Rule.EXISTS_R_STAR, prem,
                                      Witness(principal=w.principal, dom=w.dom))
        return LabelledDerivation(concl, n.rule, prem, w)

    return go(d)


# ---------------------------------------------------------------------------
# the full pipeline

_PROP_IN = ("g3int", "g3int-ext", "g3int-tree")
_FO_IN = ("g3intqc", "intqcl", "intqcl-tree")


def eliminate_structural(
    d: LabelledDerivation, calc: str
) -> tuple[LabelledDerivation, TransformReport]:
    """G3Int(QC) derivation -> treelike-rule-set derivation.

    `calc` is the calculus of d: g3int, g3int-ext or g3int-tree
    (propositional), g3intqc, intqcl or intqcl-tree (first-order); any other
    name is a SequentError.  Eliminates ref/tra (then nd/cd in the
    first-order case) topmost-first, then expands the remaining derived
    rules; on theorem-shaped end sequents the output is verified treelike
    at every node.
    """
    if calc in _PROP_IN:
        ambient, target = "g3int-ext", "g3int-tree"
    elif calc in _FO_IN:
        ambient, target = "intqcl", "intqcl-tree"
    else:
        raise SequentError(f"cannot eliminate structural rules from calculus {calc!r}")
    _no_tags(d)
    ok, where, msg = check_derivation(ambient, d)
    if not ok:
        raise SequentError(f"input does not check in {ambient} at {where}: {msg}")
    report = TransformReport(calculus_in=calc, calculus_out=target,
                             height_before=d.height())
    report.rules_eliminated = {
        r: k for r, k in d.rule_counts().items() if r in STRUCTURAL | DERIVED
    }

    end = d.conclusion
    theorem_shape = (
        not end.rel and not end.dom and not end.ante and len(end.succ) == 1
    )
    if not theorem_shape:
        report.warnings.append(
            "end sequent is not of the form '=> w:A'; treelike output not guaranteed"
        )

    steps = report.steps
    # ref and tra interleave, so always rewrite the topmost of either
    d = _checked("ref/tra elimination", ambient, d,
                 _eliminate(d, (Rule.REF, Rule.TRA), steps))
    n_ndcd = _count(d, (Rule.ND, Rule.CD))
    if n_ndcd:
        d = _checked("nd/cd elimination", ambient, d, _eliminate(d, (Rule.ND, Rule.CD)))
        steps.append(f"nd/cd eliminated ({n_ndcd} inference(s))")
    # the output check below is the expansion's check
    d = _expand(d)
    steps.append("derived rules expanded; signature converted to {~,&,|,->}")

    ok, where, msg = check_derivation(target, d)
    if not ok:
        raise TransformError(f"output fails in {target} at {where}: {msg}")
    if theorem_shape:
        root = end.succ[0][0]
        for n in d.nodes():
            r = tree_root(n.conclusion)
            if r is None:
                okt, viol = is_treelike(n.conclusion)
                if not okt:
                    raise TransformError(
                        f"non-treelike sequent in output: {viol.kind}: {viol.detail}"
                    )
            elif r != root:
                raise TransformError(
                    f"output sequent rooted at {r}, expected {root}"
                )
    report.height_after = d.height()
    return d, report


# ---------------------------------------------------------------------------
# labelled-to-nested proof translation

def proof_to_nested(d: LabelledDerivation) -> NestedDerivation:
    """Node-wise nested translation of a treelike-rule-set derivation.

    The output checks in nint-star (propositional) or nintqc-star.
    """
    _no_tags(d)
    fo_rules = CALCULI["intqcl-tree"] - CALCULI["g3int-tree"]
    calc = "nintqc-star" if any(n.rule in fo_rules for n in d.nodes()) else "nint-star"

    def go(n: LabelledDerivation) -> NestedDerivation:
        if n.rule not in RULE_TO_NESTED:
            raise SequentError(
                f"rule {n.rule.value} has no nested counterpart; "
                "run eliminate_structural first"
            )
        okt, viol = is_treelike(n.conclusion)
        if not okt:
            raise TransformError(
                f"non-treelike sequent reached the nested translation: "
                f"{viol.kind}: {viol.detail}"
            )
        nested, paths = nestify_with_paths(n.conclusion)
        w = n.witness
        # the hole is the principal's world; an instantiating rule names its
        # parameter by a domain atom, an eigen rule by the parameter itself
        (wl, f) = w.principal
        nw = NWitness(
            formula=f,
            param=w.param if w.dom is None else w.dom.a,
            child=paths[w.rel.v][-1] if n.rule is Rule.LIFT else None,
        )
        prem = tuple(go(p) for p in n.premises)
        return NestedDerivation(nested, RULE_TO_NESTED[n.rule], paths[wl], prem, nw)

    out = go(d)
    ok, where, msg = check_nested_derivation(calc, out)
    if not ok:
        raise TransformError(f"nested translation fails at {where}: {msg}")
    return out
