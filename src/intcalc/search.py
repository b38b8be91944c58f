"""Backward proof search, a propositional decision procedure, and
countermodel extraction.

One search loop (`_Search._search`) serves both notations, since the
paper's nested calculi are a notation for treelike labelled sequents with
the same rules and the same search.  A notation supplies only its rule
groups, its candidate enumeration, the premises of an instance (built
with `premises_for` or `nested_premises_for`), the test for a premise that
closes at once, the content the eigen block records at a world-creating
step and the derivation node it builds.  Its extras are hooks of that
notation: among copy instances of equal rank, the labelled search tries
targets deep in the relational order first; the nested search counts the
fresh parameters a branch has brought in against parameter_budget.  The rule groups, the
candidates of each rule and the novelty test (`_adds_new`) are read off
the one rule table in `labelled.py` (`RULES`), over the labelled rules; a
nested calculus uses their images under `nested.RULE_TO_NESTED`, and a
nested rule reads the row of its labelled preimage.

Each node tries, in this order: the closing rules; relational saturation
(labelled only) and the consuming rules, which include the world-creating
rules (imp_r, neg_r, forall_r); then the copy rules, which keep their
principal formula.  The search has one mode in every calculus and never
backtracks: the first applicable instance of a consuming rule is followed,
saturation instances that add nothing new are skipped, and the eigen block
(`_fire_eigen`) applies.  The copy phase commits to one novel copy
instance over all copy rules, picked in a fair order (`_rank`): first an
instance with a premise that closes at once, then one with a single
premise, then the rest, ties in enumeration order.  Every rule is
invertible but the copy rules neg_l, imp_l, lift, forall_l and exists_r of
Fitting's original nint/nintqc, which consume their principal, so these
commitments lose no proof; in nint/nintqc they lose a few, and each proof
is still built by `nested_premises_for` and checks (those calculi are
incomplete anyway, see `nested.py`).

The depth bound counts only the world-creating steps along a branch
(imp_r, neg_r, the labelled forall_r) and, in the first-order calculi, the
steps that bring in an eigenparameter (exists_l, forall_r_star and the
nested forall_r); the eigen block also stops a world-creating rule from
re-creating a world that the branch has already created.  Every other step
is free: the consuming rules replace their principal by smaller formulas,
and a committed copy step adds a formula that is not yet present, so
neither can repeat without end (`_Search._search` gives the argument).

The search pays for bookkeeping per sequent and per node, not per rule.
The labels and parameters of a sequent (and of each formula) are computed
once and cached on it, since sequents are immutable.  Each node builds one
lookup index of its sequent, from which every rule reads its candidates
and the novelty test its sets, in both notations.  A labelled sequent's
index (`labelled.SequentIndex`) holds the occurrences by connective and by
label, the relational atoms by source label and the atoms present, so that
a saturation rule lists only the witnesses whose atom is missing.  A
nested sequent's index (`nested.index_holes`) lists its holes in order,
each with its node's distinct formulas by connective (`nested.NodeIndex`),
so that no rule walks the tree.  The index lives only while its node is
searched and is not cached on the sequent: a derivation keeps its
sequents alive, and an index on each of them raised the peak memory of the
benchmark's `families` workload from 24 MB to 34 MB.

The small values a search handles most are interned (`formula.Interned`):
labels, relational and domain atoms, parameters and bound variables.
Equal ones are the same object, so they compare and hash by identity in
C, and relational and domain atoms carry their sort key, computed once.
A sequent's canonical sort then reads these keys and each formula's
cached text, and the rule enums hash by identity too.  Formulas
themselves keep structural equality and a cached hash: their text is the
canonical order the proofs depend on, and a global formula table raised
the peak memory of the `decide` workload by about 10 %.

Countermodels come from `find_countermodel`.  Every propositional
countermodel, for `decide_prop` and the command line alike, comes from
one engine, `kripke.rooted_countermodel`; the scan over every labelled
model serves only first-order formulas.  `decide_prop` asks for a small
countermodel first and runs proof search, once, only when there is none.
Both `decide_prop` and the command line put a goal into the signature of
its calculus with `goal_for`, which reads the conversion off the rule set.

`notFoundWithinBounds` (None results) is never a refutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .formula import (
    BOT,
    And,
    Atom,
    Bot,
    Formula,
    Neg,
    Or,
    convert_signature,
    params_of,
    subformulas,
)
from .kripke import (
    KripkeModel,
    ModelError,
    _propositional,
    enumerate_models,
    rooted_countermodel,
    satisfies,
    satisfies_reference,
)
from .labelled import (
    CALCULI,
    CLOSERS,
    CONSUMES,
    COPIES,
    EIGEN_LABEL,
    EIGEN_PARAM,
    RULES,
    Label,
    LabelledDerivation,
    LabelledSequent,
    Rule,
    SequentError,
    SequentIndex,
    Witness,
    _candidate_witnesses,
    check_derivation,
    placement,
    premises_for,
)
from .nested import (
    NESTED_CALCULI,
    NESTED_ROWS,
    RULE_TO_NESTED,
    _INSTANTIATE,
    NRule,
    NWitness,
    NestedDerivation,
    NestedSequent,
    _nested_candidates,
    check_nested_derivation,
    index_holes,
    nested_premises_for,
)


@dataclass(frozen=True)
class SearchConfig:
    """The calculus and the bounds of one search.

    depth_bound: the steps allowed along a branch that create a world
    (imp_r, neg_r, the labelled forall_r) or bring in an eigenparameter
    (exists_l, forall_r_star, the nested forall_r); no other step spends
    it.
    parameter_budget: the fresh parameters forall_l and exists_r may
    bring in along a branch, read only by the nested calculi."""

    calculus: str = "g3int"
    depth_bound: int = 12
    parameter_budget: int = 1

    def __post_init__(self) -> None:
        if self.depth_bound < 1:
            raise SequentError("depth_bound must be >= 1")
        if self.parameter_budget < 1:
            raise SequentError("parameter_budget must be >= 1")


Derivation = Union[LabelledDerivation, NestedDerivation]


def prove(goal, cfg: SearchConfig) -> Optional[Derivation]:
    """A checkable derivation of the goal, or None within the bounds.

    depth_bound limits the number of inferences along a branch that create
    a world (imp_r, neg_r, the labelled forall_r) or bring in an
    eigenparameter (exists_l, forall_r_star, the nested forall_r); in the
    propositional calculi only the former.  Every other step is free: the
    other consuming rules (and_l, and_r, or_l, or_r) shrink the sequent,
    relational saturation (ref, tra, nd, cd) reaches a fixpoint with the
    labels fixed, and each copy-rule inference (imp_l, lift, neg_l, the
    quantifier copy rules) adds a formula that is not yet present.  Nothing is backtracked over: the first applicable consuming
    instance is followed under the eigen block (`_fire_eigen`), and then
    one novel copy instance in the fair order of `_Search._search`.  No
    sequent is pruned for repeating an ancestor.

    parameter_budget, the fresh parameters that forall_l and exists_r may
    bring in along a branch, is read only by the nested calculi.
    """
    if isinstance(goal, LabelledSequent):
        if cfg.calculus not in CALCULI:
            raise SequentError(f"unknown calculus {cfg.calculus!r}")
        return _Labelled(cfg).search(goal)
    if isinstance(goal, NestedSequent):
        if cfg.calculus not in NESTED_CALCULI:
            raise SequentError(f"unknown nested calculus {cfg.calculus!r}")
        return _Nested(cfg).search(goal)
    raise SequentError(f"goal must be a labelled or nested sequent, got {goal!r}")


# ---------------------------------------------------------------------------
# the eigen block and the novelty test

def _fire_eigen(records: frozenset, f: Formula, content: frozenset):
    """The eigen block: the records after a world-creating step on f at a
    world whose antecedent is `content`, or None when the step is blocked.

    When a world-creating rule (imp_r, neg_r, forall_r) fires on F at a
    world u, the branch records the pair (F, Γ), where Γ is the set of
    formulas that hold at u at that moment: its antecedent (in a labelled
    sequent, the antecedent at u and at every world below it).  The rule is
    blocked at a world v on F while v's antecedent is exactly a recorded Γ
    for F.  The record keeps the content u had when it fired; u itself has
    consumed F since, so comparing with u's current content would block
    worlds whose subproof is not a repeat (the fault of a history-free
    block).

    Soundness: a blocked rule never loses a proof.  Suppose a branch ends
    with no rule applicable, no closed leaf and no budget cut-off, and
    F = A -> B (or ~A, or a universal) is blocked at v by the record made at
    u.  The world c that u created holds A and refutes B, and c lies above
    u, so everything that held at u when it fired holds at c: Γ holds at c.
    Read the end sequent as a Kripke model (its worlds and order, with
    v <= c added for each block, the atoms of the antecedent as valuation).
    What holds at v is Γ, which holds at c, so the valuation is monotone;
    F fails at v because it fails at c, and every other formula is settled
    by saturation, so the end sequent is refuted.  Every rule but the copy
    rules of nint/nintqc is invertible, so the goal is refuted too and has
    no proof; in nint/nintqc the block only prunes.
    Only the antecedent matters: c must keep what holds at v, not what
    fails there.

    Termination: no branch creates a world twice with the same (F, Γ), and
    Γ ranges over sets of subformulas of the goal, so a branch creates
    finitely many worlds.  Every other step consumes a formula or adds one
    that is not present at its world (`_present`), so in the invertible
    propositional calculi every branch is finite even without the depth
    bound.  The bound counts these world-creating steps only (and, in the
    first-order calculi, the steps that bring in an eigenparameter); with
    the copy steps committed, the search follows one instance per node, so
    its size no longer grows exponentially with the bound.
    """
    key = (f, content)
    if key in records:
        return None
    return records | {key}


def _present(f: Formula, have, ante: bool) -> bool:
    """f is already accounted for among the formulas `have` of one world:
    it occurs there, or the consuming rules have decomposed it there (on
    the left a conjunction into both conjuncts and a disjunction into one
    disjunct; on the right dually).  A copy instance with a premise that
    adds only present formulas is redundant and is skipped."""
    if f in have:
        return True
    if isinstance(f, And):
        if ante:
            return _present(f.left, have, ante) and _present(f.right, have, ante)
        return _present(f.left, have, ante) or _present(f.right, have, ante)
    if isinstance(f, Or):
        if ante:
            return _present(f.left, have, ante) or _present(f.right, have, ante)
        return _present(f.left, have, ante) and _present(f.right, have, ante)
    return False


# The reserved falsum: the nested calculi have no bot_l, so `goal_for` writes
# false as p0 & ~p0.  The nested search never applies and_r to it in a
# succedent.  This loses no proof: p0 & ~p0 is false in every world of every
# model, so a sequent with it in a succedent is refuted by every model that
# refutes the sequent without it, and a branch that ends saturated but for
# this formula still reads as a countermodel (`_fire_eigen`).  Decomposing it
# only lets neg_r create a world for ~p0 on every branch that carries it,
# which spends the depth bound: with the split, the S-axiom instance of
# `tests/test_search.py` is not proved at depth 12.
_FALSUM = convert_signature(BOT, "toNeg")


def _adds_new(pieces, ante, succ, above) -> bool:
    """The novelty test of both notations: every premise of a copy instance
    adds a formula that is not yet present where it goes.  `pieces` are the
    instance's row pieces; `ante` and `succ` the formulas at the world where
    the premise places them, `above` the antecedent of the world above."""
    for (a, c, _world, up) in pieces:
        if not (_some_new(a, ante, True) or _some_new(c, succ, False)
                or _some_new(up, above, True)):
            return False
    return True


def _some_new(fs, have, ante: bool) -> bool:
    for g in fs:
        if not _present(g, have, ante):
            return True
    return False


def _rank(pieces, closes) -> int:
    """The place of a copy instance in the fair order: 0 when some premise
    closes at once (`closes(piece)`, read off the node's index), 1 when
    the instance has one premise, 2 otherwise."""
    if any(map(closes, pieces)):
        return 0
    return 1 if len(pieces) == 1 else 2


# ---------------------------------------------------------------------------
# the search kernel

# The rule groups CLOSERS, SATURATE, CONSUME, COPY, CREATES_WORLD and
# CHARGED, the first four in the order the search tries them, over the
# labelled rules and their classes read off the rule table in labelled.py; a
# nested calculus searches with their images under RULE_TO_NESTED, so it has
# no relational saturation and its forall_r, the image of forall_r_star,
# creates no world.  CHARGED, the steps that spend the depth bound, are those
# that create a world or bring in an eigenparameter.
_GROUPS = (CLOSERS, (Rule.REF, Rule.TRA, Rule.ND, Rule.CD), tuple(CONSUMES), COPIES,
           EIGEN_LABEL, EIGEN_LABEL | EIGEN_PARAM)


def _nested_group(group) -> tuple:
    return tuple(dict.fromkeys(RULE_TO_NESTED[r] for r in group if r in RULE_TO_NESTED))


class _Search:
    """The one backward search loop; a notation subclass supplies its rule
    groups (CLOSERS, SATURATE, CONSUME, COPY, CREATES_WORLD, CHARGED), its index
    (`_index`), its candidate enumeration (`_instances`; `_copies` for the
    novel copy instances and their rank), the premises of an instance
    (`_premises`), the content the eigen block records (`_eigen`) and the
    derivation node (`_node`), and may refine the hooks `_copy_order` and
    `_fresh_cost`.

    Each node builds its sequent's index once (`_index`: the labelled
    `SequentIndex`, or the nested sequent's holes in order, each with its
    `NodeIndex`) and hands it to every `_instances` and `_copies` call it
    makes.  The index is dropped when the node returns, so only the nodes
    of the current branch hold one; cached on the sequent, it would live as
    long as the derivation (peak memory, see above).  Labels and
    parameters, which every node would otherwise recompute per rule, are
    cached on the sequent.  Premises are built only for the instance the
    node follows.

    A search keeps no table of proved or failed sequents: it is a walk of
    (sequent, budget, records, fresh).  The first failure ends it, so it
    visits each node of the tree it builds once: a proved goal's nodes are
    those of the returned derivation, and a failed search stops at its
    first open branch.  Re-deriving a sequent so costs what checking the
    derivation already costs.
    """

    def __init__(self, cfg: SearchConfig, rules):
        def pick(group):
            return tuple(r for r in group if r in rules)

        self.cfg = cfg
        self.closers = pick(self.CLOSERS)
        self.phases = (pick(self.SATURATE), pick(self.CONSUME))
        self.copies = pick(self.COPY)

    def search(self, goal) -> Optional[Derivation]:
        return self._search(goal, self.cfg.depth_bound, frozenset(), 0)

    # hooks with a default
    def _copy_order(self, s):
        return lambda cands: cands

    def _fresh_cost(self, s, rule, w) -> int:
        return 0

    def _fair(self, s, ix, fresh):
        """(rule, hole, witness) of the novel copy instances of s in the
        fair order: those of rank 0 as they come, then those of rank 1,
        then those of rank 2 (`_rank`), each in enumeration order, rule by
        rule and within a rule by `_copy_order`."""
        later = ([], [])
        order = self._copy_order(s)
        for rule in self.copies:
            for rank, hole, w in order(self._copies(rule, s, ix, fresh)):
                if rank:
                    later[rank - 1].append((rule, hole, w))
                else:
                    yield rule, hole, w
        yield from later[0]
        yield from later[1]

    def _search(self, s, budget: int, records, fresh: int):
        """A derivation of s, or None.

        The node follows exactly one instance: the first closing one, else
        the first saturation or consuming one that the eigen block and the
        budget let fire, else one novel copy instance in the fair order
        (`_fair`).  A step is never undone: when a premise fails, so does
        the node.

        Completeness.  In g3int, g3intqc, nint-star and nintqc-star every
        rule is invertible: a premise of an instance is refuted by every
        model that refutes its conclusion, so following any instance loses
        no proof, and the order only decides how soon a proof is found.  A
        branch that ends with no closed leaf, no applicable rule and no
        budget cut-off reads as a countermodel (`_fire_eigen`).

        Finiteness with free copy steps.  Only the world-creating steps
        and those that bring in an eigenparameter spend the depth bound,
        and on a propositional branch the eigen block alone already bounds
        the former.  The latter are charged because first-order logic is
        undecidable: uncharged, a branch could bring in parameters for
        ever, each giving the copy rules new instances (imp_l re-adding a
        consumed universal to the succedent, say).  So a branch has
        finitely many labels and parameters (a nested instantiating rule
        brings in fresh ones only within parameter_budget), and between
        two charged steps
        every branch is finite, in both kinds of calculus:
        - In the invertible calculi the copy rules keep their principal.
          Labels and atoms are never removed going up, the free consuming
          rules (the and/or rules) keep their principal `_present`
          (replaced by its smaller pieces)
          and every copy step adds a formula that was not present at its
          label (the novelty test).  So the set of present
          (label, side, formula) triples, drawn from the subformulas of the
          goal and its instances, grows strictly at each copy step and never
          shrinks: with the labels and parameters fixed there are finitely
          many copy steps, and between two of them the consuming rules
          shrink the sequent.
        - In Fitting's nint/nintqc every copy rule consumes its principal
          and replaces it by smaller formulas at its node (neg_l, imp_l,
          forall_l, exists_r), or moves it into a child node (lift).  Every
          step then replaces one formula occurrence by occurrences that are
          smaller, or as large but one node higher, and the tree is at most
          as high as the goal's plus the bound; that order on the multiset
          of (size, remaining height) pairs is well founded.

        The same facts rule out a sequent repeating on a branch of an
        invertible calculus, so no ancestor check is made (a nested
        sequent is a treelike labelled one with its children for labels):
        an ancestor and a descendant with equal label and atom counts have
        no world-creating, eigen or saturation step between them, and a
        renaming keeps both the number of present triples and the size of
        the formulas.  In nint/nintqc a sequent can repeat on a branch, at
        the cost of search time only; an exact-repeat prune had 0 hits in
        73,091 checks over the 14,133 formulas of the graded layers 0-3 in
        nint at depth 8, under the backtracking search it was written for.
        """
        ix = self._index(s)
        for rule in self.closers:
            for hole, w in self._instances(rule, s, ix, fresh):
                if self._premises(rule, s, hole, w) is not None:
                    return self._node(s, rule, hole, (), w)

        def attempt(rule, hole, prem, w, cost, recs, more_fresh):
            subs = []
            for p in prem:
                sub = self._search(p, budget - cost, recs, fresh + more_fresh)
                if sub is None:
                    return None
                subs.append(sub)
            return self._node(s, rule, hole, tuple(subs), w)

        for group in self.phases:
            for rule in group:
                cost = 1 if rule in self.CHARGED else 0
                if cost > budget:
                    continue
                for hole, w in self._instances(rule, s, ix, fresh):
                    recs = records
                    if rule in self.CREATES_WORLD:
                        recs = _fire_eigen(records, *self._eigen(s, hole, w))
                        if recs is None:
                            continue
                    prem = self._premises(rule, s, hole, w)
                    if prem is not None:
                        # the premises are provable or nothing is
                        return attempt(rule, hole, prem, w, cost, recs, 0)
        for rule, hole, w in self._fair(s, ix, fresh):
            prem = self._premises(rule, s, hole, w)
            if prem is not None:
                more_fresh = self._fresh_cost(s, rule, w)
                return attempt(rule, hole, prem, w, 0, records, more_fresh)
        return None


# ---------------------------------------------------------------------------
# the labelled notation

def _meets(ix: SequentIndex, l: Label, g: Atom, ante: bool, across: bool) -> bool:
    """The atom g, added at label l on the left (`ante`) or on the right,
    is already on the other side at l, or (`across`, by id) at a label
    above l for one on the left, below l for one on the right."""
    if g in (ix.succ_at if ante else ix.ante_at).get(l, ()):
        return True
    if across:
        pairs = ix.rel_pairs
        for u, h in (ix.succ_of if ante else ix.ante_of).get(Atom, ()):
            if h == g and ((l, u) if ante else (u, l)) in pairs:
                return True
    return False


def _label_depths(s: LabelledSequent) -> dict[Label, int]:
    """Longest directed distance from any in-degree-0 label (loops skipped)."""
    depth = dict.fromkeys(s.labels(), 0)
    edges = [(r.w, r.v) for r in s.rel if r.w != r.v]
    for _ in range(len(depth)):
        changed = False
        for (a, b) in edges:
            if depth[b] < depth[a] + 1:
                depth[b] = depth[a] + 1
                changed = True
        if not changed:
            break
    return depth


def _copy_target(w: Witness) -> Label | None:
    if w.rel is not None:
        return w.rel.v
    if w.principal is not None:
        return w.principal[0]
    return None


def _holds_at(s: LabelledSequent, v: Label) -> frozenset:
    """The antecedent formulas at v or at a label with a directed path to v."""
    below = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for r in s.rel:
            if r.v == x and r.w not in below:
                below.add(r.w)
                frontier.append(r.w)
    return frozenset(f for (w, f) in s.ante if w in below)


class _Labelled(_Search):
    """Search over labelled sequents.  Instances have no hole (None)."""

    CLOSERS, SATURATE, CONSUME, COPY, CREATES_WORLD, CHARGED = _GROUPS

    def __init__(self, cfg: SearchConfig):
        super().__init__(cfg, CALCULI[cfg.calculus])
        # how an added formula closes a premise at once: false on the left
        # by bot_l, an atom by id_star at one label or by id across a
        # relational atom
        self.bot = Rule.BOT_L in self.closers
        self.across = Rule.ID in self.closers or Rule.ID_Q in self.closers

    def _index(self, s: LabelledSequent) -> SequentIndex:
        return SequentIndex(s)

    def _instances(self, rule: Rule, s: LabelledSequent, ix, fresh):
        """(None, witness) of each candidate; a saturation rule's are read
        off what is missing."""
        for w in _candidate_witnesses(rule, s, ix, missing=True):
            yield None, w

    def _copies(self, rule: Rule, s: LabelledSequent, ix, fresh):
        """(rank, None, witness) of each copy instance that adds something
        new (`_adds_new`), read off the pieces of its row at the label
        where it places them."""
        row = RULES[rule]
        for w in _candidate_witnesses(rule, s, ix):
            l, a = placement(rule, w)
            pieces = row.pieces(w.principal[1], a)
            ante = ix.ante_at.get(l, ())
            if _adds_new(pieces, ante, ix.succ_at.get(l, ()), ante):
                yield _rank(pieces, lambda p: self._closes(ix, l, p)), None, w

    def _closes(self, ix: SequentIndex, l: Label, piece) -> bool:
        """A premise that adds the row piece at label l closes at once: it
        adds false on the left, or an atom that meets itself (`_meets`)."""
        ante, succ, _world, above = piece
        for g in ante + above:  # a lifted formula goes to the antecedent at l
            if (self.bot and isinstance(g, Bot)
                    or isinstance(g, Atom) and _meets(ix, l, g, True, self.across)):
                return True
        return any(isinstance(g, Atom) and _meets(ix, l, g, False, self.across) for g in succ)

    def _premises(self, rule: Rule, s: LabelledSequent, hole, w: Witness):
        """The premises of the instance, or None when a side condition
        fails."""
        try:
            return premises_for(rule, s, w)
        except SequentError:
            return None

    def _eigen(self, s: LabelledSequent, hole, w: Witness):
        (v, f) = w.principal
        return f, _holds_at(s, v)

    def _node(self, s, rule, hole, subs, w) -> LabelledDerivation:
        return LabelledDerivation(s, rule, subs, w)

    def _copy_order(self, s: LabelledSequent):
        # targets deep in the relational order first
        depth = _label_depths(s)
        return lambda cands: sorted(
            cands, key=lambda c: -depth.get(_copy_target(c[2]), 0)
        )


# ---------------------------------------------------------------------------
# the nested notation

def _closes_at(at, child, piece) -> bool:
    """A premise that adds the row piece at the node of `at` closes at once
    (id, id_q): it adds an atom that the node has on the other side, or
    lifts one into the child that the child's succedent has."""
    ante, succ, _world, above = piece
    return (any(isinstance(g, Atom) and g in at.succ for g in ante)
            or any(isinstance(g, Atom) and g in at.ante for g in succ)
            or any(isinstance(g, Atom) and g in child.succ for g in above))


class _Nested(_Search):
    """Search over nested sequents.  An instance sits at a hole, and the
    instantiating rules may bring in at most parameter_budget fresh
    parameters along a branch (`fresh` counts them)."""

    CLOSERS, SATURATE, CONSUME, COPY, CREATES_WORLD, CHARGED = map(_nested_group, _GROUPS)

    def __init__(self, cfg: SearchConfig):
        super().__init__(cfg, NESTED_CALCULI[cfg.calculus])

    def _index(self, s: NestedSequent) -> list:
        return index_holes(s)

    def _candidates(self, rule: NRule, s: NestedSequent, ix, fresh: int):
        """(hole, its node's index, witness) of each candidate within the
        parameter budget; and_r never takes the reserved falsum (`_FALSUM`)."""
        budget_left = self.cfg.parameter_budget - fresh
        for hole, at in ix:
            for w in _nested_candidates(rule, s, at.node, at):
                if rule in _INSTANTIATE:
                    if budget_left <= 0 and w.param not in s.params():
                        continue
                elif rule is NRule.AND_R and w.formula == _FALSUM:
                    continue
                yield hole, at, w

    def _instances(self, rule: NRule, s: NestedSequent, ix, fresh: int):
        for hole, _at, w in self._candidates(rule, s, ix, fresh):
            yield hole, w

    def _copies(self, rule: NRule, s: NestedSequent, ix, fresh: int):
        """(rank, hole, witness) of each copy instance that adds something
        new (`_adds_new`)."""
        row = NESTED_ROWS[rule]
        for hole, at, w in self._candidates(rule, s, ix, fresh):
            child = None if w.child is None else at.node.children[w.child]
            pieces = row.pieces(w.formula, w.param)
            if _adds_new(pieces, at.ante, at.succ, () if child is None else child.ante):
                yield _rank(pieces, lambda p: _closes_at(at, child, p)), hole, w

    def _premises(self, rule: NRule, s: NestedSequent, hole, w: NWitness):
        """The premises of the instance, or None when a side condition
        fails."""
        try:
            return nested_premises_for(self.cfg.calculus, rule, s, hole, w)
        except SequentError:
            return None

    def _eigen(self, s: NestedSequent, hole, w: NWitness):
        return w.formula, frozenset(s.at(hole).ante)

    def _node(self, s, rule, hole, subs, w) -> NestedDerivation:
        return NestedDerivation(s, rule, hole, subs, w)

    def _fresh_cost(self, s: NestedSequent, rule: NRule, w: NWitness) -> int:
        return int(rule in _INSTANTIATE and w.param not in s.params())

# ---------------------------------------------------------------------------
# countermodels and the decision procedure

@dataclass(frozen=True)
class Countermodel:
    model: KripkeModel
    world: str
    env: dict = field(default_factory=dict)


def find_countermodel(
    f: Formula, max_worlds: int, domain_size: int = 0
) -> Optional[Countermodel]:
    """A finite countermodel with at most max_worlds worlds, or None.

    A propositional formula goes to `rooted_countermodel`, which decides
    it up to max_worlds with the fewest worlds; domain_size is not read.
    A first-order formula is tried on every labelled model over a domain
    of domain_size individuals (at least one), which is incomplete.  The
    scan assumes a nonempty domain, as the nested search does
    (`nested._inst_params`): it misses a countermodel that needs the empty
    domain, such as the one world with no individual that refutes
    (forall x. r(x)) -> exists x. r(x).  A
    countermodel re-evaluates to false under `satisfies_reference` before
    it is returned; None only exhausts the bound.  A negative domain_size
    raises ModelError, whatever the formula.
    """
    if domain_size < 0:
        raise ModelError("domain_size must be >= 0")
    if _propositional(f):
        found = rooted_countermodel(f, max_worlds)
        cm = Countermodel(*found) if found is not None else None
    else:
        cm = next(_scan_models(f, max_worlds, domain_size or 1), None)
    if cm is not None and satisfies_reference(cm.model, cm.world, f, cm.env):
        raise SequentError("countermodel failed to re-evaluate to false")
    return cm


def _scan_models(f: Formula, max_worlds: int, domain_size: int):
    arity = {g.name: len(g.args) for g in subformulas(f) if isinstance(g, Atom)}
    ps = params_of(f)
    for m in enumerate_models(max_worlds, sorted(arity), domain_size, arity=arity):
        for combo in itertools.product(m.domain, repeat=len(ps)):
            env = dict(zip(ps, combo))
            for w in sorted(m.worlds):
                if not satisfies(m, w, f, env):
                    yield Countermodel(m, w, env)


@dataclass(frozen=True)
class Decision:
    verdict: str  # "theorem" | "countermodel" | "undecided"
    proof: Optional[Derivation] = None
    countermodel: Optional[Countermodel] = None


def decide_prop(
    f: Formula, model_bound: int, cfg: SearchConfig
) -> Decision:
    """A countermodel with at most model_bound worlds, else a proof.

    First `find_countermodel` tries the rooted models with at most
    model_bound worlds, smallest first.  Only if none refutes f does proof
    search run, once, at cfg.depth_bound: the search is monotone in its
    budget, so a smaller bound finds no proof that this one misses.

    Never returns both witnesses; a proof re-checks and a countermodel
    re-evaluates to false under the reference evaluator before being
    returned.
    """
    if not _propositional(f):
        raise SequentError("decide_prop expects a propositional formula")
    cm = find_countermodel(f, model_bound) if model_bound >= 1 else None
    if cm is not None:
        return Decision("countermodel", countermodel=cm)
    proof = prove(goal_for(f, cfg.calculus), cfg)
    if proof is None:
        return Decision("undecided")
    ok, _, msg = check_proof(cfg.calculus, proof)
    if not ok:
        raise SequentError(f"returned proof fails to check: {msg}")
    return Decision("theorem", proof=proof)


def goal_for(goal, calculus: str):
    """The goal, a formula or a labelled or nested sequent, as a sequent in
    the signature of the calculus: a formula A becomes `=> w: A` or
    `=> A`, and every formula is converted with `toBot` (~A to A -> false)
    when the calculus has no neg_r, and with `toNeg` (false to p0 & ~p0)
    when it has no bot_l, as no nested calculus has.  A formula already in
    the signature is kept as the same object."""
    rules = CALCULI.get(calculus) or NESTED_CALCULI.get(calculus)
    if rules is None:
        raise SequentError(f"unknown calculus {calculus!r}")
    names = {r.value for r in rules}
    direction, foreign = (("toBot", Neg) if "neg_r" not in names
                          else ("toNeg", Bot) if "bot_l" not in names else (None, None))

    def conv(g: Formula) -> Formula:
        if direction is None or not any(isinstance(h, foreign) for h in subformulas(g)):
            return g
        return convert_signature(g, direction)

    def nested(s: NestedSequent) -> NestedSequent:
        return NestedSequent(tuple(map(conv, s.ante)), tuple(map(conv, s.succ)),
                             tuple(map(nested, s.children)))

    if isinstance(goal, LabelledSequent):
        return LabelledSequent(goal.rel, goal.dom, tuple((l, conv(g)) for l, g in goal.ante),
                               tuple((l, conv(g)) for l, g in goal.succ))
    if isinstance(goal, NestedSequent):
        return nested(goal)
    if calculus in CALCULI:
        return LabelledSequent(succ=((Label("w"), conv(goal)),))
    return NestedSequent(succ=(conv(goal),))


def check_proof(calculus: str, proof: Derivation):
    """(ok, failing node path, message) of the proof in its notation's
    checker."""
    if isinstance(proof, LabelledDerivation):
        return check_derivation(calculus, proof)
    return check_nested_derivation(calculus, proof)
