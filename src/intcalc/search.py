"""Backward proof search, a propositional decision procedure, and
countermodel extraction.

One search loop (`_Search._search`) serves both notations, since the
paper's nested calculi are a notation for treelike labelled sequents with
the same rules and the same search.  A notation supplies only its rule
groups, its instance enumeration (built with `premises_for` or
`nested_premises_for`), the content the eigen block records at a
world-creating step and the derivation node it builds.  Its extras are
hooks of that notation: the labelled search tries copy targets deep in
the relational order first; the nested search counts the fresh parameters
a branch has brought in against parameter_budget.  The rule groups, the
candidates of each rule and the novelty test (`_adds_new`) are read off
the one rule table in `labelled.py` (`RULES`), over the labelled rules; a
nested calculus uses their images under `nested.RULE_TO_NESTED`, and a
nested rule reads the row of its labelled preimage.

Each node tries, in this order: the closing rules; relational saturation
(labelled only) and the consuming rules, which include the world-creating
rules (imp_r, neg_r, forall_r); then the copy rules, which keep their
principal formula.  The search has one mode in every calculus: the first
applicable instance of a consuming rule is followed without backtracking,
saturation and copy instances that add nothing new are skipped, and the
eigen block (`_fire_eigen`) applies; the search backtracks only over the
copy instances.  Every rule is invertible but the copy rules neg_l, imp_l,
lift, forall_l and exists_r of Fitting's original nint/nintqc, which
consume their principal, so these steps lose no proof; in nint/nintqc they
only prune, and each proof is still built by `nested_premises_for` and
checks (those calculi are incomplete anyway, see `nested.py`).

Two things bound a branch.  The depth bound is a budget spent only by the
rules that can repeat on a branch: the copy rules and the world-creating
rules.  The consuming rules replace their principal by smaller formulas,
so only finitely many of them fit between two charged steps, and they are
free.  The eigen block stops a world-creating rule from re-creating a
world that the branch has already created.

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
searched and is not cached on the sequent: the proof caches keep their
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
    RULES,
    STRUCTURAL,
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

    depth_bound limits the number of copy-rule and world-creating
    inferences along a branch (imp_l, lift, neg_l, the quantifier copy
    rules; imp_r, neg_r, forall_r).  The consuming rules (and_l, and_r,
    or_l, or_r, exists_l, and forall_r_star and the nested forall_r, which
    create no world) and relational saturation (ref, tra, nd, cd) are
    free: the former shrink the sequent and the latter reach a fixpoint
    with the labels fixed.  The consuming rules are applied eagerly
    without backtracking, under the eigen block (`_fire_eigen`); the
    engine backtracks over the copy-rule family and instantiation
    choices, skipping instances that add nothing new.  No sequent is
    pruned for repeating an ancestor (see `_Search._search`).

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
    bound.  The bound
    still caps the search, whose width grows exponentially with it.
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


# ---------------------------------------------------------------------------
# the search kernel

# The rule groups CLOSERS, SATURATE, CONSUME, COPY and CREATES_WORLD, in the
# order the search tries them, over the labelled rules and their classes
# read off the rule table in labelled.py; a nested calculus searches with
# their images under RULE_TO_NESTED, so it has no relational saturation and
# its forall_r, the image of forall_r_star, creates no world.
_GROUPS = (CLOSERS, (Rule.REF, Rule.TRA, Rule.ND, Rule.CD), tuple(CONSUMES), COPIES,
           EIGEN_LABEL)


def _nested_group(group) -> tuple:
    return tuple(dict.fromkeys(RULE_TO_NESTED[r] for r in group if r in RULE_TO_NESTED))


class _Search:
    """The one backward search loop; a notation subclass supplies its rule
    groups (CLOSERS, SATURATE, CONSUME, COPY, CREATES_WORLD), its index
    (`_index`), its instance enumeration (`_instances`), the content the
    eigen block records (`_eigen`) and the derivation node (`_node`), and
    may refine the hooks `_copy_order` and `_fresh_cost`.

    A node that is not answered from the caches builds its sequent's index
    once (`_index`: the labelled `SequentIndex`, or the nested sequent's
    holes in order, each with its `NodeIndex`) and hands it to every
    `_instances` call it makes.  The index is dropped when the node
    returns, so only the nodes of the current branch hold one; cached on
    the sequent, it would live as long as the proof caches (peak memory,
    see above).  Labels and parameters, which every node would otherwise
    recompute per rule, are cached on the sequent.

    Proved sequents are cached, and so is every failure, keyed by the
    sequent and the eigen-block records, with the largest budget that
    failed.
    """

    def __init__(self, cfg: SearchConfig, rules):
        def pick(group):
            return tuple(r for r in group if r in rules)

        self.cfg = cfg
        self.closers = pick(self.CLOSERS)
        # (rules, novel): with novel, only instances that add something new
        self.phases = ((pick(self.SATURATE), True), (pick(self.CONSUME), False))
        self.copies = pick(self.COPY)
        self.proved: dict = {}
        self.failed: dict = {}

    def search(self, goal) -> Optional[Derivation]:
        return self._search(goal, self.cfg.depth_bound, frozenset(), 0)

    # hooks with a default
    def _copy_order(self, s):
        return lambda cands: cands

    def _fresh_cost(self, s, rule, w) -> int:
        return 0

    def _search(self, s, budget: int, records, fresh: int):
        """A derivation of s, or None.

        No check for an ancestor equal to s, or equal up to a renaming of
        labels, is made.  In the invertible calculi none can fire on a
        branch; the argument is given for labelled branches, a nested
        sequent being a treelike labelled one with its children for labels.
        - Labels and atoms are never removed going up, so an ancestor and a
          descendant with equal label and atom counts have no
          world-creating, eigen or saturation step between them.
        - The consuming rules left, the and/or rules, keep their principal
          `_present` and replace it by smaller formulas; each copy step adds
          a formula that was not present at its label.
        - So going up, the set of present (label, side, formula) triples
          grows strictly inside a finite set at each copy step and never
          shrinks, and with no copy step the formulas shrink.  A renaming
          keeps both the size of that set and the size of the formulas, so
          no bijection on labels maps the ancestor onto the descendant.

        In Fitting's nint/nintqc a copy rule consumes its principal, so the
        set above can shrink and a sequent can repeat on a branch, but no
        branch is infinite: each copy and world-creating step spends the
        depth budget, and between two of them the consuming rules shrink
        the sequent.  A repeat costs only search time; an exact-repeat
        prune had 0 hits in 73,091 checks over the 14,133 formulas of the
        graded layers 0-3 in nint at depth 8.
        """
        hit = self.proved.get(s)
        if hit is not None:
            return hit
        if self.failed.get((s, records), -1) >= budget:
            return None
        ix = self._index(s)
        for rule in self.closers:
            for hole, _prem, w in self._instances(rule, s, ix, fresh, False):
                d = self._node(s, rule, hole, (), w)
                self.proved[s] = d
                return d

        def attempt(rule, hole, prem, w, cost, recs, more_fresh):
            subs = []
            for p in prem:
                sub = self._search(p, budget - cost, recs, fresh + more_fresh)
                if sub is None:
                    return None
                subs.append(sub)
            return self._node(s, rule, hole, tuple(subs), w)

        def settle(d):
            if d is not None:
                self.proved[s] = d
            else:
                key = (s, records)
                self.failed[key] = max(self.failed.get(key, -1), budget)
            return d

        for group, novel in self.phases:
            for rule in group:
                cost = 1 if rule in self.CREATES_WORLD else 0
                if cost > budget:
                    continue
                for hole, prem, w in self._instances(rule, s, ix, fresh, novel):
                    recs = records
                    if cost:
                        recs = _fire_eigen(records, *self._eigen(s, hole, w))
                        if recs is None:
                            continue
                    # the premises are provable or nothing is
                    return settle(attempt(rule, hole, prem, w, cost, recs, 0))
        if budget <= 0:
            return settle(None)

        # copy rules: backtrack over instantiation choices
        order = self._copy_order(s)
        for rule in self.copies:
            for hole, prem, w in order(self._instances(rule, s, ix, fresh, True)):
                got = attempt(rule, hole, prem, w, 1, records, self._fresh_cost(s, rule, w))
                if got is not None:
                    return settle(got)
        return settle(None)


# ---------------------------------------------------------------------------
# the labelled notation

def _labelled_adds_new(rule: Rule, w: Witness, ix: SequentIndex) -> bool:
    """`_adds_new` for the copy instance on the indexed sequent: the pieces
    of its row at the label where it places them."""
    l, a = placement(rule, w)
    return _adds_new(RULES[rule].pieces(w.principal[1], a), ix.ante_at.get(l, ()),
                     ix.succ_at.get(l, ()), ix.ante_at.get(l, ()))


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

    CLOSERS, SATURATE, CONSUME, COPY, CREATES_WORLD = _GROUPS

    def __init__(self, cfg: SearchConfig):
        super().__init__(cfg, CALCULI[cfg.calculus])

    def _index(self, s: LabelledSequent) -> SequentIndex:
        return SequentIndex(s)

    def _instances(self, rule: Rule, s: LabelledSequent, ix, fresh, novel: bool):
        """(None, premises, witness) of each instance; with `novel`, only
        the instances that add something new: a saturation rule's witnesses
        are read off what is missing, and a copy instance passes
        `_labelled_adds_new`."""
        copy_test = novel and rule not in STRUCTURAL
        for w in _candidate_witnesses(rule, s, ix, missing=novel):
            if copy_test and not _labelled_adds_new(rule, w, ix):
                continue
            try:
                prem = premises_for(rule, s, w)
            except SequentError:
                continue
            yield None, prem, w

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

class _Nested(_Search):
    """Search over nested sequents.  An instance sits at a hole, and the
    instantiating rules may bring in at most parameter_budget fresh
    parameters along a branch (`fresh` counts them)."""

    CLOSERS, SATURATE, CONSUME, COPY, CREATES_WORLD = map(_nested_group, _GROUPS)

    def __init__(self, cfg: SearchConfig):
        super().__init__(cfg, NESTED_CALCULI[cfg.calculus])

    def _index(self, s: NestedSequent) -> list:
        return index_holes(s)

    def _instances(self, rule: NRule, s: NestedSequent, ix, fresh: int, novel: bool):
        """(hole, premises, witness) of each instance; with `novel`, only
        the instances that add something new (`_adds_new`)."""
        budget_left = self.cfg.parameter_budget - fresh
        for hole, at in ix:
            node = at.node
            for w in _nested_candidates(rule, s, node, at):
                if rule in _INSTANTIATE:
                    is_fresh = w.param not in s.params()
                    if is_fresh and budget_left <= 0:
                        continue
                if novel and not _adds_new(
                    NESTED_ROWS[rule].pieces(w.formula, w.param), at.ante, at.succ,
                    () if w.child is None else node.children[w.child].ante,
                ):
                    continue
                try:
                    prem = nested_premises_for(self.cfg.calculus, rule, s, hole, w)
                except SequentError:
                    continue
                yield hole, prem, w

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
    it is returned; None only exhausts the bound.
    """
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
