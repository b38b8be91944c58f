"""Backward proof search, a propositional decision procedure, and
countermodel extraction.

One search loop (`_Search._search`) serves both notations, since the
paper's nested calculi are a notation for treelike labelled sequents with
the same rules and the same search.  A notation supplies only its rule
groups, its instance enumeration (built with `premises_for` or
`nested_premises_for`), the content the eigen block records at a
world-creating step and the derivation node it builds.  Its extras are
hooks of that notation: the labelled search prunes sequents equal to an
ancestor up to label renaming and tries copy targets deep in the
relational order first; the nested search counts the fresh parameters a
branch has brought in against parameter_budget.  The rule groups are
written once, over the labelled rules, and a nested calculus uses their
images under `nested.RULE_TO_NESTED`.

Each node tries, in this order: the closing rules; the exact-repeat and
notation prunes; relational saturation (labelled only) and the consuming
rules, which include the world-creating rules (imp_r, neg_r, forall_r);
then the copy rules, which keep their principal formula.  In every
calculus but Fitting's original nint/nintqc all rules are invertible, so
the first applicable instance of a consuming rule is followed without
backtracking, and copy instances that add nothing new are skipped.  In
nint/nintqc the copy rules neg_l, imp_l, lift, forall_l and exists_r
consume their principal, so a rule may lose a proof: there the loop
backtracks over the consuming instances too, keeps every copy instance,
and applies no eigen block, whose soundness argument needs invertibility.
Every calculus backtracks over the copy instances.

Two things bound a branch.  The depth bound is a budget spent only by the
rules that can repeat on a branch: the copy rules and the world-creating
rules.  The consuming rules replace their principal by smaller formulas,
so only finitely many of them fit between two charged steps, and they are
free.  With loop_check (the default), the eigen block (`_fire_eigen`)
stops a world-creating rule from re-creating a world that the branch has
already created.

The search pays for bookkeeping per sequent and per node, not per rule.
The labels and parameters of a sequent (and of each formula) are computed
once and cached on it, since sequents are immutable.  Each node builds one
lookup index of its sequent (`labelled.SequentIndex`: the occurrences by
connective and by label, the relational atoms by source label), from which
every rule reads its candidates and the novelty test its per-label sets.
The index lives only while its node is searched and is not cached on the
sequent: the proof caches keep their sequents alive, and an index on each
of them raised the peak memory of the benchmark's `families` workload
from 24 MB to 34 MB.

The small values a search handles most are interned (`formula.Interned`):
labels, relational and domain atoms, parameters and bound variables.
Equal ones are the same object, so they compare and hash by identity in
C, and relational and domain atoms carry their sort key, computed once.
A sequent's canonical sort then reads these keys and each formula's
cached text, and the rule enums hash by identity too.  Formulas
themselves keep structural equality and a cached hash: their text is the
canonical order the proofs depend on, and a global formula table raised
the peak memory of the `decide` workload by about 10 %.

`decide_prop` looks for a small rooted countermodel first
(`kripke.rooted_countermodel`) and runs proof search only when there is
none.

`notFoundWithinBounds` (None results) is never a refutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional, Union

from .formula import (
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Formula,
    Or,
    atoms_of,
    cached,
    fkey,
    params_of,
    substitute_param,
)
from .kripke import (
    KripkeModel,
    enumerate_models,
    rooted_countermodel,
    satisfies,
    satisfies_reference,
)
from .labelled import (
    CALCULI,
    CONSUMES,
    COPIES,
    EIGEN_LABEL,
    DomAtom,
    Label,
    LabelledDerivation,
    LabelledSequent,
    RelAtom,
    Rule,
    SequentError,
    SequentIndex,
    Witness,
    _candidate_witnesses,
    check_derivation,
    premises_for,
)
from .nested import (
    NESTED_CALCULI,
    RULE_TO_NESTED,
    NRule,
    NWitness,
    NestedDerivation,
    NestedSequent,
    _nested_candidates,
    check_nested_derivation,
    nested_premises_for,
)


@dataclass(frozen=True)
class SearchConfig:
    calculus: str = "g3int"
    depth_bound: int = 12
    loop_check: bool = True
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
    with the labels fixed.  Invertible rules are
    applied eagerly without backtracking; the engine backtracks over the
    copy-rule family and instantiation choices.  A sequent exactly equal
    to an ancestor on its branch is always pruned; loop_check additionally
    applies the eigen block (`_fire_eigen`) in the invertible calculi and
    prunes sequents equal to an ancestor up to label renaming.

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
    by saturation, so the end sequent is refuted.  Every rule of these
    calculi is invertible, so the goal is refuted too and has no proof.
    Only the antecedent matters: c must keep what holds at v, not what
    fails there.

    Termination: no branch creates a world twice with the same (F, Γ), and
    Γ ranges over sets of subformulas of the goal, so a branch creates
    finitely many worlds.  Every other step consumes a formula or adds one
    that is not present at its world (`_present`), so in the propositional
    calculi every branch is finite even without the depth bound.  The bound
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


# ---------------------------------------------------------------------------
# loop check: equality up to a label renaming

@cached
def _fingerprint(s: LabelledSequent):
    return (
        len(s.rel), len(s.dom),
        tuple(sorted(fkey(f) for (_, f) in s.ante)),
        tuple(sorted(fkey(f) for (_, f) in s.succ)),
    )


def _renaming_equal(s1: LabelledSequent, s2: LabelledSequent) -> bool:
    if _fingerprint(s1) != _fingerprint(s2):
        return False
    l1 = sorted({l.name for l in s1.labels()})
    l2 = sorted({l.name for l in s2.labels()})
    if len(l1) != len(l2):
        return False

    def local_sig(s: LabelledSequent, l: str):
        return (
            tuple(sorted(fkey(f) for (w, f) in s.ante if w.name == l)),
            tuple(sorted(fkey(f) for (w, f) in s.succ if w.name == l)),
            sum(1 for r in s.rel if r.w.name == l),
            sum(1 for r in s.rel if r.v.name == l),
            tuple(sorted(d.a.name for d in s.dom if d.w.name == l)),
        )

    sig1 = {l: local_sig(s1, l) for l in l1}
    sig2 = {l: local_sig(s2, l) for l in l2}

    def extend(i: int, m: dict[str, str], used: set[str]) -> bool:
        if i == len(l1):
            ren = {Label(a): Label(b) for a, b in m.items()}
            img = LabelledSequent(
                tuple(RelAtom(ren[r.w], ren[r.v]) for r in s1.rel),
                tuple(DomAtom(d.a, ren[d.w]) for d in s1.dom),
                tuple((ren[w], f) for (w, f) in s1.ante),
                tuple((ren[w], f) for (w, f) in s1.succ),
            )
            return img == s2
        a = l1[i]
        for b in l2:
            if b in used or sig1[a] != sig2[b]:
                continue
            m[a] = b
            used.add(b)
            if extend(i + 1, m, used):
                return True
            del m[a]
            used.discard(b)
        return False

    return extend(0, {}, set())


# ---------------------------------------------------------------------------
# the search kernel

# The rule groups, in the order the search tries them, over the labelled
# rules and their classes in labelled.py; a nested calculus searches with
# their images under RULE_TO_NESTED, so it has no relational saturation and
# its forall_r, the image of forall_r_star, creates no world.
_CLOSERS = (Rule.BOT_L, Rule.ID, Rule.ID_Q, Rule.ID_STAR, Rule.ID_Q_STAR)
_SATURATE = (Rule.REF, Rule.TRA, Rule.ND, Rule.CD)
_CONSUME = tuple(CONSUMES)
_CREATES_WORLD = EIGEN_LABEL
_COPY = COPIES


def _nested_group(group) -> tuple:
    return tuple(dict.fromkeys(RULE_TO_NESTED[r] for r in group if r in RULE_TO_NESTED))


class _Search:
    """The one backward search loop; a notation subclass supplies its rule
    groups (CLOSERS, SATURATE, CONSUME, COPY, CREATES_WORLD), its instance
    enumeration (`_instances`), the content the eigen block records
    (`_eigen`) and the derivation node (`_node`), and may refine the hooks
    `_index`, `_pruned`, `_copy_order` and `_fresh_cost`.

    A node that is not answered from the caches builds its sequent's index
    once (`_index`: the labelled `SequentIndex`, none for nested sequents)
    and hands it to every `_instances` call it makes.  The index is dropped
    when the node returns, so only the nodes of the current branch hold
    one; cached on the sequent, it would live as long as the proof caches
    (peak memory, see above).  Labels and parameters, which every node
    would otherwise recompute per rule, are cached on the sequent.

    Proved sequents are cached; failed sequents are cached only when no
    ancestor-loop prune fired below them (pure failures), keyed by the
    sequent and the eigen-block records, with the largest budget that
    failed.
    """

    def __init__(self, cfg: SearchConfig, rules):
        def pick(group):
            return tuple(r for r in group if r in rules)

        self.cfg = cfg
        # every rule is invertible but in Fitting's original nint/nintqc,
        # whose copy rules consume their principal formula
        self.invertible = cfg.calculus not in ("nint", "nintqc")
        self.block = self.invertible and cfg.loop_check
        self.closers = pick(self.CLOSERS)
        # (rules, novel): with novel, only instances that add something new
        self.phases = ((pick(self.SATURATE), True), (pick(self.CONSUME), False))
        self.copies = pick(self.COPY)
        self.proved: dict = {}
        self.failed: dict = {}

    def search(self, goal) -> Optional[Derivation]:
        out, _pure = self._search(
            goal, self.cfg.depth_bound, (), frozenset(), frozenset(), 0
        )
        return out

    # hooks with a default
    def _index(self, s):
        return None

    def _pruned(self, s, history) -> bool:
        return False

    def _copy_order(self, s):
        return lambda cands: cands

    def _fresh_cost(self, s, rule, w) -> int:
        return 0

    def _search(self, s, budget: int, history, hset, records, fresh: int):
        hit = self.proved.get(s)
        if hit is not None:
            return hit, True
        if self.failed.get((s, records), -1) >= budget:
            return None, True
        ix = self._index(s)
        for rule in self.closers:
            for hole, _prem, w in self._instances(rule, s, ix, fresh, False):
                d = self._node(s, rule, hole, (), w)
                self.proved[s] = d
                return d, True
        if s in hset or self._pruned(s, history):
            return None, False
        hist = history + (s,)
        hs = hset | {s}

        def attempt(rule, hole, prem, w, cost, recs, more_fresh):
            subs = []
            for p in prem:
                sub, pure = self._search(
                    p, budget - cost, hist, hs, recs, fresh + more_fresh
                )
                if sub is None:
                    return None, pure
                subs.append(sub)
            return self._node(s, rule, hole, tuple(subs), w), True

        def settle(d, pure):
            if d is not None:
                self.proved[s] = d
            elif pure:
                key = (s, records)
                self.failed[key] = max(self.failed.get(key, -1), budget)
            return d, pure

        # only in the invertible calculi can an instance that adds nothing
        # new be skipped
        novel = self.invertible
        all_pure = True
        for group, filtered in self.phases:
            for rule in group:
                cost = 1 if rule in self.CREATES_WORLD else 0
                if cost > budget:
                    continue
                for hole, prem, w in self._instances(
                    rule, s, ix, fresh, novel and filtered
                ):
                    recs = records
                    if cost and self.block:
                        recs = _fire_eigen(records, *self._eigen(s, hole, w))
                        if recs is None:
                            continue
                    got, pure = attempt(rule, hole, prem, w, cost, recs, 0)
                    if got is not None or self.invertible:
                        # invertible: the premises are provable or nothing is
                        return settle(got, pure)
                    all_pure = all_pure and pure
        if budget <= 0:
            return settle(None, all_pure)

        # copy rules: backtrack over instantiation choices
        order = self._copy_order(s)
        for rule in self.copies:
            for hole, prem, w in order(self._instances(rule, s, ix, fresh, novel)):
                got, pure = attempt(
                    rule, hole, prem, w, 1, records, self._fresh_cost(s, rule, w)
                )
                if got is not None:
                    return settle(got, True)
                all_pure = all_pure and pure
        return settle(None, all_pure)


# ---------------------------------------------------------------------------
# the labelled notation

def _new(f: Formula, ix: SequentIndex, l: Label, ante: bool) -> bool:
    at = ix.ante_at if ante else ix.succ_at
    return not _present(f, at.get(l, ()), ante)


def _adds_new(rule: Rule, w: Witness, ix: SequentIndex) -> bool:
    """Every premise of the saturation or copy instance adds something
    that the sequent does not already have."""
    if rule is Rule.REF:
        return RelAtom(w.label, w.label) not in ix.rel
    if rule is Rule.TRA:
        return RelAtom(w.rel.w, w.rel2.v) not in ix.rel
    if rule is Rule.ND:
        return DomAtom(w.dom.a, w.rel.v) not in ix.dom
    if rule is Rule.CD:
        return DomAtom(w.dom.a, w.rel.w) not in ix.dom
    (l, f) = w.principal
    if rule is Rule.NEG_L:
        return _new(f.body, ix, l, False)
    if rule is Rule.LIFT:
        return _new(f, ix, w.rel.v, True)
    if rule in (Rule.IMP_L, Rule.IMP_L_STAR):
        v = w.rel.v if rule is Rule.IMP_L else l
        return _new(f.left, ix, v, False) and _new(f.right, ix, v, True)
    inst = substitute_param(f.body, w.dom.a, f.var)
    if rule is Rule.FORALL_L:
        return _new(inst, ix, w.rel.v, True)
    if rule is Rule.FORALL_L_STAR:
        return _new(inst, ix, l, True)
    return _new(inst, ix, l, False)  # exists_r, exists_r_star


def _label_depths(s: LabelledSequent) -> dict[Label, int]:
    """Longest directed distance from any in-degree-0 label (loops skipped)."""
    labels = sorted(s.labels(), key=lambda l: l.name)
    depth = {l: 0 for l in labels}
    edges = [(r.w, r.v) for r in s.rel if r.w != r.v]
    for _ in range(len(labels)):
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

    CLOSERS, SATURATE, CONSUME, COPY = _CLOSERS, _SATURATE, _CONSUME, _COPY
    CREATES_WORLD = _CREATES_WORLD

    def __init__(self, cfg: SearchConfig):
        super().__init__(cfg, CALCULI[cfg.calculus])

    def _index(self, s: LabelledSequent) -> SequentIndex:
        return SequentIndex(s)

    def _instances(self, rule: Rule, s: LabelledSequent, ix, fresh, novel: bool):
        """(None, premises, witness) of each instance; with `novel`, only
        the instances that add something new (`_adds_new`)."""
        for w in _candidate_witnesses(rule, s, ix):
            if novel and not _adds_new(rule, w, ix):
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

    def _pruned(self, s: LabelledSequent, history) -> bool:
        # equal to an ancestor up to label renaming
        return self.cfg.loop_check and any(_renaming_equal(s, h) for h in history)

    def _copy_order(self, s: LabelledSequent):
        # targets deep in the relational order first
        depth = _label_depths(s)
        return lambda cands: sorted(
            cands, key=lambda c: -depth.get(_copy_target(c[2]), 0)
        )


# ---------------------------------------------------------------------------
# the nested notation

def _n_adds_new(rule: NRule, node: NestedSequent, w) -> bool:
    """Every premise of the copy instance at `node` adds a formula that is
    not yet present where it goes."""
    f = w.formula
    if rule is NRule.NEG_L:
        return not _present(f.body, node.succ, False)
    if rule is NRule.IMP_L:
        return not _present(f.left, node.succ, False) and not _present(
            f.right, node.ante, True
        )
    if rule is NRule.LIFT:
        return not _present(f, node.children[w.child].ante, True)
    inst = substitute_param(f.body, w.param, f.var)
    if rule is NRule.FORALL_L:
        return not _present(inst, node.ante, True)
    return not _present(inst, node.succ, False)  # exists_r


_INSTANTIATE = (NRule.FORALL_L, NRule.EXISTS_R)


class _Nested(_Search):
    """Search over nested sequents.  An instance sits at a hole, and the
    instantiating rules may bring in at most parameter_budget fresh
    parameters along a branch (`fresh` counts them)."""

    CLOSERS, SATURATE, CONSUME, COPY = (
        _nested_group(g) for g in (_CLOSERS, _SATURATE, _CONSUME, _COPY)
    )
    CREATES_WORLD = frozenset(_nested_group(_CREATES_WORLD))

    def __init__(self, cfg: SearchConfig):
        super().__init__(cfg, NESTED_CALCULI[cfg.calculus])

    def _instances(self, rule: NRule, s: NestedSequent, ix, fresh: int, novel: bool):
        """(hole, premises, witness) of each instance; with `novel`, only
        the instances that add something new (`_n_adds_new`)."""
        budget_left = self.cfg.parameter_budget - fresh
        for hole in s.holes():
            node = s.at(hole)
            for w in _nested_candidates(rule, s, node):
                if rule in _INSTANTIATE:
                    is_fresh = w.param not in s.params()
                    if is_fresh and budget_left <= 0:
                        continue
                if novel and not _n_adds_new(rule, node, w):
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
    """Exhaustive finite-model search; None only exhausts the bound.

    Propositional formulas are decided up to max_worlds; with quantifiers
    the search is relative to the fixed domain_size and incomplete.
    """
    names = sorted(atoms_of(f))
    arity = {g.name: len(g.args) for g in _subatoms(f)}
    needs_domain = bool(params_of(f)) or any(arity.values()) or _has_quantifier(f)
    dsize = domain_size if domain_size else (1 if needs_domain else 0)
    for m in enumerate_models(max_worlds, names, dsize, arity=arity):
        envs = _param_envs(f, m)
        for env in envs:
            for w in sorted(m.worlds):
                if not satisfies(m, w, f, env):
                    return Countermodel(m, w, env)
    return None


def _subatoms(f: Formula):
    from .formula import subformulas

    return [g for g in subformulas(f) if isinstance(g, Atom)]


def _has_quantifier(f: Formula) -> bool:
    from .formula import subformulas

    return any(isinstance(g, (Forall, Exists)) for g in subformulas(f))


def _param_envs(f: Formula, m: KripkeModel):
    ps = params_of(f)
    if not ps:
        return [dict()]
    dom = m.domain or ("*",)
    return [dict(zip(ps, combo)) for combo in itertools.product(dom, repeat=len(ps))]


@dataclass(frozen=True)
class Decision:
    verdict: str  # "theorem" | "countermodel" | "undecided"
    proof: Optional[Derivation] = None
    countermodel: Optional[Countermodel] = None


_DEPTH_SCHEDULE = (4, 6, 8, 10, 12, 14, 16)


def decide_prop(
    f: Formula, model_bound: int, cfg: SearchConfig
) -> Decision:
    """A countermodel with at most model_bound worlds, else a proof.

    The schedule: first every rooted finite poset with at most model_bound
    worlds is tried, smallest first (`rooted_countermodel`; a formula that
    fails at some world of a model with n worlds fails at the root of a
    rooted poset with at most n worlds, the generated submodel with its
    clusters collapsed).  Only if none refutes f, proof search runs with
    the depth bounds 4, 6, 8, ... up to cfg.depth_bound.

    Never returns both witnesses; a proof re-checks and a countermodel
    re-evaluates to false under the reference evaluator before being
    returned.
    """
    if _has_quantifier(f) or any(g.args for g in _subatoms(f)):
        raise SequentError("decide_prop expects a propositional formula")
    found = rooted_countermodel(f, model_bound) if model_bound >= 1 else None
    if found is not None:
        cm = Countermodel(*found)
        if satisfies_reference(cm.model, cm.world, f, {}):
            raise SequentError("countermodel failed to re-evaluate to false")
        return Decision("countermodel", countermodel=cm)
    goal = _goal_for(f, cfg.calculus)
    depths = [d for d in _DEPTH_SCHEDULE if d < cfg.depth_bound]
    for bound in depths + [cfg.depth_bound]:
        proof = prove(goal, dc_replace(cfg, depth_bound=bound))
        if proof is not None:
            _assert_proof(proof, cfg.calculus)
            return Decision("theorem", proof=proof)
    return Decision("undecided")


def _goal_for(f: Formula, calculus: str):
    from .formula import convert_signature

    if calculus in CALCULI:
        # the plain G3 calculi have no negation rules
        g = convert_signature(f, "toBot") if calculus in ("g3int", "g3intqc") else f
        return LabelledSequent(succ=((Label("w"), g),))
    # the nested calculi have no bottom rule
    g = convert_signature(f, "toNeg") if _mentions_bot(f) else f
    return NestedSequent(succ=(g,))


def _mentions_bot(f: Formula) -> bool:
    from .formula import subformulas

    return any(isinstance(g, Bot) for g in subformulas(f))


def _assert_proof(proof, calculus: str) -> None:
    if isinstance(proof, LabelledDerivation):
        ok, _, msg = check_derivation(calculus, proof)
    else:
        ok, _, msg = check_nested_derivation(calculus, proof)
    if not ok:
        raise SequentError(f"returned proof fails to check: {msg}")
