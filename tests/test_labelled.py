import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from intcalc.formula import (
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Impl,
    Neg,
    Or,
    Param,
    Var,
    parse_formula,
    show_formula,
    subformulas,
)
from intcalc.labelled import (
    ADDED_ATOM,
    CALCULI,
    EIGEN,
    REL,
    RULES,
    DomAtom,
    Label,
    LabelledDerivation,
    LabelledSequent,
    RelAtom,
    Rule,
    SequentError,
    Witness,
    _candidate_witnesses,
    apply_backward,
    check_derivation,
    check_inference,
    parse_sequent,
    path_exists,
    show_sequent,
    substitute_sequent,
)
from intcalc.proofio import dump_proof, load_proof
from intcalc.search import SearchConfig, prove

w, v, u, z = Label("w"), Label("v"), Label("u"), Label("z")
p, q = Atom("p"), Atom("q")


def test_sequent_text_roundtrip():
    texts = [
        "w<=v, a in D(w), w: p(#a) => v: p(#a)",
        " => w: p -> p",
        "w: false => ",
        "w<=v, v<=u, w: p & q, w: p & q => v: p, u: q",
    ]
    for t in texts:
        s = parse_sequent(t)
        assert parse_sequent(show_sequent(s)) == s


def test_multiset_identification():
    a = parse_sequent("w: p, w<=u, u: q => ")
    b = parse_sequent("w<=u, u: q, w: p => ")
    assert a == b
    # but multiplicities matter
    c = parse_sequent("w: p, w: p => ")
    assert c != parse_sequent("w: p => ")


def test_empty_sides_allowed():
    s = parse_sequent(" => ")
    assert not s.ante and not s.succ


# -- single inferences per the rule schemas ---------------------------------

def test_imp_r_checks():
    concl = parse_sequent(" => w: p -> q")
    prem = parse_sequent("w<=v, v: p => v: q")
    wit = Witness(principal=(w, Impl(p, q)), label=v)
    ok, msg = check_inference("g3int", Rule.IMP_R, concl, [prem], wit)
    assert ok, msg


def test_imp_r_eigenvariable_violation():
    concl = parse_sequent("v: q => w: p -> q")
    prem = parse_sequent("w<=v, v: p, v: q => v: q")
    wit = Witness(principal=(w, Impl(p, q)), label=v)
    ok, msg = check_inference("g3int", Rule.IMP_R, concl, [prem], wit)
    assert not ok and "eigenvariable" in msg and "occurs in conclusion" in msg


def test_id_q_star_needs_path():
    concl = parse_sequent("a in D(v), w: p(#a) => w: p(#a)")
    wit = Witness(principal=(w, Atom("p", (Param("a"),))),
                  formula=(w, Atom("p", (Param("a"),))))
    ok, msg = check_inference("intqcl", Rule.ID_Q_STAR, concl, [], wit)
    assert not ok and "path" in msg
    concl2 = parse_sequent("v<=w, a in D(v), w: p(#a) => w: p(#a)")
    ok2, msg2 = check_inference("intqcl", Rule.ID_Q_STAR, concl2, [], wit)
    assert ok2, msg2


def test_imp_l_keeps_principal():
    concl = parse_sequent("w<=v, w: p -> q => ")
    outs = apply_backward("g3int", Rule.IMP_L, concl)
    assert len(outs) == 1
    (prems, wit) = outs[0]
    assert prems[0] == parse_sequent("w<=v, w: p -> q => v: p")
    assert prems[1] == parse_sequent("w<=v, w: p -> q, v: q => ")


def test_rule_not_in_calculus():
    concl = parse_sequent("w: p => w: p")
    wit = Witness(principal=(w, p), formula=(w, p))
    ok, msg = check_inference("g3int", Rule.ID_STAR, concl, [], wit)
    assert not ok and "not in calculus" in msg


def test_check_derivation_section4_proof():
    leaf = LabelledDerivation(
        parse_sequent("w<=v, v<=v, v: p => v: p"),
        Rule.ID, (),
        Witness(principal=(v, p), formula=(v, p), rel=RelAtom(v, v)),
    )
    refn = LabelledDerivation(
        parse_sequent("w<=v, v: p => v: p"), Rule.REF, (leaf,), Witness(label=v)
    )
    root = LabelledDerivation(
        parse_sequent(" => w: p -> p"), Rule.IMP_R, (refn,),
        Witness(principal=(w, parse_formula("p -> p")), label=v),
    )
    ok, where, msg = check_derivation("g3int", root)
    assert ok, msg
    # the calculus without ref rejects the same tree
    ok2, where2, msg2 = check_derivation("g3int-tree", root)
    assert not ok2 and "ref" in msg2


def test_bot_leaf():
    d = LabelledDerivation(
        parse_sequent("w: false => "), Rule.BOT_L, (),
        Witness(principal=(w, parse_formula("false"))),
    )
    assert check_derivation("g3int", d)[0]


def test_check_derivation_reports_failing_node():
    bad_leaf = LabelledDerivation(
        parse_sequent("w: p => v: p"), Rule.ID, (),
        Witness(principal=(w, p), formula=(v, p), rel=RelAtom(w, v)),
    )
    ok, where, msg = check_derivation("g3int", bad_leaf)
    assert not ok and where == ()


# -- backward application ----------------------------------------------------

def test_apply_backward_imp_r():
    goal = parse_sequent(" => w: p -> q")
    outs = apply_backward("g3int", Rule.IMP_R, goal)
    assert len(outs) == 1
    prems, wit = outs[0]
    fresh = wit.label
    assert prems[0] == parse_sequent(f"w<={fresh.name}, {fresh.name}: p => {fresh.name}: q")


def test_apply_backward_inapplicable():
    goal = parse_sequent(" => w: p")
    assert apply_backward("g3int", Rule.AND_L, goal) == []


def test_apply_backward_coherence():
    goals = [
        parse_sequent("w<=v, w: p -> q, w: p & q, v: p | q => v: p, w: q & p"),
        parse_sequent("w<=v, a in D(v), w: forall x. r(x) => v: exists y. r(y)"),
        parse_sequent("w<=v, v<=u, a in D(w), w: p(#a) => u: p(#a)"),
    ]
    for goal in goals:
        for rule in CALCULI["g3intqc"] | CALCULI["intqcl"]:
            for prems, wit in apply_backward("intqcl", rule, goal):
                ok, msg = check_inference("intqcl", rule, goal, prems, wit)
                assert ok, f"{rule.value}: {msg}"


# -- path_exists --------------------------------------------------------------

def test_path_exists_undirected():
    rel = [RelAtom(w, v)]
    assert path_exists(rel, v, w)
    assert path_exists([], w, w)
    assert not path_exists([RelAtom(w, v), RelAtom(u, z)], w, z)


def test_path_exists_chain():
    rel = [RelAtom(w, v), RelAtom(u, v), RelAtom(u, z)]
    assert path_exists(rel, w, z)  # w ~ v ~ u ~ z


# -- substitution -------------------------------------------------------------

def test_substitute_label():
    s = parse_sequent("w<=v, v: p => v: q")
    got = substitute_sequent(s, "label", w, v)
    assert got == parse_sequent("w<=w, w: p => w: q")


def test_substitute_param():
    s = parse_sequent("a in D(w) => w: p(#b)")
    got = substitute_sequent(s, "param", Param("a"), Param("b"))
    assert got == parse_sequent("a in D(w) => w: p(#a)")


def test_substitute_absent_identity():
    s = parse_sequent("w: p => ")
    assert substitute_sequent(s, "label", w, v) == s


# -- admissible-rule tags (checker-only) --------------------------------------

def test_cut_checks():
    concl = parse_sequent("w: p => w: q")
    left = parse_sequent("w: p => w: q, w: p -> q")
    right = parse_sequent("w: p, w: p -> q => w: q")
    wit = Witness(formula=(w, Impl(p, q)))
    ok, msg = check_inference("g3int", Rule.CUT, concl, [left, right], wit)
    assert ok, msg


def test_wk_and_ctr_check():
    concl = parse_sequent("w<=v, w: p => v: p, u: q")
    prem = parse_sequent("w<=v, w: p => v: p")
    ok, msg = check_inference("g3int", Rule.WK, concl, [prem], Witness())
    assert ok, msg
    concl2 = parse_sequent("w: p => ")
    prem2 = parse_sequent("w: p, w: p => ")
    ok2, msg2 = check_inference("g3int", Rule.CTR_FL, concl2, [prem2], Witness())
    assert ok2, msg2
    # contracted material must remain in the conclusion
    bad_prem = parse_sequent("w: p, w: q => ")
    ok3, _ = check_inference("g3int", Rule.CTR_FL, concl2, [bad_prem], Witness())
    assert not ok3


def test_lsub_checks():
    prem = parse_sequent("w<=v, v: p => v: q")
    concl = parse_sequent("w<=w, w: p => w: q")
    wit = Witness(label=w, label2=v)
    ok, msg = check_inference("g3int", Rule.LSUB, concl, [prem], wit)
    assert ok, msg


# -- candidate enumeration: the index against a scan of the whole sequent ----

_X = Var("x")
_LEAVES = [p, q, Bot(), Atom("r", (Param("a"),)), Atom("r", (Param("b"),)),
           Forall(_X, Atom("r", (_X,))), Exists(_X, And(p, Atom("r", (_X,))))]


def _compound(sub):
    return st.one_of(
        st.sampled_from(_LEAVES), st.builds(Neg, sub), st.builds(And, sub, sub),
        st.builds(Or, sub, sub), st.builds(Impl, sub, sub),
        st.builds(Forall, st.just(_X), sub), st.builds(Exists, st.just(_X), sub),
    )


def _formulas():
    """Every main connective about equally often, over small subformulas."""
    return _compound(st.recursive(st.sampled_from(_LEAVES), _compound, max_leaves=3))


@st.composite
def _sequents(draw):
    """Sequents over three labels with relational and domain atoms, and
    formula occurrences drawn from a small pool so that they repeat; the
    pool always has two atoms, so that several id instances can share a
    relational atom."""
    labels = st.sampled_from([w, v, u])
    pool = [p, q] + draw(st.lists(_formulas(), min_size=1, max_size=4))
    occs = st.lists(st.tuples(labels, st.sampled_from(pool)), max_size=8)
    return LabelledSequent(
        tuple(draw(st.lists(st.builds(RelAtom, labels, labels), max_size=6))),
        tuple(draw(st.lists(st.builds(DomAtom, st.sampled_from([Param("a"), Param("b")]),
                                      labels), max_size=4))),
        tuple(draw(occs)),
        tuple(draw(occs)),
    )


def _first_unused(stem, used):
    return next(f"{stem}{i}" for i in itertools.count() if f"{stem}{i}" not in used)


def _scanned_witnesses(rule, s):
    """The candidates of `rule` by scanning every occurrence of the whole
    sequent, in first-occurrence order."""
    rel, dom = list(dict.fromkeys(s.rel)), list(dict.fromkeys(s.dom))
    ante, succ = list(dict.fromkeys(s.ante)), list(dict.fromkeys(s.succ))
    labels = ({r.w.name for r in rel} | {r.v.name for r in rel} | {d.w.name for d in dom}
              | {l.name for (l, _) in ante + succ})
    params = {d.a.name for d in dom} | {
        t.name for (_, f) in ante + succ for g in subformulas(f) if isinstance(g, Atom)
        for t in g.args if isinstance(t, Param)}
    fresh_v, fresh_a = Label(_first_unused("v", labels)), Param(_first_unused("a", params))

    def of(side, shape):
        return [occ for occ in side if isinstance(occ[1], shape)]

    R = Rule
    if rule in (R.ID, R.ID_Q):
        return [Witness(principal=(l, f), formula=(r.v, f), rel=r) for r in rel
                for (l, f) in ante if l == r.w and isinstance(f, Atom) and (r.v, f) in succ
                and (rule is R.ID_Q or not f.args)]
    if rule in (R.ID_STAR, R.ID_Q_STAR):
        return [Witness(principal=o, formula=o) for o in of(ante, Atom) if o in succ
                and (rule is R.ID_Q_STAR or not o[1].args)]
    simple = {R.BOT_L: (ante, Bot), R.AND_L: (ante, And), R.OR_L: (ante, Or),
              R.NEG_L: (ante, Neg), R.IMP_L_STAR: (ante, Impl),
              R.AND_R: (succ, And), R.OR_R: (succ, Or)}
    if rule in simple:
        return [Witness(principal=o) for o in of(*simple[rule])]
    if rule in (R.IMP_R, R.NEG_R):
        return [Witness(principal=o, label=fresh_v)
                for o in of(succ, Impl if rule is R.IMP_R else Neg)]
    if rule is R.FORALL_R:
        return [Witness(principal=o, label=fresh_v, param=fresh_a) for o in of(succ, Forall)]
    if rule is R.FORALL_R_STAR:
        return [Witness(principal=o, param=fresh_a) for o in of(succ, Forall)]
    if rule is R.EXISTS_L:
        return [Witness(principal=o, param=fresh_a) for o in of(ante, Exists)]
    if rule is R.FORALL_L_STAR:
        return [Witness(principal=o, dom=d) for o in of(ante, Forall) for d in dom]
    if rule in (R.EXISTS_R, R.EXISTS_R_STAR):
        return [Witness(principal=o, dom=d) for o in of(succ, Exists) for d in dom]
    if rule in (R.IMP_L, R.LIFT):
        occs = of(ante, Impl) if rule is R.IMP_L else ante
        return [Witness(principal=o, rel=r) for o in occs for r in rel if r.w == o[0]]
    if rule is R.FORALL_L:
        return [Witness(principal=o, rel=r, dom=d) for o in of(ante, Forall)
                for r in rel if r.w == o[0] for d in dom if d.w == r.v]
    if rule is R.REF:
        return [Witness(label=Label(n)) for n in sorted(labels)]
    if rule is R.TRA:
        return [Witness(rel=r1, rel2=r2) for r1 in rel for r2 in rel if r1.v == r2.w]
    if rule in (R.ND, R.CD):
        return [Witness(rel=r, dom=d) for r in rel for d in dom
                if d.w == (r.w if rule is R.ND else r.v)]
    raise AssertionError(f"no scan for {rule}")


@given(_sequents())
@settings(max_examples=300, deadline=None)
def test_indexed_candidates_match_a_full_scan(s):
    for rule in sorted(set().union(*CALCULI.values()), key=lambda r: r.value):
        assert list(_candidate_witnesses(rule, s)) == _scanned_witnesses(rule, s), rule


@given(_sequents())
@settings(max_examples=300, deadline=None)
def test_missing_saturation_witnesses_are_the_full_ones_filtered(s):
    """The search's saturation witnesses are the full enumeration, in its
    order, less those whose added atom is already in s."""
    for rule in (Rule.REF, Rule.TRA, Rule.ND, Rule.CD):
        want = [wit for wit in _candidate_witnesses(rule, s)
                if ADDED_ATOM[rule](wit) not in s.rel + s.dom]
        assert list(_candidate_witnesses(rule, s, missing=True)) == want, rule


def test_every_row_places_a_premise_at_one_label():
    """`placed` puts all of a premise's formulas at one label: a row with a
    new world is placed at its eigenlabel, a row with pieces above at its
    relational witness's upper label."""
    r_x = Atom("r", (_X,))
    sample = {None: p, And: And(p, q), Or: Or(p, q), Impl: Impl(p, q), Neg: Neg(p),
              Forall: Forall(_X, r_x), Exists: Exists(_X, r_x)}
    for rule, row in RULES.items():
        if row.pieces is not None:
            for (_ante, _succ, world, above) in row.pieces(sample[row.shape], Param("a")):
                assert world is None or row.at == EIGEN, rule
                assert not above or row.at == REL, rule


# -- interned names: labels, relational and domain atoms, parameters ----------

_NAMES = [Label("w"), RelAtom(w, v), DomAtom(Param("a"), w), Param("a"), Var("x")]


@pytest.mark.parametrize("x", _NAMES, ids=repr)
def test_copies_keep_identity(x):
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(x, protocol)) is x


def test_interning_is_by_value():
    joined = "".join(["w", str(1)])  # built at run time: another str object
    assert Label(joined) is Label("w1")
    assert Label(name="w") is Label("w") is w
    assert RelAtom(w=w, v=v) is RelAtom(w, v=v) is RelAtom(w, v)
    assert DomAtom(a=Param("a"), w=w) is DomAtom(Param(name="a"), w)
    assert RelAtom(w, v) is not RelAtom(v, w)
    assert Param("a") is not Var("a") and Param("a") != Var("a")
    assert Label("a") != Param("a")
    assert parse_formula("forall x. r(x)").var is Var("x")

    s = parse_sequent("w<=v, a in D(w), w: p(#a) => v: p(#a)")
    assert s.rel[0] is RelAtom(w, v)
    assert s.dom[0] is DomAtom(Param("a"), w)
    assert s.ante[0][0] is w and s.ante[0][1].args[0] is Param("a")
    t = substitute_sequent(s, "label", u, v)
    assert t.rel[0] is RelAtom(w, u) and t.succ[0][0] is u
    t = substitute_sequent(s, "param", Param("b"), Param("a"))
    assert t.dom[0] is DomAtom(Param("b"), w) and t.succ[0][1].args[0] is Param("b")


def test_proof_file_round_trip_interns():
    goal = parse_sequent("a in D(w) => w: (forall x. r(x)) -> forall y. r(y)")
    d = prove(goal, SearchConfig("g3intqc", 10))
    back, _, _ = load_proof(dump_proof(d, "g3intqc"))
    names = ("label", "label2", "param", "param2", "rel", "rel2", "dom")
    for a, b in zip(d.nodes(), back.nodes(), strict=True):
        sa, sb = a.conclusion, b.conclusion
        assert all(x is y for x, y in zip(sa.rel + sa.dom, sb.rel + sb.dom, strict=True))
        assert all(x[0] is y[0] for x, y in zip(sa.ante + sa.succ, sb.ante + sb.succ,
                                                strict=True))
        assert all(getattr(a.witness, n) is getattr(b.witness, n) for n in names)


def test_atom_names_is_frozen():
    names = parse_sequent("w: p & r(#a) => v: q, v: p").atom_names()
    assert type(names) is frozenset and names == {"p", "q", "r"}


# -- the canonical order, on which the proofs found depend --------------------

def _in_canonical_order(s):
    def ordered(xs, key):
        return list(xs) == sorted(xs, key=key)

    def by_text(lf):
        return (lf[0].name, show_formula(lf[1]))

    return (ordered(s.rel, lambda r: (r.w.name, r.v.name))
            and ordered(s.dom, lambda d: (d.a.name, d.w.name))
            and ordered(s.ante, by_text) and ordered(s.succ, by_text))


def test_canonical_order_is_pinned():
    s = parse_sequent("w<=v, v<=u, u<=w, w<=u, b in D(w), a in D(v), a in D(u), "
                      "w: q, v: p, w: p -> q, w: p & q, u: r(#b) "
                      "=> w: q, v: p, u: ~p, u: false")
    assert show_sequent(s) == (
        "u<=w, v<=u, w<=u, w<=v, a in D(u), a in D(v), b in D(w), "
        "u: r(#b), v: p, w: p & q, w: p -> q, w: q => u: false, u: ~p, v: p, w: q")


@given(_sequents(), _sequents(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_every_construction_is_canonical(s, extra, rng):
    """Every sequent is in canonical order, and the edits give exactly the
    order that the constructor's stable sort gives."""
    assert _in_canonical_order(s)
    assert LabelledSequent(*(tuple(reversed(part)) for part in _parts(s))) == s

    def some(xs):
        return rng.sample(xs, rng.randint(0, len(xs)))

    def twins(occs):
        # new occurrence tuples equal to ones already present: every add
        # meets ties, and _same_order tells the tuples apart
        return [(l, f) for (l, f) in some(occs)]

    added = [list(extra.rel) + some(s.rel), list(extra.dom) + some(s.dom),
             list(extra.ante) + twins(s.ante), list(extra.succ) + twins(s.succ)]
    for side in added:
        rng.shuffle(side)
    grown = s.add(*added)
    assert _in_canonical_order(grown)
    assert _same_order(grown, LabelledSequent(*(
        part + tuple(side) for part, side in zip(_parts(s), added))))

    gone = [some(part) for part in _parts(grown)]
    shrunk = grown.remove(*gone)
    assert _in_canonical_order(shrunk)
    assert _same_order(shrunk, LabelledSequent(*map(_filtered, _parts(grown), gone)))
    for new, old in ((z, w), (w, v), (Label("a9"), u)):
        assert _in_canonical_order(substitute_sequent(grown, "label", new, old))
    for new, old in ((Param("c"), Param("a")), (Param("a"), Param("b"))):
        assert _in_canonical_order(substitute_sequent(grown, "param", new, old))


def _parts(s):
    return (s.rel, s.dom, s.ante, s.succ)


def _same_order(a, b):
    """The same items, object for object, in the same tuple order.  Equal
    occurrences built apart are told apart, so an insertion at the wrong end
    of a run of equal keys shows."""
    return all(len(x) == len(y) and all(i is j for i, j in zip(x, y))
               for x, y in zip(_parts(a), _parts(b)))


def _filtered(items, gone):
    out = list(items)
    for g in gone:
        out.remove(g)
    return tuple(out)
