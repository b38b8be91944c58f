import copy

import pytest
from hypothesis import given, settings, strategies as st

from intcalc.formula import (
    And,
    Atom,
    Exists,
    Forall,
    Impl,
    Neg,
    Or,
    Param,
    parse_formula,
    subformulas,
)
from intcalc.graph import labelify, nestify
from intcalc.labelled import (
    DomAtom,
    Label,
    LabelledSequent,
    RelAtom,
    Rule,
    SequentError,
    Witness,
    premises_for,
)
from intcalc.nested import (
    NESTED_CALCULI,
    RULE_TO_NESTED,
    NRule,
    NWitness,
    NestedDerivation,
    NestedSequent,
    _nested_candidates,
    apply_nested_backward,
    check_nested_derivation,
    check_nested_inference,
    edit,
    index_holes,
    nested_premises_for,
    parse_nested,
    show_nested,
)
from intcalc.proofio import dump_proof, load_proof

from test_labelled import _filtered, _first_unused, _formulas

p, q = Atom("p"), Atom("q")


def test_text_roundtrip():
    texts = [
        "p(#a) -> p(#b), [false -> forall x. q(x,#b)]",
        " -> p -> q",
        "(p -> q), r -> s",
        "p -> q, [r -> s, [ -> p]], [q -> ]",
        " -> ",
    ]
    for t in texts:
        s = parse_nested(t)
        assert parse_nested(show_nested(s)) == s


@pytest.mark.parametrize("ante", [
    "forall x. q -> r(x)",
    "exists x. q -> r(x)",
    "~forall x. q -> r(x)",
    "p & forall x. q -> r(x)",
])
def test_quantified_antecedent_roundtrip(ante):
    # a quantifier's scope runs to the end, so it would take in the arrow
    s = NestedSequent((parse_formula(ante),), (Atom("q"),), ())
    assert parse_nested(show_nested(s)) == s


def test_children_compared_as_multiset():
    a = parse_nested("p -> q, [r -> ], [ -> s]")
    b = parse_nested("p -> q, [ -> s], [r -> ]")
    assert a == b


def test_hole_addressing():
    s = parse_nested("p -> q, [r -> s, [ -> p]], [q -> ]")
    holes = list(s.holes())
    assert len(holes) == 4 and () in holes
    # every hole navigates to a node; the grandchild is reachable
    nodes = [s.at(h) for h in holes]
    assert parse_nested(" -> p") in nodes
    with pytest.raises(Exception):
        s.at((5,))


def test_lift_fig3_vs_fig5():
    # conclusion: X, A -> Y, [X' -> Y']
    concl = parse_nested("p, q -> r, [s -> ]")
    wit = NWitness(formula=q, child=0)
    # original rule moves the formula into the bracket
    want_orig = parse_nested("p -> r, [q, s -> ]")
    got = nested_premises_for("nint", NRule.LIFT, concl, (), wit)
    assert got == (want_orig,)
    # starred rule keeps the parent copy
    want_star = parse_nested("p, q -> r, [q, s -> ]")
    got2 = nested_premises_for("nint-star", NRule.LIFT, concl, (), wit)
    assert got2 == (want_star,)


def test_forall_r_eigenparameter():
    concl = parse_nested("r(#a) -> forall x. s(x)")
    bad = NWitness(formula=parse_formula("forall x. s(x)"), param=Param("a"))
    ok, msg = check_nested_inference(
        "nintqc-star", NRule.FORALL_R, concl, (),
        [parse_nested("r(#a) -> s(#a)")], bad,
    )
    assert not ok and "occurs in conclusion" in msg
    good = NWitness(formula=parse_formula("forall x. s(x)"), param=Param("b"))
    ok2, msg2 = check_nested_inference(
        "nintqc-star", NRule.FORALL_R, concl, (),
        [parse_nested("r(#a) -> s(#b)")], good,
    )
    assert ok2, msg2


def test_id_leaf_inside_context():
    concl = parse_nested(" -> [p, q -> p]")
    wit = NWitness(formula=p)
    ok, msg = check_nested_inference("nint-star", NRule.ID, concl, (0,), [], wit)
    assert ok, msg


def test_imp_r_then_id_checks_in_nint():
    goal = parse_nested(" -> p -> p")
    leaf = NestedDerivation(
        parse_nested(" -> [p -> p]"), NRule.ID, (0,), (), NWitness(formula=p)
    )
    d = NestedDerivation(
        goal, NRule.IMP_R, (), (leaf,), NWitness(formula=Impl(p, p))
    )
    ok, where, msg = check_nested_derivation("nint", d)
    assert ok, msg


def test_negative_hole_rejected():
    # a negative index would address the last child: a second path to it
    concl = parse_nested(" -> [p -> p]")
    for path in [(-1,), (0, -1)]:
        with pytest.raises(SequentError):
            concl.at(path)
        with pytest.raises(SequentError):
            concl.replace_at(path, concl)

    def proof(hole):
        leaf = NestedDerivation(concl, NRule.ID, hole, (), NWitness(formula=p))
        return NestedDerivation(parse_nested(" -> p -> p"), NRule.IMP_R, (), (leaf,),
                                NWitness(formula=Impl(p, p)))

    assert check_nested_derivation("nint", proof((0,)))[0]
    assert check_nested_derivation("nint", proof((-1,)))[:2] == (False, (0,))
    assert load_proof(dump_proof(proof((0,)), "nint"))[0] == proof((0,))
    with pytest.raises(SequentError):
        load_proof(dump_proof(proof((-1,)), "nint"))


def test_bad_single_node_rejected():
    d = NestedDerivation(
        parse_nested(" -> p | ~p"), NRule.ID, (), (), NWitness(formula=p)
    )
    ok, _, _ = check_nested_derivation("nint", d)
    assert not ok


def test_neg_chain_in_nint_star():
    # ~(p & ~p) via neg_r, and_l, neg_l, id
    goal = parse_nested(" -> ~(p & ~p)")
    s1 = parse_nested(" -> [p & ~p -> ]")
    s2 = parse_nested(" -> [p, ~p -> ]")
    s3 = parse_nested(" -> [p, ~p -> p]")
    leaf = NestedDerivation(s3, NRule.ID, (0,), (), NWitness(formula=p))
    negl = NestedDerivation(s2, NRule.NEG_L, (0,), (leaf,), NWitness(formula=Neg(p)))
    andl = NestedDerivation(
        s1, NRule.AND_L, (0,), (negl,), NWitness(formula=parse_formula("p & ~p"))
    )
    root = NestedDerivation(
        goal, NRule.NEG_R, (), (andl,), NWitness(formula=parse_formula("~(p & ~p)"))
    )
    ok, where, msg = check_nested_derivation("nint-star", root)
    assert ok, (where, msg)


def test_apply_backward_imp_r():
    goal = parse_nested(" -> p -> q")
    outs = apply_nested_backward("nint", NRule.IMP_R, goal)
    assert len(outs) == 1
    hole, prems, wit = outs[0]
    assert prems[0] == parse_nested(" -> [p -> q]")


def test_apply_backward_lift_star_keeps_copy():
    goal = parse_nested("p -> q, [r -> s]")
    outs = apply_nested_backward("nint-star", NRule.LIFT, goal)
    assert any(
        prems[0] == parse_nested("p -> q, [p, r -> s]") for _, prems, _ in outs
    )


def test_apply_backward_empty_when_inapplicable():
    goal = parse_nested(" -> p")
    assert apply_nested_backward("nint", NRule.AND_R, goal) == []


def test_apply_backward_coherence():
    goals = [
        parse_nested("p -> q, [p & q -> r | s], [ -> p -> q]"),
        parse_nested("forall x. r(x) -> exists y. r(y), [r(#a) -> ]"),
    ]
    for calc in ("nint", "nint-star", "nintqc", "nintqc-star"):
        for goal in goals:
            for rule in NESTED_CALCULI[calc]:
                for hole, prems, wit in apply_nested_backward(calc, rule, goal):
                    ok, msg = check_nested_inference(calc, rule, goal, hole, prems, wit)
                    assert ok, f"{calc}/{rule.value}: {msg}"


def test_original_rules_are_star_instances():
    """Shared-schema rules coincide between the two rule sets on generated
    instances; a copy rule's nint/nintqc premise is its starred premise
    minus one copy of the principal at the hole."""
    shared = [NRule.ID, NRule.AND_L, NRule.OR_R, NRule.OR_L, NRule.AND_R,
              NRule.NEG_R, NRule.IMP_R, NRule.FORALL_R, NRule.EXISTS_L]
    copies = {NRule.NEG_L: "ante", NRule.IMP_L: "ante", NRule.LIFT: "ante",
              NRule.FORALL_L: "ante", NRule.EXISTS_R: "succ"}
    # every node has at most one child, so a hole names the same node in a
    # premise as in the goal
    goals = [
        parse_nested("p & q -> p | q, [ -> ~r]"),
        parse_nested("exists x. r(x) -> forall y. s(y), [p -> p -> q]"),
        parse_nested("~r, (p -> q), (forall x. r(x)) -> exists y. s(y), "
                     "[~q, (q -> p) -> exists x. r(x), [r(#a) -> ]]"),
    ]

    def key(out):
        hole, prems, wit = out
        return (hole, prems, wit.formula, wit.param, wit.child)

    def consumed(out, side):
        hole, prems, wit = out
        drop = {"drop_" + side: [wit.formula]}
        return (hole, tuple(p.replace_at(hole, edit(p.at(hole), **drop)) for p in prems), wit)

    seen = set()
    for goal in goals:
        for rule in shared + list(copies):
            orig = apply_nested_backward("nintqc", rule, goal)
            star = apply_nested_backward("nintqc-star", rule, goal)
            if rule in copies:
                star = [consumed(out, copies[rule]) for out in star]
            assert sorted(map(key, orig), key=repr) == sorted(map(key, star), key=repr)
            seen.update(rule for _ in orig)
    assert set(copies) <= seen


def test_apply_backward_unknown_calculus():
    with pytest.raises(SequentError, match="unknown nested calculus"):
        apply_nested_backward("nope", NRule.IMP_R, parse_nested(" -> p -> q"))


# -- candidate enumeration at every hole, against a scan -----------------------

@st.composite
def _nested_sequents(draw):
    """Trees of depth at most two whose nodes draw their formulas, with
    repeats, from one small pool."""
    pool = draw(st.lists(_formulas(), min_size=1, max_size=4))
    fs = st.lists(st.sampled_from(pool), max_size=5).map(tuple)

    def tree(depth):
        kids = tuple(tree(depth - 1) for _ in range(draw(st.integers(0, 2)))) if depth else ()
        return NestedSequent(draw(fs), draw(fs), kids)

    return tree(2)


def _scanned_nested(rule, goal, node):
    """The candidates of `rule` at `node` by scanning its formulas, with the
    parameters of the whole goal read off every formula of the tree."""
    names = {t.name for f in goal.formulas() for g in subformulas(f) if isinstance(g, Atom)
             for t in g.args if isinstance(t, Param)}
    fresh = Param(_first_unused("a", names))
    ante, succ = list(dict.fromkeys(node.ante)), list(dict.fromkeys(node.succ))
    R = NRule
    if rule in (R.ID, R.ID_Q):
        return [NWitness(formula=f) for f in ante if isinstance(f, Atom) and f in succ
                and (rule is R.ID_Q or not f.args)]
    if rule is R.LIFT:
        return [NWitness(formula=f, child=i) for f in ante for i in range(len(node.children))]
    shapes = {R.AND_L: (ante, And), R.OR_L: (ante, Or), R.NEG_L: (ante, Neg),
              R.IMP_L: (ante, Impl), R.EXISTS_L: (ante, Exists), R.FORALL_L: (ante, Forall),
              R.AND_R: (succ, And), R.OR_R: (succ, Or), R.NEG_R: (succ, Neg),
              R.IMP_R: (succ, Impl), R.FORALL_R: (succ, Forall), R.EXISTS_R: (succ, Exists)}
    side, shape = shapes[rule]
    fs = [f for f in side if isinstance(f, shape)]
    if rule in (R.FORALL_R, R.EXISTS_L):
        return [NWitness(formula=f, param=fresh) for f in fs]
    if rule in (R.FORALL_L, R.EXISTS_R):
        params = [Param(n) for n in sorted(names)] + [fresh]
        return [NWitness(formula=f, param=a) for f in fs for a in params]
    return [NWitness(formula=f) for f in fs]


@given(_nested_sequents())
@settings(max_examples=200, deadline=None)
def test_nested_candidates_match_a_scan_at_every_hole(s):
    """Per hole, and read off the hole index, which lists the holes in
    preorder, as `holes()` does."""
    def preorder(node, path=()):
        yield path
        for i, c in enumerate(node.children):
            yield from preorder(c, path + (i,))

    indexed = index_holes(s)
    assert [hole for hole, _ in indexed] == list(s.holes()) == list(preorder(s))
    for hole, ix in indexed:
        assert ix.node is s.at(hole)
        for rule in NRule:
            want = _scanned_nested(rule, s, s.at(hole))
            assert list(_nested_candidates(rule, s, s.at(hole))) == want, (rule, hole)
            assert list(_nested_candidates(rule, s, ix.node, ix)) == want, (rule, hole)


def _same_tree(a, b):
    """Equal trees whose formulas are the same objects in the same order, so
    that a twin placed at the wrong end of a run of equal keys shows."""
    return (len(a.ante) == len(b.ante) and all(x is y for x, y in zip(a.ante, b.ante))
            and len(a.succ) == len(b.succ) and all(x is y for x, y in zip(a.succ, b.succ))
            and len(a.children) == len(b.children)
            and all(_same_tree(x, y) for x, y in zip(a.children, b.children)))


def _rebuilt(s, path, new):
    """`replace_at` through the public constructor, which sorts every node
    on the path."""
    if not path:
        return new
    kids = list(s.children)
    kids[path[0]] = _rebuilt(kids[path[0]], path[1:], new)
    return NestedSequent(s.ante, s.succ, tuple(kids))


@given(_nested_sequents(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_edits_give_the_stable_sort_order(s, rng):
    # twins (deep copies) are equal to what is there but not the same
    # objects: every insertion and re-placement meets ties
    twin = copy.deepcopy
    subtrees = [s.at(h) for h in s.holes()]

    def some(xs):
        xs = list(xs)
        return rng.sample(xs, rng.randint(0, len(xs)))

    for hole in s.holes():
        node = s.at(hole)
        drop_a, drop_s = some(node.ante), some(node.succ)
        add_a = [twin(f) for f in some(node.ante + node.succ)]
        add_s = [twin(f) for f in some(node.ante + node.succ)]
        add_c = [twin(t) for t in some(subtrees)]
        for side in (add_a, add_s, add_c):
            rng.shuffle(side)
        edited = edit(node, drop_a, drop_s, add_a, add_s, add_c)
        assert _same_tree(edited, NestedSequent(
            _filtered(node.ante, drop_a) + tuple(add_a),
            _filtered(node.succ, drop_s) + tuple(add_s),
            node.children + tuple(add_c)))

        for new in [twin(t) for t in subtrees] + [edited]:
            assert _same_tree(s.replace_at(hole, new), _rebuilt(s, hole, new)), hole

        for f in dict.fromkeys(node.ante):
            for i, kid in enumerate(node.children):
                w = NWitness(formula=twin(f), child=i)
                kids = list(node.children)
                kids[i] = NestedSequent(kid.ante + (w.formula,), kid.succ, kid.children)
                for calc, ante in (("nint-star", node.ante),
                                   ("nint", _filtered(node.ante, [f]))):
                    want = _rebuilt(s, hole, NestedSequent(ante, node.succ, tuple(kids)))
                    (got,) = nested_premises_for(calc, NRule.LIFT, s, hole, w)
                    assert _same_tree(got, want), (calc, hole, i)


# -- the correspondence, rule by rule ------------------------------------------

def _preimage_witness(rule, occ, nw, label, hole, root):
    """The labelled witness of the treelike rule for the nested candidate
    `nw` at the hole, whose label is occ[0]."""
    if rule in (Rule.ID_STAR, Rule.ID_Q_STAR):
        return Witness(principal=occ, formula=occ)
    if rule is Rule.LIFT:
        return Witness(principal=occ, rel=RelAtom(occ[0], label[hole + (nw.child,)]))
    if rule in (Rule.IMP_R, Rule.NEG_R):
        return Witness(principal=occ, label=Label("v0"))  # labelify's labels are w0, w1, ...
    if rule in (Rule.FORALL_R_STAR, Rule.EXISTS_L):
        return Witness(principal=occ, param=nw.param)
    if rule in (Rule.FORALL_L_STAR, Rule.EXISTS_R_STAR):
        return Witness(principal=occ, dom=DomAtom(nw.param, root))
    return Witness(principal=occ)


def _outcome(premises):
    try:
        return premises()
    except SequentError:
        return SequentError


@given(_nested_sequents())
@settings(max_examples=200, deadline=None)
def test_nested_rules_are_treelike_rules_at_a_node(s):
    """Every nint-star rule at every hole, on every candidate, gives the
    nestified premises of its treelike labelled preimage applied at the
    hole's label of labelify(s).  The labelled sequent has a domain atom at
    the root for each parameter of s, and for the instantiating one."""
    holes = list(s.holes())
    label = {h: Label(f"w{i}") for i, h in enumerate(holes)}  # labelify's preorder
    root = label[()]
    params = sorted(s.params(), key=lambda a: a.name)
    for rule, nrule in RULE_TO_NESTED.items():
        for hole in holes:
            for nw in _nested_candidates(nrule, s, s.at(hole)):
                occ = (label[hole], nw.formula)
                names = params
                if rule in (Rule.FORALL_L_STAR, Rule.EXISTS_R_STAR) and nw.param not in params:
                    names = params + [nw.param]
                lab = labelify(s)
                lab = LabelledSequent(lab.rel, tuple(DomAtom(a, root) for a in names),
                                      lab.ante, lab.succ)
                w = _preimage_witness(rule, occ, nw, label, hole, root)
                want = _outcome(lambda: tuple(nestify(p) for p in premises_for(rule, lab, w)))
                got = _outcome(lambda: nested_premises_for("nint-star", nrule, s, hole, nw))
                assert got == want, (rule, hole, nw)
