import pytest

from intcalc.formula import Atom, Impl, Neg, Param, parse_formula
from intcalc.labelled import SequentError
from intcalc.nested import (
    NESTED_CALCULI,
    NRule,
    NWitness,
    NestedDerivation,
    NestedSequent,
    apply_nested_backward,
    check_nested_derivation,
    check_nested_inference,
    edit,
    nested_premises_for,
    parse_nested,
    show_nested,
)

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
