import hashlib
import itertools

import pytest

import intcalc.labelled
import intcalc.search
from intcalc.formula import convert_signature, parse_formula, show_formula
from intcalc.kripke import satisfies
from intcalc.labelled import (
    CALCULI,
    Label,
    LabelledSequent,
    SequentError,
    check_derivation,
    parse_sequent,
)
from intcalc.nested import (
    NESTED_CALCULI,
    NestedSequent,
    check_nested_derivation,
    parse_nested,
)
from intcalc.search import (
    SearchConfig,
    decide_prop,
    find_countermodel,
    goal_for,
    prove,
)
from test_acceptance import _layer_formulas


def labelled_goal(text, calc="g3int"):
    f = parse_formula(text)
    if calc in ("g3int", "g3intqc"):
        f = convert_signature(f, "toBot")
    return LabelledSequent(succ=((Label("w"), f),))


def test_prove_nint_star_axiom():
    d = prove(parse_nested(" -> p -> q -> p"), SearchConfig("nint-star", 10))
    assert d is not None
    assert check_nested_derivation("nint-star", d)[0]


def test_peirce_not_provable():
    goal = labelled_goal("((p -> q) -> p) -> p")
    assert prove(goal, SearchConfig("g3int", 12)) is None
    cm = find_countermodel(parse_formula("((p -> q) -> p) -> p"), 3)
    assert cm is not None
    assert not satisfies(cm.model, cm.world, parse_formula("((p -> q) -> p) -> p"))


def test_prove_bottom_axiom_after_conversion():
    f = convert_signature(parse_formula("false -> p"), "toNeg")
    d = prove(NestedSequent(succ=(f,)), SearchConfig("nint-star", 10))
    assert d is not None and check_nested_derivation("nint-star", d)[0]


def test_prove_in_original_nested_calculus():
    d = prove(parse_nested(" -> p & q -> q & p"), SearchConfig("nint", 10))
    assert d is not None
    assert check_nested_derivation("nint", d)[0]


def test_prove_fo_in_nested_star():
    d = prove(
        parse_nested(" -> (forall x. r(x)) -> forall y. r(y)"),
        SearchConfig("nintqc-star", 10, parameter_budget=2),
    )
    assert d is not None and check_nested_derivation("nintqc-star", d)[0]


def test_search_determinism():
    goal = labelled_goal("(p -> q) | (q -> q)")
    cfg = SearchConfig("g3int", 10)
    a = prove(goal, cfg)
    b = prove(goal, cfg)
    assert a == b


def test_depth_bound_respected():
    # provable, but not at depth 1
    goal = labelled_goal("p -> (q -> p & q)")
    assert prove(goal, SearchConfig("g3int", 1)) is None
    assert prove(goal, SearchConfig("g3int", 12)) is not None


def test_prove_checker_agreement_on_corpus():
    corpus = [
        "p -> p", "p -> (q -> p)", "(p & q) -> (q & p)",
        "~(p & ~p)", "((p | q) -> r) -> (p -> r)",
        "(p -> q) -> (~q -> ~p)", "~~(p | ~p)",
    ]
    for text in corpus:
        d = prove(labelled_goal(text), SearchConfig("g3int", 12))
        assert d is not None, text
        ok, _, msg = check_derivation("g3int", d)
        assert ok, f"{text}: {msg}"
        nd = prove(NestedSequent(succ=(parse_formula(text),)),
                   SearchConfig("nint-star", 12))
        assert nd is not None, text
        assert check_nested_derivation("nint-star", nd)[0], text


def test_decide_prop_excluded_middle():
    dec = decide_prop(parse_formula("p | ~p"), 2, SearchConfig("nint-star", 12))
    assert dec.verdict == "countermodel"
    assert len(dec.countermodel.model.worlds) == 2


def test_decide_prop_double_negated_em():
    dec = decide_prop(parse_formula("~~(p | ~p)"), 4, SearchConfig("nint-star", 12))
    assert dec.verdict == "theorem"
    # double-checked against every model with up to 4 worlds
    from intcalc.kripke import enumerate_models

    f = parse_formula("~~(p | ~p)")
    for m in enumerate_models(4, ["p"]):
        for w in m.worlds:
            assert satisfies(m, w, f)


def test_decide_prop_atom():
    dec = decide_prop(parse_formula("p"), 2, SearchConfig("nint-star", 8))
    assert dec.verdict == "countermodel"
    assert len(dec.countermodel.model.worlds) == 1
    assert not dec.countermodel.model.valuation.get(("p", ()), frozenset())


def test_decide_prop_never_both():
    cfg = SearchConfig("nint-star", 10)
    for text in ["p -> p", "p | ~p", "~p | ~~p", "p -> q", "~~p -> p"]:
        dec = decide_prop(parse_formula(text), 4, cfg)
        assert (dec.proof is None) or (dec.countermodel is None)
        assert dec.verdict in ("theorem", "countermodel", "undecided")


def test_decide_prop_searches_once(monkeypatch):
    calls = []
    real = intcalc.search.prove

    def counting(goal, cfg):
        calls.append(cfg.depth_bound)
        return real(goal, cfg)

    monkeypatch.setattr(intcalc.search, "prove", counting)
    for text in ("~~(p | ~p)", "((p -> q) -> p) -> p"):
        calls.clear()
        decide_prop(parse_formula(text), 1, SearchConfig("nint-star", 12))
        assert calls == [12], text


def test_decide_prop_converts_false_for_the_tree_calculus():
    # g3int-tree has no bot_l: false -> p is decided as p0 & ~p0 -> p
    dec = decide_prop(parse_formula("false -> p"), 1, SearchConfig("g3int-tree", 12))
    assert dec.verdict == "theorem"
    assert dec.proof.conclusion == goal_for(parse_formula("false -> p"), "g3int-tree")


def test_find_countermodel_weak_em():
    cm = find_countermodel(parse_formula("~p | ~~p"), 4)
    assert cm is not None
    f = parse_formula("~p | ~~p")
    assert not satisfies(cm.model, cm.world, f)


def test_find_countermodel_none_for_theorem():
    assert find_countermodel(parse_formula("p -> p"), 3) is None


def test_find_countermodel_first_order():
    f = parse_formula("(forall x. r(x)) -> r(#a)")
    assert find_countermodel(f, 2, domain_size=2) is None
    g = parse_formula("r(#a) -> forall x. r(x)")
    cm = find_countermodel(g, 2, domain_size=2)
    assert cm is not None
    assert not satisfies(cm.model, cm.world, g, cm.env)


def test_config_validation():
    with pytest.raises(SequentError):
        SearchConfig("g3int", 0)
    with pytest.raises(SequentError):
        prove(parse_sequent(" => w: p"), SearchConfig("nosuch", 5))


# Theorems A -> A -> ... whose second world repeats the antecedent of the
# first: a block that compares with the first world's current content (it
# has consumed its implication by then) wrongly stops the inner step.
REPEATED_ANTECEDENT = [
    "p -> p -> ~false",
    "p -> p -> q -> q",
    "q -> q & (q -> q -> q)",
    "p -> p -> (p -> q) -> false -> p",
]

# Theorems whose nested proofs decompose many copies of false = p0 & ~p0:
# the consuming rules must not spend the depth budget.
MANY_FALSES = [
    "false | false | (~false | (false | false))",
    "false | (false | (false -> false & q)) | false",
    "p | (false | false | (false -> p & false))",
]


@pytest.mark.parametrize("text", REPEATED_ANTECEDENT)
def test_eigen_block_keeps_repeated_antecedent_theorems(text):
    dec = decide_prop(parse_formula(text), 4, SearchConfig("nint-star", 12))
    assert dec.verdict == "theorem", text
    assert check_nested_derivation("nint-star", dec.proof)[0]
    d = prove(labelled_goal(text), SearchConfig("g3int", 12))
    assert d is not None, text
    assert check_derivation("g3int", d)[0]


@pytest.mark.parametrize("text", MANY_FALSES)
def test_consuming_rules_do_not_spend_depth(text):
    dec = decide_prop(parse_formula(text), 4, SearchConfig("nint-star", 12))
    assert dec.verdict == "theorem", text
    assert check_nested_derivation("nint-star", dec.proof)[0]


def test_eigen_block_still_stops_failing_search():
    # with the block these searches end before the budget does, so depth 40
    # is as quick as depth 14
    for text in ["((p -> q) -> p) -> p", "~~p -> p", "~p | ~~p"]:
        f = parse_formula(text)
        for depth in (14, 40):
            assert prove(labelled_goal(text), SearchConfig("g3int", depth)) is None
            assert prove(NestedSequent(succ=(f,)), SearchConfig("nint-star", depth)) is None


def test_depth_bound_counts_only_repeatable_rules():
    # and/or decomposition consumes its principal: no budget is spent on it
    nd = prove(parse_nested("p & (q & r), s | s -> (r & q) & p, s & s"),
               SearchConfig("nint-star", 1))
    assert nd is not None and check_nested_derivation("nint-star", nd)[0]
    d = prove(parse_sequent("w: p & (q & r), w: s | s => w: (r & q) & p, w: s & s"),
              SearchConfig("g3int", 1))
    assert d is not None and check_derivation("g3int", d)[0]


# -- the one search kernel, in every calculus ---------------------------------

THEOREMS = ["p -> p", "~~(p | ~p)", "(p -> q) -> (q -> r) -> p -> r", "false -> p",
            "~~(~~p -> p)"]
FO_THEOREMS = ["(forall x. q | r(x)) -> q | forall x. r(x)"]
NON_THEOREMS = ["p | ~p", "((p -> q) -> p) -> p"]
FIRST_ORDER = ("g3intqc", "intqcl", "intqcl-tree", "nintqc", "nintqc-star")
FITTING = ("nint", "nintqc")  # neg_l and the other copy rules consume


def calculus_goal(text, calc):
    """The goal in the signature the calculus has rules for: no negation
    rules in g3int/g3intqc, no bottom rule in the tree and nested ones."""
    if calc in ("g3int", "g3intqc", "g3int-ext", "intqcl"):
        return labelled_goal(text, calc)
    f = convert_signature(parse_formula(text), "toNeg")
    if calc in CALCULI:
        return LabelledSequent(succ=((Label("w"), f),))
    return NestedSequent(succ=(f,))


@pytest.mark.parametrize("calc", sorted(CALCULI) + sorted(NESTED_CALCULI))
def test_goal_for_reads_the_signature_off_the_rule_set(calc):
    for text in THEOREMS + NON_THEOREMS:
        assert goal_for(parse_formula(text), calc) == calculus_goal(text, calc), text
    # a formula already in the signature is kept as it is
    f = parse_formula("(p -> q) & r")
    g = goal_for(f, calc)
    assert (g.succ[0][1] if calc in CALCULI else g.succ[0]) is f


def test_goal_for_converts_sequents():
    s = goal_for(parse_sequent("w<=v, w: ~p => v: false"), "g3int")
    assert s == parse_sequent("w<=v, w: p -> false => v: false")
    n = goal_for(parse_nested("false -> [~p -> false]"), "nint-star")
    assert n == parse_nested("p0 & ~p0 -> [~p -> p0 & ~p0]")
    with pytest.raises(SequentError, match="unknown calculus"):
        goal_for(parse_formula("p"), "g4ip")


@pytest.mark.parametrize("calc, text, depth", [
    ("g3int", "~~(p | ~p)", 12), ("nint-star", "false -> p", 10),
    ("g3int-tree", "false -> p", 10),
])
def test_converted_goals_are_proved(calc, text, depth):
    d = prove(goal_for(parse_formula(text), calc), SearchConfig(calc, depth))
    assert d is not None and checks(calc, d)


def checks(calc, d):
    check = check_derivation if calc in CALCULI else check_nested_derivation
    return check(calc, d)[0]


@pytest.mark.parametrize("calc", sorted(CALCULI) + sorted(NESTED_CALCULI))
def test_prove_in_every_calculus(calc):
    theorems = THEOREMS + (FO_THEOREMS if calc in FIRST_ORDER else [])
    for text in theorems:
        d = prove(calculus_goal(text, calc), SearchConfig(calc, 10))
        if d is not None:
            assert checks(calc, d), (calc, text)
        if calc not in FITTING:
            assert d is not None, (calc, text)
    for text in NON_THEOREMS:
        assert prove(calculus_goal(text, calc), SearchConfig(calc, 10)) is None, (calc, text)


@pytest.mark.parametrize("calc", FITTING)
def test_fitting_search_is_sound(calc):
    # nint/nintqc consume the principal of their copy rules, so the novelty
    # test and the eigen block only prune there: every proof must still
    # check and prove a formula valid on every small model
    proved = 0
    for f in itertools.chain(*_layer_formulas(2)):
        d = prove(calculus_goal(show_formula(f), calc), SearchConfig(calc, 10))
        if d is not None:
            proved += 1
            assert checks(calc, d), show_formula(f)
            assert find_countermodel(f, 3) is None, show_formula(f)
    assert proved > 0
    # the calculi as written are incomplete (see nested.py), and their
    # search ends on these without a repeat prune
    for text in ("~~(p | ~p)", "~~(~~p -> p)"):
        assert prove(calculus_goal(text, calc), SearchConfig(calc, 16)) is None, text
        star = calc + "-star"
        d = prove(calculus_goal(text, star), SearchConfig(star, 16))
        assert d is not None and checks(star, d), text


def test_trace_points_are_reached(monkeypatch):
    # callers reach these through module attributes at call time, so a
    # wrapper put there sees every call
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((intcalc.search, "premises_for"),
                         (intcalc.search, "nested_premises_for"),
                         (intcalc.labelled, "check_inference")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    d = prove(labelled_goal("p -> p"), SearchConfig("g3int", 6))
    assert calls.get("premises_for", 0) > 0
    assert prove(calculus_goal("p -> p", "nint-star"), SearchConfig("nint-star", 6))
    assert calls.get("nested_premises_for", 0) > 0
    assert check_derivation("g3int", d)[0]
    assert calls.get("check_inference", 0) > 0


# -- proof shapes: the search order, pinned ------------------------------------

def _imps(*fs):
    return parse_formula(" -> ".join(f"({f})" for f in fs))


def chain_forward(k):
    """(p0 -> p1) -> ... -> (p{k-1} -> pk) -> p0 -> pk"""
    return _imps(*[f"p{i} -> p{i + 1}" for i in range(k)], "p0", f"p{k}")


def chain_backward(k):
    """(p1 -> p0) -> ... -> (pk -> p{k-1}) -> pk -> p0"""
    return _imps(*[f"p{i + 1} -> p{i}" for i in range(k)], f"p{k}", "p0")


def lem_conjunction(k):
    """~~(p1 | ~p1) & ... & ~~(pk | ~pk), left-nested"""
    text = "~~(p1 | ~p1)"
    for i in range(2, k + 1):
        text = f"({text}) & ~~(p{i} | ~p{i})"
    return parse_formula(text)


def _rule_digest(d):
    """The rules, holes and witnesses of the proof in preorder, hashed."""
    text = "\n".join(f"{n.rule.value} {getattr(n, 'hole', '')} {n.witness!r}" for n in d.nodes())
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# (proof nodes, height, rule digest) of the proof found at depth 4k + 4, for
# k = 1, 2, ...
PROOF_SHAPES = {
    ("g3int", chain_forward): [
        (9, 8, "463a066c4687"), (15, 13, "4b106205f8fd"), (22, 19, "13b1d3e10074"),
        (30, 26, "c9dbf2abc19e"), (39, 34, "0b47178ea621"), (49, 43, "55979ad4bba6")],
    ("g3int", chain_backward): [
        (9, 8, "b838e3da096e"), (15, 13, "eccd8158d30f"), (22, 19, "4c5a3329b6e5"),
        (30, 26, "4b5b7c83b524"), (39, 34, "2adf19dbc119"), (49, 43, "b00df258275d")],
    ("g3int", lem_conjunction): [
        (13, 11, "9f7da1d2ef87"), (26, 12, "088756ead741"), (39, 13, "b48bdd9de8e7"),
        (52, 14, "38277ef501f5")],
    ("nint-star", chain_forward): [
        (9, 6, "35005671d8e6"), (27, 12, "c82d2280e337"), (49, 17, "80e0986b243c")],
    ("nint-star", chain_backward): [
        (9, 6, "073f4f66a388"), (20, 12, "f5b6910a406b"), (31, 17, "d17624c844f1")],
    ("nint-star", lem_conjunction): [
        (10, 10, "536ffac1f2c4"), (21, 11, "ecf94079fa24"), (32, 12, "fc7baa79de42"),
        (43, 13, "6dee1d44eb98")],
}


@pytest.mark.parametrize("calc,family", list(PROOF_SHAPES),
                         ids=lambda x: getattr(x, "__name__", x))
def test_proof_shapes_are_pinned(calc, family):
    # the search is deterministic: a change in the order it tries rules or
    # candidates in shows up as another proof
    for k, want in enumerate(PROOF_SHAPES[calc, family], start=1):
        f = family(k)
        if calc == "g3int":
            goal = LabelledSequent(succ=((Label("w"), convert_signature(f, "toBot")),))
        else:
            goal = NestedSequent(succ=(f,))
        d = prove(goal, SearchConfig(calc, 4 * k + 4))
        assert d is not None and checks(calc, d), (calc, family.__name__, k)
        got = (sum(1 for _ in d.nodes()), d.height(), _rule_digest(d))
        assert got == want, (calc, family.__name__, k)
