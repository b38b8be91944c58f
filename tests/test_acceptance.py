"""Acceptance suite.

One test per criterion; each prints a single PASS line with its numbers
when it succeeds (run with -s to see them).  Criterion 9 runs a tiered
enumeration by default and the complete one when INTCALC_ORACLE_FULL=1.
"""

import itertools
import os
import random
import time

import pytest

from intcalc.derivations import (
    constant_domain_axiom,
    exists_introduction_axiom,
    forall_instantiation_axiom,
    forall_shift_axiom,
    simulate_generalization,
)
from intcalc.formula import (
    And,
    Atom,
    Bot,
    Impl,
    Neg,
    Or,
    Param,
    Var,
    convert_signature,
    parse_formula,
)
from intcalc.graph import graph_of_labelled, graph_of_nested, is_treelike, isomorphic, nestify
from intcalc.kripke import (
    enumerate_models,
    labelled_sequent_holds,
    nested_sequent_holds,
    satisfies,
)
from intcalc.labelled import (
    DomAtom,
    Label,
    LabelledDerivation,
    LabelledSequent,
    RelAtom,
    Rule,
    Witness,
    check_derivation,
    parse_sequent,
)
from intcalc.nested import check_nested_derivation, parse_nested
from intcalc.search import SearchConfig, decide_prop, find_countermodel, prove
from intcalc.transform import eliminate_structural, proof_to_nested

W = Label("w")

AXIOMS = [
    "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "p -> (q -> (p & q))",
    "(p & q) -> p",
    "(p & q) -> q",
    "p -> (p | q)",
    "q -> (p | q)",
    "false -> p",
    "(p -> r) -> ((q -> r) -> ((p | q) -> r))",
]

# propositional theorems whose searched proofs exercise ref/tra
PROP_CORPUS = AXIOMS + [
    "p -> p",
    "(p & q) -> (q & p)",
    "(p | q) -> (q | p)",
    "p -> ~~p",
    "~(p & ~p)",
    "~~(p | ~p)",
    "(p -> q) -> (~q -> ~p)",
    "~(p | q) -> ~p",
    "((p & q) -> r) -> (p -> (q -> r))",
    "(p -> (q -> r)) -> ((p & q) -> r)",
    "(p | false) -> p",
    "(p -> q) -> ((q -> r) -> (p -> r))",
    "~~~p -> ~p",
    "(p & ~p) -> q",
    "(p | q) -> ~(~p & ~q)",
    "((p | q) -> r) -> (p -> r)",
    "p -> ((p -> q) -> q)",
]

FO_CORPUS = [
    "(exists x. r(x)) -> exists y. r(y)",
    "(forall x. r(x) & s(x)) -> forall x. r(x)",
    "(forall x. r(x) & s(x)) -> (forall x. r(x)) & (forall x. s(x))",
    "(exists x. r(x)) -> exists x. r(x) | s(x)",
    "(forall x. r(x)) & q -> forall x. r(x) | q",
    "(forall x. q -> r(x)) -> (q -> forall x. r(x))",
    "(exists x. r(x) | s(x)) -> (exists x. r(x)) | (exists x. s(x))",
    "(forall x. r(x) | q) -> (forall x. r(x)) | q",
    "q -> forall x. q",
    "(exists x. r(x)) & q -> exists x. r(x) & q",
    "(forall x. r(x)) -> forall y. r(y) | s(y)",
]


def _labelled_goal(text: str) -> LabelledSequent:
    f = convert_signature(parse_formula(text), "toBot")
    return LabelledSequent(succ=((W, f),))


_cache = {}


def prop_proofs():
    if "prop" not in _cache:
        out = []
        for text in PROP_CORPUS:
            d = prove(_labelled_goal(text), SearchConfig("g3int", 14))
            assert d is not None, f"corpus theorem unproved: {text}"
            out.append((text, d))
        _cache["prop"] = out
    return _cache["prop"]


def fo_proofs():
    if "fo" not in _cache:
        out = []
        for text in FO_CORPUS:
            goal = LabelledSequent(succ=((W, parse_formula(text)),))
            d = prove(goal, SearchConfig("g3intqc", 14, parameter_budget=2))
            assert d is not None, f"FO corpus theorem unproved: {text}"
            out.append((text, d))
        _cache["fo"] = out
    return _cache["fo"]


def prop_pipeline():
    if "prop_pipe" not in _cache:
        outs = []
        for text, d in prop_proofs():
            out, report = eliminate_structural(d, "g3int")
            outs.append((text, d, out, report))
        # the worked two-inference proof belongs to the corpus
        leaf = LabelledDerivation(
            parse_sequent("w<=v, v<=v, v: p => v: p"), Rule.ID, (),
            Witness(principal=(Label("v"), Atom("p")),
                    formula=(Label("v"), Atom("p")),
                    rel=RelAtom(Label("v"), Label("v"))),
        )
        refn = LabelledDerivation(
            parse_sequent("w<=v, v: p => v: p"), Rule.REF, (leaf,),
            Witness(label=Label("v")),
        )
        handmade = LabelledDerivation(
            parse_sequent(" => w: p -> p"), Rule.IMP_R, (refn,),
            Witness(principal=(W, parse_formula("p -> p")), label=Label("v")),
        )
        out, report = eliminate_structural(handmade, "g3int")
        outs.append(("p -> p (two-inference proof)", handmade, out, report))
        _cache["prop_pipe"] = outs
    return _cache["prop_pipe"]


def fo_pipeline():
    if "fo_pipe" not in _cache:
        outs = []
        for text, d in fo_proofs():
            out, report = eliminate_structural(d, "g3intqc")
            outs.append((text, d, out, report))
        _cache["fo_pipe"] = outs
    return _cache["fo_pipe"]


def test_criterion_1_axiom_suite():
    worst = 0.0
    for text in AXIOMS:
        t0 = time.time()
        d = prove(_labelled_goal(text), SearchConfig("g3int", 12))
        dt = time.time() - t0
        assert d is not None, f"axiom unproved in g3int: {text}"
        ok, _, msg = check_derivation("g3int", d)
        assert ok, f"{text}: {msg}"
        assert dt < 1.0, f"{text} took {dt:.2f}s in g3int"
        worst = max(worst, dt)

        f = parse_formula(text)
        if "false" in text:
            f = convert_signature(f, "toNeg")
        from intcalc.nested import NestedSequent

        t0 = time.time()
        nd = prove(NestedSequent(succ=(f,)), SearchConfig("nint-star", 12))
        dt = time.time() - t0
        assert nd is not None, f"axiom unproved in nint-star: {text}"
        okn, _, msgn = check_nested_derivation("nint-star", nd)
        assert okn, f"{text}: {msgn}"
        assert dt < 1.0, f"{text} took {dt:.2f}s in nint-star"
        worst = max(worst, dt)
    print(f"\ncriterion 1: PASS - 9 axiom schemes proved and re-checked in "
          f"g3int and nint-star at depth <= 12, worst {worst*1000:.0f}ms")


def test_criterion_2_first_order_suite():
    x, a = Var("x"), Param("a")
    checked = 0

    d, skel = forall_instantiation_axiom(Atom("r", (x,)), x, a)
    assert check_derivation("g3intqc", d)[0]
    assert [r.value for r in skel] == ["forall_l", "nd", "ref", "imp_r"]
    checked += 1

    d, skel = exists_introduction_axiom(Atom("r", (x,)), x, a)
    assert check_derivation("g3intqc", d)[0]
    assert [r.value for r in skel] == ["exists_r", "nd", "imp_r"]
    checked += 1

    d, skel = forall_shift_axiom(Atom("q"), Atom("r", (x,)), x)
    assert check_derivation("g3intqc", d)[0]
    assert sorted(r.value for r in skel) == sorted(
        ["imp_l", "ref", "forall_l", "tra", "forall_r", "imp_r", "imp_r"])
    checked += 1

    d, skel = constant_domain_axiom(Atom("r", (x,)), Atom("q"), x)
    assert check_derivation("g3intqc", d)[0]
    assert d.conclusion == parse_sequent(
        " => w: (forall x. r(x) | q) -> (forall x. r(x)) | q")
    assert sorted(r.value for r in skel) == sorted(
        ["or_l", "forall_l", "ref", "cd", "forall_r", "or_r", "imp_r"])
    checked += 1

    # a parameterised instance of the constant-domain axiom
    d, skel = constant_domain_axiom(
        Atom("rr", (Param("c"), x)), Atom("s", (Param("b"),)), x)
    assert check_derivation("g3intqc", d)[0]
    checked += 1

    # generalization-rule simulation
    prem_goal = LabelledSequent(
        dom=(DomAtom(a, W),), succ=((W, parse_formula("r(#a) -> r(#a)")),))
    prem = prove(prem_goal, SearchConfig("g3intqc", 10))
    assert prem is not None
    gen = simulate_generalization(prem, a, x)
    assert check_derivation("g3intqc", gen)[0]
    assert gen.conclusion == parse_sequent(" => w: forall x. r(x) -> r(x)")
    checked += 1

    print(f"criterion 2: PASS - {checked} first-order derivations rebuilt "
          f"with their rule skeletons and machine-checked in g3intqc")


def test_criterion_3_non_theorems():
    cases = ["((p -> q) -> p) -> p", "p | ~p", "~p | ~~p"]
    for text in cases:
        f = parse_formula(text)
        cm = find_countermodel(f, 4)
        assert cm is not None, f"no countermodel for {text}"
        assert len(cm.model.worlds) <= 4
        assert not satisfies(cm.model, cm.world, f), text
        d = prove(_labelled_goal(text), SearchConfig("g3int", 14))
        assert d is None, f"{text} unexpectedly proved"
    print("criterion 3: PASS - Peirce, excluded middle and weak excluded "
          "middle: countermodels with <= 4 worlds re-evaluate to false; "
          "none proved at depth 14")


BANNED_PROP = {Rule.ID, Rule.ID_Q, Rule.BOT_L, Rule.IMP_L, Rule.REF, Rule.TRA}
BANNED_FO = BANNED_PROP | {Rule.FORALL_L, Rule.FORALL_R, Rule.EXISTS_R,
                           Rule.ND, Rule.CD}


def _expected_end(d: LabelledDerivation) -> LabelledSequent:
    from intcalc.transform import _conv_sequent

    return _conv_sequent(d.conclusion)


def test_criterion_4_elimination_pipeline():
    outs = prop_pipeline()
    assert len(outs) >= 25
    used = 0
    for text, d, out, report in outs:
        counts = d.rule_counts()
        if counts.get(Rule.REF) or counts.get(Rule.TRA):
            used += 1
        got = out.rule_counts()
        for r in BANNED_PROP:
            assert not got.get(r), f"{text}: output still uses {r.value}"
        assert out.conclusion == _expected_end(d), text
        for n in out.nodes():
            ok, viol = is_treelike(n.conclusion)
            assert ok, f"{text}: non-treelike node ({viol.kind})"
    assert used >= 25, f"only {used} corpus proofs used ref/tra"
    print(f"criterion 4: PASS - {len(outs)} g3int derivations "
          f"({used} using ref/tra) eliminate to treelike proofs with no "
          f"id/bot_l/imp_l/ref/tra, end sequents preserved")


def test_criterion_5_first_order_elimination():
    outs = fo_pipeline()
    assert len(outs) >= 10
    exercised = set()
    for text, d, out, report in outs:
        counts = d.rule_counts()
        exercised |= {r for r in (Rule.ND, Rule.CD, Rule.FORALL_L, Rule.FORALL_R,
                                  Rule.EXISTS_R, Rule.ID_Q, Rule.REF, Rule.TRA)
                      if counts.get(r)}
        got = out.rule_counts()
        for r in BANNED_FO:
            assert not got.get(r), f"{text}: output still uses {r.value}"
        assert out.conclusion == _expected_end(d), text
        for n in out.nodes():
            ok, viol = is_treelike(n.conclusion)
            assert ok, f"{text}: non-treelike node ({viol.kind})"
    needed = {Rule.ND, Rule.CD, Rule.FORALL_L, Rule.FORALL_R, Rule.EXISTS_R,
              Rule.ID_Q}
    missing = needed - exercised
    assert not missing, f"corpus never used {sorted(r.value for r in missing)}"
    print(f"criterion 5: PASS - {len(outs)} g3intqc derivations eliminate "
          f"nd/cd/forall_l/forall_r/exists_r/id_q into treelike proofs")


def test_criterion_6_translation_fidelity():
    loopy = parse_sequent(
        "w0<=w0, w0<=w1, w1<=w2, w0<=w2, w0<=w3,"
        "w0: g0, w1: g1, w2: g2, w3: g3 => w0: d0, w1: d1, w2: d2, w3: d3")
    tree = parse_sequent(
        "w0<=w1, w1<=w2, w0<=w3,"
        "w0: g0, w1: g1, w2: g2, w3: g3 => w0: d0, w1: d1, w2: d2, w3: d3")
    sigma = parse_nested("g0 -> d0, [g1 -> d1, [g2 -> d2]], [g3 -> d3]")

    ok, viol = is_treelike(loopy)
    assert not ok and viol.kind == "cycle" and "w0" in viol.detail
    g = graph_of_labelled(loopy)
    assert ("w0", "w0") in g.edges
    assert {("w0", "w1"), ("w1", "w2"), ("w0", "w2")} <= g.edges

    ok2, _ = is_treelike(tree)
    assert ok2
    iso = isomorphic(graph_of_labelled(tree), graph_of_nested(sigma))
    assert iso is not None
    assert nestify(tree) == sigma
    print("criterion 6: PASS - the worked sequent pair reproduces: "
          "self-loop and cycle detected, treelike variant isomorphic to "
          "the nested graph, translation equals the displayed nested sequent")


def test_criterion_7_nested_extraction():
    n = 0
    for text, d, out, report in prop_pipeline():
        nd = proof_to_nested(out)
        ok, _, msg = check_nested_derivation("nint-star", nd)
        assert ok, f"{text}: {msg}"
        n += 1
    for text, d, out, report in fo_pipeline():
        nd = proof_to_nested(out)
        ok, _, msg = check_nested_derivation("nintqc-star", nd)
        assert ok, f"{text}: {msg}"
        n += 1
    print(f"criterion 7: PASS - {n} pipeline outputs translate node-wise "
          f"into checked nint-star / nintqc-star derivations")


def test_criterion_8_soundness_fuzz():
    conclusions = []
    for text, d in prop_proofs():
        conclusions.append(("prop", d.conclusion))
    for text, d, out, _ in prop_pipeline():
        conclusions.append(("prop", out.conclusion))
        conclusions.append(("nested", proof_to_nested(out).conclusion))
    for text, d in fo_proofs():
        conclusions.append(("fo", d.conclusion))
    for text, d, out, _ in fo_pipeline():
        conclusions.append(("fo", out.conclusion))

    checked = 0
    n_models = 1000
    prop_models = list(enumerate_models(
        4, ["p", "q", "r", "p0"], mode="random", seed=2026, count=n_models))
    fo_models = list(enumerate_models(
        3, ["q", "r", "s", "p0"], domain_size=2, mode="random", seed=2027,
        count=n_models, arity={"r": 1, "s": 1},
    ))
    for kind, concl in conclusions:
        models = fo_models if kind == "fo" else prop_models
        for m in models:
            if kind == "nested":
                assert nested_sequent_holds(m, concl), (kind, concl)
            else:
                assert labelled_sequent_holds(m, concl), (kind, concl)
        checked += 1
    print(f"criterion 8: PASS - {checked} proved conclusions x {n_models} "
          f"seeded models: zero violations")


def _layer_formulas(max_k: int):
    layers = [[Atom("p"), Atom("q"), Bot()]]
    for n in range(1, max_k + 1):
        layer = [Neg(f) for f in layers[n - 1]]
        for i in range(n):
            j = n - 1 - i
            for a in layers[i]:
                for b in layers[j]:
                    layer.append(And(a, b))
                    layer.append(Or(a, b))
                    layer.append(Impl(a, b))
        layers.append(layer)
    return layers


def _unrank(layers, n: int, idx: int):
    """layers[n][idx], in the order `_layer_formulas` builds layer n, from
    layers 0 to n-1 alone."""
    below = layers[n - 1]
    if idx < len(below):
        return Neg(below[idx])
    idx -= len(below)
    for i in range(n):
        left, right = layers[i], layers[n - 1 - i]
        block = 3 * len(left) * len(right)
        if idx < block:
            a, rest = divmod(idx, 3 * len(right))
            b, kind = divmod(rest, 3)
            return (And, Or, Impl)[kind](left[a], right[b])
        idx -= block
    raise IndexError(idx)


class _UnrankedLayer:
    """Layer n of `_layer_formulas`, each formula built when it is indexed:
    the strided pass over layer 5 needs 5,115 of its 10,243,830 formulas."""

    def __init__(self, layers, n: int):
        self.layers, self.n = layers, n
        self.size = len(layers[n - 1]) + 3 * sum(
            len(layers[i]) * len(layers[n - 1 - i]) for i in range(n))

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [_unrank(self.layers, self.n, i)
                    for i in range(*key.indices(self.size))]
        return _unrank(self.layers, self.n, key)


def test_unranked_layers_match_built_layers():
    layers = _layer_formulas(4)
    assert [len(layer) for layer in layers] == [3, 30, 570, 13530, 359670]
    for n in range(1, 5):
        unranked = _UnrankedLayer(layers, n)
        assert len(unranked) == len(layers[n])
        assert unranked[:] == layers[n]
    assert len(_UnrankedLayer(layers, 5)) == 10243830


def test_criterion_9_oracle_equivalence():
    full = os.environ.get("INTCALC_ORACLE_FULL") == "1"
    layers = _layer_formulas(5 if full else 4)
    if not full:
        layers.append(_UnrankedLayer(layers, 5))
    cfg = SearchConfig("nint-star", 12)
    t0 = time.time()

    if full:
        batches = [(k, layers[k], 1) for k in range(6)]
    else:
        # exhaustive through three connectives, deterministic strides above
        batches = [(0, layers[0], 1), (1, layers[1], 1), (2, layers[2], 1),
                   (3, layers[3], 1), (4, layers[4], 101), (5, layers[5], 2003)]

    theorems = 0
    counter = 0
    total = 0
    validated = 0
    for k, layer, stride in batches:
        for f in layer[::stride]:
            dec = decide_prop(f, 4, cfg)
            total += 1
            assert not (dec.proof is not None and dec.countermodel is not None)
            if dec.verdict == "theorem":
                theorems += 1
            elif dec.verdict == "countermodel":
                counter += 1
                assert not satisfies(
                    dec.countermodel.model, dec.countermodel.world, f)
            else:
                pytest.fail(f"undecided at desk scale: {f!r}")

    # every theorem verdict is confirmed valid on all models with <= 4
    # worlds; models are shared across formulas for speed
    models = list(enumerate_models(4, ["p", "q"]))
    rng = random.Random(0)
    sample = []
    for k, layer, stride in batches:
        sample.extend(f for f in layer[::stride]
                      if decide_prop(f, 2, cfg).verdict == "theorem")
    for f in sample:
        for m in models:
            for w in m.worlds:
                assert satisfies(m, w, f), f"theorem verdict invalid: {f!r}"
        validated += 1
    dt = time.time() - t0
    mode = "complete enumeration" if full else "exhaustive to 3 connectives, strided above"
    assert dt < 300, f"criterion 9 exceeded 5 minutes ({dt:.0f}s)"
    print(f"criterion 9: PASS - {total} formulas decided ({mode}), "
          f"{theorems} theorems / {counter} countermodels, "
          f"{validated} theorem verdicts validated on all <=4-world models, "
          f"{dt:.0f}s")


def test_criterion_10_admissible_rule_contracts():
    from intcalc.transform import (
        contract_derivation,
        invert_derivation,
        substitute_derivation,
        weaken_derivation,
    )

    rng = random.Random(2028)
    pool = [parse_formula(t) for t in PROP_CORPUS]
    atoms = [Atom("p"), Atom("q"), Atom("r")]
    derivs = []
    while len(derivs) < 200:
        f = rng.choice(pool)
        extra = rng.choice(atoms)
        shape = rng.randrange(3)
        if shape == 0:
            goal = LabelledSequent(succ=((W, convert_signature(f, "toBot")),))
        elif shape == 1:
            goal = LabelledSequent(
                ante=((W, extra),), succ=((W, convert_signature(f, "toBot")),))
        else:
            goal = LabelledSequent(
                ante=((W, And(extra, extra)),),
                succ=((W, convert_signature(f, "toBot")),))
        d = prove(goal, SearchConfig("g3int", 14))
        if d is not None:
            derivs.append(d)

    n_wk = n_sub = n_inv = n_ctr = 0
    fresh_atom = Atom("s99")
    for i, d in enumerate(derivs):
        h = d.height()
        dw = weaken_derivation(d, "g3int", succ=[(Label("u9"), fresh_atom)])
        assert dw.height() == h and check_derivation("g3int", dw)[0]
        n_wk += 1
        ds = substitute_derivation(d, "label", Label("w"), Label("u9"), "g3int")
        assert ds.height() == h and check_derivation("g3int", ds)[0]
        n_sub += 1
        root = d
        if root.rule in (Rule.IMP_R, Rule.AND_R, Rule.OR_R, Rule.AND_L, Rule.OR_L):
            wit = root.witness
            di = invert_derivation(d, root.rule, wit, "g3int", 0)
            assert di.height() <= h, f"inversion grew a g3int proof ({i})"
            assert check_derivation("g3int", di)[0]
            n_inv += 1
        dupd = weaken_derivation(d, "g3int", ante=[(W, fresh_atom), (W, fresh_atom)])
        dc = contract_derivation(dupd, Rule.CTR_FL, (W, fresh_atom), "g3int")
        assert check_derivation("g3int", dc)[0]
        n_ctr += 1

    # and_l inversion may grow proofs only in the extended calculi
    seq = parse_sequent("w<=v, w: p & q => v: p")
    d = prove(seq, SearchConfig("g3int-ext", 8))
    assert d is not None
    wit = Witness(principal=(W, parse_formula("p & q")))
    di = invert_derivation(d, Rule.AND_L, wit, "g3int-ext", 0)
    assert check_derivation("g3int-ext", di)[0]

    print(f"criterion 10: PASS - 200 generated derivations: weaken x{n_wk} "
          f"and substitute x{n_sub} height-preserving, invert x{n_inv} "
          f"never grows in g3int, ctr_Fl x{n_ctr} re-checks; and_l "
          f"inversion verified in the extended calculus")


def test_criterion_11_cut_reproval():
    goals_and_lemmas = [
        ("p -> p", "q -> q"),
        ("p -> (q -> p)", "p -> p"),
        ("(p & q) -> p", "p | ~p -> p | ~p"),
        ("(p & q) -> (q & p)", "q"),
        ("p -> ~~p", "~p -> ~p"),
        ("~(p & ~p)", "p & q -> q"),
        ("(p | q) -> (q | p)", "r -> r"),
        ("false -> q", "p"),
        ("((p & q) -> r) -> (p -> (q -> r))", "p & p -> p"),
        ("~~(p | ~p)", "q -> p -> q"),
    ]
    reproved = 0
    for goal_text, lemma_text in goals_and_lemmas:
        g = convert_signature(parse_formula(goal_text), "toBot")
        f = convert_signature(parse_formula(lemma_text), "toBot")
        concl = LabelledSequent(succ=((W, g),))
        left_goal = concl.add(succ=[(W, f)])
        right_goal = concl.add(ante=[(W, f)])
        left = prove(left_goal, SearchConfig("g3int", 14))
        right = prove(right_goal, SearchConfig("g3int", 14))
        assert left is not None and right is not None, goal_text
        cut = LabelledDerivation(
            concl, Rule.CUT, (left, right), Witness(formula=(W, f)))
        ok, _, msg = check_derivation("g3int", cut)
        assert ok, f"cut fixture fails to check: {msg}"
        cut_free = prove(concl, SearchConfig("g3int", 14))
        assert cut_free is not None, f"cut-free search missed {goal_text}"
        assert all(n.rule is not Rule.CUT for n in cut_free.nodes())
        assert check_derivation("g3int", cut_free)[0]
        reproved += 1
    print(f"criterion 11: PASS - {reproved} cut-derived sequents re-proved "
          f"cut-free within depth 14")
