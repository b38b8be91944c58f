from intcalc.formula import Atom, Param, Var, parse_formula
from intcalc.labelled import (
    DomAtom,
    Label,
    LabelledSequent,
    Rule,
    check_derivation,
    parse_sequent,
)
from intcalc.derivations import (
    constant_domain_axiom,
    exists_introduction_axiom,
    forall_instantiation_axiom,
    forall_shift_axiom,
    generalized_init_refl,
    generalized_init_step,
    simulate_generalization,
)
from test_search import _rule_digest

w, v = Label("w"), Label("v")
x = Var("x")
a = Param("a")


INITIAL_CORPUS = [
    "p", "false", "p & q -> r", "p | (q -> p)",
    "forall x. r(x)", "exists y. r(y) & q",
    "forall x. r(x) -> exists y. s(x, y)",
    "r(#a) & forall x. rr(x, #b)",
]


def test_generalized_initial_step_corpus():
    for text in INITIAL_CORPUS:
        f = parse_formula(text)
        d = generalized_init_step(f, w, v)
        ok, where, msg = check_derivation("g3intqc", d)
        assert ok, f"{text}: {msg} at {where}"
        d2 = generalized_init_refl(f, w)
        ok2, _, msg2 = check_derivation("g3intqc", d2)
        assert ok2, f"{text}: {msg2}"


# (proof nodes, height, rule digest) of generalized_init_step(f, w, v) and
# generalized_init_refl(f, w) on each formula of INITIAL_CORPUS
INITIAL_SHAPES = [
    ((1, 1, "d4d8cdc8f952"), (2, 2, "9956f2855b95")),
    ((1, 1, "4f49a4b74c4a"), (1, 1, "4f49a4b74c4a")),
    ((11, 7, "1ec90246342a"), (10, 6, "df86d35a6a25")),
    ((11, 7, "c2126da71848"), (11, 6, "491e1e4d89cc")),
    ((5, 5, "889db0a04c78"), (4, 4, "645925a5a94e")),
    ((7, 6, "e750f6a15d1c"), (8, 6, "2a9e7ae3316f")),
    ((13, 10, "a21842248c89"), (12, 9, "2907aeccace0")),
    ((9, 8, "17a80a678c19"), (9, 7, "6b897468728b")),
]


def test_generalized_initial_shapes_are_pinned():
    # both builders share one construction; a change in it shows up here
    for text, want in zip(INITIAL_CORPUS, INITIAL_SHAPES, strict=True):
        f = parse_formula(text)
        got = tuple((sum(1 for _ in d.nodes()), d.height(), _rule_digest(d))
                    for d in (generalized_init_step(f, w, v), generalized_init_refl(f, w)))
        assert got == want, text


def test_generalized_initial_found_by_search():
    # the same sequents are re-proved by backward search
    from intcalc.search import SearchConfig, prove

    for text in ["p & q", "p -> q", "forall x. r(x)"]:
        f = parse_formula(text)
        want = generalized_init_step(f, w, v).conclusion
        d = prove(want, SearchConfig("g3intqc", 12, parameter_budget=2))
        assert d is not None, text
        assert check_derivation("g3intqc", d)[0]


def test_forall_instantiation_axiom():
    d, skel = forall_instantiation_axiom(Atom("r", (x,)), x, a)
    assert check_derivation("g3intqc", d)[0]
    assert d.conclusion == parse_sequent("a in D(w) => w: (forall x. r(x)) -> r(#a)")
    assert [r.value for r in skel] == ["forall_l", "nd", "ref", "imp_r"]


def test_exists_introduction_axiom():
    d, skel = exists_introduction_axiom(Atom("r", (x,)), x, a)
    assert check_derivation("g3intqc", d)[0]
    assert d.conclusion == parse_sequent("a in D(w) => w: r(#a) -> exists x. r(x)")
    assert [r.value for r in skel] == ["exists_r", "nd", "imp_r"]


def test_forall_shift_axiom():
    d, skel = forall_shift_axiom(Atom("q"), Atom("r", (x,)), x)
    assert check_derivation("g3intqc", d)[0]
    assert d.conclusion == parse_sequent(
        " => w: (forall x. q -> r(x)) -> q -> forall x. r(x)"
    )
    # the skeleton follows the displayed derivation, with the reflexivity
    # step the left-rule application needs
    assert sorted(r.value for r in skel) == sorted(
        ["imp_l", "ref", "forall_l", "tra", "forall_r", "imp_r", "imp_r"]
    )


def test_constant_domain_axiom():
    d, skel = constant_domain_axiom(Atom("r", (x,)), Atom("q"), x)
    assert check_derivation("g3intqc", d)[0]
    assert d.conclusion == parse_sequent(
        " => w: (forall x. r(x) | q) -> (forall x. r(x)) | q"
    )
    assert sorted(r.value for r in skel) == sorted(
        ["or_l", "forall_l", "ref", "cd", "forall_r", "or_r", "imp_r"]
    )
    assert Rule.CD in skel and Rule.TRA not in skel


def test_constant_domain_axiom_with_parameters():
    d, skel = constant_domain_axiom(
        Atom("rr", (Param("c"), x)), Atom("s", (Param("b"),)), x
    )
    ok, where, msg = check_derivation("g3intqc", d)
    assert ok, f"{msg} at {where}"
    assert Rule.ND in [n.rule for n in d.nodes()]


def test_generalization_simulation():
    # premise: a in D(w) => w: r(#a) -> r(#a)
    from intcalc.search import SearchConfig, prove

    prem_goal = LabelledSequent(
        dom=(DomAtom(a, w),),
        succ=((w, parse_formula("r(#a) -> r(#a)")),),
    )
    prem = prove(prem_goal, SearchConfig("g3intqc", 10))
    assert prem is not None
    out = simulate_generalization(prem, a, x)
    assert check_derivation("g3intqc", out)[0]
    assert out.conclusion == parse_sequent(" => w: forall x. r(x) -> r(x)")


def test_generalization_simulation_keeps_other_parameters():
    prem_goal = LabelledSequent(
        dom=(DomAtom(a, w), DomAtom(Param("b"), w)),
        succ=((w, parse_formula("rr(#a, #b) -> rr(#a, #b)")),),
    )
    from intcalc.search import SearchConfig, prove

    prem = prove(prem_goal, SearchConfig("g3intqc", 10))
    assert prem is not None
    out = simulate_generalization(prem, a, x)
    assert check_derivation("g3intqc", out)[0]
    assert out.conclusion == parse_sequent(
        "b in D(w) => w: forall x. rr(x, #b) -> rr(x, #b)"
    )
