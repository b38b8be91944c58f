import dataclasses
import functools
import hashlib

import pytest

from intcalc.formula import Atom, Impl, Param, Var, convert_signature, parse_formula
from intcalc.labelled import (
    EIGEN_PARAM,
    DomAtom,
    Label,
    LabelledDerivation,
    LabelledSequent,
    RelAtom,
    Rule,
    SequentError,
    Witness,
    check_derivation,
    parse_sequent,
)
from intcalc import proofio, transform
from intcalc.proofio import dump_proof, load_proof
from intcalc.search import SearchConfig, prove
from intcalc.transform import (
    TransformError,
    contract_derivation,
    eliminate_nd_cd,
    eliminate_ref,
    eliminate_structural,
    eliminate_tra,
    expand_derived_rules,
    invert_derivation,
    proof_to_nested,
    substitute_derivation,
    weaken_derivation,
)
from test_acceptance import fo_proofs, prop_proofs
from test_search import _rule_digest, chain_backward, chain_forward

w, v, u = Label("w"), Label("v"), Label("u")
p, q = Atom("p"), Atom("q")


def prove_g3(text, depth=12, calc="g3int"):
    goal = LabelledSequent(succ=((Label("w"), parse_formula(text)),))
    d = prove(goal, SearchConfig(calc, depth, parameter_budget=2))
    assert d is not None, f"could not prove {text}"
    ok, _, msg = check_derivation(calc, d)
    assert ok, msg
    return d


def section4_proof():
    leaf = LabelledDerivation(
        parse_sequent("w<=v, v<=v, v: p => v: p"),
        Rule.ID, (),
        Witness(principal=(v, p), formula=(v, p), rel=RelAtom(v, v)),
    )
    refn = LabelledDerivation(
        parse_sequent("w<=v, v: p => v: p"), Rule.REF, (leaf,), Witness(label=v)
    )
    return LabelledDerivation(
        parse_sequent(" => w: p -> p"), Rule.IMP_R, (refn,),
        Witness(principal=(w, parse_formula("p -> p")), label=v),
    )


# -- weakening ----------------------------------------------------------------

def test_weaken_preserves_height_and_checks():
    d = section4_proof()
    d2 = weaken_derivation(d, "g3int", succ=[(u, q)])
    assert d2.height() == d.height()
    assert d2.conclusion == parse_sequent(" => w: p -> p, u: q")
    assert check_derivation("g3int", d2)[0]


def test_weaken_by_nothing_is_identity():
    d = section4_proof()
    assert weaken_derivation(d, "g3int") is d


def test_weaken_renames_clashing_eigenvariable():
    d = section4_proof()  # eigenvariable v inside
    d2 = weaken_derivation(d, "g3int", ante=[(v, q)])
    assert d2.height() == d.height()
    assert check_derivation("g3int", d2)[0]
    # the old eigenvariable occurs in the added formula only
    root_wit = d2.witness
    assert root_wit.label != v


def _eigen_param_node(d):
    return next(n for n in d.nodes() if n.rule in EIGEN_PARAM)


EIGEN_PARAM_GOALS = ["forall x. r(x) -> r(x)", "(exists x. r(x)) -> exists y. r(y)"]


@pytest.mark.parametrize("text", EIGEN_PARAM_GOALS)
def test_weaken_renames_clashing_eigenparameter(text):
    d = prove_g3(text, calc="g3intqc")
    a = _eigen_param_node(d).witness.param
    d2 = weaken_derivation(d, "g3intqc", dom=[DomAtom(a, w)])
    assert d2.height() == d.height()
    assert d2.conclusion == d.conclusion.add(dom=[DomAtom(a, w)])
    ok, _, msg = check_derivation("g3intqc", d2)
    assert ok, msg
    assert _eigen_param_node(d2).witness.param != a


# -- substitution -------------------------------------------------------------

def test_substitute_label_no_occurrence():
    d = section4_proof()
    d2 = substitute_derivation(d, "label", w, Label("zz"), "g3int")
    assert d2.conclusion == d.conclusion
    assert d2.height() == d.height()


def test_substitute_through_eigenvariable():
    d = section4_proof()
    # [w/v] forces renaming of the inner eigenvariable v
    d2 = substitute_derivation(d, "label", w, v, "g3int")
    assert d2.height() == d.height()
    assert d2.conclusion == d.conclusion  # v did not occur in the end sequent
    assert check_derivation("g3int", d2)[0]


def test_substitute_param_through_exists():
    d = prove_g3("(exists x. r(x)) -> exists y. r(y)", calc="g3intqc")
    a, b = Param("a"), Param("b")
    d2 = substitute_derivation(d, "param", a, b, "g3intqc")
    assert d2.height() == d.height()
    assert check_derivation("g3intqc", d2)[0]


@pytest.mark.parametrize("text", EIGEN_PARAM_GOALS)
@pytest.mark.parametrize("eigen_is_new", [True, False])
def test_substitute_renames_clashing_eigenparameter(text, eigen_is_new):
    d = prove_g3(text, calc="g3intqc")
    a, b = _eigen_param_node(d).witness.param, Param("b")
    new, old = (a, b) if eigen_is_new else (b, a)
    d2 = substitute_derivation(d, "param", new, old, "g3intqc")
    assert d2.height() == d.height()
    assert d2.conclusion == d.conclusion  # neither name occurs in the end sequent
    ok, _, msg = check_derivation("g3intqc", d2)
    assert ok, msg
    assert _eigen_param_node(d2).witness.param not in (a, b)


# -- inversion ----------------------------------------------------------------

def test_invert_imp_r():
    d = prove_g3("p -> p")
    wit = Witness(principal=(w, parse_formula("p -> p")), label=Label("x0"))
    d2 = invert_derivation(d, Rule.IMP_R, wit, "g3int")
    assert d2.conclusion == parse_sequent("w<=x0, x0: p => x0: p")
    assert check_derivation("g3int", d2)[0]
    assert d2.height() <= d.height()


def test_invert_or_r():
    d = prove_g3("(p -> q) | (q -> q)")
    f = parse_formula("(p -> q) | (q -> q)")
    d2 = invert_derivation(d, Rule.OR_R, Witness(principal=(w, f)), "g3int")
    assert d2.conclusion == parse_sequent(" => w: p -> q, w: q -> q")
    assert check_derivation("g3int", d2)[0]
    assert d2.height() <= d.height()


def test_invert_weakening_class():
    d = prove_g3("p -> p")
    wit = Witness(label=u)
    d2 = invert_derivation(d, Rule.REF, wit, "g3int")
    assert d2.conclusion == parse_sequent("u<=u => w: p -> p")
    assert d2.height() == d.height()


def test_invert_and_l_never_principal():
    # the conjunction is pure context: pointwise rewrite, height preserved
    d = prove_g3("p -> p")
    d1 = weaken_derivation(d, "g3int", ante=[(u, parse_formula("p & q"))])
    wit = Witness(principal=(u, parse_formula("p & q")))
    d2 = invert_derivation(d1, Rule.AND_L, wit, "g3int", 0)
    assert d2.conclusion == parse_sequent("u: p, u: q => w: p -> p")
    assert d2.height() == d1.height()
    assert check_derivation("g3int", d2)[0]


def test_invert_and_l_under_lift_grows():
    # conclusion: w<=v, w: p & q => v: p  proved with lift and and_l
    seq = parse_sequent("w<=v, w: p & q => v: p")
    d = prove(seq, SearchConfig("g3int-ext", 8))
    assert d is not None and check_derivation("g3int-ext", d)[0]
    wit = Witness(principal=(w, parse_formula("p & q")))
    d2 = invert_derivation(d, Rule.AND_L, wit, "g3int-ext", 0)
    assert d2.conclusion == parse_sequent("w<=v, w: p, w: q => v: p")
    assert check_derivation("g3int-ext", d2)[0]


# -- contraction --------------------------------------------------------------

def test_contract_rel_atom():
    d = section4_proof()
    d1 = weaken_derivation(d, "g3int", rel=[RelAtom(u, u), RelAtom(u, u)])
    d2 = contract_derivation(d1, Rule.CTR_R, RelAtom(u, u), "g3int")
    assert d2.conclusion == parse_sequent("u<=u => w: p -> p")
    assert d2.height() == d1.height()
    assert check_derivation("g3int", d2)[0]


def test_contract_context_formula_on_leaf():
    leaf = LabelledDerivation(
        parse_sequent("w<=v, w: p, w: p => v: p"), Rule.ID, (),
        Witness(principal=(w, p), formula=(v, p), rel=RelAtom(w, v)),
    )
    d2 = contract_derivation(leaf, Rule.CTR_FL, (w, p), "g3int")
    assert d2.conclusion == parse_sequent("w<=v, w: p => v: p")
    assert d2.rule is Rule.ID


def test_contract_principal_twice():
    # contract a formula that is principal of imp_r: uses inversion
    d = prove_g3("p -> p")
    f = parse_formula("p -> p")
    d1 = weaken_derivation(d, "g3int", succ=[(w, f)])
    assert d1.conclusion.succ.count((w, f)) == 2
    d2 = contract_derivation(d1, Rule.CTR_FR, (w, f), "g3int")
    assert d2.conclusion == parse_sequent(" => w: p -> p")
    assert check_derivation("g3int", d2)[0]


def test_contract_ante_principal():
    seq = parse_sequent("w: p & q, w: p & q => w: p")
    d = prove(seq, SearchConfig("g3int", 8))
    assert d is not None
    d2 = contract_derivation(d, Rule.CTR_FL, (w, parse_formula("p & q")), "g3int")
    assert d2.conclusion == parse_sequent("w: p & q => w: p")
    assert check_derivation("g3int", d2)[0]


def _forall_r_star_proof():
    # search uses forall_r; the elimination turns it into forall_r_star
    d = prove_g3("forall x. r(x) -> r(x)", calc="g3intqc")
    out, _ = eliminate_structural(d, "g3intqc")
    return out


@pytest.mark.parametrize("rule, calc, end", [
    (Rule.AND_R, "g3int", " => w: (p -> p) & (q -> q)"),
    (Rule.OR_L, "g3int", "w: p | p => w: p"),
    (Rule.OR_R, "g3int", " => w: (p -> p) | q"),
    (Rule.NEG_R, "g3int-ext", " => w: ~(p & ~p)"),
    (Rule.FORALL_R, "g3intqc", " => w: forall x. r(x) -> r(x)"),
    (Rule.FORALL_R_STAR, "intqcl", " => w: forall x. r(x) -> r(x)"),
    (Rule.EXISTS_L, "g3intqc", "w: exists x. r(x) => w: exists y. r(y)"),
])
def test_contract_principal_of_each_consuming_rule(rule, calc, end):
    # a proof in which the rule consumes A, weakened by a second A: the
    # contraction meets the duplicate as the principal of that rule
    goal = parse_sequent(end)
    if rule is Rule.FORALL_R_STAR:
        d = _forall_r_star_proof()
    else:
        d = prove(goal, SearchConfig(calc, 12, parameter_budget=2))
        assert d is not None
    left = bool(goal.ante)
    dup = (goal.ante if left else goal.succ)[0]
    assert d.conclusion == goal
    assert any(n.rule is rule and n.witness.principal == dup for n in d.nodes())
    d1 = weaken_derivation(d, calc, **{"ante" if left else "succ": [dup]})
    d2 = contract_derivation(d1, Rule.CTR_FL if left else Rule.CTR_FR, dup, calc)
    assert d2.conclusion == goal
    ok, _, msg = check_derivation(calc, d2)
    assert ok, msg
    if calc in ("g3int", "g3intqc"):
        assert d2.height() <= d1.height()


# -- the public transforms, pinned ---------------------------------------------

@functools.cache
def _pin_proof(name):
    """The searched proofs the pinned transforms rewrite."""
    if name == "chain":
        goal = LabelledSequent(succ=((w, convert_signature(chain_forward(3), "toBot")),))
        return prove(goal, SearchConfig("g3int", 16))
    text, calc = {"or": ("(p -> q) | (q -> q)", "g3int"),
                  "and": ("(p & q) -> (q & p)", "g3int"),
                  "forall": ("forall x. r(x) -> r(x)", "g3intqc"),
                  "exists": ("(exists x. r(x)) -> exists y. r(y)", "g3intqc")}[name]
    return prove_g3(text, calc=calc)


def _invert_root(name, calc):
    d = _pin_proof(name)
    return invert_derivation(d, Rule.IMP_R, Witness(principal=d.conclusion.succ[0],
                                                    label=Label("x")), calc)


def _dup_end(name, calc):
    d = _pin_proof(name)
    end = d.conclusion.succ[0]
    return contract_derivation(weaken_derivation(d, calc, succ=[end]), Rule.CTR_FR, end, calc)


x, v0, v1, a0 = Label("x"), Label("v0"), Label("v1"), Param("a0")
f_and, f_or = parse_formula("p & q"), parse_formula("(p -> q) | (q -> q)")
f_ex = parse_formula("exists x. r(x)")

# each transform on the proofs above; v0, v1 and a0 are eigenvariables of
# them, so the weakenings and substitutions rename one
PINNED_TRANSFORMS = {
    "weaken chain": lambda: weaken_derivation(_pin_proof("chain"), "g3int",
                                              rel=[RelAtom(w, v0)], ante=[(v0, p)]),
    "substitute chain": lambda: substitute_derivation(_pin_proof("chain"), "label", w, v1,
                                                      "g3int"),
    "invert chain imp_r": lambda: _invert_root("chain", "g3int"),
    "invert or_r": lambda: invert_derivation(_pin_proof("or"), Rule.OR_R,
                                             Witness(principal=(w, f_or)), "g3int"),
    "invert and_l": lambda: invert_derivation(_invert_root("and", "g3int"), Rule.AND_L,
                                              Witness(principal=(x, f_and)), "g3int"),
    "contract chain": lambda: _dup_end("chain", "g3int"),
    "contract rel": lambda: contract_derivation(
        weaken_derivation(_pin_proof("chain"), "g3int", rel=[RelAtom(u, u)] * 2),
        Rule.CTR_R, RelAtom(u, u), "g3int"),
    "contract and_l": lambda: contract_derivation(
        weaken_derivation(_invert_root("and", "g3int"), "g3int", ante=[(x, f_and)]),
        Rule.CTR_FL, (x, f_and), "g3int"),
    "weaken forall": lambda: weaken_derivation(_pin_proof("forall"), "g3intqc",
                                               dom=[DomAtom(a0, w)]),
    "substitute exists": lambda: substitute_derivation(_pin_proof("exists"), "param",
                                                       Param("b"), a0, "g3intqc"),
    "invert exists_l": lambda: invert_derivation(_invert_root("exists", "g3intqc"),
                                                 Rule.EXISTS_L,
                                                 Witness(principal=(x, f_ex), param=Param("c")),
                                                 "g3intqc"),
    "contract forall": lambda: _dup_end("forall", "g3intqc"),
    "contract exists": lambda: _dup_end("exists", "g3intqc"),
}

# (nodes, height, rule digest) of each: a change in what a rewrite builds,
# or in the fresh names it takes, shows up here
TRANSFORM_SHAPES = {
    'weaken chain': (22, 19, 'bc24a031672a'),
    'substitute chain': (22, 19, '877e9e399c99'),
    'invert chain imp_r': (21, 18, 'ad7e44279a54'),
    'invert or_r': (6, 6, '7daadf0b14c3'),
    'invert and_l': (5, 4, '648c4e142391'),
    'contract chain': (22, 19, '13b1d3e10074'),
    'contract rel': (22, 19, '13b1d3e10074'),
    'contract and_l': (6, 5, 'da3efb14a06b'),
    'weaken forall': (9, 9, '4fcdb4963e87'),
    'substitute exists': (7, 7, '5edb5ca10bad'),
    'invert exists_l': (5, 5, 'e3057f0a0952'),
    'contract forall': (9, 9, '9ba1ad347a65'),
    'contract exists': (7, 7, '15dc3e84bab2'),
}


@pytest.mark.parametrize("name", list(PINNED_TRANSFORMS))
def test_public_transform_output_is_pinned(name):
    out = PINNED_TRANSFORMS[name]()
    assert (sum(1 for _ in out.nodes()), out.height(), _rule_digest(out)) == TRANSFORM_SHAPES[name]


# -- eliminations -------------------------------------------------------------

def test_eliminate_ref_section4():
    d = section4_proof()
    d2 = eliminate_ref(d, "g3int-ext")
    assert all(n.rule is not Rule.REF for n in d2.nodes())
    assert d2.conclusion == d.conclusion
    assert check_derivation("g3int-ext", d2)[0]
    assert any(n.rule is Rule.ID_STAR for n in d2.nodes())


def test_eliminate_ref_no_op():
    d = prove_g3("false -> p")  # no ref needed
    d1 = eliminate_ref(d, "g3int-ext")
    refs = [n for n in d.nodes() if n.rule is Rule.REF]
    if not refs:
        assert d1 is d or d1.conclusion == d.conclusion


def _node(text, rule, prem=(), **witness):
    return LabelledDerivation(parse_sequent(text), rule, tuple(prem), Witness(**witness))


def _tra(end, above):
    """tra adding w<=u to `end`, which holds w<=v and v<=u, below `above`."""
    return LabelledDerivation(parse_sequent(end), Rule.TRA, (above,),
                              Witness(rel=RelAtom(w, v), rel2=RelAtom(v, u)))


r_a, wu = Atom("r", (Param("a"),)), RelAtom(w, u)
f_imp, f_all = parse_formula("p -> q"), parse_formula("forall x. r(x)")
f_some = parse_formula("exists x. r(x)")
_IMP = "w<=v, v<=u, w<=u, w: p -> q, u: p"
_ALL = "w<=v, v<=u, w<=u, a in D(u), w: forall x. r(x)"
_ND = "w<=v, v<=u, w<=u, a in D(w)"
_CD = "w<=v, v<=u, w<=u, a in D(u)"

# a tra inference right below each rule that can read its composite w<=u:
# (calculus, builder)
TRA_CASES = {
    "id": ("g3int", lambda: _tra(
        "w<=v, v<=u, w: p => u: p",
        _node("w<=v, v<=u, w<=u, w: p => u: p", Rule.ID,
              principal=(w, p), formula=(u, p), rel=wu))),
    "id_q": ("g3intqc", lambda: _tra(
        "w<=v, v<=u, a in D(w), w: r(#a) => u: r(#a)",
        _node("w<=v, v<=u, w<=u, a in D(w), w: r(#a) => u: r(#a)", Rule.ID_Q,
              principal=(w, r_a), formula=(u, r_a), rel=wu))),
    "imp_l": ("g3int-ext", lambda: _tra(
        "w<=v, v<=u, w: p -> q, u: p => u: q",
        _node(f"{_IMP} => u: q", Rule.IMP_L, (
            _node(f"{_IMP} => u: q, u: p", Rule.ID_STAR, principal=(u, p), formula=(u, p)),
            _node(f"{_IMP}, u: q => u: q", Rule.ID_STAR, principal=(u, q), formula=(u, q)),
        ), principal=(w, f_imp), rel=wu))),
    "forall_l": ("intqcl", lambda: _tra(
        "w<=v, v<=u, a in D(u), w: forall x. r(x) => u: r(#a)",
        _node(f"{_ALL} => u: r(#a)", Rule.FORALL_L, (
            _node(f"{_ALL}, u: r(#a) => u: r(#a)", Rule.ID_Q_STAR,
                  principal=(u, r_a), formula=(u, r_a)),
        ), principal=(w, f_all), rel=wu, dom=DomAtom(Param("a"), u)))),
    "lift": ("g3int-ext", lambda: _tra(
        "w<=v, v<=u, w: p => u: p",
        _node("w<=v, v<=u, w<=u, w: p => u: p", Rule.LIFT, (
            _node("w<=v, v<=u, w<=u, w: p, u: p => u: p", Rule.ID_STAR,
                  principal=(u, p), formula=(u, p)),
        ), principal=(w, p), rel=wu))),
    "nd": ("intqcl", lambda: _tra(
        "w<=v, v<=u, a in D(w), u: r(#a) => u: exists x. r(x)",
        _node(f"{_ND}, u: r(#a) => u: exists x. r(x)", Rule.ND, (
            _node(f"{_ND}, a in D(u), u: r(#a) => u: exists x. r(x)", Rule.EXISTS_R, (
                _node(f"{_ND}, a in D(u), u: r(#a) => u: exists x. r(x), u: r(#a)",
                      Rule.ID_Q_STAR, principal=(u, r_a), formula=(u, r_a)),
            ), principal=(u, f_some), dom=DomAtom(Param("a"), u)),
        ), rel=wu, dom=DomAtom(Param("a"), w)))),
    "cd": ("intqcl", lambda: _tra(
        "w<=v, v<=u, a in D(u), w: r(#a) => w: exists x. r(x)",
        _node(f"{_CD}, w: r(#a) => w: exists x. r(x)", Rule.CD, (
            _node(f"{_CD}, a in D(w), w: r(#a) => w: exists x. r(x)", Rule.EXISTS_R, (
                _node(f"{_CD}, a in D(w), w: r(#a) => w: exists x. r(x), w: r(#a)",
                      Rule.ID_Q_STAR, principal=(w, r_a), formula=(w, r_a)),
            ), principal=(w, f_some), dom=DomAtom(Param("a"), w)),
        ), rel=wu, dom=DomAtom(Param("a"), u)))),
}

# (nodes, height, rule digest) of eliminate_structural's output on each
TRA_SHAPES = {
    "id": (3, 3, "7870205c745d"),
    "id_q": (3, 3, "913814ff2092"),
    "imp_l": (5, 4, "de4a51d83289"),
    "forall_l": (4, 4, "14c2e21bd3ad"),
    "lift": (3, 3, "7870205c745d"),
    "nd": (2, 2, "6a51c08d02e0"),
    "cd": (2, 2, "d1490ee6accb"),
}


def _tra_above_id():
    return TRA_CASES["id"][1]()


@pytest.mark.parametrize("name", list(TRA_CASES))
def test_eliminate_tra_over_each_reading_rule(name):
    calc, build = TRA_CASES[name]
    d = build()
    assert check_derivation(calc, d)[0]
    ambient = "intqcl" if calc in ("g3intqc", "intqcl") else "g3int-ext"
    d2 = eliminate_tra(d, ambient)
    assert all(n.rule is not Rule.TRA for n in d2.nodes())
    assert d2.conclusion == d.conclusion
    out, _ = eliminate_structural(d, calc)
    assert (sum(1 for _ in out.nodes()), out.height(), _rule_digest(out)) == TRA_SHAPES[name]


def test_eliminate_tra_above_id():
    # id at v, reading v<=u, under one lift by w<=v; the expansion makes it
    # id* at u under a second lift, by v<=u
    tra = _tra_above_id()
    d2 = eliminate_tra(tra, "g3int-ext")
    assert d2.conclusion == tra.conclusion
    assert check_derivation("g3int-ext", d2)[0]
    assert [(n.rule, n.witness.principal) for n in d2.nodes()] == [
        (Rule.LIFT, (w, p)), (Rule.ID, (v, p))]
    d3 = expand_derived_rules(d2, "g3int-tree")
    assert [(n.rule, n.witness.principal) for n in d3.nodes()] == [
        (Rule.LIFT, (w, p)), (Rule.LIFT, (v, p)), (Rule.ID_STAR, (u, p))]


def _nd_under_id_q():
    # nd below an id_q whose required domain atom is the moved one
    leaf = LabelledDerivation(
        parse_sequent("u<=w, w<=v, a in D(u), a in D(w), w: p(#a) => v: p(#a)"),
        Rule.ID_Q, (),
        Witness(principal=(w, Atom("p", (Param("a"),))),
                formula=(v, Atom("p", (Param("a"),))), rel=RelAtom(w, v)),
    )
    return LabelledDerivation(
        parse_sequent("u<=w, w<=v, a in D(u), w: p(#a) => v: p(#a)"),
        Rule.ND, (leaf,),
        Witness(rel=RelAtom(u, w), dom=DomAtom(Param("a"), u)),
    )


def test_eliminate_nd_under_id_q():
    nd = _nd_under_id_q()
    assert check_derivation("g3intqc", nd)[0]
    d2 = eliminate_nd_cd(nd, "intqcl")
    assert all(n.rule not in (Rule.ND, Rule.CD) for n in d2.nodes())
    assert d2.conclusion == nd.conclusion
    assert check_derivation("intqcl", d2)[0]
    rules = [n.rule for n in d2.nodes()]
    assert Rule.ID_Q_STAR in rules and Rule.LIFT in rules


def test_eliminate_nd_cd_no_op():
    d = section4_proof()
    d1 = eliminate_ref(d, "intqcl")
    assert eliminate_nd_cd(d1, "intqcl").conclusion == d.conclusion


# -- elimination output, pinned --------------------------------------------------

def _elimination_shape(out, report):
    """(nodes, height, rule digest, steps digest) of an elimination."""
    steps = hashlib.sha256("\n".join(report.steps).encode()).hexdigest()[:12]
    return (sum(1 for _ in out.nodes()), out.height(), _rule_digest(out), steps)


def _elimination_inputs(name):
    if name == "prop":
        return [("g3int", d) for _, d in prop_proofs()]
    if name == "fo":
        return [("g3intqc", d) for _, d in fo_proofs()]
    fam = {"chain_forward": chain_forward, "chain_backward": chain_backward}[name]
    return [("g3int", prove(LabelledSequent(succ=((w, convert_signature(fam(k), "toBot")),)),
                            SearchConfig("g3int", 4 * k + 4)))
            for k in range(1, 6)]


# the shapes of eliminate_structural's output on the g3int proofs of the Horn
# chains k = 1..5 and on the acceptance corpora, in corpus order: a change in
# the rewrites, in their order or in the step notes shows up here
ELIMINATION_SHAPES = {
    "chain_forward": [
        (6, 5, "955da611dfef", "4040f066035c"), (11, 9, "1dcdf1bf6f72", "82898992ec88"),
        (17, 14, "8a3ae66a0d55", "ab31c68c5670"), (24, 20, "af869d6c7e6d", "a17905e9de8c"),
        (32, 27, "642044cd019a", "c407d3badd07")],
    "chain_backward": [
        (6, 5, "7400b45b5015", "4040f066035c"), (11, 9, "bc38d3a4b843", "82898992ec88"),
        (17, 14, "ad4ff2761fd9", "ab31c68c5670"), (24, 20, "f1d8138f2948", "a17905e9de8c"),
        (32, 27, "971ac65136aa", "c407d3badd07")],
    "prop": [
        (4, 4, "849aa167a414", "369dd5b28d0d"), (13, 10, "658b8de32246", "82898992ec88"),
        (6, 5, "dfe5ccc016bf", "4040f066035c"), (3, 3, "2a43cc793172", "369dd5b28d0d"),
        (3, 3, "d93dc136561a", "369dd5b28d0d"), (3, 3, "a9bc330a5ee9", "369dd5b28d0d"),
        (3, 3, "5e4d967a89aa", "369dd5b28d0d"), (4, 4, "27fa92bd5e4f", "2655be1c116c"),
        (17, 10, "fadf36968266", "82898992ec88"), (2, 2, "eb60674b084c", "369dd5b28d0d"),
        (5, 4, "b3d74060be61", "369dd5b28d0d"), (5, 4, "fc417bd19f7b", "369dd5b28d0d"),
        (8, 6, "9424895d270a", "4040f066035c"), (7, 6, "1441d05cf959", "369dd5b28d0d"),
        (14, 9, "4897f83c9a93", "4040f066035c"), (13, 11, "dc769dc2e4ad", "82898992ec88"),
        (9, 7, "423ade432760", "4040f066035c"), (11, 9, "03a084ff2d5d", "82898992ec88"),
        (9, 7, "b3e894f73a7b", "4040f066035c"), (6, 5, "d406d3ea6cae", "369dd5b28d0d"),
        (11, 9, "f75713cf37cc", "82898992ec88"), (30, 18, "9225cd262b47", "ab31c68c5670"),
        (7, 6, "c95a5166dcea", "369dd5b28d0d"), (22, 9, "cad8f25a026d", "dcf56302ff00"),
        (7, 6, "db9520ea4a5b", "4040f066035c"), (6, 5, "78208cef4b6e", "4040f066035c")],
    "fo": [
        (4, 4, "30470642213e", "6b00241d92c3"), (5, 5, "0f6e1c7b8bbe", "ee2310363a6a"),
        (10, 6, "bfca3cae6d52", "bc1cf5f35ca2"), (5, 5, "15c7066bad6f", "6b00241d92c3"),
        (5, 5, "19da06d157d1", "ee2310363a6a"), (12, 11, "6d5cc7438581", "5372105c04b9"),
        (9, 7, "5adf386672e8", "6b00241d92c3"), (8, 7, "651eed2ba203", "ee2310363a6a"),
        (3, 3, "0447eeee3598", "369dd5b28d0d"), (7, 6, "e92f217cf904", "6b00241d92c3"),
        (5, 5, "22ef9e453cd8", "ee2310363a6a")],
}


@pytest.mark.parametrize("name", list(ELIMINATION_SHAPES))
def test_elimination_output_is_pinned(name):
    got = [_elimination_shape(*eliminate_structural(d, calc))
           for calc, d in _elimination_inputs(name)]
    assert got == ELIMINATION_SHAPES[name]


# -- a broken rewrite is caught ------------------------------------------------

def _broken(body):
    """body, with the last inference of each result it returns stripped of
    its witness: the result keeps its end sequent and its rules, and that
    one inference fails to check."""
    def wrapped(*args, **kwargs):
        return dataclasses.replace(body(*args, **kwargs), witness=Witness())
    return wrapped


@pytest.mark.parametrize("body, proof, phase", [
    ("_ref_step", "chain", "ref/tra elimination produced a bad inference at"),
    ("_tra_step", "chain", "ref/tra elimination produced a bad inference at"),
    ("_nd_step", "forall", "nd/cd elimination produced a bad inference at"),
    ("_expand", "chain", "output fails in g3int-tree at"),
])
def test_broken_elimination_step_is_caught(monkeypatch, body, proof, phase):
    # the steps build their nodes unchecked; the check after each phase
    # finds the bad one
    d = _pin_proof(proof)
    monkeypatch.setattr(transform, body, _broken(getattr(transform, body)))
    with pytest.raises(TransformError, match=phase):
        eliminate_structural(d, "g3int" if proof == "chain" else "g3intqc")


def _imp_l_ref_free():
    d = prove(parse_sequent("w<=v, w: p -> q, v: p => v: q"), SearchConfig("g3int", 6))
    return eliminate_ref(d, "g3int-ext")


# each public transform, and the private body it checks the result of
BROKEN_PUBLIC = {
    "_weaken": lambda: weaken_derivation(section4_proof(), "g3int", succ=[(u, q)]),
    "_substitute": lambda: substitute_derivation(section4_proof(), "label", w, v, "g3int"),
    "_inverted": lambda: invert_derivation(
        prove_g3("p -> p"), Rule.IMP_R,
        Witness(principal=(w, parse_formula("p -> p")), label=Label("x0")), "g3int"),
    "_contract_formula": lambda: contract_derivation(
        weaken_derivation(section4_proof(), "g3int", succ=[(w, parse_formula("p -> p"))]),
        Rule.CTR_FR, (w, parse_formula("p -> p")), "g3int"),
    "_ref_step": lambda: eliminate_ref(section4_proof(), "g3int-ext"),
    "_tra_step": lambda: eliminate_tra(_tra_above_id(), "g3int-ext"),
    "_nd_step": lambda: eliminate_nd_cd(_nd_under_id_q(), "intqcl"),
    "_expand": lambda: expand_derived_rules(_imp_l_ref_free(), "g3int-tree"),
}


@pytest.mark.parametrize("body", list(BROKEN_PUBLIC))
def test_broken_public_transform_is_caught(monkeypatch, body):
    call = BROKEN_PUBLIC[body]
    call()  # unbroken, the transform succeeds
    monkeypatch.setattr(transform, body, _broken(getattr(transform, body)))
    with pytest.raises(TransformError, match=r"produced a bad inference at \("):
        call()


def test_each_result_is_checked_once(monkeypatch):
    # eliminate_structural checks its input, the result of each phase and
    # its output; the weakenings and substitutions inside the steps are not
    # checked on their own
    calls = []
    real = transform.check_derivation

    def counting(calc, d):
        calls.append(calc)
        return real(calc, d)

    monkeypatch.setattr(transform, "check_derivation", counting)
    eliminate_structural(_pin_proof("forall"), "g3intqc")
    assert calls == ["intqcl", "intqcl", "intqcl", "intqcl-tree"]
    calls.clear()
    eliminate_structural(_pin_proof("chain"), "g3int")
    assert calls == ["g3int-ext", "g3int-ext", "g3int-tree"]


# -- derived-rule expansion ---------------------------------------------------

def test_expand_bot_l():
    d = prove_g3("false -> q")
    d1 = eliminate_ref(d, "g3int-ext") if any(
        n.rule is Rule.REF for n in d.nodes()) else d
    out = expand_derived_rules(d1, "g3int-tree")
    assert check_derivation("g3int-tree", out)[0]
    rules = {n.rule for n in out.nodes()}
    assert Rule.BOT_L not in rules and Rule.ID not in rules
    assert Rule.NEG_L in rules and Rule.AND_L in rules  # the bottom encoding
    assert out.conclusion.succ[0][1] == parse_formula("(p0 & ~p0) -> q")


def test_expand_requires_structural_free():
    d = section4_proof()
    with pytest.raises(Exception, match="structural"):
        expand_derived_rules(d, "g3int-tree")


def test_expand_imp_l():
    seq = parse_sequent("w<=v, w: p -> q, v: p => v: q")
    d = prove(seq, SearchConfig("g3int", 6))
    assert d is not None
    d1 = eliminate_ref(d, "g3int-ext")
    out = expand_derived_rules(d1, "g3int-tree")
    assert check_derivation("g3int-tree", out)[0]
    assert all(n.rule is not Rule.IMP_L for n in out.nodes())
    assert any(n.rule is Rule.IMP_L_STAR for n in out.nodes())


# -- the full pipeline --------------------------------------------------------

def test_pipeline_section4():
    out, report = eliminate_structural(section4_proof(), "g3int")
    assert report.rules_eliminated.get(Rule.REF) == 1
    assert check_derivation("g3int-tree", out)[0]
    from intcalc.graph import is_treelike
    for n in out.nodes():
        assert is_treelike(n.conclusion)[0]


def test_pipeline_preserves_end_sequent():
    d = prove_g3("p & q -> q & p")
    out, report = eliminate_structural(d, "g3int")
    assert out.conclusion == d.conclusion  # no bottom in this formula
    assert report.height_before == d.height()
    assert report.height_after == out.height()


def test_pipeline_to_nested():
    d = prove_g3("p -> (q -> p)")
    out, _ = eliminate_structural(d, "g3int")
    nd = proof_to_nested(out)
    from intcalc.nested import check_nested_derivation, parse_nested
    ok, _, msg = check_nested_derivation("nint-star", nd)
    assert ok, msg
    assert nd.conclusion == parse_nested(" -> p -> q -> p")


def test_nested_proof_with_quantified_antecedent_roundtrips():
    # a universal with an implication body lands in a nested antecedent
    d = prove_g3("(forall x. q -> r(x)) -> (q -> forall x. r(x))", 14, "g3intqc")
    out, _ = eliminate_structural(d, "g3intqc")
    nd = proof_to_nested(out)
    back, _kind, calc = load_proof(dump_proof(nd, "nintqc-star"))
    assert calc == "nintqc-star" and back == nd


def test_proof_files_round_trip():
    # the searched proofs of the acceptance corpora, and their eliminated
    # and nested forms
    inputs = ([("g3int", d) for _, d in prop_proofs()]
              + [("g3intqc", d) for _, d in fo_proofs()])
    for calc, d in inputs:
        assert load_proof(dump_proof(d, calc)) == (d, "labelled", calc)
        out, _ = eliminate_structural(d, calc)
        tree = "g3int-tree" if calc == "g3int" else "intqcl-tree"
        assert load_proof(dump_proof(out, tree)) == (out, "labelled", tree)
        nd = proof_to_nested(out)
        ncalc = "nint-star" if calc == "g3int" else "nintqc-star"
        assert load_proof(dump_proof(nd, ncalc)) == (nd, "nested", ncalc)


def test_load_proof_parses_each_formula_once_per_call(monkeypatch):
    texts = []
    real = proofio.parse_formula

    def counting(text):
        texts.append(text)
        return real(text)

    monkeypatch.setattr(proofio, "parse_formula", counting)
    d = _pin_proof("chain")
    out, _ = eliminate_structural(d, "g3int")
    for proof, calc in ((d, "g3int"), (proof_to_nested(out), "nint-star")):
        file = dump_proof(proof, calc)
        texts.clear()
        assert load_proof(file)[0] == proof
        assert texts and len(texts) == len(set(texts))
        # nothing is kept from one call to the next
        first = len(texts)
        load_proof(file)
        assert len(texts) == 2 * first


@pytest.mark.parametrize("calc, searched_in, out_calc", [
    ("g3int", "g3int", "g3int-tree"),
    ("g3int-ext", "g3int", "g3int-tree"),
    ("g3int-tree", "g3int", "g3int-tree"),
    ("g3intqc", "g3intqc", "intqcl-tree"),
    ("intqcl", "g3intqc", "intqcl-tree"),
    ("intqcl-tree", "g3intqc", "intqcl-tree"),
])
def test_pipeline_takes_each_calculus_name(calc, searched_in, out_calc):
    # an eliminated proof lies in every calculus of its family, so it can be
    # eliminated again under each of their names
    d, _ = eliminate_structural(prove_g3("p -> (q -> p)", calc=searched_in), searched_in)
    out, report = eliminate_structural(d, calc)
    assert report.calculus_out == out_calc
    assert check_derivation(out_calc, out)[0]


@pytest.mark.parametrize("calc", ["bogus", "nint-star", "g3int-treee", ""])
def test_pipeline_rejects_other_calculus_names(calc):
    with pytest.raises(SequentError, match="calculus"):
        eliminate_structural(section4_proof(), calc)


def test_pipeline_non_theorem_shape_warns():
    seq = parse_sequent("w: p & q => w: p")
    d = prove(seq, SearchConfig("g3int", 6))
    out, report = eliminate_structural(d, "g3int")
    assert report.warnings  # treelike not guaranteed
    assert check_derivation("g3int-tree", out)[0]


def test_pipeline_semantic_preservation():
    from intcalc.kripke import enumerate_models, labelled_sequent_holds

    d = prove_g3("p -> (q -> p & q)")
    out, _ = eliminate_structural(d, "g3int")
    models = enumerate_models(3, ["p", "q"], mode="random", seed=11, count=200)
    for m in models:
        assert labelled_sequent_holds(m, d.conclusion) == labelled_sequent_holds(
            m, out.conclusion
        )


def test_transform_rejects_checker_only_tags():
    d = section4_proof()
    cut = LabelledDerivation(
        parse_sequent(" => w: p -> p"), Rule.CUT,
        (weaken_derivation(d, "g3int", succ=[(w, q)]),
         weaken_derivation(d, "g3int", ante=[(w, q)])),
        Witness(formula=(w, q)),
    )
    with pytest.raises(Exception, match="checker-only"):
        eliminate_structural(cut, "g3int")
