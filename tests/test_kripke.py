import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from intcalc.formula import (
    And, Atom, Bot, Exists, Forall, Impl, Neg, Or, Param, Var, atoms_of, parse_formula,
)
from intcalc.graph import labelify
from intcalc.kripke import (
    BudgetExceeded,
    _closure,
    KripkeModel,
    ModelError,
    count_models,
    dump_model,
    enumerate_models,
    labelled_sequent_holds,
    load_model,
    nested_sequent_holds,
    rooted_countermodel,
    satisfies,
    satisfies_reference,
)
from intcalc.labelled import DomAtom, Label, LabelledSequent, RelAtom, parse_sequent
from intcalc.nested import NestedSequent, parse_nested


def two_chain(p_at=("v",)):
    return KripkeModel(
        frozenset({"w", "v"}),
        frozenset({("w", "w"), ("v", "v"), ("w", "v")}),
        {("p", ()): frozenset(p_at)},
    )


def test_atom_clause():
    m = two_chain()
    assert not satisfies(m, "w", parse_formula("p"))
    assert satisfies(m, "v", parse_formula("p"))


def test_excluded_middle_fails():
    # w does not force p, and w does not force ~p since v above forces p
    m = two_chain()
    assert not satisfies(m, "w", parse_formula("p | ~p"))


def test_bot_never_holds():
    m = two_chain()
    for w in m.worlds:
        assert not satisfies(m, w, parse_formula("false"))


def test_implication_clause_quantifies_up():
    m = two_chain()
    assert satisfies(m, "w", parse_formula("p -> p"))
    # p holds at v above w but q never does, so w does not force p -> q
    assert not satisfies(m, "w", parse_formula("p -> q"))
    assert satisfies(m, "v", parse_formula("q -> p"))


def test_model_invariants():
    with pytest.raises(ModelError, match="reflexive"):
        KripkeModel(frozenset({"w"}), frozenset())
    with pytest.raises(ModelError, match="monotone"):
        two_chain(p_at=("w",))
    with pytest.raises(ModelError, match="empty"):
        KripkeModel(frozenset(), frozenset())


def test_monotonicity_generalizes():
    # general monotonicity on every enumerated 2-world model and a corpus
    corpus = [parse_formula(t) for t in
              ["p", "~p", "p -> q", "p & (q | ~p)", "~~p -> ~~~p"]]
    for m in enumerate_models(2, ["p", "q"]):
        for f in corpus:
            for (w, v) in m.leq:
                if satisfies(m, w, f):
                    assert satisfies(m, v, f)


def test_signature_conversion_preserves_truth():
    from intcalc.formula import convert_signature

    corpus = [parse_formula(t) for t in
              ["~p", "false -> p", "~(p & ~p)", "p | ~p", "~p | q"]]
    for m in enumerate_models(2, ["p", "q", "p0"]):
        for f in corpus:
            for d in ("toBot", "toNeg"):
                g = convert_signature(f, d)
                for w in m.worlds:
                    assert satisfies(m, w, f) == satisfies(m, w, g)


def test_labelled_sequent_monotone_example():
    # exhaustive oracle over all models with <= 3 worlds and one atom
    s = parse_sequent("w<=v, w:p => v:p")
    for m in enumerate_models(3, ["p"]):
        assert labelled_sequent_holds(m, s)


def test_labelled_sequent_falsifiable():
    s = parse_sequent(" => w:p")
    m = KripkeModel(frozenset({"u"}), frozenset({("u", "u")}), {("p", ()): frozenset()})
    assert not labelled_sequent_holds(m, s)


def test_bot_antecedent_always_holds():
    s = parse_sequent("w:false => ")
    for m in enumerate_models(2, ["p"]):
        assert labelled_sequent_holds(m, s)


def test_nested_sequent_semantics():
    m = two_chain()
    assert nested_sequent_holds(m, parse_nested("p -> p"))
    assert not nested_sequent_holds(m, parse_nested(" -> p, [p -> ]"))
    assert nested_sequent_holds(m, parse_nested(" -> [ -> p -> p]"))


def test_nested_agrees_with_labelled_on_translation():
    from intcalc.graph import labelify

    sigmas = [parse_nested(t) for t in
              ["p -> q, [q -> p]", " -> [p -> ], [ -> q]", "p & q -> [ -> p]"]]
    for m in enumerate_models(2, ["p", "q"]):
        for s in sigmas:
            assert nested_sequent_holds(m, s) == labelled_sequent_holds(m, labelify(s))


# ---------------------------------------------------------------------------
# sequent truth against the product over every label assignment


def _labelled_holds_reference(m, s):
    # the quantifiers read literally: every assignment of the labels to
    # worlds that respects the relational atoms, every parameter assignment
    labels = sorted(s.labels(), key=lambda l: l.name)
    params = sorted(s.params(), key=lambda p: p.name)
    if params and not m.domain:
        raise ModelError("sequent has parameters but the model domain is empty")
    for rho_tuple in itertools.product(sorted(m.worlds), repeat=len(labels)):
        rho = dict(zip(labels, rho_tuple))
        if not all((rho[r.w], rho[r.v]) in m.leq for r in s.rel):
            continue
        for iota_tuple in itertools.product(m.domain or ("*",), repeat=len(params)):
            env = dict(zip(params, iota_tuple))
            if (all(satisfies_reference(m, rho[w], f, env) for (w, f) in s.ante)
                    and not any(satisfies_reference(m, rho[w], f, env) for (w, f) in s.succ)):
                return False
    return True


def _outcome(holds, m, s):
    try:
        return holds(m, s)
    except ModelError as e:
        return str(e)


_A, _B = Param("a"), Param("b")
_X = Var("x")


def _sequent_formulas():
    # propositional, with parameters, and quantified without parameters
    base = st.sampled_from([Atom("p"), Atom("q"), Bot(), Atom("r", (_A,)), Atom("r", (_B,))])

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Impl(*t)),
        )

    quantified = st.sampled_from([
        Forall(_X, Atom("r", (_X,))), Exists(_X, And(Atom("r", (_X,)), Atom("p"))),
        Impl(Exists(_X, Atom("r", (_X,))), Atom("q")),
    ])
    return st.one_of(base, st.recursive(base, extend, max_leaves=5), quantified)


_LABELS = [Label(f"l{i}") for i in range(4)]


@st.composite
def _labelled_sequents(draw):
    # up to four labels; relational atoms drawn freely, so self-loops and
    # cycles occur, and a label may occur only in a relational or domain atom
    label = st.sampled_from(_LABELS)
    rel = draw(st.lists(st.tuples(label, label).map(lambda t: RelAtom(*t)), min_size=1, max_size=5))
    dom = draw(st.lists(st.tuples(st.sampled_from([_A, _B]), label)
                        .map(lambda t: DomAtom(*t)), max_size=2))
    # a few formulas shared by the labels, as in the conclusions of proofs,
    # each at each label on one side or none
    pool = draw(st.lists(_sequent_formulas(), min_size=1, max_size=3))
    ante, succ = [], []
    for w in _LABELS:
        for f in pool:
            side = draw(st.sampled_from((None, ante, succ)))
            if side is not None:
                side.append((w, f))
    return LabelledSequent(tuple(rel), tuple(dom), tuple(ante), tuple(succ))


@st.composite
def _nested_sequents(draw):
    # up to five nodes, node i > 0 a child of an earlier node
    n = draw(st.integers(1, 5))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    pool = draw(st.lists(_sequent_formulas(), min_size=1, max_size=3))
    formulas = st.lists(st.sampled_from(pool), max_size=2)
    sides = [(draw(formulas), draw(formulas)) for _ in range(n)]
    nodes = [None] * n
    for i in reversed(range(n)):
        kids = tuple(nodes[j] for j in range(i + 1, n) if parent[j] == i)
        nodes[i] = NestedSequent(tuple(sides[i][0]), tuple(sides[i][1]), kids)
    return nodes[0]


def _models(seed):
    # four random models of 1-5 worlds with a unary r on a domain of 1-2
    # individuals, and every 91st model of an exhaustive family (`_FAMILY`)
    return list(enumerate_models(5, ["p", "q", "r"], domain_size=1 + seed % 2, mode="random",
                                 seed=seed, count=4, arity={"r": 1})) + _FAMILY[seed % 91::91]


@given(_labelled_sequents(), st.integers(0, 2**16))
@example(parse_sequent("l0<=l1, l1: p => l0: p"), 0)
@settings(max_examples=200, deadline=None)
def test_labelled_sequent_holds_matches_the_product(s, seed):
    for m in _models(seed):
        assert _outcome(labelled_sequent_holds, m, s) == _outcome(_labelled_holds_reference, m, s)


@given(_nested_sequents(), st.integers(0, 2**16))
@example(parse_nested(" -> p, [p -> ]"), 0)
@settings(max_examples=100, deadline=None)
def test_nested_sequent_holds_matches_the_product(s, seed):
    for m in _models(seed):
        assert (_outcome(nested_sequent_holds, m, s)
                == _outcome(_labelled_holds_reference, m, labelify(s)))


def _chain_with_p_at_top():
    return load_model("worlds: w0 w1 w2 w3\nleq: w0 <= w1, w1 <= w2, w2 <= w3\nval: p @ w3\n")


def test_hostile_sizes_answer_at_once():
    # 31 and 30 labels: 4**31 and 4**30 label assignments on four worlds
    m = _chain_with_p_at_top()
    assert nested_sequent_holds(m, parse_nested(" -> [" * 30 + "p -> p" + "]" * 30))
    assert not nested_sequent_holds(m, parse_nested(" -> [" * 30 + " -> p" + "]" * 30))
    flat = ", ".join(f"x{i}: p" for i in range(30))
    assert labelled_sequent_holds(m, parse_sequent(f"{flat} => x0: p"))
    assert not labelled_sequent_holds(m, parse_sequent(f"{flat} => x0: q"))


def test_arc_consistency_prunes_a_wide_tree():
    # a root with 12 unconstrained children; the last child forces p, so
    # its own child, which must refute p above it, has nowhere to sit:
    # placing the children in turn would try 4**11 assignments first
    m = _chain_with_p_at_top()
    rel = ", ".join(f"r<=c{i}" for i in range(12))
    assert labelled_sequent_holds(m, parse_sequent(f"{rel}, c11<=g, c11: p => g: p"))
    assert not labelled_sequent_holds(m, parse_sequent(f"{rel}, c11<=g, c11: p => g: q"))


def test_enumerate_one_world_one_atom():
    ms = list(enumerate_models(1, ["p"]))
    assert len(ms) == 2


def test_enumerate_two_worlds_no_atoms():
    # brute-force oracle: subsets of off-diagonal pairs, reflexive-transitive
    def preorders(n):
        worlds = list(range(n))
        off = [(i, j) for i in worlds for j in worlds if i != j]
        count = 0
        for bits in itertools.product([0, 1], repeat=len(off)):
            rel = {(i, i) for i in worlds} | {e for e, b in zip(off, bits) if b}
            if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c):
                count += 1
        return count

    want = preorders(1) + preorders(2)
    ms = list(enumerate_models(2))
    assert len(ms) == want == 5


def test_enumerated_models_pass_invariants():
    for m in enumerate_models(2, ["p"], domain_size=1, arity={"p": 1}):
        KripkeModel(m.worlds, m.leq, m.valuation, m.domain)  # re-validate


def test_random_models_deterministic():
    a = list(enumerate_models(3, ["p"], mode="random", seed=7, count=20))
    b = list(enumerate_models(3, ["p"], mode="random", seed=7, count=20))
    assert a == b
    c = list(enumerate_models(3, ["p"], mode="random", seed=8, count=20))
    assert a != c


def test_budget_guard():
    assert count_models(3, ["p", "q", "r"], 2, {"p": 2, "q": 2, "r": 2}) > 10**7
    with pytest.raises(BudgetExceeded):
        next(enumerate_models(3, ["p", "q", "r"], 2,
                              arity={"p": 2, "q": 2, "r": 2}))


@pytest.mark.parametrize("max_worlds", [7, 9])
def test_budget_guard_counts_no_preorders(max_worlds):
    # more than 9.5M preorders on 7 worlds: bounded from below, never built
    with pytest.raises(BudgetExceeded, match="at least"):
        next(enumerate_models(max_worlds, ["p"]))


def test_model_file_roundtrip():
    m = KripkeModel(
        frozenset({"w", "v"}),
        frozenset({("w", "w"), ("v", "v"), ("w", "v")}),
        {("p", ()): frozenset({"v"}), ("q", ("d1",)): frozenset({"w", "v"})},
        ("d1", "d2"),
    )
    assert load_model(dump_model(m)) == m


def test_model_loader_closes_and_rejects():
    m = load_model("worlds: a b c\nleq: a <= b, b <= c\n")
    assert ("a", "c") in m.leq and ("a", "a") in m.leq
    with pytest.raises(ModelError, match="monotone"):
        load_model("worlds: a b\nleq: a <= b\nval: p @ a\n")


def _closure_reference(worlds, edges):
    # compose the relation with itself until nothing new appears
    rel = {(w, w) for w in worlds} | set(edges)
    while new := {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel:
        rel |= new
    return frozenset(rel)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just([f"w{i}" for i in range(n)]),
    st.sets(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=3 * n))))
def test_closure_matches_the_composition_fixpoint(case):
    # edge ends may name a world missing from the list (index n)
    worlds, pairs = case
    edges = [(f"w{i}", f"w{j}") for i, j in pairs]
    assert _closure(worlds, edges) == _closure_reference(worlds, edges)


def test_model_loader_closes_a_long_chain():
    n = 150
    text = ("worlds: " + " ".join(f"w{i}" for i in range(n)) + "\nleq: "
            + ", ".join(f"w{i} <= w{i + 1}" for i in range(n - 1)) + "\n")
    m = load_model(text)
    assert len(m.leq) == n * (n + 1) // 2
    assert ("w0", f"w{n - 1}") in m.leq and (f"w{n - 1}", "w0") not in m.leq


def test_unassigned_parameter_error():
    m = KripkeModel(
        frozenset({"w"}), frozenset({("w", "w")}),
        {("r", ("d",)): frozenset({"w"})}, ("d",),
    )
    with pytest.raises(ModelError, match="unassigned parameter"):
        satisfies(m, "w", parse_formula("r(#a)"))
    assert satisfies(m, "w", parse_formula("r(#a)"), {Param("a"): "d"})


def test_quantifiers_over_constant_domain():
    m = KripkeModel(
        frozenset({"w"}), frozenset({("w", "w")}),
        {("r", ("d1",)): frozenset({"w"}), ("r", ("d2",)): frozenset()},
        ("d1", "d2"),
    )
    assert satisfies(m, "w", parse_formula("exists x. r(x)"))
    assert not satisfies(m, "w", parse_formula("forall x. r(x)"))


# ---------------------------------------------------------------------------
# the cached evaluator against the reference evaluator


def _prop_formulas(names=("p", "q", "r")):
    base = st.one_of(st.sampled_from([Atom(n) for n in names]), st.just(Bot()))

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Impl(*t)),
        )

    return st.recursive(base, extend, max_leaves=8)


_FAMILY = list(enumerate_models(3, ["p", "q"]))


@given(_prop_formulas(), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_cached_satisfies_matches_reference_on_random_models(f, seed):
    for m in enumerate_models(4, ["p", "q", "r"], mode="random", seed=seed, count=3):
        for w in sorted(m.worlds):
            assert satisfies(m, w, f) == satisfies_reference(m, w, f)


@given(st.lists(_prop_formulas(("p", "q")), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_cached_satisfies_matches_reference_on_a_family(fs):
    # one formula across the family, then formulas alternating per model
    for m in _FAMILY:
        for w in m.worlds:
            assert satisfies(m, w, fs[0]) == satisfies_reference(m, w, fs[0])
    for m in _FAMILY[::7]:
        for f in fs:
            for w in m.worlds:
                assert satisfies(m, w, f) == satisfies_reference(m, w, f)


@given(_prop_formulas(("p", "q")), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_rooted_countermodel_agrees_with_exhaustive_search(f, n):
    # every labelled model by the reference clauses; the models come
    # smallest first, so the first refuting one has the fewest worlds
    smallest = next((len(m.worlds) for m in enumerate_models(n, sorted(atoms_of(f)))
                     if any(not satisfies_reference(m, w, f) for w in m.worlds)), None)
    found = rooted_countermodel(f, n)
    assert (found is None) == (smallest is None)
    if found is not None:
        m, root = found
        assert len(m.worlds) == smallest
        assert all((root, w) in m.leq for w in m.worlds)
        assert not satisfies_reference(m, root, f)
        KripkeModel(m.worlds, m.leq, m.valuation, m.domain)  # re-validate


def test_rooted_countermodel_builds_only_the_sizes_it_reaches():
    # one world refutes p, so no larger size is built or budgeted
    m, root = rooted_countermodel(parse_formula("p"), 9)
    assert m.worlds == {root}
    # a theorem reaches every size: 6 worlds are built, 7 would take
    # 4,824 grown posets times 7! relabellings
    with pytest.raises(BudgetExceeded, match="7 worlds"):
        rooted_countermodel(parse_formula("p -> p"), 7)


def test_cached_satisfies_unknown_world_raises():
    f = parse_formula("p -> q")
    ms = list(enumerate_models(2, ["p", "q"]))
    for m in ms[:3]:
        satisfies(m, "w0", f)  # make f the family's cached formula
    for m in ms[:3] + [two_chain()]:
        with pytest.raises(ModelError, match="unknown world"):
            satisfies(m, "nowhere", f)
        with pytest.raises(ModelError, match="unknown world"):
            satisfies(m, "nowhere", f)


def test_cached_satisfies_env_and_first_order_use_reference():
    m = KripkeModel(
        frozenset({"w", "v"}), frozenset({("w", "w"), ("v", "v"), ("w", "v")}),
        {("r", ("d1",)): frozenset({"v"}), ("r", ("d2",)): frozenset({"w", "v"}),
         ("p", ()): frozenset({"v"})},
        ("d1", "d2"),
    )
    cases = [
        (parse_formula("p | ~p"), None),  # compiles the model
        (parse_formula("r(#a) -> p"), {Param("a"): "d1"}),
        (parse_formula("r(#a) -> p"), {Param("a"): "d2"}),
        (parse_formula("forall x. r(x)"), None),
        (parse_formula("exists x. r(x) & p"), None),
        (parse_formula("~~(exists x. r(x)) -> p"), None),
    ]
    for f, env in cases:
        for w in ("w", "v"):
            assert satisfies(m, w, f, env) == satisfies_reference(m, w, f, env)


def test_enumeration_size_pinned():
    assert len(list(enumerate_models(4, ["p", "q"]))) == 17690
    assert count_models(4, ["p", "q"]) == 17690
    # preorders on at most n points: partial sums of OEIS A000798 (1, 4, 29, 355)
    assert [count_models(n, []) for n in range(1, 5)] == [1, 5, 34, 389]


def test_import_keeps_numpy_out():
    import os
    import subprocess
    import sys

    import intcalc

    src = os.path.dirname(os.path.dirname(intcalc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, intcalc; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
