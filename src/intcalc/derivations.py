"""Ready-made derivation constructions for the labelled calculi.

Builders for the generalized initial sequents (the w:A => v:A and
w:A => w:A families, by mutual recursion on the formula), the first-order
axiom derivations over constant domains, and the simulation of the
generalization rule.  Every node is checked as it is built.

The builders work in the {false,&,|,->} signature; negation must be
unfolded first (convert_signature toBot).
"""

from __future__ import annotations

from .formula import (
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Formula,
    Impl,
    Neg,
    Or,
    Param,
    Var,
    params_of,
    substitute_param,
)
from .labelled import (
    DomAtom,
    Label,
    LabelledDerivation,
    LabelledSequent,
    RelAtom,
    Rule,
    SequentError,
    Witness,
    check_inference,
    fresh_labels,
    fresh_params,
)
from .transform import TransformError, substitute_derivation, weaken_derivation

CALC = "g3intqc"


def _mk(
    calc: str,
    rule: Rule,
    conclusion: LabelledSequent,
    premises: tuple[LabelledDerivation, ...],
    witness: Witness,
) -> LabelledDerivation:
    ok, msg = check_inference(
        calc, rule, conclusion, [p.conclusion for p in premises], witness
    )
    if not ok:
        raise TransformError(f"construction produced a bad {rule.value} inference: {msg}")
    return LabelledDerivation(conclusion, rule, premises, witness)


def _used_names(s: LabelledSequent) -> set[str]:
    return {l.name for l in s.labels()} | {p.name for p in s.params()}


def _distinct_params(f: Formula) -> list[Param]:
    return list(params_of(f))


def _nd_chain(
    top: LabelledDerivation, params, lower: Label, upper: Label
) -> LabelledDerivation:
    """Stack nd inferences moving each a in D(lower) up to D(upper).

    top proves the sequent with all the a in D(upper) atoms present;
    the result drops them one by one.
    """
    d = top
    for a in reversed(list(params)):
        concl = d.conclusion.remove(dom=[DomAtom(a, upper)])
        d = _mk(CALC, Rule.ND, concl, (d,),
                Witness(rel=RelAtom(lower, upper), dom=DomAtom(a, lower)))
    return d


def initial_step(f: Formula, w: Label, v: Label, target: LabelledSequent) -> LabelledDerivation:
    """Derivation of target, which must contain w<=v, a in D(w) for every
    parameter of f, w:f on the left and v:f on the right."""
    return _initial(f, w, v, target, step=True)


def initial_refl(f: Formula, w: Label, target: LabelledSequent) -> LabelledDerivation:
    """Derivation of target, which must contain a in D(w) for every
    parameter of f and f at w on both sides."""
    return _initial(f, w, w, target, step=False)


def _initial(f: Formula, w: Label, v: Label, target: LabelledSequent,
             step: bool) -> LabelledDerivation:
    """w:f => v:f inside target: a step w<=v, or the reflexive case v = w.

    They differ in three places: a step carries the world that imp_r or
    forall_r creates above v down to w by tra, and the parameter that
    exists_l brings in at w up to v by nd; the reflexive case closes an
    atom through ref when the loop w<=w is missing."""
    _require(f, w, v, target, step)
    if isinstance(f, Bot):
        return _mk(CALC, Rule.BOT_L, target, (), Witness(principal=(w, f)))
    if isinstance(f, Atom):
        rule = Rule.ID if not f.args else Rule.ID_Q
        rel = RelAtom(w, v)
        leaf = Witness(principal=(w, f), formula=(v, f), rel=rel)
        if rel in target.rel:
            return _mk(CALC, rule, target, (), leaf)
        closed = _mk(CALC, rule, target.add(rel=[rel]), (), leaf)
        return _mk(CALC, Rule.REF, target, (closed,), Witness(label=w))
    if isinstance(f, And):
        t1 = target.remove(ante=[(w, f)]).add(ante=[(w, f.left), (w, f.right)])
        ta = t1.remove(succ=[(v, f)]).add(succ=[(v, f.left)])
        tb = t1.remove(succ=[(v, f)]).add(succ=[(v, f.right)])
        da = _initial(f.left, w, v, ta, step)
        db = _initial(f.right, w, v, tb, step)
        n = _mk(CALC, Rule.AND_R, t1, (da, db), Witness(principal=(v, f)))
        return _mk(CALC, Rule.AND_L, target, (n,), Witness(principal=(w, f)))
    if isinstance(f, Or):
        ta = target.remove(ante=[(w, f)]).add(ante=[(w, f.left)])
        tb = target.remove(ante=[(w, f)]).add(ante=[(w, f.right)])
        ta1 = ta.remove(succ=[(v, f)]).add(succ=[(v, f.left), (v, f.right)])
        tb1 = tb.remove(succ=[(v, f)]).add(succ=[(v, f.left), (v, f.right)])
        da = _mk(CALC, Rule.OR_R, ta, (_initial(f.left, w, v, ta1, step),),
                 Witness(principal=(v, f)))
        db = _mk(CALC, Rule.OR_R, tb, (_initial(f.right, w, v, tb1, step),),
                 Witness(principal=(v, f)))
        return _mk(CALC, Rule.OR_L, target, (da, db), Witness(principal=(w, f)))
    if isinstance(f, Impl):
        used = _used_names(target)
        u = fresh_labels(used)[0]
        t1 = target.remove(succ=[(v, f)]).add(
            rel=[RelAtom(v, u)], ante=[(u, f.left)], succ=[(u, f.right)]
        )
        t2 = t1.add(rel=[RelAtom(w, u)]) if step else t1
        p1 = t2.add(succ=[(u, f.left)])
        p2 = t2.add(ante=[(u, f.right)])
        da = _nd_sub(f.left, u, u, w, p1, step=False)
        db = _nd_sub(f.right, u, u, w, p2, step=False)
        n = _mk(CALC, Rule.IMP_L, t2, (da, db),
                Witness(principal=(w, f), rel=RelAtom(w, u)))
        if step:
            n = _mk(CALC, Rule.TRA, t1, (n,), Witness(rel=RelAtom(w, v), rel2=RelAtom(v, u)))
        return _mk(CALC, Rule.IMP_R, target, (n,),
                   Witness(principal=(v, f), label=u))
    if isinstance(f, Forall):
        used = _used_names(target)
        u = fresh_labels(used)[0]
        b = fresh_params(used)[0]
        inst = substitute_param(f.body, b, f.var)
        t1 = target.remove(succ=[(v, f)]).add(
            rel=[RelAtom(v, u)], dom=[DomAtom(b, u)], succ=[(u, inst)]
        )
        t2 = t1.add(rel=[RelAtom(w, u)]) if step else t1
        t3 = t2.add(ante=[(u, inst)])
        top = _nd_sub(inst, u, u, w, t3, step=False, skip={b})
        n = _mk(CALC, Rule.FORALL_L, t2, (top,),
                Witness(principal=(w, f), rel=RelAtom(w, u), dom=DomAtom(b, u)))
        if step:
            n = _mk(CALC, Rule.TRA, t1, (n,), Witness(rel=RelAtom(w, v), rel2=RelAtom(v, u)))
        return _mk(CALC, Rule.FORALL_R, target, (n,),
                   Witness(principal=(v, f), label=u, param=b))
    if isinstance(f, Exists):
        used = _used_names(target)
        b = fresh_params(used)[0]
        inst = substitute_param(f.body, b, f.var)
        t1 = target.remove(ante=[(w, f)]).add(
            dom=[DomAtom(b, w)], ante=[(w, inst)]
        )
        t2 = t1.add(dom=[DomAtom(b, v)]) if step else t1
        t3 = t2.add(succ=[(v, inst)])
        top = _initial(inst, w, v, t3, step)
        n = _mk(CALC, Rule.EXISTS_R, t2, (top,),
                Witness(principal=(v, f), dom=DomAtom(b, v)))
        if step:
            n = _mk(CALC, Rule.ND, t1, (n,),
                    Witness(rel=RelAtom(w, v), dom=DomAtom(b, w)))
        return _mk(CALC, Rule.EXISTS_L, target, (n,),
                   Witness(principal=(w, f), param=b))
    raise SequentError(f"negation-free formula expected, got {f!r}")


def _nd_sub(f, w, v, base, target, step: bool, skip=frozenset()):
    """_initial from w to v after moving f's parameters (but skip) from
    D(base) up to D(w)."""
    ps = [a for a in _distinct_params(f)
          if a not in skip and DomAtom(a, w) not in target.dom]
    top = _initial(f, w, v, target.add(dom=[DomAtom(a, w) for a in ps]), step)
    return _nd_chain(top, ps, base, w)


def _require(f, w, v, target, step: bool) -> None:
    if any(isinstance(g, Neg) for g in _walk(f)):
        raise SequentError("convert the formula with toBot before building")
    if step and RelAtom(w, v) not in target.rel:
        raise SequentError(f"target lacks {w!r}<={v!r}")
    for a in _distinct_params(f):
        if DomAtom(a, w) not in target.dom:
            raise SequentError(f"target lacks {a!r} in D({w!r})")
    if (w, f) not in target.ante:
        raise SequentError(f"target lacks {w!r}:{f!r} on the left")
    if (v, f) not in target.succ:
        raise SequentError(f"target lacks {v!r}:{f!r} on the right")


def _walk(f):
    yield f
    if isinstance(f, Neg):
        yield from _walk(f.body)
    elif isinstance(f, (And, Or, Impl)):
        yield from _walk(f.left)
        yield from _walk(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from _walk(f.body)


def generalized_init_step(f: Formula, w: Label, v: Label) -> LabelledDerivation:
    """w<=v, params(f) in D(w), w:f => v:f with empty context."""
    target = LabelledSequent(
        rel=(RelAtom(w, v),),
        dom=tuple(DomAtom(a, w) for a in _distinct_params(f)),
        ante=((w, f),),
        succ=((v, f),),
    )
    return initial_step(f, w, v, target)


def generalized_init_refl(f: Formula, w: Label) -> LabelledDerivation:
    """params(f) in D(w), w:f => w:f with empty context."""
    target = LabelledSequent(
        dom=tuple(DomAtom(a, w) for a in _distinct_params(f)),
        ante=((w, f),),
        succ=((w, f),),
    )
    return initial_refl(f, w, target)


# ---------------------------------------------------------------------------
# first-order axiom derivations over constant domains
#
# Each builder returns (derivation, skeleton) where the skeleton is the
# list of rule ids of the axiom-specific part, bottom-up, excluding the
# generalized-initial subderivations.

def forall_instantiation_axiom(body: Formula, x: Var, a: Param):
    """params in D(w) => w: (forall x. body) -> body[a/x]"""
    f_all = Forall(x, body)
    inst = substitute_param(body, a, x)
    w = Label("w")
    ps = list(dict.fromkeys(list(params_of(f_all)) + [a]))
    base_dom = tuple(DomAtom(c, w) for c in ps)
    goal = LabelledSequent(dom=base_dom, succ=((w, Impl(f_all, inst)),))
    u = Label("u")
    t1 = goal.remove(succ=[(w, Impl(f_all, inst))]).add(
        rel=[RelAtom(w, u)], ante=[(u, f_all)], succ=[(u, inst)]
    )
    t2 = t1.add(rel=[RelAtom(u, u)])
    t3 = t2.add(dom=[DomAtom(c, u) for c in ps])
    t4 = t3.add(ante=[(u, inst)])
    skeleton: list[Rule] = []
    top = initial_refl(inst, u, t4)
    d = _mk(CALC, Rule.FORALL_L, t3, (top,),
            Witness(principal=(u, f_all), rel=RelAtom(u, u), dom=DomAtom(a, u)))
    skeleton.append(Rule.FORALL_L)
    d = _nd_chain(d, ps, w, u)
    skeleton.extend([Rule.ND] * len(ps))
    d = _mk(CALC, Rule.REF, t1, (d,), Witness(label=u))
    skeleton.append(Rule.REF)
    d = _mk(CALC, Rule.IMP_R, goal, (d,),
            Witness(principal=(w, Impl(f_all, inst)), label=u))
    skeleton.append(Rule.IMP_R)
    return d, skeleton


def exists_introduction_axiom(body: Formula, x: Var, a: Param):
    """params in D(w) => w: body[a/x] -> exists x. body"""
    f_ex = Exists(x, body)
    inst = substitute_param(body, a, x)
    w = Label("w")
    ps = list(dict.fromkeys(list(params_of(f_ex)) + [a]))
    base_dom = tuple(DomAtom(c, w) for c in ps)
    goal = LabelledSequent(dom=base_dom, succ=((w, Impl(inst, f_ex)),))
    u = Label("u")
    t1 = goal.remove(succ=[(w, Impl(inst, f_ex))]).add(
        rel=[RelAtom(w, u)], ante=[(u, inst)], succ=[(u, f_ex)]
    )
    t2 = t1.add(dom=[DomAtom(c, u) for c in ps])
    t3 = t2.add(succ=[(u, inst)])
    skeleton: list[Rule] = []
    top = initial_refl(inst, u, t3)
    d = _mk(CALC, Rule.EXISTS_R, t2, (top,),
            Witness(principal=(u, f_ex), dom=DomAtom(a, u)))
    skeleton.append(Rule.EXISTS_R)
    d = _nd_chain(d, ps, w, u)
    skeleton.extend([Rule.ND] * len(ps))
    d = _mk(CALC, Rule.IMP_R, goal, (d,),
            Witness(principal=(w, Impl(inst, f_ex)), label=u))
    skeleton.append(Rule.IMP_R)
    return d, skeleton


def forall_shift_axiom(antecedent: Formula, body: Formula, x: Var):
    """=> w: forall x.(antecedent -> body)  ->  (antecedent -> forall x. body)

    antecedent must not contain x free.
    """
    f_in = Forall(x, Impl(antecedent, body))
    f_out = Impl(antecedent, Forall(x, body))
    w, v, u, z = Label("w"), Label("v"), Label("u"), Label("z")
    ps = list(dict.fromkeys(list(params_of(f_in)) + list(params_of(f_out))))
    goal = LabelledSequent(
        dom=tuple(DomAtom(c, w) for c in ps), succ=((w, Impl(f_in, f_out)),)
    )
    skeleton: list[Rule] = []
    a = fresh_params(_used_names(goal) | {l.name for l in (v, u, z)})[0]
    inst_body = substitute_param(body, a, x)
    inst_imp = Impl(antecedent, inst_body)

    t1 = goal.remove(succ=[(w, Impl(f_in, f_out))]).add(
        rel=[RelAtom(w, v)], ante=[(v, f_in)], succ=[(v, f_out)]
    )
    t2 = t1.remove(succ=[(v, f_out)]).add(
        rel=[RelAtom(v, u)], ante=[(u, antecedent)], succ=[(u, Forall(x, body))]
    )
    t3 = t2.remove(succ=[(u, Forall(x, body))]).add(
        rel=[RelAtom(u, z)], dom=[DomAtom(a, z)], succ=[(z, inst_body)]
    )
    t4 = t3.add(rel=[RelAtom(v, z)])
    t5 = t4.add(ante=[(z, inst_imp)])
    t6 = t5.add(rel=[RelAtom(z, z)])
    p1 = t6.add(succ=[(z, antecedent)])
    p2 = t6.add(ante=[(z, inst_body)])

    # left branch: antecedent travels from u up to z
    da = _nd_sub(antecedent, u, z, w, p1, step=True)
    # right branch: the instantiated body closes reflexively at z
    db = _nd_sub(inst_body, z, z, w, p2, step=False, skip={a})
    d = _mk(CALC, Rule.IMP_L, t6, (da, db),
            Witness(principal=(z, inst_imp), rel=RelAtom(z, z)))
    skeleton.append(Rule.IMP_L)
    d = _mk(CALC, Rule.REF, t5, (d,), Witness(label=z))
    skeleton.append(Rule.REF)
    d = _mk(CALC, Rule.FORALL_L, t4, (d,),
            Witness(principal=(v, f_in), rel=RelAtom(v, z), dom=DomAtom(a, z)))
    skeleton.append(Rule.FORALL_L)
    d = _mk(CALC, Rule.TRA, t3, (d,),
            Witness(rel=RelAtom(v, u), rel2=RelAtom(u, z)))
    skeleton.append(Rule.TRA)
    d = _mk(CALC, Rule.FORALL_R, t2, (d,),
            Witness(principal=(u, Forall(x, body)), label=z, param=a))
    skeleton.append(Rule.FORALL_R)
    d = _mk(CALC, Rule.IMP_R, t1, (d,),
            Witness(principal=(v, f_out), label=u))
    skeleton.append(Rule.IMP_R)
    d = _mk(CALC, Rule.IMP_R, goal, (d,),
            Witness(principal=(w, Impl(f_in, f_out)), label=v))
    skeleton.append(Rule.IMP_R)
    return d, skeleton


def constant_domain_axiom(body: Formula, other: Formula, x: Var):
    """=> w: forall x.(body | other)  ->  (forall x. body) | other

    other must not contain x free.
    """
    f_in = Forall(x, Or(body, other))
    f_all = Forall(x, body)
    f_out = Or(f_all, other)
    w, v, u = Label("w"), Label("v"), Label("u")
    ps = list(dict.fromkeys(list(params_of(f_in)) + list(params_of(f_out))))
    goal = LabelledSequent(
        dom=tuple(DomAtom(c, w) for c in ps), succ=((w, Impl(f_in, f_out)),)
    )
    skeleton: list[Rule] = []
    a = fresh_params(_used_names(goal) | {l.name for l in (v, u)})[0]
    inst_body = substitute_param(body, a, x)
    inst_or = Or(inst_body, other)

    t1 = goal.remove(succ=[(w, Impl(f_in, f_out))]).add(
        rel=[RelAtom(w, v)], ante=[(v, f_in)], succ=[(v, f_out)]
    )
    t2 = t1.remove(succ=[(v, f_out)]).add(succ=[(v, f_all), (v, other)])
    t3 = t2.remove(succ=[(v, f_all)]).add(
        rel=[RelAtom(v, u)], dom=[DomAtom(a, u)], succ=[(u, inst_body)]
    )
    t4 = t3.add(dom=[DomAtom(a, v)])
    t5 = t4.add(rel=[RelAtom(v, v)])
    t6 = t5.add(ante=[(v, inst_or)])
    pa = t6.remove(ante=[(v, inst_or)]).add(ante=[(v, inst_body)])
    pb = t6.remove(ante=[(v, inst_or)]).add(ante=[(v, other)])

    da = _nd_sub(inst_body, v, u, w, pa, step=True)
    db = _nd_sub(other, v, v, w, pb, step=False)
    d = _mk(CALC, Rule.OR_L, t6, (da, db), Witness(principal=(v, inst_or)))
    skeleton.append(Rule.OR_L)
    d = _mk(CALC, Rule.FORALL_L, t5, (d,),
            Witness(principal=(v, f_in), rel=RelAtom(v, v), dom=DomAtom(a, v)))
    skeleton.append(Rule.FORALL_L)
    d = _mk(CALC, Rule.REF, t4, (d,), Witness(label=v))
    skeleton.append(Rule.REF)
    d = _mk(CALC, Rule.CD, t3, (d,),
            Witness(rel=RelAtom(v, u), dom=DomAtom(a, u)))
    skeleton.append(Rule.CD)
    d = _mk(CALC, Rule.FORALL_R, t2, (d,),
            Witness(principal=(v, f_all), label=u, param=a))
    skeleton.append(Rule.FORALL_R)
    d = _mk(CALC, Rule.OR_R, t1, (d,), Witness(principal=(v, f_out)))
    skeleton.append(Rule.OR_R)
    d = _mk(CALC, Rule.IMP_R, goal, (d,),
            Witness(principal=(w, Impl(f_in, f_out)), label=v))
    skeleton.append(Rule.IMP_R)
    return d, skeleton


def simulate_generalization(
    d: LabelledDerivation, a: Param, x: Var
) -> LabelledDerivation:
    """From a derivation of  params, a in D(w) => w:A  build one of
    params in D(w) => w: forall x. A[x/a]  (weakening, nd, forall_r, and a
    height-preserving label substitution)."""
    end = d.conclusion
    if end.rel or end.ante or len(end.succ) != 1:
        raise SequentError("generalization expects a sequent 'doms => w:A'")
    (w, f) = end.succ[0]
    if DomAtom(a, w) not in end.dom:
        raise SequentError(f"{a!r} is not in D({w!r})")
    others = [dm.a for dm in end.dom if dm.a != a]
    gen = Forall(x, _abstract(f, a, x))
    used = {w.name} | {p.name for p in end.params()} | {x.name}
    u = fresh_labels(used, stem="u")[0]
    d1 = weaken_derivation(
        d, CALC, rel=[RelAtom(u, w)], dom=[DomAtom(c, u) for c in others]
    )
    d1 = _nd_chain(d1, others, u, w)
    concl = LabelledSequent(
        dom=tuple(DomAtom(c, u) for c in others), succ=((u, gen),)
    )
    d1 = _mk(CALC, Rule.FORALL_R, concl, (d1,),
             Witness(principal=(u, gen), label=w, param=a))
    return substitute_derivation(d1, "label", w, u, CALC)


def _abstract(f: Formula, a: Param, x: Var) -> Formula:
    """Replace the parameter a by the (to-be-bound) variable x."""
    if isinstance(f, Bot):
        return f
    if isinstance(f, Atom):
        return Atom(f.name, tuple(x if t == a else t for t in f.args))
    if isinstance(f, Neg):
        return Neg(_abstract(f.body, a, x))
    if isinstance(f, (And, Or, Impl)):
        return type(f)(_abstract(f.left, a, x), _abstract(f.right, a, x))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, _abstract(f.body, a, x))
    raise SequentError(f"not a formula: {f!r}")
