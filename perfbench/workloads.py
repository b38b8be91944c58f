"""The four workloads.  Each builds its inputs from the seed and warms the
program's lazily built caches when constructed (set-up); `ops` is one pass,
`run` is the timed call, and `check` judges its output against the
benchmark's own semantics (`refsem`) or against properties the method
must have.  `check` returns "ok", "failed" (the program gave no answer),
or a message naming a wrong answer.

The program is called through module attributes (`search.prove`, ...) so
that the traced run sees every call; the checks hold the functions they
use from before tracing starts, so the trace sees none of them.
"""

from __future__ import annotations

import functools
import random

from intcalc import kripke, proofio, search, transform
from intcalc.formula import Bot, convert_signature, parse_formula, subformulas
from intcalc.graph import is_treelike, nestify
from intcalc.labelled import Label, LabelledSequent, Rule, check_derivation
from intcalc.nested import NestedSequent, check_nested_derivation
from intcalc.proofio import load_proof
from intcalc.search import SearchConfig

import corpora
import refsem

W = Label("w")


def labelled_goal(f, calc: str) -> LabelledSequent:
    # the plain G3 calculi have no negation rules
    g = convert_signature(f, "toBot") if calc in ("g3int", "g3intqc") else f
    return LabelledSequent(succ=((W, g),))


def nested_goal(f) -> NestedSequent:
    # the nested calculi have no rule for false
    bot = any(isinstance(g, Bot) for g in subformulas(f))
    return NestedSequent(succ=(convert_signature(f, "toNeg") if bot else f,))


# refsem's countermodel search, once per formula
countermodel = functools.lru_cache(maxsize=None)(refsem.countermodel)


# ---------------------------------------------------------------------------

class Decide:
    """decide_prop(f, 4, nint-star at depth 12) on the graded corpus."""

    tail = 99
    passes = 1
    reached = ("kripke.rooted_countermodel", "search.prove", "nested.nested_premises_for",
               "nested.check_nested_derivation")
    SAMPLE = {4: 2400, 5: 1200}
    CFG = SearchConfig("nint-star", 12)

    def __init__(self, seed: int):
        rng = random.Random(f"decide:{seed}")
        graded = corpora.Graded(3)
        self.ops = [f for layer in graded.layers for f in layer]
        for n, count in self.SAMPLE.items():
            self.ops += graded.sample(rng, n, count)
        self.ops += corpora.axiom_instances(corpora.BASE)
        # a fixed order that mixes the layers
        rng.shuffle(self.ops)
        for text in ("p", "q", "false", "p | ~p", "p -> q -> p", "(p -> q) | (q -> p)",
                     "~~p -> p", "p -> p"):
            self.run(parse_formula(text))

    def run(self, f):
        return search.decide_prop(f, 4, self.CFG)

    def check(self, f, dec) -> str:
        if dec.verdict == "undecided":
            return "failed"
        if dec.verdict == "countermodel":
            cm = dec.countermodel
            if dec.proof is not None or len(cm.model.worlds) > 4:
                return "countermodel verdict with a proof or over 4 worlds"
            if refsem.holds_at(cm.model, cm.world, f):
                return "the countermodel does not refute the formula"
            return "ok"
        if dec.verdict != "theorem" or dec.proof is None or dec.countermodel is not None:
            return f"malformed decision {dec.verdict!r}"
        if countermodel(f) is not None:
            return "theorem verdict on a formula with a countermodel"
        if dec.proof.conclusion != nested_goal(f):
            return "the proof has another end sequent"
        ok, _, msg = check_nested_derivation("nint-star", dec.proof)
        return "ok" if ok else f"the proof fails to check: {msg}"


# ---------------------------------------------------------------------------

class Families:
    """prove in g3int and nint-star on scalable families; Kreisel-Putnam
    and Peirce fail at rising depth bounds."""

    tail = 90
    passes = 3
    reached = ("search.prove", "labelled.premises_for", "nested.nested_premises_for")

    def __init__(self, seed: int):
        # the families are fixed; the seed only orders the pass
        rng = random.Random(f"families:{seed}")
        ops = []
        for calc, fwd, bwd in (("g3int", 10, 10), ("nint-star", 3, 4)):
            ops += [(calc, corpora.chain_forward(k), 4 * k + 4, True) for k in range(1, fwd + 1)]
            ops += [(calc, corpora.chain_backward(k), 4 * k + 4, True) for k in range(1, bwd + 1)]
            ops += [(calc, corpora.lem_conjunction(k), 4 * k + 4, True) for k in range(1, 17)]
            ops += [(calc, corpora.KREISEL_PUTNAM, d, False) for d in range(2, 11)]
            ops += [(calc, corpora.PEIRCE, d, False) for d in range(2, 15)]
        rng.shuffle(ops)
        self.ops = [(calc, f, depth, theorem, self._goal(calc, f))
                    for calc, f, depth, theorem in ops]
        for calc in ("g3int", "nint-star"):
            search.prove(self._goal(calc, corpora.chain_forward(1)), SearchConfig(calc, 8))

    @staticmethod
    def _goal(calc, f):
        return labelled_goal(f, calc) if calc == "g3int" else nested_goal(f)

    def run(self, op):
        calc, _f, depth, _theorem, goal = op
        return search.prove(goal, SearchConfig(calc, depth))

    def check(self, op, d) -> str:
        calc, f, _depth, theorem, goal = op
        if not theorem:
            if d is not None:
                return "a proof of a non-theorem"
            return "ok" if countermodel(f) is not None else "no countermodel for a failed search"
        if d is None:
            return "failed"
        if d.conclusion != goal:
            return "the proof has another end sequent"
        checker = check_derivation if calc == "g3int" else check_nested_derivation
        ok, _, msg = checker(calc, d)
        return "ok" if ok else f"the proof fails to check: {msg}"


# ---------------------------------------------------------------------------

_STRUCTURAL_OR_DERIVED = {Rule.REF, Rule.TRA, Rule.ND, Rule.CD, Rule.ID, Rule.ID_Q,
                          Rule.BOT_L, Rule.IMP_L, Rule.FORALL_L, Rule.FORALL_R, Rule.EXISTS_R}


def _searched_proofs(chain_max: int, lem_max: int):
    """(calculus, derivation) of every pipeline input: G3Int proofs of the
    Horn chains, of the ~~(p | ~p) conjunctions and of the acceptance
    suite's propositional corpus, and G3IntQC proofs of its first-order
    corpus."""
    out = []
    for k in range(1, chain_max + 1):
        for fam in (corpora.chain_forward, corpora.chain_backward):
            out.append(("g3int", search.prove(labelled_goal(fam(k), "g3int"),
                                              SearchConfig("g3int", 4 * k + 4))))
    for k in range(1, lem_max + 1):
        out.append(("g3int", search.prove(labelled_goal(corpora.lem_conjunction(k), "g3int"),
                                          SearchConfig("g3int", 4 * k + 4))))
    for text in corpora.PROP_CORPUS:
        out.append(("g3int", search.prove(labelled_goal(parse_formula(text), "g3int"),
                                          SearchConfig("g3int", 14))))
    for text in corpora.FO_CORPUS:
        out.append(("g3intqc", search.prove(labelled_goal(parse_formula(text), "g3intqc"),
                                            SearchConfig("g3intqc", 14, parameter_budget=2))))
    if any(d is None for _, d in out):
        raise RuntimeError("a pipeline input was not proved")
    return out


class Pipeline:
    """load_proof -> eliminate_structural -> proof_to_nested -> dump_proof."""

    tail = 80
    passes = 3
    reached = ("proofio.load_proof", "transform.eliminate_structural",
               "transform.proof_to_nested", "proofio.dump_proof", "labelled.check_derivation",
               "labelled.check_inference", "nested.check_nested_derivation",
               "graph.nestify_with_paths", "graph.is_treelike", "formula.parse_formula")
    # the largest inputs set how many passes fit in a run, and the tail
    # (one operation's median over the passes) is only as steady as that
    CHAINS, LEMS = 5, 6

    def __init__(self, seed: int):
        rng = random.Random(f"pipeline:{seed}")
        self.ops = []
        for calc, d in _searched_proofs(self.CHAINS, self.LEMS):
            end = d.conclusion
            expected = LabelledSequent(end.rel, end.dom,
                                       tuple((w, convert_signature(f, "toNeg")) for w, f in end.ante),
                                       tuple((w, convert_signature(f, "toNeg")) for w, f in end.succ))
            self.ops.append((proofio.dump_proof(d, calc), calc, expected))
        rng.shuffle(self.ops)
        self.run(self.ops[0])

    def run(self, op):
        d, _kind, calc = proofio.load_proof(op[0])
        out, _report = transform.eliminate_structural(d, calc)
        nd = transform.proof_to_nested(out)
        ncalc = "nint-star" if calc == "g3int" else "nintqc-star"
        return out, nd, proofio.dump_proof(nd, ncalc)

    def check(self, op, result) -> str:
        _text, calc, expected = op
        out, nd, text = result
        tree = "g3int-tree" if calc == "g3int" else "intqcl-tree"
        ncalc = "nint-star" if calc == "g3int" else "nintqc-star"
        if out.conclusion != expected:
            return "elimination changed the end sequent"
        if any(n.rule in _STRUCTURAL_OR_DERIVED for n in out.nodes()):
            return "elimination left a structural or derived rule"
        if not all(is_treelike(n.conclusion)[0] for n in out.nodes()):
            return "elimination left a sequent that is not treelike"
        ok, _, msg = check_derivation(tree, out)
        if not ok:
            return f"the eliminated proof fails to check: {msg}"
        if nd.conclusion != nestify(expected):
            return "the nested proof has another end sequent"
        ok, _, msg = check_nested_derivation(ncalc, nd)
        if not ok:
            return f"the nested proof fails to check: {msg}"
        try:
            back = load_proof(text)
        except ValueError as e:
            # the program wrote a proof file it cannot read back
            return f"failed: the nested proof file does not load: {e}"
        if back != (nd, "nested", ncalc):
            return "the nested proof does not survive a JSON round trip"
        return "ok"


# ---------------------------------------------------------------------------

class Oracle:
    """The semantic checks: theorems on every enumerated model, proof-node
    conclusions on random models, refuted goals on their countermodels."""

    tail = 95
    passes = 3
    reached = ("kripke.satisfies", "kripke.labelled_sequent_holds",
               "kripke.nested_sequent_holds")
    THEOREMS = 40
    MAX_WORLDS = 4
    REFUTED = 96
    GOALS_PER_OP = 8

    def __init__(self, seed: int):
        rng = random.Random(f"oracle:{seed}")
        self.models = list(kripke.enumerate_models(4, ["p", "q"]))
        graded = corpora.Graded(3)
        theorems, refuted = [], []
        pool = graded.layers[2] + graded.layers[3]
        while len(theorems) < self.THEOREMS or len(refuted) < self.REFUTED:
            f = rng.choice(pool)
            cm = countermodel(f)
            if cm is None and len(theorems) < self.THEOREMS and f not in theorems:
                theorems.append(f)
            elif cm is not None and len(refuted) < self.REFUTED:
                refuted.append((f, _model_text(*cm), cm))
        ops = [("theorem", f) for f in theorems]

        conclusions = {}
        for text in corpora.PROP_CORPUS:
            d = search.prove(labelled_goal(parse_formula(text), "g3int"), SearchConfig("g3int", 14))
            out, _ = transform.eliminate_structural(d, "g3int")
            nd = transform.proof_to_nested(out)
            conclusions.update((("labelled", n.conclusion), None) for n in out.nodes())
            conclusions.update((("nested", n.conclusion), None) for n in nd.nodes())
        atoms = ["p", "q", "r", "p0"]
        for kind, s in conclusions:
            # one random model of each size, so that the cost of the
            # product over label assignments does not follow the seed
            models = [kripke.KripkeModel(*corpora.random_model_parts(rng, n, atoms))
                      for n in range(1, self.MAX_WORLDS + 1)]
            ops.append((kind, s, models))
        for i in range(0, self.REFUTED, self.GOALS_PER_OP):
            ops.append(("refuted", refuted[i:i + self.GOALS_PER_OP]))
        rng.shuffle(ops)
        self.ops = ops
        self.expected: dict = {}
        for op in (("theorem", parse_formula("p -> p")),
                   next(op for op in ops if op[0] == "labelled"),
                   next(op for op in ops if op[0] == "nested"),
                   next(op for op in ops if op[0] == "refuted")):
            self.run(op)

    def run(self, op):
        kind = op[0]
        if kind == "theorem":
            f = op[1]
            return sum(1 for m in self.models for w in m.worlds if not kripke.satisfies(m, w, f))
        if kind == "labelled":
            return [kripke.labelled_sequent_holds(m, op[1]) for m in op[2]]
        if kind == "nested":
            return [kripke.nested_sequent_holds(m, op[1]) for m in op[2]]
        out = []
        for f, text, _cm in op[1]:
            m = kripke.load_model(text)
            out.append([kripke.satisfies(m, w, f) for w in sorted(m.worlds)])
        return out

    def check(self, op, answer) -> str:
        key = id(op)
        if key not in self.expected:
            self.expected[key] = self._expect(op)
        return "ok" if answer == self.expected[key] else f"{op[0]}: the oracle disagrees with the reference"

    def _expect(self, op):
        kind = op[0]
        if kind == "theorem":
            # valid on every rooted poset with at most four worlds, so true
            # at every world of every model with at most four worlds
            return 0 if countermodel(op[1]) is None else None
        if kind == "labelled":
            return [refsem.labelled_holds(m, op[1]) for m in op[2]]
        if kind == "nested":
            return [refsem.nested_holds(m, op[1]) for m in op[2]]
        out = []
        for f, _text, (up, val) in op[1]:
            masks = {a: [int(w in ws) for w in range(len(up))] for a, ws in val.items()}
            out.append([bool(t) for t in refsem.forced(up, masks, 1, f)])
        return out


def _model_text(up, val) -> str:
    """A model in the text format `kripke.load_model` reads."""
    lines = ["worlds: " + " ".join(f"w{i}" for i in range(len(up)))]
    edges = [f"w{i} <= w{j}" for i in range(len(up)) for j in up[i] if j != i]
    if edges:
        lines.append("leq: " + ", ".join(edges))
    for a, ws in sorted(val.items()):
        lines += [f"val: {a} @ w{i}" for i in sorted(ws)]
    return "\n".join(lines) + "\n"


WORKLOADS = {"decide": Decide, "families": Families, "pipeline": Pipeline, "oracle": Oracle}
