"""Command-line front end.

Exit codes: 0 success; 1 valid-but-negative result (not provable within
bounds, no countermodel within bounds, sequent does not hold); 2 input
error (unparsable input, failed check); 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys

from . import graph as graphmod
from .formula import FormulaError, parse_formula, show_formula
from .hilbert import check_hilbert, parse_hilbert
from .kripke import (
    BudgetExceeded,
    ModelError,
    dump_model,
    enumerate_models,
    labelled_sequent_holds,
    load_model,
    nested_sequent_holds,
    satisfies,
)
from .labelled import (
    CALCULI,
    LabelledSequent,
    SequentError,
    parse_sequent,
    show_sequent,
)
from .nested import NESTED_CALCULI, parse_nested, show_nested
from .proofio import dump_proof, load_proof
from .search import SearchConfig, check_proof, find_countermodel, goal_for, prove
from .transform import TransformError, eliminate_structural, proof_to_nested

OK, NEGATIVE, INPUT_ERROR, INTERNAL = 0, 1, 2, 3


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cmd_parse(args) -> int:
    f = parse_formula(args.formula)
    text = show_formula(f)
    if parse_formula(text) != f:
        print("internal error: printing did not round-trip", file=sys.stderr)
        return INTERNAL
    _write(args.output, text + "\n")
    return OK


def _parse_goal(text: str, calculus: str):
    """The goal text, a formula or a sequent, parsed and put into the
    signature of the calculus (`search.goal_for`)."""
    if calculus in NESTED_CALCULI:
        if "=>" in text:
            raise SequentError("nested calculi use the 'X -> Y' sequent format")
        if "->" in text or "[" in text:
            try:
                return goal_for(parse_nested(text), calculus)
            except (SequentError, FormulaError):
                pass
    elif "=>" in text:
        return goal_for(parse_sequent(text), calculus)
    return goal_for(parse_formula(text), calculus)


def cmd_prove(args) -> int:
    cfg = SearchConfig(
        calculus=args.calc,
        depth_bound=args.depth,
        parameter_budget=args.parameter_budget,
    )
    goal = _parse_goal(args.goal, args.calc)
    d = prove(goal, cfg)
    if d is None:
        print(f"not proved within depth {args.depth} (not a refutation)")
        return NEGATIVE
    ok, where, msg = check_proof(args.calc, d)
    if not ok:
        print(f"internal invariant breach: the proof found fails to check at node "
              f"{list(where)}: {msg}", file=sys.stderr)
        return INTERNAL
    _write(args.output, dump_proof(d, args.calc))
    if args.output not in (None, "-"):
        print(f"proof written to {args.output}")
    return OK


def cmd_check(args) -> int:
    d, kind, calc_in_file = load_proof(_read(args.proof))
    calc = args.calc or calc_in_file
    ok, where, msg = check_proof(calc, d)
    if ok:
        print(f"proof checks in {calc}: {show_sequent(d.conclusion) if kind == 'labelled' else show_nested(d.conclusion)}")
        return OK
    print(f"check failed at node {list(where)}: {msg}", file=sys.stderr)
    return INPUT_ERROR


def cmd_translate(args) -> int:
    text = args.sequent
    if "=>" in text:
        s = parse_sequent(text)
        if args.format == "dot":
            _write(args.output, graphmod.dot_of_graph(graphmod.graph_of_labelled(s)))
            return OK
        ok, viol = graphmod.is_treelike(s)
        if not ok:
            print(f"not treelike: {viol.kind}: {viol.detail}", file=sys.stderr)
            return NEGATIVE
        _write(args.output, show_nested(graphmod.nestify(s)) + "\n")
        return OK
    s = parse_nested(text)
    if args.format == "dot":
        _write(args.output, graphmod.dot_of_graph(graphmod.graph_of_nested(s)))
        return OK
    _write(args.output, show_sequent(graphmod.labelify(s)) + "\n")
    return OK


def cmd_eliminate(args) -> int:
    d, kind, calc_in_file = load_proof(_read(args.proof))
    if kind != "labelled":
        print("eliminate expects a labelled proof", file=sys.stderr)
        return INPUT_ERROR
    calc = args.calc or calc_in_file or "g3int"
    out, report = eliminate_structural(d, calc)
    _write(args.output, dump_proof(out, report.calculus_out))
    if args.report:
        _write(args.report, report.text())
    else:
        sys.stdout.write(report.text())
    if args.to_nested:
        nd = proof_to_nested(out)
        ncalc = "nintqc-star" if report.calculus_out == "intqcl-tree" else "nint-star"
        _write(args.to_nested, dump_proof(nd, ncalc))
    return OK


def cmd_model_eval(args) -> int:
    m = load_model(_read(args.model))
    text = args.goal
    if "=>" in text:
        holds = labelled_sequent_holds(m, parse_sequent(text))
    elif "->" in text and ("[" in text or args.nested):
        holds = nested_sequent_holds(m, parse_nested(text))
    else:
        f = parse_formula(text)
        world = args.world
        if world:
            holds = satisfies(m, world, f, _env_for(m, f))
        else:
            holds = all(satisfies(m, w, f, _env_for(m, f)) for w in sorted(m.worlds))
    print("holds" if holds else "does not hold")
    return OK if holds else NEGATIVE


def _env_for(m, f):
    from .formula import params_of

    ps = params_of(f)
    if not ps:
        return {}
    if not m.domain:
        raise ModelError("formula has parameters but the model has no domain")
    return {p: m.domain[0] for p in ps}


def cmd_countermodel(args) -> int:
    f = parse_formula(args.formula)
    cm = find_countermodel(f, args.max_worlds, args.domain_size)
    if cm is None:
        print(f"no countermodel with up to {args.max_worlds} worlds")
        return NEGATIVE
    out = dump_model(cm.model) + f"# falsified at world {cm.world}\n"
    if cm.env:
        assign = ", ".join(f"{p.name}={d}" for p, d in sorted(cm.env.items(), key=lambda kv: kv[0].name))
        out += f"# parameters: {assign}\n"
    _write(args.output, out)
    return OK


def cmd_hilbert_check(args) -> int:
    d = parse_hilbert(_read(args.derivation))
    rep = check_hilbert(d)
    if rep.ok:
        print(f"derivation checks; conclusion: {show_formula(d.conclusion())}")
        return OK
    print(f"step {rep.failing_step} fails: {rep.reason}", file=sys.stderr)
    return NEGATIVE


def cmd_fuzz_soundness(args) -> int:
    cfg = SearchConfig(calculus=args.calc, depth_bound=args.depth)
    goals = []
    if args.corpus:
        for line in _read(args.corpus).splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                goals.append(line)
    else:
        goals = [
            "p -> (q -> p)",
            "(p & q) -> p",
            "p -> (p | q)",
            "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
            "false -> p",
        ]
    violations = 0
    proved = 0
    for text in goals:
        goal = _parse_goal(text, args.calc)
        d = prove(goal, cfg)
        if d is None:
            print(f"unproved (skipped): {text}")
            continue
        proved += 1
        concl = d.conclusion
        models = enumerate_models(
            args.max_worlds, sorted(_goal_atoms(concl)), mode="random",
            seed=args.seed, count=args.models,
        )
        for m in models:
            holds = (
                labelled_sequent_holds(m, concl)
                if isinstance(goal, LabelledSequent)
                else nested_sequent_holds(m, concl)
            )
            if not holds:
                violations += 1
                print(f"VIOLATION: {text} fails on a model", file=sys.stderr)
                break
    print(f"fuzz: {proved} proved goals x {args.models} models, {violations} violations")
    return INTERNAL if violations else OK


def _goal_atoms(s) -> set[str]:
    if isinstance(s, LabelledSequent):
        return set(s.atom_names())
    from .formula import atoms_of

    out: set[str] = set()
    for f in s.formulas():
        out |= atoms_of(f)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="intcalc",
        description="labelled and nested sequent calculi for intuitionistic logics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("formula")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("prove", help="backward proof search")
    p.add_argument("goal", help="formula or sequent text, converted to the calculus's "
                                "signature: ~A to A -> false where it has no neg_r, "
                                "false to p0 & ~p0 where it has no bot_l")
    p.add_argument("--calc", default="g3int",
                   choices=sorted(CALCULI) + sorted(NESTED_CALCULI))
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--parameter-budget", type=int, default=1,
                   help="fresh parameters a branch may bring in; read only by "
                        "the nested calculi (nint, nintqc and their star forms)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("check", help="check a proof file")
    p.add_argument("proof")
    p.add_argument("--calc", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("translate", help="translate between labelled and nested")
    p.add_argument("sequent")
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("eliminate", help="structural-rule elimination pipeline")
    p.add_argument("proof")
    p.add_argument("--calc", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--to-nested", default=None, metavar="PATH",
                   help="also translate the result to a nested proof file")
    p.set_defaults(fn=cmd_eliminate)

    p = sub.add_parser("model-eval", help="evaluate a formula or sequent on a model")
    p.add_argument("model")
    p.add_argument("goal")
    p.add_argument("--world", default=None)
    p.add_argument("--nested", action="store_true")
    p.set_defaults(fn=cmd_model_eval)

    p = sub.add_parser("countermodel", help="finite countermodel search: fewest worlds for a "
                       "propositional formula, every labelled model for a first-order one")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--domain-size", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_countermodel)

    p = sub.add_parser("hilbert-check", help="check a Hilbert derivation file")
    p.add_argument("derivation")
    p.set_defaults(fn=cmd_hilbert_check)

    p = sub.add_parser("fuzz-soundness", help="prove goals, then test them on random models")
    p.add_argument("--corpus", default=None, help="file with one goal per line")
    p.add_argument("--calc", default="g3int",
                   choices=sorted(CALCULI) + sorted(NESTED_CALCULI))
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--models", type=int, default=100)
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fuzz_soundness)

    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return INPUT_ERROR if e.code not in (0, None) else OK
    try:
        return args.fn(args)
    except (FormulaError, SequentError, ModelError, BudgetExceeded,
            FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return INPUT_ERROR
    except TransformError as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
