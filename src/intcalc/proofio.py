"""Proof files: JSON trees with explicit sequents, rules and witnesses.

The format keeps checking search-free: every node records its conclusion
in the sequent text format, the rule id, the witness fields, and the
premise subtrees.  Labelled and nested derivations share the layout; the
`kind` field at the root distinguishes them.
"""

from __future__ import annotations

import json

from .formula import Param, parse_formula, show_formula
from .labelled import (
    DomAtom,
    Label,
    LabelledDerivation,
    LabelledSequent,
    RelAtom,
    Rule,
    SequentError,
    Witness,
    parse_sequent,
    show_sequent,
)
from .nested import (
    NRule,
    NWitness,
    NestedDerivation,
    parse_nested,
    show_nested,
)


def _lf_text(lf) -> str:
    return f"{lf[0].name}: {show_formula(lf[1])}"


def _lf_parse(text: str):
    w, f = text.split(":", 1)
    return (Label(w.strip()), parse_formula(f))


def witness_to_json(w: Witness) -> dict:
    out: dict = {}
    if w.principal is not None:
        out["principal"] = _lf_text(w.principal)
    if w.formula is not None:
        out["formula"] = _lf_text(w.formula)
    if w.rel is not None:
        out["rel"] = f"{w.rel.w.name}<={w.rel.v.name}"
    if w.rel2 is not None:
        out["rel2"] = f"{w.rel2.w.name}<={w.rel2.v.name}"
    if w.dom is not None:
        out["dom"] = f"{w.dom.a.name} in D({w.dom.w.name})"
    if w.label is not None:
        out["label"] = w.label.name
    if w.label2 is not None:
        out["label2"] = w.label2.name
    if w.param is not None:
        out["param"] = w.param.name
    if w.param2 is not None:
        out["param2"] = w.param2.name
    return out


def _parse_rel(text: str) -> RelAtom:
    a, b = text.split("<=", 1)
    return RelAtom(Label(a.strip()), Label(b.strip()))


def _parse_dom(text: str) -> DomAtom:
    a, d = text.split(" in ", 1)
    d = d.strip()
    if not (d.startswith("D(") and d.endswith(")")):
        raise SequentError(f"malformed domain atom {text!r}")
    return DomAtom(Param(a.strip().lstrip("#")), Label(d[2:-1].strip()))


def witness_from_json(data: dict) -> Witness:
    return Witness(
        principal=_lf_parse(data["principal"]) if "principal" in data else None,
        formula=_lf_parse(data["formula"]) if "formula" in data else None,
        rel=_parse_rel(data["rel"]) if "rel" in data else None,
        rel2=_parse_rel(data["rel2"]) if "rel2" in data else None,
        dom=_parse_dom(data["dom"]) if "dom" in data else None,
        label=Label(data["label"]) if "label" in data else None,
        label2=Label(data["label2"]) if "label2" in data else None,
        param=Param(data["param"]) if "param" in data else None,
        param2=Param(data["param2"]) if "param2" in data else None,
    )


def _check_node(data, witness_ints=()) -> None:
    """Raises SequentError unless data has the shape of a proof node; the
    witness fields are strings, those named in witness_ints integers."""
    if not isinstance(data, dict):
        raise SequentError("proof node is not a JSON object")
    for key in ("sequent", "rule"):
        if not isinstance(data.get(key), str):
            raise SequentError(f"proof node has no string {key!r}")
    if not isinstance(data.get("premises", []), list):
        raise SequentError("proof node 'premises' is not a list")
    wit = data.get("witness", {})
    if not isinstance(wit, dict) or not all(
        isinstance(v, int if k in witness_ints else str) for k, v in wit.items()
    ):
        raise SequentError("proof node 'witness' is not an object with string fields")


def labelled_to_json(d: LabelledDerivation) -> dict:
    return {
        "sequent": show_sequent(d.conclusion),
        "rule": d.rule.value,
        "witness": witness_to_json(d.witness),
        "premises": [labelled_to_json(p) for p in d.premises],
    }


def labelled_from_json(data: dict) -> LabelledDerivation:
    _check_node(data)
    return LabelledDerivation(
        parse_sequent(data["sequent"]),
        Rule(data["rule"]),
        tuple(labelled_from_json(p) for p in data.get("premises", ())),
        witness_from_json(data.get("witness", {})),
    )


def nwitness_to_json(w: NWitness) -> dict:
    out: dict = {}
    if w.formula is not None:
        out["formula"] = show_formula(w.formula)
    if w.param is not None:
        out["param"] = w.param.name
    if w.child is not None:
        out["child"] = w.child
    return out


def nwitness_from_json(data: dict) -> NWitness:
    return NWitness(
        formula=parse_formula(data["formula"]) if "formula" in data else None,
        param=Param(data["param"]) if "param" in data else None,
        child=data.get("child"),
    )


def nested_to_json(d: NestedDerivation) -> dict:
    return {
        "sequent": show_nested(d.conclusion),
        "rule": d.rule.value,
        "hole": list(d.hole),
        "witness": nwitness_to_json(d.witness),
        "premises": [nested_to_json(p) for p in d.premises],
    }


def nested_from_json(data: dict) -> NestedDerivation:
    _check_node(data, witness_ints=("child",))
    hole = data.get("hole", [])
    if not isinstance(hole, list) or not all(isinstance(i, int) and i >= 0 for i in hole):
        raise SequentError("proof node 'hole' is not a list of non-negative integers")
    return NestedDerivation(
        parse_nested(data["sequent"]),
        NRule(data["rule"]),
        tuple(hole),
        tuple(nested_from_json(p) for p in data.get("premises", ())),
        nwitness_from_json(data.get("witness", {})),
    )


def dump_proof(d, calculus: str) -> str:
    if isinstance(d, LabelledDerivation):
        doc = {"kind": "labelled", "calculus": calculus, "proof": labelled_to_json(d)}
    elif isinstance(d, NestedDerivation):
        doc = {"kind": "nested", "calculus": calculus, "proof": nested_to_json(d)}
    else:
        raise SequentError(f"not a derivation: {d!r}")
    return json.dumps(doc, indent=2) + "\n"


def load_proof(text: str):
    """Returns (derivation, kind, calculus)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise SequentError("proof file is not a JSON object")
    kind = doc.get("kind")
    calc = doc.get("calculus", "")
    if not isinstance(calc, str):
        raise SequentError("proof file 'calculus' is not a string")
    if kind == "labelled":
        return labelled_from_json(doc.get("proof")), kind, calc
    if kind == "nested":
        return nested_from_json(doc.get("proof")), kind, calc
    raise SequentError(f"unknown proof kind {kind!r}")
