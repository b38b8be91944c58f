import dataclasses
import json

import pytest

import intcalc.cli
from intcalc.cli import run
from intcalc.labelled import parse_sequent
from intcalc.proofio import load_proof


def test_parse_roundtrip(capsys):
    assert run(["parse", "p -> q -> p"]) == 0
    assert capsys.readouterr().out.strip() == "p -> q -> p"


def test_parse_error_exit_code(capsys):
    assert run(["parse", "p -> ("]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_prove_writes_proof(tmp_path, capsys):
    out = tmp_path / "proof.json"
    code = run(["prove", "--calc", "nint-star", "--depth", "10",
                "p -> (q -> p)", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "nested" and doc["calculus"] == "nint-star"
    assert run(["check", str(out)]) == 0


def test_prove_negative_exit(capsys):
    code = run(["prove", "--calc", "g3int", "--depth", "8",
                "((p -> q) -> p) -> p"])
    assert code == 1
    assert "not proved" in capsys.readouterr().out


def test_prove_checks_its_proof(tmp_path, monkeypatch, capsys):
    # a proof that fails to check is an invariant breach, and is not written
    real_prove = intcalc.cli.prove

    def broken_prove(goal, cfg):
        d = real_prove(goal, cfg)
        return dataclasses.replace(d, conclusion=parse_sequent(" => w: q -> q"))

    monkeypatch.setattr(intcalc.cli, "prove", broken_prove)
    out = tmp_path / "proof.json"
    assert run(["prove", "--calc", "g3int", "p -> p", "-o", str(out)]) == 3
    assert "fails to check" in capsys.readouterr().err
    assert not out.exists()


def test_check_broken_eigenvariable(tmp_path, capsys):
    out = tmp_path / "proof.json"
    run(["prove", "--calc", "g3int", "--depth", "8", "p -> p", "-o", str(out)])
    doc = json.loads(out.read_text())

    def patch(node):
        # rename the eigenvariable so it clashes with the conclusion
        if node["rule"] == "imp_r":
            node["witness"]["label"] = "w"
        for p in node["premises"]:
            patch(p)

    patch(doc["proof"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run(["check", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "node" in err


def test_countermodel_exit_codes(tmp_path, capsys):
    model = tmp_path / "model.txt"
    assert run(["countermodel", "--max-worlds", "3",
                "((p->q)->p)->p", "-o", str(model)]) == 0
    assert "falsified" in model.read_text()
    assert run(["countermodel", "--max-worlds", "3", "p -> p"]) == 1


def test_model_eval(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("worlds: w v\nleq: w <= v\nval: p @ v\n")
    assert run(["model-eval", str(model), "w<=v, w:p => v:p"]) == 0
    assert run(["model-eval", str(model), " => w:p"]) == 1
    assert run(["model-eval", str(model), "p | ~p"]) == 1
    assert run(["model-eval", str(model), "p", "--world", "v"]) == 0


def test_translate_both_ways(capsys):
    assert run(["translate", "w<=v, w: p => v: q"]) == 0
    assert capsys.readouterr().out.strip() == "p -> [-> q]"
    assert run(["translate", "p -> , [ -> q]"]) == 0
    out = capsys.readouterr().out
    assert "=>" in out
    # non-treelike input
    assert run(["translate", "w<=w => w: p"]) == 1
    assert "not treelike" in capsys.readouterr().err


def test_translate_dot(capsys):
    assert run(["translate", "w<=v => w: p", "--format", "dot"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_eliminate_pipeline(tmp_path, capsys):
    proof = tmp_path / "in.json"
    out = tmp_path / "out.json"
    nested = tmp_path / "nested.json"
    assert run(["prove", "--calc", "g3int", "--depth", "10",
                "p -> p", "-o", str(proof)]) == 0
    assert run(["eliminate", str(proof), "-o", str(out),
                "--to-nested", str(nested)]) == 0
    assert run(["check", str(out)]) == 0
    assert run(["check", str(nested)]) == 0
    report = capsys.readouterr().out
    assert "eliminated" in report


def test_indented_proof_files_still_load(tmp_path, capsys):
    # proof files are one line of JSON; earlier versions wrote them indented
    proof = tmp_path / "in.json"
    nested = tmp_path / "nested.json"
    assert run(["prove", "--calc", "g3int", "--depth", "10",
                "p -> p", "-o", str(proof)]) == 0
    assert run(["eliminate", str(proof), "-o", str(tmp_path / "out.json"),
                "--to-nested", str(nested)]) == 0
    for path, kind in ((proof, "labelled"), (nested, "nested")):
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        old = json.dumps(json.loads(text), indent=2)
        assert load_proof(old) == load_proof(text)
        assert load_proof(old)[1] == kind
        path.write_text(old)
        assert run(["check", str(path)]) == 0


def test_hilbert_check(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text("0. p -> q -> p [ax 1]\n1. p [prem]\n2. q -> p [mp 1 0]\n")
    assert run(["hilbert-check", str(f)]) == 0
    f2 = tmp_path / "bad.txt"
    f2.write_text("0. p [ax]\n")
    assert run(["hilbert-check", str(f2)]) == 1


def test_fuzz_soundness(capsys):
    code = run(["fuzz-soundness", "--calc", "g3int", "--models", "25",
                "--max-worlds", "3"])
    assert code == 0
    assert "0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("calc, depth, goal", [
    ("g3int", "12", "~~(p | ~p)"), ("nint-star", "10", "false -> p"),
    ("g3int", "8", "w: ~p => w: p -> false"),
])
def test_prove_converts_the_goal_to_the_calculus(tmp_path, capsys, calc, depth, goal):
    # g3int has no neg_r and nint-star no bot_l: the goal is converted
    out = tmp_path / "proof.json"
    assert run(["prove", "--calc", calc, "--depth", depth, goal, "-o", str(out)]) == 0
    assert run(["check", str(out)]) == 0


@pytest.mark.parametrize("calc", ["nint-star", "g3int-tree"])
def test_fuzz_soundness_proves_every_default_goal(capsys, calc):
    assert run(["fuzz-soundness", "--calc", calc, "--models", "10", "--max-worlds", "3"]) == 0
    out = capsys.readouterr().out
    assert "unproved" not in out and "fuzz: 5 proved goals" in out


def test_missing_file_is_input_error(capsys):
    assert run(["check", "/nonexistent/proof.json"]) == 2


def test_exit_code_matrix(tmp_path, capsys):
    """The regression matrix for the exit-code contract."""
    proof = tmp_path / "p.json"
    model = tmp_path / "m.txt"
    model.write_text("worlds: w\n")
    chain = tmp_path / "chain.txt"
    chain.write_text("worlds: w0 w1 w2 w3\nleq: w0 <= w1, w1 <= w2, w2 <= w3\nval: p @ w3\n")
    node = {"sequent": " => w: p -> p", "rule": "imp_r", "witness": {}, "premises": []}
    nnode = {**node, "sequent": " -> p -> p", "hole": []}
    malformed = []
    for i, doc in enumerate([
        [1, 2],
        {"kind": "labelled", "proof": {k: v for k, v in node.items() if k != "sequent"}},
        {"kind": "labelled", "proof": {**node, "premises": [5]}},
        {"kind": "labelled", "calculus": ["g3int"], "proof": node},
        {"kind": "nested", "proof": {**node, "sequent": " -> p -> p", "hole": "0"}},
        # an unparsable formula below the root, in a sequent and in a witness
        {"kind": "labelled", "calculus": "g3int",
         "proof": {**node, "premises": [{**node, "sequent": " => w: p -> ("}]}},
        {"kind": "labelled", "calculus": "g3int",
         "proof": {**node, "premises": [{**node, "witness": {"principal": "w: p &&& q"}}]}},
        {"kind": "nested", "calculus": "nint-star",
         "proof": {**nnode, "premises": [{**nnode, "sequent": " -> p -> ("}]}},
        {"kind": "nested", "calculus": "nint-star",
         "proof": {**nnode, "premises": [{**nnode, "witness": {"formula": "p &&& q"}}]}},
    ]):
        malformed.append(tmp_path / f"malformed{i}.json")
        malformed[-1].write_text(json.dumps(doc))
    # a proof whose premises nest 900 deep: too deep for json.loads
    deep = tmp_path / "deep.json"
    head = json.dumps(node)[:-len("[]}")] + "["
    deep.write_text('{"kind": "labelled", "proof": ' + head * 900 + json.dumps(node)
                    + "]}" * 900 + "}")
    cases = [
        (["parse", "p & q"], 0),
        (["parse", "p &&& q"], 2),
        (["parse", "q(x)"], 2),
        (["prove", "--calc", "g3int", "p -> p", "-o", str(proof)], 0),
        (["prove", "--calc", "g3int", "--depth", "6", "p | ~p"], 1),
        (["prove", "--calc", "nint-star", "~~(p | ~p)"], 0),
        (["check", str(proof)], 0),
        (["check", str(tmp_path / "absent.json")], 2),
        (["translate", "w<=v, w: p => v: p"], 0),
        (["translate", "w<=w, v<=v => w: p"], 1),
        (["translate", "garbage text here"], 2),
        (["countermodel", "p | ~p"], 0),
        (["countermodel", "p -> p"], 1),
        (["countermodel", "p -> ("], 2),
        (["countermodel", "p", "--max-worlds", "9"], 0),
        (["countermodel", "p -> p", "--max-worlds", "9"], 2),
        (["model-eval", str(model), "p -> p"], 0),
        (["model-eval", str(model), "p"], 1),
        (["model-eval", str(tmp_path / "absent.txt"), "p"], 2),
        # 31 labels: 4**31 label assignments
        (["model-eval", str(chain), " -> [" * 30 + "p -> p" + "]" * 30], 0),
        (["eliminate", str(proof)], 0),
        (["eliminate", str(tmp_path / "absent.json")], 2),
        (["eliminate", str(proof), "--calc", "bogus"], 2),
        (["fuzz-soundness", "--models", "5"], 0),
        (["fuzz-soundness", "--max-worlds", "3000", "--models", "1"], 2),
        (["parse", "~" * 3000 + "p"], 2),
        (["prove", "(" * 400 + "p" + ")" * 400], 2),
        (["prove", "--no-loop-check", "p"], 2),
        (["check", str(deep)], 2),
    ]
    cases += [([cmd, str(f)], 2) for f in malformed for cmd in ("check", "eliminate")]
    for argv, want in cases:
        got = run(argv)
        capsys.readouterr()
        assert got == want, f"{argv}: expected {want}, got {got}"
