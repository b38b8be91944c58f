"""Input generators, written from their definitions.  Every random choice
draws from a `random.Random` that the caller seeds from the workload seed.
"""

from __future__ import annotations

import itertools
import random

from intcalc.formula import And, Atom, Bot, Impl, Neg, Or, parse_formula

# ---------------------------------------------------------------------------
# the graded two-atom corpus
#
# Layer 0 is p, q, false.  Layer n lists ~A for every A of layer n-1, then,
# for i = 0 .. n-1 and j = n-1-i, A & B, A | B, A -> B for every A of layer
# i and B of layer j (A outer, B inner, the connective innermost).  This is
# the order of the acceptance suite's criterion 9.

BASE = (Atom("p"), Atom("q"), Bot())
_BINARY = (And, Or, Impl)


def layer_sizes(max_n: int) -> list[int]:
    sizes = [len(BASE)]
    for n in range(1, max_n + 1):
        sizes.append(sizes[n - 1] + 3 * sum(sizes[i] * sizes[n - 1 - i] for i in range(n)))
    return sizes


class Graded:
    """The graded layers: built in full up to `built` connectives, and
    unranked above, one formula at a time, without building a layer."""

    def __init__(self, built: int = 3):
        layers = [list(BASE)]
        for n in range(1, built + 1):
            layer = [Neg(f) for f in layers[n - 1]]
            for i in range(n):
                for a in layers[i]:
                    for b in layers[n - 1 - i]:
                        layer.extend(op(a, b) for op in _BINARY)
            layers.append(layer)
        self.layers = layers
        self.sizes = layer_sizes(8)

    def unrank(self, n: int, idx: int):
        """The formula at position idx of layer n."""
        if not 0 <= idx < self.sizes[n]:
            raise IndexError(f"layer {n} has no position {idx}")
        if n < len(self.layers):
            return self.layers[n][idx]
        if idx < self.sizes[n - 1]:
            return Neg(self.unrank(n - 1, idx))
        idx -= self.sizes[n - 1]
        for i in range(n):
            j = n - 1 - i
            block = 3 * self.sizes[i] * self.sizes[j]
            if idx < block:
                pair, op = divmod(idx, 3)
                ia, ib = divmod(pair, self.sizes[j])
                return _BINARY[op](self.unrank(i, ia), self.unrank(j, ib))
            idx -= block
        raise AssertionError("unreachable")

    def sample(self, rng: random.Random, n: int, count: int) -> list:
        """count distinct formulas of layer n, drawn without building it."""
        return [self.unrank(n, i) for i in rng.sample(range(self.sizes[n]), count)]


# ---------------------------------------------------------------------------
# axiom-scheme instances

# the nine propositional axiom schemes of the acceptance suite, over the
# metavariables p, q, r
AXIOM_SCHEMES = (
    "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "p -> (q -> (p & q))",
    "(p & q) -> p",
    "(p & q) -> q",
    "p -> (p | q)",
    "q -> (p | q)",
    "false -> p",
    "(p -> r) -> ((q -> r) -> ((p | q) -> r))",
)


def instantiate(f, sub: dict):
    """f with each atom named in sub replaced by its formula."""
    if isinstance(f, Atom):
        return sub.get(f.name, f)
    if isinstance(f, Bot):
        return f
    if isinstance(f, Neg):
        return Neg(instantiate(f.body, sub))
    return type(f)(instantiate(f.left, sub), instantiate(f.right, sub))


def axiom_instances(values) -> list:
    """Every distinct instance of the nine schemes with p, q and r replaced
    by members of values."""
    out, seen = [], set()
    for text in AXIOM_SCHEMES:
        scheme = parse_formula(text)
        for combo in itertools.product(values, repeat=3):
            f = instantiate(scheme, dict(zip("pqr", combo)))
            if f not in seen:
                seen.add(f)
                out.append(f)
    return out


# ---------------------------------------------------------------------------
# scalable families

def _atom(i: int):
    return Atom(f"p{i}")


def _imps(*fs):
    """f1 -> (f2 -> ... -> fn), right-nested."""
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Impl(f, out)
    return out


def chain_forward(k: int):
    """(p0 -> p1) -> ... -> (p{k-1} -> pk) -> p0 -> pk"""
    return _imps(*[Impl(_atom(i), _atom(i + 1)) for i in range(k)], _atom(0), _atom(k))


def chain_backward(k: int):
    """(p1 -> p0) -> ... -> (pk -> p{k-1}) -> pk -> p0"""
    return _imps(*[Impl(_atom(i + 1), _atom(i)) for i in range(k)], _atom(k), _atom(0))


def lem_conjunction(k: int):
    """~~(p1 | ~p1) & ... & ~~(pk | ~pk), left-nested"""
    parts = [Neg(Neg(Or(_atom(i), Neg(_atom(i))))) for i in range(1, k + 1)]
    out = parts[0]
    for f in parts[1:]:
        out = And(out, f)
    return out


KREISEL_PUTNAM = parse_formula("(~p -> q | r) -> (~p -> q) | (~p -> r)")
PEIRCE = parse_formula("((p -> q) -> p) -> p")


# ---------------------------------------------------------------------------
# the acceptance suite's proof corpora (tests/test_acceptance.py)

PROP_CORPUS = AXIOM_SCHEMES + (
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
)

FO_CORPUS = (
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
)


# ---------------------------------------------------------------------------
# random models

def random_model_parts(rng: random.Random, n: int, atoms):
    """(worlds, leq, valuation) of a random model on n worlds: a random
    relation closed reflexively and transitively, and for each atom the
    up-closure of a random set of worlds."""
    worlds = [f"w{i}" for i in range(n)]
    above = [{i} | {j for j in range(n) if j != i and rng.random() < 0.4} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = set().union(*(above[j] for j in above[i]))
            if grown != above[i]:
                above[i], changed = grown, True
    leq = frozenset((worlds[i], worlds[j]) for i in range(n) for j in above[i])
    val = {}
    for a in atoms:
        seeds = [i for i in range(n) if rng.random() < 0.5]
        val[(a, ())] = frozenset(worlds[j] for i in seeds for j in above[i])
    return frozenset(worlds), leq, val
