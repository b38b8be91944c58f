"""Finite Kripke semantics for intuitionistic logic with constant domains.

Models are finite reflexive-transitive frames with monotone valuations; the
first-order layer uses one global individual domain shared by every world.
This module is the semantic oracle: proof machinery elsewhere is fuzzed
against `satisfies` / `labelled_sequent_holds`.  Propositional formulas are
evaluated over whole families of models at once, as bitmasks (`_Family`);
`satisfies_reference` keeps the recursive forcing clauses.

Sequent truth works on world sets, not on label assignments: each
formula of a labelled sequent gets the bitmask of the worlds where it
holds, each label the worlds where it could sit in a counterexample, and
the relational atoms prune those sets before a search places the labels
one by one along them; on a treelike sequent that search never
backtracks.  A nested sequent is read as its labelled image (`labelify`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

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
)

World = str
Individual = str


class ModelError(ValueError):
    """Raised for frames or valuations violating the model invariants."""


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed the combinatorial guard."""


MODEL_BUDGET = 10**7


@dataclass(frozen=True)
class KripkeModel:
    """Finite intuitionistic model (constant first-order domain).

    valuation maps (atom name, argument tuple) to the set of worlds where
    the atom holds; propositional atoms use the empty argument tuple.
    """

    worlds: frozenset[World]
    leq: frozenset[tuple[World, World]]
    valuation: Mapping[tuple[str, tuple[Individual, ...]], frozenset[World]] = field(
        default_factory=dict
    )
    domain: tuple[Individual, ...] = ()

    # The compiled form used by `satisfies` (not dataclass fields): the
    # `_Family` the model is laid out in, the family's shared
    # [formula, truth list] cell and the position of each world in it.
    _fam = None
    _cell = (None, None)
    _pos = None

    def __post_init__(self) -> None:
        if not self.worlds:
            raise ModelError("empty set of worlds")
        for w, v in self.leq:
            if w not in self.worlds or v not in self.worlds:
                raise ModelError(f"leq edge ({w},{v}) outside worlds")
        for w in self.worlds:
            if (w, w) not in self.leq:
                raise ModelError(f"leq not reflexive at {w}")
        ups = {w: self.up(w) for w in self.worlds}
        for w, v in self.leq:
            for u in ups[v]:
                if (w, u) not in self.leq:
                    raise ModelError(f"leq not transitive: {w}<={v}<={u}")
        for (name, args), ws in self.valuation.items():
            for w in ws:
                if w not in self.worlds:
                    raise ModelError(f"valuation of {name}{args} names unknown world {w}")
                for v in ups[w]:
                    if v not in ws:
                        raise ModelError(
                            f"valuation of {name}{args} not monotone: {w} <= {v}"
                        )
            for d in args:
                if d not in self.domain:
                    raise ModelError(f"valuation argument {d} outside domain")

    def up(self, w: World) -> frozenset[World]:
        return frozenset(v for (x, v) in self.leq if x == w)

    def holds_atom(self, name: str, args: tuple[Individual, ...], w: World) -> bool:
        return w in self.valuation.get((name, args), frozenset())


def _trusted_model(worlds, leq, valuation, domain=()) -> KripkeModel:
    """A model built by this module's generators, valid by construction,
    without the O(|leq|^2) re-validation of `KripkeModel.__post_init__`."""
    m = object.__new__(KripkeModel)
    object.__setattr__(m, "worlds", worlds)
    object.__setattr__(m, "leq", leq)
    object.__setattr__(m, "valuation", valuation)
    object.__setattr__(m, "domain", domain)
    return m


def satisfies(
    m: KripkeModel,
    w: World,
    f: Formula,
    env: Mapping[Param | Var, Individual] | None = None,
) -> bool:
    """Forcing M,w |- f under an assignment of parameters and variables.

    Cache: a propositional formula without env is evaluated at every world
    of the model's family at once (`_Family`), and the truth of the last
    such formula is kept; a call for that formula is then a list lookup.
    The family of a model from `enumerate_models(mode="exhaustive")` is
    every model of that enumeration with as many worlds, so a loop over the
    enumerated models with one formula evaluates the formula once per
    number of worlds.  A family switches to a new formula only when a
    second model asks for it, so alternating formulas on one model fall
    back to `satisfies_reference`, which also serves env and first-order
    formulas.  Any other model is compiled on first use as a family of its
    own.
    """
    cell = m._cell
    if cell[0] is f and not env:
        try:
            return cell[1][m._pos[w]]
        except KeyError:
            raise ModelError(f"unknown world {w}") from None
    return _satisfies_uncached(m, w, f, env)


def _satisfies_uncached(m: KripkeModel, w: World, f: Formula, env) -> bool:
    if env:
        return satisfies_reference(m, w, f, env)
    fam = m._fam
    if fam is None:
        fam = _Family.of_model(m)
    if fam.cell[0] is not f:
        if not (fam.single or (fam.pending_f is f and fam.pending_m is not m)):
            fam.pending_f, fam.pending_m = f, m
            return satisfies_reference(m, w, f, env)
        if not _propositional(f):
            return satisfies_reference(m, w, f, env)
        fam.install(f)
    try:
        return fam.cell[1][m._pos[w]]
    except KeyError:
        raise ModelError(f"unknown world {w}") from None


def satisfies_reference(m: KripkeModel, w: World, f: Formula, env=None) -> bool:
    """The recursive forcing clauses, one world at a time: the reference
    the cached evaluation is tested against."""
    env = env or {}
    if w not in m.worlds:
        raise ModelError(f"unknown world {w}")
    if isinstance(f, Bot):
        return False
    if isinstance(f, Atom):
        args = []
        for t in f.args:
            if t not in env:
                raise ModelError(f"unassigned parameter {t!r}")
            args.append(env[t])
        return m.holds_atom(f.name, tuple(args), w)
    if isinstance(f, And):
        return satisfies_reference(m, w, f.left, env) and satisfies_reference(
            m, w, f.right, env
        )
    if isinstance(f, Or):
        return satisfies_reference(m, w, f.left, env) or satisfies_reference(
            m, w, f.right, env
        )
    if isinstance(f, Impl):
        return all(
            satisfies_reference(m, u, f.right, env)
            for u in m.up(w)
            if satisfies_reference(m, u, f.left, env)
        )
    if isinstance(f, Neg):
        return satisfies_reference(m, w, Impl(f.body, Bot()), env)
    if isinstance(f, Forall):
        return all(
            satisfies_reference(m, w, f.body, {**env, f.var: d}) for d in m.domain
        )
    if isinstance(f, Exists):
        return any(
            satisfies_reference(m, w, f.body, {**env, f.var: d}) for d in m.domain
        )
    raise TypeError(f"not a formula: {f!r}")


def _propositional(f: Formula) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            if g.args:
                return False
        elif isinstance(g, (And, Or, Impl)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Neg):
            stack.append(g.body)
        elif not isinstance(g, Bot):
            return False
    return True


# ---------------------------------------------------------------------------
# compiled model families

_BYTE_BITS = [tuple(bool(b >> k & 1) for k in range(8)) for b in range(256)]


class _Family:
    """Finitely many propositional models laid side by side.

    Each (model, world) pair is one bit position, the worlds of a model
    consecutive, so the truth set of a formula over the whole family is one
    integer, computed bottom-up: atoms are precomputed masks, & and | are
    bitwise, and A -> B fails exactly at the positions at or below, in
    their own model, a position where A holds and B fails.  A world above
    the one at position p sits at p + d for some small d, so "at or below"
    is a union of shifts by d, each masked by spread[d] to the positions
    whose world is below the world d positions on.
    """

    __slots__ = ("width", "full", "atoms", "spread", "roots", "bases", "layout",
                 "single", "cell", "pending_f", "pending_m", "_all_true")

    def __init__(self, layout, atom_names, single=False):
        """layout: (ups, valuation masks) per model, in position order; ups[i]
        is the up-set bitmask of local world i, a valuation mask is the
        local set of worlds where the atom of that index holds."""
        width = sum(len(ups) for ups, _ in layout)
        atom_bits = [bytearray(b"0") * width for _ in atom_names]
        spread_bits: dict[int, bytearray] = {}
        root_bits = bytearray(b"0") * width
        bases = []
        base = 0
        for ups, vals in layout:
            bases.append(base)
            root_bits[base] = 49
            n = len(ups)
            for i in range(n):
                for j in range(n):
                    if j != i and ups[i] >> j & 1:
                        spread_bits.setdefault(j - i, bytearray(b"0") * width)[base + i] = 49
            for bits, mask in zip(atom_bits, vals):
                for i in range(n):
                    if mask >> i & 1:
                        bits[base + i] = 49
            base += n

        def to_int(bits: bytearray) -> int:
            return int(bits[::-1], 2) if bits else 0

        self.width = width
        self.full = (1 << width) - 1
        self.atoms = {a: to_int(b) for a, b in zip(atom_names, atom_bits)}
        self.spread = tuple((d, to_int(b)) for d, b in sorted(spread_bits.items()))
        self.roots = to_int(root_bits)
        self.bases = bases
        self.layout = layout
        self.single = single
        self.cell = [None, None]
        self.pending_f = self.pending_m = None
        self._all_true = None

    @classmethod
    def of_model(cls, m: KripkeModel) -> "_Family":
        """Compile a model that belongs to no enumerated family on its own."""
        fam = cls.laid_out(m)
        object.__setattr__(m, "_fam", fam)
        object.__setattr__(m, "_cell", fam.cell)
        object.__setattr__(m, "_pos", {w: i for i, w in enumerate(sorted(m.worlds))})
        return fam

    @classmethod
    def laid_out(cls, m: KripkeModel) -> "_Family":
        """m as a family of one, position i its i-th world in sorted order,
        attached to nothing."""
        index = {w: i for i, w in enumerate(sorted(m.worlds))}
        ups = [0] * len(index)
        for (w, v) in m.leq:
            ups[index[w]] |= 1 << index[v]
        names = sorted(name for (name, args) in m.valuation if not args)
        vals = []
        for name in names:
            mask = 0
            for w in m.valuation[(name, ())]:
                mask |= 1 << index[w]
            vals.append(mask)
        return cls([(tuple(ups), tuple(vals))], names, single=True)

    def truth(self, f: Formula) -> int:
        """The positions where propositional f holds."""
        return self._eval(f, {})

    def _eval(self, f: Formula, memo: dict) -> int:
        got = memo.get(id(f))
        if got is not None:
            return got
        if isinstance(f, Atom):
            out = self.atoms.get(f.name, 0)
        elif isinstance(f, Bot):
            out = 0
        elif isinstance(f, And):
            out = self._eval(f.left, memo) & self._eval(f.right, memo)
        elif isinstance(f, Or):
            out = self._eval(f.left, memo) | self._eval(f.right, memo)
        elif isinstance(f, Impl):
            bad = self._eval(f.left, memo) & ~self._eval(f.right, memo)
            out = self.full ^ self._seen_from_below(bad)
        elif isinstance(f, Neg):
            out = self.full ^ self._seen_from_below(self._eval(f.body, memo))
        else:
            raise TypeError(f"not a propositional formula: {f!r}")
        memo[id(f)] = out
        return out

    def _seen_from_below(self, bad: int) -> int:
        """Positions with a position of `bad` at or above them."""
        out = bad
        for d, mask in self.spread:
            out |= ((bad >> d) if d > 0 else (bad << -d)) & mask
        return out

    def install(self, f: Formula) -> None:
        """Make f the family's cached formula."""
        t = self.truth(f)
        if t == self.full:
            if self._all_true is None:
                self._all_true = [True] * self.width
            table = self._all_true
        else:
            raw = t.to_bytes((self.width + 7) // 8, "little")
            table = list(itertools.chain.from_iterable(map(_BYTE_BITS.__getitem__, raw)))
        self.cell[1] = table
        self.cell[0] = f


# room for the rooted families of four sizes times the four atom sets of
# a two-atom corpus, besides the few exhaustive families in use
_FAMILY_CACHE_SIZE = 32
_families: dict = {}


def _cached_family(key, build) -> _Family:
    fam = _families.pop(key, None)
    if fam is None:
        fam = build()
        while len(_families) >= _FAMILY_CACHE_SIZE:
            _families.pop(next(iter(_families)))
    _families[key] = fam
    return fam


def rooted_countermodel(
    f: Formula, max_worlds: int
) -> tuple[KripkeModel, World] | None:
    """A model with at most max_worlds worlds whose root refutes the
    propositional formula f, with as few worlds as possible, or None.

    Only rooted posets are tried, one of each up to isomorphism: if f fails
    at a world w of any model, it fails at the root of the submodel that w
    generates, and collapsing that submodel's clusters (a p-morphism)
    leaves a rooted poset with no more worlds.  The sizes are tried in
    turn, 1 up to max_worlds, and the first that refutes f answers.  The
    models of one size with the atoms of f are compiled into a cached
    family when that size is first reached, so each size costs one
    bottom-up evaluation over all of them.
    """
    if max_worlds < 1:
        raise ModelError("max_worlds must be >= 1")
    if not _propositional(f):
        raise ModelError("rooted_countermodel expects a propositional formula")
    from .formula import atoms_of

    names = tuple(sorted(atoms_of(f)))
    for n in range(1, max_worlds + 1):
        fam = _cached_family(("rooted", n, names), lambda: _rooted_family(n, names))
        miss = fam.roots & ~fam.truth(f)
        if miss:
            break
    else:
        return None
    k = bisect.bisect_right(fam.bases, (miss & -miss).bit_length() - 1) - 1
    ups, vals = fam.layout[k]
    worlds = [f"w{i}" for i in range(n)]
    leq = frozenset((worlds[i], worlds[j]) for i, u in enumerate(ups)
                    for j in range(n) if u >> j & 1)
    val = {(name, ()): frozenset(worlds[i] for i in range(n) if mask >> i & 1)
           for name, mask in zip(names, vals)}
    return _trusted_model(frozenset(worlds), leq, val), worlds[0]


# OEIS A006455: the naturally labelled posets on n points, n = 0..7, which
# `_rooted_posets(n + 1)` grows above its root; it grows with n, so the
# last entry bounds every larger n from below
_NATURAL_POSET_COUNTS = (1, 1, 2, 7, 40, 357, 4824, 96428)


def _rooted_family(n: int, names: tuple[str, ...]) -> _Family:
    """The rooted models on n worlds with the given atoms.  Raises
    BudgetExceeded when finding the posets (n! relabellings of each grown
    one) or the models on them would exceed MODEL_BUDGET."""
    grown = _NATURAL_POSET_COUNTS[min(n - 1, len(_NATURAL_POSET_COUNTS) - 1)]
    if grown * math.factorial(n) > MODEL_BUDGET:
        raise BudgetExceeded(
            f"{grown} posets times {n}! relabellings on {n} worlds exceed the "
            f"{MODEL_BUDGET} budget")
    frames = _rooted_posets(n)
    size = sum(len(_upset_masks(ups)) ** len(names) for ups in frames)
    if size > MODEL_BUDGET:
        raise BudgetExceeded(f"{size} rooted models on {n} worlds exceed the {MODEL_BUDGET} budget")
    layout = [(ups, choice) for ups in frames
              for choice in itertools.product(_upset_masks(ups), repeat=len(names))]
    return _Family(layout, names)


def labelled_sequent_holds(m: KripkeModel, s) -> bool:
    """Truth of a labelled sequent in m.

    Universally quantified over label assignments rho and parameter
    assignments iota: whenever every relational atom w<=v has
    rho(w) leq rho(v) (domain atoms are vacuous under constant domains),
    some antecedent formula fails or some succedent formula holds.

    So the sequent fails exactly when, under some iota, the labels can be
    placed along the relational atoms each at a world where all of its
    antecedent formulas hold and all of its succedent formulas fail.  For
    each iota that search runs on bitmasks over the sorted worlds:

    - the truth set of each distinct formula, bottom-up on m laid out as a
      `_Family` for a propositional formula, by `satisfies_reference` at
      each world for any other;
    - each label's candidates, the AND of its antecedent sets and of the
      complements of its succedent sets;
    - arc consistency: along each relational atom w<=v, keep only the
      candidates of w below some candidate of v and those of v above some
      candidate of w, until nothing changes; an empty set means no
      counterexample under iota;
    - backtracking over each connected part of the relational atoms, the
      labels in a walk order, so that each label after the first is
      related to one placed before it; its choices are its candidates
      within the up- or down-sets of the worlds of its placed neighbours.

    When a part is a tree (every nested sequent, every proof node after
    elimination), each label has one placed neighbour, and arc consistency
    leaves each of that neighbour's worlds a choice for it: the search
    never backtracks (Freuder, "A sufficient condition for backtrack-free
    search", JACM 1982), and costs a pass over the labels.

    Domain atoms stay vacuous: their labels and parameters are quantified
    like any other, and they constrain no placement.
    """
    params = sorted(s.params(), key=lambda p: p.name)
    if params and not m.domain:
        raise ModelError("sequent has parameters but the model domain is empty")
    fam = m._fam
    if fam is None:
        fam = _Family.of_model(m)
    elif not fam.single:
        # an enumerated model's family spans the whole enumeration: lay the
        # model out alone, without re-attaching it, which would cut it off
        # from that family's `satisfies` cache
        fam = _Family.laid_out(m)
    worlds = sorted(m.worlds)
    ups = fam.layout[0][0]
    downs = [sum(1 << i for i, u in enumerate(ups) if u >> j & 1) for j in range(len(ups))]
    labels = sorted(s.labels(), key=lambda l: l.name)
    index = {l: k for k, l in enumerate(labels)}
    edges = [(index[r.w], index[r.v]) for r in s.rel if r.w != r.v]
    parts = _walk_orders(len(labels), edges)

    truth: dict = {}  # formula -> the worlds where it holds, if iota-free
    memo: dict = {}
    for _, f in s.ante + s.succ:
        if f not in truth and not params_of(f):
            truth[f] = (fam._eval(f, memo) if _propositional(f) else
                        _truth_mask(m, worlds, f, None))
    for iota in itertools.product(m.domain or ("*",), repeat=len(params)):
        env = dict(zip(params, iota))

        def mask(f):
            got = truth.get(f)
            return got if got is not None else _truth_mask(m, worlds, f, env)

        cand = [fam.full] * len(labels)
        for w, f in s.ante:
            cand[index[w]] &= mask(f)
        for w, f in s.succ:
            cand[index[w]] &= ~mask(f)
        if (_arc_consistent(cand, edges, ups, downs)
                and all(_placeable(order, cand, ups, downs) for order in parts)):
            return False
    return True


def _truth_mask(m: KripkeModel, worlds, f: Formula, env) -> int:
    return sum(1 << i for i, w in enumerate(worlds) if satisfies_reference(m, w, f, env))


def _union(mask: int, table) -> int:
    """The union of table[i] over the positions i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _arc_consistent(cand: list, edges, ups, downs) -> bool:
    """Narrow cand along the edges (a, b), a's world at or below b's,
    until nothing changes; False when some label has no candidate."""
    if not all(cand):
        return False
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            ca = cand[a] & _union(cand[b], downs)
            cb = cand[b] & _union(ca, ups)
            if not (ca and cb):
                return False
            if ca != cand[a] or cb != cand[b]:
                cand[a], cand[b] = ca, cb
                changed = True
    return True


def _walk_orders(n: int, edges) -> list:
    """The connected parts of the labels 0..n-1 under the edges, each a
    walk order: (label, [(placed neighbour, whether the label sits below
    it)]), every label after a part's first related to a placed one."""
    near: list[list] = [[] for _ in range(n)]
    for a, b in edges:
        near[a].append((b, True))
        near[b].append((a, False))
    placed_at = [-1] * n
    parts = []
    for start in range(n):
        if placed_at[start] >= 0:
            continue
        walk = [start]
        placed_at[start] = 0
        for k in walk:
            for j, _ in near[k]:
                if placed_at[j] < 0:
                    placed_at[j] = len(walk)
                    walk.append(j)
        parts.append([(k, [(j, below) for j, below in near[k] if placed_at[j] < placed_at[k]])
                      for k in walk])
    return parts


def _placeable(order, cand, ups, downs) -> bool:
    """Whether the labels of one walk order can each be placed at one of
    their candidates, related to the placed labels as the edges say."""
    rho = {}
    choices = [cand[order[0][0]]]
    while choices:
        left = choices[-1]
        if not left:
            choices.pop()
            continue
        low = left & -left
        choices[-1] = left ^ low
        k = len(choices)
        rho[order[k - 1][0]] = low.bit_length() - 1
        if k == len(order):
            return True
        label, placed = order[k]
        c = cand[label]
        for j, below in placed:
            c &= downs[rho[j]] if below else ups[rho[j]]
        choices.append(c)
    return False


def nested_sequent_holds(m: KripkeModel, s) -> bool:
    """Truth of a nested sequent: truth of its labelled image."""
    from .graph import labelify

    return labelled_sequent_holds(m, labelify(s))


# ---------------------------------------------------------------------------
# enumeration and generation
#
# Frames on n worlds are tuples `ups` of up-set bitmasks, ups[i] the worlds
# at or above world i.

@functools.lru_cache(maxsize=None)
def _preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """All reflexive-transitive relations on {0..n-1} (labelled), in the
    order of a count through the off-diagonal pairs (0,1), (0,2), ... with
    the first pair most significant.

    Built by adding one world at a time to each preorder on the others: the
    new world sits above a down-closed set D and below an up-closed set U
    with every member of D below every member of U.
    """
    if n == 0:
        return ((),)
    out = []
    new = 1 << (n - 1)
    for ups in _preorders(n - 1):
        m = n - 1
        subsets = range(1 << m)
        downs = [s for s in subsets
                 if all(not (ups[i] >> j & 1) or s >> i & 1
                        for j in range(m) if s >> j & 1 for i in range(m))]
        upward = [s for s in subsets
                  if all(ups[j] & ~s == 0 for j in range(m) if s >> j & 1)]
        for down in downs:
            allowed = (1 << m) - 1
            for i in range(m):
                if down >> i & 1:
                    allowed &= ups[i]
            for up in upward:
                if up & ~allowed:
                    continue
                out.append(tuple(u | new if down >> i & 1 else u
                                 for i, u in enumerate(ups)) + (up | new,))
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    out.sort(key=lambda ups: [ups[i] >> j & 1 for (i, j) in off])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _rooted_posets(n: int) -> tuple[tuple[int, ...], ...]:
    """The partial orders on n worlds with world 0 below every world, one
    per isomorphism class, worlds numbered along a linear extension."""
    found: dict = {}
    perms = list(itertools.permutations(range(n)))

    def canonical(ups):
        return min(
            tuple(sum(1 << p[j] for j in range(n) if ups[i] >> j & 1)
                  for i in sorted(range(n), key=lambda i: p[i]))
            for p in perms
        )

    def grow(ups):
        k = len(ups)
        if k == n:
            found.setdefault(canonical(ups), ups)
            return
        for down in range(1, 1 << k, 2):  # every new world is above world 0
            if all(not (down >> j & 1) or (ups[i] >> j & 1) <= (down >> i & 1)
                   for i in range(k) for j in range(k)):
                grow(tuple(u | (1 << k) if down >> i & 1 else u
                           for i, u in enumerate(ups)) + (1 << k,))

    grow((1,))
    return tuple(found[c] for c in sorted(found))


@functools.lru_cache(maxsize=4096)
def _upset_masks(ups: tuple[int, ...]) -> tuple[int, ...]:
    """The up-closed sets of a frame, as bitmasks, in the order of a count
    through the worlds with world 0 most significant."""
    n = len(ups)
    closed = [s for s in range(1 << n)
              if all(ups[i] & ~s == 0 for i in range(n) if s >> i & 1)]
    closed.sort(key=lambda s: [s >> i & 1 for i in range(n)])
    return tuple(closed)


@functools.lru_cache(maxsize=None)
def _upset_counts(n: int) -> tuple[tuple[int, int], ...]:
    """(k, how many preorders on n worlds have k up-sets), for each k."""
    counts: dict[int, int] = {}
    for ups in _preorders(n):
        k = len(_upset_masks(ups))
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


def _slot_count(atom_list, domain_size: int, arity: Mapping[str, int]) -> int:
    """How many atom instances a valuation assigns an up-set to."""
    return sum(max(1, domain_size) ** arity.get(name, 0) for name in atom_list)


def count_models(
    max_worlds: int,
    atoms: Iterable[str],
    domain_size: int = 0,
    arity: Mapping[str, int] | None = None,
) -> int:
    """Size of the exhaustive enumeration (one upset per atom slot)."""
    slots = _slot_count(set(atoms), domain_size, arity or {})
    return sum(
        times * k**slots
        for n in range(1, max_worlds + 1)
        for k, times in _upset_counts(n)
    )


# OEIS A000798: the number of preorders on n labelled points, n = 0..8; it
# grows with n, so the last entry bounds every larger n from below
_PREORDER_COUNTS = (1, 1, 4, 29, 355, 6942, 209527, 9535241, 642779354)


def _check_budget(max_worlds, atom_list, domain_size, arity) -> None:
    """Raises BudgetExceeded when the exhaustive enumeration would yield
    more than MODEL_BUDGET models.  Counting a size builds all its
    preorders, so the sizes are first bounded from below: every preorder
    has at least two up-sets (none and all worlds)."""
    slots = _slot_count(atom_list, domain_size, arity)
    least = 0
    for n in range(1, max_worlds + 1):
        least += _PREORDER_COUNTS[min(n, len(_PREORDER_COUNTS) - 1)] * 2**slots
        if least > MODEL_BUDGET:
            raise BudgetExceeded(
                f"at least {least} models up to {n} worlds exceed the {MODEL_BUDGET} budget"
            )
    total = count_models(max_worlds, atom_list, domain_size, arity)
    if total > MODEL_BUDGET:
        raise BudgetExceeded(f"{total} models exceed the {MODEL_BUDGET} budget")


def enumerate_models(
    max_worlds: int,
    atoms: Iterable[str] = (),
    domain_size: int = 0,
    mode: str = "exhaustive",
    seed: int = 0,
    count: int = 0,
    arity: Mapping[str, int] | None = None,
) -> Iterator[KripkeModel]:
    """Stream finite models.

    exhaustive: every labelled model with up to max_worlds worlds — all
    reflexive-transitive relations, all monotone valuations of the given
    atoms (argument tuples drawn from a domain of domain_size individuals,
    arity per atom from `arity`, default 0).  When every atom is
    propositional, the models with the same number of worlds share one
    compiled `_Family` (cached, a few at a time), over which `satisfies`
    evaluates formulas.  More than MODEL_BUDGET models raise BudgetExceeded
    before the first is yielded.

    random: `count` pseudo-random valid models, deterministic per seed;
    BudgetExceeded before the first when max_worlds**3 exceeds MODEL_BUDGET.

    A negative domain_size or count raises ModelError before the first.
    """
    if max_worlds < 1:
        raise ModelError("max_worlds must be >= 1")
    if domain_size < 0 or count < 0:
        raise ModelError("domain_size and count must be >= 0")
    atom_list = sorted(set(atoms))
    arity = arity or {}
    if mode == "exhaustive":
        _check_budget(max_worlds, atom_list, domain_size, arity)
        yield from _enumerate_exhaustive(max_worlds, atom_list, domain_size, arity)
    elif mode == "random":
        # closing one model's order takes more than max_worlds**3 steps
        if max_worlds ** 3 > MODEL_BUDGET:
            raise BudgetExceeded(
                f"random models on up to {max_worlds} worlds exceed the {MODEL_BUDGET} budget")
        yield from _generate_random(max_worlds, atom_list, domain_size, arity, seed, count)
    else:
        raise ModelError(f"unknown mode {mode!r}")


def _arg_tuples(domain: tuple[str, ...], k: int) -> list[tuple[str, ...]]:
    if k == 0:
        return [()]
    return list(itertools.product(domain, repeat=k))


def _layout(n: int, n_slots: int):
    """(frame, valuation) of every labelled model on n worlds, in order."""
    for ups in _preorders(n):
        for choice in itertools.product(_upset_masks(ups), repeat=n_slots):
            yield ups, choice


def _enumerate_exhaustive(max_worlds, atom_list, domain_size, arity):
    domain = tuple(f"d{i}" for i in range(domain_size))
    slots = [
        (name, args)
        for name in atom_list
        for args in _arg_tuples(domain, arity.get(name, 0))
    ]
    propositional = all(not args for (_, args) in slots)
    names = tuple(name for (name, _) in slots)
    for n in range(1, max_worlds + 1):
        # one family per number of worlds, so that a consumer that stops
        # early compiles only the sizes it reached
        fam = None
        if propositional:
            fam = _cached_family(("exhaustive", n, names),
                                 lambda: _Family(list(_layout(n, len(slots))), names))
        worlds = [f"w{i}" for i in range(n)]
        wset = frozenset(worlds)
        base = 0
        for ups in _preorders(n):
            leq = frozenset((worlds[i], worlds[j]) for i in range(n)
                            for j in range(n) if ups[i] >> j & 1)
            sets = [frozenset(worlds[i] for i in range(n) if s >> i & 1)
                    for s in _upset_masks(ups)]
            for choice in itertools.product(sets, repeat=len(slots)):
                m = _trusted_model(wset, leq, dict(zip(slots, choice)), domain)
                if fam is not None:
                    object.__setattr__(m, "_fam", fam)
                    object.__setattr__(m, "_cell", fam.cell)
                    object.__setattr__(m, "_pos", dict(zip(worlds, range(base, base + n))))
                    base += n
                yield m


def _closure(worlds, edges) -> frozenset[tuple[World, World]]:
    """The reflexive-transitive closure of edges on worlds: each world
    below an edge is paired with every world reachable from it."""
    succ: dict[World, set[World]] = {}
    for (a, b) in edges:
        succ.setdefault(a, set()).add(b)
    rel = {(w, w) for w in worlds}
    for a, out in succ.items():
        seen = set(out)
        stack = list(out)
        while stack:
            for b in succ.get(stack.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        rel.update((a, b) for b in seen)
    return frozenset(rel)


def _generate_random(max_worlds, atom_list, domain_size, arity, seed, count):
    rng = random.Random(seed)
    produced = 0
    domain = tuple(f"d{i}" for i in range(domain_size))
    while produced < count:
        n = rng.randint(1, max_worlds)
        worlds = [f"w{i}" for i in range(n)]
        edges = [(worlds[i], worlds[j]) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.4]
        named = _closure(worlds, edges)
        val = {}
        for name in atom_list:
            for args in _arg_tuples(domain, arity.get(name, 0)):
                seedset = {w for w in worlds if rng.random() < 0.5}
                up = set(seedset)
                for w in seedset:
                    up.update(v for (x, v) in named if x == w)
                val[(name, args)] = frozenset(up)
        yield KripkeModel(frozenset(worlds), named, val, domain)
        produced += 1


# ---------------------------------------------------------------------------
# model text files
#
#   worlds: w v u
#   leq: w <= v, v <= u
#   domain: d1 d2
#   val: p @ w
#   val: q(d1, d2) @ v
#
# The loader closes leq reflexively and transitively and rejects
# non-monotone valuations.

def dump_model(m: KripkeModel) -> str:
    lines = ["worlds: " + " ".join(sorted(m.worlds))]
    edges = sorted((w, v) for (w, v) in m.leq if w != v)
    if edges:
        lines.append("leq: " + ", ".join(f"{w} <= {v}" for w, v in edges))
    if m.domain:
        lines.append("domain: " + " ".join(m.domain))
    for (name, args), ws in sorted(m.valuation.items()):
        head = name if not args else f"{name}({', '.join(args)})"
        for w in sorted(ws):
            lines.append(f"val: {head} @ {w}")
    return "\n".join(lines) + "\n"


def load_model(text: str) -> KripkeModel:
    worlds: list[str] = []
    edges: set[tuple[str, str]] = set()
    domain: list[str] = []
    val: dict[tuple[str, tuple[str, ...]], set[str]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ModelError(f"malformed model line: {raw!r}")
        key, rest = line.split(":", 1)
        key = key.strip()
        rest = rest.strip()
        if key == "worlds":
            worlds.extend(rest.split())
        elif key == "leq":
            for pair in rest.split(","):
                if not pair.strip():
                    continue
                if "<=" not in pair:
                    raise ModelError(f"malformed leq entry: {pair!r}")
                a, b = (x.strip() for x in pair.split("<=", 1))
                edges.add((a, b))
        elif key == "domain":
            domain.extend(rest.split())
        elif key == "val":
            if "@" not in rest:
                raise ModelError(f"malformed val entry: {rest!r}")
            head, w = (x.strip() for x in rest.rsplit("@", 1))
            if "(" in head:
                name, argtext = head.split("(", 1)
                if not argtext.endswith(")"):
                    raise ModelError(f"malformed val entry: {rest!r}")
                args = tuple(a.strip() for a in argtext[:-1].split(",") if a.strip())
            else:
                name, args = head, ()
            val.setdefault((name.strip(), args), set()).add(w)
        else:
            raise ModelError(f"unknown model key {key!r}")
    wset = frozenset(worlds)
    if not wset:
        raise ModelError("model file names no worlds")
    return KripkeModel(
        wset,
        _closure(wset, edges),
        {k: frozenset(v) for k, v in val.items()},
        tuple(domain),
    )
