"""The benchmark's own Kripke semantics, against which it checks intcalc.

It shares no code with `intcalc.kripke`.  A frame is a tuple `up`, up[w]
the worlds at or above world w (a preorder given explicitly).  The one
evaluator, `forced`, applies the forcing clauses world by world, for many
valuations of one frame at once: a valuation is an index t, and the truth
of a formula at a world is the bitmask of the valuations under which it is
forced there.

Validity is tested on `ROOTED_FRAMES`, the nine rooted posets with at most
four worlds, listed by hand.  That suffices for every model with at most
four worlds: a formula that fails at a world w fails at the root of the
submodel w generates, and collapsing that submodel's clusters (a
p-morphism) leaves a rooted poset with no more worlds.
"""

from __future__ import annotations

import itertools

from intcalc.formula import And, Atom, Bot, Impl, Neg, Or


def _frame(n: int, covers: str) -> tuple[tuple[int, ...], ...]:
    """The frame on worlds 0..n-1 generated by covering pairs "a<b ...",
    closed reflexively and transitively."""
    above = {w: {w} for w in range(n)}
    for pair in covers.split():
        a, b = map(int, pair.split("<"))
        above[a].add(b)
    changed = True
    while changed:
        changed = False
        for w in range(n):
            grown = set().union(*(above[v] for v in above[w]))
            if grown != above[w]:
                above[w] = grown
                changed = True
    return tuple(tuple(sorted(above[w])) for w in range(n))


# one of each rooted poset with at most four worlds, up to isomorphism;
# world 0 is the root
ROOTED_FRAMES = (
    _frame(1, ""),
    _frame(2, "0<1"),
    _frame(3, "0<1 1<2"),
    _frame(3, "0<1 0<2"),
    _frame(4, "0<1 1<2 2<3"),
    _frame(4, "0<1 1<2 1<3"),
    _frame(4, "0<1 0<2 1<3"),
    _frame(4, "0<1 0<2 0<3"),
    _frame(4, "0<1 0<2 1<3 2<3"),
)


def up_sets(up) -> list[frozenset[int]]:
    """Every up-closed set of worlds of the frame."""
    out = []
    for bits in itertools.product((False, True), repeat=len(up)):
        s = frozenset(w for w, b in enumerate(bits) if b)
        if all(set(up[w]) <= s for w in s):
            out.append(s)
    return out


def all_valuations(up, atoms) -> tuple[dict[str, list[int]], int]:
    """(val, width): every monotone valuation of `atoms` on the frame, as
    val[atom][w], the bitmask of the valuation indices under which the atom
    holds at w; width is the number of valuations."""
    choices = list(itertools.product(up_sets(up), repeat=len(atoms)))
    val = {a: [0] * len(up) for a in atoms}
    for t, choice in enumerate(choices):
        for a, s in zip(atoms, choice):
            for w in s:
                val[a][w] |= 1 << t
    return val, len(choices)


def forced(up, val, width: int, f, memo=None) -> list[int]:
    """Per world w, the bitmask of the valuations under which f is forced
    at w.  An atom absent from val is false everywhere."""
    if memo is None:
        memo = {}
    got = memo.get(id(f))
    if got is not None:
        return got
    full = (1 << width) - 1
    worlds = range(len(up))
    if isinstance(f, Bot):
        out = [0 for _ in worlds]
    elif isinstance(f, Atom):
        if f.args:
            raise ValueError(f"not a propositional atom: {f!r}")
        out = list(val.get(f.name, [0] * len(up)))
    elif isinstance(f, And):
        a, b = forced(up, val, width, f.left, memo), forced(up, val, width, f.right, memo)
        out = [a[w] & b[w] for w in worlds]
    elif isinstance(f, Or):
        a, b = forced(up, val, width, f.left, memo), forced(up, val, width, f.right, memo)
        out = [a[w] | b[w] for w in worlds]
    elif isinstance(f, (Impl, Neg)):
        # A -> B is forced at w when every v >= w that forces A forces B
        a = forced(up, val, width, f.left if isinstance(f, Impl) else f.body, memo)
        b = forced(up, val, width, f.right, memo) if isinstance(f, Impl) else [0 for _ in worlds]
        out = []
        for w in worlds:
            t = full
            for v in up[w]:
                t &= ~a[v] | b[v]
            out.append(t & full)
    else:
        raise ValueError(f"not a propositional formula: {f!r}")
    memo[id(f)] = out
    return out


def atoms_in(f) -> tuple[str, ...]:
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, Neg):
            stack.append(g.body)
        elif isinstance(g, (And, Or, Impl)):
            stack += [g.left, g.right]
    return tuple(sorted(out))


_valuations_cache: dict = {}


def countermodel(f, max_worlds: int = 4):
    """(frame, {atom: set of worlds}) of a model in ROOTED_FRAMES with at
    most max_worlds worlds whose root refutes f, fewest worlds first, or
    None when f holds on all of them."""
    atoms = atoms_in(f)
    for up in ROOTED_FRAMES:
        if len(up) > max_worlds:
            break
        key = (up, atoms)
        if key not in _valuations_cache:
            _valuations_cache[key] = all_valuations(up, atoms)
        val, width = _valuations_cache[key]
        miss = ((1 << width) - 1) & ~forced(up, val, width, f)[0]
        if miss:
            t = (miss & -miss).bit_length() - 1
            return up, {a: {w for w in range(len(up)) if val[a][w] >> t & 1} for a in atoms}
    return None


# ---------------------------------------------------------------------------
# single explicit models (as intcalc returns or reads them)

def explicit(m):
    """(worlds, up, val) of an intcalc KripkeModel, worlds sorted by name;
    raises ValueError unless the relation is a preorder on the worlds and
    the propositional valuation is monotone."""
    worlds = sorted(m.worlds)
    index = {w: i for i, w in enumerate(worlds)}
    above = [set() for _ in worlds]
    for a, b in m.leq:
        if a not in index or b not in index:
            raise ValueError(f"edge {a}<={b} leaves the worlds")
        above[index[a]].add(index[b])
    for i in range(len(worlds)):
        if i not in above[i]:
            raise ValueError(f"not reflexive at {worlds[i]}")
        for j in above[i]:
            if not above[j] <= above[i]:
                raise ValueError(f"not transitive through {worlds[j]}")
    val = {}
    for (name, args), ws in m.valuation.items():
        if args:
            raise ValueError(f"not a propositional atom: {name}")
        mask = [0] * len(worlds)
        for w in ws:
            if w not in index:
                raise ValueError(f"{name} holds at an unknown world {w}")
            if not above[index[w]] <= {index[v] for v in ws}:
                raise ValueError(f"{name} is not monotone at {w}")
            mask[index[w]] = 1
        val[name] = mask
    return worlds, tuple(tuple(sorted(a)) for a in above), val


def holds_at(m, world, f) -> bool:
    worlds, up, val = explicit(m)
    return bool(forced(up, val, 1, f)[worlds.index(world)])


def labelled_holds(m, s) -> bool:
    """A labelled sequent holds in m when every assignment of worlds to its
    labels that respects its relational atoms makes some antecedent
    formula false or some succedent formula true (domain atoms are vacuous
    under constant domains).  Searches for a refuting assignment."""
    worlds, up, val = explicit(m)
    memo: dict = {}
    everywhere = (1 << len(worlds)) - 1
    allowed: dict = {}
    for side, lfs in ((True, s.ante), (False, s.succ)):
        for label, f in lfs:
            t = forced(up, val, 1, f, memo)
            mask = sum(1 << w for w in range(len(worlds)) if t[w])
            allowed[label] = allowed.get(label, everywhere) & (mask if side else ~mask)
    labels = sorted(s.labels(), key=lambda l: l.name)
    edges = [(r.w, r.v) for r in s.rel]
    rho: dict = {}

    def refute(i: int) -> bool:
        if i == len(labels):
            return True
        l = labels[i]
        for w in range(len(worlds)):
            if not allowed.get(l, everywhere) >> w & 1:
                continue
            rho[l] = w
            if all(rho[b] in up[rho[a]] for a, b in edges
                   if a in rho and b in rho) and refute(i + 1):
                return True
            del rho[l]
        return False

    return not refute(0)


def nested_holds(m, s) -> bool:
    """A nested sequent Gamma => Delta, [S1], ..., [Sk] fails at world w
    when Gamma holds at w, Delta fails at w, and each Si fails at some
    world at or above w; it holds in m when it fails at no world."""
    worlds, up, val = explicit(m)
    memo: dict = {}

    def true_at(f, w) -> bool:
        return bool(forced(up, val, 1, f, memo)[w])

    def fails(node, w) -> bool:
        return (all(true_at(f, w) for f in node.ante)
                and not any(true_at(f, w) for f in node.succ)
                and all(any(fails(c, v) for v in up[w]) for c in node.children))

    return not any(fails(s, w) for w in range(len(worlds)))
