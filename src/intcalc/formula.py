"""Formula ASTs for propositional and first-order intuitionistic logic.

One AST hosts both signatures ({false,&,|,->} and {~,&,|,->}) plus the
quantifiers; each calculus restricts which constructors its rules touch.
Bound variables (plain identifiers) and parameters (written ``#a``) live in
disjoint name spaces, so substitution never captures.

Concrete syntax::

    formula := '~' formula | 'forall' var '.' formula | 'exists' var '.' formula
             | formula '&' formula | formula '|' formula | formula '->' formula
             | 'false' | ident | ident '(' term {',' term} ')' | '(' formula ')'
    term    := ident          -- bound variable
             | '#' ident      -- parameter

Precedence: ~  >  &  >  |  >  -> (right associative); quantifiers take
maximal scope to the right.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Union


class FormulaError(ValueError):
    """Raised for malformed formula text or misuse of the reserved atom."""


_INTERNED: dict = {}


class Interned(type):
    """Metaclass of the hash-consed name classes (Filliâtre & Conchon,
    "Type-safe modular hash-consing", 2006).

    A constructor call returns the one instance with its class and field
    values, kept in one table keyed by the value tuple ``(cls, *fields)``.
    Equal values are therefore the same object: ``==`` is ``is`` and the
    hash is the C-level ``object.__hash__``.  The table is keyed by value,
    not by the identity of the fields, since equal strings need not be the
    same object.  It is never emptied; the names a proof search mints
    (``v0, v1, ...``, ``a0, ...``) and the atoms over them stay few.

    A class declares itself ``@dataclass(frozen=True, eq=False,
    slots=True)`` and derives from `InternedValue`, which re-interns
    copies and unpickled instances.
    """

    def __call__(cls, *args, **kwargs):
        if kwargs:  # bind keywords to their fields
            obj = super().__call__(*args, **kwargs)
            args = tuple(getattr(obj, f) for f in cls.__match_args__)
        key = (cls, *args)
        obj = _INTERNED.get(key)
        if obj is None:
            obj = _INTERNED[key] = super().__call__(*args)
        return obj


class InternedValue(metaclass=Interned):
    __slots__ = ()

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # returns the interned instance
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


@dataclass(frozen=True, eq=False, slots=True)
class Param(InternedValue):
    name: str

    def __repr__(self) -> str:
        return f"#{self.name}"


@dataclass(frozen=True, eq=False, slots=True)
class Var(InternedValue):
    name: str

    def __repr__(self) -> str:
        return self.name


Term = Union[Param, Var]


@dataclass(frozen=True)
class Bot:
    def __repr__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple[Term, ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Impl:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: Var
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: Var
    body: "Formula"


Formula = Union[Bot, Atom, Neg, And, Or, Impl, Forall, Exists]

# Atom reserved for the bottom encoding false := p0 & ~p0.
RESERVED_ATOM = "p0"

BOT = Bot()


def cache_hash(cls):
    """Memoize the generated dataclass hash on the instance.

    Formula trees and sequents are hashed constantly by the multiset
    encodings and the proof caches; without this, every hash walks the
    whole tree.  They keep structural equality: interning them as well
    (`Interned`) would make their integer id the natural sort key and so
    change the canonical order and every proof, and on the benchmark's
    `decide` workload its global table raised peak memory by about 10 %.
    The small name values (`Param`, `Var`, labels, relational and domain
    atoms) are interned instead and hash by identity.
    """
    base = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash_")
        if h is None:
            h = base(self)
            object.__setattr__(self, "_hash_", h)
        return h

    cls.__hash__ = __hash__
    return cls


for _cls in (Bot, Atom, Neg, And, Or, Impl, Forall, Exists):
    cache_hash(_cls)


def cached(fn):
    """Memoize a function of one frozen formula or sequent on the instance.

    For the functions that walk a whole formula or sequent and that proof
    search calls many times on the same one (its text, parameters, labels).
    The wrapper's ``slot`` names the instance attribute that holds the
    value, for hot loops that read the cache without the extra call.
    """
    key = f"_{fn.__name__}_"

    @functools.wraps(fn)
    def wrapper(x):
        v = x.__dict__.get(key)
        if v is None:
            v = fn(x)
            object.__setattr__(x, key, v)
        return v

    wrapper.slot = key
    return wrapper


def complexity(f: Formula) -> int:
    """Number of connectives and quantifiers in f."""
    if isinstance(f, (Bot, Atom)):
        return 0
    if isinstance(f, Neg):
        return 1 + complexity(f.body)
    if isinstance(f, (Forall, Exists)):
        return 1 + complexity(f.body)
    return 1 + complexity(f.left) + complexity(f.right)


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Neg):
        yield from subformulas(f.body)
    elif isinstance(f, (Forall, Exists)):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or, Impl)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


@cached
def params_of(f: Formula) -> tuple[Param, ...]:
    """Parameters of f in left-to-right first-occurrence order."""
    seen: list[Param] = []

    def walk(g: Formula) -> None:
        if isinstance(g, Atom):
            for t in g.args:
                if isinstance(t, Param) and t not in seen:
                    seen.append(t)
        elif isinstance(g, Neg):
            walk(g.body)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)
        elif isinstance(g, (And, Or, Impl)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return tuple(seen)


def atoms_of(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def substitute_param(f: Formula, a: Param, x: Var) -> Formula:
    """f[a/x]: replace every free occurrence of x by the parameter a.

    Vacuous when x does not occur free; capture is impossible because
    parameters are never bound.
    """
    if isinstance(f, Bot):
        return f
    if isinstance(f, Atom):
        if not any(t == x for t in f.args):
            return f
        return Atom(f.name, tuple(a if t == x else t for t in f.args))
    if isinstance(f, Neg):
        return Neg(substitute_param(f.body, a, x))
    if isinstance(f, And):
        return And(substitute_param(f.left, a, x), substitute_param(f.right, a, x))
    if isinstance(f, Or):
        return Or(substitute_param(f.left, a, x), substitute_param(f.right, a, x))
    if isinstance(f, Impl):
        return Impl(substitute_param(f.left, a, x), substitute_param(f.right, a, x))
    if isinstance(f, (Forall, Exists)):
        if f.var == x:
            return f
        return type(f)(f.var, substitute_param(f.body, a, x))
    raise TypeError(f"not a formula: {f!r}")


def rename_param(f: Formula, new: Param, old: Param) -> Formula:
    """f[new/old] on parameters (total replacement, no binding involved)."""
    if isinstance(f, Bot):
        return f
    if isinstance(f, Atom):
        if old not in f.args:
            return f
        return Atom(f.name, tuple(new if t == old else t for t in f.args))
    if isinstance(f, Neg):
        return Neg(rename_param(f.body, new, old))
    if isinstance(f, And):
        return And(rename_param(f.left, new, old), rename_param(f.right, new, old))
    if isinstance(f, Or):
        return Or(rename_param(f.left, new, old), rename_param(f.right, new, old))
    if isinstance(f, Impl):
        return Impl(rename_param(f.left, new, old), rename_param(f.right, new, old))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, rename_param(f.body, new, old))
    raise TypeError(f"not a formula: {f!r}")


def convert_signature(f: Formula, direction: str) -> Formula:
    """Switch between the {false,&,|,->} and {~,&,|,->} signatures.

    ``toBot`` rewrites ~A to A -> false.  ``toNeg`` rewrites false to
    p0 & ~p0 with the reserved atom p0, and leaves ~ intact.  Both are
    total and idempotent on their output signature.
    """
    if direction not in ("toBot", "toNeg"):
        raise FormulaError(f"unknown direction {direction!r}")
    if (
        direction == "toNeg"
        and any(isinstance(g, Bot) for g in subformulas(f))
        and any(
            isinstance(g, Atom) and g.name == RESERVED_ATOM for g in subformulas(f)
        )
    ):
        raise FormulaError(f"reserved atom clash: {RESERVED_ATOM} occurs in input")

    def go(g: Formula) -> Formula:
        if isinstance(g, Bot):
            if direction == "toNeg":
                p0 = Atom(RESERVED_ATOM)
                return And(p0, Neg(p0))
            return g
        if isinstance(g, Atom):
            return g
        if isinstance(g, Neg):
            if direction == "toBot":
                return Impl(go(g.body), BOT)
            return Neg(go(g.body))
        if isinstance(g, And):
            return And(go(g.left), go(g.right))
        if isinstance(g, Or):
            return Or(go(g.left), go(g.right))
        if isinstance(g, Impl):
            return Impl(go(g.left), go(g.right))
        return type(g)(g.var, go(g.body))

    return go(f)


# ---------------------------------------------------------------------------
# printing

_PREC_IMPL = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NEG = 4


def _show(f: Formula, ctx: int) -> str:
    # quantifiers and implication print at the loosest level; quantifier
    # bodies extend maximally to the right
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Atom):
        return repr(f)
    if isinstance(f, Neg):
        s = "~" + _show(f.body, _PREC_NEG)
        return s
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        s = f"{kw} {f.var.name}. {_show(f.body, 0)}"
        return f"({s})" if ctx > 0 else s
    if isinstance(f, Impl):
        s = f"{_show(f.left, _PREC_IMPL + 1)} -> {_show(f.right, _PREC_IMPL)}"
        return f"({s})" if ctx > _PREC_IMPL else s
    if isinstance(f, Or):
        s = f"{_show(f.left, _PREC_OR)} | {_show(f.right, _PREC_OR + 1)}"
        return f"({s})" if ctx > _PREC_OR else s
    if isinstance(f, And):
        s = f"{_show(f.left, _PREC_AND)} & {_show(f.right, _PREC_AND + 1)}"
        return f"({s})" if ctx > _PREC_AND else s
    raise TypeError(f"not a formula: {f!r}")


@cached
def show_formula(f: Formula) -> str:
    """Minimal-parentheses text for f; parse_formula inverts it."""
    return _show(f, 0)


# ---------------------------------------------------------------------------
# parsing

_IDENT_START = set("abcdefghijklmnopqrstuvwxyz")
_IDENT_CHARS = _IDENT_START | set("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclass
class _Tok:
    kind: str  # ident | param | punct
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            j = i + 1
            if j >= n or text[j] not in _IDENT_START:
                raise FormulaError(f"syntax error at {i}: '#' must start a parameter name")
            k = j
            while k < n and text[k] in _IDENT_CHARS:
                k += 1
            toks.append(_Tok("param", text[j:k], i))
            i = k
            continue
        if c in _IDENT_START:
            k = i
            while k < n and text[k] in _IDENT_CHARS:
                k += 1
            toks.append(_Tok("ident", text[i:k], i))
            i = k
            continue
        if text.startswith("->", i):
            toks.append(_Tok("punct", "->", i))
            i += 2
            continue
        if c in "~&|().,":
            toks.append(_Tok("punct", c, i))
            i += 1
            continue
        raise FormulaError(f"syntax error at {i}: unexpected character {c!r}")
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.bound: list[str] = []

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise FormulaError(f"syntax error at {len(self.text)}: unexpected end of input")
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise FormulaError(f"syntax error at {t.pos}: expected {text!r}, got {t.text!r}")
        return t

    def formula(self) -> Formula:
        return self.impl()

    def impl(self) -> Formula:
        left = self.disj()
        t = self.peek()
        if t is not None and t.text == "->":
            self.next()
            return Impl(left, self.impl())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while True:
            t = self.peek()
            if t is None or t.text != "|":
                return f
            self.next()
            f = Or(f, self.conj())

    def conj(self) -> Formula:
        f = self.unary()
        while True:
            t = self.peek()
            if t is None or t.text != "&":
                return f
            self.next()
            f = And(f, self.unary())

    def unary(self) -> Formula:
        t = self.peek()
        if t is None:
            raise FormulaError(f"syntax error at {len(self.text)}: unexpected end of input")
        if t.text == "~":
            self.next()
            return Neg(self.unary())
        if t.kind == "ident" and t.text in ("forall", "exists"):
            self.next()
            v = self.next()
            if v.kind != "ident":
                raise FormulaError(f"syntax error at {v.pos}: expected variable name")
            if v.text in ("forall", "exists", "false"):
                raise FormulaError(f"syntax error at {v.pos}: {v.text!r} cannot be a variable")
            self.expect(".")
            self.bound.append(v.text)
            try:
                body = self.formula()  # maximal scope
            finally:
                self.bound.pop()
            return (Forall if t.text == "forall" else Exists)(Var(v.text), body)
        return self.atomic()

    def atomic(self) -> Formula:
        t = self.next()
        if t.text == "(":
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "ident":
            if t.text == "false":
                return BOT
            if t.text in ("forall", "exists"):
                raise FormulaError(f"syntax error at {t.pos}: misplaced {t.text!r}")
            args: list[Term] = []
            nxt = self.peek()
            if nxt is not None and nxt.text == "(":
                self.next()
                while True:
                    args.append(self.term())
                    sep = self.next()
                    if sep.text == ")":
                        break
                    if sep.text != ",":
                        raise FormulaError(
                            f"syntax error at {sep.pos}: expected ',' or ')'"
                        )
            return Atom(t.text, tuple(args))
        raise FormulaError(f"syntax error at {t.pos}: unexpected {t.text!r}")

    def term(self) -> Term:
        t = self.next()
        if t.kind == "param":
            return Param(t.text)
        if t.kind == "ident":
            if t.text not in self.bound:
                raise FormulaError(
                    f"unbound variable {t.text!r} at {t.pos} (parameters are written #name)"
                )
            return Var(t.text)
        raise FormulaError(f"syntax error at {t.pos}: expected a term")


def parse_formula(text: str) -> Formula:
    """Parse the concrete syntax; raises FormulaError with a position."""
    p = _Parser(text)
    f = p.formula()
    t = p.peek()
    if t is not None:
        raise FormulaError(f"syntax error at {t.pos}: trailing input {t.text!r}")
    return f


# Total order key for formulas (used by the multiset encodings): their text.
fkey = show_formula
