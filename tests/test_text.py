"""Sequent text: both notations print and read back, through the one
splitter they share, and malformed text is refused with a ValueError."""

import pytest
from hypothesis import example, given, settings, strategies as st

from intcalc.formula import And, Atom, Bot, Exists, Forall, Impl, Neg, Or, Param, Var
from intcalc.labelled import (
    DomAtom,
    Label,
    LabelledSequent,
    RelAtom,
    parse_sequent,
    show_sequent,
)
from intcalc.nested import NestedSequent, parse_nested, show_nested

_X = Var("x")
_A, _B = Param("a"), Param("b")
# first-order atoms with two and three arguments, bound and free, and an
# atom named like the keyword of domain atoms
_LEAVES = [
    Atom("p"), Atom("q"), Atom("in"), Bot(), Atom("r", (_A,)), Atom("s", (_A, _B)),
    Atom("s", (_B, _A, _A)), Forall(_X, Atom("s", (_X, _A, _B))),
    Exists(_X, Or(Atom("q"), Atom("s", (_A, _X)))),
]


def _compound(sub):
    return st.one_of(
        st.builds(Neg, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Impl, sub, sub), st.builds(Forall, st.just(_X), sub),
        st.builds(Exists, st.just(_X), sub),
    )


# compounds of compounds put parentheses inside parentheses
_formulas = st.recursive(st.sampled_from(_LEAVES), _compound, max_leaves=8)
_labels = st.sampled_from([Label("w"), Label("v"), Label("u"), Label("w1")])


@st.composite
def _labelled(draw):
    occs = st.lists(st.tuples(_labels, _formulas), max_size=4).map(tuple)
    return LabelledSequent(
        tuple(draw(st.lists(st.builds(RelAtom, _labels, _labels), max_size=4))),
        tuple(draw(st.lists(st.builds(DomAtom, st.sampled_from([_A, _B]), _labels),
                            max_size=3))),
        draw(occs),
        draw(occs),
    )


@st.composite
def _nested(draw, depth=3):
    fs = st.lists(_formulas, max_size=3).map(tuple)
    kids = tuple(draw(_nested(depth - 1)) for _ in range(draw(st.integers(0, 2)))) \
        if depth else ()
    return NestedSequent(draw(fs), draw(fs), kids)


_WIDE = Impl(Neg(And(Atom("s", (_A, _B)), Or(Atom("p"), Bot()))), Atom("s", (_B, _A, _A)))


@given(_labelled())
@example(LabelledSequent())
@example(LabelledSequent(ante=((Label("w"), And(Atom("in"), Atom("p"))),)))
@example(LabelledSequent((RelAtom(Label("w"), Label("v")),), (DomAtom(_A, Label("v")),),
                         ((Label("v"), _WIDE),), ((Label("w"), Forall(_X, _WIDE)),)))
@settings(max_examples=300, deadline=None)
def test_labelled_text_round_trip(s):
    assert parse_sequent(show_sequent(s)) == s


@given(_nested())
@example(NestedSequent())
@example(NestedSequent((_WIDE,), (_WIDE,), (NestedSequent((), (_WIDE,), (NestedSequent(),)),)))
@settings(max_examples=300, deadline=None)
def test_nested_text_round_trip(n):
    assert parse_nested(show_nested(n)) == n


@pytest.mark.parametrize("text", [
    "w: (p & q => w: q",       # unbalanced (
    "w: p => w: (q",
    "w: p) => w: q",           # stray )
    "w: p => w: q)",
    "w: r(#a,,#b) => w: q",    # ,, in an argument list
    "w: r(#a,) => w: q",       # trailing , in an argument list
    "w: [p => w: q",           # brackets belong to nested sequents
    "w: p => w: [q -> r]",
    "w: p",                    # no arrow
])
def test_malformed_labelled_text_is_refused(text):
    with pytest.raises(ValueError):
        parse_sequent(text)


@pytest.mark.parametrize("text", [
    "(p & q -> q",             # unbalanced (
    "p -> (q",
    "p) -> q",                 # stray )
    "p -> q)",
    "r(#a,,#b) -> q",          # ,, in an argument list
    "p -> r(#a,)",             # trailing , in an argument list
    "p -> [q -> r",            # unclosed [
    "p -> q]",                 # stray ]
    "p -> [[q -> r]]",         # a child without an arrow
    "p, q",                    # no arrow
])
def test_malformed_nested_text_is_refused(text):
    with pytest.raises(ValueError):
        parse_nested(text)


def test_empty_parts_between_commas_are_dropped():
    assert parse_sequent("w: p,, w: q, => w: q,") == parse_sequent("w: p, w: q => w: q")
    assert parse_nested("p,, q, -> q,, [ -> p],") == parse_nested("p, q -> q, [ -> p]")
