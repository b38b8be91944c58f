"""Hilbert-style derivation checker for propositional intuitionistic logic.

The nine axiom schemes plus modus ponens; serves as an independent
theoremhood witness next to the Kripke oracle.  Derivation files are
numbered lines ``n. <formula> [ax k | prem | mp i j]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .formula import (
    And,
    Atom,
    Bot,
    Formula,
    FormulaError,
    Impl,
    Neg,
    Or,
    parse_formula,
    show_formula,
)

_A, _B, _C = Atom("A"), Atom("B"), Atom("C")

# Fig. 1 schemes; metavariables A, B, C range over formulas.
AXIOM_SCHEMES: tuple[Formula, ...] = (
    Impl(_A, Impl(_B, _A)),
    Impl(Impl(_A, Impl(_B, _C)), Impl(Impl(_A, _B), Impl(_A, _C))),
    Impl(_A, Impl(_B, And(_A, _B))),
    Impl(And(_A, _B), _A),
    Impl(And(_A, _B), _B),
    Impl(_A, Or(_A, _B)),
    Impl(_B, Or(_A, _B)),
    Impl(Bot(), _A),
    Impl(Impl(_A, _C), Impl(Impl(_B, _C), Impl(Or(_A, _B), _C))),
)

_META = {"A", "B", "C"}


def match_scheme(scheme: Formula, f: Formula, binding: dict | None = None):
    """One-way match of f against a scheme; returns the instantiation."""
    binding = {} if binding is None else binding
    if isinstance(scheme, Atom) and scheme.name in _META and not scheme.args:
        if scheme.name in binding:
            return binding if binding[scheme.name] == f else None
        binding[scheme.name] = f
        return binding
    if isinstance(scheme, Bot):
        return binding if isinstance(f, Bot) else None
    if isinstance(scheme, Atom):
        return binding if f == scheme else None
    if type(scheme) is not type(f):
        return None
    if isinstance(scheme, Neg):
        return match_scheme(scheme.body, f.body, binding)
    if isinstance(scheme, (And, Or, Impl)):
        b = match_scheme(scheme.left, f.left, binding)
        if b is None:
            return None
        return match_scheme(scheme.right, f.right, b)
    return None


def axiom_instance(f: Formula) -> int | None:
    """1-based index of the first scheme f instantiates, if any."""
    for i, sch in enumerate(AXIOM_SCHEMES, start=1):
        if match_scheme(sch, f) is not None:
            return i
    return None


@dataclass(frozen=True)
class AxiomStep:
    scheme: int | None = None  # 1-based; None means "any scheme"


@dataclass(frozen=True)
class PremiseStep:
    pass


@dataclass(frozen=True)
class MPStep:
    i: int
    j: int


Justification = Union[AxiomStep, PremiseStep, MPStep]


@dataclass(frozen=True)
class HilbertDerivation:
    premises: frozenset[Formula]
    steps: tuple[tuple[Formula, Justification], ...]

    def conclusion(self) -> Formula:
        return self.steps[-1][0]


@dataclass(frozen=True)
class HilbertReport:
    ok: bool
    failing_step: int | None = None
    reason: str = ""


def check_hilbert(d: HilbertDerivation) -> HilbertReport:
    for idx, (f, just) in enumerate(d.steps):
        if isinstance(just, AxiomStep):
            if just.scheme is None:
                if axiom_instance(f) is None:
                    return HilbertReport(False, idx, "matches no axiom scheme")
            else:
                if not (1 <= just.scheme <= len(AXIOM_SCHEMES)):
                    return HilbertReport(False, idx, f"no axiom scheme {just.scheme}")
                if match_scheme(AXIOM_SCHEMES[just.scheme - 1], f) is None:
                    return HilbertReport(
                        False, idx, f"not an instance of scheme {just.scheme}"
                    )
        elif isinstance(just, PremiseStep):
            if f not in d.premises:
                return HilbertReport(False, idx, "not among the premises")
        elif isinstance(just, MPStep):
            if not (0 <= just.i < idx and 0 <= just.j < idx):
                return HilbertReport(False, idx, "mp indices must precede the step")
            minor = d.steps[just.i][0]
            major = d.steps[just.j][0]
            if major != Impl(minor, f):
                return HilbertReport(
                    False, idx,
                    f"step {just.j} is not {show_formula(minor)} -> {show_formula(f)}",
                )
        else:
            return HilbertReport(False, idx, f"unknown justification {just!r}")
    return HilbertReport(True)


# ---------------------------------------------------------------------------
# file format

_LINE = re.compile(r"^\s*(\d+)\.\s*(.*?)\s*\[\s*(.*?)\s*\]\s*$")


def parse_hilbert(text: str) -> HilbertDerivation:
    steps: list[tuple[Formula, Justification]] = []
    premises: set[Formula] = set()
    expected = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE.match(line)
        if m is None:
            raise FormulaError(f"malformed derivation line: {raw!r}")
        n, ftext, jtext = int(m.group(1)), m.group(2), m.group(3)
        if n != expected:
            raise FormulaError(f"expected step {expected}, got {n}")
        expected += 1
        f = parse_formula(ftext)
        parts = jtext.split()
        if parts[0] == "ax":
            just: Justification = AxiomStep(int(parts[1]) if len(parts) > 1 else None)
        elif parts[0] == "prem":
            just = PremiseStep()
            premises.add(f)
        elif parts[0] == "mp" and len(parts) == 3:
            just = MPStep(int(parts[1]), int(parts[2]))
        else:
            raise FormulaError(f"unknown justification {jtext!r}")
        steps.append((f, just))
    if not steps:
        raise FormulaError("empty derivation")
    return HilbertDerivation(frozenset(premises), tuple(steps))


def dump_hilbert(d: HilbertDerivation) -> str:
    lines = []
    for i, (f, just) in enumerate(d.steps):
        if isinstance(just, AxiomStep):
            j = f"ax {just.scheme}" if just.scheme else "ax"
        elif isinstance(just, PremiseStep):
            j = "prem"
        else:
            j = f"mp {just.i} {just.j}"
        lines.append(f"{i}. {show_formula(f)} [{j}]")
    return "\n".join(lines) + "\n"
