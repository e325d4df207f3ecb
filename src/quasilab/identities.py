"""Term identities over quasigroups and the operator form of (N1).

Terms use the three quasigroup operations: a*b, left division a\\b (the
x with a*x = b) and right division a/b (the y with y*b = a).  The grammar
demands parentheses around every binary application, so there are no
precedence rules to get wrong for \\ and /.

This module alone knows the term tree: compile_identity turns an identity
into one straight-line program over registers, and both evaluators run
it.  check_identity runs it exhaustively over all n^k variable
assignments; the pruned scan (kunen._cell_check) runs it for every
instance at once on a partial table, resuming each instance from a watch
list.  The operator route of n1_equivalence_report works purely with
translation permutations and shares no evaluation code with either,
which is what lets it serve as a two-route check of the translation form
of (N1): Q satisfies ((x*y)*z)*y = x*(y*(z*y)) pointwise iff
R_y o L_{x*y} = L_x o L_y o R_y for all x, y, with (S o T)(z) = S(T(z)).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .cayley import FiniteQuasigroup
from .perm import compose_images


class ParseError(ValueError):
    """Malformed identity text; position is a 0-based character offset."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        shown = found if found else "end of input"
        super().__init__(f"at position {position}: expected {expected}, found {shown}")


class EmptySide(ParseError):
    def __init__(self, position: int, side: str):
        self.side = side
        ParseError.__init__(self, position, f"a term on the {side} side")


class VariableLimitExceeded(ValueError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"identity has {count} variables, cap is {cap}")


class UnknownIdentityError(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no builtin identity named {name!r}")

    def __str__(self):
        # KeyError would wrap the message in repr quotes
        return self.args[0]


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Multiply:
    left: object
    right: object


@dataclass(frozen=True)
class LeftDivide:
    left: object
    right: object


@dataclass(frozen=True)
class RightDivide:
    left: object
    right: object


@dataclass(frozen=True)
class Identity:
    lhs: object
    rhs: object
    variables: tuple[str, ...]


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    counterexample: dict | None = None
    lhs_value: int | None = None
    rhs_value: int | None = None


_OPS = {"*": Multiply, "\\": LeftDivide, "/": RightDivide}
_OPCODES = {Multiply: 0, LeftDivide: 1, RightDivide: 2}  # indices into tables


class _Parser:
    """Recursive descent for: identity := term "=" term;
    term := var | "(" term op term ")"; op := "*" | "\\" | "/".
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        got = self.peek()
        if got != char:
            raise ParseError(self.pos, f"{char!r}", got)
        self.pos += 1

    def term(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            left = self.term()
            op = self.peek()
            if op not in _OPS:
                raise ParseError(self.pos, "an operator '*', '\\' or '/'", op)
            self.pos += 1
            right = self.term()
            self.expect(")")
            return _OPS[op](left, right)
        if ch.isalnum() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return Variable(self.text[start : self.pos])
        raise ParseError(self.pos, "a variable or '('", ch)

    def identity(self) -> Identity:
        if self.peek() in ("", "="):
            raise EmptySide(self.pos, "left")
        lhs = self.term()
        self.expect("=")
        if self.peek() == "":
            raise EmptySide(self.pos, "right")
        rhs = self.term()
        if self.peek() != "":
            raise ParseError(self.pos, "end of input", self.peek())
        names: list[str] = []
        for term in (lhs, rhs):
            _collect_variables(term, names)
        return Identity(lhs, rhs, tuple(names))


def _collect_variables(term, names: list):
    if isinstance(term, Variable):
        if term.name not in names:
            names.append(term.name)
    else:
        _collect_variables(term.left, names)
        _collect_variables(term.right, names)


def parse_identity(text: str) -> Identity:
    return _Parser(text).identity()


def pretty_term(term) -> str:
    if isinstance(term, Variable):
        return term.name
    op = "*\\/"[_OPCODES[type(term)]]
    return f"({pretty_term(term.left)}{op}{pretty_term(term.right)})"


def pretty(identity: Identity) -> str:
    return f"{pretty_term(identity.lhs)} = {pretty_term(identity.rhs)}"


def compile_identity(identity: Identity) -> tuple[list, int, int]:
    """Both sides of identity as one straight-line program.

    Registers 0..k-1 hold the k variables.  Step i is (op, a, b): it
    writes register k + i as tables[op][a][b] from two earlier registers,
    where tables is (q.table, *q._division_tables()), so op is 0 for *,
    1 for \\ and 2 for /.  The lhs's steps all come first.  Returns the
    steps and the registers of the two sides.  Each identity is compiled
    once; every call gets its own list of the steps.
    """
    program, lhs, rhs = _compile(identity)
    return list(program), lhs, rhs


@functools.cache  # an Identity is frozen and hashable; the steps are kept as a tuple
def _compile(identity: Identity) -> tuple[tuple, int, int]:
    variables, program = identity.variables, []

    def emit(term) -> int:
        if isinstance(term, Variable):
            return variables.index(term.name)
        program.append((_OPCODES[type(term)], emit(term.left), emit(term.right)))
        return len(variables) + len(program) - 1

    lhs, rhs = emit(identity.lhs), emit(identity.rhs)
    return tuple(program), lhs, rhs


def check_identity(q: FiniteQuasigroup, identity: Identity, cap: int = 4) -> CheckResult:
    """Exhaustively test an identity over all n^k assignments.

    Each assignment runs the program of compile_identity over one register
    list, in lexicographic order over the identity's variable list, so the
    reported counterexample is the smallest failing one.
    """
    k = len(identity.variables)
    if k > cap:
        raise VariableLimitExceeded(k, cap)
    program, lhs, rhs = compile_identity(identity)
    tables = (q.table, *q._division_tables()) if any(op for op, _, _ in program) else (q.table,)
    steps = [(i, tables[op], a, b) for i, (op, a, b) in enumerate(program, k)]
    regs = [0] * (k + len(program))
    for assignment in itertools.product(range(q.order), repeat=k):
        regs[:k] = assignment
        for i, table, a, b in steps:
            regs[i] = table[regs[a]][regs[b]]
        if regs[lhs] != regs[rhs]:
            counterexample = dict(zip(identity.variables, assignment))
            return CheckResult(False, counterexample, regs[lhs], regs[rhs])
    return CheckResult(holds=True)


def _operator_n1_all(q: FiniteQuasigroup) -> bool:
    n = q.order
    rows, cols = q.table, q.columns
    for y in range(n):
        ry = cols[y]
        ly = rows[y]
        ly_ry = compose_images(ly, ry)
        for x in range(n):
            lhs = compose_images(ry, rows[rows[x][y]])
            rhs = compose_images(rows[x], ly_ry)
            if lhs != rhs:
                return False
    return True


N1_TEXT = "(((x*y)*z)*y) = (x*(y*(z*y)))"

_BUILTIN_TEXT = {
    "N1": N1_TEXT,
    "moufang_left": "(z*(x*(z*y))) = (((z*x)*z)*y)",
    "associativity": "((x*y)*z) = (x*(y*z))",
    "commutativity": "(x*y) = (y*x)",
}


def builtin_identities() -> dict[str, Identity]:
    return {name: builtin_identity(name) for name in _BUILTIN_TEXT}


@functools.cache  # parsed once: an Identity is immutable, so callers may share it
def builtin_identity(name: str) -> Identity:
    try:
        return parse_identity(_BUILTIN_TEXT[name])
    except KeyError:
        raise UnknownIdentityError(name) from None


def n1_equivalence_report(q: FiniteQuasigroup) -> dict:
    """Check (N1) along both routes and report agreement.

    pointwise: term evaluation of ((x*y)*z)*y = x*(y*(z*y)).
    operator: permutation compositions R_y o L_{x*y} vs L_x o L_y o R_y.
    """
    pointwise = check_identity(q, builtin_identity("N1")).holds
    operator = _operator_n1_all(q)
    return {
        "pointwise": pointwise,
        "operator": operator,
        "agree": pointwise == operator,
    }
