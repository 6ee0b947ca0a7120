"""Concrete syntax for processes and actions.

Grammar (whitespace insensitive, `#` starts a line comment)::

    proc   ::= par
    par    ::= sum ("|" sum)*
    sum    ::= seq ("+" seq)*
    seq    ::= "0" | prefix "." seq | "new" name "." seq | "!" seq | "(" proc ")"
    prefix ::= ("[" name "=" name "]")* basic
    basic  ::= name "!" name | name "?" "(" name ")" | "tau"
    name   ::= [a-z][a-zA-Z0-9_]*

Prefixing binds tighter than "+", which binds tighter than "|"; "new z."
and "!" extend maximally to the right.  `new` and `tau` are reserved words.
The parser accepts "new"/"!" inside sum positions; validate() rejects the
ones that break the summation discipline.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .syntax import (
    NIL,
    TAU,
    Action,
    BoundOut,
    In,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Prefixed,
    Process,
    Repl,
    Restrict,
    Sum,
    Tau,
    alpha_canonical,
    validate,
)

_KEYWORDS = ("new", "tau")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<name>[a-z][a-zA-Z0-9_]*)
  | (?P<punct>[!?().\[\]=+|]|0)
    """,
    re.VERBOSE,
)


class SourceSpan:
    """Byte offsets [start, end) into the parsed input."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end

    def __eq__(self, other):
        return (
            isinstance(other, SourceSpan)
            and self.start == other.start
            and self.end == other.end
        )

    def __repr__(self):
        return f"SourceSpan({self.start}, {self.end})"


def tokenize(text: str) -> list[tuple[str, str, SourceSpan]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} at offset {pos}",
                SourceSpan(pos, pos + 1),
                expected=("name", "token"),
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group()
        if m.lastgroup == "name":
            kind = value if value in _KEYWORDS else "name"
        else:
            kind = value
        tokens.append((kind, value, SourceSpan(m.start(), m.end())))
    tokens.append(("eof", "", SourceSpan(len(text), len(text))))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            self.fail((kind,))
        return self.advance()

    def fail(self, expected):
        kind, value, span = self.peek()
        shown = value if value else "end of input"
        raise ParseError(
            f"unexpected {shown!r} at offset {span.start}; expected one of {sorted(expected)}",
            span,
            expected=expected,
        )

    # par ::= sum ("|" sum)*
    # sum ::= seq ("+" seq)*
    def parse_par(self) -> Process:
        # One loop for all three levels: `summ` and `par` hold the operands
        # already folded at the current level of parentheses.  "(" saves
        # them with the pending heads of its seq on `outer`, and ")"
        # restores them, so deep parenthesization needs no deep recursion.
        outer: list = []
        heads: list = []
        par = summ = None
        while True:
            term = self.parse_seq(heads)
            if term is None:
                outer.append((heads, par, summ))
                heads, par, summ = [], None, None
                continue
            while True:
                term = _apply_heads(heads, term)
                summ = term if summ is None else Sum(summ, term)
                kind = self.peek()[0]
                if kind == "+":
                    self.advance()
                    break
                par = summ if par is None else Par(par, summ)
                summ = None
                if kind == "|":
                    self.advance()
                    break
                if not outer:
                    return par
                self.expect(")")
                term = par
                heads, par, summ = outer.pop()
            heads = []

    # seq ::= "0" | prefix "." seq | "new" name "." seq | "!" seq | "(" proc ")"
    def parse_seq(self, heads: list):
        """Collect the prefixes, restricted names and "!"s (None) that
        start a seq into `heads`; return its 0, or None after consuming
        the "(" that opens its parenthesized process."""
        while True:
            kind = self.peek()[0]
            if kind == "0":
                self.advance()
                return NIL
            if kind == "new":
                self.advance()
                name = self.expect("name")[1]
                self.expect(".")
                heads.append(name)
            elif kind == "!":
                self.advance()
                heads.append(None)
            elif kind == "(":
                self.advance()
                return None
            elif kind in ("name", "tau", "["):
                prefix = self.parse_prefix()
                self.expect(".")
                heads.append(prefix)
            else:
                self.fail(("0", "new", "!", "(", "name", "tau", "["))

    # prefix ::= ("[" name "=" name "]")* basic
    def parse_prefix(self):
        guards = []
        while self.peek()[0] == "[":
            self.advance()
            lhs = self.expect("name")[1]
            self.expect("=")
            rhs = self.expect("name")[1]
            self.expect("]")
            guards.append((lhs, rhs))
        core = self.parse_basic()
        for lhs, rhs in reversed(guards):
            core = Match(lhs, rhs, core)
        return core

    # basic ::= name "!" name | name "?" "(" name ")" | "tau"
    def parse_basic(self):
        kind, value, span = self.peek()
        if kind == "tau":
            self.advance()
            return TAU
        if kind == "name":
            chan = self.advance()[1]
            kind2 = self.peek()[0]
            if kind2 == "!":
                self.advance()
                datum = self.expect("name")[1]
                return Output(chan, datum)
            if kind2 == "?":
                self.advance()
                self.expect("(")
                binder = self.expect("name")[1]
                self.expect(")")
                return Input(chan, binder)
            self.fail(("!", "?"))
        self.fail(("name", "tau"))


def _apply_heads(heads: list, term: Process) -> Process:
    """`term` under the heads of its seq, applied innermost first."""
    for head in reversed(heads):
        if head is None:
            term = Repl(term)
        elif type(head) is str:
            term = Restrict(head, term)
        else:
            term = Prefixed(head, term)
    return term


def parse(text: str) -> Process:
    """Parse a process; the result always satisfies validate()."""
    parser = _Parser(text)
    term = parser.parse_par()
    if parser.peek()[0] != "eof":
        parser.fail(("eof", "|", "+"))
    validate(term)
    return term


# --------------------------------------------------------------------------
# Pretty printer


def _prefix_text(pi) -> str:
    parts = []
    while isinstance(pi, Match):
        parts.append(f"[{pi.lhs}={pi.rhs}]")
        pi = pi.inner
    if isinstance(pi, Output):
        parts.append(f"{pi.chan}!{pi.datum}")
    elif isinstance(pi, Input):
        parts.append(f"{pi.chan}?({pi.binder})")
    else:
        parts.append("tau")
    return "".join(parts)


# Precedence levels: 0 = parallel context, 1 = sum context, 2 = seq context.
# Parsing is left-associative, so right-nested sums/parallels take parens.
def _render(p: Process, level: int) -> str:
    # Left to right on an explicit stack of literal text and (term,
    # level) items, so deep terms need no deep recursion.
    parts = []
    todo = [(p, level)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        p, level = item
        if isinstance(p, Nil):
            parts.append("0")
        elif isinstance(p, Prefixed):
            parts.append(f"{_prefix_text(p.prefix)}.")
            todo.append((p.cont, 2))
        elif isinstance(p, (Sum, Par)):
            if isinstance(p, Sum):
                op, left, right, paren = " + ", 1, 2, level > 1
            else:
                op, left, right, paren = " | ", 0, 1, level > 0
            if paren:
                parts.append("(")
                todo.append(")")
            todo += [(p.right, right), op, (p.left, left)]
        elif isinstance(p, Restrict):
            parts.append(f"new {p.binder}.")
            todo.append((p.body, 2))
        elif isinstance(p, Repl):
            parts.append("!")
            todo.append((p.body, 2))
        else:
            raise TypeError(f"not a process: {p!r}")
    return "".join(parts)


def pretty(p: Process) -> str:
    """Deterministic text with minimal parentheses and canonical binders."""
    return _render(alpha_canonical(p), 0)


def action_text(a: Action) -> str:
    if isinstance(a, BoundOut):
        return f"{a.chan}!({a.binder})"
    if isinstance(a, In):
        return f"{a.chan}?{a.datum}"
    if isinstance(a, (Output, Tau)):
        return _prefix_text(a)
    raise TypeError(f"not an action: {a!r}")
