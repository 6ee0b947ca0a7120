"""Random replication-free terms for property testing.

Generated terms respect the freshness convention: every binder gets a
globally unique name drawn from a dedicated counter, distinct from all
free names and from the binders of any other term produced by the same
generator.  That makes pairs from one generator safe to compose in
parallel without renaming.
"""

from __future__ import annotations

import random

from .syntax import (
    Input,
    Match,
    NIL,
    Output,
    Par,
    Prefixed,
    Process,
    Restrict,
    Sum,
    TAU,
)


class TermGen:
    """Seeded generator of well-formed replication-free processes."""

    def __init__(
        self,
        seed=0,
        names=("a", "b", "c"),
        binder_prefix="u",
    ):
        self.rng = random.Random(seed)
        self.names = tuple(names)
        self.binder_prefix = binder_prefix
        self._binder_index = 0

    def _fresh_binder(self) -> str:
        while True:
            name = f"{self.binder_prefix}{self._binder_index}"
            self._binder_index += 1
            if name not in self.names:
                return name

    def _name(self, scope) -> str:
        pool = self.names + tuple(scope)
        return self.rng.choice(pool)

    def _prefix(self, scope):
        roll = self.rng.random()
        binder = None
        if roll < 0.45:
            core = Output(self._name(scope), self._name(scope))
        elif roll < 0.75:
            binder = self._fresh_binder()
            core = Input(self._name(scope), binder)
        else:
            core = TAU
        if self.rng.random() < 0.15:
            core = Match(self._name(scope), self._name(scope), core)
        return core, binder

    def term(self, size: int, scope=()) -> Process:
        """A process with roughly `size` operators."""
        if size <= 1:
            if self.rng.random() < 0.3:
                return NIL
            prefix, _ = self._prefix(scope)
            return Prefixed(prefix, NIL)
        roll = self.rng.random()
        if roll < 0.5:
            prefix, binder = self._prefix(scope)
            inner = scope + (binder,) if binder else scope
            return Prefixed(prefix, self.term(size - 1, inner))
        if roll < 0.7:
            split = self.rng.randint(1, size - 1)
            return Sum(
                self._summation(split, scope), self._summation(size - split, scope)
            )
        if roll < 0.9:
            split = self.rng.randint(1, size - 1)
            return Par(self.term(split, scope), self.term(size - split, scope))
        binder = self._fresh_binder()
        return Restrict(binder, self.term(size - 1, scope + (binder,)))

    def _summation(self, size: int, scope) -> Process:
        if size <= 1:
            if self.rng.random() < 0.2:
                return NIL
            prefix, _ = self._prefix(scope)
            return Prefixed(prefix, NIL)
        if self.rng.random() < 0.35:
            split = self.rng.randint(1, size - 1)
            return Sum(
                self._summation(split, scope), self._summation(size - split, scope)
            )
        prefix, binder = self._prefix(scope)
        inner = scope + (binder,) if binder else scope
        return Prefixed(prefix, self.term(size - 1, inner))

    def pair(self, size: int):
        """Two terms with mutually disjoint binders (freshness convention)."""
        return self.term(size), self.term(size)
