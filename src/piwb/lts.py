"""Reachable transition graphs and the weighted depth/norm metrics.

Visible actions weigh 1 and internal steps weigh 2, which makes depth
(the longest weighted execution into a deadlocked state) additive over
parallel composition for finite terms.  Norm is the shortest such
execution and is deliberately not assumed additive.
"""

from __future__ import annotations

import heapq
import math

from .errors import CyclicLts, Inconclusive, NotFinite
from .parser import _render, action_text
from .semantics import NameUniverse, _steps_cached, derive_steps, start_index
from .syntax import (
    Action,
    Process,
    TAU_ACT,
    alpha_canonical,
    is_replication_free,
    validate,
)


def action_weight(a: Action) -> int:
    return 2 if a == TAU_ACT else 1


class Lts:
    """Immutable rooted transition graph over alpha-canonical states.

    `states` holds the terms of the explored states (a term paired with
    its pool cursor, how many pool names its run has introduced),
    numbered in the order the builder reached them; each state's edges
    follow `derive_steps` order.
    """

    __slots__ = ("states", "edges_from", "roots", "truncated", "universe")

    def __init__(self, states, edges_from, roots, truncated, universe):
        self.states = tuple(states)
        self.edges_from = tuple(tuple(es) for es in edges_from)
        self.roots = tuple(roots)
        self.truncated = frozenset(truncated)
        self.universe = universe

    @property
    def root(self) -> int:
        return self.roots[0]

    def __len__(self):
        return len(self.states)

    def edges(self):
        for i, es in enumerate(self.edges_from):
            for a, j in es:
                yield i, a, j

    def is_deadlocked(self, s: int) -> bool:
        """No outgoing edges; a truncated frontier state does not count."""
        return not self.edges_from[s] and s not in self.truncated

    def state_text(self, s: int) -> str:
        return _render(self.states[s], 0)

    def to_dot(self) -> str:
        lines = ["digraph lts {"]
        for i in range(len(self.states)):
            shape = ", shape=doublecircle" if i in set(self.roots) else ""
            mark = " (cut)" if i in self.truncated else ""
            lines.append(f'  s{i} [label="{self.state_text(i)}{mark}"{shape}];')
        for i, a, j in self.edges():
            lines.append(f'  s{i} -> s{j} [label="{action_text(a)}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "states": [self.state_text(i) for i in range(len(self.states))],
            "roots": list(self.roots),
            "edges": [[i, action_text(a), j] for i, a, j in self.edges()],
            "truncated": sorted(self.truncated),
        }


def build_lts_multi(terms, u: NameUniverse) -> Lts:
    """Breadth-first reachable graph from several roots under one universe.

    States are numbered as the search reaches them, taking each state's
    steps in `derive_steps` order, so numbering and edge order are the
    same under every hash seed.  The search's own index derives each
    state once, so no transition cache is read, and the graph's component
    memo derives each component of a composition once per pool cursor
    (see `derive_steps`).  All roots share one starting pool cursor so
    their input instantiation aligns.  Accepts operationally meaningful
    terms outside the two-level grammar (sums over restriction-wrapped
    bound outputs, as produced by head normal forms); the public
    build_lts validates its input first.
    """
    for t in terms:
        if not is_replication_free(t):
            raise NotFinite("transition graph construction requires replication-free terms")
    k0 = max((start_index(t, u) for t in terms), default=0)
    index: dict = {}
    states: list = []
    roots = []
    queue = []
    for t in terms:
        state = (alpha_canonical(t, avoid=u.known), k0)
        if state not in index:
            index[state] = len(states)
            states.append(state)
            queue.append(state)
        roots.append(index[state])
    edges_from: list[list] = []
    memo: dict = {}
    pos = 0
    while pos < len(queue):
        s = queue[pos]
        pos += 1
        out = []
        for a, q in derive_steps(s, u, memo):
            j = index.get(q)
            if j is None:
                j = len(states)
                index[q] = j
                states.append(q)
                queue.append(q)
            out.append((a, j))
        edges_from.append(out)
    return Lts([t for t, _k in states], edges_from, roots, frozenset(), u)


def build_lts(p: Process, u: NameUniverse | None = None) -> Lts:
    """Complete reachable graph of a replication-free process."""
    validate(p)
    if u is None:
        u = NameUniverse.for_terms(p)
    return build_lts_multi([p], u)


def build_lts_bounded(
    p: Process, u: NameUniverse | None = None, max_weight: int = 8
) -> tuple[Lts, bool]:
    """Explore only executions of cumulative weight <= max_weight.

    Works on replicated terms too.  States are numbered as the
    lightest-first search reaches them, in `derive_steps` order.  Returns
    the graph and a flag that is true iff some edge was cut off at the
    frontier; cut states are listed in the graph's `truncated` set and
    never count as deadlocked.  `u` defaults to the term's free names;
    its pool is unbounded, so every replicated copy that opens a binder
    finds a fresh name at any weight.
    """
    if u is None:
        u = NameUniverse.for_terms(p)
    validate(p)
    root = (alpha_canonical(p, avoid=u.known), start_index(p, u))
    index = {root: 0}
    states = [root]
    best = {0: 0}
    expanded: dict[int, tuple] = {}
    truncated = set()
    heap = [(0, 0)]
    while heap:
        w, i = heapq.heappop(heap)
        if w > best[i]:
            continue
        ts = expanded[i] = _steps_cached(states[i], u)
        for a, q in ts:
            w2 = w + action_weight(a)
            if w2 > max_weight:
                truncated.add(i)
                continue
            j = index.get(q)
            if j is None:
                j = len(states)
                index[q] = j
                states.append(q)
            if w2 < best.get(j, math.inf):
                best[j] = w2
                heapq.heappush(heap, (w2, j))
    edges_from: list[list] = [[] for _ in states]
    for i, ts in expanded.items():
        w = best[i]
        for a, q in ts:
            if w + action_weight(a) <= max_weight:
                edges_from[i].append((a, index[q]))
    flag = bool(truncated)
    return Lts([t for t, _k in states], edges_from, [0], truncated, u), flag


def _topological_order(l: Lts):
    n = len(l.states)
    indeg = [0] * n
    for _, _, j in l.edges():
        indeg[j] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    pos = 0
    while pos < len(order):
        i = order[pos]
        pos += 1
        for _, j in l.edges_from[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise CyclicLts("transition graph contains a cycle")
    return order


def state_depths(l: Lts) -> list[int]:
    """Longest weighted path from each state to a deadlocked state."""
    order = _topological_order(l)
    depths = [0] * len(l.states)
    for i in reversed(order):
        best = 0
        for a, j in l.edges_from[i]:
            cand = action_weight(a) + depths[j]
            if cand > best:
                best = cand
        depths[i] = best
    return depths


def depth(l: Lts) -> int:
    """Maximum weighted execution length from the root.

    For replication-free processes every maximal execution ends in a
    deadlocked state, so this is the longest weighted root-to-deadlock
    path.  Raises CyclicLts if the graph has a cycle.
    """
    return state_depths(l)[l.root]


def norm(l: Lts):
    """Minimum weighted distance from the root to a deadlocked state.

    Exact on truncated graphs whenever a deadlocked state was found within
    the explored weight; raises Inconclusive if the graph was truncated
    before any deadlock appeared, and returns infinity when the complete
    graph has no deadlocked state.
    """
    dist = {l.root: 0}
    heap = [(0, l.root)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist.get(i, math.inf):
            continue
        if l.is_deadlocked(i):
            return d
        for a, j in l.edges_from[i]:
            d2 = d + action_weight(a)
            if d2 < dist.get(j, math.inf):
                dist[j] = d2
                heapq.heappush(heap, (d2, j))
    if l.truncated:
        raise Inconclusive("exploration truncated before reaching any deadlocked state")
    return math.inf


def is_deadlocked(l: Lts, s: int) -> bool:
    return l.is_deadlocked(s)
