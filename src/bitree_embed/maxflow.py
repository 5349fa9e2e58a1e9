"""Deterministic max-flow, maximum-weight closure, and ratio maximization.

Dinic's algorithm over adjacency lists, exact for ``Fraction``/int
capacities, which certifies the witnesses in rational mode, under Picard's
(1976) closure-to-min-cut reduction.  Arcs are index arrays ``(u, v)``, added
in array order, all precedence arcs or all priced by a cost array.  Callers:
Carleson (cover edges above the mass support, 3.6k nodes at depth (5,5)),
hereditary (Goldberg's 1984 network, a priced arc per pair of support points)
and the up-set family's exact Carleson value (base rectangles, corner atom and
containment intervals) through ``dinkelbach_max_ratio``; sparse selection in
one closure, whose value is the unmet demand and whose arc flows are the
packing.

A Dinkelbach round settles on its own min-cut set S: when S is empty, or
when S's ratio does not exceed the current one.  Both tests read S alone,
never the closure's value ``pos_total - flow``, a difference of two
float sums in different orders, so the loop needs no tolerance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .operators import quotient


MAX_ROUNDS = 200  # Dinkelbach rounds; the solved instances settle in a few
ARC_SLICE = 1 << 16  # arcs converted to Python objects at a time


class SolverError(RuntimeError):
    """Round cap exceeded, or a nonempty closure without mass (bad input)."""


@dataclass
class FlowNetwork:
    n: int
    # edge arrays: to[e], cap[e]; reverse edge is e ^ 1
    to: list = field(default_factory=list)
    cap: list = field(default_factory=list)
    adj: list = field(default_factory=list)

    def __post_init__(self):
        self.adj = [[] for _ in range(self.n)]

    def add_edge(self, u: int, v: int, capacity) -> int:
        e = len(self.to)
        self.to += [v, u]
        self.cap += [capacity, 0 * capacity]
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        return e

    def max_flow(self, s: int, t: int):
        total = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, None, level, it)
                if pushed is None:
                    break
                total = total + pushed

    def _bfs(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if level[v] < 0 and self.cap[e] > 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, limit, level, it):
        """One augmenting path along the level graph; returns pushed amount."""
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and level[v] == level[u] + 1:
                new_limit = self.cap[e] if limit is None else min(limit, self.cap[e])
                pushed = self._dfs(v, t, new_limit, level, it)
                if pushed is not None and pushed > 0:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                    return pushed
            it[u] += 1
        return None

    def min_cut_source_side(self, s: int) -> list[bool]:
        """Reachable set in the residual graph after max_flow."""
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if not seen[v] and self.cap[e] > 0:
                    seen[v] = True
                    q.append(v)
        return seen


def max_weight_closure(weights, arcs, costs=None):
    """Maximum over subsets S of sum(weights[S]) minus the priced arcs leaving S.

    ``weights`` and the arcs ``(u, v)`` are arrays.  Without ``costs`` every
    arc u -> v is a precedence arc forbidding u in S with v outside S; with a
    cost array every arc is priced, charging its cost >= 0 when u is in S and
    v is not.  Returns (value, members, flows): S the source side of a
    minimum cut as a bool array, and the flow on each arc; the empty set is
    feasible, so the value is >= 0.
    """
    w = weights.tolist()
    n = len(w)
    s, t = n, n + 1
    net = FlowNetwork(n + 2)
    ids = list(range(n + 2))  # shared node ids, one int object each
    pos_total = sum((p for p in w if p > 0), 0 * w[0] if n else 0)
    # large finite capacity acting as infinity on precedence edges
    inf_cap = 1000 * pos_total + 1
    for i, p in enumerate(w):
        if p > 0:
            net.add_edge(s, ids[i], p)
        elif p < 0:
            net.add_edge(ids[i], t, -p)
    first = len(net.to)
    u, v = arcs
    for lo in range(0, len(u), ARC_SLICE):
        arc = slice(lo, lo + ARC_SLICE)
        caps = [inf_cap] * len(u[arc]) if costs is None else costs[arc].tolist()
        for a, b, c in zip(u[arc].tolist(), v[arc].tolist(), caps):
            net.add_edge(ids[a], ids[b], c)
    flow = net.max_flow(s, t)
    members = np.array(net.min_cut_source_side(s)[:n], dtype=bool)
    # a reverse edge's capacity is the flow pushed along its arc
    return pos_total - flow, members, net.cap[first + 1 :: 2]


def dinkelbach_max_ratio(numer, denom, arcs, costs=None):
    """Maximize N(S) / sum(denom[S]) over nonempty feasible S with positive
    denominator, by Dinkelbach iteration on ``max_weight_closure`` (whose
    ``arcs`` and ``costs`` these are); N(S) is sum(numer[S]) minus the
    priced arcs leaving S.  numer, denom and costs >= 0; assumes every
    nonempty feasible S has positive denominator.  Set sums run in index
    order.  Returns (ratio, members as a bool array, iterations).

    A round at ratio lam settles when the minimum cut's source side S is
    empty or its ratio is <= lam.  In exact arithmetic S has a positive
    surplus N(S) - lam * den(S) exactly when its ratio exceeds lam, and the
    minimal maximum closure is empty exactly when no set has one, so this is
    the rule "stop at zero surplus" with no tolerance to pick.
    """
    numer, denom = np.asarray(numer), np.asarray(denom)
    n = len(numer)
    if n == 0:
        return 0, np.zeros(0, dtype=bool), 0
    best = np.ones(n, dtype=bool)
    den_full = sum(denom)
    if den_full == 0:
        return 0, best, 0
    lam = quotient(sum(numer), den_full)
    u, v = arcs
    for k in range(1, MAX_ROUNDS + 1):
        _, members, _ = max_weight_closure(numer - lam * denom, arcs, costs)
        if not members.any():
            return lam, best, k
        num_s = sum(numer[members])
        if costs is not None:
            num_s = num_s - sum(costs[members[u] & ~members[v]])
        den_s = sum(denom[members])
        if den_s == 0:
            raise SolverError("a nonempty closure has zero denominator")
        new_lam = quotient(num_s, den_s)
        if new_lam <= lam:
            return lam, best, k
        lam, best = new_lam, members
    raise SolverError(f"ratio iteration did not settle in {MAX_ROUNDS} rounds")
