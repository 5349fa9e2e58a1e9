"""Deterministic max-flow, maximum-weight closure, and ratio maximization.

The flow solver is a plain Dinic implementation over adjacency lists.  It is
exact for ``Fraction``/int capacities, which is what certifies the Carleson
witnesses in rational mode.  The Carleson graphs are the cover edges (at most
four per node) on the ancestors of the mass support: about 3.6k nodes at
depth (5,5) and 235k at depth (8,8).  The hereditary networks have one node
per support point and a priced arc per ordered pair of points.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .operators import quotient


MAX_ROUNDS = 200  # Dinkelbach rounds; the solved instances settle in a few


class SolverError(RuntimeError):
    """Iteration cap exceeded; should not happen on finite inputs."""


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


def max_weight_closure(weights: Sequence, successors: Sequence[Sequence[tuple]]):
    """Maximum over subsets S of sum(weights[S]) minus the priced arcs leaving S.

    ``successors[i]`` lists arcs ``(j, cost)``: ``cost=None`` forbids i in S
    with j outside S, any other cost >= 0 is charged when i is in S and j is
    not.  Returns (value, member flags), S the source side of a minimum cut;
    the empty set is feasible, so the value is >= 0.
    """
    n = len(weights)
    s, t = n, n + 1
    net = FlowNetwork(n + 2)
    zero = 0 * weights[0] if n else 0
    pos_total = zero
    for i, p in enumerate(weights):
        if p > 0:
            pos_total = pos_total + p
    # large finite capacity acting as infinity on precedence edges
    inf_cap = 1000 * pos_total + 1
    for i, p in enumerate(weights):
        if p > 0:
            net.add_edge(s, i, p)
        elif p < 0:
            net.add_edge(i, t, -p)
    for i, succ in enumerate(successors):
        for j, cost in succ:
            net.add_edge(i, j, inf_cap if cost is None else cost)
    flow = net.max_flow(s, t)
    side = net.min_cut_source_side(s)
    members = side[:n]
    value = pos_total - flow
    return value, members


def dinkelbach_max_ratio(numer: Sequence, denom: Sequence, successors, tol=0.0):
    """Maximize N(S) / sum(denom[S]) over nonempty feasible S with positive
    denominator, by Dinkelbach iteration on ``max_weight_closure`` (whose arc
    format ``successors`` uses); N(S) is sum(numer[S]) minus the priced arcs
    leaving S.  numer, denom and costs >= 0; assumes every feasible S with
    positive N(S) has positive denominator.  Returns (ratio, members, iterations).
    """
    n = len(numer)
    if n == 0:
        return 0, [], 0
    full = [True] * n
    num_full = sum(numer)
    den_full = sum(denom)
    if den_full == 0:
        return 0, full, 0
    lam = quotient(num_full, den_full)
    best = full
    for k in range(1, MAX_ROUNDS + 1):
        weights = [numer[i] - lam * denom[i] for i in range(n)]
        surplus, members = max_weight_closure(weights, successors)
        scale = sum(numer) + lam * sum(denom)
        if surplus <= tol * scale:
            return lam, best, k
        num_s = sum(numer[i] for i in range(n) if members[i]) - sum(
            cost for i in range(n) if members[i]
            for j, cost in successors[i] if cost is not None and not members[j]
        )
        den_s = sum(denom[i] for i in range(n) if members[i])
        if den_s == 0:
            # cannot happen for energy/mass closures; guard against bad input
            raise SolverError("closure with positive surplus has zero denominator")
        new_lam = quotient(num_s, den_s)
        if new_lam <= lam:
            return lam, best, k
        lam, best = new_lam, members
    raise SolverError(f"ratio iteration did not settle in {MAX_ROUNDS} rounds")
