"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities definitionally (explicit loops over
node pairs, explicit subset filtering, dense eigensolves) so the fast paths
in the package are checked against a genuinely different computation.
"""

from __future__ import annotations

import numpy as np

from bitree_embed.maxflow import dinkelbach_max_ratio
from bitree_embed.operators import MassFunction, energy_density, hardy_forward
from bitree_embed.trees import BiTreeTopology, down_closure, up_closure


def brute_forward(topo: BiTreeTopology, vals: np.ndarray) -> np.ndarray:
    out = topo.zeros(dtype=vals.dtype)
    for a in topo.nodes():
        out[a] = sum(vals[b] for b in topo.nodes() if topo.leq(a, b))
    return out


def brute_adjoint(topo: BiTreeTopology, vals: np.ndarray) -> np.ndarray:
    out = topo.zeros(dtype=vals.dtype)
    for a in topo.nodes():
        out[a] = sum(vals[b] for b in topo.nodes() if topo.leq(b, a))
    return out


def repeat_ancestor_sum(values: np.ndarray, tree, axis: int = 0) -> np.ndarray:
    """Per-axis ancestor sum with a fresh ``np.repeat`` of each parent level,
    the sweep's earlier formulation; must agree bit for bit."""
    out = values.copy()
    v = out if axis == 0 else out.T
    for j in range(1, tree.depth + 1):
        lo = 1 << j
        v[lo : 2 * lo] += np.repeat(v[lo >> 1 : lo], 2, axis=0)
    return out


def copying_descendant_sum(values: np.ndarray, tree, axis: int = 0) -> np.ndarray:
    """Per-axis descendant sum on a fresh copy, the sweep's earlier form."""
    out = values.copy()
    v = out if axis == 0 else out.T
    for j in range(tree.depth - 1, -1, -1):
        lo = 1 << j
        v[lo : 2 * lo] += v[2 * lo : 4 * lo : 2] + v[2 * lo + 1 : 4 * lo : 2]
    return out


def copying_forward(topo: BiTreeTopology, vals: np.ndarray) -> np.ndarray:
    return repeat_ancestor_sum(repeat_ancestor_sum(vals, topo.tree_x, 0), topo.tree_y, 1)


def copying_adjoint(topo: BiTreeTopology, vals: np.ndarray) -> np.ndarray:
    return copying_descendant_sum(copying_descendant_sum(vals, topo.tree_x, 0), topo.tree_y, 1)


def loop_lca_kernel(topo: BiTreeTopology, nodes, w) -> np.ndarray:
    """K[i, j] = ancestor-sum of w at ``topo.lca`` of the nodes, pair by pair:
    the library's earlier double loop, the referee for the vectorized LCAs."""
    iw = hardy_forward(topo, w.values)
    n = len(nodes)
    k = np.empty((n, n), dtype=iw.dtype)
    for i in range(n):
        for j in range(i, n):
            k[i, j] = k[j, i] = iw[topo.lca(nodes[i], nodes[j])]
    return k


def brute_box(mu, w):
    topo = mu.topo
    e = energy_density(mu, w)
    ist = brute_adjoint(topo, mu.values)
    best = 0.0
    for node in topo.nodes():
        if ist[node] > 0:
            num = sum(e[a] for a in topo.nodes() if topo.leq(a, node))
            best = max(best, num / ist[node])
    return best


def downsets_by_filtering(topo: BiTreeTopology):
    """All down-sets of a tiny bi-tree by filtering every subset."""
    nodes = list(topo.nodes())
    n = len(nodes)
    assert n <= 15, "filter oracle is for tiny instances"
    out = []
    for bits in range(1 << n):
        members = {nodes[i] for i in range(n) if bits >> i & 1}
        closed = all(
            (b in members) or not topo.leq(b, a)
            for a in members
            for b in nodes
        )
        if closed:
            out.append(frozenset(members))
    return out


def brute_carleson(mu, w):
    """Max ratio over down-sets found by subset filtering (tiny only)."""
    topo = mu.topo
    e = energy_density(mu, w)
    best = 0.0
    for members in downsets_by_filtering(topo):
        md = sum(mu.values[n] for n in members)
        if md > 0:
            best = max(best, sum(e[n] for n in members) / md)
    return best


def transitive_carleson(mu, w):
    """Carleson constant as a closure over the nodes carrying energy or mass,
    with an edge from every node to each of its strict descendants.

    Returns (value, witness mask, node count); the witness is the down-closure
    of the chosen nodes.  Reaches depth (4,4) in about a second."""
    topo = mu.topo
    e = energy_density(mu, w)
    relevant = np.asarray(e != 0) | np.asarray(mu.values != 0)
    nodes = [(int(a), int(b)) for a, b in zip(*np.nonzero(relevant))]
    pos = {node: i for i, node in enumerate(nodes)}
    successors = [[] for _ in nodes]
    for j, node in enumerate(nodes):
        single = topo.zeros(dtype=bool)
        single[node] = True
        for a, b in zip(*np.nonzero(up_closure(topo, single) & relevant)):
            i = pos[(int(a), int(b))]
            if i != j:
                successors[i].append(j)
    exact = mu.values.dtype == object or w.values.dtype == object
    value, members, _ = dinkelbach_max_ratio(
        [e[n] for n in nodes], [mu.values[n] for n in nodes], successors,
        tol=0 if exact else 1e-12,
    )
    sel = topo.zeros(dtype=bool)
    for node, member in zip(nodes, members):
        sel[node] = member
    return value, down_closure(topo, sel), len(nodes)


def brute_hereditary(mu, w):
    """Definitional max over subsets of the support, energies from scratch."""
    topo = mu.topo
    supp = [(int(a), int(b)) for a, b in zip(*np.nonzero(mu.values > 0))]
    n = len(supp)
    assert n <= 14
    best = 0.0
    for bits in range(1, 1 << n):
        mask = np.zeros(topo.shape, dtype=bool)
        for i in range(n):
            if bits >> i & 1:
                mask[supp[i]] = True
        restricted = MassFunction(topo, mu.values * mask)
        den = float(restricted.total_mass)
        if den > 0:
            best = max(best, float(energy_density(restricted, w).sum()) / den)
    return best


def kernel_hereditary(mu, w, chunk: int = 1 << 15):
    """Max of m_S^T K m_S / m(S) over every nonempty subset S of the support,
    K the LCA kernel; vectorized enumeration, reaching support ~20."""
    supp = [(int(a), int(b)) for a, b in zip(*np.nonzero(mu.values > 0))]
    n = len(supp)
    assert n <= 22, "2^n enumeration"
    kernel = loop_lca_kernel(mu.topo, supp, w)
    masses = np.array([mu.values[s] for s in supp], dtype=np.float64)
    ar = np.arange(n)
    best = 0.0
    for start in range(1, 1 << n, chunk):
        ids = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        x = ((ids[:, None] >> ar[None, :]) & 1) * masses[None, :]
        num = np.einsum("si,ij,sj->s", x, kernel, x)
        best = max(best, float(np.max(num / x.sum(axis=1))))
    return best


def dense_embedding_eig(mu, w):
    """Top eigenvalue of the explicitly assembled kernel matrix."""
    topo = mu.topo
    supp = [(int(a), int(b)) for a, b in zip(*np.nonzero(mu.values > 0))]
    if not supp:
        return 0.0
    k = loop_lca_kernel(topo, supp, w)
    m = np.array([mu.values[s] for s in supp])
    b = np.sqrt(m)[:, None] * k * np.sqrt(m)[None, :]
    return float(np.linalg.eigvalsh(b)[-1])
