"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities definitionally (explicit loops over
node pairs, explicit subset filtering, dense eigensolves) so the fast paths
in the package are checked against a genuinely different computation.
The last section holds small helpers that only the tests call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from bitree_embed.counterexamples import rectangle_area
from bitree_embed.maxflow import FlowNetwork, dinkelbach_max_ratio
from bitree_embed.maximal import FEAS_TOL
from bitree_embed.operators import (
    MassFunction,
    WeightFunction,
    energy_density,
    hardy_adjoint,
    hardy_forward,
    is_exact,
    quotient,
)
from bitree_embed.trees import (
    BiTreeTopology,
    SizeError,
    TreeTopology,
    down_closure,
    up_closure,
)


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


def loop_antichain(topo: BiTreeTopology, mask: np.ndarray, maximal: bool) -> list:
    """Masked nodes with no masked cover above (maximal) or below, node by
    node in row-major order: the library's earlier loop behind
    ``DownSet.generators``/``UpSet.generators``."""
    out = []
    for ix in range(1, topo.tree_x.size):
        for iy in range(1, topo.tree_y.size):
            if not mask[ix, iy]:
                continue
            covers = topo.parents((ix, iy)) if maximal else topo.children((ix, iy))
            if not any(mask[c] for c in covers):
                out.append((ix, iy))
    return out


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


ENUMERATION_CAP = 25


def iter_ideal_bitmasks(children_of: Sequence[Sequence[int]]) -> Iterator[int]:
    """Yield every order ideal of a finite poset as a bitmask, empty set included.

    ``children_of[i]`` lists the covers of node ``i`` from below; a set is an
    ideal iff membership of ``i`` forces membership of all its covers.  Nodes
    may be numbered in any order; they are visited minimal-first, so every
    cover is decided before the nodes above it.
    """
    n = len(children_of)
    order = _minimal_first_order(children_of)
    remap = {node: pos for pos, node in enumerate(order)}
    child_masks = [0] * n
    for pos, node in enumerate(order):
        for c in children_of[node]:
            child_masks[pos] |= 1 << remap[c]

    def rec(i: int, acc: int) -> Iterator[int]:
        if i == n:
            yield acc
            return
        yield from rec(i + 1, acc)
        if acc & child_masks[i] == child_masks[i]:
            yield from rec(i + 1, acc | (1 << i))

    for m in rec(0, 0):
        out = 0
        for pos in range(n):
            if m >> pos & 1:
                out |= 1 << order[pos]
        yield out


def _minimal_first_order(children_of: Sequence[Sequence[int]]) -> list[int]:
    n = len(children_of)
    indeg = [len(ch) for ch in children_of]
    above: list[list[int]] = [[] for _ in range(n)]
    for i, ch in enumerate(children_of):
        for c in ch:
            above[c].append(i)
    ready = [i for i in range(n) if indeg[i] == 0]
    order = []
    while ready:
        i = ready.pop()
        order.append(i)
        for p in above[i]:
            indeg[p] -= 1
            if indeg[p] == 0:
                ready.append(p)
    if len(order) != n:
        raise ValueError("cover relation has a cycle")
    return order


def enumerate_down_sets(topo: BiTreeTopology) -> Iterator[np.ndarray]:
    """All down-sets of a small bi-tree as boolean masks (including empty)."""
    if topo.node_count > ENUMERATION_CAP:
        raise SizeError(
            f"down-set enumeration capped at {ENUMERATION_CAP} bi-nodes, "
            f"instance has {topo.node_count}"
        )
    nodes = list(topo.nodes())
    pos = {node: i for i, node in enumerate(nodes)}
    children = [[pos[c] for c in topo.children(node)] for node in nodes]
    for bits in iter_ideal_bitmasks(children):
        mask = np.zeros(topo.shape, dtype=bool)
        for i, node in enumerate(nodes):
            if bits >> i & 1:
                mask[node] = True
        yield mask


def enumeration_carleson(mu, w):
    """Max ratio over every down-set of a small bi-tree (up to
    ``ENUMERATION_CAP`` nodes), exact on exact grids: the referee for the
    min-cut solver.  Returns (value, witness mask); (0.0, None) without mass."""
    e = energy_density(mu, w)
    best_num, best_md, best_mask = 0, 0, None
    for mask in enumerate_down_sets(mu.topo):
        md = (mu.values * mask).sum()
        if md == 0:
            # massless down-sets carry no energy either: any node below a
            # positive descendant-sum sits above some mass point of the set
            continue
        num = (e * mask).sum()
        # num / md > best_num / best_md, compared without dividing
        if best_mask is None or num * best_md > best_num * md:
            best_num, best_md, best_mask = num, md, mask
    return (0.0, None) if best_mask is None else (quotient(best_num, best_md), best_mask)


def enumeration_upset_carleson(fam):
    """Exact Carleson constant of the up-set family (``CornerFamily`` with
    quadrant and atom masses 1/N) by scanning all 2^M nonempty sets of base
    rectangles: a union indexed by J holds the weighted rectangles whose
    containment interval lies inside J, and has mass (|J|+1)/N."""
    n = fam.depth
    counts = fam.interval_counts()
    m_cnt = fam.m_count
    best = Fraction(0)
    for bits in range(1, 1 << m_cnt):
        members = [j + 1 for j in range(m_cnt) if bits >> j & 1]
        mem = set(members)
        num = Fraction(0)
        for (m, k), c in counts.items():
            if all(j in mem for j in range(m, m + k + 1)):
                num += c * Fraction(k + 2, n) ** 2
        den = Fraction(len(members) + 1, n)
        best = max(best, num / den)
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
    arcs = []
    for j, node in enumerate(nodes):
        single = topo.zeros(dtype=bool)
        single[node] = True
        for a, b in zip(*np.nonzero(up_closure(topo, single) & relevant)):
            i = pos[(int(a), int(b))]
            if i != j:
                arcs.append((i, j))
    u, v = np.array(arcs, dtype=np.int64).reshape(-1, 2).T
    value, members, _ = dinkelbach_max_ratio(
        [e[n] for n in nodes], [mu.values[n] for n in nodes], (u, v)
    )
    sel = topo.zeros(dtype=bool)
    for node, member in zip(nodes, members):
        sel[node] = member
    return value, down_closure(topo, sel), len(nodes)


def pair_item_hereditary(mu, w):
    """Hereditary constant as Picard's (1976) selection problem: one closure
    item per support point i (numerator 0, denominator m_i) and one per pair
    i <= j (numerator (2 - delta_ij) K_ij m_i m_j, denominator 0) with a
    precedence arc to each of its two points.  All numerators are >= 0, so
    the best closure over a point set S takes every pair inside S.

    Returns (value, witness mask, iterations); the network has
    n + n(n+1)/2 items, so it is for supports of a few hundred."""
    topo = mu.topo
    idx = np.nonzero(np.asarray(mu.values != 0))
    supp = [(int(a), int(b)) for a, b in zip(*idx)]
    n = len(supp)
    masses = mu.values[idx]
    kernel = loop_lca_kernel(topo, supp, w)
    iu, ju = np.triu_indices(n)
    pair_numer = np.where(iu == ju, 1, 2) * kernel[iu, ju] * masses[iu] * masses[ju]
    # each pair item n + k precedes its two points iu[k] and ju[k]
    items = n + np.arange(len(iu))
    value, members, iters = dinkelbach_max_ratio(
        [0] * n + pair_numer.tolist(), masses.tolist() + [0] * len(iu),
        (np.repeat(items, 2), np.stack([iu, ju], axis=1).ravel()),
    )
    mask = topo.zeros(dtype=bool)
    for i in range(n):
        mask[supp[i]] = members[i]
    return value, mask, iters


def flow_network_selection(mu, collection, weights):
    """Sparse selection on a hand-built flow network: source -> member
    (demand), member -> each support point below it (unbounded), point ->
    sink (mass), the pairs found by ``topo.leq``.  The library's earlier
    formulation.  Returns (feasible, violating union or None)."""
    topo = mu.topo
    istar = hardy_adjoint(topo, mu.values)
    demands = [weights[i] * istar[q] ** 2 for i, q in enumerate(collection)]
    supp = [(int(a), int(b)) for a, b in zip(*np.nonzero(np.asarray(mu.values != 0)))]
    nq, ns = len(collection), len(supp)
    s, t = nq + ns, nq + ns + 1
    net = FlowNetwork(nq + ns + 2)
    total = sum(demands)
    for i, d in enumerate(demands):
        net.add_edge(s, i, d)
    for i, q in enumerate(collection):
        for j, node in enumerate(supp):
            if topo.leq(node, q):
                net.add_edge(i, nq + j, total + 1)
    for j, node in enumerate(supp):
        net.add_edge(nq + j, t, mu.values[node])
    flow = net.max_flow(s, t)
    slack = 0 if is_exact(mu.values) else FEAS_TOL * max(1.0, float(total))
    if flow >= total - slack:
        return True, None
    side = net.min_cut_source_side(s)
    union = topo.zeros(dtype=bool)
    for i in range(nq):
        if side[i]:
            union[collection[i]] = True
    return False, down_closure(topo, union)


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


# ---------------------------------------------------------------------------
# helpers that only the tests call
# ---------------------------------------------------------------------------

def embedding_quadratic_form(mu: MassFunction, w: WeightFunction, psi: np.ndarray):
    """Rayleigh-type ratio tested by a given function psi on supp mu."""
    topo = mu.topo
    num = (w.values * hardy_adjoint(topo, psi * mu.values) ** 2).sum()
    den = (psi * psi * mu.values).sum()
    return num, den


def weight_to_coefficients(topo: BiTreeTopology, w: WeightFunction) -> np.ndarray:
    """Inverse view: beta = area * sqrt(w)."""
    area = rectangle_area(topo)
    return area * np.sqrt(np.asarray(w.values, dtype=np.float64))


def lebesgue_mass(topo: BiTreeTopology) -> MassFunction:
    return MassFunction.uniform_boundary(
        topo, 2.0 ** -(topo.tree_x.depth + topo.tree_y.depth)
    )


def first_ancestor_leq(tree: TreeTopology, values: np.ndarray, node: int, threshold) -> int | None:
    """Walking up from node, the first ancestor with values <= threshold."""
    i = node
    while i >= 1:
        if values[i] <= threshold:
            return i
        i >>= 1
    return None


def y_telescope_floor(topo: BiTreeTopology, iwm: np.ndarray, node: tuple[int, int], lam: float) -> float:
    """iwm(node) minus its value at the first y-ancestor below lam/2.

    This is the telescoping quantity that the slicewise majorant's weighted
    potential dominates (up to the factor 1/2 - delta/lam) at every node
    where iwm <= 2*lam.
    """
    ix, iy = node
    sub = 0.0
    j = iy
    while j >= 1:
        if iwm[ix, j] <= lam / 2:
            sub = iwm[ix, j]
            break
        j >>= 1
    return float(iwm[node] - sub)
