"""Seeded random instances for suites, sweeps and the CLI.

All generators are deterministic functions of an explicit rng so that every
harness row can be reproduced standalone.
"""

from __future__ import annotations

import numpy as np

from .operators import MassFunction, WeightFunction, hardy_adjoint, potential
from .trees import BiTreeTopology, build_bitree

MASS_KINDS = ("boundary", "boundary_atoms", "all_nodes")
WEIGHT_KINDS = ("product", "general", "hooked", "upset_indicator")
MASS_DENSITY = 0.7  # share of the nodes a "boundary" or "all_nodes" mass charges


def random_mass(topo: BiTreeTopology, rng: np.random.Generator, kind: str = "boundary") -> MassFunction:
    v = topo.zeros()
    lx, ly = topo.tree_x.leaf_start, topo.tree_y.leaf_start
    if kind == "boundary":
        shape = (topo.tree_x.size - lx, topo.tree_y.size - ly)
        v[lx:, ly:] = rng.uniform(size=shape) * (rng.random(shape) < MASS_DENSITY)
    elif kind == "boundary_atoms":
        count = int(rng.integers(1, max(2, topo.boundary_count // 2 + 1)))
        for _ in range(count):
            node = (int(rng.integers(lx, topo.tree_x.size)), int(rng.integers(ly, topo.tree_y.size)))
            v[node] += rng.uniform(0.1, 1.0)
    elif kind == "all_nodes":
        shape = (topo.tree_x.size - 1, topo.tree_y.size - 1)
        v[1:, 1:] = rng.uniform(size=shape) * (rng.random(shape) < MASS_DENSITY)
    else:
        raise ValueError(f"unknown mass kind {kind!r}")
    return MassFunction(topo, v)


def random_weight(topo: BiTreeTopology, rng: np.random.Generator, kind: str = "general") -> WeightFunction:
    if kind == "product":
        wx = np.zeros(topo.tree_x.size)
        wx[1:] = rng.uniform(0.05, 1.0, size=topo.tree_x.size - 1)
        wy = np.zeros(topo.tree_y.size)
        wy[1:] = rng.uniform(0.05, 1.0, size=topo.tree_y.size - 1)
        return WeightFunction.product(topo, wx, wy)
    if kind == "general":
        v = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
        return WeightFunction.general(topo, v)
    if kind == "upset_indicator":
        from .trees import up_closure

        seedmask = np.zeros(topo.shape, dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            node = (int(rng.integers(1, topo.tree_x.size)), int(rng.integers(1, topo.tree_y.size)))
            seedmask[node] = True
        return WeightFunction.general(topo, up_closure(topo, seedmask).astype(np.float64))
    if kind == "hooked":
        anchor = (
            int(rng.integers(topo.tree_x.leaf_start, topo.tree_x.size)),
            int(rng.integers(topo.tree_y.leaf_start, topo.tree_y.size)),
        )
        v = topo.zeros()
        for ix in topo.tree_x.ancestors(anchor[0]):
            for iy in topo.tree_y.ancestors(anchor[1]):
                v[ix, iy] = rng.uniform(0.05, 1.0)
        return WeightFunction.hooked(topo, anchor, v)
    raise ValueError(f"unknown weight kind {kind!r}")


def random_instance(depth_x: int, depth_y: int, seed: int, mass_kind: str = "boundary",
                    weight_kind: str = "general"):
    rng = np.random.default_rng(seed)
    topo = build_bitree(depth_x, depth_y)
    mu = random_mass(topo, rng, mass_kind)
    w = random_weight(topo, rng, weight_kind)
    return topo, mu, w


SMALL_DEPTH_PAIRS = ((1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3), (1, 0), (0, 1))


def small_oracle_instance(seed: int):
    """Instance with at most 25 bi-nodes, for exhaustive-oracle comparisons."""
    rng = np.random.default_rng(seed)
    dx, dy = SMALL_DEPTH_PAIRS[int(rng.integers(0, len(SMALL_DEPTH_PAIRS)))]
    topo = build_bitree(dx, dy)
    mass_kind = ("boundary", "all_nodes", "boundary_atoms")[int(rng.integers(0, 3))]
    mu = random_mass(topo, rng, mass_kind)
    w = random_weight(topo, rng, ("general", "product")[int(rng.integers(0, 2))])
    return topo, mu, w


# ---------------------------------------------------------------------------
# admissible data for the majorization bounds
# ---------------------------------------------------------------------------

def random_superadditive_tree(tree, rng: np.random.Generator) -> np.ndarray:
    """Top-down random superadditive values on a single tree."""
    g = np.zeros(tree.size)
    g[1] = rng.uniform(0.5, 2.0)
    for i in range(1, tree.leaf_start):
        budget = g[i] * rng.uniform(0.0, 1.0)
        split = rng.uniform(0.0, 1.0)
        g[2 * i] = budget * split
        g[2 * i + 1] = budget * (1 - split)
    return g


def tree_majorant_data(tree, rng: np.random.Generator):
    """(g, f, w, lam, delta) admissible for the tree majorant, tilted so the
    level band around lam is populated when the instance allows it."""
    if rng.random() < 0.5:
        g = random_superadditive_tree(tree, rng)
    else:
        mu = np.zeros(tree.size)
        mu[1:] = rng.uniform(size=tree.size - 1) * (rng.random(tree.size - 1) < 0.8)
        from .operators import tree_descendant_sum

        g = tree_descendant_sum(mu, tree)
    w = np.zeros(tree.size)
    w[1:] = rng.uniform(0.05, 1.0, size=tree.size - 1)
    # damp the root weight so the support of f is not forced to be tiny
    w[1] *= 0.05
    from .operators import tree_ancestor_sum

    iwg = tree_ancestor_sum(w * g, tree)
    top = float(iwg.max())
    if top <= 0:
        return None
    lam = top / 1.9 * float(rng.uniform(0.9, 1.0))
    delta = min(lam / 4, float(np.quantile(iwg[1:][iwg[1:] > 0], 0.25))) if (iwg[1:] > 0).any() else 0.0
    if delta <= 0:
        return None
    f = np.where(iwg <= delta, rng.uniform(size=tree.size), 0.0)
    f[0] = 0.0
    return g, f, w, lam, delta


def bitree_majorant_data(topo: BiTreeTopology, rng: np.random.Generator):
    """(m, w, lam, delta) admissible for the bi-tree majorant: m is a
    descendant-sum restricted to a potential sub-level set."""
    mu = random_mass(topo, rng, "boundary" if rng.random() < 0.7 else "all_nodes")
    if float(mu.total_mass) == 0.0:
        return None
    w = random_weight(topo, rng, "product")
    v = potential(mu, w).values
    vals = v[1:, 1:][v[1:, 1:] > 0]
    if vals.size == 0:
        return None
    delta = float(np.quantile(vals, rng.uniform(0.2, 0.7)))
    if delta <= 0:
        return None
    mask = v <= delta
    mask[0, :] = False
    mask[:, 0] = False
    m = hardy_adjoint(topo, mu.values) * mask
    if not (m > 0).any():
        return None
    lam = 4 * delta * float(rng.uniform(1.0, 3.0))
    return m, w, lam, delta
