"""The four embedding constants with certified witnesses.

* box: worst energy-to-mass ratio over principal down-sets (single node).
* carleson: worst ratio over arbitrary down-sets, solved exactly by ratio
  iteration over maximum-weight closures (one min-cut per round) on the
  cover edges of the nodes with mass below them.
* hereditary: worst full-energy-to-mass ratio over restrictions of the mass
  to subsets of its support.
* embedding: squared operator norm of the weighted adjoint embedding, i.e.
  the top eigenvalue of the LCA kernel quadratic form, by power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from .maxflow import dinkelbach_max_ratio
from .operators import (
    MassFunction,
    WeightFunction,
    energy_density,
    hardy_adjoint,
    hardy_forward,
    quotient,
    suffix_rect_sums,
)
from .trees import (
    DEFAULT_DENSE_CAP,
    BiTreeTopology,
    SizeError,
    bitree_cover_arcs,
    down_closure,
    heap_lca,
)

# reference envelopes for the hereditary-to-Carleson ratio under product
# weights; recorded next to empirical maxima, never asserted
HC_OVER_C_REFERENCE_ENVELOPES = (13.0, 32.0)


@dataclass
class ConstantReport:
    kind: str
    value: Any
    witness: dict | None
    certified: bool
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "value": float(self.value),
            "witness": _witness_json(self.witness),
            "certified": self.certified,
            "diagnostics": {k: _json_scalar(v) for k, v in self.diagnostics.items()},
        }


def _json_scalar(v):
    if isinstance(v, (np.floating, Fraction)):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def _witness_json(witness: dict | None):
    if witness is None:
        return None
    out = {"type": witness["type"]}
    topo: BiTreeTopology = witness["topo"]
    if witness["type"] == "binode":
        out["node"] = list(topo.gens_of_node(witness["node"]))
    elif witness["type"] == "downset":
        from .trees import DownSet

        gens = DownSet(witness["mask"]).generators(topo)
        out["generators"] = [list(topo.gens_of_node(n)) for n in gens]
    elif witness["type"] == "subset":
        nodes = [(int(a), int(b)) for a, b in zip(*np.nonzero(witness["mask"]))]
        out["nodes"] = [list(topo.gens_of_node(n)) for n in nodes]
    elif witness["type"] == "test_function":
        nodes = [(int(a), int(b)) for a, b in zip(*np.nonzero(witness["values"]))]
        out["values"] = [
            [*topo.gens_of_node(n), float(witness["values"][n])] for n in nodes
        ]
    return out


# ---------------------------------------------------------------------------
# box
# ---------------------------------------------------------------------------

def box_constant(mu: MassFunction, w: WeightFunction) -> ConstantReport:
    topo = mu.topo
    istar = hardy_adjoint(topo, mu.values)
    cume = hardy_adjoint(topo, energy_density(mu, w))
    pos = np.nonzero(np.asarray(istar > 0))
    if not len(pos[0]):
        return ConstantReport("Box", 0.0, None, True, {"note": "zero mass"})
    # the first largest ratio in row-major order
    ratios = quotient(cume[pos], istar[pos])
    k = int(np.argmax(ratios))
    node = (int(pos[0][k]), int(pos[1][k]))
    return ConstantReport("Box", ratios[k], {"type": "binode", "node": node, "topo": topo}, True, {})


# ---------------------------------------------------------------------------
# carleson
# ---------------------------------------------------------------------------

def carleson_constant(mu: MassFunction, w: WeightFunction) -> ConstantReport:
    topo = mu.topo
    if not np.asarray(mu.values != 0).any():
        return ConstantReport("Carleson", 0.0, None, True, {"note": "zero mass"})

    # closure graph: the up-set of nodes with mass below them, with cover
    # edges to the children inside it; the covers of an up-set generate its
    # order, and the nodes outside carry neither energy nor mass
    e = energy_density(mu, w)
    nodes, arcs = bitree_cover_arcs(topo, np.asarray(hardy_adjoint(topo, mu.values) > 0))
    lam, members, iters = dinkelbach_max_ratio(e[nodes], mu.values[nodes], arcs)
    # the witness is generated by the chosen nodes that carry energy or mass
    relevant = np.asarray(e != 0) | np.asarray(mu.values != 0)
    sel = np.zeros(topo.shape, dtype=bool)
    sel[nodes] = members
    witness_mask = down_closure(topo, sel & relevant)
    return ConstantReport(
        "Carleson",
        lam,
        {"type": "downset", "mask": witness_mask, "topo": topo},
        True,
        {"iterations": iters, "method": "exact_mincut",
         "relevant_nodes": int(np.count_nonzero(relevant))},
    )


# ---------------------------------------------------------------------------
# hereditary
# ---------------------------------------------------------------------------

def lca_kernel(topo: BiTreeTopology, nodes: list[tuple[int, int]], w: WeightFunction) -> np.ndarray:
    """K[i, j] = ancestor-sum of w at the least common ancestor of the nodes.

    The kernel is dense, so its n^2 entries count against the dense cap.
    """
    n = len(nodes)
    if n * n > DEFAULT_DENSE_CAP:
        raise SizeError(
            f"LCA kernel of {n} support points needs {n * n} entries, "
            f"above the dense cap {DEFAULT_DENSE_CAP}"
        )
    iw = hardy_forward(topo, w.values)
    ix, iy = np.array(nodes, dtype=np.int64).reshape(-1, 2).T
    return iw[heap_lca(ix[:, None], ix), heap_lca(iy[:, None], iy)]


def hereditary_constant(mu: MassFunction, w: WeightFunction) -> ConstantReport:
    """max over subsets S of supp mu of m_S^T K m_S / m(S), K the LCA kernel.

    A weighted densest-subgraph problem, solved exactly on Goldberg's (1984)
    cut network by the closure ratio engine: one item per support point i,
    with numerator d_i = sum_j c_ij and denominator m_i, where
    c_ij = K_ij m_i m_j, and a priced arc i -> j of cost c_ij for every
    j != i.  Over a point set S the numerators sum to the c_ij with i in S,
    and the arcs leaving S cost those with j outside S, so the engine's
    numerator is exactly sum over i, j in S of c_ij = m_S^T K m_S.

    Raises SizeError when the support's dense kernel would exceed the dense
    cap (support^2 > ``DEFAULT_DENSE_CAP``).
    """
    topo = mu.topo
    idx = np.nonzero(np.asarray(mu.values != 0))
    supp = [(int(a), int(b)) for a, b in zip(*idx)]
    if not supp:
        return ConstantReport("HereditaryCarleson", 0.0, None, True, {"note": "zero mass"})
    n = len(supp)
    masses = mu.values[idx]
    # the outer product keeps c symmetric in floating point
    c = lca_kernel(topo, supp, w) * np.outer(masses, masses)
    u, v = np.nonzero((c > 0) & ~np.eye(n, dtype=bool))
    value, members, iters = dinkelbach_max_ratio(
        np.cumsum(c, axis=1)[:, -1], masses, (u, v), c[u, v]
    )
    mask = np.zeros(topo.shape, dtype=bool)
    mask[idx] = members
    return ConstantReport(
        "HereditaryCarleson", value,
        {"type": "subset", "mask": mask, "topo": topo}, True,
        {"iterations": iters, "support": n},
    )


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

MAX_POWER_ITERS = 10_000  # power-iteration steps; past it the value is uncertified


def embedding_constant(mu: MassFunction, w: WeightFunction, tol: float = 1e-10) -> ConstantReport:
    topo = mu.topo
    mv = np.asarray(mu.values, dtype=np.float64)
    wv = np.asarray(w.values, dtype=np.float64)
    supp = np.nonzero(mv > 0)
    if len(supp[0]) == 0:
        return ConstantReport("CarlesonEmbedding", 0.0, None, True, {"note": "zero mass"})
    sqrtm = np.sqrt(mv[supp])
    # one grid serves every matvec: the sweeps run in place on it and the
    # support is scattered to and gathered from its flat view
    grid = np.empty(topo.shape)
    flat_grid = grid.reshape(-1)
    flat_supp = np.ravel_multi_index(supp, topo.shape)

    def matvec(x: np.ndarray) -> np.ndarray:
        grid.fill(0.0)
        flat_grid[flat_supp] = x * sqrtm
        hardy_adjoint(topo, grid, out=grid)
        np.multiply(grid, wv, out=grid)
        hardy_forward(topo, grid, out=grid)
        return sqrtm * flat_grid[flat_supp]

    x = sqrtm / np.linalg.norm(sqrtm)
    theta = 0.0
    stall = 0
    stalled = False
    iters = 0
    for iters in range(1, MAX_POWER_ITERS + 1):
        y = matvec(x)
        new_theta = float(x @ y)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            theta = 0.0
            x = y
            stalled = True
            break
        x = y / ny
        if abs(new_theta - theta) <= tol * max(abs(new_theta), 1e-300):
            stall += 1
            theta = new_theta
            if stall >= 3:
                stalled = True
                break
        else:
            stall = 0
            theta = new_theta
    if theta > 0:
        y = matvec(x)
        residual = float(np.linalg.norm(y - theta * x) / theta)
    else:
        residual = 0.0
    # the Rayleigh value converges at residual^2 rate; certification means the
    # iteration settled, with the residual reported for the witness vector
    certified = stalled
    psi = np.zeros(topo.shape)
    psi[supp] = x / sqrtm
    return ConstantReport(
        "CarlesonEmbedding",
        theta,
        {"type": "test_function", "values": psi, "topo": topo},
        certified,
        {"iterations": iters, "residual": residual, "tol": tol,
         "value_upper_bound": theta * (1 + residual)},
    )


# ---------------------------------------------------------------------------
# hooked-weight test battery
# ---------------------------------------------------------------------------

def sawyer_conditions(mu: MassFunction, w: WeightFunction) -> tuple[float, float, float]:
    """Three single-box tests for a weight hooked at one boundary node.

    Returns (A1, A2, A3) where each Ai is the smallest constant making the
    corresponding inequality hold over all ancestors of the anchor.
    """
    if w.kind != "hooked" or w.anchor is None:
        raise ValueError("sawyer_conditions needs a hooked weight with an anchor")
    topo = mu.topo
    grid = topo.ancestor_grid(w.anchor)

    istar_all = hardy_adjoint(topo, mu.values)
    iw = hardy_forward(topo, w.values)[grid]
    istar = istar_all[grid]
    mu_grid = mu.values[grid]
    e_grid = (w.values * istar_all**2)[grid]

    a1_sq = float(np.max(istar * iw))

    q = mu_grid * iw * iw
    prefix = np.cumsum(np.cumsum(q, axis=0), axis=1)  # sum over ancestors-or-equal
    pos = iw > 0
    a2_sq = float(np.max(np.where(pos, prefix, 0.0) / np.where(pos, iw, 1.0))) if pos.any() else 0.0

    suffix = suffix_rect_sums(e_grid)
    pos = istar > 0
    a3_sq = float(np.max(np.where(pos, suffix, 0.0) / np.where(pos, istar, 1.0))) if pos.any() else 0.0

    return math.sqrt(a1_sq), math.sqrt(a2_sq), math.sqrt(a3_sq)


# ---------------------------------------------------------------------------
# the comparison chain
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    box: ConstantReport
    carleson: ConstantReport
    hereditary: ConstantReport
    embedding: ConstantReport
    ratios: dict
    ok: bool
    violations: list

    def to_json(self) -> dict:
        return {
            "box": self.box.to_json(),
            "carleson": self.carleson.to_json(),
            "hereditary": self.hereditary.to_json(),
            "embedding": self.embedding.to_json(),
            "ratios": {k: (None if v is None else float(v)) for k, v in self.ratios.items()},
            "ok": self.ok,
            "violations": self.violations,
        }


CHAIN_SLACK = 1e-9  # relative slack of each link a <= b of the chain


def _chain_leq(a: float, b: float) -> bool:
    return a <= b + CHAIN_SLACK * max(abs(a), abs(b), 1e-30)


def verify_chain(mu: MassFunction, w: WeightFunction) -> ChainReport:
    return chain_of(box_constant(mu, w), carleson_constant(mu, w),
                    hereditary_constant(mu, w), embedding_constant(mu, w))


def chain_of(box: ConstantReport, car: ConstantReport, her: ConstantReport,
             emb: ConstantReport) -> ChainReport:
    """The chain check on four reports computed at ``verify_chain``'s defaults."""
    vals = [float(box.value), float(car.value), float(her.value), float(emb.value)]
    names = ["Box", "Carleson", "HereditaryCarleson", "CarlesonEmbedding"]
    violations = []
    for i in range(3):
        if not _chain_leq(vals[i], vals[i + 1]):
            violations.append(f"{names[i]}={vals[i]} > {names[i+1]}={vals[i+1]}")

    def ratio(a, b):
        if b == 0:
            return None
        return a / b

    ratios = {
        "c_over_box": ratio(vals[1], vals[0]),
        "hc_over_c": ratio(vals[2], vals[1]),
        "ce_over_hc": ratio(vals[3], vals[2]),
        "ce_over_box": ratio(vals[3], vals[0]),
    }
    return ChainReport(box, car, her, emb, ratios, not violations, violations)
