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
from .operators import MassFunction, WeightFunction, energy_density, hardy_adjoint, hardy_forward
from .trees import BiTreeTopology, bitree_cover_lists, down_closure, enumerate_down_sets, heap_lca

# reference envelopes for the hereditary-to-Carleson ratio under product
# weights; recorded next to empirical maxima, never asserted
HC_OVER_C_REFERENCE_ENVELOPES = (13.0, 32.0)


def _is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def _ratio(num, den):
    if isinstance(num, float) or isinstance(den, float) or isinstance(num, np.floating) or isinstance(den, np.floating):
        return num / den
    return Fraction(num) / Fraction(den)


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
    if _is_exact(mu.values) or _is_exact(w.values):
        best, best_node = None, None
        for a, b in zip(*np.nonzero(np.asarray(istar != 0))):
            node = (int(a), int(b))
            r = _ratio(cume[node], istar[node])
            if best is None or r > best:
                best, best_node = r, node
        if best is None:
            return ConstantReport("Box", 0, None, True, {"note": "zero mass"})
        return ConstantReport("Box", best, {"type": "binode", "node": best_node, "topo": topo}, True, {})
    pos = istar > 0
    if not pos.any():
        return ConstantReport("Box", 0.0, None, True, {"note": "zero mass"})
    ratios = np.where(pos, cume, 0.0) / np.where(pos, istar, 1.0)
    node = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return ConstantReport(
        "Box", float(ratios[node]), {"type": "binode", "node": tuple(node), "topo": topo}, True, {}
    )


# ---------------------------------------------------------------------------
# carleson
# ---------------------------------------------------------------------------

def carleson_constant(
    mu: MassFunction,
    w: WeightFunction,
    method: str = "exact_mincut",
    tol: float = 1e-12,
) -> ConstantReport:
    topo = mu.topo
    if not np.asarray(mu.values != 0).any():
        return ConstantReport("Carleson", 0.0, None, True, {"note": "zero mass"})
    if method == "brute_force":
        return _carleson_brute(mu, w)
    if method != "exact_mincut":
        raise ValueError(f"unknown method {method!r}")

    # closure graph: the up-set of nodes with mass below them, with cover
    # edges to the children inside it; the covers of an up-set generate its
    # order, and the nodes outside carry neither energy nor mass
    e = energy_density(mu, w)
    nodes, successors = bitree_cover_lists(topo, np.asarray(hardy_adjoint(topo, mu.values) > 0))
    numer = [e[n] for n in nodes]
    denom = [mu.values[n] for n in nodes]

    exact = _is_exact(mu.values) or _is_exact(w.values)
    lam, members, iters = dinkelbach_max_ratio(
        numer, denom, successors, tol=0 if exact else tol
    )
    # the witness is generated by the chosen nodes that carry energy or mass
    relevant = np.asarray(e != 0) | np.asarray(mu.values != 0)
    sel = np.zeros(topo.shape, dtype=bool)
    for node, member in zip(nodes, members):
        sel[node] = member
    witness_mask = down_closure(topo, sel & relevant)
    return ConstantReport(
        "Carleson",
        lam,
        {"type": "downset", "mask": witness_mask, "topo": topo},
        True,
        {"iterations": iters, "method": method, "relevant_nodes": int(np.count_nonzero(relevant))},
    )


def _carleson_brute(mu: MassFunction, w: WeightFunction) -> ConstantReport:
    topo = mu.topo
    e = energy_density(mu, w)
    best, best_mask = None, None
    for mask in enumerate_down_sets(topo):
        md = (mu.values * mask).sum()
        if md == 0:
            # massless down-sets carry no energy either: any node below a
            # positive descendant-sum sits above some mass point of the set
            continue
        r = _ratio((e * mask).sum(), md)
        if best is None or r > best:
            best, best_mask = r, mask
    if best is None:
        return ConstantReport("Carleson", 0.0, None, True, {"note": "zero mass"})
    return ConstantReport(
        "Carleson", best, {"type": "downset", "mask": best_mask, "topo": topo}, True,
        {"method": "brute_force"},
    )


# ---------------------------------------------------------------------------
# hereditary
# ---------------------------------------------------------------------------

def lca_kernel(topo: BiTreeTopology, nodes: list[tuple[int, int]], w: WeightFunction) -> np.ndarray:
    """K[i, j] = ancestor-sum of w at the least common ancestor of the nodes."""
    iw = hardy_forward(topo, w.values)
    ix, iy = np.array(nodes, dtype=np.int64).reshape(-1, 2).T
    return iw[heap_lca(ix[:, None], ix), heap_lca(iy[:, None], iy)]


def hereditary_constant(mu: MassFunction, w: WeightFunction) -> ConstantReport:
    """max over subsets S of supp mu of m_S^T K m_S / m(S), K the LCA kernel.

    Solved exactly as a selection problem (Picard 1976) by the closure ratio
    engine: one item per support point i (numerator 0, denominator m_i) and
    one per pair i <= j (numerator (2 - delta_ij) K_ij m_i m_j, denominator 0)
    that forces both points.  All numerators are >= 0, so the best closure
    over a point set S takes every pair inside S and its ratio is exactly the
    restricted energy over the restricted mass.
    """
    topo = mu.topo
    idx = np.nonzero(np.asarray(mu.values != 0))
    supp = [(int(a), int(b)) for a, b in zip(*idx)]
    if not supp:
        return ConstantReport("HereditaryCarleson", 0.0, None, True, {"note": "zero mass"})
    n = len(supp)
    masses = mu.values[idx]
    kernel = lca_kernel(topo, supp, w)
    iu, ju = np.triu_indices(n)
    pair_numer = np.where(iu == ju, 1, 2) * kernel[iu, ju] * masses[iu] * masses[ju]
    numer = [0] * n + pair_numer.tolist()
    denom = masses.tolist() + [0] * len(iu)
    successors = [()] * n + list(zip(iu.tolist(), ju.tolist()))

    exact = _is_exact(mu.values) or _is_exact(w.values)
    value, members, iters = dinkelbach_max_ratio(
        numer, denom, successors, tol=0 if exact else 1e-12
    )
    mask = np.zeros(topo.shape, dtype=bool)
    for i in range(n):
        if members[i]:
            mask[supp[i]] = True
    return ConstantReport(
        "HereditaryCarleson", value,
        {"type": "subset", "mask": mask, "topo": topo}, True,
        {"iterations": iters, "support": n},
    )


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def embedding_constant(
    mu: MassFunction,
    w: WeightFunction,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> ConstantReport:
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
    for iters in range(1, max_iter + 1):
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


def embedding_quadratic_form(mu: MassFunction, w: WeightFunction, psi: np.ndarray):
    """Rayleigh-type ratio tested by a given function psi on supp mu."""
    topo = mu.topo
    num = (w.values * hardy_adjoint(topo, psi * mu.values) ** 2).sum()
    den = (psi * psi * mu.values).sum()
    return num, den


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
    anchor = w.anchor
    xs = list(topo.tree_x.ancestors(anchor[0]))[::-1]
    ys = list(topo.tree_y.ancestors(anchor[1]))[::-1]
    grid = np.ix_(xs, ys)

    iw = hardy_forward(topo, w.values)[grid]
    istar = hardy_adjoint(topo, mu.values)[grid]
    mu_grid = mu.values[grid]
    e_grid = (w.values * hardy_adjoint(topo, mu.values) ** 2)[grid]

    a1_sq = float(np.max(istar * iw))

    q = mu_grid * iw * iw
    prefix = np.cumsum(np.cumsum(q, axis=0), axis=1)  # sum over ancestors-or-equal
    pos = iw > 0
    a2_sq = float(np.max(np.where(pos, prefix, 0.0) / np.where(pos, iw, 1.0))) if pos.any() else 0.0

    suffix = np.cumsum(np.cumsum(e_grid[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
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


def _chain_leq(a: float, b: float, slack: float) -> bool:
    return a <= b + slack * max(abs(a), abs(b), 1e-30)


def verify_chain(mu: MassFunction, w: WeightFunction, slack: float = 1e-9) -> ChainReport:
    box = box_constant(mu, w)
    car = carleson_constant(mu, w)
    her = hereditary_constant(mu, w)
    emb = embedding_constant(mu, w)

    vals = [float(box.value), float(car.value), float(her.value), float(emb.value)]
    names = ["Box", "Carleson", "HereditaryCarleson", "CarlesonEmbedding"]
    violations = []
    for i in range(3):
        if not _chain_leq(vals[i], vals[i + 1], slack):
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
