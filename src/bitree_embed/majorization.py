"""Constructive small-energy majorants and the balancing argument.

The tree majorant takes superadditive data ``g`` with small weighted
potential on ``supp f`` and produces ``phi`` whose weighted potential
dominates that of ``f`` on a band of potential levels, at a small energy
cost (factor ``2 * delta / lambda``).  The bi-tree version assembles the
tree construction slice by slice for product weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .operators import (
    MassFunction,
    WeightFunction,
    energy,
    hardy_forward,
    potential,
    tree_ancestor_sum,
    tree_descendant_sum,
)
from .trees import BiTreeTopology, DownSet, TreeTopology


class PreconditionError(ValueError):
    """An input violates a documented precondition."""


# ---------------------------------------------------------------------------
# superadditivity
# ---------------------------------------------------------------------------

def children_sums(values: np.ndarray, tree: TreeTopology, axis: int = 0) -> np.ndarray:
    """Per node, the sum of its two children along one axis (zero at leaves)."""
    out = np.zeros_like(values)
    leaf = tree.leaf_start
    if leaf > 1:
        o, v = (out, values) if axis == 0 else (out.T, values.T)
        o[1:leaf] = v[2 : 2 * leaf : 2] + v[3 : 2 * leaf : 2]
    return out


def bitree_children_sums(values: np.ndarray, topo: BiTreeTopology) -> np.ndarray:
    """Sum over the product-order covers below each node (up to 4)."""
    return children_sums(values, topo.tree_x, 0) + children_sums(values, topo.tree_y, 1)


def _first_violation(values, sums, rtol, atol):
    bad = np.asarray(values + rtol * (np.abs(values) + np.abs(sums)) + atol < sums)
    idx = np.argwhere(bad)
    return None if idx.size == 0 else tuple(int(v) for v in idx[0])


def is_superadditive(values: np.ndarray, topo, rtol: float = 1e-9, atol: float = 0.0):
    """(ok, first violating node).  For a bi-tree the covers from below are
    the per-axis children, up to four of them."""
    if isinstance(topo, TreeTopology):
        sums = children_sums(values, topo)
    else:
        sums = bitree_children_sums(values, topo)
    node = _first_violation(values, sums, rtol, atol)
    return node is None, node


def is_slice_superadditive(values: np.ndarray, topo: BiTreeTopology, axis: int = 0,
                           rtol: float = 1e-9, atol: float = 0.0):
    sums = children_sums(values, topo.tree_x if axis == 0 else topo.tree_y, axis)
    node = _first_violation(values, sums, rtol, atol)
    return node is None, node


# ---------------------------------------------------------------------------
# two auxiliary inequalities
# ---------------------------------------------------------------------------

def check_l1linf(g: np.ndarray, h: np.ndarray, beta: int, tree: TreeTopology):
    """For superadditive g: sum_{a<=beta} g h  <=  g(beta) * max path sum of h.

    Returns (lhs, rhs); raises PreconditionError when g is not superadditive.
    """
    ok, node = is_superadditive(g, tree)
    if not ok:
        raise PreconditionError(f"g is not superadditive at node {node}")
    lhs = tree_descendant_sum(g * h, tree)[beta]
    ih = tree_ancestor_sum(h, tree)
    gb = tree.generation(beta)
    best = None
    for i in range(1, tree.size):
        d = tree.generation(i) - gb
        if d >= 0 and (i >> d) == beta:
            path = ih[i] - ih[beta] + h[beta]
            best = path if best is None else max(best, path)
    rhs = g[beta] * (best if best is not None else 0.0)
    return lhs, rhs


def check_positive_kernel(kernel: np.ndarray, f: np.ndarray, g: np.ndarray):
    """sum (Kf)^2 g  <=  (max over supp g of K K^T g) * sum f^2, all inputs >= 0."""
    kernel = np.asarray(kernel)
    if np.any(kernel < 0) or np.any(f < 0) or np.any(g < 0):
        raise PreconditionError("kernel and test functions must be nonnegative")
    kf = kernel @ f
    lhs = float((kf * kf * g).sum())
    kk = kernel @ (kernel.T @ g)
    supp = g > 0
    bound = float(np.max(kk[supp])) if supp.any() else 0.0
    rhs = bound * float((f * f).sum())
    return lhs, rhs


# ---------------------------------------------------------------------------
# majorants
# ---------------------------------------------------------------------------

@dataclass
class MajorantResult:
    phi: np.ndarray
    band_mask: np.ndarray
    energy_in: float
    energy_ref: float
    lower_bound_const: float | None
    lam: float
    delta: float
    extras: dict = field(default_factory=dict)


def majorant_tree(
    g: np.ndarray,
    f: np.ndarray,
    w: np.ndarray,
    lam: float,
    delta: float,
    tree: TreeTopology,
    validate: bool = True,
) -> MajorantResult:
    """Level-band majorant on a single tree.

    phi = (1/lam) * [delta < I(wg) <= 2 lam] * I(wf) * g.  On the band
    {lam/2 < I(wg) <= 2 lam} the weighted potential of phi dominates
    (1/2 - delta/lam) times that of f, and its energy is at most
    2 (delta/lam) times the energy of f.
    """
    if lam < 4 * delta or delta <= 0:
        raise PreconditionError(f"need lam >= 4*delta > 0, got lam={lam}, delta={delta}")
    iwg = tree_ancestor_sum(w * g, tree)
    if validate:
        ok, node = is_superadditive(g, tree)
        if not ok:
            raise PreconditionError(f"g is not superadditive at node {node}")
        slack = 1e-9 * (np.abs(iwg).max() + delta)
        bad = np.nonzero((f != 0) & (iwg > delta + slack))[0]
        if bad.size:
            raise PreconditionError(f"I(wg) > delta on supp f at node {int(bad[0])}")
    iwf = tree_ancestor_sum(w * f, tree)
    window = (iwg > delta) & (iwg <= 2 * lam)
    phi = np.where(window, iwf * g, 0.0) / lam
    band = (iwg > lam / 2) & (iwg <= 2 * lam)
    band[0] = False
    iwphi = tree_ancestor_sum(w * phi, tree)
    lb = None
    on_band = band & (iwf > 0)
    if on_band.any():
        lb = float(np.min(iwphi[on_band] / iwf[on_band]))
    return MajorantResult(
        phi=phi,
        band_mask=band,
        energy_in=float((w * phi * phi).sum()),
        energy_ref=float((w * f * f).sum()),
        lower_bound_const=lb,
        lam=lam,
        delta=delta,
        extras={"iwg": iwg, "iwf": iwf, "iwphi": iwphi},
    )


def majorant_bitree(
    m: np.ndarray,
    w: WeightFunction,
    lam: float,
    delta: float,
    topo: BiTreeTopology,
) -> MajorantResult:
    """Slicewise majorant on the bi-tree for a product weight.

    The construction needs m to be superadditive within each x-slice (the
    stronger four-children superadditivity implies it but is not required:
    the natural inputs, descendant sums restricted to up-sets, satisfy only
    the slice version).
    """
    if w.kind != "product":
        raise PreconditionError("majorant_bitree needs a product-tagged weight")
    if lam < 4 * delta or delta <= 0:
        raise PreconditionError(f"need lam >= 4*delta > 0, got lam={lam}, delta={delta}")
    wx = np.asarray(w.factors[0], dtype=np.float64).copy()
    wy = np.asarray(w.factors[1], dtype=np.float64).copy()
    wx[0] = 0.0
    wy[0] = 0.0
    iwm = hardy_forward(topo, w.values * m)
    ok, node = is_slice_superadditive(m, topo, axis=0)
    if not ok:
        raise PreconditionError(f"m is not x-slice superadditive at node {node}")
    slack = 1e-9 * (np.abs(iwm).max() + delta)
    bad = np.argwhere((m != 0) & (iwm > delta + slack))
    if bad.size:
        raise PreconditionError(
            f"potential of w*m exceeds delta on supp m at node {tuple(int(v) for v in bad[0])}"
        )
    # g for the slice at alpha_y aggregates m over y-ancestors against wy
    gmat = tree_ancestor_sum(m * wy[None, :], topo.tree_y, axis=1)
    phi = np.zeros_like(m)
    for iy in range(1, topo.tree_y.size):
        res = majorant_tree(
            gmat[:, iy], m[:, iy], wx, lam, delta, topo.tree_x, validate=False
        )
        ok, node = is_superadditive(gmat[:, iy], topo.tree_x)
        if not ok:
            raise PreconditionError(f"slice at y={iy} lost superadditivity at x-node {node}")
        phi[:, iy] = res.phi
    band = (iwm > lam) & (iwm <= 2 * lam)
    band[0, :] = False
    band[:, 0] = False
    iwphi = hardy_forward(topo, w.values * phi)
    lb = None
    if band.any():
        lb = float(np.min(iwphi[band] / iwm[band]))
    return MajorantResult(
        phi=phi,
        band_mask=band,
        energy_in=float((w.values * phi * phi).sum()),
        energy_ref=float((w.values * m * m).sum()),
        lower_bound_const=lb,
        lam=lam,
        delta=delta,
        extras={"iwm": iwm, "iwphi": iwphi},
    )


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

def balance(nu: MassFunction, w: WeightFunction, a: float):
    """Trim nu to a down-set where its own potential is at least a/3 while
    keeping a third of the energy.  Requires energy(nu) >= a * |nu| > 0.
    """
    topo = nu.topo
    total = float(nu.total_mass)
    if a <= 0 or total <= 0:
        raise PreconditionError("need a > 0 and a nonzero mass")
    e0 = float(energy(nu, w))
    if e0 < a * total * (1 - 1e-12):
        raise PreconditionError(f"energy {e0} below a*|nu| = {a * total}")
    scaled = nu.scaled(3.0 / a)
    mask = topo.valid_mask()
    iterations = 0
    while True:
        iterations += 1
        cur = MassFunction(topo, scaled.values * mask)
        v = potential(cur, w).values
        new_mask = mask & (v > 1.0)
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    trimmed = MassFunction(topo, nu.values * mask)
    return DownSet(mask), trimmed, {"iterations": iterations}


# ---------------------------------------------------------------------------
# truncated-potential ratio probe
# ---------------------------------------------------------------------------

@dataclass
class TruncatedRatioReport:
    lhs: float
    lhs_cubed: float
    rhs_bundle: float
    ratio: float | None
    delta: float
    components: dict


def cEcE_ratio(mu: MassFunction, rho: MassFunction, w: WeightFunction, delta) -> TruncatedRatioReport:
    """Both sides of the cubed truncated-potential estimate, for envelope
    tracking: (integral of the truncated potential of mu against rho)^3
    against delta * E_delta[mu] * E[rho] * |rho|."""
    if w.kind != "product":
        raise PreconditionError("the probe is stated for product weights")
    from .operators import energy_delta, truncated_potential

    _, vd = truncated_potential(mu, w, delta)
    lhs = float((vd.values * rho.values).sum())
    ed = float(energy_delta(mu, w, delta))
    erho = float(energy(rho, w))
    rr = float(rho.total_mass)
    rhs = float(delta) * ed * erho * rr
    ratio = None
    if rhs > 0:
        ratio = lhs**3 / rhs
    elif lhs == 0:
        ratio = 0.0
    return TruncatedRatioReport(
        lhs=lhs,
        lhs_cubed=lhs**3,
        rhs_bundle=rhs,
        ratio=ratio,
        delta=float(delta),
        components={"energy_delta_mu": ed, "energy_rho": erho, "rho_mass": rr},
    )
