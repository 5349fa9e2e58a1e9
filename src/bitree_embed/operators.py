"""Summation operators on the bi-tree: ancestor/descendant sums, potentials,
truncations, and the energy functionals built from them.

All operators accept float64 arrays and, for exact certification at oracle
scale, object-dtype arrays holding ints or ``fractions.Fraction``.

The per-axis sweeps work in place, one tree level at a time, on strided
slices of the grid (a transposed view for the second axis), and allocate no
per-level copies beyond the children pair sums of the descendant sweep.
``tree_*_sum`` copy their input once; ``hardy_forward``/``hardy_adjoint`` do
too unless given ``out=``, a grid (possibly the input itself) that receives
the result in place, so a caller that repeats them, such as the power
iteration of ``embedding_constant``, reuses one buffer.  Each element sees
the same additions in the same order either way, so results are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .trees import BiTreeTopology, TreeTopology, UpSet, is_up_mask


# ---------------------------------------------------------------------------
# per-axis sweeps
# ---------------------------------------------------------------------------

def _ancestor_sweep(v: np.ndarray, depth: int) -> None:
    """In place along axis 0 of v: add each parent row into its two children,
    top level first, so every node ends up with its ancestors-or-equal sum."""
    for j in range(1, depth + 1):
        lo = 1 << j
        parents = v[lo >> 1 : lo]
        v[lo : 2 * lo : 2] += parents
        v[lo + 1 : 2 * lo : 2] += parents


def _descendant_sweep(v: np.ndarray, depth: int) -> None:
    """In place along axis 0 of v: add each pair of children into their
    parent, bottom level first, so every node ends up with its
    descendants-or-equal sum."""
    for j in range(depth - 1, -1, -1):
        lo = 1 << j
        v[lo : 2 * lo] += v[2 * lo : 4 * lo : 2] + v[2 * lo + 1 : 4 * lo : 2]


def _start(values: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return values.copy()
    if out is not values:
        np.copyto(out, values)
    return out


def tree_ancestor_sum(values: np.ndarray, tree: TreeTopology, axis: int = 0) -> np.ndarray:
    """out[i] = sum of values over ancestors-or-equal of i, along one axis."""
    out = values.copy()
    _ancestor_sweep(out if axis == 0 else out.T, tree.depth)
    return out


def tree_descendant_sum(values: np.ndarray, tree: TreeTopology, axis: int = 0) -> np.ndarray:
    """out[i] = sum of values over descendants-or-equal of i, along one axis."""
    out = values.copy()
    _descendant_sweep(out if axis == 0 else out.T, tree.depth)
    return out


def hardy_forward(topo: BiTreeTopology, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Ancestor-sum operator: out(g) = sum over g' >= g of values(g').

    ``out`` (a grid of the same shape; may be ``values`` itself) receives the
    result in place; by default a new grid does and ``values`` is untouched.
    """
    out = _start(values, out)
    _ancestor_sweep(out, topo.tree_x.depth)
    _ancestor_sweep(out.T, topo.tree_y.depth)
    return out


def hardy_adjoint(topo: BiTreeTopology, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Descendant-sum operator: out(g) = sum over g' <= g of values(g').

    ``out`` works as in ``hardy_forward``.
    """
    out = _start(values, out)
    _descendant_sweep(out, topo.tree_x.depth)
    _descendant_sweep(out.T, topo.tree_y.depth)
    return out


# ---------------------------------------------------------------------------
# masses and weights
# ---------------------------------------------------------------------------

def _check_grid(topo: BiTreeTopology, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != topo.shape:
        raise ValueError(f"values shape {values.shape} != topology shape {topo.shape}")
    return values


@dataclass
class MassFunction:
    """Nonnegative mass per bi-node; slot-0 row/column must stay zero."""

    topo: BiTreeTopology
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_grid(self.topo, self.values)

    @classmethod
    def zeros(cls, topo: BiTreeTopology, dtype=np.float64) -> "MassFunction":
        return cls(topo, topo.zeros(dtype))

    @classmethod
    def from_atoms(cls, topo: BiTreeTopology, atoms, dtype=np.float64) -> "MassFunction":
        v = topo.zeros(dtype)
        for node, mass in atoms:
            v[node] += mass
        return cls(topo, v)

    @classmethod
    def uniform_boundary(cls, topo: BiTreeTopology, cell_mass=1.0) -> "MassFunction":
        dtype = np.float64 if isinstance(cell_mass, float) else object
        v = topo.zeros(dtype)
        lx, ly = topo.tree_x.leaf_start, topo.tree_y.leaf_start
        v[lx:, ly:] = cell_mass
        return cls(topo, v)

    @property
    def total_mass(self):
        return self.values.sum()

    def support_mask(self) -> np.ndarray:
        return self.values != 0

    def is_boundary_supported(self) -> bool:
        lx, ly = self.topo.tree_x.leaf_start, self.topo.tree_y.leaf_start
        v = self.values.copy()
        v[lx:, ly:] = 0
        return not np.any(v != 0)

    def restrict(self, mask: np.ndarray) -> "MassFunction":
        return MassFunction(self.topo, self.values * mask)

    def scaled(self, c) -> "MassFunction":
        return MassFunction(self.topo, self.values * c)

    def validate(self) -> None:
        if np.any(self.values[0, :] != 0) or np.any(self.values[:, 0] != 0):
            raise ValueError("slot-0 row/column must be zero")
        if np.any(np.asarray(self.values[1:, 1:] < 0)):
            raise ValueError("masses must be nonnegative")


@dataclass
class WeightFunction:
    """Nonnegative weight per bi-node with a structure tag.

    kind is one of ``general``, ``product``, ``sum_of_products``, ``hooked``.
    """

    topo: BiTreeTopology
    values: np.ndarray
    kind: str = "general"
    factors: Any = None  # product: (wx, wy); sum_of_products: list of (wx, wy)
    anchor: tuple[int, int] | None = None  # hooked: the boundary node

    def __post_init__(self):
        self.values = _check_grid(self.topo, self.values)

    @classmethod
    def general(cls, topo: BiTreeTopology, values: np.ndarray) -> "WeightFunction":
        return cls(topo, values, kind="general")

    @classmethod
    def constant(cls, topo: BiTreeTopology, c: float = 1.0) -> "WeightFunction":
        wx = np.zeros(topo.tree_x.size)
        wx[1:] = 1.0
        wy = np.zeros(topo.tree_y.size)
        wy[1:] = c
        return cls.product(topo, wx, wy)

    @classmethod
    def product(cls, topo: BiTreeTopology, wx: np.ndarray, wy: np.ndarray) -> "WeightFunction":
        wx = np.asarray(wx)
        wy = np.asarray(wy)
        v = np.outer(wx, wy)
        v[0, :] = 0
        v[:, 0] = 0
        return cls(topo, v, kind="product", factors=(wx, wy))

    @classmethod
    def sum_of_products(cls, topo: BiTreeTopology, terms) -> "WeightFunction":
        v = topo.zeros()
        for wx, wy in terms:
            v += np.outer(np.asarray(wx), np.asarray(wy))
        v[0, :] = 0
        v[:, 0] = 0
        return cls(topo, v, kind="sum_of_products", factors=list(terms))

    @classmethod
    def hooked(cls, topo: BiTreeTopology, anchor: tuple[int, int], values: np.ndarray) -> "WeightFunction":
        return cls(topo, values, kind="hooked", anchor=anchor)

    def validate_structure(self, rtol: float = 1e-12) -> None:
        """Check that the values actually carry the tagged structure."""
        if self.kind == "product":
            wx, wy = self.factors
            ref = np.outer(wx, wy)
            ref[0, :] = 0
            ref[:, 0] = 0
            err = np.max(np.abs(self.values - ref))
            scale = max(float(np.max(np.abs(ref))), 1.0)
            if err > rtol * scale:
                raise ValueError("product tag does not match values")
        elif self.kind == "sum_of_products":
            ref = np.zeros(self.topo.shape)
            for wx, wy in self.factors:
                ref += np.outer(np.asarray(wx), np.asarray(wy))
            ref[0, :] = 0
            ref[:, 0] = 0
            err = np.max(np.abs(self.values - ref))
            scale = max(float(np.max(np.abs(ref))), 1.0)
            if err > rtol * scale:
                raise ValueError("sum-of-products tag does not match values")
        elif self.kind == "hooked":
            if self.anchor is None:
                raise ValueError("hooked weight needs an anchor node")
            from .trees import up_closure

            allowed = np.zeros(self.topo.shape, dtype=bool)
            allowed[self.anchor] = True
            allowed = up_closure(self.topo, allowed)
            if np.any((self.values != 0) & ~allowed):
                raise ValueError("hooked weight has support off the anchor's ancestors")

    def scaled(self, c) -> "WeightFunction":
        if self.kind == "product":
            wx, wy = self.factors
            return WeightFunction.product(self.topo, np.asarray(wx) * c, wy)
        return WeightFunction(self.topo, self.values * c, kind=self.kind, anchor=self.anchor)


@dataclass
class PotentialField:
    """Values of a potential together with the data that produced it."""

    topo: BiTreeTopology
    values: np.ndarray
    delta: Any = None
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# potentials and energies
# ---------------------------------------------------------------------------

def potential(mu: MassFunction, w: WeightFunction) -> PotentialField:
    """The weighted potential: ancestor-sum of w times descendant-sum of mu."""
    topo = mu.topo
    vals = hardy_forward(topo, w.values * hardy_adjoint(topo, mu.values))
    return PotentialField(topo, vals, provenance={"kind": "potential"})


def truncated_potential(mu: MassFunction, w: WeightFunction, delta) -> tuple[UpSet, PotentialField]:
    """Sub-level set of the potential at delta, and the potential restricted to it."""
    topo = mu.topo
    full = potential(mu, w).values
    mask = np.asarray(full <= delta).astype(bool)
    mask[0, :] = False
    mask[:, 0] = False
    if not is_up_mask(topo, mask):
        raise AssertionError("potential sub-level set failed the up-set check")
    vals = hardy_forward(topo, w.values * mask * hardy_adjoint(topo, mu.values))
    return UpSet(mask), PotentialField(topo, vals, delta=delta, provenance={"kind": "truncated"})


def energy_density(mu: MassFunction, w: WeightFunction) -> np.ndarray:
    """Per-node energy contribution w * (descendant-sum of mu)^2."""
    istar = hardy_adjoint(mu.topo, mu.values)
    return w.values * istar * istar


def energy(mu: MassFunction, w: WeightFunction):
    """Total energy; equals the integral of the potential against mu."""
    return energy_density(mu, w).sum()


def energy_box(mu: MassFunction, w: WeightFunction, beta: tuple[int, int]):
    """Energy restricted to nodes below a single bi-node."""
    return hardy_adjoint(mu.topo, energy_density(mu, w))[beta]


def energy_downset(mu: MassFunction, w: WeightFunction, down_set):
    """Energy over a down-set given as a DownSet or a membership mask."""
    mask = down_set.mask if hasattr(down_set, "mask") else down_set
    return (energy_density(mu, w) * mask).sum()


def energy_delta(mu: MassFunction, w: WeightFunction, delta):
    """Energy over the sub-level set of the potential at delta."""
    upset, _ = truncated_potential(mu, w, delta)
    return (energy_density(mu, w) * upset.mask).sum()


def v_good(mu: MassFunction, w: WeightFunction, eps) -> np.ndarray:
    """Per node, the part of the potential carried by ancestors whose
    node-to-ancestor box sum of w * (descendant-sum of mu) exceeds eps."""
    topo = mu.topo
    h = w.values * hardy_adjoint(topo, mu.values)
    out = topo.zeros(dtype=h.dtype)
    for node in topo.nodes():
        out[node] = _v_good_at(topo, h, eps, node)
    return out


def _v_good_at(topo: BiTreeTopology, h: np.ndarray, eps, node: tuple[int, int]):
    xs = list(topo.tree_x.ancestors(node[0]))[::-1]
    ys = list(topo.tree_y.ancestors(node[1]))[::-1]
    grid = h[np.ix_(xs, ys)]
    # suffix rectangle sums: S[a,b] = sum over deeper-or-equal grid cells
    s = np.cumsum(np.cumsum(grid[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    keep = np.asarray(s > eps)
    return (grid * keep).sum()
