"""Summation operators on the bi-tree: ancestor/descendant sums, potentials,
truncations, and the energy functionals built from them.

All operators accept float64 arrays and, for exact certification at oracle
scale, object-dtype arrays holding ints or ``fractions.Fraction``.  The
number kind is decided here and nowhere else: ``quotient`` divides in the
arithmetic of its operands (exact for ints and Fractions, so an int-valued
grid never falls into int/int true division), and ``is_exact`` tells a
caller whether to ask for a zero tolerance; its one caller is
``maximal.sparse_selection``'s feasibility slack, the ratio engine needing
none.

The sums run on the in-place per-axis sweep kernel of ``trees``
(``ancestor_sweep``/``descendant_sweep`` with ``np.add``).  ``tree_*_sum``
copy their input once; ``hardy_forward``/``hardy_adjoint`` do too unless
given ``out=``, a grid (possibly the input itself) that receives the result
in place, so a caller that repeats them, such as the power iteration of
``embedding_constant``, reuses one buffer.  Each element sees the same
additions in the same order either way, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any

import numpy as np

from .trees import (
    BiTreeTopology,
    TreeTopology,
    UpSet,
    ancestor_sweep,
    bitree_sweep,
    descendant_sweep,
    is_up_mask,
    up_closure,
)


# ---------------------------------------------------------------------------
# ancestor and descendant sums
# ---------------------------------------------------------------------------

def _start(values: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return values.copy()
    if out is not values:
        np.copyto(out, values)
    return out


def tree_ancestor_sum(values: np.ndarray, tree: TreeTopology, axis: int = 0) -> np.ndarray:
    """out[i] = sum of values over ancestors-or-equal of i, along one axis."""
    out = values.copy()
    ancestor_sweep(out if axis == 0 else out.T, tree.depth)
    return out


def tree_descendant_sum(values: np.ndarray, tree: TreeTopology, axis: int = 0) -> np.ndarray:
    """out[i] = sum of values over descendants-or-equal of i, along one axis."""
    out = values.copy()
    descendant_sweep(out if axis == 0 else out.T, tree.depth)
    return out


def hardy_forward(topo: BiTreeTopology, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Ancestor-sum operator: out(g) = sum over g' >= g of values(g').

    ``out`` (a grid of the same shape; may be ``values`` itself) receives the
    result in place; by default a new grid does and ``values`` is untouched.
    """
    return bitree_sweep(topo, _start(values, out), ancestor_sweep)


def hardy_adjoint(topo: BiTreeTopology, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Descendant-sum operator: out(g) = sum over g' <= g of values(g').

    ``out`` works as in ``hardy_forward``.
    """
    return bitree_sweep(topo, _start(values, out), descendant_sweep)


# ---------------------------------------------------------------------------
# the number kind
# ---------------------------------------------------------------------------

def is_exact(*grids) -> bool:
    """True when any grid holds exact numbers (object dtype: ints or Fractions)."""
    return any(np.asarray(g).dtype == object for g in grids)


def quotient(num, den):
    """num / den in the arithmetic of the operands.

    Scalars: ``num / Fraction(den)``, an exact ``Fraction`` for int and
    Fraction operands and the same float as ``num / den`` for a float
    numerator; a NaN or infinite denominator raises.  Grids: the elementwise
    quotient where den > 0 and 0 elsewhere; an object-dtype denominator is
    lifted to ``Fraction`` at those entries only.
    """
    if np.ndim(num) == 0 and np.ndim(den) == 0:
        return num / Fraction(den)
    num, den = np.asarray(num), np.asarray(den)
    pos = np.asarray(den > 0)
    d = den[pos]
    if d.dtype == object:
        d = np.array([Fraction(x) for x in d], dtype=object)
    q = num[pos] / d
    out = np.zeros(den.shape, dtype=q.dtype)
    out[pos] = q
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
    def uniform_boundary(cls, topo: BiTreeTopology, cell_mass=1.0) -> "MassFunction":
        # an int or Fraction cell mass gives an exact grid
        v = topo.zeros(object if isinstance(cell_mass, Rational) else np.float64)
        lx, ly = topo.tree_x.leaf_start, topo.tree_y.leaf_start
        v[lx:, ly:] = cell_mass
        return cls(topo, v)

    @property
    def total_mass(self):
        return self.values.sum()

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
        v = _outer_sum(topo, [(wx, wy)], np.result_type(wx, wy))
        return cls(topo, v, kind="product", factors=(wx, wy))

    @classmethod
    def sum_of_products(cls, topo: BiTreeTopology, terms) -> "WeightFunction":
        return cls(topo, _outer_sum(topo, terms), kind="sum_of_products", factors=list(terms))

    @classmethod
    def hooked(cls, topo: BiTreeTopology, anchor: tuple[int, int], values: np.ndarray) -> "WeightFunction":
        return cls(topo, values, kind="hooked", anchor=anchor)

    def validate_structure(self, rtol: float = 1e-12) -> None:
        """Check that the values actually carry the tagged structure."""
        if self.kind in ("product", "sum_of_products"):
            terms = [self.factors] if self.kind == "product" else self.factors
            ref = _outer_sum(self.topo, terms, self.values.dtype)
            err = np.max(np.abs(self.values - ref))
            scale = max(float(np.max(np.abs(ref))), 1.0)
            if err > rtol * scale:
                raise ValueError(f"{self.kind.replace('_', '-')} tag does not match values")
        elif self.kind == "hooked":
            if self.anchor is None:
                raise ValueError("hooked weight needs an anchor node")
            allowed = np.zeros(self.topo.shape, dtype=bool)
            allowed[self.anchor] = True
            allowed = up_closure(self.topo, allowed)
            if np.any((self.values != 0) & ~allowed):
                raise ValueError("hooked weight has support off the anchor's ancestors")

    def scaled(self, c) -> "WeightFunction":
        """The weight times c; a structured weight scales the x-factor of
        each term and keeps its tag."""
        if self.kind == "product":
            wx, wy = self.factors
            return WeightFunction.product(self.topo, np.asarray(wx) * c, wy)
        if self.kind == "sum_of_products":
            terms = [(np.asarray(wx) * c, wy) for wx, wy in self.factors]
            return WeightFunction.sum_of_products(self.topo, terms)
        return WeightFunction(self.topo, self.values * c, kind=self.kind, anchor=self.anchor)


def _outer_sum(topo: BiTreeTopology, terms, dtype=np.float64) -> np.ndarray:
    """Sum of the outer products wx * wy over the terms, added to a zero grid
    of the given dtype, with the unused slot-0 row and column zeroed."""
    v = topo.zeros(dtype)
    for wx, wy in terms:
        v = v + _check_grid(topo, np.outer(np.asarray(wx), np.asarray(wy)))
    v[0, :] = 0
    v[:, 0] = 0
    return v


@dataclass
class PotentialField:
    """Values of a potential, with the level ``delta`` it was truncated at."""

    topo: BiTreeTopology
    values: np.ndarray
    delta: Any = None


# ---------------------------------------------------------------------------
# potentials and energies
# ---------------------------------------------------------------------------

def potential(mu: MassFunction, w: WeightFunction) -> PotentialField:
    """The weighted potential: ancestor-sum of w times descendant-sum of mu."""
    topo = mu.topo
    vals = hardy_forward(topo, w.values * hardy_adjoint(topo, mu.values))
    return PotentialField(topo, vals)


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
    return UpSet(mask), PotentialField(topo, vals, delta=delta)


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
        grid = h[topo.ancestor_grid(node)]
        out[node] = (grid * np.asarray(suffix_rect_sums(grid) > eps)).sum()
    return out


def suffix_rect_sums(grid: np.ndarray) -> np.ndarray:
    """On an ancestor grid (root first on both axes): S[a, b] = sum over the
    cells at or below (a, b) on both axes."""
    return np.cumsum(np.cumsum(grid[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
