"""Finite dyadic trees, their products, and order navigation.

Conventions used throughout the package:

* A depth-``N`` dyadic tree has one node per dyadic subinterval of ``[0,1]``
  of generation ``j in [0, N]``.  Nodes are heap-indexed: the interval of
  generation ``j`` and offset ``k`` gets index ``2**j + k``, so the root is
  ``1`` and slot ``0`` is unused.
* The partial order is by interval containment with the root as the unique
  maximal element: ``a <= b`` means the interval of ``a`` is contained in the
  interval of ``b`` (``b`` is an ancestor of ``a``).
* A bi-tree node is a pair ``(ix, iy)`` of per-axis heap indices ordered by
  the product order.  Dense node data lives in arrays of shape
  ``(2**(Nx+1), 2**(Ny+1))`` whose row 0 and column 0 are unused and kept at
  zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

DEFAULT_DENSE_CAP = 1 << 24  # max entries of a dense bi-tree array (~134 MB float64)


class SizeError(ValueError):
    """Requested instance exceeds the documented dense-mode cap."""


@dataclass(frozen=True)
class TreeTopology:
    """A finite dyadic tree of the given depth, heap indexed."""

    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    @property
    def size(self) -> int:
        """Length of dense per-node arrays (slot 0 unused)."""
        return 1 << (self.depth + 1)

    @property
    def node_count(self) -> int:
        return self.size - 1

    @property
    def root(self) -> int:
        return 1

    @property
    def leaf_start(self) -> int:
        return 1 << self.depth

    def leaves(self) -> range:
        return range(self.leaf_start, self.size)

    def generation(self, i: int) -> int:
        return int(i).bit_length() - 1

    def offset(self, i: int) -> int:
        return i - (1 << self.generation(i))

    def index_of(self, gen: int, off: int) -> int:
        if not (0 <= gen <= self.depth and 0 <= off < (1 << gen)):
            raise ValueError(f"no node at generation {gen}, offset {off}")
        return (1 << gen) + off

    def parent(self, i: int) -> int | None:
        return i >> 1 if i > 1 else None

    def children(self, i: int) -> tuple[int, ...]:
        if i >= self.leaf_start:
            return ()
        return (2 * i, 2 * i + 1)

    def leq(self, a: int, b: int) -> bool:
        """True iff a <= b in the poset, i.e. b is an ancestor-or-equal of a."""
        d = self.generation(a) - self.generation(b)
        return d >= 0 and (a >> d) == b

    def lca(self, a: int, b: int) -> int:
        ga, gb = self.generation(a), self.generation(b)
        if ga > gb:
            a >>= ga - gb
        elif gb > ga:
            b >>= gb - ga
        while a != b:
            a >>= 1
            b >>= 1
        return a

    def ancestors(self, i: int) -> Iterator[int]:
        """Chain i, parent(i), ..., root."""
        while i >= 1:
            yield i
            i >>= 1


def build_tree(depth: int) -> TreeTopology:
    return TreeTopology(depth)


def heap_lca(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``TreeTopology.lca`` of integer arrays of heap indices (>= 1).

    The deeper index is shifted up to the other's generation; the two then
    share the binary prefix above the highest bit where they differ.
    """
    # frexp's exponent is the bit length, exact below 2**53
    ga, gb = np.frexp(a)[1], np.frexp(b)[1]
    a = a >> np.maximum(ga - gb, 0)
    b = b >> np.maximum(gb - ga, 0)
    return a >> np.frexp(a ^ b)[1]


@dataclass(frozen=True)
class BiTreeTopology:
    """Product of two dyadic trees under the product order."""

    tree_x: TreeTopology
    tree_y: TreeTopology

    @property
    def shape(self) -> tuple[int, int]:
        return (self.tree_x.size, self.tree_y.size)

    @property
    def node_count(self) -> int:
        return self.tree_x.node_count * self.tree_y.node_count

    @property
    def boundary_count(self) -> int:
        return (1 << self.tree_x.depth) * (1 << self.tree_y.depth)

    @property
    def root(self) -> tuple[int, int]:
        return (1, 1)

    def nodes(self) -> Iterator[tuple[int, int]]:
        for ix in range(1, self.tree_x.size):
            for iy in range(1, self.tree_y.size):
                yield (ix, iy)

    def boundary(self) -> Iterator[tuple[int, int]]:
        for ix in self.tree_x.leaves():
            for iy in self.tree_y.leaves():
                yield (ix, iy)

    def leq(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return self.tree_x.leq(a[0], b[0]) and self.tree_y.leq(a[1], b[1])

    def lca(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (self.tree_x.lca(a[0], b[0]), self.tree_y.lca(a[1], b[1]))

    def parents(self, node: tuple[int, int]) -> list[tuple[int, int]]:
        """Covers of the node from above: one per axis where possible."""
        ix, iy = node
        out = []
        if ix > 1:
            out.append((ix >> 1, iy))
        if iy > 1:
            out.append((ix, iy >> 1))
        return out

    def children(self, node: tuple[int, int]) -> list[tuple[int, int]]:
        """Covers of the node from below: up to two per axis."""
        ix, iy = node
        out = [(c, iy) for c in self.tree_x.children(ix)]
        out += [(ix, c) for c in self.tree_y.children(iy)]
        return out

    def is_boundary(self, node: tuple[int, int]) -> bool:
        return node[0] >= self.tree_x.leaf_start and node[1] >= self.tree_y.leaf_start

    def node_of_gens(self, gen_x: int, off_x: int, gen_y: int, off_y: int) -> tuple[int, int]:
        return (self.tree_x.index_of(gen_x, off_x), self.tree_y.index_of(gen_y, off_y))

    def gens_of_node(self, node: tuple[int, int]) -> tuple[int, int, int, int]:
        ix, iy = int(node[0]), int(node[1])
        return (
            self.tree_x.generation(ix),
            self.tree_x.offset(ix),
            self.tree_y.generation(iy),
            self.tree_y.offset(iy),
        )

    def zeros(self, dtype=np.float64) -> np.ndarray:
        return np.zeros(self.shape, dtype=dtype)

    def valid_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[1:, 1:] = True
        return m

    def ancestor_grid(self, node: tuple[int, int]) -> list[list[tuple[int, int]]]:
        """All ancestors of the node as a (gen_x+1) x (gen_y+1) grid, root first."""
        xs = list(self.tree_x.ancestors(node[0]))[::-1]
        ys = list(self.tree_y.ancestors(node[1]))[::-1]
        return [[(ix, iy) for iy in ys] for ix in xs]


def build_bitree(depth_x: int, depth_y: int, max_entries: int = DEFAULT_DENSE_CAP) -> BiTreeTopology:
    """Dense-mode bi-tree; raises SizeError when arrays would not fit the cap."""
    tx, ty = TreeTopology(depth_x), TreeTopology(depth_y)
    entries = tx.size * ty.size
    if entries > max_entries:
        raise SizeError(
            f"dense bi-tree of depths ({depth_x},{depth_y}) needs {entries} array "
            f"entries, above the cap {max_entries}"
        )
    return BiTreeTopology(tx, ty)


# ---------------------------------------------------------------------------
# Down-sets and up-sets
# ---------------------------------------------------------------------------

def down_closure(topo: BiTreeTopology, mask: np.ndarray) -> np.ndarray:
    """Smallest down-set containing the masked nodes."""
    out = mask.copy()
    _propagate_down_axis(out, topo.tree_x, axis=0)
    _propagate_down_axis(out, topo.tree_y, axis=1)
    return out


def up_closure(topo: BiTreeTopology, mask: np.ndarray) -> np.ndarray:
    """Smallest up-set containing the masked nodes."""
    out = mask.copy()
    _propagate_up_axis(out, topo.tree_x, axis=0)
    _propagate_up_axis(out, topo.tree_y, axis=1)
    return out


def _propagate_down_axis(mask: np.ndarray, tree: TreeTopology, axis: int) -> None:
    m = mask if axis == 0 else mask.T
    for j in range(1, tree.depth + 1):
        lo, hi = 1 << j, 1 << (j + 1)
        m[lo:hi] |= np.repeat(m[lo >> 1 : lo], 2, axis=0)


def _propagate_up_axis(mask: np.ndarray, tree: TreeTopology, axis: int) -> None:
    m = mask if axis == 0 else mask.T
    for j in range(tree.depth - 1, -1, -1):
        lo, hi = 1 << j, 1 << (j + 1)
        m[lo:hi] |= m[hi : hi << 1 : 2] | m[hi + 1 : hi << 1 : 2]


def is_down_mask(topo: BiTreeTopology, mask: np.ndarray) -> bool:
    return bool(np.array_equal(down_closure(topo, mask), mask))


def is_up_mask(topo: BiTreeTopology, mask: np.ndarray) -> bool:
    return bool(np.array_equal(up_closure(topo, mask), mask))


def _antichain_of(topo: BiTreeTopology, mask: np.ndarray, maximal: bool) -> list[tuple[int, int]]:
    out = []
    for ix in range(1, topo.tree_x.size):
        for iy in range(1, topo.tree_y.size):
            if not mask[ix, iy]:
                continue
            covers = topo.parents((ix, iy)) if maximal else topo.children((ix, iy))
            if not any(mask[c] for c in covers):
                out.append((ix, iy))
    return out


@dataclass(frozen=True)
class DownSet:
    """Order ideal of a bi-tree, stored as a membership mask."""

    mask: np.ndarray

    def validate(self, topo: BiTreeTopology) -> None:
        if not is_down_mask(topo, self.mask):
            raise ValueError("mask is not downward closed")

    def generators(self, topo: BiTreeTopology) -> list[tuple[int, int]]:
        """Maximal elements; they generate the set via down_closure."""
        return _antichain_of(topo, self.mask, maximal=True)


@dataclass(frozen=True)
class UpSet:
    """Order filter of a bi-tree, stored as a membership mask."""

    mask: np.ndarray

    def validate(self, topo: BiTreeTopology) -> None:
        if not is_up_mask(topo, self.mask):
            raise ValueError("mask is not upward closed")

    def generators(self, topo: BiTreeTopology) -> list[tuple[int, int]]:
        """Minimal elements; they generate the set via up_closure."""
        return _antichain_of(topo, self.mask, maximal=False)


# ---------------------------------------------------------------------------
# Enumeration of down-sets (oracle scale)
# ---------------------------------------------------------------------------

ENUMERATION_CAP = 25


def iter_ideal_bitmasks(children_of: Sequence[Sequence[int]]) -> Iterator[int]:
    """Yield every order ideal of a finite poset as a bitmask, empty set included.

    ``children_of[i]`` lists the covers of node ``i`` from below; a set is an
    ideal iff membership of ``i`` forces membership of all its covers.  Nodes
    may be numbered in any order; they are visited minimal-first, so every
    cover is decided before the nodes above it.
    """
    n = len(children_of)
    # process nodes minimal-first so covers are decided before their parents
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


def bitree_cover_lists(
    topo: BiTreeTopology, mask: np.ndarray
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Masked nodes in row-major order plus, per node, the indices of its
    covers from below that are masked too.  On an up-set these covers
    generate the whole order restricted to the set."""
    nodes = [(int(a), int(b)) for a, b in zip(*np.nonzero(mask))]
    pos = {node: i for i, node in enumerate(nodes)}
    children = [[pos[c] for c in topo.children(node) if c in pos] for node in nodes]
    return nodes, children


def enumerate_down_sets(topo: BiTreeTopology) -> Iterator[np.ndarray]:
    """All down-sets of a small bi-tree as boolean masks (including empty)."""
    if topo.node_count > ENUMERATION_CAP:
        raise SizeError(
            f"down-set enumeration capped at {ENUMERATION_CAP} bi-nodes, "
            f"instance has {topo.node_count}"
        )
    nodes, children = bitree_cover_lists(topo, topo.valid_mask())
    for bits in iter_ideal_bitmasks(children):
        mask = np.zeros(topo.shape, dtype=bool)
        for i, node in enumerate(nodes):
            if bits >> i & 1:
                mask[node] = True
        yield mask
