"""Extremal measure/weight families separating the four constants.

Every family lives on the depth-N bi-tree of dyadic rectangles in the unit
square.  Small N instances materialize densely; the corner-anchored families
also carry exact structured evaluators (big-int / Fraction arithmetic) that
work for N in the hundreds or thousands where the bi-tree itself is far too
large to touch.

Conventions for the structured families: a "corner rectangle" (a, b) is
[0, 2^-a] x [0, 2^-b]; the upper-right quadrant of (a, b) is the dyadic
rectangle of generation (a+1, b+1) with offsets (1, 1); boundary cells are
addressed by integer coordinates (kx, ky) in [0, 2^N)^2.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .maxflow import dinkelbach_max_ratio
from .operators import MassFunction, WeightFunction, energy
from .trees import BiTreeTopology, build_bitree, up_closure


class ParameterError(ValueError):
    pass


def _check_power_of_two(n: int) -> int:
    if n < 4 or n & (n - 1):
        raise ParameterError(f"depth must be a power of two >= 4, got {n}")
    return n.bit_length() - 1


def staircase_exponents(n: int) -> list[tuple[int, int]]:
    """Exponent pairs (A_j, B_j) of the nested corner rectangles.

    A_j = 2^j doubles, B_j = N / 2^j halves; j stops one step short of
    log2(N) so that every rectangle still has a nonempty upper-right
    quadrant of depth-N cells.
    """
    log_n = _check_power_of_two(n)
    return [(1 << j, n >> j) for j in range(1, log_n)]


# ---------------------------------------------------------------------------
# structured corner families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadrantPiece:
    """Uniform mass on the upper-right quadrants of a list of corner rects."""

    rects: tuple[tuple[int, int], ...]
    rect_mass: Fraction  # total mass per quadrant


@dataclass
class CornerFamily:
    """Measure made of quadrant pieces plus an optional corner-cell atom,
    weighted by the indicator of the up-set of the base rectangles."""

    kind: str
    depth: int  # N
    base: tuple[tuple[int, int], ...]  # staircase (A_j, B_j) carrying the weight
    pieces: tuple[QuadrantPiece, ...]
    corner_atom: Fraction = Fraction(0)

    # -- structural helpers ------------------------------------------------

    @property
    def m_count(self) -> int:
        return len(self.base)

    def piece_total_mass(self, k: int) -> Fraction:
        return self.pieces[k].rect_mass * len(self.pieces[k].rects)

    def total_mass(self, include_atom: bool = True) -> Fraction:
        t = sum((self.piece_total_mass(k) for k in range(len(self.pieces))), Fraction(0))
        return t + (self.corner_atom if include_atom else 0)

    def _clipped_staircase(self, cap_a: int, cap_b: int) -> list[tuple[int, int]]:
        rects = {(min(a, cap_a), min(b, cap_b)) for a, b in self.base}
        out = []
        # p ascending: each rectangle drops the ones before it that it
        # dominates, leaving the maximal ones
        for r in sorted(r for r in rects if r[0] >= 0 and r[1] >= 0):
            while out and out[-1][1] <= r[1]:
                out.pop()
            out.append(r)
        return out

    def _bands(self, cap_a: int, cap_b: int):
        """Disjoint bands (a_lo, a_hi, b_hi) covering the clipped staircase."""
        stairs = self._clipped_staircase(cap_a, cap_b)
        bands = []
        prev = -1
        for p, q in stairs:
            bands.append((prev + 1, p, q))
            prev = p
        return bands

    def weighted_ancestor_count(self, cap_a: int | None = None, cap_b: int | None = None) -> int:
        """Number of weighted corner rectangles with generations within caps."""
        n = self.depth
        cap_a = n if cap_a is None else cap_a
        cap_b = n if cap_b is None else cap_b
        return sum((a2 - a1 + 1) * (b + 1) for a1, a2, b in self._bands(cap_a, cap_b))

    # -- exact evaluation ----------------------------------------------------

    def corner_rect_mass(self, a: int, b: int, pieces=None, include_atom: bool = True) -> Fraction:
        """Mass inside the corner rectangle (a, b)."""
        total = Fraction(0)
        for k in self._piece_indices(pieces):
            piece = self.pieces[k]
            cnt = sum(1 for (pa, pb) in piece.rects if pa >= a and pb >= b)
            total += piece.rect_mass * cnt
        if include_atom:
            total += self.corner_atom
        return total

    def _piece_indices(self, pieces):
        return range(len(self.pieces)) if pieces is None else pieces

    def potential_at(self, node, pieces=None, include_atom: bool = True) -> Fraction:
        """Exact weighted potential of the selected measure pieces at a node.

        node = (gen_x, off_x, gen_y, off_y); offsets may be big ints.
        """
        gx, ox, gy, oy = node
        n = self.depth
        if not (0 <= gx <= n and 0 <= gy <= n and 0 <= ox < (1 << gx) and 0 <= oy < (1 << gy)):
            raise ParameterError(f"node {node} is not a depth-{n} bi-tree node")
        cx = _corner_cap(gx, ox)
        cy = _corner_cap(gy, oy)
        bands = self._bands(cx, cy)
        total = Fraction(0)
        for k in self._piece_indices(pieces):
            piece = self.pieces[k]
            for (pa, pb) in piece.rects:
                lx, in_x = _axis_profile(gx, ox, pa)
                ly, in_y = _axis_profile(gy, oy, pb)
                s = Fraction(0)
                for a1, a2, bhi in bands:
                    ua = _profile_sum(a1, a2, lx, in_x)
                    if ua:
                        s += ua * _profile_sum(0, bhi, ly, in_y)
                total += piece.rect_mass * s
        if include_atom and self.corner_atom:
            lx0 = _lca_gen(gx, ox, n, 0)
            ly0 = _lca_gen(gy, oy, n, 0)
            cells = 0
            for a1, a2, bhi in bands:
                ca = max(0, min(a2, lx0) - a1 + 1)
                cells += ca * (min(bhi, ly0) + 1)
            total += self.corner_atom * cells
        return total

    def energy(self, pieces=None, include_atom: bool = True) -> Fraction:
        """Exact energy: sum over weighted corner rectangles of mass squared."""
        total = Fraction(0)
        for a1, a2, bhi in self._bands(self.depth, self.depth):
            for a in range(a1, a2 + 1):
                for b in range(bhi + 1):
                    m = self.corner_rect_mass(a, b, pieces, include_atom)
                    total += m * m
        return total

    def restricted_energy_at_corner_cell(self) -> Fraction:
        """Energy of the measure restricted to the corner cell alone."""
        return self.corner_atom**2 * self.weighted_ancestor_count()

    def corner_witness_ratio(self) -> Fraction:
        """Hereditary ratio certified by the corner-cell restriction: its
        energy over its mass, the corner atom (which must be nonzero)."""
        return self.restricted_energy_at_corner_cell() / self.corner_atom

    def embedding_test(self) -> tuple[float, float]:
        """(numerator, denominator) of the embedding test by the base piece's
        potential: the mass of every quadrant times the squared base
        potential at its corner, against the base piece's energy.  Summed in
        floats, quadrant by quadrant in piece order."""
        rhs = float(self.energy(pieces=[0]))
        lhs = 0.0
        for piece in self.pieces:
            for (a, b) in piece.rects:
                v = float(self.potential_at((a, 0, b, 0), pieces=[0]))
                lhs += float(piece.rect_mass) * v * v
        return lhs, rhs

    def interval_counts(self) -> dict[tuple[int, int], int]:
        """Number of weighted rectangles containing exactly the base
        rectangles indexed by [m, m+k], keyed by (m, k); 1-based indices.

        Containment of base rectangle j in the corner rectangle (a, b) says
        a <= A_j and b <= B_j, and since the sides are nested the qualifying
        j form an interval.  The counts drive the exact down-set optimum.
        """
        n = self.depth
        m_cnt = self.m_count
        lo_of_a = [min((j for j in range(m_cnt) if a <= self.base[j][0]), default=None)
                   for a in range(n + 1)]
        hi_of_b = [max((j for j in range(m_cnt) if b <= self.base[j][1]), default=None)
                   for b in range(n + 1)]
        counts: dict[tuple[int, int], int] = {}
        a_hist: dict[int, int] = {}
        for a in range(n + 1):
            if lo_of_a[a] is not None:
                a_hist[lo_of_a[a]] = a_hist.get(lo_of_a[a], 0) + 1
        b_hist: dict[int, int] = {}
        for b in range(n + 1):
            if hi_of_b[b] is not None:
                b_hist[hi_of_b[b]] = b_hist.get(hi_of_b[b], 0) + 1
        for m, ca in a_hist.items():
            for h, cb in b_hist.items():
                if h >= m:
                    counts[(m + 1, h - m)] = counts.get((m + 1, h - m), 0) + ca * cb
        return counts

    def exact_carleson_value(self) -> Fraction:
        """Exact Carleson constant of the up-set family at any depth.

        Every optimal down-set collapses to a union of base rectangles, and
        quadrants meet a member rectangle in an all-or-nothing fashion, so
        this is a best closed set under a ratio, solved exactly by the
        closure engine.  Items: each base rectangle (denominator its quadrant
        mass q), the corner atom a, which every base item needs, and each
        ``interval_counts`` entry (m, k) with count c, which needs base
        rectangles m..m+k and adds energy c((k+1)q + a)^2.
        """
        if len(self.pieces) != 1 or self.pieces[0].rects != self.base or not self.corner_atom:
            raise ParameterError("exact Carleson value applies to the up-set family only")
        q, a, m_cnt = self.pieces[0].rect_mass, self.corner_atom, self.m_count
        counts = self.interval_counts()
        numer = [Fraction(0)] * (m_cnt + 1) + [c * ((k + 1) * q + a) ** 2 for (_, k), c in counts.items()]
        denom = [q] * m_cnt + [a] + [Fraction(0)] * len(counts)
        arcs = [(j, m_cnt) for j in range(m_cnt)] + [
            (m_cnt + i, j) for i, (m, k) in enumerate(counts, 1) for j in range(m - 1, m + k)]
        value, _, _ = dinkelbach_max_ratio(np.array(numer, dtype=object), np.array(denom, dtype=object),
                                           tuple(np.array(arcs).T))
        return value

    # -- sampling ------------------------------------------------------------

    def quadrant_cells(self, a: int, b: int, count: int, seed: int = 0):
        """Corner cells of the quadrant of (a, b) plus seeded random cells."""
        n = self.depth
        x_lo, x_hi = 1 << (n - a - 1), (1 << (n - a)) - 1
        y_lo, y_hi = 1 << (n - b - 1), (1 << (n - b)) - 1
        cells = [(x_lo, y_lo), (x_lo, y_hi), (x_hi, y_lo), (x_hi, y_hi)]
        rng = _random.Random(f"{seed}:{a}:{b}")
        for _ in range(count):
            cells.append((rng.randrange(x_lo, x_hi + 1), rng.randrange(y_lo, y_hi + 1)))
        return [(n, kx, n, ky) for kx, ky in dict.fromkeys(cells)]

    def sample_support(self, pieces=None, per_quadrant: int = 16, seed: int = 0):
        """(piece index, node) pairs across the quadrants of selected pieces."""
        out = []
        for k in self._piece_indices(pieces):
            for (a, b) in self.pieces[k].rects:
                for node in self.quadrant_cells(a, b, per_quadrant, seed):
                    out.append((k, node))
        return out

    # -- dense materialization -------------------------------------------------

    def dense(self, exact: bool = False, include_atom: bool = True):
        """(mass, weight) on the dense bi-tree; raises SizeError when too deep."""
        n = self.depth
        topo = build_bitree(n, n)
        dtype = object if exact else np.float64
        mv = topo.zeros(dtype)
        leaf = 1 << n
        for k in self._piece_indices(None):
            piece = self.pieces[k]
            for (a, b) in piece.rects:
                x_lo, x_hi = 1 << (n - a - 1), 1 << (n - a)
                y_lo, y_hi = 1 << (n - b - 1), 1 << (n - b)
                cells = (x_hi - x_lo) * (y_hi - y_lo)
                cell_mass = piece.rect_mass / cells if exact else float(piece.rect_mass / cells)
                mv[leaf + x_lo : leaf + x_hi, leaf + y_lo : leaf + y_hi] += cell_mass
        if include_atom and self.corner_atom:
            mv[leaf, leaf] += self.corner_atom if exact else float(self.corner_atom)
        mu = MassFunction(topo, mv)

        gen_mask = np.zeros(topo.shape, dtype=bool)
        for (a, b) in self.base:
            gen_mask[1 << a, 1 << b] = True
        wmask = up_closure(topo, gen_mask)
        wv = wmask.astype(object if exact else np.float64) * (1 if exact else 1.0)
        w = WeightFunction.general(topo, wv)
        return mu, w


def corner_cell_restriction(mu: MassFunction, w: WeightFunction):
    """(energy, mass) of mu restricted to the corner boundary cell, the
    depth-N cell at offset 0 on both axes."""
    topo = mu.topo
    mask = np.zeros(topo.shape, dtype=bool)
    mask[topo.tree_x.leaf_start, topo.tree_y.leaf_start] = True
    restricted = mu.restrict(mask)
    return energy(restricted, w), restricted.total_mass


def _corner_cap(g: int, o: int) -> int:
    """Largest generation a such that the gen-a ancestor has offset 0."""
    return g if o == 0 else g - o.bit_length()


def _lca_gen(g1: int, o1: int, g2: int, o2: int) -> int:
    """Generation of the least common ancestor interval of two intervals."""
    if g1 > g2:
        g1, o1, g2, o2 = g2, o2, g1, o1
    t = o2 >> (g2 - g1)
    if t == o1:
        return g1
    return g1 - (t ^ o1).bit_length()


def _axis_profile(g: int, o: int, quad_exp: int) -> tuple[int, bool]:
    """Overlap profile of the node's gen-a ancestors with a quadrant interval.

    The quadrant interval on this axis is generation quad_exp+1, offset 1.
    Returns (L, inside): the gen-a ancestor contains the interval iff a <= L;
    when inside is set, deeper ancestors lie within it with overlap fraction
    2^(L-a).
    """
    qg = quad_exp + 1
    if g >= qg and (o >> (g - qg)) == 1:
        return qg, True
    return _lca_gen(g, o, qg, 1), False


def _profile_sum(a1: int, a2: int, level: int, inside: bool) -> Fraction:
    """Sum of the overlap profile over generations a1..a2."""
    if a2 < a1:
        return Fraction(0)
    ones = max(0, min(a2, level) - a1 + 1)
    total = Fraction(ones)
    if inside:
        p = max(a1, level + 1)
        if p <= a2:
            total += Fraction(1, 1 << (p - 1 - level)) - Fraction(1, 1 << (a2 - level))
    return total


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------

def gen_simple_car_not_rec(n: int, uniform: bool = False, exact: bool = False):
    """Unit atoms on a staircase of quadrants plus the corner cell; weight is
    the indicator of the staircase rectangles and the corner cell.

    The restriction of the mass to the corner cell has energy ratio exactly
    n+1, while the full down-set family stays below ratio 4.
    """
    if n < 1:
        raise ParameterError("need depth >= 1")
    topo = build_bitree(n, n)
    dtype = object if exact else np.float64
    one = 1 if exact else 1.0
    mv = topo.zeros(dtype)
    wv = topo.zeros(dtype)
    leaf = 1 << n
    mv[leaf, leaf] += one  # corner cell
    wv[leaf, leaf] = one
    for i in range(1, n + 1):
        # rectangle [0, 2^(1-i)] x [0, 2^(i-n)]: generations (i-1, n-i)
        wv[1 << (i - 1), 1 << (n - i)] = one
        x_lo, x_hi = 1 << (n - i), 1 << (n - i + 1)
        y_lo, y_hi = 1 << (i - 1), 1 << i
        if uniform:
            cells = (x_hi - x_lo) * (y_hi - y_lo)
            cm = Fraction(1, cells) if exact else 1.0 / cells
            mv[leaf + x_lo : leaf + x_hi, leaf + y_lo : leaf + y_hi] += cm
        else:
            mv[leaf + x_lo, leaf + y_lo] += one
    return MassFunction(topo, mv), WeightFunction.general(topo, wv)


def gen_upset_car_not_rec(n: int) -> CornerFamily:
    """Mass 1/N spread over each staircase quadrant plus 1/N on the corner
    cell; weight is the indicator of the up-set of the staircase rectangles.
    The corner-cell restriction certifies a hereditary ratio growing like
    log2(N) while the full down-set ratio stays bounded."""
    base = tuple(staircase_exponents(n))
    piece = QuadrantPiece(rects=base, rect_mass=Fraction(1, n))
    return CornerFamily(
        kind="upset_car_not_rec",
        depth=n,
        base=base,
        pieces=(piece,),
        corner_atom=Fraction(1, n),
    )


def gen_rec_not_embedding(n: int) -> CornerFamily:
    """Layered intersections of the staircase rectangles carrying geometrically
    damped mass; the hereditary constant stays bounded while testing the
    embedding with the base piece's own boundary mass grows like log(M)."""
    base = tuple(staircase_exponents(n))
    m = len(base)
    if m < 2:
        raise ParameterError(f"need at least 2 staircase rectangles, got {m} (depth {n})")
    k_max = m.bit_length() - 1  # floor(log2 M)
    pieces = [QuadrantPiece(rects=base, rect_mass=Fraction(1, n))]
    for k in range(1, k_max + 1):
        span = 1 << k
        rects = tuple(
            (base[j + span - 1][0], base[j][1]) for j in range(m - span + 1)
        )
        pieces.append(QuadrantPiece(rects=rects, rect_mass=Fraction(1, (1 << (2 * k)) * n)))
    return CornerFamily(
        kind="rec_not_embedding",
        depth=n,
        base=base,
        pieces=tuple(pieces),
        corner_atom=Fraction(0),
    )


def gen_sum_of_products(n: int):
    """Same measure as the up-set family but with the counting weight: the sum
    of the per-rectangle up-set indicators, each of which factors per axis."""
    family = gen_upset_car_not_rec(n)
    topo = build_bitree(n, n)
    terms = []
    for (a, b) in family.base:
        ux = np.zeros(topo.tree_x.size)
        ux[[1 << g for g in range(a + 1)]] = 1.0
        uy = np.zeros(topo.tree_y.size)
        uy[[1 << g for g in range(b + 1)]] = 1.0
        terms.append((ux, uy))
    w = WeightFunction.sum_of_products(topo, terms)
    mu, _ = family.dense()
    return mu, w, family


# ---------------------------------------------------------------------------
# packing-family lift and the coefficient translation
# ---------------------------------------------------------------------------

def rectangle_area(topo: BiTreeTopology) -> np.ndarray:
    """Planar area of each node's rectangle."""
    ax = np.zeros(topo.tree_x.size)
    ay = np.zeros(topo.tree_y.size)
    for g in range(topo.tree_x.depth + 1):
        ax[1 << g : 1 << (g + 1)] = 2.0**-g
    for g in range(topo.tree_y.depth + 1):
        ay[1 << g : 1 << (g + 1)] = 2.0**-g
    return np.outer(ax, ay)


def lift_carleson_family(family, n: int):
    """Uniform planar mass plus the reciprocal-area weight on a rectangle
    family; packing constants of the family become box/Carleson constants."""
    topo = build_bitree(n, n)
    area = rectangle_area(topo)
    wv = topo.zeros()
    for item in family:
        gx, ox, gy, oy = item
        try:
            node = topo.node_of_gens(gx, ox, gy, oy)
        except ValueError as exc:
            raise ParameterError(f"rectangle {item} is not dyadic at depth {n}") from exc
        wv[node] = 1.0 / area[node]
    mu = MassFunction.uniform_boundary(topo, 4.0**-n)
    return mu, WeightFunction.general(topo, wv)


def paraproduct_weight(topo: BiTreeTopology, beta: np.ndarray) -> WeightFunction:
    """Translate per-rectangle coefficients into the weight beta^2 / area^2."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != topo.shape:
        raise ValueError("coefficient grid must match the topology shape")
    area = rectangle_area(topo)
    wv = topo.zeros()
    wv[1:, 1:] = (beta[1:, 1:] / area[1:, 1:]) ** 2
    return WeightFunction.general(topo, wv)


def structured_potential(family: CornerFamily, node, pieces=None, include_atom: bool = True) -> float:
    """Float view of the exact structured potential."""
    return float(family.potential_at(node, pieces=pieces, include_atom=include_atom))
