import math
from fractions import Fraction

import numpy as np
import pytest

from bitree_embed.constants import box_constant, carleson_constant, hereditary_constant
from bitree_embed.counterexamples import (
    CornerFamily,
    ParameterError,
    QuadrantPiece,
    gen_rec_not_embedding,
    gen_simple_car_not_rec,
    gen_sum_of_products,
    gen_upset_car_not_rec,
    lift_carleson_family,
    paraproduct_weight,
    rectangle_area,
    staircase_exponents,
    structured_potential,
)
from bitree_embed.operators import (
    MassFunction,
    WeightFunction,
    energy,
    energy_box,
    energy_density,
    potential,
)
from bitree_embed.trees import build_bitree, is_up_mask, up_closure
from _oracles import (
    enumeration_carleson,
    enumeration_upset_carleson,
    lebesgue_mass,
    weight_to_coefficients,
)


# ---------------------------------------------------------------------------
# staircase geometry
# ---------------------------------------------------------------------------

def test_staircase_requires_power_of_two():
    for bad in [3, 6, 12, 100]:
        with pytest.raises(ParameterError):
            staircase_exponents(bad)
    assert staircase_exponents(8) == [(2, 4), (4, 2)]
    assert staircase_exponents(64) == [(2, 32), (4, 16), (8, 8), (16, 4), (32, 2)]


def test_staircase_quadrants_are_nonempty():
    for n in [4, 8, 64, 256]:
        for a, b in staircase_exponents(n):
            assert a + 1 <= n and b + 1 <= n


# ---------------------------------------------------------------------------
# unit-atom staircase family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
def test_simple_family_corner_ratio_exact(n):
    mu, w = gen_simple_car_not_rec(n, exact=True)
    leaf = 1 << n
    mask = np.zeros(mu.topo.shape, dtype=bool)
    mask[leaf, leaf] = True
    restricted = mu.restrict(mask)
    ratio = Fraction(energy(restricted, w)) / Fraction(restricted.total_mass)
    assert ratio == n + 1


@pytest.mark.parametrize("n", [2, 4, 8])
def test_simple_family_carleson_exact(n):
    mu, w = gen_simple_car_not_rec(n, exact=True)
    rep = carleson_constant(mu, w)
    assert rep.value == Fraction(4 * n + 1, n + 1)
    assert rep.value <= 4
    # witness re-evaluation in rational arithmetic reproduces the value
    mask = rep.witness["mask"]
    num = Fraction((energy_density(mu, w) * mask).sum())
    den = Fraction((mu.values * mask).sum())
    assert num / den == rep.value


@pytest.mark.parametrize("n", [2, 4, 8])
def test_simple_family_hereditary_exact(n):
    mu, w = gen_simple_car_not_rec(n, exact=True)
    rep = hereditary_constant(mu, w)
    assert isinstance(rep.value, Fraction)
    assert rep.value == n + 1
    assert rep.certified
    leaf = 1 << n
    assert rep.witness["mask"][leaf, leaf]


def test_simple_family_hand_n1():
    # two unit atoms, weight on the root and the corner cell; the best
    # restriction and the best down-set both take everything: (4+1)/2
    mu, w = gen_simple_car_not_rec(1)
    assert float(mu.total_mass) == 2.0
    her = hereditary_constant(mu, w)
    assert np.isclose(float(her.value), 5.0 / 2.0)
    car = carleson_constant(mu, w)
    assert np.isclose(float(car.value), 5.0 / 2.0)


def test_simple_family_hereditary_is_corner_witness():
    for n in [2, 4, 6]:
        mu, w = gen_simple_car_not_rec(n)
        her = hereditary_constant(mu, w)
        assert np.isclose(float(her.value), n + 1)
        leaf = 1 << n
        assert her.witness["mask"][leaf, leaf]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simple_family_uniform_variant_insensitive(n):
    mu_a, w_a = gen_simple_car_not_rec(n)
    mu_u, w_u = gen_simple_car_not_rec(n, uniform=True)
    assert np.isclose(float(mu_a.total_mass), float(mu_u.total_mass))
    c_a = float(carleson_constant(mu_a, w_a).value)
    c_u = float(carleson_constant(mu_u, w_u).value)
    assert abs(c_a - c_u) <= 1e-12
    b_a = float(box_constant(mu_a, w_a).value)
    b_u = float(box_constant(mu_u, w_u).value)
    assert abs(b_a - b_u) <= 1e-12


# ---------------------------------------------------------------------------
# spread-mass up-set family
# ---------------------------------------------------------------------------

def test_upset_family_parameter_guards():
    with pytest.raises(ParameterError):
        gen_upset_car_not_rec(12)
    with pytest.raises(ParameterError):
        gen_upset_car_not_rec(2)


def test_upset_family_weight_is_upset_indicator():
    fam = gen_upset_car_not_rec(8)
    _, w = fam.dense()
    mask = w.values != 0
    assert is_up_mask(w.topo, mask)
    gen_mask = np.zeros(w.topo.shape, dtype=bool)
    for a, b in fam.base:
        gen_mask[1 << a, 1 << b] = True
    assert np.array_equal(mask, up_closure(w.topo, gen_mask))


def test_upset_family_dense_structured_agreement():
    fam = gen_upset_car_not_rec(8)
    nu, w = fam.dense()
    v = potential(nu, w).values
    leaf = 1 << 8
    # corner cell, every base rectangle, and sampled support cells
    v0 = structured_potential(fam, (8, 0, 8, 0))
    assert abs(v0 - v[leaf, leaf]) <= 1e-12 * max(1.0, v[leaf, leaf])
    for a, b in fam.base:
        vs = structured_potential(fam, (a, 0, b, 0))
        vd = v[1 << a, 1 << b]
        assert abs(vs - vd) <= 1e-12 * max(1.0, vd)
    for _, node in fam.sample_support(per_quadrant=16, seed=0):
        gx, kx, gy, ky = node
        vd = v[leaf + kx, leaf + ky]
        vs = structured_potential(fam, node)
        assert abs(vs - vd) <= 1e-12 * max(1.0, vd)
    # the mass-only view, atom excluded
    mu, _ = fam.dense(include_atom=False)
    vm = potential(mu, w).values
    vs = structured_potential(fam, (8, 0, 8, 0), include_atom=False)
    assert abs(vs - vm[leaf, leaf]) <= 1e-12 * max(1.0, vm[leaf, leaf])


def test_structured_potential_at_arbitrary_interior_nodes():
    # the evaluator must agree with dense sweeps at nodes of every
    # generation pair and offset, not just boundary cells and corner rects
    import random as pyrandom

    for maker, n in [(gen_upset_car_not_rec, 8), (gen_rec_not_embedding, 8)]:
        fam = maker(n)
        mu, w = fam.dense()
        v = potential(mu, w).values
        rng = pyrandom.Random(f"interior:{fam.kind}")
        nodes = [(0, 0, 0, 0), (n, (1 << n) - 1, n, (1 << n) - 1)]
        for _ in range(60):
            gx = rng.randrange(0, n + 1)
            gy = rng.randrange(0, n + 1)
            nodes.append((gx, rng.randrange(0, 1 << gx), gy, rng.randrange(0, 1 << gy)))
        for gx, ox, gy, oy in nodes:
            vd = v[(1 << gx) + ox, (1 << gy) + oy]
            vs = structured_potential(fam, (gx, ox, gy, oy))
            assert abs(vs - vd) <= 1e-12 * max(1.0, vd), (fam.kind, gx, ox, gy, oy)
        with pytest.raises(ParameterError):
            fam.potential_at((n + 1, 0, 0, 0))
        with pytest.raises(ParameterError):
            fam.potential_at((2, 4, 0, 0))


def test_layered_dense_embedding_dominates_structured_ratio():
    # the structured test-function ratio is a certified lower bound for the
    # dense embedding constant of the same instance
    from bitree_embed.constants import embedding_constant

    fam = gen_rec_not_embedding(8)
    mu, w = fam.dense()
    rhs = float(fam.energy(pieces=[0]))
    lhs = 0.0
    for piece in fam.pieces:
        for a, b in piece.rects:
            vq = float(fam.potential_at((a, 0, b, 0), pieces=[0]))
            lhs += float(piece.rect_mass) * vq * vq
    ce = float(embedding_constant(mu, w).value)
    assert ce >= lhs / rhs - 1e-9


def test_upset_family_total_mass_and_energy_agree_dense():
    fam = gen_upset_car_not_rec(8)
    nu, w = fam.dense()
    assert abs(float(fam.total_mass()) - float(nu.total_mass)) <= 1e-14
    e_struct = float(fam.energy())
    e_dense = float(energy(nu, w))
    assert abs(e_struct - e_dense) <= 1e-10 * max(1.0, e_dense)
    e_corner = float(fam.restricted_energy_at_corner_cell())
    leaf = 1 << 8
    mask = np.zeros(nu.topo.shape, dtype=bool)
    mask[leaf, leaf] = True
    e_corner_dense = float(energy(nu.restrict(mask), w))
    assert abs(e_corner - e_corner_dense) <= 1e-12


@pytest.mark.parametrize("n", [4, 8])
def test_upset_family_closed_form_carleson_matches_mincut(n):
    fam = gen_upset_car_not_rec(n)
    nu, w = fam.dense()
    dense_val = float(carleson_constant(nu, w).value)
    closed = float(fam.exact_carleson_value())
    assert abs(dense_val - closed) <= 1e-12 * max(1.0, dense_val)


@pytest.mark.parametrize("n", [4, 8])
def test_upset_family_carleson_reads_its_own_masses(n):
    # the closure is built from the family's quadrant and atom masses, so any
    # masses give the exact dense down-set optimum, not only q = a = 1/N
    base = gen_upset_car_not_rec(n).base
    masses = [Fraction(1, 16), Fraction(1, 4), Fraction(1), Fraction(7, 3)]
    for q in masses:
        for a in masses:
            fam = CornerFamily("upset_car_not_rec", n, base, (QuadrantPiece(base, q),), a)
            nu, w = fam.dense(exact=True)
            assert fam.exact_carleson_value() == carleson_constant(nu, w).value


def test_upset_family_carleson_matches_subset_enumeration():
    for log_n in range(2, 13):
        fam = gen_upset_car_not_rec(1 << log_n)
        value = fam.exact_carleson_value()
        assert isinstance(value, Fraction)
        assert value == enumeration_upset_carleson(fam)


def test_upset_family_interval_counts_sum_to_weight_count():
    for n in [8, 64, 256]:
        fam = gen_upset_car_not_rec(n)
        counts = fam.interval_counts()
        assert sum(counts.values()) == fam.weighted_ancestor_count()


def test_upset_family_growth_and_boundedness():
    ratios = []
    for n in [64, 256, 1024]:
        fam = gen_upset_car_not_rec(n)
        log2n = n.bit_length() - 1
        v0 = structured_potential(fam, (n, 0, n, 0), include_atom=False)
        ratios.append(v0 / log2n)
        cap = max(structured_potential(fam, (a, 0, b, 0), include_atom=False)
                  for a, b in fam.base)
        cap_supp = max(structured_potential(fam, node, include_atom=False)
                       for _, node in fam.sample_support(per_quadrant=16, seed=0))
        assert max(cap, cap_supp) <= 4.0
        # the corner restriction certifies a hereditary ratio growing with
        # the family size
        witness = float(fam.restricted_energy_at_corner_cell() / fam.corner_atom)
        assert witness >= 0.5 * fam.m_count
    assert min(ratios) >= 1.0


def test_upset_family_separation_grows_beyond_dense_range():
    vals = []
    for n in [8, 16, 64, 256, 1024]:
        fam = gen_upset_car_not_rec(n)
        wit = fam.restricted_energy_at_corner_cell() / fam.corner_atom
        c = fam.exact_carleson_value()
        vals.append(float(wit / c))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1.0 > vals[0]


def test_upset_truncation_overshoot_at_corner():
    # on an ordinary tree the truncated potential never exceeds its cut; on
    # the bi-tree the spread family pushes it past the cut at the corner
    n = 256
    fam = gen_upset_car_not_rec(n)
    delta = max(structured_potential(fam, node, include_atom=False)
                for _, node in fam.sample_support(per_quadrant=16, seed=0))
    in_level_set = [
        (a, b)
        for a1, a2, bhi in fam._bands(n, n)
        for a in range(a1, a2 + 1)
        for b in range(bhi + 1)
        if float(fam.potential_at((a, 0, b, 0), include_atom=False)) <= delta
    ]
    truncated_at_corner = sum(
        fam.corner_rect_mass(a, b, include_atom=False) for (a, b) in in_level_set
    )
    assert float(truncated_at_corner) > delta


# ---------------------------------------------------------------------------
# layered intersection family
# ---------------------------------------------------------------------------

def test_layered_family_shape():
    fam = gen_rec_not_embedding(64)
    m = fam.m_count
    assert m == 5
    assert len(fam.pieces) == 1 + int(math.log2(m))
    for k, piece in enumerate(fam.pieces):
        if k == 0:
            assert len(piece.rects) == m
        else:
            assert len(piece.rects) == m - (1 << k) + 1
            assert piece.rect_mass == Fraction(1, (1 << (2 * k)) * 64)


def test_layered_family_guards():
    with pytest.raises(ParameterError):
        gen_rec_not_embedding(4)  # single staircase rectangle
    with pytest.raises(ParameterError):
        gen_rec_not_embedding(10)


def test_layered_family_dense_structured_agreement():
    fam = gen_rec_not_embedding(8)
    mu, w = fam.dense()
    v = potential(mu, w).values
    leaf = 1 << 8
    for _, node in fam.sample_support(per_quadrant=8, seed=3):
        gx, kx, gy, ky = node
        vs = structured_potential(fam, node)
        vd = v[leaf + kx, leaf + ky]
        assert abs(vs - vd) <= 1e-12 * max(1.0, vd)
    # per-piece potentials against per-piece dense instances
    for k, piece in enumerate(fam.pieces):
        single = CornerFamily(kind="piece", depth=8, base=fam.base, pieces=(piece,))
        mu_k, _ = single.dense()
        v_k = potential(mu_k, w).values
        for a, b in fam.base:
            vs = structured_potential(fam, (a, 0, b, 0), pieces=[k])
            assert abs(vs - v_k[1 << a, 1 << b]) <= 1e-12 * max(1.0, v_k[1 << a, 1 << b])


def test_layered_family_test_function_quantities():
    # the base-piece test function certifies an embedding ratio growing with
    # log M while the tail potentials stay uniformly bounded
    ratios = []
    for n in [64, 256, 1024]:
        fam = gen_rec_not_embedding(n)
        rhs = float(fam.energy(pieces=[0]))
        assert rhs <= 4.0 * fam.m_count / n
        lhs = 0.0
        for piece in fam.pieces:
            for a, b in piece.rects:
                vq = float(fam.potential_at((a, 0, b, 0), pieces=[0]))
                lhs += float(piece.rect_mass) * vq * vq
        ratios.append(lhs / rhs / math.log2(fam.m_count))
        surrogate = 0.0
        for k in range(len(fam.pieces)):
            tail = list(range(k, len(fam.pieces)))
            for a, b in fam.pieces[k].rects:
                for node in fam.quadrant_cells(a, b, 8, seed=0):
                    surrogate = max(surrogate, float(fam.potential_at(node, pieces=tail)))
        assert surrogate <= 5.5
    assert min(ratios) >= 1.4


def test_layered_piece_potential_scales_like_span():
    # deeper intersections see potentials growing with their span
    fam = gen_rec_not_embedding(1024)
    base_vals = [float(fam.potential_at((a, 0, b, 0), pieces=[0])) for a, b in fam.base]
    for k in range(1, len(fam.pieces)):
        span = 1 << k
        for a, b in fam.pieces[k].rects:
            v = float(fam.potential_at((a, 0, b, 0), pieces=[0]))
            assert v >= 0.4 * span
    assert max(base_vals) <= 4.0


# ---------------------------------------------------------------------------
# counting weight
# ---------------------------------------------------------------------------

def test_sum_of_products_summands_factor():
    mu, w, fam = gen_sum_of_products(8)
    assert w.kind == "sum_of_products"
    total = np.zeros(w.topo.shape)
    for wx, wy in w.factors:
        term = np.outer(wx, wy)
        # each summand is a genuine product weight
        assert np.allclose(term, np.outer(term[:, 1], term[1, :]) / max(term[1, 1], 1e-300))
        total += term
    total[0, :] = 0
    total[:, 0] = 0
    assert np.allclose(total, w.values)
    # counting weight dominates the indicator of the same up-set
    _, w_ind = fam.dense()
    assert np.all(w.values >= w_ind.values - 1e-12)


def test_sum_of_products_single_rectangle_reduces_to_product():
    mu, w, fam = gen_sum_of_products(4)
    assert fam.m_count == 1
    wx, wy = w.factors[0]
    wprod = WeightFunction.product(w.topo, wx, wy)
    assert np.allclose(wprod.values, w.values)
    from bitree_embed.constants import verify_chain

    rep = verify_chain(mu, wprod)
    assert rep.hereditary.certified
    assert rep.ok


def test_sum_of_products_separation_row():
    mu, w, fam = gen_sum_of_products(8)
    leaf = 1 << 8
    mask = np.zeros(mu.topo.shape, dtype=bool)
    mask[leaf, leaf] = True
    restricted = mu.restrict(mask)
    wit = float(energy(restricted, w)) / float(restricted.total_mass)
    car = float(carleson_constant(mu, w).value)
    # the corner witness certifies a hereditary constant within a factor M
    # of the exact down-set constant
    assert wit <= fam.m_count * car + 1e-9


# ---------------------------------------------------------------------------
# packing lift and coefficient translation
# ---------------------------------------------------------------------------

def test_lift_single_rectangle():
    mu, w = lift_carleson_family([(0, 0, 0, 0)], 2)
    assert np.isclose(float(box_constant(mu, w).value), 1.0)
    assert np.isclose(float(carleson_constant(mu, w).value), 1.0)


def test_lift_disjoint_slabs():
    n = 2
    family = [(n, k, 0, 0) for k in range(1 << n)]  # vertical slabs
    mu, w = lift_carleson_family(family, n)
    assert np.isclose(float(carleson_constant(mu, w).value), 1.0)


def test_lift_overlapping_three_generations():
    # nested three-generation family on a 21-node bi-tree so the down-set
    # enumeration oracle still applies
    family = [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 1, 0)]
    topo = build_bitree(2, 1)
    mu = MassFunction.uniform_boundary(topo, 2.0 ** -(2 + 1))
    area = rectangle_area(topo)
    wv = topo.zeros()
    for gx, ox, gy, oy in family:
        node = topo.node_of_gens(gx, ox, gy, oy)
        wv[node] = 1.0 / area[node]
    w = WeightFunction.general(topo, wv)
    box = float(box_constant(mu, w).value)
    car = float(carleson_constant(mu, w).value)
    brute = float(enumeration_carleson(mu, w)[0])
    assert abs(car - brute) <= 1e-9 * max(1.0, brute)
    assert car >= box - 1e-12


def test_lift_rejects_bad_rectangles():
    with pytest.raises(ParameterError):
        lift_carleson_family([(3, 0, 0, 0)], 2)
    with pytest.raises(ParameterError):
        lift_carleson_family([(1, 5, 0, 0)], 2)


def test_paraproduct_translation_identities():
    topo = build_bitree(2, 2)
    area = rectangle_area(topo)
    # coefficients equal to the area give the unit weight
    w = paraproduct_weight(topo, area * topo.valid_mask())
    assert np.allclose(w.values[1:, 1:], 1.0)
    # a single-rectangle coefficient gives the single-box ratio
    beta = topo.zeros()
    node = (2, 3)
    beta[node] = 0.7
    w1 = paraproduct_weight(topo, beta)
    mu = lebesgue_mass(topo)
    box = float(box_constant(mu, w1).value)
    assert np.isclose(box, 0.7**2 / area[node])


def test_paraproduct_termwise_identity_random():
    rng = np.random.default_rng(11)
    topo = build_bitree(2, 2)
    beta = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    w = paraproduct_weight(topo, beta)
    mu = lebesgue_mass(topo)
    e = energy_density(mu, w)
    assert np.allclose(e[1:, 1:], (beta * beta)[1:, 1:])
    # branch sums match: packing sums of beta^2 equal box energies
    node = (2, 2)
    packing = sum(
        (beta * beta)[b] for b in topo.nodes() if topo.leq(b, node)
    )
    assert np.isclose(energy_box(mu, w, node), packing)
    # round trip
    back = weight_to_coefficients(topo, w)
    assert np.allclose(back[1:, 1:], beta[1:, 1:])
