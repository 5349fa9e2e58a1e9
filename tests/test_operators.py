from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitree_embed.operators import (
    MassFunction,
    WeightFunction,
    energy,
    energy_box,
    energy_delta,
    energy_downset,
    hardy_adjoint,
    hardy_forward,
    potential,
    tree_ancestor_sum,
    tree_descendant_sum,
    truncated_potential,
    v_good,
)
from bitree_embed.trees import build_bitree, build_tree, is_up_mask
from _oracles import (
    brute_adjoint,
    brute_forward,
    copying_adjoint,
    copying_descendant_sum,
    copying_forward,
    repeat_ancestor_sum,
)


def random_pair(seed, dx=2, dy=2, mass_density=0.7):
    rng = np.random.default_rng(seed)
    topo = build_bitree(dx, dy)
    mv = np.where(topo.valid_mask(),
                  rng.uniform(size=topo.shape) * (rng.random(topo.shape) < mass_density), 0.0)
    wv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    return topo, MassFunction(topo, mv), WeightFunction.general(topo, wv)


def test_single_node_identity():
    topo = build_bitree(0, 0)
    v = topo.zeros()
    v[1, 1] = 3.5
    assert hardy_forward(topo, v)[1, 1] == 3.5
    assert hardy_adjoint(topo, v)[1, 1] == 3.5


def test_root_indicator_forward():
    topo = build_bitree(2, 2)
    v = topo.zeros()
    v[1, 1] = 1.0
    out = hardy_forward(topo, v)
    assert np.all(out[1:, 1:] == 1.0)


def test_adjoint_at_root_is_total_mass():
    topo, mu, _ = random_pair(0)
    assert np.isclose(hardy_adjoint(topo, mu.values)[1, 1], mu.total_mass)


@pytest.mark.parametrize("seed", range(5))
def test_sweeps_match_brute_force(seed):
    topo, mu, w = random_pair(seed)
    assert np.allclose(hardy_forward(topo, mu.values), brute_forward(topo, mu.values))
    assert np.allclose(hardy_adjoint(topo, mu.values), brute_adjoint(topo, mu.values))
    v = potential(mu, w).values
    vb = brute_forward(topo, w.values * brute_adjoint(topo, mu.values))
    assert np.allclose(v, vb)


def test_degenerate_axis_sweeps():
    # one axis collapsed to a single node behaves like an ordinary tree
    topo = build_bitree(0, 3)
    rng = np.random.default_rng(20)
    v = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    assert np.allclose(hardy_forward(topo, v), brute_forward(topo, v))
    assert np.allclose(hardy_adjoint(topo, v), brute_adjoint(topo, v))


@pytest.mark.parametrize("seed", range(8))
def test_duality(seed):
    rng = np.random.default_rng(seed)
    topo = build_bitree(2, 1)
    f = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    g = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    lhs = float((hardy_forward(topo, f) * g).sum())
    rhs = float((f * hardy_adjoint(topo, g)).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 10_000))
def test_duality_property(dx, dy, seed):
    rng = np.random.default_rng(seed)
    topo = build_bitree(dx, dy)
    f = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    g = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    lhs = float((hardy_forward(topo, f) * g).sum())
    rhs = float((f * hardy_adjoint(topo, g)).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_linearity_and_quadratic_scaling():
    topo, mu, w = random_pair(4)
    c = 2.75
    assert np.allclose(hardy_forward(topo, c * mu.values), c * hardy_forward(topo, mu.values))
    assert np.isclose(energy(mu.scaled(c), w), c * c * energy(mu, w))


def test_zero_mass_zero_potential():
    topo = build_bitree(1, 1)
    mu = MassFunction.zeros(topo)
    w = WeightFunction.constant(topo, 1.0)
    assert np.all(potential(mu, w).values == 0)
    assert energy(mu, w) == 0


def test_depth_zero_potential_is_product():
    topo = build_bitree(0, 0)
    mv = topo.zeros(); mv[1, 1] = 2.0
    wv = topo.zeros(); wv[1, 1] = 3.0
    v = potential(MassFunction(topo, mv), WeightFunction.general(topo, wv)).values
    assert v[1, 1] == 6.0


def test_energy_forms_agree():
    topo, mu, w = random_pair(7)
    e1 = energy(mu, w)
    e2 = float((potential(mu, w).values * mu.values).sum())
    assert abs(e1 - e2) <= 1e-12 * max(1.0, e1)


def test_energy_box_at_root_is_total_energy():
    topo, mu, w = random_pair(8)
    assert np.isclose(energy_box(mu, w, (1, 1)), energy(mu, w))


def test_energy_downset_and_delta():
    topo, mu, w = random_pair(9)
    v = potential(mu, w).values
    delta = float(np.median(v[1:, 1:]))
    upset, vd = truncated_potential(mu, w, delta)
    assert is_up_mask(topo, upset.mask)
    assert np.isclose(energy_delta(mu, w, delta),
                      energy_downset(mu, w, upset.mask))
    # the truncated potential never exceeds the full one
    assert np.all(vd.values <= v + 1e-12)


def test_truncation_extremes():
    topo, mu, w = random_pair(10)
    v = potential(mu, w).values
    big = float(v.max()) + 1.0
    upset, vd = truncated_potential(mu, w, big)
    assert upset.mask[1:, 1:].all()
    assert np.allclose(vd.values, v)
    h = w.values * hardy_adjoint(topo, mu.values)
    tiny_delta = float(v[h > 0].min()) * 0.5 if (h > 0).any() else 0.1
    _, vd0 = truncated_potential(mu, w, tiny_delta)
    assert np.all(vd0.values == 0.0)


def test_truncated_brute_force():
    topo, mu, w = random_pair(11)
    delta = float(np.quantile(potential(mu, w).values[1:, 1:], 0.6))
    upset, vd = truncated_potential(mu, w, delta)
    istar = brute_adjoint(topo, mu.values)
    ref = brute_forward(topo, w.values * upset.mask * istar)
    assert np.allclose(vd.values, ref)


def test_single_tree_truncation_stays_below_delta():
    # depth_y = 0 reduces to an ordinary tree where the cut truncation caps
    rng = np.random.default_rng(13)
    topo = build_bitree(4, 0)
    mv = topo.zeros()
    mv[16:32, 1] = rng.uniform(size=16)
    mu = MassFunction(topo, mv)
    wv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    w = WeightFunction.general(topo, wv)
    v = potential(mu, w).values
    for q in [0.2, 0.5, 0.8]:
        delta = float(np.quantile(v[1:, 1], q))
        if delta <= 0:
            continue
        _, vd = truncated_potential(mu, w, delta)
        assert np.all(vd.values <= delta + 1e-12)


def test_sweep_axis_order_is_immaterial():
    topo, mu, _ = random_pair(12)
    xy = tree_ancestor_sum(tree_ancestor_sum(mu.values, topo.tree_x, 0), topo.tree_y, 1)
    yx = tree_ancestor_sum(tree_ancestor_sum(mu.values, topo.tree_y, 1), topo.tree_x, 0)
    assert np.max(np.abs(xy - yx)) <= 1e-12 * max(1.0, float(np.max(np.abs(xy))))
    xy = tree_descendant_sum(tree_descendant_sum(mu.values, topo.tree_x, 0), topo.tree_y, 1)
    yx = tree_descendant_sum(tree_descendant_sum(mu.values, topo.tree_y, 1), topo.tree_x, 0)
    assert np.max(np.abs(xy - yx)) <= 1e-12 * max(1.0, float(np.max(np.abs(xy))))


SWEEP_DEPTHS = [(0, 0), (0, 3), (3, 0), (2, 5), (4, 4)]


def _sweep_grid(shape, seed, exact):
    """Random grid, slot-0 row and column zero; ``exact`` gives Fractions."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, size=shape)
    v[0, :] = 0
    v[:, 0] = 0
    if not exact:
        return v
    out = np.empty(shape, dtype=object)
    out[...] = [[Fraction(int(x * 997), 13 + i % 5) for i, x in enumerate(row)] for row in v]
    return out


def _assert_bit_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert a.tolist() == b.tolist()
    else:
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("dx,dy", SWEEP_DEPTHS)
def test_sweeps_bit_equal_to_copying_formulation(dx, dy, exact):
    topo = build_bitree(dx, dy)
    v = _sweep_grid(topo.shape, 10 * dx + dy, exact)
    for axis, tree in ((0, topo.tree_x), (1, topo.tree_y)):
        _assert_bit_equal(tree_ancestor_sum(v, tree, axis), repeat_ancestor_sum(v, tree, axis))
        _assert_bit_equal(tree_descendant_sum(v, tree, axis), copying_descendant_sum(v, tree, axis))
    _assert_bit_equal(hardy_forward(topo, v), copying_forward(topo, v))
    _assert_bit_equal(hardy_adjoint(topo, v), copying_adjoint(topo, v))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("depth", [0, 1, 6])
def test_one_dimensional_sweeps_bit_equal(depth, exact):
    tree = build_tree(depth)
    v = _sweep_grid((tree.size, 1), depth, exact)[:, 0].copy()
    v[0] = 0
    _assert_bit_equal(tree_ancestor_sum(v, tree), repeat_ancestor_sum(v, tree))
    _assert_bit_equal(tree_descendant_sum(v, tree), copying_descendant_sum(v, tree))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("dx,dy", SWEEP_DEPTHS)
def test_hardy_out_argument(dx, dy, exact):
    topo = build_bitree(dx, dy)
    v = _sweep_grid(topo.shape, 7 + dx + dy, exact)
    for op, ref in ((hardy_forward, copying_forward), (hardy_adjoint, copying_adjoint)):
        expected = ref(topo, v)
        kept = v.copy()
        # out=None: a new grid, the input untouched
        res = op(topo, v)
        assert res is not v
        _assert_bit_equal(v, kept)
        _assert_bit_equal(res, expected)
        # out=values: in place
        inplace = v.copy()
        assert op(topo, inplace, out=inplace) is inplace
        _assert_bit_equal(inplace, expected)
        # out=another grid: filled from the input, the input untouched
        buf = np.full(topo.shape, 5.0).astype(v.dtype)
        assert op(topo, v, out=buf) is buf
        _assert_bit_equal(buf, expected)
        _assert_bit_equal(v, kept)


def test_sum_of_products_structure_validation():
    topo = build_bitree(1, 1)
    terms = [(np.array([0, 1.0, 0.5, 0.25]), np.array([0, 1.0, 2.0, 3.0])),
             (np.array([0, 0.2, 0.4, 0.8]), np.array([0, 1.5, 0.5, 1.0]))]
    w = WeightFunction.sum_of_products(topo, terms)
    w.validate_structure()
    w.values[2, 2] += 0.5
    with pytest.raises(ValueError):
        w.validate_structure()


def test_exact_mode_sweeps():
    topo = build_bitree(1, 1)
    mv = topo.zeros(dtype=object)
    mv[2, 2] = Fraction(1, 3)
    mv[3, 3] = 2
    out = hardy_adjoint(topo, mv)
    assert out[1, 1] == Fraction(7, 3)
    wv = topo.zeros(dtype=object)
    for node in topo.nodes():
        wv[node] = 1
    e = energy(MassFunction(topo, mv), WeightFunction.general(topo, wv))
    assert isinstance(e, Fraction)


def test_v_good_brute_force():
    topo, mu, w = random_pair(14)
    eps = 0.25
    vg = v_good(mu, w, eps)
    h = w.values * hardy_adjoint(topo, mu.values)
    for node in [(1, 1), (3, 2), (5, 5), (6, 4)]:
        tot = 0.0
        for a in topo.nodes():
            if topo.leq(node, a):
                s = sum(h[b] for b in topo.nodes()
                        if topo.leq(node, b) and topo.leq(b, a))
                if s > eps:
                    tot += h[a]
        assert abs(vg[node] - tot) <= 1e-10


def test_v_good_extremes():
    topo, mu, w = random_pair(15)
    v = potential(mu, w).values
    # eps above the potential: nothing qualifies
    vg = v_good(mu, w, float(v.max()) + 1)
    assert np.all(vg == 0)
    # eps -> 0 with positive medium: everything qualifies
    rng = np.random.default_rng(15)
    mv = np.where(topo.valid_mask(), rng.uniform(0.1, 1.0, size=topo.shape), 0.0)
    wv = np.where(topo.valid_mask(), rng.uniform(0.1, 1.0, size=topo.shape), 0.0)
    mu2, w2 = MassFunction(topo, mv), WeightFunction.general(topo, wv)
    v2 = potential(mu2, w2).values
    vg2 = v_good(mu2, w2, 1e-15)
    assert np.allclose(vg2[1:, 1:], v2[1:, 1:])


def test_weight_structure_validation():
    topo = build_bitree(1, 1)
    wx = np.array([0.0, 1.0, 2.0, 3.0])
    wy = np.array([0.0, 0.5, 1.5, 2.5])
    w = WeightFunction.product(topo, wx, wy)
    w.validate_structure()
    w.values[2, 2] += 1.0
    with pytest.raises(ValueError):
        w.validate_structure()

    anchor = (2, 2)
    hv = topo.zeros()
    hv[1, 1] = 1.0
    hv[2, 2] = 1.0
    hooked = WeightFunction.hooked(topo, anchor, hv)
    hooked.validate_structure()
    hv[3, 3] = 1.0
    with pytest.raises(ValueError):
        WeightFunction.hooked(topo, anchor, hv).validate_structure()


def test_mass_validation():
    topo = build_bitree(1, 1)
    mv = topo.zeros()
    mv[2, 2] = -1.0
    with pytest.raises(ValueError):
        MassFunction(topo, mv).validate()
    mv2 = np.ones(topo.shape)
    with pytest.raises(ValueError):
        MassFunction(topo, mv2).validate()
