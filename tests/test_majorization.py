import numpy as np
import pytest

from bitree_embed.instances import bitree_majorant_data, tree_majorant_data
from bitree_embed.majorization import (
    PreconditionError,
    balance,
    bitree_children_sums,
    cEcE_ratio,
    check_l1linf,
    check_positive_kernel,
    is_slice_superadditive,
    is_superadditive,
    majorant_bitree,
    majorant_tree,
)
from bitree_embed.operators import (
    MassFunction,
    WeightFunction,
    energy,
    energy_delta,
    hardy_adjoint,
    potential,
    tree_ancestor_sum,
    tree_descendant_sum,
    truncated_potential,
    v_good,
)
from bitree_embed.trees import build_bitree, build_tree, is_down_mask
from _oracles import first_ancestor_leq, y_telescope_floor


# ---------------------------------------------------------------------------
# superadditivity
# ---------------------------------------------------------------------------

def test_descendant_sums_are_superadditive_on_trees():
    rng = np.random.default_rng(0)
    for depth in [1, 3, 5]:
        tree = build_tree(depth)
        mu = np.zeros(tree.size)
        mu[1:] = rng.uniform(size=tree.size - 1)
        g = tree_descendant_sum(mu, tree)
        ok, node = is_superadditive(g, tree)
        assert ok, node


def test_leaf_indicator_violates_at_parent():
    tree = build_tree(2)
    g = np.zeros(tree.size)
    g[4] = 1.0  # a leaf; its parent has value 0 < 1
    ok, node = is_superadditive(g, tree)
    assert not ok
    assert node == (2,)


def test_superadditive_brute_force():
    rng = np.random.default_rng(1)
    tree = build_tree(3)
    for _ in range(50):
        g = np.where(np.arange(tree.size) >= 1, rng.uniform(size=tree.size), 0.0)
        ok, _ = is_superadditive(g, tree)
        want = all(
            g[i] + 1e-12 >= g[2 * i] + g[2 * i + 1] for i in range(1, tree.leaf_start)
        )
        assert ok == want


def test_bitree_children_sums_and_slice_form():
    topo = build_bitree(1, 1)
    g = topo.zeros()
    g[1, 1], g[2, 1], g[1, 2] = 5.0, 2.0, 2.0
    sums = bitree_children_sums(g, topo)
    # covers of the root: (2,1), (3,1), (1,2), (1,3)
    assert sums[1, 1] == 4.0
    ok, _ = is_superadditive(g, topo)
    assert ok
    g[3, 1] = 2.0
    ok, node = is_superadditive(g, topo)
    assert not ok and node == (1, 1)
    # but each x-slice is still fine
    ok_slice, _ = is_slice_superadditive(g, topo, axis=0)
    assert ok_slice


def test_restricted_descendant_sum_is_slice_superadditive():
    rng = np.random.default_rng(2)
    for _ in range(20):
        topo = build_bitree(2, 2)
        mv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
        mu = MassFunction(topo, mv)
        w = WeightFunction.constant(topo)
        v = potential(mu, w).values
        delta = float(np.quantile(v[1:, 1:], 0.5))
        mask = v <= delta
        mask[0, :] = False
        mask[:, 0] = False
        m = hardy_adjoint(topo, mu.values) * mask
        ok, node = is_slice_superadditive(m, topo, axis=0)
        assert ok, node
        ok, node = is_slice_superadditive(m, topo, axis=1)
        assert ok, node


# ---------------------------------------------------------------------------
# auxiliary inequalities
# ---------------------------------------------------------------------------

def test_l1linf_zero_h():
    tree = build_tree(2)
    g = tree_descendant_sum(np.where(np.arange(tree.size) >= 1, 1.0, 0.0), tree)
    h = np.zeros(tree.size)
    lhs, rhs = check_l1linf(g, h, 1, tree)
    assert lhs == 0 and rhs == 0


def test_l1linf_leaf_is_tight():
    rng = np.random.default_rng(3)
    tree = build_tree(3)
    mu = np.zeros(tree.size)
    mu[1:] = rng.uniform(size=tree.size - 1)
    g = tree_descendant_sum(mu, tree)
    h = np.zeros(tree.size)
    h[1:] = rng.uniform(size=tree.size - 1)
    leaf = tree.size - 1
    lhs, rhs = check_l1linf(g, h, leaf, tree)
    assert np.isclose(lhs, g[leaf] * h[leaf])
    assert np.isclose(rhs, lhs)


def test_l1linf_random_suite():
    rng = np.random.default_rng(4)
    tree = build_tree(3)
    for _ in range(100):
        mu = np.zeros(tree.size)
        mu[1:] = rng.uniform(size=tree.size - 1) * (rng.random(tree.size - 1) < 0.8)
        g = tree_descendant_sum(mu, tree)
        h = np.zeros(tree.size)
        h[1:] = rng.uniform(size=tree.size - 1)
        beta = int(rng.integers(1, tree.size))
        lhs, rhs = check_l1linf(g, h, beta, tree)
        assert lhs <= rhs * (1 + 1e-12) + 1e-15


def test_l1linf_rejects_non_superadditive():
    tree = build_tree(2)
    g = np.zeros(tree.size)
    g[4] = 1.0
    with pytest.raises(PreconditionError):
        check_l1linf(g, g, 1, tree)


def test_positive_kernel_identity_and_ones():
    n = 5
    f = np.ones(n)
    g = np.ones(n)
    lhs, rhs = check_positive_kernel(np.eye(n), f, g)
    assert np.isclose(lhs, n) and np.isclose(rhs, n)
    lhs, rhs = check_positive_kernel(np.ones((n, n)), f, g)
    assert np.isclose(lhs, n**3) and np.isclose(rhs, n**3)


def test_positive_kernel_random():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        lhs, rhs = check_positive_kernel(
            rng.uniform(size=(n, n)), rng.uniform(size=n), rng.uniform(size=n)
        )
        assert lhs <= rhs * (1 + 1e-12)


def test_positive_kernel_rejects_negative():
    with pytest.raises(PreconditionError):
        check_positive_kernel(np.array([[-1.0]]), np.ones(1), np.ones(1))


# ---------------------------------------------------------------------------
# tree majorant
# ---------------------------------------------------------------------------

def test_tree_majorant_zero_f():
    tree = build_tree(3)
    rng = np.random.default_rng(6)
    mu = np.zeros(tree.size)
    mu[1:] = rng.uniform(size=tree.size - 1)
    g = tree_descendant_sum(mu, tree)
    w = np.where(np.arange(tree.size) >= 1, 1.0, 0.0)
    res = majorant_tree(g, np.zeros(tree.size), w, 4.0, 1.0, tree)
    assert np.all(res.phi == 0)
    assert res.energy_in == 0


def test_tree_majorant_hand_path():
    # point mass at the leftmost leaf, unit weight, f at the root
    tree = build_tree(2)
    mu = np.zeros(tree.size)
    mu[4] = 1.0
    g = tree_descendant_sum(mu, tree)  # 1 on {4, 2, 1}
    w = np.where(np.arange(tree.size) >= 1, 1.0, 0.0)
    f = np.zeros(tree.size)
    f[1] = 1.0
    res = majorant_tree(g, f, w, lam=4.0, delta=1.0, tree=tree)
    assert np.allclose(res.phi, [0, 0, 0.25, 0, 0.25, 0, 0, 0])
    iwg = res.extras["iwg"]
    assert list(res.band_mask.nonzero()[0]) == [4]
    # telescoping: I(w phi)(4) * lam == I(wf)(4) * (I(wg)(4) - I(wg)(alpha_min))
    amin = first_ancestor_leq(tree, iwg, 4, 1.0)
    assert amin == 1
    assert np.isclose(res.extras["iwphi"][4] * 4.0, 1.0 * (iwg[4] - iwg[amin]))
    assert res.lower_bound_const >= 0.5 - 1.0 / 4.0


def test_tree_majorant_preconditions():
    tree = build_tree(2)
    g = np.zeros(tree.size)
    g[4] = 1.0  # not superadditive
    w = np.ones(tree.size)
    w[0] = 0.0
    with pytest.raises(PreconditionError):
        majorant_tree(g, np.zeros(tree.size), w, 4.0, 1.0, tree)
    mu = np.zeros(tree.size)
    mu[4:] = 1.0
    g = tree_descendant_sum(mu, tree)
    with pytest.raises(PreconditionError):
        majorant_tree(g, g, w, 1.0, 1.0, tree)  # lam < 4 delta
    f_bad = np.where(np.arange(tree.size) >= 1, 1.0, 0.0)
    iwg = tree_ancestor_sum(w * g, tree)
    delta = float(iwg[1:].min())  # support condition fails deeper down
    with pytest.raises(PreconditionError):
        majorant_tree(g, f_bad, w, 4 * delta, delta, tree)


def test_tree_majorant_random_suite():
    rng = np.random.default_rng(7)
    bands = 0
    for trial in range(200):
        tree = build_tree(int(rng.integers(2, 6)))
        data = tree_majorant_data(tree, rng)
        if data is None:
            continue
        g, f, w, lam, delta = data
        res = majorant_tree(g, f, w, lam, delta, tree)
        bound = 2 * (delta / lam) * res.energy_ref
        assert res.energy_in <= bound * (1 + 1e-9) + 1e-15
        iwg, iwf, iwphi = res.extras["iwg"], res.extras["iwf"], res.extras["iwphi"]
        for node in np.nonzero(res.band_mask)[0]:
            amin = first_ancestor_leq(tree, iwg, int(node), delta)
            sub = iwg[amin] if amin is not None else 0.0
            lhs = iwphi[node] * lam
            rhs = iwf[node] * (iwg[node] - sub)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-12)
        if res.lower_bound_const is not None:
            bands += 1
            assert res.lower_bound_const >= (0.5 - delta / lam) * (1 - 1e-9)
    assert bands >= 50  # the generator must actually exercise the band bound


# ---------------------------------------------------------------------------
# bi-tree majorant
# ---------------------------------------------------------------------------

def test_bitree_majorant_zero_m():
    topo = build_bitree(2, 2)
    w = WeightFunction.constant(topo)
    res = majorant_bitree(topo.zeros(), w, 4.0, 1.0, topo)
    assert np.all(res.phi == 0)


def test_bitree_majorant_hand_slices():
    # point mass pushed through a three-node up-set; a single slice survives
    topo = build_bitree(1, 1)
    mask = np.zeros(topo.shape, dtype=bool)
    mask[1, 1] = mask[1, 2] = mask[2, 1] = True
    atom = topo.zeros()
    atom[2, 2] = 1.0
    m = hardy_adjoint(topo, atom) * mask
    w = WeightFunction.product(topo, np.array([0.0, 1, 1, 1]), np.array([0.0, 1, 1, 1]))
    res = majorant_bitree(m, w, lam=8.0, delta=2.0, topo=topo)
    expected = topo.zeros()
    expected[2, 2] = 1 / 8
    assert np.allclose(res.phi, expected)
    assert res.energy_in <= 2 * (2.0 / 8.0) * res.energy_ref


def test_bitree_majorant_requires_product_weight():
    topo = build_bitree(1, 1)
    w = WeightFunction.general(topo, np.where(topo.valid_mask(), 1.0, 0.0))
    with pytest.raises(PreconditionError):
        majorant_bitree(topo.zeros(), w, 4.0, 1.0, topo)


def _check_majorant_bounds(topo, m, w, lam, delta):
    """Energy bound, telescoping floor on the half band, and the pinned 1/8
    constant wherever the full band is populated.  Returns half-band count."""
    res = majorant_bitree(m, w, lam, delta, topo)
    bound = 2 * (delta / lam) * res.energy_ref
    assert res.energy_in <= bound * (1 + 1e-9) + 1e-15
    iwm, iwphi = res.extras["iwm"], res.extras["iwphi"]
    factor = 0.5 - delta / lam
    half_band = (iwm > lam / 2) & (iwm <= 2 * lam)
    half_band[0, :] = False
    half_band[:, 0] = False
    for node in zip(*np.nonzero(half_band)):
        floor = y_telescope_floor(topo, iwm, node, lam)
        assert iwphi[node] >= factor * floor - 1e-9 * max(1.0, abs(floor))
    if res.lower_bound_const is not None:
        assert res.lower_bound_const >= 1 / 8 - 1e-12
    return int(half_band.sum())


def test_bitree_majorant_random_suite():
    rng = np.random.default_rng(8)
    ran = 0
    for trial in range(120):
        topo = build_bitree(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        data = bitree_majorant_data(topo, rng)
        if data is None:
            continue
        ran += 1
        m, w, lam, delta = data
        _check_majorant_bounds(topo, m, w, lam, delta)
    assert ran >= 80


def test_bitree_majorant_telescope_on_deep_corner_atom():
    # concentrated mass makes the truncated potential overshoot delta by a
    # factor above 2, so the telescoping floor is exercised on a real band
    total_half_band = 0
    for depth in [6, 7]:
        topo = build_bitree(depth, depth)
        mv = topo.zeros()
        mv[1 << depth, 1 << depth] = 1.0
        mu = MassFunction(topo, mv)
        w = WeightFunction.constant(topo)
        from bitree_embed.operators import hardy_forward

        v = potential(mu, w).values
        best = None
        for delta in np.unique(v[v > 0]):
            mask = (v <= delta) & topo.valid_mask()
            m = hardy_adjoint(topo, mu.values) * mask
            iwm_max = float(hardy_forward(topo, w.values * m).max())
            score = iwm_max / delta
            if best is None or score > best[0]:
                best = (score, float(delta))
        score, delta = best
        assert score > 2.0, "expected a truncation blow-up above 2 at this depth"
        mask = (v <= delta) & topo.valid_mask()
        m = hardy_adjoint(topo, mu.values) * mask
        total_half_band += _check_majorant_bounds(topo, m, w, 4 * delta, delta)
    assert total_half_band >= 10


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

def test_balance_point_mass_closed_form():
    topo = build_bitree(2, 2)
    corner = (4, 4)
    mv = topo.zeros()
    mv[corner] = 1.0
    nu = MassFunction(topo, mv)
    w = WeightFunction.constant(topo)
    a = energy(nu, w) / float(nu.total_mass)  # = 9 at depth (2,2)
    assert a == 9.0
    ds, trimmed, diag = balance(nu, w, a)
    v_scaled = potential(nu.scaled(3.0 / a), w).values
    expected = topo.valid_mask() & (v_scaled > 1.0)
    assert np.array_equal(ds.mask, expected)
    assert diag["iterations"] <= 2
    vt = potential(trimmed, w).values
    assert np.all(vt[ds.mask] >= a / 3 - 1e-12)
    assert energy(trimmed, w) >= energy(nu, w) / 3 - 1e-12


def test_balance_rejects_zero_mass_and_low_energy():
    topo = build_bitree(1, 1)
    w = WeightFunction.constant(topo)
    with pytest.raises(PreconditionError):
        balance(MassFunction.zeros(topo), w, 1.0)
    mv = topo.zeros()
    mv[2, 2] = 1.0
    nu = MassFunction(topo, mv)
    big_a = energy(nu, w) / float(nu.total_mass) * 2
    with pytest.raises(PreconditionError):
        balance(nu, w, big_a)


def test_balance_randomized_guarantees():
    rng = np.random.default_rng(9)
    for trial in range(150):
        topo = build_bitree(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        mv = np.where(
            topo.valid_mask(),
            rng.uniform(size=topo.shape) * (rng.random(topo.shape) < 0.7),
            0.0,
        )
        nu = MassFunction(topo, mv)
        if float(nu.total_mass) == 0:
            continue
        wv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
        w = WeightFunction.general(topo, wv)
        e0 = energy(nu, w)
        if e0 <= 0:
            continue
        # include the equality case a = energy/mass
        a = e0 / float(nu.total_mass) * (1.0 if trial % 3 == 0 else float(rng.uniform(0.2, 1.0)))
        ds, trimmed, _ = balance(nu, w, a)
        assert is_down_mask(topo, ds.mask)
        vt = potential(trimmed, w).values
        assert np.all(vt[ds.mask] >= a / 3 * (1 - 1e-9))
        assert energy(trimmed, w) >= e0 / 3 * (1 - 1e-12)


# ---------------------------------------------------------------------------
# pointwise dichotomy
# ---------------------------------------------------------------------------

def test_dichotomy_small_suite():
    rng = np.random.default_rng(10)
    for _ in range(60):
        topo = build_bitree(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        mv = np.where(
            topo.valid_mask(),
            rng.uniform(size=topo.shape) * (rng.random(topo.shape) < 0.7),
            0.0,
        )
        mu = MassFunction(topo, mv)
        wv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
        w = WeightFunction.general(topo, wv)
        v = potential(mu, w).values
        eps = float(rng.uniform(0.02, 1.0)) * max(float(v.max()), 1e-6)
        vg = v_good(mu, w, eps)
        _, v4 = truncated_potential(mu, w, 4 * eps)
        ok = (vg > eps) | (v4.values >= v / 2 - 1e-12 * np.maximum(v, 1.0))
        assert ok[1:, 1:].all()


# ---------------------------------------------------------------------------
# truncated-potential ratio probe
# ---------------------------------------------------------------------------

def _product_instance(seed, dx=2, dy=2):
    rng = np.random.default_rng(seed)
    topo = build_bitree(dx, dy)
    mv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape) * (rng.random(topo.shape) < 0.8), 0.0)
    wx = np.zeros(topo.tree_x.size)
    wx[1:] = rng.uniform(0.1, 1, size=topo.tree_x.size - 1)
    wy = np.zeros(topo.tree_y.size)
    wy[1:] = rng.uniform(0.1, 1, size=topo.tree_y.size - 1)
    return topo, MassFunction(topo, mv), WeightFunction.product(topo, wx, wy)


def test_cece_requires_product():
    topo, mu, _ = _product_instance(0)
    w = WeightFunction.general(topo, np.where(topo.valid_mask(), 1.0, 0.0))
    with pytest.raises(PreconditionError):
        cEcE_ratio(mu, mu, w, 1.0)


def test_cece_reduction_at_large_delta():
    topo, mu, w = _product_instance(1)
    v = potential(mu, w).values
    delta = float(v.max()) * 2 + 1
    rep = cEcE_ratio(mu, mu, w, delta)
    e = energy(mu, w)
    assert np.isclose(rep.lhs, e)
    assert np.isclose(rep.rhs_bundle, delta * e * e * float(mu.total_mass))
    assert np.isclose(rep.ratio, e / (delta * float(mu.total_mass)))


def test_cece_single_tree_pair_bounds():
    rng = np.random.default_rng(2)
    topo = build_bitree(4, 0)
    mv = topo.zeros()
    mv[16:32, 1] = rng.uniform(size=16)
    mu = MassFunction(topo, mv)
    rv = topo.zeros()
    rv[16:32, 1] = rng.uniform(size=16)
    rho = MassFunction(topo, rv)
    wx = np.zeros(topo.tree_x.size)
    wx[1:] = rng.uniform(0.1, 1, size=topo.tree_x.size - 1)
    w = WeightFunction.product(topo, wx, np.array([0.0, 1.0]))
    v = potential(mu, w).values
    for q in [0.3, 0.6, 0.9]:
        delta = float(np.quantile(v[1:, 1], q))
        if delta <= 0:
            continue
        rep = cEcE_ratio(mu, rho, w, delta)
        cap = min(delta * float(rho.total_mass),
                  float(np.sqrt(energy_delta(mu, w, delta) * energy(rho, w))))
        assert rep.lhs <= cap * (1 + 1e-9) + 1e-12


def test_cece_scaling_invariance():
    topo, mu, w = _product_instance(3)
    rng = np.random.default_rng(4)
    rv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    rho = MassFunction(topo, rv)
    delta = float(np.quantile(potential(mu, w).values[1:, 1:], 0.7))
    base = cEcE_ratio(mu, rho, w, delta)
    c = 2.5
    joint = cEcE_ratio(mu.scaled(c), rho, w, c * delta)
    assert np.isclose(joint.ratio, base.ratio)
    rho_scaled = cEcE_ratio(mu, rho.scaled(c), w, delta)
    assert np.isclose(rho_scaled.ratio, base.ratio)
