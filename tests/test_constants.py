import json
import tracemalloc

import numpy as np
import pytest

from bitree_embed.constants import (
    box_constant,
    carleson_constant,
    embedding_constant,
    embedding_quadratic_form,
    hereditary_constant,
    lca_kernel,
    sawyer_conditions,
    verify_chain,
)
from bitree_embed.counterexamples import gen_simple_car_not_rec
from bitree_embed.instances import (
    MASS_KINDS,
    WEIGHT_KINDS,
    random_instance,
    random_mass,
    random_weight,
    small_oracle_instance,
)
from bitree_embed.operators import (
    MassFunction,
    WeightFunction,
    energy,
    energy_box,
    energy_density,
    energy_downset,
    hardy_adjoint,
    hardy_forward,
)
from bitree_embed.trees import build_bitree, is_down_mask
from _oracles import (
    brute_box,
    brute_carleson,
    brute_hereditary,
    dense_embedding_eig,
    kernel_hereditary,
    loop_lca_kernel,
    transitive_carleson,
)


def test_depth_zero_all_constants_coincide():
    topo = build_bitree(0, 0)
    mv = topo.zeros(); mv[1, 1] = 2.0
    wv = topo.zeros(); wv[1, 1] = 3.0
    mu, w = MassFunction(topo, mv), WeightFunction.general(topo, wv)
    vals = [box_constant(mu, w).value, carleson_constant(mu, w).value,
            hereditary_constant(mu, w).value, embedding_constant(mu, w).value]
    assert all(abs(v - 6.0) < 1e-10 for v in vals)
    rep = verify_chain(mu, w)
    assert rep.ok
    assert all(abs(r - 1.0) < 1e-9 for r in rep.ratios.values())


def test_zero_mass_reports():
    topo = build_bitree(1, 1)
    mu = MassFunction.zeros(topo)
    w = WeightFunction.constant(topo)
    for fn in (box_constant, carleson_constant, hereditary_constant, embedding_constant):
        rep = fn(mu, w)
        assert rep.value == 0
        assert rep.witness is None


@pytest.mark.parametrize("seed", range(12))
def test_box_matches_brute_scan(seed):
    _, mu, w = small_oracle_instance(seed)
    got = box_constant(mu, w).value
    want = brute_box(mu, w)
    assert abs(got - want) <= 1e-10 * max(1.0, want)


@pytest.mark.parametrize("seed", range(12))
def test_carleson_mincut_matches_enumeration(seed):
    _, mu, w = small_oracle_instance(seed)
    got = carleson_constant(mu, w, method="exact_mincut").value
    want = carleson_constant(mu, w, method="brute_force").value
    assert abs(float(got) - float(want)) <= 1e-9 * max(1.0, float(want))


def test_carleson_matches_subset_filter_oracle():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        topo = build_bitree(1, 1)
        mu = random_mass(topo, rng, "boundary")
        if float(mu.total_mass) == 0:
            continue
        w = random_weight(topo, rng, "general")
        got = float(carleson_constant(mu, w).value)
        want = brute_carleson(mu, w)
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_carleson_witness_reproduces_value():
    for seed in range(8):
        _, mu, w = small_oracle_instance(seed)
        rep = carleson_constant(mu, w)
        if rep.witness is None:
            continue
        mask = rep.witness["mask"]
        md = float((mu.values * mask).sum())
        assert md > 0
        ratio = energy_downset(mu, w, mask) / md
        assert abs(ratio - float(rep.value)) <= 1e-9 * max(1.0, ratio)


def _transitive_carleson_cases():
    for depth in [(2, 2), (3, 2), (3, 3)]:
        for mass_kind in MASS_KINDS:
            for weight_kind in WEIGHT_KINDS:
                yield random_instance(*depth, 0, mass_kind, weight_kind)[1:]
    for seed, weight_kind in enumerate(WEIGHT_KINDS):
        yield random_instance(4, 4, seed, "boundary", weight_kind)[1:]
    for n in (2, 3, 4, 6):
        yield gen_simple_car_not_rec(n, exact=True)


def test_carleson_matches_transitive_formulation():
    """Cover edges on the up-set with mass below give the same closure as
    edges between every comparable pair of nodes carrying energy or mass."""
    for mu, w in _transitive_carleson_cases():
        rep = carleson_constant(mu, w)
        value, mask, relevant = transitive_carleson(mu, w)
        assert rep.value == value
        assert np.array_equal(rep.witness["mask"], mask)
        assert rep.diagnostics["relevant_nodes"] == relevant


def test_carleson_depth_5_memory_and_depth_6_witness():
    _, mu, w = random_instance(5, 5, 0, "boundary", "product")
    tracemalloc.start()
    try:
        carleson_constant(mu, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20

    _, mu, w = random_instance(6, 6, 0, "boundary", "product")
    rep = carleson_constant(mu, w)
    mask = rep.witness["mask"]
    assert is_down_mask(mu.topo, mask)
    ratio = energy_downset(mu, w, mask) / (mu.values * mask).sum()
    assert abs(ratio - rep.value) <= 1e-12 * rep.value
    # here the optimal down-set is the whole bi-tree, whose ratio the two
    # solvers sum in different orders
    assert rep.value >= box_constant(mu, w).value * (1 - 1e-12)


def _support(mu):
    return [(int(a), int(b)) for a, b in zip(*np.nonzero(mu.values != 0))]


def test_lca_kernel_equals_pairwise_loop():
    cases = [random_instance(dx, dy, 10 * dx + dy, mass, "general")[1:]
             for dx, dy in [(0, 0), (0, 4), (4, 0), (2, 5), (5, 3)] for mass in MASS_KINDS]
    cases.append(gen_simple_car_not_rec(3, exact=True))
    for mu, w in cases:
        nodes = _support(mu)
        got = lca_kernel(mu.topo, nodes, w)
        want = loop_lca_kernel(mu.topo, nodes, w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()


def test_box_witness_reproduces_value():
    for seed in range(8):
        _, mu, w = small_oracle_instance(seed)
        rep = box_constant(mu, w)
        if rep.witness is None:
            continue
        beta = rep.witness["node"]
        denom = hardy_adjoint(mu.topo, mu.values)[beta]
        ratio = energy_box(mu, w, beta) / denom
        assert abs(ratio - float(rep.value)) <= 1e-9 * max(1.0, ratio)


def test_box_is_principal_downset_of_carleson():
    for seed in range(8):
        _, mu, w = small_oracle_instance(seed)
        assert float(box_constant(mu, w).value) <= float(carleson_constant(mu, w).value) + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_hereditary_enum_matches_definitional(seed):
    rng = np.random.default_rng(seed + 100)
    topo = build_bitree(2, 1)
    mu = random_mass(topo, rng, "boundary_atoms")
    supp = int(np.count_nonzero(mu.values))
    if not (0 < supp <= 12):
        mu = random_mass(topo, rng, "boundary_atoms")
    w = random_weight(topo, rng, "general")
    got = hereditary_constant(mu, w).value
    want = brute_hereditary(mu, w)
    assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_hereditary_witness_and_full_support_bound():
    for seed in range(6):
        _, mu, w = small_oracle_instance(seed)
        if float(mu.total_mass) == 0:
            continue
        rep = hereditary_constant(mu, w)
        full = energy(mu, w) / float(mu.total_mass)
        assert float(rep.value) >= full - 1e-12
        mask = rep.witness["mask"]
        restricted = mu.restrict(mask)
        ratio = float(energy_density(restricted, w).sum()) / float(restricted.total_mass)
        assert abs(ratio - float(rep.value)) <= 1e-9 * max(1.0, ratio)


def test_hereditary_certified_and_equal_to_brute():
    for seed in range(6):
        _, mu, w = small_oracle_instance(seed)
        if float(mu.total_mass) == 0:
            continue
        rep = hereditary_constant(mu, w)
        assert rep.certified
        want = brute_hereditary(mu, w)
        assert abs(float(rep.value) - want) <= 1e-9 * max(1.0, want)


def _chain_sweep_seed(support: int) -> int:
    """First seed of the chain_ratios_product_w sweep at N=3 with this support."""
    for s in range(3000, 4000):
        mu = random_mass(build_bitree(3, 3), np.random.default_rng(s), "boundary_atoms")
        if np.count_nonzero(mu.values) == support:
            return s
    raise AssertionError(f"no sweep seed with support {support}")


@pytest.mark.parametrize("support", range(15, 21))
def test_hereditary_matches_kernel_enumeration_beyond_brute(support):
    rng = np.random.default_rng(_chain_sweep_seed(support))
    topo = build_bitree(3, 3)
    mu = random_mass(topo, rng, "boundary_atoms")
    w = random_weight(topo, rng, "product")
    rep = hereditary_constant(mu, w)
    assert rep.certified
    assert rep.diagnostics["support"] == support
    want = kernel_hereditary(mu, w)
    assert abs(float(rep.value) - want) <= 1e-12 * want
    restricted = mu.restrict(rep.witness["mask"])
    ratio = float(energy_density(restricted, w).sum()) / float(restricted.total_mass)
    assert abs(ratio - float(rep.value)) <= 1e-12 * ratio


@pytest.mark.parametrize("seed", range(10))
def test_embedding_matches_dense_eigensolve(seed):
    _, mu, w = small_oracle_instance(seed)
    rep = embedding_constant(mu, w)
    want = dense_embedding_eig(mu, w)
    assert abs(float(rep.value) - want) <= 1e-8 * max(1.0, want)


def test_embedding_matches_eigensolve_at_support_64():
    rng = np.random.default_rng(77)
    topo = build_bitree(3, 3)
    mv = topo.zeros()
    mv[8:, 8:] = rng.uniform(0.1, 1.0, size=(8, 8))  # full boundary: 64 points
    mu = MassFunction(topo, mv)
    w = random_weight(topo, rng, "product")
    rep = embedding_constant(mu, w)
    want = dense_embedding_eig(mu, w)
    assert abs(float(rep.value) - want) <= 1e-8 * max(1.0, want)
    assert rep.certified


def test_embedding_depth_8_memory():
    # one reused grid per power iteration: 11.3 MB peak when every matvec
    # allocated fresh grids
    _, mu, w = random_instance(8, 8, 5, "boundary", "product")
    tracemalloc.start()
    try:
        rep = embedding_constant(mu, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.value > 0
    assert peak < 8 * 2**20


def test_embedding_near_degenerate_top_pair():
    # a swap-symmetric instance perturbed by epsilon has two nearly equal top
    # eigenvalues; the Rayleigh value must still match the dense solve
    for eps in [1e-3, 1e-6, 1e-9, 0.0]:
        topo = build_bitree(2, 2)
        rng = np.random.default_rng(5)
        base = rng.uniform(0.2, 1.0, size=(4, 4))
        mv = topo.zeros()
        mv[4:8, 4:8] = base + base.T
        mv[4, 5] += eps
        mu = MassFunction(topo, mv)
        wx = np.zeros(8)
        wx[1:] = rng.uniform(0.5, 1.0, size=7)
        w = WeightFunction.product(topo, wx, wx)
        rep = embedding_constant(mu, w)
        want = dense_embedding_eig(mu, w)
        assert abs(float(rep.value) - want) <= 1e-8 * max(1.0, want)


def test_embedding_witness_is_rayleigh_vector():
    _, mu, w = small_oracle_instance(3)
    rep = embedding_constant(mu, w)
    psi = rep.witness["values"]
    num, den = embedding_quadratic_form(mu, w, psi)
    assert den > 0
    assert abs(num / den - float(rep.value)) <= 1e-9 * max(1.0, float(rep.value))


def test_embedding_dominates_subset_ratios():
    # every restriction gives a Rayleigh quotient with an indicator function
    for seed in range(5):
        _, mu, w = small_oracle_instance(seed)
        if float(mu.total_mass) == 0:
            continue
        ce = float(embedding_constant(mu, w).value)
        hc = float(hereditary_constant(mu, w).value)
        assert hc <= ce + 1e-8 * max(1.0, ce)


def test_homogeneity_in_mass_and_weight():
    _, mu, w = small_oracle_instance(11)
    c = 3.25
    for fn in (box_constant, carleson_constant, hereditary_constant, embedding_constant):
        v = float(fn(mu, w).value)
        v_mass = float(fn(mu.scaled(c), w).value)
        v_weight = float(fn(mu, w.scaled(c)).value)
        assert abs(v_mass - c * v) <= 1e-8 * max(1.0, c * v)
        assert abs(v_weight - c * v) <= 1e-8 * max(1.0, c * v)


def test_chain_on_random_instances():
    for seed in range(20):
        _, mu, w = small_oracle_instance(seed + 500)
        if float(mu.total_mass) == 0:
            continue
        rep = verify_chain(mu, w)
        assert rep.ok, rep.violations


def test_report_json_roundtrip():
    _, mu, w = small_oracle_instance(2)
    for fn in (box_constant, carleson_constant, hereditary_constant, embedding_constant):
        payload = fn(mu, w).to_json()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["kind"] == payload["kind"]
        assert isinstance(back["value"], (int, float))
    chain = verify_chain(mu, w).to_json()
    json.dumps(chain, sort_keys=True)


def test_dinkelbach_terminates_with_small_surplus():
    _, mu, w = small_oracle_instance(4)
    rep = carleson_constant(mu, w)
    assert rep.diagnostics["iterations"] <= 50


# ---------------------------------------------------------------------------
# hooked-weight battery
# ---------------------------------------------------------------------------

def _hooked_instance(seed, dx=3, dy=2):
    rng = np.random.default_rng(seed)
    topo = build_bitree(dx, dy)
    w = random_weight(topo, rng, "hooked")
    mu = random_mass(topo, rng, "boundary")
    return topo, mu, w


def test_sawyer_requires_hooked_tag():
    _, mu, w = small_oracle_instance(0)
    with pytest.raises(ValueError):
        sawyer_conditions(mu, w)


def test_sawyer_zero_mass():
    topo, _, w = _hooked_instance(0)
    mu = MassFunction.zeros(topo)
    assert sawyer_conditions(mu, w) == (0.0, 0.0, 0.0)


def test_sawyer_a3_is_box_constant():
    for seed in range(6):
        topo, mu, w = _hooked_instance(seed)
        _, _, a3 = sawyer_conditions(mu, w)
        box = float(box_constant(mu, w).value)
        assert abs(a3 * a3 - box) <= 1e-9 * max(1.0, box)


def test_sawyer_brute_force_definitions():
    topo, mu, w = _hooked_instance(7)
    a1, a2, a3 = sawyer_conditions(mu, w)
    iw = hardy_forward(topo, w.values)
    istar = hardy_adjoint(topo, mu.values)
    anchor = w.anchor
    grid_nodes = [n for n in topo.nodes() if topo.leq(anchor, n)]
    want1 = max(istar[n] * iw[n] for n in grid_nodes)
    assert abs(a1 * a1 - want1) <= 1e-9 * max(1.0, want1)
    best2 = 0.0
    best3 = 0.0
    e = energy_density(mu, w)
    for beta in grid_nodes:
        above = [a for a in grid_nodes if topo.leq(beta, a)]
        num2 = sum(mu.values[a] * iw[a] ** 2 for a in above)
        if iw[beta] > 0:
            best2 = max(best2, num2 / iw[beta])
        between = [a for a in grid_nodes if topo.leq(a, beta)]
        num3 = sum(e[a] for a in between)
        if istar[beta] > 0:
            best3 = max(best3, num3 / istar[beta])
    assert abs(a2 * a2 - best2) <= 1e-9 * max(1.0, best2)
    assert abs(a3 * a3 - best3) <= 1e-9 * max(1.0, best3)


def test_sawyer_constant_weight_tracks_embedding():
    # with the weight identically one on the anchor's ancestors the third
    # test governs; the embedding constant stays within a bounded multiple
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        topo = build_bitree(2, 2)
        anchor = (int(rng.integers(4, 8)), int(rng.integers(4, 8)))
        wv = topo.zeros()
        for ix in topo.tree_x.ancestors(anchor[0]):
            for iy in topo.tree_y.ancestors(anchor[1]):
                wv[ix, iy] = 1.0
        w = WeightFunction.hooked(topo, anchor, wv)
        mu = random_mass(topo, rng, "boundary")
        if float(mu.total_mass) == 0:
            continue
        a1, a2, a3 = sawyer_conditions(mu, w)
        ce = float(embedding_constant(mu, w).value)
        assert max(a1, a2, a3) > 0
        worst = max(worst, ce / (a3 * a3))
    assert worst < 50.0
