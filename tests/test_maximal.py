import random
from fractions import Fraction

import numpy as np
import pytest

from bitree_embed.constants import carleson_constant, embedding_constant
from bitree_embed.counterexamples import gen_simple_car_not_rec
from bitree_embed.instances import MASS_KINDS, random_mass
from bitree_embed.maximal import (
    FEAS_TOL,
    extremal_weight,
    maximal_equivalence_probe,
    maximal_function,
    maximal_norm_ratio,
    sparse_selection,
)
from bitree_embed.operators import MassFunction, hardy_adjoint
from bitree_embed.trees import build_bitree, is_down_mask
from _oracles import flow_network_selection


def random_boundary_mass(topo, rng, density=0.8):
    lx, ly = topo.tree_x.leaf_start, topo.tree_y.leaf_start
    v = topo.zeros()
    shape = (topo.tree_x.size - lx, topo.tree_y.size - ly)
    v[lx:, ly:] = rng.uniform(0.1, 1.0, size=shape) * (rng.random(shape) < density)
    return MassFunction(topo, v)


def test_constant_function_has_constant_maximal():
    rng = np.random.default_rng(0)
    topo = build_bitree(2, 2)
    mu = random_boundary_mass(topo, rng)
    psi = np.where(topo.valid_mask(), 2.5, 0.0)
    m = maximal_function(mu, psi)
    assert np.allclose(m[mu.values > 0], 2.5)


def test_maximal_matches_bruteforce():
    rng = np.random.default_rng(1)
    topo = build_bitree(2, 1)
    mu = random_boundary_mass(topo, rng)
    psi = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    m = maximal_function(mu, psi)
    num = hardy_adjoint(topo, psi * mu.values)
    den = hardy_adjoint(topo, mu.values)
    for node in topo.nodes():
        want = max(
            (num[a] / den[a] for a in topo.nodes() if topo.leq(node, a) and den[a] > 0),
            default=0.0,
        )
        assert abs(m[node] - want) <= 1e-12


def test_superlevel_sets_are_down_sets():
    rng = np.random.default_rng(2)
    topo = build_bitree(2, 2)
    mu = random_boundary_mass(topo, rng)
    psi = np.where(topo.valid_mask(), rng.pareto(2.0, size=topo.shape), 0.0)
    m = maximal_function(mu, psi)
    for s in np.quantile(m[m > 0], [0.1, 0.4, 0.7, 0.95]):
        mask = m > s
        mask[0, :] = False
        mask[:, 0] = False
        assert is_down_mask(topo, mask)


def test_extremal_weight_constant_psi():
    rng = np.random.default_rng(3)
    topo = build_bitree(1, 1)
    mu = random_boundary_mass(topo, rng, density=1.0)
    psi = np.where(topo.valid_mask(), 1.0, 0.0)
    w, audit = extremal_weight(mu, psi)
    assert abs(audit["identity_lhs"] - float(mu.total_mass)) <= 1e-12
    assert abs(audit["identity_lhs"] - audit["identity_rhs"]) <= 1e-12
    # claimed mass sits at the claiming nodes: sum w (descendant mass)^2 = |mu|
    istar = hardy_adjoint(topo, mu.values)
    assert abs(float((w.values * istar * istar).sum()) - float(mu.total_mass)) <= 1e-12


def test_extremal_weight_rejects_bad_psi():
    rng = np.random.default_rng(4)
    topo = build_bitree(1, 1)
    mu = random_boundary_mass(topo, rng)
    with pytest.raises(ValueError):
        extremal_weight(mu, np.zeros(topo.shape))
    neg = np.where(topo.valid_mask(), -1.0, 0.0)
    with pytest.raises(ValueError):
        extremal_weight(mu, neg)


@pytest.mark.parametrize("seed", range(6))
def test_extremal_weight_audits_float(seed):
    rng = np.random.default_rng(seed)
    topo = build_bitree(2, 2)
    mu = random_boundary_mass(topo, rng)
    psi = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    w, audit = extremal_weight(mu, psi)
    gap = abs(audit["identity_lhs"] - audit["identity_rhs"])
    assert gap <= 1e-10 * max(1.0, audit["identity_lhs"])
    c = carleson_constant(mu, w)
    assert float(c.value) <= 1 + 1e-9
    ce = embedding_constant(mu, w)
    assert float(ce.value) >= maximal_norm_ratio(mu, psi) - 1e-9


@pytest.mark.parametrize("depth", [(1, 1), (2, 1), (3, 3)])
def test_extremal_weight_audits_exact(depth):
    rng = np.random.default_rng(sum(depth))
    topo = build_bitree(*depth)
    mv = topo.zeros(dtype=object)
    for node in topo.boundary():
        if rng.random() < 0.8:
            mv[node] = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
    mu = MassFunction(topo, mv)
    psi = topo.zeros(dtype=object)
    for node in topo.nodes():
        psi[node] = Fraction(int(rng.integers(0, 7)), 3)
    w, audit = extremal_weight(mu, psi)
    assert audit["identity_lhs"] == audit["identity_rhs"]
    c = carleson_constant(mu, w)
    assert c.value <= 1


def test_extremal_weight_shuffled_claim_order():
    rng = np.random.default_rng(9)
    topo = build_bitree(1, 1)
    mv = topo.zeros(dtype=object)
    for node in topo.boundary():
        mv[node] = Fraction(int(rng.integers(1, 5)), 2)
    mu = MassFunction(topo, mv)
    psi = topo.zeros(dtype=object)
    for node in topo.nodes():
        psi[node] = Fraction(int(rng.integers(0, 5)))
    order = list(topo.nodes())
    random.Random(5).shuffle(order)
    w, audit = extremal_weight(mu, psi, order=order)
    assert audit["identity_lhs"] == audit["identity_rhs"]
    assert carleson_constant(mu, w).value <= 1


def test_layer_cake_pairwise_upper_bound():
    # any weight with unit down-set constant embeds below the squared
    # maximal norm of every test function, across sample pairs
    from bitree_embed.maximal import random_test_functions

    rng = np.random.default_rng(21)
    topo = build_bitree(2, 2)
    mu = random_boundary_mass(topo, rng)
    psis = list(random_test_functions(topo, 6, seed=5))
    weights = [extremal_weight(mu, p)[0] for p in psis]
    for w in weights:
        assert float(carleson_constant(mu, w).value) <= 1 + 1e-9
        for psi in psis:
            lhs = float((w.values * hardy_adjoint(topo, psi * mu.values) ** 2).sum())
            den = float((psi * psi * mu.values).sum())
            rhs = maximal_norm_ratio(mu, psi) * den
            assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_probe_depth_zero_trivial():
    topo = build_bitree(0, 0)
    mv = topo.zeros()
    mv[1, 1] = 1.0
    rep = maximal_equivalence_probe(MassFunction(topo, mv), sample_count=5, seed=0)
    assert np.isclose(rep.embedding_estimate, 1.0)
    assert np.isclose(rep.maximal_estimate, 1.0)


def test_probe_single_tree_bound_four():
    rng = np.random.default_rng(10)
    topo = build_bitree(5, 0)
    mv = topo.zeros()
    mv[32:64, 1] = rng.uniform(0.2, 1.0, size=32)
    rep = maximal_equivalence_probe(MassFunction(topo, mv), sample_count=40, seed=1,
                                    certify_carleson=True)
    assert rep.carleson_certified
    assert rep.embedding_estimate <= 4 + 1e-6
    assert rep.maximal_estimate <= 4 + 1e-6
    # per sample the embedding constant dominates the maximal ratio
    for entry in rep.per_sample:
        assert entry["embedding"] >= entry["maximal"] - 1e-9


def test_probe_product_mass_bound_sixteen():
    rng = np.random.default_rng(11)
    topo = build_bitree(2, 2)
    pm = topo.zeros()
    pm[4:8, 4:8] = np.outer(rng.uniform(0.2, 1, size=4), rng.uniform(0.2, 1, size=4))
    rep = maximal_equivalence_probe(MassFunction(topo, pm), sample_count=40, seed=2)
    assert rep.embedding_estimate <= 16 + 1e-6


def test_probe_estimates_converge_on_deep_tree():
    rng = np.random.default_rng(12)
    topo = build_bitree(6, 0)
    mv = topo.zeros()
    mv[64:128, 1] = rng.uniform(0.2, 1.0, size=64)
    rep = maximal_equivalence_probe(MassFunction(topo, mv), sample_count=200, seed=3)
    assert rep.samples >= 200
    assert rep.embedding_estimate <= 4 + 1e-6
    # both estimates chase the same supremum
    assert rep.gap <= 0.05 * rep.embedding_estimate


# ---------------------------------------------------------------------------
# sparse selection
# ---------------------------------------------------------------------------

def test_selection_disjoint_collection():
    rng = np.random.default_rng(13)
    topo = build_bitree(2, 2)
    mu = random_boundary_mass(topo, rng, density=1.0)
    istar = hardy_adjoint(topo, mu.values)
    coll = [(2, 4), (3, 4)]  # left and right half of the square
    wts = [1.0 / istar[q] for q in coll]
    sel = sparse_selection(mu, coll, wts)
    assert sel.feasible
    for i, q in enumerate(coll):
        assert sel.per_member_total[i] >= wts[i] * istar[q] ** 2 - 1e-9
    node_tot = {}
    for (i, node), amount in sel.assignment.items():
        assert topo.leq(node, coll[i])
        node_tot[node] = node_tot.get(node, 0.0) + amount
    for node, total in node_tot.items():
        assert total <= mu.values[node] + 1e-9


def test_selection_nested_infeasible_yields_union():
    rng = np.random.default_rng(14)
    topo = build_bitree(2, 2)
    mu = random_boundary_mass(topo, rng, density=1.0)
    istar = hardy_adjoint(topo, mu.values)
    coll = [(1, 1), (2, 1)]
    wts = [1.2 / istar[(1, 1)], 1.0 / istar[(2, 1)]]
    sel = sparse_selection(mu, coll, wts)
    assert not sel.feasible
    union = sel.violating_union
    demand = sum(wts[i] * istar[q] ** 2 for i, q in enumerate(coll) if union[q])
    assert demand > float((mu.values * union).sum())


def test_selection_feasibility_matches_union_condition():
    rng = np.random.default_rng(15)
    agree = 0
    for trial in range(60):
        topo = build_bitree(2, 1)
        mu = random_boundary_mass(topo, rng, density=0.9)
        if float(mu.total_mass) == 0:
            continue
        istar = hardy_adjoint(topo, mu.values)
        nodes = [n for n in topo.nodes() if istar[n] > 0]
        count = int(rng.integers(2, 6))
        coll = [nodes[int(rng.integers(len(nodes)))] for _ in range(count)]
        coll = list(dict.fromkeys(coll))
        wts = [float(rng.uniform(0.2, 1.6)) / istar[q] for q in coll]
        sel = sparse_selection(mu, coll, wts)
        # union condition by explicit subfamily enumeration
        feas = True
        for bits in range(1, 1 << len(coll)):
            members = [i for i in range(len(coll)) if bits >> i & 1]
            union = np.zeros(topo.shape, dtype=bool)
            for i in members:
                union[coll[i]] = True
            from bitree_embed.trees import down_closure

            union = down_closure(topo, union)
            demand = sum(wts[i] * istar[coll[i]] ** 2 for i in range(len(coll))
                         if union[coll[i]])
            if demand > float((mu.values * union).sum()) + 1e-9:
                feas = False
                break
        assert sel.feasible == feas, trial
        agree += 1
    assert agree >= 40


def test_selection_monotone_under_weight_scaling():
    rng = np.random.default_rng(16)
    topo = build_bitree(2, 1)
    mu = random_boundary_mass(topo, rng, density=1.0)
    istar = hardy_adjoint(topo, mu.values)
    coll = [(1, 1), (2, 2), (4, 2)]
    wts = [2.0 / istar[q] for q in coll]
    sel = sparse_selection(mu, coll, wts)
    if not sel.feasible:
        smaller = sparse_selection(mu, coll, [0.25 * w for w in wts])
        assert smaller.feasible or not sel.feasible
    down = sparse_selection(mu, coll, [w * 0.1 for w in wts])
    assert down.feasible


def test_selection_json_serialization():
    import json

    rng = np.random.default_rng(17)
    topo = build_bitree(1, 1)
    mu = random_boundary_mass(topo, rng, density=1.0)
    istar = hardy_adjoint(topo, mu.values)
    coll = [(2, 1), (3, 1)]
    sel = sparse_selection(mu, coll, [0.5 / istar[q] for q in coll])
    payload = sel.to_json(topo)
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["feasible"] is True
    assert len(back["demands"]) == 2
    for q_idx, node_gens, amount in back["assignment"]:
        assert amount > 0
    infeasible = sparse_selection(mu, [(1, 1)], [10.0 / istar[(1, 1)]])
    payload = infeasible.to_json(topo)
    assert payload["feasible"] is False
    assert payload["violating_union"]


def test_selection_staircase_family_scaled_by_carleson_bound():
    mu, w = gen_simple_car_not_rec(6)
    topo = mu.topo
    weighted = [(int(a), int(b)) for a, b in zip(*np.nonzero(w.values))]
    wts = [w.values[q] / 4.0 for q in weighted]  # scale by the down-set bound
    sel = sparse_selection(mu, weighted, wts)
    assert sel.feasible
    istar = hardy_adjoint(topo, mu.values)
    for i, q in enumerate(weighted):
        assert sel.per_member_total[i] >= wts[i] * istar[q] ** 2 - 1e-9


def selection_cases(count):
    """Random packings on bi-trees up to depth (3,3); every third has exact
    ``Fraction`` masses and weights.  Demands are 0.05-1.25 times each
    member's own mass, so both verdicts occur."""
    to_fraction = np.vectorize(Fraction, otypes=[object])
    for trial in range(count):
        rng = np.random.default_rng(20_000 + trial)
        topo = build_bitree(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        mu = random_mass(topo, rng, MASS_KINDS[trial % 3])
        if float(mu.total_mass) == 0:
            continue
        exact = trial % 3 == 0
        if exact:
            mu = MassFunction(topo, to_fraction(mu.values))
        istar = hardy_adjoint(topo, mu.values)
        nodes = [n for n in topo.nodes() if istar[n] > 0]
        coll = list(dict.fromkeys(
            nodes[int(rng.integers(len(nodes)))] for _ in range(int(rng.integers(1, 7)))
        ))
        scale = [Fraction(int(rng.integers(1, 26)), 20) if exact else float(rng.uniform(0.05, 1.25))
                 for _ in coll]
        yield mu, coll, [a / istar[q] for a, q in zip(scale, coll)]


def test_selection_matches_flow_network_referee():
    """One closure call decides as the hand-built flow network does, finds
    the same violating union, and its arc flows are a valid packing."""
    verdicts = {True: 0, False: 0}
    for mu, coll, wts in selection_cases(240):
        topo = mu.topo
        sel = sparse_selection(mu, coll, wts)
        feasible, union = flow_network_selection(mu, coll, wts)
        assert sel.feasible == feasible
        verdicts[feasible] += 1
        if not feasible:
            assert np.array_equal(sel.violating_union, union)
            continue
        exact = mu.values.dtype == object
        total = sum(sel.demands)
        slack = 0 if exact else FEAS_TOL * max(1.0, float(total))
        tol = 0 if exact else 1e-12 * max(1.0, float(total))
        got = [0] * len(coll)
        at_point = {}
        for (i, node), amount in sel.assignment.items():
            assert amount > 0 and topo.leq(node, coll[i])
            got[i] += amount
            at_point[node] = at_point.get(node, 0) + amount
        for i, d in enumerate(sel.demands):
            assert sel.per_member_total[i] == got[i]
            assert got[i] >= d - slack
        for node, amount in at_point.items():
            assert amount <= mu.values[node] + tol
    assert min(verdicts.values()) >= 50, verdicts
