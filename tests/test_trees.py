import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitree_embed.trees import (
    DownSet,
    SizeError,
    UpSet,
    ancestor_sweep,
    bitree_cover_arcs,
    bitree_sweep,
    build_bitree,
    build_tree,
    descendant_sweep,
    down_closure,
    is_down_mask,
    is_up_mask,
    up_closure,
)

from _oracles import enumerate_down_sets, iter_ideal_bitmasks, loop_antichain


def test_node_counts():
    assert build_tree(0).node_count == 1
    assert build_tree(3).node_count == 15
    t = build_bitree(0, 0)
    assert t.node_count == 1
    assert t.boundary_count == 1
    t = build_bitree(1, 1)
    assert t.node_count == 9
    assert t.boundary_count == 4
    t = build_bitree(8, 8)
    assert t.node_count == 511 * 511 == 261121


def test_dense_cap():
    with pytest.raises(SizeError):
        build_bitree(15, 15)
    # explicit cap override
    build_bitree(3, 3, max_entries=16 * 16)
    with pytest.raises(SizeError):
        build_bitree(3, 3, max_entries=100)


def test_parent_child_structure():
    tree = build_tree(3)
    for i in range(1, tree.size):
        if i == 1:
            assert tree.parent(i) is None
        else:
            p = tree.parent(i)
            assert i in tree.children(p)
        chain = list(tree.ancestors(i))
        assert len(chain) == tree.generation(i) + 1
        assert chain[-1] == 1


def test_gens_roundtrip():
    topo = build_bitree(2, 3)
    for node in topo.nodes():
        gx, ox, gy, oy = topo.gens_of_node(node)
        assert topo.node_of_gens(gx, ox, gy, oy) == node


def test_lca_idempotent_and_siblings():
    topo = build_bitree(1, 0)
    for node in topo.nodes():
        assert topo.lca(node, node) == node
    # two leaves of the x-tree join at the root
    assert topo.lca((2, 1), (3, 1)) == (1, 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_lca_matches_ancestor_intersection(dx, dy, data):
    topo = build_bitree(dx, dy)
    nodes = list(topo.nodes())
    a = data.draw(st.sampled_from(nodes))
    b = data.draw(st.sampled_from(nodes))
    common = {n for n in nodes if topo.leq(a, n) and topo.leq(b, n)}
    l = topo.lca(a, b)
    upset_of_l = {n for n in nodes if topo.leq(l, n)}
    assert common == upset_of_l


def test_order_matches_rectangle_containment():
    # a <= b iff the dyadic rectangle of a sits inside that of b
    topo = build_bitree(2, 2)

    def rect(node):
        gx, ox, gy, oy = topo.gens_of_node(node)
        return (ox * 2.0**-gx, (ox + 1) * 2.0**-gx, oy * 2.0**-gy, (oy + 1) * 2.0**-gy)

    rng = np.random.default_rng(0)
    nodes = list(topo.nodes())
    for _ in range(300):
        a = nodes[rng.integers(len(nodes))]
        b = nodes[rng.integers(len(nodes))]
        (ax0, ax1, ay0, ay1), (bx0, bx1, by0, by1) = rect(a), rect(b)
        inside = bx0 <= ax0 and ax1 <= bx1 and by0 <= ay0 and ay1 <= by1
        assert topo.leq(a, b) == inside


def test_closures_and_masks():
    topo = build_bitree(2, 1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        seed_mask = np.zeros(topo.shape, dtype=bool)
        for node in topo.nodes():
            if rng.random() < 0.15:
                seed_mask[node] = True
        d = down_closure(topo, seed_mask)
        u = up_closure(topo, seed_mask)
        assert is_down_mask(topo, d)
        assert is_up_mask(topo, u)
        # definitional check
        for node in topo.nodes():
            should_d = any(seed_mask[b] and topo.leq(node, b) for b in topo.nodes())
            assert d[node] == should_d


@pytest.mark.parametrize("dx,dy", [(0, 0), (0, 3), (3, 0), (2, 3)])
@pytest.mark.parametrize("op", [np.add, np.maximum, np.logical_or])
def test_sweep_kernel_reduces_over_ancestors_and_descendants(dx, dy, op):
    topo = build_bitree(dx, dy)
    rng = np.random.default_rng(dx * 10 + dy)
    v = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    if op is np.logical_or:
        v = (v < 0.2) & topo.valid_mask()
    up = bitree_sweep(topo, v.copy(), ancestor_sweep, op)
    down = bitree_sweep(topo, v.copy(), descendant_sweep, op)
    for node in topo.nodes():
        above = [v[b] for b in topo.nodes() if topo.leq(node, b)]
        below = [v[b] for b in topo.nodes() if topo.leq(b, node)]
        assert up[node] == pytest.approx(op.reduce(above), rel=1e-14)
        assert down[node] == pytest.approx(op.reduce(below), rel=1e-14)
    # the unused slot-0 row and column stay untouched
    assert not up[0].any() and not up[:, 0].any()
    assert not down[0].any() and not down[:, 0].any()


def test_enumerate_down_sets_small():
    # single node: empty set and the node itself
    t0 = build_bitree(0, 0)
    assert len(list(enumerate_down_sets(t0))) == 2

    t = build_bitree(1, 0)
    masks = list(enumerate_down_sets(t))
    assert all(is_down_mask(t, m) for m in masks)
    keys = {m.tobytes() for m in masks}
    assert len(keys) == len(masks)


@pytest.mark.parametrize("dx,dy", [(1, 0), (1, 1), (2, 0)])
def test_enumeration_matches_subset_filtering(dx, dy):
    from _oracles import downsets_by_filtering

    topo = build_bitree(dx, dy)
    expected = {frozenset(ds) for ds in downsets_by_filtering(topo)}
    got = set()
    for mask in enumerate_down_sets(topo):
        got.add(frozenset((int(a), int(b)) for a, b in zip(*np.nonzero(mask))))
    assert got == expected


def test_enumeration_size_guard():
    with pytest.raises(SizeError):
        next(enumerate_down_sets(build_bitree(2, 2)))


@pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2)])
def test_chain_product_ideal_count_is_binomial(p, q):
    # ideals of a grid poset (product of two chains) are monotone lattice paths
    children = []
    for i in range(p):
        for j in range(q):
            cov = []
            if i > 0:
                cov.append((i - 1) * q + j)
            if j > 0:
                cov.append(i * q + j - 1)
            children.append(cov)
    count = sum(1 for _ in iter_ideal_bitmasks(children))
    assert count == math.comb(p + q, p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 10_000))
def test_closure_idempotence_property(dx, dy, seed):
    rng = np.random.default_rng(seed)
    topo = build_bitree(dx, dy)
    mask = topo.valid_mask() & (rng.random(topo.shape) < 0.25)
    d = down_closure(topo, mask)
    u = up_closure(topo, mask)
    assert np.array_equal(down_closure(topo, d), d)
    assert np.array_equal(up_closure(topo, u), u)
    assert np.all(mask <= d) and np.all(mask <= u)
    # complement duality: the complement of a down-set is an up-set
    comp = topo.valid_mask() & ~d
    assert is_up_mask(topo, comp)


def test_downset_generators_regenerate():
    topo = build_bitree(2, 1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        seed_mask = np.zeros(topo.shape, dtype=bool)
        for node in topo.nodes():
            if rng.random() < 0.2:
                seed_mask[node] = True
        mask = down_closure(topo, seed_mask)
        ds = DownSet(mask)
        gens = ds.generators(topo)
        # generators are pairwise incomparable
        for a in gens:
            for b in gens:
                if a != b:
                    assert not topo.leq(a, b)
        regen = np.zeros(topo.shape, dtype=bool)
        for g in gens:
            regen[g] = True
        assert np.array_equal(down_closure(topo, regen), mask)


@pytest.mark.parametrize("dx, dy", [(0, 0), (0, 3), (1, 2), (3, 1), (3, 3), (4, 2)])
def test_cover_arcs_follow_children_order(dx, dy):
    """Per node, the arcs list the masked covers from below in the order of
    ``topo.children``, nodes in row-major order; Dinic's cuts, and so the
    report bytes, depend on that order."""
    topo = build_bitree(dx, dy)
    rng = np.random.default_rng(dx * 10 + dy)
    for _ in range(20):
        mask = up_closure(topo, topo.valid_mask() & (rng.random(topo.shape) < 0.1))
        (ix, iy), (u, v) = bitree_cover_arcs(topo, mask)
        nodes = list(zip(ix.tolist(), iy.tolist()))
        assert nodes == [n for n in topo.nodes() if mask[n]]
        want = [(i, nodes.index(c)) for i, n in enumerate(nodes)
                for c in topo.children(n) if mask[c]]
        assert list(zip(u.tolist(), v.tolist())) == want


@pytest.mark.parametrize("dx, dy", [(0, 0), (0, 2), (1, 3), (2, 2), (3, 2), (4, 4)])
def test_generators_match_loop_antichain(dx, dy):
    """Vectorized maximal and minimal elements equal the node-by-node loop
    on down-closed, up-closed and arbitrary masks."""
    topo = build_bitree(dx, dy)
    rng = np.random.default_rng(100 + dx * 10 + dy)
    for _ in range(30):
        mask = topo.valid_mask() & (rng.random(topo.shape) < rng.random())
        for m in (mask, down_closure(topo, mask), up_closure(topo, mask)):
            assert DownSet(m).generators(topo) == loop_antichain(topo, m, maximal=True)
            assert UpSet(m).generators(topo) == loop_antichain(topo, m, maximal=False)
