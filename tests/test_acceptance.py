"""Acceptance battery.

Each test covers one numbered criterion, pins its tolerances explicitly, and
prints one PASS line on success (visible with pytest -s; failures carry the
same label).  Constants pinned from validated runs:

* corner-potential growth floor c1 = 1.0 (per unit of log2 N)
* support-potential ceiling C2 = 4.0
* embedding-ratio growth floor c3 = 1.4 (per unit of log2 M)
* tail-potential ceiling C4 = 5.5
"""

import math
import time
from fractions import Fraction
from math import comb

import numpy as np

from bitree_embed.constants import (
    HC_OVER_C_REFERENCE_ENVELOPES,
    box_constant,
    carleson_constant,
    embedding_constant,
    hereditary_constant,
    verify_chain,
)
from bitree_embed.counterexamples import (
    gen_rec_not_embedding,
    gen_simple_car_not_rec,
    gen_upset_car_not_rec,
)
from bitree_embed.instances import (
    SMALL_DEPTH_PAIRS,
    bitree_majorant_data,
    random_mass,
    random_weight,
    tree_majorant_data,
)
from bitree_embed.majorization import balance, majorant_bitree, majorant_tree
from bitree_embed.maximal import extremal_weight, maximal_equivalence_probe, sparse_selection
from bitree_embed.operators import (
    MassFunction,
    WeightFunction,
    energy,
    hardy_adjoint,
    potential,
    truncated_potential,
    v_good,
)
from bitree_embed.trees import build_bitree, build_tree, down_closure
from _oracles import brute_hereditary, dense_embedding_eig, enumeration_carleson, first_ancestor_leq

C1_GROWTH_FLOOR = 1.0
C2_SUPPORT_CEILING = 4.0
C3_EMBED_GROWTH_FLOOR = 1.4
C4_TAIL_CEILING = 5.5


def _report(num, message):
    print(f"\ncriterion {num}: PASS - {message}")


def _oracle_instance(seed):
    """Bi-node count <= 25 and support size <= 10 so that all three
    exhaustive oracles stay cheap."""
    rng = np.random.default_rng(seed)
    dx, dy = SMALL_DEPTH_PAIRS[int(rng.integers(0, len(SMALL_DEPTH_PAIRS)))]
    topo = build_bitree(dx, dy)
    mv = topo.zeros()
    count = int(rng.integers(1, 9))
    nodes = list(topo.nodes())
    for _ in range(count):
        mv[nodes[int(rng.integers(len(nodes)))]] += float(rng.uniform(0.1, 1.0))
    mu = MassFunction(topo, mv)
    w = random_weight(topo, rng, ("general", "product")[int(rng.integers(0, 2))])
    return topo, mu, w


def test_criterion_1_and_2_oracle_equivalence_and_chain():
    start = time.time()
    instances = 0
    worst = {"carleson": 0.0, "embedding": 0.0, "hereditary": 0.0}
    seed = 0
    while instances < 200:
        seed += 1
        topo, mu, w = _oracle_instance(seed)
        if float(mu.total_mass) == 0:
            continue
        instances += 1
        c_fast = float(carleson_constant(mu, w).value)
        c_brute = float(enumeration_carleson(mu, w)[0])
        gap = abs(c_fast - c_brute) / max(1.0, c_brute)
        worst["carleson"] = max(worst["carleson"], gap)
        assert gap <= 1e-9, f"criterion 1 FAIL: carleson gap {gap} at seed {seed}"

        ce = float(embedding_constant(mu, w).value)
        ce_ref = dense_embedding_eig(mu, w)
        gap = abs(ce - ce_ref) / max(1.0, ce_ref)
        worst["embedding"] = max(worst["embedding"], gap)
        assert gap <= 1e-8, f"criterion 1 FAIL: embedding gap {gap} at seed {seed}"

        hc = float(hereditary_constant(mu, w).value)
        hc_ref = brute_hereditary(mu, w)
        gap = abs(hc - hc_ref) / max(1.0, hc_ref)
        worst["hereditary"] = max(worst["hereditary"], gap)
        assert gap <= 1e-9, f"criterion 1 FAIL: hereditary gap {gap} at seed {seed}"

        box = float(box_constant(mu, w).value)
        slack = 1e-9 * max(1.0, ce)
        chain = box <= c_brute + slack and c_brute <= hc + slack and hc <= ce + slack
        assert chain, f"criterion 2 FAIL: chain broken at seed {seed}: {box} {c_brute} {hc} {ce}"
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 1 FAIL: runtime {elapsed:.1f}s exceeds 2 minutes"
    _report(1, f"{instances} instances, worst gaps {worst}, {elapsed:.1f}s")
    _report(2, f"forward chain held on all {instances} instances at 1e-9")


def test_criterion_3_staircase_family_exact_numbers():
    start = time.time()
    for n in range(2, 9):
        mu, w = gen_simple_car_not_rec(n, exact=True)
        leaf = 1 << n
        mask = np.zeros(mu.topo.shape, dtype=bool)
        mask[leaf, leaf] = True
        restricted = mu.restrict(mask)
        ratio = Fraction(energy(restricted, w)) / Fraction(restricted.total_mass)
        assert ratio == n + 1, f"criterion 3 FAIL: witness ratio {ratio} != {n + 1}"
        car = carleson_constant(mu, w).value
        assert car == Fraction(4 * n + 1, n + 1), f"criterion 3 FAIL: carleson {car}"
        assert car <= 4
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 3 FAIL: runtime {elapsed:.1f}s exceeds 5 minutes"
    _report(3, f"witness ratio N+1 and exact carleson <= 4 for N=2..8, {elapsed:.1f}s")


def test_criterion_4_spread_family_potential_profile():
    # dense cross-check first
    fam8 = gen_upset_car_not_rec(8)
    nu, w = fam8.dense()
    v = potential(nu, w).values
    leaf = 1 << 8
    checks = [((8, 0, 8, 0), v[leaf, leaf])]
    checks += [((a, 0, b, 0), v[1 << a, 1 << b]) for a, b in fam8.base]
    checks += [
        (node, v[leaf + node[1], leaf + node[3]])
        for _, node in fam8.sample_support(per_quadrant=16, seed=0)
    ]
    for node, dense_val in checks:
        sv = float(fam8.potential_at(node))
        assert abs(sv - dense_val) <= 1e-12 * max(1.0, dense_val), \
            f"criterion 4 FAIL: dense cross-check at {node}"

    floors, ceilings = [], []
    for n in (64, 256, 1024):
        fam = gen_upset_car_not_rec(n)
        log2n = n.bit_length() - 1
        v0 = float(fam.potential_at((n, 0, n, 0), include_atom=False))
        floors.append(v0 / log2n)
        assert v0 >= C1_GROWTH_FLOOR * log2n, \
            f"criterion 4 FAIL: corner potential {v0} below {C1_GROWTH_FLOOR}*log2({n})"
        vals = [float(fam.potential_at((a, 0, b, 0), include_atom=False)) for a, b in fam.base]
        vals += [float(fam.potential_at(node, include_atom=False))
                 for _, node in fam.sample_support(per_quadrant=16, seed=0)]
        ceilings.append(max(vals))
        assert max(vals) <= C2_SUPPORT_CEILING, \
            f"criterion 4 FAIL: support potential {max(vals)} above {C2_SUPPORT_CEILING}"
    _report(4, f"corner growth floors {floors} (c1={C1_GROWTH_FLOOR}), "
               f"support ceilings {ceilings} (C2={C2_SUPPORT_CEILING})")


def test_criterion_5_layered_family_embedding_ratio():
    ratios, tails = [], []
    for n in (64, 256, 1024):
        fam = gen_rec_not_embedding(n)
        log2m = math.log2(fam.m_count)
        rhs = float(fam.energy(pieces=[0]))
        lhs = 0.0
        for piece in fam.pieces:
            for a, b in piece.rects:
                vq = float(fam.potential_at((a, 0, b, 0), pieces=[0]))
                lhs += float(piece.rect_mass) * vq * vq
        ratio = lhs / rhs
        ratios.append(ratio / log2m)
        assert ratio >= C3_EMBED_GROWTH_FLOOR * log2m, \
            f"criterion 5 FAIL: test ratio {ratio} below {C3_EMBED_GROWTH_FLOOR}*log2({fam.m_count})"
        tail_max = 0.0
        for k in range(len(fam.pieces)):
            tail = list(range(k, len(fam.pieces)))
            for a, b in fam.pieces[k].rects:
                for node in fam.quadrant_cells(a, b, 16, seed=0):
                    tail_max = max(tail_max, float(fam.potential_at(node, pieces=tail)))
        tails.append(tail_max)
        assert tail_max <= C4_TAIL_CEILING, \
            f"criterion 5 FAIL: tail potential {tail_max} above {C4_TAIL_CEILING}"
    _report(5, f"embedding growth ratios per log2M {ratios} (c3={C3_EMBED_GROWTH_FLOOR}), "
               f"tail ceilings {tails} (C4={C4_TAIL_CEILING})")


def test_criterion_6_constructive_lemmas():
    rng = np.random.default_rng(2024)

    # balancing: literal constants 3
    done = 0
    attempts = 0
    while done < 500 and attempts < 5000:
        attempts += 1
        topo = build_bitree(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        mv = np.where(topo.valid_mask(),
                      rng.uniform(size=topo.shape) * (rng.random(topo.shape) < 0.7), 0.0)
        nu = MassFunction(topo, mv)
        if float(nu.total_mass) == 0:
            continue
        wv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
        w = WeightFunction.general(topo, wv)
        e0 = energy(nu, w)
        if e0 <= 0:
            continue
        a = e0 / float(nu.total_mass) * (1.0 if done % 3 == 0 else float(rng.uniform(0.2, 1.0)))
        ds, trimmed, _ = balance(nu, w, a)
        vt = potential(trimmed, w).values
        assert np.all(vt[ds.mask] >= a / 3 * (1 - 1e-9)), "criterion 6 FAIL: balance floor"
        assert energy(trimmed, w) >= e0 / 3 * (1 - 1e-12), "criterion 6 FAIL: balance energy"
        done += 1
    assert done == 500

    # pointwise dichotomy
    done = 0
    while done < 500:
        topo = build_bitree(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        mv = np.where(topo.valid_mask(),
                      rng.uniform(size=topo.shape) * (rng.random(topo.shape) < 0.7), 0.0)
        mu = MassFunction(topo, mv)
        wv = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
        w = WeightFunction.general(topo, wv)
        v = potential(mu, w).values
        top = float(v.max())
        if top <= 0:
            continue
        eps = float(rng.uniform(0.02, 1.0)) * top
        vg = v_good(mu, w, eps)
        _, v4 = truncated_potential(mu, w, 4 * eps)
        ok = (vg > eps) | (v4.values >= v / 2 - 1e-12 * np.maximum(v, 1.0))
        assert ok[1:, 1:].all(), "criterion 6 FAIL: dichotomy violated"
        done += 1

    # tree majorant: exact telescoping identity and energy factor 2
    done = 0
    while done < 500:
        tree = build_tree(int(rng.integers(2, 6)))
        data = tree_majorant_data(tree, rng)
        if data is None:
            continue
        g, f, w_arr, lam, delta = data
        res = majorant_tree(g, f, w_arr, lam, delta, tree)
        assert res.energy_in <= 2 * (delta / lam) * res.energy_ref * (1 + 1e-9) + 1e-15, \
            "criterion 6 FAIL: tree energy factor"
        iwg, iwf, iwphi = res.extras["iwg"], res.extras["iwf"], res.extras["iwphi"]
        for node in np.nonzero(res.band_mask)[0]:
            amin = first_ancestor_leq(tree, iwg, int(node), delta)
            sub = iwg[amin] if amin is not None else 0.0
            lhs = iwphi[node] * lam
            rhs = iwf[node] * (iwg[node] - sub)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-12), \
                "criterion 6 FAIL: telescoping identity"
        done += 1

    # bi-tree majorant: energy factor 2 with product weights
    done = 0
    while done < 200:
        topo = build_bitree(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        data = bitree_majorant_data(topo, rng)
        if data is None:
            continue
        m, w_prod, lam, delta = data
        res = majorant_bitree(m, w_prod, lam, delta, topo)
        assert res.energy_in <= 2 * (delta / lam) * res.energy_ref * (1 + 1e-9) + 1e-15, \
            "criterion 6 FAIL: bi-tree energy factor"
        done += 1
    _report(6, "balance x500, dichotomy x500, tree majorant x500, bi-tree majorant x200")


def test_criterion_7_maximal_and_selection():
    # exact audit identities in rational arithmetic at depths up to (3,3)
    rng = np.random.default_rng(7)
    for depth in [(1, 1), (2, 2), (3, 3)]:
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
        assert audit["identity_lhs"] == audit["identity_rhs"], \
            "criterion 7 FAIL: audit identity not exact"
        assert carleson_constant(mu, w).value <= 1, "criterion 7 FAIL: witness weight"

    # probe bounds: 4 on trees, 16 for product masses on bi-trees
    topo = build_bitree(5, 0)
    mv = topo.zeros()
    mv[32:64, 1] = rng.uniform(0.2, 1.0, size=32)
    rep = maximal_equivalence_probe(MassFunction(topo, mv), sample_count=60, seed=1)
    assert rep.embedding_estimate <= 4 + 1e-6, "criterion 7 FAIL: tree probe above 4"
    assert rep.maximal_estimate <= 4 + 1e-6

    topo = build_bitree(2, 2)
    pm = topo.zeros()
    pm[4:8, 4:8] = np.outer(rng.uniform(0.2, 1, size=4), rng.uniform(0.2, 1, size=4))
    rep2 = maximal_equivalence_probe(MassFunction(topo, pm), sample_count=60, seed=2)
    assert rep2.embedding_estimate <= 16 + 1e-6, "criterion 7 FAIL: bi-tree probe above 16"

    # selection feasibility against explicit union enumeration
    agree = 0
    trial = 0
    while agree < 100:
        trial += 1
        topo = build_bitree(2, 1)
        mu = random_mass(topo, np.random.default_rng(trial), "boundary")
        if float(mu.total_mass) == 0:
            continue
        istar = hardy_adjoint(topo, mu.values)
        rng2 = np.random.default_rng(10_000 + trial)
        nodes = [n for n in topo.nodes() if istar[n] > 0]
        coll = list(dict.fromkeys(
            nodes[int(rng2.integers(len(nodes)))] for _ in range(int(rng2.integers(2, 6)))
        ))
        wts = [float(rng2.uniform(0.2, 1.6)) / istar[q] for q in coll]
        sel = sparse_selection(mu, coll, wts)
        feas = True
        for bits in range(1, 1 << len(coll)):
            union = np.zeros(topo.shape, dtype=bool)
            for i in range(len(coll)):
                if bits >> i & 1:
                    union[coll[i]] = True
            union = down_closure(topo, union)
            demand = sum(wts[i] * istar[coll[i]] ** 2
                         for i in range(len(coll)) if union[coll[i]])
            if demand > float((mu.values * union).sum()) + 1e-9:
                feas = False
                break
        assert sel.feasible == feas, f"criterion 7 FAIL: selection mismatch at trial {trial}"
        if sel.feasible:
            for i, q in enumerate(coll):
                assert sel.per_member_total[i] >= wts[i] * istar[q] ** 2 - 1e-9
        agree += 1
    _report(7, f"exact audits at depths <= (3,3), probes <= 4/16, "
               f"{agree} selection feasibility agreements")


def test_criterion_8_product_weight_envelope():
    depths = (2, 3, 4)
    batches, per_batch = 12, 28
    batch_max = {d: [] for d in depths}
    total = 0
    hc_over_c_max = 0.0
    for d in depths:
        topo = build_bitree(d, d)
        for b in range(batches):
            mx = 0.0
            for i in range(per_batch):
                seed = 97 * d + 1000 * b + i
                rng = np.random.default_rng(seed)
                mu = random_mass(topo, rng, "boundary")
                if float(mu.total_mass) == 0:
                    continue
                w = random_weight(topo, rng, "product")
                total += 1
                box = float(box_constant(mu, w).value)
                ce = float(embedding_constant(mu, w).value)
                if box > 0:
                    mx = max(mx, ce / box)
            batch_max[d].append(mx)
    assert total >= 1000
    overall = max(max(v) for v in batch_max.values())
    assert np.isfinite(overall)

    # paired sign test between consecutive depths: a genuine growth trend
    # would give a one-sided excess of positive differences
    pos = neg = 0
    for d in depths[:-1]:
        for a, b in zip(batch_max[d], batch_max[d + 1]):
            if b > a:
                pos += 1
            elif b < a:
                neg += 1
    n = pos + neg
    tail = sum(comb(n, k) for k in range(0, min(pos, neg) + 1)) / 2.0**n
    p_value = min(1.0, 2 * tail)
    assert p_value > 0.01, \
        f"criterion 8 FAIL: depth trend detected (+{pos}/-{neg}, p={p_value:.4f})"

    # record the hereditary-to-carleson envelope against the reference values
    rng = np.random.default_rng(123)
    for _ in range(40):
        topo = build_bitree(2, 2)
        mu = random_mass(topo, rng, "boundary_atoms")
        if float(mu.total_mass) == 0:
            continue
        w = random_weight(topo, rng, "product")
        rep = verify_chain(mu, w)
        assert rep.hereditary.certified
        if rep.ratios["hc_over_c"] is not None:
            hc_over_c_max = max(hc_over_c_max, rep.ratios["hc_over_c"])
    _report(8, f"{total} instances, max embedding/box = {overall:.4f}, "
               f"sign test +{pos}/-{neg} p={p_value:.3f}; recorded hereditary/carleson "
               f"envelope {hc_over_c_max:.3f} against references {HC_OVER_C_REFERENCE_ENVELOPES}")
