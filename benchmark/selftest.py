"""Shows that the referee can fail: every check passes the program's real
output, rejects that output with its value perturbed by 1e-6 relative (both
ways), and rejects it with a wrong witness.  Also ties the closed forms of
the extremal families to dense recomputation where a dense copy fits.

    PYTHONPATH=src python3 benchmark/selftest.py     # from the repository root

Prints one PASS/FAIL line per claim; exits 1 if any claim fails.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bitree_embed as be  # noqa: E402
from bitree_embed import instances  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

PERTURB = 1e-6
RESULTS: list = []


def claim(name: str, ok: bool) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}", flush=True)


def passes(fn, *args) -> bool:
    try:
        fn(*args)
    except ref.CheckFailed:
        return False
    return True


def battery(name: str, check, good: tuple, value_at: int, wrong_witness: tuple) -> None:
    """check(*good) passes; with args[value_at] scaled by 1 -+ 1e-6 it fails;
    check(*wrong_witness) fails."""
    claim(f"{name}: accepts the program's output", passes(check, *good))
    for sign in (+1, -1):
        bad = list(good)
        bad[value_at] = good[value_at] * (1 + sign * PERTURB)
        claim(f"{name}: rejects value x (1 {'+' if sign > 0 else '-'} 1e-6)", not passes(check, *bad))
    claim(f"{name}: rejects a wrong witness", not passes(check, *wrong_witness))


def dense(mu, w):
    return np.asarray(mu.values, dtype=float), np.asarray(w.values, dtype=float)


# ---------------------------------------------------------------------------

def test_sums() -> None:
    rng = np.random.default_rng(0)
    topo = be.build_bitree(2, 3)
    v = np.where(topo.valid_mask(), rng.uniform(size=topo.shape), 0.0)
    desc = np.zeros_like(v)
    anc = np.zeros_like(v)
    nodes = [(i, j) for i in range(1, v.shape[0]) for j in range(1, v.shape[1])]

    def inside(g, h):  # rectangle g contained in rectangle h
        return all(g[k].bit_length() >= h[k].bit_length()
                   and (g[k] >> (g[k].bit_length() - h[k].bit_length())) == h[k] for k in (0, 1))

    for g in nodes:
        desc[g] = sum(v[h] for h in nodes if inside(h, g))
        anc[g] = sum(v[h] for h in nodes if inside(g, h))
    claim("own descendant sums match the definition", np.allclose(ref.descendant_sums(v), desc))
    claim("own ancestor sums match the definition", np.allclose(ref.ancestor_sums(v), anc))


def test_chain_checks() -> None:
    chain = wl.ChainSweep(seed=5)
    for support in (16, 24):
        s = chain._take(3, support)
        mu, w = wl.chain_instance(3, s)
        mass, weight = dense(mu, w)
        rep = be.verify_chain(mu, w)
        out = wl._keep_chain(rep)

        if support == 16:
            value, node = out["box"]
            istar = ref.descendant_sums(mass)
            other = (1, 1) if tuple(node) != (1, 1) else (2, 1)
            assert istar[other] > 0
            battery("box", ref.check_box, (mass, weight, value, node), 2,
                    (mass, weight, value, other))

            value, mask = out["carleson"]
            leaf = tuple(int(i) for i in np.argwhere(mass > 0)[0])
            single = np.zeros_like(mask)
            single[leaf] = True
            battery("carleson (N=3 chain instance)", ref.check_carleson,
                    (mass, weight, value, mask), 2, (mass, weight, value, single))

            value, psi = out["embedding"]
            psi = wl._psi_full(mass, psi)
            flat = np.where(mass > 0, 1.0, 0.0)
            battery("embedding (N=3 chain instance)", ref.check_embedding,
                    (mass, weight, value, psi), 2, (mass, weight, value, flat))

        value, certified, mask = out["hereditary"]
        claim(f"hereditary at support {support} is {'certified' if support <= 22 else 'uncertified'}",
              certified == (support <= 22))
        wrong = mask.copy()
        flip = tuple(int(i) for i in np.argwhere(mass > 0)[0])
        wrong[flip] = not wrong[flip]
        battery(f"hereditary support {support}", ref.check_hereditary,
                (mass, weight, value, certified, mask), 2, (mass, weight, value, certified, wrong))

        rendered = chain.finish_round([wl.Op("", {"n": 3, "sweep_seed": s}, None, None)], [rep])
        round_rec = {"ops": [{"spec": {"n": 3, "sweep_seed": s}, "out": out}], "rendered": rendered}
        if support == 16:
            claim("sweep CSV: accepts the rendered rows", passes(wl.ChainSweep.check_round, round_rec))
            lines = rendered.splitlines()
            cells = lines[1].split(",")
            cells[4] = format(float(cells[4]) * (1 + PERTURB), ".17g")
            bad = dict(round_rec, rendered="\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
            claim("sweep CSV: rejects a row value x (1 + 1e-6)", not passes(wl.ChainSweep.check_round, bad))


def test_random_checks() -> None:
    _, mu, w = instances.random_instance(5, 5, 3, "boundary", "product")
    mass, weight = dense(mu, w)
    rep = be.carleson_constant(mu, w)
    mask = rep.witness["mask"]
    full = ref.valid_mask(mass.shape)
    wrong = full if not np.array_equal(full, mask) else mask & ~np.eye(*mask.shape, dtype=bool)
    battery("carleson (depth 5)", ref.check_carleson, (mass, weight, float(rep.value), mask), 2,
            (mass, weight, float(rep.value), wrong))
    notdown = mask.copy()
    notdown[np.argwhere(mask & (mass > 0))[0][0], np.argwhere(mask & (mass > 0))[0][1]] = False
    claim("carleson: rejects a witness that is not a down-set",
          not passes(ref.check_carleson, mass, weight, float(rep.value), notdown))

    _, mu, w = instances.random_instance(8, 8, 3, "boundary", "general")
    mass, weight = dense(mu, w)
    rep = be.embedding_constant(mu, w)
    psi = rep.witness["values"]
    rng = np.random.default_rng(1)
    noisy = np.where(mass > 0, psi * rng.uniform(0.5, 1.5, size=psi.shape), 0.0)
    battery("embedding (depth 8)", ref.check_embedding, (mass, weight, float(rep.value), psi), 2,
            (mass, weight, float(rep.value), noisy))


def _scale_field(text: str, key: str, fmt: str) -> str:
    if fmt == "json":
        obj = json.loads(text)
        if "rows" in obj:
            for row in obj["rows"]:
                if row["quantity"] == key:
                    row["value"] *= 1 + PERTURB
        else:
            obj[key] *= 1 + PERTURB
        return json.dumps(obj)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) > 4 and cells[3] == key:
            cells[4] = format(float(cells[4]) * (1 + PERTURB), ".17g")
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_family_checks() -> None:
    cases = [
        ({"kind": "sweep", "what": "rec_vs_embedding", "n": 256, "fmt": "csv", "seed": 0},
         ["embedding_lower_ratio", "rec_surrogate_max"]),
        ({"kind": "sweep", "what": "car_vs_rec", "n": 1024, "fmt": "json", "seed": 0},
         ["hc_witness", "carleson"]),
        ({"kind": "counterexample", "what": "upset", "n": 1024, "fmt": "json", "seed": 0},
         ["corner_potential", "hereditary_witness", "max_support_potential"]),
        ({"kind": "counterexample", "what": "layered", "n": 256, "fmt": "json", "seed": 0},
         ["test_numerator", "test_denominator", "embedding_lower_ratio"]),
    ]
    for spec, keys in cases:
        name = f"{spec['what']} N={spec['n']}"
        if spec["kind"] == "sweep":
            text = wl._sweep_op(spec["what"], spec["n"], 0, spec["fmt"])()
            other = wl._sweep_op(spec["what"], spec["n"] // 2, 0, spec["fmt"])()
        else:
            text = wl._counterexample_op(spec["what"], spec["n"], 0)()
            other = wl._counterexample_op(spec["what"], spec["n"] // 2, 0)()
        claim(f"{name}: accepts the program's output", passes(wl.check_family, spec, text))
        for key in keys:
            bad = _scale_field(text, key, spec["fmt"])
            claim(f"{name}: rejects {key} x (1 + 1e-6)", not passes(wl.check_family, spec, bad))
        claim(f"{name}: rejects the report of N={spec['n'] // 2}",
              not passes(wl.check_family, spec, other))


# ---------------------------------------------------------------------------
# closed forms against dense recomputation

def _pieces_dense(n: int, pieces) -> np.ndarray:
    mv = np.zeros((2 << n, 2 << n))
    leaf = 1 << n
    for mass, rects in pieces:
        for a, b in rects:
            xs = slice(leaf + (1 << (n - a - 1)), leaf + (1 << (n - a)))
            ys = slice(leaf + (1 << (n - b - 1)), leaf + (1 << (n - b)))
            mv[xs, ys] += mass / ((1 << (n - a - 1)) * (1 << (n - b - 1)))
    return mv


def _upset_weight(n: int) -> np.ndarray:
    wv = np.zeros((2 << n, 2 << n))
    for a, b in ref.Staircase(n).base():
        for ga in range(a + 1):
            for gb in range(b + 1):
                wv[1 << ga, 1 << gb] = 1.0
    return wv


def test_family_closed_forms() -> None:
    for n in (4, 8):
        st = ref.Staircase(n)
        fam = be.gen_upset_car_not_rec(n)
        mu, w = fam.dense()
        mass, weight = dense(mu, w)
        leaf = 1 << n
        base = _pieces_dense(n, [(1.0 / n, st.base())])
        own = base.copy()
        own[leaf, leaf] += 1.0 / n
        claim(f"upset N={n}: own dense construction equals family.dense()",
              np.allclose(own, mass) and np.array_equal(_upset_weight(n), weight))
        vals = ref.upset_values(n)
        pot = ref.ancestor_sums(weight * ref.descendant_sums(base))
        claim(f"upset N={n}: corner potential closed form equals dense",
              ref.close(vals["corner_potential"], pot[leaf, leaf]))
        cells = [(x, y) for x in range(leaf) for y in range(leaf) if base[leaf + x, leaf + y] > 0]
        claim(f"upset N={n}: support-cell potentials equal dense at all {len(cells)} cells",
              all(ref.close(ref.upset_cell_potential(n, (n, x, n, y)), pot[leaf + x, leaf + y])
                  for x, y in cells))
        atom = np.zeros_like(mass)
        atom[leaf, leaf] = 1.0 / n
        her = float(ref.energy_density(atom, weight).sum()) / (1.0 / n)
        claim(f"upset N={n}: corner-cell hereditary ratio equals dense",
              ref.close(vals["hereditary_witness"], her))
        e = ref.energy_density(mass, weight)
        surplus, scale = ref.closure_surplus(e, mass, vals["carleson"])
        tight, _ = ref.closure_surplus(e, mass, vals["carleson"] * (1 - PERTURB))
        claim(f"upset N={n}: closed-form Carleson value is the dense LP optimum",
              surplus <= ref.REL_TOL * scale and tight > ref.REL_TOL * scale)
        diff_ok = True
        for gx in range(n):
            for gy in range(n + 1):
                par, kids = pot[1 << gx, 1 << gy], pot[2 << gx, 1 << gy]
                diff_ok &= kids >= par - 1e-12
        claim(f"upset N={n}: potential never decreases from a corner rectangle to its child", diff_ok)

    n = 8
    st = ref.Staircase(n)
    pieces = ref.layered_pieces(n)
    fam = be.gen_rec_not_embedding(n)
    mu, w = fam.dense()
    mass, weight = dense(mu, w)
    claim("layered N=8: own dense construction equals family.dense()",
          np.allclose(_pieces_dense(n, pieces), mass) and np.array_equal(_upset_weight(n), weight))
    vals = ref.layered_values(n)
    p0 = _pieces_dense(n, pieces[:1])
    pot0 = ref.ancestor_sums(weight * ref.descendant_sums(p0))
    lhs = sum(m * pot0[1 << a, 1 << b] ** 2 for m, rects in pieces for a, b in rects)
    rhs = float(ref.energy_density(p0, weight).sum())
    claim("layered N=8: test numerator and denominator equal dense",
          ref.close(vals["test_numerator"], lhs) and ref.close(vals["test_denominator"], rhs))
    leaf = 1 << n
    ok = True
    for k in range(len(pieces)):
        pk = ref.ancestor_sums(weight * ref.descendant_sums(_pieces_dense(n, pieces[k:])))
        for x in range(0, leaf, 7):
            for y in range(0, leaf, 5):
                ok &= ref.close(ref.layered_tail_potential(n, k, (n, x, n, y)), pk[leaf + x, leaf + y])
    claim("layered N=8: tail-piece cell potentials equal dense", ok)
    claim("staircase N=8: corner ratio of the simple family is exactly N+1",
          _simple_corner_ratio(8) == 9)


def _simple_corner_ratio(n: int):
    from fractions import Fraction

    mu, w = be.gen_simple_car_not_rec(n, exact=True)
    leaf = 1 << n
    # own exact sums over the corner cell's ancestors: every corner rectangle
    return sum(Fraction(w.values[1 << a, 1 << b]) for a in range(n + 1) for b in range(n + 1)) \
        * Fraction(mu.values[leaf, leaf])


def main() -> int:
    test_sums()
    test_chain_checks()
    test_random_checks()
    test_family_checks()
    test_family_closed_forms()
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed}/{len(RESULTS)} claims hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
