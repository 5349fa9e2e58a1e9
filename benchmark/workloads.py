"""The workloads: seeded inputs, the ops, and how each op's output is
kept for, and checked by, the independent referee in ``reference.py``.

A workload runs in rounds.  Every round attempts the same list of op kinds
on fresh seeded inputs, so each run does whole rounds of comparable work.
Only the public ``bitree_embed`` API is called.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

import bitree_embed as be
from bitree_embed import cli, instances, scenarios


class Op:
    """One timed call: ``run()`` returns the program's output, ``keep(out)``
    turns it into the record the checker needs; ``spec`` rebuilds the input."""

    def __init__(self, label, spec, run, keep):
        self.label, self.spec, self.run, self.keep = label, spec, run, keep


# ---------------------------------------------------------------------------
# chain_sweep
# ---------------------------------------------------------------------------

# (N, support) per round.  Hereditary enumeration costs about 2^support, so
# the profile, not the seed, fixes the work of a round: quick ops at N=2, past
# the enumeration cap of 22 (local search) and at support 16; three at
# support 18, whose time is mostly enumeration and which hold the median; and
# one at the cap.
CHAIN_PROFILE = [(2, 8), (3, 24), (3, 16), (3, 18), (3, 18), (3, 18), (3, 22)]
# (kind, experiment or family, N) per round: the structured CornerFamily
# evaluators behind the sweep front end, one op cheaper than the median and
# two dearer, so that four ops fall below the median cluster and three above.
FAMILY_OPS = [("counterexample", "upset", 4096), ("sweep", "rec_vs_embedding", 4096),
              ("sweep", "car_vs_rec", 8192)]


def chain_instance(n: int, sweep_seed: int):
    """The instance the chain_ratios_product_w sweep builds for this seed."""
    rng = np.random.default_rng(sweep_seed)
    topo = be.build_bitree(n, n)
    mu = instances.random_mass(topo, rng, "boundary_atoms")
    w = instances.random_weight(topo, rng, "product")
    return mu, w


class ChainSweep:
    """verify_chain on instances of ``sweep chain_ratios_product_w --N 2 3``:
    sweep seeds ``seed*100000 + N*1000 + i`` for i = 0, 1, ..., each taken
    by the first free slot of the profile with its support; plus the
    FAMILY_OPS, as a sweep cell rendered to JSON or CSV by a seeded coin or
    as an in-process ``bitree-embed counterexample``."""

    name = "chain_sweep"

    def __init__(self, seed: int):
        self.seed = seed
        self._next_i = {2: 0, 3: 0}
        self._queues: dict = {}

    def _take(self, n: int, support: int) -> int:
        queue = self._queues.setdefault((n, support), [])
        while not queue:
            s = self.seed * 100_000 + n * 1000 + self._next_i[n]
            self._next_i[n] += 1
            mu, _ = chain_instance(n, s)
            k = int(np.count_nonzero(mu.values))
            self._queues.setdefault((n, k), []).append(s)
        return queue.pop(0)

    def round_ops(self, r: int) -> list:
        ops = []
        for n, support in CHAIN_PROFILE:
            s = self._take(n, support)
            mu, w = chain_instance(n, s)
            ops.append(Op(f"N={n},support={support}", {"n": n, "sweep_seed": s},
                          (lambda mu=mu, w=w: be.verify_chain(mu, w)), _keep_chain))
        rng = np.random.default_rng([self.seed, r])
        for kind, what, n in FAMILY_OPS:
            if kind == "sweep":
                fmt = ("json", "csv")[int(rng.integers(0, 2))]
                run = _sweep_op(what, n, self.seed, fmt)
            else:
                fmt = "json"
                run = _counterexample_op(what, n, self.seed)
            spec = {"kind": kind, "what": what, "n": n, "fmt": fmt, "seed": self.seed}
            ops.append(Op(f"{kind}:{what}:{n}", spec, run, lambda text: text))
        return ops

    def finish_round(self, ops, outputs):
        """Render the round's rows as the sweep's CSV (the sweep's own
        maximum-ratio rows per N)."""
        rows = []
        for n in sorted({op.spec["n"] for op in ops if "sweep_seed" in op.spec}):
            best = {"ce_over_box": (0.0, None), "hc_over_c": (0.0, None), "c_over_box": (0.0, None)}
            for op, rep in zip(ops, outputs):
                if rep is None or op.spec.get("sweep_seed") is None or op.spec["n"] != n:
                    continue
                for key in best:
                    r = rep.ratios.get(key)
                    if key == "hc_over_c" and not rep.hereditary.certified:
                        continue
                    if r is not None and r > best[key][0]:
                        best[key] = (r, f"seed={op.spec['sweep_seed']}")
            for key, (val, wit) in best.items():
                rows.append({"experiment": "chain_ratios_product_w", "construction": "random_product",
                             "N": n, "quantity": f"max_{key}", "value": float(val), "ratio": None,
                             "witness": wit, "seed": self.seed})
        report = scenarios.SweepReport(experiment="chain_ratios_product_w", seed=self.seed, rows=rows)
        return scenarios.render_report(report, "csv")

    @staticmethod
    def check(rec) -> None:
        import reference as ref

        if "sweep_seed" not in rec["spec"]:
            check_family(rec["spec"], rec["out"])
            return
        mu, w = chain_instance(rec["spec"]["n"], rec["spec"]["sweep_seed"])
        mass, weight = np.asarray(mu.values, dtype=float), np.asarray(w.values, dtype=float)
        out = rec["out"]
        ref.check_box(mass, weight, *out["box"])
        ref.check_carleson(mass, weight, *out["carleson"])
        ref.check_hereditary(mass, weight, *out["hereditary"])
        ref.check_embedding(mass, weight, out["embedding"][0], _psi_full(mass, out["embedding"][1]))
        vals = [out["box"][0], out["carleson"][0], out["hereditary"][0], out["embedding"][0]]
        for key, (i, j) in {"c_over_box": (1, 0), "hc_over_c": (2, 1),
                            "ce_over_hc": (3, 2), "ce_over_box": (3, 0)}.items():
            want = None if vals[j] == 0 else vals[i] / vals[j]
            got = out["ratios"][key]
            ref.require((got is None) == (want is None) and (want is None or ref.close(got, want)),
                        f"chain ratio {key} = {got!r}, expected {want!r}")
        # box <= carleson <= hereditary (a lower bound when uncertified) <= embedding
        ordered = all(vals[i] <= vals[i + 1] * (1 + 1e-9) for i in range(3))
        ref.require(out["ok"] == ordered and out["ok"] == (not out["violations"]),
                    f"chain verdict ok={out['ok']} disagrees with the values {vals}")

    @staticmethod
    def check_round(round_rec) -> None:
        import reference as ref

        keys = ("ce_over_box", "hc_over_c", "c_over_box")
        chain = [rec for rec in round_rec["ops"] if "sweep_seed" in rec["spec"]]
        best = {(rec["spec"]["n"], f"max_{key}"): 0.0 for rec in chain for key in keys}
        for rec in chain:
            if rec.get("out") is None:
                continue
            out, n = rec["out"], rec["spec"]["n"]
            for key in keys:
                r = out["ratios"][key]
                if key == "hc_over_c" and not out["hereditary"][1]:
                    continue
                if r is not None:
                    best[(n, f"max_{key}")] = max(best[(n, f"max_{key}")], r)
        rows = list(csv.DictReader(io.StringIO(round_rec["rendered"])))
        ref.require(len(rows) == len(best), f"sweep CSV has {len(rows)} rows, expected {len(best)}")
        for row in rows:
            want = best[(int(row["N"]), row["quantity"])]
            ref.require(ref.close(float(row["value"]), want, 1e-15),
                        f"sweep CSV row {row} != {want!r}")


def _keep_chain(rep):
    return {
        "box": (float(rep.box.value), tuple(int(i) for i in rep.box.witness["node"])),
        "carleson": (float(rep.carleson.value), rep.carleson.witness["mask"]),
        "hereditary": (float(rep.hereditary.value), bool(rep.hereditary.certified),
                       rep.hereditary.witness["mask"]),
        "embedding": (float(rep.embedding.value), _psi_support(rep.embedding)),
        "ratios": dict(rep.ratios),
        "ok": bool(rep.ok),
        "violations": list(rep.violations),
    }


def _psi_support(emb):
    psi = emb.witness["values"]
    return psi[np.nonzero(psi)].copy(), np.nonzero(psi)


def _psi_full(mass, kept):
    vals, where = kept
    psi = np.zeros(mass.shape)
    psi[where] = vals
    return psi


# ---------------------------------------------------------------------------
# dense_constants
# ---------------------------------------------------------------------------

WEIGHT_KINDS = ("product", "general")


def random_pair(spec):
    _, mu, w = instances.random_instance(spec["depth"], spec["depth"], spec["seed"],
                                         "boundary", spec["kind"])
    return mu, w


class DenseConstants:
    """Per round r, one ``carleson_constant`` at depth (5,5), weight kind
    alternating with r, and two ``embedding_constant`` at depth (8,8), one
    per weight kind, on ``random_instance(depth, depth, seed*100000 + 2*r +
    slot, "boundary", kind)``.  Carleson ops take about four times as long
    as embedding ops, so Carleson dominates the throughput and peak memory
    and the embedding ops hold the median."""

    name = "dense_constants"

    def __init__(self, seed: int):
        self.seed = seed

    def round_ops(self, r: int) -> list:
        base = self.seed * 100_000 + 2 * r
        specs = [{"op": "carleson", "depth": 5, "seed": base, "kind": WEIGHT_KINDS[r % 2]}]
        specs += [{"op": "embedding", "depth": 8, "seed": base + slot, "kind": kind}
                  for slot, kind in enumerate(WEIGHT_KINDS)]
        ops = []
        for spec in specs:
            mu, w = random_pair(spec)
            if spec["op"] == "carleson":
                ops.append(Op(f"carleson:{spec['kind']}", spec,
                              (lambda mu=mu, w=w: be.carleson_constant(mu, w)), _keep_carleson))
            else:
                ops.append(Op(f"embedding:{spec['kind']}", spec,
                              (lambda mu=mu, w=w: be.embedding_constant(mu, w)), _keep_embedding))
        return ops

    def finish_round(self, ops, outputs):
        return None

    @staticmethod
    def check(rec) -> None:
        import reference as ref

        mu, w = random_pair(rec["spec"])
        mass, weight = np.asarray(mu.values, dtype=float), np.asarray(w.values, dtype=float)
        out = rec["out"]
        if rec["spec"]["op"] == "carleson":
            ref.check_carleson(mass, weight, out["value"], out["mask"])
        else:
            ref.check_embedding(mass, weight, out["value"], _psi_full(mass, out["psi"]))

    @staticmethod
    def check_round(round_rec) -> None:
        return None


def _keep_carleson(rep):
    return {"value": float(rep.value), "mask": rep.witness["mask"]}


def _keep_embedding(rep):
    return {"value": float(rep.value), "psi": _psi_support(rep)}


# ---------------------------------------------------------------------------
# structured families, as sweep cells or counterexample reports
# ---------------------------------------------------------------------------

def _sweep_op(experiment, n, seed, fmt):
    def run():
        report = scenarios.sweep(experiment, [n], seed=seed, jobs=1)
        return scenarios.render_report(report, fmt)
    return run


def _counterexample_op(name, n, seed):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["counterexample", "--name", name, "--N", str(n), "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"counterexample --name {name} --N {n} exited {code}")
        return buf.getvalue()
    return run


def _rows(text: str, fmt: str) -> dict:
    if fmt == "json":
        rows = json.loads(text)["rows"]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    out = {}
    for row in rows:
        val = row["value"]
        rat = row["ratio"]
        out[row["quantity"]] = (None if val in (None, "") else float(val),
                                None if rat in (None, "") else float(rat))
    return out


def _in_quadrant(n, a, b, cell) -> bool:
    gx, kx, gy, ky = cell
    return (gx == gy == n and (1 << (n - a - 1)) <= kx < (1 << (n - a))
            and (1 << (n - b - 1)) <= ky < (1 << (n - b)))


def check_family(spec: dict, text: str) -> None:
    import reference as ref

    n, seed = spec["n"], spec["seed"]

    def same(label, got, want):
        ref.require(got is not None and ref.close(float(got), float(want)),
                    f"{spec['what']} N={n}: {label} = {got!r}, referee {want!r}")

    if spec["kind"] == "sweep" and spec["what"] == "rec_vs_embedding":
        rows = _rows(text, spec["fmt"])
        want = ref.layered_values(n)
        val, rat = rows["embedding_lower_ratio"]
        same("embedding_lower_ratio", val, want["embedding_lower_ratio"])
        same("embedding_lower_ratio/log2 M", rat, want["embedding_lower_ratio"] / math.log2(want["m_count"]))
        same("log2_m", rows["log2_m"][0], math.log2(want["m_count"]))
        fam = be.gen_rec_not_embedding(n)
        best = 0.0
        for k, (_, rects) in enumerate(ref.layered_pieces(n)):
            for a, b in rects:
                for cell in fam.quadrant_cells(a, b, 4, seed):
                    if not _in_quadrant(n, a, b, cell):
                        raise ref.CheckFailed(f"layered N={n}: a sample lies outside quadrant ({a},{b})")
                    best = max(best, ref.layered_tail_potential(n, k, cell))
        same("rec_surrogate_max", rows["rec_surrogate_max"][0], best)
    elif spec["kind"] == "sweep":
        rows = _rows(text, spec["fmt"])
        want = ref.upset_values(n)
        same("hc_witness", rows["hc_witness"][0], want["hereditary_witness"])
        same("carleson", rows["carleson"][0], want["carleson"])
        same("hc_witness_over_c", rows["hc_witness_over_c"][1],
             want["hereditary_witness"] / want["carleson"])
    elif spec["what"] == "upset":
        out = json.loads(text)
        want = ref.upset_values(n)
        ref.require(out["m_count"] == want["m_count"], f"upset N={n}: m_count {out['m_count']}")
        same("hereditary_witness", out["hereditary_witness"], want["hereditary_witness"])
        same("corner_potential", out["corner_potential"], want["corner_potential"])
        fam = be.gen_upset_car_not_rec(n)
        best = 0.0
        for _, cell in fam.sample_support(per_quadrant=8, seed=seed):
            if not any(_in_quadrant(n, a, b, cell) for a, b in ref.Staircase(n).base()):
                raise ref.CheckFailed(f"upset N={n}: a support sample lies outside every quadrant")
            best = max(best, ref.upset_cell_potential(n, cell))
        same("max_support_potential", out["max_support_potential"], best)
    else:
        out = json.loads(text)
        want = ref.layered_values(n)
        for key in ("m_count", "k_count"):
            ref.require(out[key] == want[key], f"layered N={n}: {key} {out[key]} != {want[key]}")
        for key in ("test_numerator", "test_denominator", "embedding_lower_ratio"):
            same(key, out[key], want[key])


WORKLOADS = {cls.name: cls for cls in (ChainSweep, DenseConstants)}
