"""Scenario runner and sweep tables: machine-readable front end for the
constants, counterexample families and probes.

Scenario files are JSON documents against the ``bitree-embed/1`` schema;
reports are JSON or CSV with a frozen column order and 17-significant-digit
floats, byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import counterexamples as cx
from .constants import (
    box_constant,
    carleson_constant,
    embedding_constant,
    hereditary_constant,
    sawyer_conditions,
    verify_chain,
)
from .instances import random_instance
from .maximal import maximal_equivalence_probe
from .operators import MassFunction, WeightFunction, energy
from .trees import SizeError, build_bitree

SCHEMA_VERSION = "bitree-embed/1"

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "instance", "tasks"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "instance": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "builtin": {
                    "type": "object",
                    "required": ["name", "depth"],
                    "additionalProperties": False,
                    "properties": {
                        "name": {
                            "enum": [
                                "simple_car_not_rec",
                                "upset_car_not_rec",
                                "sum_of_products",
                                "rec_not_embedding",
                            ]
                        },
                        "depth": {"type": "integer", "minimum": 1},
                        "uniform": {"type": "boolean"},
                    },
                },
                "random": {
                    "type": "object",
                    "required": ["depth", "seed"],
                    "additionalProperties": False,
                    "properties": {
                        "depth": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 0},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                        "seed": {"type": "integer"},
                        "mass": {"enum": ["boundary", "boundary_atoms", "all_nodes"]},
                        "weight": {"enum": ["product", "general", "hooked", "upset_indicator"]},
                    },
                },
                "explicit": {
                    "type": "object",
                    "required": ["depth", "masses", "weights"],
                    "additionalProperties": False,
                    "properties": {
                        "depth": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 0},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                        "masses": {"type": "array", "items": {"type": "array",
                                   "items": {"type": "number"}, "minItems": 5, "maxItems": 5}},
                        "weights": {"type": "array", "items": {"type": "array",
                                    "items": {"type": "number"}, "minItems": 5, "maxItems": 5}},
                    },
                },
            },
        },
        "tasks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["op"],
                "additionalProperties": False,
                "properties": {
                    "op": {"type": "string"},
                    "params": {"type": "object"},
                },
            },
        },
    },
}


class ScenarioError(ValueError):
    def __init__(self, message: str, json_path: str = "$"):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path


def validate_scenario(spec: dict) -> dict:
    try:
        jsonschema.validate(spec, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ScenarioError(exc.message, exc.json_path) from exc
    return spec


def load_scenario(path: str) -> dict:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
    return validate_scenario(spec)


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

def build_instance(instance_spec: dict) -> dict:
    """Returns {"mu", "w", "family"?, "label"} for a validated instance spec."""
    if "builtin" in instance_spec:
        cfg = instance_spec["builtin"]
        name, n = cfg["name"], cfg["depth"]
        if name == "simple_car_not_rec":
            mu, w = cx.gen_simple_car_not_rec(n, uniform=cfg.get("uniform", False))
            return {"mu": mu, "w": w, "label": f"{name}:N={n}"}
        if name == "upset_car_not_rec":
            fam = cx.gen_upset_car_not_rec(n)
            out = {"family": fam, "label": f"{name}:N={n}"}
            try:
                mu, w = fam.dense()
                out.update(mu=mu, w=w)
            except SizeError:
                out.update(mu=None, w=None)
            return out
        if name == "sum_of_products":
            mu, w, fam = cx.gen_sum_of_products(n)
            return {"mu": mu, "w": w, "family": fam, "label": f"{name}:N={n}"}
        if name == "rec_not_embedding":
            fam = cx.gen_rec_not_embedding(n)
            return {"family": fam, "mu": None, "w": None, "label": f"{name}:N={n}"}
    if "random" in instance_spec:
        cfg = instance_spec["random"]
        dx, dy = cfg["depth"]
        _, mu, w = random_instance(dx, dy, cfg["seed"],
                                   cfg.get("mass", "boundary"), cfg.get("weight", "general"))
        return {"mu": mu, "w": w, "label": f"random:d=({dx},{dy}),seed={cfg['seed']}"}
    cfg = instance_spec["explicit"]
    dx, dy = cfg["depth"]
    topo = build_bitree(dx, dy)
    mv = topo.zeros()
    for gx, ox, gy, oy, val in cfg["masses"]:
        mv[topo.node_of_gens(int(gx), int(ox), int(gy), int(oy))] += val
    wv = topo.zeros()
    for gx, ox, gy, oy, val in cfg["weights"]:
        wv[topo.node_of_gens(int(gx), int(ox), int(gy), int(oy))] = val
    return {
        "mu": MassFunction(topo, mv),
        "w": WeightFunction.general(topo, wv),
        "label": f"explicit:d=({dx},{dy})",
    }


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _need_dense(inst):
    if inst.get("mu") is None:
        raise ScenarioError("task needs a dense-representable instance")
    return inst["mu"], inst["w"]


def _task_box(inst, params):
    mu, w = _need_dense(inst)
    return box_constant(mu, w).to_json()


def _task_carleson(inst, params):
    mu, w = _need_dense(inst)
    return carleson_constant(mu, w, method=params.get("method", "exact_mincut"),
                             tol=params.get("tol", 1e-12)).to_json()


def _task_hereditary(inst, params):
    mu, w = _need_dense(inst)
    return hereditary_constant(mu, w).to_json()


def _task_embedding(inst, params):
    mu, w = _need_dense(inst)
    return embedding_constant(mu, w, tol=params.get("tol", 1e-10)).to_json()


def _task_chain(inst, params):
    mu, w = _need_dense(inst)
    return verify_chain(mu, w, slack=params.get("slack", 1e-9)).to_json()


def _task_sawyer(inst, params):
    mu, w = _need_dense(inst)
    a1, a2, a3 = sawyer_conditions(mu, w)
    return {"A1": a1, "A2": a2, "A3": a3}


def _task_energy(inst, params):
    mu, w = _need_dense(inst)
    return {"energy": float(energy(mu, w)), "mass": float(mu.total_mass)}


def _task_corner_witness(inst, params):
    fam = inst.get("family")
    if fam is None:
        raise ScenarioError("task needs a structured corner family")
    if not fam.corner_atom:
        raise ScenarioError(f"corner witness needs a corner atom; the {fam.kind} family has none")
    ratio = fam.restricted_energy_at_corner_cell() / fam.corner_atom
    return {
        "hereditary_witness_ratio": float(ratio),
        "corner_potential": float(fam.potential_at((fam.depth, 0, fam.depth, 0))),
        "m_count": fam.m_count,
    }


def _task_maximal_probe(inst, params):
    mu, w = _need_dense(inst)
    rep = maximal_equivalence_probe(mu, sample_count=params.get("sample_count", 25),
                                    seed=params.get("seed", 0))
    return {
        "embedding_estimate": rep.embedding_estimate,
        "maximal_estimate": rep.maximal_estimate,
        "gap": rep.gap,
        "samples": rep.samples,
    }


TASK_REGISTRY = {
    "box_constant": _task_box,
    "carleson_constant": _task_carleson,
    "hereditary_constant": _task_hereditary,
    "embedding_constant": _task_embedding,
    "verify_chain": _task_chain,
    "sawyer_conditions": _task_sawyer,
    "energy": _task_energy,
    "corner_witness": _task_corner_witness,
    "maximal_probe": _task_maximal_probe,
}


def run_scenario(spec: dict, errors: list | None = None) -> dict:
    """Execute a validated scenario; per-task failures are embedded, not raised.

    When ``errors`` is given, each task failure is also appended to it as an
    exception (an unknown op as a ``ScenarioError``), so a caller can tell
    bad input from a solver failure without parsing the report.
    """
    errors = [] if errors is None else errors
    validate_scenario(spec)
    inst = build_instance(spec["instance"])
    report = {"schema": SCHEMA_VERSION, "instance": inst["label"], "tasks": []}
    for i, task in enumerate(spec["tasks"]):
        op = task["op"]
        entry = {"id": i, "op": op}
        fn = TASK_REGISTRY.get(op)
        if fn is None:
            entry["error"] = f"unknown op {op!r}"
            errors.append(ScenarioError(entry["error"]))
        else:
            try:
                entry["result"] = fn(inst, task.get("params", {}))
            except Exception as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
                errors.append(exc)
        report["tasks"].append(entry)
    return report


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["experiment", "construction", "N", "quantity", "value", "ratio", "witness", "seed"]


@dataclass
class SweepReport:
    experiment: str
    seed: int
    rows: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "seed": self.seed,
            "columns": CSV_COLUMNS,
            "rows": self.rows,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([_csv_cell(row.get(col)) for col in CSV_COLUMNS])
        return buf.getvalue()


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return v


def _row(experiment, construction, n, quantity, value, ratio=None, witness=None, seed=0):
    return {
        "experiment": experiment,
        "construction": construction,
        "N": n,
        "quantity": quantity,
        "value": None if value is None else float(value),
        "ratio": None if ratio is None else float(ratio),
        "witness": witness,
        "seed": seed,
    }


def _cell_chain_ratios(n: int, seed: int) -> list:
    rows = []
    best = {"ce_over_box": (0.0, None), "hc_over_c": (0.0, None), "c_over_box": (0.0, None)}
    per_cell = 20
    for i in range(per_cell):
        s = seed * 100_000 + n * 1000 + i
        rng = np.random.default_rng(s)
        topo = build_bitree(n, n)
        from .instances import random_mass, random_weight

        mu = random_mass(topo, rng, "boundary_atoms")
        if float(mu.total_mass) == 0:
            continue
        w = random_weight(topo, rng, "product")
        rep = verify_chain(mu, w)
        for key in best:
            r = rep.ratios.get(key)
            if r is not None and r > best[key][0]:
                best[key] = (r, f"seed={s}")
    for key, (val, wit) in best.items():
        rows.append(_row("chain_ratios_product_w", "random_product", n, f"max_{key}", val,
                         witness=wit, seed=seed))
    return rows


def _cell_car_vs_rec(n: int, seed: int) -> list:
    rows = []
    if n <= 10:  # the unit-atom family only materializes densely
        mu, w = cx.gen_simple_car_not_rec(n)
        her = hereditary_constant(mu, w)
        car = carleson_constant(mu, w)
        rows.append(_row("car_vs_rec", "simple", n, "hereditary", her.value, seed=seed))
        rows.append(_row("car_vs_rec", "simple", n, "carleson", car.value, seed=seed))
        rows.append(_row("car_vs_rec", "simple", n, "hc_over_c", None,
                         ratio=float(her.value) / float(car.value), seed=seed))
    if n >= 4 and n & (n - 1) == 0:
        fam = cx.gen_upset_car_not_rec(n)
        wit = float(fam.restricted_energy_at_corner_cell() / fam.corner_atom)
        rows.append(_row("car_vs_rec", "upset", n, "hc_witness", wit,
                         witness="corner_cell", seed=seed))
        # closed-form down-set optimum; equals the dense min-cut value where
        # both are computable and extends far beyond dense reach
        car2 = float(fam.exact_carleson_value())
        rows.append(_row("car_vs_rec", "upset", n, "carleson", car2, seed=seed))
        rows.append(_row("car_vs_rec", "upset", n, "hc_witness_over_c", None,
                         ratio=wit / car2, seed=seed))
    return rows


def _cell_rec_vs_embedding(n: int, seed: int) -> list:
    fam = cx.gen_rec_not_embedding(n)
    rhs = float(fam.energy(pieces=[0]))
    lhs = 0.0
    for piece in fam.pieces:
        for (a, b) in piece.rects:
            v = float(fam.potential_at((a, 0, b, 0), pieces=[0]))
            lhs += float(piece.rect_mass) * v * v
    ratio = lhs / rhs
    surrogate = 0.0
    for k in range(len(fam.pieces)):
        tail = list(range(k, len(fam.pieces)))
        for (a, b) in fam.pieces[k].rects:
            for node in fam.quadrant_cells(a, b, 4, seed):
                surrogate = max(surrogate, float(fam.potential_at(node, pieces=tail)))
    log2m = math.log2(fam.m_count)
    return [
        _row("rec_vs_embedding", "layered", n, "embedding_lower_ratio", ratio,
             ratio=ratio / log2m, seed=seed),
        _row("rec_vs_embedding", "layered", n, "rec_surrogate_max", surrogate, seed=seed),
        _row("rec_vs_embedding", "layered", n, "log2_m", log2m, seed=seed),
    ]


def _cell_sum_of_products(n: int, seed: int) -> list:
    mu, w, fam = cx.gen_sum_of_products(n)
    leaf = 1 << n
    mask = np.zeros(mu.topo.shape, dtype=bool)
    mask[leaf, leaf] = True
    restricted = mu.restrict(mask)
    wit = float(energy(restricted, w)) / float(restricted.total_mass)
    car = carleson_constant(mu, w)
    return [
        _row("sum_of_products", "counting_weight", n, "hc_witness", wit,
             witness="corner_cell", seed=seed),
        _row("sum_of_products", "counting_weight", n, "carleson", car.value, seed=seed),
        _row("sum_of_products", "counting_weight", n, "hc_witness_over_c", None,
             ratio=wit / float(car.value), seed=seed),
        _row("sum_of_products", "counting_weight", n, "m_count", fam.m_count, seed=seed),
    ]


def _cell_maximal_probe(n: int, seed: int) -> list:
    rows = []
    rng = np.random.default_rng(seed * 7919 + n)
    tree_topo = build_bitree(n, 0)
    bm = tree_topo.zeros()
    bm[1 << n :, 1] = rng.uniform(0.2, 1.0, size=1 << n)
    rep = maximal_equivalence_probe(MassFunction(tree_topo, bm), sample_count=25, seed=seed)
    rows.append(_row("maximal_probe", "tree", n, "embedding_estimate", rep.embedding_estimate,
                     ratio=rep.embedding_estimate / 4.0, seed=seed))
    rows.append(_row("maximal_probe", "tree", n, "maximal_estimate", rep.maximal_estimate, seed=seed))
    half = max(1, n // 2)
    pt = build_bitree(half, half)
    mx = rng.uniform(0.2, 1.0, size=1 << half)
    my = rng.uniform(0.2, 1.0, size=1 << half)
    pm = pt.zeros()
    pm[1 << half :, 1 << half :] = np.outer(mx, my)
    rep2 = maximal_equivalence_probe(MassFunction(pt, pm), sample_count=25, seed=seed)
    rows.append(_row("maximal_probe", "product_bitree", n, "embedding_estimate",
                     rep2.embedding_estimate, ratio=rep2.embedding_estimate / 16.0, seed=seed))
    rows.append(_row("maximal_probe", "product_bitree", n, "maximal_estimate",
                     rep2.maximal_estimate, seed=seed))
    return rows


EXPERIMENTS = {
    "chain_ratios_product_w": _cell_chain_ratios,
    "car_vs_rec": _cell_car_vs_rec,
    "rec_vs_embedding": _cell_rec_vs_embedding,
    "sum_of_products": _cell_sum_of_products,
    "maximal_probe": _cell_maximal_probe,
}


def _run_cell(args):
    name, n, seed = args
    return EXPERIMENTS[name](n, seed)


def sweep(experiment: str, n_values, seed: int = 0, jobs: int = 1) -> SweepReport:
    if experiment not in EXPERIMENTS:
        raise ScenarioError(f"unknown experiment {experiment!r}; known: {sorted(EXPERIMENTS)}")
    cells = [(experiment, int(n), seed) for n in n_values]
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(c) for c in cells]
    report = SweepReport(experiment=experiment, seed=seed)
    for rows in results:
        report.rows.extend(rows)
    _append_growth_fits(report)
    return report


def _append_growth_fits(report: SweepReport) -> None:
    """Least-squares slope of each quantity against log2 N, one summary row."""
    series: dict = {}
    for row in report.rows:
        if row["value"] is None or not isinstance(row["N"], int):
            continue
        series.setdefault((row["construction"], row["quantity"]), []).append(
            (math.log2(row["N"]), row["value"])
        )
    for (construction, quantity), pts in sorted(series.items()):
        if len(pts) < 2:
            continue
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope, intercept = np.polyfit(xs, ys, 1)
        report.rows.append(_row(report.experiment, construction, "fit",
                                f"{quantity}:slope_vs_log2N", float(slope),
                                ratio=float(intercept), seed=report.seed))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def default_out_dir() -> str | None:
    return os.environ.get("BITREE_EMBED_OUTDIR")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def render_report(obj, fmt: str = "json") -> str:
    if fmt == "json":
        payload = obj.to_json() if hasattr(obj, "to_json") else obj
        return json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        if not isinstance(obj, SweepReport):
            raise ScenarioError("csv output is only defined for sweep reports")
        return obj.to_csv()
    raise ScenarioError(f"unknown format {fmt!r}")


def write_report(obj, out: str | None = None, fmt: str = "json") -> str:
    text = render_report(obj, fmt)
    if out:
        if not os.path.isabs(out) and default_out_dir():
            out = os.path.join(default_out_dir(), out)
        with open(out, "w") as fh:
            fh.write(text)
    return text
