"""Spans around the program's layers, recorded from outside the program.

``install`` replaces each traced function at every name its callers look it
up by: module globals in ``bitree_embed.*`` (and in the benchmark's own
modules), the ``EXPERIMENTS`` registry, and class attributes for methods.
The replacements can be switched off again between rounds.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# traced callables: (span name, module, attribute, extra-data extractor)
FUNCTIONS = [
    ("hardy_forward", "bitree_embed.operators", "hardy_forward", None),
    ("hardy_adjoint", "bitree_embed.operators", "hardy_adjoint", None),
    ("energy_density", "bitree_embed.operators", "energy_density", None),
    ("down_closure", "bitree_embed.trees", "down_closure", None),
    ("box", "bitree_embed.constants", "box_constant", None),
    ("carleson", "bitree_embed.constants", "carleson_constant",
     lambda a, k, out: out.diagnostics.get("relevant_nodes", 0)),
    ("hereditary", "bitree_embed.constants", "hereditary_constant",
     lambda a, k, out: (out.diagnostics.get("support", 0), bool(out.certified))),
    ("lca_kernel", "bitree_embed.constants", "lca_kernel", None),
    ("embedding", "bitree_embed.constants", "embedding_constant",
     lambda a, k, out: out.diagnostics.get("iterations", 0)),
    ("dinkelbach", "bitree_embed.maxflow", "dinkelbach_max_ratio", lambda a, k, out: out[2]),
    ("closure", "bitree_embed.maxflow", "max_weight_closure", None),
    ("render", "bitree_embed.scenarios", "render_report", lambda a, k, out: len(out.encode())),
]
METHODS = [
    ("max_flow", "bitree_embed.maxflow", "FlowNetwork", "max_flow",
     lambda a, k, out: len(a[0].to) // 2),
    ("potential_at", "bitree_embed.counterexamples", "CornerFamily", "potential_at", None),
    ("family_energy", "bitree_embed.counterexamples", "CornerFamily", "energy", None),
    ("exact_carleson", "bitree_embed.counterexamples", "CornerFamily", "exact_carleson_value", None),
]


class Tracer:
    """Span list [name, start, end, parent index, op index, extra]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


class Patches:
    """Every rebinding ``install`` made, so tracing can be switched off and
    on between rounds: (namespace, key, original, traced)."""

    def __init__(self):
        self.items: list = []

    def add(self, space, key, traced) -> None:
        self.items.append((space, key, _get(space, key), traced))

    def enable(self, on: bool) -> None:
        for space, key, orig, traced in self.items:
            _set(space, key, traced if on else orig)


def _get(space, key):
    return space[key] if isinstance(space, dict) else getattr(space, key)


def _set(space, key, value) -> None:
    if isinstance(space, dict):
        space[key] = value
    else:
        setattr(space, key, value)


def install(tracer: Tracer, extra_modules=()) -> Patches:
    """Rebind the traced callables (tracing on) and return the patches."""
    import importlib

    patches = Patches()
    mods = [m for n, m in list(sys.modules.items()) if n.startswith("bitree_embed")]
    mods += list(extra_modules)
    for name, modname, attr, extra in FUNCTIONS:
        orig = getattr(importlib.import_module(modname), attr)
        traced = tracer.wrap(name, orig, extra)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    patches.add(mod, key, traced)
    for name, modname, cls, attr, extra in METHODS:
        klass = getattr(importlib.import_module(modname), cls)
        patches.add(klass, attr, tracer.wrap(name, getattr(klass, attr), extra))
    experiments = importlib.import_module("bitree_embed.scenarios").EXPERIMENTS
    for key, fn in list(experiments.items()):
        patches.add(experiments, key, tracer.wrap("cell", fn))
    patches.enable(True)
    return patches


def layer_metrics(spans, ops: int) -> dict:
    """Per-op means of the per-layer metrics (see README)."""
    total: dict = {}
    count: dict = {}
    child_time = [0.0] * len(spans)
    for rec in spans:
        name, t0, t1, parent = rec[0], rec[1], rec[2], rec[3]
        total[name] = total.get(name, 0.0) + (t1 - t0)
        count[name] = count.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += t1 - t0

    def extras(name):
        return [rec[5] for rec in spans if rec[0] == name and rec[5] is not None]

    hardy = ("hardy_forward", "hardy_adjoint")
    carleson_self = sum(rec[2] - rec[1] - child_time[i]
                        for i, rec in enumerate(spans) if rec[0] == "carleson")
    matvec = sum(rec[2] - rec[1] for rec in spans
                 if rec[0] in hardy and rec[3] >= 0 and spans[rec[3]][0] == "embedding")
    her = extras("hereditary")
    raw = {
        "operators.hardy_calls": sum(count.get(h, 0) for h in hardy),
        "operators.hardy_s": sum(total.get(h, 0.0) for h in hardy),
        "operators.energy_density_s": total.get("energy_density", 0.0),
        "constants.box_s": total.get("box", 0.0),
        "constants.carleson_s": total.get("carleson", 0.0),
        "constants.carleson_graph_s": carleson_self,
        "constants.carleson_relevant_nodes": sum(extras("carleson")),
        "maxflow.dinkelbach_s": total.get("dinkelbach", 0.0),
        "maxflow.dinkelbach_rounds": sum(extras("dinkelbach")),
        "maxflow.closure_calls": count.get("closure", 0),
        "maxflow.max_flow_s": total.get("max_flow", 0.0),
        "maxflow.graph_edges": sum(extras("max_flow")),
        "constants.hereditary_s": total.get("hereditary", 0.0),
        "constants.lca_kernel_s": total.get("lca_kernel", 0.0),
        "constants.hereditary_support": sum(s for s, _ in her),
        "constants.hereditary_uncertified": sum(1 for _, c in her if not c),
        "constants.embedding_s": total.get("embedding", 0.0),
        "constants.embedding_iters": sum(extras("embedding")),
        "constants.embedding_matvec_s": matvec,
        "trees.down_closure_s": total.get("down_closure", 0.0),
        "counterexamples.potential_at_calls": count.get("potential_at", 0),
        "counterexamples.potential_at_s": total.get("potential_at", 0.0),
        "counterexamples.energy_s": total.get("family_energy", 0.0),
        "counterexamples.exact_carleson_s": total.get("exact_carleson", 0.0),
        "scenarios.cell_s": total.get("cell", 0.0),
        "scenarios.render_s": total.get("render", 0.0),
        "scenarios.report_bytes": sum(extras("render")),
    }
    return {k: v / max(ops, 1) for k, v in raw.items()}
