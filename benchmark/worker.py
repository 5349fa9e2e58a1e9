"""One workload process, started by run.py with BLAS/OpenMP pinned to one
thread and ``PYTHONPATH`` set to the checkout's ``src``.

    worker.py setup --workload W --seed S
    worker.py run   --workload W --seed S --seconds T --out DIR [--trace]
    worker.py check --workload W --out DIR

``setup`` imports the package and builds the first round's inputs.  ``run``
does the same, then runs whole rounds until the timed part reaches T
seconds, pickling each round's outputs to DIR between rounds (untimed).
With ``--trace`` every round also runs once untraced, next to its traced
run, for the tracing overhead; only the traced rounds count towards T.
``check`` referees those outputs in a separate process, so that neither
scipy nor the checks count towards the run's time or peak memory.  Each mode
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import sys
import traceback
from time import perf_counter


def _setup(workload: str, seed: int):
    t0 = perf_counter()
    import bitree_embed

    import workloads

    t1 = perf_counter()
    expected = os.environ.get("BENCH_SRC")
    origin = os.path.realpath(bitree_embed.__file__)
    if expected and not origin.startswith(os.path.realpath(expected) + os.sep):
        raise SystemExit(f"bitree_embed imported from {origin}, not from {expected}")
    wl = workloads.WORKLOADS[workload](seed)
    first = wl.round_ops(0)
    t2 = perf_counter()
    return wl, first, {"import_s": t1 - t0, "inputs_s": t2 - t1}


def cmd_setup(args) -> dict:
    _, _, times = _setup(args.workload, args.seed)
    return times


def _run_round(ops, tracer=None, base=0):
    """Time each op of a round; returns (times, outputs, errors by position)."""
    times, outputs, errors = [], [], {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = base + i
        t = perf_counter()
        try:
            out = op.run()
        except Exception:  # a failed op is counted, the run goes on
            out = None
            errors[i] = traceback.format_exc(limit=3)
        times.append(perf_counter() - t)
        outputs.append(out)
    return times, outputs, errors


def _untraced_times(ops, patches) -> list:
    patches.enable(False)
    try:
        return _run_round(ops)[0]
    finally:
        patches.enable(True)


def cmd_run(args) -> dict:
    wl, ops, setup_times = _setup(args.workload, args.seed)
    tracer = patches = None
    if args.trace:
        import tracing
        import workloads

        tracer = tracing.Tracer()
        patches = tracing.install(tracer, [workloads])
    op_times: list = []
    plain_times: list = []
    errors: dict = {}
    loop_s = 0.0
    r = 0
    with open(os.path.join(args.out, "outputs.pkl"), "wb") as fh:
        while True:
            base = len(op_times)
            # traced mode runs each round untraced too, for the overhead,
            # alternating which goes first so neither gains from going second
            plain_first = patches is not None and r % 2 == 0
            if plain_first:
                plain_times += _untraced_times(ops, patches)
            t_round = perf_counter()
            times, outputs, errs = _run_round(ops, tracer, base)
            rendered = wl.finish_round(ops, outputs)
            loop_s += perf_counter() - t_round
            if patches is not None and not plain_first:
                plain_times += _untraced_times(ops, patches)
            op_times += times
            errors.update({base + i: msg for i, msg in errs.items()})
            recs = [{"index": base + i, "label": op.label, "spec": op.spec,
                     "out": None if out is None else op.keep(out)}
                    for i, (op, out) in enumerate(zip(ops, outputs))]
            pickle.dump({"round": r, "ops": recs, "rendered": rendered}, fh)
            del outputs, recs
            r += 1
            if loop_s >= args.seconds:
                break
            ops = wl.round_ops(r)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup": setup_times, "op_times": op_times, "loop_s": loop_s, "rounds": r,
              "errors": errors, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer.spans, len(op_times))
        result["plain_times"] = plain_times
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": tracer.spans}, fh)
    return result


def cmd_check(args) -> dict:
    import reference
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    t0 = perf_counter()
    checked, failures, round_failures = 0, {}, {}
    with open(os.path.join(args.out, "outputs.pkl"), "rb") as fh:
        while True:
            try:
                round_rec = pickle.load(fh)
            except EOFError:
                break
            for rec in round_rec["ops"]:
                if rec["out"] is None:
                    continue
                checked += 1
                try:
                    cls.check(rec)
                except reference.CheckFailed as exc:
                    failures[rec["index"]] = f"{rec['label']}: {exc}"
            try:
                cls.check_round(round_rec)
            except reference.CheckFailed as exc:
                round_failures[round_rec["round"]] = str(exc)
    return {"checked": checked, "failures": failures, "round_failures": round_failures,
            "check_s": perf_counter() - t0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "run", "check"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    result = {"setup": cmd_setup, "run": cmd_run, "check": cmd_check}[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
