"""Benchmark entry point; run from the root of a checkout:

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

Starts every workload process fresh, with BLAS and OpenMP pinned to one
thread, against the checkout's own ``src``:

1. seven set-up processes (one warm-up that fills the bytecode cache, then
   six measured), each importing the package and building the first
   round's inputs;
2. the workload process, timed for T seconds of whole rounds;
3. a checker process that referees every op's output independently.

With ``--trace 1`` step 2 runs every round twice, traced and untraced, side
by side; the per-layer metrics and the checked outputs come from the traced
rounds, and the gap between the two is the tracing overhead.  The last line
of stdout is the result JSON; a copy, and the traced spans, go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 6
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    for key in PINNED:
        env[key] = "1"
    env["PYTHONPATH"] = src
    env["BENCH_SRC"] = src
    env["PYTHONHASHSEED"] = "0"
    env.pop("BITREE_EMBED_OUTDIR", None)
    return env


def _worker(mode: str, args, env: dict, timeout: float, out: str | None = None,
            trace: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if out:
        cmd += ["--out", out]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(args, env, out: str, trace: bool) -> dict:
    os.makedirs(out, exist_ok=True)
    return _worker("run", args, env, args.seconds + 100, out, trace)


def _check(args, env, out: str) -> dict:
    check = _worker("check", args, env, 100, out)
    os.remove(os.path.join(out, "outputs.pkl"))
    return check


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bitree_embed", "__init__.py")):
        sys.stderr.write(f"no bitree_embed package under {src}; run from the repository root\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    env = _child_env(src)
    out = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        _worker("setup", args, env, 120)  # warm-up: bytecode cache, file cache
        setups = [_worker("setup", args, env, 120) for _ in range(SETUP_SAMPLES)]
        run = _run(args, env, out, trace=bool(args.trace))
        check = _check(args, env, out)
    except BenchError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    setups.append(run["setup"])
    ops = len(run["op_times"])
    failed = len(run["errors"]) + len(check["failures"])
    correct = not check["failures"] and not check["round_failures"]
    values = {
        "ops_per_s": ops / run["loop_s"],
        "op_p50_s": statistics.median(run["op_times"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
    }
    kind = "end_to_end"
    if args.trace:
        kind = "per_layer"
        values = dict(run["layers"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        values["trace.overhead_pct"] = 100.0 * (sum(run["op_times"]) / sum(run["plain_times"]) - 1.0)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    result = {"correct": correct, "attempted": ops, "failed": failed, "metrics": metrics}
    detail = {"result": result, "rounds": run["rounds"], "loop_s": run["loop_s"],
              "op_times": run["op_times"], "errors": run["errors"], "check": check,
              "setups": setups}
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for msg in list(run["errors"].values()) + list(check["failures"].values()) \
            + list(check["round_failures"].values()):
        sys.stderr.write(msg.rstrip() + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
