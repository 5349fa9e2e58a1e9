"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 assertion/verification failure,
3 solver failure.  ``constants`` reports failed tasks inside its report and
exits 1 when every failure is a usage-type error (bad scenario input: a
``ValueError`` such as ``ScenarioError``, ``SizeError`` or
``ParameterError``), 3 when any task failed otherwise.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import counterexamples as cx
from .constants import carleson_constant, hereditary_constant, verify_chain
from .maxflow import SolverError
from .operators import energy_downset, quotient
from .scenarios import (
    EXPERIMENTS,
    ScenarioError,
    load_scenario,
    run_scenario,
    sweep,
    write_report,
)
from .trees import is_down_mask

EXIT_OK, EXIT_USAGE, EXIT_ASSERTION, EXIT_SOLVER = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="bitree-embed",
                description="embedding constants and extremal families on dyadic bi-trees")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output file (relative paths land in $BITREE_EMBED_OUTDIR)")

    sp = sub.add_parser("constants", help="compute the four constants on an instance")
    sp.add_argument("--scenario", help="JSON scenario file; overrides --depth/--seed")
    sp.add_argument("--depth", type=int, nargs=2, metavar=("DX", "DY"), default=[3, 3])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mass", default="boundary", choices=["boundary", "boundary_atoms", "all_nodes"])
    sp.add_argument("--weight", default="general",
                    choices=["product", "general", "hooked", "upset_indicator"])
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)

    sp = sub.add_parser("verify", help="check the four-constant chain on random instances")
    sp.add_argument("--depth", type=int, nargs=2, metavar=("DX", "DY"), default=[2, 2])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--weight", default="general",
                    choices=["product", "general", "upset_indicator"])
    common(sp)

    sp = sub.add_parser("counterexample", help="reproduce an extremal family")
    sp.add_argument("--name", required=True,
                    choices=["simple", "upset", "layered", "sum_of_products"])
    sp.add_argument("--N", type=int, required=True, help="bi-tree depth parameter")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    sp = sub.add_parser("sweep", help="run a registered experiment over a range of N")
    sp.add_argument("--experiment", required=True, choices=sorted(EXPERIMENTS))
    sp.add_argument("--N", type=int, nargs="+", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    common(sp)

    sp = sub.add_parser("selftest", help="quick internal consistency battery")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    return p


def _cmd_constants(args) -> int:
    errors: list = []
    if args.scenario:
        spec = load_scenario(args.scenario)
    else:
        spec = {
            "schema": "bitree-embed/1",
            "instance": {"random": {"depth": list(args.depth), "seed": args.seed,
                                    "mass": args.mass, "weight": args.weight}},
            "tasks": [
                {"op": "box_constant"},
                {"op": "carleson_constant"},
                {"op": "hereditary_constant"},
                {"op": "embedding_constant", "params": {"tol": args.tol}},
                {"op": "verify_chain"},
            ],
        }
    report = run_scenario(spec, errors)
    sys.stdout.write(write_report(report, args.out))
    if not errors:
        return EXIT_OK
    # bad input (the same errors main() maps to exit 1) only when no task
    # failed for another reason
    if all(isinstance(exc, ValueError) for exc in errors):
        return EXIT_USAGE
    return EXIT_SOLVER


def _cmd_verify(args) -> int:
    from .instances import random_instance

    failures = []
    reports = []
    for i in range(args.count):
        _, mu, w = random_instance(args.depth[0], args.depth[1], args.seed + i,
                                   "boundary_atoms", args.weight)
        if float(mu.total_mass) == 0:
            continue
        rep = verify_chain(mu, w)
        reports.append({"seed": args.seed + i, "ok": rep.ok,
                        "ratios": rep.ratios, "violations": rep.violations})
        if not rep.ok:
            failures.append(args.seed + i)
    out = {"schema": "bitree-embed/1", "command": "verify",
           "depth": list(args.depth), "instances": reports, "failures": failures}
    sys.stdout.write(write_report(out, args.out))
    return EXIT_ASSERTION if failures else EXIT_OK


def _cmd_counterexample(args) -> int:
    n = args.N
    out: dict = {"schema": "bitree-embed/1", "command": "counterexample", "name": args.name, "N": n}
    if args.name == "simple":
        mu, w = cx.gen_simple_car_not_rec(n)
        her = hereditary_constant(mu, w)
        car = carleson_constant(mu, w)
        out.update(hereditary=float(her.value), carleson=float(car.value),
                   expected_hereditary=n + 1,
                   separation=float(her.value) / float(car.value))
    elif args.name == "upset":
        fam = cx.gen_upset_car_not_rec(n)
        out.update(m_count=fam.m_count,
                   corner_potential=float(fam.potential_at((n, 0, n, 0), include_atom=False)),
                   hereditary_witness=float(fam.corner_witness_ratio()),
                   max_support_potential=max(
                       float(fam.potential_at(node, include_atom=False))
                       for _, node in fam.sample_support(per_quadrant=8, seed=args.seed)))
        if n <= 8:
            mu, w = fam.dense()
            out["carleson"] = float(carleson_constant(mu, w).value)
    elif args.name == "layered":
        fam = cx.gen_rec_not_embedding(n)
        lhs, rhs = fam.embedding_test()
        out.update(m_count=fam.m_count, k_count=len(fam.pieces) - 1,
                   test_numerator=lhs, test_denominator=rhs,
                   embedding_lower_ratio=lhs / rhs)
    else:
        mu, w, fam = cx.gen_sum_of_products(n)
        e, m = cx.corner_cell_restriction(mu, w)
        out.update(m_count=fam.m_count,
                   hereditary_witness=float(e) / float(m),
                   carleson=float(carleson_constant(mu, w).value))
    sys.stdout.write(write_report(out, args.out))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = sweep(args.experiment, args.N, seed=args.seed, jobs=args.jobs)
    sys.stdout.write(write_report(report, args.out, args.format))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .instances import small_oracle_instance

    lines = []
    ok_all = True

    def check(name, ok):
        nonlocal ok_all
        ok_all &= bool(ok)
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")

    rng = np.random.default_rng(args.seed)
    for i in range(10):
        _, mu, w = small_oracle_instance(int(rng.integers(0, 2**31)))
        if float(mu.total_mass) == 0:
            continue
        # the witness down-set attains the reported value
        car = carleson_constant(mu, w)
        mask = car.witness["mask"]
        ratio = float(energy_downset(mu, w, mask)) / float((mu.values * mask).sum())
        check(f"carleson witness ratio #{i}",
              is_down_mask(mu.topo, mask)
              and abs(ratio - float(car.value)) <= 1e-9 * max(1.0, float(car.value)))
        rep = verify_chain(mu, w)
        check(f"chain order #{i}", rep.ok)
    mu, w = cx.gen_simple_car_not_rec(4, exact=True)
    e, m = cx.corner_cell_restriction(mu, w)
    check("staircase corner ratio == N+1", quotient(e, m) == 5)
    check("staircase carleson <= 4", carleson_constant(mu, w).value <= 4)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        write_report({"schema": "bitree-embed/1", "command": "selftest",
                      "lines": lines, "ok": ok_all}, args.out)
    return EXIT_OK if ok_all else EXIT_ASSERTION


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "counterexample":
            return _cmd_counterexample(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_selftest(args)
    except ScenarioError as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return EXIT_USAGE
    except (cx.ParameterError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
