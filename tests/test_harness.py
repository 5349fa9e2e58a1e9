import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import bitree_embed
from bitree_embed import constants, scenarios
from bitree_embed.cli import main
from bitree_embed.constants import carleson_constant
from bitree_embed.counterexamples import CornerFamily
from bitree_embed.maxflow import SolverError
from bitree_embed.operators import MassFunction, WeightFunction
from bitree_embed.scenarios import (
    TASK_REGISTRY,
    ScenarioError,
    SweepReport,
    build_instance,
    render_report,
    run_scenario,
    sweep,
    validate_scenario,
)
from bitree_embed.trees import build_bitree


def scenario(instance, tasks):
    return {"schema": "bitree-embed/1", "instance": instance, "tasks": tasks}


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def test_schema_rejects_wrong_version():
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario({"random": {"depth": [1, 1], "seed": 0}}, []) | {"schema": "v2"})
    assert "schema" in str(err.value)


def test_schema_reports_json_path():
    bad = scenario({"random": {"depth": [1], "seed": 0}}, [])
    with pytest.raises(ScenarioError) as err:
        validate_scenario(bad)
    assert "depth" in err.value.json_path


def test_schema_rejects_unknown_builtin():
    bad = scenario({"builtin": {"name": "nope", "depth": 4}}, [])
    with pytest.raises(ScenarioError):
        validate_scenario(bad)


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

def test_builtin_staircase_scenario():
    spec = scenario(
        {"builtin": {"name": "simple_car_not_rec", "depth": 4}},
        [{"op": "hereditary_constant"}, {"op": "carleson_constant"}],
    )
    report = run_scenario(spec)
    her = report["tasks"][0]["result"]
    car = report["tasks"][1]["result"]
    assert her["value"] == pytest.approx(5.0)
    assert car["value"] <= 4.0


def test_empty_task_list():
    spec = scenario({"random": {"depth": [1, 1], "seed": 0}}, [])
    report = run_scenario(spec)
    assert report["tasks"] == []


def test_unknown_op_is_embedded_error():
    spec = scenario({"random": {"depth": [1, 1], "seed": 0}}, [{"op": "noop"}])
    report = run_scenario(spec)
    assert "error" in report["tasks"][0]


def test_structured_only_instance_rejects_dense_tasks():
    spec = scenario(
        {"builtin": {"name": "rec_not_embedding", "depth": 64}},
        [{"op": "box_constant"}, {"op": "corner_witness"}],
    )
    report = run_scenario(spec)
    assert "error" in report["tasks"][0]
    # the witness task works on structured families but this one has no
    # corner atom to divide by
    assert report["tasks"][1]["error"].startswith("ScenarioError: ")
    assert "corner atom" in report["tasks"][1]["error"]


def test_corner_witness_on_upset_family():
    spec = scenario(
        {"builtin": {"name": "upset_car_not_rec", "depth": 256}},
        [{"op": "corner_witness"}],
    )
    report = run_scenario(spec)
    res = report["tasks"][0]["result"]
    assert res["hereditary_witness_ratio"] == pytest.approx(5.00390625)
    assert res["m_count"] == 7


def test_upset_instance_beyond_dense_cap_is_structured_only():
    inst = build_instance({"builtin": {"name": "upset_car_not_rec", "depth": 1024}})
    assert inst["mu"] is None and inst["w"] is None
    assert inst["family"].depth == 1024


def test_upset_instance_propagates_other_dense_errors(monkeypatch):
    def broken(self, *args, **kwargs):
        raise ValueError("broken dense build")

    monkeypatch.setattr(CornerFamily, "dense", broken)
    with pytest.raises(ValueError, match="broken dense build"):
        build_instance({"builtin": {"name": "upset_car_not_rec", "depth": 4}})


def test_package_exports_no_submodules():
    assert not [name for name in bitree_embed.__all__
                if isinstance(getattr(bitree_embed, name), ModuleType)]
    assert "hereditary_constant" in bitree_embed.__all__


def test_explicit_instance_chain():
    spec = scenario(
        {
            "explicit": {
                "depth": [1, 1],
                "masses": [[1, 0, 1, 0, 1.0], [1, 1, 1, 1, 0.5]],
                "weights": [[0, 0, 0, 0, 1.0], [1, 0, 1, 0, 2.0]],
            }
        },
        [{"op": "verify_chain"}],
    )
    report = run_scenario(spec)
    res = report["tasks"][0]["result"]
    assert res["ok"]


def test_determinism_byte_identical():
    spec = scenario(
        {"random": {"depth": [2, 2], "seed": 0}},
        [{"op": "verify_chain"}, {"op": "box_constant"}],
    )
    a = render_report(run_scenario(spec))
    b = render_report(run_scenario(spec))
    assert a == b


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_unknown_experiment():
    with pytest.raises(ScenarioError):
        sweep("nope", [4])


def test_sweep_car_vs_rec_rows_and_fits():
    rep = sweep("car_vs_rec", [4, 8], seed=0)
    assert isinstance(rep, SweepReport)
    by_q = {}
    for row in rep.rows:
        by_q.setdefault((row["construction"], row["quantity"], row["N"]), row)
    h4 = by_q[("simple", "hereditary", 4)]["value"]
    h8 = by_q[("simple", "hereditary", 8)]["value"]
    assert h4 == pytest.approx(5.0) and h8 == pytest.approx(9.0)
    for n in (4, 8):
        assert by_q[("simple", "carleson", n)]["value"] <= 4.0
    # the witness-to-constant ratio increases with depth
    r4 = by_q[("simple", "hc_over_c", 4)]["ratio"]
    r8 = by_q[("simple", "hc_over_c", 8)]["ratio"]
    assert r8 > r4
    fits = [r for r in rep.rows if r["N"] == "fit"]
    assert any("hereditary" in r["quantity"] for r in fits)


def test_sweep_csv_format():
    rep = sweep("car_vs_rec", [4], seed=0)
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "experiment,construction,N,quantity,value,ratio,witness,seed"
    assert all(line.count(",") == 7 for line in lines)
    # 17 significant digits on floats
    row = next(line for line in lines if ",carleson," in line)
    value = row.split(",")[4]
    assert value == format(float(value), ".17g")


def test_sweep_determinism_and_jobs():
    a = sweep("maximal_probe", [3, 4], seed=5)
    b = sweep("maximal_probe", [3, 4], seed=5, jobs=2)
    assert render_report(a, "csv") == render_report(b, "csv")


def test_sweep_chain_ratios_envelope():
    rep = sweep("chain_ratios_product_w", [2], seed=0)
    vals = {row["quantity"]: row["value"] for row in rep.rows if row["N"] == 2}
    assert 1.0 <= vals["max_ce_over_box"] < 16.0
    assert 1.0 <= vals["max_hc_over_c"] < 16.0
    assert vals["max_c_over_box"] >= 1.0
    assert all(row["witness"].startswith("seed=") for row in rep.rows if row["N"] == 2)


def test_sweep_rec_vs_embedding_growth():
    rep = sweep("rec_vs_embedding", [64, 256], seed=0)
    vals = {row["N"]: row["value"] for row in rep.rows
            if row["quantity"] == "embedding_lower_ratio"}
    assert vals[256] > vals[64] > 1.0
    caps = [row["value"] for row in rep.rows if row["quantity"] == "rec_surrogate_max"]
    assert max(caps) <= 5.5


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--experiment", "bogus", "--N", "4"])
    assert exc.value.code == 1


def test_cli_constants_roundtrip(capsys):
    code = main(["constants", "--depth", "2", "2", "--seed", "1", "--weight", "product"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    ops = [t["op"] for t in payload["tasks"]]
    assert ops == ["box_constant", "carleson_constant", "hereditary_constant",
                   "embedding_constant", "verify_chain"]
    assert all("result" in t for t in payload["tasks"])


def test_cli_constants_computes_each_constant_once(monkeypatch, capsys):
    # the chain task reuses the reports of the constant tasks before it
    calls = []

    def counted(mu, w, **kw):
        calls.append(kw)
        return carleson_constant(mu, w, **kw)

    monkeypatch.setattr(scenarios, "carleson_constant", counted)
    monkeypatch.setattr(constants, "carleson_constant", counted)
    assert main(["constants", "--depth", "3", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_verify_ok(capsys):
    code = main(["verify", "--depth", "2", "2", "--seed", "0", "--count", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["failures"] == []


def test_cli_counterexample_simple(capsys):
    code = main(["counterexample", "--name", "simple", "--N", "6"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["hereditary"] == pytest.approx(7.0)
    assert payload["carleson"] <= 4.0


def test_cli_counterexample_upset_structured(capsys):
    code = main(["counterexample", "--name", "upset", "--N", "1024"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["m_count"] == 9
    assert payload["corner_potential"] >= 9.0
    assert "carleson" not in payload  # beyond dense reach


def test_cli_scenario_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario(
        {"builtin": {"name": "simple_car_not_rec", "depth": 4}},
        [{"op": "hereditary_constant"}],
    )))
    code = main(["constants", "--scenario", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["tasks"][0]["result"]["value"] == pytest.approx(5.0)


def test_cli_counterexample_parameter_error_exit_code(capsys):
    code = main(["counterexample", "--name", "upset", "--N", "12"])
    capsys.readouterr()
    assert code == 1
    code = main(["counterexample", "--name", "layered", "--N", "4"])
    capsys.readouterr()
    assert code == 1


def test_cli_scenario_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "bitree-embed/1", "instance": {}, "tasks": []}))
    code = main(["constants", "--scenario", str(path)])
    assert code == 1


def test_cli_scenario_task_error_exit_codes(tmp_path, monkeypatch, capsys):
    path = tmp_path / "scenario.json"
    instance = {"builtin": {"name": "rec_not_embedding", "depth": 64}}
    path.write_text(json.dumps(scenario(instance, [{"op": "corner_witness"}, {"op": "no_such_op"}])))
    # usage-type task errors (a ScenarioError, an unknown op) exit 1
    assert main(["constants", "--scenario", str(path)]) == 1
    tasks = json.loads(capsys.readouterr().out)["tasks"]
    assert tasks[0]["error"].startswith("ScenarioError: ")
    assert tasks[1]["error"] == "unknown op 'no_such_op'"

    # a solver failure exits 3, also beside a usage-type error
    def solver_fails(inst, params):
        raise SolverError("flow did not converge")

    monkeypatch.setitem(TASK_REGISTRY, "energy", solver_fails)
    path.write_text(json.dumps(scenario(instance, [{"op": "corner_witness"}, {"op": "energy"}])))
    assert main(["constants", "--scenario", str(path)]) == 3
    tasks = json.loads(capsys.readouterr().out)["tasks"]
    assert tasks[1]["error"] == "SolverError: flow did not converge"


def test_cli_out_file_and_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BITREE_EMBED_OUTDIR", str(tmp_path))
    code = main(["sweep", "--experiment", "car_vs_rec", "--N", "4",
                 "--format", "csv", "--out", "rows.csv"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "rows.csv").read_text().startswith("experiment,")


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bitree-embed ")]


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BITREE_EMBED_OUTDIR", str(tmp_path))
    (tmp_path / "scenario.json").write_text(json.dumps(scenario(
        {"random": {"depth": [3, 3], "seed": 0, "weight": "product"}},
        [{"op": op} for op in ("box_constant", "carleson_constant", "hereditary_constant",
                                "embedding_constant", "verify_chain")],
    )))
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert json.loads((tmp_path / "report.json").read_text())["tasks"][2]["result"]["certified"]


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["constants"],
    ["counterexample", "--name", "simple", "--N", "2"],
    ["selftest"],
])
def test_format_option_only_on_sweep(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 1
    assert "--format" in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("counterexample_simple_8.json", "counterexample --name simple --N 8"),
    ("counterexample_upset_64.json", "counterexample --name upset --N 64"),
    ("counterexample_layered_256.json", "counterexample --name layered --N 256"),
    ("counterexample_sum_of_products_8.json", "counterexample --name sum_of_products --N 8"),
    ("sweep_car_vs_rec_4_8.json", "sweep --experiment car_vs_rec --N 4 8"),
    ("sweep_rec_vs_embedding_64_256.json", "sweep --experiment rec_vs_embedding --N 64 256"),
    ("sweep_sum_of_products_4_8.csv", "sweep --experiment sum_of_products --N 4 8 --format csv"),
    ("selftest.txt", "selftest"),
    ("constants_product_3_3.json", "constants --depth 3 3 --seed 0 --weight product"),
    ("constants_general_3_3.json", "constants --depth 3 3 --seed 1 --weight general"),
    ("constants_hooked_3_2.json", "constants --depth 3 2 --seed 2 --weight hooked"),
    ("constants_upset_indicator_2_3.json",
     "constants --depth 2 3 --seed 3 --weight upset_indicator --mass all_nodes"),
    ("verify_2_2_count_10.json", "verify --depth 2 2 --seed 0 --count 10"),
])
def test_golden_outputs(name, argv, capsys):
    # recorded from the command line before the family quantities and the
    # sweep kernel were consolidated, the constants and verify reports before
    # the exact and float arithmetic were unified; stdout must stay
    # byte-identical.  The hereditary values, and the hc_over_c and ce_over_hc
    # ratios taken from them, were re-recorded on Goldberg's network, where
    # they moved by at most 1.2e-15 relative
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_enumeration_solver_left_the_library():
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--method", "brute_force"])
    assert exc.value.code == 1
    topo = build_bitree(1, 1)
    mu = MassFunction.uniform_boundary(topo)
    with pytest.raises(TypeError):
        carleson_constant(mu, WeightFunction.constant(topo), method="brute_force")
    assert not hasattr(bitree_embed, "enumerate_down_sets")
    assert "enumerate_down_sets" not in bitree_embed.__all__


def _child_env():
    # the child imports the same package as this process, also when only
    # pytest's own pythonpath setting put it on sys.path
    src = str(Path(bitree_embed.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_package_import_leaves_jsonschema_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bitree_embed; print('jsonschema' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "bitree_embed.cli", "selftest"],
        capture_output=True, text=True, timeout=300, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout


def test_traced_names_resolve():
    # the benchmark traces the package by these names; a rename breaks it
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS and tracing.METHODS
    for _, modname, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for _, modname, cls, attr, _ in tracing.METHODS:
        klass = getattr(importlib.import_module(modname), cls)
        assert callable(getattr(klass, attr)), (modname, cls, attr)
