"""Experiment harness and CLI contracts: exit codes, artifacts, reports."""

import json
import os
import re

import pytest

from symbranch import cli
from symbranch.config import ExperimentConfig
from symbranch.experiments import (EXPERIMENTS, default_config,
                                   run_experiment, write_artifacts)

LINE_RE = re.compile(
    r"^\[(PASS|FAIL)\] .+: observed=\S+ target=\S+ tol=\S+ \(\d+\.\ds\)$")


def test_experiment_registry():
    assert len(EXPERIMENTS) == 11
    assert EXPERIMENTS == tuple(sorted(EXPERIMENTS))
    for name in EXPERIMENTS:
        assert default_config(name).experiment == name


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        default_config("frobnicate")
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment(ExperimentConfig(experiment="frobnicate"))


def test_report_lines_format():
    rep = run_experiment(default_config("trotter-refine"))
    assert rep.passed
    for line in rep.lines():
        assert LINE_RE.match(line), line


def test_artifacts_byte_identical(tmp_path):
    cfg = default_config("trotter-refine")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = write_artifacts(run_experiment(cfg), d1)
    p2 = write_artifacts(run_experiment(cfg), d2)
    assert [os.path.basename(p) for p in p1] == \
        [os.path.basename(p) for p in p2]
    for a, b in zip(p1, p2):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_artifact_schema(tmp_path):
    rep = run_experiment(default_config("trotter-refine"), out_dir=tmp_path)
    doc = json.load(open(tmp_path / "trotter-refine.json"))
    assert doc["experiment"] == "trotter-refine"
    assert doc["passed"] is True
    assert {"name", "observed", "target", "tolerance", "passed"} <= \
        set(doc["criteria"][0])
    # no wall-clock timing leaks into artifacts
    assert "runtime" not in doc["criteria"][0]
    csvs = [p for p in os.listdir(tmp_path) if p.endswith(".csv")]
    assert csvs
    for p in csvs:
        head = open(tmp_path / p).readline()
        assert "," in head


def test_cli_pass_exit_zero(tmp_path, capsys):
    code = cli.main(["trotter-refine", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out
    assert (tmp_path / "trotter-refine.json").exists()


def test_cli_criterion_failure_exit_one(capsys):
    # 300 samples cannot meet the 0.02 KS tolerance (noise floor ~0.08)
    code = cli.main(["exitlaw-validate", "--set", "rho_grid=[0.9]",
                     "--set", "replicas=300"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RESULT: FAIL" in out
    assert "[FAIL]" in out


def test_cli_config_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["trotter-refine", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"bogus_key": 1}))
    assert cli.main(["trotter-refine", "--config", str(good)]) == 2
    assert cli.main(["trotter-refine", "--config",
                     str(tmp_path / "missing.json")]) == 2
    assert cli.main(["trotter-refine", "--set", "nope=1"]) == 2


def test_cli_unknown_experiment_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-experiment"])
    assert exc.value.code == 2


def test_cli_voter_compare_is_gone():
    # the voter-limit experiment is the one three-route comparison
    with pytest.raises(SystemExit) as exc:
        cli.main(["voter", "compare"])
    assert exc.value.code == 2


def test_cli_exitlaw_validate(tmp_path, capsys):
    args = ["exitlaw", "validate", "--rho", "0.5", "--start", "1,1",
            "--samples", "4000", "--seed", "7", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho"] == 0.5
    assert doc["ks_u"] < 0.05 and doc["ks_v"] < 0.05
    assert abs(doc["mean_u_z"]) < 4.0
    assert abs(doc["hill_exponent"] - 1.5) < 0.4
    csv_path = tmp_path / "exitlaw_samples.csv"
    assert csv_path.read_text().splitlines()[0] == "axis,magnitude"
    assert (tmp_path / "exitlaw_summary.json").exists()

    # determinism: a rerun reproduces the sample file byte for byte
    again = tmp_path / "again"
    cli.main(["exitlaw", "validate", "--rho", "0.5", "--start", "1,1",
              "--samples", "4000", "--seed", "7", "--out", str(again)])
    capsys.readouterr()
    assert csv_path.read_bytes() == (again / "exitlaw_samples.csv").read_bytes()


def test_cli_sbm_run(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({
        "rho": 0.0, "gamma": 1.0, "horizon": 0.5, "dt": 0.01,
        "replicas": 64, "seed": 3, "graph": {"kind": "torus", "d": 1, "L": 4},
    }))
    assert cli.main(["sbm", "run", "--config", str(cfgp),
                     "--out", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["replicas"] == 64
    assert doc["aborted"] == 0 and doc["se_total_u"] > 0
    lines = (tmp_path / "sbm_fields.csv").read_text().splitlines()
    assert lines[0] == "replica,time,site,u,v"
    assert len(lines) == 1 + 64 * 4


def test_cli_dual_moment(capsys):
    cfg = {"rho": 0.0, "gamma": 1.0, "horizon": 0.5, "replicas": 200,
           "seed": 1, "graph": {"kind": "torus", "d": 1, "L": 4},
           "u_sites": [0], "v_sites": [2]}
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "c.json")
        json.dump(cfg, open(p, "w"))
        assert cli.main(["dual", "moment", "--config", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimate"] > 0 and doc["se"] >= 0
    assert doc["replicas"] == 200


def _run_cli_json(tmp_path, argv, cfg, name, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(cfg))
    code = cli.main(argv + ["--config", str(cfgp), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    return json.loads((tmp_path / name).read_text())


def _csv_header(path):
    return path.read_text().splitlines()[0]


_SMALL = {"rho": 0.0, "gamma": 1.0, "horizon": 0.3, "replicas": 32,
          "seed": 2, "graph": {"kind": "torus", "d": 1, "L": 4}}
_FIELDS_HEADER = "replica,time,site,u,v"
_SBMINF_KEYS = {"config", "method", "mean_total_u", "se_total_u",
                "mean_total_v", "se_total_v", "max_product"}


def test_cli_sbminf_run_trotter(tmp_path, capsys):
    cfg = dict(_SMALL, method="trotter", eps=0.1,
               initial={"u": [1.0, 0.0, 0.5, 0.0], "v": [0.0, 0.8, 0.0, 0.3]})
    doc = _run_cli_json(tmp_path, ["sbminf", "run"], cfg,
                        "sbminf_summary.json", capsys)
    assert set(doc) == _SBMINF_KEYS | {"effective_horizon"}
    assert doc["max_product"] == 0.0
    lines = (tmp_path / "sbminf_fields.csv").read_text().splitlines()
    assert lines[0] == _FIELDS_HEADER
    assert len(lines) == 1 + 32 * 4


def test_cli_sbminf_run_pdmp(tmp_path, capsys):
    cfg = dict(_SMALL, method="pdmp", trunc_eps=0.15,
               initial={"u": [1.0, 0.0, 0.5, 0.0], "v": [0.0, 0.8, 0.0, 0.3]})
    doc = _run_cli_json(tmp_path, ["sbminf", "run"], cfg,
                        "sbminf_summary.json", capsys)
    assert set(doc) == _SBMINF_KEYS | {"jumps_total", "swaps_total",
                                       "violations_total",
                                       "zeroed_mass_total"}
    assert doc["jumps_total"] > 0
    assert _csv_header(tmp_path / "sbminf_fields.csv") == _FIELDS_HEADER
    assert _csv_header(tmp_path / "sbminf_diagnostics.csv") == \
        "replica,n_jumps,n_swaps,violations,zeroed_mass"


def test_cli_sbminf_run_pdmp_rejects_times(tmp_path, capsys):
    # the jump process records only the horizon, so times cannot be honoured
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(dict(_SMALL, method="pdmp", times=[0.1, 0.3])))
    assert cli.main(["sbminf", "run", "--config", str(cfgp),
                     "--out", str(tmp_path)]) == 2
    assert "times" in capsys.readouterr().err
    assert not (tmp_path / "sbminf_fields.csv").exists()


def test_cli_dt_zero_is_config_error(capsys):
    # dt=0 used to fall back to the default step in exitlaw-validate
    assert cli.main(["exitlaw-validate", "--set", "dt=0", "--set",
                     "replicas=300", "--set", "rho_grid=[-0.5]"]) == 2
    assert "dt" in capsys.readouterr().err


def test_cli_dual_coalesce(tmp_path, capsys):
    cfg = dict(_SMALL, sites=[0, 2])
    doc = _run_cli_json(tmp_path, ["dual", "coalesce"], cfg,
                        "dual_coalesce.json", capsys)
    assert set(doc) == {"config", "estimate", "se", "replicas", "sites"}
    assert doc["sites"] == [0, 2] and 0.0 <= doc["estimate"] <= 1.0


def test_cli_dual_selfdual(tmp_path, capsys):
    cfg = dict(_SMALL, dt=0.01,
               initial={"u": [1.0, 0.0, 0.5, 0.0], "v": [0.0, 0.8, 0.0, 0.5]},
               initial_y={"u": [0.4, 0.0, 0.3, 0.0],
                          "v": [0.0, 0.2, 0.0, 0.5]})
    doc = _run_cli_json(tmp_path, ["dual", "selfdual"], cfg,
                        "dual_selfdual.json", capsys)
    assert set(doc) == {"config", "evolved_x", "evolved_y", "gap_re",
                        "gap_im", "se_gap_re", "se_gap_im", "replicas",
                        "aborted"}
    assert doc["aborted"] == 0


def test_cli_dual_selfdual_needs_initial_y(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(dict(_SMALL, dt=0.01)))
    assert cli.main(["dual", "selfdual", "--config", str(cfgp)]) == 2
    assert "initial_y" in capsys.readouterr().err


def test_cli_voter_run(tmp_path, capsys):
    cfg = dict(_SMALL, initial={"eta": [1, 1, 0, 0]}, times=[0.1, 0.3])
    doc = _run_cli_json(tmp_path, ["voter", "run"], cfg,
                        "voter_summary.json", capsys)
    assert set(doc) == {"config", "mean_density", "consensus_fraction",
                        "mean_flips"}
    lines = (tmp_path / "voter_fields.csv").read_text().splitlines()
    assert lines[0] == "replica,time,site,opinion"
    assert len(lines) == 1 + 32 * 2 * 4
