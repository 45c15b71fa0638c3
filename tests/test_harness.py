"""Experiment harness and CLI contracts: exit codes, artifacts, reports."""

import dataclasses
import inspect
import json
import os
import re

import pytest

from symbranch import cli, experiments, sbm_infinite
from symbranch.config import ExperimentConfig
from symbranch.experiments import (EXPERIMENTS, Checks, default_config,
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


def test_checks_verdicts_at_equality():
    # strict models FAIL at equality, non-strict ones PASS
    c = Checks()
    c.within("within", 1.5, 1.0, 0.5)
    c.within("within strict", 1.5, 1.0, 0.5, strict=True)
    c.within("within rel", 3.0, 2.0, 0.5, rel=True)
    c.within("within rel strict", 3.0, 2.0, 0.5, strict=True, rel=True)
    c.agree("agree", (3.0, 1.0), (0.0, 0.0))
    c.agree("agree inside", (0.0, 0.6), (2.9, 0.8))
    c.below("below strict", 0.0)
    c.below("below", 0.0, strict=False)
    c.below("below negative", -1e-12)
    c.pvalue("pvalue", 0.001, 0.001)
    c.pvalue("pvalue above", 0.0011, 0.001)
    assert {r.name: r.passed for r in c.rows} == {
        "within": True, "within strict": False, "within rel": True,
        "within rel strict": False, "agree": False, "agree inside": True,
        "below strict": False, "below": True, "below negative": True,
        "pvalue": False, "pvalue above": True}
    assert [r.model for r in c.rows] == ["within"] * 4 + ["agree"] * 2 + \
        ["below"] * 3 + ["pvalue"] * 2
    rel = c.rows[2]
    assert (rel.observed, rel.target, rel.tolerance) == (3.0, 2.0, 1.0)
    agree = c.rows[4]
    assert (agree.observed, agree.target, agree.tolerance) == (3.0, 0.0, 3.0)
    assert c.rows[-1].target == 1.0
    assert all(r.runtime >= 0.0 for r in c.rows)


def test_checks_nan_fails_every_model():
    nan = float("nan")
    c = Checks()
    for strict in (False, True):
        c.within("within", nan, 0.0, 1.0, strict=strict)
        c.within("within rel", nan, 1.0, 0.1, strict=strict, rel=True)
        c.below("below", nan, strict=strict)
    c.agree("agree", (nan, 1.0), (0.0, 0.0))
    c.agree("agree se", (0.0, nan), (0.0, 0.0))
    c.pvalue("pvalue", nan, 0.001)
    assert len(c.rows) == 9
    assert not any(r.passed for r in c.rows)


# test_bench_contract's tiny sizes, plus the two experiments it leaves out
_TINY = {
    "trotter-refine": dict(replicas=200),
    "voter-limit": dict(replicas=40),
    "mass-martingale": dict(replicas=50, horizon=0.05),
    "bracket-ratio": dict(replicas=50, horizon=0.05),
    "gamma-limit": dict(replicas=50, horizon=0.05),
    "duality-moment": dict(replicas=200, horizon=0.1),
    "duality-self": dict(replicas=50, horizon=0.05),
    "exitlaw-validate": dict(replicas=300, rho_grid=[-0.5]),
    "pdmp-vs-trotter": dict(replicas=50),
    "martingale-functional": dict(replicas=200),
    "moment-curve": dict(replicas=2000, rho_grid=[-0.5], dt=0.05),
}


def test_every_row_has_a_model_that_stays_out_of_artifacts(tmp_path):
    assert set(_TINY) == set(EXPERIMENTS)
    for name in EXPERIMENTS:
        rep = run_experiment(default_config(name, **_TINY[name]),
                             out_dir=tmp_path)
        assert rep.criteria, name
        for r in rep.criteria:
            assert r.model in ("within", "agree", "below", "pvalue"), r
        text = (tmp_path / f"{name}.json").read_text()
        assert '"model"' not in text and '"runtime"' not in text


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


# the subcommands that re-ran an experiment's setup without its checks;
# voter compare went earlier, for the same reason
_REMOVED_RUNNERS = (["exitlaw", "validate", "--rho", "0.5"], ["sbm", "run"],
                    ["sbminf", "run"], ["dual", "moment"], ["dual", "coalesce"],
                    ["dual", "selfdual"], ["voter", "run"],
                    ["voter", "compare"])


@pytest.mark.parametrize("argv", _REMOVED_RUNNERS,
                         ids=["-".join(a[:2]) for a in _REMOVED_RUNNERS])
def test_cli_removed_runner_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_cli_removed_config_keys_exit_two(capsys):
    # no experiment read these keys, yet each one accepted and recorded them
    for name in EXPERIMENTS:
        for raw in ("method=pdmp", "probes=[0]", "times=[0.1]", "sites=[0]"):
            assert cli.main([name, "--set", raw]) == 2, (name, raw)
            key = raw.split("=")[0]
            assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_every_config_field_is_read_by_an_experiment():
    # a knob that no driver reads would be accepted and recorded unused
    text = inspect.getsource(experiments)
    for field in dataclasses.fields(ExperimentConfig):
        assert re.search(rf"\bcfg\.{field.name}\b|\"{field.name}\"",
                         text), field.name


def test_cli_sbm_run_scheme_is_unknown_key(capsys):
    # the finite-rate simulator has one (Euler) scheme and no key to pick it
    assert cli.main(["mass-martingale", "--set", "scheme=split"]) == 2
    assert "scheme" in capsys.readouterr().err


def test_cli_dt_zero_is_config_error(capsys):
    # dt=0 used to fall back to the default step in exitlaw-validate
    assert cli.main(["exitlaw-validate", "--set", "dt=0", "--set",
                     "replicas=300", "--set", "rho_grid=[-0.5]"]) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_selfdual_side_without_survivors_is_config_error(capsys):
    # every replica started at u(0) = 1e200 overflows the Euler scheme and
    # aborts; a side needs 2 survivors for its mean and SE
    assert cli.main(["duality-self", "--set",
                     'initial={"u":[1e200,0,0.5,0],"v":[0,0.8,0,0.5]}',
                     "--set", "replicas=50", "--set", "horizon=0.05"]) == 2
    err = capsys.readouterr().err
    assert ("self-duality side 'evolved x': 0 of 50 replicas survived"
            in err), err


def _never(*args, **kwargs):
    raise AssertionError("the simulation must not start")


def test_cli_nonpositive_step_is_config_error(capsys, monkeypatch):
    # flow_substep=0 used to hang the jump process, eps=0 raised
    # ZeroDivisionError, eps < 0 or horizon < 0 ran zero steps and
    # horizon = 0 left both routes at the start, each into a degenerate
    # 0 < 0 FAIL; a started jump process fails fast here
    monkeypatch.setattr(sbm_infinite, "_pdmp_chunk", _never)
    for argv in (["pdmp-vs-trotter", "--set", "flow_substep=0"],
                 ["trotter-refine", "--set", "eps=0"],
                 ["trotter-refine", "--set", "eps=-0.1"],
                 ["martingale-functional", "--set", "horizon=-1"],
                 ["trotter-refine", "--set", "horizon=0"],
                 ["martingale-functional", "--set", "horizon=0"]):
        assert cli.main(argv) == 2, argv
        key = argv[-1].split("=")[0]
        assert f"{key} must be" in capsys.readouterr().err


def test_cli_site_out_of_range_is_config_error(capsys):
    # pairs=[[0,-1]] used to read site 7 and PASS; the others raised
    # IndexError and exited 1, the criterion-FAIL code
    for argv in (["voter-limit", "--set", "pairs=[[0,-1]]"],
                 ["voter-limit", "--set", "pairs=[[0,99]]"],
                 ["duality-moment", "--set", "u_sites=[5]"],
                 ["duality-moment", "--set", "v_sites=[-1]"]):
        assert cli.main(argv + ["--set", "replicas=40"]) == 2, argv
        key = argv[-1].split("=")[0]
        assert f"{key} must be a list" in capsys.readouterr().err


def test_cli_non_numeric_set_is_config_error(capsys):
    # exit 1 is the criterion-FAIL code, so a bad value must not reach a
    # comparison and raise a TypeError there
    for raw in ("dt=abc", "replicas=abc"):
        assert cli.main(["trotter-refine", "--set", raw]) == 2
        assert raw.split("=")[0] in capsys.readouterr().err


def test_cli_non_finite_set_is_config_error(capsys):
    # NaN gamma used to switch the noise off, NaN rho wrote NaN FAIL rows
    # and an infinite horizon raised OverflowError
    for raw in ("gamma=NaN", "rho=NaN", "horizon=Infinity"):
        assert cli.main(["duality-self", "--set", raw]) == 2
        assert raw.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("name, raw", [
    ("trotter-refine", "graph.L=3.7"),     # ran on L = 3, recorded 3.7
    ("trotter-refine", "graph.d=1.5"),
    ("trotter-refine", 'graph.L="4"'),
    ("duality-moment", "graph.rate=true"),  # ran at rate 1.0
    ("trotter-refine", 'graph={"kind":"dumbbell","rate":Infinity}'),
    ("duality-moment", 'graph={"kind":"dumbbell","rate":Infinity}'),
])
def test_cli_graph_spec_is_typed(capsys, name, raw):
    assert cli.main([name, "--set", raw]) == 2
    assert re.search(r"graph\.(L|d|rate) must be", capsys.readouterr().err)


@pytest.mark.parametrize("raw", ["rho_grid=0.5", "rho_grid=[true]",
                                 "initial=5", "initial_y=[1, 0]",
                                 "rho_grid=[]"])
def test_cli_config_blocks_are_shape_checked(capsys, raw):
    # the first and third raised TypeError in the driver (exit 1), the
    # second ran a row named rho=True, the last ran the default grid
    assert cli.main(["mass-martingale", "--set", raw]) == 2
    assert f"{raw.split('=')[0]} must be" in capsys.readouterr().err
