"""Acceptance suite: one test per shipped criterion, at full size.

Each experiment runs once at its built-in configuration and the report is
cached at module scope, so criteria that read the same run share it. The
whole file takes a few minutes; run it with -v to get one PASS/FAIL line
per criterion.
"""

import os

import pytest

from symbranch.experiments import (EXPERIMENTS, default_config,
                                   run_experiment, write_artifacts)

pytestmark = pytest.mark.acceptance

_CACHE = {}


def _report(name):
    if name not in _CACHE:
        _CACHE[name] = run_experiment(default_config(name))
    return _CACHE[name]


def _rows(name, prefix):
    got = [r for r in _report(name).criteria if r.name.startswith(prefix)]
    assert got, f"no criterion rows named {prefix!r} in {name}"
    return got


def _all_pass(rows):
    bad = [f"  {r.name}: observed={r.observed!r} target={r.target!r} "
           f"tol={r.tolerance!r}" for r in rows if not r.passed]
    assert not bad, "failed checks:\n" + "\n".join(bad)


def test_criterion_01_critical_exponent_values():
    rows = _rows("exitlaw-validate", "critical exponent")
    by_rho = {float(r.name.split("rho=")[1]): r for r in rows}
    assert by_rho[0.0].observed == 2.0 and by_rho[0.0].tolerance == 0.0
    assert by_rho[1.0].observed == 1.0 and by_rho[1.0].tolerance == 0.0
    assert abs(by_rho[-0.5].observed - 3.0) <= 1e-12
    assert abs(by_rho[0.5].observed - 1.5) <= 1e-12
    _all_pass(rows)


def test_criterion_02_exit_density_normalization():
    rows = _rows("exitlaw-validate", "density normalization")
    assert len(rows) == 10  # 5 correlations x starts (1,1) and (2,0.5)
    assert all(r.tolerance == 1e-6 for r in rows)
    _all_pass(rows)


def test_criterion_03_sampler_vs_density_and_euler_oracle():
    rep = _report("exitlaw-validate")
    assert rep.config["replicas"] == 100000
    ks = _rows("exitlaw-validate", "sampler vs density KS")
    assert len(ks) == 20 and all(r.tolerance == 0.02 for r in ks)
    _all_pass(ks)
    pv = _rows("exitlaw-validate", "sampler vs Euler oracle KS p-value")
    assert len(pv) == 3 and all(r.tolerance == 0.001 for r in pv)
    _all_pass(pv)


def test_criterion_04_tail_and_moment_transition():
    rep = _report("moment-curve")
    assert rep.config["replicas"] == 10 ** 6
    hill = _rows("moment-curve", "exit magnitude Hill exponent")
    slope = _rows("moment-curve", "exit time tail exponent")
    assert len(hill) == 3 and len(slope) == 3
    for r in hill:
        assert abs(r.tolerance - 0.10 * r.target) < 1e-12
    for r in slope:
        assert abs(r.tolerance - 0.15 * r.target) < 1e-12
    _all_pass(hill + slope)


def test_criterion_05_jump_measure_facts():
    mom = _rows("exitlaw-validate", "swap-branch first moment")
    assert len(mom) == 5 and all(r.tolerance == 1e-6 for r in mom)
    scal = _rows("exitlaw-validate", "jump-measure scaling")
    assert len(scal) == 9 and all(r.tolerance == 1e-6 for r in scal)
    trunc = _rows("exitlaw-validate", "truncation balance residual")
    assert len(trunc) == 3 and all(r.tolerance == 1e-8 for r in trunc)
    _all_pass(mom + scal + trunc)


def test_criterion_06_mass_martingale_and_brackets():
    rep = _report("mass-martingale")
    assert rep.config["graph"] == {"kind": "torus", "d": 1, "L": 8}
    assert rep.config["gamma"] == 1.0 and rep.config["horizon"] == 1.0
    assert rep.config["replicas"] == 10000
    _all_pass(_rows("mass-martingale", "mean total mass"))
    br = _rows("bracket-ratio", "bracket ratio")
    assert len(br) == 3 and all(r.tolerance == 0.05 for r in br)
    _all_pass(br)


def test_criterion_07_moment_duality():
    rep = _report("duality-moment")
    assert rep.config["graph"]["kind"] == "dumbbell"
    assert rep.config["horizon"] == 0.5 and rep.config["replicas"] == 100000
    rows = _rows("duality-moment", "moment duality")
    assert len(rows) == 2  # rho in {-0.5, 0}: 95% CIs must overlap
    _all_pass(rows)


def test_criterion_08_self_duality():
    rep = _report("duality-self")
    assert rep.config["rho"] == 0.3 and rep.config["replicas"] == 10000
    assert rep.config["graph"] == {"kind": "torus", "d": 1, "L": 4}
    _all_pass(_rows("duality-self", "self-duality"))


def test_criterion_09_infinite_rate_limit_ladder():
    rep = _report("gamma-limit")
    assert rep.config["replicas"] == 10000
    _all_pass(_rows("gamma-limit", "terminal KS strictly decreasing"))
    _all_pass(_rows("gamma-limit", "collision time q99 non-increasing"))


def test_criterion_10_infinite_rate_well_posedness():
    _all_pass(_rows("trotter-refine", "Trotter refinement Cauchy gap"))
    _all_pass(_rows("pdmp-vs-trotter", "PDMP (extrapolated"))
    _all_pass(_rows("martingale-functional", "martingale functional mean"))
    for name in ("trotter-refine", "pdmp-vs-trotter"):
        exact = _rows(name, "boundary constraint u*v = 0 (exact)")
        for r in exact:
            assert r.observed == 0.0 and r.tolerance == 0.0
        _all_pass(exact)


def test_criterion_11_voter_identification():
    rep = _report("voter-limit")
    assert rep.config["graph"] == {"kind": "torus", "d": 1, "L": 8}
    assert rep.config["horizon"] == 1.0
    pairwise = _rows("voter-limit", "two-point")
    assert len(pairwise) == 6  # 3 route pairs x 2 site pairs
    _all_pass(pairwise)
    _all_pass(_rows("voter-limit", "jump-process magnitudes exactly 1"))
    _all_pass(_rows("voter-limit", "jump-process rates equal voter rates"))


# small but structurally identical configs: byte-identity of artifacts is a
# property of the seeded code path, not of the sample count
_REPRO_OVERRIDES = {
    "exitlaw-validate": dict(replicas=1000, dt=0.05),
    "moment-curve": dict(replicas=20000, dt=0.1),
    "mass-martingale": dict(replicas=500),
    "bracket-ratio": dict(replicas=500),
    "duality-moment": dict(replicas=2000),
    "duality-self": dict(replicas=1000),
    "gamma-limit": dict(replicas=1000),
    "trotter-refine": dict(),
    "pdmp-vs-trotter": dict(replicas=1000),
    "voter-limit": dict(replicas=500),
    "martingale-functional": dict(),
}


def test_criterion_12_reproducibility(tmp_path):
    assert set(_REPRO_OVERRIDES) == set(EXPERIMENTS)
    for name in EXPERIMENTS:
        cfg = default_config(name, **_REPRO_OVERRIDES[name])
        d1 = tmp_path / name / "run1"
        d2 = tmp_path / name / "run2"
        p1 = write_artifacts(run_experiment(cfg), d1)
        p2 = write_artifacts(run_experiment(cfg), d2)
        names1 = [os.path.basename(p) for p in p1]
        names2 = [os.path.basename(p) for p in p2]
        assert names1 == names2, name
        for a, b in zip(p1, p2):
            same = open(a, "rb").read() == open(b, "rb").read()
            assert same, f"{name}: {os.path.basename(a)} differs across runs"
