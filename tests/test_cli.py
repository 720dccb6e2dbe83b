"""CLI contracts: subcommands, exit codes, manifests, overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from banditlab.cli import ConfigError, build_experiment, load_config, main
from banditlab.estimator import read_log_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _tiny_config(tmp_path, **extra):
    doc = {
        "env": {"name": "nonconv_demo", "seed": 0},
        "policy": {"kind": "random"},
        "target": {"family": "misspec_linear"},
        "horizon": 50,
        "replications": 1,
        "seed": 9,
        "levels": [0.5, 0.95],
    }
    doc.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "unknown subcommand" in capsys.readouterr().err


def test_missing_config_exits_one(tmp_path, capsys):
    rc = main(["coverage", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_directory_as_config_exits_one(tmp_path, capsys):
    rc = main(["coverage", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"config file not found: {tmp_path}" in capsys.readouterr().err


def test_unparseable_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["coverage", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_infer_missing_log_exits_one(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    rc = main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--log", str(tmp_path / "absent.csv")])
    assert rc == 1
    assert "absent.csv" in capsys.readouterr().err


def test_infer_directory_as_log_exits_one(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    (tmp_path / "logdir").mkdir()
    rc = main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--log", str(tmp_path / "logdir")])
    assert rc == 1
    assert f"log file not found: {tmp_path / 'logdir'}" in capsys.readouterr().err


def test_coverage_single_replication(tmp_path):
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "out"
    assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "coverage.csv").read_text().strip().splitlines()
    assert lines[0] == "level,arm,coord,empirical_coverage,mc_stderr"
    # one row per (level, arm, coord); R=1 so coverage is an indicator
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        assert line.split(",")[3] in ("0.000000", "1.000000")
    assert (out / "manifest.json").exists()
    assert (out / "replications.csv").exists()
    oracle = json.loads((out / "oracle.json").read_text())
    assert oracle["theta_star"][0][0] == pytest.approx(-3.0 / 34.0)
    assert "config_hash" in oracle


def test_simulate_pi_min_override(tmp_path):
    cfg = _tiny_config(tmp_path, policy={"kind": "linucb", "pi_min": 0.05},
                       horizon=500)
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--set", "policy.pi_min=0.01"])
    assert rc == 0
    log = read_log_csv(out / "log.csv")
    assert np.all(log.propensities >= 0.01 - 1e-12)
    assert np.any(log.propensities < 0.05)  # override actually lowered the floor
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["policy"]["pi_min"] == 0.01
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
    assert manifest["versions"]["numpy"] == np.__version__


def test_manifest_rerun_is_byte_identical(tmp_path):
    cfg = _tiny_config(tmp_path, horizon=200)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()


def test_infer_round_trip(tmp_path):
    cfg = _tiny_config(tmp_path, horizon=400)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    inf = tmp_path / "inf"
    assert main(["infer", "--config", str(cfg), "--out", str(inf),
                 "--log", str(sim / "log.csv")]) == 0
    doc = json.loads((inf / "report.json").read_text())
    assert len(doc["arms"]) == 2
    rep = doc["arms"][0]
    assert set(rep) == {"arm", "theta", "sigma", "ci", "T"}
    assert rep["T"] == 400
    lo, hi = rep["ci"]["0.95"][0]
    assert lo <= rep["theta"][0] <= hi


def test_diagnose_outputs(tmp_path):
    cfg = _tiny_config(tmp_path, horizon=60, replications=4,
                       diagnostics={"contexts": [[-4.0]]})
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    hist = (out / "diagnostic_ctx0_arm1.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    assert len(hist) == 51
    assert sum(int(l.split(",")[2]) for l in hist[1:]) == 4


def test_compare_ope_outputs(tmp_path, capsys):
    cfg = _tiny_config(
        tmp_path, horizon=120, replications=3,
        policy={"kind": "boltzmann_ridge", "gamma": 20.0, "pi_min": 0.05},
        target={"family": "ope", "target_policy": {"kind": "uniform"}},
        levels=[0.95])
    out = tmp_path / "cmp"
    assert main(["compare-ope", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "compare_ope.csv").read_text().strip().splitlines()
    assert lines[0] == "method,level,coverage,mean_value,variance,v_star"
    methods = {l.split(",")[0] for l in lines[1:]}
    assert methods == {"ipwz", "cadr_zero"}
    assert "3 replications used, 0 failed" in capsys.readouterr().out


def test_compare_ope_non_ope_target_exits_one(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    rc = main(["compare-ope", "--config", str(cfg), "--out", str(tmp_path / "cmp")])
    assert rc == 1
    assert "ope-family target" in capsys.readouterr().err


@pytest.mark.parametrize("arm", [-1, 2])
def test_point_mass_arm_out_of_range_exits_one(tmp_path, capsys, arm):
    cfg = _tiny_config(
        tmp_path, target={"family": "ope", "target_policy": {"kind": "point_mass", "arm": arm}})
    rc = main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "point_mass arm" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_checked_in_config_builds(path):
    # Every key of a shipped config is one some command reads.
    exp = build_experiment(load_config(str(path)))
    assert exp.horizon >= 1


def test_misspelt_key_exits_one(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    rc = main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "--set", "replicatons=3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'replicatons'" in err and "'replications'" in err
    assert not (tmp_path / "out" / "coverage.csv").exists()


@pytest.mark.parametrize("where, extra", [
    ("experiment config", {"cadr_variance_floor": 1e-6}),
    ("env", {"env": {"name": "nonconv_demo", "sed": 0}}),
    ("policy", {"policy": {"kind": "random", "pi_mn": 0.1}}),
    ("target", {"target": {"family": "misspec_linear", "sigma": 1.0}}),
    ("target.target_policy", {"target": {"family": "ope",
                                         "target_policy": {"kind": "uniform", "prob": [1]}}}),
    ("diagnostics", {"diagnostics": {"context": [[-4.0]]}}),
])
def test_unknown_nested_key_rejected(tmp_path, where, extra):
    config = json.loads(_tiny_config(tmp_path, **extra).read_text())
    with pytest.raises(ConfigError, match=f"unknown key .* in {where}"):
        build_experiment(config)


def test_infer_bare_target_config(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(_tiny_config(tmp_path, horizon=200)),
                 "--out", str(sim)]) == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"family": "ope", "target_policy": {"kind": "uniform"},
                                "levels": [0.95]}))
    inf = tmp_path / "inf"
    assert main(["infer", "--config", str(bare), "--out", str(inf),
                 "--log", str(sim / "log.csv")]) == 0
    doc = json.loads((inf / "report.json").read_text())
    assert doc["ope"]["value"] == pytest.approx(sum(a["theta"][0] for a in doc["arms"]))
    bare.write_text(json.dumps({"family": "ope", "target_policy": {"kind": "uniform"},
                                "horizon": 5}))
    assert main(["infer", "--config", str(bare), "--out", str(inf),
                 "--log", str(sim / "log.csv")]) == 1


def test_compare_ope_regressions_must_be_a_list(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, target={"family": "ope", "target_policy": {"kind": "uniform"}})
    rc = main(["compare-ope", "--config", str(cfg), "--out", str(tmp_path / "cmp"),
               "--set", "cadr_regressions=zero"])
    assert rc == 1
    assert "cadr_regressions must be a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("extra, override, message", [
    ({}, "env.params.arm_means=[0.5,0.3,0.1]", "invalid parameter 'arm_means'"),
    ({"env": {"name": "nc_hard1"}},
     'env.params.noise_table=[{"given": [0.0], "value": [0.0], "prob": 1.0}]',
     "invalid parameter 'noise_table'"),
    ({"env": {"name": "nc_hard1"}, "target": {"family": "noisy_context", "sigma_e": 2.0}},
     'target.sigma_e="estimate-from-aux"', "sigma_e must be a number or a matrix"),
    ({"env": {"name": "nc_gaussian"}}, 'target={"family": "noisy_context", "sigma_e": 1.0}',
     "target.sigma_e must be a 2x2 matrix"),
    ({}, "diagnostics.contexts=[[1.0,1.0]]", "diagnostic context [1.0, 1.0] has shape"),
], ids=["arm_means", "noise_table", "sigma_e_marker", "sigma_e_size", "diagnostic_context"])
def test_bad_shape_exits_one_before_oracle(tmp_path, capsys, monkeypatch, extra, override,
                                           message):
    import banditlab.harness as harness

    def no_oracle(*args, **kw):
        raise AssertionError("oracle computed before the config was checked")

    monkeypatch.setattr(harness, "oracle_thetas", no_oracle)
    cfg = _tiny_config(tmp_path, **extra)
    out = tmp_path / "out"
    rc = main(["coverage", "--config", str(cfg), "--out", str(out), "--set", override])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out / "coverage.csv").exists()


def test_runtime_failure_exits_two(tmp_path, capsys):
    # A one-round horizon leaves an arm unpulled in every replication, so the
    # failure tolerance aborts the experiment at runtime.
    cfg = _tiny_config(tmp_path, horizon=1, replications=4)
    out = tmp_path / "boom"
    rc = main(["coverage", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "runtime failure" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ("levels=[]", "levels"),
    ("levels=[0.95,1.5]", "levels"),
    ('variance_mode="simple"', "variance mode"),
])
def test_bad_levels_or_variance_mode_exits_one(tmp_path, capsys, override, message):
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["coverage", "--config", str(cfg), "--out", str(out), "--set", override])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "coverage.csv").exists()


@pytest.mark.parametrize("override, message", [
    ("levels=[]", "levels"),
    ("levels=[0.95,1.5]", "levels"),
    ('variance_mode="simple"', "variance mode"),
])
def test_infer_bad_levels_or_variance_mode_exits_one(tmp_path, capsys, override, message):
    cfg = _tiny_config(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    out = tmp_path / "inf"
    rc = main(["infer", "--config", str(cfg), "--out", str(out),
               "--log", str(sim / "log.csv"), "--set", override])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


def _three_arm_log(tmp_path, arms):
    """A log CSV of ms_polynomial rows (d = 1, no latents) with the given 1-based arms."""
    path = tmp_path / "log3.csv"
    rows = ["t,x_1,s_1,a,pi,y"] + [f"{t},{0.1 * t - 1.0},,{arm},0.3333333333333333,{0.5 * arm}"
                                   for t, arm in enumerate(arms, start=1)]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_infer_reports_unpulled_arm(tmp_path, capsys):
    # Arm 3 of a 3-arm experiment was never pulled: the log keeps K = 3 and
    # infer fails on that arm instead of analysing a 2-arm log.
    log = _three_arm_log(tmp_path, [1, 2] * 10)
    assert read_log_csv(log).num_arms == 2
    assert read_log_csv(log, num_arms=3).num_arms == 3
    cfg = _tiny_config(tmp_path, env={"name": "ms_polynomial", "params": {"num_arms": 3}})
    out = tmp_path / "inf"
    rc = main(["infer", "--config", str(cfg), "--out", str(out), "--log", str(log)])
    assert rc == 1
    assert f"log {log}: arm 3 (1-based) has no observations" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    empty = tmp_path / "empty.csv"
    empty.write_text("t,x_1,s_1,a,pi,y\r\n")
    rc = main(["infer", "--config", str(cfg), "--out", str(out), "--log", str(empty)])
    assert rc == 1
    assert f"log {empty}: arm 1 (1-based) has no observations" in capsys.readouterr().err


def test_infer_rejects_arm_beyond_k(tmp_path, capsys):
    log = _three_arm_log(tmp_path, [1, 2, 3] * 10)
    with pytest.raises(ValueError, match="arm 3 .* outside 1..2"):
        read_log_csv(log, num_arms=2)
    cfg = _tiny_config(tmp_path)  # nonconv_demo: two arms
    out = tmp_path / "inf"
    rc = main(["infer", "--config", str(cfg), "--out", str(out), "--log", str(log)])
    assert rc == 1
    assert "outside 1..2" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("bad_row, message", [
    ("21,0.5,,1,0.3333333333333333\n", "column"),        # short row
    ("21,0.5,,1,0.3333333333333333,n/a\n", "n/a"),      # non-numeric cell
    ("21,0.5,,1.5,0.3333333333333333,1\n", "arm 1.5"),  # non-integer arm
])
def test_infer_malformed_log_exits_one(tmp_path, capsys, bad_row, message):
    # The well-formed part ("\n" endings, shortest-repr floats) reads; one bad
    # row makes infer exit 1 with an error line that names the log.
    log = _three_arm_log(tmp_path, [1, 2] * 10)
    assert read_log_csv(log).horizon == 20
    with open(log, "a") as fh:
        fh.write(bad_row)
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "inf"
    rc = main(["infer", "--config", str(cfg), "--out", str(out), "--log", str(log)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: log {log}:") and message in err
    assert not (out / "report.json").exists()


_STARTUP_SCRIPT = """
import json, sys
from pathlib import Path
from banditlab import cli

tmp = Path(sys.argv[1])
ts, ope = tmp / "ts.json", tmp / "ope.json"
assert cli.main(["simulate", "--config", str(ts), "--out", str(tmp / "sim")]) == 0
assert cli.main(["infer", "--config", str(ts), "--out", str(tmp / "inf"),
                 "--log", str(tmp / "sim" / "log.csv")]) == 0
assert cli.main(["coverage", "--config", str(ts), "--out", str(tmp / "cov"),
                 "--workers", "1"]) == 0
assert cli.main(["compare-ope", "--config", str(ope), "--out", str(tmp / "cmp")]) == 0
prefixes = ("scipy.special", "scipy.integrate", "scipy.stats")
print(json.dumps(sorted(m for m in sys.modules if m.startswith(prefixes))))
"""


def test_cli_runs_without_scipy_special_integrate_or_stats(tmp_path):
    # A fresh process that imports the CLI and runs a two-arm Thompson
    # simulation, inference, coverage and a CADR comparison loads none of
    # SciPy's special, integrate or stats modules: their import would triple
    # the start-up time of every CLI process.
    base = {"env": {"name": "nonconv_demo", "seed": 0}, "target": {"family": "misspec_linear"},
            "horizon": 100, "replications": 2, "seed": 5, "levels": [0.95]}
    (tmp_path / "ts.json").write_text(json.dumps({**base, "policy": {"kind": "ts_mab"}}))
    (tmp_path / "ope.json").write_text(json.dumps({
        **base, "policy": {"kind": "boltzmann_ridge", "gamma": 20.0},
        "target": {"family": "ope", "target_policy": {"kind": "uniform"}}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


def test_benchmark_ready_markers_are_called(tmp_path, monkeypatch):
    # perfbench/shim.py ends a command's set-up at the first call of one of
    # these module attributes and falls back to the start of main without
    # one, so each must exist and be called through its module.
    import banditlab.cli as cli
    import banditlab.harness as harness

    called = []
    for module, name in ((harness, "oracle_thetas"), (cli, "run_trajectory"),
                         (cli, "read_log_csv")):
        def marker(*args, _name=name, _fn=getattr(module, name), **kw):
            called.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(module, name, marker)
    cfg = _tiny_config(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "inf"),
                 "--log", str(sim / "log.csv")]) == 0
    assert main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "cov")]) == 0
    assert called == ["run_trajectory", "read_log_csv", "oracle_thetas"]
