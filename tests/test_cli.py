"""CLI contracts: subcommands, exit codes, manifests, overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from banditlab.cli import ConfigError, apply_overrides, build_experiment, load_config, main
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
    assert set(manifest["versions"]) == {"python", "numpy"}
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
    ("experiment config", {"variance_mode": "full"}),
])
def test_unknown_nested_key_rejected(tmp_path, where, extra):
    config = json.loads(_tiny_config(tmp_path, **extra).read_text())
    with pytest.raises(ConfigError, match=f"unknown key .* in {where}"):
        build_experiment(config)


def test_schema_keys_are_the_dataclass_fields():
    # A field with no key could not be set from a config, nor replayed from a manifest.
    from dataclasses import fields

    from banditlab.cli import CONFIG_KEYS
    from banditlab.estimator import ScoreTarget, TargetPolicy
    from banditlab.policy import PolicyConfig

    for where, cls in (("policy", PolicyConfig), ("target", ScoreTarget),
                       ("target.target_policy", TargetPolicy)):
        assert sorted(CONFIG_KEYS[where]) == sorted(f.name for f in fields(cls)), where


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
    for key, value in (("horizon", 5), ("variance_mode", "full")):
        bare.write_text(json.dumps({"family": "ope", "target_policy": {"kind": "uniform"},
                                    key: value}))
        assert main(["infer", "--config", str(bare), "--out", str(tmp_path / "bad"),
                     "--log", str(sim / "log.csv")]) == 1
        assert not (tmp_path / "bad").exists()


def test_compare_ope_regressions_must_be_a_list(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, target={"family": "ope", "target_policy": {"kind": "uniform"}})
    rc = main(["compare-ope", "--config", str(cfg), "--out", str(tmp_path / "cmp"),
               "--set", "cadr_regressions=zero"])
    assert rc == 1
    assert "cadr_regressions must be a list of names from" in capsys.readouterr().err


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
    ({"env": {"name": "nc_gaussian"}}, "env.params.num_arms=2.5",
     "invalid parameter 'num_arms': num_arms must be a whole number, got 2.5"),
    ({"env": {"name": "nc_gaussian"}}, "env.params.num_arms=0",
     "invalid parameter 'num_arms': must be >= 1"),
    ({"env": {"name": "nc_gaussian"}}, "env.params.d=true",
     "invalid parameter 'd': d must be a whole number, got True"),
    ({"env": {"name": "ms_polynomial"}}, "env.params.degree=2.9",
     "invalid parameter 'degree': degree must be a whole number, got 2.9"),
    ({"env": {"name": "nc_gaussian"},
      "target": {"family": "noisy_context", "sigma_e": [[0.5, 0.0], [0.0, 0.5]]}},
     "n_oracle=0", "n_oracle must be >= 1, got 0"),
    ({"env": {"name": "ms_polynomial"}, "policy": {"kind": "boltzmann_ridge", "pi_min": 0.5}},
     "env.params.num_arms=3", "env.num_arms * policy.pi_min must be at most 1, got 3 * 0.5 = 1.5"),
    ({}, "env.params.sigma_eta=-1",
     "invalid parameter 'sigma_eta': sigma_eta must be a finite, non-negative number, got -1"),
    ({"env": {"name": "nc_hard2"}}, "env.params.sigma_eta=true",
     "sigma_eta must be a finite, non-negative number, got True"),
    ({"env": {"name": "nc_gaussian"}}, 'env.params.sigma_eta="1.0"',
     "sigma_eta must be a finite, non-negative number, got '1.0'"),
    ({"env": {"name": "ms_polynomial"}}, "env.params.sigma_theta=-0.5",
     "invalid parameter 'sigma_theta': sigma_theta must be a finite, non-negative number"),
    ({"env": {"name": "ms_neural"}}, "env.params.sigma_theta=false",
     "sigma_theta must be a finite, non-negative number, got False"),
    ({"env": {"name": "ms_neural"}}, "env.params.sigma_eta=[1.0]",
     "sigma_eta must be a finite, non-negative number, got [1.0]"),
], ids=["arm_means", "noise_table", "sigma_e_marker", "sigma_e_size", "diagnostic_context",
        "num_arms_fraction", "num_arms_zero", "d_bool", "degree_fraction", "n_oracle_zero_mc",
        "k_times_pi_min", "sigma_eta_negative", "sigma_eta_bool", "sigma_eta_string",
        "sigma_theta_negative", "sigma_theta_bool", "sigma_eta_list"])
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
    assert not out.exists()


@pytest.mark.parametrize("command", ["coverage", "simulate"])
@pytest.mark.parametrize("override", [
    "bogus=1", "diagnostics.contexts=[[1.0,1.0]]", "policy.gamma=NaN", "policy.ridge_lambda=NaN",
    "policy.linucb_alpha=NaN", "policy.ts_prior=[0,NaN,1]", "policy.ts_prior=[0,1]",
    "env.params.arm_means=[NaN,0.5]", "env.params.sigma_eta=NaN", None,
    "seed=1.5", "replications=true", "horizon=2.7", "workers=1.9", "n_oracle=1000.9",
    "env.seed=1.5",
], ids=["unknown_key", "bad_shape", "gamma_nan", "ridge_lambda_nan", "linucb_alpha_nan",
        "ts_prior_nan", "ts_prior_two_numbers", "arm_means_nan", "sigma_eta_nan",
        "infinity_in_file", "seed_fraction", "replications_bool", "horizon_fraction",
        "workers_fraction", "n_oracle_fraction", "env_seed_fraction"])
def test_rejected_config_leaves_no_output_directory(tmp_path, capsys, command, override):
    cfg = _tiny_config(tmp_path)
    sets = ["--set", override]
    if override is None:
        cfg.write_text(cfg.read_text().replace('"random"', '"random", "gamma": Infinity'))
        sets = []
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *sets]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["coverage", "diagnose", "compare-ope", "simulate"])
@pytest.mark.parametrize("cap", ["two", "2.5", ""])
def test_malformed_max_workers_named(tmp_path, capsys, monkeypatch, command, cap):
    monkeypatch.setenv("BANDITLAB_MAX_WORKERS", cap)
    out = tmp_path / "out"
    assert main([command, "--config", str(_tiny_config(tmp_path)), "--out", str(out)]) == 1
    assert f"BANDITLAB_MAX_WORKERS must be an integer, got {cap!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-3", "1"])
def test_integer_max_workers_clamped_to_one(tmp_path, monkeypatch, cap):
    import banditlab.harness as harness

    def no_pool(*args, **kw):
        raise AssertionError("a pool was started under a cap of one worker")

    monkeypatch.setenv("BANDITLAB_MAX_WORKERS", cap)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "out"
    cfg = _tiny_config(tmp_path, replications=2)
    assert main(["coverage", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 0
    assert (out / "coverage.csv").exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_named(tmp_path, token):
    # Python's json reads these tokens as floats; a config may not hold them.
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"horizon": {token}}}')
    with pytest.raises(ConfigError, match=f"non-finite number {token} in config"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=f"non-finite number {token} in config"):
        apply_overrides({}, [f"policy.gamma={token}"])
    assert apply_overrides({}, ["env.name=nc_gaussian"]) == {"env": {"name": "nc_gaussian"}}


def test_unknown_cadr_regression_leaves_no_output_directory(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, target={"family": "ope", "target_policy": {"kind": "uniform"}})
    out = tmp_path / "cmp"
    assert main(["compare-ope", "--config", str(cfg), "--out", str(out),
                 "--set", 'cadr_regressions=["z"]']) == 1
    assert "unknown regression 'z' in cadr_regressions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    (['cadr_regressions=[["zero"]]'], "unknown regression ['zero'] in cadr_regressions"),
    (["horizon=5"], "horizon 5 must exceed the CADR burn-in 10"),
    (["horizon=10"], "horizon 10 must exceed the CADR burn-in 10"),
    (["cadr_regressions=[]", 'target={"family": "misspec_linear"}'],
     "compare-ope requires an ope-family target, got target family 'misspec_linear'"),
], ids=["nested_list", "horizon_5", "horizon_10", "no_regressions_non_ope_target"])
def test_compare_ope_rejects_before_oracle_and_output(tmp_path, capsys, monkeypatch, overrides,
                                                      message):
    import banditlab.harness as harness

    def no_oracle(*args, **kw):
        raise AssertionError("oracle computed before the config was checked")

    monkeypatch.setattr(harness, "oracle_thetas", no_oracle)
    cfg = _tiny_config(tmp_path, target={"family": "ope", "target_policy": {"kind": "uniform"}})
    out = tmp_path / "cmp"
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert main(["compare-ope", "--config", str(cfg), "--out", str(out), *sets]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_infeasible_floor_exits_one_before_output(tmp_path, capsys):
    # Three arms cannot each keep 0.5: the run stops before it makes --out.
    out = tmp_path / "out"
    rc = main(["coverage", "--config", str(CONFIGS / "fig2a_ms_polynomial_boltzmann.json"),
               "--out", str(out), "--set", "env.params.num_arms=3", "--set", "policy.pi_min=0.5"])
    assert rc == 1
    assert "env.num_arms * policy.pi_min must be at most 1, got 3 * 0.5 = 1.5" in \
        capsys.readouterr().err
    assert not out.exists()


def test_coverage_never_runs_cadr(tmp_path, monkeypatch):
    # fig4 names a CADR regression; coverage checks it but writes no value
    # table, so only compare-ope runs CADR on the same config.
    import banditlab.harness as harness

    calls = []
    cadr = harness.cadr_ope

    def counting(*args, **kw):
        calls.append(kw["regression"])
        return cadr(*args, **kw)

    monkeypatch.setattr(harness, "cadr_ope", counting)
    cfg = str(CONFIGS / "fig4_ope_nonconv_boltzmann.json")
    sets = ["--set", "replications=3", "--workers", "1"]
    assert main(["coverage", "--config", cfg, "--out", str(tmp_path / "cov"), *sets]) == 0
    assert calls == []
    assert main(["compare-ope", "--config", cfg, "--out", str(tmp_path / "cmp"), *sets]) == 0
    assert calls == ["zero"] * 3


@pytest.mark.parametrize("command", ["coverage", "diagnose", "compare-ope", "simulate"])
@pytest.mark.parametrize("override, key", [
    ("seed=1.5", "seed"), ("replications=true", "replications"), ("horizon=2.7", "horizon"),
    ("workers=1.9", "workers"), ("n_oracle=1000.9", "n_oracle"), ("env.seed=1.5", "env.seed"),
    ("levels=0.95", "levels"), ("diagnostics.contexts=5", "diagnostics.contexts"),
    ('cadr_regressions="garbage"', "cadr_regressions"),
    ("seed=-1", "seed"), ("env.seed=-2", "env.seed"), ("n_oracle=0", "n_oracle"),
    ('policy.gamma="hot"', "policy.gamma"), ("policy.ridge_lambda=[1]", "policy.ridge_lambda"),
    ('policy.linucb_alpha="a"', "policy.linucb_alpha"),
    ("env.params.sigma_eta=-1", "sigma_eta"), ("env.params.sigma_eta=true", "sigma_eta"),
    ('env={"name": "ms_polynomial", "params": {"sigma_theta": -1}}', "sigma_theta"),
    ('env={"name": "nc_gaussian", "params": {"num_arms": 21}}', "policy.pi_min"),
])
def test_mistyped_setting_named_for_every_command(tmp_path, capsys, command, override, key):
    # Every command builds the experiment, and so checks every setting, before
    # it creates --out; a setting of the wrong type exits 1 naming its key.
    cfg = _tiny_config(tmp_path, target={"family": "ope", "target_policy": {"kind": "uniform"}})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must be" in err
    assert not out.exists()


# config_hash of every shipped config's oracle.json, as written since the
# oracle key was introduced; a change of these bytes orphans saved oracles.
SHIPPED_CONFIG_HASHES = {
    "fig1_nonconv_linucb": "0c843b7613ea53c0985c594dfe6ccc7bdb73792a351ff205f097d32df7b7ce29",
    "fig1_nonconv_random": "4009e3cbcf29faca1ca73ad3db50f127781965f79e570866183e7527081222f2",
    "fig2a_ms_polynomial_boltzmann":
        "363461eb21af7cce69d3a3a0c40c38c173aeef929faf0582fdacbc2038c65f3c",
    "fig2a_nc_gaussian_random": "3fd8365a5a1121fd4c4ddbb605454e762ae2bb47dce1ff2bc6fc9be067884d91",
    "fig3c_nc_hard1_boltzmann_gamma10":
        "0a456143bfe6d1543e3a47c4ccc5ee032451710bcae176ee772bc52f41e34ef9",
    "fig3c_nc_hard1_boltzmann_gamma100":
        "0a456143bfe6d1543e3a47c4ccc5ee032451710bcae176ee772bc52f41e34ef9",
    "fig3d_nc_hard2_ipwz_pimin0005":
        "f2ce09b64d353df9beadcd5f4b754f98f8ef2bd17a3b6bda64ef34ca86c977ec",
    "fig3d_nc_hard2_ipwz_pimin005":
        "f2ce09b64d353df9beadcd5f4b754f98f8ef2bd17a3b6bda64ef34ca86c977ec",
    "fig4_ope_nonconv_boltzmann": "e1a006d988a6a74dae58ea493aa327356b8126d97d5e29feebef938a600d5033",
}


def test_oracle_config_hash_keeps_its_bytes():
    from banditlab.harness import config_fingerprint

    assert sorted(SHIPPED_CONFIG_HASHES) == sorted(p.stem for p in CONFIGS.glob("*.json"))
    for stem, want in SHIPPED_CONFIG_HASHES.items():
        exp = build_experiment(load_config(str(CONFIGS / f"{stem}.json")))
        assert config_fingerprint([exp.env, exp.target, exp.n_oracle, exp.seed]) == want, stem


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
    ('variance_mode="full"', "unknown key 'variance_mode'"),
    ("levels=0.95", "levels must be a non-empty list in (0, 1), got 0.95"),
])
def test_bad_levels_or_variance_mode_exits_one(tmp_path, capsys, override, message):
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["coverage", "--config", str(cfg), "--out", str(out), "--set", override])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("levels=[]", "levels"),
    ("levels=[0.95,1.5]", "levels"),
    ('variance_mode="full"', "unknown key 'variance_mode'"),
    ("levels=0.95", "levels must be a non-empty list in (0, 1), got 0.95"),
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
    assert not out.exists()


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
sys.modules["scipy"] = None  # every SciPy import now raises ImportError
from pathlib import Path
from banditlab import cli

tmp = Path(sys.argv[1])
for name in ("ts", "ts3"):
    cfg, out = str(tmp / f"{name}.json"), tmp / name
    assert cli.main(["simulate", "--config", cfg, "--out", str(out / "sim")]) == 0
    assert cli.main(["infer", "--config", cfg, "--out", str(out / "inf"),
                     "--log", str(out / "sim" / "log.csv")]) == 0
    assert cli.main(["coverage", "--config", cfg, "--out", str(out / "cov"),
                     "--workers", "1"]) == 0
ope = str(tmp / "ope.json")
assert cli.main(["compare-ope", "--config", ope, "--out", str(tmp / "cmp")]) == 0
print(json.dumps(sorted(m for m, mod in sys.modules.items()
                        if m.startswith("scipy") and mod is not None)))
"""


def test_cli_runs_with_scipy_import_blocked(tmp_path):
    # SciPy is a test dependency only. A fresh process in which any SciPy
    # import fails runs two- and three-arm Thompson simulation, inference and
    # coverage, and a CADR comparison, and loads no SciPy module.
    base = {"env": {"name": "nonconv_demo", "seed": 0}, "target": {"family": "misspec_linear"},
            "horizon": 100, "replications": 2, "seed": 5, "levels": [0.95]}
    (tmp_path / "ts.json").write_text(json.dumps({**base, "policy": {"kind": "ts_mab"}}))
    (tmp_path / "ts3.json").write_text(json.dumps({
        **base, "env": {"name": "nc_gaussian", "params": {"num_arms": 3}, "seed": 0},
        "policy": {"kind": "ts_mab"}}))
    (tmp_path / "ope.json").write_text(json.dumps({
        **base, "policy": {"kind": "boltzmann_ridge", "gamma": 20.0},
        "target": {"family": "ope", "target_policy": {"kind": "uniform"}}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


_NO_MA_SCRIPT = """
import sys
from banditlab import cli

tiny = ["--set", "replications=2", "--set", "horizon=40", "--workers", "1"]
nc_hard1, fig4, out = sys.argv[1:]
assert cli.main(["coverage", "--config", nc_hard1, "--out", out + "/cov", *tiny]) == 0
assert cli.main(["compare-ope", "--config", fig4, "--out", out + "/cmp", *tiny,
                 "--set", 'cadr_regressions=["zero","online_linear"]']) == 0
print("numpy.ma" in sys.modules)
"""


def test_cli_runs_without_importing_numpy_ma(tmp_path):
    # The first call of np.unique in a process imports numpy.ma, several
    # milliseconds of every pool worker's first block; a fresh process running
    # coverage on nc_hard1 and a two-regression CADR comparison on fig4 (each
    # with a finite support, so both probe the policy at distinct contexts)
    # never loads it. Other tests import numpy.ma, hence the subprocess.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _NO_MA_SCRIPT,
         str(CONFIGS / "fig3c_nc_hard1_boltzmann_gamma10.json"),
         str(CONFIGS / "fig4_ope_nonconv_boltzmann.json"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


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
