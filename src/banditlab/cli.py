"""Command-line entry point: simulate, infer, coverage, diagnose, compare-ope.

One JSON document configures an experiment end to end:

    {
      "env":    {"name": "nc_gaussian", "params": {...}, "seed": 0},
      "policy": {"kind": "boltzmann_ridge", "pi_min": 0.05, "gamma": 100.0},
      "target": {"family": "misspec_linear"},
      "horizon": 5000, "replications": 500, "seed": 7,
      "levels": [0.5, 0.95],
      "diagnostics": {"contexts": [[-4.0]]}
    }

Every run writes a ``manifest.json`` (resolved config + seed + code, Python
and NumPy versions) into the output directory; re-running a command with
the manifest as its config reproduces the outputs byte for byte. Exit codes:
0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .env import (
    EnvironmentSpec,
    InvalidParameterError,
    UnknownEnvironmentError,
    build_environment,
)
from .estimator import (
    LogFormatError,
    NoDataForArm,
    ScoreTarget,
    TargetPolicy,
    read_log_csv,
    write_log_csv,
)
from .harness import (
    ExperimentConfig,
    check_levels,
    config_fingerprint,
    convergence_diagnostic,
    qq_points,
    replicate,
    run_trajectory,
)
from .inference import estimate_report, ope_value, write_reports_json
from .policy import PolicyConfig

SUBCOMMANDS = ("simulate", "infer", "coverage", "diagnose", "compare-ope")


class ConfigError(ValueError):
    pass


# --- config handling -----------------------------------------------------------


def _reject_constant(token: str):
    raise ConfigError(f"non-finite number {token} in config: every number must be finite")


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "command" in doc and "config" in doc:
        doc = doc["config"]  # a manifest was passed back in
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return doc


def apply_overrides(config: dict, sets: list[str]) -> dict:
    """Apply ``--set dotted.key=value`` pairs; values parse as JSON literals.

    A value that is not JSON is taken as a string, but NaN and Infinity are
    rejected here as in a config file.
    """
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw, parse_constant=_reject_constant)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends through a non-object")
        node[parts[-1]] = value
    return config


# The keys each config object may carry; any other key is a ConfigError, so a
# misspelt key fails loudly instead of silently taking its default. An
# ``infer`` config may be a bare target: its keys at the top level.
CONFIG_KEYS = {
    "experiment config": ("env", "policy", "target", "horizon", "replications", "seed",
                          "levels", "diagnostics", "workers", "n_oracle", "cadr_regressions"),
    "env": ("name", "params", "seed"),
    "policy": ("kind", "pi_min", "epsilon", "gamma", "ridge_lambda", "linucb_alpha", "ts_prior"),
    "target": ("family", "sigma_e", "target_policy"),
    "target.target_policy": ("kind", "probs", "arm"),
    "diagnostics": ("contexts",),
    "infer config": ("family", "sigma_e", "target_policy", "levels", "workers"),
}


def _check_keys(doc, where: str) -> None:
    allowed = sorted(CONFIG_KEYS[where])
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; allowed: {allowed}")


def parse_target(doc: dict, where: str = "target") -> ScoreTarget:
    _check_keys(doc, where)
    if "family" not in doc:
        raise ConfigError("target config requires a 'family'")
    family = doc["family"]
    tp_doc = doc.get("target_policy")
    target_policy = None
    if tp_doc is not None:
        _check_keys(tp_doc, "target.target_policy")
        target_policy = TargetPolicy(
            kind=tp_doc.get("kind", "uniform"),
            probs=tp_doc.get("probs"),
            arm=tp_doc.get("arm"),
        )
    return ScoreTarget(family=family, sigma_e=doc.get("sigma_e"), target_policy=target_policy)


def parse_policy(doc: dict) -> PolicyConfig:
    _check_keys(doc, "policy")
    if "kind" not in doc:
        raise ConfigError("policy config requires a 'kind'")
    kwargs = dict(doc)
    if isinstance(doc.get("ts_prior"), list):
        kwargs["ts_prior"] = tuple(doc["ts_prior"])
    return PolicyConfig(**kwargs)


def parse_env(doc: dict) -> EnvironmentSpec:
    _check_keys(doc, "env")
    if "name" not in doc:
        raise ConfigError("env config requires a 'name'")
    return build_environment(doc["name"], doc.get("params") or {}, seed=doc.get("seed", 0))


def build_experiment(config: dict) -> ExperimentConfig:
    _check_keys(config, "experiment config")
    for key in ("env", "policy", "target", "horizon"):
        if key not in config:
            raise ConfigError(f"experiment config is missing {key!r}")
    diagnostics = config.get("diagnostics") or {}
    _check_keys(diagnostics, "diagnostics")
    # The other keys reach ExperimentConfig as they are, to be checked there.
    rest = {k: v for k, v in config.items() if k not in ("env", "policy", "target", "diagnostics")}
    return ExperimentConfig(
        env=parse_env(config["env"]),
        policy=parse_policy(config["policy"]),
        target=parse_target(config["target"]),
        diagnostic_contexts=diagnostics.get("contexts", ()),
        **rest,
    )


def write_manifest(out_dir: Path, command: str, config: dict, argv: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "package_version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "argv": list(argv),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_oracle(out_dir: Path, summary) -> None:
    """Persist the ground-truth values used, keyed by the configuration hash."""
    exp = summary.config
    doc = {
        "config_hash": config_fingerprint([exp.env, exp.target, exp.n_oracle, exp.seed]),
        "theta_star": summary.thetas_star.tolist(),
    }
    if summary.v_star is not None:
        doc["v_star"] = summary.v_star
    (out_dir / "oracle.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommands -----------------------------------------------------------------


def cmd_simulate(config: dict, out_dir: Path, argv) -> int:
    exp = build_experiment(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = run_trajectory(exp.env, exp.policy, exp.target, exp.horizon, exp.seed)
    write_log_csv(log, out_dir / "log.csv")
    write_manifest(out_dir, "simulate", config, argv)
    print(f"wrote {out_dir / 'log.csv'} ({log.horizon} rows)")
    return 0


def cmd_infer(config: dict, out_dir: Path, argv, log_path: str) -> int:
    if not Path(log_path).is_file():
        raise ConfigError(f"log file not found: {log_path}")
    levels = check_levels(config.get("levels", (0.5, 0.95)))
    num_arms = None
    if "target" in config:
        _check_keys(config, "experiment config")
        target = parse_target(config["target"])
        if "env" in config:
            num_arms = parse_env(config["env"]).num_arms
    else:
        target = parse_target(config, "infer config")
    log = read_log_csv(log_path, num_arms=num_arms)
    try:
        reports = [estimate_report(log, target, arm, levels=levels) for arm in range(log.num_arms)]
    except NoDataForArm as exc:
        raise ConfigError(
            f"log {log_path}: arm {exc.arm + 1} (1-based) has no observations") from exc
    ope = ope_value(log, target, levels=levels, reports=reports) if target.family == "ope" else None
    out_dir.mkdir(parents=True, exist_ok=True)
    write_reports_json(reports, out_dir / "report.json", ope_report=ope)
    write_manifest(out_dir, "infer", config, argv)
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_coverage(config: dict, out_dir: Path, argv) -> int:
    exp = replace(build_experiment(config), cadr_regressions=())
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = replicate(exp)
    _write_csv(out_dir / "coverage.csv",
               ["level", "arm", "coord", "empirical_coverage", "mc_stderr"],
               [[r["level"], r["arm"], r["coord"], f"{r['coverage']:.6f}",
                 f"{r['mc_stderr']:.6f}"] for r in summary.coverage_table()])
    if "ipwz" in summary.values:
        _write_csv(out_dir / "ope_coverage.csv",
                   ["level", "empirical_coverage", "mc_stderr"],
                   [[r["level"], f"{r['coverage']:.6f}", f"{r['mc_stderr']:.6f}"]
                    for r in summary.value_coverage_table("ipwz")])
    K, dt = summary.theta_hat.shape[1], summary.theta_hat.shape[2]
    if summary.replications_used >= 2:  # a QQ construction needs >= 2 points
        for arm in range(K):
            for coord in range(dt):
                pts = qq_points(summary.std_errors[:, arm, coord])
                _write_csv(out_dir / f"qq_arm{arm}_coord{coord}.csv",
                           ["theoretical", "empirical"],
                           [[f"{a:.10g}", f"{b:.10g}"] for a, b in pts])
    rep_rows = []
    for r in range(summary.replications_used):
        for arm in range(K):
            for coord in range(dt):
                rep_rows.append([
                    r, arm, coord,
                    f"{summary.theta_hat[r, arm, coord]:.10g}",
                    f"{summary.sigma_diag[r, arm, coord]:.10g}",
                    f"{summary.std_errors[r, arm, coord]:.10g}",
                ])
    _write_csv(out_dir / "replications.csv",
               ["rep", "arm", "coord", "theta_hat", "sigma_diag", "std_error"], rep_rows)
    write_oracle(out_dir, summary)
    write_manifest(out_dir, "coverage", config, argv)
    n_rows = len(summary.coverage_table())
    print(f"wrote {out_dir / 'coverage.csv'} ({n_rows} rows, "
          f"{summary.replications_used} replications used, {len(summary.failures)} failed)")
    return 0


def cmd_diagnose(config: dict, out_dir: Path, argv) -> int:
    exp = replace(build_experiment(config), cadr_regressions=())
    if not exp.diagnostic_contexts:
        raise ConfigError("diagnose requires diagnostics.contexts in the config")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = replicate(exp)
    rows = []
    for ci, ctx in enumerate(exp.diagnostic_contexts):
        for arm in range(exp.env.num_arms):
            diag = convergence_diagnostic(summary, np.asarray(ctx), arm)
            _write_csv(out_dir / f"diagnostic_ctx{ci}_arm{arm}.csv",
                       ["bin_lo", "bin_hi", "count"],
                       [[f"{diag.bin_edges[i]:.4f}", f"{diag.bin_edges[i + 1]:.4f}",
                         int(diag.counts[i])] for i in range(len(diag.counts))])
            rows.append([ci, json.dumps(list(ctx)), arm, f"{diag.spread:.6f}",
                         f"{diag.low_mass:.6f}", f"{diag.high_mass:.6f}"])
    _write_csv(out_dir / "diagnostic_summary.csv",
               ["context_index", "context", "arm", "spread", "low_mass", "high_mass"], rows)
    write_oracle(out_dir, summary)
    write_manifest(out_dir, "diagnose", config, argv)
    print(f"wrote {out_dir / 'diagnostic_summary.csv'} ({len(rows)} rows)")
    return 0


def cmd_compare_ope(config: dict, out_dir: Path, argv) -> int:
    exp = build_experiment({"cadr_regressions": ["zero"], **config})
    if exp.target.family != "ope":
        raise ConfigError(f"compare-ope requires an ope-family target, "
                          f"got target family {exp.target.family!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = replicate(exp)
    rows = [[name, r["level"], f"{r['coverage']:.6f}", f"{float(values.mean()):.10g}",
             f"{float(values.var(ddof=1)):.10g}", f"{summary.v_star:.10g}"]
            for name, values in summary.values.items()
            for r in summary.value_coverage_table(name)]
    _write_csv(out_dir / "compare_ope.csv",
               ["method", "level", "coverage", "mean_value", "variance", "v_star"], rows)
    write_oracle(out_dir, summary)
    write_manifest(out_dir, "compare-ope", config, argv)
    print(f"wrote {out_dir / 'compare_ope.csv'} ({len(rows)} rows, "
          f"{summary.replications_used} replications used, {len(summary.failures)} failed)")
    return 0


# --- entry point -------------------------------------------------------------------


def _parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"banditlab {command}", add_help=True)
    parser.add_argument("--config", required=True, help="JSON config (or a manifest)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-key config override, e.g. policy.pi_min=0.01")
    parser.add_argument("--workers", type=int, default=None, help="parallel replications")
    if command == "infer":
        parser.add_argument("--log", required=True, help="BanditLog CSV to analyze")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(f"usage: banditlab {{{','.join(SUBCOMMANDS)}}} --config CFG --out DIR [--set K=V]")
        return 0 if argv else 1
    command = argv[0]
    if command not in SUBCOMMANDS:
        print(f"error: unknown subcommand {command!r}; expected one of {SUBCOMMANDS}",
              file=sys.stderr)
        return 1
    try:
        args = _parser(command).parse_args(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = apply_overrides(load_config(args.config), args.set)
        if args.workers is not None:
            config["workers"] = args.workers
        out_dir = Path(args.out)
        if command == "simulate":
            return cmd_simulate(config, out_dir, argv)
        if command == "infer":
            return cmd_infer(config, out_dir, argv, args.log)
        if command == "coverage":
            return cmd_coverage(config, out_dir, argv)
        if command == "diagnose":
            return cmd_diagnose(config, out_dir, argv)
        return cmd_compare_ope(config, out_dir, argv)
    except (ConfigError, UnknownEnvironmentError, InvalidParameterError, LogFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
