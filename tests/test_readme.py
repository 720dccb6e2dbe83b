"""The README's code runs as written, so it names no deleted API or config shape."""

import json
import re
from pathlib import Path

import numpy as np

from banditlab.cli import build_experiment

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text().split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs():
    namespace = {}
    exec(compile(_block("## Library sketch", "python"), str(README), "exec"), namespace)
    assert namespace["cis"][0.95].shape == (1, 2)
    assert namespace["scaling"] == "sqrt_T"  # n / T = 0.2: the proportional regime
    assert np.all(np.isfinite(namespace["sigma_e"]))
    assert namespace["policy"].t == 1
    assert namespace["beta"][0, 0, 0] == 0.35  # 0.7 / (lambda + 1^2) with lambda = 1


def test_config_schema_example_builds():
    exp = build_experiment(json.loads(_block("### Config schema", "json")))
    assert exp.target.sigma_e.shape == (2, 2)
