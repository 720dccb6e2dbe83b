"""Environment construction, sampling laws, and ground-truth oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from banditlab.env import (
    ENVIRONMENT_NAMES,
    InvalidParameterError,
    UnknownEnvironmentError,
    build_environment,
    distinct_rows,
    implied_sigma_e,
    oracle_target,
    sample_rounds,
    support,
)
from banditlab.estimator import ScoreTarget, TargetPolicy
from banditlab.harness import config_fingerprint
from banditlab.rng import stream

from helpers import sample_round


def test_unknown_name_rejected():
    with pytest.raises(UnknownEnvironmentError):
        build_environment("no_such_env")


def test_invalid_override_names_offending_key():
    with pytest.raises(InvalidParameterError, match="bogus"):
        build_environment("nonconv_demo", {"bogus": 1})
    with pytest.raises(InvalidParameterError, match="sigma_s"):
        build_environment("nc_gaussian", {"sigma_s": [[1.0, 2.0], [2.0, 1.0]]})


def test_nonconv_demo_parameters():
    env = build_environment("nonconv_demo")
    assert env.num_arms == 2 and env.context_dim == 1
    assert sorted(env.context_law.points.ravel().tolist()) == [-4.0, 1.0]
    np.testing.assert_allclose(env.context_law.weights, [0.5, 0.5])
    np.testing.assert_allclose(env.reward.params, [0.5, 1.0 / 12.0])
    assert not env.has_latent


def test_nc_hard1_table():
    env = build_environment("nc_hard1")
    assert env.context_dim == 1
    np.testing.assert_allclose(env.true_params.ravel(), [3.0, 1.0])
    noise = env.noise_law
    rows = {(g[0], v[0]): p for g, v, p in zip(noise.given, noise.values, noise.probs)}
    assert rows[(0.0, 1.0)] == pytest.approx(2 / 3)
    assert rows[(0.0, -2.0)] == pytest.approx(1 / 3)
    assert rows[(-1.0, -2.0)] == pytest.approx(2 / 3)
    assert rows[(-1.0, 1.0)] == pytest.approx(1 / 3)
    np.testing.assert_allclose(implied_sigma_e(env), [[2.0]])


def test_nc_hard2_coefficients():
    env = build_environment("nc_hard2")
    np.testing.assert_allclose(env.true_params.ravel(), [-3.0, -1.0])


def test_degree_one_polynomial_is_linear():
    env = build_environment("ms_polynomial", {"degree": 1, "theta": [[2.0], [-1.0]]})
    batch = sample_rounds(env, stream(0), 100)
    np.testing.assert_allclose(
        env.reward.mean_batch(batch.contexts, None),
        np.column_stack([2.0 * batch.contexts[:, 0], -1.0 * batch.contexts[:, 0]]))


def test_zero_noise_nonconv_outcomes_are_constant():
    env = build_environment("nonconv_demo", {"sigma_eta": 0.0})
    for _ in range(5):
        draw = sample_round(env, stream(3))
        np.testing.assert_allclose(draw.potential_outcomes, [0.5, 1.0 / 12.0])


def test_nc_hard1_supports():
    env = build_environment("nc_hard1")
    batch = sample_rounds(env, stream(7), 500)
    assert set(np.unique(batch.contexts)) <= {1.0, -2.0}
    assert set(np.unique(batch.latents)) <= {0.0, -1.0}


def test_same_seed_same_sequence():
    env = build_environment("nc_gaussian", seed=5)
    a = sample_rounds(env, stream(11), 50)
    b = sample_rounds(env, stream(11), 50)
    np.testing.assert_array_equal(a.contexts, b.contexts)
    np.testing.assert_array_equal(a.potentials, b.potentials)
    # sequential single draws reproduce too
    r1 = [sample_round(env, g) for g in [stream(12)] for _ in range(3)]
    g = stream(12)
    r2 = [sample_round(env, g) for _ in range(3)]
    for x, y in zip(r1, r2):
        np.testing.assert_array_equal(x.context, y.context)


def test_env_params_deterministic_in_seed():
    a = build_environment("nc_gaussian", seed=42)
    b = build_environment("nc_gaussian", seed=42)
    c = build_environment("nc_gaussian", seed=43)
    np.testing.assert_array_equal(a.true_params, b.true_params)
    assert not np.allclose(a.true_params, c.true_params)


def _assert_distinct_rows_are_numpy_unique(X):
    want_rows, want_inverse = np.unique(X, axis=0, return_inverse=True)
    got_rows, got_inverse = distinct_rows(X, return_inverse=True)
    assert got_rows.dtype == want_rows.dtype and got_rows.shape == want_rows.shape
    assert got_rows.tobytes() == want_rows.tobytes()
    assert got_inverse.dtype == want_inverse.dtype and got_inverse.shape == want_inverse.shape
    np.testing.assert_array_equal(got_inverse, want_inverse)
    assert distinct_rows(X).tobytes() == want_rows.tobytes()


# A small grid, so that drawn rows repeat and tie on leading columns.
_GRID = st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.5])


@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(_GRID, min_size=d, max_size=d), min_size=1, max_size=12)))
def test_distinct_rows_is_numpy_unique(rows):
    _assert_distinct_rows_are_numpy_unique(np.array(rows))


def test_distinct_rows_of_one_row():
    _assert_distinct_rows_are_numpy_unique(np.array([[1.5, -2.0]]))


@pytest.mark.parametrize("name", ENVIRONMENT_NAMES)
def test_distinct_rows_on_shipped_environments(name):
    env = build_environment(name)
    sup = support(env)
    if sup is not None:
        _assert_distinct_rows_are_numpy_unique(np.array([x for _, _, x in sup]))
        if env.has_latent:
            _assert_distinct_rows_are_numpy_unique(np.array([s for _, s, _ in sup]))
    if env.noise_law is not None and env.noise_law.kind == "table":
        _assert_distinct_rows_are_numpy_unique(env.noise_law.given)


@pytest.mark.parametrize("name", ["nc_hard1", "nc_hard2"])
def test_conditional_error_mean_zero_exact(name):
    env = build_environment(name)
    noise = env.noise_law
    for g in np.unique(noise.given, axis=0):
        mask = np.all(noise.given == g, axis=1)
        drift = noise.probs[mask] @ (noise.values[mask] - g)
        np.testing.assert_allclose(drift, 0.0, atol=1e-12)


def test_conditional_error_mean_zero_gaussian_mc():
    env = build_environment("nc_gaussian", seed=1)
    batch = sample_rounds(env, stream(21), 100_000)
    err = batch.contexts - batch.latents
    se = err.std(axis=0, ddof=1) / np.sqrt(err.shape[0])
    assert np.all(np.abs(err.mean(axis=0)) < 3 * se)


def test_empirical_covariance_matches_law():
    env = build_environment("nc_gaussian", seed=1)
    batch = sample_rounds(env, stream(22), 100_000)
    n = batch.latents.shape[0]
    emp = batch.latents.T @ batch.latents / n
    # MC stderr of a second-moment entry of a standard Gaussian is ~ sqrt(2/n)
    tol = 3 * np.sqrt(2.0 / n)
    assert np.max(np.abs(emp - env.context_law.cov)) < tol


def test_reward_table_invalid_override_rejected():
    bad = {"noise_table": [
        {"given": [0.0], "value": [1.0], "prob": 0.5},
        {"given": [0.0], "value": [-2.0], "prob": 0.5},  # mean -0.5, not 0
        {"given": [-1.0], "value": [-2.0], "prob": 2 / 3},
        {"given": [-1.0], "value": [1.0], "prob": 1 / 3},
    ]}
    with pytest.raises(InvalidParameterError, match="noise_table"):
        build_environment("nc_hard1", bad)


@pytest.mark.parametrize("key, value", [
    ("arm_means", [0.5, 0.3, 0.1]),
    ("arm_means", [0.5]),
    ("context_weights", [0.5, 0.25, 0.25]),
    ("context_weights", [1.0]),
])
def test_nonconv_demo_shape_overrides_rejected(key, value):
    with pytest.raises(InvalidParameterError, match=f"'{key}': expected"):
        build_environment("nonconv_demo", {key: value})


@pytest.mark.parametrize("name, key, value", [
    ("nc_gaussian", "num_arms", 2.5), ("nc_gaussian", "d", True), ("nc_gaussian", "d", "2"),
    ("ms_polynomial", "degree", 2.9), ("ms_polynomial", "num_arms", 2.5),
    ("ms_neural", "num_arms", 2.5), ("nc_gaussian", "num_arms", 0), ("nc_gaussian", "d", 0),
    ("ms_polynomial", "degree", 0), ("ms_neural", "num_arms", -1),
])
def test_integer_parameters_must_be_whole_numbers(name, key, value):
    # int() would truncate 2.5 arms to 2 and read True as d = 1; zero arms
    # failed deep in the run, naming no key.
    reason = "must be >= 1" if isinstance(value, int) and value < 1 else f"{key} must be a whole"
    with pytest.raises(InvalidParameterError, match=f"'{key}': {reason}"):
        build_environment(name, {key: value})
    whole, integer = build_environment(name, {key: 2.0}), build_environment(name, {key: 2})
    assert config_fingerprint([whole]) == config_fingerprint([integer])


_LATENT_ZERO_ROWS = [
    {"given": [0.0], "value": [1.0], "prob": 2 / 3},
    {"given": [0.0], "value": [-2.0], "prob": 1 / 3},
]


@pytest.mark.parametrize("name", ["nc_hard1", "nc_hard2"])
@pytest.mark.parametrize("table", [
    _LATENT_ZERO_ROWS,
    _LATENT_ZERO_ROWS + [{"given": [-1.0], "value": [-1.0], "prob": 1.0},
                         {"given": [1.0], "value": [1.0], "prob": 1.0}],
], ids=["latent_missing", "extra_latent"])
def test_noise_table_must_cover_exactly_the_latent_states(name, table):
    with pytest.raises(InvalidParameterError, match="'noise_table': given states"):
        build_environment(name, {"noise_table": table})


class TestOracles:
    def test_nonconv_misspec_linear_exact(self):
        env = build_environment("nonconv_demo")
        res = oracle_target(env, ScoreTarget(family="misspec_linear"), 0)
        assert res.exact
        np.testing.assert_allclose(res.theta, [-3.0 / 34.0], atol=1e-12)

    def test_nonconv_ope_value(self):
        env = build_environment("nonconv_demo")
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
        v = sum(oracle_target(env, target, a).theta[0] for a in range(2))
        assert v == pytest.approx(7.0 / 24.0, abs=1e-12)

    def test_nc_hard1_noisy_context_is_true_coefficient(self):
        env = build_environment("nc_hard1")
        target = ScoreTarget(family="noisy_context", sigma_e=[[2.0]])
        res = oracle_target(env, target, 0)
        assert res.exact
        np.testing.assert_allclose(res.theta, [3.0], atol=1e-12)

    def test_exact_and_mc_paths_agree_on_finite_support(self):
        for name in ("nonconv_demo", "nc_hard1", "nc_hard2"):
            env = build_environment(name)
            for target in (
                ScoreTarget(family="misspec_linear"),
                ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform")),
            ):
                exact = oracle_target(env, target, 0)
                mc = oracle_target(env, target, 0, n_oracle=200_000, seed=5, method="mc")
                assert np.all(np.abs(exact.theta - mc.theta) <= 3 * mc.stderr + 1e-12)

    def test_closed_forms_agree_with_mc_on_gaussian_envs(self):
        cases = [
            ("nc_gaussian", "misspec_linear"),
            ("ms_polynomial", "misspec_linear"),
            ("ms_neural", "misspec_linear"),
            ("ms_polynomial", "ope"),
            ("ms_neural", "ope"),
        ]
        for name, family in cases:
            env = build_environment(name, seed=3)
            tp = TargetPolicy(kind="uniform") if family == "ope" else None
            target = ScoreTarget(family=family, target_policy=tp)
            exact = oracle_target(env, target, 0)
            assert exact.exact
            mc = oracle_target(env, target, 0, n_oracle=300_000, seed=6, method="mc")
            assert np.all(np.abs(exact.theta - mc.theta) <= 4 * mc.stderr)

    def test_mc_oracle_reports_stderr(self):
        env = build_environment("ms_polynomial", seed=2)
        res = oracle_target(env, ScoreTarget(family="misspec_linear"), 1,
                            n_oracle=50_000, method="mc")
        assert not res.exact
        assert np.all(res.stderr > 0)

    def test_singular_design_raises(self):
        from banditlab.estimator import SingularDesign

        env = build_environment("nonconv_demo", {"context_points": (0.0, 0.0)})
        with pytest.raises(SingularDesign):
            oracle_target(env, ScoreTarget(family="misspec_linear"), 0)


def test_support_enumeration():
    env = build_environment("nc_hard1")
    sup = support(env)
    assert len(sup) == 4
    assert sum(p for p, _, _ in sup) == pytest.approx(1.0)
    assert support(build_environment("nc_gaussian")) is None
