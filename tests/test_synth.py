"""Synthetic generator: planted feasibility, graph smoothness, determinism."""

import numpy as np
import pytest

from titan.errors import InputError
from titan.evaluation import rmse
from titan.synth import (
    MAX_SYNTH_VALUES,
    GroundTruth,
    SynthConfig,
    ar1_rows,
    generate,
    make_task_graph,
    plant_Q,
    plant_W,
    task_names,
)


def small_config(**kw):
    base = dict(T=3, p=12, k=3, n_per_task=60, noise_sigma=1.0, graph_kind="path", seed=0)
    base.update(kw)
    return SynthConfig(**base)


# ------------------------------------------------------------------- configs


def test_config_validation():
    with pytest.raises(InputError, match="graph_kind"):
        small_config(graph_kind="ring")
    with pytest.raises(InputError, match="divide"):
        small_config(p=10, k=3)
    with pytest.raises(InputError, match="1 <= k <= p"):
        small_config(k=0)
    with pytest.raises(InputError, match="at least 2 tasks"):
        small_config(T=1)
    with pytest.raises(InputError, match="n_per_task"):
        small_config(n_per_task=1)
    with pytest.raises(InputError, match="noise_sigma"):
        small_config(noise_sigma=-1.0)
    with pytest.raises(InputError, match="feature_corr"):
        small_config(feature_corr=1.0)
    with pytest.raises(InputError, match="edge_list_path"):
        small_config(graph_kind="custom-edge-list")


def test_config_rejects_absurd_sizes_before_allocating():
    # path24, the largest benchmark dataset, holds 24 * 500 * 61 values
    assert 24 * 500 * 61 * 100 < MAX_SYNTH_VALUES
    for kw in ({"T": 2**70}, {"p": 2**70, "k": 1}, {"n_per_task": 2**70},
               {"T": 1000, "n_per_task": 10**4, "p": 10, "k": 1}):
        with pytest.raises(InputError, match="too large"):
            small_config(**kw)
    small_config(T=1000, n_per_task=10**4, p=8, k=1)  # 9e7 values: under the cap (not generated)


def test_task_graph_topologies():
    star = make_task_graph(small_config(T=4, graph_kind="star"))
    assert list(star.degree) == [3, 1, 1, 1]
    path = make_task_graph(small_config(T=4, graph_kind="path"))
    assert list(path.degree) == [1, 2, 2, 1]
    complete = make_task_graph(small_config(T=4, graph_kind="complete"))
    assert list(complete.degree) == [3, 3, 3, 3]
    assert star.tasks == task_names(4)


def test_custom_edge_list_graph(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("a b e1\nb c e2\n", encoding="utf-8")
    graph = make_task_graph(small_config(graph_kind="custom-edge-list", edge_list_path=str(path)))
    assert graph.tasks == ("e1", "e2")
    np.testing.assert_array_equal(graph.adjacency, [[0, 1], [1, 0]])


# ------------------------------------------------------------------- plant_Q


def test_plant_q_uniform_block_normalization():
    # hand case: equal entries in each block of a 4x2 layout
    block = np.array([1.0, 1.0])
    col = block / np.linalg.norm(block)
    np.testing.assert_allclose(col, [1 / np.sqrt(2)] * 2)
    Q = plant_Q(4, 2, seed=0)
    assert Q.shape == (4, 2)
    assert np.all(Q[:2, 0] > 0) and np.all(Q[2:, 0] == 0)
    assert np.all(Q[2:, 1] > 0) and np.all(Q[:2, 1] == 0)


def test_plant_q_columns_orthonormal():
    for seed in range(5):
        Q = plant_Q(12, 3, seed)
        gram = Q.T @ Q
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-12
        assert np.all(Q >= 0)


def test_plant_q_requires_divisible_blocks():
    with pytest.raises(InputError, match="divide"):
        plant_Q(10, 3, 0)


# ------------------------------------------------------------------- plant_W


def test_plant_w_complete_graph_columns_equal():
    graph = make_task_graph(small_config(T=3, graph_kind="complete"))
    W = plant_W(graph, 4, 1.0, seed=2)
    np.testing.assert_allclose(W[:, 0], W[:, 1], atol=1e-12)
    np.testing.assert_allclose(W[:, 0], W[:, 2], atol=1e-12)


def test_plant_w_high_smoothness_collapses_columns():
    graph = make_task_graph(small_config(T=5, graph_kind="star"))
    spread_lo = np.std(plant_W(graph, 4, 1.0, seed=3), axis=1).max()
    spread_hi = np.std(plant_W(graph, 4, 1e6, seed=3), axis=1).max()
    assert spread_hi < 1e-2
    assert spread_hi < spread_lo / 100


def test_plant_w_star_hub_closer_than_spokes():
    # Monte-Carlo: neighbor averaging pulls the hub toward each spoke
    graph = make_task_graph(SynthConfig(T=6, p=60, k=5, graph_kind="star"))
    hub_d, spoke_d = [], []
    for seed in range(200):
        W = plant_W(graph, 5, 1.0, seed)
        hub_d.extend(np.linalg.norm(W[:, 0] - W[:, j]) for j in range(1, 6))
        spoke_d.extend(
            np.linalg.norm(W[:, i] - W[:, j])
            for i in range(1, 6)
            for j in range(i + 1, 6)
        )
    assert np.mean(hub_d) <= np.mean(spoke_d)


def test_plant_w_guards():
    graph = make_task_graph(small_config())
    with pytest.raises(InputError, match="smoothness"):
        plant_W(graph, 3, 0.0, seed=0)


# ------------------------------------------------------------------ generate


def test_generate_noiseless_labels_exact():
    train, test, truth = generate(small_config(noise_sigma=0.0))
    for ds in (train, test):
        for r, td in enumerate(ds.tasks):
            want = td.X @ truth.Q @ truth.W[:, r]
            np.testing.assert_allclose(td.Y, want, atol=1e-12)
            assert rmse(td.Y, want) == 0.0


def test_generate_split_counts():
    train, test, _ = generate(small_config(n_per_task=60))
    assert all(td.n == 48 for td in train.tasks)
    assert all(td.n == 12 for td in test.tasks)
    assert train.p == train.h + train.t == 12


def test_generate_zero_feature_corr():
    train, _, _ = generate(small_config(T=2, n_per_task=600, feature_corr=0.0))
    X = train.tasks[0].X
    corr = np.corrcoef(X, rowvar=False)
    adjacent = np.array([corr[j, j + 1] for j in range(X.shape[1] - 1)])
    assert np.max(np.abs(adjacent)) < 0.1


def test_ar1_adjacent_column_correlation():
    rng = np.random.default_rng(0)
    X = ar1_rows(rng, 4000, 6, 0.6)
    for j in range(1, 6):
        got = np.corrcoef(X[:, j - 1], X[:, j])[0, 1]
        assert abs(got - 0.6) < 0.05


def test_generate_deterministic():
    a_train, a_test, a_truth = generate(small_config(seed=9))
    b_train, b_test, b_truth = generate(small_config(seed=9))
    np.testing.assert_array_equal(a_truth.Q, b_truth.Q)
    np.testing.assert_array_equal(a_truth.W, b_truth.W)
    for da, db in ((a_train, b_train), (a_test, b_test)):
        for ta, tb in zip(da.tasks, db.tasks):
            np.testing.assert_array_equal(ta.X, tb.X)
            np.testing.assert_array_equal(ta.Y, tb.Y)


def test_generate_seed_changes_data():
    a = generate(small_config(seed=1))[0]
    b = generate(small_config(seed=2))[0]
    assert not np.array_equal(a.tasks[0].X, b.tasks[0].X)


def test_planted_model_oracle_error_floor():
    config = SynthConfig(
        T=4, p=20, k=4, n_per_task=250, noise_sigma=2.0, graph_kind="star", seed=6
    )
    _, test, truth = generate(config)
    ys = np.concatenate([td.Y for td in test.tasks])
    yhats = np.concatenate(
        [td.X @ truth.Q @ truth.W[:, r] for r, td in enumerate(test.tasks)]
    )
    pooled = rmse(ys, yhats)
    assert 0.85 * config.noise_sigma <= pooled <= 1.15 * config.noise_sigma


def test_ground_truth_block_supports():
    truth = GroundTruth(Q=plant_Q(12, 3, 0), W=np.zeros((3, 2)), tasks=("a", "b"))
    supports = truth.block_supports
    assert supports[0] == frozenset(range(0, 4))
    assert supports[2] == frozenset(range(8, 12))
    for i, block in enumerate(supports):
        assert set(np.flatnonzero(truth.Q[:, i])) == set(block)
