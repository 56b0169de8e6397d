"""Metrics, reports, group diagnostics, and the k sweep."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import parse_report_csv
from titan.baselines import fit_baseline
from titan.errors import InputError
from titan.evaluation import (
    MetricsReport,
    MetricTriple,
    column_support,
    emit_report_csv,
    evaluate,
    jaccard,
    mae,
    mape,
    measure,
    recovery_jaccard,
    rmse,
    support_overlap_matrix,
    sweep_group_count,
    top_group_per_task,
)
from titan.solver import Hyperparams, TrainedModel, fit, predict
from titan.synth import SynthConfig, generate, plant_Q


def loop_rmse(y, yhat):
    total = 0.0
    for a, b in zip(y, yhat):
        total += (a - b) ** 2
    return np.sqrt(total / len(y))


def loop_mae(y, yhat):
    return sum(abs(a - b) for a, b in zip(y, yhat)) / len(y)


def loop_mape(y, yhat):
    return 100.0 * sum(abs((a - b) / a) for a, b in zip(y, yhat)) / len(y)


# ------------------------------------------------------------------- metrics


def test_metric_hand_values():
    assert rmse([1.0, 2.0], [3.0, 4.0]) == 2.0
    assert mae([1.0, 2.0], [3.0, 4.0]) == 2.0
    assert mape([1.0, 2.0], [3.0, 4.0]) == 150.0
    assert mape([100.0], [90.0]) == 10.0
    assert mae([1.0, 1.0], [2.0, -2.0]) == 2.0  # errors -1 and +3


def test_metrics_match_loop_oracles():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        y = rng.uniform(1.0, 50.0, size=n)
        yhat = y + rng.standard_normal(n)
        assert abs(rmse(y, yhat) - loop_rmse(y, yhat)) < 1e-12
        assert abs(mae(y, yhat) - loop_mae(y, yhat)) < 1e-12
        assert abs(mape(y, yhat) - loop_mape(y, yhat)) < 1e-12


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(1)
    y = rng.uniform(1.0, 50.0, size=40)
    yhat = y + rng.standard_normal(40)
    perm = rng.permutation(40)
    assert rmse(y, yhat) == pytest.approx(rmse(y[perm], yhat[perm]), abs=1e-12)
    assert mae(y, yhat) == pytest.approx(mae(y[perm], yhat[perm]), abs=1e-12)
    assert mape(y, yhat) == pytest.approx(mape(y[perm], yhat[perm]), abs=1e-12)


def test_rmse_dominates_mae():
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = rng.uniform(1.0, 50.0, size=25)
        yhat = y + rng.standard_normal(25)
        assert rmse(y, yhat) >= mae(y, yhat) - 1e-12


def test_metric_errors():
    with pytest.raises(InputError, match="zero labels"):
        mape([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(InputError, match="equal-length"):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(InputError, match="at least one"):
        mae([], [])


def test_metric_triple_keeps_exact_floats():
    t = MetricTriple(1.23456, 2.000049, 3.999999)
    assert (t.rmse, t.mae, t.mape_percent) == (1.23456, 2.000049, 3.999999)
    m = measure([100.0, 100.0], [90.0, 110.0])
    assert m.mape_percent == 10.0 and m.rmse == 10.0
    assert measure([3.0], [1.0 / 3.0]).mae == 3.0 - 1.0 / 3.0  # not rounded to 4 decimals


# ------------------------------------------------------------------ evaluate


def test_evaluate_trained_model_labels_and_k(default_run):
    train, test, _, model = default_run
    rep = evaluate(model, test)
    assert rep.method == "titan"
    assert rep.k == model.k
    assert list(rep.per_task) == list(test.graph.tasks)
    td = test.tasks[0]
    direct = measure(td.Y, predict(model, td.X, td.road_id))
    assert rep.per_task[td.road_id] == direct
    assert rep.overall is not None


def test_evaluate_baseline_has_k_zero(default_run):
    train, test, _, _ = default_run
    m = fit_baseline("ridge", train, 10.0)
    rep = evaluate(m, test)
    assert rep.method == "ridge" and rep.k == 0


def test_evaluate_rejects_foreign_objects_and_task_mismatch(default_run):
    _, test, _, model = default_run
    other = TrainedModel(Q=model.Q, W=model.W, tasks=tuple("x" + t for t in model.tasks))
    with pytest.raises(InputError, match="cannot evaluate"):
        evaluate(object(), test)
    with pytest.raises(InputError, match="do not match"):
        evaluate(other, test)


def test_report_equality_includes_overall():
    per = {"a": MetricTriple(1.0, 1.0, 1.0)}
    r1 = MetricsReport(method="m", per_task=per, k=2, overall=MetricTriple(9.0, 9.0, 9.0))
    r2 = MetricsReport(method="m", per_task=per, k=2, overall=MetricTriple(9.0, 9.0, 8.0))
    assert r1 != r2
    assert r1 == replace(r2, overall=r1.overall)


def test_pooled_rmse_matches_manual_concatenation(default_run):
    _, test, _, model = default_run
    ys = np.concatenate([td.Y for td in test.tasks])
    yh = np.concatenate([predict(model, td.X, td.road_id) for td in test.tasks])
    assert evaluate(model, test).overall == measure(ys, yh)  # exact, bit for bit


# ---------------------------------------------------------------- group tools


def test_top_group_hand_cases():
    Q = np.eye(4)[:, :3]
    W = np.array([[0.0, 3.0], [5.0, -3.0], [-2.0, 0.0]])
    model = TrainedModel(Q=Q, W=W, tasks=("a", "b"))
    top = top_group_per_task(model)
    idx_a, col_a = top["a"]
    assert idx_a == 1  # |5| beats |-2| and |0|
    np.testing.assert_array_equal(col_a, Q[:, 1])
    idx_b, _ = top["b"]
    assert idx_b == 0  # |3| ties |-3|; lowest index wins


def test_top_group_recovers_planted_dominant_group(default_run):
    _, _, truth, model = default_run
    blocks = truth.block_supports
    top = top_group_per_task(model)
    masks = column_support(model.Q)
    scores = []
    for r, road in enumerate(model.tasks):
        dom = int(np.argmax(np.abs(truth.W[:, r])))
        learned_idx, _ = top[road]
        learned_support = frozenset(np.flatnonzero(masks[learned_idx]))
        scores.append(jaccard(learned_support, blocks[dom]))
    assert float(np.mean(scores)) >= 0.8


def test_column_support_threshold():
    Q = np.array([[1.0, 0.0], [0.04, 0.0], [0.06, 0.0]])
    masks = column_support(Q)
    np.testing.assert_array_equal(masks[0], [True, False, True])
    np.testing.assert_array_equal(masks[1], [False, False, False])


def test_jaccard_values():
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
    assert jaccard(set(), set()) == 1.0
    assert jaccard({1}, set()) == 0.0
    assert jaccard({1, 2}, {1, 2}) == 1.0


def test_support_overlap_zero_for_feasible_q():
    Q = plant_Q(12, 3, seed=0)
    overlap = support_overlap_matrix(Q)
    np.testing.assert_array_equal(np.diag(overlap), np.ones(3))
    off = overlap - np.diag(np.diag(overlap))
    assert np.all(off == 0.0)


def test_recovery_jaccard_perfect_on_planted_q():
    Q = plant_Q(12, 3, seed=1)
    blocks = [frozenset(range(i * 4, (i + 1) * 4)) for i in range(3)]
    assert recovery_jaccard(Q, blocks) == 1.0


def test_recovery_jaccard_penalizes_missing_blocks():
    Q = plant_Q(12, 3, seed=1)[:, :1]  # only one learned column
    blocks = [frozenset(range(i * 4, (i + 1) * 4)) for i in range(3)]
    assert recovery_jaccard(Q, blocks) == pytest.approx(1 / 3)


# --------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def sweep_data():
    return generate(SynthConfig(T=4, p=18, k=3, n_per_task=80, noise_sigma=3.0,
                                graph_kind="star", seed=5))


def test_sweep_single_k_equals_direct_fit(sweep_data):
    train, test, _ = sweep_data
    hp = Hyperparams(k=3)
    reports = sweep_group_count(train, test, hp, [3])
    assert len(reports) == 1
    direct = evaluate(fit(train, hp), test)
    assert reports[0] == direct


def test_sweep_minimum_near_planted_group_count(sweep_data):
    train, test, _ = sweep_data
    reports = sweep_group_count(train, test, Hyperparams(), range(1, 7))
    assert [r.k for r in reports] == list(range(1, 7))
    best = min(reports, key=lambda r: r.overall.rmse)
    assert abs(best.k - 3) <= 1


def test_sweep_equals_direct_fits_in_k_order(sweep_data):
    train, test, _ = sweep_data
    hp = Hyperparams()
    reports = sweep_group_count(train, test, hp, [2, 5, 3])
    assert reports == tuple(evaluate(fit(train, replace(hp, k=k)), test) for k in (2, 5, 3))


def test_sweep_rejects_bad_inputs(sweep_data):
    train, test, _ = sweep_data
    with pytest.raises(InputError, match="at least one"):
        sweep_group_count(train, test, Hyperparams(), [])
    with pytest.raises(InputError, match="k=0"):
        sweep_group_count(train, test, Hyperparams(), [0, 3])
    with pytest.raises(InputError, match="k=19"):
        sweep_group_count(train, test, Hyperparams(), [19])
    with pytest.raises(InputError, match="k=2 given more than once"):
        sweep_group_count(train, test, Hyperparams(), [2, 3, 2])


# ---------------------------------------------------------------- report CSV


def test_report_csv_round_trip():
    reports = (
        MetricsReport(
            method="titan",
            per_task={"a": MetricTriple(1.2345, 2.0, 3.5), "b": MetricTriple(0.5, 0.25, 12.0)},
            k=4,
            overall=None,  # the CSV holds per-task rows only
        ),
        MetricsReport(
            method="ridge",
            per_task={"a": MetricTriple(9.9999, 8.0, 77.7777), "b": MetricTriple(1.0, 1.0, 1.0)},
            k=0,
            overall=None,
        ),
    )
    text = emit_report_csv(reports)
    assert text.splitlines()[0] == "method,task,k,rmse,mae,mape_percent"
    parsed = parse_report_csv(text)
    assert parsed == reports


def test_report_csv_parse_errors():
    with pytest.raises(InputError, match="<report>:1: expected header"):
        parse_report_csv("nope\n")
    good = "method,task,k,rmse,mae,mape_percent\n"
    with pytest.raises(InputError, match="r.csv:2: expected 6 fields"):
        parse_report_csv(good + "titan,a,1,2,3\n", source="r.csv")
    with pytest.raises(InputError, match="r.csv:2: bad numeric"):
        parse_report_csv(good + "titan,a,1,x,3,4\n", source="r.csv")
    with pytest.raises(InputError, match=":3:"):
        parse_report_csv(good + "titan,a,1,1,1,1\ntitan,b,ZZ,1,1,1\n")
