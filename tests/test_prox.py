"""Norms and proximal operators against closed-form cases and numeric oracles."""

import numpy as np
import pytest

from helpers import oracle_prox_l21_row, oracle_soft_threshold, oracle_soft_threshold_nonneg
from titan.prox import (
    norm_fro,
    norm_l1,
    norm_l21,
    prox_l21,
    soft_threshold,
    soft_threshold_nonneg,
)


def test_norm_l1_zero_matrix():
    assert norm_l1(np.zeros((3, 4))) == 0.0


def test_norm_l1_hand_value():
    assert norm_l1(np.array([[1.0, -2.0], [3.0, 0.0]])) == 6.0


def test_norm_l1_matches_entrywise_loop():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5))
    total = 0.0
    for row in m:
        for v in row:
            total += abs(v)
    assert abs(norm_l1(m) - total) < 1e-12


def test_norm_l21_single_row():
    assert norm_l21(np.array([[3.0, 4.0]])) == 5.0


def test_norm_l21_identity():
    assert norm_l21(np.eye(2)) == 2.0


def test_norm_l21_matches_row_loop():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 6))
    total = 0.0
    for row in m:
        total += sum(v * v for v in row) ** 0.5
    assert abs(norm_l21(m) - total) < 1e-12


def test_norms_nonnegative_and_definite():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        assert norm_l1(m) > 0 and norm_l21(m) > 0 and norm_fro(m) > 0
    z = np.zeros((3, 3))
    assert norm_l1(z) == norm_l21(z) == norm_fro(z) == 0.0


def test_soft_threshold_zero_kappa_is_identity():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(soft_threshold(m, 0.0), m)


def test_soft_threshold_hand_values():
    out = soft_threshold(np.array([[3.0, -0.5]]), 1.0)
    np.testing.assert_allclose(out, [[2.0, 0.0]])


def test_soft_threshold_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = float(rng.uniform(-3, 3))
        kappa = float(rng.uniform(0, 2))
        got = soft_threshold(np.array([[x]]), kappa)[0, 0]
        assert abs(got - oracle_soft_threshold(x, kappa)) < 1e-6


def test_soft_threshold_nonneg_clips_negative():
    assert soft_threshold_nonneg(np.array([[-5.0]]), 0.3)[0, 0] == 0.0
    assert soft_threshold_nonneg(np.array([[-5.0]]), 0.0)[0, 0] == 0.0


def test_soft_threshold_nonneg_hand_value():
    assert soft_threshold_nonneg(np.array([[3.0]]), 1.0)[0, 0] == 2.0


def test_soft_threshold_nonneg_matches_constrained_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = float(rng.uniform(-3, 3))
        kappa = float(rng.uniform(0, 2))
        got = soft_threshold_nonneg(np.array([[x]]), kappa)[0, 0]
        assert abs(got - oracle_soft_threshold_nonneg(x, kappa)) < 1e-6


def test_prox_l21_hand_row():
    out = prox_l21(np.array([[3.0, 4.0]]), 2.0)
    np.testing.assert_allclose(out, [[1.8, 2.4]])


def test_prox_l21_full_shrinkage():
    out = prox_l21(np.array([[0.3, 0.4]]), 2.0)
    np.testing.assert_array_equal(out, [[0.0, 0.0]])


def test_prox_l21_zero_rows_stay_zero():
    out = prox_l21(np.array([[0.0, 0.0], [3.0, 4.0]]), 1.0)
    np.testing.assert_array_equal(out[0], [0.0, 0.0])


def test_prox_l21_matches_row_oracle():
    rng = np.random.default_rng(6)
    m = rng.uniform(-3, 3, size=(6, 4))
    kappa = 1.3
    got = prox_l21(m, kappa)
    for i, row in enumerate(m):
        np.testing.assert_allclose(got[i], oracle_prox_l21_row(row, kappa), atol=1e-6)


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        kappa = float(rng.uniform(0, 2))
        da = norm_fro(soft_threshold(a, kappa) - soft_threshold(b, kappa))
        assert da <= norm_fro(a - b) + 1e-12


def test_prox_l21_preserves_row_direction():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((5, 3))
    out = prox_l21(m, 0.7)
    for row_in, row_out in zip(m, out):
        nrm = np.linalg.norm(row_in)
        scale = float(row_out @ row_in) / (nrm * nrm)
        assert scale >= -1e-12
        np.testing.assert_allclose(row_out, scale * row_in, atol=1e-10)


def test_soft_threshold_nonneg_output_nonnegative():
    rng = np.random.default_rng(9)
    out = soft_threshold_nonneg(rng.standard_normal((10, 10)), 0.2)
    assert np.all(out >= 0)


def test_negative_kappa_rejected():
    m = np.ones((2, 2))
    for op in (soft_threshold, soft_threshold_nonneg, prox_l21):
        with pytest.raises(ValueError):
            op(m, -0.1)
