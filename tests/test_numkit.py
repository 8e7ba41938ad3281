"""Numeric kernels: affine, activations, initializers, the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wicrep.numkit import (
    affine,
    cosine,
    finite_difference_grad,
    init_matrix,
    make_rng,
    sigmoid,
    softmax_stable,
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_affine_identity_and_zero_input():
    x = np.array([1.5, -2.0, 0.25])
    assert np.array_equal(affine(np.eye(3), x, np.zeros(3)), x)
    b = np.array([3.0, -1.0])
    assert np.array_equal(affine(np.zeros((2, 3)), x, b), b)


def test_affine_matches_triple_loop_oracle():
    rng = make_rng(0)
    for _ in range(20):
        w = rng.standard_normal((3, 2))
        x = rng.standard_normal(2)
        b = rng.standard_normal(3)
        want = np.array([sum(w[i, j] * x[j] for j in range(2)) + b[i] for i in range(3)])
        assert np.allclose(affine(w, x, b), want, atol=1e-12, rtol=0)


def test_affine_rejects_bad_shapes():
    with pytest.raises(ValueError):
        affine(np.zeros((2, 3)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        affine(np.zeros((2, 3)), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        affine(np.zeros(3), np.zeros(3), np.zeros(3))


def test_sigmoid_midpoint_and_saturation():
    assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0  # underflows cleanly, no warning


@given(st.lists(finite_floats, min_size=1, max_size=10))
def test_sigmoid_complement_symmetry(values):
    x = np.array(values)
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12, rtol=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="needs a long double wider than float64 for the reference")
def test_sigmoid_is_within_2_3e_16_of_a_long_double_reference():
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), make_rng(0).uniform(-6.0, 6.0, 100_000)])
    exact = 1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))
    assert np.max(np.abs(sigmoid(x).astype(np.longdouble) - exact)) <= 2.3e-16


def test_sigmoid_tails_are_exact_and_nan_propagates():
    x = np.array([np.inf, 1e308, -np.inf, -1e308, np.nan])
    with np.errstate(all="raise"):
        y = sigmoid(x)
    assert y[:4].tolist() == [1.0, 1.0, 0.0, 0.0]
    assert np.isnan(y[4])


def test_sigmoid_raises_no_floating_point_warning():
    # Halving a subnormal input underflows (a flag numpy ignores by default),
    # so the sweep starts at normal magnitudes.
    magnitudes = np.concatenate([[0.0], np.logspace(-300.0, 308.0, 609)])
    x = np.concatenate([magnitudes, -magnitudes, np.linspace(-800.0, 800.0, 1601)])
    with np.errstate(all="raise"):
        sigmoid(x)


def test_sigmoid_into_a_strided_view_matches_the_allocating_call():
    x = make_rng(1).standard_normal((7, 5)) * 10.0
    buf = np.full((7, 5), -1.0)
    out = buf[:, 1:4:2]
    got = sigmoid(x[:, 1:4:2], out=out)
    assert got is out
    assert np.array_equal(out, sigmoid(x[:, 1:4:2]))
    assert (buf[:, [0, 2, 4]] == -1.0).all()  # columns outside the view are untouched
    inplace = x.copy()[:, ::2]
    want = sigmoid(inplace)
    assert sigmoid(inplace, out=inplace) is inplace and np.array_equal(inplace, want)


def test_softmax_uniform_on_equal_logits():
    for k in (1, 3, 8):
        out = softmax_stable(np.full(k, 2.5))
        assert np.allclose(out, 1.0 / k, atol=1e-15, rtol=0)


def test_softmax_survives_huge_logits():
    out = softmax_stable(np.array([1000.0, 1000.0]))
    assert np.array_equal(out, [0.5, 0.5])
    out = softmax_stable(np.array([1000.0, -1000.0]))
    assert out[0] == 1.0 and out[1] == 0.0


@given(st.lists(finite_floats, min_size=1, max_size=20), finite_floats)
def test_softmax_shift_invariance_and_normalization(values, c):
    u = np.array(values)
    p = softmax_stable(u)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.allclose(p, softmax_stable(u + c), atol=1e-12, rtol=0)


def test_softmax_normalization_at_width_50000():
    p = softmax_stable(make_rng(3).uniform(-10, 10, size=50_000))
    assert abs(p.sum() - 1.0) <= 1e-12


def test_softmax_rejects_empty():
    with pytest.raises(ValueError):
        softmax_stable(np.array([]))


def test_cosine_self_zero_and_scale():
    rng = make_rng(1)
    v = rng.standard_normal(16)
    assert abs(cosine(v, v) - 1.0) <= 1e-12
    assert cosine(np.zeros(4), v[:4]) == 0.0
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0
    assert abs(cosine(3.0 * v, 0.5 * v) - 1.0) <= 1e-12


def test_init_uniform_and_glorot_bounds():
    rng = make_rng(9)
    m = init_matrix(300, 50, "uniform", rng, scale=0.08)
    assert np.all(np.abs(m) <= 0.08)
    g = init_matrix(10, 20, "glorot", rng)
    assert np.all(np.abs(g) <= np.sqrt(6.0 / 30.0))


def test_init_orthogonal_properties():
    m = init_matrix(8, 8, "orthogonal", make_rng(4))
    assert np.max(np.abs(m.T @ m - np.eye(8))) < 1e-5
    assert np.allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-6, rtol=0)


def test_init_is_deterministic_given_seed():
    a = init_matrix(6, 6, "orthogonal", make_rng(11))
    b = init_matrix(6, 6, "orthogonal", make_rng(11))
    assert np.array_equal(a, b)


def test_init_rejects_bad_requests():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        init_matrix(3, 4, "orthogonal", rng)
    with pytest.raises(ValueError):
        init_matrix(0, 4, "glorot", rng)
    with pytest.raises(ValueError):
        init_matrix(2, 2, "uniform", rng)  # no scale
    with pytest.raises(ValueError):
        init_matrix(2, 2, "dense", rng)


def test_equal_seeds_reproduce_draws():
    a = make_rng(123).standard_normal(10_000)
    b = make_rng(123).standard_normal(10_000)
    assert np.array_equal(a, b)


def test_fd_grad_on_square():
    grad = finite_difference_grad(lambda v: float(v[0] ** 2), np.array([3.0]), epsilon=1e-5)
    assert abs(grad[0] - 6.0) <= 1e-6


def test_fd_grad_constant_function():
    grad = finite_difference_grad(lambda v: 7.0, np.array([1.0, -2.0, 0.5]), epsilon=1e-4)
    assert np.array_equal(grad, np.zeros(3))


def test_fd_grad_matches_softmax_cross_entropy_formula():
    rng = make_rng(17)
    logits = rng.standard_normal(6)
    target = 2

    def nll(u):
        return -float(np.log(softmax_stable(u)[target]))

    numeric = finite_difference_grad(nll, logits, epsilon=1e-6)
    analytic = softmax_stable(logits)
    analytic[target] -= 1.0
    assert np.max(np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1e-8)) < 1e-7


def test_fd_grad_reports_bad_coordinate():
    def f(v):
        return float("nan") if v[1] > 1.0 else float(v.sum())

    with pytest.raises(ValueError, match="coordinate 1"):
        finite_difference_grad(f, np.array([0.0, 1.0]), epsilon=0.5)
    with pytest.raises(ValueError):
        finite_difference_grad(lambda v: 0.0, np.array([0.0]), epsilon=0.0)
