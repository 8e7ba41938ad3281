"""Adam updates against a straight-from-the-textbook reference implementation."""

import numpy as np
import pytest

from wicrep.errors import TrainingError
from wicrep.train import ADAM_BLOCK, AdamState, adam_step


def reference_adam(params, grad_fn, steps, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent Adam: bias-corrected moments, no shared code with train.py."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    out = {k: p.copy() for k, p in params.items()}
    for t in range(1, steps + 1):
        grads = grad_fn(out)
        for k in out:
            g = grads[k]
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            m_hat = m[k] / (1 - beta1 ** t)
            v_hat = v[k] / (1 - beta2 ** t)
            out[k] = out[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def quadratic_grad(centers):
    def grad_fn(params):
        return {k: params[k] - centers[k] for k in params}

    return grad_fn


def run_adam(params, grad_fn, steps, **hyper):
    current = {k: p.copy() for k, p in params.items()}
    state = AdamState.for_params(current, **hyper)
    for _ in range(steps):
        adam_step(current, grad_fn(current), state)
    return current


def test_matches_reference_on_quadratic():
    rng = np.random.default_rng(0)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    centers = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    ours = run_adam(params, quadratic_grad(centers), 10)
    ref = reference_adam(params, quadratic_grad(centers), 10)
    for k in params:
        assert np.max(np.abs(ours[k] - ref[k])) < 1e-10, k


def test_matches_reference_with_custom_hyperparameters():
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(2, 2))}
    centers = {"w": np.zeros((2, 2))}
    ours = run_adam(params, quadratic_grad(centers), 7,
                    alpha=0.05, beta1=0.8, beta2=0.95, eps=1e-6)
    ref = reference_adam(params, quadratic_grad(centers), 7,
                         lr=0.05, beta1=0.8, beta2=0.95, eps=1e-6)
    assert np.max(np.abs(ours["w"] - ref["w"])) < 1e-10


def test_zero_gradient_leaves_parameters_untouched():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    before = params["w"].copy()
    state = AdamState.for_params(params)
    for _ in range(5):
        adam_step(params, {"w": np.zeros(3)}, state)
    assert np.array_equal(params["w"], before)
    assert state.t == 5


def test_first_step_moves_by_roughly_lr_times_sign():
    params = {"w": np.array([0.0, 0.0])}
    grads = {"w": np.array([3.0, -0.25])}
    state = AdamState.for_params(params, alpha=0.01)
    adam_step(params, grads, state)
    assert np.allclose(params["w"], [-0.01, 0.01], rtol=1e-6)


def test_updates_happen_in_place():
    arr = np.zeros(2)
    params = {"w": arr}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.ones(2)}, state)
    assert arr[0] != 0.0


def test_nonfinite_gradient_names_the_tensor():
    params = {"fine": np.zeros(2), "broken": np.zeros(2)}
    state = AdamState.for_params(params)
    grads = {"fine": np.ones(2), "broken": np.array([1.0, np.nan])}
    with pytest.raises(TrainingError, match="broken"):
        adam_step(params, grads, state)


def test_state_shapes_follow_parameters():
    params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    state = AdamState.for_params(params)
    assert state.t == 0
    assert state.m["a"].shape == (2, 3)
    assert state.v["b"].shape == (4,)
    assert not state.m["a"].any() and not state.v["b"].any()


# ------------------------------------------------- the blocked update

def whole_tensor_adam(params, grads, state):
    """The update as whole-tensor expressions: the bits the blocked loop must give."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.alpha * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def block_straddling_params(rng):
    shapes = {
        "one": (1,),
        "below": (ADAM_BLOCK - 1,),
        "exact": (ADAM_BLOCK,),
        "above": (ADAM_BLOCK + 1,),
        "matrix": (3, ADAM_BLOCK // 2 + 7),  # row 1 crosses the first boundary
    }
    return {k: rng.normal(size=s) for k, s in shapes.items()}


def test_blocked_steps_are_bitwise_equal_to_whole_tensor_formula():
    rng = np.random.default_rng(7)
    params = block_straddling_params(rng)
    ours = {k: p.copy() for k, p in params.items()}
    ref = {k: p.copy() for k, p in params.items()}
    ours_state = AdamState.for_params(ours, alpha=0.01)
    ref_state = AdamState.for_params(ref, alpha=0.01)
    for _ in range(4):
        grads = {k: rng.normal(scale=rng.uniform(1e-6, 10.0), size=p.shape) for k, p in params.items()}
        adam_step(ours, grads, ours_state)
        whole_tensor_adam(ref, grads, ref_state)
    assert ours_state.t == ref_state.t == 4
    for k in params:
        assert np.array_equal(ours[k], ref[k]), k
        assert np.array_equal(ours_state.m[k], ref_state.m[k]), k
        assert np.array_equal(ours_state.v[k], ref_state.v[k]), k


def test_non_contiguous_tensors_are_updated_in_place():
    rng = np.random.default_rng(8)
    base = rng.normal(size=(ADAM_BLOCK // 100, 300))
    ours = {"t": base.copy().T}  # Fortran-ordered view of its own buffer
    ref = {"t": base.T.copy()}
    grads = {"t": rng.normal(size=ours["t"].shape)}
    ours_state = AdamState.for_params(ours)
    ref_state = AdamState.for_params(ref)
    for _ in range(2):
        adam_step(ours, grads, ours_state)
        whole_tensor_adam(ref, grads, ref_state)
    assert np.array_equal(ours["t"], ref["t"])
    assert np.array_equal(ours_state.m["t"], ref_state.m["t"])


def test_nan_in_a_later_block_names_the_tensor():
    params = {"first": np.zeros(3), "late": np.zeros(2 * ADAM_BLOCK + 5)}
    grads = {"first": np.ones(3), "late": np.ones(2 * ADAM_BLOCK + 5)}
    grads["late"][ADAM_BLOCK + 11] = np.nan  # only the second block is bad
    with pytest.raises(TrainingError, match="late"):
        adam_step(params, grads, AdamState.for_params(params))


def test_new_moments_are_float64_zeros_shaped_like_the_parameters():
    params = {"a": np.ones((2, 3), dtype=np.float32), "b": np.ones(ADAM_BLOCK + 1), "c": np.ones(())}
    state = AdamState.for_params(params)
    for moments in (state.m, state.v):
        assert list(moments) == list(params)
        for k, p in params.items():
            assert moments[k].dtype == np.float64, k
            assert moments[k].shape == p.shape, k
            assert not moments[k].any(), k
