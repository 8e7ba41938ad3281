"""Adam updates against a straight-from-the-textbook reference implementation."""

import tracemalloc

import numpy as np
import pytest

import wicrep.train as train_mod
from wicrep.corpus import TranslationInstance, Vocabulary
from wicrep.errors import TrainingError
from wicrep.model import DIRECTION_FIELDS, Factored, SparseRows, loss_and_gradients, param_items
from wicrep.train import ADAM_BLOCK, ADAM_GATHER_SHARE, AdamState, TrainConfig, adam_step, init_model, train


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


# ------------------------------------------------- rows no gradient has listed

def same_bits(a, b):
    """Equal as float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.array_equal(np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


def row_gradient(rng, shape, rows, negative_zero_rows=()):
    g = np.zeros(shape)
    g[list(rows)] = rng.normal(size=(len(rows), *shape[1:]))
    for r in negative_zero_rows:
        g[r, ::2] = -0.0  # a zero row with sign bits set, which as_rows lists
    return g


def as_rows(g):
    """The dense gradient g as SparseRows of its rows with any bit set, -0.0 included."""
    ids = np.flatnonzero(g.any(axis=1) | np.signbit(g).any(axis=1))
    return SparseRows(ids, g[ids])


def test_skipped_cold_rows_are_bitwise_equal_to_whole_tensor_formula():
    rng = np.random.default_rng(11)
    stacked = rng.normal(size=(4 * 40, 6))
    stacked[:, 1] = -0.0  # negative zeros in every row, cold ones included, must keep their sign
    params = {
        "table": rng.normal(size=(40, 5)),
        "fortran": np.asfortranarray(rng.normal(size=(40, 7))),
        "gate": stacked[40:80],  # a per-gate row view of a stacked array
        "small": rng.normal(size=(8, 3)),  # passes a quarter live rows at the third step
        "bias": rng.normal(size=40),
    }
    ref = {k: p.copy() for k, p in params.items()}
    ours = dict(params)
    ours_state = AdamState.for_params(ours, alpha=0.01)
    ref_state = AdamState.for_params(ref, alpha=0.01)
    # rows with a gradient at each step; the rest get zeros (-0.0 in rows 30 and 31)
    live_rows = [{3, 17}, {3, 25}, set(), {5, 17}, {0, 39}]
    small_rows = [{1}, {1, 2}, {6}, set(), {0}]
    for step, rows in enumerate(live_rows):
        grads = {k: row_gradient(rng, params[k].shape, rows, (30, 31)) for k in ("table", "fortran", "gate")}
        grads["small"] = row_gradient(rng, (8, 3), small_rows[step])
        grads["bias"] = rng.normal(size=40)
        before = {k: p.copy() for k, p in ours.items()}
        adam_step(ours, {k: g if g.ndim == 1 else as_rows(g) for k, g in grads.items()}, ours_state)
        whole_tensor_adam(ref, grads, ref_state)
        if step == 2:  # no gradient at all: rows made live before still move
            assert not np.array_equal(ours["table"][[3, 17, 25]], before["table"][[3, 17, 25]])
    assert ours_state.t == ref_state.t == len(live_rows)
    for k in params:
        assert same_bits(ours[k], ref[k]), k
        assert same_bits(ours_state.m[k], ref_state.m[k]), k
        assert same_bits(ours_state.v[k], ref_state.v[k]), k
    assert params["gate"].base is stacked and same_bits(stacked[40:80], ref["gate"])
    assert params["fortran"].flags.f_contiguous
    listed = {0, 3, 5, 17, 25, 30, 31, 39}  # rows 30 and 31 with only -0.0 are listed, so live
    for k in ("table", "fortran", "gate"):
        assert set(np.flatnonzero(~ours_state.cold[k])) == listed, k
    assert "small" not in ours_state.cold and "bias" not in ours_state.cold


def test_cold_rows_keep_zero_moments_and_their_parameter_bits():
    rng = np.random.default_rng(12)
    p = rng.normal(size=(64, 4))
    p[10] = -0.0
    start = p.copy()
    state = AdamState.for_params({"e": p})
    for rows in ({2}, {2, 9}, {40}):
        adam_step({"e": p}, {"e": as_rows(row_gradient(rng, p.shape, rows, negative_zero_rows=(10, 11)))}, state)
    cold = np.setdiff1d(np.arange(64), [2, 9, 10, 11, 40])
    assert state.cold["e"][cold].all() and not state.cold["e"][[2, 9, 10, 11, 40]].any()
    zero = np.setdiff1d(np.arange(64), [2, 9, 40])  # the cold rows, and the live rows 10 and 11 of zeros
    assert same_bits(state.m["e"][zero], np.zeros((zero.size, 4)))
    assert same_bits(state.v["e"][zero], np.zeros((zero.size, 4)))
    assert same_bits(p[zero], start[zero])
    assert not np.array_equal(p[[2, 9, 40]], start[[2, 9, 40]])


def test_nan_in_a_cold_row_names_the_tensor_and_writes_back_nothing():
    rng = np.random.default_rng(13)
    params = {"fine": rng.normal(size=(40, 3)), "broken": rng.normal(size=(40, 3))}
    start = params["broken"].copy()
    state = AdamState.for_params(params)
    grads = {k: row_gradient(rng, p.shape, {4}) for k, p in params.items()}
    grads["broken"][21, 1] = np.nan  # row 21 had no gradient before
    with pytest.raises(TrainingError, match="broken"):
        adam_step(params, {k: as_rows(g) for k, g in grads.items()}, state)
    assert same_bits(params["broken"], start)
    assert not state.m["broken"].any() and not state.v["broken"].any()


def test_the_mask_is_dropped_once_every_row_is_live():
    rng = np.random.default_rng(14)
    params = {"w": rng.normal(size=(40, 2))}
    state = AdamState.for_params(params)
    assert set(state.cold) == {"w"} and state.cold["w"].all()
    adam_step(params, {"w": as_rows(row_gradient(rng, (40, 2), {7}))}, state)
    assert "w" in state.cold
    adam_step(params, {"w": as_rows(rng.normal(size=(40, 2)))}, state)
    assert "w" not in state.cold


@pytest.mark.parametrize("form", ["dense", "factored"])
def test_a_dense_or_factored_gradient_ends_the_mask_at_its_first_step(form):
    rng = np.random.default_rng(25)
    params = {"w": rng.normal(size=(40, 3))}
    params["w"][5] = -0.0
    ours, ref = {"w": params["w"].copy()}, {"w": params["w"].copy()}
    ours_state, ref_state = AdamState.for_params(ours, alpha=0.01), AdamState.for_params(ref, alpha=0.01)
    for rows in ([2, 9], [9, 30]):  # row 5 has a zero gradient at each step and keeps its -0.0
        if form == "dense":
            g = row_gradient(rng, (40, 3), rows, negative_zero_rows=(6,))
        else:
            g = factored(rng, 4, 40, 3, rows)
        adam_step(ours, {"w": g}, ours_state)
        assert not ours_state.cold
        whole_tensor_adam(ref, dense_gradients(ref, {"w": g}), ref_state)
        assert same_bits(ours["w"], ref["w"])
        assert same_bits(ours_state.m["w"], ref_state.m["w"])
        assert same_bits(ours_state.v["w"], ref_state.v["w"])
    assert same_bits(ours["w"][5], params["w"][5])


def test_only_tensors_of_two_or_more_dimensions_have_a_mask():
    state = AdamState.for_params({"s": np.ones(()), "b": np.ones(5), "w": np.ones((3, 2)), "k": np.ones((2, 3, 4))})
    assert {k: c.shape for k, c in state.cold.items()} == {"w": (3,), "k": (2,)}


def test_training_on_a_large_vocabulary_matches_whole_tensor_adam_bit_for_bit(monkeypatch):
    n = 20000
    vocab = Vocabulary([("<unk>", 0)] + [(f"w{i}", 1) for i in range(1, n)])
    cfg = TrainConfig(d=4, d_h=3, batch_size=3, max_epochs=3, seed=4)
    insts = [TranslationInstance([1, 2, 3], 1, 5), TranslationInstance([4, 5], 0, 6),
             TranslationInstance([7, 2, 9, 19999], 3, 0), TranslationInstance([11], 0, 12)]
    states = []

    def run(step):
        monkeypatch.setattr(train_mod, "adam_step", step)
        enc, head = init_model(cfg, n, n)
        ckpt, _ = train(enc, head, insts, insts[:2], cfg, src_vocab=vocab, tgt_vocab=vocab,
                        log=lambda s: None)
        return [a for _, a in param_items(ckpt.encoder, ckpt.head)]

    def recording_step(params, grads, state):
        states.append(state)
        return adam_step(params, grads, state)

    ours, ref = run(recording_step), run(lambda params, grads, state: whole_tensor_adam(
        params, dense_gradients(params, grads), state))
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert same_bits(a, b)
    # only the embedding rows of the 9 ids read were live; the head was updated whole
    assert np.count_nonzero(~states[-1].cold["embedding"]) == 9
    assert "head.projection" not in states[-1].cold


# ------------------------------------------------- row-sparse and factored gradients

def dense_gradients(params, grads):
    """grads with each SparseRows scattered into zeros and each Factored made whole as du.T @ hs."""
    out = dict(grads)
    for name, g in grads.items():
        if isinstance(g, SparseRows):
            out[name] = np.zeros(params[name].shape)
            out[name][g.ids] = g.values
        elif isinstance(g, Factored):
            out[name] = g.du.T @ g.hs
    return out


def assert_same_state(ours, ours_state, ref, ref_state):
    assert ours_state.t == ref_state.t
    for k in ref:
        assert same_bits(ours[k], ref[k]), k
        assert same_bits(ours_state.m[k], ref_state.m[k]), k
        assert same_bits(ours_state.v[k], ref_state.v[k]), k


def test_row_sparse_embedding_gradient_of_a_batch_steps_like_the_dense_one():
    cfg = TrainConfig(d=5, d_h=3, seed=6)
    # 5 repeats within sentences and is read by both directions; 30 only by the backward scan
    batches = [[TranslationInstance([5, 9, 5, 5, 12], 2, 1), TranslationInstance([9, 5, 30], 0, 3),
                TranslationInstance([12, 12], 1, 2)],
               [TranslationInstance([7, 5], 1, 0), TranslationInstance([5, 9, 5, 5, 12], 4, 6)],
               [TranslationInstance([41, 3, 41], 1, 4)]]
    ours, ref = init_model(cfg, 50, 7), init_model(cfg, 50, 7)
    ours_params, ref_params = dict(param_items(*ours)), dict(param_items(*ref))
    ours_state, ref_state = AdamState.for_params(ours_params), AdamState.for_params(ref_params)
    read = set()
    for batch in batches * 2:
        loss, grads = loss_and_gradients(*ours, batch, sparse=True)
        ref_loss, ref_grads = loss_and_gradients(*ref, batch)
        ids = grads["embedding"].ids
        assert loss == ref_loss
        compact = [k for k, g in grads.items() if not isinstance(g, np.ndarray)]
        assert compact == ["embedding", "head.projection"]
        assert ids.tolist() == sorted({k for inst in batch for k in inst.source_ids})
        dense = dense_gradients(ours_params, grads)
        for name in ("embedding", "head.projection"):
            assert same_bits(dense[name], ref_grads[name]), name
        adam_step(ours_params, grads, ours_state)
        adam_step(ref_params, ref_grads, ref_state)
        assert_same_state(ours_params, ours_state, ref_params, ref_state)
        read.update(ids.tolist())  # only the embedding keeps a mask: the rest have dense or factored gradients
        assert list(ours_state.cold) == ["embedding"] and not ref_state.cold
        assert set(np.flatnonzero(~ours_state.cold["embedding"])) == read


def test_row_sparse_gradients_step_like_dense_ones_across_the_gather_share():
    rng = np.random.default_rng(15)
    shape = (2000, 40)  # 80,000 values: updated whole, it runs in three runs of rows
    params = {"embedding": rng.normal(size=shape), "bias": rng.normal(size=5)}
    ours = {k: p.copy() for k, p in params.items()}
    ref = {k: p.copy() for k, p in params.items()}
    ours_state, ref_state = AdamState.for_params(ours, alpha=0.01), AdamState.for_params(ref, alpha=0.01)
    crossing = int(ADAM_GATHER_SHARE * shape[0]) + 1
    steps = [rng.choice(shape[0], size=30, replace=False), np.array([], dtype=np.intp),
             rng.choice(shape[0], size=crossing, replace=False), rng.choice(shape[0], size=50, replace=False)]
    listed = np.zeros(shape[0], dtype=bool)
    for step, ids in enumerate(steps):
        ids = np.union1d(ids, [7, 8])  # row 7 is all zero and row 8 all -0.0 at every step: both live
        listed[ids] = True
        g = rng.normal(size=(len(ids), shape[1]))
        g[ids == 7] = 0.0
        g[ids == 8] = -0.0
        grads = {"embedding": SparseRows(ids, g), "bias": rng.normal(size=5)}
        adam_step(ours, grads, ours_state)
        adam_step(ref, dense_gradients(ref, grads), ref_state)
        assert_same_state(ours, ours_state, ref, ref_state)
        if step < 2:
            assert np.array_equal(ours_state.cold["embedding"], ~listed)
    assert "embedding" not in ours_state.cold


def test_a_listed_row_of_zeros_turns_live_with_the_whole_tensor_bits():
    """Rows a SparseRows gradient lists with only +0.0 or -0.0 turn live, and keep the whole-tensor
    formula's bits: m = v = +0 and p -= +0, so p keeps its bits, -0.0 included."""
    rng = np.random.default_rng(21)
    params = {"embedding": rng.normal(size=(40, 3))}
    params["embedding"][6] = -0.0
    start = params["embedding"].copy()
    ours = {k: p.copy() for k, p in params.items()}
    ref = {k: p.copy() for k, p in params.items()}
    ours_state, ref_state = AdamState.for_params(ours, alpha=0.01), AdamState.for_params(ref, alpha=0.01)
    g = rng.normal(size=(4, 3))
    g[1], g[2] = 0.0, -0.0
    for grads in ({"embedding": SparseRows(np.array([2, 5, 6, 9]), g)},  # rows 5 and 6 listed with zeros
                  {"embedding": SparseRows(np.array([2]), g[:1])}):     # and then not listed
        adam_step(ours, grads, ours_state)
        whole_tensor_adam(ref, dense_gradients(ref, grads), ref_state)
        assert_same_state(ours, ours_state, ref, ref_state)
        assert set(np.flatnonzero(~ours_state.cold["embedding"])) == {2, 5, 6, 9}
        assert same_bits(ours["embedding"][[5, 6]], start[[5, 6]])
        assert same_bits(ours_state.m["embedding"][[5, 6]], np.zeros((2, 3)))
        assert same_bits(ours_state.v["embedding"][[5, 6]], np.zeros((2, 3)))


@pytest.mark.parametrize("live_rows", [2, 30])  # gathered, and updated whole past the share
def test_nan_in_a_row_sparse_gradient_names_the_tensor(live_rows):
    rng = np.random.default_rng(16)
    params = {"embedding": rng.normal(size=(40, 3))}
    start = params["embedding"].copy()
    ids = np.arange(live_rows)
    g = rng.normal(size=(live_rows, 3))
    g[1, 2] = np.nan
    with pytest.raises(TrainingError, match="embedding"):
        adam_step(params, {"embedding": SparseRows(ids, g)}, AdamState.for_params(params))
    if live_rows == 2:  # gathered rows are not written back
        assert same_bits(params["embedding"], start)


def test_a_row_sparse_gradient_with_no_rows_leaves_every_bit():
    """A step whose batch touches no embedding row: p, m and v keep their bits and t still advances."""
    rng = np.random.default_rng(18)
    params = {"embedding": rng.normal(size=(40, 3)), "bias": rng.normal(size=5)}
    state = AdamState.for_params(params)
    before = {k: (p.copy(), state.m[k].copy(), state.v[k].copy()) for k, p in params.items()}
    empty = SparseRows(np.array([], dtype=np.intp), np.zeros((0, 3)))
    adam_step(params, {"embedding": empty, "bias": np.zeros(5)}, state)
    assert state.t == 1
    for k, (p, m, v) in before.items():
        assert same_bits(params[k], p) and same_bits(state.m[k], m) and same_bits(state.v[k], v), k


def factored(rng, batch, n_labels, width, columns):
    """A Factored head gradient whose du is nonzero in the given columns only."""
    du = np.zeros((batch, n_labels))
    du[:, columns] = rng.normal(scale=1e-2, size=(batch, len(columns)))
    return Factored(du, np.tanh(rng.normal(size=(batch, width))))


def test_factored_head_gradients_step_like_their_dense_product():
    rng = np.random.default_rng(17)
    # W = 6 does not divide ADAM_BLOCK, so a run of rows crosses a block
    # boundary of the dense update, and the last run is a single row.
    run = ADAM_BLOCK // 6
    shapes = {"head": (2 * run + 1, 6), "narrow": (300, 4)}
    batch = {"head": 64, "narrow": 32}
    params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    ours = {k: p.copy() for k, p in params.items()}
    ref = {k: p.copy() for k, p in params.items()}
    ours_state, ref_state = AdamState.for_params(ours, alpha=0.01), AdamState.for_params(ref, alpha=0.01)

    def columns(n_labels, step):  # column 9 is zero at every step
        live = [[3, 17, n_labels - 1], [], rng.choice(n_labels, size=n_labels // 3, replace=False),
                np.arange(n_labels)][step]
        return np.setdiff1d(np.asarray(live, dtype=np.intp), [9])

    for step in range(4):  # a few columns, none, a third, every one: each step updates every row
        grads = {k: factored(rng, batch[k], *shape, columns(shape[0], step)) for k, shape in shapes.items()}
        adam_step(ours, grads, ours_state)
        adam_step(ref, dense_gradients(ref, grads), ref_state)
        assert_same_state(ours, ours_state, ref, ref_state)
        assert not ours_state.cold


@pytest.mark.parametrize("live", [2, 400])
def test_nan_in_a_factored_head_gradient_names_the_tensor(live):
    rng = np.random.default_rng(18)
    params = {"head.projection": rng.normal(size=(1000, 6))}
    start = params["head.projection"].copy()
    g = factored(rng, 3, 1000, 6, np.arange(live))
    g.du[1, live - 1] = np.nan
    with pytest.raises(TrainingError, match="head.projection"):
        adam_step(params, {"head.projection": g}, AdamState.for_params(params))
    assert same_bits(params["head.projection"], start)  # its one run is checked before it is written


def test_training_allocates_no_dense_embedding_gradient(monkeypatch):
    n, d = 20000, 16
    vocab = Vocabulary([("<unk>", 0)] + [(f"w{i}", 1) for i in range(1, n)])
    cfg = TrainConfig(d=d, d_h=3, batch_size=2, max_epochs=2, seed=4)
    insts = [TranslationInstance([1, 2, 3], 1, 5), TranslationInstance([4, 5], 0, 6),
             TranslationInstance([7, 2, 9, 19999], 3, 0)]
    peaks, shapes = [], []

    def measured(fn):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            if fn is adam_step:
                shapes.append(args[1]["embedding"].values.shape)
            return out
        return call

    monkeypatch.setattr(train_mod, "loss_and_gradients", measured(loss_and_gradients))
    monkeypatch.setattr(train_mod, "adam_step", measured(adam_step))
    enc, head = init_model(cfg, n, 8)
    tracemalloc.start()
    try:
        train(enc, head, insts, [], cfg, src_vocab=vocab, labels=[f"L{k}" for k in range(8)], log=lambda s: None)
    finally:
        tracemalloc.stop()
    assert max(peaks) < n * d * 8 / 2  # half of one dense (V, d) float64 gradient
    assert len(shapes) == 4 and all(rows < 10 for rows, _ in shapes)


def test_training_allocates_no_dense_head_gradient(monkeypatch):
    n_labels, d_h = 20000, 8
    vocab = Vocabulary([("<unk>", 0)] + [(f"w{i}", 1) for i in range(1, 20)])
    cfg = TrainConfig(d=4, d_h=d_h, batch_size=2, max_epochs=2, seed=4)
    insts = [TranslationInstance([1, 2, 3], 1, 5), TranslationInstance([4, 5], 0, 6),
             TranslationInstance([7, 2, 9, 19], 3, 19999)]
    peaks = []

    def measured(fn):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out
        return call

    monkeypatch.setattr(train_mod, "loss_and_gradients", measured(loss_and_gradients))
    monkeypatch.setattr(train_mod, "adam_step", measured(adam_step))
    enc, head = init_model(cfg, len(vocab), n_labels)
    tracemalloc.start()
    try:
        train(enc, head, insts, [], cfg, src_vocab=vocab, labels=[f"L{k}" for k in range(n_labels)],
              log=lambda s: None)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 8
    assert max(peaks) < n_labels * 2 * d_h * 8 / 2  # half of one dense (labels, W) float64 gradient


# ------------------------------------------------- gathered rows in several runs

WIDE = (50_000, 3)  # ADAM_BLOCK // 3 rows make one run; a quarter of the rows make two


def gradient_of(form, params, g):
    return {"embedding": g} if form == "rows" else dense_gradients(params, {"embedding": g})


@pytest.mark.parametrize("form", ["dense", "rows"])
def test_gathered_rows_in_several_runs_step_like_the_whole_tensor(form):
    rng = np.random.default_rng(19)
    per_run, share = ADAM_BLOCK // WIDE[1], int(ADAM_GATHER_SHARE * WIDE[0])
    params = {"embedding": rng.normal(size=WIDE)}
    ours = {k: p.copy() for k, p in params.items()}
    ref = {k: p.copy() for k, p in params.items()}
    ours_state, ref_state = AdamState.for_params(ours, alpha=0.01), AdamState.for_params(ref, alpha=0.01)
    first = rng.choice(WIDE[0], size=per_run + 300, replace=False)
    assert per_run < first.size <= share
    # two gathered runs, the same rows again, past the share, and updated whole
    steps = [first, first[:40], rng.choice(WIDE[0], size=share, replace=False),
             rng.choice(WIDE[0], size=200, replace=False)]
    touched = np.zeros(WIDE[0], dtype=bool)
    for step, ids in enumerate(steps):
        ids = np.sort(ids)
        g = SparseRows(ids, rng.normal(size=(ids.size, WIDE[1])))
        adam_step(ours, gradient_of(form, ours, g), ours_state)
        whole_tensor_adam(ref, dense_gradients(ref, {"embedding": g}), ref_state)
        touched[ids] = True
        assert ("embedding" in ours_state.cold) == (form == "rows" and step < 2)  # dense: updated whole
        if "embedding" in ours_state.cold:
            assert np.array_equal(ours_state.cold["embedding"], ~touched)
        assert same_bits(ours["embedding"], ref["embedding"]), step
        assert same_bits(ours_state.m["embedding"], ref_state.m["embedding"]), step
        assert same_bits(ours_state.v["embedding"], ref_state.v["embedding"]), step


@pytest.mark.parametrize("form", ["dense", "rows"])
@pytest.mark.parametrize("n_live", [ADAM_BLOCK // WIDE[1] + 500, 20_000], ids=["gathered", "every-row"])
def test_nan_in_a_later_run_leaves_that_run_and_the_rest_as_they_were(form, n_live):
    rng = np.random.default_rng(20)
    per_run = ADAM_BLOCK // WIDE[1]
    params = {"embedding": rng.normal(size=WIDE)}
    ref = {k: p.copy() for k, p in params.items()}
    ids = np.sort(rng.choice(WIDE[0], size=n_live, replace=False))
    values = rng.normal(size=(ids.size, WIDE[1]))
    # the live rows of the first run: the first per_run of them when gathered, else those among its rows
    gathered = form == "rows" and n_live <= ADAM_GATHER_SHARE * WIDE[0]
    first = ids[:per_run] if gathered else ids[ids < per_run]
    values[first.size + 7, 1] = np.nan  # in the second run
    state, ref_state = AdamState.for_params(params), AdamState.for_params(ref)
    with pytest.raises(TrainingError, match="embedding"):
        adam_step(params, gradient_of(form, params, SparseRows(ids, values)), state)
    # The first run is updated and the later ones keep their bits, as if only
    # the first run's rows had a gradient.
    first_run = SparseRows(first, values[: first.size])
    whole_tensor_adam(ref, dense_gradients(ref, {"embedding": first_run}), ref_state)
    assert same_bits(params["embedding"], ref["embedding"])
    assert same_bits(state.m["embedding"], ref_state.m["embedding"])
    assert same_bits(state.v["embedding"], ref_state.v["embedding"])


# ------------------------------------------------- tensors of any shape

def test_a_0d_tensor_is_updated_as_one_value():
    rng = np.random.default_rng(21)
    params = {"scale": np.array(0.5), "w": rng.normal(size=(3, 2))}
    ours = {k: p.copy() for k, p in params.items()}
    ref = {k: p.copy() for k, p in params.items()}
    ours_state, ref_state = AdamState.for_params(ours, alpha=0.01), AdamState.for_params(ref, alpha=0.01)
    scale = ours["scale"]
    for _ in range(3):
        grads = {"scale": np.array(rng.normal()), "w": rng.normal(size=(3, 2))}
        adam_step(ours, grads, ours_state)
        whole_tensor_adam(ref, grads, ref_state)
    assert ours["scale"] is scale and ours["scale"].shape == ()
    for k in params:
        assert same_bits(ours[k], ref[k]), k
        assert same_bits(ours_state.m[k], ref_state.m[k]), k
        assert same_bits(ours_state.v[k], ref_state.v[k]), k
    assert ours["scale"] != params["scale"]


def test_a_tensor_with_no_rows_is_skipped():
    rng = np.random.default_rng(22)
    params = {"empty": np.zeros((0, 4)), "w": rng.normal(size=(3, 2))}
    ref = {"w": params["w"].copy()}
    state, ref_state = AdamState.for_params(params), AdamState.for_params(ref)
    for _ in range(2):
        grads = {"empty": np.zeros((0, 4)), "w": rng.normal(size=(3, 2))}
        adam_step(params, grads, state)
        whole_tensor_adam(ref, {"w": grads["w"]}, ref_state)
    assert state.t == 2 and params["empty"].shape == (0, 4)
    assert same_bits(params["w"], ref["w"])


# ------------------------------------------------- moments in one flat array each

def test_each_moment_is_views_of_one_flat_float64_zero_array_in_parameter_order():
    params = {"f32": np.ones((3, 5), dtype=np.float32), "scalar": np.ones(()), "vec": np.ones(7),
              "empty": np.ones((0, 2)), "cube": np.ones((2, 3, 4)), "fortran": np.asfortranarray(np.ones((4, 6)))}
    total = sum(p.size for p in params.values())
    state = AdamState.for_params(params)
    bases = []
    for moments in (state.m, state.v):
        assert list(moments) == list(params)
        flat = moments["f32"].base
        assert flat.dtype == np.float64 and flat.shape == (total,) and not flat.any()
        start = flat.__array_interface__["data"][0]
        offset = 0
        for k, p in params.items():
            view = moments[k]
            assert view.base is flat, k
            assert view.shape == p.shape and view.dtype == np.float64 and view.flags.c_contiguous, k
            if p.size:  # an empty view's address is not its place
                assert view.__array_interface__["data"][0] == start + 8 * offset, k
            offset += p.size
        bases.append(flat)
    assert bases[0] is not bases[1] and not np.shares_memory(bases[0], bases[1])


def test_flat_moments_step_like_separately_allocated_ones():
    rng = np.random.default_rng(23)
    run = ADAM_BLOCK // 6
    shapes = {"embedding": (2000, 40), "gate": (30, 20), "bias": (20,), "scalar": (),
              "head": (4 * run + 1, 6), "small_head": (300, 6)}  # the head makes three product pairs
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    ours = {k: p.copy() for k, p in params.items()}
    ref = {k: p.copy() for k, p in params.items()}
    ours_state = AdamState.for_params(ours, alpha=0.01)
    # the textbook layout: one array per moment and tensor
    ref_state = AdamState(m={k: np.zeros(s) for k, s in shapes.items()}, v={k: np.zeros(s) for k, s in shapes.items()},
                          cold={}, t=0, alpha=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    crossing = int(ADAM_GATHER_SHARE * shapes["embedding"][0]) + 1
    n_labels = shapes["head"][0]
    steps = [(30, [3, 17, n_labels - 1]), (3, []), (crossing, rng.choice(n_labels, size=run + 50, replace=False)),
             (50, np.arange(n_labels))]  # gathered, no gradient, past the share, updated whole
    for n_rows, columns in steps:
        ids = np.sort(rng.choice(shapes["embedding"][0], size=n_rows, replace=False))
        grads = {"embedding": SparseRows(ids, rng.normal(size=(n_rows, 40))),
                 "gate": rng.normal(size=(30, 20)), "bias": rng.normal(size=20), "scalar": np.array(rng.normal()),
                 "head": factored(rng, 16, *shapes["head"], np.sort(np.asarray(columns, dtype=np.intp))),
                 "small_head": factored(rng, 8, *shapes["small_head"], np.arange(300))}
        adam_step(ours, grads, ours_state)
        whole_tensor_adam(ref, dense_gradients(ref, grads), ref_state)
        assert ours_state.t == ref_state.t
        for k in shapes:
            assert same_bits(ours[k], ref[k]), k
            assert same_bits(ours_state.m[k], ref_state.m[k]), k
            assert same_bits(ours_state.v[k], ref_state.v[k]), k
    assert not ours_state.cold


def test_moments_of_a_paper_scale_model_are_two_allocations():
    d, words = 300, 30_000
    shapes = {"embedding": (words, d),
              **{f"{side}.{f}": (d,) if f.startswith("b_") else (d, d) for side in ("fwd", "bwd")
                 for f in DIRECTION_FIELDS},
              "head.projection": (words, 2 * d), "head.bias": (words,)}
    params = {k: np.broadcast_to(np.zeros(()), s) for k, s in shapes.items()}  # no memory of their own
    total = sum(p.size for p in params.values())
    tracemalloc.start()
    try:
        state = AdamState.for_params(params)
        sizes = [trace.size for trace in tracemalloc.take_snapshot().traces]
    finally:
        tracemalloc.stop()
    big = [s for s in sizes if s >= 1 << 20]
    assert big == [8 * total] * 2  # one flat float64 array per moment, not 66 tensor-sized ones
    assert sum(sizes) - sum(big) < 1 << 20  # masks and views
    assert state.m["fwd.w_xi"].base is state.m["head.bias"].base


@pytest.mark.parametrize("n_live", [ADAM_BLOCK // 6 + 500, 20_000], ids=["quarter", "every-row"])
def test_nan_in_the_second_run_of_a_factored_pair_updates_the_first_run_only(n_live):
    rng = np.random.default_rng(24)
    shape = (24_000, 6)  # three runs, the first two made as one pair
    per_run = ADAM_BLOCK // shape[1]
    params = {"head.projection": rng.normal(size=shape)}
    ref = {k: p.copy() for k, p in params.items()}
    columns = np.sort(rng.choice(shape[0], size=n_live, replace=False))
    g = factored(rng, 4, *shape, columns)
    first = columns[columns < per_run]
    g.du[2, columns[first.size + 7]] = np.nan  # in the second run of the first pair
    state, ref_state = AdamState.for_params(params), AdamState.for_params(ref)
    with pytest.raises(TrainingError, match="head.projection"):
        adam_step(params, {"head.projection": g}, state)
    dense = g.du.T @ g.hs
    only_first = np.zeros(shape)
    only_first[first] = dense[first]
    whole_tensor_adam(ref, {"head.projection": only_first}, ref_state)
    assert same_bits(params["head.projection"], ref["head.projection"])
    assert same_bits(state.m["head.projection"], ref_state.m["head.projection"])
    assert same_bits(state.v["head.projection"], ref_state.v["head.projection"])
