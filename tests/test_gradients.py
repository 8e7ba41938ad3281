"""Loss values and exact BPTT gradients against the finite-difference oracle."""

import math

import numpy as np
import pytest

from wicrep.corpus import TranslationInstance
from wicrep.gradcheck import gradient_check, relative_error
from wicrep.model import (
    NLL_BLOCK,
    _pack,
    batch_nll,
    encode_bidirectional,
    get_flat_params,
    loss_and_gradients,
    lstm_step,
    param_items,
    set_flat_params,
)
from wicrep.numkit import finite_difference_grad
from wicrep.train import TrainConfig, init_model


def small_model(seed=0, n_labels=5, **kwargs):
    cfg = TrainConfig(d=4, d_h=3, seed=seed, **kwargs)
    return init_model(cfg, 8, n_labels)


def test_gradcheck_full_peepholes():
    for seed in (0, 1):
        r = gradient_check(seed)
        assert r.passed, f"seed {seed}: {r.max_rel_error} in {r.worst_tensor}"
        assert r.max_rel_error < 1e-4


def test_gradcheck_diagonal_peepholes():
    r = gradient_check(3, peephole="diagonal")
    assert r.passed, f"{r.max_rel_error} in {r.worst_tensor}"


def test_gradcheck_forward_only():
    r = gradient_check(4, forward_only=True)
    assert r.passed, f"{r.max_rel_error} in {r.worst_tensor}"


def test_relative_error_guards_small_denominators():
    assert relative_error(np.array([0.0]), np.array([1e-9]))[0] == 1e-9
    assert relative_error(np.array([100.0]), np.array([101.0]))[0] == pytest.approx(1 / 101)


def test_confident_model_has_zero_loss_and_gradients():
    enc, head = small_model()
    head.bias[2] = 1000.0  # drives p(label 2) to 1.0 exactly
    batch = [TranslationInstance([1, 5, 3], 1, 2), TranslationInstance([0, 2], 0, 2)]
    loss, grads = loss_and_gradients(enc, head, batch)
    assert loss == 0.0
    for name, _ in param_items(enc, head):
        assert not grads[name].any(), name


def test_zero_head_gives_uniform_loss():
    enc, head = small_model(n_labels=7)
    head.projection[:] = 0.0
    head.bias[:] = 0.0
    batch = [TranslationInstance([1, 2, 3], 0, 4), TranslationInstance([5, 5], 1, 0)]
    loss, _ = loss_and_gradients(enc, head, batch)
    assert loss == pytest.approx(2 * math.log(7), abs=1e-12)


def test_batch_loss_is_the_sum_of_instance_losses():
    enc, head = small_model(seed=5)
    batch = [
        TranslationInstance([3, 1, 4, 1], 2, 1),
        TranslationInstance([2, 7], 0, 3),
        TranslationInstance([3, 1, 4, 1], 0, 2),  # shares a sentence with the first
    ]
    loss, grads = loss_and_gradients(enc, head, batch)
    singles = [loss_and_gradients(enc, head, [inst]) for inst in batch]
    assert loss == pytest.approx(sum(l for l, _ in singles), rel=1e-12)
    for name, _ in param_items(enc, head):
        total = sum(g[name] for _, g in singles)
        assert np.allclose(grads[name], total, atol=1e-9, rtol=1e-9), name


def test_gradients_are_deterministic():
    enc, head = small_model(seed=9)
    batch = [TranslationInstance([1, 2, 3, 4], 2, 1), TranslationInstance([4, 3], 1, 2)]
    _, g1 = loss_and_gradients(enc, head, batch)
    _, g2 = loss_and_gradients(enc, head, batch)
    for name, _ in param_items(enc, head):
        assert np.array_equal(g1[name], g2[name]), name


def test_invalid_ids_are_rejected():
    enc, head = small_model()
    with pytest.raises(ValueError):
        loss_and_gradients(enc, head, [TranslationInstance([1, 2], 0, 99)])
    with pytest.raises(ValueError):
        loss_and_gradients(enc, head, [TranslationInstance([1, 200], 0, 1)])
    with pytest.raises(ValueError):
        loss_and_gradients(enc, head, [])


def test_embedding_gradient_touches_only_used_rows():
    enc, head = small_model(seed=2)
    _, grads = loss_and_gradients(enc, head, [TranslationInstance([1, 3], 0, 1)])
    used = {1, 3}
    for row in range(enc.embeddings.shape[0]):
        if row not in used:
            assert not grads["embedding"][row].any()


# ---------------------------------------------------------------- ragged packed batches

MODES = [{}, {"peephole": "diagonal"}, {"forward_only": True}]


def ragged_batch():
    """Sentence lengths 1, 3, 3 and 7; two instances share the 7-token sentence,
    and two share a sentence and a position."""
    return [
        TranslationInstance([4], 0, 1),
        TranslationInstance([1, 2, 3], 2, 3),
        TranslationInstance([1, 2, 3], 2, 0),
        TranslationInstance([3, 2, 1], 0, 2),
        TranslationInstance([0, 5, 6, 7, 1, 2, 3], 3, 4),
        TranslationInstance([0, 5, 6, 7, 1, 2, 3], 6, 1),
    ]


def oracle_encode(enc, ids):
    """Context vectors from lstm_step, one token at a time in each direction."""
    xs = enc.embeddings[ids]

    def run(params, seq):
        h = c = np.zeros(params.hidden_size)
        out = []
        for x in seq:
            h, c = lstm_step(params, x, h, c)
            out.append(h)
        return np.array(out)

    fwd = run(enc.forward, xs)
    return fwd if enc.backward is None else np.hstack([fwd, run(enc.backward, xs[::-1])[::-1]])


def oracle_nll(enc, head, inst):
    """-log p from lstm_step encodes and a numpy log-softmax."""
    h = oracle_encode(enc, inst.source_ids)[inst.position_t]
    z = head.projection @ h + head.bias
    top = z.max()
    return -(z[inst.target_id] - top - math.log(np.exp(z - top).sum()))


@pytest.mark.parametrize("mode", MODES)
def test_ragged_batch_gradients_match_finite_differences(mode):
    enc, head = small_model(seed=6, **mode)
    batch = ragged_batch()
    _, grads = loss_and_gradients(enc, head, batch)
    analytic = np.concatenate([grads[name].ravel() for name, _ in param_items(enc, head)])
    theta0 = get_flat_params(enc, head)

    def loss_at(theta):
        set_flat_params(enc, head, theta)
        return float(sum(batch_nll(enc, head, batch)))

    try:
        numeric = finite_difference_grad(loss_at, theta0, epsilon=1e-5)
    finally:
        set_flat_params(enc, head, theta0)
    assert np.max(relative_error(analytic, numeric)) < 1e-7


@pytest.mark.parametrize("mode", MODES)
def test_encode_matches_the_step_oracle(mode):
    enc, _ = small_model(seed=7, **mode)
    for inst in ragged_batch():
        got = encode_bidirectional(enc, inst.source_ids)
        assert np.max(np.abs(got - oracle_encode(enc, inst.source_ids))) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
def test_batch_nll_matches_the_step_oracle(mode):
    enc, head = small_model(seed=8, **mode)
    batch = ragged_batch()
    want = [oracle_nll(enc, head, inst) for inst in batch]
    assert np.max(np.abs(np.array(batch_nll(enc, head, batch)) - want)) <= 1e-12
    loss, _ = loss_and_gradients(enc, head, batch)
    assert loss == pytest.approx(sum(want), rel=1e-12)


def test_batch_nll_scores_in_blocks():
    enc, head = small_model(seed=4)
    rng = np.random.default_rng(4)
    batch = []
    for _ in range(2 * NLL_BLOCK + 20):
        n = int(rng.integers(1, 9))
        batch.append(TranslationInstance([int(x) for x in rng.integers(0, 8, size=n)],
                                         int(rng.integers(0, n)), int(rng.integers(0, 5))))
    blocks = [batch_nll(enc, head, batch[k : k + NLL_BLOCK])
              for k in range(0, len(batch), NLL_BLOCK)]
    assert batch_nll(enc, head, batch) == [v for block in blocks for v in block]


# ---------------------------------------------------------------- trimmed scans


def trimmed_batch():
    """Repeated sentences read at different positions, t = 0 and t = n - 1 among
    them, so each direction's scan stops at a different step per sentence."""
    return [
        TranslationInstance([0, 5, 6, 7, 1, 2, 3], 2, 1),
        TranslationInstance([0, 5, 6, 7, 1, 2, 3], 4, 3),
        TranslationInstance([4, 1, 2], 0, 0),
        TranslationInstance([4, 1, 2], 0, 2),
        TranslationInstance([3, 3, 5, 1], 3, 4),
        TranslationInstance([6], 0, 1),
        TranslationInstance([2, 4, 6, 7, 1], 1, 2),
        TranslationInstance([2, 4, 6, 7, 1], 4, 0),
    ]


def finite_difference_error(enc, head, batch):
    """Largest relative error of loss_and_gradients against central differences of batch_nll."""
    _, grads = loss_and_gradients(enc, head, batch)
    analytic = np.concatenate([grads[name].ravel() for name, _ in param_items(enc, head)])
    theta0 = get_flat_params(enc, head)

    def loss_at(theta):
        set_flat_params(enc, head, theta)
        return float(sum(batch_nll(enc, head, batch)))

    try:
        numeric = finite_difference_grad(loss_at, theta0, epsilon=1e-5)
    finally:
        set_flat_params(enc, head, theta0)
    return float(np.max(relative_error(analytic, numeric)))


@pytest.mark.parametrize("mode", MODES)
def test_trimmed_batch_gradients_match_finite_differences(mode):
    enc, head = small_model(seed=10, **mode)
    assert finite_difference_error(enc, head, trimmed_batch()) < 1e-7


@pytest.mark.parametrize("mode", MODES)
def test_trimmed_batch_nll_matches_the_step_oracle(mode):
    enc, head = small_model(seed=11, **mode)
    batch = trimmed_batch()
    want = [oracle_nll(enc, head, inst) for inst in batch]
    assert np.max(np.abs(np.array(batch_nll(enc, head, batch)) - want)) <= 1e-12
    loss, _ = loss_and_gradients(enc, head, batch)
    assert loss == pytest.approx(sum(want), rel=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_one_step_scans_have_exact_gradients(mode):
    """A direction scanned for one step only: one-token sentences, or every
    instance at t = 0 (forward) or at t = n - 1 (backward)."""
    enc, head = small_model(seed=12, **mode)
    batches = [
        [TranslationInstance([5], 0, 1)],
        [TranslationInstance([5], 0, 1), TranslationInstance([2], 0, 3)],
        [TranslationInstance([1, 2, 3], 0, 2), TranslationInstance([4, 5], 0, 0),
         TranslationInstance([6], 0, 4)],
        [TranslationInstance([1, 2, 3], 2, 2), TranslationInstance([4, 5], 1, 0),
         TranslationInstance([6], 0, 4)],
    ]
    for batch in batches:
        assert finite_difference_error(enc, head, batch) < 1e-7


# ---------------------------------------------------------------- shared prefixes


def windows_of(ids, window, target=lambda pos: pos % 5):
    """Supersense-style instances: every position's clipped window of one sentence."""
    out = []
    for pos in range(len(ids)):
        lo, hi = max(0, pos - window // 2), min(len(ids), pos + window // 2 + 1)
        out.append(TranslationInstance(ids[lo:hi], pos - lo, target(pos)))
    return out


SHARED_PREFIXES = {
    # windows starting at the first token nest; so do the reversed ones ending at the last
    "windows": windows_of([1, 2, 3, 4, 5, 6, 7], window=4),
    # forward rows branch at steps 1 and 2 under token 3; backward ones at step 2 under (5, 1)
    "first-token": [
        TranslationInstance([3, 1, 4, 1, 5], 2, 1), TranslationInstance([3, 1, 5], 1, 2),
        TranslationInstance([3, 2, 6], 2, 4), TranslationInstance([2, 6, 1], 0, 0),
        TranslationInstance([6, 1, 5], 0, 3),
    ],
    # forward: three rows, one left at step 2, two again at step 3 (a branch), then two
    "regrowth": [
        TranslationInstance([1, 2, 3, 4, 6], 4, 1), TranslationInstance([1, 2, 3, 5, 7], 4, 2),
        TranslationInstance([7, 6], 1, 3), TranslationInstance([4, 6], 1, 0),
    ],
    "duplicate": [
        TranslationInstance([1, 2, 3], 1, 2), TranslationInstance([1, 2, 3], 1, 2),
        TranslationInstance([1, 2, 4], 1, 3), TranslationInstance([5, 2, 3], 1, 0),
    ],
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(SHARED_PREFIXES))
def test_batches_that_share_prefixes_have_exact_gradients(name, mode):
    """Each shared prefix is scanned once, so its row sums the gradients of every read below it."""
    enc, head = small_model(seed=13, **mode)
    batch = SHARED_PREFIXES[name]
    pk = _pack([(inst.source_ids, inst.position_t) for inst in batch])
    first, last = {}, {}
    for inst in batch:
        ids, t = tuple(inst.source_ids), inst.position_t
        first[ids], last[ids] = min(t, first.get(ids, t)), max(t, last.get(ids, t))
    # fewer rows than scanning each distinct sentence alone as far as it is read
    assert sum(pk.sizes[0]) < sum(t + 1 for t in last.values())
    assert sum(pk.sizes[1]) < sum(len(ids) - t for ids, t in first.items())
    if name == "first-token":
        assert all(any(up is not None for up in ups) for ups in pk.parents)  # both directions branch
    if name == "regrowth":
        assert pk.sizes[0] == [3, 3, 1, 2, 2] and pk.parents[0][3] is not None
    assert finite_difference_error(enc, head, batch) < 1e-7
    want = [oracle_nll(enc, head, inst) for inst in batch]
    assert np.max(np.abs(np.array(batch_nll(enc, head, batch)) - want)) <= 1e-12
