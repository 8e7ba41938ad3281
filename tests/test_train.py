"""Initialization properties, perplexity, and the training-loop contract."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import wicrep.train as train_mod
from wicrep.corpus import TranslationInstance, Vocabulary
from wicrep.errors import TrainingError
from wicrep.model import (
    context_vectors,
    encode_bidirectional,
    get_flat_params,
    head_distribution,
    loss_and_gradients,
    param_items,
    set_flat_params,
)
from wicrep.train import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    init_model,
    init_task_head,
    model_from_arrays,
    perplexity,
    train,
)


def tiny_vocab(n, prefix="w"):
    return Vocabulary([("<unk>", 0)] + [(f"{prefix}{k:02d}", 10) for k in range(n)])


def make_instances(rng, n, vocab_size, n_labels):
    out = []
    for _ in range(n):
        length = int(rng.integers(3, 7))
        ids = [int(x) for x in rng.integers(0, vocab_size, size=length)]
        out.append(
            TranslationInstance(ids, int(rng.integers(0, length)), int(rng.integers(0, n_labels)))
        )
    return out


# ---------------------------------------------------------------- init


def test_init_model_shapes_and_bounds():
    cfg = TrainConfig(d=6, d_h=5, seed=3)
    enc, head = init_model(cfg, 11, 7)
    assert enc.embeddings.shape == (11, 6)
    assert np.max(np.abs(enc.embeddings)) <= 0.08
    for direction in (enc.forward, enc.backward):
        assert direction.hidden_size == 5
        for name in ("b_i", "b_f", "b_c", "b_o"):
            assert not getattr(direction, name).any()
    assert head.projection.shape == (7, 10)
    assert np.max(np.abs(head.projection)) <= math.sqrt(6.0 / 17.0)
    assert not head.bias.any()


def test_init_model_recurrent_matrices_are_orthogonal():
    enc, _ = init_model(TrainConfig(d=4, d_h=8, seed=0), 9, 5)
    for w in (enc.forward.w_hi, enc.forward.w_cf, enc.backward.w_ho):
        assert np.max(np.abs(w.T @ w - np.eye(8))) < 1e-5


def test_init_model_is_seed_deterministic():
    cfg = TrainConfig(d=5, d_h=4, seed=42)
    a = get_flat_params(*init_model(cfg, 7, 3))
    b = get_flat_params(*init_model(cfg, 7, 3))
    c = get_flat_params(*init_model(TrainConfig(d=5, d_h=4, seed=43), 7, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_only_doubles_the_hidden_size():
    enc, head = init_model(TrainConfig(d=6, d_h=4, forward_only=True), 9, 5)
    assert enc.backward is None
    assert enc.forward.hidden_size == 8
    assert enc.output_dim == 8
    assert head.projection.shape == (5, 8)


def test_diagonal_peepholes_are_bounded_vectors():
    enc, _ = init_model(TrainConfig(d=4, d_h=5, peephole="diagonal"), 9, 3)
    limit = math.sqrt(3.0 / 5.0)
    for w in (enc.forward.w_ci, enc.forward.w_cf, enc.backward.w_co):
        assert w.shape == (5,)
        assert np.max(np.abs(w)) <= limit


def test_init_task_head_matches_encoder_width():
    cfg = TrainConfig(d=4, d_h=3)
    enc, _ = init_model(cfg, 9, 5)
    head = init_task_head(cfg, enc, 4, seed=9)
    assert head.projection.shape == (4, 6)
    assert not head.bias.any()
    again = init_task_head(cfg, enc, 4, seed=9)
    assert np.array_equal(head.projection, again.projection)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 0},
        {"patience": 0},
        {"peephole": "banana"},
        {"beta1": 1.0},
        {"beta2": -0.1},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"learning_rate": math.inf},
        {"learning_rate": math.nan},
        {"adam_eps": 0.0},
        {"adam_eps": -1e-8},
        {"max_epochs": 0},
        {"eval_every": 0},
        {"eval_every": -2},
        {"d": 0},
        {"d_h": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**{"d": 4, "d_h": 4, **kwargs})


# ---------------------------------------------------------------- perplexity


def test_perplexity_of_zero_head_is_label_count():
    enc, head = init_model(TrainConfig(d=4, d_h=3), 9, 4)
    head.projection[:] = 0.0
    head.bias[:] = 0.0
    insts = [TranslationInstance([1, 2, 3], 1, 0), TranslationInstance([4, 5], 0, 2)]
    assert perplexity(enc, head, insts) == pytest.approx(4.0, rel=1e-12)


def test_perplexity_of_a_certain_model_is_one():
    enc, head = init_model(TrainConfig(d=4, d_h=3), 9, 4)
    head.bias[2] = 1000.0
    insts = [TranslationInstance([1, 2], 0, 2), TranslationInstance([3], 0, 2)]
    assert perplexity(enc, head, insts) == 1.0


def test_perplexity_past_the_float_range_is_inf():
    enc, head = init_model(TrainConfig(d=4, d_h=3), 9, 4)
    head.bias[3] = 2000.0  # every target-2 NLL is about 2000, past log(max float) = 709.8
    insts = [TranslationInstance([1, 2], 0, 2), TranslationInstance([3], 0, 2)]
    assert perplexity(enc, head, insts) == math.inf


def test_perplexity_matches_naive_two_pass_oracle():
    rng = np.random.default_rng(7)
    enc, head = init_model(TrainConfig(d=6, d_h=5, seed=1), 12, 9)
    insts = make_instances(rng, 20, 12, 9)
    nlls = []
    for inst in insts:
        h = encode_bidirectional(enc, inst.source_ids)[inst.position_t]
        nlls.append(-math.log(head_distribution(head, h)[inst.target_id]))
    naive = math.exp(sum(nlls) / len(nlls))
    assert perplexity(enc, head, insts) == pytest.approx(naive, rel=1e-9)


def test_perplexity_rejects_empty_input():
    enc, head = init_model(TrainConfig(d=4, d_h=3), 9, 4)
    with pytest.raises(ValueError):
        perplexity(enc, head, [])


# ---------------------------------------------------------------- the loop


def training_setup(seed=0, n=8, n_labels=4, **cfg_kwargs):
    vocab = tiny_vocab(6)
    tgt = tiny_vocab(n_labels - 1, prefix="T")
    assert len(tgt) == n_labels
    cfg = TrainConfig(d=4, d_h=3, batch_size=2, seed=seed, **cfg_kwargs)
    rng = np.random.default_rng(seed + 100)
    insts = make_instances(rng, n, len(vocab), n_labels)
    enc, head = init_model(cfg, len(vocab), n_labels)
    return vocab, tgt, cfg, insts, enc, head


def test_early_stopping_keeps_the_best_parameters(monkeypatch):
    vocab, tgt, cfg, insts, enc, head = training_setup(
        eval_every=1, patience=2, max_epochs=50
    )
    fake_ppls = [5.0, 4.0, 4.1, 4.2]  # exactly four evals, best at the second
    snapshots = []

    def fake_perplexity(e, h, dev):
        snapshots.append(get_flat_params(e, h).copy())
        return fake_ppls[len(snapshots) - 1]

    monkeypatch.setattr(train_mod, "perplexity", fake_perplexity)
    ckpt, history = train(
        enc, head, insts, insts[:2], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None
    )
    assert [h.dev_ppl for h in history] == fake_ppls
    assert [h.update for h in history] == [1, 2, 3, 4]
    assert len(snapshots) == 4
    assert np.array_equal(get_flat_params(ckpt.encoder, ckpt.head), snapshots[1])


def test_training_is_bitwise_deterministic():
    flats = []
    for _ in range(2):
        vocab, tgt, cfg, insts, enc, head = training_setup(seed=11, n=30, max_epochs=2)
        ckpt, _ = train(
            enc, head, insts, insts[:5], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None
        )
        flats.append(get_flat_params(ckpt.encoder, ckpt.head))
    assert np.array_equal(flats[0], flats[1])


def test_returned_checkpoint_scores_the_best_recorded_perplexity():
    vocab, tgt, cfg, insts, enc, head = training_setup(seed=3, n=24, max_epochs=4)
    dev = insts[:6]
    ckpt, history = train(
        enc, head, insts, dev, cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None
    )
    best = min(h.dev_ppl for h in history)
    assert perplexity(ckpt.encoder, ckpt.head, dev) == pytest.approx(best, rel=1e-12)


def test_empty_dev_set_keeps_final_parameters():
    vocab, tgt, cfg, insts, enc, head = training_setup(seed=5, max_epochs=2)
    ckpt, history = train(
        enc, head, insts, [], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None
    )
    assert all(math.isnan(h.dev_ppl) for h in history)
    assert np.array_equal(get_flat_params(ckpt.encoder, ckpt.head), get_flat_params(enc, head))


def test_the_checkpoint_holds_enc_and_head_and_nothing_model_sized_follows_the_last_update(monkeypatch):
    # Tracing restarts after every update, so what it counts at the end was
    # allocated after the last one: the checkpoint's own objects, no model copy.
    n = 20000
    vocab, tgt = tiny_vocab(n - 1), tiny_vocab(n - 1, prefix="T")
    cfg = TrainConfig(d=4, d_h=3, batch_size=2, max_epochs=2, seed=0)
    enc, head = init_model(cfg, n, n)
    insts = [TranslationInstance([1, 2, 3], 1, 5), TranslationInstance([4, 5], 0, 6)] * 2
    param_bytes = sum(p.nbytes for _, p in param_items(enc, head))

    def step_then_restart_tracing(*args):
        out = adam_step(*args)
        tracemalloc.stop()
        tracemalloc.start()
        return out

    monkeypatch.setattr(train_mod, "adam_step", step_then_restart_tracing)
    try:
        ckpt, history = train(enc, head, insts, [], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * param_bytes
    assert ckpt.encoder is enc and ckpt.head is head
    assert [r.update for r in history] == [2, 4]


def test_after_a_dev_set_run_enc_and_head_hold_the_best_parameters(monkeypatch):
    vocab, tgt, cfg, insts, enc, head = training_setup(eval_every=3, patience=5, max_epochs=2)
    fake_ppls = [5.0, 4.0]  # evaluations after updates 3 and 6; two more updates follow
    snapshots = []

    def fake_perplexity(e, h, dev):
        snapshots.append(get_flat_params(e, h).copy())
        return fake_ppls[len(snapshots) - 1]

    monkeypatch.setattr(train_mod, "perplexity", fake_perplexity)
    ckpt, history = train(enc, head, insts, insts[:2], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None)
    assert [h.update for h in history] == [3, 6]
    assert ckpt.encoder is enc and ckpt.head is head
    assert np.array_equal(get_flat_params(enc, head), snapshots[1])


def test_a_run_shorter_than_eval_every_evaluates_once_after_its_last_update():
    vocab, tgt, cfg, insts, enc, head = training_setup(eval_every=100, max_epochs=1)
    initial = get_flat_params(enc, head)
    ckpt, history = train(enc, head, insts, insts[:2], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None)
    assert [h.update for h in history] == [4]
    assert history[0].dev_ppl == perplexity(enc, head, insts[:2])
    assert not np.array_equal(get_flat_params(ckpt.encoder, ckpt.head), initial)


def test_training_holds_one_gradient_set_at_a_time():
    # Parameters dominate this model (20k-word vocabularies, d = 4), so its peak
    # is counted in parameter sets: Adam's two moments plus one gradient set,
    # and not both a gradient set and the next one.
    n = 20000
    vocab, tgt = tiny_vocab(n - 1), tiny_vocab(n - 1, prefix="T")
    cfg = TrainConfig(d=4, d_h=3, batch_size=2, max_epochs=1, seed=0)
    enc, head = init_model(cfg, n, n)
    insts = [TranslationInstance([1, 2, 3], 1, 5), TranslationInstance([4, 5], 0, 6)] * 2
    param_bytes = sum(p.nbytes for _, p in param_items(enc, head))
    tracemalloc.start()
    try:
        train(enc, head, insts, [], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * param_bytes


def test_an_improving_evaluation_frees_the_old_snapshot_before_taking_the_new(monkeypatch):
    # Counted in parameter sets as above, the parameters themselves included
    # (they are made before tracing starts and added): parameters, two moments
    # and one snapshot while the dev set is scored, then the new snapshot once
    # the old one is freed; 5 if the two overlap.
    n, epochs = 20000, 3
    vocab, tgt = tiny_vocab(n - 1), tiny_vocab(n - 1, prefix="T")
    cfg = TrainConfig(d=4, d_h=3, batch_size=2, max_epochs=epochs, patience=epochs, seed=0)
    insts = [TranslationInstance([1, 2, 3], 1, 5), TranslationInstance([4, 5], 0, 6)]
    calls = []

    def improving_perplexity(enc, head, instances):
        calls.append(len(instances))
        if len(calls) == epochs:
            tracemalloc.reset_peak()  # the last evaluation: its snapshot is what is measured
        return 100.0 - len(calls)

    monkeypatch.setattr(train_mod, "perplexity", improving_perplexity)
    enc, head = init_model(cfg, n, n)
    param_bytes = sum(p.nbytes for _, p in param_items(enc, head))
    tracemalloc.start()
    try:
        _, history = train(enc, head, insts, insts, cfg, src_vocab=vocab, tgt_vocab=tgt,
                           log=lambda s: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(calls) == epochs and [r.dev_ppl for r in history] == [99.0, 98.0, 97.0]
    assert param_bytes + peak < 4.5 * param_bytes


def test_nonfinite_loss_aborts_training():
    vocab, tgt, cfg, insts, enc, head = training_setup(max_epochs=1)
    head.bias[3] = math.nan
    with pytest.raises(TrainingError, match="non-finite"):
        train(enc, head, insts, [], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None)


def test_saturated_logits_give_a_finite_loss():
    vocab, tgt, cfg, insts, enc, head = training_setup(max_epochs=1)
    head.bias[3] = 2000.0  # every label but 3 underflows to probability zero
    insts = [TranslationInstance(i.source_ids, i.position_t, 0) for i in insts]
    loss, grads = loss_and_gradients(enc, head, insts)
    assert loss / len(insts) == pytest.approx(2000.0, rel=1e-2)
    for name, g in grads.items():
        assert np.all(np.isfinite(g)), name


def test_empty_training_set_is_rejected():
    vocab, tgt, cfg, insts, enc, head = training_setup()
    with pytest.raises(ValueError):
        train(enc, head, [], insts, cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None)


def test_log_lines_are_update_loss_perplexity_tsv():
    vocab, tgt, cfg, insts, enc, head = training_setup(seed=2, max_epochs=2)
    lines = []
    train(enc, head, insts, insts[:3], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lines.append)
    assert lines
    for line in lines:
        assert re.fullmatch(r"\d+\t\d+\.\d{6}\t\d+\.\d{6}", line), line


def test_eval_every_schedules_mid_epoch_evaluations():
    vocab, tgt, cfg, insts, enc, head = training_setup(eval_every=2, max_epochs=1)
    _, history = train(
        enc, head, insts, insts[:2], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None
    )
    assert [h.update for h in history] == [2, 4]


def test_default_schedule_evaluates_once_per_epoch():
    vocab, tgt, cfg, insts, enc, head = training_setup(max_epochs=3)
    _, history = train(
        enc, head, insts, insts[:2], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None
    )
    assert [h.update for h in history] == [4, 8, 12]


def test_train_loss_column_is_mean_per_instance_nll():
    vocab, tgt, cfg, insts, enc, head = training_setup(eval_every=1, max_epochs=1, patience=10)
    _, history = train(
        enc, head, insts, insts[:2], cfg, src_vocab=vocab, tgt_vocab=tgt, log=lambda s: None
    )
    assert all(h.train_loss >= 0.0 for h in history)
    assert all(math.isfinite(h.train_loss) for h in history)


# ---------------------------------------------------------------- plumbing


def test_model_from_arrays_roundtrip():
    enc, head = init_model(TrainConfig(d=5, d_h=4, seed=8), 9, 6)
    rebuilt_enc, rebuilt_head = model_from_arrays(dict(param_items(enc, head)))
    assert np.array_equal(get_flat_params(enc, head), get_flat_params(rebuilt_enc, rebuilt_head))
    assert rebuilt_enc.backward is not None

    fwd_enc, fwd_head = init_model(TrainConfig(d=5, d_h=4, forward_only=True), 9, 6)
    rebuilt, _ = model_from_arrays(dict(param_items(fwd_enc, fwd_head)))
    assert rebuilt.backward is None


@pytest.mark.parametrize("mode", [{}, {"peephole": "diagonal"}, {"forward_only": True}])
def test_per_gate_tensors_are_views_of_the_stacked_weights(mode):
    enc, head = init_model(TrainConfig(d=5, d_h=4, seed=8, **mode), 9, 6)
    params = dict(param_items(enc, head))
    assert np.shares_memory(params["fwd.w_hf"], enc.forward.wh)
    assert np.shares_memory(params["fwd.w_xo"], enc.forward.wx)
    assert np.shares_memory(params["fwd.b_c"], enc.forward.b)

    flat = get_flat_params(enc, head)
    flat += np.random.default_rng(3).normal(scale=0.1, size=flat.size)
    set_flat_params(enc, head, flat)
    sizes = np.cumsum([arr.size for arr in params.values()])[:-1]
    perturbed = {name: chunk.reshape(arr.shape)
                 for (name, arr), chunk in zip(params.items(), np.split(flat, sizes))}
    rebuilt, _ = model_from_arrays(perturbed)
    instances = [([1, 2, 3, 4], 1), ([5, 6], 0), ([7, 8, 1], 2)]
    assert np.array_equal(context_vectors(enc, instances), context_vectors(rebuilt, instances))

    before = enc.forward.wx.copy()
    _, grads = loss_and_gradients(enc, head, [TranslationInstance(ids, t, 2) for ids, t in instances])
    adam_step(params, grads, AdamState.for_params(params))
    assert not np.array_equal(enc.forward.wx, before)


def test_checkpoint_head_kind_and_label_names():
    enc, head = init_model(TrainConfig(d=4, d_h=3), 5, 3)
    tgt = tiny_vocab(2, prefix="T")
    translation = Checkpoint({}, tiny_vocab(4), enc, head, tgt_vocab=tgt)
    assert translation.head_kind == "translation"
    assert translation.label_names() == tgt.words
    task = Checkpoint({}, tiny_vocab(4), enc, head, labels=["O", "noun.act"])
    assert task.head_kind == "labels"
    assert task.label_names() == ["O", "noun.act"]
