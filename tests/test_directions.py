"""The two scan directions run at the same time, on the caller's thread and a thread made for the call.

Every output must keep the bits of scanning one direction after the other,
an error in either direction must reach the caller, no thread may outlive
the call, a call made from inside a backward job must finish, a forked
child must scan on two threads too, and a forward-only encoder or a scan
below MIN_THREADED_WORK must make no thread. These models are small, so
each test but the last runs with MIN_THREADED_WORK lowered to 0, on the
two-thread path.
"""

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wicrep import model
from wicrep.corpus import TranslationInstance
from wicrep.model import (
    DIRECTION_FIELDS,
    NLL_BLOCK,
    _pack,
    _scan,
    _scan_backward,
    context_vectors,
    head_log_softmax,
    loss_and_gradients,
    target_log_probs,
)
from wicrep.train import TrainConfig, init_model

WORDS, LABELS = 40, 7
MIN_THREADED_WORK = model.MIN_THREADED_WORK


@pytest.fixture(autouse=True)
def two_threads_at_any_size(monkeypatch):
    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)


def toy_model(d, peephole="full", forward_only=False, seed=0):
    cfg = TrainConfig(d=d, d_h=d, seed=seed, peephole=peephole, forward_only=forward_only)
    return init_model(cfg, WORDS, LABELS)


def toy_batch(seed, n=NLL_BLOCK):
    """n instances over sentences of 1-20 tokens from a small vocabulary, so prefixes are shared."""
    rng = np.random.default_rng(seed)
    sentences = [[int(k) for k in rng.integers(0, 6 if s % 3 else WORDS, size=int(rng.integers(1, 21)))]
                 for s in range(n // 2)]
    batch = []
    for _ in range(n):
        ids = sentences[int(rng.integers(0, len(sentences)))]
        batch.append(TranslationInstance(ids, int(rng.integers(0, len(ids))), int(rng.integers(0, LABELS))))
    return batch


def serial_scans(enc, instances, trace=False):
    """(hs, pk, traces) with each direction packed and scanned after the other, on this thread."""
    pk = _pack(instances)
    traces = [_scan(params, enc.embeddings, pk.ids[q], pk.sizes[q], pk.parents[q], trace)
              for q, params in enumerate((enc.forward, enc.backward))]
    return np.hstack([tr.h[rows] for tr, rows in zip(traces, pk.rows)]), pk, traces


def serial_loss_and_gradients(enc, head, batch):
    """(loss, dense grads, du, hs): BPTT one direction after the other, the embedding rows summed forward first."""
    hs, pk, traces = serial_scans(enc, [(inst.source_ids, inst.position_t) for inst in batch], trace=True)
    targets = [inst.target_id for inst in batch]
    log_p, du = head_log_softmax(head, hs, targets)
    du[np.arange(len(batch)), targets] -= 1.0
    dhs = du @ head.projection
    hsz = enc.hidden_size
    grads = {"embedding": np.zeros_like(enc.embeddings)}
    for q, (prefix, params) in enumerate((("fwd", enc.forward), ("bwd", enc.backward))):
        dh_seq = np.zeros_like(traces[q].h)
        np.add.at(dh_seq, pk.rows[q], dhs[:, q * hsz : (q + 1) * hsz])
        dxs, d_params = _scan_backward(params, traces[q], pk.sizes[q], pk.parents[q], dh_seq)
        np.add.at(grads["embedding"], pk.ids[q], dxs)
        grads.update((f"{prefix}.{name}", getattr(d_params, name)) for name in DIRECTION_FIELDS)
    grads["head.projection"] = du.T @ hs
    grads["head.bias"] = du.sum(axis=0)
    return -float(np.sum(log_p)), grads, du, hs


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- bits


@pytest.mark.parametrize("peephole", ["full", "diagonal"])
@pytest.mark.parametrize("d", [8, 32])
def test_every_output_keeps_the_bits_of_one_direction_after_the_other(d, peephole):
    enc, head = toy_model(d, peephole, seed=d)
    batch = toy_batch(seed=d)
    instances = [(inst.source_ids, inst.position_t) for inst in batch]
    targets = [inst.target_id for inst in batch]

    hs = serial_scans(enc, instances)[0]
    assert same_bits(context_vectors(enc, instances), hs)
    log_p, p = head_log_softmax(head, hs, targets)
    got_log_p, got_p = target_log_probs(enc, head, instances, targets)
    assert same_bits(got_log_p, log_p)
    assert same_bits(got_p, p[np.arange(len(batch)), targets])

    loss, want, du, hs = serial_loss_and_gradients(enc, head, batch)
    got_loss, dense = loss_and_gradients(enc, head, batch)
    assert got_loss == loss
    assert dense.keys() == want.keys()
    assert [name for name in want if not same_bits(dense[name], want[name])] == []

    got_loss, sparse = loss_and_gradients(enc, head, batch, sparse=True)
    assert got_loss == loss
    rows = sparse.pop("embedding")
    assert same_bits(rows.ids, np.unique(np.concatenate([inst.source_ids for inst in batch])))
    assert same_bits(rows.values, want["embedding"][rows.ids])
    factored = sparse.pop("head.projection")
    assert same_bits(factored.du, du) and same_bits(factored.hs, hs)
    assert [name for name in sparse if not same_bits(sparse[name], want[name])] == []


def test_callers_on_four_threads_keep_the_bits():
    enc, head = toy_model(32, seed=3)
    batches = [toy_batch(seed) for seed in (4, 5)]
    want = [loss_and_gradients(enc, head, batch)[1] for batch in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            futures = [callers.submit(loss_and_gradients, enc, head, batch) for batch in batches * 4]
            got = [future.result(timeout=60)[1] for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, grads in enumerate(got):
        assert all(same_bits(grads[name], want[k % 2][name]) for name in grads)


# ---------------------------------------------------------------- errors


def test_an_error_in_the_backward_direction_reaches_the_caller_and_the_next_call_succeeds(monkeypatch):
    enc, _ = toy_model(8, seed=1)
    instances = [(inst.source_ids, inst.position_t) for inst in toy_batch(seed=1, n=16)]
    want = context_vectors(enc, instances)
    scan, raised = model._scan, []

    def failing_scan(params, *args):
        if params is enc.backward and not raised:
            raised.append(threading.current_thread())
            raise RuntimeError("backward scan failed")
        return scan(params, *args)

    monkeypatch.setattr(model, "_scan", failing_scan)
    with pytest.raises(RuntimeError, match="backward scan failed"):
        context_vectors(enc, instances)
    assert raised and raised[0] is not threading.current_thread()
    assert same_bits(context_vectors(enc, instances), want)


def test_the_forward_error_wins_and_comes_only_after_the_backward_direction_finished(monkeypatch):
    enc, _ = toy_model(8, seed=2)
    instances = [(inst.source_ids, inst.position_t) for inst in toy_batch(seed=2, n=16)]
    finished = []

    def failing_scan(params, *args):
        if params is enc.forward:
            raise ValueError("forward scan failed")
        time.sleep(0.2)
        finished.append(True)
        raise RuntimeError("backward scan failed")

    monkeypatch.setattr(model, "_scan", failing_scan)
    with pytest.raises(ValueError, match="forward scan failed"):
        context_vectors(enc, instances)
    assert finished == [True]


# ---------------------------------------------------------------- the thread of one call


def test_no_thread_outlives_a_gated_call(monkeypatch):
    enc, head = toy_model(8, seed=6)
    batch = toy_batch(seed=6, n=16)
    instances = [(inst.source_ids, inst.position_t) for inst in batch]
    scan, backward_threads = model._scan, []

    def recording_scan(params, *args):
        if params is enc.backward:
            backward_threads.append(threading.current_thread())
        return scan(params, *args)

    monkeypatch.setattr(model, "_scan", recording_scan)
    before = threading.enumerate()
    context_vectors(enc, instances)
    loss_and_gradients(enc, head, batch)
    assert threading.enumerate() == before
    assert len(backward_threads) == 2 and threading.current_thread() not in backward_threads
    assert not any(thread.is_alive() for thread in backward_threads)


def test_a_gated_call_made_inside_a_backward_job_finishes(monkeypatch):
    enc, _ = toy_model(8, seed=7)
    instances = [(inst.source_ids, inst.position_t) for inst in toy_batch(seed=7, n=16)]
    want = context_vectors(enc, instances)
    scan, inner, outer = model._scan, [], []

    def nesting_scan(params, *args):
        if params is enc.backward and not inner:
            inner.append(None)  # first, so the nested call's own backward scan does not nest again
            inner[0] = context_vectors(enc, instances)  # two threads again, from the backward job's thread
        return scan(params, *args)

    monkeypatch.setattr(model, "_scan", nesting_scan)
    caller = threading.Thread(target=lambda: outer.append(context_vectors(enc, instances)), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the call did not finish within 60 s"
    assert same_bits(outer[0], want) and same_bits(inner[0], want)


# ---------------------------------------------------------------- fork and forward-only


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_scans_both_directions_on_its_own_worker():
    enc, _ = toy_model(8, seed=3)
    instances = [(inst.source_ids, inst.position_t) for inst in toy_batch(seed=3, n=16)]
    want = context_vectors(enc, instances)  # the parent has scanned on two threads before it forks
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit only, never through pytest
        code = 1
        try:
            code = 0 if same_bits(context_vectors(enc, instances), want) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's scan did not finish within 60 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def no_thread(*args, **kwargs):
    raise AssertionError("the scan made a thread")


def test_a_forward_only_encoder_never_makes_a_thread(monkeypatch):
    enc, head = toy_model(8, forward_only=True, seed=4)
    batch = toy_batch(seed=4, n=16)
    instances = [(inst.source_ids, inst.position_t) for inst in batch]
    monkeypatch.setattr(model, "ThreadPoolExecutor", no_thread)
    context_vectors(enc, instances)
    target_log_probs(enc, head, instances, [inst.target_id for inst in batch])
    loss_and_gradients(enc, head, batch)
    bi_enc, _ = toy_model(8, seed=4)
    with pytest.raises(AssertionError, match="made a thread"):
        context_vectors(bi_enc, instances)


def test_a_scan_below_min_threaded_work_stays_on_the_callers_thread(monkeypatch):
    enc, head = toy_model(8, seed=5)
    batch = toy_batch(seed=5, n=16)
    instances = [(inst.source_ids, inst.position_t) for inst in batch]
    work = min(map(len, _pack(instances).ids)) * enc.hidden_size ** 2
    assert work < MIN_THREADED_WORK
    monkeypatch.setattr(model, "MIN_THREADED_WORK", MIN_THREADED_WORK)
    monkeypatch.setattr(model, "ThreadPoolExecutor", no_thread)
    context_vectors(enc, instances)
    loss_and_gradients(enc, head, batch)
    monkeypatch.setattr(model, "MIN_THREADED_WORK", work)
    with pytest.raises(AssertionError, match="made a thread"):
        context_vectors(enc, instances)
