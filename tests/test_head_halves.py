"""The softmax head on two threads: its row halves, and Adam's next head-gradient run made ahead.

head_log_softmax and the head's dL/dhs product split a batch of at least
2 * MIN_PRODUCT_ROWS rows into two row halves, one on the caller's thread
and one on a thread made for the call; adam_step makes the next run of a
compact gradient's rows on a worker thread while the caller applies the
current run. Every output must keep the bits of one thread, an error on
either thread must reach the caller, no thread may outlive the call, and a
smaller batch must make no thread. These models are small, so the tests
lower MIN_THREADED_WORK to 0 where they want the two-thread path.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wicrep import model
from wicrep.corpus import TranslationInstance
from wicrep.errors import TrainingError
from wicrep.model import (
    MIN_PRODUCT_ROWS,
    Factored,
    SparseRows,
    head_log_softmax,
    loss_and_gradients,
    target_log_probs,
)
from wicrep.train import ADAM_BLOCK, AdamState, TrainConfig, adam_step, init_model

WORDS, LABELS = 40, 1000
BATCH = 2 * MIN_PRODUCT_ROWS  # the fewest rows that are split


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def toy_model(width, forward_only=False):
    """An encoder of output width `width` (d = 8) and a LABELS-way head."""
    cfg = TrainConfig(d=8, d_h=width // 2, seed=width, forward_only=forward_only)  # forward-only doubles d_h
    return init_model(cfg, WORDS, LABELS)


def toy_batch(seed, n=BATCH):
    """n instances over sentences of 1-12 tokens from a small vocabulary, with targets over every label."""
    rng = np.random.default_rng(seed)
    sentences = [[int(k) for k in rng.integers(0, WORDS, size=int(rng.integers(1, 13)))] for _ in range(n // 2)]
    batch = []
    for _ in range(n):
        ids = sentences[int(rng.integers(0, len(sentences)))]
        batch.append(TranslationInstance(ids, int(rng.integers(0, len(ids))), int(rng.integers(0, LABELS))))
    return batch


def one_thread_head(head, hs, targets):
    """(log p, P) of head_log_softmax as whole-batch expressions, on the caller's thread."""
    z = hs @ head.projection.T
    z += head.bias
    z -= z.max(axis=1, keepdims=True)
    z_target = z[np.arange(len(hs)), targets]
    p = np.exp(z)
    total = p.sum(axis=1)
    p /= total[:, None]
    return z_target - np.log(total), p


class RecordingPool(ThreadPoolExecutor):
    """worker_thread's executor, recording the thread each job runs on in `threads`."""

    threads: list = []

    def submit(self, fn, *args):
        def job(*job_args):
            RecordingPool.threads.append(threading.current_thread())
            return fn(*job_args)

        return super().submit(job, *args)


@pytest.fixture
def job_threads(monkeypatch):
    """The threads worker_thread's jobs ran on, in order."""
    monkeypatch.setattr(model, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "threads", [])
    return RecordingPool.threads


def no_thread(*args, **kwargs):
    raise AssertionError("made a thread")


# ---------------------------------------------------------------- the head's row halves


@pytest.mark.parametrize("width", [32, 64, 600])
def test_the_head_and_every_gradient_keep_the_bits_of_one_thread(monkeypatch, job_threads, width):
    enc, head = toy_model(width)
    head.bias[:] = np.random.default_rng(width).normal(size=LABELS)
    batch = toy_batch(seed=width)
    instances = [(inst.source_ids, inst.position_t) for inst in batch]
    targets = np.array([inst.target_id for inst in batch])
    hs = np.random.default_rng(width).normal(size=(BATCH, width))
    want_log_p, want_p = one_thread_head(head, hs, targets)

    monkeypatch.setattr(model, "MIN_THREADED_WORK", 1 << 62)  # everything on the caller's thread
    log_p, p = head_log_softmax(head, hs, targets)
    assert same_bits(log_p, want_log_p) and same_bits(p, want_p)
    one_log_p, one_p = target_log_probs(enc, head, instances, targets)
    one_loss, one_grads = loss_and_gradients(enc, head, batch)
    assert job_threads == []

    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)
    log_p, p = head_log_softmax(head, hs, targets)
    assert same_bits(log_p, want_log_p) and same_bits(p, want_p)
    assert len(job_threads) == 1 and job_threads[0] is not threading.current_thread()
    got_log_p, got_p = target_log_probs(enc, head, instances, targets)
    assert same_bits(got_log_p, one_log_p) and same_bits(got_p, one_p)
    loss, grads = loss_and_gradients(enc, head, batch)
    assert loss == one_loss
    assert [name for name in one_grads if not same_bits(grads[name], one_grads[name])] == []


def test_fewer_than_twice_min_product_rows_make_no_thread(monkeypatch):
    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)
    enc, head = toy_model(32, forward_only=True)  # so the scans make no thread either
    batch = toy_batch(seed=1, n=BATCH - 1)
    hs = np.random.default_rng(1).normal(size=(BATCH - 1, 32))
    targets = [inst.target_id for inst in batch]
    monkeypatch.setattr(model, "ThreadPoolExecutor", no_thread)
    head_log_softmax(head, hs, targets)
    loss_and_gradients(enc, head, batch)
    with pytest.raises(AssertionError, match="made a thread"):
        head_log_softmax(head, np.vstack([hs, hs[:1]]), targets + targets[:1])


def test_a_head_below_min_threaded_work_stays_on_the_callers_thread(monkeypatch):
    _, head = toy_model(32)
    hs = np.random.default_rng(2).normal(size=(BATCH, 32))
    targets = np.arange(BATCH)
    monkeypatch.setattr(model, "ThreadPoolExecutor", no_thread)
    monkeypatch.setattr(model, "MIN_THREADED_WORK", BATCH * head.projection.size + 1)
    head_log_softmax(head, hs, targets)
    monkeypatch.setattr(model, "MIN_THREADED_WORK", BATCH * head.projection.size)
    with pytest.raises(AssertionError, match="made a thread"):
        head_log_softmax(head, hs, targets)


class FailingRows:
    """Context vectors whose rows from `start` on raise when read (on whichever thread reads them)."""

    def __init__(self, hs, start):
        self.hs, self.start = hs, start

    def __len__(self):
        return len(self.hs)

    def __getitem__(self, rows):
        if rows.start == self.start:
            raise RuntimeError(f"rows from {self.start} failed")
        return self.hs[rows]


@pytest.mark.parametrize("start", [0, BATCH // 2], ids=["caller's half", "thread's half"])
def test_an_error_in_either_half_reaches_the_caller_and_the_next_call_succeeds(monkeypatch, job_threads, start):
    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)
    _, head = toy_model(32)
    hs = np.random.default_rng(3).normal(size=(BATCH, 32))
    targets = np.arange(BATCH)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match=f"rows from {start} failed"):
        head_log_softmax(head, FailingRows(hs, start), targets)
    assert threading.enumerate() == before
    want = one_thread_head(head, hs, targets)
    assert all(same_bits(got, w) for got, w in zip(head_log_softmax(head, hs, targets), want))


# ---------------------------------------------------------------- the threads of one call


def test_no_thread_outlives_head_log_softmax_or_adam_step(monkeypatch, job_threads):
    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)
    _, head = toy_model(32)
    rng = np.random.default_rng(4)
    hs = rng.normal(size=(BATCH, 32))
    before = threading.enumerate()
    head_log_softmax(head, hs, np.arange(BATCH))
    params = {"head.projection": rng.normal(size=(3 * (ADAM_BLOCK // 6), 6))}
    du = rng.normal(size=(4, len(params["head.projection"])))
    adam_step(params, {"head.projection": Factored(du, rng.normal(size=(4, 6)))}, AdamState.for_params(params))
    assert threading.enumerate() == before
    assert len(job_threads) == 3  # one half, then the second and third runs of the head
    assert threading.current_thread() not in job_threads
    assert not any(thread.is_alive() for thread in job_threads)


# ---------------------------------------------------------------- Adam's run made ahead

SHAPE = (4 * (ADAM_BLOCK // 6), 6)  # four runs of rows


def compact_gradient(form, rng, nan_row=None):
    """A compact gradient of every row of SHAPE, with a NaN in row nan_row."""
    if form == "rows":
        values = rng.normal(size=SHAPE)
        if nan_row is not None:
            values[nan_row, 1] = np.nan
        return SparseRows(np.arange(SHAPE[0]), values)
    du = rng.normal(scale=1e-2, size=(4, SHAPE[0]))
    if nan_row is not None:
        du[2, nan_row] = np.nan
    return Factored(du, rng.normal(size=(4, SHAPE[1])))


def dense(g):
    return g.values if isinstance(g, SparseRows) else g.du.T @ g.hs


@pytest.mark.parametrize("form", ["rows", "factored"])
@pytest.mark.parametrize("bad_run", [1, 3])
def test_nan_in_the_run_made_ahead_leaves_that_run_and_every_later_one_unchanged(job_threads, form, bad_run):
    rng = np.random.default_rng(5)
    per_run = ADAM_BLOCK // SHAPE[1]
    params = {"head.projection": rng.normal(size=SHAPE)}
    start = params["head.projection"].copy()
    state = AdamState.for_params(params)
    g = compact_gradient(form, rng, nan_row=bad_run * per_run + 7)
    with pytest.raises(TrainingError, match="head.projection"):
        adam_step(params, {"head.projection": g}, state)
    assert len(job_threads) == min(bad_run + 1, 3)  # each run after the first, up to the one after the bad one
    assert not any(thread.is_alive() for thread in job_threads)
    done = slice(0, bad_run * per_run)
    ref = {"head.projection": start[done].copy()}
    ref_state = AdamState.for_params(ref)
    adam_step(ref, {"head.projection": dense(g)[done]}, ref_state)
    assert same_bits(params["head.projection"][done], ref["head.projection"])
    assert same_bits(state.m["head.projection"][done], ref_state.m["head.projection"])
    rest = slice(bad_run * per_run, None)
    assert same_bits(params["head.projection"][rest], start[rest])
    assert not state.m["head.projection"][rest].any() and not state.v["head.projection"][rest].any()


def test_an_error_making_a_run_ahead_reaches_the_caller_after_the_run_before(job_threads):
    rng = np.random.default_rng(6)
    per_run = ADAM_BLOCK // SHAPE[1]
    g = compact_gradient("factored", rng)

    class FailingLater(Factored):
        def rows(self, at):
            if at[0] >= 2 * per_run:
                raise MemoryError("third run")
            return super().rows(at)

    params = {"head.projection": rng.normal(size=SHAPE)}
    start = params["head.projection"].copy()
    state = AdamState.for_params(params)
    with pytest.raises(MemoryError, match="third run"):
        adam_step(params, {"head.projection": FailingLater(*g)}, state)
    assert job_threads and threading.current_thread() not in job_threads
    assert not any(thread.is_alive() for thread in job_threads)
    done = 2 * per_run  # the first two runs were applied, the rest were not
    assert not np.array_equal(params["head.projection"][:done], start[:done])
    assert same_bits(params["head.projection"][done:], start[done:])
