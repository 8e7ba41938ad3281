"""The softmax head on two threads: its label halves and row halves, and Adam's next head-gradient run made ahead.

Above MIN_THREADED_WORK, the head's logits hs Wᵀ + b split into two label
halves at a multiple of LABEL_CUT labels at any row count, unless the
smaller half's rows x labels x W is at or under SMALL_KERNEL_WORK; where
they split, head_log_softmax's per-row part splits into row halves from 2
rows. The head's dL/dhs product splits into row halves from 2 *
MIN_PRODUCT_ROWS rows. Each half runs on the caller's thread or on a thread
made for the call. adam_step makes the next run of a compact gradient's rows
on a worker thread while the caller applies the current run. Every output
must keep the bits of one thread, an error in either half of any phase must
reach the caller, no thread may outlive the call, and a call below the gate
or the floor must make no thread. These models are small, so the tests lower
MIN_THREADED_WORK to 0 where they want the two-thread path.

The head splits its labels only where OpenBLAS runs one thread, as
--threads 1 sets: with more, BLAS partitions each product by its own shape,
so a label half need not round as the whole product's columns do. The tests
that assert the halves' bits against the whole product pin OpenBLAS to one
thread (one_blas_thread); those that count threads allow the split whatever
BLAS runs (label_halves).
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from wicrep import model
from wicrep.corpus import TranslationInstance
from wicrep.errors import TrainingError
from wicrep.model import (
    MIN_PRODUCT_ROWS,
    SMALL_KERNEL_WORK,
    Factored,
    SoftmaxHead,
    SparseRows,
    head_log_softmax,
    loss_and_gradients,
    predicted_labels,
    target_log_probs,
)
from wicrep.train import ADAM_BLOCK, AdamState, TrainConfig, adam_step, init_model

WORDS, LABELS = 40, 1000
BATCH = 2 * MIN_PRODUCT_ROWS  # the fewest rows whose dL/dhs is split


@pytest.fixture
def one_blas_thread():
    """OpenBLAS pinned to one thread for the test, the setting under which the head splits its labels.

    The bits asserted under this pin are those of one BLAS thread. Fails where /proc/self/maps names
    an OpenBLAS whose thread functions are not found, so that a change of BLAS build cannot leave
    the label halves untested; skips where no OpenBLAS is loaded, since the head then never splits
    its labels (test_the_workload_logits_keep_the_whole_products_bits_at_the_default_blas_threads).
    """
    get, put = model._openblas_function("get"), model._openblas_function("set")
    if get is None or put is None:
        maps = Path("/proc/self/maps")
        if maps.exists() and "openblas" in maps.read_text():
            pytest.fail("OpenBLAS is loaded, but its thread functions were not found")
        pytest.skip("the head splits its labels only where OpenBLAS runs one thread")
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@pytest.fixture
def label_halves(monkeypatch):
    """The head's label split allowed whatever BLAS runs, for tests that count threads or compare
    two calls of the same split rather than a split against the whole product."""
    monkeypatch.setattr(model, "_one_blas_thread", lambda: True)


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


def one_thread_logits(head, hs):
    """The logits hs Wᵀ + b as one whole-batch product, on the caller's thread."""
    z = hs @ head.projection.T
    z += head.bias
    return z


def one_thread_head(head, hs, targets):
    """(log p, P) of head_log_softmax as whole-batch expressions, on the caller's thread."""
    z = one_thread_logits(head, hs)
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


# ---------------------------------------------------------------- the head's halves


@pytest.mark.parametrize("width", [32, 64, 600])
def test_the_head_and_every_gradient_keep_the_bits_of_one_thread(monkeypatch, one_blas_thread, job_threads, width):
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
    assert len(job_threads) == 2  # the second label half, then the second row half
    assert threading.current_thread() not in job_threads
    got_log_p, got_p = target_log_probs(enc, head, instances, targets)
    assert same_bits(got_log_p, one_log_p) and same_bits(got_p, one_p)
    loss, grads = loss_and_gradients(enc, head, batch)
    assert loss == one_loss
    assert [name for name in one_grads if not same_bits(grads[name], one_grads[name])] == []


def test_fewer_than_twice_min_product_rows_split_the_labels_but_not_dhs(monkeypatch, label_halves, job_threads):
    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)
    enc, head = toy_model(32, forward_only=True)  # so the scans make no thread
    batch = toy_batch(seed=1, n=BATCH - 1)
    loss_and_gradients(enc, head, batch)
    assert len(job_threads) == 2  # the head's label and row halves
    loss_and_gradients(enc, head, batch + batch[:1])
    assert len(job_threads) == 2 + 3  # and dL/dhs's row halves


def test_a_head_below_min_threaded_work_stays_on_the_callers_thread(monkeypatch, label_halves):
    _, head = toy_model(32)
    hs = np.random.default_rng(2).normal(size=(BATCH, 32))
    targets = np.arange(BATCH)
    monkeypatch.setattr(model, "ThreadPoolExecutor", no_thread)
    monkeypatch.setattr(model, "MIN_THREADED_WORK", BATCH * head.projection.size + 1)
    head_log_softmax(head, hs, targets)
    monkeypatch.setattr(model, "MIN_THREADED_WORK", BATCH * head.projection.size)
    with pytest.raises(AssertionError, match="made a thread"):
        head_log_softmax(head, hs, targets)


@pytest.mark.parametrize("phase", [1, 2, 3], ids=["label halves", "row halves", "dhs row halves"])
@pytest.mark.parametrize("half", [0, 1], ids=["caller's half", "thread's half"])
def test_an_error_in_either_half_reaches_the_caller_and_the_next_call_succeeds(monkeypatch, label_halves,
                                                                               job_threads, phase, half):
    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)
    enc, head = toy_model(32, forward_only=True)  # so the head's phases are the only ones split
    batch = toy_batch(seed=3)
    want_loss, want_grads = loss_and_gradients(enc, head, batch)
    two_threads, calls = model._two_threads, []

    def failing_two_threads(*jobs):
        """_two_threads, with `half` of the phase-th call raising once it has run."""
        calls.append(jobs)
        if len(calls) == phase:
            job = jobs[half]

            def fail():
                job()
                raise RuntimeError(f"half {half} of phase {phase} failed")

            jobs = (fail, jobs[1]) if half == 0 else (jobs[0], fail)
        return two_threads(*jobs)

    monkeypatch.setattr(model, "_two_threads", failing_two_threads)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match=f"half {half} of phase {phase} failed"):
        loss_and_gradients(enc, head, batch)
    assert threading.enumerate() == before
    assert not any(thread.is_alive() for thread in job_threads)
    monkeypatch.setattr(model, "_two_threads", two_threads)
    loss, grads = loss_and_gradients(enc, head, batch)
    assert loss == want_loss
    assert [name for name in want_grads if not same_bits(grads[name], want_grads[name])] == []


SWEEP_ROWS = (1, 2, 3, 17, 64, 127, 128, 200)


@pytest.mark.parametrize("width", [16, 64, 600])
@pytest.mark.parametrize("labels", [42, 130, 1000, 1001, 4097, 30011])
def test_label_halves_keep_the_bits_of_the_whole_product_at_every_size(monkeypatch, one_blas_thread, job_threads,
                                                                       labels, width):
    """head_log_softmax and predicted_labels (over the given context vectors) against the one-thread formula;
    a call whose smaller label half, cut at the multiple of 64 nearest half the labels, is at or under
    SMALL_KERNEL_WORK must make no thread."""
    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)
    rng = np.random.default_rng(labels * width)
    head = SoftmaxHead(rng.normal(scale=0.1, size=(labels, width)), rng.normal(size=labels))
    cut = (labels + 64) // 128 * 64
    split = []
    for n in SWEEP_ROWS:
        hs = rng.normal(size=(n, width))
        targets = rng.integers(0, labels, size=n)
        want_log_p, want_p = one_thread_head(head, hs, targets)
        want_labels = np.argmax(one_thread_logits(head, hs), axis=1)
        monkeypatch.setattr(model, "_blocks", lambda enc, instances: iter([(slice(0, n), hs)]))
        jobs = len(job_threads)
        log_p, p = head_log_softmax(head, hs, targets)
        assert same_bits(log_p, want_log_p) and same_bits(p, want_p), n
        assert same_bits(predicted_labels(None, head, [None] * n), want_labels), n
        assert same_bits(model._logits(head, hs, model._label_cut(head, n)), one_thread_logits(head, hs)), n
        made = len(job_threads) - jobs
        if n * min(cut, labels - cut) * width <= SMALL_KERNEL_WORK:
            assert made == 0, n
        else:
            split.append(n)
            assert made == (2 if n > 1 else 1) + 1 + 1, n  # head_log_softmax's label and row halves, then the others'
    assert not any(thread.is_alive() for thread in job_threads)
    assert split == [n for n in SWEEP_ROWS if n * min(cut, labels - cut) * width > SMALL_KERNEL_WORK]


@pytest.mark.parametrize("rows", [64, 128])
def test_the_workload_logits_keep_the_whole_products_bits_at_the_default_blas_threads(job_threads, rows):
    """At the paper's 30,000 labels and W = 600, at whatever BLAS threads the host runs (no pin), as
    ppl and export-features read them: the halves are made only where BLAS runs one thread."""
    rng = np.random.default_rng(rows)
    head = SoftmaxHead(rng.normal(scale=0.1, size=(30_000, 600)), rng.normal(size=30_000))
    hs = rng.normal(size=(rows, 600))
    targets = rng.integers(0, 30_000, size=rows)
    want_log_p, want_p = one_thread_head(head, hs, targets)
    log_p, p = head_log_softmax(head, hs, targets)
    assert same_bits(log_p, want_log_p) and same_bits(p, want_p)
    assert len(job_threads) == (2 if model._one_blas_thread() else 0)


@pytest.mark.parametrize("threads, split", [(None, False), (1, True), (2, False)], ids=["no OpenBLAS", "1", "2"])
def test_the_labels_split_only_where_openblas_runs_one_thread(monkeypatch, job_threads, threads, split):
    monkeypatch.setattr(model, "MIN_THREADED_WORK", 0)
    monkeypatch.setattr(model, "_openblas_function", lambda verb: None if threads is None else lambda: threads)
    head = SoftmaxHead(np.ones((1000, 600)), np.zeros(1000))
    assert model._label_cut(head, 128) == (512 if split else 0)
    head_log_softmax(head, np.ones((128, 600)), np.zeros(128, dtype=int))
    assert len(job_threads) == (2 if split else 0)


# ---------------------------------------------------------------- the threads of one call


def test_no_thread_outlives_head_log_softmax_or_adam_step(monkeypatch, label_halves, job_threads):
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
    assert len(job_threads) == 4  # a label half and a row half, then the second and third runs of the head
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
