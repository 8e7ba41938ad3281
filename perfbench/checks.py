"""Output checks and the operation ledger behind ``attempted`` and ``failed``.

Every call into wicrep that the benchmark makes, timed or not, and every
check runs through Ledger.call: an exception is caught there, its traceback
printed to the error stream, and the operation counted as failed. Checks
compare sampled outputs against an independent recomputation: encodes from
``lstm_step`` (the repository's per-step reference cell) and probabilities
from a numpy log-softmax, within 1e-9.
"""

from __future__ import annotations

import math
import os
import sys
import traceback
from typing import Callable

import numpy as np

from wicrep import model, tasks

TOLERANCE = 1e-9


class CheckFailed(Exception):
    pass


class Ledger:
    """Counts operations attempted and failed; the base of failed_frac is attempted."""

    def __init__(self, stream=sys.stderr):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stream = stream

    def call(self, what: str, fn: Callable[[], object]) -> tuple[bool, object]:
        self.attempted += 1
        try:
            return True, fn()
        except Exception:  # the benchmark must finish and report the failure
            self.failed += 1
            self.failures.append(what)
            print(f"perfbench: operation {what} failed\n{traceback.format_exc()}", file=self.stream)
            return False, None

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# oracles


def oracle_encode(enc: model.BiLstmEncoder, ids) -> np.ndarray:
    """Context vectors from lstm_step, one step at a time, both directions."""
    xs = enc.embeddings[np.asarray(ids, dtype=np.intp)]

    def run(params, seq):
        h = np.zeros(params.hidden_size)
        c = np.zeros(params.hidden_size)
        out = []
        for x in seq:
            h, c = model.lstm_step(params, x, h, c)
            out.append(h)
        return np.array(out)

    fwd = run(enc.forward, xs)
    if enc.backward is None:
        return fwd
    return np.hstack([fwd, run(enc.backward, xs[::-1])[::-1]])


def oracle_log_probs(head: model.SoftmaxHead, h: np.ndarray) -> np.ndarray:
    z = head.projection @ h + head.bias
    top = z.max()
    return z - (top + math.log(np.exp(z - top).sum()))


def _close(what: str, got, want) -> None:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    if not err <= TOLERANCE:
        raise CheckFailed(f"{what}: max abs error {err:.3e} > {TOLERANCE}")


def _window(pos: int, length: int, window: int) -> tuple[int, int]:
    half = window // 2
    return max(0, pos - half), min(length, pos + half + 1)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return 0.0 if na == 0.0 or nb == 0.0 else float(a @ b / (na * nb))


# ---------------------------------------------------------------------------
# checks: each returns None or raises


def check_encodes(enc, sentences) -> None:
    for ids in sentences:
        _close("encode_bidirectional", model.encode_bidirectional(enc, ids), oracle_encode(enc, ids))


def check_nll(enc, head, instances) -> None:
    got = model.batch_nll(enc, head, instances)
    want = [-oracle_log_probs(head, oracle_encode(enc, inst.source_ids)[inst.position_t])[inst.target_id]
            for inst in instances]
    _close("batch_nll", got, want)


def check_export(ckpt, queries, records) -> None:
    if len(records) != len(queries):
        raise CheckFailed(f"export: {len(records)} records for {len(queries)} queries")
    for q, rec in zip(queries, records):
        ids = [ckpt.src_vocab.id(tok) for tok in q.sentence]
        logp = oracle_log_probs(ckpt.head, oracle_encode(ckpt.encoder, ids)[q.position])
        want = logp[ckpt.tgt_vocab.id(q.target_word)]
        _close("export p", rec.p, math.exp(want))
        _close("export log_p", rec.log_p, want)
        if rec.oov != (q.target_word not in ckpt.tgt_vocab.id_of):
            raise CheckFailed(f"export: wrong oov flag for {q.target_word!r}")


def check_lexsub(ckpt, item, candidates, pick) -> None:
    """The pick must score within tolerance of the oracle's best candidate."""
    ids = [ckpt.src_vocab.id(tok) for tok in item.sentence]
    h0 = oracle_encode(ckpt.encoder, ids)[item.position]
    sims = {}
    for cand, _ in candidates:
        sub = list(ids)
        sub[item.position] = ckpt.src_vocab.id(cand)
        sims[cand] = _cosine(h0, oracle_encode(ckpt.encoder, sub)[item.position])
    if pick not in sims:
        raise CheckFailed(f"lexsub item {item.item_id}: pick {pick!r} is not a candidate")
    if sims[pick] < max(sims.values()) - TOLERANCE:
        raise CheckFailed(f"lexsub item {item.item_id}: picked {pick!r} ({sims[pick]:.12f}), "
                          f"oracle best {max(sims.values()):.12f}")


def check_tags(ckpt, tokens, window: int) -> None:
    labels = ckpt.label_names()
    ids = [ckpt.src_vocab.id(tok) for tok in tokens]
    want = []
    for pos in range(len(ids)):
        lo, hi = _window(pos, len(ids), window)
        want.append(labels[int(np.argmax(oracle_log_probs(
            ckpt.head, oracle_encode(ckpt.encoder, ids[lo:hi])[pos - lo])))])
    got = tasks.predict_tags(ckpt, tokens, window)
    if got != want:
        raise CheckFailed(f"predict_tags disagrees with the oracle: {got} vs {want}")


def check_scores(scores, dataset) -> None:
    gold = sum(1 for sent in dataset.sentences for _, lab in sent if lab != tasks.OTHER_LABEL)
    if sum(c.support for c in scores.per_class) != gold:
        raise CheckFailed("supersense: class supports do not add up to the gold token count")
    for value in (scores.precision, scores.recall, scores.f1, scores.accuracy):
        if not 0.0 <= value <= 1.0:
            raise CheckFailed(f"supersense: score {value} outside [0, 1]")


def check_finite(ckpt, dev_ppls) -> None:
    for name, arr in model.param_items(ckpt.encoder, ckpt.head):
        if not np.all(np.isfinite(arr)):
            raise CheckFailed(f"trained tensor {name} is not finite")
    if not all(math.isfinite(p) and p >= 1.0 for p in dev_ppls):
        raise CheckFailed(f"dev perplexity {dev_ppls} is not a finite value >= 1")
    if len(set(dev_ppls)) != 1:
        raise CheckFailed(f"dev perplexity differs between repetitions: {dev_ppls}")


def check_threads(thread_vars, threads: int, blas_threads: int | None) -> None:
    """Every variable is set to threads, and OpenBLAS reports that many (None: none found)."""
    unpinned = {v: os.environ.get(v) for v in thread_vars if os.environ.get(v) != str(threads)}
    if unpinned:
        raise CheckFailed(f"thread variables not pinned to {threads}: {unpinned}")
    if blas_threads != threads:
        raise CheckFailed(f"BLAS runs {blas_threads} threads, not {threads} "
                          "(None: no OpenBLAS found among the loaded libraries)")


def check_gradients(seed: int) -> None:
    from wicrep.gradcheck import gradient_check

    result = gradient_check(seed, d=4, d_h=4, vocab_size=8, n_labels=6, sentence_len=5, batch=3)
    if not result.passed:
        raise CheckFailed(f"gradient check failed: {result}")
