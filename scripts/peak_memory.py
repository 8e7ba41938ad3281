#!/usr/bin/env python3
"""Print memory peaks, page faults and times of paper-scale training calls and a checkpoint round trip.

    PYTHONPATH=src python3 scripts/peak_memory.py [--seed 7] [--d 300]

It builds seeded models (d = d_h = --d, a source vocabulary of 30,000
words), one batch of 128 instances, one per sentence of 11-50
Zipf-distributed tokens, and the 32 windows of 20 tokens of one 32-token
sentence, and then measures, in this order:
- finetune: train() of a model with a 42-label head over the windows, in
  one update, as perfbench's transfer-infer fine-tunes. It runs first, in
  a fresh process as a fine-tune from the command line does, because the
  faults of a call depend on what the process allocated and freed before;
- loss_and_gradients(sparse=True) and adam_step on the batch, as train()
  calls them, with a 30,000-word target vocabulary as the head;
- train() for one epoch over the batch without a dev set;
- save_checkpoint and load_checkpoint of the checkpoint train() returns;
- train() of a fresh model for one epoch with a dev set of the batch's
  first 32 instances (train_dev), which takes and restores a best snapshot.

For each call it prints the memory live before it and the peak above that
during the call, in MB, as tracemalloc counts them: numpy arrays and Python
objects, not the allocator's retained pages, which resident set size
(perfbench's peak_rss_mb) also counts. Next to them it prints the call's
minor page faults (getrusage's ru_minflt: pages the process first touched,
including those of freshly mapped zero memory), its wall time in ms, which
tracing slows, and the CPU time in ms of all the process's threads
(time.process_time). A bidirectional encoder scans its two directions on two
threads, so the CPU time can exceed the wall time; the gain from the second
core shows there, not as less CPU work. The finetune.adam_step line gives the
faults and times of the adam_step calls inside finetune's train().
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

WORDS = 30_000  # source and target vocabulary size
BATCH = 128
TAGGER_LABELS, TAGGED_TOKENS, WINDOW = 42, 32, 20  # transfer-infer's fine-tune


def faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measured(name: str, fn):
    """fn()'s result, after printing the traced memory live before it, its peak above that, its faults,
    wall ms and CPU ms."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    start_faults, start, start_cpu = faults(), time.perf_counter(), time.process_time()
    out = fn()
    ms, cpu_ms = (time.perf_counter() - start) * 1e3, (time.process_time() - start_cpu) * 1e3
    n_faults = faults() - start_faults
    peak = tracemalloc.get_traced_memory()[1] - before
    print(f"{name}\t{before / 1e6:.1f}\t{peak / 1e6:.1f}\t{n_faults}\t{ms:.1f}\t{cpu_ms:.1f}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="model and data seed")
    parser.add_argument("--d", type=int, default=300, help="embedding and hidden width d = d_h")
    args = parser.parse_args(argv)

    import wicrep.train as train_mod
    from wicrep.corpus import TranslationInstance, Vocabulary
    from wicrep.model import loss_and_gradients, param_items
    from wicrep.tasks import window_bounds
    from wicrep.train import (AdamState, TrainConfig, adam_step, init_model, load_checkpoint, save_checkpoint,
                              train)

    rng = np.random.default_rng(args.seed)
    weights = 1.0 / np.arange(1, WORDS)
    batch = []
    for n in rng.integers(11, 51, size=BATCH):
        ids = rng.choice(np.arange(1, WORDS), size=int(n), p=weights / weights.sum())
        position, target = int(rng.integers(0, n)), int(rng.integers(0, WORDS))
        batch.append(TranslationInstance([int(i) for i in ids], position, target))
    vocab = Vocabulary([("<unk>", 0)] + [(f"w{i}", 1) for i in range(1, WORDS)])
    cfg = TrainConfig(d=args.d, d_h=args.d, batch_size=BATCH, max_epochs=1, seed=args.seed)
    sentence = [int(i) for i in rng.choice(np.arange(1, WORDS), size=TAGGED_TOKENS, p=weights / weights.sum())]
    windows = []
    for position in range(TAGGED_TOKENS):
        lo, hi = window_bounds(position, TAGGED_TOKENS, WINDOW)
        windows.append(TranslationInstance(sentence[lo:hi], position - lo, int(rng.integers(0, TAGGER_LABELS))))
    tagger_cfg = TrainConfig(d=args.d, d_h=args.d, batch_size=TAGGED_TOKENS, max_epochs=1, seed=args.seed)
    tagger_labels = [f"L{k}" for k in range(TAGGER_LABELS)]

    tracemalloc.start()
    print("call\tlive_before_mb\tpeak_above_mb\tminor_faults\tms\tcpu_ms")
    enc, head = init_model(tagger_cfg, WORDS, TAGGER_LABELS)
    in_adam = [0, 0.0, 0.0]  # faults, wall and CPU seconds of the adam_step calls inside finetune's train()

    def counted_adam_step(*step_args):
        start_faults, start, start_cpu = faults(), time.perf_counter(), time.process_time()
        out = adam_step(*step_args)
        in_adam[0] += faults() - start_faults
        in_adam[1] += time.perf_counter() - start
        in_adam[2] += time.process_time() - start_cpu
        return out

    train_mod.adam_step = counted_adam_step
    measured("finetune", lambda: train(enc, head, windows, [], tagger_cfg, src_vocab=vocab, labels=tagger_labels,
                                       log=lambda line: None))
    train_mod.adam_step = adam_step
    print(f"finetune.adam_step\t\t\t{in_adam[0]}\t{in_adam[1] * 1e3:.1f}\t{in_adam[2] * 1e3:.1f}", flush=True)
    del enc, head
    enc, head = init_model(cfg, WORDS, WORDS)
    _, grads = measured("loss_and_gradients", lambda: loss_and_gradients(enc, head, batch, sparse=True))
    params = dict(param_items(enc, head))
    state = AdamState.for_params(params)
    measured("adam_step", lambda: adam_step(params, grads, state))
    del grads, state
    ckpt, _ = measured("train", lambda: train(enc, head, batch, [], cfg, src_vocab=vocab, tgt_vocab=vocab,
                                              log=lambda line: None))
    del enc, head, params
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        measured("save_checkpoint", lambda: save_checkpoint(path, ckpt))
        del ckpt
        measured("load_checkpoint", lambda: load_checkpoint(path))
    enc, head = init_model(cfg, WORDS, WORDS)
    measured("train_dev", lambda: train(enc, head, batch, batch[: BATCH // 4], cfg, src_vocab=vocab,
                                        tgt_vocab=vocab, log=lambda line: None))
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
