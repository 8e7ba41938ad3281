#!/usr/bin/env python3
"""Print the traced memory peaks of one paper-scale update and a checkpoint round trip.

    PYTHONPATH=src python3 scripts/peak_memory.py [--seed 7] [--d 300]

It builds a seeded model (d = d_h = --d, source and target vocabularies of
30,000 words) and one batch of 128 instances, one per sentence of 11-50
Zipf-distributed tokens, and then measures, in this order:
loss_and_gradients(sparse=True) and adam_step on that batch, as train()
calls them; train() for one epoch over the batch without a dev set;
save_checkpoint and load_checkpoint of the checkpoint train() returns; and
train() of a fresh model for one epoch with a dev set of the batch's first
32 instances (train_dev), which takes and restores a best snapshot.

For each call it prints the memory live before it and the peak above that
during the call, in MB, as tracemalloc counts them: numpy arrays and Python
objects, not the allocator's retained pages, which resident set size
(perfbench's peak_rss_mb) also counts.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

WORDS = 30_000  # source and target vocabulary size
BATCH = 128


def measured(name: str, fn):
    """fn()'s result, after printing the traced memory live before it and its peak above that."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = fn()
    peak = tracemalloc.get_traced_memory()[1] - before
    print(f"{name}\t{before / 1e6:.1f}\t{peak / 1e6:.1f}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="model and data seed")
    parser.add_argument("--d", type=int, default=300, help="embedding and hidden width d = d_h")
    args = parser.parse_args(argv)

    from wicrep.corpus import TranslationInstance, Vocabulary
    from wicrep.model import loss_and_gradients, param_items
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

    tracemalloc.start()
    enc, head = init_model(cfg, WORDS, WORDS)
    print("call\tlive_before_mb\tpeak_above_mb")
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
