#!/usr/bin/env python3
"""Write a seeded model's outputs to an .npz file, or compare two such files.

    PYTHONPATH=src python3 scripts/output_digest.py --out run.npz --seed 7 [--d 32]
    python3 scripts/output_digest.py --compare a.npz b.npz

--out stores, as float64 arrays in a compressed .npz: batch_nll, the
context vectors of supersense windows, predicted_labels on those windows,
export log-probabilities, the vectors lexsub_predict compares, every
loss_and_gradients tensor, the parameters after two Adam updates on
the compact gradients that train() passes (loss_and_gradients(sparse=True)),
and the checkpoint parameters and history (update, train loss, dev
perplexity) of two short train() runs: one with a dev set, evaluated after
every update and stopped early, so the best snapshot is restored; one
without a dev set.
Running it against two source trees (through PYTHONPATH) with one seed and
comparing the files shows whether a change keeps every output. --d sets
d = d_h (default 300); BLAS picks other kernels at small widths, so a
change to the shapes of the products is best compared at d = 32 and 8 too.
--words sets the source vocabulary (default 3000; the target vocabulary is
two thirds of it). tests/test_golden.py compares the outputs of the current
tree against the ones committed in tests/golden/.
--compare prints, per array, whether it is bitwise equal and its largest
absolute difference, then a last line "N of M arrays bitwise equal"; it
exits 1 unless the files hold the same arrays, each bitwise equal.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

SRC_WORDS = 3000  # default source vocabulary; the target vocabulary is two thirds of it
TRAIN_BATCH = 128
WINDOW = 20


def zipf_ids(rng: np.random.Generator, vocab: int, n: int) -> list[int]:
    """n ids in 1..vocab-1 with p(i) proportional to 1/i, so common words open many sentences."""
    weights = 1.0 / np.arange(1, vocab)
    return [int(i) for i in rng.choice(np.arange(1, vocab), size=n, p=weights / weights.sum())]


def outputs(seed: int, d: int, src_words: int = SRC_WORDS) -> dict[str, np.ndarray]:
    from wicrep import tasks
    from wicrep.corpus import TranslationInstance, Vocabulary
    from wicrep.model import batch_nll, context_vectors, loss_and_gradients, param_items, predicted_labels
    from wicrep.train import AdamState, Checkpoint, TrainConfig, adam_step, init_model, train

    tgt_words = src_words * 2 // 3
    rng = np.random.default_rng(seed)
    src = Vocabulary([("<unk>", 0)] + [(f"s{i}", 1) for i in range(1, src_words)])
    tgt = Vocabulary([("<unk>", 0)] + [(f"t{i}", 1) for i in range(1, tgt_words)])
    enc, head = init_model(TrainConfig(d=d, d_h=d, seed=seed), src_words, tgt_words)
    ckpt = Checkpoint({}, src, enc, head, tgt_vocab=tgt)
    out: dict[str, np.ndarray] = {}

    sentences = [zipf_ids(rng, src_words, int(n)) for n in rng.integers(5, 41, size=2 * TRAIN_BATCH)]
    batch = []
    for ids in sentences:
        for pos in rng.choice(len(ids), size=int(rng.integers(1, 3)), replace=False):
            batch.append(TranslationInstance(ids, int(pos), int(rng.integers(0, tgt_words))))
    out["batch_nll"] = np.array(batch_nll(enc, head, batch))

    windows = []
    for n in (20, 30, 40, 32):
        ids = zipf_ids(rng, src_words, n)
        for pos in range(n):
            lo, hi = tasks.window_bounds(pos, n, WINDOW)
            windows.append((ids[lo:hi], pos - lo))
    out["context_vectors"] = context_vectors(enc, windows)
    out["predicted_labels"] = predicted_labels(enc, head, windows).astype(np.float64)

    queries = []  # target ids past the vocabulary are out-of-vocabulary words
    for ids in sentences[:60]:
        for pos in rng.choice(len(ids), size=3, replace=False):
            target = f"t{int(rng.integers(1, tgt_words + 50))}"
            queries.append(tasks.FeatureQuery([f"s{i}" for i in ids], int(pos), target))
    out["export_log_p"] = np.array([rec.log_p for rec in tasks.export_translation_features(ckpt, queries)])

    compared = []  # every pair of vectors lexsub_predict hands to cosine
    cosine = tasks.cosine
    tasks.cosine = lambda a, b: compared.append(np.hstack([a, b])) or cosine(a, b)
    try:
        for ids in sentences[:10]:
            item = tasks.LexsubItem("i", "w", "n", int(rng.integers(0, len(ids))), [f"s{i}" for i in ids])
            tasks.lexsub_predict(ckpt, item, [f"s{i}" for i in zipf_ids(rng, src_words, 10)] + ["oov"])
    finally:
        tasks.cosine = cosine
    out["lexsub_vectors"] = np.array(compared)

    loss, grads = loss_and_gradients(enc, head, batch[:TRAIN_BATCH])
    out["loss"] = np.array([loss])
    out.update((f"grad.{name}", g) for name, g in grads.items())

    params = dict(param_items(enc, head))
    state = AdamState.for_params(params)
    for start in (0, TRAIN_BATCH):
        _, grads = loss_and_gradients(enc, head, batch[start : start + TRAIN_BATCH], sparse=True)
        adam_step(params, grads, state)
    out.update((f"adam.{name}", p.copy()) for name, p in params.items())

    cfg = TrainConfig(d=d, d_h=d, batch_size=16, learning_rate=0.05, eval_every=1, patience=2, max_epochs=3,
                      seed=seed)
    for run, dev in (("dev", batch[64:96]), ("no_dev", [])):
        run_enc, run_head = init_model(cfg, src_words, tgt_words)
        trained, history = train(run_enc, run_head, batch[:64], dev, cfg, src_vocab=src, tgt_vocab=tgt,
                                 log=lambda line: None)
        out.update((f"train.{run}.{name}", p) for name, p in param_items(trained.encoder, trained.head))
        out[f"train.{run}.history"] = np.array([[r.update, r.train_loss, r.dev_ppl] for r in history])
    return out


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    names = sorted(a.keys() | b.keys())
    equal = 0
    for name in names:
        if name not in a or name not in b:
            print(f"{name}\tonly in {path_a if name in a else path_b}")
        elif a[name].shape != b[name].shape:
            print(f"{name}\tshapes {a[name].shape} and {b[name].shape}")
        else:
            bitwise = a[name].tobytes() == b[name].tobytes()
            diff = float(np.max(np.abs(a[name] - b[name]), initial=0.0))
            print(f"{name}\t{'bitwise equal' if bitwise else 'differs'}\tmax abs diff {diff:.3g}")
            equal += bitwise
    print(f"{equal} of {len(names)} arrays bitwise equal")
    return int(equal < len(names))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the outputs of one seeded model to this .npz file")
    mode.add_argument("--compare", nargs=2, metavar="NPZ", help="compare two files written by --out")
    parser.add_argument("--seed", type=int, default=0, help="model and data seed for --out")
    parser.add_argument("--d", type=int, default=300, help="embedding and hidden width d = d_h for --out")
    parser.add_argument("--words", type=int, default=SRC_WORDS,
                        help="source vocabulary size for --out; the target vocabulary is two thirds of it")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    np.savez_compressed(args.out, **outputs(args.seed, args.d, args.words))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
