#!/usr/bin/env python3
"""Compare supersense fine-tuning from a pretrained start against random init.

The label of the ambiguous token is its sense, so the pretrained encoder
already carries the needed signal; fine-tuning should reach high accuracy
in fewer epochs than training from scratch.

Each run trains through train() for all --max-epochs epochs, without a dev
set; after each epoch its log callback measures the dev accuracy of the
model being trained, and the run reports the first epoch that reaches
--target-acc.
"""

import argparse
import sys
import tempfile

import numpy as np

from wicrep.corpus import read_text
from wicrep.model import param_items, predicted_labels
from wicrep.synthdata import generate_homograph_data, prepare_homograph_task, write_supersense_files
from wicrep.tasks import parse_supersense_file, supersense_instances
from wicrep.train import TrainConfig, init_model, init_task_head, model_from_arrays, train

LABELS = ["noun.money", "noun.river"]


def accuracy(enc, head, instances) -> float:
    predicted = predicted_labels(enc, head, [(inst.source_ids, inst.position_t) for inst in instances])
    return float(np.mean(predicted == [inst.target_id for inst in instances]))


def epochs_to_target(enc, head, train_insts, dev_insts, cfg, target_acc, src_vocab):
    """First epoch (1-based) whose post-epoch dev accuracy reaches the target, or cfg.max_epochs + 1."""
    accs = []
    train(enc, head, train_insts, [], cfg, src_vocab=src_vocab, labels=LABELS,
          log=lambda line: accs.append(accuracy(enc, head, dev_insts)))
    return next((epoch for epoch, acc in enumerate(accs, 1) if acc >= target_acc), cfg.max_epochs + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--d-h", type=int, default=32)
    ap.add_argument("--pretrain-epochs", type=int, default=10)
    ap.add_argument("--finetune-sentences", type=int, default=600)
    ap.add_argument("--max-epochs", type=int, default=15)
    ap.add_argument("--learning-rate", type=float, default=2e-3)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--target-acc", type=float, default=0.95)
    args = ap.parse_args()

    data = generate_homograph_data(seed=0)
    task = prepare_homograph_task(data)
    pre_cfg = TrainConfig(d=args.d, d_h=args.d_h, learning_rate=2e-3, batch_size=128,
                          max_epochs=args.pretrain_epochs, seed=1)
    enc, head = init_model(pre_cfg, len(task.src_vocab.words), len(task.tgt_vocab.words))
    pretrained, _ = train(enc, head, task.train_instances, task.dev_amb_instances, pre_cfg,
                          src_vocab=task.src_vocab, tgt_vocab=task.tgt_vocab,
                          log=lambda line: None)
    print("pretraining done")

    with tempfile.TemporaryDirectory() as tmp:
        trimmed = type(data)(train=data.train[: args.finetune_sentences], dev=data.dev)
        paths = write_supersense_files(trimmed, tmp)
        train_ds = read_text(paths["train.sst"], parse_supersense_file)
        dev_ds = read_text(paths["dev.sst"], parse_supersense_file)
    train_insts = supersense_instances(train_ds, task.src_vocab, LABELS, skip_unlabeled=True)
    dev_insts = supersense_instances(dev_ds, task.src_vocab, LABELS, skip_unlabeled=True)
    print(f"{len(train_insts)} fine-tune instances, {len(dev_insts)} dev tokens")

    wins = 0
    for seed in range(args.seeds):
        cfg = TrainConfig(d=args.d, d_h=args.d_h, batch_size=args.batch_size,
                          learning_rate=args.learning_rate, max_epochs=args.max_epochs, seed=100 + seed)

        arrays = {name: arr.copy() for name, arr in
                  param_items(pretrained.encoder, pretrained.head)}
        warm_enc, _ = model_from_arrays(arrays)
        warm_head = init_task_head(cfg, warm_enc, len(LABELS), seed=200 + seed)
        e_warm = epochs_to_target(warm_enc, warm_head, train_insts, dev_insts, cfg,
                                  args.target_acc, task.src_vocab)

        cold_enc, cold_head = init_model(cfg, len(task.src_vocab.words), len(LABELS))
        e_cold = epochs_to_target(cold_enc, cold_head, train_insts, dev_insts, cfg,
                                  args.target_acc, task.src_vocab)

        verdict = "pretrained" if e_warm < e_cold else ("tie" if e_warm == e_cold else "random")
        wins += e_warm <= e_cold
        print(f"seed {seed}: pretrained {e_warm} epochs, random {e_cold} epochs -> {verdict}")

    print(f"pretrained start no slower in {wins}/{args.seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
