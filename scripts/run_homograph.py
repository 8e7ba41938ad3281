#!/usr/bin/env python3
"""Pretrain on the synthetic homograph corpus and probe the learned ambiguity.

The ambiguous word translates one way in money contexts and another way in
river contexts; a model that reads context should pick the right target on
held-out sentences and put most probability mass on it.
"""

import argparse
import sys
import time

import numpy as np

from wicrep.model import context_vectors, head_distribution, predicted_labels
from wicrep.synthdata import (
    MONEY_SYNONYM,
    RIVER_SYNONYM,
    generate_homograph_data,
    prepare_homograph_task,
)
from wicrep.tasks import LexsubItem, lexsub_predict
from wicrep.train import TrainConfig, init_model, perplexity, save_checkpoint, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--data-seed", type=int, default=0)
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--d-h", type=int, default=32)
    ap.add_argument("--learning-rate", type=float, default=2e-3)
    ap.add_argument("--batch-size", type=int, default=128)
    ap.add_argument("--max-epochs", type=int, default=12)
    ap.add_argument("--patience", type=int, default=3)
    ap.add_argument("--out", default=None, help="optionally save the best checkpoint here")
    args = ap.parse_args()

    t0 = time.time()
    data = generate_homograph_data(seed=args.data_seed)
    task = prepare_homograph_task(data)
    print(f"{len(task.train_instances)} train instances, "
          f"{len(task.dev_amb_instances)} held-out ambiguous positions")

    cfg = TrainConfig(d=args.d, d_h=args.d_h, batch_size=args.batch_size,
                      learning_rate=args.learning_rate, max_epochs=args.max_epochs,
                      patience=args.patience, seed=args.seed)
    enc, head = init_model(cfg, len(task.src_vocab.words), len(task.tgt_vocab.words))
    ckpt, _ = train(enc, head, task.train_instances, task.dev_amb_instances, cfg,
                    src_vocab=task.src_vocab, tgt_vocab=task.tgt_vocab)

    dev = [(inst.source_ids, inst.position_t) for inst in task.dev_amb_instances]
    predicted = predicted_labels(ckpt.encoder, ckpt.head, dev)
    acc = float(np.mean(predicted == [inst.target_id for inst in task.dev_amb_instances]))
    ppl = perplexity(ckpt.encoder, ckpt.head, task.dev_amb_instances)
    print(f"held-out ambiguous accuracy {acc:.4f}")
    print(f"held-out ambiguous perplexity {ppl:.4f}")

    # qualitative probe: one money-sense dev sentence
    k = task.dev_senses.index("money")
    inst = task.dev_amb_instances[k]
    p = head_distribution(ckpt.head, context_vectors(ckpt.encoder, [dev[k]])[0])
    print(f"p(money translation | money context) = {p[task.money_target_id]:.4f}")
    print(f"p(river translation | money context) = {p[task.river_target_id]:.4f}")

    item = LexsubItem("probe", "bank", "n", inst.position_t,
                      [task.src_vocab.word(i) for i in inst.source_ids])
    guess = lexsub_predict(ckpt, item, [(MONEY_SYNONYM, 1), (RIVER_SYNONYM, 1)])
    print(f"substitution pick in the money context: {guess}")

    if args.out:
        save_checkpoint(args.out, ckpt)
        print(f"saved {args.out}")
    print(f"total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
