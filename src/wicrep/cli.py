"""Command-line entry point.

Heavy imports happen inside the command handlers so --threads can pin the
BLAS thread pools before numpy loads; with --threads 1 training is bitwise
reproducible. Results and training logs go to standard output, the resolved
configuration and diagnostics to the error stream.
"""

from __future__ import annotations

import argparse
import os
import sys

from .corpus import parse_rows, read_text, split_lines
from .errors import CheckpointCorruptError, CheckpointFormatError, DataError, TrainingError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_threads(n: int | None) -> None:
    if n is None:
        return
    if "numpy" in sys.modules:
        # Pools are already sized; env changes would silently do nothing.
        print("# warning: numpy already imported, --threads may not take effect",
              file=sys.stderr)
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _coerce(action: argparse.Action, key: str, value: str):
    if isinstance(action.default, bool):
        low = value.lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise DataError(f"config key {key!r} expects a boolean, got {value!r}")
    if action.type is not None:
        try:
            value = action.type(value)
        except (TypeError, ValueError) as exc:
            raise DataError(f"config key {key!r}: bad value {value!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise DataError(f"config key {key!r}: bad value {value!r}, expected one of "
                        + ", ".join(map(repr, action.choices)))
    return value


def _parse_config(text: str, subparser: argparse.ArgumentParser, command: str) -> dict:
    """{flag dest: value} of key = value lines; lines starting with # are comments, and a flag appears once
    (min-count and min_count are one flag).

    Each line is checked as it is read, so an error names its line: the key
    must be a flag of the command (other than --help and --config), and the
    value must take the flag's type and be one of its choices.
    """
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}

    def entry(key, *value):
        if not value:
            raise DataError(f"expected key=value, got {key!r}")
        key, value = key.strip(), "=".join(value).strip()
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise DataError(f"unknown config key {key!r} for command {command!r}")
        return action.dest, _coerce(action, key, value)

    # A comment is blanked, not dropped, so every line keeps its number.
    text = "\n".join("" if line.lstrip().startswith("#") else line for line in split_lines(text))
    rows = parse_rows(text, entry, key="config key {key!r} repeats line {first}", sep="=")
    return dict(rows.values())


def _merge_config(parser, subparser, argv, args):
    """Re-parse argv with config-file values as defaults; explicit flags win."""
    subparser.set_defaults(**read_text(args.config, lambda text: _parse_config(text, subparser, args.command)))
    return parser.parse_args(argv)


def _echo_config(args) -> None:
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        print(f"# {key} = {value}", file=sys.stderr)


# ---------------------------------------------------------------------------
# command handlers


def cmd_vocab(args) -> int:
    from .corpus import build_vocabulary, count_tokens, read_token_lines

    sentences = read_token_lines(args.input)
    vocab = build_vocabulary(count_tokens(sentences), cap=args.cap,
                             drop_top_k=args.drop_top, min_count=args.min_count)
    vocab.save_tsv(args.output)
    print(f"{len(vocab.words)} entries -> {args.output}")
    return 0


def _read_aligned_corpus(args):
    """Sentence pairs and their intersected alignments, one alignment line per pair.

    Each link of both direction files is checked against its pair, before the intersection or --min-len drop any.
    """
    from .corpus import intersect_alignments, read_alignment_file, read_parallel_corpus

    pairs = read_parallel_corpus(args.source, args.target)
    directions = []
    for path in (args.s2t, args.t2s):
        links = read_alignment_file(path)
        if len(links) != len(pairs):
            raise DataError(f"{path} has {len(links)} alignment lines for {len(pairs)} sentence pairs")
        for lineno, (pair, line) in enumerate(zip(pairs, links), 1):
            bad = sorted((i, j) for i, j in line if i >= len(pair.source) or j >= len(pair.target))
            if bad:
                raise DataError(f"{path}: line {lineno}: link {bad[0][0]}-{bad[0][1]} outside sentence pair "
                                f"of {len(pair.source)} and {len(pair.target)} tokens")
        directions.append(links)
    return pairs, [intersect_alignments(a, b) for a, b in zip(*directions)]


def cmd_extract(args) -> int:
    from .corpus import Vocabulary, extract_corpus_instances, save_instances

    pairs, merged = _read_aligned_corpus(args)
    instances = extract_corpus_instances(
        pairs, merged,
        Vocabulary.load_tsv(args.src_vocab), Vocabulary.load_tsv(args.tgt_vocab),
        min_len=args.min_len,
    )
    save_instances(args.output, instances)
    print(f"{len(instances)} instances -> {args.output}")
    return 0


def _train_config(args, d: int, d_h: int, peephole: str = "full", forward_only: bool = False):
    from .train import TrainConfig

    return TrainConfig(
        d=d, d_h=d_h,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        beta1=args.beta1, beta2=args.beta2, adam_eps=args.adam_eps,
        eval_every=args.eval_every or None,
        patience=args.patience,
        max_epochs=args.max_epochs,
        seed=args.seed,
        peephole=peephole,
        forward_only=forward_only,
    )


def cmd_pretrain(args) -> int:
    from .corpus import Vocabulary, load_instances
    from .train import init_model, save_checkpoint, train

    src_vocab = Vocabulary.load_tsv(args.src_vocab)
    tgt_vocab = Vocabulary.load_tsv(args.tgt_vocab)
    train_instances = load_instances(args.instances)
    if not train_instances:
        raise DataError(f"{args.instances}: no training instances")
    dev_instances = load_instances(args.dev) if args.dev else []
    cfg = _train_config(args, args.d, args.d_h, args.peephole, args.forward_only)
    enc, head = init_model(cfg, len(src_vocab.words), len(tgt_vocab.words))
    ckpt, _history = train(enc, head, train_instances, dev_instances, cfg,
                           src_vocab=src_vocab, tgt_vocab=tgt_vocab)
    save_checkpoint(args.out, ckpt)
    print(f"saved {args.out}")
    return 0


def cmd_finetune_supersense(args) -> int:
    from .corpus import Vocabulary
    from .tasks import OTHER_LABEL, parse_supersense_file, supersense_instances
    from .train import init_model, init_task_head, load_checkpoint, save_checkpoint, train

    train_ds = read_text(args.train, parse_supersense_file)
    dev_ds = read_text(args.dev, parse_supersense_file)
    labels = train_ds.observed_labels()
    if not args.skip_unlabeled:
        labels.append(OTHER_LABEL)
    if not labels or not train_ds.n_tokens():  # each token is an instance, or each labeled one
        raise DataError(f"{args.train}: no {'labeled ' if args.skip_unlabeled else ''}tokens to train on")

    if args.checkpoint:
        base = load_checkpoint(args.checkpoint)
        enc = base.encoder
        src_vocab = base.src_vocab
        cfg = _train_config(args, enc.embed_dim, enc.output_dim // 2,
                            "diagonal" if enc.forward.diagonal_peepholes else "full", enc.backward is None)
        head = init_task_head(cfg, enc, len(labels), args.seed)
    else:
        if not args.src_vocab:
            raise DataError("random init needs --src-vocab (or pass --checkpoint)")
        src_vocab = Vocabulary.load_tsv(args.src_vocab)
        cfg = _train_config(args, args.d, args.d_h, args.peephole, args.forward_only)
        enc, head = init_model(cfg, len(src_vocab.words), len(labels))

    train_instances = supersense_instances(train_ds, src_vocab, labels, args.window,
                                           skip_unlabeled=args.skip_unlabeled)
    dev_instances = supersense_instances(dev_ds, src_vocab, labels, args.window,
                                         skip_unlabeled=args.skip_unlabeled)
    ckpt, _history = train(enc, head, train_instances, dev_instances, cfg,
                           src_vocab=src_vocab, labels=labels)
    save_checkpoint(args.out, ckpt)
    print(f"saved {args.out}")
    return 0


def cmd_eval_supersense(args) -> int:
    from .tasks import evaluate_supersense, parse_supersense_file
    from .train import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.labels is None:
        raise DataError(f"{args.checkpoint} has no task head (pretrain checkpoint?)")
    dataset = read_text(args.data, parse_supersense_file)
    scores = evaluate_supersense(ckpt, dataset, window=args.window)
    for c in scores.per_class:
        print(f"{c.label}\t{c.precision:.4f}\t{c.recall:.4f}\t{c.f1:.4f}\t{c.support}")
    print(f"accuracy\t{scores.accuracy:.4f}")
    print(f"aggregate\t{scores.precision:.4f}\t{scores.recall:.4f}\t{scores.f1:.4f}")
    return 0


def cmd_candidates(args) -> int:
    from .tasks import alignment_cooccurrence, build_candidate_table, save_candidate_table

    pairs, merged = _read_aligned_corpus(args)
    counts = alignment_cooccurrence(pairs, merged)
    targets = read_text(args.targets, str.split) if args.targets else None
    table = build_candidate_table(counts, args.threshold, targets)
    save_candidate_table(args.output, table)
    print(f"{len(table)} entries -> {args.output}")
    return 0


def cmd_lexsub(args) -> int:
    from .tasks import (
        lexsub_predict,
        lexsub_score,
        load_candidate_table,
        parse_lexsub_gold,
        parse_lexsub_items,
    )
    from .train import load_checkpoint

    items = read_text(args.items, parse_lexsub_items)
    table = load_candidate_table(args.candidates)

    if args.type_vectors:
        from .baselines import load_type_vectors, type_vector_predict

        vectors = load_type_vectors(args.type_vectors)
        def predict(item, cands):
            return type_vector_predict(vectors, item.lemma, cands)
    else:
        ckpt = load_checkpoint(args.checkpoint)
        def predict(item, cands):
            return lexsub_predict(ckpt, item, cands)

    predictions: dict[str, str] = {}
    for item in items:
        cands = table.get(item.lemma) or table.get(item.sentence[item.position])
        if not cands:
            print(f"# no candidates for item {item.item_id}, skipped", file=sys.stderr)
            continue
        predictions[item.item_id] = predict(item, cands)

    if args.predictions_out:
        with open(args.predictions_out, "w", encoding="utf-8") as fh:
            for item_id, guess in predictions.items():
                fh.write(f"{item_id}\t{guess}\n")
    if args.gold:
        gold = read_text(args.gold, parse_lexsub_gold)
        best, best_mode = lexsub_score(predictions, gold)
        print(f"best\t{best:.2f}")
        print(f"best-mode\t{best_mode:.2f}")
    else:
        print(f"{len(predictions)} predictions")
    return 0


def cmd_ppl(args) -> int:
    from .corpus import load_instances
    from .train import load_checkpoint, perplexity

    ckpt = load_checkpoint(args.checkpoint)
    instances = load_instances(args.data)
    if not instances:
        raise DataError(f"{args.data}: no instances")
    print(f"{perplexity(ckpt.encoder, ckpt.head, instances):.6f}")
    return 0


def cmd_export_features(args) -> int:
    from .tasks import export_translation_features, format_feature_records, parse_feature_queries
    from .train import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    queries = read_text(args.queries, parse_feature_queries)
    records = export_translation_features(ckpt, queries)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_feature_records(records))
    print(f"{len(records)} records -> {args.output}")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import gradient_check

    worst = 0.0
    ok = True
    for seed in range(args.seed, args.seed + args.seeds):
        r = gradient_check(
            seed, d=args.d, d_h=args.d_h, vocab_size=args.vocab_size,
            n_labels=args.n_labels, sentence_len=args.sentence_len, batch=args.batch,
            epsilon=args.epsilon, tolerance=args.tolerance,
            peephole=args.peephole, forward_only=args.forward_only,
        )
        print(f"seed {r.seed}\tmax_rel_error {r.max_rel_error:.3e}\t"
              f"worst {r.worst_tensor}\t{'PASS' if r.passed else 'FAIL'}")
        worst = max(worst, r.max_rel_error)
        ok = ok and r.passed
    print(f"overall max_rel_error {worst:.3e} {'PASS' if ok else 'FAIL'} "
          f"(tolerance {args.tolerance:g})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_train_flags(sp) -> None:
    sp.add_argument("--d", type=int, default=300, help="embedding width")
    sp.add_argument("--d-h", type=int, default=300, help="hidden units per direction")
    sp.add_argument("--peephole", choices=("full", "diagonal"), default="full")
    sp.add_argument("--forward-only", action="store_true",
                    help="single forward direction with doubled hidden size")
    sp.add_argument("--batch-size", type=int, default=128)
    sp.add_argument("--learning-rate", type=float, default=1e-3)
    sp.add_argument("--beta1", type=float, default=0.9)
    sp.add_argument("--beta2", type=float, default=0.999)
    sp.add_argument("--adam-eps", type=float, default=1e-8)
    sp.add_argument("--eval-every", type=int, default=0,
                    help="dev evals every N updates; 0 = once per epoch")
    sp.add_argument("--patience", type=int, default=3)
    sp.add_argument("--max-epochs", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file of defaults; flags win")
    common.add_argument("--threads", type=int, default=None,
                        help="pin BLAS thread pools (1 = bitwise-reproducible)")

    parser = argparse.ArgumentParser(prog="wicrep",
                                     description="word-in-context representations "
                                                 "from aligned translations")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(func=func)
        subparsers[name] = sp
        return sp

    sp = add("vocab", cmd_vocab, "build a vocabulary from tokenized text")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--cap", type=int, default=30_000)
    sp.add_argument("--drop-top", type=int, default=0,
                    help="drop the most frequent K types (target side)")
    sp.add_argument("--min-count", type=int, default=1)

    sp = add("extract", cmd_extract, "extract translation instances from a corpus")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--s2t", required=True, help="source-to-target Pharaoh alignments")
    sp.add_argument("--t2s", required=True, help="target-to-source Pharaoh alignments")
    sp.add_argument("--src-vocab", required=True)
    sp.add_argument("--tgt-vocab", required=True)
    sp.add_argument("--min-len", type=int, default=10,
                    help="keep sentences strictly longer than this")
    sp.add_argument("--output", required=True)

    sp = add("pretrain", cmd_pretrain, "train the lexical translation model")
    sp.add_argument("--instances", required=True)
    sp.add_argument("--dev", default=None)
    sp.add_argument("--src-vocab", required=True)
    sp.add_argument("--tgt-vocab", required=True)
    sp.add_argument("--out", required=True)
    _add_train_flags(sp)

    sp = add("finetune-supersense", cmd_finetune_supersense,
             "fine-tune a checkpoint on supersense-labeled tokens")
    sp.add_argument("--checkpoint", default=None, help="pretrained start (omit for random init)")
    sp.add_argument("--src-vocab", default=None, help="needed for random init")
    sp.add_argument("--train", required=True)
    sp.add_argument("--dev", required=True)
    sp.add_argument("--window", type=int, default=20)
    sp.add_argument("--skip-unlabeled", action="store_true",
                    help="train on gold-labeled tokens only (no O class)")
    sp.add_argument("--out", required=True)
    _add_train_flags(sp)

    sp = add("eval-supersense", cmd_eval_supersense, "score a fine-tuned tagger")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--window", type=int, default=20)

    sp = add("candidates", cmd_candidates, "alignment-based substitution candidates")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--s2t", required=True)
    sp.add_argument("--t2s", required=True)
    sp.add_argument("--threshold", type=float, default=0.9, help="cumulative mass cutoff")
    sp.add_argument("--targets", default=None, help="restrict to words listed in this file")
    sp.add_argument("--output", required=True)

    sp = add("lexsub", cmd_lexsub, "predict and score lexical substitutions")
    scorer = sp.add_mutually_exclusive_group(required=True)
    scorer.add_argument("--checkpoint", default=None)
    scorer.add_argument("--type-vectors", default=None,
                        help="score with the context-insensitive embedding baseline")
    sp.add_argument("--items", required=True)
    sp.add_argument("--gold", default=None)
    sp.add_argument("--candidates", required=True)
    sp.add_argument("--predictions-out", default=None)

    sp = add("ppl", cmd_ppl, "perplexity of a checkpoint on instances")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)

    sp = add("export-features", cmd_export_features, "translation probability features")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--output", required=True)

    sp = add("gradcheck", cmd_gradcheck, "finite-difference gradient verification")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    sp.add_argument("--d", type=int, default=8)
    sp.add_argument("--d-h", type=int, default=8)
    sp.add_argument("--vocab-size", type=int, default=12)
    sp.add_argument("--n-labels", type=int, default=20)
    sp.add_argument("--sentence-len", type=int, default=6)
    sp.add_argument("--batch", type=int, default=4)
    sp.add_argument("--epsilon", type=float, default=1e-4)
    sp.add_argument("--tolerance", type=float, default=1e-4)
    sp.add_argument("--peephole", choices=("full", "diagonal"), default="full")
    sp.add_argument("--forward-only", action="store_true")

    return parser, subparsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _merge_config(parser, subparsers[args.command], argv, args)
        _apply_threads(args.threads)
        _echo_config(args)
        return args.func(args)
    except (TrainingError, CheckpointFormatError, CheckpointCorruptError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
