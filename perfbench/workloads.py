"""The three seeded workloads: inputs, set-up, and one measured cycle.

Every workload runs the same five user-visible phases, so every end-to-end
metric is measured on every workload; the workloads differ in scale and in
which phase dominates:

* homograph-train: d = d_h = 32 on the synthetic homograph corpus. Training
  for 16 updates of batch 128 over a seeded 2,048-instance sample
  dominates; per-cell-step Python overhead in the recurrent scans is the
  cost.
* paper-train: d = d_h = 300, 30k-word source and target vocabularies.
  One update of batch 128 dominates; the 30k-way head and Adam over 29M
  parameters are the cost.
* transfer-infer: the paper-scale model saved to and loaded from
  checkpoints in set-up, then used as a read path by the three transfer
  tasks, which dominate. Its training phase is a short supersense
  fine-tune of the tagger (42 labels, no 30k head), its scoring phase the
  translation checkpoint's dev perplexity.

wicrep only ever sees the files written by ``write_inputs``. Sentence
lengths come from fixed per-workload multisets in seeded order, so every
seed costs the same amount of work while the tokens differ.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from wicrep import corpus, synthdata, tasks, train
from wicrep.model import param_items
from wicrep.train import Checkpoint, TrainConfig

WINDOW = 20  # supersense window, as in the paper and the CLI default
PAPER_VOCAB = 30_000
N_SUPERSENSE_LABELS = 41  # plus "O": 42 tagger labels


@dataclass
class Spec:
    """Sizes of one workload; everything else is derived from the seed."""

    name: str
    d: int
    learning_rate: float
    train_batch: int
    train_instances: int = 0  # instances per training operation
    # paper-scale generator only (homograph sizes come from synthdata)
    dev_instances: int = 0
    finetune_lengths: tuple[int, ...] = ()
    supersense_lengths: tuple[int, ...] = ()
    lexsub_lengths: tuple[int, ...] = ()
    export_lengths: tuple[int, ...] = ()


SPECS = {
    "homograph-train": Spec("homograph-train", d=32, learning_rate=2e-3, train_batch=128,
                            train_instances=2048),
    "paper-train": Spec("paper-train", d=300, learning_rate=1e-3, train_batch=128,
                        train_instances=128, dev_instances=128,
                        supersense_lengths=(20, 30, 40), lexsub_lengths=(20, 25, 30, 30, 35, 40),
                        export_lengths=tuple(range(11, 51, 2))),
    "transfer-infer": Spec("transfer-infer", d=300, learning_rate=1e-3, train_batch=32,
                           train_instances=32, dev_instances=64, finetune_lengths=(32,),
                           supersense_lengths=(20, 30, 40), lexsub_lengths=(20, 30, 30, 40),
                           export_lengths=tuple(range(11, 51, 3))),
}
QUERIES_PER_SENTENCE = 3
CANDIDATES_PER_ITEM = 10
HOMOGRAPH_LEXSUB_ITEMS = 60  # dev sentences of the homograph corpus used as lexsub items


@dataclass
class State:
    """Everything set-up produces; a cycle only reads it."""

    cfg: TrainConfig
    init_arrays: dict[str, np.ndarray]     # starting point of the training phase
    train_instances: list
    train_kwargs: dict                     # src_vocab plus tgt_vocab or labels
    dev_instances: list
    translation: Checkpoint | None         # None: use the checkpoint trained in the cycle
    tagger: Checkpoint | None              # None: tagger_head on the trained encoder
    tagger_head: object | None
    labels: list[str]
    supersense: tasks.SupersenseDataset
    lexsub_items: list
    candidates: dict
    queries: list
    counts: dict = field(default_factory=dict)


@dataclass
class CycleResult:
    """One measured cycle: phase wall times, work done, and outputs to check."""

    seconds: dict[str, float] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)
    trained: Checkpoint | None = None
    translation: Checkpoint | None = None
    tagger: Checkpoint | None = None
    dev_ppl: float = float("nan")
    scores: object = None
    picks: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    wall: float = 0.0

    def drop_models(self) -> None:
        """Release this cycle's models once a later cycle starts, so memory does not grow."""
        self.trained = self.translation = self.tagger = None


# ---------------------------------------------------------------------------
# input generation


def _write(path: Path, lines) -> Path:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


class Zipf:
    """Word ids 1..V-1 with p(i) proportional to 1/i; id 0 is the unknown word."""

    def __init__(self, rng: np.random.Generator, vocab: int):
        self.rng = rng
        weights = 1.0 / np.arange(1, vocab)
        self.cdf = np.cumsum(weights / weights.sum())
        self.cdf[-1] = 1.0

    def ids(self, n: int) -> np.ndarray:
        return np.searchsorted(self.cdf, self.rng.random(n), side="right") + 1


def _src_word(i: int) -> str:
    return f"s{i:05d}"


def _tgt_word(i: int) -> str:
    return f"t{i:05d}"


def _supersense_labels() -> list[str]:
    nouns = [f"noun.c{k:02d}" for k in range(26)]
    verbs = [f"verb.c{k:02d}" for k in range(N_SUPERSENSE_LABELS - 26)]
    return [tasks.OTHER_LABEL] + nouns + verbs


def _stratified_lengths(n: int, rng: np.random.Generator) -> list[int]:
    """n sentence lengths covering 11..50 evenly, in seeded order."""
    return [int(x) for x in rng.permutation(np.resize(np.arange(11, 51), n))]


def _write_parallel(directory: Path, split: str, n_instances: int, rng, src: Zipf, tgt: Zipf) -> None:
    """Aligned corpus whose intersected links give exactly n_instances instances.

    One sentence in eight carries two links, the rest one, so a batch holds
    mostly distinct sentences. Each direction adds a different bogus link,
    so only the intersection yields instances, as with real aligner output.
    """
    n_double = n_instances // 8
    n_sent = n_instances - n_double
    links_per = rng.permutation([2] * n_double + [1] * (n_sent - n_double))
    lines = {k: [] for k in ("src", "tgt", "s2t", "t2s")}
    for length, n_links in zip(_stratified_lengths(n_sent, rng), links_per):
        positions = rng.choice(length, size=int(n_links), replace=False)
        links = {(int(p), int(p)) for p in positions}
        a, b = (int(x) for x in rng.integers(0, length, size=2))
        s2t = links | {(a, (a + 1) % length)}
        t2s = links | {(b, (b + 2) % length)}
        lines["src"].append(" ".join(_src_word(i) for i in src.ids(length)))
        lines["tgt"].append(" ".join(_tgt_word(i) for i in tgt.ids(length)))
        lines["s2t"].append(" ".join(f"{i}-{j}" for i, j in sorted(s2t)))
        lines["t2s"].append(" ".join(f"{i}-{j}" for i, j in sorted(t2s)))
    for ext, rows in lines.items():
        _write(directory / f"{split}.{ext}", rows)


def _write_paper_inputs(spec: Spec, seed: int, directory: Path) -> None:
    rng = np.random.default_rng(seed)
    src, tgt = Zipf(rng, PAPER_VOCAB), Zipf(rng, PAPER_VOCAB)
    for name, word in (("src.vocab", _src_word), ("tgt.vocab", _tgt_word)):
        rows = [f"0\t{corpus.UNK_TOKEN}\t0"]
        rows += [f"{i}\t{word(i)}\t{1_000_000 // i}" for i in range(1, PAPER_VOCAB)]
        _write(directory / name, rows)
    if not spec.finetune_lengths:
        _write_parallel(directory, "train", spec.train_instances, rng, src, tgt)
    _write_parallel(directory, "dev", spec.dev_instances, rng, src, tgt)

    labels = _supersense_labels()

    def sst(lengths):
        blocks = []
        for length in rng.permutation(np.asarray(lengths, dtype=int)):
            tags = [labels[int(k)] if rng.random() < 0.4 else tasks.OTHER_LABEL
                    for k in rng.integers(1, len(labels), size=int(length))]
            blocks.append("\n".join(f"{_src_word(i)}\t{t}" for i, t in zip(src.ids(int(length)), tags)))
        return ["\n\n".join(blocks)] if blocks else []

    _write(directory / "finetune.sst", sst(spec.finetune_lengths))
    _write(directory / "eval.sst", sst(spec.supersense_lengths))

    items, table = [], {}
    for k, length in enumerate(rng.permutation(np.asarray(spec.lexsub_lengths, dtype=int))):
        ids = src.ids(int(length))
        pos = int(rng.integers(0, length))
        lemma = _src_word(int(ids[pos]))
        items.append(f"item{k}\t{lemma}.n\t{pos}\t{' '.join(_src_word(int(i)) for i in ids)}")
        if lemma not in table:
            cands = [c for c in dict.fromkeys(_src_word(int(i)) for i in src.ids(4 * CANDIDATES_PER_ITEM))
                     if c != lemma][:CANDIDATES_PER_ITEM]
            table[lemma] = [f"{lemma}\t{c}\t{CANDIDATES_PER_ITEM - r}" for r, c in enumerate(cands)]
    _write(directory / "lexsub.items", items)
    _write(directory / "lexsub.candidates", [row for rows in table.values() for row in rows])

    queries = []
    for length in rng.permutation(np.asarray(spec.export_lengths, dtype=int)):
        sentence = " ".join(_src_word(int(i)) for i in src.ids(int(length)))
        for pos in rng.choice(length, size=QUERIES_PER_SENTENCE, replace=False):
            queries.append(f"{sentence}\t{int(pos)}\t{_tgt_word(int(tgt.ids(1)[0]))}")
    _write(directory / "export.queries", queries)


def _write_homograph_inputs(seed: int, directory: Path) -> None:
    data = synthdata.generate_homograph_data(seed)
    synthdata.write_homograph_files(data, directory)
    paths = synthdata.write_supersense_files(data, directory)
    paths["dev.sst"].rename(directory / "eval.sst")
    rng = np.random.default_rng(seed)
    items = [f"item{k}\t{synthdata.AMBIGUOUS}.n\t{s.amb_position}\t{' '.join(s.source)}"
             for k, s in enumerate(data.dev[:HOMOGRAPH_LEXSUB_ITEMS])]
    _write(directory / "lexsub.items", items)
    fillers = sorted({tok for s in data.train for tok in s.source if tok.startswith("w")})
    cands = [synthdata.MONEY_SYNONYM, synthdata.RIVER_SYNONYM] + fillers[: CANDIDATES_PER_ITEM - 2]
    _write(directory / "lexsub.candidates",
           [f"{synthdata.AMBIGUOUS}\t{c}\t{CANDIDATES_PER_ITEM - r}" for r, c in enumerate(cands)])
    queries = []
    for s in data.dev:
        links = sorted(s.links)
        for k in rng.choice(len(links), size=min(QUERIES_PER_SENTENCE, len(links)),
                            replace=False):
            i, j = links[int(k)]
            queries.append(f"{' '.join(s.source)}\t{i}\t{s.target[j]}")
    _write(directory / "export.queries", queries)


def write_inputs(name: str, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    if name == "homograph-train":
        _write_homograph_inputs(seed, directory)
    else:
        _write_paper_inputs(SPECS[name], seed, directory)


# ---------------------------------------------------------------------------
# set-up


def _read_split(directory: Path, split: str):
    pairs = corpus.read_parallel_corpus(directory / f"{split}.src", directory / f"{split}.tgt")
    s2t = corpus.read_alignment_file(directory / f"{split}.s2t")
    t2s = corpus.read_alignment_file(directory / f"{split}.t2s")
    return pairs, [corpus.intersect_alignments(a, b) for a, b in zip(s2t, t2s)]


def _read_task_inputs(directory: Path):
    sst = tasks.parse_supersense_file((directory / "eval.sst").read_text(encoding="utf-8"))
    items = tasks.parse_lexsub_items((directory / "lexsub.items").read_text(encoding="utf-8"))
    table = tasks.load_candidate_table(directory / "lexsub.candidates")
    queries = tasks.parse_feature_queries((directory / "export.queries").read_text(encoding="utf-8"))
    return sst, items, table, queries


def setup(name: str, seed: int, directory: Path, ckpt_dir: Path, tr) -> State:
    """Read every input through wicrep and build the models; this is setup_s.

    transfer-infer saves its checkpoints into ckpt_dir, which should be new,
    as for a fresh training run: overwriting the files of the set-up just
    before measured about a fifth slower than writing new ones.
    """
    spec = SPECS[name]
    cfg = TrainConfig(d=spec.d, d_h=spec.d, batch_size=spec.train_batch,
                      learning_rate=spec.learning_rate, max_epochs=1, patience=10**6, seed=seed)
    with tr.span("corpus.prepare"):
        if name == "homograph-train":
            train_pairs, train_links = _read_split(directory, "train")
            dev_pairs, dev_links = _read_split(directory, "dev")
            everything = train_pairs + dev_pairs
            src_vocab = corpus.build_vocabulary(corpus.count_tokens(p.source for p in everything), cap=30_000)
            tgt_vocab = corpus.build_vocabulary(corpus.count_tokens(p.target for p in everything), cap=30_000)
            train_insts = corpus.extract_corpus_instances(train_pairs, train_links, src_vocab, tgt_vocab)
            n_extracted = len(train_insts)
            # a seeded sample, so batches mix sentences as a shuffled large corpus does
            keep = np.random.default_rng(seed).permutation(len(train_insts))[: spec.train_instances]
            train_insts = [train_insts[k] for k in sorted(keep)]
        else:
            src_vocab = corpus.Vocabulary.load_tsv(directory / "src.vocab")
            tgt_vocab = corpus.Vocabulary.load_tsv(directory / "tgt.vocab")
            dev_pairs, dev_links = _read_split(directory, "dev")
            train_insts = []
            if not spec.finetune_lengths:
                train_insts = corpus.extract_corpus_instances(*_read_split(directory, "train"),
                                                              src_vocab, tgt_vocab)
            n_extracted = len(train_insts)
        dev_insts = corpus.extract_corpus_instances(dev_pairs, dev_links, src_vocab, tgt_vocab)
    with tr.span("tasks.read_inputs"):
        sst, items, table, queries = _read_task_inputs(directory)

    if name == "homograph-train":
        labels = [tasks.OTHER_LABEL] + sst.observed_labels()
    else:
        labels = _supersense_labels()
    counts = {"corpus.instances": n_extracted + len(dev_insts)}

    if name != "transfer-infer":
        with tr.span("train.init_model"):
            enc, head = train.init_model(cfg, len(src_vocab), len(tgt_vocab))
        tagger_head = train.init_task_head(cfg, enc, len(labels), seed + 1)
        return State(cfg, dict(param_items(enc, head)), train_insts,
                     {"src_vocab": src_vocab, "tgt_vocab": tgt_vocab}, dev_insts,
                     None, None, tagger_head, labels, sst, items, table, queries, counts)

    tag_cfg = TrainConfig(d=spec.d, d_h=spec.d, seed=seed + 1)
    with tr.span("train.init_model"):
        enc, head = train.init_model(cfg, len(src_vocab), len(tgt_vocab))
        tag_enc, tag_head = train.init_model(tag_cfg, len(src_vocab), len(labels))
    ckpt_dir.mkdir(parents=True)
    paths = {"translation": ckpt_dir / "translation.ckpt", "tagger": ckpt_dir / "tagger.ckpt"}
    with tr.span("train.save_checkpoint"):
        train.save_checkpoint(paths["translation"], Checkpoint(
            {**asdict(cfg), "head_kind": "translation"}, src_vocab, enc, head, tgt_vocab=tgt_vocab))
        train.save_checkpoint(paths["tagger"], Checkpoint(
            {**asdict(tag_cfg), "head_kind": "labels"}, src_vocab, tag_enc, tag_head, labels=labels))
    del enc, head, tag_enc, tag_head
    with tr.span("train.load_checkpoint"):
        translation = train.load_checkpoint(paths["translation"])
        tagger = train.load_checkpoint(paths["tagger"])
    with tr.span("tasks.read_inputs"):
        ft_data = tasks.parse_supersense_file((directory / "finetune.sst").read_text(encoding="utf-8"))
        ft_insts = tasks.supersense_instances(ft_data, tagger.src_vocab, labels, WINDOW)
    counts["corpus.instances"] += len(ft_insts)
    return State(cfg, dict(param_items(tagger.encoder, tagger.head)), ft_insts,
                 {"src_vocab": tagger.src_vocab, "labels": labels}, dev_insts,
                 translation, tagger, None, labels, sst, items, table, queries, counts)


# ---------------------------------------------------------------------------
# one measured cycle


def cycle(st: State, tr, call: Callable) -> CycleResult:
    """Run the five phases once (one cycle).

    call(what, fn) runs fn() as one counted operation and returns (ok, result);
    module attributes are looked up inside fn so traced wrappers are seen.
    """
    res = CycleResult()
    clock = time.perf_counter
    rep_start = clock()

    enc, head = train.model_from_arrays({k: v.copy() for k, v in st.init_arrays.items()})
    t0 = clock()
    with tr.span("train.train", instances=len(st.train_instances)):
        ok, out = call("train.train", lambda: train.train(
            enc, head, st.train_instances, [], st.cfg, log=lambda line: None, **st.train_kwargs))
    res.seconds["train"] = clock() - t0
    res.work["train"] = len(st.train_instances)
    if ok:
        res.trained = out[0]
    translation = res.translation = st.translation or res.trained
    tagger = res.tagger = st.tagger
    if tagger is None and res.trained is not None:
        tagger = res.tagger = Checkpoint(res.trained.config, res.trained.src_vocab, res.trained.encoder,
                                         st.tagger_head, labels=st.labels)

    t0 = clock()
    ok, ppl = call("train.perplexity", lambda: train.perplexity(
        translation.encoder, translation.head, st.dev_instances))
    res.seconds["score"] = clock() - t0
    res.work["score"] = len(st.dev_instances)
    res.dev_ppl = ppl if ok else float("nan")

    t0 = clock()
    n_tokens = st.supersense.n_tokens()
    with tr.span("tasks.evaluate_supersense", tokens=n_tokens):
        _, res.scores = call("tasks.evaluate_supersense", lambda: tasks.evaluate_supersense(
            tagger, st.supersense, WINDOW))
    res.seconds["supersense"] = clock() - t0
    res.work["supersense"] = n_tokens

    t0 = clock()
    for item in st.lexsub_items:
        cands = st.candidates.get(item.lemma, [])
        with tr.span("tasks.lexsub_predict", candidates=len(cands)):
            ok, pick = call("tasks.lexsub_predict", lambda: tasks.lexsub_predict(translation, item, cands))
        if ok:
            res.picks[item.item_id] = pick
    res.seconds["lexsub"] = clock() - t0
    res.work["lexsub"] = len(st.lexsub_items)

    t0 = clock()
    with tr.span("tasks.export_translation_features", queries=len(st.queries)):
        ok, records = call("tasks.export_translation_features", lambda: tasks.export_translation_features(
            translation, st.queries))
    res.seconds["export"] = clock() - t0
    res.work["export"] = len(st.queries)
    res.records = records if ok else []
    res.wall = clock() - rep_start
    return res
