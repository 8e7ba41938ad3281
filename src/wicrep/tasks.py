"""Transfer tasks: supersense tagging, lexical substitution, feature export.

Supersense tagging classifies each token from the context vector of its
position inside a clipped window. Lexical substitution ranks candidate
replacements by the cosine between the original context vector and the
vector obtained after substituting the candidate and re-encoding.
Candidate lists come from alignment co-occurrence counts via a pivot
language. Feature export emits translation probabilities for external
systems.

All three read through the batched path of wicrep.model (context_vectors,
predicted_labels and target_log_probs), which scans windows, substituted
sentences and queries a block at a time, each shared prefix once, and
rejects ids outside the model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import AlignmentSet, ParallelSentencePair, TranslationInstance, Vocabulary, parse_rows, read_text
from .errors import DataError, ScoringError
from .model import check_ids, context_vectors, predicted_labels, target_log_probs
# Not called here: perfbench's tracer wraps wicrep.tasks.encode_bidirectional and head_distribution.
from .model import encode_bidirectional, head_distribution  # noqa: F401
from .numkit import cosine
from .train import Checkpoint

OTHER_LABEL = "O"


# ---------------------------------------------------------------------------
# supersense tagging


@dataclass
class SupersenseDataset:
    """Sentences of (token, label) pairs; O marks tokens without a supersense."""

    sentences: list[list[tuple[str, str]]]

    def observed_labels(self) -> list[str]:
        seen = {label for sent in self.sentences for _, label in sent}
        seen.discard(OTHER_LABEL)
        return sorted(seen)

    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


_SUPERSENSE_ROW = "expected 'token<TAB>label', got {line!r}"


def parse_supersense_file(text: str) -> SupersenseDataset:
    """token TAB label lines, blank line between sentences.

    A token listed with several senses ("a|b") keeps only the first.
    """
    def token_label(token, label):
        if not token:
            raise DataError(_SUPERSENSE_ROW.format(line=f"\t{label}"))
        label = label.split("|")[0]
        if not label:
            raise DataError("empty label")
        return token, label

    sentences: list[list[tuple[str, str]]] = []
    previous = None
    for lineno, pair in parse_rows(text, token_label, 2, _SUPERSENSE_ROW).items():
        if lineno - 1 != previous:  # the first row, or a blank line before it, starts a sentence
            sentences.append([])
        sentences[-1].append(pair)
        previous = lineno
    return SupersenseDataset(sentences)


def window_bounds(position: int, length: int, window: int) -> tuple[int, int]:
    """Half the window on each side, clipped at the sentence edges; a negative window raises ValueError."""
    if window < 0:
        raise ValueError(f"supersense window {window} is negative")
    half = window // 2
    return max(0, position - half), min(length, position + half + 1)


def _windows(ids: Sequence[int], window: int):
    """(window ids, position inside the window) of each position of ids, in order."""
    for pos in range(len(ids)):
        lo, hi = window_bounds(pos, len(ids), window)
        yield ids[lo:hi], pos - lo


def supersense_instances(
    dataset: SupersenseDataset,
    src_vocab: Vocabulary,
    labels: Sequence[str],
    window: int = 20,
    skip_unlabeled: bool = False,
) -> list[TranslationInstance]:
    """One windowed classification instance per token (per labeled token when
    skip_unlabeled is set). target_id indexes into labels."""
    label_id = {lab: k for k, lab in enumerate(labels)}
    out = []
    for sent in dataset.sentences:
        for (_, gold), (win, pos) in zip(sent, _windows([src_vocab.id(tok) for tok, _ in sent], window)):
            if skip_unlabeled and gold == OTHER_LABEL:
                continue
            if gold not in label_id:
                raise DataError(f"label {gold!r} outside inventory {sorted(label_id)}")
            out.append(TranslationInstance(win, pos, label_id[gold]))
    return out


@dataclass
class ClassScore:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class SupersenseScores:
    per_class: list[ClassScore]  # gold non-O classes, sorted by label
    precision: float             # support-weighted aggregates over those classes
    recall: float
    f1: float
    accuracy: float              # fraction of gold non-O tokens predicted exactly


def _prf(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def predict_tags(ckpt: Checkpoint, tokens: Sequence[str], window: int = 20) -> list[str]:
    """Predicted label per token: the argmax of the logits at its clipped window."""
    return _tag_tokens(ckpt, [tokens], window)


def _tag_tokens(ckpt: Checkpoint, sentences: Sequence[Sequence[str]], window: int) -> list[str]:
    """Tags of every token of every sentence, in order, from one batched pass over
    all their windows; repeated windows within a block are scanned once."""
    windows = [w for tokens in sentences for w in _windows([ckpt.src_vocab.id(tok) for tok in tokens], window)]
    labels = ckpt.label_names()
    return [labels[k] for k in predicted_labels(ckpt.encoder, ckpt.head, windows)]


def aggregate_scores(
    pairs: Iterable[tuple[str, str]],
    known_labels: Sequence[str],
) -> SupersenseScores:
    """Score (gold, predicted) label pairs: per-class and support-weighted P/R/F1.

    O never counts as a class of its own; gold labels outside the known
    inventory are a data error.
    """
    known = set(known_labels) | {OTHER_LABEL}
    tp: Counter = Counter()
    n_pred: Counter = Counter()
    n_gold: Counter = Counter()
    correct = 0
    for gold, pred in pairs:
        if gold not in known:
            raise DataError(f"gold label {gold!r} outside inventory {sorted(known)}")
        if pred != OTHER_LABEL:
            n_pred[pred] += 1
        if gold != OTHER_LABEL:
            n_gold[gold] += 1
            if pred == gold:
                tp[gold] += 1
                correct += 1
    per_class = []
    for label in sorted(n_gold):
        p, r, f1 = _prf(tp[label], n_pred[label], n_gold[label])
        per_class.append(ClassScore(label, p, r, f1, n_gold[label]))
    total = sum(n_gold.values())
    if total == 0:
        return SupersenseScores(per_class, 0.0, 0.0, 0.0, 0.0)
    agg_p = sum(c.precision * c.support for c in per_class) / total
    agg_r = sum(c.recall * c.support for c in per_class) / total
    agg_f1 = sum(c.f1 * c.support for c in per_class) / total
    return SupersenseScores(per_class, agg_p, agg_r, agg_f1, correct / total)


def evaluate_supersense(ckpt: Checkpoint, dataset: SupersenseDataset, window: int = 20) -> SupersenseScores:
    """Tag every token with the fine-tuned checkpoint and score against gold."""
    tags = _tag_tokens(ckpt, [[tok for tok, _ in sent] for sent in dataset.sentences], window)
    golds = [gold for sent in dataset.sentences for _, gold in sent]
    return aggregate_scores(zip(golds, tags), ckpt.label_names())


# ---------------------------------------------------------------------------
# candidate generation from alignment statistics


def alignment_cooccurrence(
    pairs: Iterable[ParallelSentencePair],
    alignments: Iterable[AlignmentSet],
) -> dict[tuple[str, str], int]:
    """Count (source word, target word) link co-occurrences over a corpus.

    pairs and alignments must be the same length; nothing is dropped silently.
    """
    pairs, alignments = list(pairs), list(alignments)
    if len(pairs) != len(alignments):
        raise DataError(f"{len(pairs)} sentence pairs but {len(alignments)} alignment sets")
    counts: dict[tuple[str, str], int] = {}
    for pair, links in zip(pairs, alignments):
        for i, j in links:
            if i >= len(pair.source) or j >= len(pair.target):
                raise DataError(f"pair {pair.index}: link {i}-{j} outside sentence")
            key = (pair.source[i], pair.target[j])
            counts[key] = counts.get(key, 0) + 1
    return counts


def build_candidate_table(
    pair_counts: Mapping[tuple[str, str], int],
    mass_threshold: float,
    targets: Iterable[str] | None = None,
) -> dict[str, list[tuple[str, int]]]:
    """Pivot through the second language: a word's candidates are the words
    aligned to its translations, ranked by total link count, cut at the
    shortest prefix holding mass_threshold of the count mass. The word itself
    is removed before the mass computation. Words with no surviving
    candidates get no entry.
    """
    if not 0.0 < mass_threshold <= 1.0:
        raise ValueError(f"mass_threshold must be in (0, 1], got {mass_threshold}")
    by_source: dict[str, dict[str, int]] = {}
    by_target: dict[str, dict[str, int]] = {}
    for (src, tgt), n in pair_counts.items():
        by_source.setdefault(src, {})[tgt] = n
        by_target.setdefault(tgt, {})[src] = n

    words = sorted(by_source) if targets is None else list(targets)
    table: dict[str, list[tuple[str, int]]] = {}
    for word in words:
        translations = by_source.get(word)
        if not translations:
            continue
        scores: Counter = Counter()
        for tgt in translations:
            for src, n in by_target[tgt].items():
                scores[src] += n
        scores.pop(word, None)
        if not scores:
            continue
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        total = sum(scores.values())
        kept = []
        cum = 0
        for cand, n in ranked:
            kept.append((cand, n))
            cum += n
            if cum / total >= mass_threshold:
                break
        table[word] = kept
    return table


def save_candidate_table(path, table: dict[str, list[tuple[str, int]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(table):
            for cand, n in table[word]:
                fh.write(f"{word}\t{cand}\t{n}\n")


def load_candidate_table(path) -> dict[str, list[tuple[str, int]]]:
    """word TAB candidate TAB count lines; counts are positive, and a (word, candidate) pair appears once."""
    def entry(word, cand, n):
        try:
            count = int(n)
        except ValueError as exc:
            raise DataError(f"bad count {n!r}") from exc
        if count <= 0:
            raise DataError(f"count {count} is not positive")
        return (word, cand), count

    rows = read_text(path, lambda text: parse_rows(text, entry, 3, "expected 3 tab-separated fields",
                                                   key="candidate {key[1]!r} of {key[0]!r} repeats line {first}"))
    table: dict[str, list[tuple[str, int]]] = {}
    for (word, cand), count in rows.values():
        table.setdefault(word, []).append((cand, count))
    return table


# ---------------------------------------------------------------------------
# lexical substitution


@dataclass
class LexsubItem:
    item_id: str
    lemma: str
    pos: str
    position: int
    sentence: list[str]

    def __post_init__(self):
        if not 0 <= self.position < len(self.sentence):
            raise DataError(f"item {self.item_id}: position {self.position} outside sentence "
                            f"of length {len(self.sentence)}")


def parse_lexsub_items(text: str) -> list[LexsubItem]:
    """TSV: item id, "lemma.pos", 0-indexed target position, tokenized sentence; ids are unique."""
    def item(item_id, lemma_pos, position, sentence):
        if "." not in lemma_pos:
            raise DataError(f"expected 'lemma.pos', got {lemma_pos!r}")
        lemma, pos = lemma_pos.rsplit(".", 1)
        try:
            position = int(position)
        except ValueError as exc:
            raise DataError(f"bad position {position!r}") from exc
        return item_id, LexsubItem(item_id, lemma, pos, position, sentence.split())

    rows = parse_rows(text, item, 4, "expected 4 tab-separated fields, got {got}",
                      key="item id {key!r} repeats line {first}")
    return [lexsub_item for _, lexsub_item in rows.values()]


def parse_lexsub_gold(text: str) -> dict[str, list[tuple[str, int]]]:
    """item id TAB semicolon-separated "substitute count" pairs; counts are positive, ids unique."""
    def substitutes(item_id, subs):
        entries = []
        for piece in subs.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            try:
                word, count = piece.rsplit(" ", 1)
                count = int(count)
            except ValueError as exc:
                raise DataError(f"bad 'substitute count' pair {piece!r}") from exc
            if count <= 0:
                raise DataError(f"count {count} of {word!r} is not positive")
            entries.append((word, count))
        if not entries:
            raise DataError(f"item {item_id} has empty gold")
        return item_id, entries

    return dict(parse_rows(text, substitutes, 2, "expected 'id<TAB>substitutes'",
                           key="item id {key!r} repeats line {first}").values())


def rank_candidates(candidates: Sequence[tuple[str, int]] | Sequence[str]) -> list[str]:
    """Canonical candidate order: alignment count descending, then word.

    Bare word lists rank lexicographically (all counts equal).
    """
    pairs = [(c, 0) if isinstance(c, str) else c for c in candidates]
    return [w for w, _ in sorted(pairs, key=lambda kv: (-kv[1], kv[0]))]


def lexsub_predict(
    ckpt: Checkpoint,
    item: LexsubItem,
    candidates: Sequence[tuple[str, int]] | Sequence[str],
) -> str:
    """Best substitute by cosine against the target's context vector.

    The sentence and a copy of it with each candidate put at the target
    are read together through model.context_vectors. The copies share the
    sentence's prefix and reversed suffix, so those are scanned once and
    each candidate costs one cell step per direction: exactly what a full
    re-encode gives. Candidates with equal embeddings share one copy, so
    they tie exactly. Ties go to the higher-ranked candidate; rank is
    recomputed internally so the input order never matters.
    """
    if not candidates:
        raise ValueError(f"item {item.item_id}: empty candidate list")
    ranked = rank_candidates(candidates)
    ids = [ckpt.src_vocab.id(tok) for tok in item.sentence]
    pos = item.position
    subs = [ids[pos]] + [ckpt.src_vocab.id(cand) for cand in ranked]
    emb = ckpt.encoder.embeddings
    check_ids(subs, len(emb), "source")
    slot: dict[bytes, int] = {}  # an embedding row's bytes -> its copy's instance, first seen first
    instances, inverse = [], []
    for sub in subs:
        key = emb[sub].tobytes()
        if key not in slot:
            slot[key] = len(instances)
            instances.append((ids[:pos] + [sub] + ids[pos + 1 :], pos))
        inverse.append(slot[key])
    hs = context_vectors(ckpt.encoder, instances)[inverse]
    return most_similar(hs[0], ranked, hs[1:])


def most_similar(target, ranked: Sequence[str], vectors) -> str:
    """The word of ranked (vectors[k] is ranked[k]'s) of largest cosine with target; a tie goes to the higher rank."""
    best_word, best_sim = None, -math.inf
    for word, vec in zip(ranked, vectors):
        sim = cosine(target, vec)
        if sim > best_sim:  # strictly greater: the first of equal cosines stays
            best_word, best_sim = word, sim
    return best_word


def lexsub_score(
    predictions: Mapping[str, str],
    gold: Mapping[str, list[tuple[str, int]]],
) -> tuple[float, float]:
    """(best, best-mode) percentages over the predicted items.

    best: annotator count of the guess over the item's total count, averaged.
    best-mode: exact match with the single most frequent substitute, averaged
    over predicted items that have a unique mode.
    """
    if not predictions:
        raise ScoringError("no predictions to score")
    best_sum = 0.0
    mode_sum = 0
    mode_items = 0
    for item_id, guess in predictions.items():
        if item_id not in gold:
            raise ScoringError(f"prediction for unknown item id {item_id!r}")
        entries = gold[item_id]
        total = sum(n for _, n in entries)
        counts = {w: n for w, n in entries}
        best_sum += counts.get(guess, 0) / total
        top = max(n for _, n in entries)
        modes = [w for w, n in entries if n == top]
        if len(modes) == 1:
            mode_items += 1
            if guess == modes[0]:
                mode_sum += 1
    best = 100.0 * best_sum / len(predictions)
    best_mode = 100.0 * mode_sum / mode_items if mode_items else 0.0
    return best, best_mode


# ---------------------------------------------------------------------------
# translation feature export


@dataclass
class FeatureRecord:
    source_word: str
    target_word: str
    p: float
    log_p: float
    oov: bool  # target word fell back to the unknown id


@dataclass
class FeatureQuery:
    sentence: list[str]
    position: int
    target_word: str

    def __post_init__(self):
        if not 0 <= self.position < len(self.sentence):
            raise DataError(f"query position {self.position} outside sentence "
                            f"of length {len(self.sentence)}")


def parse_feature_queries(text: str) -> list[FeatureQuery]:
    """TSV: tokenized source sentence, 0-indexed position, target word."""
    def query(sentence, position, target):
        try:
            position = int(position)
        except ValueError as exc:
            raise DataError(f"bad position {position!r}") from exc
        return FeatureQuery(sentence.split(), position, target)

    return list(parse_rows(text, query, 3, "expected 3 tab-separated fields, got {got}").values())


def export_translation_features(ckpt: Checkpoint, queries: Sequence[FeatureQuery]) -> list[FeatureRecord]:
    """p and ln p of each queried target word under the translation head.

    ln p comes from the log-softmax, so it stays finite where p underflows
    to 0. Out-of-vocabulary targets are scored at the unknown id and flagged.
    """
    if ckpt.tgt_vocab is None:
        raise ValueError("checkpoint has no translation head")
    log_p, p = target_log_probs(ckpt.encoder, ckpt.head,
                                [([ckpt.src_vocab.id(tok) for tok in q.sentence], q.position) for q in queries],
                                [ckpt.tgt_vocab.id(q.target_word) for q in queries])
    return [FeatureRecord(q.sentence[q.position], q.target_word, float(p_b), float(log_p_b),
                          q.target_word not in ckpt.tgt_vocab.id_of) for q, p_b, log_p_b in zip(queries, p, log_p)]


def format_feature_records(records: Sequence[FeatureRecord]) -> str:
    lines = [
        f"{r.source_word}\t{r.target_word}\t{r.p:.12g}\t{r.log_p:.12g}\t{int(r.oov)}"
        for r in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")
