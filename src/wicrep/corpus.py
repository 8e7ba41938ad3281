"""Parallel-corpus ingestion: vocabularies, alignments, pretraining instances.

All functions are pure over their inputs; file readers return fully
materialized lists so downstream passes can be repeated deterministically.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataError

UNK_TOKEN = "<unk>"

# One alignment link "i-j" with decimal non-negative indices.
_LINK_RE = re.compile(r"^(\d+)-(\d+)$")

AlignmentSet = set  # set[tuple[int, int]] of (source index, target index) links


class Vocabulary:
    """Frequency-ranked word<->id map; id 0 is always the unknown token.

    Entries are (word, count) pairs indexed by id. Built vocabularies are
    sorted by count descending with lexicographic tie-break; vocabularies
    loaded from disk preserve their stored order. A word that is not a str,
    or a count that is not an int (a bool or a float included), raises
    ValueError.
    """

    def __init__(self, entries: Sequence[tuple[str, int]]):
        if not entries or entries[0][0] != UNK_TOKEN:
            raise ValueError(f"entry 0 must be the {UNK_TOKEN} token")
        self.entries = [(w, c) for w, c in entries]
        for i, (w, c) in enumerate(self.entries):
            if not isinstance(w, str) or type(c) is not int:
                raise ValueError(f"entry {i} ({w!r}, {c!r}) is not a (str, int) pair")
        self.id_of = {w: i for i, (w, _) in enumerate(self.entries)}
        if len(self.id_of) != len(self.entries):
            raise ValueError("duplicate words in vocabulary")
        self.unk_id = 0

    def __len__(self) -> int:
        return len(self.entries)

    def id(self, word: str) -> int:
        return self.id_of.get(word, self.unk_id)

    def word(self, idx: int) -> str:
        return self.entries[idx][0]

    @property
    def words(self) -> list[str]:
        return [w for w, _ in self.entries]

    def to_pairs(self) -> list[list]:
        return [[w, c] for w, c in self.entries]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence]) -> "Vocabulary":
        return cls([(p[0], p[1]) for p in pairs])

    def save_tsv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (w, c) in enumerate(self.entries):
                fh.write(f"{i}\t{w}\t{c}\n")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "Vocabulary":
        entries = []
        seen = set()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: expected 3 tab-separated columns")
                try:
                    idx, count = int(parts[0]), int(parts[2])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric id or count") from exc
                if idx != len(entries):
                    raise DataError(f"{path}:{lineno}: ids must be dense and sorted, got {idx}")
                if idx == 0 and parts[1] != UNK_TOKEN:
                    raise DataError(f"{path}:{lineno}: entry 0 must be {UNK_TOKEN}, got {parts[1]!r}")
                if parts[1] in seen:
                    raise DataError(f"{path}:{lineno}: duplicate word {parts[1]!r}")
                seen.add(parts[1])
                entries.append((parts[1], count))
        if not entries:
            raise DataError(f"{path}: empty vocabulary file")
        return cls(entries)


@dataclass
class ParallelSentencePair:
    source: list[str]
    target: list[str]
    index: int


@dataclass
class TranslationInstance:
    """One pretraining example: a source sentence, a position, and its translation id."""

    source_ids: list[int]
    position_t: int
    target_id: int

    def __post_init__(self):
        if not 0 <= self.position_t < len(self.source_ids):
            raise ValueError(f"position {self.position_t} outside sentence of length {len(self.source_ids)}")


def count_tokens(sentences: Iterable[Sequence[str]]) -> Counter:
    counts: Counter = Counter()
    for sent in sentences:
        counts.update(sent)
    return counts


def build_vocabulary(
    token_counts: Mapping[str, int],
    cap: int,
    drop_top_k: int = 0,
    min_count: int = 1,
) -> Vocabulary:
    """Rank types by (count desc, word asc), drop the top drop_top_k, keep the next cap.

    Types below min_count are excluded up front (hapax filtering for the
    low-resource recipe uses min_count=2). The unknown token itself never
    competes for an id. Empty input yields an unk-only vocabulary.
    """
    if cap < 0 or drop_top_k < 0:
        raise ValueError("cap and drop_top_k must be non-negative")
    ranked = sorted(
        ((w, c) for w, c in token_counts.items() if w != UNK_TOKEN and c >= min_count),
        key=lambda wc: (-wc[1], wc[0]),
    )
    kept = ranked[drop_top_k : drop_top_k + cap]
    return Vocabulary([(UNK_TOKEN, 0)] + kept)


def sentence_to_ids(sentence: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map tokens to ids, substituting unk for out-of-vocabulary tokens."""
    return [vocab.id(tok) for tok in sentence]


def ids_to_sentence(ids: Sequence[int], vocab: Vocabulary) -> list[str]:
    return [vocab.word(i) for i in ids]


def parse_alignments(text: str) -> list[AlignmentSet]:
    """Parse "i-j" link lines, one result set per line; duplicates collapse."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        links = set()
        for tok in line.split():
            m = _LINK_RE.match(tok)
            if m is None:
                raise DataError(f"line {lineno}: malformed alignment link {tok!r}")
            links.add((int(m.group(1)), int(m.group(2))))
        out.append(links)
    return out


def intersect_alignments(forward: AlignmentSet, backward: AlignmentSet) -> AlignmentSet:
    """Symmetrize by keeping only links present in both directions."""
    return set(forward) & set(backward)


def extract_instances(
    pair: ParallelSentencePair,
    alignment: AlignmentSet,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    min_len: int = 10,
) -> list[TranslationInstance]:
    """Instances for one sentence pair, in link order sorted by (i, j).

    Sentences with source length <= min_len produce nothing. Links whose
    target word falls outside the target vocabulary (rare types and the
    dropped most-common types alike) are skipped rather than mapped to unk,
    so unk never appears as a prediction target.
    """
    if len(pair.source) <= min_len:
        return []
    src_ids = sentence_to_ids(pair.source, src_vocab)
    out = []
    for i, j in sorted(alignment):
        if i >= len(pair.source) or j >= len(pair.target):
            raise DataError(f"pair {pair.index}: link {i}-{j} outside sentence bounds "
                            f"({len(pair.source)}x{len(pair.target)})")
        target_id = tgt_vocab.id(pair.target[j])
        if target_id == tgt_vocab.unk_id:
            continue
        out.append(TranslationInstance(src_ids, i, target_id))
    return out


def extract_corpus_instances(
    pairs: Sequence[ParallelSentencePair],
    alignments: Sequence[AlignmentSet],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    min_len: int = 10,
) -> list[TranslationInstance]:
    if len(pairs) != len(alignments):
        raise DataError(f"{len(pairs)} sentence pairs but {len(alignments)} alignment lines")
    out: list[TranslationInstance] = []
    for pair, alignment in zip(pairs, alignments):
        out.extend(extract_instances(pair, alignment, src_vocab, tgt_vocab, min_len))
    return out


def read_token_lines(path: str | Path) -> list[list[str]]:
    """Whitespace-tokenized lines; empty lines yield empty token lists."""
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines()]


def read_parallel_corpus(src_path: str | Path, tgt_path: str | Path) -> list[ParallelSentencePair]:
    src_lines = read_token_lines(src_path)
    tgt_lines = read_token_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(f"side length mismatch: {src_path} has {len(src_lines)} lines, "
                        f"{tgt_path} has {len(tgt_lines)}")
    return [ParallelSentencePair(s, t, i) for i, (s, t) in enumerate(zip(src_lines, tgt_lines))]


def read_alignment_file(path: str | Path) -> list[AlignmentSet]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_alignments(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_instances(path: str | Path, instances: Iterable[TranslationInstance]) -> None:
    """TSV rows: position, target id, space-separated source ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            ids = " ".join(str(i) for i in inst.source_ids)
            fh.write(f"{inst.position_t}\t{inst.target_id}\t{ids}\n")


def load_instances(path: str | Path) -> list[TranslationInstance]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated columns")
            try:
                pos, target = int(parts[0]), int(parts[1])
                ids = [int(tok) for tok in parts[2].split()]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric field") from exc
            if target < 0:
                raise DataError(f"{path}:{lineno}: negative target id {target}")
            if min(ids, default=0) < 0:
                raise DataError(f"{path}:{lineno}: negative source id {min(ids)}")
            try:
                out.append(TranslationInstance(ids, pos, target))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out
