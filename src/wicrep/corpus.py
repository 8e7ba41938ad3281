"""Parallel-corpus ingestion: vocabularies, alignments, pretraining instances.

All functions are pure over their inputs; file readers return fully
materialized lists so downstream passes can be repeated deterministically.

Every text input is read through read_text, split_lines and parse_rows, so
lines are counted one way and errors read "FILE: line N: message".
"""

from __future__ import annotations

import itertools
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


def read_text(path: str | Path, parse):
    r"""parse(text) of the UTF-8 file at path, whose CRLF and CR open() has turned into "\n".

    A DataError from parse, or bytes that are not UTF-8, raise a DataError prefixed "{path}: ".
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return parse(text)
    except (DataError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def split_lines(text: str) -> list[str]:
    r"""The lines of text, split at "\n" only, as aligners count them: form feed, U+0085,
    U+2028 and the other line boundaries of str.splitlines are characters inside a line."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def parse_rows(text: str, row, fields: int | None = None, expected: str = "",
               key: str | None = None, sep: str | None = "\t") -> dict:
    """{line number: row(*fields)} for each non-blank line of text split at sep (None: whitespace).

    A line without `fields` fields raises DataError(expected.format(got=count, line=line)).
    With key, row returns (key, value) pairs and a repeated key raises
    DataError(key.format(key=key, first=earlier line number)). A ValueError
    from row or these checks is raised as a DataError prefixed "line {n}: ".
    """
    out = {}
    first_line = {}
    for lineno, line in enumerate(split_lines(text), 1):
        if not line.strip():
            continue
        parts = line.split(sep)
        try:
            if fields is not None and len(parts) != fields:
                raise DataError(expected.format(got=len(parts), line=line))
            out[lineno] = value = row(*parts)
            if key is not None and first_line.setdefault(value[0], lineno) != lineno:
                raise DataError(key.format(key=value[0], first=first_line[value[0]]))
        except ValueError as exc:  # DataError included
            raise DataError(f"line {lineno}: {exc}") from exc
    return out


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
        """A vocabulary from [word, count] entries; an entry that is not a pair raises ValueError."""
        entries = list(pairs)
        for i, p in enumerate(entries):
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise ValueError(f"entry {i} {p!r} is not a (str, int) pair")
        return cls([tuple(p) for p in entries])

    def save_tsv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (w, c) in enumerate(self.entries):
                fh.write(f"{i}\t{w}\t{c}\n")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "Vocabulary":
        """id TAB word TAB count lines: dense ids from 0, <unk> first, no word twice, no negative count."""
        next_id = itertools.count()

        def entry(idx, word, count):
            try:
                idx, count = int(idx), int(count)
            except ValueError as exc:
                raise DataError("non-numeric id or count") from exc
            if idx != next(next_id):
                raise DataError(f"ids must be dense and sorted, got {idx}")
            if idx == 0 and word != UNK_TOKEN:
                raise DataError(f"entry 0 must be {UNK_TOKEN}, got {word!r}")
            if count < 0:
                raise DataError(f"count {count} is negative")
            return word, count

        def parse(text):
            entries = parse_rows(text, entry, 3, "expected 3 tab-separated columns", key="duplicate word {key!r}")
            if not entries:
                raise DataError("empty vocabulary file")
            return cls(list(entries.values()))

        return read_text(path, parse)


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


def parse_alignments(text: str) -> list[AlignmentSet]:
    """Parse "i-j" link lines, one result set per line; duplicates collapse."""
    out = []
    for lineno, line in enumerate(split_lines(text), 1):
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
    return read_text(path, lambda text: [line.split() for line in split_lines(text)])


def read_parallel_corpus(src_path: str | Path, tgt_path: str | Path) -> list[ParallelSentencePair]:
    src_lines = read_token_lines(src_path)
    tgt_lines = read_token_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(f"side length mismatch: {src_path} has {len(src_lines)} lines, "
                        f"{tgt_path} has {len(tgt_lines)}")
    return [ParallelSentencePair(s, t, i) for i, (s, t) in enumerate(zip(src_lines, tgt_lines))]


def read_alignment_file(path: str | Path) -> list[AlignmentSet]:
    return read_text(path, parse_alignments)


def save_instances(path: str | Path, instances: Iterable[TranslationInstance]) -> None:
    """TSV rows: position, target id, space-separated source ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            ids = " ".join(str(i) for i in inst.source_ids)
            fh.write(f"{inst.position_t}\t{inst.target_id}\t{ids}\n")


def load_instances(path: str | Path) -> list[TranslationInstance]:
    """Rows written by save_instances; no id is negative."""
    def instance(pos, target, ids):
        try:
            pos, target = int(pos), int(target)
            ids = [int(tok) for tok in ids.split()]
        except ValueError as exc:
            raise DataError("non-numeric field") from exc
        if target < 0:
            raise DataError(f"negative target id {target}")
        if min(ids, default=0) < 0:
            raise DataError(f"negative source id {min(ids)}")
        return TranslationInstance(ids, pos, target)

    return read_text(path, lambda text: list(parse_rows(text, instance, 3,
                                                        "expected 3 tab-separated columns").values()))
