"""Synthetic homograph corpora for end-to-end checks and demos.

One source word ("bank") translates to BANCO whenever a money cue appears
in the sentence and to ORILLA otherwise, so getting its translation right
requires reading the context. Every other source word translates
deterministically to its uppercase form; two unambiguous synonyms
("treasury" and "brook") share the two bank translations so substitution
ranking has a right answer. Directional alignments carry one bogus link
each so only the intersection is trustworthy, mirroring real aligner
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    AlignmentSet,
    ParallelSentencePair,
    TranslationInstance,
    Vocabulary,
    build_vocabulary,
    count_tokens,
    extract_corpus_instances,
    intersect_alignments,
)
from .numkit import make_rng

AMBIGUOUS = "bank"
MONEY_TRANSLATION = "BANCO"
RIVER_TRANSLATION = "ORILLA"
MONEY_SYNONYM = "treasury"
RIVER_SYNONYM = "brook"
MONEY_CUES = ("money", "loan", "deposit", "teller", "cash")
RIVER_CUES = ("river", "water", "fishing", "shore", "stream")


def translate_token(token: str, sense: str) -> str:
    if token == AMBIGUOUS:
        return MONEY_TRANSLATION if sense == "money" else RIVER_TRANSLATION
    return token.upper()


@dataclass
class HomographSentence:
    source: list[str]
    target: list[str]
    links_s2t: AlignmentSet  # source-to-target aligner output (one bogus link)
    links_t2s: AlignmentSet  # reverse direction (a different bogus link)
    sense: str               # "money" or "river"
    amb_position: int

    @property
    def links(self) -> AlignmentSet:
        return intersect_alignments(self.links_s2t, self.links_t2s)


@dataclass
class HomographData:
    train: list[HomographSentence]
    dev: list[HomographSentence]

    def all_sentences(self) -> list[HomographSentence]:
        return self.train + self.dev


def generate_homograph_data(
    seed: int = 0,
    n_train: int = 2000,
    n_dev: int = 200,
    n_fillers: int = 30,
    min_len: int = 11,
    max_len: int = 14,
    links_per_sentence: int = 3,
    p_synonym: float = 0.5,
) -> HomographData:
    """Build a balanced train/dev split; senses alternate so both splits are even.

    A p_synonym fraction of training sentences additionally appear with the
    sense synonym swapped in for the ambiguous word (same contexts, same
    translation), which makes the synonyms distributionally interchangeable
    with the matching sense and gives substitution ranking a right answer.
    """
    rng = make_rng(seed)
    fillers = [f"w{i:02d}" for i in range(n_fillers)]
    train: list[HomographSentence] = []
    dev: list[HomographSentence] = []
    for k in range(n_train + n_dev):
        sense = "money" if k % 2 == 0 else "river"
        cues = MONEY_CUES if sense == "money" else RIVER_CUES
        length = int(rng.integers(min_len, max_len + 1))
        tokens = [fillers[int(j)] for j in rng.integers(0, n_fillers, size=length)]
        amb_pos, cue_pos = (int(p) for p in rng.choice(length, size=2, replace=False))
        tokens[amb_pos] = AMBIGUOUS
        tokens[cue_pos] = cues[int(rng.integers(0, len(cues)))]
        target = [translate_token(tok, sense) for tok in tokens]

        links = {(amb_pos, amb_pos)}
        while len(links) < links_per_sentence:
            p = int(rng.integers(0, length))
            links.add((p, p))
        noise_a = int(rng.integers(0, length))
        noise_b = int(rng.integers(0, length))
        s2t = links | {(noise_a, (noise_a + 1) % length)}
        t2s = links | {(noise_b, (noise_b + 2) % length)}
        sent = HomographSentence(tokens, target, s2t, t2s, sense, amb_pos)
        if k < n_train:
            train.append(sent)
            if rng.random() < p_synonym:
                swapped = list(tokens)
                swapped[amb_pos] = MONEY_SYNONYM if sense == "money" else RIVER_SYNONYM
                train.append(HomographSentence(swapped, list(target), set(s2t), set(t2s),
                                               sense, amb_pos))
        else:
            dev.append(sent)
    return HomographData(train=train, dev=dev)


@dataclass
class HomographTask:
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    train_instances: list[TranslationInstance]
    dev_instances: list[TranslationInstance]      # every intersected link
    dev_amb_instances: list[TranslationInstance]  # ambiguous positions only
    dev_senses: list[str]                         # parallel to dev_amb_instances
    money_target_id: int
    river_target_id: int


def prepare_homograph_task(data: HomographData) -> HomographTask:
    """Run the standard corpus pipeline over the generated sentences."""
    src_counts = count_tokens(s.source for s in data.all_sentences())
    tgt_counts = count_tokens(s.target for s in data.all_sentences())
    src_vocab = build_vocabulary(src_counts, cap=30_000)
    tgt_vocab = build_vocabulary(tgt_counts, cap=30_000)

    def instances(sentences: list[HomographSentence]) -> list[TranslationInstance]:
        pairs = [ParallelSentencePair(sent.source, sent.target, index=idx) for idx, sent in enumerate(sentences)]
        return extract_corpus_instances(pairs, [sent.links for sent in sentences], src_vocab, tgt_vocab)

    dev_amb = []
    senses = []
    for sent in data.dev:
        ids = [src_vocab.id(tok) for tok in sent.source]
        tgt_id = tgt_vocab.id(translate_token(AMBIGUOUS, sent.sense))
        dev_amb.append(TranslationInstance(ids, sent.amb_position, tgt_id))
        senses.append(sent.sense)

    return HomographTask(
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        train_instances=instances(data.train),
        dev_instances=instances(data.dev),
        dev_amb_instances=dev_amb,
        dev_senses=senses,
        money_target_id=tgt_vocab.id(MONEY_TRANSLATION),
        river_target_id=tgt_vocab.id(RIVER_TRANSLATION),
    )


def write_homograph_files(data: HomographData, directory: str | Path) -> dict[str, Path]:
    """Materialize the corpus as the plain-text files the command line expects."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, sentences in (("train", data.train), ("dev", data.dev)):
        files = {
            f"{split}.src": [" ".join(s.source) for s in sentences],
            f"{split}.tgt": [" ".join(s.target) for s in sentences],
            f"{split}.s2t": [" ".join(f"{i}-{j}" for i, j in sorted(s.links_s2t)) for s in sentences],
            f"{split}.t2s": [" ".join(f"{i}-{j}" for i, j in sorted(s.links_t2s)) for s in sentences],
        }
        for name, lines in files.items():
            path = directory / name
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            paths[name] = path
    return paths


def write_supersense_files(data: HomographData, directory: str | Path) -> dict[str, Path]:
    """Token/label TSVs: the ambiguous token gets noun.money or noun.river, rest O."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, sentences in (("train", data.train), ("dev", data.dev)):
        blocks = []
        for sent in sentences:
            rows = []
            for pos, tok in enumerate(sent.source):
                label = f"noun.{sent.sense}" if pos == sent.amb_position else "O"
                rows.append(f"{tok}\t{label}")
            blocks.append("\n".join(rows))
        path = directory / f"{split}.sst"
        path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
        paths[f"{split}.sst"] = path
    return paths
