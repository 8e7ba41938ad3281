"""Context-insensitive comparison baseline: type vectors.

The type-vector predictor ignores context entirely and ranks lexical
substitution candidates by embedding cosine. (The forward-only LSTM
baseline is the main encoder built with TrainConfig(forward_only=True).)
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import parse_rows, read_text
from .errors import DataError
from .tasks import most_similar, rank_candidates


def parse_type_vectors(text: str) -> dict[str, np.ndarray]:
    """{word: vector} of a file whose first line is "count dim", then "word v1 ... vdim" per line.

    A word appears once, dim must be at least 1 and every value finite;
    errors name the line.
    """
    if not text:
        raise DataError("empty vector file")
    header, _, body = text.partition("\n")
    fields = header.split()
    if len(fields) != 2:
        raise DataError(f"line 1: bad vector file header {header!r}, expected 'count dim'")
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise DataError(f"line 1: bad vector file header {header!r}") from exc
    if dim < 1:
        raise DataError(f"line 1: vector dimension must be at least 1, got {dim}")

    def vector(word, *values):
        if len(values) != dim:
            raise DataError(f"expected word plus {dim} values, got {len(values)}")
        try:
            vec = np.array([float(v) for v in values])
        except ValueError as exc:
            raise DataError("non-numeric vector entry") from exc
        bad = np.flatnonzero(~np.isfinite(vec))  # nan, inf, and values such as 1e309 that overflow
        if bad.size:
            raise DataError(f"non-finite vector entry {values[bad[0]]!r}")
        return word, vec

    # The header's line is left blank, so every row keeps its line number.
    rows = parse_rows("\n" + body, vector, key="word {key!r} repeats line {first}", sep=None)
    vectors = dict(rows.values())
    if len(vectors) != count:
        raise DataError(f"header declares {count} vectors, file has {len(vectors)}")
    return vectors


def load_type_vectors(path: str | Path) -> dict[str, np.ndarray]:
    return read_text(path, parse_type_vectors)


def type_vector_predict(
    table: dict[str, np.ndarray],
    target_word: str,
    candidates: Sequence[tuple[str, int]] | Sequence[str],
) -> str:
    """Context-insensitive best substitute: cosine between type vectors.

    Candidates missing from the table are skipped, and ties go to the
    higher-ranked one; a missing target word, or no candidate, raises ValueError.
    """
    if target_word not in table:
        raise ValueError(f"target word {target_word!r} not in vector table")
    ranked = [c for c in rank_candidates(candidates) if c in table]
    if not ranked:
        raise ValueError(f"none of the candidates for {target_word!r} are in the vector table")
    return most_similar(table[target_word], ranked, [table[cand] for cand in ranked])
