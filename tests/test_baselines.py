"""Comparison baselines: the forward-only LSTM and type-vector ranking."""

import math

import numpy as np
import pytest

from wicrep.baselines import load_type_vectors, parse_type_vectors, type_vector_predict
from wicrep.errors import DataError
from wicrep.model import encode_bidirectional
from wicrep.train import TrainConfig, init_model


# ---------------------------------------------------------------- fwd LSTM


def test_forward_lstm_keeps_the_bidirectional_width():
    cfg = TrainConfig(d=6, d_h=4, seed=3, forward_only=True)
    enc, head = init_model(cfg, 9, 5)
    assert enc.backward is None
    assert enc.forward.hidden_size == 8
    assert enc.output_dim == 8
    assert head.projection.shape == (5, 8)
    h = encode_bidirectional(enc, [1, 2, 3])
    assert h.shape == (3, 8)


# ---------------------------------------------------------------- type vectors


GOOD_FILE = """3 2
bank 2 0
treasury 1 1
brook -1 0
"""


def test_parse_type_vectors_reads_words_and_values():
    table = parse_type_vectors(GOOD_FILE)
    assert table.dim == 2
    assert "bank" in table and "river" not in table
    assert np.array_equal(table["treasury"], np.array([1.0, 1.0]))


def test_load_type_vectors_from_disk(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text(GOOD_FILE)
    table = load_type_vectors(path)
    assert np.array_equal(table["brook"], np.array([-1.0, 0.0]))


@pytest.mark.parametrize(
    "text,marker",
    [
        ("", "empty"),
        ("3\nbank 1 2\n", "header"),
        ("two 2\nbank 1 2\n", "header"),
        ("1 2\nbank 1\n", "line 2"),
        ("1 2\nbank 1 x\n", "non-numeric"),
        ("2 2\nbank 1 2\n", "declares 2"),
    ],
)
def test_parse_type_vectors_rejects_bad_files(text, marker):
    with pytest.raises(DataError, match=marker):
        parse_type_vectors(text)


def test_a_repeated_word_names_both_lines():
    with pytest.raises(DataError, match="^line 3: word 'bank' repeats line 2$"):
        parse_type_vectors("1 2\nbank 1 0\nbank 0 1\n")


def test_type_vector_prediction_is_pure_cosine():
    table = parse_type_vectors(GOOD_FILE)
    # cos(bank, treasury) = 1/sqrt(2); cos(bank, brook) = -1
    assert type_vector_predict(table, "bank", ["treasury", "brook"]) == "treasury"


def test_type_vector_frozen_three_way_case():
    table = parse_type_vectors("4 2\nt 2 0\na 1 1\nb 3 1\nc -1 0\n")
    # cosines against t: a ~0.7071, b ~0.9487, c = -1
    assert type_vector_predict(table, "t", ["a", "b", "c"]) == "b"


def test_type_vector_ties_go_to_the_higher_ranked_candidate():
    table = parse_type_vectors("3 2\nt 1 0\nsame1 0 1\nsame2 0 1\n")
    assert type_vector_predict(table, "t", [("same2", 9), ("same1", 1)]) == "same2"
    assert type_vector_predict(table, "t", ["same2", "same1"]) == "same1"


def test_type_vector_skips_absent_candidates():
    table = parse_type_vectors(GOOD_FILE)
    assert type_vector_predict(table, "bank", ["ghost", "brook"]) == "brook"
    with pytest.raises(ValueError):
        type_vector_predict(table, "bank", ["ghost", "phantom"])
    with pytest.raises(KeyError):
        type_vector_predict(table, "missing", ["treasury"])


def test_type_vector_cosine_values_are_sane():
    table = parse_type_vectors(GOOD_FILE)
    v = table["bank"] / np.linalg.norm(table["bank"])
    w = table["treasury"] / np.linalg.norm(table["treasury"])
    assert float(v @ w) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
