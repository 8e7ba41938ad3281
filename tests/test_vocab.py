"""Vocabulary construction, id mapping, and instance serialization."""

import pytest
from hypothesis import given, strategies as st

from wicrep.corpus import (
    UNK_TOKEN,
    TranslationInstance,
    Vocabulary,
    build_vocabulary,
    count_tokens,
    load_instances,
    save_instances,
    sentence_to_ids,
)
from wicrep.errors import DataError


def ranked_oracle(counts, drop_top_k, cap, min_count=1):
    # Independent route: repeated best-extraction instead of one sort call.
    pool = {w: c for w, c in counts.items() if w != UNK_TOKEN and c >= min_count}
    out = []
    while pool:
        best = None
        for w, c in pool.items():
            if best is None or c > pool[best] or (c == pool[best] and w < best):
                best = w
        out.append((best, pool.pop(best)))
    return out[drop_top_k : drop_top_k + cap]


words_st = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
counts_st = st.dictionaries(words_st, st.integers(min_value=1, max_value=50), max_size=40)


@given(counts_st, st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=3))
def test_build_vocabulary_matches_extraction_oracle(counts, cap, drop):
    vocab = build_vocabulary(counts, cap=cap, drop_top_k=drop)
    assert vocab.entries == [(UNK_TOKEN, 0)] + ranked_oracle(counts, drop, cap)


@given(counts_st, st.integers(min_value=0, max_value=30))
def test_vocabulary_ids_are_a_dense_bijection(counts, cap):
    vocab = build_vocabulary(counts, cap=cap)
    assert len(vocab) <= cap + 1
    assert vocab.unk_id == 0
    assert sorted(vocab.id_of.values()) == list(range(len(vocab)))
    for word, idx in vocab.id_of.items():
        assert vocab.word(idx) == word


def test_build_vocabulary_tie_break_and_cap():
    vocab = build_vocabulary({"a": 3, "b": 3, "c": 1}, cap=2)
    assert vocab.id_of == {UNK_TOKEN: 0, "a": 1, "b": 2}
    assert vocab.id("c") == 0


def test_build_vocabulary_empty_counts():
    vocab = build_vocabulary({}, cap=30_000)
    assert vocab.entries == [(UNK_TOKEN, 0)]


def test_build_vocabulary_large_input_keeps_cap_plus_unk():
    counts = {f"w{i}": i + 1 for i in range(45_000)}
    assert len(build_vocabulary(counts, cap=30_000)) == 30_001


def test_build_vocabulary_drop_top_removes_most_frequent():
    counts = {"the": 100, "of": 90, "cat": 5, "dog": 4}
    vocab = build_vocabulary(counts, cap=10, drop_top_k=2)
    assert vocab.words == [UNK_TOKEN, "cat", "dog"]
    assert vocab.id("the") == 0


def test_build_vocabulary_min_count_drops_hapax():
    vocab = build_vocabulary({"a": 2, "b": 1}, cap=10, min_count=2)
    assert vocab.words == [UNK_TOKEN, "a"]


def test_build_vocabulary_rejects_negative_arguments():
    with pytest.raises(ValueError):
        build_vocabulary({"a": 1}, cap=-1)
    with pytest.raises(ValueError):
        build_vocabulary({"a": 1}, cap=5, drop_top_k=-2)


def test_vocabulary_requires_unk_first_and_unique_words():
    with pytest.raises(ValueError):
        Vocabulary([("a", 1)])
    with pytest.raises(ValueError):
        Vocabulary([(UNK_TOKEN, 0), ("a", 1), ("a", 2)])


@pytest.mark.parametrize("entry", [[5, 2], ["x", 2.7], ["x", True], ["x", "3"], [None, 1]])
def test_vocabulary_rejects_entries_that_are_not_a_word_and_a_count(entry):
    with pytest.raises(ValueError, match=r"^entry 1 .* is not a \(str, int\) pair$"):
        Vocabulary.from_pairs([[UNK_TOKEN, 0], entry])


@pytest.mark.parametrize("pairs,bad", [
    ([[UNK_TOKEN, 0, 9], ["a", 1, "junk"]], 0),  # three fields, not truncated to two
    ([[UNK_TOKEN, 0], ["a"]], 1),
    ([[UNK_TOKEN, 0], 7], 1),
])
def test_vocabulary_rejects_entries_that_are_not_pairs(pairs, bad):
    with pytest.raises(ValueError, match=rf"^entry {bad} .* is not a \(str, int\) pair$"):
        Vocabulary.from_pairs(pairs)


def test_count_tokens_sums_over_sentences():
    counts = count_tokens([["a", "b", "a"], ["b"]])
    assert counts == {"a": 2, "b": 2}


def test_sentence_to_ids_maps_unknown_words_to_unk():
    vocab = build_vocabulary({"the": 5, "ran": 2}, cap=10)
    assert sentence_to_ids(["the", "zorple", "ran"], vocab) == [vocab.id("the"), 0, vocab.id("ran")]
    assert sentence_to_ids(["x", "y"], vocab) == [0, 0]
    assert sentence_to_ids([], vocab) == []


def test_vocabulary_tsv_round_trip(tmp_path):
    vocab = build_vocabulary({"a": 3, "b": 1}, cap=5)
    path = tmp_path / "vocab.tsv"
    vocab.save_tsv(path)
    loaded = Vocabulary.load_tsv(path)
    assert loaded.entries == vocab.entries
    assert loaded.id_of == vocab.id_of


@pytest.mark.parametrize("body", [
    "0\t<unk>\n",                      # missing column
    "1\t<unk>\t0\n",                   # ids not dense from 0
    "0\t<unk>\t0\nzero\ta\t1\n",       # non-numeric id
    "",                                # empty file
])
def test_vocabulary_tsv_rejects_malformed(tmp_path, body):
    path = tmp_path / "vocab.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError):
        Vocabulary.load_tsv(path)


def test_translation_instance_validates_position():
    with pytest.raises(ValueError):
        TranslationInstance([1, 2, 3], 3, 1)
    with pytest.raises(ValueError):
        TranslationInstance([1, 2, 3], -1, 1)


def test_instances_tsv_round_trip(tmp_path):
    instances = [
        TranslationInstance([4, 0, 2, 9], 1, 7),
        TranslationInstance([5], 0, 1),
    ]
    path = tmp_path / "inst.tsv"
    save_instances(path, instances)
    assert load_instances(path) == instances


def test_load_instances_names_the_bad_line(tmp_path):
    path = tmp_path / "inst.tsv"
    path.write_text("0\t3\t1 2\n9\t3\t1 2\n", encoding="utf-8")
    with pytest.raises(DataError, match="2"):
        load_instances(path)
    path.write_text("0\tx\t1 2\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-numeric"):
        load_instances(path)


@pytest.mark.parametrize("body,line,message", [
    ("0\ta\t1\n1\t<unk>\t0\n", 1, r"entry 0 must be <unk>, got 'a'"),
    ("0\t<unk>\t0\n1\ta\t3\n2\tb\t2\n3\ta\t1\n", 4, r"duplicate word 'a'"),
    ("0\t<unk>\t0\n1\t<unk>\t3\n", 2, r"duplicate word '<unk>'"),
    ("0\t<unk>\t0\n1\ta\t-5\n", 2, r"count -5 is negative"),
])
def test_vocabulary_tsv_names_the_line_of_a_bad_entry(tmp_path, body, line, message):
    path = tmp_path / "vocab.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=rf"vocab\.tsv: line {line}: {message}"):
        Vocabulary.load_tsv(path)


@pytest.mark.parametrize("row,message", [
    ("0\t-1\t1 2", "negative target id -1"),
    ("1\t3\t1 -4", "negative source id -4"),
    ("0\t3\t-2", "negative source id -2"),
])
def test_load_instances_rejects_negative_ids(tmp_path, row, message):
    path = tmp_path / "inst.tsv"
    path.write_text(f"0\t3\t1 2\n{row}\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"inst\.tsv: line 2: {message}"):
        load_instances(path)
