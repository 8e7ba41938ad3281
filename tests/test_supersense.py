"""Supersense data handling, windowing, and the tagging scorer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wicrep.corpus import Vocabulary
from wicrep.errors import DataError
from wicrep.tasks import (
    SupersenseDataset,
    aggregate_scores,
    evaluate_supersense,
    parse_supersense_file,
    predict_tags,
    supersense_instances,
    window_bounds,
)
from wicrep.train import Checkpoint, TrainConfig, init_model


def vocab_of(words):
    return Vocabulary([("<unk>", 0)] + [(w, 5) for w in words])


# ---------------------------------------------------------------- parsing


def test_parse_splits_sentences_on_blank_lines():
    text = "the\tO\ndog\tnoun.animal\n\nran\tverb.motion\n"
    ds = parse_supersense_file(text)
    assert ds.sentences == [
        [("the", "O"), ("dog", "noun.animal")],
        [("ran", "verb.motion")],
    ]
    assert ds.n_tokens() == 3
    assert ds.observed_labels() == ["noun.animal", "verb.motion"]


def test_parse_keeps_only_the_first_of_piped_senses():
    ds = parse_supersense_file("bass\tnoun.food|noun.artifact\n")
    assert ds.sentences == [[("bass", "noun.food")]]


def test_parse_handles_missing_trailing_newline_and_extra_blanks():
    ds = parse_supersense_file("\n\na\tO\n\n\n\nb\tO")
    assert ds.sentences == [[("a", "O")], [("b", "O")]]


@pytest.mark.parametrize(
    "text,marker",
    [
        ("a\tO\nb O\n", "line 2"),
        ("a\tO\nb\tO\tX\n", "line 2"),
        ("a\t\n", "line 1"),
        ("\tO\n", "line 1"),
    ],
)
def test_parse_rejects_malformed_lines_with_line_numbers(text, marker):
    with pytest.raises(DataError, match=marker):
        parse_supersense_file(text)


# ---------------------------------------------------------------- windows


@pytest.mark.parametrize(
    "position,length,window,expected",
    [
        (0, 30, 20, (0, 11)),
        (15, 30, 20, (5, 26)),
        (29, 30, 20, (19, 30)),
        (2, 5, 20, (0, 5)),
        (4, 9, 4, (2, 7)),
        (3, 8, 0, (3, 4)),
    ],
)
def test_window_bounds(position, length, window, expected):
    assert window_bounds(position, length, window) == expected


@given(st.integers(1, 60), st.data())
def test_window_always_contains_its_position(length, data):
    position = data.draw(st.integers(0, length - 1))
    window = data.draw(st.integers(0, 40))
    lo, hi = window_bounds(position, length, window)
    assert 0 <= lo <= position < hi <= length
    assert hi - lo <= window + 1


def test_a_negative_window_is_named():
    ds = SupersenseDataset([[("the", "O"), ("dog", "noun.animal")]])
    cfg = TrainConfig(d=4, d_h=3, seed=6)
    enc, head = init_model(cfg, 3, 2)
    ckpt = Checkpoint({}, vocab_of(["dog"]), enc, head, labels=["noun.animal", "O"])
    for call in (lambda: window_bounds(1, 2, -1),
                 lambda: supersense_instances(ds, ckpt.src_vocab, ckpt.labels, window=-1),
                 lambda: predict_tags(ckpt, ["the", "dog"], window=-2),
                 lambda: evaluate_supersense(ckpt, ds, window=-1)):
        with pytest.raises(ValueError, match=r"supersense window -\d is negative"):
            call()


def test_instances_are_windows_with_rebased_positions():
    ds = SupersenseDataset(
        [[("the", "O"), ("dog", "noun.animal"), ("ran", "verb.motion")]]
    )
    vocab = vocab_of(["dog", "ran"])
    labels = ["O", "noun.animal", "verb.motion"]
    insts = supersense_instances(ds, vocab, labels, window=2)
    assert len(insts) == 3
    assert insts[0].source_ids == [0, 1] and insts[0].position_t == 0 and insts[0].target_id == 0
    assert insts[1].source_ids == [0, 1, 2] and insts[1].position_t == 1 and insts[1].target_id == 1
    assert insts[2].source_ids == [1, 2] and insts[2].position_t == 1 and insts[2].target_id == 2


def test_skip_unlabeled_drops_O_tokens():
    ds = SupersenseDataset(
        [[("the", "O"), ("dog", "noun.animal"), ("ran", "verb.motion")]]
    )
    insts = supersense_instances(ds, vocab_of(["dog"]), ["O", "noun.animal", "verb.motion"],
                                 window=2, skip_unlabeled=True)
    assert [i.target_id for i in insts] == [1, 2]


def test_unknown_gold_label_is_a_data_error():
    ds = SupersenseDataset([[("x", "verb.motion")]])
    with pytest.raises(DataError, match="verb.motion"):
        supersense_instances(ds, vocab_of([]), ["O", "noun.animal"])


# ---------------------------------------------------------------- scoring


def test_aggregate_scores_match_the_hand_computation():
    A, B, O = "noun.act", "noun.food", "O"
    pairs = [(A, A), (A, A), (A, B), (B, A), (B, B), (O, A), (O, O)]
    s = aggregate_scores(pairs, [A, B])
    byname = {c.label: c for c in s.per_class}
    assert [c.label for c in s.per_class] == [A, B]
    assert byname[A].support == 3 and byname[B].support == 2
    assert byname[A].precision == pytest.approx(1 / 2, rel=1e-12)
    assert byname[A].recall == pytest.approx(2 / 3, rel=1e-12)
    assert byname[A].f1 == pytest.approx(4 / 7, rel=1e-12)
    assert byname[B].precision == pytest.approx(1 / 2, rel=1e-12)
    assert byname[B].recall == pytest.approx(1 / 2, rel=1e-12)
    assert byname[B].f1 == pytest.approx(1 / 2, rel=1e-12)
    assert s.precision == pytest.approx(1 / 2, rel=1e-12)
    assert s.recall == pytest.approx(3 / 5, rel=1e-12)
    assert s.f1 == pytest.approx(19 / 35, rel=1e-12)
    assert s.accuracy == pytest.approx(3 / 5, rel=1e-12)


def test_perfect_predictions_score_one():
    pairs = [("a", "a"), ("b", "b"), ("O", "O"), ("a", "a")]
    s = aggregate_scores(pairs, ["a", "b"])
    assert s.precision == s.recall == s.f1 == s.accuracy == 1.0


def test_no_labeled_tokens_scores_zero():
    s = aggregate_scores([("O", "O"), ("O", "a")], ["a"])
    assert s.precision == s.recall == s.f1 == s.accuracy == 0.0
    assert s.per_class == []


def test_gold_label_outside_inventory_is_rejected():
    with pytest.raises(DataError, match="mystery"):
        aggregate_scores([("mystery", "a")], ["a"])


@given(
    st.lists(
        st.tuples(st.sampled_from(["O", "a", "b"]), st.sampled_from(["O", "a", "b"])),
        max_size=40,
    )
)
def test_f1_is_the_harmonic_mean_of_precision_and_recall(pairs):
    s = aggregate_scores(pairs, ["a", "b"])
    for c in s.per_class:
        if c.precision + c.recall > 0:
            expected = 2 * c.precision * c.recall / (c.precision + c.recall)
            assert c.f1 == pytest.approx(expected, rel=1e-12)
        else:
            assert c.f1 == 0.0


# ---------------------------------------------------------------- tagging


def rigged_checkpoint(labels, favored):
    """A checkpoint whose head always predicts labels[favored]."""
    cfg = TrainConfig(d=4, d_h=3)
    enc, head = init_model(cfg, 5, len(labels))
    head.projection[:] = 0.0
    head.bias[:] = 0.0
    head.bias[favored] = 5.0
    return Checkpoint({}, vocab_of(["dog", "cat"]), enc, head, labels=labels)


def test_always_predicting_the_class_gives_known_scores():
    ckpt = rigged_checkpoint(["O", "noun.act"], favored=1)
    ds = SupersenseDataset(
        [[("a", "O"), ("b", "O"), ("c", "noun.act"), ("d", "O"), ("e", "noun.act")]]
    )
    s = evaluate_supersense(ckpt, ds)
    assert s.accuracy == 1.0
    assert s.recall == 1.0
    assert s.precision == pytest.approx(2 / 5, rel=1e-12)
    assert s.f1 == pytest.approx(4 / 7, rel=1e-12)


def test_predict_tags_returns_one_known_label_per_token():
    cfg = TrainConfig(d=4, d_h=3, seed=6)
    enc, head = init_model(cfg, 5, 3)
    ckpt = Checkpoint({}, vocab_of(["dog", "cat"]), enc, head, labels=["O", "x", "y"])
    tags = predict_tags(ckpt, ["dog", "cat", "emu", "dog"])
    assert len(tags) == 4
    assert all(t in {"O", "x", "y"} for t in tags)


def test_tokens_outside_the_window_cannot_change_a_prediction():
    cfg = TrainConfig(d=4, d_h=3, seed=2)
    enc, head = init_model(cfg, 6, 3)
    vocab = Vocabulary([("<unk>", 0)] + [(f"t{k}", 2) for k in range(5)])
    ckpt = Checkpoint({}, vocab, enc, head, labels=["O", "x", "y"])
    base = ["t0", "t1", "t2", "t3", "t4", "t0", "t1", "t2", "t3", "t4", "t0", "t1"]
    changed = base[:-1] + ["t4"]
    before = predict_tags(ckpt, base, window=4)
    after = predict_tags(ckpt, changed, window=4)
    assert before[:9] == after[:9]  # position 8 sees tokens 6..10 only
