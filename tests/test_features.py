"""Translation-probability feature export for downstream systems."""

import math

import pytest

from wicrep.corpus import Vocabulary
from wicrep.errors import DataError
from wicrep.tasks import (
    FeatureQuery,
    export_translation_features,
    format_feature_records,
    parse_feature_queries,
)
from wicrep.train import Checkpoint, TrainConfig, init_model


def vocab_of(words):
    return Vocabulary([("<unk>", 0)] + [(w, 5) for w in words])


def translation_ckpt(n_targets=99, seed=0):
    src = vocab_of(["a", "b", "c"])
    tgt = vocab_of([f"T{k}" for k in range(n_targets)])
    enc, head = init_model(TrainConfig(d=4, d_h=3, seed=seed), len(src), len(tgt))
    return Checkpoint({}, src, enc, head, tgt_vocab=tgt)


def test_parse_queries_reads_sentence_position_target():
    qs = parse_feature_queries("the big bank\t2\tBANCO\n\nsmall fry\t0\tPEZ\n")
    assert len(qs) == 2
    assert qs[0].sentence == ["the", "big", "bank"]
    assert qs[0].position == 2
    assert qs[0].target_word == "BANCO"


@pytest.mark.parametrize(
    "text,marker",
    [
        ("a b\t1\n", "line 1"),
        ("a b\tx\tT\n", "bad position"),
        ("a b\t5\tT\n", "line 1"),
        ("ok\t0\tT\na b\t9\tT\n", "line 2"),
    ],
)
def test_parse_queries_rejects_malformed_lines(text, marker):
    with pytest.raises(DataError, match=marker):
        parse_feature_queries(text)


def test_query_position_must_be_inside_the_sentence():
    with pytest.raises(DataError):
        FeatureQuery(["a", "b"], 2, "T")
    with pytest.raises(DataError):
        FeatureQuery(["a"], -1, "T")


def test_uniform_head_exports_exact_uniform_probability():
    ckpt = translation_ckpt()
    ckpt.head.projection[:] = 0.0
    ckpt.head.bias[:] = 0.0
    assert len(ckpt.tgt_vocab) == 100
    records = export_translation_features(ckpt, [FeatureQuery(["a", "b"], 0, "T3")])
    assert records[0].p == 1.0 / 100.0
    assert records[0].log_p == pytest.approx(math.log(0.01), rel=1e-12)
    assert records[0].oov is False


def test_underflowing_probability_exports_a_finite_log_p():
    ckpt = translation_ckpt()
    ckpt.head.projection[:] = 0.0
    ckpt.head.bias[:] = -1000.0
    ckpt.head.bias[ckpt.tgt_vocab.id("T0")] = 0.0
    records = export_translation_features(ckpt, [FeatureQuery(["a", "b"], 1, "T3")])
    assert records[0].p == 0.0
    assert records[0].log_p == pytest.approx(-1000.0, rel=1e-12)


def test_log_p_matches_log_of_p():
    ckpt = translation_ckpt(n_targets=7, seed=3)
    records = export_translation_features(
        ckpt, [FeatureQuery(["b", "c", "a"], 1, "T2"), FeatureQuery(["a"], 0, "T5")]
    )
    for r in records:
        assert 0.0 < r.p < 1.0
        assert r.log_p == pytest.approx(math.log(r.p), rel=1e-12)


def test_oov_target_falls_back_to_unk_and_is_flagged():
    ckpt = translation_ckpt(n_targets=5, seed=1)
    known, unknown = FeatureQuery(["a"], 0, "T1"), FeatureQuery(["a"], 0, "MISSING")
    rec_known, rec_unknown = export_translation_features(ckpt, [known, unknown])
    assert rec_known.oov is False
    assert rec_unknown.oov is True
    unk_rec, = export_translation_features(ckpt, [FeatureQuery(["a"], 0, "<unk>")])
    assert rec_unknown.p == unk_rec.p  # same sentence, same fallback id
    assert unk_rec.oov is False


def test_source_word_column_is_the_surface_form():
    ckpt = translation_ckpt(n_targets=3)
    records = export_translation_features(ckpt, [FeatureQuery(["a", "zzz"], 1, "T0")])
    assert records[0].source_word == "zzz"  # surface kept even when OOV on the source side
    assert records[0].target_word == "T0"


def test_task_checkpoint_cannot_export_features():
    src = vocab_of(["a"])
    enc, head = init_model(TrainConfig(d=4, d_h=3), len(src), 2)
    ckpt = Checkpoint({}, src, enc, head, labels=["O", "x"])
    with pytest.raises(ValueError):
        export_translation_features(ckpt, [FeatureQuery(["a"], 0, "T")])


def test_format_is_five_tsv_columns_with_trailing_newline():
    ckpt = translation_ckpt(n_targets=4, seed=2)
    records = export_translation_features(
        ckpt, [FeatureQuery(["a", "b"], 0, "T1"), FeatureQuery(["c"], 0, "NOPE")]
    )
    text = format_feature_records(records)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 2
    first = lines[0].split("\t")
    assert first[0] == "a" and first[1] == "T1"
    assert float(first[2]) == pytest.approx(records[0].p, rel=1e-11)
    assert float(first[3]) == pytest.approx(records[0].log_p, rel=1e-11)
    assert first[4] == "0"
    assert lines[1].split("\t")[4] == "1"


def test_format_of_nothing_is_empty():
    assert format_feature_records([]) == ""
