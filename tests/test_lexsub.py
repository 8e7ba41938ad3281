"""Candidate generation, lexsub parsing, ranking, prediction, and scoring."""

import itertools

import pytest

from wicrep.corpus import ParallelSentencePair, Vocabulary
from wicrep.errors import DataError, ScoringError
from wicrep.synthdata import MONEY_SYNONYM, RIVER_SYNONYM
from wicrep.tasks import (
    LexsubItem,
    alignment_cooccurrence,
    build_candidate_table,
    lexsub_predict,
    lexsub_score,
    load_candidate_table,
    parse_lexsub_gold,
    parse_lexsub_items,
    rank_candidates,
    save_candidate_table,
)
from wicrep.train import Checkpoint, TrainConfig, init_model


# ---------------------------------------------------------------- counts


def test_cooccurrence_counts_links():
    pairs = [
        ParallelSentencePair(["a", "b"], ["X", "Y"], 0),
        ParallelSentencePair(["b", "a"], ["Y"], 1),
    ]
    aligns = [{(0, 0), (1, 1)}, {(0, 0), (1, 0)}]
    counts = alignment_cooccurrence(pairs, aligns)
    assert counts == {("a", "X"): 1, ("b", "Y"): 2, ("a", "Y"): 1}


def test_cooccurrence_rejects_out_of_bounds_links():
    pairs = [ParallelSentencePair(["a"], ["X"], 7)]
    with pytest.raises(DataError, match="pair 7"):
        alignment_cooccurrence(pairs, [{(0, 1)}])


def test_cooccurrence_rejects_unequal_pair_and_alignment_counts():
    pairs = [
        ParallelSentencePair(["a"], ["X"], 0),
        ParallelSentencePair(["b"], ["Y"], 1),
    ]
    with pytest.raises(DataError, match="2 sentence pairs but 1 alignment sets"):
        alignment_cooccurrence(pairs, [{(0, 0)}])
    with pytest.raises(DataError, match="1 sentence pairs but 2 alignment sets"):
        alignment_cooccurrence(iter(pairs[:1]), iter([{(0, 0)}, {(0, 0)}]))


# ---------------------------------------------------------------- candidates


def test_candidate_mass_cutoff():
    counts = {("w", "T"): 900, ("a", "T"): 70, ("b", "T"): 20, ("c", "T"): 9, ("d", "T"): 1}
    table = build_candidate_table(counts, 0.9)
    assert table["w"] == [("a", 70), ("b", 20)]


def test_candidate_threshold_one_keeps_everything():
    counts = {("w", "T"): 900, ("a", "T"): 70, ("b", "T"): 20, ("c", "T"): 9, ("d", "T"): 1}
    table = build_candidate_table(counts, 1.0)
    assert table["w"] == [("a", 70), ("b", 20), ("c", 9), ("d", 1)]


def test_target_word_is_removed_before_the_mass_computation():
    # keeping "w" in the denominator would pull in "c" as well
    counts = {("w", "T"): 900, ("a", "T"): 70, ("b", "T"): 20, ("c", "T"): 10}
    table = build_candidate_table(counts, 0.9)
    assert table["w"] == [("a", 70), ("b", 20)]


def test_candidates_pool_over_all_pivot_translations():
    counts = {
        ("w", "T1"): 5, ("w", "T2"): 3,
        ("x", "T1"): 4, ("x", "T2"): 1,
        ("y", "T2"): 6,
    }
    assert build_candidate_table(counts, 1.0)["w"] == [("y", 6), ("x", 5)]
    assert build_candidate_table(counts, 0.5)["w"] == [("y", 6)]


def test_candidate_ties_break_lexicographically():
    counts = {("w", "T"): 1, ("beta", "T"): 4, ("alpha", "T"): 4}
    assert build_candidate_table(counts, 1.0)["w"] == [("alpha", 4), ("beta", 4)]


def test_words_without_candidates_get_no_entry():
    counts = {("loner", "T"): 3}  # T aligns only back to loner
    table = build_candidate_table(counts, 0.9)
    assert "loner" not in table
    assert build_candidate_table({}, 0.9) == {}


def test_targets_argument_restricts_the_table():
    counts = {("w", "T"): 2, ("x", "T"): 3, ("y", "T"): 4}
    table = build_candidate_table(counts, 1.0, targets=["x"])
    assert set(table) == {"x"}
    assert table["x"] == [("y", 4), ("w", 2)]
    assert build_candidate_table(counts, 1.0, targets=["absent"]) == {}


@pytest.mark.parametrize("threshold", [0.0, -0.2, 1.5])
def test_bad_mass_threshold_is_rejected(threshold):
    with pytest.raises(ValueError):
        build_candidate_table({("a", "T"): 1}, threshold)


def test_candidate_table_roundtrips_through_tsv(tmp_path):
    table = {"w": [("a", 70), ("b", 20)], "v": [("c", 3)]}
    path = tmp_path / "cands.tsv"
    save_candidate_table(path, table)
    assert load_candidate_table(path) == table


@pytest.mark.parametrize("body", ["w\ta\n", "w\ta\tmany\n"])
def test_candidate_table_load_rejects_bad_lines(tmp_path, body):
    path = tmp_path / "bad.tsv"
    path.write_text(body)
    with pytest.raises(DataError, match="line 1"):
        load_candidate_table(path)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_candidate_table_load_rejects_counts_below_one(tmp_path, count):
    path = tmp_path / "bad.tsv"
    path.write_text(f"w\ta\t5\nw\tb\t{count}\n")
    with pytest.raises(DataError, match=f"line 2: count {count} is not positive"):
        load_candidate_table(path)


def test_candidate_table_load_names_both_lines_of_a_repeated_pair(tmp_path):
    path = tmp_path / "cands.tsv"
    path.write_text("bank\ttreasury\t5\nbank\tbrook\t4\n\nbank\ttreasury\t3\n")
    with pytest.raises(DataError, match=f"^{path}: line 4: candidate 'treasury' of 'bank' repeats line 1$"):
        load_candidate_table(path)


# ---------------------------------------------------------------- parsing


def test_parse_items_basic_and_dotted_lemma():
    text = (
        "i1\tbright.a\t2\tthe very bright star\n"
        "i2\toff.the.wall.n\t0\tzany idea\n"
    )
    items = parse_lexsub_items(text)
    assert items[0].item_id == "i1"
    assert items[0].lemma == "bright" and items[0].pos == "a"
    assert items[0].position == 2
    assert items[0].sentence == ["the", "very", "bright", "star"]
    assert items[1].lemma == "off.the.wall" and items[1].pos == "n"


@pytest.mark.parametrize(
    "text,marker",
    [
        ("i1\tbright.a\t2\n", "line 1"),
        ("i1\tbright\t0\tok then\n", "lemma.pos"),
        ("i1\tbright.a\ttwo\tok then\n", "bad position"),
        ("i1\tbright.a\t9\tok then\n", "position 9"),
    ],
)
def test_parse_items_rejects_malformed_lines(text, marker):
    with pytest.raises(DataError, match=marker):
        parse_lexsub_items(text)


def test_parse_items_names_the_line_of_a_position_outside_the_sentence():
    with pytest.raises(DataError, match="line 3: item i2: position 2 outside sentence of length 2"):
        parse_lexsub_items("i1\tbright.a\t0\tok then\n\ni2\tbright.a\t2\tok then\n")


def test_parse_items_names_both_lines_of_a_repeated_item_id():
    with pytest.raises(DataError, match="line 4: item id 'i1' repeats line 1"):
        parse_lexsub_items("i1\tbright.a\t0\tok then\ni2\tbright.a\t1\tok then\n\ni1\tdim.a\t0\tso dim\n")


def test_parse_gold_names_both_lines_of_a_repeated_item_id():
    with pytest.raises(DataError, match="line 3: item id 'i2' repeats line 2"):
        parse_lexsub_gold("i1\tcar 3\ni2\tauto 1\ni2\tcar 2\n")


def test_parse_gold_supports_multiword_substitutes():
    gold = parse_lexsub_gold("i1\tcar 3; automobile 2; a lot 1\n")
    assert gold == {"i1": [("car", 3), ("automobile", 2), ("a lot", 1)]}


@pytest.mark.parametrize(
    "text,marker",
    [
        ("i1\t ; \n", "empty gold"),
        ("i1\tcar\n", "bad"),
        ("i1\tcar x\n", "bad"),
        ("i1 car 3\n", "expected"),
    ],
)
def test_parse_gold_rejects_malformed_lines(text, marker):
    with pytest.raises(DataError, match=marker):
        parse_lexsub_gold(text)


@pytest.mark.parametrize(
    "text,marker",
    [
        ("a\tfoo 0;bar 0\n", "line 1: count 0 of 'foo'"),  # a zero total would divide by zero
        ("a\tfoo 2\nb\tbaz -2\n", "line 2: count -2 of 'baz'"),  # would score 100%
    ],
)
def test_parse_gold_rejects_counts_below_one(text, marker):
    with pytest.raises(DataError, match=marker):
        parse_lexsub_gold(text)


# ---------------------------------------------------------------- ranking


def test_rank_orders_by_count_then_word():
    assert rank_candidates([("b", 5), ("a", 5), ("c", 9)]) == ["c", "a", "b"]
    assert rank_candidates(["pear", "apple"]) == ["apple", "pear"]
    assert rank_candidates([]) == []


# ---------------------------------------------------------------- prediction


def small_ckpt(seed=0, words=("s0", "s1", "s2", "s3", "x", "y")):
    cfg = TrainConfig(d=5, d_h=4, seed=seed)
    vocab = Vocabulary([("<unk>", 0)] + [(w, 3) for w in words])
    enc, head = init_model(cfg, len(vocab), 4)
    return Checkpoint({}, vocab, enc, head, labels=["a", "b", "c", "d"])


def test_exact_ties_go_to_the_higher_ranked_candidate():
    ckpt = small_ckpt()
    vx, vy = ckpt.src_vocab.id("x"), ckpt.src_vocab.id("y")
    ckpt.encoder.embeddings[vy] = ckpt.encoder.embeddings[vx]  # bitwise tie
    item = LexsubItem("t1", "s1", "n", 1, ["s0", "s1", "s2"])
    assert lexsub_predict(ckpt, item, [("y", 1), ("x", 5)]) == "x"
    assert lexsub_predict(ckpt, item, ["y", "x"]) == "x"


def test_prediction_ignores_candidate_list_order():
    ckpt = small_ckpt(seed=3)
    item = LexsubItem("t2", "s2", "n", 2, ["s0", "s1", "s2", "s3"])
    candidates = [("x", 4), ("y", 2), ("s0", 7), ("s3", 1)]
    preds = {
        lexsub_predict(ckpt, item, list(perm))
        for perm in itertools.permutations(candidates)
    }
    assert len(preds) == 1


def test_single_candidate_is_returned_unconditionally():
    ckpt = small_ckpt()
    item = LexsubItem("t3", "s0", "n", 0, ["s0", "s1"])
    assert lexsub_predict(ckpt, item, [("y", 1)]) == "y"


def test_empty_candidates_are_rejected():
    ckpt = small_ckpt()
    item = LexsubItem("t4", "s0", "n", 0, ["s0"])
    with pytest.raises(ValueError):
        lexsub_predict(ckpt, item, [])


# ---------------------------------------------------------------- scoring


def test_best_score_frozen_example():
    predictions = {"i1": "car"}
    gold = {"i1": [("car", 2), ("auto", 1), ("machine", 1)]}
    best, best_mode = lexsub_score(predictions, gold)
    assert best == 50.0
    assert best_mode == 100.0


def test_tied_modes_leave_the_item_out_of_best_mode():
    predictions = {"i1": "a", "i2": "zzz"}
    gold = {
        "i1": [("a", 2), ("b", 2)],          # tied mode: not counted
        "i2": [("c", 3), ("d", 1)],          # unique mode c, guessed wrong
    }
    best, best_mode = lexsub_score(predictions, gold)
    assert best == pytest.approx(100.0 * (2 / 4 + 0 / 4) / 2)
    assert best_mode == 0.0


def test_no_unique_modes_gives_zero_best_mode():
    best, best_mode = lexsub_score({"i1": "a"}, {"i1": [("a", 1), ("b", 1)]})
    assert best == 50.0
    assert best_mode == 0.0


def test_absent_guess_earns_no_credit():
    best, _ = lexsub_score({"i1": "nope"}, {"i1": [("a", 3), ("b", 1)]})
    assert best == 0.0


def test_scoring_errors():
    with pytest.raises(ScoringError):
        lexsub_score({}, {"i1": [("a", 1)]})
    with pytest.raises(ScoringError, match="i9"):
        lexsub_score({"i9": "a"}, {"i1": [("a", 1)]})


# ---------------------------------------------------------------- end to end


def test_trained_model_prefers_the_same_sense_synonym(homograph_run):
    """Substituting the homograph: the trained encoder should rank the
    synonym matching the sentence's sense above the other one."""
    ckpt = homograph_run.ckpt
    wins = {"money": 0, "river": 0}
    totals = {"money": 0, "river": 0}
    expected = {"money": MONEY_SYNONYM, "river": RIVER_SYNONYM}
    for sent in homograph_run.data.dev:
        item = LexsubItem("d", "bank", "n", sent.amb_position, list(sent.source))
        pred = lexsub_predict(ckpt, item, [MONEY_SYNONYM, RIVER_SYNONYM])
        totals[sent.sense] += 1
        if pred == expected[sent.sense]:
            wins[sent.sense] += 1
    assert totals == {"money": 100, "river": 100}
    assert wins["money"] > 50, wins
    assert wins["river"] > 50, wins
