"""The batched read path of the transfer tasks against one-sentence lstm_step oracles.

Supersense windows, substituted lexsub sentences and feature queries are
scanned in blocks of NLL_BLOCK instances, each direction as a prefix tree
that scans every shared prefix once. Every reader, and training, rejects a
source or target id outside the model the same way.
"""

import math

import numpy as np
import pytest

from wicrep import tasks
from wicrep.corpus import TranslationInstance, Vocabulary
from wicrep.model import (
    MIN_PRODUCT_ROWS,
    NLL_BLOCK,
    _pack,
    _token_products,
    batch_nll,
    context_vectors,
    encode_bidirectional,
    loss_and_gradients,
    lstm_step,
    predicted_labels,
)
from wicrep.tasks import (
    FeatureQuery,
    LexsubItem,
    SupersenseDataset,
    evaluate_supersense,
    export_translation_features,
    lexsub_predict,
    predict_tags,
    rank_candidates,
    window_bounds,
)
from wicrep.train import Checkpoint, TrainConfig, init_model

MODES = [{}, {"peephole": "diagonal"}, {"forward_only": True}]
WORDS = [f"w{k}" for k in range(9)]


def vocab_of(words):
    return Vocabulary([("<unk>", 0)] + [(w, 5) for w in words])


def checkpoint(seed=0, n_labels=5, translation=False, **mode):
    src = vocab_of(WORDS)
    cfg = TrainConfig(d=4, d_h=3, seed=seed, **mode)
    if translation:
        tgt = vocab_of([f"T{k}" for k in range(n_labels - 1)])
        enc, head = init_model(cfg, len(src), len(tgt))
        return Checkpoint({}, src, enc, head, tgt_vocab=tgt)
    enc, head = init_model(cfg, len(src), n_labels)
    return Checkpoint({}, src, enc, head, labels=[f"L{k}" for k in range(n_labels)])


def oracle_encode(enc, ids):
    """Context vectors from lstm_step, one token at a time in each direction."""
    xs = enc.embeddings[np.asarray(ids, dtype=np.intp)]

    def run(params, seq):
        h = c = np.zeros(params.hidden_size)
        out = []
        for x in seq:
            h, c = lstm_step(params, x, h, c)
            out.append(h)
        return np.array(out)

    fwd = run(enc.forward, xs)
    return fwd if enc.backward is None else np.hstack([fwd, run(enc.backward, xs[::-1])[::-1]])


def oracle_log_probs(head, h):
    z = head.projection @ h + head.bias
    top = z.max()
    return z - top - math.log(np.exp(z - top).sum())


def oracle_tags(ckpt, tokens, window):
    ids = [ckpt.src_vocab.id(tok) for tok in tokens]
    labels = ckpt.label_names()
    tags = []
    for pos in range(len(ids)):
        lo, hi = window_bounds(pos, len(ids), window)
        h = oracle_encode(ckpt.encoder, ids[lo:hi])[pos - lo]
        tags.append(labels[int(np.argmax(oracle_log_probs(ckpt.head, h)))])
    return tags


def random_sentences(rng, n, max_len=9):
    return [[WORDS[int(k)] for k in rng.integers(0, len(WORDS), size=int(rng.integers(1, max_len + 1)))]
            for _ in range(n)]


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


# ---------------------------------------------------------------- context vectors


@pytest.mark.parametrize("mode", MODES)
def test_context_vectors_match_the_step_oracle_across_blocks(mode):
    ckpt = checkpoint(seed=1, **mode)
    rng = np.random.default_rng(1)
    instances = []
    for tokens in random_sentences(rng, NLL_BLOCK + 40):
        ids = [ckpt.src_vocab.id(tok) for tok in tokens]
        instances.append((ids, int(rng.integers(0, len(ids)))))
    got = context_vectors(ckpt.encoder, instances)
    assert got.shape == (len(instances), ckpt.encoder.output_dim)
    want = np.array([oracle_encode(ckpt.encoder, ids)[pos] for ids, pos in instances])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert context_vectors(ckpt.encoder, []).shape == (0, ckpt.encoder.output_dim)


# ---------------------------------------------------------------- input products


def product_case(d, seed):
    rng = np.random.default_rng(seed)
    return rng, rng.normal(scale=0.08, size=(400, d)), rng.normal(scale=0.1, size=(4 * d, d))


def assert_same_product(table, ids, w):
    ids = np.asarray(ids, dtype=np.intp)
    products, inverse = _token_products(table, ids, w)
    assert len(products) <= max(len(np.unique(ids)), MIN_PRODUCT_ROWS)
    assert products[inverse].tobytes() == (table[ids] @ w.T).tobytes()


@pytest.mark.parametrize("d", [8, 32, 300])
def test_distinct_token_products_have_the_bits_of_the_per_row_product(d):
    rng, table, w = product_case(d, d)
    for n in (2, 3, 9, 10, 11, 37, 63, 64, 65, 130, 700):
        for distinct in sorted({1, 2, max(1, n // 7), min(n, 80), min(n, len(table))}):
            pool = rng.choice(len(table), size=distinct, replace=False)
            assert_same_product(table, rng.choice(pool, size=n), w)


@pytest.mark.parametrize("d", [8, 32, 300])
def test_one_token_products_have_the_bits_of_the_per_row_product(d):
    _, table, w = product_case(d, d + 1)
    for n in (1, 2, 5, 9, 10, 64, 65, 300):  # n = 1 is a one-row block
        assert_same_product(table, np.full(n, 17), w)


@pytest.mark.parametrize("n", [12, 70])
def test_supersense_windows_take_one_input_product_per_distinct_token(n):
    enc, head = init_model(TrainConfig(d=6, d_h=4, seed=9), 300, 5)
    rng = np.random.default_rng(n)
    ids = [int(k) for k in rng.integers(1, 300, size=n)]
    windows = []
    for pos in range(n):
        lo, hi = window_bounds(pos, n, 20)
        windows.append((ids[lo:hi], pos - lo))
    product_rows = []

    class CountingTable(np.ndarray):
        """The embedding table; the read path indexes it only to take the input products."""

        def __getitem__(self, index):
            product_rows.append(len(index))
            return np.asarray(self)[index]

    plain = enc.embeddings
    enc.embeddings = plain.view(CountingTable)
    got = context_vectors(enc, windows)
    enc.embeddings = plain
    scan_rows = [sum(sizes) for sizes in _pack(windows).sizes]
    assert len(product_rows) == 2 and min(scan_rows) > n  # one block, both directions
    assert max(product_rows) <= max(n, MIN_PRODUCT_ROWS)
    want = np.array([oracle_encode(enc, w_ids)[pos] for w_ids, pos in windows])
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------- supersense


@pytest.mark.parametrize("mode", MODES)
def test_batched_tagging_matches_the_per_sentence_oracle(mode):
    ckpt = checkpoint(seed=2, n_labels=6, **mode)
    rng = np.random.default_rng(2)
    tokens = [tok for sent in random_sentences(rng, 60, max_len=12) for tok in sent]
    assert len(tokens) > 2 * NLL_BLOCK  # one sentence, three blocks of windows
    assert predict_tags(ckpt, tokens, window=4) == oracle_tags(ckpt, tokens, window=4)


def test_evaluate_supersense_agrees_with_predict_tags_across_blocks():
    ckpt = checkpoint(seed=3, n_labels=4)
    ckpt.labels = ["O", "L1", "L2", "L3"]
    rng = np.random.default_rng(3)
    sentences = random_sentences(rng, 60, max_len=10)
    assert sum(map(len, sentences)) > NLL_BLOCK
    # gold = the per-sentence tags, so a batched pass that agrees scores 1.0
    gold = [predict_tags(ckpt, tokens, window=6) for tokens in sentences]
    assert gold == [oracle_tags(ckpt, tokens, window=6) for tokens in sentences]
    dataset = SupersenseDataset([list(zip(tokens, tags)) for tokens, tags in zip(sentences, gold)])
    scores = evaluate_supersense(ckpt, dataset, window=6)
    assert scores.accuracy == 1.0
    assert scores.recall == 1.0
    assert scores.precision == 1.0


def test_repeated_windows_tag_alike():
    ckpt = checkpoint(seed=4)
    tokens = ["w1", "w2", "w3"] * 50  # most windows of width 4 repeat
    tags = predict_tags(ckpt, tokens, window=4)
    assert tags == oracle_tags(ckpt, tokens, window=4)
    assert tags[2:-5] == tags[5:-2]  # period 3 away from the edges
    assert predict_tags(ckpt, ["w1", "w1", "w1"], window=0) == [predict_tags(ckpt, ["w1"])[0]] * 3


def test_predict_tags_of_nothing_is_nothing():
    ckpt = checkpoint()
    assert predict_tags(ckpt, []) == []
    scores = evaluate_supersense(ckpt, SupersenseDataset([]))
    assert scores.per_class == [] and scores.accuracy == 0.0


# ---------------------------------------------------------------- export


@pytest.mark.parametrize("mode", MODES)
def test_batched_export_matches_the_per_query_oracle(mode):
    ckpt = checkpoint(seed=5, n_labels=12, translation=True, **mode)
    rng = np.random.default_rng(5)
    queries = []
    for tokens in random_sentences(rng, 60):
        for pos in rng.choice(len(tokens), size=min(3, len(tokens)), replace=False):
            target = f"T{int(rng.integers(0, 13))}"  # T11 and T12 are out of vocabulary
            queries.append(FeatureQuery(tokens, int(pos), target))
    queries += queries[:5]  # repeated queries
    assert len(queries) > NLL_BLOCK
    records = export_translation_features(ckpt, queries)
    assert len(records) == len(queries)
    for q, rec in zip(queries, records):
        ids = [ckpt.src_vocab.id(tok) for tok in q.sentence]
        log_p = oracle_log_probs(ckpt.head, oracle_encode(ckpt.encoder, ids)[q.position])
        want = log_p[ckpt.tgt_vocab.id(q.target_word)]
        assert rec.log_p == pytest.approx(want, abs=1e-12)
        assert rec.p == pytest.approx(math.exp(want), abs=1e-12)
        assert rec.oov == (q.target_word not in ckpt.tgt_vocab.id_of)
        assert (rec.source_word, rec.target_word) == (q.sentence[q.position], q.target_word)


def test_export_of_nothing_is_nothing():
    assert export_translation_features(checkpoint(translation=True), []) == []


# ---------------------------------------------------------------- lexsub: substituted instances

SENTENCES = [["w3"], ["w1", "w4"], ["w0", "w5", "w6", "w7", "w1", "w2", "w3"]]
CANDIDATES = [("w8", 4), ("w2", 3), ("w5", 3), ("w1", 1), ("zzz", 1)]  # zzz is <unk>


def substituted(ids, position, sub):
    return list(ids[:position]) + [sub] + list(ids[position + 1 :])


def oracle_similarities(ckpt, ids, position, ranked):
    h0 = oracle_encode(ckpt.encoder, ids)[position]
    sims = []
    for cand in ranked:
        sub = list(ids)
        sub[position] = ckpt.src_vocab.id(cand)
        sims.append(cosine(h0, oracle_encode(ckpt.encoder, sub)[position]))
    return sims


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tokens", SENTENCES, ids=lambda s: f"len{len(s)}")
def test_incremental_lexsub_matches_full_re_encodes(mode, tokens):
    ckpt = checkpoint(seed=6, **mode)
    ids = [ckpt.src_vocab.id(tok) for tok in tokens]
    ranked = rank_candidates(CANDIDATES)
    for position in sorted({0, len(ids) // 2, len(ids) - 1}):
        subs = [ids[position]] + [ckpt.src_vocab.id(c) for c in ranked]
        got = context_vectors(ckpt.encoder, [(substituted(ids, position, sub), position) for sub in subs])
        want = [oracle_encode(ckpt.encoder, substituted(ids, position, sub))[position] for sub in subs]
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

        sims = oracle_similarities(ckpt, ids, position, ranked)
        got_sims = [cosine(got[0], h) for h in got[1:]]
        assert np.max(np.abs(np.array(got_sims) - sims)) <= 1e-12
        item = LexsubItem("t", tokens[position], "n", position, list(tokens))
        assert lexsub_predict(ckpt, item, CANDIDATES) == ranked[int(np.argmax(sims))]


def test_candidates_with_equal_embeddings_share_one_substituted_instance(monkeypatch):
    ckpt = checkpoint(seed=7)
    emb = ckpt.encoder.embeddings
    emb[ckpt.src_vocab.id("w5")] = emb[ckpt.src_vocab.id("w4")]
    read = []
    monkeypatch.setattr(tasks, "context_vectors", lambda enc, insts: read.append(insts) or context_vectors(enc, insts))
    item = LexsubItem("eq", "w3", "n", 2, ["w1", "w2", "w3", "w4"])
    # ranked qqa, qqb, w3, w4, w5: qqa and qqb are both <unk>, w3 is the target, w4 and w5 share a row
    assert lexsub_predict(ckpt, item, ["w5", "w4", "qqa", "qqb", "w3"]) in {"qqa", "w3", "w4"}
    assert [[ids[2] for ids, _ in insts] for insts in read] == [[ckpt.src_vocab.id(w) for w in ("w3", "<unk>", "w4")]]


def test_substitutes_sharing_an_id_tie_exactly_and_rank_decides():
    ckpt = checkpoint(seed=7)
    ids = [ckpt.src_vocab.id(tok) for tok in ["w1", "w2", "w3", "w4"]]
    got = context_vectors(ckpt.encoder, [(substituted(ids, 2, sub), 2) for sub in [ids[2], 0, ids[2], 0]])
    assert np.array_equal(got[0], got[2]) and np.array_equal(got[1], got[3])
    item = LexsubItem("oov", "w3", "n", 2, ["w1", "w2", "w3", "w4"])
    # both map to <unk>: the one with the higher count wins, then the earlier word
    assert lexsub_predict(ckpt, item, [("qqa", 1), ("qqb", 5)]) == "qqb"
    assert lexsub_predict(ckpt, item, [("qqb", 2), ("qqa", 2)]) == "qqa"


# ---------------------------------------------------------------- trimmed scans

# Repeated sentences read at different positions, t = 0 and t = n - 1 among them.
TRIMMED = [
    ([0, 5, 6, 7, 1, 2, 3], 2), ([0, 5, 6, 7, 1, 2, 3], 4),
    ([4, 1, 2], 0), ([4, 1, 2], 0),
    ([3, 3, 5, 1], 3),
    ([6], 0),
    ([2, 4, 6, 7, 1], 1), ([2, 4, 6, 7, 1], 4),
]


def test_each_direction_scans_only_up_to_the_positions_it_reads():
    first, last = {}, {}
    for ids, pos in TRIMMED:
        first[tuple(ids)] = min(pos, first.get(tuple(ids), pos))
        last[tuple(ids)] = max(pos, last.get(tuple(ids), pos))
    pk = _pack(TRIMMED)
    assert sum(map(len, last)) == 20  # the rows of each direction's untrimmed scan
    assert sum(pk.sizes[0]) == sum(t + 1 for t in last.values()) == 16
    # [3, 3, 5, 1] read at 3 and [2, 4, 6, 7, 1] read at 4 share the backward row of token 1
    assert sum(pk.sizes[1]) == sum(len(s) - t for s, t in first.items()) - 1 == 13
    for q in range(2):
        assert pk.sizes[q] == sorted(pk.sizes[q], reverse=True)
        assert len(pk.ids[q]) == sum(pk.sizes[q])
        assert [int(i) for i in pk.ids[q][pk.rows[q]]] == [ids[pos] for ids, pos in TRIMMED]
    forward_only = _pack(TRIMMED, bidirectional=False)
    assert forward_only.sizes == pk.sizes[:1] and len(forward_only.ids) == len(forward_only.rows) == 1


def supersense_windows(lengths, window=20):
    """Every token's window of sentences of these lengths; no id repeats, so rows are shared
    only where windows of one sentence overlap."""
    out, base = [], 0
    for n in lengths:
        ids = list(range(base, base + n))
        base += n
        for pos in range(n):
            lo, hi = window_bounds(pos, n, window)
            out.append((ids[lo:hi], pos - lo))
    return out


def test_windows_of_one_sentence_scan_one_row_per_distinct_prefix():
    pk = _pack(supersense_windows([21]))
    # The 11 windows that start at token 0 read nested prefixes of one scan, the 10 others 11
    # steps each; scanned alone, the windows would take 1 + 2 + ... + 11 + 10 * 11 rows.
    assert sum(pk.sizes[0]) == 11 + 10 * 11 == 121 < sum(range(1, 12)) + 10 * 11 == 176
    assert sum(pk.sizes[1]) == 121  # the mirror image
    assert all(up is None for ups in pk.parents for up in ups)  # no row branches


@pytest.mark.parametrize("lengths,rows,alone", [((20, 30, 40), 660, 815), ((32,), 242, 297)])
def test_supersense_windows_share_their_prefixes(lengths, rows, alone):
    """The benchmark's supersense evaluation (20, 30 and 40 tokens) and its fine-tuning batch
    (one 32-token sentence), window 20: the rows each direction scans, against one scan per
    distinct window. Real sentences also share the prefixes of repeated words, and so scan
    fewer rows than these."""
    instances = supersense_windows(lengths)
    pk = _pack(instances)
    assert [sum(sizes) for sizes in pk.sizes] == [rows, rows]
    first, last = {}, {}  # of each distinct window (a short sentence has one window twice)
    for ids, pos in instances:
        key = tuple(ids)
        first[key], last[key] = min(pos, first.get(key, pos)), max(pos, last.get(key, pos))
    assert sum(t + 1 for t in last.values()) == sum(len(s) - t for s, t in first.items()) == alone


@pytest.mark.parametrize("mode", MODES)
def test_sentences_that_share_a_first_token_branch_at_step_1(mode):
    instances = [([1, 2, 3], 2), ([1, 4, 5], 2), ([6, 2, 3], 2)]
    pk = _pack(instances)
    assert pk.sizes[0] == [2, 3, 3]  # (1) and (6); (1, 2), (1, 4) and (6, 2); then one each
    assert pk.parents[0][0] is None and pk.parents[0][2] is None
    assert pk.parents[0][1].tolist() == [0, 0, 1]
    assert pk.sizes[1] == [2]  # [1, 2, 3] and [6, 2, 3] read the backward scan of [3] alike
    ckpt = checkpoint(seed=9, **mode)
    got = context_vectors(ckpt.encoder, instances)
    want = np.array([oracle_encode(ckpt.encoder, ids)[pos] for ids, pos in instances])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ids,pos", [([1, 2, 3], 3), ([1, 2, 3], -1), ([], 0)])
def test_a_position_outside_its_sentence_is_rejected(mode, ids, pos):
    enc = checkpoint(**mode).encoder
    message = rf"instance 1: position {pos} outside sentence of length {len(ids)}"
    with pytest.raises(ValueError, match=message):
        context_vectors(enc, [([4, 5], 1), (ids, pos)])


@pytest.mark.parametrize("mode", MODES)
def test_trimmed_context_vectors_match_the_step_oracle(mode):
    ckpt = checkpoint(seed=8, **mode)
    got = context_vectors(ckpt.encoder, TRIMMED)
    want = np.array([oracle_encode(ckpt.encoder, ids)[pos] for ids, pos in TRIMMED])
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------- id checks


def export_ids(ckpt, ids, target):
    """export_translation_features on one query read at position 1 whose words have ids
    and whose target word has id target, whatever the vocabularies would give."""
    ckpt.src_vocab.id_of.update({f"x{i}": i for i in ids})
    ckpt.tgt_vocab.id_of["X"] = target
    return export_translation_features(ckpt, [FeatureQuery([f"x{i}" for i in ids], 1, "X")])


def lexsub_ids(ckpt, ids, target):
    """lexsub_predict on one item read at position 1 whose words have ids, with candidates w1 and w2."""
    ckpt.src_vocab.id_of.update({f"x{i}": i for i in ids})
    return lexsub_predict(ckpt, LexsubItem("x", "x", "n", 1, [f"x{i}" for i in ids]), ["w1", "w2"])


# Each reader on one instance: the sentence ids read at position 1, with target id target.
READERS = {
    "context_vectors": lambda c, ids, target: context_vectors(c.encoder, [(ids, 1)]),
    "encode_bidirectional": lambda c, ids, target: encode_bidirectional(c.encoder, ids),
    "predicted_labels": lambda c, ids, target: predicted_labels(c.encoder, c.head, [(ids, 1)]),
    "batch_nll": lambda c, ids, target: batch_nll(c.encoder, c.head, [TranslationInstance(ids, 1, target)]),
    "export_translation_features": export_ids,
    "lexsub_predict": lexsub_ids,
    "loss_and_gradients": lambda c, ids, target: loss_and_gradients(
        c.encoder, c.head, [TranslationInstance(ids, 1, target)]),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", [-1, len(WORDS) + 1, 10**6])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_rejects_a_source_id_outside_the_embedding_table(mode, bad, reader):
    """The id sits after the position read, where a forward-only scan never reaches."""
    ckpt = checkpoint(translation=True, **mode)
    READERS[reader](ckpt, [1, 2, 3, 4], 1)  # in range: no error
    with pytest.raises(ValueError, match=rf"^source id {bad} outside \[0, {len(WORDS) + 1}\)$"):
        READERS[reader](ckpt, [1, 2, 3, bad], 1)


@pytest.mark.parametrize("bad", [-1, 5, 10**6])
@pytest.mark.parametrize("reader", ["batch_nll", "export_translation_features", "loss_and_gradients"])
def test_every_scorer_rejects_a_target_id_outside_the_head(bad, reader):
    ckpt = checkpoint(translation=True, n_labels=5)
    with pytest.raises(ValueError, match=rf"^target id {bad} outside \[0, 5\)$"):
        READERS[reader](ckpt, [1, 2, 3, 4], bad)


def test_a_substitute_outside_the_embedding_table_is_rejected():
    ckpt = checkpoint()
    ckpt.src_vocab.id_of["far"] = 10
    item = LexsubItem("t", "w1", "n", 1, ["w0", "w1", "w2"])
    with pytest.raises(ValueError, match=r"^source id 10 outside \[0, 10\)$"):
        lexsub_predict(ckpt, item, ["w2", "far"])
