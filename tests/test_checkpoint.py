"""Checkpoint serialization: exact roundtrips and corruption detection."""

import hashlib
import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wicrep.train as train_mod
from wicrep.corpus import TranslationInstance, Vocabulary
from wicrep.errors import CheckpointCorruptError, CheckpointFormatError
from wicrep.model import DIRECTION_FIELDS, get_flat_params, param_items, set_flat_params
from wicrep.train import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    TrainConfig,
    init_model,
    load_checkpoint,
    perplexity,
    save_checkpoint,
)


def vocab_of(words):
    return Vocabulary([("<unk>", 0)] + [(w, 5) for w in words])


def fresh_checkpoint(seed=0, labels=None):
    cfg = TrainConfig(d=5, d_h=4, seed=seed)
    src = vocab_of(["alpha", "beta", "gamma"])
    tgt = vocab_of(["UNO", "DOS"]) if labels is None else None
    n = len(tgt) if tgt is not None else len(labels)
    enc, head = init_model(cfg, len(src), n)
    return Checkpoint(
        config={"d": 5, "d_h": 4, "head_kind": "translation" if tgt else "labels"},
        src_vocab=src,
        encoder=enc,
        head=head,
        tgt_vocab=tgt,
        labels=labels,
    )


def test_roundtrip_is_exact_at_float32(tmp_path):
    ckpt = fresh_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    for (name, orig), (name2, back) in zip(
        param_items(ckpt.encoder, ckpt.head), param_items(loaded.encoder, loaded.head)
    ):
        assert name == name2
        expected = orig.astype("<f4").astype(np.float64)
        assert np.array_equal(back, expected), name
    assert loaded.src_vocab.words == ckpt.src_vocab.words
    assert loaded.tgt_vocab.words == ckpt.tgt_vocab.words
    assert loaded.config == ckpt.config
    assert loaded.head_kind == "translation"


def test_roundtrip_preserves_task_labels(tmp_path):
    ckpt = fresh_checkpoint(labels=["O", "noun.act", "noun.food"])
    path = tmp_path / "task.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.head_kind == "labels"
    assert loaded.labels == ["O", "noun.act", "noun.food"]
    assert loaded.tgt_vocab is None


def test_roundtrip_perplexity_stays_put(tmp_path):
    ckpt = fresh_checkpoint(seed=4)
    insts = [
        TranslationInstance([1, 2, 3], 0, 1),
        TranslationInstance([3, 1], 1, 2),
        TranslationInstance([2, 2, 2, 1], 3, 0),
    ]
    before = perplexity(ckpt.encoder, ckpt.head, insts)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    after = perplexity(loaded.encoder, loaded.head, insts)
    assert abs(after - before) / before < 1e-5


def test_forward_only_roundtrips(tmp_path):
    cfg = TrainConfig(d=4, d_h=3, forward_only=True)
    src = vocab_of(["a"])
    enc, head = init_model(cfg, len(src), 3)
    ckpt = Checkpoint({}, src, enc, head, labels=["x", "y", "z"])
    path = tmp_path / "fwd.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.encoder.backward is None
    assert np.array_equal(
        get_flat_params(loaded.encoder, loaded.head),
        get_flat_params(enc, head).astype("<f4").astype(np.float64),
    )


def saved_blob(tmp_path, name="base.ckpt"):
    path = tmp_path / name
    save_checkpoint(path, fresh_checkpoint())
    return path, path.read_bytes()


def test_bad_magic_is_a_format_error(tmp_path):
    path, blob = saved_blob(tmp_path)
    path.write_bytes(b"X" + blob[1:])
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version_is_a_format_error(tmp_path):
    path, blob = saved_blob(tmp_path)
    bumped = CHECKPOINT_MAGIC + struct.pack("<I", 99) + blob[len(CHECKPOINT_MAGIC) + 4 :]
    path.write_bytes(bumped)
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)


def test_truncated_metadata_is_corrupt(tmp_path):
    path, blob = saved_blob(tmp_path)
    path.write_bytes(blob[: len(CHECKPOINT_MAGIC) + 12 + 5])
    with pytest.raises(CheckpointCorruptError, match="metadata"):
        load_checkpoint(path)


def test_truncated_tensors_are_corrupt(tmp_path):
    path, blob = saved_blob(tmp_path)
    path.write_bytes(blob[:-20])
    with pytest.raises(CheckpointCorruptError, match="truncated tensor"):
        load_checkpoint(path)


def test_trailing_junk_is_corrupt(tmp_path):
    path, blob = saved_blob(tmp_path)
    path.write_bytes(blob + b"\x00\x01\x02")
    with pytest.raises(CheckpointCorruptError, match="trailing"):
        load_checkpoint(path)


def test_mangled_json_is_corrupt(tmp_path):
    path, blob = saved_blob(tmp_path)
    start = len(CHECKPOINT_MAGIC) + 12
    mangled = blob[:start] + b"\xff" * 10 + blob[start + 10 :]
    path.write_bytes(mangled)
    with pytest.raises(CheckpointCorruptError, match="unreadable"):
        load_checkpoint(path)


def test_random_garbage_is_a_format_error(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"this is definitely not a checkpoint")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_empty_file_is_a_format_error(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_loaded_tensors_are_float64_and_writable(tmp_path):
    path, _ = saved_blob(tmp_path)
    loaded = load_checkpoint(path)
    for name, arr in param_items(loaded.encoder, loaded.head):
        assert arr.dtype == np.float64, name
        arr += 0.0  # train-ready: in-place updates must not raise


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path, blob = saved_blob(tmp_path)
    real_open = open

    class FailingFile:
        """Writes through to the real file until its budget runs out, then raises."""

        def __init__(self, fh, budget):
            self.fh, self.budget = fh, budget

        def write(self, data):
            if len(data) > self.budget:
                raise OSError("simulated crash part-way through a save")
            self.budget -= len(data)
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def failing_open(file, mode="r", *args, **kwargs):
        return FailingFile(real_open(file, mode, *args, **kwargs), budget=len(blob) // 2)

    monkeypatch.setattr(train_mod, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="simulated"):
        save_checkpoint(path, fresh_checkpoint(seed=9))
    monkeypatch.undo()

    assert path.read_bytes() == blob
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    loaded, original = load_checkpoint(path), fresh_checkpoint()
    assert np.array_equal(
        get_flat_params(loaded.encoder, loaded.head),
        get_flat_params(original.encoder, original.head).astype("<f4").astype(np.float64),
    )


def test_save_replaces_an_existing_checkpoint(tmp_path):
    path, _ = saved_blob(tmp_path)
    save_checkpoint(str(path), fresh_checkpoint(seed=9))
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    loaded = load_checkpoint(path)
    expected = fresh_checkpoint(seed=9)
    assert np.array_equal(
        get_flat_params(loaded.encoder, loaded.head),
        get_flat_params(expected.encoder, expected.head).astype("<f4").astype(np.float64),
    )


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_tensor_is_corrupt(tmp_path, bad):
    ckpt = fresh_checkpoint()
    ckpt.head.bias[1] = bad
    path = tmp_path / "nonfinite.ckpt"
    write_v1(path, ckpt, param_items(ckpt.encoder, ckpt.head))  # save_checkpoint refuses the value
    with pytest.raises(CheckpointCorruptError, match=r"nonfinite\.ckpt.*head\.bias"):
        load_checkpoint(path)


def wide_checkpoint(n_words, d):
    """A translation checkpoint whose (n_words, d) embedding is by far its largest tensor."""
    cfg = TrainConfig(d=d, d_h=1, seed=5)
    src, tgt = vocab_of([f"w{k}" for k in range(1, n_words)]), vocab_of(["UNO"])
    enc, head = init_model(cfg, len(src), len(tgt))
    return Checkpoint({"d": d, "d_h": 1, "head_kind": "translation"}, src, enc, head, tgt_vocab=tgt)


@pytest.mark.parametrize("index", [9, train_mod.LOAD_BLOCK + 9])
@pytest.mark.parametrize("bad", [1e39, -1e39, np.inf, np.nan])
def test_a_value_float32_cannot_hold_leaves_the_previous_checkpoint(tmp_path, bad, index):
    ckpt = wide_checkpoint(300, 4000)  # 1.2M embedding values: index may lie in the second block
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    ckpt.encoder.embeddings.reshape(-1)[index] = bad
    message = rf"model\.ckpt: value .* in tensor embedding \(flat index {index}\) is not a finite float32"
    with pytest.raises(ValueError, match=message):
        save_checkpoint(path, ckpt)
    assert path.read_bytes() == blob
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_saving_converts_a_block_at_a_time(tmp_path):
    ckpt = wide_checkpoint(1500, 4096)  # a 24.6 MB float32 embedding
    path = tmp_path / "big.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(path, ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ckpt.encoder.embeddings.size * 4 / 4  # a quarter of the largest tensor's float32 bytes
    assert np.array_equal(load_checkpoint(path).encoder.embeddings, ckpt.encoder.embeddings.astype("<f4"))


def test_large_finite_values_load(tmp_path):
    ckpt = fresh_checkpoint()
    ckpt.encoder.embeddings[:] = 3.0e38  # finite; their float32 squares would overflow
    path = tmp_path / "huge.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert np.all(loaded.encoder.embeddings == np.float32(3.0e38))


# ---------------------------------------------------------------- shapes


def test_tensor_bytes_match_the_tobytes_layout(tmp_path):
    ckpt = fresh_checkpoint(seed=3)
    ckpt.encoder.forward.wh = np.asfortranarray(ckpt.encoder.forward.wh)  # not C-ordered
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC) + 4)
    header = blob[: len(CHECKPOINT_MAGIC) + 12 + meta_len]
    tensors = b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes()
                       for _, arr in param_items(ckpt.encoder, ckpt.head))
    assert hashlib.sha256(blob).hexdigest() == hashlib.sha256(header + tensors).hexdigest()


def write_v1(path, ckpt, tensors):
    """Write a format-1 checkpoint byte by byte, without save_checkpoint.

    Magic, version, length-prefixed JSON metadata holding ckpt's config and
    vocabularies and the (name, shape) list, then each of the (name, array)
    tensors as little-endian float32, in the order given.
    """
    meta = {
        "config": ckpt.config,
        "src_vocab": ckpt.src_vocab.to_pairs(),
        "tgt_vocab": ckpt.tgt_vocab.to_pairs() if ckpt.tgt_vocab is not None else None,
        "labels": ckpt.labels,
        "tensors": [[name, list(arr.shape)] for name, arr in tensors],
    }
    meta_bytes = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQ", 1, len(meta_bytes)) + meta_bytes
                     + b"".join(np.asarray(arr, dtype="<f4").tobytes() for _, arr in tensors))


def per_gate_tensors(seed, d, hsz, n_words, n_labels):
    """Random float32-exact tensors of a bidirectional model, named and ordered as in format 1."""
    rng = np.random.default_rng(seed)
    shapes = {"w_x": (hsz, d), "w_h": (hsz, hsz), "w_c": (hsz, hsz), "b_": (hsz,)}  # by field minus its gate
    names = (["embedding"] + [f"{p}.{f}" for p in ("fwd", "bwd") for f in DIRECTION_FIELDS]
             + ["head.projection", "head.bias"])
    fixed = {"embedding": (n_words, d), "head.projection": (n_labels, 2 * hsz), "head.bias": (n_labels,)}
    return [(name, rng.standard_normal(fixed.get(name) or shapes[name.split(".")[1][:-1]])
             .astype(np.float32).astype(np.float64)) for name in names]


def test_a_byte_level_v1_file_loads_gate_stacked_and_saves_to_the_same_bytes(tmp_path):
    ckpt = fresh_checkpoint()
    tensors = per_gate_tensors(seed=6, d=5, hsz=4, n_words=len(ckpt.src_vocab), n_labels=len(ckpt.tgt_vocab))
    path = tmp_path / "written.ckpt"
    write_v1(path, ckpt, tensors)
    loaded = load_checkpoint(path)
    assert [name for name, _ in param_items(loaded.encoder, loaded.head)] == [name for name, _ in tensors]
    values = dict(tensors)
    for name, arr in param_items(loaded.encoder, loaded.head):
        assert np.array_equal(arr, values[name]), name
    for prefix, direction in (("fwd", loaded.encoder.forward), ("bwd", loaded.encoder.backward)):
        for stacked, kind in ((direction.wx, "w_x"), (direction.wh, "w_h"), (direction.b, "b_")):
            want = np.concatenate([values[f"{prefix}.{kind}{gate}"] for gate in "ifco"])
            assert np.array_equal(stacked, want), (prefix, kind)
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, loaded)
    assert resaved.read_bytes() == path.read_bytes()


def reshaped(ckpt, name, shape):
    """ckpt's tensors with a zero tensor of the given shape in place of one of them."""
    return [(n, np.zeros(shape) if n == name else arr) for n, arr in param_items(ckpt.encoder, ckpt.head)]


@pytest.mark.parametrize("name,shape", [
    ("head.projection", (3, 6)),  # an 8-wide encoder
    ("head.bias", (4,)),
    ("fwd.w_hc", (4, 5)),
    ("bwd.w_xi", (4, 6)),         # d = 5
    ("bwd.b_f", (3,)),
    ("fwd.w_co", (4,)),           # diagonal peephole in a full-peephole direction
    ("fwd.w_ci", (4, 5)),
    ("fwd.w_xi", (20,)),          # not an (H, d) matrix
])
def test_a_tensor_of_the_wrong_shape_is_corrupt(tmp_path, name, shape):
    path = tmp_path / "shape.ckpt"
    ckpt = fresh_checkpoint()
    write_v1(path, ckpt, reshaped(ckpt, name, shape))
    with pytest.raises(CheckpointCorruptError, match=rf"shape\.ckpt.*{name.replace('.', '[.]')}"):
        load_checkpoint(path)


def test_embedding_rows_must_match_the_source_vocabulary(tmp_path):
    ckpt = fresh_checkpoint()
    ckpt.src_vocab = vocab_of([f"v{k}" for k in range(8)])  # 9 words, 4 embedding rows
    path = tmp_path / "vocab.ckpt"
    write_v1(path, ckpt, param_items(ckpt.encoder, ckpt.head))
    with pytest.raises(CheckpointCorruptError, match=r"vocab\.ckpt.*embedding"):
        load_checkpoint(path)


@pytest.mark.parametrize("labels", [None, ["O", "noun.act"]])
def test_head_rows_must_match_the_labels(tmp_path, labels):
    ckpt = fresh_checkpoint(labels=labels)
    if labels is None:
        ckpt.tgt_vocab = vocab_of(["UNO", "DOS", "TRES"])  # 4 words, a 3-row head
    else:
        ckpt.labels = labels + ["noun.food"]
    path = tmp_path / "head.ckpt"
    write_v1(path, ckpt, param_items(ckpt.encoder, ckpt.head))
    with pytest.raises(CheckpointCorruptError, match=r"head\.ckpt.*head\.projection"):
        load_checkpoint(path)


@pytest.mark.parametrize("make,match", [
    (lambda: replace(fresh_checkpoint(), src_vocab=vocab_of([f"v{k}" for k in range(8)])),
     r"tensor embedding has shape \(4, 5\), expected \(9, 5\)"),
    (lambda: replace(fresh_checkpoint(), tgt_vocab=vocab_of(["UNO", "DOS", "TRES"])),
     r"tensor head\.projection has shape \(3, 8\), expected \(4, 8\)"),
    (lambda: replace(fresh_checkpoint(labels=["O", "noun.act"]), labels=["O", "noun.act", "noun.food"]),
     r"tensor head\.projection has shape \(2, 8\), expected \(3, 8\)"),
    (lambda: fresh_checkpoint(labels=[1, 2]), r"'labels' is not a list of strings"),
    (lambda: replace(fresh_checkpoint(), labels=["p", "q", "r"]), r"has both 'tgt_vocab' and 'labels'"),
], ids=["embedding-rows", "vocabulary-head-rows", "label-head-rows", "label-types", "both-head-names"])
def test_a_checkpoint_the_loader_would_reject_is_not_saved(tmp_path, make, match):
    """save_checkpoint applies load_checkpoint's header rules before it touches the file."""
    path, blob = saved_blob(tmp_path)
    with pytest.raises(ValueError, match=rf"base\.ckpt: .*{match}"):
        save_checkpoint(path, make())
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["base.ckpt"]


@pytest.mark.parametrize("mode", [{}, {"peephole": "diagonal"}, {"forward_only": True}])
def test_well_formed_checkpoints_of_every_mode_load(tmp_path, mode):
    src = vocab_of(["a", "b"])
    enc, head = init_model(TrainConfig(d=4, d_h=3, **mode), len(src), 2)
    path = tmp_path / "ok.ckpt"
    save_checkpoint(path, Checkpoint({}, src, enc, head, labels=["x", "y"]))
    loaded = load_checkpoint(path)
    assert np.array_equal(get_flat_params(loaded.encoder, loaded.head),
                          get_flat_params(enc, head).astype("<f4").astype(np.float64))


def test_a_flat_vector_of_the_wrong_length_is_rejected():
    ckpt = fresh_checkpoint()
    flat = get_flat_params(ckpt.encoder, ckpt.head)
    with pytest.raises(ValueError, match=rf"flat vector has {flat.size + 1} entries, model needs {flat.size}"):
        set_flat_params(ckpt.encoder, ckpt.head, np.append(flat, 0.0))


@pytest.mark.parametrize("change,match", [
    (lambda ts: ts[:5] + ts[6:], r"incomplete \('fwd\.w_hf'\)"),
    (lambda ts: ts + [ts[3]], r"34 tensors listed, the model has 33"),
    (lambda ts: ts + [("fwd.w_zz", np.zeros(2))], r"34 tensors listed, the model has 33"),
])
def test_a_tensor_list_that_is_not_one_model_is_corrupt(tmp_path, change, match):
    path = tmp_path / "list.ckpt"
    ckpt = fresh_checkpoint()
    write_v1(path, ckpt, change(param_items(ckpt.encoder, ckpt.head)))
    with pytest.raises(CheckpointCorruptError, match=rf"list\.ckpt.*{match}"):
        load_checkpoint(path)


TYPES = r"'tensors' is not a list of \[name, shape\] pairs"
NOT_A_PAIR = r"is not a vocabulary \(entry 1 .* is not a \(str, int\) pair\)"


@pytest.mark.parametrize("change,match", [
    (lambda meta: {**meta, "tensors": 5}, TYPES),
    (lambda meta: {**meta, "tensors": [["embedding"]]}, TYPES),
    (lambda meta: {**meta, "tensors": [["embedding", [4, "5"]]] + meta["tensors"][1:]}, TYPES),
    (lambda meta: {**meta, "tensors": [["embedding", [-4, 5]]] + meta["tensors"][1:]}, TYPES),
    (lambda meta: {**meta, "tensors": [[3, [4, 5]]] + meta["tensors"][1:]}, TYPES),
    (lambda meta: {**meta, "src_vocab": meta["src_vocab"][::-1]},
     r"'src_vocab' is not a vocabulary \(entry 0 must be the <unk> token\)"),
    (lambda meta: {**meta, "src_vocab": meta["src_vocab"] + [["alpha", 1]]},
     r"'src_vocab' is not a vocabulary \(duplicate words"),
    (lambda meta: {**meta, "src_vocab": [["<unk>"]]}, r"'src_vocab' is not a vocabulary"),
    (lambda meta: {**meta, "src_vocab": [["<unk>", 0], [5, 2]]},
     r"'src_vocab' is not a vocabulary \(entry 1 \(5, 2\) is not a \(str, int\) pair\)"),
    (lambda meta: {**meta, "src_vocab": [["<unk>", 0], ["x", 2.7]]}, rf"'src_vocab' {NOT_A_PAIR}"),
    (lambda meta: {**meta, "src_vocab": [["<unk>", 0], ["x", True]]}, rf"'src_vocab' {NOT_A_PAIR}"),
    (lambda meta: {**meta, "src_vocab": [["<unk>", 0.0]]}, r"'src_vocab' is not a vocabulary \(entry 0"),
    (lambda meta: {**meta, "tgt_vocab": [["<unk>", 0], [None, 1]]}, rf"'tgt_vocab' {NOT_A_PAIR}"),
    (lambda meta: {**meta, "src_vocab": 7}, r"'src_vocab' is not a vocabulary"),
    (lambda meta: {**meta, "tgt_vocab": [["UNO", 5]]}, r"'tgt_vocab' is not a vocabulary"),
    (lambda meta: {**meta, "labels": "O"}, r"'labels' is not a list of strings"),
    (lambda meta: {**meta, "config": []}, r"'config' is not a JSON object"),
    (lambda meta: [meta], r"is not a JSON object"),
    (lambda meta: {k: v for k, v in meta.items() if k != "tensors"}, r"missing 'tensors'"),
])
def test_a_header_of_the_wrong_types_is_corrupt(tmp_path, change, match):
    """A well-formed JSON header whose fields have the wrong types names the file."""
    path, blob = saved_blob(tmp_path, "types.ckpt")
    preamble = len(CHECKPOINT_MAGIC) + 12
    (meta_len,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC) + 4)
    meta = json.loads(blob[preamble : preamble + meta_len])
    meta_bytes = json.dumps(change(meta)).encode("utf-8")
    path.write_bytes(blob[: len(CHECKPOINT_MAGIC) + 4] + struct.pack("<Q", len(meta_bytes))
                     + meta_bytes + blob[preamble + meta_len :])
    with pytest.raises(CheckpointCorruptError, match=rf"types\.ckpt: metadata {match}"):
        load_checkpoint(path)


def test_vocabulary_entries_of_three_fields_are_corrupt(tmp_path):
    test_a_header_of_the_wrong_types_is_corrupt(
        tmp_path, lambda meta: {**meta, "src_vocab": [[*entry, 9] for entry in meta["src_vocab"]]},
        r"'src_vocab' is not a vocabulary \(entry 0 \['<unk>', 0, 9\] is not a \(str, int\) pair\)")


@pytest.mark.parametrize("tgt_vocab,match", [
    ([], r"'tgt_vocab' is not a vocabulary \(entry 0 must be the <unk> token\)"),
    (None, r"has neither 'tgt_vocab' nor 'labels'"),
], ids=["empty", "null"])
def test_a_header_without_head_labels_is_corrupt(tmp_path, tgt_vocab, match):
    """A header must name the head's rows: a tgt_vocab that is there is a vocabulary, else labels."""
    test_a_header_of_the_wrong_types_is_corrupt(
        tmp_path, lambda meta: {**meta, "tgt_vocab": tgt_vocab, "labels": None}, match)


def test_a_header_with_both_a_tgt_vocab_and_labels_is_corrupt(tmp_path):
    """Both would name the head's rows; a load must not pick one silently."""
    test_a_header_of_the_wrong_types_is_corrupt(
        tmp_path, lambda meta: {**meta, "labels": ["p", "q", "r"]}, r"has both 'tgt_vocab' and 'labels'")


def test_a_checkpoint_without_head_labels_is_not_saved(tmp_path):
    path, blob = saved_blob(tmp_path)
    ckpt = fresh_checkpoint(seed=1)
    ckpt.tgt_vocab = None
    with pytest.raises(ValueError, match=r"base\.ckpt: .* tgt_vocab or labels"):
        save_checkpoint(path, ckpt)
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["base.ckpt"]
