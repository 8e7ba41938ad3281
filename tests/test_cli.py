"""End-to-end command-line runs in subprocesses."""

import hashlib
import subprocess
import sys

import pytest

from wicrep.corpus import Vocabulary, load_instances
from wicrep.synthdata import generate_homograph_data, write_homograph_files, write_supersense_files
from wicrep.tasks import load_candidate_table, save_candidate_table
from wicrep.train import Checkpoint, TrainConfig, init_model, load_checkpoint, save_checkpoint


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "wicrep", *map(str, args)],
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny corpus on disk plus vocabularies, instances, and one checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = generate_homograph_data(seed=3, n_train=40, n_dev=10, n_fillers=12)
    write_homograph_files(data, root)
    write_supersense_files(data, root)

    r = run_cli("vocab", "--input", root / "train.src", "--output", root / "src.vocab")
    assert r.returncode == 0, r.stderr
    r = run_cli("vocab", "--input", root / "train.tgt", "--output", root / "tgt.vocab")
    assert r.returncode == 0, r.stderr
    for split in ("train", "dev"):
        r = run_cli(
            "extract",
            "--source", root / f"{split}.src", "--target", root / f"{split}.tgt",
            "--s2t", root / f"{split}.s2t", "--t2s", root / f"{split}.t2s",
            "--src-vocab", root / "src.vocab", "--tgt-vocab", root / "tgt.vocab",
            "--output", root / f"{split}.inst",
        )
        assert r.returncode == 0, r.stderr
    r = run_cli(
        "pretrain",
        "--instances", root / "train.inst", "--dev", root / "dev.inst",
        "--src-vocab", root / "src.vocab", "--tgt-vocab", root / "tgt.vocab",
        "--out", root / "model.ckpt",
        "--d", 6, "--d-h", 6, "--batch-size", 32, "--max-epochs", 2, "--seed", 5,
    )
    assert r.returncode == 0, r.stderr
    return root


def test_vocab_writes_a_loadable_table(workdir):
    vocab = Vocabulary.load_tsv(workdir / "src.vocab")
    assert vocab.words[0] == "<unk>"
    assert "bank" in vocab.id_of


def test_vocab_reports_count_and_echoes_config(workdir, tmp_path):
    out = tmp_path / "v.tsv"
    r = run_cli("vocab", "--input", workdir / "train.src", "--output", out, "--cap", 5)
    assert r.returncode == 0
    assert r.stdout.strip().endswith(f"entries -> {out}")
    assert "# cap = 5" in r.stderr
    assert "# command = vocab" in r.stderr
    assert len(Vocabulary.load_tsv(out)) <= 6


def test_extract_writes_instances(workdir):
    insts = load_instances(workdir / "train.inst")
    assert len(insts) > 0
    assert all(i.position_t < len(i.source_ids) for i in insts)


def test_ppl_prints_one_float(workdir):
    r = run_cli("ppl", "--checkpoint", workdir / "model.ckpt", "--data", workdir / "dev.inst")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 1
    assert float(lines[0]) > 1.0


def test_single_thread_training_is_byte_reproducible(workdir, tmp_path):
    digests = []
    for k in range(2):
        out = tmp_path / f"rep{k}.ckpt"
        r = run_cli(
            "pretrain", "--threads", 1,
            "--instances", workdir / "train.inst", "--dev", workdir / "dev.inst",
            "--src-vocab", workdir / "src.vocab", "--tgt-vocab", workdir / "tgt.vocab",
            "--out", out,
            "--d", 6, "--d-h", 6, "--batch-size", 32, "--max-epochs", 1, "--seed", 5,
        )
        assert r.returncode == 0, r.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_gradcheck_command_passes(tmp_path):
    r = run_cli("gradcheck", "--seed", 7)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PASS" in r.stdout
    assert "overall max_rel_error" in r.stdout


def test_finetune_and_eval_supersense(workdir, tmp_path):
    out = tmp_path / "sst.ckpt"
    r = run_cli(
        "finetune-supersense",
        "--src-vocab", workdir / "src.vocab",
        "--train", workdir / "train.sst", "--dev", workdir / "dev.sst",
        "--window", 6, "--out", out,
        "--d", 6, "--d-h", 6, "--batch-size", 64, "--max-epochs", 1, "--seed", 2,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli("eval-supersense", "--checkpoint", out, "--data", workdir / "dev.sst")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert any(line.startswith("accuracy\t") for line in lines)
    assert lines[-1].startswith("aggregate\t")
    assert len(lines[-1].split("\t")) == 4


def test_eval_supersense_rejects_translation_checkpoints(workdir):
    r = run_cli("eval-supersense", "--checkpoint", workdir / "model.ckpt",
                "--data", workdir / "dev.sst")
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_candidates_command_builds_a_table(workdir, tmp_path):
    out = tmp_path / "cands.tsv"
    r = run_cli(
        "candidates",
        "--source", workdir / "train.src", "--target", workdir / "train.tgt",
        "--s2t", workdir / "train.s2t", "--t2s", workdir / "train.t2s",
        "--threshold", 1.0, "--output", out,
    )
    assert r.returncode == 0, r.stderr
    body = out.read_text()
    assert body
    assert all(len(line.split("\t")) == 3 for line in body.splitlines())


def test_lexsub_command_scores_predictions(workdir, tmp_path):
    data = generate_homograph_data(seed=3, n_train=40, n_dev=10, n_fillers=12)
    items_lines = []
    gold_lines = []
    for k, sent in enumerate(data.dev[:4]):
        items_lines.append(f"d{k}\tbank.n\t{sent.amb_position}\t{' '.join(sent.source)}")
        synonym = "treasury" if sent.sense == "money" else "brook"
        gold_lines.append(f"d{k}\t{synonym} 3; substitute 1")
    items = tmp_path / "items.tsv"
    gold = tmp_path / "gold.tsv"
    items.write_text("\n".join(items_lines) + "\n")
    gold.write_text("\n".join(gold_lines) + "\n")
    cands = tmp_path / "cands.tsv"
    save_candidate_table(cands, {"bank": [("treasury", 5), ("brook", 4)]})

    preds_out = tmp_path / "preds.tsv"
    r = run_cli(
        "lexsub", "--checkpoint", workdir / "model.ckpt",
        "--items", items, "--gold", gold, "--candidates", cands,
        "--predictions-out", preds_out,
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("best\t")
    assert lines[1].startswith("best-mode\t")
    float(lines[0].split("\t")[1]), float(lines[1].split("\t")[1])
    assert len(preds_out.read_text().splitlines()) == 4


@pytest.mark.parametrize("repeated", ["items", "gold"])
def test_lexsub_rejects_a_repeated_item_id(workdir, tmp_path, repeated):
    cands = tmp_path / "cands.tsv"
    save_candidate_table(cands, {"bank": [("treasury", 5), ("brook", 4)]})
    files = {"items": "d0\tbank.n\t0\tbank loan\nd1\tbank.n\t1\tthe bank\n",
             "gold": "d0\ttreasury 2\nd1\tbrook 1\n"}
    files[repeated] = files[repeated].replace("d1", "d0")
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    r = run_cli("lexsub", "--checkpoint", workdir / "model.ckpt", "--candidates", cands,
                "--items", tmp_path / "items", "--gold", tmp_path / "gold")
    assert r.returncode == 1, r.stderr
    assert f"error: {tmp_path / repeated}: line 2: item id 'd0' repeats line 1" in r.stderr
    assert "Traceback" not in r.stderr


def test_finetune_supersense_reads_the_widths_from_the_checkpoint_tensors(workdir, tmp_path):
    """A checkpoint whose config echo is empty still fine-tunes, with its own widths and form."""
    vocab = Vocabulary.load_tsv(workdir / "src.vocab")
    enc, head = init_model(TrainConfig(d=5, d_h=3, peephole="diagonal", forward_only=True), len(vocab), 4)
    save_checkpoint(tmp_path / "bare.ckpt", Checkpoint({}, vocab, enc, head, labels=["a", "b", "c", "d"]))
    out = tmp_path / "sst.ckpt"
    r = run_cli("finetune-supersense", "--checkpoint", tmp_path / "bare.ckpt",
                "--train", workdir / "train.sst", "--dev", workdir / "dev.sst", "--window", 6, "--out", out,
                "--batch-size", 64, "--max-epochs", 1, "--seed", 2)
    assert r.returncode == 0, r.stderr
    tuned = load_checkpoint(out)
    assert {k: tuned.config[k] for k in ("d", "d_h", "peephole", "forward_only")} == {
        "d": 5, "d_h": 3, "peephole": "diagonal", "forward_only": True}
    assert tuned.encoder.backward is None and tuned.encoder.hidden_size == 6


def test_lexsub_without_a_model_is_a_usage_error(tmp_path):
    cands = tmp_path / "cands.tsv"
    save_candidate_table(cands, {"bank": [("treasury", 5)]})
    items = tmp_path / "items.tsv"
    items.write_text("d0\tbank.n\t0\tbank loan\n")
    r = run_cli("lexsub", "--items", items, "--candidates", cands)
    assert r.returncode == 2
    assert "--checkpoint" in r.stderr and "--type-vectors" in r.stderr
    assert "Traceback" not in r.stderr


def test_candidates_rejects_a_short_alignment_file(workdir, tmp_path):
    lines = (workdir / "train.t2s").read_text().splitlines()
    short = tmp_path / "short.t2s"
    short.write_text("\n".join(lines[:-1]) + "\n")
    r = run_cli(
        "candidates",
        "--source", workdir / "train.src", "--target", workdir / "train.tgt",
        "--s2t", workdir / "train.s2t", "--t2s", short, "--output", tmp_path / "c.tsv",
    )
    assert r.returncode == 1
    assert f"{short} has {len(lines) - 1} alignment lines for {len(lines)} sentence pairs" in r.stderr
    assert not (tmp_path / "c.tsv").exists()


def test_export_features_command(workdir, tmp_path):
    data = generate_homograph_data(seed=3, n_train=40, n_dev=10, n_fillers=12)
    sent = data.dev[0]
    queries = tmp_path / "queries.tsv"
    queries.write_text(f"{' '.join(sent.source)}\t{sent.amb_position}\tBANCO\n")
    out = tmp_path / "features.tsv"
    r = run_cli("export-features", "--checkpoint", workdir / "model.ckpt",
                "--queries", queries, "--output", out)
    assert r.returncode == 0, r.stderr
    fields = out.read_text().strip().split("\t")
    assert len(fields) == 5
    assert fields[0] == "bank"
    assert 0.0 < float(fields[2]) < 1.0


def _tagger_checkpoint(workdir, path):
    vocab = Vocabulary.load_tsv(workdir / "src.vocab")
    cfg = TrainConfig(d=4, d_h=3)
    enc, head = init_model(cfg, len(vocab), 2)
    save_checkpoint(path, Checkpoint({}, vocab, enc, head, labels=["O", "noun.act"]))
    return path


@pytest.mark.parametrize("case", ["sst-train", "sst-dev", "sst-data", "items", "gold", "queries", "vectors"])
def test_a_malformed_input_file_is_named_with_its_line(workdir, tmp_path, case):
    bad = tmp_path / "bad.txt"
    good_sst = workdir / "dev.sst"
    cands = tmp_path / "cands.tsv"
    save_candidate_table(cands, {"bank": [("treasury", 5)]})
    items = tmp_path / "items.tsv"
    items.write_text("d0\tbank.n\t0\tbank loan\n")
    lexsub = ("lexsub", "--checkpoint", workdir / "model.ckpt", "--candidates", cands)
    runs = {
        "sst-train": (("finetune-supersense", "--src-vocab", workdir / "src.vocab", "--train", bad,
                       "--dev", good_sst, "--out", tmp_path / "t.ckpt"), "bank\n", "line 1: expected"),
        "sst-dev": (("finetune-supersense", "--src-vocab", workdir / "src.vocab", "--train", good_sst,
                     "--dev", bad, "--out", tmp_path / "t.ckpt"), "a\tO\n\nb\t\n", "line 3: empty label"),
        "sst-data": (("eval-supersense", "--checkpoint", _tagger_checkpoint(workdir, tmp_path / "tag.ckpt"),
                      "--data", bad), "x\ty\tz\n", "line 1: expected"),
        "items": ((*lexsub, "--items", bad), "d0\tbank.n\t0\n",
                  "line 1: expected 4 tab-separated fields, got 3"),
        "gold": ((*lexsub, "--items", items, "--gold", bad), "d0\ttreasury 0\n",
                 "line 1: count 0 of 'treasury' is not positive"),
        "queries": (("export-features", "--checkpoint", workdir / "model.ckpt", "--queries", bad,
                     "--output", tmp_path / "f.tsv"), "bank loan\t5\tBANCO\n", "line 1: query position 5"),
        "vectors": (("lexsub", "--type-vectors", bad, "--candidates", cands, "--items", items),
                    "1 2\nbank 0.5\n", "line 2: expected word plus 2 values, got 1"),
    }
    args, body, message = runs[case]
    bad.write_text(body)
    r = run_cli(*args)
    assert r.returncode == 1, r.stderr
    assert f"error: {bad}: {message}" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("flag", ["--items", "--src-vocab", "--instances", "--s2t", "--targets", "--input",
                                  "--config"])
def test_an_input_that_is_not_utf8_is_named(workdir, tmp_path, flag):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xffbank\n")
    cands = tmp_path / "cands.tsv"
    save_candidate_table(cands, {"bank": [("treasury", 5)]})
    w = {name: workdir / name for name in ("train.src", "train.tgt", "train.s2t", "train.t2s", "train.inst",
                                           "src.vocab", "tgt.vocab", "model.ckpt")}
    pretrain = ("pretrain", "--src-vocab", w["src.vocab"], "--tgt-vocab", w["tgt.vocab"],
                "--instances", w["train.inst"], "--out", tmp_path / "m.ckpt", "--max-epochs", 1)
    vocab = ("vocab", "--input", w["train.src"], "--output", tmp_path / "v.tsv")
    candidates = ("candidates", "--source", w["train.src"], "--target", w["train.tgt"], "--s2t", w["train.s2t"],
                  "--t2s", w["train.t2s"], "--output", tmp_path / "c.tsv")
    runs = {
        "--items": ("lexsub", "--checkpoint", w["model.ckpt"], "--candidates", cands),
        "--src-vocab": pretrain,
        "--instances": pretrain,
        "--s2t": candidates,
        "--targets": candidates,
        "--input": vocab,
        "--config": vocab,
    }
    r = run_cli(*runs[flag], flag, bad)
    assert r.returncode == 1, r.stderr
    assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n" in r.stderr
    assert "Traceback" not in r.stderr


def test_candidates_targets_restrict_the_table(workdir, tmp_path):
    targets = tmp_path / "targets.txt"
    targets.write_text("bank\n\n  nosuchword\n")
    out = tmp_path / "c.tsv"
    r = run_cli("candidates", "--source", workdir / "train.src", "--target", workdir / "train.tgt",
                "--s2t", workdir / "train.s2t", "--t2s", workdir / "train.t2s", "--targets", targets, "--output", out)
    assert r.returncode == 0, r.stderr
    assert set(load_candidate_table(out)) == {"bank"}


def test_a_repeated_config_key_names_both_lines(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cap = 3\n# later\ncap = 9\n")
    r = run_cli("vocab", "--config", cfg, "--input", workdir / "train.src", "--output", tmp_path / "v.tsv")
    assert r.returncode == 1, r.stderr
    assert f"error: {cfg}: line 3: config key 'cap' repeats line 1\n" in r.stderr
    assert not (tmp_path / "v.tsv").exists()


@pytest.mark.parametrize("row,message", [
    ("1\t0\t1 2 {V}", "source id {V} outside [0, {V})"),
    ("0\t{L}\t1 2", "target id {L} outside [0, {L})"),
    ("0\t-1\t1 2", "{data}: line 2: negative target id -1"),
])
def test_ppl_on_an_id_outside_the_model_is_an_error(workdir, tmp_path, row, message):
    src, tgt = (Vocabulary.load_tsv(workdir / f"{side}.vocab") for side in ("src", "tgt"))
    enc, head = init_model(TrainConfig(d=4, d_h=3), len(src), len(tgt))
    save_checkpoint(tmp_path / "m.ckpt", Checkpoint({}, src, enc, head, tgt_vocab=tgt))
    data = tmp_path / "bad.inst"
    data.write_text("0\t1\t1 2\n" + row.format(V=len(src), L=len(tgt)) + "\n")
    r = run_cli("ppl", "--checkpoint", tmp_path / "m.ckpt", "--data", data)
    assert r.returncode == 1, r.stdout
    assert r.stdout == ""
    assert f"error: {message.format(V=len(src), L=len(tgt), data=data)}" in r.stderr
    assert "Traceback" not in r.stderr


def test_ppl_past_the_float_range_prints_inf(workdir, tmp_path):
    src, tgt = (Vocabulary.load_tsv(workdir / f"{side}.vocab") for side in ("src", "tgt"))
    enc, head = init_model(TrainConfig(d=4, d_h=3), len(src), len(tgt))
    head.bias[3] = 2000.0  # the target-2 NLL is about 2000, past log(max float) = 709.8
    save_checkpoint(tmp_path / "m.ckpt", Checkpoint({}, src, enc, head, tgt_vocab=tgt))
    data = tmp_path / "far.inst"
    data.write_text("0\t2\t1 2\n")
    r = run_cli("ppl", "--checkpoint", tmp_path / "m.ckpt", "--data", data)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "inf\n"


def test_config_file_sets_defaults_and_flags_win(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ncap = 5\nmin-count = 1\n")
    out1 = tmp_path / "v1.tsv"
    r = run_cli("vocab", "--config", cfg, "--input", workdir / "train.src", "--output", out1)
    assert r.returncode == 0, r.stderr
    assert "# cap = 5" in r.stderr
    out2 = tmp_path / "v2.tsv"
    r = run_cli("vocab", "--config", cfg, "--cap", 3,
                "--input", workdir / "train.src", "--output", out2)
    assert r.returncode == 0, r.stderr
    assert "# cap = 3" in r.stderr
    assert len(Vocabulary.load_tsv(out2)) <= 4


def test_unknown_config_key_fails(workdir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("capp = 5\n")
    r = run_cli("vocab", "--config", cfg, "--input", workdir / "train.src",
                "--output", tmp_path / "v.tsv")
    assert r.returncode == 1
    assert "error:" in r.stderr and "capp" in r.stderr


def test_bad_boolean_config_value_fails(workdir, tmp_path):
    cfg = tmp_path / "bool.cfg"
    cfg.write_text("forward-only = maybe\n")
    r = run_cli(
        "pretrain", "--config", cfg,
        "--instances", workdir / "train.inst", "--src-vocab", workdir / "src.vocab",
        "--tgt-vocab", workdir / "tgt.vocab", "--out", tmp_path / "x.ckpt",
    )
    assert r.returncode == 1
    assert "boolean" in r.stderr


def test_unknown_subcommand_exits_two():
    r = run_cli("frobnicate")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def test_missing_required_flag_exits_two(workdir):
    r = run_cli("vocab", "--input", workdir / "train.src")
    assert r.returncode == 2


def test_missing_input_file_is_a_clean_error(tmp_path):
    r = run_cli("ppl", "--checkpoint", tmp_path / "nope.ckpt", "--data", tmp_path / "no.inst")
    assert r.returncode == 1
    assert r.stderr.startswith("error:") or "error:" in r.stderr


@pytest.mark.parametrize("command", ["extract", "candidates"])
@pytest.mark.parametrize("case", ["s2t", "t2s", "short"])
def test_a_link_outside_its_sentence_pair_names_the_file_and_line(workdir, tmp_path, command, case):
    """Each link of both direction files is checked: one the intersection would drop, or one in a sentence
    of --min-len tokens or fewer, is an error that names its file and line."""
    long = " ".join(f"w{k:02d}" for k in range(12))
    files = {"src": f"{long}\nx y z\n", "tgt": f"{long.upper()}\nX Y Z\n",
             "s2t": "0-0 1-1\n0-0\n", "t2s": "0-0 1-1\n0-0\n"}
    if case == "short":
        files["s2t"] = files["t2s"] = "0-0 1-1\n0-0 0-5\n"
        message = "line 2: link 0-5 outside sentence pair of 3 and 3 tokens"
    else:
        files[case] = "0-0 11-20 1-1\n0-0\n"
        message = "line 1: link 11-20 outside sentence pair of 12 and 12 tokens"
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    out = tmp_path / "out.tsv"
    extra = ("--src-vocab", workdir / "src.vocab", "--tgt-vocab", workdir / "tgt.vocab") if command == "extract" else ()
    r = run_cli(command, "--source", tmp_path / "src", "--target", tmp_path / "tgt", "--s2t", tmp_path / "s2t",
                "--t2s", tmp_path / "t2s", *extra, "--output", out)
    assert r.returncode == 1, r.stdout + r.stderr
    bad_file = tmp_path / ("s2t" if case == "short" else case)
    assert f"error: {bad_file}: {message}\n" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_lexsub_with_type_vectors_scores_their_picks(tmp_path):
    """By type-vector cosine both bank items pick treasury, although brook ranks first."""
    (tmp_path / "vectors").write_text("4 2\nbank 1 0\ntreasury 0.9 0.1\nbrook 0 1\nloan 0.5 0.5\n")
    (tmp_path / "items").write_text("d0\tbank.n\t0\tbank loan\nd1\tbank.n\t1\tthe bank\n")
    (tmp_path / "gold").write_text("d0\ttreasury 3; brook 1\nd1\tbrook 2\n")
    save_candidate_table(tmp_path / "cands", {"bank": [("brook", 5), ("treasury", 4)]})
    preds = tmp_path / "preds.tsv"
    r = run_cli("lexsub", "--type-vectors", tmp_path / "vectors", "--items", tmp_path / "items",
                "--gold", tmp_path / "gold", "--candidates", tmp_path / "cands", "--predictions-out", preds)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "best\t37.50\nbest-mode\t50.00\n"
    assert preds.read_text() == "d0\ttreasury\nd1\ttreasury\n"


def test_lexsub_without_gold_counts_predictions_and_names_skipped_items(workdir, tmp_path):
    items = tmp_path / "items"
    items.write_text("d0\tbank.n\t0\tbank loan\nd1\tzzz.n\t0\tzzz loan\n")
    cands = tmp_path / "cands"
    save_candidate_table(cands, {"bank": [("treasury", 5), ("brook", 4)]})
    r = run_cli("lexsub", "--checkpoint", workdir / "model.ckpt", "--items", items, "--candidates", cands)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1 predictions\n"
    assert "# no candidates for item d1, skipped\n" in r.stderr


@pytest.mark.parametrize("word,value", [("yes", True), ("OFF", False)])
def test_config_values_take_their_flag_type(tmp_path, word, value):
    """A boolean flag reads a boolean word; a flag with no type (peephole) keeps the string."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"forward-only = {word}\npeephole = diagonal\n")
    r = run_cli("gradcheck", "--config", cfg, "--d", 4, "--d-h", 3, "--batch", 2)
    assert r.returncode == 0, r.stdout + r.stderr
    assert f"# forward_only = {value}\n" in r.stderr
    assert "# peephole = diagonal\n" in r.stderr
    assert "PASS" in r.stdout


def test_a_config_value_of_the_wrong_type_fails(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cap = many\n")
    r = run_cli("vocab", "--config", cfg, "--input", workdir / "train.src", "--output", tmp_path / "v.tsv")
    assert r.returncode == 1
    assert f"error: {cfg}: line 1: config key 'cap': bad value 'many'\n" in r.stderr
    assert not (tmp_path / "v.tsv").exists()


@pytest.mark.parametrize("line,message", [
    ("forward-only = maybe", "config key 'forward-only' expects a boolean, got 'maybe'"),
    ("peephole = banana", "config key 'peephole': bad value 'banana', expected one of 'full', 'diagonal'"),
    ("capp = 5", "unknown config key 'capp' for command 'gradcheck'"),
])
def test_a_bad_config_line_is_named_with_its_file_and_line(tmp_path, line, message):
    """A key the command lacks, or a value outside the flag's type or choices, fails at its line."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# defaults\nseeds = 1\n{line}\n")
    r = run_cli("gradcheck", "--config", cfg)
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr == f"error: {cfg}: line 3: {message}\n"


def test_threads_after_numpy_is_imported_warns(workdir, tmp_path, monkeypatch, capsys):
    """In a process that has loaded numpy, --threads cannot size the pools any more, and says so."""
    from wicrep import cli

    for var in cli._THREAD_VARS:  # monkeypatch puts back what main() sets
        monkeypatch.setenv(var, "2")
    assert "numpy" in sys.modules
    assert cli.main(["vocab", "--threads", "1", "--input", str(workdir / "train.src"),
                     "--output", str(tmp_path / "v.tsv")]) == 0
    assert "# warning: numpy already imported, --threads may not take effect\n" in capsys.readouterr().err


def test_finetune_supersense_needs_a_vocabulary_or_a_checkpoint(workdir, tmp_path):
    r = run_cli("finetune-supersense", "--train", workdir / "train.sst", "--dev", workdir / "dev.sst",
                "--out", tmp_path / "t.ckpt")
    assert r.returncode == 1
    assert "error: random init needs --src-vocab (or pass --checkpoint)\n" in r.stderr
    assert not (tmp_path / "t.ckpt").exists()


def test_lexsub_type_vectors_without_the_target_word_is_an_error(tmp_path):
    (tmp_path / "vectors").write_text("1 2\nloan 1 0\n")
    (tmp_path / "items").write_text("d0\tzzz.n\t0\tzzz loan\n")
    save_candidate_table(tmp_path / "cands", {"zzz": [("loan", 3)]})
    r = run_cli("lexsub", "--type-vectors", tmp_path / "vectors", "--items", tmp_path / "items",
                "--candidates", tmp_path / "cands")
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr.endswith("\nerror: target word 'zzz' not in vector table\n")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("case", ["pretrain", "finetune", "finetune-skip-unlabeled"])
def test_an_empty_training_input_names_its_file(workdir, tmp_path, case):
    """No instance to train on is an error naming the file, raised before any head is built."""
    empty = tmp_path / "train.in"
    out = tmp_path / "m.ckpt"
    if case == "pretrain":
        empty.write_text("")
        r = run_cli("pretrain", "--instances", empty, "--src-vocab", workdir / "src.vocab",
                    "--tgt-vocab", workdir / "tgt.vocab", "--out", out, "--d", 4, "--d-h", 4)
        message = "no training instances"
    else:
        skip = case == "finetune-skip-unlabeled"
        empty.write_text("the\tO\nbank\tO\n" if skip else "")
        r = run_cli("finetune-supersense", "--train", empty, "--dev", workdir / "dev.sst",
                    "--src-vocab", workdir / "src.vocab", "--out", out, "--d", 4, "--d-h", 4,
                    *(["--skip-unlabeled"] if skip else []))
        message = "no labeled tokens to train on" if skip else "no tokens to train on"
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stderr.endswith(f"\nerror: {empty}: {message}\n")
    assert "Traceback" not in r.stderr
    assert not out.exists()
