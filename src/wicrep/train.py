"""Initialization, Adam, the pretraining/fine-tuning loop, and checkpoints.

Fine-tuning on a labeled task reuses the same loop: labeled tokens are
packed into the same instance shape (ids, position, label id) and a fresh
head replaces the translation head while all parameters stay trainable.
"""

from __future__ import annotations

import copy
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import TranslationInstance, Vocabulary
from .errors import CheckpointCorruptError, CheckpointFormatError, TrainingError
from .model import (
    DIRECTION_FIELDS,
    BiLstmEncoder,
    LstmDirectionParams,
    SoftmaxHead,
    batch_nll,
    loss_and_gradients,
    param_items,
)
from .numkit import init_matrix, make_rng

CHECKPOINT_MAGIC = b"WICREPCK"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    d: int = 300
    d_h: int = 300
    batch_size: int = 128
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    eval_every: int | None = None  # dev evals every N updates; None = once per epoch
    patience: int = 3
    max_epochs: int = 20
    seed: int = 0
    peephole: str = "full"  # "full" or "diagonal"
    forward_only: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.peephole not in ("full", "diagonal"):
            raise ValueError(f"unknown peephole mode {self.peephole!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")


@dataclass
class Checkpoint:
    """Everything needed to rebuild a trained model: config echo, vocabularies, tensors."""

    config: dict
    src_vocab: Vocabulary
    encoder: BiLstmEncoder
    head: SoftmaxHead
    tgt_vocab: Vocabulary | None = None  # translation head
    labels: list[str] | None = None     # task head

    @property
    def head_kind(self) -> str:
        return "translation" if self.tgt_vocab is not None else "labels"

    def label_names(self) -> list[str]:
        return self.tgt_vocab.words if self.tgt_vocab is not None else list(self.labels)


def _init_direction(d: int, hsz: int, peephole: str, rng) -> LstmDirectionParams:
    # Draw order follows DIRECTION_FIELDS so a seed pins the whole parameter set.
    arrays = {}
    for name in DIRECTION_FIELDS:
        if name.startswith("w_x"):
            arrays[name] = init_matrix(hsz, d, "glorot", rng)
        elif name.startswith("w_h"):
            arrays[name] = init_matrix(hsz, hsz, "orthogonal", rng)
        elif name.startswith("w_c"):
            if peephole == "diagonal":
                limit = math.sqrt(3.0 / hsz)
                arrays[name] = rng.uniform(-limit, limit, size=hsz)
            else:
                arrays[name] = init_matrix(hsz, hsz, "orthogonal", rng)
        else:
            arrays[name] = np.zeros(hsz)
    return LstmDirectionParams.from_gates(**arrays)


def init_model(cfg: TrainConfig, src_vocab_size: int, n_labels: int) -> tuple[BiLstmEncoder, SoftmaxHead]:
    """Fresh parameters: uniform(0.08) embeddings, orthogonal recurrent and
    peephole matrices, glorot input and head weights, zero biases.

    Forward-only mode doubles the hidden size so the context vector keeps
    the same width as the bidirectional encoder.
    """
    rng = make_rng(cfg.seed)
    hsz = 2 * cfg.d_h if cfg.forward_only else cfg.d_h
    embeddings = init_matrix(src_vocab_size, cfg.d, "uniform", rng, scale=0.08)
    fwd = _init_direction(cfg.d, hsz, cfg.peephole, rng)
    bwd = None if cfg.forward_only else _init_direction(cfg.d, hsz, cfg.peephole, rng)
    enc = BiLstmEncoder(embeddings, fwd, bwd)
    if enc.output_dim != 2 * cfg.d_h:
        raise AssertionError("encoder output width must be 2*d_h in every configuration")
    head = SoftmaxHead(init_matrix(n_labels, enc.output_dim, "glorot", rng), np.zeros(n_labels))
    return enc, head


def init_task_head(cfg: TrainConfig, enc: BiLstmEncoder, n_labels: int, seed: int) -> SoftmaxHead:
    """Fresh glorot-initialized softmax head for a transfer task."""
    rng = make_rng(seed)
    return SoftmaxHead(init_matrix(n_labels, enc.output_dim, "glorot", rng), np.zeros(n_labels))


ADAM_BLOCK = 32768  # elements of one tensor updated together by adam_step; bounds its scratch


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int
    alpha: float
    beta1: float
    beta2: float
    eps: float

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], alpha=1e-3, beta1=0.9, beta2=0.999,
                   eps=1e-8) -> "AdamState":
        """Float64 zero moments shaped like the parameters.

        np.zeros leaves the zeroing of large moments to the operating system,
        page by page, so each page is first touched inside adam_step's block
        loop instead of being written here once more.
        """
        return cls(
            m={k: np.zeros(p.shape) for k, p in params.items()},
            v={k: np.zeros(p.shape) for k, p in params.items()},
            t=0, alpha=alpha, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """In-place Adam update with bias-corrected moments.

    Each tensor is updated in blocks of ADAM_BLOCK elements of its flattened
    form, through two scratch buffers allocated once per call, so no
    full-size temporary is made. Every element sees the same float64
    operations in the same order as the whole-tensor formula

        m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
        p -= alpha * (m/bc1) / (sqrt(v/bc2) + eps)

    and so gets the same bits. A non-finite gradient raises TrainingError
    naming its tensor; the blocks before the bad one are then already updated.
    """
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    largest = max((p.size for p in params.values()), default=0)
    scratch1 = np.empty(min(largest, ADAM_BLOCK))
    scratch2 = np.empty_like(scratch1)
    for name, p in params.items():
        # reshape(-1) is a view of a C-contiguous array and a copy of any
        # other, which is written back below.
        flat_p, flat_m, flat_v = (a.reshape(-1) for a in (p, state.m[name], state.v[name]))
        flat_g = grads[name].reshape(-1)
        for start in range(0, flat_p.size, ADAM_BLOCK):
            blk = slice(start, start + ADAM_BLOCK)
            g, m, v, pb = flat_g[blk], flat_m[blk], flat_v[blk], flat_p[blk]
            s1, s2 = scratch1[: g.size], scratch2[: g.size]
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient in tensor {name}")
            m *= state.beta1
            np.multiply(1.0 - state.beta1, g, out=s1)
            m += s1
            v *= state.beta2
            np.multiply(1.0 - state.beta2, g, out=s2)
            s2 *= g
            v += s2
            np.divide(m, bc1, out=s1)
            s1 *= state.alpha
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += state.eps
            s1 /= s2
            pb -= s1
        for dst, flat in ((p, flat_p), (state.m[name], flat_m), (state.v[name], flat_v)):
            if not np.may_share_memory(dst, flat):
                dst[...] = flat.reshape(dst.shape)
    return params, state


def perplexity(enc: BiLstmEncoder, head: SoftmaxHead, instances: Sequence[TranslationInstance]) -> float:
    """exp of the mean negative log probability of each instance's target."""
    if len(instances) == 0:
        raise ValueError("perplexity needs at least one instance")
    nll = batch_nll(enc, head, instances)
    return float(math.exp(sum(nll) / len(nll)))


@dataclass
class EvalRecord:
    update: int
    train_loss: float  # mean per-instance NLL since the previous evaluation
    dev_ppl: float


def _tsv_logger(line: str) -> None:
    print(line, flush=True)


def train(
    enc: BiLstmEncoder,
    head: SoftmaxHead,
    train_instances: Sequence[TranslationInstance],
    dev_instances: Sequence[TranslationInstance],
    cfg: TrainConfig,
    *,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary | None = None,
    labels: list[str] | None = None,
    log: Callable[[str], None] = _tsv_logger,
) -> tuple[Checkpoint, list[EvalRecord]]:
    """Adam-optimize the summed NLL; keep the best-dev-perplexity parameters.

    Instances are reshuffled every epoch with the seeded generator. Dev
    perplexity is measured every cfg.eval_every updates (or at each epoch
    end when unset); training stops after cfg.patience consecutive
    evaluations without improvement, or at cfg.max_epochs. An empty dev set
    disables early stopping and the final parameters win. enc and head are
    updated in place; the returned checkpoint holds an independent copy of
    the best parameters. That copy is first taken before the first update
    only when there is a dev set (no evaluation may improve on the initial
    parameters); without one it is taken once, after the last update.
    """
    if len(train_instances) == 0:
        raise ValueError("training set must be non-empty")
    params = dict(param_items(enc, head))
    state = AdamState.for_params(params, alpha=cfg.learning_rate, beta1=cfg.beta1,
                                 beta2=cfg.beta2, eps=cfg.adam_eps)
    rng = make_rng(cfg.seed)
    history: list[EvalRecord] = []
    # Without a dev set the snapshot is taken after the last update instead.
    best = copy.deepcopy((enc, head)) if len(dev_instances) else None
    best_ppl = math.inf
    bad_evals = 0
    update = 0
    interval_loss = 0.0
    interval_count = 0

    def evaluate() -> bool:
        nonlocal best_ppl, best, bad_evals, interval_loss, interval_count
        mean_loss = interval_loss / interval_count if interval_count else math.nan
        ppl = perplexity(enc, head, dev_instances) if len(dev_instances) else math.nan
        history.append(EvalRecord(update, mean_loss, ppl))
        log(f"{update}\t{mean_loss:.6f}\t{ppl:.6f}")
        interval_loss = 0.0
        interval_count = 0
        if not len(dev_instances):
            return False
        if ppl < best_ppl:
            best_ppl = ppl
            best = copy.deepcopy((enc, head))
            bad_evals = 0
            return False
        bad_evals += 1
        return bad_evals >= cfg.patience

    stop = False
    for _epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_instances))
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_instances[k] for k in order[start : start + cfg.batch_size]]
            loss, grads = loss_and_gradients(enc, head, batch)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite training loss {loss} at update {update}")
            adam_step(params, grads, state)
            # A full gradient set: freed before the next one is built or a snapshot is taken.
            del grads
            update += 1
            interval_loss += loss
            interval_count += len(batch)
            if cfg.eval_every and update % cfg.eval_every == 0:
                stop = evaluate()
                if stop:
                    break
        if stop:
            break
        if not cfg.eval_every:
            stop = evaluate()
            if stop:
                break

    if not len(dev_instances):
        best = copy.deepcopy((enc, head))
    best_enc, best_head = best
    ckpt = Checkpoint(
        config=_config_echo(cfg, head_kind="translation" if tgt_vocab is not None else "labels"),
        src_vocab=src_vocab,
        encoder=best_enc,
        head=best_head,
        tgt_vocab=tgt_vocab,
        labels=labels,
    )
    return ckpt, history


def _config_echo(cfg: TrainConfig, head_kind: str) -> dict:
    echo = asdict(cfg)
    echo["head_kind"] = head_kind
    return echo


def model_from_arrays(arrays: dict[str, np.ndarray]) -> tuple[BiLstmEncoder, SoftmaxHead]:
    """Encoder and head from per-gate arrays named as by param_items (gate arrays are copied)."""
    fwd = LstmDirectionParams.from_gates(**{f: arrays[f"fwd.{f}"] for f in DIRECTION_FIELDS})
    bwd = None
    if "bwd.w_xi" in arrays:
        bwd = LstmDirectionParams.from_gates(**{f: arrays[f"bwd.{f}"] for f in DIRECTION_FIELDS})
    enc = BiLstmEncoder(arrays["embedding"], fwd, bwd)
    head = SoftmaxHead(arrays["head.projection"], arrays["head.bias"])
    return enc, head


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Binary layout: magic, version, length-prefixed JSON metadata, then the
    tensors as little-endian float32 in declared order.

    The file is written under a temporary name in the same directory and then
    renamed over path, so an interrupted save leaves any previous checkpoint
    at path intact.
    """
    items = param_items(ckpt.encoder, ckpt.head)
    meta = {
        "config": ckpt.config,
        "src_vocab": ckpt.src_vocab.to_pairs(),
        "tgt_vocab": ckpt.tgt_vocab.to_pairs() if ckpt.tgt_vocab is not None else None,
        "labels": ckpt.labels,
        "tensors": [[name, list(arr.shape)] for name, arr in items],
    }
    meta_bytes = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(meta_bytes)))
            fh.write(meta_bytes)
            for _, arr in items:
                # the float32 buffer itself, as bytes; tobytes() would copy it again
                fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


LOAD_BLOCK = 1 << 20  # float32 values read from a checkpoint file at a time; bounds load's scratch


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, checking the header's tensor shapes and byte count before any tensor.

    Tensors are read LOAD_BLOCK values at a time into the model's own arrays.
    """
    preamble = len(CHECKPOINT_MAGIC) + 12
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head_bytes = fh.read(preamble)
        if len(head_bytes) < preamble or not head_bytes.startswith(CHECKPOINT_MAGIC):
            raise CheckpointFormatError(f"{path}: not a checkpoint file (bad magic bytes)")
        version, meta_len = struct.unpack_from("<IQ", head_bytes, len(CHECKPOINT_MAGIC))
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
        if preamble + meta_len > size:
            raise CheckpointCorruptError(f"{path}: truncated metadata block")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(f"{path}: unreadable metadata block") from exc
        for key in ("config", "src_vocab", "tensors"):
            if key not in meta:
                raise CheckpointCorruptError(f"{path}: metadata missing {key!r}")
        src_vocab = Vocabulary.from_pairs(meta["src_vocab"])
        tgt_vocab = Vocabulary.from_pairs(meta["tgt_vocab"]) if meta.get("tgt_vocab") else None
        labels = meta.get("labels")
        tensors = [(name, tuple(shape)) for name, shape in meta["tensors"]]
        _check_shapes(path, tensors, len(src_vocab), tgt_vocab.words if tgt_vocab is not None else labels)
        end = preamble + meta_len
        for name, shape in tensors:
            end += 4 * math.prod(shape)
            if end > size:
                raise CheckpointCorruptError(f"{path}: truncated tensor section at {name}")
        if end != size:
            raise CheckpointCorruptError(f"{path}: {size - end} trailing bytes after tensors")

        enc, head = model_from_arrays({name: np.empty(shape) for name, shape in tensors})
        owned = dict(param_items(enc, head))  # views into the model's arrays, all C-contiguous
        for name, _ in tensors:
            values = owned[name].reshape(-1)
            for start in range(0, values.size, LOAD_BLOCK):
                chunk = values[start : start + LOAD_BLOCK]
                chunk[:] = np.fromfile(fh, dtype="<f4", count=chunk.size)
            # Squares of float32 values cannot overflow a float64 sum, so this
            # one BLAS pass is finite exactly when every value is.
            if not np.isfinite(np.dot(values, values)):
                bad = int(np.flatnonzero(~np.isfinite(values))[0])
                raise CheckpointCorruptError(
                    f"{path}: non-finite value {values[bad]} in tensor {name} (flat index {bad})")
    return Checkpoint(config=meta["config"], src_vocab=src_vocab, encoder=enc, head=head,
                      tgt_vocab=tgt_vocab, labels=labels)


def _check_shapes(path, tensors: list[tuple[str, tuple]], n_words: int, labels: list[str] | None) -> None:
    """Raise CheckpointCorruptError unless tensors lists each tensor of one model once, in its shape.

    bwd.w_xi makes the encoder bidirectional, fwd.w_xi fixes H and d, and
    fwd.w_ci the peephole form; the vocabulary and labels (else the head
    itself) fix the rows of the embedding and the head, as wide as the encoder.
    """
    shapes = dict(tensors)
    prefixes = ("fwd", "bwd") if "bwd.w_xi" in shapes else ("fwd",)
    names = ["embedding", *(f"{p}.{f}" for p in prefixes for f in DIRECTION_FIELDS),
             "head.projection", "head.bias"]
    missing = [name for name in names if name not in shapes]
    if missing:
        raise CheckpointCorruptError(f"{path}: tensor list incomplete ({missing[0]!r})")
    w_xi = shapes["fwd.w_xi"]
    if len(w_xi) != 2:
        raise CheckpointCorruptError(f"{path}: tensor fwd.w_xi has shape {w_xi}, expected (H, d)")
    hsz, d = w_xi
    weights = {"x": (hsz, d), "h": (hsz, hsz), "c": (hsz, hsz) if len(shapes["fwd.w_ci"]) == 2 else (hsz,)}
    rows = shapes["head.projection"][:1] if labels is None else (len(labels),)
    fixed = {"embedding": (n_words, d), "head.projection": (*rows, hsz * len(prefixes)), "head.bias": rows}
    for name in names:
        field = name.partition(".")[2]
        want = fixed.get(name) or (weights[field[2]] if field.startswith("w_") else (hsz,))
        if shapes[name] != want:
            raise CheckpointCorruptError(f"{path}: tensor {name} has shape {shapes[name]}, expected {want}")
    if len(tensors) != len(names):  # every name is there, so some are extra or repeated
        raise CheckpointCorruptError(f"{path}: {len(tensors)} tensors listed, the model has {len(names)}")
