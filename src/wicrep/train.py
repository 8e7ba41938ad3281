"""Initialization, Adam, the pretraining/fine-tuning loop, and checkpoints.

Fine-tuning on a labeled task reuses the same loop: labeled tokens are
packed into the same instance shape (ids, position, label id) and a fresh
head replaces the translation head while all parameters stay trainable.
"""

from __future__ import annotations

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
    Factored,
    LstmDirectionParams,
    SoftmaxHead,
    SparseRows,
    batch_nll,
    get_flat_params,
    loss_and_gradients,
    param_items,
    set_flat_params,
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
        for name in ("d", "d_h", "batch_size", "patience", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1 when set, got {self.eval_every}")
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.adam_eps < math.inf):
            raise ValueError("learning_rate and adam_eps must be positive and finite")
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
    return enc, _init_head(enc, n_labels, rng)


def init_task_head(cfg: TrainConfig, enc: BiLstmEncoder, n_labels: int, seed: int) -> SoftmaxHead:
    """Fresh glorot-initialized softmax head for a transfer task."""
    return _init_head(enc, n_labels, make_rng(seed))


def _init_head(enc: BiLstmEncoder, n_labels: int, rng) -> SoftmaxHead:
    """A glorot projection as wide as enc's output, drawn from rng, and a zero bias."""
    return SoftmaxHead(init_matrix(n_labels, enc.output_dim, "glorot", rng), np.zeros(n_labels))


ADAM_BLOCK = 32768  # values of one tensor adam_step updates together (a run of rows); bounds its scratch
# Largest share of live rows that adam_step gathers and scatters; a tensor with
# more is updated whole, which costs less from about 30% of its rows on.
ADAM_GATHER_SHARE = 0.25


@dataclass
class AdamState:
    """Adam's moments, cold-row masks, step count and hyperparameters.

    Each of m and v is one flat float64 array: m[name] and v[name] are
    C-contiguous views of it, in the parameters' order (see for_params).
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    # Per tensor of two or more dimensions, until adam_step updates it whole
    # (at its first dense or Factored gradient, or past ADAM_GATHER_SHARE live
    # rows): True for each row no gradient has touched yet. Such a row has m = v = 0.
    cold: dict[str, np.ndarray]
    t: int
    alpha: float
    beta1: float
    beta2: float
    eps: float

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], alpha=1e-3, beta1=0.9, beta2=0.999,
                   eps=1e-8) -> "AdamState":
        """Float64 zero moments shaped like the parameters, every row cold.

        Each moment is one flat np.zeros array of every parameter's values,
        and m[name], v[name] are C-contiguous views of it in params' order.
        So a run makes two moment allocations, not two per tensor: the
        LSTM's many small gate moments share the huge pages of one large
        array instead of each being faulted in page by page as it is first
        written. np.zeros leaves the zeroing to the operating system, so a
        page is first touched when adam_step updates a row on it; the rows
        of an embedding no batch reads are never touched.
        """
        sizes = [p.size for p in params.values()]

        def views() -> dict[str, np.ndarray]:
            pieces = np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1])
            return {k: piece.reshape(p.shape) for (k, p), piece in zip(params.items(), pieces)}

        return cls(
            m=views(), v=views(),
            cold={k: np.ones(len(p), dtype=bool) for k, p in params.items() if p.ndim >= 2},
            t=0, alpha=alpha, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | SparseRows | Factored],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """In-place Adam update with bias-corrected moments.

    Every element sees the float64 operations of the whole-tensor formula

        m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
        p -= alpha * (m/bc1) / (sqrt(v/bc2) + eps)

    in the same order, and so gets the same bits. The rows of each tensor
    (of one or more dimensions; a 1-d tensor's rows are its values) are
    updated in runs of about ADAM_BLOCK values, or one row when a row is
    wider, through one scratch buffer, so no full-size temporary is made.

    A gradient may also come in the compact forms of
    loss_and_gradients(sparse=True): SparseRows for the embedding and
    Factored for the head projection. Such a gradient is never made whole:
    the rows of two runs at a time are made from it, in one product for a
    Factored head (a product of two or more rows has the whole product's
    bits), with the bits of the dense gradient's rows.

    Rows that are still cold (zero gradient now and at every earlier step)
    may be skipped: with g, m and v all zero the formula gives m = v = +0
    and p -= +0, which leaves p's bits as they are, -0.0 included. Only a
    SparseRows gradient skips them. Its rows turn live for good once they
    have a nonzero entry (NaN and inf count, -0.0 does not), and while at
    most ADAM_GATHER_SHARE of the tensor's rows are live, its runs are of
    live rows, gathered and scattered back. Past that, or at the tensor's
    first dense or Factored gradient, the tensor drops its mask and its
    runs are views of every row, updated in place, which is exact for the
    same reason.

    A 0-d tensor is updated as one value, and a tensor with no values is
    skipped. A non-finite gradient raises TrainingError naming its tensor;
    the tensors and runs before it are then updated, and the rest are not.
    """
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    # A run is about ADAM_BLOCK values of one tensor, or one row when a row is wider.
    largest = max((min(p.size, max(ADAM_BLOCK, math.prod(p.shape[1:]))) for p in params.values()),
                  default=0)
    scratch = np.empty((2, largest))
    for name, p in params.items():
        if p.size == 0:
            continue
        m, v, g = state.m[name], state.v[name], grads[name]
        if p.ndim == 0:  # one value: a tensor of one row, as views
            p, m, v, g = (x.reshape(1) for x in (p, m, v, g))
        dense = isinstance(g, np.ndarray)
        live = None  # the rows to update, when not every row
        cold = state.cold.get(name)
        if cold is not None:
            if isinstance(g, SparseRows):
                cold[g.touched()] = False
                live = np.flatnonzero(~cold)
            if live is None or live.size > ADAM_GATHER_SHARE * len(cold):
                del state.cold[name]
                live = None
        n = len(p) if live is None else len(live)
        step = max(1, ADAM_BLOCK // math.prod(p.shape[1:]))  # rows per run
        for r in range(0, n, step):
            rows = slice(r, r + step) if live is None else live[r : r + step]
            run = p[rows], m[rows], v[rows]  # views, or gathered copies
            if not dense and r % (2 * step) == 0:  # a compact gradient's rows: two runs' at a time
                made = None  # the previous pair is freed before the next is made
                made = g.rows(np.arange(r, min(r + 2 * step, n)) if live is None else live[r : r + 2 * step])
            _adam_rows(name, *run, g[rows] if dense else made[r % (2 * step) :][:step], state, bc1, bc2,
                       scratch)
            if live is not None:
                p[rows], m[rows], v[rows] = run
    return params, state


def _adam_rows(name, p, m, v, g, state: AdamState, bc1: float, bc2: float, scratch: np.ndarray) -> None:
    """The Adam formula in place over one run of rows, through the two rows of scratch."""
    if not np.isfinite(g).all():
        raise TrainingError(f"non-finite gradient in tensor {name}")
    s1, s2 = (s[: g.size].reshape(g.shape) for s in scratch)
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
    p -= s1


def perplexity(enc: BiLstmEncoder, head: SoftmaxHead, instances: Sequence[TranslationInstance]) -> float:
    """exp of the mean negative log probability of each instance's target; inf where that overflows."""
    if len(instances) == 0:
        raise ValueError("perplexity needs at least one instance")
    nll = batch_nll(enc, head, instances)
    try:
        return math.exp(sum(nll) / len(nll))
    except OverflowError:  # a mean above about 709.8
        return math.inf


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

    Each epoch's order is drawn from the seeded generator as it starts. Dev
    perplexity is measured every cfg.eval_every updates (or at each epoch
    end when unset; a shorter run, once at its end); training stops after
    cfg.patience consecutive evaluations without improvement, or at
    cfg.max_epochs. An empty dev set disables early stopping and the final
    parameters win. enc and head are trained in place, left holding the
    best parameters, and are what the returned checkpoint holds. With a dev
    set the first evaluation and each better one replace the one flat
    snapshot of the parameters (the old one is freed first), and the best
    is copied back at the end; without one nothing is copied.

    Each update holds the model, its moments, the batch's scan traces and
    its gradients in compact form (loss_and_gradients(sparse=True)); no
    (V, d) embedding or (labels, W) head gradient is made, and a batch's
    gradients are freed before the next batch or a snapshot.
    """
    if len(train_instances) == 0:
        raise ValueError("training set must be non-empty")
    params = dict(param_items(enc, head))
    state = AdamState.for_params(params, alpha=cfg.learning_rate, beta1=cfg.beta1,
                                 beta2=cfg.beta2, eps=cfg.adam_eps)
    rng = make_rng(cfg.seed)
    history: list[EvalRecord] = []
    best, best_ppl, bad_evals = None, math.inf, 0
    interval_loss, interval_count = 0.0, 0
    per_epoch = -(-len(train_instances) // cfg.batch_size)  # updates per epoch
    total = cfg.max_epochs * per_epoch
    every = min(cfg.eval_every or per_epoch, total)  # a run shorter than eval_every evaluates at its end
    for update in range(1, total + 1):
        start = (update - 1) % per_epoch * cfg.batch_size
        if start == 0:
            order = rng.permutation(len(train_instances))
        batch = [train_instances[k] for k in order[start : start + cfg.batch_size]]
        loss, grads = loss_and_gradients(enc, head, batch, sparse=True)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite training loss {loss} at update {update}")
        adam_step(params, grads, state)
        # A full gradient set: freed before the next one is built or a snapshot is taken.
        del grads
        interval_loss += loss
        interval_count += len(batch)
        if update % every:
            continue
        ppl = perplexity(enc, head, dev_instances) if len(dev_instances) else math.nan
        history.append(EvalRecord(update, interval_loss / interval_count, ppl))
        log(f"{update}\t{history[-1].train_loss:.6f}\t{ppl:.6f}")
        interval_loss, interval_count = 0.0, 0
        if not len(dev_instances):
            continue
        if best is None or ppl < best_ppl:
            best_ppl, bad_evals = ppl, 0
            best = None  # the old snapshot is freed before the new one is taken
            best = get_flat_params(enc, head)
        else:
            bad_evals += 1
            if bad_evals >= cfg.patience:
                break
    if best is not None:
        set_flat_params(enc, head, best)
    ckpt = Checkpoint(asdict(cfg), src_vocab, enc, head, tgt_vocab=tgt_vocab, labels=labels)
    ckpt.config["head_kind"] = ckpt.head_kind
    return ckpt, history


def model_from_arrays(arrays: dict[str, np.ndarray]) -> tuple[BiLstmEncoder, SoftmaxHead]:
    """Encoder and head from per-gate arrays named as by param_items (gate arrays are copied)."""
    fwd = LstmDirectionParams.from_gates(**{f: arrays[f"fwd.{f}"] for f in DIRECTION_FIELDS})
    bwd = None
    if "bwd.w_xi" in arrays:
        bwd = LstmDirectionParams.from_gates(**{f: arrays[f"bwd.{f}"] for f in DIRECTION_FIELDS})
    enc = BiLstmEncoder(arrays["embedding"], fwd, bwd)
    head = SoftmaxHead(arrays["head.projection"], arrays["head.bias"])
    return enc, head


LOAD_BLOCK = 1 << 20  # float32 values written to or read from a checkpoint file at a time; bounds the scratch


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Binary layout: magic, version, length-prefixed JSON metadata, then the
    tensors as little-endian float32 in declared order.

    Each tensor is converted and written LOAD_BLOCK values at a time through
    one float32 buffer, so no float32 copy of a whole tensor is made. A value
    that is not a finite float32 (NaN, inf, or beyond the float32 range)
    raises ValueError naming the tensor and the flat index: load_checkpoint
    would reject the file. So does, before the file is touched, a header
    that fails the loader's own checks (_head_names_problem, _check_shapes).
    The file is written under a temporary name in the same directory and
    then renamed over path, so a failed or interrupted save leaves any
    previous checkpoint at path intact.
    """
    problem = _head_names_problem(ckpt.tgt_vocab is not None, ckpt.labels)
    if problem:
        raise ValueError(f"{path}: checkpoint {problem}")
    items = param_items(ckpt.encoder, ckpt.head)
    _check_shapes(path, [(name, arr.shape) for name, arr in items], len(ckpt.src_vocab), ckpt.label_names(),
                  error=ValueError)
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
    buf = np.empty(min(LOAD_BLOCK, max(arr.size for _, arr in items)), dtype="<f4")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(meta_bytes)))
            fh.write(meta_bytes)
            for name, arr in items:
                values = arr.reshape(-1)  # a view: the tensors of param_items are C-contiguous
                for start in range(0, values.size, LOAD_BLOCK):
                    block = buf[: min(LOAD_BLOCK, values.size - start)]
                    with np.errstate(over="ignore"):  # a value cast to inf is reported below
                        block[:] = values[start : start + LOAD_BLOCK]
                    # A float64 sum of float32 values cannot overflow, so it is
                    # finite exactly when every value is.
                    if not np.isfinite(block.sum(dtype=np.float64)):
                        bad = start + int(np.flatnonzero(~np.isfinite(block))[0])
                        raise ValueError(f"{path}: value {values[bad]} in tensor {name} (flat index {bad}) "
                                         "is not a finite float32")
                    fh.write(memoryview(block).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        src_vocab, tgt_vocab, labels, tensors = _read_metadata(path, meta)
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


def _read_metadata(path, meta) -> tuple[Vocabulary, Vocabulary | None, list[str] | None, list]:
    """The vocabularies, labels and (name, shape) tensor list of a parsed header.

    Raises CheckpointCorruptError naming path unless each field has its type
    and the head's rows are named as _head_names_problem requires.
    """
    def corrupt(what: str) -> CheckpointCorruptError:
        return CheckpointCorruptError(f"{path}: metadata {what}")

    def vocabulary(key: str) -> Vocabulary:
        try:
            return Vocabulary.from_pairs(meta[key])
        except (TypeError, ValueError, IndexError) as exc:  # not (word, count) pairs, or no <unk> first
            raise corrupt(f"{key!r} is not a vocabulary ({exc})") from exc

    if not isinstance(meta, dict):
        raise corrupt("is not a JSON object")
    for key in ("config", "src_vocab", "tensors"):
        if key not in meta:
            raise corrupt(f"missing {key!r}")
    if not isinstance(meta["config"], dict):
        raise corrupt("'config' is not a JSON object")
    labels = meta.get("labels")
    problem = _head_names_problem(meta.get("tgt_vocab") is not None, labels)
    if problem:
        raise corrupt(problem)
    tensors = meta["tensors"]
    if not (isinstance(tensors, list) and all(
            isinstance(t, list) and len(t) == 2 and isinstance(t[0], str) and isinstance(t[1], list)
            and all(type(n) is int and n >= 0 for n in t[1]) for t in tensors)):
        raise corrupt("'tensors' is not a list of [name, shape] pairs")
    src_vocab = vocabulary("src_vocab")
    tgt_vocab = vocabulary("tgt_vocab") if meta.get("tgt_vocab") is not None else None
    return src_vocab, tgt_vocab, labels, [(name, tuple(shape)) for name, shape in tensors]


def _head_names_problem(has_tgt_vocab: bool, labels) -> str | None:
    """Why a header cannot name its head's rows (exactly one of a tgt_vocab and string labels), or None.

    save_checkpoint and _read_metadata share it, so no save writes a header a load rejects or misreads.
    """
    if labels is not None and not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        return "'labels' is not a list of strings"
    if has_tgt_vocab == (labels is not None):
        which = "both 'tgt_vocab' and" if has_tgt_vocab else "neither 'tgt_vocab' nor"
        return f"has {which} 'labels' (exactly one of tgt_vocab or labels names the head's rows)"
    return None


def _check_shapes(path, tensors: list[tuple[str, tuple]], n_words: int, labels: Sequence[str],
                  error: type[Exception] = CheckpointCorruptError) -> None:
    """Raise error naming path unless tensors lists each tensor of one model once, in its shape.

    bwd.w_xi makes the encoder bidirectional, fwd.w_xi fixes H and d, and
    fwd.w_ci the peephole form; the vocabulary and the head's names fix the
    rows of the embedding and the head, as wide as the encoder.
    """
    shapes = dict(tensors)
    prefixes = ("fwd", "bwd") if "bwd.w_xi" in shapes else ("fwd",)
    names = ["embedding", *(f"{p}.{f}" for p in prefixes for f in DIRECTION_FIELDS),
             "head.projection", "head.bias"]
    missing = [name for name in names if name not in shapes]
    if missing:
        raise error(f"{path}: tensor list incomplete ({missing[0]!r})")
    w_xi = shapes["fwd.w_xi"]
    if len(w_xi) != 2:
        raise error(f"{path}: tensor fwd.w_xi has shape {w_xi}, expected (H, d)")
    hsz, d = w_xi
    weights = {"x": (hsz, d), "h": (hsz, hsz), "c": (hsz, hsz) if len(shapes["fwd.w_ci"]) == 2 else (hsz,)}
    rows = len(labels)
    fixed = {"embedding": (n_words, d), "head.projection": (rows, hsz * len(prefixes)), "head.bias": (rows,)}
    for name in names:
        field = name.partition(".")[2]
        want = fixed.get(name) or (weights[field[2]] if field.startswith("w_") else (hsz,))
        if shapes[name] != want:
            raise error(f"{path}: tensor {name} has shape {shapes[name]}, expected {want}")
    if len(tensors) != len(names):  # every name is there, so some are extra or repeated
        raise error(f"{path}: {len(tensors)} tensors listed, the model has {len(names)}")
