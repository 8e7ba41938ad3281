"""Bidirectional peephole-LSTM encoder, softmax heads, and exact loss gradients.

The cell follows the classic peephole recurrences: input and forget gates
read the previous cell state, the output gate reads the freshly computed
one, and the token representation at position t is the concatenation of
the forward and backward hidden states there. Peephole weights are full
square matrices by default, with a "diagonal" option storing one weight
per cell coordinate.

Gradients are computed by hand (backpropagation through time) rather than
by an autodiff framework so they can be certified coordinate-by-coordinate
against the central-difference oracle in numkit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import TranslationInstance
from .numkit import affine, sigmoid, softmax_stable

# Field order is the declared parameter order for checkpoints, Adam state,
# and gradient checking. Do not reorder.
DIRECTION_FIELDS = (
    "w_xi", "w_hi", "w_ci",
    "w_xf", "w_hf", "w_cf",
    "w_xc", "w_hc",
    "w_xo", "w_ho", "w_co",
    "b_i", "b_f", "b_c", "b_o",
)


def _gate_rows(stacked: str, q: int) -> property:
    """Read-only property: the rows of gate q (order i, f, c, o) of a stacked array, as a view."""
    return property(lambda self: getattr(self, stacked)[q * self.hidden_size : (q + 1) * self.hidden_size])


@dataclass
class LstmDirectionParams:
    """Weights for one scan direction, stored gate-stacked in gate order i, f, c, o.

    wx is (4H, d), wh (4H, H) and b (4H,); the peephole arrays are (H, H)
    or (H,). The per-gate names of DIRECTION_FIELDS (w_xi, ..., b_o) are
    row views of the stacked arrays, so writing to one writes the weights.
    """

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray
    w_ci: np.ndarray
    w_cf: np.ndarray
    w_co: np.ndarray

    w_xi, w_xf, w_xc, w_xo = (_gate_rows("wx", q) for q in range(4))
    w_hi, w_hf, w_hc, w_ho = (_gate_rows("wh", q) for q in range(4))
    b_i, b_f, b_c, b_o = (_gate_rows("b", q) for q in range(4))

    @classmethod
    def from_gates(cls, **gates: np.ndarray) -> "LstmDirectionParams":
        """A direction from the 15 per-gate arrays of DIRECTION_FIELDS; the peephole arrays are not copied."""
        wx, wh, b = (np.concatenate([gates[kind + gate] for gate in "ifco"]) for kind in ("w_x", "w_h", "b_"))
        return cls(wx, wh, b, gates["w_ci"], gates["w_cf"], gates["w_co"])

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[1]

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]

    @property
    def diagonal_peepholes(self) -> bool:
        return self.w_ci.ndim == 1


@dataclass
class SoftmaxHead:
    projection: np.ndarray  # (labels, encoder output width)
    bias: np.ndarray        # (labels,)

    @property
    def n_labels(self) -> int:
        return self.bias.shape[0]


@dataclass
class BiLstmEncoder:
    """Shared embedding table plus one parameter set per scan direction.

    backward=None configures the forward-only variant; its output is the
    bare forward hidden state.
    """

    embeddings: np.ndarray  # (vocab, d)
    forward: LstmDirectionParams
    backward: LstmDirectionParams | None

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.forward.hidden_size

    @property
    def output_dim(self) -> int:
        return self.hidden_size * (2 if self.backward is not None else 1)


def param_items(enc: BiLstmEncoder, head: SoftmaxHead) -> list[tuple[str, np.ndarray]]:
    """All trainable tensors in declared order: embedding, fwd.*, bwd.*, head.

    The per-gate direction tensors are views of the gate-stacked arrays, so
    writing to any tensor listed here writes the model.
    """
    items = [("embedding", enc.embeddings)]
    for prefix, params in (("fwd", enc.forward), ("bwd", enc.backward)):
        if params is None:
            continue
        items.extend((f"{prefix}.{name}", getattr(params, name)) for name in DIRECTION_FIELDS)
    items.append(("head.projection", head.projection))
    items.append(("head.bias", head.bias))
    return items


def get_flat_params(enc: BiLstmEncoder, head: SoftmaxHead) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in param_items(enc, head)])


def set_flat_params(enc: BiLstmEncoder, head: SoftmaxHead, flat: np.ndarray) -> None:
    offset = 0
    for _, arr in param_items(enc, head):
        n = arr.size
        arr[...] = flat[offset : offset + n].reshape(arr.shape)  # arr may be a view
        offset += n
    if offset != flat.shape[0]:
        raise ValueError(f"flat vector has {flat.shape[0]} entries, model needs {offset}")


def lstm_step(
    p: LstmDirectionParams,
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One cell update; returns (h_t, c_t). The output gate peeks at the new cell."""
    if x_t.shape[0] != p.input_size or h_prev.shape[0] != p.hidden_size or c_prev.shape[0] != p.hidden_size:
        raise ValueError(f"lstm_step dimension mismatch: x {x_t.shape}, h {h_prev.shape}, "
                         f"c {c_prev.shape} vs d={p.input_size}, d_h={p.hidden_size}")
    peep = (lambda w, c: w * c) if p.diagonal_peepholes else (lambda w, c: w @ c)
    i = sigmoid(p.w_xi @ x_t + p.w_hi @ h_prev + peep(p.w_ci, c_prev) + p.b_i)
    f = sigmoid(p.w_xf @ x_t + p.w_hf @ h_prev + peep(p.w_cf, c_prev) + p.b_f)
    c = f * c_prev + i * np.tanh(p.w_xc @ x_t + p.w_hc @ h_prev + p.b_c)
    o = sigmoid(p.w_xo @ x_t + p.w_ho @ h_prev + peep(p.w_co, c) + p.b_o)
    h = o * np.tanh(c)
    return h, c


def _peep(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Peephole input for each row of the cell states v; a 1-D w is a diagonal peephole."""
    return v * w if w.ndim == 1 else v @ w.T


def _peep_t(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Transpose of _peep: what d = dL/d(peephole input) sends back to the cell states."""
    return d * w if w.ndim == 1 else d @ w


def _peep_grad(w: np.ndarray, d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Peephole weight gradient from d = dL/d(peephole input) and the cell states v it saw."""
    return (d * v).sum(axis=0) if w.ndim == 1 else d.T @ v


class _Trace(NamedTuple):
    """Per-row scan results; c and tc are kept only when the backward pass needs them."""

    xs: np.ndarray          # (n, d) inputs
    act: np.ndarray         # (n, 4H) gate activations i, f, g, o
    c: np.ndarray | None    # (n, H) cell states
    tc: np.ndarray | None   # tanh(cell)
    h: np.ndarray           # (n, H) hidden states


def _scan(
    p: LstmDirectionParams,
    xs: np.ndarray,
    sizes: Sequence[int],
    trace: bool = False,
    state: tuple[np.ndarray, np.ndarray] | None = None,
) -> _Trace:
    """Run one direction over packed sentences from the initial state (h, c).

    Rows of xs are time-major: step t owns the next sizes[t] rows, one per
    sentence still running. sizes never grows, so the running sentences are
    always a prefix and sentence j keeps row j of the (k, H) state matrices.
    state defaults to zeros; a (1, H) state is broadcast over the rows.
    """
    n = xs.shape[0]
    hsz = p.hidden_size
    # The per-row results share one allocation, which the allocator hands
    # back as a whole once the scan is dropped.
    buf = np.empty((n, (7 if trace else 5) * hsz))
    act, h_all = buf[:, : 4 * hsz], buf[:, 4 * hsz : 5 * hsz]
    c_all, tc_all = (buf[:, 5 * hsz : 6 * hsz], buf[:, 6 * hsz :]) if trace else (None, None)
    np.matmul(xs, p.wx.T, out=act)  # every token's input GEMM, overwritten with activations
    act += p.b
    h, c = state if state is not None else (np.zeros((sizes[0], hsz)), np.zeros((sizes[0], hsz)))
    start = 0
    for k in sizes:
        rows = slice(start, start + k)
        start += k
        h, c = h[:k], c[:k]
        a = act[rows]
        a += h @ p.wh.T
        a[:, :hsz] += _peep(p.w_ci, c)
        a[:, hsz : 2 * hsz] += _peep(p.w_cf, c)
        sigmoid(a[:, : 2 * hsz], out=a[:, : 2 * hsz])
        g = np.tanh(a[:, 2 * hsz : 3 * hsz], out=a[:, 2 * hsz : 3 * hsz])
        c = a[:, hsz : 2 * hsz] * c + a[:, :hsz] * g
        o = a[:, 3 * hsz :]
        o += _peep(p.w_co, c)
        sigmoid(o, out=o)
        tc = np.tanh(c)
        h = o * tc
        h_all[rows] = h
        if trace:
            c_all[rows] = c
            tc_all[rows] = tc
    return _Trace(xs, act, c_all, tc_all, h_all)


def _previous(a: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Each row's value one step earlier in the same sentence (zeros at step 0)."""
    out = np.zeros_like(a)
    # A step-t row minus sizes[t-1] is its step t-1 row; intp keeps the index
    # integral when there is one step and nothing to repeat.
    back = np.repeat(np.asarray(sizes[:-1], dtype=np.intp), sizes[1:])
    out[sizes[0] :] = a[np.arange(sizes[0], a.shape[0]) - back]
    return out


def _scan_backward(
    p: LstmDirectionParams, tr: _Trace, sizes: Sequence[int], dh_seq: np.ndarray,
) -> tuple[np.ndarray, LstmDirectionParams]:
    """BPTT through one packed direction given dL/dh at each row.

    Returns dL/dxs and the weight gradients, laid out as a direction. Initial
    h and c are constants (zero), so their gradients are dropped at t=0.
    """
    n, hsz = tr.h.shape
    c_prev = _previous(tr.c, sizes)
    dpre = tr.act  # each step's activations are overwritten with dL/d(pre-activation)
    dh = np.zeros((sizes[0], hsz))  # carried from step t+1; rows of ended sentences stay zero
    dc = np.zeros((sizes[0], hsz))
    end = n
    for k in reversed(sizes):
        rows = slice(end - k, end)
        end -= k
        d = dpre[rows]
        i, f, g, o = (d[:, q * hsz : (q + 1) * hsz] for q in range(4))
        tc = tr.tc[rows]
        dh_t = dh[:k] + dh_seq[rows]
        d_o = dh_t * tc * o * (1.0 - o)
        # cell gradient collects the tanh path, the carry, and the output peephole
        dc_t = dh_t * o * (1.0 - tc ** 2) + dc[:k] + _peep_t(p.w_co, d_o)
        d_i = dc_t * g * i * (1.0 - i)
        d_f = dc_t * c_prev[rows] * f * (1.0 - f)
        d_g = dc_t * i * (1.0 - g * g)
        dc[:k] = dc_t * f + _peep_t(p.w_ci, d_i) + _peep_t(p.w_cf, d_f)
        d[:, :hsz], d[:, hsz : 2 * hsz], d[:, 2 * hsz : 3 * hsz], d[:, 3 * hsz :] = d_i, d_f, d_g, d_o
        dh[:k] = d @ p.wh
    grads = LstmDirectionParams(
        wx=dpre.T @ tr.xs,
        wh=dpre.T @ _previous(tr.h, sizes),
        b=dpre.sum(axis=0),
        w_ci=_peep_grad(p.w_ci, dpre[:, :hsz], c_prev),
        w_cf=_peep_grad(p.w_cf, dpre[:, hsz : 2 * hsz], c_prev),
        w_co=_peep_grad(p.w_co, dpre[:, 3 * hsz :], tr.c),
    )
    return dpre @ p.wx, grads


class _Packing(NamedTuple):
    """A batch's unique sentences laid out time-major for _scan, per direction."""

    sizes: list[list[int]]       # per direction, rows at each step: sentences still running
    ids: list[np.ndarray]        # per direction, packed token ids (backward: reversed sentences)
    rows: list[np.ndarray]       # per direction and instance, the packed row of its position


def _pack(instances: Sequence[tuple[Sequence[int], int]], bidirectional: bool = True) -> _Packing:
    """Pack (ids, position) instances, each direction only as far as it is read.

    The forward state at t depends on tokens 0..t only, and the backward
    state on tokens t..n-1. So each distinct sentence is scanned forward
    over tokens 0..max t of its instances, and backward over its reversed
    tokens from the end down to min t; rows past those would be discarded.
    Each direction sorts its sentences by the steps it needs, most first,
    ties by ids. bidirectional=False packs the forward direction only.
    A position outside its sentence raises ValueError.
    """
    keys = [tuple(ids) for ids, _ in instances]
    sents = list(dict.fromkeys(keys))
    slot = {s: j for j, s in enumerate(sents)}
    j = np.array([slot[key] for key in keys])
    t = np.array([pos for _, pos in instances])
    lengths = np.array([len(s) for s in sents])
    outside = np.flatnonzero((t < 0) | (t >= lengths[j]))
    if outside.size:
        b = outside[0]
        raise ValueError(f"instance {b}: position {t[b]} outside sentence of length {lengths[j[b]]}")
    out = _Packing([], [], [])
    steps = [t, lengths[j] - 1 - t] if bidirectional else [t]  # each instance's step per direction
    for q, step in enumerate(steps):
        need = np.zeros(len(sents), dtype=np.intp)
        np.maximum.at(need, j, step + 1)
        order = sorted(range(len(sents)), key=lambda k: (-need[k], sents[k]))
        live = np.arange(need[order[0]]) < need[order][:, None]  # (sentence, step)
        sizes = live.sum(axis=0)
        ids = np.zeros(live.shape, dtype=np.intp)
        for r, k in enumerate(order):
            ids[r, : need[k]] = (sents[k][::-1] if q else sents[k])[: need[k]]
        rank = np.empty(len(sents), dtype=np.intp)
        rank[order] = np.arange(len(sents))
        out.sizes.append(sizes.tolist())
        out.ids.append(ids.T[live.T])
        out.rows.append(np.concatenate(([0], np.cumsum(sizes)))[step] + rank[j])
    return out


def _positions(batch: Sequence[TranslationInstance]) -> list[tuple[list[int], int]]:
    return [(inst.source_ids, inst.position_t) for inst in batch]


def _scan_batch(enc: BiLstmEncoder, pk: _Packing, trace: bool) -> list[tuple[LstmDirectionParams, _Trace]]:
    """Scan every direction of the encoder over a packed batch."""
    directions = [enc.forward] if enc.backward is None else [enc.forward, enc.backward]
    return [(params, _scan(params, enc.embeddings[ids], sizes, trace))
            for params, ids, sizes in zip(directions, pk.ids, pk.sizes)]


def head_distribution(head: SoftmaxHead, h: np.ndarray) -> np.ndarray:
    """Probability over labels for one context vector."""
    return softmax_stable(affine(head.projection, h, head.bias))


def head_log_softmax(
    head: SoftmaxHead, hs: np.ndarray, targets: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Target log-probabilities and full distributions for context vectors hs (B, W).

    Returns log p[b, targets[b]] from a log-softmax (max plus logsumexp),
    which stays finite where the probability underflows to zero, and the
    distributions P as exp(z - max) / sum, computed in one (B, labels) buffer.
    """
    z = hs @ head.projection.T
    z += head.bias
    z -= z.max(axis=1, keepdims=True)
    z_target = z[np.arange(len(hs)), targets]
    p = np.exp(z, out=z)
    total = p.sum(axis=1)
    p /= total[:, None]
    return z_target - np.log(total), p


NLL_BLOCK = 128  # instances scanned together by the batched read path; bounds its memory


def _packed_vectors(enc: BiLstmEncoder, instances: Sequence[tuple[Sequence[int], int]]) -> np.ndarray:
    """(B, W) context vectors of (ids, position) instances, all packed into one scan per direction."""
    pk = _pack(instances, enc.backward is not None)
    return np.hstack([tr.h[rows] for (_, tr), rows in zip(_scan_batch(enc, pk, False), pk.rows)])


def context_vectors(enc: BiLstmEncoder, instances: Sequence[tuple[Sequence[int], int]]) -> np.ndarray:
    """(B, W) context vectors of (ids, position) instances, in order.

    Instances are scanned in blocks of NLL_BLOCK, each block's distinct
    sentences packed into one scan per direction, so memory does not grow
    with B beyond the result. Row b is what encode_bidirectional gives at
    instance b's position.
    """
    out = np.empty((len(instances), enc.output_dim))
    for start in range(0, len(instances), NLL_BLOCK):
        block = instances[start : start + NLL_BLOCK]
        out[start : start + len(block)] = _packed_vectors(enc, block)
    return out


def encode_bidirectional(enc: BiLstmEncoder, source_ids: Sequence[int]) -> np.ndarray:
    """Context vectors for every position, one row per token.

    Row t is [forward h_t ; backward h_t] (just the forward state in
    forward-only mode); both scans start from zero state. This is
    context_vectors at positions 0..n-1 packed as one block whatever n, since
    a one-token scan (a last block of NLL_BLOCK) would round differently.
    """
    if len(source_ids) == 0:
        raise ValueError("cannot encode an empty sentence")
    return _packed_vectors(enc, [(source_ids, t) for t in range(len(source_ids))])


def predicted_labels(
    enc: BiLstmEncoder, head: SoftmaxHead, instances: Sequence[tuple[Sequence[int], int]],
) -> np.ndarray:
    """Argmax of the logits hs Wᵀ + b of each (ids, position) instance, a block at a time."""
    out = np.empty(len(instances), dtype=np.intp)
    for start in range(0, len(instances), NLL_BLOCK):
        hs = context_vectors(enc, instances[start : start + NLL_BLOCK])
        out[start : start + len(hs)] = np.argmax(hs @ head.projection.T + head.bias, axis=1)
    return out


def substitution_vectors(
    enc: BiLstmEncoder, source_ids: Sequence[int], position: int, substitutes: Sequence[int],
) -> np.ndarray:
    """Context vector at position with each substitute id put there, one row each.

    Only that token changes, so the forward state before it and the backward
    state after it are scanned once (an empty side is the zero state), and
    each distinct substitute costs one cell step per direction: exactly what
    re-encoding the edited sentence computes. Substitutes with equal
    embeddings share one row, so they tie exactly.
    """
    ids = np.asarray(source_ids, dtype=np.intp)
    if not 0 <= position < len(ids):
        raise ValueError(f"position {position} outside sentence of length {len(ids)}")
    emb = enc.embeddings[np.asarray(substitutes, dtype=np.intp)]
    slot: dict[bytes, int] = {}  # an embedding row's bytes -> its row of xs, first seen first
    inverse = [slot.setdefault(row.tobytes(), len(slot)) for row in emb]
    xs = emb[[inverse.index(k) for k in range(len(slot))]]
    sides = [(enc.forward, ids[:position]), (enc.backward, ids[position + 1 :][::-1])]
    hs = []
    for params, context in sides:
        if params is None:
            continue
        state = None
        if len(context):
            tr = _scan(params, enc.embeddings[context], [1] * len(context), trace=True)  # trace keeps c
            state = (tr.h[-1:], tr.c[-1:])
        hs.append(_scan(params, xs, [len(xs)], state=state).h)
    return np.hstack(hs)[inverse]


def batch_nll(enc: BiLstmEncoder, head: SoftmaxHead, batch: Sequence[TranslationInstance]) -> list[float]:
    """Per-instance negative log probabilities, in batch order (forward only).

    Instances are scored in blocks of NLL_BLOCK, so memory does not grow
    with the size of the batch.
    """
    nll: list[float] = []
    for start in range(0, len(batch), NLL_BLOCK):
        block = batch[start : start + NLL_BLOCK]
        log_p, _ = head_log_softmax(head, context_vectors(enc, _positions(block)),
                                    [inst.target_id for inst in block])
        nll.extend((-log_p).tolist())
    return nll


def loss_and_gradients(
    enc: BiLstmEncoder,
    head: SoftmaxHead,
    batch: Sequence[TranslationInstance],
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed negative log likelihood over the batch and its exact gradients.

    The whole batch runs at once: one packed scan and BPTT per direction
    over its unique sentences, and the head as matrix products over the
    stacked context vectors. The gradient dict mirrors param_items; the
    packing order is fixed, so repeated calls are bitwise identical.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    vocab_size = enc.embeddings.shape[0]
    for inst in batch:
        if inst.target_id >= head.n_labels or inst.target_id < 0:
            raise ValueError(f"target id {inst.target_id} outside head of size {head.n_labels}")
        if max(inst.source_ids) >= vocab_size or min(inst.source_ids) < 0:
            raise ValueError("source id outside embedding table")

    pk = _pack(_positions(batch), enc.backward is not None)
    scans = _scan_batch(enc, pk, trace=True)
    hs = np.hstack([tr.h[rows] for (_, tr), rows in zip(scans, pk.rows)])
    targets = [inst.target_id for inst in batch]
    log_p, du = head_log_softmax(head, hs, targets)
    total = -float(np.sum(log_p))
    du[np.arange(len(batch)), targets] -= 1.0  # P - Y, the gradient at the logits
    d_head = SoftmaxHead(du.T @ hs, du.sum(axis=0))
    dhs = du @ head.projection
    del du  # the (B, labels) buffer is not needed during BPTT

    hsz = enc.hidden_size
    d_emb = np.zeros(enc.embeddings.shape)  # calloc: rows the batch never touches stay unwritten
    d_directions = [None, None]
    for q, (params, tr) in enumerate(scans):
        dh_seq = np.zeros_like(tr.h)
        np.add.at(dh_seq, pk.rows[q], dhs[:, q * hsz : (q + 1) * hsz])
        dxs, d_directions[q] = _scan_backward(params, tr, pk.sizes[q], dh_seq)
        np.add.at(d_emb, pk.ids[q], dxs)
    return total, dict(param_items(BiLstmEncoder(d_emb, *d_directions), d_head))
