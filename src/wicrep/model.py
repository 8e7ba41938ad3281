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

import ctypes
import functools
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import TranslationInstance, read_text
from .errors import DataError
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
    """Per-row scan results; xs, c and tc are kept only when the backward pass needs them."""

    xs: np.ndarray | None   # (n, d) inputs
    act: np.ndarray         # (n, 4H) gate activations i, f, g, o
    c: np.ndarray | None    # (n, H) cell states
    tc: np.ndarray | None   # tanh(cell)
    h: np.ndarray           # (n, H) hidden states


# BLAS picks a product's kernel from its shape, and kernels round differently.
# With OpenBLAS 0.3.31 a one-row product is a matrix-vector product, and on
# SkylakeX a product of at most 1200 / (4H) rows with d >= 32 runs a
# small-matrix kernel (under 10 rows at d = H = 32). A row's bits depend on
# the row count only through that choice, so a product over at least
# min(n, MIN_PRODUCT_ROWS) rows takes the n-row product's kernel wherever
# that bound lies under MIN_PRODUCT_ROWS rows, which is for H >= 5.
MIN_PRODUCT_ROWS = 64

# A product split into column parts keeps the whole product's bits where each
# part runs the whole product's kernel over the same tiles. OpenBLAS 0.3.31
# may run its small-matrix kernel on a product of at most SMALL_KERNEL_WORK
# rows x columns x inner multiply-adds (it checks M N K <= 100^3 first), so a
# part must lie above that bound, whatever the gate of the split; and a cut at
# a multiple of LABEL_CUT columns starts the second part on a tile boundary of
# the whole product. The head's label halves (_label_cut) hold to both, and
# split only where OpenBLAS runs one thread (_one_blas_thread): with more,
# BLAS partitions each product by its own shape, and a half may round a few
# logits differently. Both bounds were found, and the sweep of
# tests/test_head_halves.py passes, with scipy-openblas64 0.3.31.188.0
# (DYNAMIC_ARCH) running its SkylakeX kernels on a 2-core Intel Xeon; another
# BLAS build or CPU kernel may tile differently, and that sweep tells.
SMALL_KERNEL_WORK = 100**3
LABEL_CUT = 64


def _token_products(table: np.ndarray, ids: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(products, inverse): table[ids] @ w.T is products[inverse], one product row per distinct id.

    The distinct ids are padded with copies of one of them to
    min(n, MIN_PRODUCT_ROWS) rows, so each row has the bits of
    table[ids] @ w.T (see MIN_PRODUCT_ROWS).
    """
    uniq, inverse = np.unique(ids, return_inverse=True)
    short = min(len(ids), MIN_PRODUCT_ROWS) - len(uniq)
    if short > 0:
        uniq = np.concatenate([uniq, np.full(short, uniq[0])])
    return table[uniq] @ w.T, inverse


def _scan(
    p: LstmDirectionParams,
    table: np.ndarray,
    ids: np.ndarray,
    sizes: Sequence[int],
    parents: Sequence[np.ndarray | None],
    trace: bool = False,
) -> _Trace:
    """Run one direction over a packed prefix tree from the zero state.

    Row r reads the embedding table[ids[r]]. Rows are time-major: step t owns
    the next sizes[t] rows, and row j of step t continues row parents[t][j]
    of step t-1, or row j where parents[t] is None (always so at step 0,
    which reads the zero state). The input product is taken once per
    distinct token (_token_products), and a step that branches takes the
    recurrent and peephole products once per parent row and gathers them to
    the children. trace keeps each row's input, cell and tanh(cell) for BPTT.
    """
    n = len(ids)
    hsz = p.hidden_size
    # The per-row results share one allocation, which the allocator hands
    # back as a whole once the scan is dropped.
    buf = np.empty((n, (7 if trace else 5) * hsz))
    act, h_all = buf[:, : 4 * hsz], buf[:, 4 * hsz : 5 * hsz]
    c_all, tc_all = (buf[:, 5 * hsz : 6 * hsz], buf[:, 6 * hsz :]) if trace else (None, None)
    products, inverse = _token_products(table, ids, p.wx)
    products += p.b
    act[...] = products[inverse]  # overwritten with the activations below
    h = c = np.zeros((sizes[0], hsz))
    start = 0
    for k, up in zip(sizes, parents):
        rows = slice(start, start + k)
        start += k
        if up is None:
            h, c, up = h[:k], c[:k], slice(None)
        a = act[rows]
        a += (h @ p.wh.T)[up]
        a[:, :hsz] += _peep(p.w_ci, c)[up]
        a[:, hsz : 2 * hsz] += _peep(p.w_cf, c)[up]
        c = c[up]
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
    return _Trace(table[ids] if trace else None, act, c_all, tc_all, h_all)


def _previous(a: np.ndarray, sizes: Sequence[int], parents: Sequence[np.ndarray | None]) -> np.ndarray:
    """Each row's value at its parent row (zeros at step 0, whose parent is the zero state)."""
    out = np.zeros_like(a)
    start = 0  # of the step before
    for k_up, k, up in zip(sizes, sizes[1:], parents[1:]):
        out[start + k_up : start + k_up + k] = a[start : start + k] if up is None else a[start + up]
        start += k_up
    return out


def _scan_backward(
    p: LstmDirectionParams, tr: _Trace, sizes: Sequence[int], parents: Sequence[np.ndarray | None],
    dh_seq: np.ndarray,
) -> tuple[np.ndarray, LstmDirectionParams]:
    """BPTT through one packed direction given dL/dh at each row.

    Returns dL/dxs and the weight gradients, laid out as a direction. Each
    row sends its dL/dh and dL/dc to its parent row, and a parent with
    several children sums them. Initial h and c are constants (zero), so
    their gradients are dropped at t=0.
    """
    n, hsz = tr.h.shape
    c_prev = _previous(tr.c, sizes, parents)
    dpre = tr.act  # each step's activations are overwritten with dL/d(pre-activation)
    dh = np.zeros((max(sizes), hsz))  # carried from step t+1: what each row's children send
    dc = np.zeros((max(sizes), hsz))
    end = n
    for t in range(len(sizes) - 1, -1, -1):
        k = sizes[t]
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
        dc_t *= f  # what the carry sends back, before d's gate views are overwritten
        d[:, :hsz], d[:, hsz : 2 * hsz], d[:, 2 * hsz : 3 * hsz], d[:, 3 * hsz :] = d_i, d_f, d_g, d_o
        if t == 0:
            break
        k_up, up = sizes[t - 1], parents[t]
        if up is None:  # row j continues row j
            d_up, dc_up = d, dc_t
        else:  # each parent row sums what its children send
            d_up, dc_up = np.zeros((k_up, 4 * hsz)), np.zeros((k_up, hsz))
            np.add.at(d_up, up, d)
            np.add.at(dc_up, up, dc_t)
        k = len(d_up)  # the step before's rows from k on have no children
        dc[:k] = dc_up + _peep_t(p.w_ci, d_up[:, :hsz]) + _peep_t(p.w_cf, d_up[:, hsz : 2 * hsz])
        dh[:k] = d_up @ p.wh
        dc[k:k_up] = dh[k:k_up] = 0.0
    grads = LstmDirectionParams(
        wx=dpre.T @ tr.xs,
        wh=dpre.T @ _previous(tr.h, sizes, parents),
        b=dpre.sum(axis=0),
        w_ci=_peep_grad(p.w_ci, dpre[:, :hsz], c_prev),
        w_cf=_peep_grad(p.w_cf, dpre[:, hsz : 2 * hsz], c_prev),
        w_co=_peep_grad(p.w_co, dpre[:, 3 * hsz :], tr.c),
    )
    return dpre @ p.wx, grads


Instances = Sequence[tuple[Sequence[int], int]]  # (source ids, position) pairs


class _Packing(NamedTuple):
    """A batch's reads laid out time-major for _scan as one prefix tree per direction."""

    sizes: list[list[int]]                  # per direction, rows at each step
    ids: list[np.ndarray]                   # per direction, packed token ids (backward: reversed)
    parents: list[list[np.ndarray | None]]  # per direction and step, see _scan
    rows: list[np.ndarray]                  # per direction and instance, the packed row of its position


def _tree(chains: Sequence[tuple], reads: Sequence[tuple[int, int]]):
    """(sizes, ids, parents, rows) of one direction: every distinct prefix of chains is one row.

    Rows are time-major and chains that share a prefix share its rows. Each
    step orders its rows by the longest chain through them, most first, then
    by the prefix, so the rows with children lead their step and a step
    where no row branches keeps the order of the one before (its parents
    are None). rows holds the row of each (chain, step) read.
    """
    node: dict[tuple, int] = {}  # (parent node, token) -> node; -1 is the empty prefix
    parent, token, need, depth = [], [], [], []
    paths = [None] * len(chains)
    # In sorted order, each step's nodes are created in the order of their prefixes.
    for c in sorted(range(len(chains)), key=chains.__getitem__):
        chain, path, up = chains[c], [], -1
        for tok in chain:  # down the prefix that earlier chains share
            v = node.get((up, tok))
            if v is None:
                break
            need[v] = max(need[v], len(chain))
            path.append(v)
            up = v
        new = range(len(parent), len(parent) + len(chain) - len(path))  # the rest is new
        node.update(zip(zip([up, *new], chain[len(path) :]), new))
        parent += [up, *new][: len(new)]
        token += chain[len(path) :]
        need += [len(chain)] * len(new)
        depth += range(len(path), len(chain))
        paths[c] = path + list(new)
    steps = [[] for _ in range(max(depth) + 1)]
    for v, d in enumerate(depth):
        steps[d].append(v)
    row = [0] * len(parent)
    sizes, parents, order = [], [], []
    for nodes in steps:
        nodes.sort(key=need.__getitem__, reverse=True)  # stable, also in reverse: prefix order breaks ties
        up = [row[parent[v]] for v in nodes]
        for r, v in enumerate(nodes):
            row[v] = r
        parents.append(None if not order or up == list(range(len(nodes))) else np.array(up, dtype=np.intp))
        sizes.append(len(nodes))
        order.extend(nodes)
    starts = np.cumsum([0, *sizes])
    rows = np.array([starts[t] + row[paths[c][t]] for c, t in reads], dtype=np.intp)
    return sizes, np.array([token[v] for v in order], dtype=np.intp), parents, rows


def _pack(instances: Instances, bidirectional: bool = True) -> _Packing:
    """Pack (ids, position) instances as prefix trees, each direction only as far as it is read.

    The forward state at t depends on tokens 0..t only, and the backward
    state on tokens t..n-1. So instance b reads the forward scan of its
    ids[:t+1] and the backward scan of its reversed ids[t:], and every
    distinct prefix of those, across all sentences, is scanned once (see
    _tree). bidirectional=False packs the forward direction only. A
    position outside its sentence raises ValueError.
    """
    keys = [tuple(ids) for ids, _ in instances]
    slot = {key: j for j, key in enumerate(dict.fromkeys(keys))}
    for b, (key, (_, t)) in enumerate(zip(keys, instances)):
        if not 0 <= t < len(key):
            raise ValueError(f"instance {b}: position {t} outside sentence of length {len(key)}")
    out = _Packing([], [], [], [])
    for backward in (False, True) if bidirectional else (False,):
        reads = [(slot[key], len(key) - 1 - t if backward else t) for key, (_, t) in zip(keys, instances)]
        need = [0] * len(slot)  # each sentence's longest read; its other reads are prefixes of it
        for j, step in reads:
            need[j] = max(need[j], step + 1)
        chains = [(key[::-1] if backward else key)[:m] for key, m in zip(slot, need)]
        for field, value in zip(out, _tree(chains, reads)):
            field.append(value)
    return out


def check_ids(ids, size: int, kind: str) -> None:
    """Raise ValueError naming the first of ids outside [0, size)."""
    ids = np.asarray(ids)
    bad = ids[(ids < 0) | (ids >= size)]
    if bad.size:
        raise ValueError(f"{kind} id {bad[0]} outside [0, {size})")


# Two threads gain only where each direction's products outweigh the Python
# work of its steps, which holds the GIL. loss_and_gradients on a 2-core host
# with one BLAS thread, serial against two threads (medians of 5-9 alternating
# runs, d = H), by the smaller direction's scan rows x H^2: 0.91-1.02x up to
# 4.8M (every batch at H <= 64, 53 rows at H = 300), 0.95-1.76x from 9.3M to
# 28M (half of the sets gained), 1.06-1.88x from 29M. Below this bound both
# directions stay on the caller's thread. The head's label halves
# (_label_cut) and its dL/dhs row halves (_row_cut) take the same bound on
# rows x labels x W.
MIN_THREADED_WORK = 8_000_000  # scan rows of the smaller direction x H^2


def worker_thread() -> ThreadPoolExecutor:
    """One worker thread, started by the first job and joined when its with block is left.

    This is the one way wicrep makes a thread. A job makes the numpy and
    BLAS calls it would make on the caller's thread, in the same order, so
    every result keeps its bits, and each BLAS call keeps the thread count
    BLAS is set to.
    """
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="wicrep")


def _two_threads(first, second) -> tuple:
    """(first(), second()), second on a worker_thread while the caller runs first.

    Returns once both have finished and the thread has exited; if either
    raised, first's exception is raised, else second's.
    """
    with worker_thread() as pool:
        later = pool.submit(second)
        out = first()  # leaving the block waits for second, also when this raises
    return out, later.result()


def _per_direction(fn, pk: _Packing, hsz: int) -> list:
    """[fn(q) for each direction q of the packing pk], forward (q = 0) first.

    The two directions share nothing, so from MIN_THREADED_WORK up the
    backward job runs on a thread made for the call while the caller runs
    the forward one (_two_threads).
    """
    if len(pk.ids) == 1 or min(map(len, pk.ids)) * hsz**2 < MIN_THREADED_WORK:
        return [fn(q) for q in range(len(pk.ids))]
    return list(_two_threads(lambda: fn(0), lambda: fn(1)))


def _split(fn, n: int, cut: int) -> None:
    """fn(part) over the parts of 0..n-1: the whole range if cut is 0, else
    fn(slice(0, cut)) on the caller's thread and fn(slice(cut, n)) on a thread
    made for the call (_two_threads). fn must write each index from that index
    alone."""
    if cut == 0:
        fn(slice(0, n))
    else:
        _two_threads(lambda: fn(slice(0, cut)), lambda: fn(slice(cut, n)))


@functools.cache
def _openblas_function(verb: str):
    """OpenBLAS's {verb}_num_threads ("get" or "set") in the build this process loaded, or None
    where /proc/self/maps names no OpenBLAS (another BLAS, or a system without /proc)."""
    try:
        libs = read_text("/proc/self/maps", lambda maps: sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))))
    except (OSError, DataError):
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            fn = getattr(handle, name.format(verb), None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread() -> bool:
    """Whether BLAS is known to run one thread, as --threads 1 sets it."""
    get = _openblas_function("get")
    return get is not None and get() == 1


def _label_cut(head: SoftmaxHead, rows: int) -> int:
    """Where the logits of `rows` context vectors split into two label halves, or 0 to keep them whole.

    From MIN_THREADED_WORK multiply-adds up, the cut is the multiple of
    LABEL_CUT nearest half the labels, made only if the smaller half's
    rows x labels x W lies above SMALL_KERNEL_WORK and BLAS runs one thread;
    so each half has the bits of the whole product's columns (see
    SMALL_KERNEL_WORK).
    """
    labels, width = head.projection.shape
    cut = (labels + LABEL_CUT) // (2 * LABEL_CUT) * LABEL_CUT
    if rows * labels * width < MIN_THREADED_WORK or rows * min(cut, labels - cut) * width <= SMALL_KERNEL_WORK:
        return 0
    return cut if _one_blas_thread() else 0


def _row_cut(head: SoftmaxHead, rows: int) -> int:
    """Where dL/dhs = du W of `rows` rows splits into two row halves, or 0: from 2 * MIN_PRODUCT_ROWS
    rows and MIN_THREADED_WORK multiply-adds, which keep each row's bits (see MIN_PRODUCT_ROWS) at
    any BLAS thread count; a cut of W's columns would change them."""
    return rows // 2 if rows >= 2 * MIN_PRODUCT_ROWS and rows * head.projection.size >= MIN_THREADED_WORK else 0


def _logits(head: SoftmaxHead, hs: np.ndarray, cut: int) -> np.ndarray:
    """The (B, labels) logits hs Wᵀ + b with the bits of the whole product, in label halves
    at the same time where cut (_label_cut) is not 0, each into its columns."""
    z = np.empty((len(hs), head.n_labels))

    def columns(labels: slice) -> None:
        np.matmul(hs, head.projection[labels].T, out=z[:, labels])
        z[:, labels] += head.bias[labels]

    _split(columns, head.n_labels, cut)
    return z


def _encode(enc: BiLstmEncoder, instances: Instances, trace: bool = False):
    """(hs, pk, scans): the (B, W) context vectors, the packing and per direction (weights, _scan
    traced for BPTT if trace is set). Each direction's input product is taken once per distinct
    token of the block, for training as for every reader, and a large enough block scans its two
    directions at the same time (_per_direction). A source id outside the embedding table raises
    ValueError."""
    check_ids(np.concatenate([ids for ids, _ in instances]), len(enc.embeddings), "source")
    pk = _pack(instances, enc.backward is not None)
    directions = [enc.forward] if enc.backward is None else [enc.forward, enc.backward]
    traces = _per_direction(lambda q: _scan(directions[q], enc.embeddings, pk.ids[q], pk.sizes[q], pk.parents[q],
                                            trace), pk, enc.hidden_size)
    scans = list(zip(directions, traces))
    return np.hstack([tr.h[rows] for tr, rows in zip(traces, pk.rows)]), pk, scans


def head_distribution(head: SoftmaxHead, h: np.ndarray) -> np.ndarray:
    """Probability over labels for one context vector."""
    return softmax_stable(affine(head.projection, h, head.bias))


def head_log_softmax(
    head: SoftmaxHead, hs: np.ndarray, targets: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Target log-probabilities and full distributions for context vectors hs (B, W).

    Returns log p[b, targets[b]] from a log-softmax (max plus logsumexp),
    which stays finite where the probability underflows to zero, and the
    distributions P as exp(z - max) / sum, computed in the logits' (B, labels)
    buffer. Where the logits split into label halves (_logits), the per-row
    part splits into row halves, which keep every bit at any row count. A
    target outside the head raises ValueError.
    """
    check_ids(targets, head.n_labels, "target")
    targets = np.asarray(targets, dtype=np.intp)
    n, cut = len(hs), _label_cut(head, len(hs))
    log_p, p = np.empty(n), _logits(head, hs, cut)

    def rows_of(rows: slice) -> None:
        z = p[rows]
        z -= z.max(axis=1, keepdims=True)
        z_target = z[np.arange(len(z)), targets[rows]]
        np.exp(z, out=z)
        total = z.sum(axis=1)
        z /= total[:, None]
        log_p[rows] = z_target - np.log(total)

    _split(rows_of, n, n // 2 if cut else 0)
    return log_p, p


NLL_BLOCK = 128  # instances scanned together by the batched read path; bounds its memory


def _blocks(enc: BiLstmEncoder, instances: Instances):
    """(rows, hs) for each block of NLL_BLOCK instances: its slice and its context vectors."""
    for start in range(0, len(instances), NLL_BLOCK):
        rows = slice(start, start + NLL_BLOCK)
        yield rows, _encode(enc, instances[rows])[0]


def context_vectors(enc: BiLstmEncoder, instances: Instances) -> np.ndarray:
    """(B, W) context vectors of instances, in order: row b is what encode_bidirectional
    gives at instance b's position. Each block is packed into one scan per direction."""
    out = np.empty((len(instances), enc.output_dim))
    for rows, hs in _blocks(enc, instances):
        out[rows] = hs
    return out


def encode_bidirectional(enc: BiLstmEncoder, source_ids: Sequence[int]) -> np.ndarray:
    """Context vectors for every position, one row per token.

    Row t is [forward h_t ; backward h_t] (just the forward state in
    forward-only mode); both scans start from zero state. This is
    context_vectors at positions 0..n-1 packed as one block whatever n: a
    last block of NLL_BLOCK holding one instance would scan one row per step,
    and one-row recurrent products round differently. The input product
    keeps its bits at any block size (_token_products).
    """
    if len(source_ids) == 0:
        raise ValueError("cannot encode an empty sentence")
    return _encode(enc, [(source_ids, t) for t in range(len(source_ids))])[0]


def predicted_labels(enc: BiLstmEncoder, head: SoftmaxHead, instances: Instances) -> np.ndarray:
    """Argmax of the logits hs Wᵀ + b of each (ids, position) instance, a block at a time."""
    out = np.empty(len(instances), dtype=np.intp)
    for rows, hs in _blocks(enc, instances):
        out[rows] = np.argmax(_logits(head, hs, _label_cut(head, len(hs))), axis=1)
    return out


def target_log_probs(
    enc: BiLstmEncoder, head: SoftmaxHead, instances: Instances, targets: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """(log p, p) of each instance's target label, a block at a time; log p stays finite if p underflows."""
    log_p, p_target = np.empty(len(instances)), np.empty(len(instances))
    for rows, hs in _blocks(enc, instances):
        log_p[rows], p = head_log_softmax(head, hs, targets[rows])
        p_target[rows] = p[np.arange(len(hs)), targets[rows]]
    return log_p, p_target


def batch_nll(enc: BiLstmEncoder, head: SoftmaxHead, batch: Sequence[TranslationInstance]) -> list[float]:
    """Per-instance negative log probabilities, in batch order (forward only)."""
    log_p, _ = target_log_probs(enc, head, [(inst.source_ids, inst.position_t) for inst in batch],
                                [inst.target_id for inst in batch])
    return (-log_p).tolist()


class SparseRows(NamedTuple):
    """A gradient kept as the rows ids lists (increasing, distinct; all-zero ones too); every other row is zero."""

    ids: np.ndarray     # (U,)
    values: np.ndarray  # (U, ...): values[k] is row ids[k]

    def rows(self, at: np.ndarray) -> np.ndarray:
        """The gradient's rows at (increasing)."""
        out = np.zeros((len(at), *self.values.shape[1:]))
        k = np.searchsorted(at, self.ids)
        hit = k < len(at)
        hit[hit] = at[k[hit]] == self.ids[hit]
        out[k[hit]] = self.values[hit]
        return out


class Factored(NamedTuple):
    """The head projection's gradient du.T @ hs kept as its factors: B·(labels + W) values, not labels·W."""

    du: np.ndarray  # (B, labels): P - Y, the gradient at the logits
    hs: np.ndarray  # (B, W) context vectors

    def rows(self, at: np.ndarray) -> np.ndarray:
        """Rows at (increasing) of du.T @ hs, with the bits of the whole product; adam_step asks for one run's.

        The product of a few rows takes the whole product's kernel, except
        that one row is a matrix-vector product, which rounds differently
        (see MIN_PRODUCT_ROWS); so one row of a larger head is taken as two.
        du.take keeps the operand in the whole product's layout; a fancy
        index du[:, at] transposes it, which OpenBLAS 0.3.31 rounds
        differently at W <= 4.
        """
        two = np.repeat(at, 2) if len(at) == 1 < self.du.shape[1] else at
        return (self.du.take(two, axis=1).T @ self.hs)[: len(at)]


def loss_and_gradients(
    enc: BiLstmEncoder,
    head: SoftmaxHead,
    batch: Sequence[TranslationInstance],
    *,
    sparse: bool = False,
):
    """(loss, grads): the summed negative log likelihood over the batch and its exact gradients.

    The whole batch runs at once: one packed scan and BPTT per direction
    over its unique sentences, and the head as matrix products over the
    stacked context vectors. The gradient dict mirrors param_items; the
    packing order is fixed, so repeated calls are bitwise identical.

    Two gradients are computed in a compact form. The embedding gradient
    is row-sparse: one row per distinct source id the scans read, summed
    over the scan rows that read it, forward direction first. The head
    projection's gradient is du.T @ hs, of rank at most B. sparse=True
    (what train() and adam_step use) returns them as they are:
    grads["embedding"] is SparseRows(ids, rows) and grads["head.projection"]
    is Factored(du, hs), so neither a (V, d) nor a (labels, W) array is
    made. By default (gradcheck.py reads it this way) both are dense
    arrays: the rows scattered into zeros, and du.T @ hs as one product.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    hs, pk, scans = _encode(enc, [(inst.source_ids, inst.position_t) for inst in batch], trace=True)
    targets = [inst.target_id for inst in batch]
    log_p, du = head_log_softmax(head, hs, targets)
    total = -float(np.sum(log_p))
    du[np.arange(len(batch)), targets] -= 1.0  # P - Y, the gradient at the logits
    d_head = SoftmaxHead(Factored(du, hs), du.sum(axis=0))
    dhs = np.empty_like(hs)
    _split(lambda rows: np.matmul(du[rows], head.projection, out=dhs[rows]), len(hs), _row_cut(head, len(hs)))

    hsz = enc.hidden_size
    ids, inverse = np.unique(np.concatenate(pk.ids), return_inverse=True)
    inverses = np.split(inverse, np.cumsum([len(q_ids) for q_ids in pk.ids[:-1]]))

    def backprop(q):
        params, tr = scans[q]
        dh_seq = np.zeros_like(tr.h)
        np.add.at(dh_seq, pk.rows[q], dhs[:, q * hsz : (q + 1) * hsz])
        return _scan_backward(params, tr, pk.sizes[q], pk.parents[q], dh_seq)

    backs = _per_direction(backprop, pk, hsz)
    d_rows = np.zeros((len(ids), enc.embed_dim))
    for q, (dxs, _) in enumerate(backs):  # here, forward first: each row's sum keeps one order
        np.add.at(d_rows, inverses[q], dxs)
    d_directions = [d for _, d in backs] + [None] * (2 - len(backs))
    grads = dict(param_items(BiLstmEncoder(SparseRows(ids, d_rows), *d_directions), d_head))
    if not sparse:
        grads["embedding"] = grads["embedding"].rows(np.arange(len(enc.embeddings)))
        grads["head.projection"] = du.T @ hs
    return total, grads
