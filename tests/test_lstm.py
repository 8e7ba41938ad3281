"""The peephole cell and the bidirectional encoder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wicrep.model import BiLstmEncoder, LstmDirectionParams, encode_bidirectional, lstm_step
from wicrep.numkit import make_rng
from wicrep.train import TrainConfig, init_model


def scalar_params(**overrides):
    """1x1 cell with every weight hand-set (zeros unless overridden)."""
    fields = dict(
        w_xi=0.5, w_hi=-0.3, w_ci=0.2,
        w_xf=-0.4, w_hf=0.6, w_cf=0.1,
        w_xc=0.9, w_hc=-0.7,
        w_xo=0.3, w_ho=0.8, w_co=-0.5,
        b_i=0.1, b_f=-0.2, b_c=0.05, b_o=0.15,
    )
    fields.update(overrides)
    return LstmDirectionParams.from_gates(**{
        k: np.array([[v]]) if k.startswith("w") else np.array([v])
        for k, v in fields.items()
    })


def test_step_matches_scalar_hand_computation():
    p = scalar_params()
    x, h_prev, c_prev = 0.7, 0.1, -0.4

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    i = sig(0.5 * x + -0.3 * h_prev + 0.2 * c_prev + 0.1)
    f = sig(-0.4 * x + 0.6 * h_prev + 0.1 * c_prev + -0.2)
    c = f * c_prev + i * math.tanh(0.9 * x + -0.7 * h_prev + 0.05)
    o = sig(0.3 * x + 0.8 * h_prev + -0.5 * c + 0.15)
    h = o * math.tanh(c)

    got_h, got_c = lstm_step(p, np.array([x]), np.array([h_prev]), np.array([c_prev]))
    assert abs(got_c[0] - c) <= 1e-12
    assert abs(got_h[0] - h) <= 1e-12


def test_step_all_zero_parameters():
    p = scalar_params(**{k: 0.0 for k in ("w_xi", "w_hi", "w_ci", "w_xf", "w_hf", "w_cf",
                                          "w_xc", "w_hc", "w_xo", "w_ho", "w_co",
                                          "b_i", "b_f", "b_c", "b_o")})
    h, c = lstm_step(p, np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert h[0] == 0.0 and c[0] == 0.0


def test_step_saturated_forget_gate_carries_the_cell():
    zeros = {k: 0.0 for k in ("w_xi", "w_hi", "w_ci", "w_xf", "w_hf", "w_cf",
                              "w_xc", "w_hc", "w_xo", "w_ho", "w_co",
                              "b_i", "b_c", "b_o")}
    p = scalar_params(b_f=100.0, **zeros)
    v = 0.8
    h, c = lstm_step(p, np.array([0.3]), np.array([0.2]), np.array([v]))
    assert c[0] == pytest.approx(v, abs=1e-12)          # f saturates to 1, tanh(0) candidate
    assert h[0] == pytest.approx(0.5 * math.tanh(v), abs=1e-12)


def test_step_rejects_mismatched_shapes():
    p = scalar_params()
    with pytest.raises(ValueError):
        lstm_step(p, np.zeros(2), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        lstm_step(p, np.zeros(1), np.zeros(2), np.zeros(1))


def random_encoder(seed, d=4, d_h=3, vocab=9, peephole="full"):
    cfg = TrainConfig(d=d, d_h=d_h, seed=seed, peephole=peephole)
    enc, _ = init_model(cfg, vocab, 5)
    return enc


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=9))
def test_context_vectors_stay_inside_unit_box(seed, n):
    enc = random_encoder(seed)
    ids = [int(v) for v in make_rng(seed + 1).integers(0, 9, size=n)]
    hs = encode_bidirectional(enc, ids)
    assert hs.shape == (n, 6)
    assert np.all(hs > -1.0) and np.all(hs < 1.0)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=9))
def test_direction_swap_reverse_symmetry_is_exact(seed, n):
    enc = random_encoder(seed)
    ids = [int(v) for v in make_rng(seed + 2).integers(0, 9, size=n)]
    hs = encode_bidirectional(enc, ids)
    swapped = BiLstmEncoder(enc.embeddings, enc.backward, enc.forward)
    hs_swapped = encode_bidirectional(swapped, ids[::-1])
    d_h = enc.hidden_size
    assert np.array_equal(hs_swapped, np.hstack([hs[:, d_h:], hs[:, :d_h]])[::-1])


def test_length_one_encode_equals_single_steps():
    enc = random_encoder(42)
    hs = encode_bidirectional(enc, [5])
    x = enc.embeddings[5]
    zero = np.zeros(enc.hidden_size)
    h_f, _ = lstm_step(enc.forward, x, zero, zero)
    h_b, _ = lstm_step(enc.backward, x, zero, zero)
    assert np.allclose(hs[0], np.concatenate([h_f, h_b]), atol=1e-12, rtol=0)


def test_output_width_is_twice_the_hidden_size():
    cfg = TrainConfig(d=4, d_h=300, seed=0)
    enc, _ = init_model(cfg, 7, 5)
    assert encode_bidirectional(enc, [1, 2, 3]).shape == (3, 600)


def test_encode_is_deterministic():
    enc = random_encoder(7)
    ids = [1, 4, 4, 0, 8]
    assert np.array_equal(encode_bidirectional(enc, ids), encode_bidirectional(enc, ids))


def test_encode_rejects_empty_sentence():
    with pytest.raises(ValueError):
        encode_bidirectional(random_encoder(0), [])


def test_diagonal_peepholes_match_explicit_diagonal_matrices():
    enc = random_encoder(3, peephole="diagonal")
    assert enc.forward.diagonal_peepholes

    def densified(p):
        fields = {k: getattr(p, k) for k in ("w_xi", "w_hi", "w_xf", "w_hf", "w_xc",
                                             "w_hc", "w_xo", "w_ho",
                                             "b_i", "b_f", "b_c", "b_o")}
        fields.update(w_ci=np.diag(p.w_ci), w_cf=np.diag(p.w_cf), w_co=np.diag(p.w_co))
        return LstmDirectionParams.from_gates(**fields)

    dense = BiLstmEncoder(enc.embeddings, densified(enc.forward), densified(enc.backward))
    ids = [0, 3, 7, 1]
    assert np.allclose(encode_bidirectional(enc, ids), encode_bidirectional(dense, ids),
                       atol=1e-15, rtol=0)


def test_forward_only_equals_the_forward_half():
    enc = random_encoder(11)
    fwd_only = BiLstmEncoder(enc.embeddings, enc.forward, None)
    assert fwd_only.output_dim == enc.hidden_size
    ids = [2, 5, 1, 1, 6]
    assert np.array_equal(encode_bidirectional(fwd_only, ids),
                          encode_bidirectional(enc, ids)[:, : enc.hidden_size])
