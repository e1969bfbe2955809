import json
import math
import random
import re
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import corrupt_artifact, faults_of
from hypothesis.extra.numpy import arrays

from desksearch import encoder, io_utils
from desksearch.encoder import (
    EncoderConfig,
    cross_entropy,
    encode,
    encode_states,
    init_weights,
    load_weights,
    mse,
    positional_encoding,
    rmsnorm,
    save_weights,
    self_attention,
    swiglu_ffn,
)

CFG = EncoderConfig(vocab_size=50, d_model=16, n_heads=4, n_layers=2, d_ff=32, seed=11)


@pytest.fixture(scope="module")
def weights():
    return init_weights(CFG)


def zeroed_weights(cfg):
    w = init_weights(cfg)
    for lw in w.layers:
        for name in ("q_proj", "k_proj", "v_proj", "out_proj", "ffn_in", "ffn_gate", "ffn_out"):
            getattr(lw, name)[:] = 0.0
    return w


class TestConfig:
    def test_odd_d_model_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=15, n_heads=3, n_layers=1, d_ff=4)

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=16, n_heads=3, n_layers=1, d_ff=4)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=0, d_model=16, n_heads=4, n_layers=1, d_ff=4)


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = positional_encoding(3, 8)
        assert np.all(pe[0, 0::2] == 0.0)
        assert np.all(pe[0, 1::2] == 1.0)

    def test_position_one_first_dim(self):
        pe = positional_encoding(2, 8)
        assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
        assert pe[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)

    def test_range(self):
        pe = positional_encoding(64, 32)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_frequency_ladder(self):
        # dim pair i uses wavelength 10000^(2i/d): later pairs oscillate slower
        pe = positional_encoding(2, 8)
        angles = [math.asin(pe[1, 2 * i]) for i in range(4)]
        assert angles == sorted(angles, reverse=True)


class TestRmsnorm:
    def test_hand_value(self):
        out = rmsnorm(np.array([3.0, 4.0]), np.ones(2), np.zeros(2), eps=0.0)
        assert out == pytest.approx([0.848528, 1.131371], abs=1e-6)

    def test_zero_gain_gives_bias(self):
        out = rmsnorm(np.array([5.0, -2.0, 9.0]), np.zeros(3), np.full(3, 2.5), eps=0.0)
        assert np.all(out == 2.5)

    def test_unit_vector_fixed_point(self):
        a = np.ones(6)
        out = rmsnorm(a, np.ones(6), np.zeros(6), eps=0.0)
        assert out == pytest.approx(a, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmsnorm(np.ones(3), np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):
            rmsnorm(np.ones((2, 3)), np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):  # would broadcast the one value to four
            rmsnorm(np.ones(1), np.ones(4), np.zeros(4))

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 9), st.integers(1, 33)),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
        st.floats(1e-9, 1e-3),
    )
    def test_rows_normalize_like_one_dimensional_input(self, a, eps):
        rng = np.random.default_rng(a.shape[1])
        g, b = rng.normal(size=a.shape[1]), rng.normal(size=a.shape[1])
        rows = np.stack([rmsnorm(row, g, b, eps=eps) for row in a])
        assert np.array_equal(rmsnorm(a, g, b, eps=eps), rows)

    @given(
        arrays(
            float,
            st.integers(2, 64),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ).filter(lambda a: np.max(np.abs(a)) >= 1e-6)
    )
    def test_output_rms_is_one(self, a):
        out = rmsnorm(a, np.ones(a.size), np.zeros(a.size), eps=0.0)
        assert np.sqrt(np.mean(np.square(out))) == pytest.approx(1.0, abs=1e-9)

    @given(
        arrays(float, 8, elements=st.floats(-100, 100)).filter(
            lambda a: np.max(np.abs(a)) >= 1e-6
        ),
        st.sampled_from([0.01, 1.0, 100.0]),
    )
    def test_scale_invariance(self, a, c):
        g, b = np.ones(8), np.zeros(8)
        assert rmsnorm(c * a, g, b, eps=0.0) == pytest.approx(
            rmsnorm(a, g, b, eps=0.0), abs=1e-9
        )


class TestSelfAttention:
    def test_rows_sum_to_one(self, weights):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, CFG.d_model))
        _, attn = self_attention(x, weights.layers[0], CFG.n_heads, return_weights=True)
        assert attn.shape == (CFG.n_heads, 7, 7)
        assert np.all(attn >= 0)
        assert attn.sum(axis=-1) == pytest.approx(np.ones((CFG.n_heads, 7)), abs=1e-9)

    def test_single_position_weight_is_exactly_one(self, weights):
        x = np.random.default_rng(1).normal(size=(1, CFG.d_model))
        _, attn = self_attention(x, weights.layers[0], CFG.n_heads, return_weights=True)
        assert np.all(attn == 1.0)

    def test_zero_projections_give_uniform_attention(self):
        w = zeroed_weights(CFG)
        x = np.random.default_rng(2).normal(size=(5, CFG.d_model))
        _, attn = self_attention(x, w.layers[0], CFG.n_heads, return_weights=True)
        assert attn == pytest.approx(np.full((CFG.n_heads, 5, 5), 0.2), abs=1e-12)

    def test_output_shape(self, weights):
        x = np.random.default_rng(3).normal(size=(4, CFG.d_model))
        out = self_attention(x, weights.layers[0], CFG.n_heads)
        assert out.shape == x.shape


class TestSwigluFfn:
    def test_zero_input_gives_zero(self, weights):
        out = swiglu_ffn(np.zeros((3, CFG.d_model)), weights.layers[0])
        assert np.all(out == 0.0)

    def test_zero_weights_give_zero(self):
        w = zeroed_weights(CFG)
        x = np.random.default_rng(4).normal(size=(3, CFG.d_model))
        assert np.all(swiglu_ffn(x, w.layers[0]) == 0.0)

    def test_scalar_hand_value(self):
        # 1x1 weights all one: swish(1) * 1 = 1/(1+e^-1)
        class OneByOne:
            ffn_in = np.ones((1, 1))
            ffn_gate = np.ones((1, 1))
            ffn_out = np.ones((1, 1))

        out = swiglu_ffn(np.ones((1, 1)), OneByOne)
        assert out[0, 0] == pytest.approx(0.731059, abs=1e-6)

    def test_finite_for_large_inputs(self, weights):
        x = np.full((2, CFG.d_model), 50.0)
        assert np.all(np.isfinite(swiglu_ffn(x, weights.layers[0])))

    def test_large_negative_inputs_finite_without_warning(self, weights):
        # exp(-up) overflows here; the gate's limit is 0, not a warning
        x = np.full((2, CFG.d_model), -1e5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = swiglu_ffn(x, weights.layers[0])
        assert np.all(np.isfinite(out))


class TestInitWeights:
    def test_same_seed_identical(self):
        a, b = init_weights(CFG), init_weights(CFG)
        assert np.array_equal(a.token_embedding, b.token_embedding)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.q_proj, lb.q_proj)
            assert np.array_equal(la.ffn_out, lb.ffn_out)

    def test_different_seed_differs(self):
        other = EncoderConfig(**{**CFG.__dict__, "seed": 99})
        assert not np.array_equal(init_weights(CFG).token_embedding,
                                  init_weights(other).token_embedding)

    def test_norm_params_start_neutral(self, weights):
        for lw in weights.layers:
            assert np.all(lw.attn_norm_gain == 1.0) and np.all(lw.attn_norm_bias == 0.0)
            assert np.all(lw.ffn_norm_gain == 1.0) and np.all(lw.ffn_norm_bias == 0.0)
        assert np.all(weights.final_norm_gain == 1.0)
        assert np.all(weights.final_norm_bias == 0.0)

    def test_uniform_bound(self, weights):
        bound = 1.0 / math.sqrt(CFG.d_model)
        assert np.max(np.abs(weights.token_embedding)) <= bound


class TestEncode:
    def test_unit_norm(self, weights):
        out = encode([0, 3, 7, 3], CFG, weights)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, weights):
        a = encode([5, 1, 2], CFG, weights)
        b = encode([5, 1, 2], CFG, init_weights(CFG))
        assert np.array_equal(a, b)

    def test_token_order_matters(self, weights):
        assert not np.allclose(encode([1, 2], CFG, weights), encode([2, 1], CFG, weights))

    def test_empty_sequence_rejected(self, weights):
        with pytest.raises(ValueError):
            encode([], CFG, weights)

    def test_too_long_rejected(self, weights):
        with pytest.raises(ValueError, match="max_seq_len"):
            encode(list(range(CFG.vocab_size)) * 3, CFG, weights)

    def test_id_out_of_range_rejected(self, weights):
        with pytest.raises(ValueError, match="out of range"):
            encode([CFG.vocab_size], CFG, weights)

    def test_prenorm_residual_structure(self):
        # With attention and FFN projections zeroed, every block is an identity,
        # so the pooled pre-normalization state is exactly the final rmsnorm of
        # embedding + positional signal.
        w = zeroed_weights(CFG)
        ids = [4, 9, 0]
        base = w.token_embedding[ids] + positional_encoding(3, CFG.d_model)
        expected = np.stack(
            [rmsnorm(row, w.final_norm_gain, w.final_norm_bias) for row in base]
        )
        assert encode_states(ids, CFG, w) == pytest.approx(expected, abs=1e-12)
        pooled = expected.mean(axis=0)
        assert encode(ids, CFG, w) == pytest.approx(
            pooled / np.linalg.norm(pooled), abs=1e-12
        )


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros(5), 2)
        assert loss == pytest.approx(math.log(5), abs=1e-9)

    def test_confident_correct_prediction(self):
        loss, _ = cross_entropy(np.array([10.0, -10.0]), 0)
        assert loss == pytest.approx(2.0611536900435727e-09, rel=1e-6)

    def test_grad_sums_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = rng.normal(size=rng.integers(2, 10))
            _, grad = cross_entropy(logits, int(rng.integers(0, logits.size)))
            assert abs(grad.sum()) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(3), 3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(100):
            k = int(rng.integers(2, 9))
            logits = rng.normal(size=k)
            label = int(rng.integers(0, k))
            _, grad = cross_entropy(logits, label)
            numeric = np.empty(k)
            for i in range(k):
                plus, minus = logits.copy(), logits.copy()
                plus[i] += h
                minus[i] -= h
                numeric[i] = (cross_entropy(plus, label)[0] - cross_entropy(minus, label)[0]) / (2 * h)
            rel = np.linalg.norm(grad - numeric) / max(
                np.linalg.norm(grad), np.linalg.norm(numeric)
            )
            assert rel <= 1e-5


class TestMse:
    def test_identical_inputs(self):
        loss, grad = mse(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_hand_value(self):
        loss, grad = mse(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == 2.0
        assert grad == pytest.approx([2.0, 0.0], abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            loss, _ = mse(rng.normal(size=n), rng.normal(size=n))
            assert loss >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones(2), np.ones(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(100):
            n = int(rng.integers(1, 20))
            pred, target = rng.normal(size=n), rng.normal(size=n)
            _, grad = mse(pred, target)
            numeric = np.empty(n)
            for i in range(n):
                plus, minus = pred.copy(), pred.copy()
                plus[i] += h
                minus[i] -= h
                numeric[i] = (mse(plus, target)[0] - mse(minus, target)[0]) / (2 * h)
            denom = max(np.linalg.norm(grad), np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(grad - numeric) / denom <= 1e-5


small_configs = st.builds(
    lambda vocab, heads, half_head, layers, d_ff, seq, seed: EncoderConfig(
        vocab_size=vocab, d_model=2 * heads * half_head, n_heads=heads, n_layers=layers,
        d_ff=d_ff, max_seq_len=seq, seed=seed,
    ),
    st.integers(1, 30), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 16), st.integers(1, 8), st.integers(0, 2**64 - 1),
)


# The LayerWeights arrays init_weights draws; the norm gains and biases are constants.
DRAWN = ("q_proj", "k_proj", "v_proj", "out_proj", "ffn_in", "ffn_gate", "ffn_out")


def assert_weights_equal(got, want):
    assert np.array_equal(got.token_embedding, want.token_embedding)
    assert len(got.layers) == len(want.layers)
    for g, w in zip(got.layers, want.layers):
        for name in ("q_proj", "k_proj", "v_proj", "out_proj",
                     "ffn_in", "ffn_gate", "ffn_out",
                     "attn_norm_gain", "attn_norm_bias",
                     "ffn_norm_gain", "ffn_norm_bias"):
            assert np.array_equal(getattr(g, name), getattr(w, name))
    assert np.array_equal(got.final_norm_gain, want.final_norm_gain)
    assert np.array_equal(got.final_norm_bias, want.final_norm_bias)


class TestInPlaceSteps:
    """The encoder works in place on arrays it made itself, never on what it
    was given."""

    def test_inputs_and_weights_keep_their_bytes(self):
        rng = np.random.default_rng(12)
        weights = init_weights(CFG)
        for lw in weights.layers:  # gains and biases away from one and zero
            for name in ("attn_norm_gain", "attn_norm_bias", "ffn_norm_gain", "ffn_norm_bias"):
                getattr(lw, name)[:] = rng.normal(size=CFG.d_model)
        lw = weights.layers[0]
        arrays = [
            weights.token_embedding, weights.final_norm_gain, weights.final_norm_bias,
            *(getattr(lw, name) for lw in weights.layers for name in vars(lw)),
        ]
        x = rng.normal(size=(2, 5, CFG.d_model))
        gain, bias = rng.normal(size=CFG.d_model), rng.normal(size=CFG.d_model)
        ids = np.array([[3, 1, 4, 1], [5, 9, 2, 6]])
        id_lists = [[7, 0, 7], [49], [2, 2, 8, 1, 4]]
        given = [x, gain, bias, ids]
        before = [a.tobytes() for a in arrays + given]
        lists_before = json.dumps(id_lists)

        rmsnorm(x, gain, bias)
        self_attention(x, lw, CFG.n_heads, return_weights=True)
        swiglu_ffn(x, lw)
        encode(ids, CFG, weights)
        encode(ids[0], CFG, weights)
        encoder.embed(id_lists, CFG, weights)

        assert [a.tobytes() for a in arrays + given] == before
        assert json.dumps(id_lists) == lists_before

    def test_steps_equal_their_out_of_place_expressions(self, weights):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 6, CFG.d_model))
        gain, bias = rng.normal(size=CFG.d_model), rng.normal(size=CFG.d_model)
        scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True)) + encoder.DEFAULT_EPS
        assert rmsnorm(x, gain, bias).tobytes() == (x / scale * gain + bias).tobytes()
        lw = weights.layers[0]
        up = x @ lw.ffn_in
        gated = up * (1.0 / (1.0 + np.exp(-up))) * (x @ lw.ffn_gate)
        assert swiglu_ffn(x, lw).tobytes() == (gated @ lw.ffn_out).tobytes()
        # Each row divided by its own 1-D np.linalg.norm, as one sequence alone.
        batch = rng.integers(0, CFG.vocab_size, size=(60, 5))
        pooled = encode_states(batch, CFG, weights).mean(axis=-2)
        want = np.stack([row / np.linalg.norm(row) for row in pooled])
        assert encode(batch, CFG, weights).tobytes() == want.tobytes()


class TestBatches:
    """A batch of equal-length sequences encodes each row exactly as that
    sequence alone: the same bits, whatever its neighbours."""

    def test_attention_weights_per_sequence(self, weights):
        x = np.random.default_rng(9).normal(size=(3, 5, CFG.d_model))
        lw = weights.layers[0]
        out, attn = self_attention(x, lw, CFG.n_heads, return_weights=True)
        assert out.shape == x.shape
        assert attn.shape == (3, CFG.n_heads, 5, 5)
        assert attn.sum(axis=-1) == pytest.approx(np.ones((3, CFG.n_heads, 5)), abs=1e-9)
        for row, row_out, row_attn in zip(x, out, attn):
            alone_out, alone_attn = self_attention(row, lw, CFG.n_heads, return_weights=True)
            assert np.array_equal(row_out, alone_out)
            assert np.array_equal(row_attn, alone_attn)

    def test_batch_rows_equal_sequences_alone(self, weights):
        batch = [[3, 1, 4, 1], [5, 9, 2, 6], [49, 0, 0, 7]]
        rows = encode(batch, CFG, weights)
        assert rows.shape == (3, CFG.d_model)
        for ids, row in zip(batch, rows):
            assert np.array_equal(row, encode(ids, CFG, weights))
        assert encode_states(batch, CFG, weights).shape == (3, 4, CFG.d_model)

    @pytest.mark.parametrize(
        "token_ids, message",
        [
            ([[[1, 2]]], "non-empty"),
            ([], "non-empty"),
            (np.zeros((0, 3), dtype=np.int64), "non-empty"),
            ([[]], "non-empty"),
            ([[1, 2], [3]], "equal lengths"),
            ([[1] * (CFG.max_seq_len + 1)] * 2, "max_seq_len"),
            ([[1, 2], [3, CFG.vocab_size]], "out of range"),
            ([[1, -1], [3, 4]], "out of range"),
            ([[1, 2], [3, 4], [CFG.vocab_size, 0]], "out of range"),
        ],
        ids=[
            "3-D", "empty", "empty-batch", "empty-rows", "ragged", "too-long",
            "out-of-range-last-row", "negative-first-row", "out-of-range-third-row",
        ],
    )
    def test_bad_ids_rejected(self, token_ids, message):
        with pytest.raises(ValueError, match=message):
            encoder._check_ids(token_ids, CFG)

    @given(
        cfg=small_configs,
        lengths=st.lists(st.integers(1, 11), min_size=1, max_size=24),
        budget=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        n_cpus=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_embedded_rows_do_not_depend_on_neighbours(self, cfg, lengths, budget, seed, n_cpus):
        rng = random.Random(seed)
        sequences = [[rng.randrange(cfg.vocab_size) for _ in range(n)] for n in lengths]
        rng.shuffle(sequences)
        weights = init_weights(cfg)
        # A small token budget splits a length group over several chunks, and
        # the CPU count deals the chunks to as many threads.
        with mock.patch.object(encoder, "ENCODE_TOKEN_BUDGET", budget), mock.patch.object(
            encoder.os, "sched_getaffinity", lambda pid: set(range(n_cpus))
        ):
            rows = encoder.embed(sequences, cfg, weights)
        assert rows.shape == (len(sequences), cfg.d_model)
        for ids, row in zip(sequences, rows):
            assert np.array_equal(row, encode(ids[: cfg.max_seq_len], cfg, weights))

    def test_rows_survive_frequent_thread_switches(self, weights):
        # More threads than cores, switching every microsecond: a row written
        # twice, lost or written to another row shows.
        rng = random.Random(4)
        sequences = [[rng.randrange(CFG.vocab_size) for _ in range(rng.randint(1, 9))]
                     for _ in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(encoder, "ENCODE_TOKEN_BUDGET", 8), mock.patch.object(
                encoder.os, "sched_getaffinity", lambda pid: set(range(8))
            ):
                rows = encoder.embed(sequences, CFG, weights)
        finally:
            sys.setswitchinterval(interval)
        for ids, row in zip(sequences, rows):
            assert np.array_equal(row, encode(ids, CFG, weights))

    def test_cpu_count_serves_where_affinity_is_missing(self, weights, monkeypatch):
        # As on macOS and Windows, where os has no sched_getaffinity.
        monkeypatch.delattr(encoder.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(encoder.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(encoder, "ENCODE_TOKEN_BUDGET", 4)
        sequences = [[i % CFG.vocab_size] * (1 + i % 4) for i in range(40)]
        start, started = threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
        rows = encoder.embed(sequences, CFG, weights)
        assert len(started) == 2
        for ids, row in zip(sequences, rows):
            assert np.array_equal(row, encode(ids, CFG, weights))

    def test_embedding_no_list_starts_no_thread(self, weights):
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError):
            rows = encoder.embed([], CFG, weights)
        assert rows.shape == (0, CFG.d_model)

    def test_empty_id_list_is_named(self, weights):
        with pytest.raises(ValueError, match="id list 1 is empty"):
            encoder.embed([[1], [], [2, 3], []], CFG, weights)


# A config and a sorted list of distinct token rows for it.
configs_and_rows = small_configs.flatmap(lambda cfg: st.tuples(
    st.just(cfg),
    st.lists(st.integers(0, cfg.vocab_size - 1), unique=True, max_size=12).map(sorted),
))

# A config and a sequence of token ids for it, repeats and any order allowed.
configs_and_ids = small_configs.flatmap(lambda cfg: st.tuples(
    st.just(cfg), st.lists(st.integers(0, cfg.vocab_size - 1), max_size=20),
))


def edge_config(vocab_size, seed):
    return EncoderConfig(vocab_size=vocab_size, d_model=4, n_heads=2, n_layers=2, d_ff=3, seed=seed)


class TestTokenRows:
    """init_weights(cfg, rows) draws the given token rows by advancing the
    PCG64 stream past the others, then the layers after the whole table."""

    @given(case=configs_and_rows)
    @example(case=(edge_config(1, 0), [0]))
    @example(case=(edge_config(1, 2**64 - 1), [0]))
    @example(case=(edge_config(1, 7), []))
    @example(case=(edge_config(30, 0), [0, 29]))
    @example(case=(edge_config(30, 2**64 - 1), [29]))
    @example(case=(edge_config(30, 2**64 - 1), [0, 3, 4, 17, 28]))
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_the_full_tables_rows(self, case):
        cfg, rows = case
        full = init_weights(cfg)
        part = init_weights(cfg, rows)
        assert part.token_embedding.shape == (len(rows), cfg.d_model)
        assert np.array_equal(part.token_embedding, full.token_embedding[rows])
        part.token_embedding = full.token_embedding
        assert_weights_equal(part, full)

    @pytest.mark.parametrize(
        "rows",
        [[-1], [CFG.vocab_size], [0, CFG.vocab_size], [3, 2], [4, 4], [1, 4, 4, 9], [True], [1.0]],
        ids=["negative", "out-of-range", "last-out-of-range", "unsorted", "repeated",
             "repeated-inside", "bool", "float"],
    )
    def test_bad_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="row"):
            init_weights(CFG, rows)

    @given(case=configs_and_ids)
    @settings(max_examples=40, deadline=None)
    def test_sidecar_loads_a_sequences_rows(self, tmp_path_factory, case):
        # Only the rows of the first max_seq_len ids, sorted and distinct.
        cfg, ids = case
        path = tmp_path_factory.mktemp("weights") / "weights.json"
        save_weights(cfg, init_weights(cfg), path)
        cfg2, loaded = load_weights(path, cfg.vocab_size, ids)
        rows = sorted(set(ids[: cfg.max_seq_len]))
        assert cfg2 == cfg and loaded.rows.tolist() == rows
        assert np.array_equal(loaded.token_embedding, init_weights(cfg).token_embedding[rows])

    @pytest.mark.parametrize("fault", ["weights_checksum_mismatch", "weights_seed_edited"])
    def test_row_path_checks_crc32(self, tmp_path, weights, fault):
        save_weights(CFG, weights, tmp_path / "weights.json")
        _, message = corrupt_artifact(tmp_path, fault)
        with pytest.raises(ValueError, match=message):
            load_weights(tmp_path / "weights.json", CFG.vocab_size, [0, 7])

    def test_a_partial_table_has_the_full_tables_checksum(self, tmp_path, weights):
        # crc32 leaves out the token table, so a table of any rows passes it.
        path = tmp_path / "weights.json"
        save_weights(CFG, weights, path)
        sidecar = path.read_bytes()
        save_weights(CFG, init_weights(CFG, [2, 5]), path)
        assert path.read_bytes() == sidecar

    @pytest.mark.parametrize("rows, id_lists", [
        ([2, 5, 9], [[2, 3]]), ([2, 5, 9], [[0, 2]]), ([2, 5, 9], [[9, 10]]),
        ([2, 5, 9], [[2, 5], [5, 49]]), ([2, 5, 9], [[9], [5, 4, 2]]), ([], [[0]]),
    ], ids=["between-rows", "below-first", "past-last", "second-in-batch", "second-chunk",
            "no-rows"])
    def test_a_partial_table_refuses_an_id_it_did_not_draw(self, rows, id_lists):
        # Never silently read from the row that happens to sit at its place.
        part = init_weights(CFG, rows)
        with pytest.raises(ValueError, match="not among the rows of this partial weight table"):
            encoder.embed(id_lists, CFG, part)

    @given(
        case=small_configs.flatmap(lambda cfg: st.tuples(
            st.just(cfg),
            st.lists(st.lists(st.integers(0, cfg.vocab_size - 1), min_size=1, max_size=12),
                     min_size=1, max_size=8),
            st.lists(st.integers(0, cfg.vocab_size - 1), max_size=6),
        )),
    )
    @settings(max_examples=60, deadline=None)
    def test_embed_on_a_partial_table_is_embed_on_the_full_one(self, case):
        # The same global ids on both tables; the partial one holds the rows
        # of every kept id, plus some that no sequence reads.
        cfg, id_lists, extra = case
        read = {i for ids in id_lists for i in ids[: cfg.max_seq_len]}
        part = init_weights(cfg, sorted(read | set(extra)))
        want = encoder.embed(id_lists, cfg, init_weights(cfg))
        assert np.array_equal(encoder.embed(id_lists, cfg, part), want)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path, weights):
        path = tmp_path / "weights.json"
        save_weights(CFG, weights, path)
        cfg2, loaded = load_weights(path)
        assert cfg2 == CFG
        assert_weights_equal(loaded, weights)

    @given(cfg=small_configs, nudge_at=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_regenerated_weights_round_trip_property(self, tmp_path_factory, cfg, nudge_at):
        path = tmp_path_factory.mktemp("weights") / "weights.json"
        weights = init_weights(cfg)
        save_weights(cfg, weights, path)
        cfg2, loaded = load_weights(path)
        assert cfg2 == cfg
        assert_weights_equal(loaded, init_weights(cfg))
        # One element off by one ulp stands in for a numpy release whose
        # seeded stream differs from the one that wrote the sidecar.  Such a
        # stream moves the layer draws too, and those are what crc32 covers.
        drawn = [getattr(lw, name).reshape(-1) for lw in weights.layers for name in DRAWN]
        flat = drawn[nudge_at % len(drawn)]
        flat[nudge_at % flat.size] = np.nextafter(flat[nudge_at % flat.size], np.inf)
        save_weights(cfg, weights, path)
        message = f"crc32 mismatch in weights regenerated by numpy {np.__version__}"
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            load_weights(path)
        assert "weights.json" in str(exc.value)

    def test_loaded_weights_encode_identically(self, tmp_path, weights):
        path = tmp_path / "weights.json"
        save_weights(CFG, weights, path)
        _, loaded = load_weights(path)
        assert np.array_equal(encode([1, 2, 3], CFG, weights), encode([1, 2, 3], CFG, loaded))

    def test_sidecar_records_config_and_seed(self, tmp_path, weights):
        path = tmp_path / "weights.json"
        save_weights(CFG, weights, path)
        sidecar = json.loads(path.read_text())
        assert sidecar["config"]["seed"] == CFG.seed
        assert sidecar["config"]["d_model"] == CFG.d_model

    @pytest.mark.parametrize("fault", faults_of("weights_"))
    def test_corrupt_file_rejected(self, tmp_path, weights, fault):
        save_weights(CFG, weights, tmp_path / "weights.json")
        name, message = corrupt_artifact(tmp_path, fault)
        with pytest.raises(ValueError, match=message) as exc:
            load_weights(tmp_path / "weights.json")
        assert name in str(exc.value)

    def test_sidecar_is_one_header_line(self, tmp_path, weights):
        path = tmp_path / "weights.json"
        save_weights(CFG, weights, path)
        assert path.read_bytes().count(b"\n") == 1 and path.read_bytes().endswith(b"\n")

    def test_other_vocab_size_rejected_before_regenerating(self, tmp_path, weights, monkeypatch):
        path = tmp_path / "weights.json"
        save_weights(CFG, weights, path)
        sidecar = json.loads(path.read_text())
        sidecar["config"]["vocab_size"] = 200_000
        path.write_text(json.dumps(sidecar) + "\n")

        def fail(cfg):
            raise AssertionError("init_weights called")

        monkeypatch.setattr(encoder, "init_weights", fail)
        with pytest.raises(ValueError, match="weights.json: vocab_size 200000 is not the 50 terms"):
            load_weights(path, vocab_size=CFG.vocab_size)

    def test_suffixless_path_round_trips(self, tmp_path, weights):
        # Only the sidecar is written, under the path's stem with a .json suffix.
        save_weights(CFG, weights, tmp_path / "weights.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["weights.json"]
        _, loaded = load_weights(tmp_path / "weights.bin")
        assert_weights_equal(loaded, weights)

    def test_failed_rename_leaves_no_files(self, tmp_path, weights, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(io_utils.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_weights(CFG, weights, tmp_path / "weights.json")
        assert list(tmp_path.iterdir()) == []
