import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from desksearch import io_utils
from desksearch.encoder import (
    EncoderConfig,
    cross_entropy,
    encode,
    encode_states,
    init_weights,
    load_weights,
    mse,
    positional_encoding,
    rms,
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


class TestRms:
    def test_hand_value(self):
        assert rms(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_ones(self):
        assert rms(np.ones(17)) == 1.0

    def test_zeros(self):
        assert rms(np.zeros(4)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rms(np.array([]))


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

    @given(
        arrays(
            float,
            st.integers(2, 64),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ).filter(lambda a: np.max(np.abs(a)) >= 1e-6)
    )
    def test_output_rms_is_one(self, a):
        out = rmsnorm(a, np.ones(a.size), np.zeros(a.size), eps=0.0)
        assert rms(out) == pytest.approx(1.0, abs=1e-9)

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


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path, weights):
        path = tmp_path / "weights.npz"
        save_weights(CFG, weights, path)
        cfg2, loaded = load_weights(path)
        assert cfg2 == CFG
        assert np.array_equal(loaded.token_embedding, weights.token_embedding)
        for got, want in zip(loaded.layers, weights.layers):
            for name in ("q_proj", "k_proj", "v_proj", "out_proj",
                         "ffn_in", "ffn_gate", "ffn_out",
                         "attn_norm_gain", "attn_norm_bias",
                         "ffn_norm_gain", "ffn_norm_bias"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(loaded.final_norm_gain, weights.final_norm_gain)

    def test_loaded_weights_encode_identically(self, tmp_path, weights):
        path = tmp_path / "weights.npz"
        save_weights(CFG, weights, path)
        _, loaded = load_weights(path)
        assert np.array_equal(encode([1, 2, 3], CFG, weights), encode([1, 2, 3], CFG, loaded))

    def test_sidecar_records_config_and_seed(self, tmp_path, weights):
        import json

        path = tmp_path / "weights.npz"
        save_weights(CFG, weights, path)
        sidecar = json.loads((tmp_path / "weights.json").read_text())
        assert sidecar["config"]["seed"] == CFG.seed
        assert sidecar["config"]["d_model"] == CFG.d_model

    def test_suffixless_path_round_trips(self, tmp_path, weights):
        # np.savez appends .npz; the loader must look for the same name
        save_weights(CFG, weights, tmp_path / "weights.bin")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["weights.bin.npz", "weights.json"]
        _, loaded = load_weights(tmp_path / "weights.bin")
        assert np.array_equal(loaded.token_embedding, weights.token_embedding)

    def test_failed_rename_leaves_no_files(self, tmp_path, weights, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(io_utils.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_weights(CFG, weights, tmp_path / "weights.npz")
        assert list(tmp_path.iterdir()) == []
