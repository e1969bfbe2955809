"""From-scratch inference-only transformer encoder producing document embeddings.

Architecture: token embeddings + sinusoidal positional encoding, then a stack
of pre-norm blocks (x += Attention(RMSNorm(x)); x += SwiGLU(RMSNorm(x))),
a final RMSNorm, mean pooling over positions, and L2 normalization.  Weights
are deterministic seeded random draws, so every output is reproducible from
(token ids, config, seed).  Gradients exist only for the two loss functions;
there is no training loop.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import io_utils

DEFAULT_EPS = 1e-6

# Unit-norm float64 vector of length d_model, as emitted by encode().
DenseEmbedding = np.ndarray


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    max_seq_len: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass
class LayerWeights:
    q_proj: np.ndarray
    k_proj: np.ndarray
    v_proj: np.ndarray
    out_proj: np.ndarray
    ffn_in: np.ndarray
    ffn_gate: np.ndarray
    ffn_out: np.ndarray
    attn_norm_gain: np.ndarray
    attn_norm_bias: np.ndarray
    ffn_norm_gain: np.ndarray
    ffn_norm_bias: np.ndarray


@dataclass
class EncoderWeights:
    token_embedding: np.ndarray
    layers: list[LayerWeights]
    final_norm_gain: np.ndarray
    final_norm_bias: np.ndarray


def init_weights(cfg: EncoderConfig) -> EncoderWeights:
    """Seeded uniform init in [-1/sqrt(d_model), +1/sqrt(d_model)); norm gains
    start at one and norm biases at zero."""
    rng = np.random.default_rng(cfg.seed)
    bound = 1.0 / math.sqrt(cfg.d_model)
    d, f = cfg.d_model, cfg.d_ff

    def draw(*shape: int) -> np.ndarray:
        return rng.uniform(-bound, bound, size=shape)

    layers = []
    token_embedding = draw(cfg.vocab_size, d)
    for _ in range(cfg.n_layers):
        layers.append(
            LayerWeights(
                q_proj=draw(d, d),
                k_proj=draw(d, d),
                v_proj=draw(d, d),
                out_proj=draw(d, d),
                ffn_in=draw(d, f),
                ffn_gate=draw(d, f),
                ffn_out=draw(f, d),
                attn_norm_gain=np.ones(d),
                attn_norm_bias=np.zeros(d),
                ffn_norm_gain=np.ones(d),
                ffn_norm_bias=np.zeros(d),
            )
        )
    return EncoderWeights(
        token_embedding=token_embedding,
        layers=layers,
        final_norm_gain=np.ones(d),
        final_norm_bias=np.zeros(d),
    )


def positional_encoding(seq_len: int, d_model: int) -> np.ndarray:
    """Sinusoidal position signal: dim 2i is sin(p / 10000^(2i/d)), dim 2i+1 the cos."""
    if d_model % 2 != 0:
        raise ValueError("d_model must be even")
    positions = np.arange(seq_len, dtype=float)[:, None]
    inv_freq = np.power(10000.0, -np.arange(0, d_model, 2, dtype=float) / d_model)
    angles = positions * inv_freq[None, :]
    out = np.empty((seq_len, d_model))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def rms(a: np.ndarray) -> float:
    """Root mean square, sqrt(mean(a_i^2))."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("rms of zero-length input is undefined")
    return float(np.sqrt(np.mean(np.square(a))))


def rmsnorm(
    a: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = DEFAULT_EPS
) -> np.ndarray:
    """Divide by (RMS(a) + eps), then rescale by gain and shift by bias."""
    a = np.asarray(a, dtype=float)
    gain = np.broadcast_to(np.asarray(gain, dtype=float), a.shape)
    bias = np.broadcast_to(np.asarray(bias, dtype=float), a.shape)
    return a / (rms(a) + eps) * gain + bias


def _rmsnorm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    # Row-wise rmsnorm for a (seq_len, d_model) matrix.
    scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True)) + eps
    return x / scale * gain + bias


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def self_attention(
    x: np.ndarray,
    lw: LayerWeights,
    n_heads: int,
    return_weights: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product self-attention over one sequence.

    With ``return_weights`` the (n_heads, seq_len, seq_len) attention weight
    tensor is returned alongside the output; each weight row sums to one.
    """
    seq_len, d_model = x.shape
    if d_model % n_heads != 0:
        raise ValueError("d_model must be divisible by n_heads")
    d_head = d_model // n_heads

    def split_heads(m: np.ndarray) -> np.ndarray:
        return m.reshape(seq_len, n_heads, d_head).transpose(1, 0, 2)

    q = split_heads(x @ lw.q_proj)
    k = split_heads(x @ lw.k_proj)
    v = split_heads(x @ lw.v_proj)

    scores = q @ k.transpose(0, 2, 1) / math.sqrt(d_head)
    weights = _softmax(scores)
    context = weights @ v  # (n_heads, seq_len, d_head)
    out = context.transpose(1, 0, 2).reshape(seq_len, d_model) @ lw.out_proj
    if return_weights:
        return out, weights
    return out


def swiglu_ffn(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    """Gated feed-forward: swish(x @ ffn_in) * (x @ ffn_gate), projected back down."""
    up = x @ lw.ffn_in
    # exp(-up) overflows to inf for very negative up; 1 / (1 + inf) is the
    # correct limit 0, so the overflow is expected and silenced.
    with np.errstate(over="ignore"):
        swish = up * (1.0 / (1.0 + np.exp(-up)))
    gated = swish * (x @ lw.ffn_gate)
    return gated @ lw.ffn_out


def _check_ids(token_ids: list[int], cfg: EncoderConfig) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token sequence must be a non-empty 1-D list of ids")
    if ids.size > cfg.max_seq_len:
        raise ValueError(f"sequence length {ids.size} exceeds max_seq_len {cfg.max_seq_len}")
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise ValueError(f"token id out of range for vocab_size {cfg.vocab_size}")
    return ids


def encode_states(
    token_ids: list[int],
    cfg: EncoderConfig,
    weights: EncoderWeights,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Run the full stack and return the (seq_len, d_model) matrix after the
    final RMSNorm, before pooling."""
    ids = _check_ids(token_ids, cfg)
    x = weights.token_embedding[ids] + positional_encoding(ids.size, cfg.d_model)
    for lw in weights.layers:
        x = x + self_attention(
            _rmsnorm_rows(x, lw.attn_norm_gain, lw.attn_norm_bias, eps), lw, cfg.n_heads
        )
        x = x + swiglu_ffn(_rmsnorm_rows(x, lw.ffn_norm_gain, lw.ffn_norm_bias, eps), lw)
    return _rmsnorm_rows(x, weights.final_norm_gain, weights.final_norm_bias, eps)


def encode(
    token_ids: list[int],
    cfg: EncoderConfig,
    weights: EncoderWeights,
    eps: float = DEFAULT_EPS,
) -> DenseEmbedding:
    """Mean-pool the encoded sequence and L2-normalize to a unit vector."""
    pooled = encode_states(token_ids, cfg, weights, eps=eps).mean(axis=0)
    norm = float(np.linalg.norm(pooled))
    if norm == 0.0:
        raise ValueError("pooled representation is the zero vector; cannot normalize")
    return pooled / norm


def cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and its gradient with respect to the logits."""
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("logits must be a 1-D vector with at least two classes")
    if not 0 <= label < z.size:
        raise ValueError(f"label {label} out of range for {z.size} classes")
    m = float(np.max(z))
    log_norm = m + math.log(float(np.sum(np.exp(z - m))))
    loss = log_norm - float(z[label])
    grad = np.exp(z - log_norm)
    grad[label] -= 1.0
    return loss, grad


def mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient with respect to the predictions."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("mse of empty vectors is undefined")
    diff = p - t
    loss = float(np.mean(np.square(diff)))
    grad = 2.0 * diff / p.size
    return loss, grad


def _npz_path(path: Path) -> Path:
    # np.savez appends .npz to a file name that lacks it; reads must agree.
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def save_weights(cfg: EncoderConfig, weights: EncoderWeights, path: str | Path) -> None:
    """Persist weights to ``path`` (.npz) with a JSON sidecar holding the config.

    The float64 arrays round-trip bit-exactly through load_weights.  Both files
    are written atomically.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        "token_embedding": weights.token_embedding,
        "final_norm_gain": weights.final_norm_gain,
        "final_norm_bias": weights.final_norm_bias,
    }
    for i, lw in enumerate(weights.layers):
        for f in fields(LayerWeights):
            arrays[f"layer{i}.{f.name}"] = getattr(lw, f.name)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    io_utils.atomic_write_bytes(_npz_path(path), buf.getvalue())
    sidecar = {"format": "encoder-weights", "version": 1, "config": asdict(cfg)}
    io_utils.atomic_write_text(path.with_suffix(".json"), json.dumps(sidecar, indent=2) + "\n")


def load_weights(path: str | Path) -> tuple[EncoderConfig, EncoderWeights]:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    if sidecar.get("format") != "encoder-weights":
        raise ValueError(f"not an encoder weights sidecar: {path.with_suffix('.json')}")
    cfg = EncoderConfig(**sidecar["config"])
    with np.load(_npz_path(path)) as data:
        layers = [
            LayerWeights(**{f.name: data[f"layer{i}.{f.name}"] for f in fields(LayerWeights)})
            for i in range(cfg.n_layers)
        ]
        weights = EncoderWeights(
            token_embedding=data["token_embedding"],
            layers=layers,
            final_norm_gain=data["final_norm_gain"],
            final_norm_bias=data["final_norm_bias"],
        )
    return cfg, weights
