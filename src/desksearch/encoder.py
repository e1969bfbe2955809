"""From-scratch inference-only transformer encoder producing document embeddings.

Architecture: token embeddings + sinusoidal positional encoding, then a stack
of pre-norm blocks (x += Attention(RMSNorm(x)); x += SwiGLU(RMSNorm(x))),
a final RMSNorm, mean pooling over positions, and L2 normalization.  Every
stage takes one sequence or a batch of equal-length ones on a leading axis,
and computes each batch row exactly as it would that sequence alone.  Weights
are seeded random draws, so every output is reproducible from (token ids,
config, seed).  They are never stored: the sidecar's one header line holds the
config and the CRC-32 of the arrays drawn after the token table, and
load_weights regenerates them and checks it, as numpy does not promise the same
seeded stream in every release (NEP 19).  A query needs only its own token
rows, and load_weights can draw just those; ``embed`` serves documents and
queries alike.  Gradients exist only for the two losses; no training loop.
"""

from __future__ import annotations

import math
import os
import threading
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import io_utils

DEFAULT_EPS = 1e-6
WEIGHTS_FORMAT = "encoder-weights"
WEIGHTS_VERSION = 4
# Tokens per encode call in embed.  Chunks much larger than this encode
# slower per sequence: their attention tensors no longer fit in cache.
ENCODE_TOKEN_BUDGET = 512


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
            io_utils.require_int(name, getattr(self, name), 1)
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        io_utils.require_int("seed", self.seed, 0)
        if self.seed >= 2**64:
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
    rows: np.ndarray | None = None  # the rising token ids a partial table holds; None: all


def init_weights(cfg: EncoderConfig, rows: list[int] | None = None) -> EncoderWeights:
    """Seeded uniform init in [-1/sqrt(d_model), +1/sqrt(d_model)); norm gains
    start at one and norm biases at zero.

    The (vocab_size, d_model) token table is drawn first, then the layers.
    Each uniform draw takes exactly one PCG64 step, so token row r is the
    d_model draws after ``advance(r * d_model)``, and the layers follow
    ``advance(vocab_size * d_model)``.  Given ``rows``, sorted distinct token
    ids, the table holds only those rows, in that order, each drawn alone and
    bit-equal to its row of the full table; the weights keep them as ``rows``.
    Weights beyond physical memory raise MemoryError before any draw.
    """
    d, f = cfg.d_model, cfg.d_ff
    n_rows = cfg.vocab_size if rows is None else len(rows)
    need = 8 * (n_rows * d + cfg.n_layers * (4 * d * d + 3 * d * f + 4 * d) + 2 * d)
    io_utils.require_memory(need, "weights")
    bitgen = np.random.PCG64(cfg.seed)  # what default_rng(seed) wraps
    rng = np.random.Generator(bitgen)
    bound = 1.0 / math.sqrt(cfg.d_model)

    def draw(*shape: int) -> np.ndarray:
        return rng.uniform(-bound, bound, size=shape)

    if rows is None:
        token_embedding = draw(cfg.vocab_size, d)
    else:
        _check_rows(rows, cfg.vocab_size)
        token_embedding = np.empty((len(rows), d))
        at = 0  # the table row the stream stands at
        for i, row in enumerate(rows):
            bitgen.advance((row - at) * d)
            token_embedding[i] = draw(d)
            at = row + 1
        bitgen.advance((cfg.vocab_size - at) * d)
    layers = []
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
        rows=None if rows is None else np.asarray(rows, dtype=np.int64),
    )


def _check_rows(rows: list[int], vocab_size: int) -> None:
    ids = np.asarray(rows)  # bools, floats and ints past 64 bits are no integer dtype
    if ids.ndim != 1 or ids.size and not (
        ids.dtype.kind in "iu" and 0 <= ids[0] and ids[-1] < vocab_size
        and (ids[1:] > ids[:-1]).all()
    ):
        raise ValueError(f"rows must be sorted, distinct token ids in [0, {vocab_size})")


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


def rmsnorm(
    a: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = DEFAULT_EPS
) -> np.ndarray:
    """Divide each row (the last axis; a 1-D input is one row) by
    (RMS(row) + eps), then rescale by gain and shift by bias."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("rmsnorm of zero-length input is undefined")
    scale = np.sqrt(np.mean(np.square(a), axis=-1, keepdims=True)) + eps
    out = a / scale
    try:  # in place: a gain or bias that would broadcast past a's shape raises
        out *= gain
        out += bias
    except ValueError:
        raise ValueError(f"gain and bias must broadcast to the input shape {a.shape}") from None
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def self_attention(
    x: np.ndarray,
    lw: LayerWeights,
    n_heads: int,
    return_weights: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product self-attention over a (seq_len, d_model)
    sequence or a (batch, seq_len, d_model) batch of them.

    With ``return_weights`` the (n_heads, seq_len, seq_len) attention weight
    tensor, or (batch, n_heads, seq_len, seq_len) for a batch, is returned
    alongside the output; each weight row sums to one.
    """
    d_model = x.shape[-1]
    if d_model % n_heads != 0:
        raise ValueError("d_model must be divisible by n_heads")
    d_head = d_model // n_heads
    head_shape = x.shape[:-1] + (n_heads, d_head)

    def split_heads(m: np.ndarray) -> np.ndarray:
        return m.reshape(head_shape).swapaxes(-3, -2)

    q = split_heads(x @ lw.q_proj)
    k = split_heads(x @ lw.k_proj)
    v = split_heads(x @ lw.v_proj)

    scores = q @ k.swapaxes(-2, -1)
    scores /= math.sqrt(d_head)
    weights = _softmax(scores)
    context = weights @ v  # (..., n_heads, seq_len, d_head)
    out = context.swapaxes(-3, -2).reshape(x.shape) @ lw.out_proj
    if return_weights:
        return out, weights
    return out


def swiglu_ffn(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    """Gated feed-forward: swish(x @ ffn_in) * (x @ ffn_gate), projected back down."""
    up = x @ lw.ffn_in
    sigmoid = np.negative(up)
    # exp(-up) overflows to inf for very negative up; 1 / (1 + inf) is the
    # correct limit 0, so the overflow is expected and silenced.
    with np.errstate(over="ignore"):
        np.exp(sigmoid, out=sigmoid)
    sigmoid += 1.0
    np.divide(1.0, sigmoid, out=sigmoid)
    up *= sigmoid  # swish(up), in place: up is this call's own array
    up *= x @ lw.ffn_gate
    return up @ lw.ffn_out


def _check_ids(token_ids, cfg: EncoderConfig) -> np.ndarray:
    try:
        ids = np.asarray(token_ids, dtype=np.int64)
    except ValueError:  # a ragged batch
        raise ValueError("token sequences in a batch must have equal lengths") from None
    if ids.ndim not in (1, 2) or ids.size == 0:
        raise ValueError(
            "token ids must be a non-empty sequence or a batch of equal-length sequences"
        )
    if ids.shape[-1] > cfg.max_seq_len:
        raise ValueError(f"sequence length {ids.shape[-1]} exceeds max_seq_len {cfg.max_seq_len}")
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise ValueError(f"token id out of range for vocab_size {cfg.vocab_size}")
    return ids


def encode_states(token_ids, cfg: EncoderConfig, weights: EncoderWeights) -> np.ndarray:
    """Run the full stack over one sequence of ids (seq_len,) or a batch of
    equal-length ones (batch, seq_len) and return the (..., seq_len, d_model)
    states after the final RMSNorm, before pooling.  A partial table reads id
    r at r's place in its ``rows``, and raises ValueError for an id it lacks."""
    ids = _check_ids(token_ids, cfg)
    held = weights.rows
    at = ids if held is None else np.searchsorted(held, ids)
    if held is not None and not ((at < held.size).all() and (held[at] == ids).all()):
        raise ValueError("token id not among the rows of this partial weight table")
    x = weights.token_embedding[at] + positional_encoding(ids.shape[-1], cfg.d_model)
    for lw in weights.layers:  # x is this call's own array, so the residuals add in place
        x += self_attention(rmsnorm(x, lw.attn_norm_gain, lw.attn_norm_bias), lw, cfg.n_heads)
        x += swiglu_ffn(rmsnorm(x, lw.ffn_norm_gain, lw.ffn_norm_bias), lw)
    return rmsnorm(x, weights.final_norm_gain, weights.final_norm_bias)


def encode(token_ids, cfg: EncoderConfig, weights: EncoderWeights) -> np.ndarray:
    """Mean-pool the encoded sequence and L2-normalize it to a unit vector; a
    batch gives one unit row per sequence."""
    pooled = encode_states(token_ids, cfg, weights).mean(axis=-2)
    rows = pooled.reshape(-1, cfg.d_model)
    norms = row_norms(rows)
    if not norms.all():
        raise ValueError("pooled representation is the zero vector; cannot normalize")
    rows /= norms[:, None]
    return pooled


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, from its dot product with itself in one stacked
    (1, d) @ (d, 1) matmul: bit-equal to each row's 1-D ``np.linalg.norm``,
    which the row-wise ``norm(rows, axis=-1)`` may not be, as it sums in
    another order.  Makes no temporary the size of ``rows``."""
    with np.errstate(over="ignore"):  # an overflowing row has norm inf
        norms = np.matmul(rows[:, None, :], rows[:, :, None]).reshape(len(rows))
    return np.sqrt(norms, out=norms)


def embed(id_lists: list[list[int]], cfg: EncoderConfig, weights: EncoderWeights) -> np.ndarray:
    """Embed documents or queries from their non-empty token ids, each cut to
    max_seq_len: one unit row per list, in input order.

    Lists of one length are encoded together, max(1, ENCODE_TOKEN_BUDGET //
    length) per call, which bounds the (chunk, n_heads, length, length)
    attention tensor.  A row does not depend on the rest of its chunk, nor on
    the thread that encodes it: the chunks are dealt round-robin to one share
    per CPU the process may use, and the calling thread encodes the first
    share while a thread of its own encodes each other one (numpy releases
    the GIL).  An error in any share is raised here once every thread ended.
    """
    seqs = [ids[: cfg.max_seq_len] for ids in id_lists]
    by_length: dict[int, list[int]] = {}
    for i, ids in enumerate(seqs):
        by_length.setdefault(len(ids), []).append(i)
    if 0 in by_length:
        raise ValueError(f"id list {by_length[0][0]} is empty; each needs a token id")
    chunks: list[list[int]] = []
    for length, members in by_length.items():
        step = max(1, ENCODE_TOKEN_BUDGET // length)
        chunks += [members[start : start + step] for start in range(0, len(members), step)]
    out = np.empty((len(seqs), cfg.d_model))
    errors: list[BaseException] = []

    def encode_share(share: list[list[int]]) -> None:
        try:
            for chunk in share:
                if errors:  # another share failed: the result is lost anyway
                    return
                # encode is looked up in the module per call: perfbench wraps it.
                out[chunk] = encode([seqs[i] for i in chunk], cfg, weights)
        except BaseException as exc:  # raised in the caller, not by threading.excepthook
            errors.append(exc)

    # sched_getaffinity is missing on macOS and Windows; there all CPUs count.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = max(1, min(cpus or 1, len(chunks)))
    mine, threads = chunks[0::n], []
    for i in range(1, n):
        thread = threading.Thread(target=encode_share, args=(chunks[i::n],))
        try:
            thread.start()
            threads.append(thread)
        except RuntimeError:  # no thread to spare: the caller encodes this share too
            mine += chunks[i::n]
    encode_share(mine)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out


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


def _checksum(weights: EncoderWeights) -> int:
    """zlib.crc32 of the little-endian float64 bytes of every array after the
    token table, in init_weights order.  They are drawn after the whole table,
    so a changed seeded stream changes them too, and a table of some rows has
    the same checksum as the full one."""
    layers = [getattr(lw, f.name) for lw in weights.layers for f in fields(LayerWeights)]
    crc = 0
    for a in [*layers, weights.final_norm_gain, weights.final_norm_bias]:
        crc = zlib.crc32(np.ascontiguousarray(a, dtype="<f8"), crc)
    return crc


def save_weights(cfg: EncoderConfig, weights: EncoderWeights, path: str | Path) -> None:
    """Write ``path.with_suffix(".json")`` atomically: one header line holding
    the config and the CRC-32 of ``weights``, which must be ``init_weights(cfg)``
    or ``init_weights(cfg, rows)``."""
    path = Path(path).with_suffix(".json")
    fields = {"config": asdict(cfg), "crc32": _checksum(weights)}
    io_utils.write_artifact(path, WEIGHTS_FORMAT, WEIGHTS_VERSION, fields)


def load_weights(
    path: str | Path, vocab_size: int | None = None, ids: list[int] | None = None
) -> tuple[EncoderConfig, EncoderWeights]:
    """Regenerate the weights a ``save_weights`` sidecar describes; given one
    sequence's ``ids``, only the token rows that ``embed`` reads of them.  A
    malformed sidecar, a ``vocab_size`` other than the given one (checked
    before any weight is drawn), weights too large to draw or a CRC-32
    mismatch raises ValueError naming the file."""
    path = Path(path).with_suffix(".json")
    sidecar, _ = io_utils.read_artifact(path, WEIGHTS_FORMAT, WEIGHTS_VERSION)
    try:
        cfg, crc32 = EncoderConfig(**sidecar["config"]), sidecar["crc32"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if vocab_size is not None and cfg.vocab_size != vocab_size:
        raise ValueError(f"{path}: vocab_size {cfg.vocab_size} is not the {vocab_size} terms "
                         "of the lexical index")
    try:
        weights = init_weights(cfg, None if ids is None else sorted(set(ids[: cfg.max_seq_len])))
    except MemoryError as exc:
        raise ValueError(f"{path}: cannot draw the weights it describes: {exc}") from None
    if _checksum(weights) != crc32:
        raise ValueError(f"{path}: crc32 mismatch in weights regenerated by numpy {np.__version__}")
    return cfg, weights
