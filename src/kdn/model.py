"""Deterministic attention-only reference model.

All projection weights and token embeddings are closed-form functions of the
model configuration, so any two builds of the same config produce identical
weights on any platform (up to libm sin accuracy).  The model is an
attention-only residual stack (no MLP, no normalization): the minimal
structure that produces a meaningful KV cache while staying auditable.

Keys are stored *before* rotary rotation.  Rotation is applied at attention
time from absolute positions, which makes re-basing a cache to a new start
position an O(1) metadata change.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

FIXTURE_MAGIC = b"KDNF"

# closed-form weight constants
_W_FREQ = 0.37
_W_TAG = 977
_W_ROW = 131
_W_COL = 7
_E_FREQ = 0.61
_E_TOK = 31

ROLE_Q, ROLE_K, ROLE_V, ROLE_O = 0, 1, 2, 3

# keys per causal score tile in ``attend``
TILE = 128

# token rows to index a (token, ...) array by
Rows = np.ndarray | list[int] | slice


class ModelError(ValueError):
    """Invalid model configuration or inputs."""


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_head: int
    vocab_size: int
    rope_base: float = 10000.0

    def __post_init__(self) -> None:
        if self.n_layers < 1 or self.n_heads < 1 or self.d_head < 1:
            raise ModelError("n_layers, n_heads and d_head must be positive")
        if self.vocab_size < 1:
            raise ModelError("vocab_size must be positive")
        if self.d_head % 2 != 0:
            raise ModelError("d_head must be even (pairwise rotary rotation)")

    @property
    def d_model(self) -> int:
        return self.n_heads * self.d_head

    @property
    def model_id(self) -> int:
        """64-bit identifier derived from the config fields."""
        blob = struct.pack(
            "<4I d",
            self.n_layers,
            self.n_heads,
            self.d_head,
            self.vocab_size,
            self.rope_base,
        )
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_head": self.d_head,
            "vocab_size": self.vocab_size,
            "rope_base": self.rope_base,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            n_layers=int(d["n_layers"]),
            n_heads=int(d["n_heads"]),
            d_head=int(d["d_head"]),
            vocab_size=int(d["vocab_size"]),
            rope_base=float(d.get("rope_base", 10000.0)),
        )


@dataclass
class KvCache:
    """Per-layer, per-head K/V tensors for a token range.

    ``k_pre`` holds keys before rotary rotation; both tensors have layout
    (layer, head, token, dim) and float32 storage.
    """

    k_pre: np.ndarray
    v: np.ndarray
    start_pos: int = 0

    def __post_init__(self) -> None:
        self.k_pre = np.asarray(self.k_pre, dtype=np.float32)
        self.v = np.asarray(self.v, dtype=np.float32)
        if self.k_pre.shape != self.v.shape or self.k_pre.ndim != 4:
            raise ModelError("k_pre and v must share a (layer, head, token, dim) shape")

    @property
    def n_layers(self) -> int:
        return self.k_pre.shape[0]

    @property
    def n_heads(self) -> int:
        return self.k_pre.shape[1]

    @property
    def n_tokens(self) -> int:
        return self.k_pre.shape[2]

    @property
    def d_head(self) -> int:
        return self.k_pre.shape[3]

    def slice_tokens(self, start: int, stop: int) -> "KvCache":
        return KvCache(
            self.k_pre[:, :, start:stop].copy(),
            self.v[:, :, start:stop].copy(),
            start_pos=self.start_pos + start,
        )

    def copy(self) -> "KvCache":
        return KvCache(self.k_pre.copy(), self.v.copy(), self.start_pos)


def rebase(cache: KvCache, new_start: int) -> KvCache:
    """Move a cache to a new absolute start position.

    K is stored pre-rotation, so only the start position changes; positions
    materialize at attention time.
    """
    return KvCache(cache.k_pre, cache.v, start_pos=int(new_start))


def concat_caches(caches: list[KvCache], start_pos: int = 0) -> KvCache:
    if not caches:
        raise ModelError("need at least one cache to concatenate")
    shapes = {(c.n_layers, c.n_heads, c.d_head) for c in caches}
    if len(shapes) != 1:
        raise ModelError("cache geometries do not match")
    return KvCache(
        np.concatenate([c.k_pre for c in caches], axis=2),
        np.concatenate([c.v for c in caches], axis=2),
        start_pos=start_pos,
    )


@dataclass
class Model:
    config: ModelConfig
    embed: np.ndarray = field(repr=False)  # (vocab, d_model) f64
    wq: np.ndarray = field(repr=False)  # (layer, head, d_model, d_head) f64
    wk: np.ndarray = field(repr=False)
    wv: np.ndarray = field(repr=False)
    wo: np.ndarray = field(repr=False)  # (layer, head, d_head, d_model) f64

    @property
    def model_id(self) -> int:
        return self.config.model_id


def _weight_matrix(tag: int, n_rows: int, n_cols: int, fan_in: int) -> np.ndarray:
    i = np.arange(n_rows, dtype=np.float64)[:, None]
    j = np.arange(n_cols, dtype=np.float64)[None, :]
    arg = _W_FREQ * (_W_TAG * tag + _W_ROW * i + _W_COL * j + 1.0)
    return 0.5 * np.sin(arg) / np.sqrt(float(fan_in))


def build_model(config: ModelConfig) -> Model:
    """Materialize the closed-form weights for a configuration."""
    d_model, d_head = config.d_model, config.d_head
    v = np.arange(config.vocab_size, dtype=np.float64)[:, None]
    j = np.arange(d_model, dtype=np.float64)[None, :]
    embed = np.sin(_E_FREQ * (_E_TOK * v + j + 1.0))

    wq = np.empty((config.n_layers, config.n_heads, d_model, d_head))
    wk = np.empty_like(wq)
    wv = np.empty_like(wq)
    wo = np.empty((config.n_layers, config.n_heads, d_head, d_model))
    for layer in range(config.n_layers):
        for head in range(config.n_heads):
            base_tag = layer * 64 + head * 4
            wq[layer, head] = _weight_matrix(base_tag + ROLE_Q, d_model, d_head, d_model)
            wk[layer, head] = _weight_matrix(base_tag + ROLE_K, d_model, d_head, d_model)
            wv[layer, head] = _weight_matrix(base_tag + ROLE_V, d_model, d_head, d_model)
            wo[layer, head] = _weight_matrix(base_tag + ROLE_O, d_head, d_model, d_head)
    return Model(config=config, embed=embed, wq=wq, wk=wk, wv=wv, wo=wo)


def apply_rope(x: np.ndarray, positions: np.ndarray, rope_base: float) -> np.ndarray:
    """Rotate (..., token, dim) rows pairwise by their absolute positions."""
    d = x.shape[-1]
    theta = rope_base ** (-2.0 * np.arange(d // 2, dtype=np.float64) / d)
    ang = positions[:, None].astype(np.float64) * theta[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    out = np.empty_like(x, dtype=np.float64)
    even, odd = x[..., 0::2], x[..., 1::2]
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def attend(
    model: Model,
    layer: int,
    x_q: np.ndarray,
    q_positions: np.ndarray,
    k_pre: np.ndarray,
    v: np.ndarray,
    k_positions: np.ndarray,
) -> np.ndarray:
    """One layer of multi-head causal attention for the given query rows.

    ``k_pre``/``v`` are (head, token, dim) and may mix freshly computed rows
    with cache rows; accumulation is float64 throughout.  Keys must sit at
    contiguous ascending positions ``k0, k0 + 1, ...`` and every query at a
    position ``p >= k0``; anything else raises ModelError.

    Scores are computed in causal tiles: the row at ``p`` attends only
    ``keys[:min(n_keys, roundup(p - k0 + 1, TILE))]``, and rows with the same
    span run as one group.  Only the group's last (diagonal) tile is masked;
    every row of the group sees all keys before it.  The span depends on the
    row's own position alone, so a call over whole span groups gives the same
    bits as those rows of a call over all of them.  Any other subset of rows
    may differ in the last bits, because BLAS rounds a product differently by
    its row count: at 1024 keys of 4 heads x 16 dims, the last row alone, or
    rows 1000-1023, were off by up to 7e-17 of the output's scale.  Each call allocates one float64 score workspace, sized
    for its largest group across all heads, and every group's scores and
    softmax live in a view of it.
    """
    cfg = model.config
    n_keys = len(k_positions)
    k0 = int(k_positions[0]) if n_keys else 0
    if not np.array_equal(k_positions, np.arange(k0, k0 + n_keys)):
        raise ModelError("key positions must be contiguous and ascending")
    n_rows = len(x_q)
    if n_rows and (n_keys == 0 or np.min(q_positions) < k0):
        raise ModelError(f"query positions must not precede the first key at {k0}")
    if not n_rows:
        return np.zeros((0, cfg.d_model))

    if n_rows == 1:
        # numpy multiplies a one-row matrix by gemv, which rounds differently
        # from gemm; a repeated row keeps every product on gemm
        x_q, q_positions = np.repeat(x_q, 2, axis=0), np.repeat(q_positions, 2)
    offsets = q_positions - k0
    q = apply_rope(x_q @ model.wq[layer], q_positions, cfg.rope_base)  # (head, row, dim)
    k = apply_rope(k_pre.astype(np.float64), k_positions, cfg.rope_base)
    v = v.astype(np.float64)
    ctx = np.empty_like(q)
    spans = np.minimum(n_keys, (offsets // TILE + 1) * TILE)
    groups, counts = np.unique(spans, return_counts=True)
    # a lone row runs twice (gemm, as above)
    work = np.empty(cfg.n_heads * int(np.max(groups * np.maximum(counts, 2))))
    inv_sqrt_d = 1.0 / np.sqrt(float(cfg.d_head))
    for m in groups:
        rows = np.flatnonzero(spans == m)
        if len(rows) == 1:
            rows = np.repeat(rows, 2)
        scores = work[: cfg.n_heads * len(rows) * m].reshape(cfg.n_heads, len(rows), m)
        np.matmul(q[:, rows], k[:, :m].transpose(0, 2, 1), out=scores)
        scores *= inv_sqrt_d
        lo = (m - 1) // TILE * TILE
        np.copyto(scores[..., lo:], -np.inf, where=np.arange(lo, m) > offsets[rows, None])
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        ctx[:, rows] = scores @ v[:, :m]
    out = np.zeros((x_q.shape[0], cfg.d_model), dtype=np.float64)
    for h in range(cfg.n_heads):
        out += ctx[h] @ model.wo[layer, h]
    return out[:n_rows]


def _project_kv(model: Model, layer: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pre-rotation K and V rows for all heads, rounded to cache precision."""
    cfg = model.config
    k = np.empty((cfg.n_heads, x.shape[0], cfg.d_head), dtype=np.float32)
    v = np.empty_like(k)
    for h in range(cfg.n_heads):
        k[h] = (x @ model.wk[layer, h]).astype(np.float32)
        v[h] = (x @ model.wv[layer, h]).astype(np.float32)
    return k, v


def _check_tokens(model: Model, tokens: list[int]) -> None:
    for t in tokens:
        if not 0 <= t < model.config.vocab_size:
            raise ModelError(f"token id {t} out of range [0, {model.config.vocab_size})")


def prefill(
    model: Model, tokens: list[int], start_pos: int = 0, rows: Rows = slice(None)
) -> tuple[KvCache, np.ndarray]:
    """Run the full causal stack over ``tokens``.

    Returns the KV cache (pre-rotation keys) and the residual stream after
    the final layer at ``rows`` (all rows by default; ``[]`` when only the
    cache is wanted).  K/V rows are rounded to float32 before being used in
    attention so that prefill and extend see identical cache contents.
    """
    _check_tokens(model, tokens)
    cfg = model.config
    k_pre = np.zeros((cfg.n_layers, cfg.n_heads, len(tokens), cfg.d_head), dtype=np.float32)
    cache = KvCache(k_pre, np.zeros_like(k_pre), start_pos=start_pos)
    return cache, _prefill_layers(model, cache, model.embed[tokens], 0, rows)


def _prefill_layers(model: Model, cache: KvCache, x: np.ndarray, first: int, rows: Rows = slice(None)) -> np.ndarray:
    """Layers ``first``.. of a prefill over all of ``cache``'s tokens.

    ``x`` is the residual stream entering layer ``first``; each layer's K/V
    rows are written into ``cache`` in place.  No later layer reads the final
    layer's attention, so it attends only ``rows``, and their final states
    are returned.  Every K/V row is the same whatever ``rows`` is.
    """
    positions = cache.start_pos + np.arange(cache.n_tokens)
    last = model.config.n_layers - 1
    for layer in range(first, last + 1):
        cache.k_pre[layer], cache.v[layer] = _project_kv(model, layer, x)
        q = rows if layer == last else slice(None)
        x = x[q] + attend(model, layer, x[q], positions[q], cache.k_pre[layer], cache.v[layer], positions)
    return x


def extend(
    model: Model,
    cache: KvCache,
    prior_states: np.ndarray | None,
    new_tokens: list[int],
) -> tuple[KvCache, np.ndarray]:
    """Append ``new_tokens`` to a prefix cache, computing only the new rows.

    Matches a prefill of prefix-plus-new-tokens up to rounding: on the
    4 x 4 x 16 model at 100-1024 tokens, K/V were bit-equal to the prefill's
    and the states differed by up to 2.2e-16, because the new rows run in
    smaller span groups than the prefill's (see ``attend``).  When
    ``prior_states`` is None (e.g. the prefix came from the store and its
    hidden states are unknown) the returned states cover only the new rows.
    """
    _check_tokens(model, new_tokens)
    cfg = model.config
    if cache.n_layers != cfg.n_layers or cache.n_heads != cfg.n_heads or cache.d_head != cfg.d_head:
        raise ModelError("cache geometry does not match the model")
    n_old, n_new = cache.n_tokens, len(new_tokens)
    if n_new == 0:
        states = prior_states if prior_states is not None else np.zeros((0, cfg.d_model))
        return cache.copy(), states

    x = model.embed[new_tokens].copy()
    all_pos = cache.start_pos + np.arange(n_old + n_new)
    new_pos = all_pos[n_old:]
    k_out = np.concatenate(
        [cache.k_pre, np.zeros((cfg.n_layers, cfg.n_heads, n_new, cfg.d_head), np.float32)], axis=2
    )
    v_out = np.concatenate(
        [cache.v, np.zeros((cfg.n_layers, cfg.n_heads, n_new, cfg.d_head), np.float32)], axis=2
    )
    for layer in range(cfg.n_layers):
        k_new, v_new = _project_kv(model, layer, x)
        k_out[layer, :, n_old:] = k_new
        v_out[layer, :, n_old:] = v_new
        x = x + attend(model, layer, x, new_pos, k_out[layer], v_out[layer], all_pos)
    out_cache = KvCache(k_out, v_out, start_pos=cache.start_pos)
    if prior_states is not None:
        return out_cache, np.concatenate([prior_states, x], axis=0)
    return out_cache, x


def save_fixture(path, config: ModelConfig, cache: KvCache, states: np.ndarray) -> None:
    """Golden-fixture file: "KDNF" header, u16 config fields, f32 tensors."""
    fields = (config.n_layers, config.n_heads, config.d_head, config.vocab_size, cache.n_tokens, int(cache.start_pos))
    if not all(0 <= f <= 0xFFFF for f in fields):
        raise ModelError(f"fixture header fields {fields} do not all fit in u16")
    header = FIXTURE_MAGIC + struct.pack("<6H", *fields)
    with open(path, "wb") as f:
        f.write(header)
        f.write(cache.k_pre.astype("<f4").tobytes())
        f.write(cache.v.astype("<f4").tobytes())
        f.write(states.astype("<f4").tobytes())


def load_fixture(path) -> tuple[dict, KvCache, np.ndarray]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != FIXTURE_MAGIC:
        raise ModelError("bad fixture magic")
    n_layers, n_heads, d_head, vocab, n_tokens, start_pos = struct.unpack("<6H", data[4:16])
    kv_count = n_layers * n_heads * n_tokens * d_head
    d_model = n_heads * d_head
    off = 16
    k = np.frombuffer(data, "<f4", kv_count, off).reshape(n_layers, n_heads, n_tokens, d_head)
    off += kv_count * 4
    v = np.frombuffer(data, "<f4", kv_count, off).reshape(n_layers, n_heads, n_tokens, d_head)
    off += kv_count * 4
    states = np.frombuffer(data, "<f4", n_tokens * d_model, off).reshape(n_tokens, d_model)
    meta = {
        "n_layers": n_layers,
        "n_heads": n_heads,
        "d_head": d_head,
        "vocab_size": vocab,
    }
    return meta, KvCache(k.copy(), v.copy(), start_pos=start_pos), states.copy()
