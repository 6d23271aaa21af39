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

import functools
import hashlib
import struct
from dataclasses import asdict, dataclass, field

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

# Largest softmax shift ``attend`` folds into Q.K^T alone.  A row's shift is
# c = |q| max|k| over its head's keys; by Cauchy-Schwarz each of its scores s
# lies in [-c, c], so each exp(s - c) in [exp(-2c), 1].  At 2c <= 700 that is
# a normal float64 (the least is exp(-708.4)), so no weight underflows and the
# row's sum, at least exp(-2c), stays nonzero.  The shift adds one term of
# size c to each product, whose own terms reach |q||k| <= c, so it rounds each
# exponent by about eps * c, 8e-14 at c = 350: inside attend's 1e-12 bound.  A
# span group whose largest c is past this also subtracts each row's exact max.
MAX_SHIFT = 350.0

MAX_WEIGHTS = 1 << 27  # float64 weights ``build_model`` allocates at most: 1 GiB

# token rows to index a (token, ...) array by
Rows = np.ndarray | list[int] | slice


class ModelError(ValueError):
    """Invalid model configuration or inputs."""


def exact_int(v) -> int:
    """``int(v)``, but a bool, or a number with a fraction or no finite value, is a ValueError."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


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
        # a chunk header holds layers, heads and dim as u16; model_id packs each field as u32
        if max(self.n_layers, self.n_heads, self.d_head) > 0xFFFF:
            raise ModelError("n_layers, n_heads and d_head must be at most 65535")
        if self.vocab_size > 0xFFFFFFFF:
            raise ModelError("vocab_size must be below 2**32")
        if self.d_head % 2 != 0:
            raise ModelError("d_head must be even (pairwise rotary rotation)")
        if not 0 < self.rope_base < float("inf"):  # false for NaN too
            raise ModelError(f"rope_base must be a positive finite number, got {self.rope_base!r}")

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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if isinstance(d.get("rope_base"), bool):
            raise ValueError(f"rope_base {d['rope_base']!r} is not a number")
        return cls(
            n_layers=exact_int(d["n_layers"]),
            n_heads=exact_int(d["n_heads"]),
            d_head=exact_int(d["d_head"]),
            vocab_size=exact_int(d["vocab_size"]),
            rope_base=float(d.get("rope_base", 10000.0)),
        )


@dataclass
class KvCache:
    """A token range's K/V as one float32 array ``kv`` of layout (K or V,
    layer, head, token, dim).  ``k_pre`` (keys before rotary rotation) and
    ``v`` are the views ``kv[0]`` and ``kv[1]``; writes through them reach ``kv``.
    """

    kv: np.ndarray
    start_pos: int = 0

    def __post_init__(self) -> None:
        self.kv = np.asarray(self.kv, dtype=np.float32)
        if self.kv.ndim != 5 or self.kv.shape[0] != 2:
            raise ModelError("kv must have a (2, layer, head, token, dim) shape")

    @property
    def k_pre(self) -> np.ndarray:
        return self.kv[0]

    @property
    def v(self) -> np.ndarray:
        return self.kv[1]

    @property
    def n_layers(self) -> int:
        return self.kv.shape[1]

    @property
    def n_heads(self) -> int:
        return self.kv.shape[2]

    @property
    def n_tokens(self) -> int:
        return self.kv.shape[3]

    @property
    def d_head(self) -> int:
        return self.kv.shape[4]

    def slice_tokens(self, start: int, stop: int) -> "KvCache":
        return KvCache(self.kv[..., start:stop, :].copy(), start_pos=self.start_pos + start)

    def copy(self) -> "KvCache":
        return KvCache(self.kv.copy(), self.start_pos)


def concat_caches(caches: list[KvCache]) -> KvCache:
    """The caches' tokens in order, starting where the first cache does."""
    if not caches:
        raise ModelError("need at least one cache to concatenate")
    shapes = {(c.n_layers, c.n_heads, c.d_head) for c in caches}
    if len(shapes) != 1:
        raise ModelError("cache geometries do not match")
    return KvCache(np.concatenate([c.kv for c in caches], axis=3), caches[0].start_pos)


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


def _weight_matrix(tag: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """(..., n_rows, n_cols) weights of fan-in ``n_rows``, one matrix per entry of the integer ``tag`` array."""
    i = np.arange(n_rows, dtype=np.float64)[:, None]
    j = np.arange(n_cols, dtype=np.float64)[None, :]
    arg = _W_FREQ * (_W_TAG * tag[..., None, None] + _W_ROW * i + _W_COL * j + 1.0)
    return 0.5 * np.sin(arg) / np.sqrt(float(n_rows))


def build_model(config: ModelConfig) -> Model:
    """Materialize the closed-form weights for a configuration of at most ``MAX_WEIGHTS`` of them."""
    d_model, d_head = config.d_model, config.d_head
    n_weights = 4 * config.n_layers * config.n_heads * d_model * d_head + config.vocab_size * d_model
    if n_weights > MAX_WEIGHTS:  # checked before any array is allocated
        raise ModelError(f"model of {n_weights} float64 weights is over the {MAX_WEIGHTS} (1 GiB) limit")
    v = np.arange(config.vocab_size, dtype=np.float64)[:, None]
    j = np.arange(d_model, dtype=np.float64)[None, :]
    embed = np.sin(_E_FREQ * (_E_TOK * v + j + 1.0))

    tag = 64 * np.arange(config.n_layers)[:, None] + 4 * np.arange(config.n_heads)  # (layer, head)
    wq, wk, wv = (_weight_matrix(tag + role, d_model, d_head) for role in (ROLE_Q, ROLE_K, ROLE_V))
    wo = _weight_matrix(tag + ROLE_O, d_head, d_model)
    return Model(config=config, embed=embed, wq=wq, wk=wk, wv=wv, wo=wo)


@functools.lru_cache(maxsize=1)
def _rope_table(k0: int, n_keys: int, d_head: int, rope_base: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (position, d_head // 2) cos and sin of the rotary angles at
    positions ``k0 ... k0 + n_keys - 1``: one table per layer stack."""
    theta = rope_base ** (-2.0 * np.arange(d_head // 2, dtype=np.float64) / d_head)
    ang = np.arange(k0, k0 + n_keys, dtype=np.float64)[:, None] * theta[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, out: np.ndarray) -> None:
    """Rotate (..., token, dim) rows pairwise by (token, dim // 2) angles into float64 ``out``."""
    even, odd = x[..., 0::2], x[..., 1::2]
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos


def attend(
    model: Model,
    layer: int,
    x_q: np.ndarray,
    q_positions: np.ndarray,
    k_pre: np.ndarray,
    v: np.ndarray,
    k0: int,
) -> np.ndarray:
    """One layer of multi-head causal attention for the given query rows.

    ``k_pre``/``v`` are (head, token, dim) and may mix freshly computed rows
    with cache rows; accumulation is float64 throughout.  The keys sit at
    positions ``k0 ... k0 + n_keys - 1``, and every query must lie among
    them (else ModelError), so the rotary table is sized by the keys alone.

    Scores are computed in causal tiles: the row at ``p`` attends only
    ``keys[:min(n_keys, roundup(p - k0 + 1, TILE))]``, and rows with the same
    span run as one group.  Only the group's last (diagonal) tile is masked;
    every row of the group sees all keys before it.  The span depends on the
    row's own position alone, so a call over whole span groups gives the same
    bits as those rows of a call over all of them.  Any other subset of rows
    may differ in the last bits, because BLAS rounds a product differently by
    its row count: at 1024 keys of 4 heads x 16 dims, the last row alone, or
    rows 1000-1023, were off by up to 7e-17 of the output's scale.

    The 1/sqrt(d_head) scale multiplies the rotated Q rows.  Each Q row
    carries its softmax shift -c (see ``MAX_SHIFT``) in one more column, and
    each K and V row a 1, so Q.K^T yields the shifted scores and P.V yields
    the softmax's sum beside its weighted sum of V.  Besides the two products,
    exp is the one pass over the scores, and the diagonal tile's mask zeroes
    future weights after it, so exp meets only the raw shifted scores in
    [-2c, 0]: numpy's exp is several times slower on -inf or far lower values.
    A group past ``MAX_SHIFT`` masks to -inf first, so its row max sees none.
    Queries and keys take their rotary angles from one cos/sin table over the
    key positions, shared by the layers of one ``_run_layers`` call.  Each
    call allocates one float64 score workspace, sized for its largest group
    across all heads, and every group's scores and softmax live in a view of it.
    """
    cfg = model.config
    n_keys = k_pre.shape[1]
    n_rows = len(x_q)
    if n_rows and (np.min(q_positions) < k0 or np.max(q_positions) >= k0 + n_keys):
        raise ModelError(f"query positions must lie among the keys' [{k0}, {k0 + n_keys})")
    if not n_rows:
        return np.zeros((0, cfg.d_model))

    if n_rows == 1:
        # numpy multiplies a one-row matrix by gemv, which rounds differently
        # from gemm; a repeated row keeps every product on gemm
        x_q, q_positions = np.repeat(x_q, 2, axis=0), np.repeat(q_positions, 2)
    offsets = q_positions - k0
    cos, sin = _rope_table(k0, n_keys, cfg.d_head, cfg.rope_base)
    d = cfg.d_head
    q = np.empty((cfg.n_heads, len(x_q), d + 1))
    k = np.empty((cfg.n_heads, n_keys, d + 1))
    v1 = np.empty_like(k)
    _rotate(x_q @ model.wq[layer], cos[offsets], sin[offsets], q[..., :d])
    q[..., :d] *= 1.0 / np.sqrt(float(d))
    _rotate(k_pre, cos, sin, k[..., :d])
    v1[..., :d] = v
    k[..., d] = v1[..., d] = 1.0
    # squared norms by einsum: np.linalg.norm over 16-wide rows took 5x as long
    k_sq = np.einsum("hkd,hkd->hk", k[..., :d], k[..., :d]).max(axis=-1)
    q[..., d] = -np.sqrt(np.einsum("hrd,hrd->hr", q[..., :d], q[..., :d]) * k_sq[:, None])
    ctx = np.empty((cfg.n_heads, len(x_q), d))
    spans = np.minimum(n_keys, (offsets // TILE + 1) * TILE)
    groups, counts = np.unique(spans, return_counts=True)
    # a lone row runs twice (gemm, as above)
    work = np.empty(cfg.n_heads * int(np.max(groups * np.maximum(counts, 2))))
    for m in groups:
        rows = np.flatnonzero(spans == m)
        if len(rows) == 1:
            rows = np.repeat(rows, 2)
        # consecutive rows (every group of a prefill) are a view, not a gather
        sel = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows
        scores = work[: cfg.n_heads * len(rows) * m].reshape(cfg.n_heads, len(rows), m)
        np.matmul(q[:, sel], k[:, :m].transpose(0, 2, 1), out=scores)
        lo = (m - 1) // TILE * TILE
        future = np.arange(lo, m) > offsets[sel, None]
        if q[:, sel, d].min() < -MAX_SHIFT:  # the row max must not see future keys
            np.copyto(scores[..., lo:], -np.inf, where=future)
            scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        np.copyto(scores[..., lo:], 0.0, where=future)
        pv = scores @ v1[:, :m]
        ctx[:, sel] = pv[..., :d] / pv[..., d:]
    del q, k, v1, work, scores  # the output projection allocates after they are gone
    # one product per head: a batched (head, row, d_model) product and a sum
    # over heads gave the same bits but a slower, larger `blend` op
    out = np.zeros((x_q.shape[0], cfg.d_model), dtype=np.float64)
    for h in range(cfg.n_heads):
        out += ctx[h] @ model.wo[layer, h]
    return out[:n_rows]


def _project_kv(model: Model, layer: int, x: np.ndarray) -> np.ndarray:
    """Pre-rotation K and V rows as one (K or V, head, row, dim) array, rounded to cache precision."""
    return np.stack([x @ model.wk[layer], x @ model.wv[layer]], dtype=np.float32)


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
    cache = KvCache(np.zeros((2, cfg.n_layers, cfg.n_heads, len(tokens), cfg.d_head), np.float32), start_pos)
    return cache, _run_layers(model, cache, model.embed[tokens], slice(None), range(cfg.n_layers), rows)


def _run_layers(
    model: Model, cache: KvCache, x: np.ndarray, rows: Rows, layers: range, read: Rows = slice(None)
) -> np.ndarray:
    """Run ``layers`` for the token ``rows`` of ``cache``; the one layer loop
    of ``prefill``, ``extend`` and ``selective_blend``.

    ``x`` is the residual stream of ``rows`` entering the first of
    ``layers``.  Each layer writes those rows' K/V into ``cache`` in place,
    and they attend over all of the cache's tokens.  No later layer reads the
    model's final layer's attention, so it attends only ``x[read]``.  The
    states after ``layers`` are returned; every K/V row is the same whatever
    ``read`` is.
    """
    q_pos = (cache.start_pos + np.arange(cache.n_tokens))[rows]
    last = model.config.n_layers - 1
    for layer in layers:
        cache.kv[:, layer][:, :, rows] = _project_kv(model, layer, x)
        q = read if layer == last else slice(None)
        x = x[q] + attend(model, layer, x[q], q_pos[q], cache.k_pre[layer], cache.v[layer], cache.start_pos)
    return x


def extend(
    model: Model,
    cache: KvCache,
    prior_states: np.ndarray | None,
    new_tokens: list[int],
) -> tuple[KvCache, np.ndarray]:
    """Append ``new_tokens`` to a prefix cache, computing only the new rows.

    Matches a prefill of prefix-plus-new-tokens up to rounding: on the
    4 x 4 x 16 model at 100-1024 tokens (88 prefix/suffix splits), K/V were
    bit-equal to the prefill's and the states differed by up to 2.2e-16,
    because the new rows run in smaller span groups than the prefill's (see
    ``attend``).  When
    ``prior_states`` is None (e.g. the prefix came from the store and its
    hidden states are unknown) the returned states cover only the new rows.
    """
    _check_tokens(model, new_tokens)
    cfg = model.config
    if cache.n_layers != cfg.n_layers or cache.n_heads != cfg.n_heads or cache.d_head != cfg.d_head:
        raise ModelError("cache geometry does not match the model")
    pad = KvCache(np.zeros((2, cfg.n_layers, cfg.n_heads, len(new_tokens), cfg.d_head), np.float32))
    out = concat_caches([cache, pad])
    x = _run_layers(model, out, model.embed[new_tokens], slice(cache.n_tokens, None), range(cfg.n_layers))
    if prior_states is not None:
        return out, np.concatenate([prior_states, x], axis=0)
    return out, x


def save_fixture(path, config: ModelConfig, cache: KvCache, states: np.ndarray) -> None:
    """Golden-fixture file: "KDNF" header, u16 config fields, then as f32 the
    cache's ``kv`` (K or V, layer, head, token, dim) and the (token, d_model) states."""
    fields = (config.n_layers, config.n_heads, config.d_head, config.vocab_size, cache.n_tokens, int(cache.start_pos))
    if not all(0 <= f <= 0xFFFF for f in fields):
        raise ModelError(f"fixture header fields {fields} do not all fit in u16")
    header = FIXTURE_MAGIC + struct.pack("<6H", *fields)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(cache.kv, "<f4"))
        f.write(np.ascontiguousarray(states, "<f4"))


def load_fixture(path) -> tuple[dict, KvCache, np.ndarray]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != FIXTURE_MAGIC:
        raise ModelError("bad fixture magic")
    if len(data) < 16:
        raise ModelError(f"fixture header cut at {len(data)} of 16 bytes")
    n_layers, n_heads, d_head, vocab, n_tokens, start_pos = struct.unpack_from("<6H", data, 4)
    d_model = n_heads * d_head
    expected = 16 + 4 * (2 * n_layers + 1) * n_tokens * d_model  # header, K/V and the states' rows
    if len(data) != expected:
        raise ModelError(f"fixture of {len(data)} bytes, its header asks for {expected}")
    kv = np.frombuffer(data, "<f4", 2 * n_layers * n_tokens * d_model, 16)
    states = np.frombuffer(data, "<f4", n_tokens * d_model, 16 + kv.nbytes).reshape(n_tokens, d_model)
    meta = {
        "n_layers": n_layers,
        "n_heads": n_heads,
        "d_head": d_head,
        "vocab_size": vocab,
    }
    return meta, KvCache(kv.reshape(2, n_layers, n_heads, n_tokens, d_head).copy(), start_pos), states.copy()
