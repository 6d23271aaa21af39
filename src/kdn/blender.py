"""Composes standalone per-segment KV caches into one coherent cache.

The naive path concatenates re-based stale caches and ignores cross
attention between segments.  The selective path recomputes the first layer
in full, scores tokens by how much the first layer's recomputation shifts
their next-layer value rows, and then maintains fresh hidden states for the
top-scoring fraction of tokens through the remaining layers.  At ratio 1.0
the result reproduces a full prefill of the concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    KvCache,
    Model,
    ModelError,
    TILE,
    attend,
    concat_caches,
    extend,
    prefill,
    rebase,
    _prefill_layers,
    _project_kv,
)
from . import codec


class BlendError(ValueError):
    pass


@dataclass
class Segment:
    """One piece of knowledge: tokens plus its standalone (position-0) cache."""

    tokens: list[int]
    stale_cache: KvCache
    stale_states: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.stale_cache.n_tokens != len(self.tokens):
            raise BlendError("stale cache token count does not match tokens")
        if self.stale_cache.start_pos != 0:
            raise BlendError("segment caches must be standalone (start_pos 0)")

    @classmethod
    def from_tokens(cls, model: Model, tokens: list[int]) -> "Segment":
        cache, states = prefill(model, tokens, start_pos=0)
        return cls(tokens, cache, states)


@dataclass
class BlendReport:
    recompute_ratio: float
    selected: list[int]
    scores: np.ndarray = field(repr=False)
    final_state_error: float = 0.0
    kv_error: float = 0.0


def _check_segments(model: Model, segments: list[Segment]) -> None:
    if not segments:
        raise BlendError("need at least one segment")
    cfg = model.config
    for seg in segments:
        c = seg.stale_cache
        if (c.n_layers, c.n_heads, c.d_head) != (cfg.n_layers, cfg.n_heads, cfg.d_head):
            raise BlendError("segment cache geometry does not match the model")


def concat_stale(model: Model, segments: list[Segment]) -> tuple[KvCache, list[int]]:
    """Naive composition: re-base each segment to its cumulative offset.

    No recomputation, so cross-attention between segments is ignored.
    Returns the concatenated cache and the segment start offsets.
    """
    _check_segments(model, segments)
    boundaries: list[int] = []
    offset = 0
    rebased = []
    for seg in segments:
        boundaries.append(offset)
        rebased.append(rebase(seg.stale_cache, offset))
        offset += len(seg.tokens)
    return concat_caches(rebased, start_pos=0), boundaries


def _selection(scores: np.ndarray, ratio: float) -> list[int]:
    """Top-score token subset: budget max(1, round(r*n)), ties to lower index.

    Token 0 and the final token are always kept when the budget allows;
    the final token wins if the budget is a single slot.
    """
    n = len(scores)
    budget = min(n, max(1, int(round(ratio * n))))
    if budget >= n:
        return list(range(n))
    must = [n - 1] if budget == 1 else [0, n - 1]
    # stable sort on (-score, index) breaks ties toward lower index
    order = np.lexsort((np.arange(n), -scores))
    selected = set(must)
    for idx in order:
        if len(selected) >= budget:
            break
        selected.add(int(idx))
    return sorted(selected)


def selective_blend(
    model: Model, segments: list[Segment], ratio: float
) -> tuple[KvCache, np.ndarray, BlendReport]:
    """Blend segments with a fresh recompute of a ``ratio`` fraction of tokens."""
    if not 0.0 <= ratio <= 1.0:
        raise BlendError(f"recompute ratio {ratio} out of [0, 1]")
    _check_segments(model, segments)
    cfg = model.config
    stale, boundaries = concat_stale(model, segments)
    tokens = [t for seg in segments for t in seg.tokens]
    n = len(tokens)
    positions = np.arange(n)

    stale_states = np.concatenate(
        [
            seg.stale_states
            if seg.stale_states is not None
            else prefill(model, seg.tokens, start_pos=0)[1]
            for seg in segments
        ],
        axis=0,
    )

    # layer 1: K/V for every token are plain projections of the embeddings,
    # so a full causal pass here is cheap and seeds the fresh states
    x = model.embed[tokens].copy()
    k1, v1 = _project_kv(model, 0, x)
    h1 = x + attend(model, 0, x, positions, k1, v1, positions)

    # deviation score: how far the first layer's recomputation moves each
    # token's next-layer value rows away from the stale cache
    if cfg.n_layers > 1:
        scores = np.zeros(n)
        for h in range(cfg.n_heads):
            v2_fresh = h1 @ model.wv[1, h]
            diff = v2_fresh - stale.v[1, h].astype(np.float64)
            scores += (diff**2).sum(axis=1)
        scores = np.sqrt(scores)
    else:
        scores = np.zeros(n)

    selected = _selection(scores, ratio) if ratio > 0.0 else []

    k_out = stale.k_pre.copy()
    v_out = stale.v.copy()
    out_states = stale_states.copy()

    if selected:
        sel = np.array(selected, dtype=int)
        k_out[0][:, sel] = k1[:, sel]
        v_out[0][:, sel] = v1[:, sel]
        h_sel = h1[sel]
        sel_pos = positions[sel]
        for layer in range(1, cfg.n_layers):
            k_fresh, v_fresh = _project_kv(model, layer, h_sel)
            k_out[layer][:, sel] = k_fresh
            v_out[layer][:, sel] = v_fresh
            h_sel = h_sel + attend(
                model, layer, h_sel, sel_pos, k_out[layer], v_out[layer], positions
            )
        out_states[sel] = h_sel

    blended = KvCache(k_out, v_out, start_pos=0)

    # the oracle is a full prefill; its layer 0 is the pass above.  Only the
    # last row's final state is read, so the final layer attends only that
    # row's span group, the rows a full call would run with it (see attend)
    oracle_cache = KvCache(np.zeros_like(stale.k_pre), np.zeros_like(stale.v))
    oracle_cache.k_pre[0], oracle_cache.v[0] = k1, v1
    last_group = np.arange(max(n - 1, 0) // TILE * TILE, n)
    oracle_states = _prefill_layers(model, oracle_cache, h1, 1, last_group)
    kv_error = 0.0
    if n:
        kv_error = max(
            float(np.abs(blended.k_pre.astype(np.float64) - oracle_cache.k_pre.astype(np.float64)).max()),
            float(np.abs(blended.v.astype(np.float64) - oracle_cache.v.astype(np.float64)).max()),
        )
    final_state_error = float(np.linalg.norm(out_states[-1] - oracle_states[-1])) if n else 0.0

    report = BlendReport(
        recompute_ratio=ratio,
        selected=selected,
        scores=scores,
        final_state_error=final_state_error,
        kv_error=kv_error,
    )
    return blended, out_states, report


def prefix_extend_path(
    model: Model,
    store_hits: list,
    miss_suffix: list[int],
) -> tuple[KvCache, np.ndarray]:
    """Exact-prefix reuse: decompress chain hits, then extend over the miss.

    ``store_hits`` is the (key, chunk) list from a chain-mode retrieval.
    Equals a prefill of the full text up to codec quantization error.  The
    returned hidden states cover the suffix rows only (prefix states are not
    stored).
    """
    if not store_hits:
        if not miss_suffix:
            raise BlendError("nothing to do: no hits and empty suffix")
        return prefill(model, list(miss_suffix))
    caches = []
    offset = 0
    for _, chunk in store_hits:
        cache = codec.decompress_cache(chunk)
        caches.append(rebase(cache, offset))
        offset += cache.n_tokens
    try:
        prefix = concat_caches(caches, start_pos=0)
    except ModelError as e:
        raise BlendError(f"broken chain: {e}") from e
    return extend(model, prefix, None, list(miss_suffix))
