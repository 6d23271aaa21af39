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

from .model import KvCache, Model, TILE, concat_caches, extend, prefill, _run_layers
# bound here, though unused, because the benchmark self-test checks that
# tracing rebinds ``blender.attend``; drop it together with that check
from .model import attend  # noqa: F401
from . import codec


class BlendError(ValueError):
    pass


@dataclass
class Segment:
    """One piece of knowledge: tokens plus its standalone (position-0) cache."""

    tokens: list[int]
    stale_cache: KvCache

    def __post_init__(self) -> None:
        if self.stale_cache.n_tokens != len(self.tokens):
            raise BlendError("stale cache token count does not match tokens")
        if self.stale_cache.start_pos != 0:
            raise BlendError("segment caches must be standalone (start_pos 0)")

    @classmethod
    def from_tokens(cls, model: Model, tokens: list[int]) -> "Segment":
        # only the cache is kept, so the final layer attends no row
        return cls(tokens, prefill(model, tokens, rows=[])[0])


@dataclass
class BlendReport:
    recompute_ratio: float
    selected: list[int]
    scores: np.ndarray = field(repr=False)
    final_state_error: float
    kv_error: float


def _check_geometry(model: Model, caches: list, what: str) -> None:
    """Each of ``caches`` (KvCache or CompressedChunk) has the model's (layer, head, dim) geometry."""
    cfg = model.config
    if any((c.n_layers, c.n_heads, c.d_head) != (cfg.n_layers, cfg.n_heads, cfg.d_head) for c in caches):
        raise BlendError(f"{what} geometry does not match the model")


def concat_stale(model: Model, segments: list[Segment]) -> KvCache:
    """Naive composition: each segment's cache at its cumulative offset.

    No recomputation, so cross-attention between segments is ignored.
    """
    if not segments:
        raise BlendError("need at least one segment")
    _check_geometry(model, [seg.stale_cache for seg in segments], "segment cache")
    return concat_caches([seg.stale_cache for seg in segments])


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


def _max_abs_error(got: np.ndarray, want: np.ndarray) -> float:
    """``max |got - want|`` of two float32 arrays, as float64 computes it.

    Rounding is monotonic, so the elements whose float32 difference is the
    largest hold the largest float64 one too, and only they are widened.  A
    largest difference of 0 (the arrays are equal) or NaN is float64's too.
    """
    with np.errstate(over="ignore"):  # an overflowed difference is widened below
        diff = np.abs(got - want)
    top = diff.max()
    if not top > 0:
        return float(top)
    hit = diff == top
    return float(np.abs(got[hit].astype(np.float64) - want[hit].astype(np.float64)).max())


def selective_blend(
    model: Model, segments: list[Segment], ratio: float
) -> tuple[KvCache, np.ndarray, BlendReport]:
    """Blend segments with a fresh recompute of a ``ratio`` fraction of tokens.

    Returns the blended cache, the final states of the recomputed rows in
    ``report.selected`` order (every row at ratio 1, none at ratio 0) and
    the report.
    """
    if not 0.0 <= ratio <= 1.0:
        raise BlendError(f"recompute ratio {ratio} out of [0, 1]")
    cfg = model.config
    # the blend writes into the concatenation's fresh arrays, never into a
    # segment's own cache
    blended = concat_stale(model, segments)
    tokens = [t for seg in segments for t in seg.tokens]
    n = len(tokens)

    # the oracle is a full prefill.  Its layer 0 runs first: K/V for every
    # token are plain projections of the embeddings, so a full causal pass
    # here is cheap and seeds the fresh states
    oracle_cache = KvCache(np.zeros_like(blended.kv))
    h1 = _run_layers(model, oracle_cache, model.embed[tokens], slice(None), range(1))

    # deviation score: how far the first layer's recomputation moves each
    # token's next-layer value rows away from the stale cache, summed over
    # channels, then over heads in head order; squared in place, so the one
    # float64 (head, row, dim) temporary is the product's
    if cfg.n_layers > 1:
        dev = h1 @ model.wv[1]
        dev -= blended.v[1]
        scores = np.sqrt(np.square(dev, out=dev).sum(axis=2).sum(axis=0))
    else:
        scores = np.zeros(n)

    selected = _selection(scores, ratio) if ratio > 0.0 else []

    sel = np.array(selected, dtype=int)
    blended.kv[:, 0][:, :, sel] = oracle_cache.kv[:, 0][:, :, sel]
    states = _run_layers(model, blended, h1[sel], sel, range(1, cfg.n_layers))

    # only the oracle's last row's final state is read, so its final layer
    # attends only that row's span group, the rows a full call would run
    # with it (see attend)
    last_group = np.arange(max(n - 1, 0) // TILE * TILE, n)
    oracle_states = _run_layers(model, oracle_cache, h1, slice(None), range(1, cfg.n_layers), last_group)
    kv_error = final_state_error = 0.0
    if n:
        # K, then V: one half's float32 temporaries at a time
        kv_error = max(_max_abs_error(got, want) for got, want in zip(blended.kv, oracle_cache.kv))
        # the last row is selected whenever any row is; at ratio 0 its stale
        # state is the last non-empty segment's, from a prefill whose final
        # layer attends only that row's span group
        if selected:
            last = states[-1]
        else:
            tail = next(seg.tokens for seg in reversed(segments) if seg.tokens)
            last = prefill(model, tail, rows=slice((len(tail) - 1) // TILE * TILE, None))[1][-1]
        final_state_error = float(np.linalg.norm(last - oracle_states[-1]))

    report = BlendReport(recompute_ratio=ratio, selected=selected, scores=scores,
                         final_state_error=final_state_error, kv_error=kv_error)
    return blended, states, report


def prefix_extend_path(
    model: Model,
    store_hits: list,
    miss_suffix: list[int],
) -> tuple[KvCache, np.ndarray]:
    """Exact-prefix reuse: decompress chain hits, then extend over the miss.

    ``store_hits`` is the (key, chunk) list from a chain-mode retrieval.
    Equals a prefill of the full text up to codec quantization error.  The
    returned hidden states cover the suffix rows only (prefix states are not
    stored).  A hit whose geometry is not the model's raises BlendError
    before any hit is decompressed.
    """
    if not store_hits:
        if not miss_suffix:
            raise BlendError("nothing to do: no hits and empty suffix")
        return prefill(model, list(miss_suffix))
    _check_geometry(model, [chunk for _, chunk in store_hits], "store hit")
    prefix = concat_caches([codec.decompress_cache(chunk) for _, chunk in store_hits])
    return extend(model, prefix, None, list(miss_suffix))
