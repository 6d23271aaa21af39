"""Synthetic caches used by the codec benchmarks and the test suite."""

from __future__ import annotations

import numpy as np

from .model import KvCache


def smooth_cache() -> KvCache:
    """Token-smooth synthetic cache of 2 layers, 2 heads, 384 tokens and 8
    dims: values drift slowly along the token axis, so quantized deltas are
    near zero and grids repeat across channels.
    """
    t = 0.01 * (np.arange(384, dtype=np.float64) + 1.0)
    kv = np.stack([np.sin(t), np.cos(t)]).astype(np.float32)[:, None, None, :, None]
    return KvCache(np.broadcast_to(kv, (2, 2, 2, 384, 8)).copy())


def random_cache(
    n_layers: int = 2,
    n_heads: int = 2,
    n_tokens: int = 64,
    d_head: int = 8,
    seed: int = 0,
    scale: float = 1.0,
) -> KvCache:
    rng = np.random.default_rng(seed)
    # one draw: K's values, then V's
    kv = rng.standard_normal((2, n_layers, n_heads, n_tokens, d_head)) * scale
    return KvCache(kv.astype(np.float32))
