"""Desk-scale knowledge delivery network for transformer KV caches."""

from .model import (
    KvCache,
    Model,
    ModelConfig,
    ModelError,
    build_model,
    extend,
    prefill,
)
from .codec import CodecProfile, CompressedChunk, compress_cache, decompress_cache
from .store import ChunkKey, Store, StoreConfig, make_key, open_store
from .blender import BlendReport, Segment, concat_stale, prefix_extend_path, selective_blend
from .delivery import Client, Frame, KdnServer, LinkModel, simulate_transfer
from .costmodel import (
    CostBreakdown,
    CostParams,
    Objective,
    System,
    WorkloadMix,
    best_system,
    comparison_report,
    per_query,
    simulate_trace,
    threshold_r1,
)

__version__ = "0.1.0"

__all__ = [
    "KvCache",
    "Model",
    "ModelConfig",
    "ModelError",
    "build_model",
    "extend",
    "prefill",
    "CodecProfile",
    "CompressedChunk",
    "compress_cache",
    "decompress_cache",
    "ChunkKey",
    "Store",
    "StoreConfig",
    "make_key",
    "open_store",
    "BlendReport",
    "Segment",
    "concat_stale",
    "prefix_extend_path",
    "selective_blend",
    "Client",
    "Frame",
    "KdnServer",
    "LinkModel",
    "simulate_transfer",
    "CostBreakdown",
    "CostParams",
    "Objective",
    "System",
    "WorkloadMix",
    "best_system",
    "comparison_report",
    "per_query",
    "simulate_trace",
    "threshold_r1",
]
