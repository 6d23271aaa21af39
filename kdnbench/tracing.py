"""Spans around calls into kdn's public functions, installed from outside.

``install`` replaces each listed function with a timing wrapper on its
defining module *and* on every kdn module that imported it by name
(``from .model import prefill`` in ``store`` and ``blender``), so calls
through those bindings land in the spans too.  Nothing in ``src/`` changes.

A span records inclusive time, self time (inclusive minus its child spans)
and, per caller span, the time spent under that caller.  Counters record the
work a call did (bytes checksummed, frames decoded, rows attended).
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import Counter, defaultdict
from time import perf_counter

from kdn import delivery

KDN_MODULES = ("model", "codec", "store", "delivery", "blender", "costmodel", "cli")


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.under: dict[str, float] = defaultdict(float)  # "caller>callee" -> seconds
        self.counts: Counter = Counter()
        self.top = 0.0  # seconds inside outermost spans of any thread

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "under": dict(self.under),
            "counts": dict(self.counts),
            "top": self.top,
        }

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [name, 0.0]  # name, seconds covered by child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    self.under[f"{stack[-1][0]}>{name}"] += dt
                else:
                    self.top += dt
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced


# -- counters recorded at the span boundaries ---------------------------------


def _count_attend(counts, args, result):
    counts["model.query_rows"] += args[2].shape[0]  # attend(model, layer, x_q, ...)


def _count_crc(counts, args, result):
    counts["codec.crc32c_bytes"] += len(args[0])


def _count_compress(counts, args, result):
    counts["codec.raw_bytes"] += result.uncompressed_len
    counts["codec.payload_bytes"] += len(result.payload)


def _count_retrieve(counts, args, result):
    hits, _ = result
    counts["store.tokens_requested"] += len(args[2])  # retrieve_text(self, model_id, tokens, ...)
    counts["store.tokens_hit"] += sum(chunk.n_tokens for _, chunk in hits)


def _count_evict(counts, args, result):
    counts["store.evictions"] += len(result)


def _count_decode_frame(counts, args, result):
    frame, consumed = result
    if frame is not None:
        counts["delivery.frames"] += 1
        counts["delivery.wire_bytes"] += consumed
        if frame.frame_type == delivery.CHUNK:
            counts["delivery.chunk_bytes"] += len(frame.payload)


def _count_blend(counts, args, result):
    blended, _, report = result
    counts["blender.tokens_blended"] += blended.n_tokens
    counts["blender.tokens_recomputed"] += len(report.selected)


# (module, attribute, span name, counter hook); "Class.method" wraps a method.
SPANS = [
    ("model", "prefill", "model.prefill", None),
    ("model", "extend", "model.extend", None),
    ("model", "attend", "model.attend", _count_attend),
    ("model", "concat_caches", "model.concat_caches", None),
    ("model", "build_model", "model.build_model", None),
    ("codec", "crc32c", "codec.crc32c", _count_crc),
    ("codec", "compress_cache", "codec.compress", _count_compress),
    ("codec", "decompress_cache", "codec.decompress", None),
    ("codec", "lossless_decode", "codec.lossless_decode", None),
    ("codec", "CompressedChunk.from_bytes", "codec.from_bytes", None),
    ("codec", "CompressedChunk.to_bytes", "codec.to_bytes", None),
    ("store", "Store.store_text", "store.store_text", None),
    ("store", "Store.retrieve_text", "store.retrieve_text", _count_retrieve),
    ("store", "Store.get_chunk", "store.get_chunk", None),
    ("store", "Store.evict_to", "store.evict", _count_evict),
    ("delivery", "Client.fetch", "delivery.fetch", None),
    ("delivery", "handle_request", "delivery.handle_request", None),
    ("delivery", "encode_frame", "delivery.encode_frame", None),
    ("delivery", "decode_frame", "delivery.decode_frame", _count_decode_frame),
    ("blender", "selective_blend", "blender.selective_blend", _count_blend),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_blend", "cli.blend", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every function in ``SPANS`` wherever kdn holds a reference to it."""
    modules = [importlib.import_module(f"kdn.{name}") for name in KDN_MODULES]
    modules.append(importlib.import_module("kdn"))
    for mod_name, attr, span, hook in SPANS:
        owner = importlib.import_module(f"kdn.{mod_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(span, raw.__func__, hook)))
            else:
                setattr(cls, method, tracer.wrap(span, raw, hook))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, hook)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)


def merge(*snapshots: dict) -> dict:
    """Sum span times and counters of several processes' snapshots."""
    out = {"total": Counter(), "self": Counter(), "under": Counter(), "counts": Counter()}
    for snap in snapshots:
        for field in out:
            out[field].update(snap.get(field, {}))
    return out


def per_layer_metrics(client: dict, server: dict | None, n_ops: int, manifest_lines_per_entry: float) -> dict:
    """Per-op layer metrics from the client's (and the server child's) spans.

    ``_ms`` metrics are inclusive span time per op, summed over both
    processes; ``delivery.wait_ms`` and ``cli.blend_self_ms`` are self time.
    Frame and wire counts are what the client received.
    """
    both = merge(client, server or {})
    tot, counts = both["total"], both["counts"]
    ccounts = Counter(client["counts"])

    def ms(name: str) -> float:
        return 1e3 * tot[name] / n_ops

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "model.attend_ms": ms("model.attend"),
        "model.prefill_ms": ms("model.prefill"),
        "model.query_rows_per_op": counts["model.query_rows"] / n_ops,
        "model.extend_ms": ms("model.extend"),
        "codec.crc32c_ms": ms("codec.crc32c"),
        "codec.crc32c_bytes_per_op": counts["codec.crc32c_bytes"] / n_ops,
        "codec.crc32c_passes_per_served_byte": share(counts["codec.crc32c_bytes"], ccounts["delivery.chunk_bytes"]),
        "codec.from_bytes_ms": ms("codec.from_bytes"),
        "codec.lossless_decode_ms": ms("codec.lossless_decode"),
        "codec.decompress_ms": ms("codec.decompress"),
        "codec.compress_ms": ms("codec.compress"),
        "codec.compression_ratio": share(counts["codec.raw_bytes"], counts["codec.payload_bytes"]),
        "store.retrieve_text_ms": ms("store.retrieve_text"),
        "store.get_chunk_ms": ms("store.get_chunk"),
        "store.hit_token_share": share(counts["store.tokens_hit"], counts["store.tokens_requested"]),
        "store.store_text_ms": ms("store.store_text"),
        "store.evict_ms": ms("store.evict"),
        "store.evictions_per_op": counts["store.evictions"] / n_ops,
        "store.manifest_lines_per_live_entry": manifest_lines_per_entry,
        "delivery.fetch_ms": ms("delivery.fetch"),
        "delivery.wait_ms": 1e3 * client["self"].get("delivery.fetch", 0.0) / n_ops,
        "delivery.handle_request_ms": ms("delivery.handle_request"),
        "delivery.encode_frame_ms": ms("delivery.encode_frame"),
        "delivery.decode_frame_ms": ms("delivery.decode_frame"),
        "delivery.frames_per_op": ccounts["delivery.frames"] / n_ops,
        "delivery.wire_bytes_per_op": ccounts["delivery.wire_bytes"] / n_ops,
        "blender.selective_blend_ms": ms("blender.selective_blend"),
        "blender.prefill_in_blend_ms": 1e3 * both["under"]["blender.selective_blend>model.prefill"] / n_ops,
        "blender.recomputed_token_share": share(counts["blender.tokens_recomputed"], counts["blender.tokens_blended"]),
        "cli.blend_ms": ms("cli.blend"),
        "cli.blend_self_ms": 1e3 * client["self"].get("cli.blend", 0.0) / n_ops,
    }
