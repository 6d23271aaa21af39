"""Content-addressed, persisted, evictable storage of compressed KV chunks.

Layout on disk: ``root/manifest.jsonl`` plus ``root/blobs/<hex64>``.  The
manifest is append-only JSON Lines; blobs are written to a temp file and
renamed, and ``blobs/`` is fsynced, before the manifest lines naming them are
appended, so a crash between the two leaves only orphan blobs, which are
garbage-collected on open.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import codec
from .model import KvCache, Model, prefill

log = logging.getLogger(__name__)

KEY_MAGIC = b"KDNKEY1"

MODE_CHAIN = "chain"
MODE_STANDALONE = "standalone"
_MODE_CODE = {MODE_CHAIN: 0, MODE_STANDALONE: 1}


class StoreError(Exception):
    pass


class CapacityError(StoreError):
    """Capacity unreachable even after evicting every unpinned entry."""


@dataclass(frozen=True)
class ChunkKey:
    digest: bytes  # 32 bytes
    mode: str

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise StoreError("chunk key digest must be 32 bytes")
        if self.mode not in _MODE_CODE:
            raise StoreError(f"unknown key mode {self.mode!r}")

    @property
    def hex(self) -> str:
        return self.digest.hex()


def make_key(
    model_id: int,
    mode: str,
    parent: ChunkKey | None,
    chunk_tokens: list[int],
) -> ChunkKey:
    """SHA-256 over the canonical key bytes.

    Chain keys commit to the full prefix through the parent digest;
    standalone keys depend only on (model_id, chunk tokens).
    """
    if mode not in _MODE_CODE:
        raise StoreError(f"unknown key mode {mode!r}")
    parent_digest = b"\x00" * 32
    if mode == MODE_CHAIN and parent is not None:
        parent_digest = parent.digest
    canonical = (
        KEY_MAGIC
        + bytes([_MODE_CODE[mode]])
        + parent_digest
        + struct.pack("<Q", model_id)
        + struct.pack(f"<I{len(chunk_tokens)}I", len(chunk_tokens), *chunk_tokens)
    )
    return ChunkKey(hashlib.sha256(canonical).digest(), mode)


@dataclass
class StoreEntry:
    key: ChunkKey
    tokens: list[int]
    parent: ChunkKey | None
    file: str
    size: int
    codec_profile: codec.CodecProfile
    pinned: bool = False
    created: float = 0.0
    last_access: int = 0


@dataclass
class StoreConfig:
    root: str | Path
    capacity: int = 1 << 30
    chunk_size: int = 64

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise StoreError("capacity must be positive")
        if self.chunk_size < 1:
            raise StoreError("chunk_size must be >= 1")


# Built-in offline edit transforms.  The registry is open: callers may add
# ids mapping to fn(cache, params) -> cache.
def _scale_v_rows(cache: KvCache, params: dict) -> KvCache:
    factor = float(params["factor"])
    indices = params["tokens"]
    for i in indices:
        if not 0 <= int(i) < cache.n_tokens:
            raise StoreError(f"edit token index {i} out of range")
    out = cache.copy()
    out.v[:, :, list(map(int, indices))] *= np.float32(factor)
    return out


EDIT_TRANSFORMS = {1: _scale_v_rows}


def _fsync_dir(path: Path) -> None:
    """Make the names in directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Store:
    def __init__(self, config: StoreConfig):
        self.config = config
        self.root = Path(config.root)
        self.blob_dir = self.root / "blobs"
        self.manifest_path = self.root / "manifest.jsonl"
        self.entries: dict[bytes, StoreEntry] = {}
        self._total_size = 0  # sum of entry sizes, kept by _index/_unindex
        self._file_refs: Counter[str] = Counter()  # live entries per blob file
        self._clock = 0
        self._group: tuple[list[dict], list[str]] | None = None  # the open group commit's records and dead files
        self._crash_hook = None  # test hook at each crash point: after a blob write, after a commit's append
        self._recover()

    # -- lifecycle ---------------------------------------------------------

    def _recover(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.blob_dir.mkdir(exist_ok=True)
        if self.manifest_path.exists():
            with open(self.manifest_path, "r", encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        self._replay(json.loads(line))
                    except (ValueError, KeyError, StoreError) as e:
                        log.warning("manifest line %d skipped: %s", lineno, e)
        # entries whose blob vanished are dropped; blobs without entries are orphans
        for digest, entry in list(self.entries.items()):
            path = self.blob_dir / entry.file
            if not path.exists() or path.stat().st_size != entry.size:
                log.warning("dropping entry %s: blob missing or truncated", entry.key.hex[:12])
                self._unindex(digest)
        for blob in self.blob_dir.iterdir():
            if blob.name not in self._file_refs:
                log.warning("collecting orphan blob %s", blob.name)
                blob.unlink()

    def _replay(self, rec: dict) -> None:
        op = rec.get("op", "put")
        if op == "del":
            self._unindex(bytes.fromhex(rec["key"]))
            return
        if op == "pin":
            digest = bytes.fromhex(rec["key"])
            if digest in self.entries:
                self.entries[digest].pinned = bool(rec["pinned"])
            return
        key = ChunkKey(bytes.fromhex(rec["key"]), rec["mode"])
        parent = None
        if rec.get("parent"):
            parent = ChunkKey(bytes.fromhex(rec["parent"]), rec["mode"])
        self._clock += 1
        entry = StoreEntry(
            key=key,
            tokens=[int(t) for t in rec["tokens"]],
            parent=parent,
            file=rec["file"],
            size=int(rec["size"]),
            codec_profile=codec.CodecProfile.from_dict(rec["codec"]),
            pinned=bool(rec.get("pinned", False)),
            created=float(rec.get("created", 0.0)),
            last_access=self._clock,
        )
        self._index(entry)

    # -- accounting --------------------------------------------------------

    @property
    def total_size(self) -> int:
        return self._total_size

    def _index(self, entry: StoreEntry) -> None:
        """Put ``entry`` under its key, replacing any entry there."""
        self._unindex(entry.key.digest)
        self.entries[entry.key.digest] = entry
        self._total_size += entry.size
        self._file_refs[entry.file] += 1

    def _unindex(self, digest: bytes) -> None:
        """Drop the entry under ``digest``, if any; its blob file stays on disk."""
        entry = self.entries.pop(digest, None)
        if entry is not None:
            self._total_size -= entry.size
            self._file_refs[entry.file] -= 1
            if not self._file_refs[entry.file]:
                del self._file_refs[entry.file]

    def _touch(self, entry: StoreEntry) -> None:
        self._clock += 1
        entry.last_access = self._clock

    def _append_manifest(self, *recs: dict) -> None:
        """Append one JSON line per record, in one write with one fsync.

        The append that creates the manifest fsyncs the root directory too.
        """
        created = not self.manifest_path.exists()
        with open(self.manifest_path, "a", encoding="utf-8") as f:
            f.write("".join(json.dumps(rec) + "\n" for rec in recs))
            f.flush()
            os.fsync(f.fileno())
        if created:
            _fsync_dir(self.root)

    @contextmanager
    def _group_commit(self):
        """Collect the manifest records of the puts and evictions in the block,
        and the blob files they free, for one ``_commit`` at its end.

        A block inside another joins the outer one.  A ``CapacityError``
        commits the records made before it, then propagates; any other error
        commits nothing and restores the index, and the blobs written become
        orphans.
        """
        if self._group is not None:
            yield self._group
            return
        recs, dead = self._group = ([], [])
        saved = dict(self.entries), self._total_size, self._file_refs.copy()
        try:
            yield recs, dead
        except CapacityError:
            self._commit(recs, dead)
            raise
        except BaseException:
            self.entries, self._total_size, self._file_refs = saved
            raise
        finally:
            self._group = None
        self._commit(recs, dead)

    def _commit(self, recs: list[dict], dead: list[str]) -> None:
        """Append ``recs`` with one manifest fsync, then unlink the ``dead``
        blob files that no live entry uses any more.

        When a record puts a blob, ``blobs/`` is fsynced first, so a durable
        manifest line never names a blob whose rename a power loss could undo.
        """
        if not recs:
            return
        if any("file" in rec for rec in recs):
            _fsync_dir(self.blob_dir)
        self._append_manifest(*recs)
        if self._crash_hook is not None:
            self._crash_hook()
        for fname in dead:
            self._maybe_delete_blob(fname)

    # -- blob IO -----------------------------------------------------------

    def _write_blob(self, data: bytes) -> str:
        # blobs are named by the hex digest of their content, so an edit
        # writes a fresh file and the manifest append flips the reference
        name = hashlib.sha256(data).hexdigest()
        tmp = self.blob_dir / (name + ".tmp")
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.blob_dir / name)
        if self._crash_hook is not None:
            self._crash_hook()
        return name

    def _maybe_delete_blob(self, fname: str) -> None:
        if fname not in self._file_refs:
            (self.blob_dir / fname).unlink(missing_ok=True)

    def read_blob(self, key: ChunkKey) -> bytes:
        """The chunk's bytes as stored, unparsed; refreshes its LRU position."""
        entry = self.entries.get(key.digest)
        if entry is None:
            raise StoreError(f"key {key.hex[:12]} not in store")
        self._touch(entry)
        return (self.blob_dir / entry.file).read_bytes()

    def get_chunk(self, key: ChunkKey) -> codec.CompressedChunk:
        """The parsed, crc-checked chunk under ``key``."""
        return codec.CompressedChunk.from_bytes(self.read_blob(key))

    # -- store / retrieve ----------------------------------------------------

    def _split_chunks(self, tokens: list[int]) -> list[list[int]]:
        cs = self.config.chunk_size
        return [tokens[i : i + cs] for i in range(0, len(tokens), cs)]

    def _put(self, key: ChunkKey, tokens: list[int], parent: ChunkKey | None,
             blob: bytes, profile: codec.CodecProfile, pinned: bool, created: float) -> None:
        """Write ``blob`` and index ``key`` on it, committing the put record
        with the enclosing group commit, if any."""
        fname = self._write_blob(blob)
        rec = {
            "key": key.hex,
            "mode": key.mode,
            "file": fname,
            "tokens": tokens,
            "parent": parent.hex if parent else None,
            "codec": profile.to_dict(),
            "size": len(blob),
            "pinned": pinned,
            "created": created,
        }
        with self._group_commit() as (recs, _):
            recs.append(rec)
            self._replay(rec)

    def store_text(
        self,
        model: Model,
        tokens: list[int],
        mode: str = MODE_CHAIN,
        profile: codec.CodecProfile | None = None,
    ) -> list[ChunkKey]:
        """Prefill, chunk, compress and persist a token sequence.

        Chain mode prefills once and slices the cache per chunk; standalone
        mode prefills every chunk independently at position 0.  Re-storing
        existing keys is a no-op.

        The document is one group commit: its ``put`` records and the
        ``del`` records of the evictions that made room reach the manifest in
        one append, in the order they were made.
        """
        if not tokens:
            raise StoreError("store_text requires a nonempty token list")
        if mode not in _MODE_CODE:
            raise StoreError(f"unknown mode {mode!r}")
        profile = profile or codec.CodecProfile()
        # the store reads K/V only, so no prefill here computes final states
        full_cache = prefill(model, tokens, rows=[])[0] if mode == MODE_CHAIN else None
        keys: list[ChunkKey] = []
        with self._group_commit():
            parent: ChunkKey | None = None
            offset = 0
            for chunk_tokens in self._split_chunks(tokens):
                key = make_key(model.model_id, mode, parent, chunk_tokens)
                if key.digest in self.entries:
                    self._touch(self.entries[key.digest])
                else:
                    if full_cache is not None:
                        cache = full_cache.slice_tokens(offset, offset + len(chunk_tokens))
                    else:
                        cache = prefill(model, chunk_tokens, rows=[])[0]
                    blob = codec.compress_cache(cache, profile).to_bytes()
                    if self.total_size + len(blob) > self.config.capacity:
                        self.evict_to(self.config.capacity - len(blob))
                    self._put(key, chunk_tokens, parent, blob, profile, pinned=False, created=time.time())
                keys.append(key)
                parent = key if mode == MODE_CHAIN else None
                offset += len(chunk_tokens)
        return keys

    def lookup(
        self, model_id: int, tokens: list[int], mode: str = MODE_CHAIN
    ) -> tuple[list[ChunkKey], list[int]]:
        """Keys of the longest stored coverage of ``tokens``, and the miss suffix.

        Chain mode walks the key chain over the token prefix and returns the
        unmatched remainder as the miss suffix.  Standalone mode looks up
        each chunk independently; the miss suffix concatenates the tokens of
        the missed chunks.  Misses are data, not errors.  Reads no blob.
        """
        keys: list[ChunkKey] = []
        if mode == MODE_CHAIN:
            parent: ChunkKey | None = None
            pos = 0
            while pos < len(tokens):
                remaining = tokens[pos:]
                match = self._best_chain_child(model_id, parent, remaining)
                if match is None:
                    break
                key, n = match
                keys.append(key)
                parent = key
                pos += n
            return keys, tokens[pos:]
        if mode == MODE_STANDALONE:
            miss: list[int] = []
            for chunk_tokens in self._split_chunks(tokens):
                key = make_key(model_id, MODE_STANDALONE, None, chunk_tokens)
                if key.digest in self.entries:
                    keys.append(key)
                else:
                    miss.extend(chunk_tokens)
            return keys, miss
        raise StoreError(f"unknown mode {mode!r}")

    def retrieve_text(
        self, model_id: int, tokens: list[int], mode: str = MODE_CHAIN
    ) -> tuple[list[tuple[ChunkKey, codec.CompressedChunk]], list[int]]:
        """``lookup`` plus the parsed, crc-checked chunk of every hit."""
        keys, miss = self.lookup(model_id, tokens, mode)
        return [(key, self.get_chunk(key)) for key in keys], miss

    def _best_chain_child(
        self, model_id: int, parent: ChunkKey | None, remaining: list[int]
    ) -> tuple[ChunkKey, int] | None:
        """Longest stored chain chunk whose tokens prefix ``remaining``."""
        # full chunk first: the common case needs one hash, not a scan
        for n in range(min(self.config.chunk_size, len(remaining)), 0, -1):
            key = make_key(model_id, MODE_CHAIN, parent, remaining[:n])
            if key.digest in self.entries:
                return key, n
        return None

    # -- eviction ------------------------------------------------------------

    def evict_to(self, capacity: int) -> list[ChunkKey]:
        """Drop unpinned entries in LRU order until total size <= capacity.

        The victims' ``del`` records go to the manifest in one append before
        any blob is unlinked, with the enclosing group commit if there is one;
        a crash in between leaves only orphan blobs.  An unreachable
        ``capacity`` raises before anything is evicted.
        """
        if self.total_size <= capacity:
            return []
        pinned_bytes = sum(e.size for e in self.entries.values() if e.pinned)
        if pinned_bytes > capacity:
            raise CapacityError(f"cannot reach {capacity} bytes: {pinned_bytes} bytes pinned")
        victims: list[StoreEntry] = []
        size = self.total_size
        for entry in sorted((e for e in self.entries.values() if not e.pinned), key=lambda e: e.last_access):
            if size <= capacity:
                break
            victims.append(entry)
            size -= entry.size
        with self._group_commit() as (recs, dead):
            for entry in victims:
                recs.append({"op": "del", "key": entry.key.hex})
                dead.append(entry.file)
                self._unindex(entry.key.digest)
        return [e.key for e in victims]

    def pin(self, key: ChunkKey, pinned: bool = True) -> None:
        entry = self.entries.get(key.digest)
        if entry is None:
            raise StoreError(f"key {key.hex[:12]} not in store")
        entry.pinned = pinned
        self._append_manifest({"op": "pin", "key": key.hex, "pinned": pinned})

    # -- offline editing -----------------------------------------------------

    def apply_edit(self, key: ChunkKey, transform_id: int, params: dict) -> None:
        """decompress -> transform -> recompress -> replace blob.

        The key keeps its token association; only the blob content changes.
        """
        transform = EDIT_TRANSFORMS.get(transform_id)
        if transform is None:
            raise StoreError(f"unknown transform id {transform_id}")
        entry = self.entries.get(key.digest)
        if entry is None:
            raise StoreError(f"key {key.hex[:12]} not in store")
        chunk = self.get_chunk(key)
        cache = codec.decompress_cache(chunk)
        edited = transform(cache, params)
        blob = codec.compress_cache(edited, entry.codec_profile).to_bytes()
        with self._group_commit() as (_, dead):
            self._put(key, entry.tokens, entry.parent, blob, entry.codec_profile,
                      pinned=entry.pinned, created=entry.created)
            dead.append(entry.file)


def open_store(config: StoreConfig) -> Store:
    return Store(config)
