"""Content-addressed, persisted, evictable storage of compressed KV chunks.

Layout on disk: ``root/manifest.jsonl`` plus ``root/blobs/<hex64>`` and the
writer lock ``root/lock``.  The manifest is append-only JSON Lines; blobs are
written to a temp file and renamed, and ``blobs/`` is fsynced, before the
manifest lines naming them are appended, so a crash between the two leaves
only orphan blobs, which an open collects if no writer holds the lock.
Opening skips a last line a power loss tore, and the next ``_commit`` ends
it: no code deletes manifest bytes.  The index learns the manifest one way,
``_catch_up`` from the offset it last reached: when a ``Store`` opens and
each time a writer takes the lock, so every write sees every commit.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import re
import struct
from collections import Counter, OrderedDict
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codec
from .model import KvCache, Model, _check_tokens, exact_float, exact_int, prefill

log = logging.getLogger(__name__)

KEY_MAGIC = b"KDNKEY1"

MODE_CHAIN = "chain"
MODE_STANDALONE = "standalone"
MODE_CODE = {MODE_CHAIN: 0, MODE_STANDALONE: 1}  # a mode's byte in chunk keys and on the wire


# what building values from a malformed JSON document raises (a JSONDecodeError and kdn's
# typed errors are ValueErrors); manifest replay and the CLI's document reader catch these
MALFORMED_DOCUMENT = (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError)


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
        if self.mode not in MODE_CODE:
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
    if mode not in MODE_CODE:
        raise StoreError(f"unknown key mode {mode!r}")
    parent_digest = b"\x00" * 32
    if mode == MODE_CHAIN and parent is not None:
        parent_digest = parent.digest
    try:
        packed = struct.pack(f"<I{len(chunk_tokens)}I", len(chunk_tokens), *chunk_tokens)
    except struct.error as e:
        raise StoreError(f"token ids must be u32 integers: {e}") from e
    canonical = (
        KEY_MAGIC
        + bytes([MODE_CODE[mode]])
        + parent_digest
        + struct.pack("<Q", model_id)
        + packed
    )
    return ChunkKey(hashlib.sha256(canonical).digest(), mode)


@dataclass
class StoreEntry:
    key: ChunkKey
    tokens: list[int]
    pos: int  # the position of its first token
    file: str
    size: int
    codec_profile: codec.CodecProfile
    pinned: bool = False


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
    factor = exact_float(params["factor"])
    try:
        indices = [exact_int(i) for i in params["tokens"]]
    except (ValueError, TypeError) as e:
        raise StoreError(f"edit token indices must be integers: {e}") from e
    for i in indices:
        if not 0 <= i < cache.n_tokens:
            raise StoreError(f"edit token index {i} out of range")
    out = cache.copy()
    out.v[:, :, indices] *= np.float32(factor)
    return out


EDIT_TRANSFORMS = {1: _scale_v_rows}


def _flag(v) -> bool:
    """A record's JSON bool; any other value, ``"false"`` or 0 too, is a ValueError."""
    if not isinstance(v, bool):
        raise ValueError(f"{v!r} is not a bool")
    return v


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
        self.entries: OrderedDict[bytes, StoreEntry] = OrderedDict()  # LRU first; reads reorder it, so iterate a list() copy
        self._total_size = 0  # sum of entry sizes, kept by _index/_unindex
        self._file_refs: Counter[str] = Counter()  # live entries per blob file
        self._chain_lengths: set[int] = set()  # token counts of every chain entry indexed; only grows
        self._group: tuple[list[dict], list[str]] | None = None  # the open group commit's records and the blob files they freed
        self._replayed = 0  # manifest bytes replayed into the index: whole lines only
        self._crash_hook = None  # test hook at each crash point: after a blob write, after a commit's append
        self._recover()

    # -- lifecycle ---------------------------------------------------------

    def _recover(self) -> None:
        """Replay the manifest read-only.  An open that takes the writer lock
        without waiting replays under it and collects orphan blobs, since no
        put is then in flight; any other open only replays."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.blob_dir.mkdir(exist_ok=True)
        with self._writer_lock(wait=False) as locked:
            self._catch_up()
            # entries whose blob vanished are dropped; blobs without entries are orphans
            for digest, entry in list(self.entries.items()):
                path = self.blob_dir / entry.file
                if not path.exists() or path.stat().st_size != entry.size:
                    log.warning("dropping entry %s: blob missing or truncated", entry.key.hex[:12])
                    self._unindex(digest)
            if locked:
                for blob in self.blob_dir.iterdir():
                    if blob.name not in self._file_refs:
                        log.warning("collecting orphan blob %s", blob.name)
                        blob.unlink()

    def _catch_up(self) -> None:
        """Replay the manifest lines past byte ``_replayed``, skipping what
        does not parse.  The offset passes only lines that end in a newline,
        so a last line without one, torn or still being appended, is reread."""
        with suppress(FileNotFoundError), open(self.manifest_path, "rb") as f:
            f.seek(self._replayed)
            for line in f:
                if line.strip():
                    try:
                        self._replay(json.loads(line))
                    except (*MALFORMED_DOCUMENT, StoreError) as e:
                        log.warning("manifest line at byte %d skipped: %s", self._replayed, e)
                if line.endswith(b"\n"):
                    self._replayed += len(line)

    @contextmanager
    def _writer_lock(self, wait: bool = True):
        """Hold an exclusive ``flock`` on ``root/lock`` for the block and
        yield True.  Without ``wait``, yield False at once instead if another
        open file holds it or the root is read-only."""
        with ExitStack() as stack:
            try:
                f = stack.enter_context(open(self.root / "lock", "ab"))
                fcntl.flock(f, fcntl.LOCK_EX if wait else fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:  # another open file holds it, or the root is read-only
                if wait:
                    raise
                locked = False
            else:
                locked = True
            yield locked

    def _replay(self, rec: dict) -> None:
        """Apply one manifest record to the index: ``_catch_up`` replays each
        manifest line, and ``_record`` each new record."""
        op = rec.get("op", "put")
        if op == "del":
            self._unindex(bytes.fromhex(rec["key"]))
            return
        if op == "pin":
            digest, pinned = bytes.fromhex(rec["key"]), _flag(rec["pinned"])
            if digest in self.entries:
                self.entries[digest].pinned = pinned
            return
        if not re.fullmatch("[0-9a-f]{64}", rec["file"]):
            raise StoreError(f"blob name {rec['file']!r} is not a digest")
        key = ChunkKey(bytes.fromhex(rec["key"]), rec["mode"])
        pos = rec.get("pos")
        if pos is None and rec.get("parent"):  # a record from before put records held "pos"
            up = self.entries.get(bytes.fromhex(rec["parent"]))
            if up is None:
                raise StoreError(f"put of {key.hex[:12]} has no position and its parent is not indexed")
            pos = up.pos + len(up.tokens)
        entry = StoreEntry(
            key=key,
            tokens=[exact_int(t) for t in rec["tokens"]],
            pos=0 if pos is None else exact_int(pos),
            file=rec["file"],
            size=exact_int(rec["size"]),
            codec_profile=codec.CodecProfile.from_dict(rec["codec"]),
            pinned=_flag(rec.get("pinned", False)),
        )
        self._index(entry)

    # -- accounting --------------------------------------------------------

    @property
    def total_size(self) -> int:
        return self._total_size

    def _index(self, entry: StoreEntry) -> None:
        """Put ``entry`` under its key, replacing any entry there, as the most
        recently used."""
        self._unindex(entry.key.digest)
        self.entries[entry.key.digest] = entry
        if entry.key.mode == MODE_CHAIN:
            self._chain_lengths.add(len(entry.tokens))
        self._total_size += entry.size
        self._file_refs[entry.file] += 1

    def _unindex(self, digest: bytes) -> None:
        """Drop the entry under ``digest``, if any.  Its blob file stays on
        disk; an open group commit unlinks it if this was its last entry."""
        entry = self.entries.pop(digest, None)
        if entry is not None:
            self._total_size -= entry.size
            self._file_refs[entry.file] -= 1
            if not self._file_refs[entry.file]:
                del self._file_refs[entry.file]
                if self._group is not None:
                    self._group[1].append(entry.file)

    def _record(self, rec: dict) -> None:
        """Apply ``rec`` with ``_replay`` and commit it with the open group commit."""
        self._replay(rec)
        self._group[0].append(rec)

    @contextmanager
    def _group_commit(self):
        """Collect the manifest records made in the block, and the blob files
        they free, for one ``_commit`` at its end, holding the writer lock
        throughout: a second writer waits for it.  It first catches up, so the
        block decides on what other writers committed, and frees none of it.

        A block inside another joins the outer one.  A ``CapacityError``
        commits the records made before it, then propagates; any other error
        commits nothing and restores the index, recency included, and the
        blobs written become orphans.
        """
        if self._group is not None:
            yield
            return
        with self._writer_lock():
            self._catch_up()
            recs, dead = self._group = ([], [])
            saved = self.entries.copy(), self._total_size, self._file_refs.copy()
            try:
                yield
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
        """Append one JSON line per record in one write with one fsync, then
        unlink the ``dead`` blob files that no live entry uses any more.

        When a record puts a blob, ``blobs/`` is fsynced first, so a durable
        manifest line never names a blob whose rename a power loss could undo.
        The append that creates the manifest fsyncs the root directory too.
        Bytes past ``_replayed`` are an append a power loss tore; the write
        ends them first, so no record of this one extends that line.
        """
        if not recs:
            return
        if any("file" in rec for rec in recs):
            _fsync_dir(self.blob_dir)
        new_manifest = not self.manifest_path.exists()
        with open(self.manifest_path, "a+b") as f:
            torn = f.tell() != self._replayed
            f.write(b"\n" * torn + "".join(json.dumps(rec) + "\n" for rec in recs).encode())
            f.flush()
            os.fsync(f.fileno())
            self._replayed = f.tell()
        if new_manifest:
            _fsync_dir(self.root)
        if self._crash_hook is not None:
            self._crash_hook()
        for fname in dead:
            if fname not in self._file_refs:
                (self.blob_dir / fname).unlink(missing_ok=True)

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

    def read_blob(self, key: ChunkKey) -> bytes:
        """The chunk's bytes as stored; refreshes its LRU position.  The chunk
        crc covers only the payload, so the header, read here without the
        payload, must parse and agree with the entry's position, token count
        and profile (``codec.read_header``), else StoreError."""
        entry = self.entries.get(key.digest)
        if entry is None:
            raise StoreError(f"key {key.hex[:12]} not in store")
        self.entries.move_to_end(key.digest)
        blob = (self.blob_dir / entry.file).read_bytes()
        try:
            codec.read_header(blob, start_pos=entry.pos, n_tokens=len(entry.tokens), profile=entry.codec_profile)
        except codec.CodecError as e:
            raise StoreError(f"chunk {key.hex[:12]} does not match its manifest entry: {e}") from e
        return blob

    def get_chunk(self, key: ChunkKey) -> codec.CompressedChunk:
        """The parsed, crc-checked chunk under ``key``."""
        return codec.CompressedChunk.from_bytes(self.read_blob(key))

    # -- store / retrieve ----------------------------------------------------

    def _split_chunks(self, tokens: list[int]) -> list[list[int]]:
        cs = self.config.chunk_size
        return [tokens[i : i + cs] for i in range(0, len(tokens), cs)]

    def _put(self, key: ChunkKey, tokens: list[int], pos: int, blob: bytes, profile: codec.CodecProfile,
             pinned: bool) -> None:
        """Write ``blob`` and index ``key`` on it in the open group commit."""
        self._record({
            "key": key.hex,
            "mode": key.mode,
            "file": self._write_blob(blob),
            "tokens": tokens,
            "pos": pos,
            "codec": profile.to_dict(),
            "size": len(blob),
            "pinned": pinned,
        })

    def store_text(
        self,
        model: Model,
        tokens: list[int],
        mode: str = MODE_CHAIN,
        profile: codec.CodecProfile = codec.PROFILES["8bit-deflate"],
    ) -> list[ChunkKey]:
        """Prefill, chunk, compress and persist a token sequence.

        Chain mode prefills the whole sequence once, at its first missing
        key, and slices the cache per chunk; standalone mode prefills every
        missing chunk independently at position 0.  Re-storing existing keys
        is a no-op and prefills nothing.  A key whose blob ``get_chunk``
        refuses, or that does not decode whole at the model's geometry, counts
        as missing: its entry is dropped and the chunk recomputed and
        rewritten, keeping its pin.  A token outside the model's vocabulary
        raises ``ModelError`` before any key is made, an unknown mode
        ``StoreError`` at the first key (``make_key``), before any prefill.

        The document is one group commit: its ``put`` records and the
        ``del`` records of the evictions that made room reach the manifest in
        one append, in the order they were made.
        """
        if not tokens:
            raise StoreError("store_text requires a nonempty token list")
        _check_tokens(model, tokens)
        full_cache = None
        keys: list[ChunkKey] = []
        with self._group_commit():
            parent: ChunkKey | None = None
            offset = 0
            for chunk_tokens in self._split_chunks(tokens):
                key = make_key(model.model_id, mode, parent, chunk_tokens)
                entry = self.entries.get(key.digest)
                if entry is not None and not self._accepts(key, model):
                    self._record({"op": "del", "key": key.hex})
                if key.digest not in self.entries:
                    # the store reads K/V only, so no prefill here computes final states
                    if mode == MODE_STANDALONE:
                        cache = prefill(model, chunk_tokens, rows=[])[0]
                    else:
                        if full_cache is None:
                            full_cache = prefill(model, tokens, rows=[])[0]
                        cache = full_cache.slice_tokens(offset, offset + len(chunk_tokens))
                    blob = codec.compress_cache(cache, profile).to_bytes()
                    if self.total_size + len(blob) > self.config.capacity:
                        self.evict_to(self.config.capacity - len(blob))
                    pinned = entry is not None and entry.pinned
                    self._put(key, chunk_tokens, cache.start_pos, blob, profile, pinned=pinned)
                keys.append(key)
                parent = key if mode == MODE_CHAIN else None
                offset += len(chunk_tokens)
        return keys

    def _accepts(self, key: ChunkKey, model: Model) -> bool:
        """Whether the blob of the indexed ``key`` is read and decoded whole at ``model``'s geometry."""
        geometry = (model.config.n_layers, model.config.n_heads, model.config.d_head)
        try:
            codec.decompress_cache(codec.CompressedChunk.from_bytes(self.read_blob(key), geometry=geometry))
        except (StoreError, codec.CodecError, FileNotFoundError) as e:
            log.warning("chunk %s is damaged and will be rewritten: %s", key.hex[:12], e)
            return False
        return True

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
                match = self._best_chain_child(model_id, parent, tokens, pos)
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
        """``lookup`` plus the ``get_chunk`` of every hit."""
        keys, miss = self.lookup(model_id, tokens, mode)
        return [(key, self.get_chunk(key)) for key in keys], miss

    def _best_chain_child(
        self, model_id: int, parent: ChunkKey | None, tokens: list[int], pos: int
    ) -> tuple[ChunkKey, int] | None:
        """Longest stored chain chunk whose tokens prefix ``tokens[pos:]``;
        slices only the tokens it hashes, and hashes only lengths some chain
        entry has had, longest first: a full chunk is one hash, a miss one per
        length, not one per token count up to ``chunk_size``."""
        limit = min(self.config.chunk_size, len(tokens) - pos)
        for n in sorted((n for n in self._chain_lengths if n <= limit), reverse=True):
            key = make_key(model_id, MODE_CHAIN, parent, tokens[pos : pos + n])
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
        with self._group_commit():
            victims: list[ChunkKey] = []
            size = self.total_size
            # one call copies the order, so no concurrent read moves an entry mid-walk
            for entry in list(self.entries.values()):
                if size <= capacity:
                    break
                if not entry.pinned:
                    victims.append(entry.key)
                    size -= entry.size
            if size > capacity:  # every unpinned entry is a victim, so ``size`` is what is pinned
                raise CapacityError(f"cannot reach {capacity} bytes: {size} bytes pinned")
            for key in victims:
                self._record({"op": "del", "key": key.hex})
        return victims

    def pin(self, key: ChunkKey, pinned: bool = True) -> None:
        with self._group_commit():
            if key.digest not in self.entries:
                raise StoreError(f"key {key.hex[:12]} not in store")
            self._record({"op": "pin", "key": key.hex, "pinned": pinned})

    # -- offline editing -----------------------------------------------------

    def apply_edit(self, key: ChunkKey, transform_id: int, params: dict) -> None:
        """decompress -> transform -> recompress -> replace blob.

        The key keeps its token association; only the blob content changes.
        """
        transform = EDIT_TRANSFORMS.get(transform_id)
        if transform is None:
            raise StoreError(f"unknown transform id {transform_id}")
        with self._group_commit():
            chunk = self.get_chunk(key)  # the one check that ``key`` is stored
            entry = self.entries[key.digest]
            edited = transform(codec.decompress_cache(chunk), params)
            blob = codec.compress_cache(edited, entry.codec_profile).to_bytes()
            self._put(key, entry.tokens, entry.pos, blob, entry.codec_profile, pinned=entry.pinned)


def open_store(config: StoreConfig) -> Store:
    return Store(config)
