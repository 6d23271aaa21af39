import dataclasses
import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdn import codec, delivery
from kdn import store as store_module
from kdn.blender import BlendError, prefix_extend_path
from kdn.model import ModelConfig, ModelError, build_model, concat_caches, prefill
from kdn.store import (
    EDIT_TRANSFORMS,
    MODE_CHAIN,
    MODE_STANDALONE,
    CapacityError,
    ChunkKey,
    Store,
    StoreConfig,
    StoreError,
    make_key,
    open_store,
)

CFG = ModelConfig(2, 2, 4, 32)


@pytest.fixture(scope="module")
def model():
    return build_model(CFG)


def _store(tmp_path, capacity=1 << 30, chunk_size=8):
    return open_store(StoreConfig(root=tmp_path / "store", capacity=capacity, chunk_size=chunk_size))


# -- keys ------------------------------------------------------------------------


def test_make_key_frozen_digest():
    # independent byte-level construction of the canonical layout
    canonical = (
        b"KDNKEY1"
        + bytes([1])
        + b"\x00" * 32
        + struct.pack("<Q", 1)
        + struct.pack("<I", 3)
        + struct.pack("<III", 1, 2, 3)
    )
    assert len(canonical) == 64
    expected = hashlib.sha256(canonical).hexdigest()
    assert expected == "15df8113632c26f986df04d455eee862d76d1af1f348accb3ffcb3ebbd2cf24a"
    assert make_key(1, MODE_STANDALONE, None, [1, 2, 3]).hex == expected


def test_make_key_chain_commits_to_parent():
    root = make_key(7, MODE_CHAIN, None, [1, 2])
    a = make_key(7, MODE_CHAIN, root, [3, 4])
    b = make_key(7, MODE_CHAIN, None, [3, 4])
    assert a.digest != b.digest
    # standalone keys never depend on a parent
    assert (
        make_key(7, MODE_STANDALONE, root, [3, 4]).digest
        == make_key(7, MODE_STANDALONE, None, [3, 4]).digest
    )


def test_make_key_sensitivity():
    base = make_key(1, MODE_STANDALONE, None, [1, 2, 3])
    assert make_key(2, MODE_STANDALONE, None, [1, 2, 3]).digest != base.digest
    assert make_key(1, MODE_STANDALONE, None, [1, 2, 4]).digest != base.digest
    assert make_key(1, MODE_CHAIN, None, [1, 2, 3]).digest != base.digest


def test_chunk_key_validation():
    with pytest.raises(StoreError):
        ChunkKey(b"\x00" * 16, MODE_CHAIN)
    with pytest.raises(StoreError):
        ChunkKey(b"\x00" * 32, "nope")
    with pytest.raises(StoreError):
        make_key(1, "nope", None, [1])


# -- store / retrieve ----------------------------------------------------------------


def test_chunking_arithmetic(tmp_path, model):
    st = _store(tmp_path, chunk_size=64)
    tokens = [i % 32 for i in range(130)]
    keys = st.store_text(model, tokens, mode=MODE_CHAIN)
    assert len(keys) == 3
    sizes = [len(e.tokens) for e in (st.entries[k.digest] for k in keys)]
    assert sizes == [64, 64, 2]


def test_store_retrieve_chain_roundtrip(tmp_path, model):
    st = _store(tmp_path)
    tokens = [i % 32 for i in range(20)]
    keys = st.store_text(model, tokens, mode=MODE_CHAIN)
    hits, miss = st.retrieve_text(model.model_id, tokens, mode=MODE_CHAIN)
    assert [k.digest for k, _ in hits] == [k.digest for k in keys]
    assert miss == []
    # decompressed chain equals the dequantized full prefill exactly
    full, _ = prefill(model, tokens)
    restored = concat_caches([codec.decompress_cache(chunk) for _, chunk in hits])
    profile = codec.PROFILES["8bit-deflate"]
    expected_parts = []
    off = 0
    for k in keys:
        n = len(st.entries[k.digest].tokens)
        expected_parts.append(
            codec.dequantize(codec.quantize(full.slice_tokens(off, off + n), profile))
        )
        off += n
    expected = concat_caches(expected_parts)
    assert np.array_equal(restored.k_pre, expected.k_pre)
    assert np.array_equal(restored.v, expected.v)


class _SliceCountingList(list):
    """A token list that counts the items its slices copy."""

    sliced = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            self.sliced += len(item)
        return item


def test_lookup_copies_only_the_tokens_it_hashes(tmp_path, model, monkeypatch):
    st = _store(tmp_path)
    doc = [i % 32 for i in range(24)]
    keys = st.store_text(model, doc)
    hashed = []
    monkeypatch.setattr(store_module, "make_key", lambda *a: hashed.append(a) or make_key(*a))
    tokens = _SliceCountingList(doc + [31] * 10_000)
    assert st.lookup(model.model_id, tokens) == (keys, [31] * 10_000)
    # each hash copies at most one chunk, and the miss suffix is copied once
    assert len(hashed) == 3 + 8  # the three hits, then every length of a fourth chunk
    assert tokens.sliced <= len(tokens) + st.config.chunk_size * len(hashed)


def test_retrieve_partial_prefix_and_miss(tmp_path, model):
    st = _store(tmp_path)
    tokens = [i % 32 for i in range(20)]
    st.store_text(model, tokens, mode=MODE_CHAIN)
    hits, miss = st.retrieve_text(model.model_id, tokens + [5], mode=MODE_CHAIN)
    assert sum(c.n_tokens for _, c in hits) == 20
    assert miss == [5]
    # diverging text only reuses the shared chunk-aligned prefix
    hits, miss = st.retrieve_text(model.model_id, tokens[:8] + [31, 31], mode=MODE_CHAIN)
    assert sum(c.n_tokens for _, c in hits) == 8
    assert miss == [31, 31]
    hits, miss = st.retrieve_text(model.model_id, [30, 30, 30], mode=MODE_CHAIN)
    assert hits == [] and miss == [30, 30, 30]


def test_retrieve_short_chain_chunk(tmp_path, model):
    # final chunk shorter than chunk_size is still found by the prefix scan
    st = _store(tmp_path, chunk_size=8)
    tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    st.store_text(model, tokens, mode=MODE_CHAIN)
    hits, miss = st.retrieve_text(model.model_id, tokens, mode=MODE_CHAIN)
    assert [c.n_tokens for _, c in hits] == [8, 2] and miss == []


def test_standalone_mode(tmp_path, model):
    st = _store(tmp_path, chunk_size=4)
    st.store_text(model, [1, 2, 3, 4], mode=MODE_STANDALONE)
    st.store_text(model, [9, 9, 9, 9], mode=MODE_STANDALONE)
    query = [1, 2, 3, 4] + [5, 5, 5, 5] + [9, 9, 9, 9]
    hits, miss = st.retrieve_text(model.model_id, query, mode=MODE_STANDALONE)
    assert len(hits) == 2
    assert miss == [5, 5, 5, 5]
    # standalone chunks are cached at position 0
    assert all(chunk.start_pos == 0 for _, chunk in hits)


def test_store_idempotent(tmp_path, model):
    st = _store(tmp_path)
    tokens = [1, 2, 3]
    k1 = st.store_text(model, tokens)
    size = st.total_size
    k2 = st.store_text(model, tokens)
    assert [k.digest for k in k1] == [k.digest for k in k2]
    assert st.total_size == size
    assert len(st.entries) == 1


def test_store_rejects_empty_and_bad_mode(tmp_path, model):
    st = _store(tmp_path)
    with pytest.raises(StoreError):
        st.store_text(model, [])
    with pytest.raises(StoreError):
        st.store_text(model, [1], mode="nope")
    with pytest.raises(StoreError):
        st.retrieve_text(1, [1], mode="nope")


def test_get_chunk_unknown_key(tmp_path, model):
    st = _store(tmp_path)
    with pytest.raises(StoreError):
        st.get_chunk(make_key(model.model_id, MODE_CHAIN, None, [9]))
    with pytest.raises(StoreError):
        st.read_blob(make_key(model.model_id, MODE_CHAIN, None, [9]))
    # a pin of a key not in the store records nothing
    st.store_text(model, [1, 2, 3])
    manifest = st.manifest_path.read_bytes()
    with pytest.raises(StoreError, match="not in store"):
        st.pin(make_key(model.model_id, MODE_CHAIN, None, [9]))
    assert st.manifest_path.read_bytes() == manifest


@pytest.mark.parametrize("profile", sorted(codec.PROFILES))
def test_blob_is_canonical_chunk_bytes(tmp_path, model, profile):
    # the server sends blobs unparsed, so a blob must be byte-equal to what
    # parsing and re-serializing it gives
    st = _store(tmp_path)
    keys = st.store_text(model, [i % 32 for i in range(20)], profile=codec.PROFILES[profile])
    for key in keys:
        blob = st.read_blob(key)
        assert blob == codec.CompressedChunk.from_bytes(blob).to_bytes()


# (offset, struct format, value) rewrites of a stored chunk header: anchor_stride
# is at byte 8, n_tokens at 17 and uncompressed_len at 29.  The chunk crc covers
# only the payload, so the first two still parse as chunks.
@pytest.mark.parametrize("rewrite", [
    [(8, "<H", 8)],  # anchor_stride 1 -> 8: the wrong profile
    [(17, "<I", 4), (29, "<Q", 8 * 4 * CFG.d_model * CFG.n_layers)],  # 4 of the entry's 8 tokens
    [(0, "<4s", b"XXXX")],  # no chunk header at all
], ids=["anchor-stride", "token-count", "magic"])
def test_a_header_that_disagrees_with_its_entry_is_a_store_error(tmp_path, model, rewrite):
    st = _store(tmp_path)
    tokens = list(range(16))
    keys = st.store_text(model, tokens)
    path = st.blob_dir / st.entries[keys[1].digest].file
    blob = bytearray(path.read_bytes())
    for offset, fmt, value in rewrite:
        struct.pack_into(fmt, blob, offset, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(StoreError):
        st.get_chunk(keys[1])
    with pytest.raises(StoreError):
        st.retrieve_text(model.model_id, tokens)
    with pytest.raises(StoreError):
        st.apply_edit(keys[1], 1, {"factor": 2.0, "tokens": [0]})
    assert st.get_chunk(keys[0]).n_tokens == 8


@pytest.mark.parametrize("mode, index, start_pos", [
    (MODE_CHAIN, 0, 5),  # a chain root
    (MODE_STANDALONE, 1, 8),  # a standalone chunk, at its offset in the text
    (MODE_CHAIN, 1, 100),  # a chain chunk past its root
])
def test_a_chunk_whose_start_pos_was_rewritten_at_rest_is_a_store_error(tmp_path, model, mode, index, start_pos):
    # start_pos is outside the chunk crc; the manifest entry records the
    # position, so every read checks it
    st = _store(tmp_path)
    tokens = list(range(16))
    keys = st.store_text(model, tokens, mode=mode)
    path = st.blob_dir / st.entries[keys[index].digest].file
    chunk = codec.CompressedChunk.from_bytes(path.read_bytes())
    expected = chunk.start_pos
    assert expected == (8 * index if mode == MODE_CHAIN else 0)
    path.write_bytes(dataclasses.replace(chunk, start_pos=start_pos).to_bytes())
    for read in (st.read_blob, st.get_chunk):
        with pytest.raises(StoreError, match=f"at position {start_pos}, expected {expected}"):
            read(keys[index])
    with pytest.raises(StoreError):
        st.retrieve_text(model.model_id, tokens, mode)
    assert st.get_chunk(keys[1 - index]).n_tokens == 8
    # a re-put finds the chunk damaged and rewrites it
    assert st.store_text(model, tokens, mode=mode) == keys
    assert st.get_chunk(keys[index]).start_pos == expected


def _chain_parents(*chains: list[ChunkKey]) -> dict[str, str]:
    """The parent of each key after the first in the chains, by hex digest."""
    return {child.hex: parent.hex for keys in chains for parent, child in zip(keys, keys[1:])}


def _write_old_records(st: Store, parents: dict[str, str], keep_pos=lambda i: True, keep=lambda rec: True) -> None:
    """Rewrite the manifest as written before put records dropped their
    "parent" link (each chain key's parent in ``parents``, else null), with
    "pos" left out of the i-th put record unless ``keep_pos(i)``, as written
    before put records held it."""
    recs = [json.loads(line) for line in st.manifest_path.read_text().splitlines()]
    puts = [rec for rec in recs if "file" in rec]
    assert all("pos" in rec and "parent" not in rec for rec in puts)
    for i, rec in enumerate(puts):
        fields = list(rec.items())
        rec.clear()
        for name, value in fields:
            if name == "pos":  # the link sat just before it
                rec["parent"] = parents.get(rec["key"])
                if not keep_pos(i):
                    continue
            rec[name] = value
    st.manifest_path.write_text("".join(json.dumps(rec) + "\n" for rec in recs if keep(rec)))


def test_a_manifest_without_positions_reopens_at_derived_positions(tmp_path, model):
    st = _store(tmp_path)
    tokens = list(range(20))
    chain = st.store_text(model, tokens)
    standalone = st.store_text(model, tokens, mode=MODE_STANDALONE)
    st.apply_edit(chain[1], 1, {"factor": 2.0, "tokens": [0]})  # a re-put of a chain chunk
    want = [st.get_chunk(k) for k in chain + standalone]
    _write_old_records(st, _chain_parents(chain), keep_pos=lambda i: False)
    reopened = _store(tmp_path)
    assert [reopened.entries[k.digest].pos for k in chain + standalone] == [0, 8, 16, 0, 0, 0]
    assert [reopened.get_chunk(k) for k in chain + standalone] == want
    hits, miss = reopened.retrieve_text(model.model_id, tokens)
    assert [c.start_pos for _, c in hits] == [0, 8, 16] and miss == []
    # a new put records its position
    reopened.store_text(model, tokens + [1, 2, 3])
    assert json.loads(reopened.manifest_path.read_text().splitlines()[-1])["pos"] == 16


def test_a_put_record_without_a_position_or_an_indexed_parent_is_skipped(tmp_path, model):
    st = _store(tmp_path)
    tokens = list(range(24))
    keys = st.store_text(model, tokens)
    _write_old_records(st, _chain_parents(keys), keep_pos=lambda i: False,
                       keep=lambda rec: rec.get("key") != keys[0].hex)
    reopened = _store(tmp_path)
    # no root, so neither child can be positioned; their blobs are collected
    assert reopened.entries == {} and list(reopened.blob_dir.iterdir()) == []
    assert reopened.store_text(model, tokens) == keys
    assert [reopened.get_chunk(k).start_pos for k in keys] == [0, 8, 16]


def test_put_records_hold_no_parent_link(tmp_path, model):
    st = _store(tmp_path)
    chain = st.store_text(model, list(range(20)))
    standalone = st.store_text(model, list(range(20)), mode=MODE_STANDALONE)
    st.apply_edit(chain[1], 1, {"factor": 2.0, "tokens": [0]})  # a re-put of a chain child
    puts = [json.loads(line) for line in st.manifest_path.read_text().splitlines()]
    assert [rec["key"] for rec in puts] == [k.hex for k in chain + standalone + chain[1:2]]
    assert [list(rec) for rec in puts] == [["key", "mode", "file", "tokens", "pos", "codec", "size", "pinned"]] * 7


@pytest.mark.parametrize("keep_pos", [lambda i: True, lambda i: False, lambda i: i % 2 == 0],
                         ids=["with-pos", "without-pos", "mixed"])
def test_a_manifest_with_parent_links_reopens_to_the_same_entries(tmp_path, model, keep_pos):
    # the put records of an older version carry each chain key's parent, with or without "pos"
    st = _store(tmp_path)
    tokens = list(range(20))
    chain = st.store_text(model, tokens)
    standalone = st.store_text(model, tokens, mode=MODE_STANDALONE)
    st.apply_edit(chain[1], 1, {"factor": 2.0, "tokens": [0]})
    st.pin(chain[2])
    want = _entry_fields(_store(tmp_path))
    _write_old_records(st, _chain_parents(chain), keep_pos)
    reopened = _store(tmp_path)
    assert _entry_fields(reopened) == want
    assert list(reopened.entries) == list(want)  # and the same recency order
    assert reopened.lookup(model.model_id, tokens) == (chain, [])
    assert reopened.lookup(model.model_id, tokens, MODE_STANDALONE) == (standalone, [])


@pytest.mark.parametrize("damage", ["anchor-stride", "payload-byte", "codes-len", "missing"])
@pytest.mark.parametrize("mode", [MODE_CHAIN, MODE_STANDALONE])
def test_a_re_put_rewrites_a_damaged_blob(tmp_path, model, damage, mode):
    st = _store(tmp_path)
    tokens = list(range(24))
    keys = st.store_text(model, tokens, mode=mode)
    want = [codec.decompress_cache(st.get_chunk(k)) for k in keys]
    st.pin(keys[1])
    path = st.blob_dir / st.entries[keys[1].digest].file
    blob = bytearray(path.read_bytes())
    if damage == "anchor-stride":
        struct.pack_into("<H", blob, 8, 8)  # anchor_stride 1 -> 8, outside the crc
    elif damage == "payload-byte":
        blob[50] ^= 0xFF  # the header is 45 bytes
    elif damage == "codes-len":  # crc-valid, and get_chunk accepts it, but it does not decode
        chunk = codec.CompressedChunk.from_bytes(bytes(blob))
        params_len, codes_len = struct.unpack_from("<II", chunk.payload)
        payload = struct.pack("<II", params_len, codes_len + 1) + chunk.payload[8:]
        blob = dataclasses.replace(chunk, payload=payload, crc=codec.crc32c(payload)).to_bytes()
    path.write_bytes(bytes(blob))
    if damage == "missing":
        path.unlink()
    with pytest.raises((StoreError, codec.CodecError, FileNotFoundError)):
        codec.decompress_cache(st.get_chunk(keys[1]))
    assert st.store_text(model, tokens, mode=mode) == keys
    for reopened in (st, _store(tmp_path)):
        got = [codec.decompress_cache(reopened.get_chunk(k)) for k in keys]
        assert all(np.array_equal(g.k_pre, w.k_pre) and np.array_equal(g.v, w.v) for g, w in zip(got, want))
        assert reopened.entries[keys[1].digest].pinned
        assert sorted(p.name for p in reopened.blob_dir.iterdir()) == sorted(e.file for e in reopened.entries.values())


def test_a_re_put_rewrites_a_blob_whose_geometry_was_rewritten_at_rest(tmp_path, model):
    # n_heads and d_head swapped (2 x 4 -> 4 x 2): the token count, the
    # uncompressed size and the payload still agree, so the chunk reads and
    # decodes whole, at a geometry that is not the model's
    st = _store(tmp_path)
    tokens = list(range(16))
    keys = st.store_text(model, tokens)
    path = st.blob_dir / st.entries[keys[1].digest].file
    blob = bytearray(path.read_bytes())
    struct.pack_into("<HH", blob, 13, CFG.d_head, CFG.n_heads)
    path.write_bytes(bytes(blob))
    hits, miss = st.retrieve_text(model.model_id, tokens + [3])
    assert codec.decompress_cache(hits[1][1]).kv.shape == (2, 2, 4, 8, 2)
    with pytest.raises(BlendError):
        prefix_extend_path(model, hits, miss)
    assert st.store_text(model, tokens) == keys
    hits, miss = st.retrieve_text(model.model_id, tokens + [3])
    cache, _ = prefix_extend_path(model, hits, miss)
    assert np.abs(cache.kv - prefill(model, tokens + [3])[0].kv).max() < 5e-3


@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("mode", [MODE_CHAIN, MODE_STANDALONE])
def test_store_text_blobs_are_compressed_prefill_slices(tmp_path, n_layers, mode):
    # store_text's prefill skips the final layer's attention, which no K/V reads
    m = build_model(ModelConfig(n_layers, 2, 4, 32))
    tokens = [(3 * i + 2) % 32 for i in range(20)]
    st = _store(tmp_path)
    keys = st.store_text(m, tokens, mode=mode)
    full, _ = prefill(m, tokens)
    for i, key in enumerate(keys):
        chunk = tokens[8 * i : 8 * i + 8]
        cache = full.slice_tokens(8 * i, 8 * i + len(chunk)) if mode == MODE_CHAIN else prefill(m, chunk)[0]
        assert st.read_blob(key) == codec.compress_cache(cache, codec.PROFILES["8bit-deflate"]).to_bytes()


def test_chain_put_prefills_only_at_a_missing_key(tmp_path, model, monkeypatch):
    tokens = [(5 * i + 1) % 32 for i in range(32)]
    st = _store(tmp_path)
    keys = st.store_text(model, tokens)
    blobs = [st.read_blob(k) for k in keys]
    prefilled = []
    monkeypatch.setattr("kdn.store.prefill", lambda m, t, **kw: prefilled.append(t) or prefill(m, t, **kw))
    assert st.store_text(model, tokens) == keys and prefilled == []  # a re-put walks the keys only
    # touch the first two chunks, so the third is the least recently used
    st.store_text(model, tokens[:16])
    assert st.evict_to(st.total_size - 1) == [keys[2]]
    assert st.store_text(model, tokens) == keys
    # the evicted chunk is re-stored from one prefill of the whole document
    assert prefilled == [tokens] and [st.read_blob(k) for k in keys] == blobs


def test_store_text_rejects_tokens_outside_the_vocab(tmp_path, model):
    st = _store(tmp_path)
    for mode in (MODE_CHAIN, MODE_STANDALONE):
        for bad in (-1, model.config.vocab_size, 1 << 32):
            with pytest.raises(ModelError):
                st.store_text(model, [1, 2, bad], mode=mode)
    assert st.entries == {}


def test_keys_of_tokens_outside_u32_raise_store_error():
    for mode in (MODE_CHAIN, MODE_STANDALONE):
        for bad in (-1, 1 << 32):
            with pytest.raises(StoreError):
                make_key(1, mode, None, [1, 2, bad])


def _record_fsyncs(monkeypatch):
    """Record the (device, inode) of every file or directory fsynced, in order."""
    synced = []
    real = os.fsync

    def fsync(fd):
        stat = os.fstat(fd)
        synced.append((stat.st_dev, stat.st_ino))
        real(fd)

    monkeypatch.setattr("kdn.store.os.fsync", fsync)
    return synced


def _names(store, synced):
    """What each recorded fsync hit: "root", "blobs", "manifest" or a blob's file name."""
    paths = {"root": store.root, "blobs": store.blob_dir, "manifest": store.manifest_path}
    paths.update((p.name, p) for p in store.blob_dir.iterdir())
    by_inode = {(os.stat(p).st_dev, os.stat(p).st_ino): name for name, p in paths.items()}
    return [by_inode.get(ident, "?") for ident in synced]


def test_store_text_commits_with_one_manifest_fsync(tmp_path, model, monkeypatch):
    st = _store(tmp_path)
    synced = _record_fsyncs(monkeypatch)
    doc = [i % 32 for i in range(20)]
    keys = st.store_text(model, doc)
    files = [st.entries[k.digest].file for k in keys]
    # each blob, then blobs/ once, then the manifest once; the manifest was
    # created by this append, so the root directory follows it
    assert _names(st, synced) == files + ["blobs", "manifest", "root"]
    synced.clear()
    keys = st.store_text(model, doc + [5, 6])  # two chunks stored, one new
    assert _names(st, synced) == [st.entries[keys[-1].digest].file, "blobs", "manifest"]
    synced.clear()
    st.store_text(model, doc)  # nothing new: nothing appended
    assert synced == []
    assert len(st.manifest_path.read_text().splitlines()) == 4


def _records(store):
    return [json.loads(line) for line in store.manifest_path.read_text().splitlines()]


def test_group_commit_keeps_the_per_chunk_record_order(tmp_path, model):
    # one store_text of three chunks that each evict, against three one-chunk
    # puts; the third chunk evicts the first
    doc = [t % 32 for t in range(13, 37)]
    grouped, keys = _standalone_trio(tmp_path / "grouped", model)
    per_chunk, _ = _standalone_trio(tmp_path / "per_chunk", model)
    new = grouped.store_text(model, doc, mode=MODE_STANDALONE)
    for i in range(0, len(doc), 8):
        per_chunk.store_text(model, doc[i : i + 8], mode=MODE_STANDALONE)
    recs = _records(grouped)
    assert recs == _records(per_chunk)
    assert [(r.get("op", "put"), r["key"]) for r in recs[3:]] == [
        ("del", keys[0].hex), ("del", keys[1].hex), ("put", new[0].hex), ("del", keys[2].hex),
        ("put", new[1].hex), ("del", new[0].hex), ("put", new[2].hex)]
    _check_accounting(grouped)


@pytest.mark.parametrize("crash_at", [1, 2, 3])
def test_crash_during_a_multi_chunk_put(tmp_path, model, crash_at):
    # crash points of a two-chunk put that evicts: after blob 1, after blob 2,
    # and after the manifest append, before the victims are unlinked
    st, keys = _standalone_trio(tmp_path, model)
    before = _snapshot(_store(tmp_path))
    calls = []

    def crash():
        calls.append(1)
        if len(calls) == crash_at:
            raise RuntimeError("simulated crash")

    st._crash_hook = crash
    doc = list(range(13, 29))
    with pytest.raises(RuntimeError):
        st.store_text(model, doc, mode=MODE_STANDALONE)
    assert len(list(st.blob_dir.iterdir())) == 3 + min(crash_at, 2)  # nothing unlinked
    reopened = _store(tmp_path)
    _check_accounting(reopened)  # no orphan is left
    if crash_at < 3:
        assert _snapshot(reopened) == before
        # and the crashed store's index is back to before the put
        assert set(st.entries) == {k.digest for k in keys} and st.total_size == before[1]
    else:
        new = {make_key(model.model_id, MODE_STANDALONE, None, doc[i : i + 8]).digest for i in (0, 8)}
        assert set(reopened.entries) == new


def test_failed_put_commits_nothing(tmp_path, model):
    # a bad token in the second chunk fails after the first chunk's blob is written
    st, _ = _standalone_trio(tmp_path, model)
    before = _snapshot(st)
    with pytest.raises(ModelError):
        st.store_text(model, list(range(13, 21)) + [1, 2, 99], mode=MODE_STANDALONE)
    assert _snapshot(st)[:3] == before[:3]  # entries, total and manifest
    assert _snapshot(_store(tmp_path))[1:] == before[1:]  # the first chunk's blob was an orphan


def test_capacity_error_partway_keeps_the_chunks_before_it(tmp_path, model):
    small, big = [1, 1, 1, 1], [1, 2, 3, 4]
    assert _blob_size(model, big) > _blob_size(model, small) + 100
    pinned_size = _blob_size(model, [5, 6, 7, 8])
    st = _store(tmp_path, capacity=pinned_size + _blob_size(model, small) + 100, chunk_size=4)
    st.pin(st.store_text(model, [5, 6, 7, 8], mode=MODE_STANDALONE)[0])
    with pytest.raises(CapacityError):
        st.store_text(model, small + big, mode=MODE_STANDALONE)
    stored = make_key(model.model_id, MODE_STANDALONE, None, small)
    for store in (st, _store(tmp_path, chunk_size=4)):
        assert stored.digest in store.entries and len(store.entries) == 2
        _check_accounting(store)


# -- eviction -----------------------------------------------------------------------


def _blob_size(model, tokens):
    cache, _ = prefill(model, tokens)
    return len(codec.compress_cache(cache, codec.PROFILES["8bit-deflate"]).to_bytes())


def test_lru_eviction(tmp_path, model):
    one = _blob_size(model, [1, 2, 3, 4])
    st = _store(tmp_path, capacity=3 * one + 10, chunk_size=8)
    ka = st.store_text(model, [1, 2, 3, 4], mode=MODE_STANDALONE)[0]
    kb = st.store_text(model, [5, 6, 7, 8], mode=MODE_STANDALONE)[0]
    kc = st.store_text(model, [9, 10, 11, 12], mode=MODE_STANDALONE)[0]
    st.get_chunk(ka)  # refresh a: b becomes least recent
    st.store_text(model, [13, 14, 15, 16], mode=MODE_STANDALONE)
    assert st.total_size <= st.config.capacity
    assert kb.digest not in st.entries
    assert ka.digest in st.entries and kc.digest in st.entries


def test_pinned_survive_eviction(tmp_path, model):
    one = _blob_size(model, [1, 2, 3, 4])
    st = _store(tmp_path, capacity=2 * one + 10, chunk_size=8)
    ka = st.store_text(model, [1, 2, 3, 4], mode=MODE_STANDALONE)[0]
    st.pin(ka)
    st.store_text(model, [5, 6, 7, 8], mode=MODE_STANDALONE)
    st.store_text(model, [9, 10, 11, 12], mode=MODE_STANDALONE)
    assert ka.digest in st.entries
    assert st.total_size <= st.config.capacity


def test_capacity_error_when_all_pinned(tmp_path, model):
    one = _blob_size(model, [1, 2, 3, 4])
    st = _store(tmp_path, capacity=2 * one + 10, chunk_size=8)
    for toks in ([1, 2, 3, 4], [5, 6, 7, 8]):
        st.pin(st.store_text(model, toks, mode=MODE_STANDALONE)[0])
    with pytest.raises(CapacityError):
        st.store_text(model, [9, 10, 11, 12], mode=MODE_STANDALONE)


def _five_with_first_pinned(tmp_path, model, chunk_size=8):
    """A store holding five standalone 4-token chunks, the first pinned; returns it and one's size."""
    one = _blob_size(model, [1, 2, 3, 4])
    st = _store(tmp_path, capacity=5 * one + 10, chunk_size=chunk_size)
    keys = [st.store_text(model, [4 * i + j for j in range(1, 5)], mode=MODE_STANDALONE)[0] for i in range(5)]
    st.pin(keys[0])
    assert len(st.entries) == 5
    return st, one


def _snapshot(store):
    blobs = {p.name: p.read_bytes() for p in store.blob_dir.iterdir()}
    return dict(store.entries), store.total_size, store.manifest_path.read_bytes(), blobs


def test_unreachable_capacity_evicts_nothing(tmp_path, model):
    st, one = _five_with_first_pinned(tmp_path, model)
    before = _snapshot(st)

    def crash():
        raise AssertionError("eviction started")

    st._crash_hook = crash
    with pytest.raises(CapacityError):
        st.evict_to(one // 2)
    assert _snapshot(st) == before


def test_put_that_cannot_fit_leaves_store_intact(tmp_path, model):
    st, one = _five_with_first_pinned(tmp_path, model, chunk_size=128)
    big = [i % 32 for i in range(128)]
    assert _blob_size(model, big) > st.config.capacity - one  # fits only by evicting the pinned chunk
    before = _snapshot(st)
    with pytest.raises(CapacityError):
        st.store_text(model, big, mode=MODE_STANDALONE)
    assert _snapshot(st) == before


def test_evicted_blobs_removed_from_disk(tmp_path, model):
    one = _blob_size(model, [1, 2, 3, 4])
    st = _store(tmp_path, capacity=one + 10, chunk_size=8)
    st.store_text(model, [1, 2, 3, 4], mode=MODE_STANDALONE)
    st.store_text(model, [5, 6, 7, 8], mode=MODE_STANDALONE)
    assert len(list(st.blob_dir.iterdir())) == 1


def _standalone_trio(tmp_path, model):
    """A store holding three standalone chunks, stored a, b, c; returns it and their keys."""
    st = _store(tmp_path, capacity=3 * _blob_size(model, [1, 2, 3, 4]) + 10, chunk_size=8)
    docs = ([1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12])
    keys = [st.store_text(model, toks, mode=MODE_STANDALONE)[0] for toks in docs]
    return st, keys


def test_eviction_appends_its_del_records_with_one_fsync(tmp_path, model, monkeypatch):
    st, keys = _standalone_trio(tmp_path, model)
    fsyncs = []
    monkeypatch.setattr("kdn.store.os.fsync", fsyncs.append)
    assert st.evict_to(0) == keys
    assert len(fsyncs) == 1
    lines = st.manifest_path.read_text().splitlines()
    assert [json.loads(line) for line in lines[-3:]] == [{"op": "del", "key": k.hex} for k in keys]
    assert st.entries == {} and list(st.blob_dir.iterdir()) == []


def _check_accounting(store):
    assert store.total_size == sum(e.size for e in store.entries.values())
    # every live entry's blob is on disk, and nothing else is
    assert {p.name for p in store.blob_dir.iterdir()} == {e.file for e in store.entries.values()}
    for e in store.entries.values():
        assert (store.blob_dir / e.file).stat().st_size == e.size


_DOCS = [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 9], [7, 8, 9, 10], [5, 6]]
_STORE_OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from([MODE_CHAIN, MODE_STANDALONE]), st.integers(0, len(_DOCS) - 1)),
    st.tuples(st.just("get"), st.integers(0, 20)),
    st.tuples(st.just("pin"), st.integers(0, 20), st.booleans()),
    st.tuples(st.just("edit"), st.integers(0, 20), st.sampled_from([0.5, 1.0, 2.0])),
    st.tuples(st.just("evict"), st.integers(0, 4)),
    st.tuples(st.just("reopen")),
)


class _LruModel:
    """The index a store should hold, least recently used first: a put or a
    read moves a key to the end, and a del removes it.  Reopening forgets the
    reads, so the order falls back to that of the last puts."""

    def __init__(self, capacity, fresh_sizes):
        self.capacity, self.fresh_sizes = capacity, fresh_sizes
        self.order: list[ChunkKey] = []
        self.size, self.pinned, self.put_at = {}, {}, {}
        self.puts = 0

    def read(self, key):
        self.order.remove(key)
        self.order.append(key)

    def put(self, key, size):
        if key in self.order:
            self.order.remove(key)
        self.order.append(key)
        self.size[key] = size
        self.puts += 1
        self.put_at[key] = self.puts

    def evict_to(self, capacity):
        total = sum(self.size[k] for k in self.order)
        if total <= capacity:
            return []
        if sum(self.size[k] for k in self.order if self.pinned[k]) > capacity:
            raise CapacityError
        victims = []
        for key in self.order:
            if total <= capacity:
                break
            if not self.pinned[key]:
                victims.append(key)
                total -= self.size[key]
        self.order = [k for k in self.order if k not in victims]
        return victims

    def store_text(self, keys):
        for key in keys:
            if key in self.order:
                self.read(key)
                continue
            size = self.fresh_sizes[key]
            if sum(self.size[k] for k in self.order) + size > self.capacity:
                self.evict_to(self.capacity - size)
            self.pinned[key] = False
            self.put(key, size)
        return keys

    def reopen(self):
        self.order.sort(key=self.put_at.get)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CapacityError:
        return CapacityError


def _entry_fields(store):
    return {d: (e.pos, e.tokens, e.file, e.size, e.pinned, e.codec_profile)
            for d, e in store.entries.items()}


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_STORE_OPS, max_size=12))
def test_running_totals_match_entries(model, ops):
    one = _blob_size(model, [1, 2, 3, 4])
    with tempfile.TemporaryDirectory() as tmp:
        # the keys of each document, and the size a fresh put of each key writes
        fresh = open_store(StoreConfig(root=Path(tmp) / "fresh", chunk_size=4))
        doc_keys = {(i, mode): fresh.store_text(model, doc, mode=mode)
                    for i, doc in enumerate(_DOCS) for mode in (MODE_CHAIN, MODE_STANDALONE)}
        ref = _LruModel(5 * one, {e.key: e.size for e in fresh.entries.values()})
        config = StoreConfig(root=Path(tmp) / "store", capacity=5 * one, chunk_size=4)
        store = open_store(config)
        # the chain's first chunk and the standalone chunk of the same tokens
        # are the same bytes, so two keys start out sharing one blob file
        for mode in (MODE_CHAIN, MODE_STANDALONE):
            store.store_text(model, _DOCS[0], mode=mode)
            ref.store_text(doc_keys[0, mode])
        assert len({e.file for e in store.entries.values()}) < len(store.entries)
        for op in ops:
            keys = sorted(store.entries)
            if op[0] == "put":
                got = _outcome(store.store_text, model, _DOCS[op[2]], op[1])
                assert got == _outcome(ref.store_text, doc_keys[op[2], op[1]])
            elif op[0] in ("get", "pin", "edit") and keys:
                key = store.entries[keys[op[1] % len(keys)]].key
                if op[0] == "get":
                    store.get_chunk(key)
                    ref.read(key)
                elif op[0] == "pin":
                    store.pin(key, op[2])
                    ref.pinned[key] = op[2]
                else:
                    store.apply_edit(key, 1, {"factor": op[2], "tokens": [0]})
                    ref.put(key, store.entries[key.digest].size)
            elif op[0] == "evict":
                assert _outcome(store.evict_to, op[1] * one) == _outcome(ref.evict_to, op[1] * one)
            elif op[0] == "reopen":
                before = _entry_fields(store)
                store = open_store(config)
                ref.reopen()
                assert _entry_fields(store) == before
            assert [e.key for e in store.entries.values()] == ref.order
            assert all(e.size == ref.size[e.key] and e.pinned == ref.pinned[e.key] for e in store.entries.values())
            _check_accounting(store)


# -- persistence / recovery -----------------------------------------------------------


def test_reopen_preserves_entries(tmp_path, model):
    st = _store(tmp_path)
    keys = st.store_text(model, [1, 2, 3, 4, 5])
    st.pin(keys[0])
    st2 = _store(tmp_path)
    assert set(st2.entries) == {k.digest for k in keys}
    assert st2.entries[keys[0].digest].pinned
    hits, miss = st2.retrieve_text(model.model_id, [1, 2, 3, 4, 5])
    assert miss == []
    # put records written before they dropped their "created" stamp reopen to the same entries
    recs = [json.loads(line) for line in st.manifest_path.read_text().splitlines()]
    assert not any("created" in rec for rec in recs)
    st.manifest_path.write_text("".join(json.dumps({**rec, "created": 1.7e9} if "file" in rec else rec) + "\n"
                                        for rec in recs))
    assert _entry_fields(_store(tmp_path)) == _entry_fields(st2)


# each line replaces fields of a valid put record under a fresh key, or is the whole line
@pytest.mark.parametrize("line", [
    "{not json",
    json.dumps({"op": "put", "key": "zz"}),
    "[1, 2]",
    '"str"',
    json.dumps({"op": "pin", "key": 7, "pinned": True}),
    {"size": None},
    {"size": float("inf")},
    {"codec": []},
    {"codec": {"foo": 1}},
    {"file": 7},
    "[" * 100_000,
    b'{"op": "pin", "key": "\xff"}',
], ids=["not-json", "bad-key", "list", "string", "pin-key-int", "size-null", "size-inf",
        "codec-list", "codec-unknown-field", "file-int", "deep-nesting", "not-utf8"])
def test_corrupt_manifest_line_skipped(tmp_path, model, line):
    st = _store(tmp_path)
    keys = st.store_text(model, [1, 2, 3])
    if isinstance(line, dict):
        rec = json.loads(st.manifest_path.read_text().splitlines()[0])
        line = json.dumps({**rec, "key": "ab" * 32, **line})
    with open(st.manifest_path, "ab") as f:
        f.write((line if isinstance(line, bytes) else line.encode()) + b"\n")
    st2 = _store(tmp_path)
    assert set(st2.entries) == {k.digest for k in keys}


def test_a_put_record_naming_a_file_outside_the_blobs_is_skipped(tmp_path, model):
    st = _store(tmp_path)
    keys = st.store_text(model, [1, 2, 3])
    victim = tmp_path / "victim.txt"
    victim.write_bytes(b"not a blob")
    rec = json.loads(st.manifest_path.read_text().splitlines()[0])
    rec.update(key="ab" * 32, file="../../victim.txt", size=victim.stat().st_size)
    with open(st.manifest_path, "a") as f:
        f.write(json.dumps(rec) + "\n")
    st2 = _store(tmp_path)
    assert set(st2.entries) == {k.digest for k in keys}
    assert st2.evict_to(0) == keys
    assert victim.read_bytes() == b"not a blob"


def test_orphan_blob_collected(tmp_path, model):
    st = _store(tmp_path)
    st.store_text(model, [1, 2, 3])
    orphan = st.blob_dir / ("ab" * 32)
    orphan.write_bytes(b"leftover")
    st2 = _store(tmp_path)
    assert not orphan.exists()
    assert len(st2.entries) == 1


def test_missing_blob_drops_entry(tmp_path, model):
    st = _store(tmp_path)
    keys = st.store_text(model, [1, 2, 3])
    (st.blob_dir / st.entries[keys[0].digest].file).unlink()
    st2 = _store(tmp_path)
    assert keys[0].digest not in st2.entries


def test_crash_between_blob_and_manifest(tmp_path, model):
    st = _store(tmp_path)

    def boom():
        raise RuntimeError("simulated crash")

    st._crash_hook = boom
    with pytest.raises(RuntimeError):
        st.store_text(model, [1, 2, 3])
    st2 = _store(tmp_path)  # recovery: orphan collected, no entry
    assert st2.entries == {}
    assert list(st2.blob_dir.iterdir()) == []
    st2.store_text(model, [1, 2, 3])  # and the put can be replayed cleanly
    assert len(st2.entries) == 1


def test_a_put_after_a_torn_manifest_tail_survives_the_next_reopen(tmp_path, model):
    # a power loss mid-append leaves the last manifest line cut short; reopening
    # drops that unacknowledged put, and must not let the next append extend the
    # fragment into a line that does not parse
    st = _store(tmp_path)
    st.store_text(model, list(range(16)))
    data = st.manifest_path.read_bytes()
    assert data.count(b"\n") == 2
    st.manifest_path.write_bytes(data[:-20])
    doc = [(3 * i + 1) % 32 for i in range(16)]
    keys = _store(tmp_path).store_text(model, doc)
    reopened = _store(tmp_path)
    hits, miss = reopened.retrieve_text(model.model_id, doc)
    assert [k for k, _ in hits] == keys and miss == []
    assert reopened.manifest_path.read_bytes().startswith(data[: data.index(b"\n") + 1])
    _check_accounting(reopened)


def test_opening_a_store_with_a_torn_manifest_tail_writes_no_manifest_byte(tmp_path, model):
    st = _store(tmp_path)
    first = st.store_text(model, list(range(16)))[0]
    torn = st.manifest_path.read_bytes()[:-20]
    st.manifest_path.write_bytes(torn)
    reopened = _store(tmp_path)
    assert list(reopened.entries) == [first.digest]
    assert reopened.manifest_path.read_bytes() == torn


def test_a_last_record_without_its_newline_is_replayed_and_the_next_put_starts_a_line(tmp_path, model):
    st = _store(tmp_path)
    first = st.store_text(model, list(range(16)))
    data = st.manifest_path.read_bytes()
    st.manifest_path.write_bytes(data[:-1])
    reopened = _store(tmp_path)
    assert list(reopened.entries) == [k.digest for k in first]
    doc = [(3 * i + 1) % 32 for i in range(16)]
    keys = reopened.store_text(model, doc)
    again = _store(tmp_path)
    assert list(again.entries) == [k.digest for k in first + keys]
    assert again.manifest_path.read_bytes().startswith(data)
    _check_accounting(again)


def test_a_reader_open_does_not_cut_a_pin_whose_append_is_half_visible(tmp_path, model, monkeypatch):
    st = _store(tmp_path)
    key = st.store_text(model, [1, 2, 3])[0]
    rec = (json.dumps({"op": "pin", "key": key.hex, "pinned": True}) + "\n").encode()
    with open(st.manifest_path, "ab") as f:
        f.write(rec[:20])  # the writer's append, half visible to the reader
    rest = [rec[20:]]

    def finish_the_write():
        while rest:
            with open(st.manifest_path, "ab") as f:
                f.write(rest.pop())

    def reader_open(path, mode="r", *args, **kwargs):
        if mode == "r+b":  # the writer's write lands before any rewrite the reader makes
            finish_the_write()
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(store_module, "open", reader_open, raising=False)
    _store(tmp_path)
    monkeypatch.undo()
    finish_the_write()
    assert _store(tmp_path).entries[key.digest].pinned


def test_crash_during_edit_keeps_old_content(tmp_path, model):
    st = _store(tmp_path)
    key = st.store_text(model, [1, 2, 3])[0]
    before = codec.decompress_cache(st.get_chunk(key))

    def boom():
        raise RuntimeError("simulated crash")

    st._crash_hook = boom
    with pytest.raises(RuntimeError):
        st.apply_edit(key, 1, {"factor": 2.0, "tokens": [0]})
    st2 = _store(tmp_path)
    after = codec.decompress_cache(st2.get_chunk(key))
    assert np.array_equal(before.v, after.v)


def test_crash_between_del_records_and_unlinks(tmp_path, model):
    st, keys = _standalone_trio(tmp_path, model)
    st.get_chunk(keys[0])  # a is now the most recent: b and c go

    def boom():
        raise RuntimeError("simulated crash")

    st._crash_hook = boom
    with pytest.raises(RuntimeError):
        st.evict_to(st.entries[keys[0].digest].size)
    assert len(list(st.blob_dir.iterdir())) == 3  # records written, nothing unlinked
    st2 = _store(tmp_path)  # replay drops b and c; their blobs are collected as orphans
    assert set(st2.entries) == {keys[0].digest}
    _check_accounting(st2)
    st2.store_text(model, [5, 6, 7, 8], mode=MODE_STANDALONE)  # and b can be stored again
    assert set(st2.entries) == {keys[0].digest, keys[1].digest}
    _check_accounting(st2)


# -- offline edits ----------------------------------------------------------------------


def test_apply_edit_scales_v_rows(tmp_path, model):
    st = _store(tmp_path)
    key = st.store_text(model, [1, 2, 3, 4])[0]
    before = codec.decompress_cache(st.get_chunk(key))
    st.apply_edit(key, 1, {"factor": 2.0, "tokens": [1, 3]})
    after = codec.decompress_cache(st.get_chunk(key))
    # K untouched; edited V rows doubled (up to requantization), others kept
    assert np.array_equal(
        codec.quantize(before, codec.CodecProfile()).codes[0],
        codec.quantize(after, codec.CodecProfile()).codes[0],
    )
    scale = np.abs(before.v[:, :, [1, 3]]).max()
    np.testing.assert_allclose(
        after.v[:, :, [1, 3]], 2.0 * before.v[:, :, [1, 3]], atol=0.05 * scale
    )


def test_apply_edit_identity_factor(tmp_path, model):
    st = _store(tmp_path)
    key = st.store_text(model, [1, 2, 3])[0]
    before = codec.decompress_cache(st.get_chunk(key))
    st.apply_edit(key, 1, {"factor": 1.0, "tokens": [0, 1, 2]})
    after = codec.decompress_cache(st.get_chunk(key))
    np.testing.assert_allclose(after.v, before.v, atol=1e-6)


def test_apply_edit_zero_factor(tmp_path, model):
    st = _store(tmp_path)
    key = st.store_text(model, [1, 2, 3])[0]
    st.apply_edit(key, 1, {"factor": 0.0, "tokens": [0]})
    after = codec.decompress_cache(st.get_chunk(key))
    np.testing.assert_allclose(after.v[:, :, 0], 0.0, atol=1e-6)


def test_apply_edit_persists_and_no_stale_blob(tmp_path, model):
    st = _store(tmp_path)
    key = st.store_text(model, [1, 2, 3])[0]
    st.apply_edit(key, 1, {"factor": 3.0, "tokens": [0]})
    assert len(list(st.blob_dir.iterdir())) == 1
    st2 = _store(tmp_path)
    after = codec.decompress_cache(st2.get_chunk(key))
    assert np.abs(after.v[:, :, 0]).max() > 0


def test_apply_edit_errors(tmp_path, model):
    st = _store(tmp_path)
    key = st.store_text(model, [1, 2, 3])[0]
    with pytest.raises(StoreError):
        st.apply_edit(key, 99, {})
    with pytest.raises(StoreError):
        st.apply_edit(key, 1, {"factor": 2.0, "tokens": [5]})
    with pytest.raises(StoreError):
        st.apply_edit(make_key(1, MODE_CHAIN, None, [8]), 1, {"factor": 2.0, "tokens": [0]})
    assert set(EDIT_TRANSFORMS) == {1}


# the default before id 3 (id 2), and id 3 before it dropped its deltas (stride 16)
@pytest.mark.parametrize("old", [codec.CodecProfile(anchor_stride=16, lossless_id=codec.LOSSLESS_VARINT_DEFLATE),
                                 codec.CodecProfile(anchor_stride=16)], ids=["id2", "id3-stride16"])
def test_a_store_of_the_older_container_reads_after_the_default_changed(tmp_path, model, old):
    assert codec.PROFILES["8bit-deflate"] != old
    tokens = [i % 32 for i in range(20)]
    keys = _store(tmp_path).store_text(model, tokens, mode=MODE_CHAIN, profile=old)
    st = _store(tmp_path)  # reopened: the manifest now meets today's default
    assert {e.codec_profile for e in st.entries.values()} == {old}
    manifest, blobs = st.manifest_path.read_bytes(), sorted(st.blob_dir.iterdir())
    assert st.store_text(model, tokens) == keys  # a default-profile re-put stores nothing
    assert st.manifest_path.read_bytes() == manifest and sorted(st.blob_dir.iterdir()) == blobs

    hits, miss = st.retrieve_text(model.model_id, tokens)
    assert [k for k, _ in hits] == keys and miss == []
    full, _ = prefill(model, tokens)
    expected = concat_caches([codec.dequantize(codec.quantize(full.slice_tokens(o, o + 8), old))
                              for o in range(0, 20, 8)])
    restored = concat_caches([codec.decompress_cache(c) for _, c in hits])
    assert np.array_equal(restored.k_pre, expected.k_pre) and np.array_equal(restored.v, expected.v)

    server = delivery.KdnServer(st, port=0)
    server.serve_in_background()
    try:
        caches, miss = delivery.Client(*server.server_address, timeout=10.0).fetch(model.model_id, MODE_CHAIN, tokens)
    finally:
        server.shutdown()
        server.server_close()
    assert miss == [] and np.array_equal(concat_caches(caches).k_pre, expected.k_pre)

    st.apply_edit(keys[0], 1, {"factor": 2.0, "tokens": [0]})
    reopened = _store(tmp_path)
    assert reopened.entries[keys[0].digest].codec_profile == old
    assert reopened.get_chunk(keys[0]).profile == old
    edited = codec.decompress_cache(reopened.get_chunk(keys[0])).v
    scale = np.abs(expected.v[:, :, :8]).max()
    np.testing.assert_allclose(edited[:, :, 0], 2.0 * expected.v[:, :, 0], atol=0.05 * scale)
    np.testing.assert_allclose(edited[:, :, 1:], expected.v[:, :, 1:8], atol=0.05 * scale)


def test_store_config_validation(tmp_path):
    with pytest.raises(StoreError):
        StoreConfig(root=tmp_path, capacity=0)
    with pytest.raises(StoreError):
        StoreConfig(root=tmp_path, chunk_size=0)
