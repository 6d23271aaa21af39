import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdn import codec
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
    restored = concat_caches(
        [codec.decompress_cache(chunk) for _, chunk in hits], start_pos=0
    )
    profile = codec.CodecProfile()
    expected_parts = []
    off = 0
    for k in keys:
        n = len(st.entries[k.digest].tokens)
        expected_parts.append(
            codec.dequantize(codec.quantize(full.slice_tokens(off, off + n), profile))
        )
        off += n
    expected = concat_caches(expected_parts, start_pos=0)
    assert np.array_equal(restored.k_pre, expected.k_pre)
    assert np.array_equal(restored.v, expected.v)


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


@pytest.mark.parametrize("profile", sorted(codec.PROFILES))
def test_blob_is_canonical_chunk_bytes(tmp_path, model, profile):
    # the server sends blobs unparsed, so a blob must be byte-equal to what
    # parsing and re-serializing it gives
    st = _store(tmp_path)
    keys = st.store_text(model, [i % 32 for i in range(20)], profile=codec.PROFILES[profile])
    for key in keys:
        blob = st.read_blob(key)
        assert blob == codec.CompressedChunk.from_bytes(blob).to_bytes()


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
        assert st.read_blob(key) == codec.compress_cache(cache, codec.CodecProfile()).to_bytes()


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
    return [{k: v for k, v in json.loads(line).items() if k != "created"}
            for line in store.manifest_path.read_text().splitlines()]


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
    return len(codec.compress_cache(cache, codec.CodecProfile()).to_bytes())


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
    st.tuples(st.just("pin"), st.integers(0, 20), st.booleans()),
    st.tuples(st.just("edit"), st.integers(0, 20), st.sampled_from([0.5, 1.0, 2.0])),
    st.tuples(st.just("evict"), st.integers(0, 4)),
    st.tuples(st.just("reopen")),
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_STORE_OPS, max_size=12))
def test_running_totals_match_entries(model, ops):
    one = _blob_size(model, [1, 2, 3, 4])
    with tempfile.TemporaryDirectory() as tmp:
        config = StoreConfig(root=Path(tmp), capacity=5 * one, chunk_size=4)
        store = open_store(config)
        # the chain's first chunk and the standalone chunk of the same tokens
        # are the same bytes, so two keys start out sharing one blob file
        store.store_text(model, _DOCS[0], mode=MODE_CHAIN)
        store.store_text(model, _DOCS[0], mode=MODE_STANDALONE)
        assert len({e.file for e in store.entries.values()}) < len(store.entries)
        for op in ops:
            keys = sorted(store.entries)
            if op[0] == "put":
                try:
                    store.store_text(model, _DOCS[op[2]], mode=op[1])
                except CapacityError:
                    pass
            elif op[0] in ("pin", "edit") and keys:
                key = store.entries[keys[op[1] % len(keys)]].key
                if op[0] == "pin":
                    store.pin(key, op[2])
                else:
                    store.apply_edit(key, 1, {"factor": op[2], "tokens": [0]})
            elif op[0] == "evict":
                try:
                    store.evict_to(op[1] * one)
                except CapacityError:
                    pass
            elif op[0] == "reopen":
                before = set(store.entries)
                store = open_store(config)
                assert set(store.entries) == before
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


def test_corrupt_manifest_line_skipped(tmp_path, model):
    st = _store(tmp_path)
    keys = st.store_text(model, [1, 2, 3])
    with open(st.manifest_path, "a") as f:
        f.write("{not json\n")
        f.write(json.dumps({"op": "put", "key": "zz"}) + "\n")
    st2 = _store(tmp_path)
    assert set(st2.entries) == {k.digest for k in keys}


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
        codec.quantize(before, codec.CodecProfile()).k_codes,
        codec.quantize(after, codec.CodecProfile()).k_codes,
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


def test_store_config_validation(tmp_path):
    with pytest.raises(StoreError):
        StoreConfig(root=tmp_path, capacity=0)
    with pytest.raises(StoreError):
        StoreConfig(root=tmp_path, chunk_size=0)
