import dataclasses
import socket
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdn import codec, delivery, fixtures
from kdn.delivery import (
    CHUNK,
    END,
    ERR,
    FRAME_MAGIC,
    REQ_KEYS,
    REQ_TOKENS,
    Client,
    FetchError,
    Frame,
    FrameDecodeError,
    FrameReader,
    KdnServer,
    LinkModel,
    ProtocolError,
    _FRAME_OVERHEAD,
    _replies,
    decode_err,
    decode_frame,
    encode_end,
    encode_frame,
    encode_token_request,
    handle_request,
    process_stream,
    simulate_fetch,
    simulate_transfer,
)
from kdn.model import ModelConfig, build_model, prefill
from kdn.store import MODE_CHAIN, MODE_STANDALONE, StoreConfig, open_store

CFG = ModelConfig(2, 2, 4, 32)


@pytest.fixture(scope="module")
def model():
    return build_model(CFG)


@pytest.fixture()
def store(tmp_path, model):
    st = open_store(StoreConfig(root=tmp_path / "store", chunk_size=8))
    st.store_text(model, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], mode=MODE_CHAIN)
    return st


@pytest.fixture(scope="module")
def fuzz_store(tmp_path_factory, model):
    # module-scoped so hypothesis can reuse it across generated examples;
    # request handling only reorders the LRU index, never the stored data
    st = open_store(StoreConfig(root=tmp_path_factory.mktemp("fuzz") / "store", chunk_size=8))
    st.store_text(model, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], mode=MODE_CHAIN)
    return st


def _bitwise_crc32c(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


# -- framing ----------------------------------------------------------------------


def test_golden_end_frame_bytes():
    # layout: "KDN1" | type | payload_len u32 LE | payload | crc32c(type+payload)
    # END payload is the miss-suffix list: u32 count, then u32 per token
    wire = encode_frame(encode_end([]))
    payload = struct.pack("<I", 0)
    expected = (
        b"KDN1"
        + bytes([END])
        + struct.pack("<I", len(payload))
        + payload
        + struct.pack("<I", _bitwise_crc32c(bytes([END]) + payload))
    )
    assert wire == expected
    assert wire.hex() == "4b444e3104040000000000000085c837a5"
    # a bare frame with no payload at all
    assert encode_frame(Frame(END)).hex() == "4b444e3104000000004ec4e795"


def test_golden_frame_with_payload():
    payload = b"\x01\x02\x03"
    wire = encode_frame(Frame(CHUNK, payload))
    assert wire[:4] == b"KDN1"
    assert wire[4] == CHUNK
    assert struct.unpack_from("<I", wire, 5)[0] == 3
    assert wire[9:12] == payload
    assert struct.unpack_from("<I", wire, 12)[0] == _bitwise_crc32c(bytes([CHUNK]) + payload)
    assert len(wire) == len(payload) + _FRAME_OVERHEAD


@settings(max_examples=80, deadline=None)
@given(
    ftype=st.sampled_from([REQ_KEYS, REQ_TOKENS, CHUNK, END, ERR]),
    payload=st.binary(max_size=512),
    lead=st.binary(max_size=16),
    trailer=st.binary(max_size=16),
)
def test_frame_roundtrip(ftype, payload, lead, trailer):
    frame = Frame(ftype, payload)
    wire = encode_frame(frame)
    decoded, consumed = decode_frame(bytearray(lead + wire + trailer), len(lead))
    assert decoded == frame
    assert consumed == len(wire)


@pytest.mark.parametrize("name", sorted(codec.PROFILES))
def test_chunk_frame_bytes_match_bitwise_reference(name):
    # the frame crc is derived from the chunk header; the bytes are those of a full pass
    blob = codec.compress_cache(fixtures.random_cache(n_tokens=8, seed=4), codec.PROFILES[name]).to_bytes()
    wire = encode_frame(Frame(CHUNK, blob))
    crc = _bitwise_crc32c(bytes([CHUNK]) + blob)
    assert wire == b"KDN1" + bytes([CHUNK]) + struct.pack("<I", len(blob)) + blob + struct.pack("<I", crc)
    assert decode_frame(wire) == (Frame(CHUNK, blob), len(wire))


def test_decode_incomplete_returns_none():
    wire = encode_frame(Frame(END, b"abcd"))
    for cut in (0, 5, 8, len(wire) - 1):
        assert decode_frame(wire[:cut]) == (None, 0)


def test_decode_bad_magic_and_crc():
    wire = bytearray(encode_frame(Frame(END, b"abcd")))
    with pytest.raises(FrameDecodeError):
        decode_frame(b"XXXX" + bytes(wire[4:]))
    wire[10] ^= 0xFF  # payload byte
    with pytest.raises(FrameDecodeError):
        decode_frame(bytes(wire))


def test_decode_rejects_oversize_and_unknown_type(monkeypatch):
    bad_len = b"KDN1" + bytes([END]) + struct.pack("<I", 1 << 30) + b"\x00" * 16
    with pytest.raises(FrameDecodeError):
        decode_frame(bad_len)
    body = bytes([99]) + b""
    wire = b"KDN1" + bytes([99]) + struct.pack("<I", 0) + struct.pack("<I", codec.crc32c(body))
    with pytest.raises(FrameDecodeError):
        decode_frame(wire)
    with pytest.raises(ProtocolError):
        encode_frame(Frame(42))
    monkeypatch.setattr(delivery, "MAX_PAYLOAD", 4)
    assert decode_frame(encode_frame(Frame(END, b"abcd")))[0] == Frame(END, b"abcd")
    with pytest.raises(ProtocolError, match="payload exceeds"):
        encode_frame(Frame(END, b"abcde"))



@pytest.mark.parametrize("bad", [-1, 1 << 32, "7"])
def test_token_request_rejects_ids_outside_u32(bad):
    with pytest.raises(ProtocolError, match="u32"):
        encode_token_request(1, MODE_CHAIN, [1, bad, 2])


# -- request handling ----------------------------------------------------------------


def test_handle_token_request(store, model):
    req = encode_token_request(model.model_id, MODE_CHAIN, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 31])
    replies = handle_request(store, req)
    assert [f.frame_type for f in replies] == [CHUNK, CHUNK, END]
    miss = list(struct.unpack_from("<I", replies[-1].payload)[0:1])
    assert miss == [1]  # one missed token
    assert struct.unpack_from("<I", replies[-1].payload, 4)[0] == 31


def test_handle_request_serves_blobs_as_stored(store, model, monkeypatch):
    def parse(cls, data):
        raise AssertionError("the server parsed a chunk")

    monkeypatch.setattr(codec.CompressedChunk, "from_bytes", classmethod(parse))
    tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    keys, _ = store.lookup(model.model_id, tokens)
    on_disk = [(store.blob_dir / store.entries[k.digest].file).read_bytes() for k in keys]
    replies = handle_request(store, encode_token_request(model.model_id, MODE_CHAIN, tokens))
    assert [f.frame_type for f in replies] == [CHUNK, CHUNK, END]
    assert [f.payload for f in replies[:-1]] == on_disk


def test_handle_malformed_requests(store):
    for frame, message in (
        (Frame(REQ_TOKENS, b"\x00"), "request payload too short"),
        (Frame(REQ_TOKENS, struct.pack("<Q", 1) + bytes([9]) + struct.pack("<I", 0)), "unknown mode byte 9"),
        (Frame(REQ_TOKENS, struct.pack("<Q", 1) + bytes([0]) + struct.pack("<I", 99)), "token list truncated"),
        (Frame(REQ_TOKENS, struct.pack("<Q", 1) + bytes([0]) + struct.pack("<2I", 1, 5) + b"13 junk bytes"),
         "13 bytes after the token list"),
        (Frame(REQ_KEYS, struct.pack("<I", 1) + bytes([1]) + b"\x00" * 32), "unexpected frame type 1"),  # reserved
        (Frame(CHUNK, b"whatever"), "unexpected frame type 3"),  # not a request
    ):
        replies = handle_request(store, frame)
        assert len(replies) == 1 and replies[0].frame_type == ERR
        assert decode_err(replies[0]) == (delivery.ERR_BAD_REQUEST, message)


def test_process_stream_happy_path(store, model):
    req = encode_frame(encode_token_request(model.model_id, MODE_CHAIN, [1, 2, 3, 4, 5, 6, 7, 8]))
    out = process_stream(store, req + req)
    types = []
    pos = 0
    while pos < len(out):
        frame, consumed = decode_frame(out[pos:])
        assert frame is not None
        types.append(frame.frame_type)
        pos += consumed
    assert types == [CHUNK, END, CHUNK, END]


def test_process_stream_resyncs_after_garbage(store, model):
    req = encode_frame(encode_token_request(model.model_id, MODE_CHAIN, [1, 2, 3]))
    out = process_stream(store, b"garbageKDN1junk" + req)
    frames = []
    pos = 0
    while pos < len(out):
        frame, consumed = decode_frame(out[pos:])
        frames.append(frame)
        pos += consumed
    assert frames[-1].frame_type == END  # real request still answered
    assert any(f.frame_type == ERR for f in frames)


def test_process_stream_refuses_an_unknown_type_before_its_payload(store, model):
    # a header of type 9 that claims 64 MiB: answered at once, not after 64 MiB
    # arrive, and the request after it is answered too
    header = FRAME_MAGIC + bytes([9]) + struct.pack("<I", delivery.MAX_PAYLOAD)
    req = encode_token_request(model.model_id, MODE_CHAIN, [1, 2, 3])
    refusal = encode_frame(delivery.encode_err(delivery.ERR_BAD_FRAME, "unknown frame type 9"))
    answer = b"".join(encode_frame(f) for f in handle_request(store, req))
    assert process_stream(store, header + encode_frame(req)) == refusal + answer


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_process_stream_totality(fuzz_store, data):
    out = process_stream(fuzz_store, data)  # must never raise
    assert isinstance(out, bytes)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_replies_do_not_depend_on_read_boundaries(fuzz_store, model, data):
    # the socket handler feeds each recv() to one FrameReader; any split of a
    # stream of requests and garbage must be answered as the whole stream is
    request = st.one_of(
        st.integers(0, 10).map(lambda n: list(range(1, n + 1))),
        st.lists(st.integers(0, 31), max_size=10),
    ).map(lambda tokens: encode_frame(encode_token_request(model.model_id, MODE_CHAIN, tokens)))
    part = st.one_of(
        request,
        request.flatmap(lambda r: st.integers(0, len(r)).map(lambda k: r[:k])),
        st.binary(max_size=24),
        st.sampled_from([FRAME_MAGIC[:k] for k in range(1, 5)]),
    )
    stream = b"".join(data.draw(st.lists(part, max_size=6)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=8)))
    reader = FrameReader()
    out = b""
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        reader.feed(stream[lo:hi])
        out += b"".join(_replies(fuzz_store, reader))
    assert out == process_stream(fuzz_store, stream)


def test_garbage_split_across_reads_gets_one_err(fuzz_store, model):
    req = encode_frame(encode_token_request(model.model_id, MODE_CHAIN, [1, 2, 3, 4, 5, 6, 7, 8]))
    reader = FrameReader()
    types = []
    for piece in (b"garbage!!", b"more garbage, no magic K", b"D", b"N", req[3:]):
        reader.feed(piece)
        types += [decode_frame(wire)[0].frame_type for wire in _replies(fuzz_store, reader)]
    assert types == [ERR, CHUNK, END]


def test_a_reply_holds_one_blob_at_a_time(tmp_path):
    # a standalone token request hits its chunk once for each time it repeats it
    mdl = build_model(ModelConfig(4, 4, 16, 256))
    st = open_store(StoreConfig(root=tmp_path / "store", chunk_size=64))
    chunk = list(range(64))
    (key,) = st.store_text(mdl, chunk, mode=MODE_STANDALONE)

    def peak(repeats):
        reader = FrameReader()
        reader.feed(encode_frame(encode_token_request(mdl.model_id, MODE_STANDALONE, chunk * repeats)))
        tracemalloc.start()
        try:
            types = [decode_frame(wire)[0].frame_type for wire in _replies(st, reader)]
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert types == [CHUNK] * repeats + [END]
        return top

    peak(1)  # first-call allocations
    assert peak(12) - peak(3) < st.entries[key.digest].size


def test_a_blob_that_fails_to_read_ends_the_reply_with_err(store, model):
    tokens = list(range(1, 11))
    keys, _ = store.lookup(model.model_id, tokens)
    (store.blob_dir / store.entries[keys[1].digest].file).unlink()  # lost at rest while the store is open
    replies = handle_request(store, encode_token_request(model.model_id, MODE_CHAIN, tokens))
    assert [f.frame_type for f in replies] == [CHUNK, ERR]
    assert decode_err(replies[1])[0] == delivery.ERR_INTERNAL


@settings(max_examples=60, deadline=None)
@given(pos=st.integers(0, 10_000), bit=st.integers(0, 7))
def test_process_stream_mutated_request(fuzz_store, model, pos, bit):
    req = bytearray(encode_frame(encode_token_request(model.model_id, MODE_CHAIN, [1, 2, 3])))
    req[pos % len(req)] ^= 1 << bit
    process_stream(fuzz_store, bytes(req))


# -- TCP end to end --------------------------------------------------------------------


def test_tcp_end_to_end(store, model):
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        host, port = server.server_address
        client = Client(host, port, timeout=10.0)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        caches, miss = client.fetch(model.model_id, MODE_CHAIN, tokens + [31])
        assert miss == [31]
        assert [c.n_tokens for c in caches] == [8, 2]
        assert [c.start_pos for c in caches] == [0, 8]
        # element-exact vs the store-side decompressed chunks
        hits, _ = store.retrieve_text(model.model_id, tokens)
        for got, (_, chunk) in zip(caches, hits):
            want = codec.decompress_cache(chunk)
            assert np.array_equal(got.k_pre, want.k_pre)
            assert np.array_equal(got.v, want.v)
        # miss-only query
        caches, miss = client.fetch(model.model_id, MODE_CHAIN, [30, 30])
        assert caches == [] and miss == [30, 30]
        # a standalone miss suffix holds the missed chunks' tokens, wherever they are
        store.store_text(model, [9, 10, 11, 12, 13, 14, 15, 16], mode=MODE_STANDALONE)
        caches, miss = client.fetch(model.model_id, MODE_STANDALONE, [30] * 8 + [9, 10, 11, 12, 13, 14, 15, 16])
        assert [(c.n_tokens, c.start_pos) for c in caches] == [(8, 0)] and miss == [30] * 8
    finally:
        server.shutdown()
        server.server_close()


def test_fetch_from_a_closed_port_is_not_retried(store, model, monkeypatch):
    server = KdnServer(store, port=0)
    server.server_close()  # bound, never served: a connection to it is refused
    client = Client(*server.server_address, timeout=10.0)
    requests = []
    receive = client._receive
    monkeypatch.setattr(client, "_receive", lambda req, *expect: requests.append(req) or receive(req, *expect))
    with pytest.raises(FetchError, match="^fetch failed: "):
        client.fetch(model.model_id, MODE_CHAIN, [1, 2, 3])
    assert len(requests) == 1


def test_tcp_server_survives_garbage_then_serves(store, model):
    import socket

    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        host, port = server.server_address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"\x00" * 64 + b"KDN1\xff")
            sock.settimeout(2.0)
            data = sock.recv(65536)
            frame, _ = decode_frame(data)
            assert frame.frame_type == ERR
        client = Client(host, port, timeout=10.0)
        caches, miss = client.fetch(model.model_id, MODE_CHAIN, [1, 2, 3, 4, 5, 6, 7, 8])
        assert miss == [] and len(caches) == 1
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_server_closes_an_idle_connection(store, monkeypatch):
    monkeypatch.setattr(delivery, "IDLE_TIMEOUT_S", 0.2)
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        with socket.create_connection(server.server_address, timeout=5.0) as sock:
            assert sock.recv(1) == b""  # EOF, not a timeout of this recv
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_server_closes_a_connection_past_its_cap(store, model, monkeypatch):
    monkeypatch.setattr(delivery, "MAX_CONNECTIONS", 1)
    tokens = [1, 2, 3, 4, 5, 6, 7, 8]
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        client = Client(*server.server_address, timeout=10.0)
        with socket.create_connection(server.server_address, timeout=5.0) as held:
            # an answered request shows that the held connection has the one handler
            held.sendall(encode_frame(encode_token_request(model.model_id, MODE_CHAIN, tokens)))
            assert _read_until_end(held) == [CHUNK, END]
            with pytest.raises(FetchError):
                client.fetch(model.model_id, MODE_CHAIN, tokens)
            held.shutdown(socket.SHUT_WR)
            assert held.recv(1) == b""  # the handler saw EOF and ended
        caches, miss = client.fetch(model.model_id, MODE_CHAIN, tokens)
        assert miss == [] and [c.n_tokens for c in caches] == [8]
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_fetch_memory_does_not_grow_with_the_stored_group_size(tmp_path, model):
    # one-token chunks stored with a group size far past their length each
    # decode into a cache of their own size, not a group-size-long padding
    st = open_store(StoreConfig(root=tmp_path / "store", chunk_size=1))
    tokens = [1, 2, 3, 4, 5, 6, 7, 8]
    st.store_text(model, tokens, mode=MODE_CHAIN, profile=codec.CodecProfile(group_size=65535))
    server = KdnServer(st, port=0)
    server.serve_in_background()
    try:
        client = Client(*server.server_address, timeout=10.0)
        tracemalloc.start()
        try:
            caches, miss = client.fetch(model.model_id, MODE_CHAIN, tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        server.shutdown()
        server.server_close()
    assert miss == [] and [c.n_tokens for c in caches] == [1] * 8
    assert peak < 1 << 20


def _read_until_end(sock) -> list[int]:
    reader = FrameReader()
    types: list[int] = []
    while not types or types[-1] != END:
        frame = reader.next()
        if frame is None:
            data = sock.recv(65536)
            assert data, "connection closed before END"
            reader.feed(data)
        else:
            types.append(frame.frame_type)
    return types


def test_tcp_magic_split_across_reads_is_answered(store, model):
    req = encode_frame(encode_token_request(model.model_id, MODE_CHAIN, [1, 2, 3, 4, 5, 6, 7, 8]))
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        with socket.create_connection(server.server_address, timeout=5.0) as sock:
            sock.sendall(b"garbage!!" + req[:2])
            time.sleep(0.2)  # let the server read the first piece on its own
            sock.sendall(req[2:])
            assert _read_until_end(sock) == [ERR, CHUNK, END]
    finally:
        server.shutdown()
        server.server_close()


# the server refuses a blob whose header is damaged at rest, and the client
# does not retry its ERR; a damaged payload is served, fails the client's chunk
# crc check and is retried once
@pytest.mark.parametrize("offset, tries", [(0, 1), (-10, 2)], ids=["chunk-magic", "payload-byte"])
def test_tcp_corrupt_blob_fails_fetch_and_server_serves_others(store, model, monkeypatch, offset, tries):
    tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    keys, _ = store.lookup(model.model_id, tokens)
    path = store.blob_dir / store.entries[keys[1].digest].file
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        client = Client(*server.server_address, timeout=10.0)
        requests = []
        receive = client._receive
        monkeypatch.setattr(client, "_receive", lambda req, *expect: requests.append(req) or receive(req, *expect))
        with pytest.raises(FetchError):
            client.fetch(model.model_id, MODE_CHAIN, tokens)
        assert len(requests) == tries
        caches, miss = client.fetch(model.model_id, MODE_CHAIN, tokens[:8])
        assert [c.n_tokens for c in caches] == [8] and miss == []
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_fetch_refuses_a_header_rewritten_at_rest(store, model):
    # anchor_stride 1 -> 8: the chunk crc covers only the payload, so the blob
    # is still a valid chunk and would decode to wrong K/V; the server checks
    # the header against the manifest entry and answers ERR instead
    tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    keys, _ = store.lookup(model.model_id, tokens)
    path = store.blob_dir / store.entries[keys[1].digest].file
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, 8, 8)
    path.write_bytes(bytes(blob))
    assert codec.CompressedChunk.from_bytes(bytes(blob)).profile.anchor_stride == 8
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        client = Client(*server.server_address, timeout=10.0)
        with pytest.raises(FetchError, match="server error"):
            client.fetch(model.model_id, MODE_CHAIN, tokens)
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_fetch_refuses_a_chain_chunk_whose_start_pos_was_rewritten_at_rest(store, model):
    # start_pos is outside the chunk crc; the server checks it against the
    # position in the chunk's manifest entry and answers ERR
    tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    keys, _ = store.lookup(model.model_id, tokens)
    path = store.blob_dir / store.entries[keys[1].digest].file
    chunk = codec.CompressedChunk.from_bytes(path.read_bytes())
    assert chunk.start_pos == 8
    path.write_bytes(dataclasses.replace(chunk, start_pos=100).to_bytes())
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        client = Client(*server.server_address, timeout=10.0)
        with pytest.raises(FetchError, match="server error .* at position 100, expected 8"):
            client.fetch(model.model_id, MODE_CHAIN, tokens)
        caches, miss = client.fetch(model.model_id, MODE_CHAIN, tokens[:8])
        assert [c.start_pos for c in caches] == [0] and miss == []
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("damage", ["short", "inconsistent"])
def test_tcp_fetch_refuses_a_chunk_whose_sections_do_not_frame_its_payload(store, model, damage):
    # crc-valid, and its header agrees with the manifest, so the server serves
    # it; the client's decode refuses it, and again on the retry
    tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    keys, _ = store.lookup(model.model_id, tokens)
    path = store.blob_dir / store.entries[keys[1].digest].file
    chunk = codec.CompressedChunk.from_bytes(path.read_bytes())
    params_len, codes_len = struct.unpack_from("<II", chunk.payload)
    if damage == "short":
        payload = chunk.payload[:7]
    else:
        payload = struct.pack("<II", params_len, codes_len + 1) + chunk.payload[8:]
    path.write_bytes(dataclasses.replace(chunk, payload=payload, crc=codec.crc32c(payload)).to_bytes())
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        client = Client(*server.server_address, timeout=10.0)
        with pytest.raises(FetchError, match="section lengths"):
            client.fetch(model.model_id, MODE_CHAIN, tokens)
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("offset", [21, 60], ids=["header-start-pos", "payload-byte"])
def test_tcp_chunk_flipped_in_transit_fails_fetch(store, model, monkeypatch, offset):
    # a damaged header fails the frame check; a damaged payload passes it (the
    # frame crc is derived from the chunk header) and fails the chunk crc
    encode = delivery.encode_frame

    def encode_and_flip(frame):
        wire = bytearray(encode(frame))
        if frame.frame_type == CHUNK:
            wire[9 + offset] ^= 0x01  # after the frame crc was computed
        return bytes(wire)

    monkeypatch.setattr(delivery, "encode_frame", encode_and_flip)
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        client = Client(*server.server_address, timeout=10.0)
        requests = []
        receive = client._receive
        monkeypatch.setattr(client, "_receive", lambda req, *expect: requests.append(req) or receive(req, *expect))
        with pytest.raises(FetchError):
            client.fetch(model.model_id, MODE_CHAIN, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert len(requests) == 2  # the first try and its one retry
    finally:
        server.shutdown()
        server.server_close()


def _zero_chunk(L, H, D, T, start_pos=0) -> bytes:
    """A crc-valid default-container chunk of zeros: a few KB, whatever geometry it claims."""
    params = zlib.compress(bytes(16 * L * H * -(-T // 16) * D), 9)
    codes = zlib.compress(bytes(2 * L * H * T * D), 9)
    payload = struct.pack("<II", len(params), len(codes)) + params + codes
    return codec.CompressedChunk(codec.CodecProfile(), L, H, D, T, start_pos, 8 * L * H * T * D,
                                 payload, codec.crc32c(payload)).to_bytes()


@pytest.fixture(scope="module")
def reply_chunks(model):
    full, _ = prefill(model, list(range(16)))
    return {
        "at 0": codec.compress_cache(full.slice_tokens(0, 8), codec.CodecProfile()).to_bytes(),
        "at 8": codec.compress_cache(full.slice_tokens(8, 16), codec.CodecProfile()).to_bytes(),
        # would decode to 8 MB of K/V
        "65536 tokens": _zero_chunk(CFG.n_layers, CFG.n_heads, CFG.d_head, 65536),
        # would decode to 4 MB of K/V
        "32x32x64 at 8": _zero_chunk(32, 32, 64, 8, start_pos=8),
        "0 tokens": _zero_chunk(CFG.n_layers, CFG.n_heads, CFG.d_head, 0),
    }


# (mode and token count of the request; the chunks of the reply and its END
# suffix; the refusal)
@pytest.mark.parametrize("request_, reply, suffix, match", [
    ((MODE_CHAIN, 16), ["at 0", "at 0"], [], "at position 0, expected 8"),
    ((MODE_STANDALONE, 8), ["at 8"], [], "at position 8, expected 0"),
    ((MODE_CHAIN, 10), ["at 0", "at 8"], [], "chunk of 8 tokens, expected at most 2"),
    ((MODE_CHAIN, 10), ["65536 tokens"], [], "chunk of 65536 tokens, expected at most 10"),
    ((MODE_CHAIN, 16), ["at 0", "32x32x64 at 8"], [], r"geometry \(32, 32, 64\), expected \(2, 2, 4\)"),
    # zero-token chunks are the one way a reply meets its cap of one chunk per token
    ((MODE_CHAIN, 1), ["0 tokens", "0 tokens"], [], "reply holds more than 1 chunks"),
    ((MODE_CHAIN, 16), ["at 0"], list(range(8, 20)), "miss suffix of 12 tokens does not match the 8 tokens left"),
    ((MODE_CHAIN, 16), ["at 0"], list(range(9, 17)), "miss suffix of 8 tokens does not match the 8 tokens left"),
    ((MODE_STANDALONE, 16), ["at 0"], [0, 1, 2, 3], "miss suffix of 4 tokens does not match the 8 tokens left"),
    # an END payload as raw bytes: a count cut short, a count of 5 with no tokens, and bytes after an empty list
    ((MODE_CHAIN, 8), [], b"\x01", "malformed END frame: token list count truncated"),
    ((MODE_CHAIN, 8), [], b"\x05\x00\x00\x00", "malformed END frame: token list truncated"),
    ((MODE_CHAIN, 8), [], struct.pack("<I", 0) + b"junk", "malformed END frame: 4 bytes after the token list"),
    # the last frame whole: an ERR frame too short for its code
    ((MODE_CHAIN, 8), [], Frame(ERR, b"\x01"), "malformed ERR frame: error code truncated"),
], ids=["chain-off-position", "standalone-off-position", "past-the-tokens-left", "claims-65536-tokens",
        "geometry-of-another-model", "more-chunks-than-tokens", "chain-suffix-past-the-request",
        "chain-suffix-of-other-tokens", "standalone-suffix-short",
        "end-count-cut", "end-tokens-cut", "end-trailing-bytes", "err-code-cut"])
def test_fetch_refuses_a_reply_it_did_not_ask_for_before_inflating_it(
    model, reply_chunks, monkeypatch, request_, reply, suffix, match
):
    end = encode_end(suffix) if isinstance(suffix, list) else suffix
    end = Frame(END, end) if isinstance(end, bytes) else end
    frames = [Frame(CHUNK, reply_chunks[name]) for name in reply] + [end]
    monkeypatch.setattr(delivery, "_answer", lambda store, frame: frames)
    server = KdnServer(None, port=0)
    server.serve_in_background()
    try:
        client = Client(*server.server_address, timeout=10.0)
        requests = []
        receive = client._receive
        monkeypatch.setattr(client, "_receive", lambda req, *expect: requests.append(req) or receive(req, *expect))
        tracemalloc.start()
        try:
            with pytest.raises(FetchError, match=match):
                client.fetch(model.model_id, request_[0], list(range(request_[1])))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(requests) == 2  # the first try and its one retry
        assert peak < 1 << 20
    finally:
        server.shutdown()
        server.server_close()


# -- link simulator ---------------------------------------------------------------------


def test_simulate_transfer_trivials():
    # 2 GiB over 8 GiB/s is a quarter second
    assert simulate_transfer(LinkModel(bandwidth=8 * 2**30), 2 * 2**30) == pytest.approx(0.25)
    assert simulate_transfer(LinkModel(bandwidth=100.0, latency=0.5), 0) == pytest.approx(0.5)
    assert simulate_transfer(LinkModel(bandwidth=50.0, latency=0.1), 100) == pytest.approx(2.1)
    with pytest.raises(ValueError):
        LinkModel(bandwidth=0.0)


def test_simulate_fetch_accounting():
    link = LinkModel(bandwidth=1000.0, latency=0.01)
    sizes = [100, 200, 300]
    total = simulate_fetch(link, sizes)
    expected = sum(0.01 + (s + _FRAME_OVERHEAD) / 1000.0 for s in sizes)
    assert total == pytest.approx(expected, rel=1e-12)
    assert simulate_fetch(link, []) == 0.0


def test_simulate_fetch_matches_closed_form_within_10pct(store, model):
    hits, _ = store.retrieve_text(model.model_id, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    sizes = [len(chunk.to_bytes()) for _, chunk in hits]
    link = LinkModel(bandwidth=1e6, latency=1e-3)
    measured = simulate_fetch(link, sizes)
    closed = sum(sizes) / link.bandwidth + len(sizes) * link.latency
    assert abs(measured - closed) <= 0.10 * closed
