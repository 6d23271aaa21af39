"""Framed binary delivery protocol plus a virtual-clock link simulator.

Wire layout per frame, little-endian:

    "KDN1" | type u8 | payload_len u32 | payload | crc32c u32

The crc covers type byte plus payload.  Requests by token text answer with
zero or more CHUNK frames (compressed-chunk blobs as stored, in token order)
followed by END carrying the miss-suffix token list.

A CHUNK frame's crc is built without reading its payload: CRC-32C values
compose, and a chunk's payload followed by its stored payload crc has a fixed
crc, so ``codec.chunk_crc32c`` derives the frame crc from the type byte and
the chunk header.  The wire bytes are those of a crc over every byte whenever
the stored crc is right.  Both ends derive it the same way, so the frame check
catches a damaged header or length, and the client's chunk crc check (one
pass over the payload) catches a damaged payload or trailer, in transit or at
rest.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from typing import Iterator

from . import codec
from .model import KvCache, rebase
from .store import MODE_CHAIN, MODE_STANDALONE, ChunkKey, Store

log = logging.getLogger(__name__)

FRAME_MAGIC = b"KDN1"
MAX_PAYLOAD = 64 * 1024 * 1024
_FRAME_OVERHEAD = 13  # magic + type + len + crc

REQ_KEYS = 1
REQ_TOKENS = 2
CHUNK = 3
END = 4
ERR = 5
_FRAME_TYPES = {REQ_KEYS, REQ_TOKENS, CHUNK, END, ERR}
# the frame crc continues from the type byte's crc over the payload
_TYPE_CRC = {t: codec.crc32c(bytes([t])) for t in _FRAME_TYPES}

ERR_BAD_FRAME = 1
ERR_BAD_REQUEST = 2
ERR_INTERNAL = 3

_MODE_BYTE = {MODE_CHAIN: 0, MODE_STANDALONE: 1}
_BYTE_MODE = {v: k for k, v in _MODE_BYTE.items()}


class ProtocolError(Exception):
    pass


class FrameDecodeError(ProtocolError):
    pass


class FetchError(ProtocolError):
    pass


@dataclass(frozen=True)
class Frame:
    frame_type: int
    payload: bytes = b""


@dataclass(frozen=True)
class LinkModel:
    """Single-tier link: fixed bandwidth plus a per-frame latency."""

    bandwidth: float  # bytes/second
    latency: float = 0.0  # seconds per frame

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


def _frame_crc(ftype: int, payload: bytes) -> int:
    # a CHUNK frame's crc comes from the chunk header alone, so neither side
    # reads the payload here; the client's chunk check reads it once
    crc = _TYPE_CRC[ftype]
    return codec.chunk_crc32c(payload, crc) if ftype == CHUNK else codec.crc32c(payload, crc)


def encode_frame(frame: Frame) -> bytes:
    if frame.frame_type not in _FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame.frame_type}")
    if len(frame.payload) > MAX_PAYLOAD:
        raise ProtocolError("payload exceeds 64 MiB")
    crc = _frame_crc(frame.frame_type, frame.payload)
    return b"".join((FRAME_MAGIC, bytes([frame.frame_type]), struct.pack("<I", len(frame.payload)),
                     frame.payload, struct.pack("<I", crc)))


def decode_frame(data: bytes, start: int = 0) -> tuple[Frame | None, int]:
    """Streaming-safe decode at ``data[start:]``: (None, 0) means more bytes are needed."""
    if len(data) - start < 9:
        return None, 0
    if data[start : start + 4] != FRAME_MAGIC:
        raise FrameDecodeError("bad frame magic")
    ftype = data[start + 4]
    (plen,) = struct.unpack_from("<I", data, start + 5)
    if plen > MAX_PAYLOAD:
        raise FrameDecodeError(f"oversize payload ({plen} bytes)")
    total = 9 + plen + 4
    if len(data) - start < total:
        return None, 0
    if ftype not in _FRAME_TYPES:
        raise FrameDecodeError(f"unknown frame type {ftype}")
    with memoryview(data) as view:  # released at once: a FrameReader resizes its buffer
        payload = view[start + 9 : start + 9 + plen].tobytes()
    (crc,) = struct.unpack_from("<I", data, start + 9 + plen)
    if _frame_crc(ftype, payload) != crc:
        raise FrameDecodeError("frame crc32c mismatch")
    return Frame(ftype, payload), total


class FrameReader:
    """Incremental frame decoder for one connection: ``feed`` it received
    bytes and take whole frames from ``next``.  After ``next`` raises
    FrameDecodeError, ``resync`` skips to the next frame magic past the bad
    frame's start, across later feeds if need be."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0
        self._scanning = False  # resyncing, next magic not seen yet

    def feed(self, data: bytes) -> None:
        del self._buf[: self._pos]  # consumed bytes go once per read, not once per frame
        self._pos = 0
        self._buf += data

    def next(self) -> Frame | None:
        """The next whole frame, or None until more bytes arrive."""
        if self._scanning:
            found = self._buf.find(FRAME_MAGIC, self._pos)
            if found < 0:
                # keep a tail that may be the start of a magic split by the read
                keep = max(k for k in range(4) if self._buf.endswith(FRAME_MAGIC[:k]))
                self._pos = len(self._buf) - keep
                return None
            self._pos, self._scanning = found, False
        frame, consumed = decode_frame(self._buf, self._pos)
        self._pos += consumed
        return frame

    def resync(self) -> None:
        self._pos += 1
        self._scanning = True


def encode_token_request(model_id: int, mode: str, tokens: list[int]) -> Frame:
    payload = (
        struct.pack("<Q", model_id)
        + bytes([_MODE_BYTE[mode]])
        + struct.pack(f"<I{len(tokens)}I", len(tokens), *tokens)
    )
    return Frame(REQ_TOKENS, payload)


def encode_key_request(keys: list[ChunkKey]) -> Frame:
    payload = struct.pack("<I", len(keys))
    for k in keys:
        payload += bytes([_MODE_BYTE[k.mode]]) + k.digest
    return Frame(REQ_KEYS, payload)


def _decode_token_list(data: bytes, offset: int) -> list[int]:
    (n,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) - offset < 4 * n:
        raise ProtocolError("token list truncated")
    return list(struct.unpack_from(f"<{n}I", data, offset)) if n else []


def encode_end(miss_suffix: list[int]) -> Frame:
    return Frame(END, struct.pack(f"<I{len(miss_suffix)}I", len(miss_suffix), *miss_suffix))


def encode_err(code: int, message: str) -> Frame:
    return Frame(ERR, struct.pack("<H", code) + message.encode("utf-8"))


def decode_err(frame: Frame) -> tuple[int, str]:
    (code,) = struct.unpack_from("<H", frame.payload)
    return code, frame.payload[2:].decode("utf-8", errors="replace")


def handle_request(store: Store, frame: Frame) -> list[Frame]:
    """Answer one request frame with CHUNK* (blobs as stored) END, or a single ERR."""
    try:
        if frame.frame_type == REQ_TOKENS:
            payload = frame.payload
            if len(payload) < 13:
                return [encode_err(ERR_BAD_REQUEST, "request payload too short")]
            (model_id,) = struct.unpack_from("<Q", payload)
            mode_byte = payload[8]
            if mode_byte not in _BYTE_MODE:
                return [encode_err(ERR_BAD_REQUEST, f"unknown mode byte {mode_byte}")]
            tokens = _decode_token_list(payload, 9)
            keys, miss = store.lookup(model_id, tokens, _BYTE_MODE[mode_byte])
            frames = [Frame(CHUNK, store.read_blob(key)) for key in keys]
            frames.append(encode_end(miss))
            return frames
        if frame.frame_type == REQ_KEYS:
            payload = frame.payload
            if len(payload) < 4:
                return [encode_err(ERR_BAD_REQUEST, "request payload too short")]
            (n,) = struct.unpack_from("<I", payload)
            if len(payload) != 4 + 33 * n:
                return [encode_err(ERR_BAD_REQUEST, "key list length mismatch")]
            frames = []
            for i in range(n):
                off = 4 + 33 * i
                mode_byte = payload[off]
                if mode_byte not in _BYTE_MODE:
                    return [encode_err(ERR_BAD_REQUEST, f"unknown mode byte {mode_byte}")]
                key = ChunkKey(payload[off + 1 : off + 33], _BYTE_MODE[mode_byte])
                if key.digest in store.entries:
                    frames.append(Frame(CHUNK, store.read_blob(key)))
            frames.append(encode_end([]))
            return frames
        return [encode_err(ERR_BAD_REQUEST, f"unexpected frame type {frame.frame_type}")]
    except ProtocolError as e:
        return [encode_err(ERR_BAD_REQUEST, str(e))]
    except Exception as e:  # the server must survive arbitrary input
        log.exception("request handling failed")
        return [encode_err(ERR_INTERNAL, f"{type(e).__name__}: {e}")]


def _replies(store: Store, reader: FrameReader) -> Iterator[bytes]:
    """Encoded answers to the whole requests in ``reader``; ERR_BAD_FRAME and a resync per bad frame."""
    while True:
        try:
            frame = reader.next()
        except FrameDecodeError as e:
            yield encode_frame(encode_err(ERR_BAD_FRAME, str(e)))
            reader.resync()
            continue
        if frame is None:
            return
        for reply in handle_request(store, frame):
            yield encode_frame(reply)


def process_stream(store: Store, data: bytes) -> bytes:
    """The server's replies to ``data`` arriving on one connection."""
    reader = FrameReader()
    reader.feed(data)
    return b"".join(_replies(store, reader))


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        reader = FrameReader()
        try:
            for chunk in iter(lambda: self.request.recv(65536), b""):
                reader.feed(chunk)
                for reply in _replies(self.server.store, reader):
                    self.request.sendall(reply)
        except OSError:
            pass  # the client went away


class KdnServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.store = store

    def serve_in_background(self) -> threading.Thread:
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t


def serve(store: Store, host: str = "127.0.0.1", port: int = 7311) -> KdnServer:
    return KdnServer(store, host, port)


class Client:
    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _roundtrip(self, request: Frame) -> list[Frame]:
        with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock:
            sock.sendall(encode_frame(request))
            reader = FrameReader()
            frames: list[Frame] = []
            for chunk in iter(lambda: sock.recv(65536), b""):
                reader.feed(chunk)
                while (frame := reader.next()) is not None:
                    frames.append(frame)
                    if frame.frame_type in (END, ERR):
                        return frames
            raise FetchError("connection closed before END")

    def fetch(self, model_id: int, mode: str, tokens: list[int]) -> tuple[list[KvCache], list[int]]:
        """Retrieve-by-text: decode, crc-check, decompress and re-base.

        Each CHUNK frame's crc is checked against the one derived from its
        chunk header; then the chunk crc check reads the payload once, and
        vouches for the frame crc too.  Chain chunks are re-based to
        consecutive positions.
        """
        return self._fetch(encode_token_request(model_id, mode, tokens), mode)

    def fetch_keys(self, keys: list[ChunkKey]) -> list[KvCache]:
        caches, _ = self._fetch(encode_key_request(keys), MODE_STANDALONE)
        return caches

    def _fetch(self, request: Frame, mode: str) -> tuple[list[KvCache], list[int]]:
        """A corrupt frame or chunk (crc or decode failure) is retried once before giving up."""
        last_err: Exception | None = None
        for _ in range(2):
            try:
                return _assemble(self._roundtrip(request), mode)
            except (codec.CodecError, FrameDecodeError) as e:
                last_err = e
        raise FetchError(f"fetch failed after retry: {last_err}")


def _assemble(frames: list[Frame], mode: str) -> tuple[list[KvCache], list[int]]:
    caches: list[KvCache] = []
    miss: list[int] = []
    offset = 0
    for frame in frames:
        if frame.frame_type == CHUNK:
            chunk = codec.CompressedChunk.from_bytes(frame.payload)
            cache = codec.decompress_cache(chunk)
            if mode == MODE_CHAIN:
                cache = rebase(cache, offset)
                offset += cache.n_tokens
            caches.append(cache)
        elif frame.frame_type == END:
            miss = _decode_token_list(frame.payload, 0)
        elif frame.frame_type == ERR:
            code, message = decode_err(frame)
            raise FetchError(f"server error {code}: {message}")
    return caches, miss


def simulate_transfer(link: LinkModel, nbytes: int) -> float:
    """Seconds to move ``nbytes`` over the link: latency + bytes/bandwidth."""
    return link.latency + nbytes / link.bandwidth


def simulate_fetch(link: LinkModel, chunk_sizes: list[int]) -> float:
    """Virtual-clock completion time for a fetch of the given chunk frames.

    Deterministic accounting: each chunk frame pays one latency plus its
    framed bytes over the bandwidth.
    """
    clock = 0.0
    for size in chunk_sizes:
        clock += link.latency + (size + _FRAME_OVERHEAD) / link.bandwidth
    return clock
