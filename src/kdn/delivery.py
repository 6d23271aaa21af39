"""Framed binary delivery protocol plus a virtual-clock link simulator.

Wire layout per frame, little-endian:

    "KDN1" | type u8 | payload_len u32 | payload | crc32c u32

The crc covers type byte plus payload.  A request's reply is
``CHUNK* (END | ERR)``: compressed-chunk blobs as stored, in token order,
then END carrying the miss-suffix token list.  The server reads each
blob as it sends its frame, so a blob that fails to read ends the reply with
ERR after the CHUNK frames sent before it.  Any frame but a well-formed token
request (type 1 is reserved) is answered with one ERR.

A CHUNK frame's crc is built without reading its payload: CRC-32C values
compose, and a chunk's payload followed by its stored payload crc has a fixed
crc, so ``codec.chunk_crc32c`` derives the frame crc from the type byte and
the chunk header.  The wire bytes are those of a crc over every byte whenever
the stored crc is right.  Both ends derive it the same way, so the frame check
catches a header or length damaged in transit, and the client's chunk crc
check (one pass over the payload) catches a damaged payload or trailer, in
transit or at rest.  A header that disagrees with its manifest entry at rest
(position, token count or profile) is refused by ``Store.read_blob``, and the
server answers ERR.  The client checks each header against its request, with
``codec.read_header``, before it inflates the chunk, and the END frame's miss
suffix against the tokens the reply left.
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
from .model import KvCache
from .store import MODE_CHAIN, MODE_CODE, ChunkKey, Store

log = logging.getLogger(__name__)

FRAME_MAGIC = b"KDN1"
MAX_PAYLOAD = 64 * 1024 * 1024
_FRAME_OVERHEAD = 13  # magic + type + len + crc

REQ_KEYS = 1  # reserved: a request frame of this type is answered with ERR
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

IDLE_TIMEOUT_S = 60.0  # seconds a server connection may stay silent
MAX_CONNECTIONS = 64  # connections a server handles at once; one past them is closed at accept

_BYTE_MODE = {v: k for k, v in MODE_CODE.items()}


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
    if ftype not in _FRAME_TYPES:  # refused before its payload is waited for
        raise FrameDecodeError(f"unknown frame type {ftype}")
    (plen,) = struct.unpack_from("<I", data, start + 5)
    if plen > MAX_PAYLOAD:
        raise FrameDecodeError(f"oversize payload ({plen} bytes)")
    total = 9 + plen + 4
    if len(data) - start < total:
        return None, 0
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
    try:
        packed = struct.pack(f"<I{len(tokens)}I", len(tokens), *tokens)
    except struct.error as e:
        raise ProtocolError(f"token ids must be u32 integers: {e}") from e
    return Frame(REQ_TOKENS, struct.pack("<Q", model_id) + bytes([MODE_CODE[mode]]) + packed)


def _decode_token_list(data: bytes, offset: int) -> list[int]:
    if len(data) - offset < 4:
        raise ProtocolError("token list count truncated")
    (n,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) - offset < 4 * n:
        raise ProtocolError("token list truncated")
    if len(data) - offset > 4 * n:
        raise ProtocolError(f"{len(data) - offset - 4 * n} bytes after the token list")
    return list(struct.unpack_from(f"<{n}I", data, offset)) if n else []


def encode_end(miss_suffix: list[int]) -> Frame:
    return Frame(END, struct.pack(f"<I{len(miss_suffix)}I", len(miss_suffix), *miss_suffix))


def encode_err(code: int, message: str) -> Frame:
    return Frame(ERR, struct.pack("<H", code) + message.encode("utf-8"))


def decode_err(frame: Frame) -> tuple[int, str]:
    """An ERR frame's code and message; one too short for its code is a corrupt reply, like a malformed END."""
    if len(frame.payload) < 2:
        raise codec.DecodeError("malformed ERR frame: error code truncated")
    (code,) = struct.unpack_from("<H", frame.payload)
    return code, frame.payload[2:].decode("utf-8", errors="replace")


def _mode(byte: int) -> str:
    if byte not in _BYTE_MODE:
        raise ProtocolError(f"unknown mode byte {byte}")
    return _BYTE_MODE[byte]


def _parse_request(store: Store, frame: Frame) -> tuple[list[ChunkKey], list[int]]:
    """The stored keys a token request asks for, in reply order, and its miss suffix."""
    payload = frame.payload
    if frame.frame_type != REQ_TOKENS:
        raise ProtocolError(f"unexpected frame type {frame.frame_type}")
    if len(payload) < 13:
        raise ProtocolError("request payload too short")
    (model_id,) = struct.unpack_from("<Q", payload)
    mode = _mode(payload[8])
    return store.lookup(model_id, _decode_token_list(payload, 9), mode)


def _answer(store: Store, frame: Frame) -> Iterator[Frame]:
    """The reply to one token request, CHUNK* (blobs as stored) then END or
    ERR, one frame at a time: each blob is read when its frame is taken, so
    a sender holds one blob at a time.  A malformed or non-token request is a single ERR."""
    try:
        keys, miss = _parse_request(store, frame)
        for key in keys:
            yield Frame(CHUNK, store.read_blob(key))
        yield encode_end(miss)
    except ProtocolError as e:
        yield encode_err(ERR_BAD_REQUEST, str(e))
    except Exception as e:  # the server must survive arbitrary input
        log.exception("request handling failed")
        yield encode_err(ERR_INTERNAL, f"{type(e).__name__}: {e}")


def handle_request(store: Store, frame: Frame) -> list[Frame]:
    """The whole reply to one request frame (``_answer``) as a list."""
    return list(_answer(store, frame))


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
        for reply in _answer(store, frame):
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
            self.request.settimeout(IDLE_TIMEOUT_S)
            for chunk in iter(lambda: self.request.recv(65536), b""):
                reader.feed(chunk)
                for reply in _replies(self.server.store, reader):
                    self.request.sendall(reply)
        except OSError:
            pass  # the client went away or stayed idle


class KdnServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.store = store
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        """Start a handler thread only while fewer than ``MAX_CONNECTIONS`` run."""
        if not self._slots.acquire(blocking=False):
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread started, so none will release the slot
            self._slots.release()
            raise

    def finish_request(self, request, client_address) -> None:
        # released before the socket closes: a client that saw it close can connect at once
        try:
            super().finish_request(request, client_address)
        finally:
            self._slots.release()

    def serve_in_background(self) -> threading.Thread:
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t


class Client:
    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def fetch(self, model_id: int, mode: str, tokens: list[int]) -> tuple[list[KvCache], list[int]]:
        """Retrieve-by-text: decode, crc-check and decompress.  The reply may
        hold at most one chunk per token, each within the tokens left, at its
        running offset in a chain reply and at 0 in a standalone one, and its
        miss suffix must be the tokens left (chain) or as many tokens (standalone).
        A corrupt frame or chunk (crc or decode failure) is retried once before giving up;
        a connection refused, reset or timed out is not retried.  Either raises FetchError."""
        request = encode_token_request(model_id, mode, tokens)
        last_err: Exception | None = None
        for _ in range(2):
            try:
                return self._receive(request, tokens, mode)
            except (codec.CodecError, FrameDecodeError) as e:
                last_err = e
            except OSError as e:
                raise FetchError(f"fetch failed: {e}") from e
        raise FetchError(f"fetch failed after retry: {last_err}")

    def _receive(self, request: Frame, tokens: list[int], mode: str) -> tuple[list[KvCache], list[int]]:
        """Send ``request`` and decode its reply a frame at a time.  A CHUNK
        frame's crc is derived from its chunk header; the header must hold
        what the request expects, and the first chunk's geometry, before the
        chunk crc check reads the payload once and the chunk is inflated."""
        caches: list[KvCache] = []
        served, geometry = 0, None  # tokens received, (layer, head, dim) of the first chunk
        with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock:
            sock.sendall(encode_frame(request))
            reader = FrameReader()
            for data in iter(lambda: sock.recv(65536), b""):
                reader.feed(data)
                while (frame := reader.next()) is not None:
                    if frame.frame_type == ERR:
                        raise FetchError("server error {}: {}".format(*decode_err(frame)))
                    if frame.frame_type == END:
                        try:
                            miss = _decode_token_list(frame.payload, 0)
                        except ProtocolError as e:
                            raise codec.DecodeError(f"malformed END frame: {e}") from e
                        rest = tokens[served:]
                        if len(miss) != len(rest) or (mode == MODE_CHAIN and miss != rest):
                            raise codec.DecodeError(f"miss suffix of {len(miss)} tokens does not match "
                                                    f"the {len(rest)} tokens left")
                        return caches, miss
                    if len(caches) == len(tokens):  # any other frame is read as a CHUNK
                        raise codec.DecodeError(f"reply holds more than {len(tokens)} chunks")
                    chunk = codec.CompressedChunk.from_bytes(
                        frame.payload, start_pos=served if mode == MODE_CHAIN else 0,
                        max_tokens=len(tokens) - served, geometry=geometry)
                    geometry = (chunk.n_layers, chunk.n_heads, chunk.d_head)
                    caches.append(codec.decompress_cache(chunk))
                    served += chunk.n_tokens
        raise FetchError("connection closed before END")


def simulate_transfer(link: LinkModel, nbytes: int) -> float:
    """Seconds to move ``nbytes`` over the link: latency + bytes/bandwidth."""
    return link.latency + nbytes / link.bandwidth


def simulate_fetch(link: LinkModel, chunk_sizes: list[int]) -> float:
    """Virtual-clock completion time for a fetch of the given chunk frames.

    Deterministic accounting: each chunk frame pays one latency plus its
    framed bytes over the bandwidth.
    """
    return sum((simulate_transfer(link, size + _FRAME_OVERHEAD) for size in chunk_sizes), 0.0)
