"""KV-cache compression pipeline.

Three stages: per-group affine quantization, anchor/delta integer coding,
and a lossless container.  The containers, by ``lossless_id``:

- 0 ``LOSSLESS_RAW``: the codes themselves, one byte each, no deltas.
- 1 ``LOSSLESS_VARINT``: signed deltas as zigzag LEB128 varints.
- 2 ``LOSSLESS_VARINT_DEFLATE``: the varints of id 1, then DEFLATE.
- 3 ``LOSSLESS_BYTE_DEFLATE`` (the default): deltas taken mod 256, one byte
  each, then DEFLATE; the quantizer params are byte-planed before a level-1
  DEFLATE.  ``CodecProfile`` defaults to ``anchor_stride`` 1: channel-major
  codes with no deltas, since neighbouring tokens' codes are independent and a
  delta costs more bytes than the code.  ``_anchor_deltas`` and ``_anchor_sums``
  serve ids 1-2 and id-3 blobs of a larger stride, such as the stride-16 ones
  older stores hold.

Everything above the quantizer is bit-exact invertible, so decompression
reproduces the dequantized values exactly.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .model import KvCache, exact_int

CHUNK_MAGIC = b"KDNC"
CHUNK_VERSION = 1

LOSSLESS_RAW = 0
LOSSLESS_VARINT = 1
LOSSLESS_VARINT_DEFLATE = 2
LOSSLESS_BYTE_DEFLATE = 3
_LOSSLESS_IDS = (LOSSLESS_RAW, LOSSLESS_VARINT, LOSSLESS_VARINT_DEFLATE, LOSSLESS_BYTE_DEFLATE)

# magic | version | quant_bits | group_size | anchor_stride | lossless_id
# | n_layers | n_heads | d_head | n_tokens | start_pos | uncompressed_len | payload_len
_HEADER = struct.Struct("<4s BB HH B HHH I q QQ")


class CodecError(ValueError):
    """Base class for codec failures."""


class DecodeError(CodecError):
    """Malformed stream; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class CrcMismatch(CodecError):
    pass


# CRC-32C (Castagnoli), reflected polynomial 0x82F63B78, a block at a time.
# The register is linear over GF(2) in the message bytes, so byte b at offset i
# of a block adds row i, column b of _CRC_TABLES (b advanced over the block's
# remaining B - i bytes); a block's rows XOR to one word.  Advancing a register
# over B zero bytes is the XOR of rows 0-3 looked up by its four bytes, which
# folds the block words in order.
_CRC_BLOCK = 512
_CRC_SLAB = 128  # blocks per vector pass: 64 KiB in, 768 KiB of temporaries


def _crc32c_tables(block: int) -> np.ndarray:
    t = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        t = np.where(t & 1, (t >> 1) ^ np.uint32(0x82F63B78), t >> 1)
    rows = np.empty((block, 256), np.uint32)
    rows[-1] = t
    for i in range(block - 2, -1, -1):
        rows[i] = t[rows[i + 1] & 0xFF] ^ (rows[i + 1] >> 8)
    return rows


_CRC_TABLES = _crc32c_tables(_CRC_BLOCK)
_CRC_OFFSETS = np.arange(_CRC_BLOCK, dtype=np.intp) * 256
_ADV0, _ADV1, _ADV2, _ADV3 = (row.tolist() for row in _CRC_TABLES[:4])


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data``; ``crc`` continues the CRC of bytes before it."""
    n = len(data)
    n_blocks = -(-n // _CRC_BLOCK)
    # leading zero bytes keep a zero register at zero
    buf = np.zeros(n_blocks * _CRC_BLOCK, np.uint8)
    head = buf.size - n
    buf[head:] = np.frombuffer(data, np.uint8)
    # The incoming register acts as its low bytes XORed into the first message
    # bytes; bytes past the end of a message shorter than 4 shift straight out.
    reg_in = crc ^ 0xFFFFFFFF
    k = min(n, 4)
    buf[head : head + k] ^= np.frombuffer(reg_in.to_bytes(4, "little"), np.uint8)[:k]
    blocks = buf.reshape(n_blocks, _CRC_BLOCK)
    reg = 0
    for lo in range(0, n_blocks, _CRC_SLAB):
        words = np.bitwise_xor.reduce(np.take(_CRC_TABLES, _CRC_OFFSETS + blocks[lo : lo + _CRC_SLAB]), axis=1)
        for w in words.tolist():
            reg = _ADV0[reg & 0xFF] ^ _ADV1[reg >> 8 & 0xFF] ^ _ADV2[reg >> 16 & 0xFF] ^ _ADV3[reg >> 24] ^ w
    return reg ^ (reg_in >> 8 * k) ^ 0xFFFFFFFF


# Advancing a register over zero bytes is linear too, so like rows 0-3 above
# it is four byte tables: table j, entry b is the advance of b << 8j.
# _CRC_SHIFT[k] advances over 2**k zero bytes.  Level 0 is one step of the
# byte table; level k + 1 is level k applied to its own entries.
def _crc32c_shift_tables(levels: int) -> np.ndarray:
    b = np.arange(256, dtype=np.uint32)
    out = np.empty((levels, 4, 256), np.uint32)
    out[0] = _CRC_TABLES[-1], b, b << 8, b << 16  # reg -> table[reg & 0xFF] ^ reg >> 8
    for k in range(1, levels):
        t = out[k - 1]
        out[k] = t[0][t & 0xFF] ^ t[1][t >> 8 & 0xFF] ^ t[2][t >> 16 & 0xFF] ^ t[3][t >> 24]
    return out


_CRC_SHIFT = memoryview(_crc32c_shift_tables(64).reshape(-1))  # flat: level k, byte j at 1024k + 256j


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32C of A + B from crc1 = crc32c(A, crc), crc2 = crc32c(B) and len2 = len(B)."""
    if not 0 <= len2 < 1 << 64:
        raise ValueError(f"length {len2} out of range")
    reg, o, s = crc1, 0, _CRC_SHIFT
    while len2:
        if len2 & 1:
            reg = s[o | reg & 0xFF] ^ s[o | 256 | reg >> 8 & 0xFF] ^ s[o | 512 | reg >> 16 & 0xFF] ^ s[o | 768 | reg >> 24]
        len2 >>= 1
        o += 1024
    return reg ^ crc2


# A CRC followed by its own four little-endian bytes has a fixed CRC, that of
# four zero bytes: the appended bytes cancel the register they are XORed into.
_CRC_OF_CRC = crc32c(bytes(4))


def chunk_crc32c(blob: bytes, crc: int = 0) -> int:
    """``crc32c(blob, crc)`` of a chunk blob, reading only its header.

    The blob's payload is followed by its stored CRC, so payload and trailer
    together have CRC ``_CRC_OF_CRC`` whatever the payload, and the result
    equals ``crc32c(blob, crc)`` exactly when the stored CRC is right, which
    ``CompressedChunk.from_bytes`` checks.  Bytes that are not a
    length-consistent chunk get a plain ``crc32c``.
    """
    plen = len(blob) - _HEADER.size - 4
    if plen < 0 or _HEADER.unpack_from(blob)[-1] != plen:
        return crc32c(blob, crc)
    return crc32c_combine(crc32c(blob[: _HEADER.size], crc), _CRC_OF_CRC, plen + 4)


@dataclass(frozen=True)
class CodecProfile:
    quant_bits: int = 8
    group_size: int = 16
    anchor_stride: int = 1
    lossless_id: int = LOSSLESS_BYTE_DEFLATE

    def __post_init__(self) -> None:
        if self.quant_bits not in (4, 8):
            raise CodecError("quant_bits must be 4 or 8")
        for name in ("group_size", "anchor_stride"):  # u16s of the chunk header
            if not 1 <= getattr(self, name) <= 0xFFFF:
                raise CodecError(f"{name} must be in [1, 65535]")
        if self.lossless_id not in _LOSSLESS_IDS:
            raise CodecError(f"unknown lossless_id {self.lossless_id}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CodecProfile":
        return cls(**{k: exact_int(v) for k, v in d.items()})


# Named profiles for the bench subcommand and tests; 8bit-deflate is the default.
PROFILES = {
    "8bit-raw": CodecProfile(quant_bits=8, anchor_stride=1, lossless_id=LOSSLESS_RAW),
    "8bit-varint": CodecProfile(quant_bits=8, anchor_stride=16, lossless_id=LOSSLESS_VARINT),
    "8bit-deflate": CodecProfile(quant_bits=8, anchor_stride=1, lossless_id=LOSSLESS_BYTE_DEFLATE),
    "4bit-deflate": CodecProfile(quant_bits=4, anchor_stride=1, lossless_id=LOSSLESS_BYTE_DEFLATE),
}


@dataclass
class QuantizedCache:
    """Integer codes plus per-(layer, head, group, channel) affine grids, each laid out like ``KvCache.kv``."""

    codes: np.ndarray  # (K or V, L, H, T, D) uint8
    scale: np.ndarray  # (K or V, L, H, G, D) f32
    zero: np.ndarray
    start_pos: int
    profile: CodecProfile


def _blocks(n: int, width: int):
    """Tokens 0..n in blocks of ``width``, unpadded, as runs of equal blocks:
    (token slice, first block, block count, block width) for the whole
    blocks, then for the shorter last block if there is one."""
    whole, rest = divmod(n, width)
    if whole:
        yield slice(0, n - rest), 0, whole, width
    if rest:
        yield slice(n - rest, n), whole, 1, rest


def _quantize_tensor(x: np.ndarray, bits: int, group_size: int):
    """Affine per-token-group quantization along the token axis: per run of
    ``_blocks``, one min and one max over a (..., group, token, dim) view give
    its grids, and one broadcast rounds its tokens."""
    *lead, T, D = x.shape
    levels = (1 << bits) - 1
    x = x.astype(np.float64)
    codes = np.empty(x.shape, np.uint8)
    scale, zero = np.empty((2, *lead, -(-T // group_size), D), np.float32)
    for tokens, g, n, w in _blocks(T, group_size):
        xg = x[..., tokens, :].reshape(*lead, n, w, D)
        gmin = xg.min(axis=-2)
        s = (xg.max(axis=-2) - gmin) / levels
        s[s == 0.0] = 1.0  # constant group: every code is 0, zero-point carries the value
        grid = slice(g, g + n)
        scale[..., grid, :], zero[..., grid, :] = s, gmin
        # round-half-to-even for cross-platform bit-exact codes
        q = np.rint((xg - zero[..., grid, None, :].astype(np.float64)) / scale[..., grid, None, :].astype(np.float64))
        codes[..., tokens, :].reshape(xg.shape)[...] = np.clip(q, 0, levels)
    return codes, scale, zero


def quantize(cache: KvCache, profile: CodecProfile) -> QuantizedCache:
    if not np.isfinite(cache.kv).all():
        raise CodecError("cache contains non-finite values")
    codes, scale, zero = _quantize_tensor(cache.kv, profile.quant_bits, profile.group_size)
    return QuantizedCache(codes, scale, zero, cache.start_pos, profile)


def _dequantize_tensor(codes, scale, zero, group_size: int) -> np.ndarray:
    """``codes * scale + zero`` in float32 for the (..., G, D) grids and
    (..., T, D) or (B, T, D) codes, B the product of the grids' leading axes,
    as a (..., T, D) array: per run of ``_blocks``, one multiply and one add over a (..., group,
    token, dim) view of it, each group's grid broadcast over its tokens."""
    *lead, _, D = scale.shape
    codes = codes.reshape(*lead, *codes.shape[-2:])
    out = np.empty(codes.shape, np.float32)
    for tokens, g, n, w in _blocks(codes.shape[-2], group_size):
        grid, grouped = slice(g, g + n), out[..., tokens, :].reshape(*lead, n, w, D)
        np.multiply(codes[..., tokens, :].reshape(grouped.shape), scale[..., grid, None, :], grouped, dtype=np.float32)
        np.add(grouped, zero[..., grid, None, :], out=grouped)
    return out


def dequantize(q: QuantizedCache) -> KvCache:
    return KvCache(_dequantize_tensor(q.codes, q.scale, q.zero, q.profile.group_size), start_pos=q.start_pos)


def _anchor_deltas(codes: np.ndarray, anchor_stride: int) -> np.ndarray:
    """Anchor/delta coding along tokens of (..., token, channel) codes in
    their dtype (mod 256 for ``uint8``), stream order (..., channel, token):
    each anchor window's token 0 raw, later tokens minus the token before.
    At stride 1 every token is an anchor, so the stream is the codes."""
    ch_major = codes.swapaxes(-1, -2)  # (..., D, T)
    if anchor_stride == 1:
        return ch_major.reshape(-1)
    out = ch_major.copy()
    out[..., 1:] -= ch_major[..., :-1]
    out[..., ::anchor_stride] = ch_major[..., ::anchor_stride]
    return out.reshape(-1)


def _anchor_sums(stream: np.ndarray, shape: tuple[int, ...], anchor_stride: int) -> np.ndarray:
    """Inverse of ``_anchor_deltas`` in the stream's dtype: the codes of a
    (..., T, D) ``shape`` as a (B, T, D) array, B the product of the leading
    axes.  Sums in a wider dtype than ``uint8`` must be byte codes.

    Per run of ``_blocks`` of anchor windows, one ``cumsum`` down the window
    position, the outermost axis of a (window position, B, D, window) view of
    the channel-major stream, writes the running sums, which restart at each
    anchor, straight into the same view of the token-major result.  At
    stride 1 the stream is the codes, so it is only transposed.
    """
    *lead, T, D = shape
    if stream.size != math.prod(shape):
        raise DecodeError(f"delta stream has {stream.size} values, expected {math.prod(shape)}")
    B = math.prod(lead)
    sums = np.empty((B, T, D), stream.dtype)
    if anchor_stride == 1:  # windows of one token: no sums, only the transpose
        sums[...] = stream.reshape(B, D, T).swapaxes(1, 2)
    else:
        for tokens, _, n, w in _blocks(T, anchor_stride):
            # both as (window position, B, D, window)
            np.cumsum(stream.reshape(B, D, T)[..., tokens].reshape(B, D, n, w).transpose(3, 0, 1, 2), axis=0,
                      dtype=stream.dtype, out=sums[:, tokens].reshape(B, n, w, D).transpose(2, 0, 3, 1))
    if stream.dtype != np.uint8 and sums.size and (sums.min() < 0 or sums.max() > 255):
        raise DecodeError("decoded codes out of byte range")
    return sums


def zigzag(n):
    """0, -1, 1, -2, ... -> 0, 1, 2, 3, ...; an int, or an int64 array to uint64."""
    z = (n << 1) ^ (n >> 63)
    return z.view(np.uint64) if isinstance(z, np.ndarray) else z


def unzigzag(z):
    """Inverse of ``zigzag``; an int, or a uint64 array to int64."""
    n = (z >> 1) ^ -(z & 1)
    return n.view(np.int64) if isinstance(n, np.ndarray) else n


# _VARINT_LIMITS[k] = 2**(7k + 7), the smallest zigzagged value that needs k + 2 bytes
_VARINT_LIMITS = np.array([1 << 7 * k for k in range(1, 10)], np.uint64)


def _varint_encode(values: np.ndarray) -> bytes:
    """LEB128 of the zigzagged values: 7 bits a byte, low first, 0x80 = more follow."""
    z = zigzag(np.asarray(values, dtype=np.int64))
    longest = int(np.searchsorted(_VARINT_LIMITS, z.max(initial=0), side="right")) + 1
    nbytes = np.ones(z.size, np.intp)
    for limit in _VARINT_LIMITS[: longest - 1]:
        nbytes += z >= limit
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    size = int(ends[-1]) if ends.size else 0
    # One pass per length class, longest first: pass j writes group j of every
    # value at its start + j.  Past a shorter value's end that byte lands in a
    # later value, whose own pass for that byte comes later and overwrites it.
    out = np.empty(size + longest - 1, np.uint8)
    for j in range(longest - 1, -1, -1):
        out[j:][starts] = (z >> np.uint64(7 * j)).astype(np.uint8) | 0x80
    out[ends - 1] &= 0x7F
    return out[:size].tobytes()


def _varint_decode(data: bytes) -> np.ndarray:
    """Inverse of ``_varint_encode``; a varint over 64 bits or cut short is a DecodeError at its first byte."""
    b = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(b < 0x80)
    lengths = np.diff(ends, prepend=-1)
    longest = int(lengths.max(initial=0))
    if longest >= 10:
        # ten 7-bit groups carry 70 bits; 64 of them fit only if the tenth byte is 0 or 1
        wide = (lengths > 10) | ((lengths == 10) & (b[ends] > 1))
        if wide.any():
            i = wide.argmax()
            raise DecodeError("varint longer than 64 bits", int(ends[i] - lengths[i]) + 1)
    tail = int(ends[-1]) + 1 if ends.size else 0
    if tail < b.size:
        raise DecodeError("truncated varint", tail)
    # Start from each varint's last (highest) group; fold in byte end - k of
    # the varints longer than k, one pass per length class.
    z = b[ends].astype(np.uint64)
    for k in range(1, longest):
        longer = np.flatnonzero(lengths > k)
        z[longer] = z[longer] << np.uint64(7) | b[ends[longer] - k] & 0x7F
    return unzigzag(z)


def _inflate(data: bytes, limit: int, section: str) -> bytes:
    """DEFLATE-decode ``data``; more than ``limit`` output bytes is a DecodeError."""
    d = zlib.decompressobj()
    try:
        raw = d.decompress(data, limit + 1)
    except zlib.error as e:
        raise DecodeError(f"{section} invalid: {e}") from e
    if len(raw) > limit:
        raise DecodeError(f"{section} inflates past {limit} bytes")
    if not d.eof:
        raise DecodeError(f"{section} truncated")
    return raw


def lossless_encode(ints: np.ndarray, lossless_id: int) -> bytes:
    if lossless_id == LOSSLESS_BYTE_DEFLATE:
        # each value mod 256, one byte
        return zlib.compress(np.asarray(ints).astype(np.uint8, copy=False).tobytes(), 9)
    ints = np.asarray(ints, dtype=np.int64)
    if lossless_id == LOSSLESS_RAW:
        if ints.size and (ints.min() < 0 or ints.max() > 255):
            raise CodecError("raw encoding requires values in [0, 255]")
        return ints.astype(np.uint8).tobytes()
    if lossless_id == LOSSLESS_VARINT:
        return _varint_encode(ints)
    if lossless_id == LOSSLESS_VARINT_DEFLATE:
        return zlib.compress(_varint_encode(ints), 9)
    raise CodecError(f"unknown lossless_id {lossless_id}")


def lossless_decode(data: bytes, lossless_id: int, n_values: int) -> np.ndarray:
    """Decode a code stream; ``n_values`` caps the DEFLATE output.

    The cap is 2 bytes a value for id 2, whose codes and deltas zigzag to at
    most 510, two varint bytes, and 1 byte a value for id 3.  Ids 0 and 3
    decode to ``uint8``, ids 1-2 to ``int64``.
    """
    if lossless_id == LOSSLESS_RAW:
        return np.frombuffer(data, dtype=np.uint8)
    if lossless_id == LOSSLESS_VARINT:
        return _varint_decode(data)
    if lossless_id == LOSSLESS_VARINT_DEFLATE:
        return _varint_decode(_inflate(data, 2 * n_values, "DEFLATE stream"))
    if lossless_id == LOSSLESS_BYTE_DEFLATE:
        return np.frombuffer(_inflate(data, n_values, "DEFLATE stream"), np.uint8)
    raise DecodeError(f"unknown lossless_id {lossless_id}")


def read_header(data: bytes, *, start_pos: int | None = None, n_tokens: int | None = None,
                max_tokens: int | None = None, profile: CodecProfile | None = None,
                geometry: tuple[int, int, int] | None = None) -> tuple[CodecProfile, int, int, int, int, int, int, int]:
    """The header fields of a chunk blob, reading no payload byte: (profile,
    n_layers, n_heads, d_head, n_tokens, start_pos, uncompressed_len, payload_len).

    The chunk crc covers only the payload, so each expectation a reader gives
    must hold (``geometry`` is (n_layers, n_heads, d_head), ``max_tokens``
    bounds ``n_tokens``), else DecodeError before anything is inflated.
    """
    if len(data) < _HEADER.size:
        raise DecodeError("chunk shorter than header", len(data))
    (magic, version, bits, gsize, stride, lid, L, H, D, T, pos, ulen, plen) = _HEADER.unpack_from(data)
    if magic != CHUNK_MAGIC:
        raise DecodeError("bad chunk magic", 0)
    if version != CHUNK_VERSION:
        raise DecodeError(f"unsupported chunk version {version}", 4)
    if plen > len(data) - _HEADER.size - 4:
        raise DecodeError("chunk payload truncated", _HEADER.size)
    try:
        have = CodecProfile(bits, gsize, stride, lid)
    except CodecError as e:
        raise DecodeError(str(e), 5) from e
    expected = 2 * 4 * L * H * T * D
    if ulen != expected:
        raise DecodeError(f"uncompressed_len {ulen} != geometry size {expected}")
    if start_pos is not None and pos != start_pos:
        raise DecodeError(f"chunk at position {pos}, expected {start_pos}", 21)
    if n_tokens is not None and T != n_tokens:
        raise DecodeError(f"chunk of {T} tokens, expected {n_tokens}", 17)
    if max_tokens is not None and T > max_tokens:
        raise DecodeError(f"chunk of {T} tokens, expected at most {max_tokens}", 17)
    if profile is not None and have != profile:
        raise DecodeError(f"chunk profile {have}, expected {profile}", 5)
    if geometry is not None and (L, H, D) != geometry:
        raise DecodeError(f"chunk geometry {(L, H, D)}, expected {geometry}", 11)
    return have, L, H, D, T, pos, ulen, plen


@dataclass
class CompressedChunk:
    """Codec-encoded KV payload for one token chunk."""

    profile: CodecProfile
    n_layers: int
    n_heads: int
    d_head: int
    n_tokens: int
    start_pos: int
    uncompressed_len: int
    payload: bytes
    crc: int

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            CHUNK_MAGIC,
            CHUNK_VERSION,
            self.profile.quant_bits,
            self.profile.group_size,
            self.profile.anchor_stride,
            self.profile.lossless_id,
            self.n_layers,
            self.n_heads,
            self.d_head,
            self.n_tokens,
            self.start_pos,
            self.uncompressed_len,
            len(self.payload),
        )
        return header + self.payload + struct.pack("<I", self.crc)

    @classmethod
    def from_bytes(cls, data: bytes, **expect) -> "CompressedChunk":
        """The chunk in ``data``: its header checked by ``read_header(data,
        **expect)``, then its payload crc."""
        profile, L, H, D, T, start_pos, ulen, plen = read_header(data, **expect)
        payload = data[_HEADER.size : _HEADER.size + plen]
        (crc,) = struct.unpack_from("<I", data, _HEADER.size + plen)
        if crc32c(payload) != crc:
            raise CrcMismatch("chunk crc32c mismatch")
        return cls(profile, L, H, D, T, start_pos, ulen, payload, crc)


def _pack_params(q: QuantizedCache) -> bytes:
    # (K or V, scale or zero, L, H, G, D): K's scale, K's zero, V's scale, V's zero
    raw = np.stack([q.scale, q.zero], axis=1).astype("<f4").reshape(-1).view(np.uint8)
    # quantization grids repeat heavily on real caches; always DEFLATE them
    if q.profile.lossless_id == LOSSLESS_BYTE_DEFLATE:
        # byte planes: an f32's sign and exponent byte repeats where its low
        # bytes do not; level 1, since level 9 spends 2.4x the time for 2% fewer bytes
        return zlib.compress(raw.reshape(-1, 4).T.tobytes(), 1)
    return zlib.compress(raw.tobytes(), 9)


def _unpack_params(blob: bytes, shape: tuple[int, int, int, int, int], profile: CodecProfile):
    """The (scale, zero) grids of a (K or V, L, H, T, D) cache: two views of one array."""
    _, L, H, T, D = shape
    pshape = (2, 2, L, H, -(-T // profile.group_size), D)  # as ``_pack_params`` stacks them
    n_bytes = 4 * math.prod(pshape)
    raw = _inflate(blob, n_bytes, "parameter section")
    if len(raw) != n_bytes:
        raise DecodeError(f"parameter section has {len(raw)} bytes, expected {n_bytes}")
    b = np.frombuffer(raw, np.uint8)
    b = b.reshape(4, -1).T if profile.lossless_id == LOSSLESS_BYTE_DEFLATE else b.reshape(-1, 4)
    params = b.copy().view("<f4").reshape(pshape)
    return params[:, 0], params[:, 1]


def compress_cache(cache: KvCache, profile: CodecProfile) -> CompressedChunk:
    """quantize -> delta -> lossless, wrapped with header and crc32c."""
    q = quantize(cache, profile)  # codes (2, L, H, T, D): K's layers, then V's
    if profile.lossless_id == LOSSLESS_RAW:
        # raw container stores the quantized codes directly, one byte each
        stream = q.codes.reshape(-1)
    else:
        # id 3 takes the deltas mod 256, one byte each; ids 1-2 signed, in int64
        dtype = np.uint8 if profile.lossless_id == LOSSLESS_BYTE_DEFLATE else np.int64
        stream = _anchor_deltas(q.codes.astype(dtype, copy=False), profile.anchor_stride)
    codes_blob = lossless_encode(stream, profile.lossless_id)
    params_blob = _pack_params(q)
    payload = struct.pack("<II", len(params_blob), len(codes_blob)) + params_blob + codes_blob
    _, L, H, T, D = cache.kv.shape
    return CompressedChunk(
        profile=profile,
        n_layers=L,
        n_heads=H,
        d_head=D,
        n_tokens=T,
        start_pos=cache.start_pos,
        uncompressed_len=2 * 4 * L * H * T * D,
        payload=payload,
        crc=crc32c(payload),
    )


def decompress_cache(chunk: CompressedChunk) -> KvCache:
    """The chunk's dequantized cache, one pass per stage: inflate the params
    and the code stream; for ids 1-3, ``_anchor_sums`` un-deltas the
    channel-major stream into token-major codes, or at stride 1 only
    transposes it (id 0 stores token-major codes);
    ``_dequantize_tensor`` scales them into the float32 (K or V, layer, head,
    token, dim) output.  Both run over unpadded ``_blocks`` of windows or
    groups, so no header field inflates a decode past stream and cache."""
    shape = (2, chunk.n_layers, chunk.n_heads, chunk.n_tokens, chunk.d_head)
    profile = chunk.profile
    if len(chunk.payload) < 8:
        raise DecodeError("payload shorter than section lengths", len(chunk.payload))
    params_len, codes_len = struct.unpack_from("<II", chunk.payload)
    if 8 + params_len + codes_len != len(chunk.payload):
        raise DecodeError("payload section lengths inconsistent", 0)
    params_blob = chunk.payload[8 : 8 + params_len]
    codes_blob = chunk.payload[8 + params_len :]
    scale, zero = _unpack_params(params_blob, shape, profile)
    n_values = int(np.prod(shape, dtype=np.int64))
    stream = lossless_decode(codes_blob, profile.lossless_id, n_values)
    if stream.size != n_values:
        raise DecodeError(f"code stream has {stream.size} values, expected {n_values}")
    if profile.lossless_id == LOSSLESS_RAW:
        codes = stream.reshape(shape)
    else:
        # ids 1-2 sum int64 deltas, id 3 sums bytes mod 256
        codes = _anchor_sums(stream, shape, profile.anchor_stride)
    return KvCache(_dequantize_tensor(codes, scale, zero, profile.group_size), start_pos=chunk.start_pos)
