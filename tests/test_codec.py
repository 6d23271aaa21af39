import dataclasses
import hashlib
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdn import fixtures
from kdn.codec import (
    LOSSLESS_BYTE_DEFLATE,
    LOSSLESS_RAW,
    LOSSLESS_VARINT,
    LOSSLESS_VARINT_DEFLATE,
    PROFILES,
    CodecError,
    CodecProfile,
    CompressedChunk,
    CrcMismatch,
    DecodeError,
    chunk_crc32c,
    compress_cache,
    crc32c,
    crc32c_combine,
    decompress_cache,
    dequantize,
    lossless_decode,
    lossless_encode,
    quantize,
    unzigzag,
    zigzag,
    _CRC_BLOCK,
    _HEADER,
    _LOSSLESS_IDS,
    _anchor_deltas,
    _anchor_sums,
    _varint_decode,
    _varint_encode,
)
from kdn.model import KvCache, ModelConfig, build_model, prefill
from reference import (
    ref_byte_delta_decode,
    ref_crc32c,
    ref_delta_decode,
    ref_dequantize_tensor,
    ref_quantize_tensor,
    ref_varint_decode,
    ref_varint_encode,
)


def _bitwise_crc32c(data: bytes) -> int:
    # independent bit-by-bit oracle for the Castagnoli polynomial
    crc = 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def test_crc32c_check_value():
    # standard CRC-32C check value
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"") == 0


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=256))
def test_crc32c_matches_bitwise_oracle(data):
    assert crc32c(data) == _bitwise_crc32c(data)


B = _CRC_BLOCK


@pytest.mark.parametrize("n", [*range(10), B - 1, B, B + 1, 3 * B + 7, 1 << 20])
def test_crc32c_matches_table_loop(n):
    data = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes()
    for crc in (0, 0x1EDC6F41):
        assert crc32c(data, crc) == ref_crc32c(data, crc)
    cut = n // 3
    assert crc32c(data) == crc32c(data[cut:], crc32c(data[:cut]))


@settings(max_examples=50, deadline=None)
@given(a=st.binary(max_size=3 * B), b=st.binary(max_size=3 * B), crc=st.integers(0, 0xFFFFFFFF))
def test_crc32c_chains(a, b, crc):
    assert crc32c(a + b, crc) == crc32c(b, crc32c(a, crc)) == ref_crc32c(a + b, crc)


@settings(max_examples=60, deadline=None)
@given(a=st.binary(max_size=2 * B), b=st.binary(max_size=4 * B + 3), crc=st.integers(0, 0xFFFFFFFF))
def test_crc32c_combine_matches_reference(a, b, crc):
    assert crc32c_combine(ref_crc32c(a, crc), ref_crc32c(b), len(b)) == ref_crc32c(a + b, crc)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, B - 1, B, B + 1, 2 * B, 3 * B + 7, (2 << 20) + 5])
def test_crc32c_combine_at_block_edges_and_mib_lengths(n):
    rng = np.random.default_rng(n)
    a = rng.integers(0, 256, 37, dtype=np.uint8).tobytes()
    b = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    assert crc32c_combine(crc32c(a, 0x1EDC6F41), crc32c(b), n) == ref_crc32c(a + b, 0x1EDC6F41)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(0, 0xFFFFFFFF),
    y=st.integers(0, 0xFFFFFFFF),
    z=st.integers(0, 0xFFFFFFFF),
    m=st.integers(0, 1 << 62),
    n=st.integers(0, 1 << 62),
)
def test_crc32c_combine_composes_over_any_length(x, y, z, m, n):
    # advancing over m zero bytes and then n is advancing over m + n, at every table level
    assert crc32c_combine(crc32c_combine(x, y, m), z, n) == crc32c_combine(x, crc32c_combine(y, z, n), m + n)


def test_crc32c_combine_rejects_lengths_out_of_range():
    for n in (-1, 1 << 64):
        with pytest.raises(ValueError):
            crc32c_combine(0, 0, n)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=3 * B))
def test_crc_of_bytes_and_their_crc_is_fixed(data):
    # the CRC-32C residue that lets a chunk blob's crc skip its payload
    assert ref_crc32c(data + struct.pack("<I", ref_crc32c(data))) == 0x48674BC7


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_chunk_crc32c_equals_crc32c(name):
    blob = compress_cache(fixtures.random_cache(n_tokens=40, seed=3), PROFILES[name]).to_bytes()
    for crc in (0, 0x1EDC6F41, 0xFFFFFFFF):
        assert chunk_crc32c(blob, crc) == crc32c(blob, crc) == ref_crc32c(blob, crc)


@settings(max_examples=60, deadline=None)
@given(header=st.binary(min_size=_HEADER.size, max_size=_HEADER.size), payload=st.binary(max_size=3 * B),
       crc=st.integers(0, 0xFFFFFFFF))
def test_chunk_crc32c_of_any_length_consistent_blob(header, payload, crc):
    # only the payload length and the stored payload crc have to be right
    blob = header[:-8] + struct.pack("<Q", len(payload)) + payload + struct.pack("<I", ref_crc32c(payload))
    assert chunk_crc32c(blob, crc) == ref_crc32c(blob, crc)


def test_chunk_crc32c_falls_back_for_other_bytes():
    blob = compress_cache(fixtures.random_cache(n_tokens=8, seed=2), PROFILES["8bit-deflate"]).to_bytes()
    at = _HEADER.size - 8  # payload_len, the header's last field
    (plen,) = struct.unpack_from("<Q", blob, at)
    wrong_len = [blob[:at] + struct.pack("<Q", plen + d) + blob[at + 8 :] for d in (-1, 1, 1 << 40)]
    truncated = [blob[:k] for k in (0, 1, _HEADER.size - 1, _HEADER.size, _HEADER.size + 4, len(blob) - 1)]
    for data in [b"not a chunk at all, and long enough to hold a chunk header", blob + b"\0", *truncated, *wrong_len]:
        for crc in (0, 0x1EDC6F41):
            assert chunk_crc32c(data, crc) == crc32c(data, crc)


def test_chunk_crc32c_does_not_read_the_payload():
    blob = bytearray(compress_cache(fixtures.random_cache(n_tokens=8, seed=2), PROFILES["8bit-deflate"]).to_bytes())
    derived = chunk_crc32c(bytes(blob))
    blob[_HEADER.size + 10] ^= 0xFF
    # the stored payload crc is now wrong, so the derived value no longer is a crc32c of the bytes
    assert chunk_crc32c(bytes(blob)) == derived != crc32c(bytes(blob))
    with pytest.raises(CrcMismatch):
        CompressedChunk.from_bytes(bytes(blob))


# -- zigzag / varint --------------------------------------------------------------


def test_zigzag_examples():
    assert [zigzag(n) for n in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    for n in (0, -1, 1, -200, 255, -(1 << 40)):
        assert unzigzag(zigzag(n)) == n


def test_varint_known_bytes():
    # zigzag(150) == 300; LEB128 of 300 is AC 02
    assert _varint_encode(np.array([150])) == b"\xac\x02"
    assert _varint_encode(np.array([0])) == b"\x00"
    assert _varint_encode(np.array([-1])) == b"\x01"
    assert list(_varint_decode(b"\xac\x02")) == [150]


def test_varint_truncated():
    with pytest.raises(DecodeError) as e:
        _varint_decode(b"\x01\xac")
    assert e.value.offset == 1


INT64_EDGES = [0, 1, -1, 2, -2, 1 << 62, -(1 << 62), (1 << 63) - 1, -(1 << 63)]


def test_varint_int64_edges():
    arr = np.array(INT64_EDGES, dtype=np.int64)
    data = _varint_encode(arr)
    assert data == ref_varint_encode(arr)
    assert data.endswith(b"\xfe" + b"\xff" * 8 + b"\x01" + b"\xff" * 9 + b"\x01")
    assert _varint_decode(data).tolist() == INT64_EDGES
    assert zigzag(arr).tolist() == [zigzag(n) for n in INT64_EDGES]
    assert unzigzag(zigzag(arr)).tolist() == [unzigzag(zigzag(n)) for n in INT64_EDGES] == INT64_EDGES


@pytest.mark.parametrize("bad", [b"\xff" * 10 + b"\x01", b"\xff" * 9 + b"\x7f", b"\xff" * 9 + b"\x02", b"\x80" * 11 + b"\x00"])
def test_varint_over_64_bits(bad):
    with pytest.raises(DecodeError) as e:
        _varint_decode(b"\x05\xac\x02" + bad + b"\x00")
    assert e.value.offset == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=64))
def test_varint_bytes_match_reference(values):
    arr = np.array(values, dtype=np.int64)
    data = _varint_encode(arr)
    assert data == ref_varint_encode(arr)
    assert _varint_decode(data).tolist() == ref_varint_decode(data).tolist() == values


def _of_length(n_bytes: int, r: int) -> int:
    """An int64 whose zigzag takes exactly ``n_bytes`` varint bytes, picked by ``r``."""
    lo = 1 << 7 * (n_bytes - 1) if n_bytes > 1 else 0
    z = lo + r % ((1 << min(7 * n_bytes, 64)) - lo)
    return unzigzag(z)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10), st.integers(0, (1 << 64) - 1)), max_size=80))
def test_varint_mixed_length_classes_match_reference(draws):
    values = [_of_length(n, r) for n, r in draws]
    arr = np.array(values, dtype=np.int64)
    data = _varint_encode(arr)
    assert data == ref_varint_encode(arr)
    assert len(data) == sum(n for n, _ in draws)
    assert _varint_decode(data).tolist() == ref_varint_decode(data).tolist() == values


# a bad varint's offset must not depend on the length classes before it
LEADS = [_varint_encode(np.array([_of_length(n, 12345), _of_length(n, 678)], dtype=np.int64)) for n in range(1, 11)]


@pytest.mark.parametrize("lead", LEADS, ids=[f"after-{n}-byte" for n in range(1, 11)])
@pytest.mark.parametrize("bad", [b"\xff" * 10 + b"\x01", b"\xff" * 9 + b"\x7f", b"\x80" * 11 + b"\x00"])
def test_varint_over_64_bits_after_each_length_class(lead, bad):
    for after in (b"", b"\x05", LEADS[-1]):
        with pytest.raises(DecodeError) as e:
            _varint_decode(lead + bad + after)
        assert e.value.offset == len(lead)


@pytest.mark.parametrize("lead", LEADS, ids=[f"after-{n}-byte" for n in range(1, 11)])
@pytest.mark.parametrize("cut", [1, 5, 9, 12])
def test_varint_truncated_after_each_length_class(lead, cut):
    with pytest.raises(DecodeError) as e:
        _varint_decode(lead + b"\xff" * cut)
    assert e.value.offset == len(lead)


def test_varint_decode_memory_is_linear_in_its_bytes():
    # the code stream of a 1024-token chunk of the 4L x 4H x 16d benchmark model, 8-bit
    cfg = ModelConfig(n_layers=4, n_heads=4, d_head=16, vocab_size=256)
    tokens = np.random.default_rng(7).integers(0, 256, 1024).tolist()
    q = quantize(prefill(build_model(cfg), tokens)[0], PROFILES["8bit-varint"])
    data = _varint_encode(_anchor_deltas(q.codes.astype(np.int64), 16))
    tracemalloc.start()
    try:
        values = _varint_decode(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.size == 2 * 4 * 4 * 1024 * 16
    assert peak < 32 * len(data)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-(1 << 32), 1 << 32), max_size=64))
def test_varint_roundtrip(values):
    arr = np.array(values, dtype=np.int64)
    assert list(_varint_decode(_varint_encode(arr))) == values


# -- quantization ------------------------------------------------------------------


def _cache_from(k, v, start_pos=0):
    return KvCache(np.asarray([k, v], np.float32), start_pos)


def test_quantize_constant_group_is_exact():
    x = np.full((1, 1, 16, 2), 3.25, np.float32)
    q = quantize(_cache_from(x, x), CodecProfile())
    assert (q.codes == 0).all()
    restored = dequantize(q)
    assert np.array_equal(restored.k_pre, x)


def test_quantize_endpoints_hit_extreme_codes():
    x = np.zeros((1, 1, 16, 1), np.float32)
    x[0, 0, 0, 0] = 0.0
    x[0, 0, 15, 0] = 1.0
    q8 = quantize(_cache_from(x, x), CodecProfile(quant_bits=8))
    assert q8.codes[0, 0, 0, 0, 0] == 0 and q8.codes[0, 0, 0, 15, 0] == 255
    q4 = quantize(_cache_from(x, x), CodecProfile(quant_bits=4))
    assert q4.codes[0, 0, 0, 15, 0] == 15


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), bits=st.sampled_from([4, 8]))
def test_quantize_error_bound(seed, bits):
    cache = fixtures.random_cache(n_tokens=48, seed=seed)
    profile = CodecProfile(quant_bits=bits)
    q = quantize(cache, profile)
    restored = dequantize(q)
    for orig, rest, scale in (
        (cache.k_pre, restored.k_pre, q.scale[0]),
        (cache.v, restored.v, q.scale[1]),
    ):
        err = np.abs(orig.astype(np.float64) - rest.astype(np.float64))
        # per-group bound: |err| <= scale/2 (+ f32 grid rounding slack)
        bound = np.repeat(scale.astype(np.float64), profile.group_size, axis=2)[:, :, :48]
        assert (err <= bound / 2 + 1e-6).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    bits=st.sampled_from([4, 8]),
    t=st.integers(0, 130),
    group_size=st.sampled_from([1, 3, 16, 64]),
    n_const=st.integers(0, 40),
)
def test_quantize_matches_per_group_reference(seed, bits, t, group_size, n_const):
    # the grids come from one min and one max reduction per tensor, the codes
    # from one broadcast; the group-by-group loop must give the same bits,
    # ragged last group, constant groups and T = 0 included
    cache = fixtures.random_cache(n_tokens=t, seed=seed)
    cache.k_pre[:, :, :n_const] = 0.75
    profile = CodecProfile(quant_bits=bits, group_size=group_size)
    q = quantize(cache, profile)
    restored = dequantize(q)
    for x, codes, scale, zero, out in zip(cache.kv, q.codes, q.scale, q.zero, restored.kv):
        want = ref_quantize_tensor(x, bits, group_size)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip((codes, scale, zero), want))
        assert out.dtype == np.float32
        assert np.array_equal(out, ref_dequantize_tensor(*want, group_size))


def test_quantize_rejects_nonfinite():
    x = np.zeros((1, 1, 2, 2), np.float32)
    x[0, 0, 0, 0] = np.nan
    with pytest.raises(CodecError):
        quantize(_cache_from(x, np.zeros_like(x)), CodecProfile())


# -- delta coding -------------------------------------------------------------------


def test_delta_constant_channel():
    codes = np.full((1, 1, 4, 1), 7, np.uint8)
    stream = _anchor_deltas(codes.astype(np.int64), anchor_stride=16)
    assert list(stream) == [7, 0, 0, 0]
    assert np.array_equal(_anchor_sums(stream, (1, 1, 4, 1), 16).reshape(codes.shape), codes)


def test_delta_stride_one_is_identity():
    codes = np.arange(8, dtype=np.uint8).reshape(1, 1, 8, 1)
    stream = _anchor_deltas(codes.astype(np.int64), anchor_stride=1)
    assert list(stream) == list(range(8))


def test_delta_anchor_positions():
    codes = np.array([10, 12, 9, 9, 20], np.uint8).reshape(1, 1, 5, 1)
    stream = _anchor_deltas(codes.astype(np.int64), anchor_stride=2)
    # t=0 anchor, t=1 delta, t=2 anchor, t=3 delta, t=4 anchor
    assert list(stream) == [10, 2, 9, 0, 20]
    assert np.array_equal(_anchor_sums(stream, (1, 1, 5, 1), 2).reshape(codes.shape), codes)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    stride=st.sampled_from([1, 2, 16]),
    t=st.integers(1, 40),
)
def test_delta_roundtrip(seed, stride, t):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, size=(2, 1, t, 3), dtype=np.uint8)
    stream = _anchor_deltas(codes.astype(np.int64), stride)
    assert np.array_equal(_anchor_sums(stream, codes.shape, stride).reshape(codes.shape), codes)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 40), st.integers(1, 4)),
    stride=st.integers(1, 50),
)
def test_delta_decode_matches_reference(seed, shape, stride):
    stream = np.random.default_rng(seed).integers(-8, 40, size=int(np.prod(shape)))
    expected = ref_delta_decode(stream, shape, stride)
    if expected.size and (expected.min() < 0 or expected.max() > 255):
        with pytest.raises(DecodeError):
            _anchor_sums(stream, shape, stride)
    else:
        assert np.array_equal(_anchor_sums(stream, shape, stride).reshape(shape), expected)


def test_delta_decode_bad_size():
    with pytest.raises(DecodeError):
        _anchor_sums(np.zeros(5, np.int64), (1, 1, 2, 1), 16)
    with pytest.raises(DecodeError):
        _anchor_sums(np.zeros(5, np.uint8), (1, 1, 2, 1), 16)


def test_byte_delta_wraps_mod_256():
    codes = np.array([250, 3, 255, 0, 7], np.uint8).reshape(1, 1, 5, 1)
    stream = _anchor_deltas(codes, anchor_stride=4)
    assert stream.dtype == np.uint8
    # t=0 anchor, 3 - 250 = 9, 255 - 3 = 252, 0 - 255 = 1, t=4 anchor
    assert stream.tolist() == [250, 9, 252, 1, 7]
    assert np.array_equal(_anchor_sums(stream, codes.shape, 4).reshape(codes.shape), codes)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 40), st.integers(1, 4)),
    stride=st.integers(1, 50),
)
def test_byte_delta_decode_matches_reference(seed, shape, stride):
    stream = np.random.default_rng(seed).integers(0, 256, size=int(np.prod(shape)), dtype=np.uint8)
    decoded = _anchor_sums(stream, shape, stride).reshape(shape)
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, ref_byte_delta_decode(stream, shape, stride))
    assert np.array_equal(_anchor_deltas(decoded, stride), stream)


# -- lossless containers --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-255, 255), max_size=128),
    lid=st.sampled_from([LOSSLESS_VARINT, LOSSLESS_VARINT_DEFLATE]),
)
def test_lossless_roundtrip_signed(values, lid):
    arr = np.array(values, dtype=np.int64)
    assert list(lossless_decode(lossless_encode(arr, lid), lid, len(values))) == values


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(0, 255), max_size=128), lid=st.sampled_from([LOSSLESS_RAW, LOSSLESS_BYTE_DEFLATE]))
def test_lossless_roundtrip_bytes(values, lid):
    arr = np.array(values, dtype=np.int64)
    assert list(lossless_decode(lossless_encode(arr, lid), lid, len(values))) == values


def test_byte_containers_decode_to_uint8():
    # ids 0 and 3 carry one byte a value and hand back the bytes as decoded
    for lid in (LOSSLESS_RAW, LOSSLESS_BYTE_DEFLATE):
        assert lossless_decode(lossless_encode(np.arange(3), lid), lid, 3).dtype == np.uint8


def test_raw_rejects_signed():
    with pytest.raises(CodecError):
        lossless_encode(np.array([-1]), LOSSLESS_RAW)


@pytest.mark.parametrize("lid", [LOSSLESS_VARINT_DEFLATE, LOSSLESS_BYTE_DEFLATE])
def test_deflate_decode_rejects_garbage(lid):
    with pytest.raises(DecodeError):
        lossless_decode(b"not deflate", lid, 100)
    truncated = lossless_encode(np.arange(100), lid)[:-5]
    with pytest.raises(DecodeError):
        lossless_decode(truncated, lid, 100)


def test_deflate_cap_is_two_bytes_per_value():
    vals = np.full(100, -255)  # zigzags to 509: two varint bytes each
    data = lossless_encode(vals, LOSSLESS_VARINT_DEFLATE)
    assert lossless_decode(data, LOSSLESS_VARINT_DEFLATE, 100).tolist() == vals.tolist()
    with pytest.raises(DecodeError):
        lossless_decode(data, LOSSLESS_VARINT_DEFLATE, 99)


def test_byte_deflate_cap_is_one_byte_per_value():
    data = lossless_encode(np.arange(100), LOSSLESS_BYTE_DEFLATE)
    assert lossless_decode(data, LOSSLESS_BYTE_DEFLATE, 100).tolist() == list(range(100))
    with pytest.raises(DecodeError):
        lossless_decode(data, LOSSLESS_BYTE_DEFLATE, 99)


# -- full pipeline -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_decompress_equals_dequantized_quantize(name):
    profile = PROFILES[name]
    cache = fixtures.random_cache(n_tokens=40, seed=3)
    chunk = compress_cache(cache, profile)
    restored = decompress_cache(chunk)
    expected = dequantize(quantize(cache, profile))
    assert np.array_equal(restored.k_pre, expected.k_pre)
    assert np.array_equal(restored.v, expected.v)
    assert restored.start_pos == cache.start_pos


# SHA-256 of the blobs of fixtures.random_cache(n_tokens=8, seed=2): stored chunks of
# the older containers must keep decoding, so their encoders must not drift either
FROZEN_BLOB_DIGESTS = {
    LOSSLESS_RAW: "4882471a7ed83515919d4340d8548cc0336a4460b10f32536857d86136e57ab7",
    LOSSLESS_VARINT: "161b924cd49940db348511f1b17898176afc3245119e85b0ecef1e5291ab78ab",
    LOSSLESS_VARINT_DEFLATE: "495b446ed02340dc6d494a68e887b7bdf02b2356ed6332fe5f2746ce703b3012",
}


# id 2 at anchor stride 16, the stride the stores that hold it wrote it at
@pytest.mark.parametrize("profile", [PROFILES["8bit-raw"], PROFILES["8bit-varint"],
                                     CodecProfile(anchor_stride=16, lossless_id=LOSSLESS_VARINT_DEFLATE)])
def test_older_container_blobs_are_frozen(profile):
    blob = compress_cache(fixtures.random_cache(n_tokens=8, seed=2), profile).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == FROZEN_BLOB_DIGESTS[profile.lossless_id]


# SHA-256 of default-container blobs of the same fixture, at 8 and 4 bits: codes
# with no deltas (anchor_stride 1), params at DEFLATE level 1
FROZEN_DEFAULT_BLOB_DIGESTS = {
    "8bit-deflate": "994eb5ce909fb5fe081ea36aa37bd343b5f8e2688de124c03ef76875c8b8db1d",
    "4bit-deflate": "270aa46ce3bffda35dc194987ddbbf43f0b094e6c9afdade91133a43796027aa",
}


@pytest.mark.parametrize("name", sorted(FROZEN_DEFAULT_BLOB_DIGESTS))
def test_default_container_blobs_are_frozen(name):
    blob = compress_cache(fixtures.random_cache(n_tokens=8, seed=2), PROFILES[name]).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == FROZEN_DEFAULT_BLOB_DIGESTS[name]


# The 8-bit default-container blob of the same fixture as written before id 3
# dropped its deltas: anchor_stride 16, params at DEFLATE level 9.  Stores hold
# such blobs, so they must keep decoding.
OLD_DEFAULT_BLOB = Path(__file__).parent / "data" / "id3_stride16_level9.kdnc"


def test_an_old_default_container_blob_decodes_bit_for_bit():
    blob = OLD_DEFAULT_BLOB.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == "41be37a4da15501295dc9c8d6b66ce4c9ebd171e93422276650b45037cb94a23"
    chunk = CompressedChunk.from_bytes(blob)
    assert chunk.profile == CodecProfile(anchor_stride=16)
    expected = dequantize(quantize(fixtures.random_cache(n_tokens=8, seed=2), chunk.profile))
    assert np.array_equal(decompress_cache(chunk).kv.view(np.uint32), expected.kv.view(np.uint32))
    # today's writer at that profile changes only the params' DEFLATE level
    params_len = struct.unpack_from("<I", chunk.payload)[0]
    today = compress_cache(fixtures.random_cache(n_tokens=8, seed=2), chunk.profile).payload
    assert today[8 + struct.unpack_from("<I", today)[0] :] == chunk.payload[8 + params_len :]


# SHA-256 of the 8-bit blobs of fixtures.random_cache(n_tokens=40, seed=2) by
# (group_size, lossless_id): at group size 16 the groups are 16/16/8 tokens, so
# these pin multi-group and ragged grids in every container, ids 0-2 at anchor
# stride 16 and id 3 at stride 1, as its named profiles write it.  The codec
# calls no BLAS, so the bytes are the same on every platform.
FROZEN_MULTI_GROUP_BLOB_DIGESTS = {
    (1, LOSSLESS_RAW): "8b18e0b5ddcc9ecd23062ca76956b7767d397030264c56a725407f70285558a3",
    (1, LOSSLESS_VARINT): "0e434b0419bd803dce5814506e6a3f3029b91b8117d8b1297519081090017a3c",
    (1, LOSSLESS_VARINT_DEFLATE): "4b5227f0b413e72e9e11e26c8b04811bcf47ebf34ddcac54123a53c1f81d388d",
    (1, LOSSLESS_BYTE_DEFLATE): "d05e5efa44e99828b9802ee99ec26cfdb800ddff9ad8d5bbe1bca75115c35d64",
    (3, LOSSLESS_RAW): "987f7cbe7d738ad5f6aca3f6bdc34ab4e19149c11f4cc7d88a76767c33721ec9",
    (3, LOSSLESS_VARINT): "f84f476ae09b29f8171b8f1e75253820ea10dcce1bcd437840b8e0c115e46d40",
    (3, LOSSLESS_VARINT_DEFLATE): "b1654af55895db32b51664de430aa35750d2cb3e143fd796dab6161b35a8f536",
    (3, LOSSLESS_BYTE_DEFLATE): "e4cd82cea6b41377278a4a221964a05916546755e011d3c39050bc56754e89e7",
    (16, LOSSLESS_RAW): "61277f651594465de22e03f9b2415b4ad511dbb5bf487a6652033969e4290e77",
    (16, LOSSLESS_VARINT): "49c66e3f91e712fe494cd10fdfa1c0efd8b40b6c3a67c3665374f7a08448b7fd",
    (16, LOSSLESS_VARINT_DEFLATE): "493f0e74a414916536320d5201fc0b9bbf5fcff0f138b47a1bd34a3dbc82e7ef",
    (16, LOSSLESS_BYTE_DEFLATE): "7364d71362cec085e007768e81d7385c7f032a0ae26c5637d65b9680b963546f",
}


@pytest.mark.parametrize("group_size, lid", sorted(FROZEN_MULTI_GROUP_BLOB_DIGESTS))
def test_multi_group_blobs_are_frozen(group_size, lid):
    stride = 1 if lid == LOSSLESS_BYTE_DEFLATE else 16
    profile = CodecProfile(group_size=group_size, anchor_stride=stride, lossless_id=lid)
    blob = compress_cache(fixtures.random_cache(n_tokens=40, seed=2), profile).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == FROZEN_MULTI_GROUP_BLOB_DIGESTS[group_size, lid]


def test_default_container_is_byte_deflate():
    assert CodecProfile().lossless_id == LOSSLESS_BYTE_DEFLATE
    assert PROFILES["8bit-deflate"].lossless_id == PROFILES["4bit-deflate"].lossless_id == LOSSLESS_BYTE_DEFLATE


def test_the_default_profile_is_the_named_default():
    # a profile that names only its bits, as a JSON --profile may, writes what the named profiles write
    assert CodecProfile() == PROFILES["8bit-deflate"]
    assert CodecProfile.from_dict({"quant_bits": 4}) == PROFILES["4bit-deflate"]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    bits=st.sampled_from([4, 8]),
    t=st.integers(0, 130),
    stride_over=st.integers(0, 135),
    group_size=st.sampled_from([1, 3, 16, 64]),
)
def test_byte_deflate_decodes_as_varint_deflate(seed, bits, t, stride_over, group_size):
    stride = 1 + stride_over % (t + 5)  # 1 .. T + 5
    cache = fixtures.random_cache(n_tokens=t, seed=seed)
    cache.start_pos = seed
    decoded = []
    for lid in (LOSSLESS_VARINT_DEFLATE, LOSSLESS_BYTE_DEFLATE):
        profile = CodecProfile(quant_bits=bits, group_size=group_size, anchor_stride=stride, lossless_id=lid)
        blob = compress_cache(cache, profile).to_bytes()
        decoded.append(decompress_cache(CompressedChunk.from_bytes(blob)))
    old, new = decoded
    assert np.array_equal(old.k_pre, new.k_pre) and np.array_equal(old.v, new.v)
    assert new.start_pos == cache.start_pos


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    lid=st.sampled_from(_LOSSLESS_IDS),
    bits=st.sampled_from([4, 8]),
    t=st.integers(0, 130),
    group_size=st.sampled_from([1, 3, 16, 64]),
    stride=st.sampled_from([1, 5, 16, 200]),
)
def test_decompress_is_the_per_group_dequantized_quantize_bit_for_bit(seed, lid, bits, t, group_size, stride):
    # ragged windows and groups (T % stride, T % group_size), a stride past T, and T = 0
    cache = fixtures.random_cache(n_tokens=t, seed=seed)
    profile = CodecProfile(quant_bits=bits, group_size=group_size, anchor_stride=stride, lossless_id=lid)
    restored = decompress_cache(CompressedChunk.from_bytes(compress_cache(cache, profile).to_bytes())).kv
    expected = np.stack([ref_dequantize_tensor(*ref_quantize_tensor(x, bits, group_size), group_size) for x in cache.kv])
    assert restored.dtype == expected.dtype == np.float32
    assert restored.shape == expected.shape
    assert np.array_equal(restored.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize("lid", _LOSSLESS_IDS)
@pytest.mark.parametrize("t", [1, 10])
def test_decode_memory_does_not_grow_with_the_header_group_size(lid, t):
    # a group size or anchor stride far past T makes one group or window of T
    # tokens, so the chunk decodes as with T, in the same values and within
    # the same memory
    cache = fixtures.random_cache(n_layers=4, n_heads=4, n_tokens=t, d_head=16, seed=3)

    def decode(**size):
        chunk = compress_cache(cache, CodecProfile(lossless_id=lid, **size))
        tracemalloc.start()
        try:
            kv = decompress_cache(chunk).kv
            return kv, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for field in ("group_size", "anchor_stride"):
        restored, peak = decode(**{field: 65535})
        expected, expected_peak = decode(**{field: t})
        assert np.array_equal(restored.view(np.uint32), expected.view(np.uint32))
        assert peak < expected_peak + (4 << 10)


def test_chunk_wire_roundtrip():
    cache = fixtures.random_cache(n_tokens=20, seed=1)
    cache.start_pos = 64
    chunk = compress_cache(cache, PROFILES["8bit-deflate"])
    data = chunk.to_bytes()
    parsed = CompressedChunk.from_bytes(data)
    assert parsed.n_tokens == 20 and parsed.start_pos == 64
    assert parsed.payload == chunk.payload
    restored = decompress_cache(parsed)
    assert restored.start_pos == 64


def test_compression_ratios_on_smooth_fixture():
    cache = fixtures.smooth_cache()
    raw = 2 * 4 * np.prod(cache.k_pre.shape)
    chunk4 = compress_cache(cache, PROFILES["4bit-deflate"])
    assert raw / len(chunk4.to_bytes()) >= 8.0
    chunk_raw = compress_cache(cache, PROFILES["8bit-raw"])
    assert raw / len(chunk_raw.to_bytes()) >= 3.9


def _with_sections(chunk, params=None, codes=None):
    """``chunk`` with a payload section replaced, re-framed with a valid CRC."""
    params_len, _ = struct.unpack_from("<II", chunk.payload)
    params = chunk.payload[8 : 8 + params_len] if params is None else params
    codes = chunk.payload[8 + params_len :] if codes is None else codes
    payload = struct.pack("<II", len(params), len(codes)) + params + codes
    replaced = dataclasses.replace(chunk, payload=payload, crc=crc32c(payload))
    return CompressedChunk.from_bytes(replaced.to_bytes())


@pytest.mark.parametrize("damage, message", [
    ("short", "payload shorter than section lengths"),
    ("params+1", "payload section lengths inconsistent"),
    ("codes-1", "payload section lengths inconsistent"),
])
def test_section_lengths_must_frame_the_payload(damage, message):
    chunk = compress_cache(fixtures.random_cache(n_tokens=8, seed=2), PROFILES["8bit-deflate"])
    params_len, codes_len = struct.unpack_from("<II", chunk.payload)
    payload = {
        "short": chunk.payload[:7],
        "params+1": struct.pack("<II", params_len + 1, codes_len) + chunk.payload[8:],
        "codes-1": struct.pack("<II", params_len, codes_len - 1) + chunk.payload[8:],
    }[damage]
    bad = CompressedChunk.from_bytes(dataclasses.replace(chunk, payload=payload, crc=crc32c(payload)).to_bytes())
    with pytest.raises(DecodeError, match=message):
        decompress_cache(bad)


def test_overlong_varint_in_crc_valid_chunk():
    chunk = compress_cache(fixtures.random_cache(n_tokens=4, seed=2), PROFILES["8bit-varint"])
    with pytest.raises(DecodeError):
        decompress_cache(_with_sections(chunk, codes=b"\xff" * 10 + b"\x01"))


@pytest.fixture(scope="module")
def deflate_bomb():
    """DEFLATE of 64 MiB of zeros, about 64 KB."""
    z = zlib.compressobj(9)
    mib = bytes(1 << 20)
    return b"".join(z.compress(mib) for _ in range(64)) + z.flush()


@pytest.mark.parametrize("lid", [LOSSLESS_VARINT_DEFLATE, LOSSLESS_BYTE_DEFLATE])
@pytest.mark.parametrize("section", ["params", "codes"])
def test_inflation_is_bounded_by_geometry(deflate_bomb, section, lid):
    chunk = compress_cache(fixtures.random_cache(n_tokens=8, seed=2), CodecProfile(lossless_id=lid))
    bomb = _with_sections(chunk, **{section: deflate_bomb})
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError):
            decompress_cache(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_byte_deflate_code_section_must_inflate_to_one_byte_per_value(extra):
    cache = fixtures.random_cache(n_tokens=8, seed=2)
    chunk = compress_cache(cache, PROFILES["8bit-deflate"])
    n_values = 2 * 2 * 2 * 8 * 8  # 2 * L * H * T * D
    codes = zlib.compress(bytes(n_values + extra))
    bad = _with_sections(chunk, codes=codes)
    if extra:
        with pytest.raises(DecodeError):
            decompress_cache(bad)
    else:
        # all-zero deltas: every code is 0, so every value is its group's zero point
        restored = decompress_cache(bad)
        q = quantize(cache, PROFILES["8bit-deflate"])
        assert np.array_equal(restored.kv, np.repeat(q.zero, 8, axis=-2))


@pytest.mark.parametrize("extra", [-4, -1, 1, 4])
def test_byte_deflate_params_section_of_the_wrong_length(extra):
    chunk = compress_cache(fixtures.random_cache(n_tokens=8, seed=2), PROFILES["8bit-deflate"])
    params_len, _ = struct.unpack_from("<II", chunk.payload)
    raw = zlib.decompress(chunk.payload[8 : 8 + params_len])
    assert len(raw) == 16 * 2 * 2 * 1 * 8  # 4 arrays of f32 * L * H * groups * D
    padded = raw + bytes(extra) if extra > 0 else raw[:extra]
    with pytest.raises(DecodeError):
        decompress_cache(_with_sections(chunk, params=zlib.compress(padded)))


def test_byte_deflate_params_are_byte_planed():
    cache = fixtures.random_cache(n_tokens=8, seed=2)
    chunk = compress_cache(cache, PROFILES["8bit-deflate"])
    params_len, _ = struct.unpack_from("<II", chunk.payload)
    planes = np.frombuffer(zlib.decompress(chunk.payload[8 : 8 + params_len]), np.uint8).reshape(4, -1)
    q = quantize(cache, PROFILES["8bit-deflate"])
    floats = np.concatenate([a.reshape(-1) for a in (q.scale[0], q.zero[0], q.scale[1], q.zero[1])]).astype("<f4")
    assert np.array_equal(planes.T.copy().view("<f4").reshape(-1), floats)


def test_crc_corruption_detected():
    cache = fixtures.random_cache(n_tokens=8, seed=2)
    data = bytearray(compress_cache(cache, PROFILES["8bit-varint"]).to_bytes())
    data[50] ^= 0xFF  # inside payload (header is 45 bytes)
    with pytest.raises(CrcMismatch):
        CompressedChunk.from_bytes(bytes(data))


def test_truncated_chunk():
    cache = fixtures.random_cache(n_tokens=8, seed=2)
    data = compress_cache(cache, PROFILES["8bit-varint"]).to_bytes()
    with pytest.raises(DecodeError):
        CompressedChunk.from_bytes(data[:10])


def test_bad_magic_and_version():
    cache = fixtures.random_cache(n_tokens=4, seed=2)
    data = bytearray(compress_cache(cache, PROFILES["8bit-varint"]).to_bytes())
    bad = bytes(b"XXXX") + bytes(data[4:])
    with pytest.raises(DecodeError):
        CompressedChunk.from_bytes(bad)
    data[4] = 99  # version
    with pytest.raises(DecodeError):
        CompressedChunk.from_bytes(bytes(data))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=120))
def test_decode_totality_on_garbage(data):
    # arbitrary bytes must raise a codec error, never crash another way
    try:
        chunk = CompressedChunk.from_bytes(data)
        decompress_cache(chunk)
    except CodecError:
        pass


@settings(max_examples=100, deadline=None)
@given(pos=st.integers(0, 200), bit=st.integers(0, 7), lid=st.sampled_from([LOSSLESS_VARINT_DEFLATE, LOSSLESS_BYTE_DEFLATE]))
def test_decode_totality_on_mutations(pos, bit, lid):
    cache = fixtures.random_cache(n_tokens=8, seed=5)
    data = bytearray(compress_cache(cache, CodecProfile(lossless_id=lid)).to_bytes())
    pos %= len(data)
    data[pos] ^= 1 << bit
    try:
        chunk = CompressedChunk.from_bytes(bytes(data))
        decompress_cache(chunk)
    except CodecError:
        pass


def test_profile_validation():
    with pytest.raises(CodecError):
        CodecProfile(quant_bits=3)
    with pytest.raises(CodecError):
        CodecProfile(lossless_id=9)
    p = CodecProfile.from_dict(CodecProfile(quant_bits=4).to_dict())
    assert p.quant_bits == 4
