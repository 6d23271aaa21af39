import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kdn.model
from kdn import codec
from kdn.blender import (
    BlendError,
    Segment,
    _max_abs_error,
    _selection,
    concat_stale,
    prefix_extend_path,
    selective_blend,
)
from kdn.model import TILE, KvCache, ModelConfig, _run_layers, build_model, prefill
from kdn.store import StoreConfig, open_store

from reference import ref_blend_scores

CFG = ModelConfig(2, 2, 4, 32)

# frozen two-segment fixture: 32 + 32 tokens
TOKENS_A = [i % 32 for i in range(32)]
TOKENS_B = [(7 * i + 3) % 32 for i in range(32)]


@pytest.fixture(scope="module")
def model():
    return build_model(CFG)


@pytest.fixture(scope="module")
def segments(model):
    return [Segment.from_tokens(model, TOKENS_A), Segment.from_tokens(model, TOKENS_B)]


# -- segments / naive concat ----------------------------------------------------


def test_segment_validation(model):
    cache, _ = prefill(model, [1, 2, 3])
    with pytest.raises(BlendError):
        Segment([1, 2], cache)  # token count mismatch
    off, _ = prefill(model, [1, 2, 3], start_pos=4)
    with pytest.raises(BlendError):
        Segment([1, 2, 3], off)  # not standalone


def test_concat_stale_layout(model, segments):
    cache = concat_stale(model, segments)
    assert cache.n_tokens == 64 and cache.start_pos == 0
    # each region is the untouched standalone cache
    assert np.array_equal(cache.k_pre[:, :, :32], segments[0].stale_cache.k_pre)
    assert np.array_equal(cache.v[:, :, 32:], segments[1].stale_cache.v)


def test_concat_stale_rejects_empty_and_mismatched(model):
    with pytest.raises(BlendError):
        concat_stale(model, [])
    other = build_model(ModelConfig(2, 2, 6, 32))
    seg = Segment.from_tokens(other, [1, 2])
    with pytest.raises(BlendError):
        concat_stale(model, [seg])


# -- selection policy --------------------------------------------------------------


def test_selection_budget_and_must_include():
    scores = np.array([0.0, 9.0, 1.0, 5.0, 0.0, 0.0])
    assert _selection(scores, 1.0) == [0, 1, 2, 3, 4, 5]
    sel = _selection(scores, 0.5)  # budget 3: endpoints + best interior
    assert sel == [0, 1, 5]
    assert _selection(scores, 1e-9) == [5]  # budget 1 -> final token
    assert _selection(np.zeros(4), 0.5) == [0, 3]


def test_selection_ties_break_low_index():
    scores = np.array([0.0, 2.0, 2.0, 2.0, 0.0])
    assert _selection(scores, 0.6) == [0, 1, 4]


# -- selective blend ------------------------------------------------------------------


def test_ratio_out_of_range(model, segments):
    for r in (-0.1, 1.5):
        with pytest.raises(BlendError):
            selective_blend(model, segments, r)


def test_full_recompute_equals_prefill(model, segments):
    blended, states, report = selective_blend(model, segments, 1.0)
    oracle_cache, oracle_states = prefill(model, TOKENS_A + TOKENS_B)
    np.testing.assert_allclose(blended.k_pre, oracle_cache.k_pre, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(blended.v, oracle_cache.v, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(states, oracle_states, rtol=1e-6, atol=1e-9)
    assert report.kv_error == 0.0
    assert report.final_state_error == 0.0
    assert report.selected == list(range(64))


def test_single_segment_is_exact_at_any_ratio(model):
    seg = Segment.from_tokens(model, TOKENS_A)
    for r in (0.0, 0.3, 1.0):
        _, _, report = selective_blend(model, [seg], r)
        assert report.kv_error == 0.0
        assert report.final_state_error == pytest.approx(0.0, abs=1e-12)


def test_full_recompute_is_exact_at_1024_tokens():
    # the oracle's final layer attends only the last row's span group, which
    # rounds as that group does in a full call; a lone last row would not
    m = build_model(ModelConfig(2, 4, 16, 64))
    segs = [Segment.from_tokens(m, [(s * 37 + 11 * i) % 64 for i in range(256)]) for s in range(4)]
    _, _, report = selective_blend(m, segs, 1.0)
    assert report.kv_error == 0.0
    assert report.final_state_error == 0.0


@pytest.mark.parametrize("cfg", [ModelConfig(4, 4, 16, 256), ModelConfig(1, 4, 16, 256)])
def test_full_recompute_is_bit_equal_to_prefill(cfg):
    # 4 x 256 tokens: the benchmark's blend request shape
    m = build_model(cfg)
    seg_tokens = [[(s * 53 + 29 * i) % 256 for i in range(256)] for s in range(4)]
    blended, states, _ = selective_blend(m, [Segment.from_tokens(m, t) for t in seg_tokens], 1.0)
    oracle_cache, oracle_states = prefill(m, sum(seg_tokens, []))
    assert np.array_equal(blended.k_pre, oracle_cache.k_pre)
    assert np.array_equal(blended.v, oracle_cache.v)
    assert np.array_equal(states, oracle_states)


def test_a_blend_attends_only_the_rows_whose_states_it_reads(monkeypatch):
    # a segment keeps only its cache, so its prefill's final layer attends
    # no row; the recompute runs the selected rows and the oracle's final
    # layer the last row's span group
    cfg = ModelConfig(4, 4, 16, 256)
    m = build_model(cfg)
    seg_tokens = [[(s * 53 + 29 * i) % 256 for i in range(256)] for s in range(4)]
    rows = []
    real_attend = kdn.model.attend

    def counting_attend(mdl, layer, x_q, *args):
        rows.append(len(x_q))
        return real_attend(mdl, layer, x_q, *args)

    monkeypatch.setattr(kdn.model, "attend", counting_attend)
    segs = [Segment.from_tokens(m, t) for t in seg_tokens]
    _, _, report = selective_blend(m, segs, 0.15)
    L, n = cfg.n_layers, 1024
    want = (sum((L - 1) * len(t) for t in seg_tokens) + n + (L - 1) * len(report.selected)
            + (L - 2) * n + n - (n - 1) // TILE * TILE)
    assert sum(rows) == want == 6670


@pytest.mark.parametrize("ratio", [0.0, 0.15, 1.0])
def test_an_unverified_blend_runs_no_oracle(monkeypatch, ratio):
    # unverified, a blend attends layer 0 over every row and the later
    # layers over the selected ones; verified, the oracle's layers 1.. and,
    # at ratio 0, a prefill of the last segment come on top
    cfg = ModelConfig(4, 4, 16, 256)
    m = build_model(cfg)
    segs = [Segment.from_tokens(m, [(s * 53 + 29 * i) % 256 for i in range(256)]) for s in range(4)]
    rows = []
    real_attend = kdn.model.attend

    def counting_attend(mdl, layer, x_q, *args):
        rows.append(len(x_q))
        return real_attend(mdl, layer, x_q, *args)

    monkeypatch.setattr(kdn.model, "attend", counting_attend)
    L, n = cfg.n_layers, 1024
    counts = {}
    for verify in (False, True):
        rows.clear()
        _, _, report = selective_blend(m, segs, ratio, verify=verify)
        counts[verify] = sum(rows)
    blend_rows = n + (L - 1) * len(report.selected)
    oracle_rows = (L - 2) * n + n - (n - 1) // TILE * TILE
    tail_rows = (L - 1) * 256 + 256 - 255 // TILE * TILE if ratio == 0.0 else 0
    assert counts[False] == blend_rows
    assert counts[True] == blend_rows + oracle_rows + tail_rows


@pytest.mark.parametrize("n_layers", [1, 2])
def test_an_unverified_blend_differs_only_in_its_errors(n_layers):
    m = build_model(ModelConfig(n_layers, 2, 4, 32))
    segs = [Segment.from_tokens(m, TOKENS_A), Segment.from_tokens(m, TOKENS_B)]
    for r in (0.0, 0.15, 0.5, 1.0):
        blended, states, report = selective_blend(m, segs, r, verify=False)
        want_blended, want_states, want = selective_blend(m, segs, r)
        assert np.array_equal(blended.kv, want_blended.kv) and np.array_equal(states, want_states)
        assert report.selected == want.selected and np.array_equal(report.scores, want.scores)
        if r == 1.0:  # a blend that recomputes every row is the oracle prefill itself
            assert report.kv_error == report.final_state_error == want.kv_error == want.final_state_error == 0.0
        else:
            assert report.kv_error is None and report.final_state_error is None
    _, _, report = selective_blend(m, [Segment.from_tokens(m, [])], 0.15, verify=False)
    assert report.kv_error == report.final_state_error == 0.0


def test_blend_leaves_segments_unchanged(model, segments):
    # the blend writes into fresh arrays, never into a segment's
    for segs in (segments, segments[:1]):
        inputs = [a for s in segs for a in (s.stale_cache.k_pre, s.stale_cache.v)]
        before = [a.copy() for a in inputs]
        for r in (0.15, 1.0):
            blended, states, _ = selective_blend(model, segs, r)
            for out in (blended.k_pre, blended.v, states):
                assert not any(np.may_share_memory(out, a) for a in inputs)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


def test_empty_segment_blends(model):
    seg = Segment.from_tokens(model, [])
    for r in (0.0, 1.0):
        blended, states, report = selective_blend(model, [seg], r)
        assert blended.n_tokens == 0
        assert states.shape == (0, CFG.d_model)
        assert report.selected == []


def test_zero_ratio_is_pure_stale(model, segments):
    blended, states, report = selective_blend(model, segments, 0.0)
    stale = concat_stale(model, segments)
    assert np.array_equal(blended.k_pre, stale.k_pre)
    assert np.array_equal(blended.v, stale.v)
    assert report.selected == []


def test_first_segment_region_always_exact(model, segments):
    # the first segment sees no earlier context, so its rows match the oracle
    oracle_cache, _ = prefill(model, TOKENS_A + TOKENS_B)
    for r in (0.0, 0.5):
        blended, _, _ = selective_blend(model, segments, r)
        np.testing.assert_allclose(blended.k_pre[:, :, :32], oracle_cache.k_pre[:, :, :32], atol=1e-6)
        np.testing.assert_allclose(blended.v[:, :, :32], oracle_cache.v[:, :, :32], atol=1e-6)


def test_unselected_rows_keep_stale_values(model, segments):
    stale = concat_stale(model, segments)
    blended, _, report = selective_blend(model, segments, 0.3)
    untouched = sorted(set(range(64)) - set(report.selected))
    assert np.array_equal(blended.k_pre[:, :, untouched], stale.k_pre[:, :, untouched])
    assert np.array_equal(blended.v[:, :, untouched], stale.v[:, :, untouched])


def test_frozen_error_curve(model, segments):
    errs = {}
    for r in (0.0, 0.15, 0.5, 1.0):
        _, _, report = selective_blend(model, segments, r)
        errs[r] = report
    # acceptance ordering: err(1.0)=0 <= err(0.5) <= err(0.15) <= err(0)
    assert errs[1.0].kv_error == 0.0
    assert errs[1.0].kv_error <= errs[0.5].kv_error <= errs[0.15].kv_error <= errs[0.0].kv_error
    assert (
        errs[1.0].final_state_error
        <= errs[0.5].final_state_error
        <= errs[0.15].final_state_error
        <= errs[0.0].final_state_error
    )
    # frozen regression values for this fixture
    assert errs[0.0].kv_error == pytest.approx(6.7838002e-3, rel=1e-4)
    assert errs[0.0].final_state_error == pytest.approx(1.3598449e-3, rel=1e-4)
    assert errs[0.15].kv_error == pytest.approx(3.0656159e-4, rel=1e-4)
    assert errs[0.15].final_state_error == pytest.approx(1.0799811e-5, rel=1e-4)
    assert errs[0.5].kv_error == pytest.approx(1.5839934e-5, rel=1e-4)
    assert errs[0.5].final_state_error == pytest.approx(3.1526781e-7, rel=1e-4)
    assert len(errs[0.15].selected) == 10
    assert len(errs[0.5].selected) == 32


def test_scores_concentrate_on_second_segment(model, segments):
    _, _, report = selective_blend(model, segments, 0.15)
    # first segment tokens are already exact, so deviation lives in segment 2
    assert np.abs(report.scores[:32]).max() < 1e-6
    assert report.scores[32:].max() > 0
    interior = [i for i in report.selected if i not in (0, 63)]
    assert all(i >= 32 for i in interior)


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(st.sampled_from([0, 1, 2, 1024]), st.integers(0, 1024)),
    n_heads=st.integers(1, 4),
)
def test_scores_are_bit_equal_to_per_head_accumulation(data, n, n_heads):
    # one batched product and two sums must repeat the head-by-head loop bit
    # for bit, whichever BLAS numpy links against
    m = build_model(ModelConfig(2, n_heads, 4, 32))
    tokens = data.draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    cut = data.draw(st.integers(0, n))
    segs = [Segment.from_tokens(m, tokens[:cut]), Segment.from_tokens(m, tokens[cut:])]
    _, _, report = selective_blend(m, segs, 0.0)
    # the fresh first-layer states of the concatenation, as the blend makes them
    zero_cache = KvCache(np.zeros((2, 2, n_heads, n, 4), np.float32))
    h1 = _run_layers(m, zero_cache, m.embed[tokens], slice(None), range(1))
    stale_v1 = np.concatenate([seg.stale_cache.v[1] for seg in segs], axis=1)
    assert np.array_equal(report.scores, ref_blend_scores(m, h1, stale_v1))


def _float64_max_abs_error(got, want):
    return float(np.abs(got.astype(np.float64) - want.astype(np.float64)).max())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(width=32, allow_infinity=False), st.floats(width=32, allow_infinity=False)),
                min_size=1, max_size=40))
def test_max_abs_error_is_the_float64_maximum(pairs):
    # the float32 pass only narrows the elements that float64 then compares,
    # so the result is the float64 maximum bit for bit, overflow and NaN included
    got, want = (np.array(col, dtype=np.float32) for col in zip(*pairs))
    assert str(_max_abs_error(got, want)) == str(_float64_max_abs_error(got, want))


def test_max_abs_error_breaks_a_float32_tie_in_float64():
    # 1 - 2**-26 and 1 - 2**-27 both round to 1.0 in float32; the second is larger
    got = np.ones(2, np.float32)
    want = np.array([2.0**-26, 2.0**-27], np.float32)
    assert _max_abs_error(got, want) == 1 - 2.0**-27 == _float64_max_abs_error(got, want)


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    n_layers=st.integers(1, 3),
)
def test_full_recompute_property(data, n_layers):
    cfg = ModelConfig(n_layers, 2, 4, 16)
    m = build_model(cfg)
    n_segs = data.draw(st.integers(1, 3))
    seg_tokens = [
        data.draw(st.lists(st.integers(0, 15), min_size=1, max_size=10)) for _ in range(n_segs)
    ]
    segs = [Segment.from_tokens(m, t) for t in seg_tokens]
    blended, states, report = selective_blend(m, segs, 1.0)
    oracle_cache, oracle_states = prefill(m, sum(seg_tokens, []))
    np.testing.assert_allclose(blended.k_pre, oracle_cache.k_pre, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(states, oracle_states, rtol=1e-6, atol=1e-9)


# -- exact-prefix path ------------------------------------------------------------------


def test_prefix_extend_path(tmp_path, model):
    st = open_store(StoreConfig(root=tmp_path / "store", chunk_size=8))
    prefix = [i % 32 for i in range(16)]
    suffix = [3, 1, 4]
    st.store_text(model, prefix)
    hits, miss = st.retrieve_text(model.model_id, prefix + suffix)
    assert miss == suffix
    cache, states = prefix_extend_path(model, hits, miss)
    oracle_cache, oracle_states = prefill(model, prefix + suffix)
    assert cache.n_tokens == 19
    # prefix rows went through the codec; 8-bit quantization bounds the error
    assert np.abs(cache.k_pre - oracle_cache.k_pre).max() < 5e-3
    assert states.shape == (3, CFG.d_model)
    np.testing.assert_allclose(states, oracle_states[16:], atol=5e-3)


def test_prefix_extend_path_no_hits(model):
    cache, states = prefix_extend_path(model, [], [1, 2, 3])
    oracle_cache, oracle_states = prefill(model, [1, 2, 3])
    assert np.array_equal(cache.k_pre, oracle_cache.k_pre)
    np.testing.assert_allclose(states, oracle_states, atol=1e-12)
    with pytest.raises(BlendError):
        prefix_extend_path(model, [], [])


def test_prefix_extend_path_checks_hit_geometry_before_decoding():
    # a CRC-valid default-container chunk of zeros that claims 8 x 8 x 2048 x 8:
    # about 3 KB, decoding to 16 MB of K/V
    L, H, T, D = 8, 8, 2048, 8
    params = zlib.compress(bytes(16 * L * H * (T // 16) * D), 9)
    codes = zlib.compress(bytes(2 * L * H * T * D), 9)
    payload = struct.pack("<II", len(params), len(codes)) + params + codes
    blob = codec.CompressedChunk(codec.CodecProfile(), L, H, D, T, 0, 8 * L * H * T * D,
                                 payload, codec.crc32c(payload)).to_bytes()
    assert len(blob) == 3151
    chunk = codec.CompressedChunk.from_bytes(blob)
    m = build_model(ModelConfig(4, 4, 16, 256))
    tracemalloc.start()
    try:
        with pytest.raises(BlendError):
            prefix_extend_path(m, [(None, chunk)], [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a hit of the model's geometry after it is refused too, before any decode
    good = codec.compress_cache(prefill(m, [1, 2])[0], codec.CodecProfile())
    with pytest.raises(BlendError):
        prefix_extend_path(m, [(None, good), (None, chunk)], [3])
