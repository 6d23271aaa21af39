import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdn import codec
from kdn.blender import (
    BlendError,
    Segment,
    _selection,
    concat_stale,
    prefix_extend_path,
    selective_blend,
)
from kdn.model import ModelConfig, build_model, prefill
from kdn.store import StoreConfig, open_store

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
    cache, boundaries = concat_stale(model, segments)
    assert boundaries == [0, 32]
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


def test_empty_segment_blends(model):
    seg = Segment.from_tokens(model, [])
    for r in (0.0, 1.0):
        blended, states, report = selective_blend(model, [seg], r)
        assert blended.n_tokens == 0
        assert states.shape == (0, CFG.d_model)
        assert report.selected == []


def test_zero_ratio_is_pure_stale(model, segments):
    blended, states, report = selective_blend(model, segments, 0.0)
    stale, _ = concat_stale(model, segments)
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
    stale, _ = concat_stale(model, segments)
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
