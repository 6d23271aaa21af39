import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdn.model import (
    TILE,
    KvCache,
    ModelConfig,
    ModelError,
    attend,
    build_model,
    concat_caches,
    extend,
    load_fixture,
    prefill,
    rebase,
    save_fixture,
)

from reference import ref_attend, ref_embed, ref_prefill, ref_weight

CFG = ModelConfig(n_layers=2, n_heads=2, d_head=4, vocab_size=32)


@pytest.fixture(scope="module")
def model():
    return build_model(CFG)


# -- closed-form weights -------------------------------------------------------


def test_weight_closed_form(model):
    cfg = CFG
    for layer in range(cfg.n_layers):
        for head in range(cfg.n_heads):
            base = layer * 64 + head * 4
            for role, w in ((0, model.wq), (1, model.wk), (2, model.wv)):
                got = w[layer, head]
                for i in (0, 3, cfg.d_model - 1):
                    for j in (0, cfg.d_head - 1):
                        assert got[i, j] == pytest.approx(
                            ref_weight(base + role, i, j, cfg.d_model), abs=1e-15
                        )
            wo = model.wo[layer, head]
            assert wo[1, 2] == pytest.approx(ref_weight(base + 3, 1, 2, cfg.d_head), abs=1e-15)


def test_weight_example_value():
    # tag 0, i 0, j 0, fan_in 16 -> 0.5*sin(0.37)/4
    cfg = ModelConfig(1, 4, 4, 8)
    m = build_model(cfg)
    assert m.wq[0, 0][0, 0] == pytest.approx(0.5 * math.sin(0.37) / 4.0, abs=1e-15)
    assert m.wq[0, 0][0, 0] == pytest.approx(0.04520193, abs=1e-8)


def test_embedding_closed_form(model):
    for v in (0, 5, 31):
        for j in (0, 7):
            assert model.embed[v, j] == pytest.approx(ref_embed(v, j), abs=1e-15)


def test_build_deterministic():
    a, b = build_model(CFG), build_model(CFG)
    for name in ("embed", "wq", "wk", "wv", "wo"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_model_id_config_sensitivity():
    base = CFG.model_id
    assert base == ModelConfig(2, 2, 4, 32).model_id
    assert base != ModelConfig(2, 2, 4, 33).model_id
    assert base != ModelConfig(2, 2, 4, 32, rope_base=500.0).model_id
    assert 0 <= base < 1 << 64


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(0, 2, 4, 32)
    with pytest.raises(ModelError):
        ModelConfig(2, 2, 5, 32)  # odd d_head
    with pytest.raises(ModelError):
        ModelConfig(2, 2, 4, 0)


# -- golden prefill vs independent oracle ---------------------------------------


def test_golden_prefill_small(model):
    tokens = [1, 2, 3]
    cache, states = prefill(model, tokens)
    k_ref, v_ref, x_ref = ref_prefill(2, 2, 4, 32, tokens)
    np.testing.assert_allclose(cache.k_pre, k_ref, atol=1e-6)
    np.testing.assert_allclose(cache.v, v_ref, atol=1e-6)
    np.testing.assert_allclose(states, x_ref, atol=1e-9)


def test_golden_prefill_offset_and_bigger():
    cfg = ModelConfig(3, 2, 6, 16, rope_base=1000.0)
    m = build_model(cfg)
    tokens = [3, 14, 0, 7, 7, 9, 1]
    cache, states = prefill(m, tokens, start_pos=5)
    k_ref, v_ref, x_ref = ref_prefill(3, 2, 6, 16, tokens, rope_base=1000.0, start_pos=5)
    np.testing.assert_allclose(cache.k_pre, k_ref, atol=1e-6)
    np.testing.assert_allclose(cache.v, v_ref, atol=1e-6)
    np.testing.assert_allclose(states, x_ref, atol=1e-9)
    assert cache.start_pos == 5


def test_golden_prefill_across_a_tile_edge():
    cfg = ModelConfig(1, 1, 4, 32)
    tokens = [(7 * i + 3) % 32 for i in range(TILE + 2)]
    cache, states = prefill(build_model(cfg), tokens)
    k_ref, v_ref, x_ref = ref_prefill(1, 1, 4, 32, tokens)
    np.testing.assert_allclose(cache.k_pre, k_ref, atol=1e-6)
    np.testing.assert_allclose(cache.v, v_ref, atol=1e-6)
    np.testing.assert_allclose(states, x_ref, atol=1e-9)


def test_single_token_kv_is_plain_projection(model):
    cache, _ = prefill(model, [5])
    for layer in range(CFG.n_layers):
        # layer 0 input is the raw embedding; K is a pre-rotation projection
        if layer == 0:
            for h in range(CFG.n_heads):
                expected = (model.embed[5] @ model.wk[0, h]).astype(np.float32)
                assert np.array_equal(cache.k_pre[0, h, 0], expected)


def test_empty_prefill(model):
    cache, states = prefill(model, [])
    assert cache.n_tokens == 0
    assert states.shape == (0, CFG.d_model)


def test_attend_zero_rows(model):
    # no query rows means no span groups, and an empty score workspace
    full, _ = prefill(model, [1, 2, 3])
    for cache in (full, full.slice_tokens(0, 0)):
        pos = np.arange(cache.n_tokens)
        out = attend(model, 0, np.zeros((0, CFG.d_model)), pos[:0], cache.k_pre[0], cache.v[0], pos)
        assert out.shape == (0, CFG.d_model)


def test_token_out_of_range(model):
    with pytest.raises(ModelError):
        prefill(model, [32])
    with pytest.raises(ModelError):
        extend(model, prefill(model, [1])[0], None, [-1])


# -- tiled attention ---------------------------------------------------------------

ATTN_CFG = ModelConfig(1, 2, 4, 32)


def _attend_inputs(n, start_pos, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ATTN_CFG.d_model))
    k_pre = rng.standard_normal((ATTN_CFG.n_heads, n, ATTN_CFG.d_head)).astype(np.float32)
    v = rng.standard_normal((ATTN_CFG.n_heads, n, ATTN_CFG.d_head)).astype(np.float32)
    return x, start_pos + np.arange(n), k_pre, v


@pytest.mark.parametrize("n", [127, 128, 129, 300])
@pytest.mark.parametrize("start_pos", [0, 70])
def test_attend_matches_untiled_reference(n, start_pos):
    m = build_model(ATTN_CFG)
    x, pos, k_pre, v = _attend_inputs(n, start_pos)
    got = attend(m, 0, x, pos, k_pre, v, pos)
    want = ref_attend(m, 0, x, pos, k_pre, v, pos)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # queries that see every key: the extend shape
    tail = slice(n - 5, n)
    got = attend(m, 0, x[tail], pos[tail], k_pre, v, pos)
    np.testing.assert_allclose(got, want[tail], rtol=0, atol=1e-12 * np.abs(want).max())
    # repeated positions make a span group of more than TILE rows; past the
    # first tile, the last row is a lone-row group, also as the widest one
    for rows in (np.r_[np.repeat(np.arange(min(n, TILE)), 2), n - 1], np.r_[0, n - 1]):
        got = attend(m, 0, x[rows], pos[rows], k_pre, v, pos)
        np.testing.assert_allclose(got, want[rows], rtol=0, atol=1e-12 * np.abs(want).max())


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(st.sampled_from([127, 128, 129, 257]), st.integers(1, 300)),
    start_pos=st.integers(0, 200),
)
def test_attend_rows_are_independent(data, n, start_pos):
    # a row's span depends only on its own position, never on the other rows
    # of the call; at these spans (under 512 keys) of this small model, any
    # subset reproduced the full call bit for bit (1024 keys: next test)
    m = build_model(ATTN_CFG)
    x, pos, k_pre, v = _attend_inputs(n, start_pos, seed=n)
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(sorted))
    full = attend(m, 0, x, pos, k_pre, v, pos)
    part = attend(m, 0, x[rows], pos[rows], k_pre, v, pos)
    assert np.array_equal(part, full[rows])


def test_attend_row_subsets_at_1024_keys():
    # a call over whole span groups repeats those rows of the full call bit
    # for bit; any other subset may round its products differently by row
    # count, so it is held to 1e-12 of the output's scale
    cfg = ModelConfig(1, 4, 16, 32)
    m = build_model(cfg)
    n = 1024
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, cfg.d_model))
    k_pre = rng.standard_normal((cfg.n_heads, n, cfg.d_head)).astype(np.float32)
    v = rng.standard_normal((cfg.n_heads, n, cfg.d_head)).astype(np.float32)
    pos = np.arange(n)
    full = attend(m, 0, x, pos, k_pre, v, pos)
    for lo in (0, 512, n - TILE):
        rows = np.arange(lo, lo + TILE)
        assert np.array_equal(attend(m, 0, x[rows], pos[rows], k_pre, v, pos), full[rows])
    for rows in ([n - 1], np.arange(1000, n), [5, 700, n - 1], np.sort(rng.choice(n, 40, replace=False))):
        got = attend(m, 0, x[rows], pos[rows], k_pre, v, pos)
        np.testing.assert_allclose(got, full[rows], rtol=0, atol=1e-12 * np.abs(full).max())


def test_prefill_rows_leave_the_cache_unchanged():
    # the final layer attends only the rows asked for; K/V never depend on them
    m = build_model(ModelConfig(3, 2, 4, 32))
    tokens = [(5 * i + 1) % 32 for i in range(300)]
    full_cache, full_states = prefill(m, tokens)
    for rows in ([], np.arange(256, 300), slice(128, 256)):
        cache, states = prefill(m, tokens, rows=rows)
        assert np.array_equal(cache.k_pre, full_cache.k_pre) and np.array_equal(cache.v, full_cache.v)
        assert np.array_equal(states, full_states[rows])


def test_attend_rejects_unordered_keys():
    m = build_model(ATTN_CFG)
    x, pos, k_pre, v = _attend_inputs(6, 10)
    for k_pos in (pos[::-1], np.array([10, 11, 12, 14, 15, 16]), np.array([10, 11, 11, 12, 13, 14])):
        with pytest.raises(ModelError):
            attend(m, 0, x, pos, k_pre, v, k_pos)
    with pytest.raises(ModelError):  # a query before the first key sees nothing
        attend(m, 0, x[:1], np.array([9]), k_pre, v, pos)


# -- extend == prefill -----------------------------------------------------------


def test_extend_equals_prefill(model):
    a, b = [1, 2, 3], [4, 5]
    full_cache, full_states = prefill(model, a + b)
    pre_cache, pre_states = prefill(model, a)
    ext_cache, ext_states = extend(model, pre_cache, pre_states, b)
    np.testing.assert_allclose(ext_cache.k_pre, full_cache.k_pre, atol=1e-9)
    np.testing.assert_allclose(ext_cache.v, full_cache.v, atol=1e-9)
    np.testing.assert_allclose(ext_states, full_states, atol=1e-9)


def test_extend_repeated(model):
    parts = [[1], [2, 3], [4], [5, 6, 7]]
    cache, states = prefill(model, parts[0])
    for p in parts[1:]:
        cache, states = extend(model, cache, states, p)
    full_cache, full_states = prefill(model, sum(parts, []))
    np.testing.assert_allclose(cache.k_pre, full_cache.k_pre, atol=1e-9)
    np.testing.assert_allclose(states, full_states, atol=1e-9)


def test_extend_without_prior_states(model):
    a, b = [3, 1, 4], [1, 5]
    pre_cache, _ = prefill(model, a)
    cache, states = extend(model, pre_cache, None, b)
    _, full_states = prefill(model, a + b)
    assert states.shape == (len(b), CFG.d_model)
    np.testing.assert_allclose(states, full_states[len(a):], atol=1e-9)
    assert cache.n_tokens == len(a) + len(b)


def test_extend_empty_suffix(model):
    cache, states = prefill(model, [1, 2])
    out_cache, out_states = extend(model, cache, states, [])
    assert np.array_equal(out_cache.k_pre, cache.k_pre)
    assert out_states.shape == states.shape


def test_extend_geometry_mismatch(model):
    other = build_model(ModelConfig(2, 2, 6, 32))
    cache, _ = prefill(other, [1])
    with pytest.raises(ModelError):
        extend(model, cache, None, [2])


def test_causality(model):
    # perturbing the last token leaves every earlier cache row bit-identical
    a = [1, 2, 3, 4, 5]
    c1, _ = prefill(model, a)
    c2, _ = prefill(model, a[:-1] + [9])
    assert np.array_equal(c1.k_pre[:, :, :4], c2.k_pre[:, :, :4])
    assert np.array_equal(c1.v[:, :, :4], c2.v[:, :, :4])
    assert not np.array_equal(c1.k_pre[:, :, 4], c2.k_pre[:, :, 4])


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n_layers=st.integers(1, 3),
    n_heads=st.integers(1, 3),
    d_head=st.sampled_from([2, 4, 6]),
)
def test_prefix_reuse_property(data, n_layers, n_heads, d_head):
    cfg = ModelConfig(n_layers, n_heads, d_head, 16)
    m = build_model(cfg)
    a = data.draw(st.lists(st.integers(0, 15), min_size=1, max_size=12))
    b = data.draw(st.lists(st.integers(0, 15), min_size=1, max_size=8))
    full_cache, full_states = prefill(m, a + b)
    pre_cache, pre_states = prefill(m, a)
    ext_cache, ext_states = extend(m, pre_cache, pre_states, b)
    np.testing.assert_allclose(ext_cache.k_pre, full_cache.k_pre, atol=1e-9)
    np.testing.assert_allclose(ext_cache.v, full_cache.v, atol=1e-9)
    np.testing.assert_allclose(ext_states, full_states, atol=1e-9)
    assert np.isfinite(full_states).all()


# -- cache plumbing ----------------------------------------------------------------


def test_rebase_is_metadata_only(model):
    cache, _ = prefill(model, [1, 2, 3])
    moved = rebase(cache, 40)
    assert moved.start_pos == 40
    assert np.array_equal(moved.k_pre, cache.k_pre)


def test_rebased_prefix_matches_offset_prefill(model):
    # pre-rotation storage: a standalone cache re-based to offset p equals
    # a prefill started at p (keys rotate at attention time)
    cache, _ = prefill(model, [4, 5, 6], start_pos=0)
    shifted, _ = prefill(model, [4, 5, 6], start_pos=7)
    assert np.array_equal(cache.k_pre[0], shifted.k_pre[0])  # layer 0 position-free
    moved = rebase(cache, 7)
    _, states_a = extend(model, moved, None, [])
    assert moved.start_pos == shifted.start_pos


def test_slice_and_concat_roundtrip(model):
    cache, _ = prefill(model, [1, 2, 3, 4, 5])
    left = cache.slice_tokens(0, 2)
    right = cache.slice_tokens(2, 5)
    assert left.start_pos == 0 and right.start_pos == 2
    back = concat_caches([left, right])
    assert np.array_equal(back.k_pre, cache.k_pre)
    assert np.array_equal(back.v, cache.v)
    with pytest.raises(ModelError):
        concat_caches([])


def test_cache_shape_validation():
    with pytest.raises(ModelError):
        KvCache(np.zeros((2, 2, 3, 4), np.float32), np.zeros((2, 2, 4, 4), np.float32))


def test_fixture_roundtrip(tmp_path, model):
    cache, states = prefill(model, [7, 8, 9], start_pos=2)
    path = tmp_path / "case.kdnf"
    save_fixture(path, CFG, cache, states)
    meta, cache2, states2 = load_fixture(path)
    assert meta["n_layers"] == 2 and meta["vocab_size"] == 32
    assert cache2.start_pos == 2
    assert np.array_equal(cache2.k_pre, cache.k_pre)
    assert np.array_equal(cache2.v, cache.v)
    np.testing.assert_allclose(states2, states, atol=1e-6)  # f32 storage


def test_fixture_header_overflow_is_model_error(tmp_path, model):
    cache, states = prefill(model, [7, 8, 9])
    path = tmp_path / "far.kdnf"
    with pytest.raises(ModelError):
        save_fixture(path, CFG, rebase(cache, 70_000), states)
    assert not path.exists()


def test_fixture_bad_magic(tmp_path):
    p = tmp_path / "bad.kdnf"
    p.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ModelError):
        load_fixture(p)
