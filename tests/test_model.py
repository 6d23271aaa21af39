import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdn.model import (
    MAX_SHIFT,
    TILE,
    KvCache,
    ModelConfig,
    ModelError,
    attend,
    build_model,
    concat_caches,
    exact_float,
    exact_int,
    extend,
    load_fixture,
    prefill,
    save_fixture,
    _project_kv,
    _rope_table,
)

from reference import _rope_rows, ref_attend, ref_embed, ref_prefill, ref_project_kv, ref_weight

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
    # layers, heads and dim are u16 in a chunk header; model_id packs each field as u32
    assert 0 <= ModelConfig(0xFFFF, 0xFFFF, 0xFFFE, 0xFFFFFFFF).model_id < 1 << 64
    for fields in ((1 << 16, 2, 4, 32), (2, 1 << 16, 4, 32), (2, 2, 1 << 16, 32), (2, 2, 4, 1 << 32), (1 << 32, 2, 4, 32)):
        with pytest.raises(ModelError):
            ModelConfig(*fields)


def test_config_from_dict_refuses_what_int_would_truncate():
    # a JSON number with no fraction is taken; a bool, a string, a fraction or a non-finite number is not
    for n_layers in (2, 2.0):
        assert ModelConfig.from_dict({"n_layers": n_layers, "n_heads": 2, "d_head": 4, "vocab_size": 32}) == CFG
    for n_layers in (True, "2", 2.9, "2.9", math.inf, math.nan):
        with pytest.raises(ValueError):
            ModelConfig.from_dict({"n_layers": n_layers, "n_heads": 2, "d_head": 4, "vocab_size": 32})
    # a rotary base that is not a finite number gives NaN angles, and one below 1
    # frequencies past 1 (an overflow at 5e-324); true is not 1.0
    for rope_base in (math.nan, math.inf, 0, -5, True, 5e-324, 1e-300, 0.5):
        with pytest.raises(ValueError):
            ModelConfig.from_dict({"n_layers": 2, "n_heads": 2, "d_head": 4, "vocab_size": 32, "rope_base": rope_base})


# any value json.loads returns; its strings include spellings of numbers, which int() and float() take
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.integers().map(str) | st.floats().map(str),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None)
@given(v=_JSON_VALUES)
def test_exact_int_and_exact_float_take_json_numbers_only(v):
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if number and (isinstance(v, int) or v.is_integer()):
        assert type(exact_int(v)) is int and exact_int(v) == int(v)
    else:
        with pytest.raises(ValueError):
            exact_int(v)
    if number:
        assert type(exact_float(v)) is float and repr(exact_float(v)) == repr(float(v))
    else:
        with pytest.raises(ValueError):
            exact_float(v)


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


@settings(max_examples=40, deadline=None)
@given(
    rows=st.one_of(st.sampled_from([0, 1, 2, 1024]), st.integers(0, 1024)),
    n_heads=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_project_kv_is_bit_equal_to_per_head_products(rows, n_heads, seed):
    # one batched product per role must round as the per-head products do,
    # the one-row (gemv) case included, whichever BLAS numpy links against
    m = build_model(ModelConfig(2, n_heads, 16, 32))
    x = np.random.default_rng(seed).standard_normal((rows, m.config.d_model))
    for layer in range(2):
        k, v = _project_kv(m, layer, x)
        ref_k, ref_v = ref_project_kv(m, layer, x)
        assert k.dtype == v.dtype == np.float32
        assert np.array_equal(k, ref_k) and np.array_equal(v, ref_v)


def test_empty_prefill(model):
    cache, states = prefill(model, [])
    assert cache.n_tokens == 0
    assert states.shape == (0, CFG.d_model)


def test_attend_zero_rows(model):
    # no query rows means no span groups, and an empty score workspace
    full, _ = prefill(model, [1, 2, 3])
    for cache in (full, full.slice_tokens(0, 0)):
        out = attend(model, 0, np.zeros((0, CFG.d_model)), np.arange(0), cache.k_pre[0], cache.v[0], cache.start_pos)
        assert out.shape == (0, CFG.d_model)


def test_token_out_of_range(model):
    with pytest.raises(ModelError):
        prefill(model, [32])
    with pytest.raises(ModelError):
        extend(model, prefill(model, [1])[0], None, [-1])


# -- tiled attention ---------------------------------------------------------------

ATTN_CFG = ModelConfig(1, 2, 4, 32)


def _attend_inputs(n, start_pos, seed=0, cfg=ATTN_CFG):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cfg.d_model))
    k_pre = rng.standard_normal((cfg.n_heads, n, cfg.d_head)).astype(np.float32)
    v = rng.standard_normal((cfg.n_heads, n, cfg.d_head)).astype(np.float32)
    return x, start_pos + np.arange(n), k_pre, v


def _head_shifts(m, x, k_pre):
    """Each (head, query row)'s softmax shift c = |q| max|k| over the head's keys."""
    q = np.linalg.norm(x @ m.wq[0], axis=-1) / np.sqrt(m.config.d_head)
    return q * np.linalg.norm(k_pre.astype(np.float64), axis=-1).max(axis=-1)[:, None]


def _shifts(m, x, k_pre):
    """Each query row's largest softmax shift over the heads."""
    return _head_shifts(m, x, k_pre).max(axis=0)


@pytest.mark.parametrize("n", [127, 128, 129, 300])
@pytest.mark.parametrize("start_pos", [0, 70])
def test_attend_matches_untiled_reference(n, start_pos):
    m = build_model(ATTN_CFG)
    x, pos, k_pre, v = _attend_inputs(n, start_pos)
    got = attend(m, 0, x, pos, k_pre, v, pos[0])
    want = ref_attend(m, 0, x, pos, k_pre, v, pos)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # queries that see every key: the extend shape
    tail = slice(n - 5, n)
    got = attend(m, 0, x[tail], pos[tail], k_pre, v, pos[0])
    np.testing.assert_allclose(got, want[tail], rtol=0, atol=1e-12 * np.abs(want).max())
    # repeated positions make a span group of more than TILE rows; past the
    # first tile, the last row is a lone-row group, also as the widest one
    for rows in (np.r_[np.repeat(np.arange(min(n, TILE)), 2), n - 1], np.r_[0, n - 1]):
        got = attend(m, 0, x[rows], pos[rows], k_pre, v, pos[0])
        np.testing.assert_allclose(got, want[rows], rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("cfg", [ModelConfig(1, 4, 16, 32), ModelConfig(1, 3, 6, 32)], ids=["4x16", "d_head-6"])
@pytest.mark.parametrize("start_pos", [0, 70])
def test_attend_matches_untiled_reference_at_1024_keys(cfg, start_pos):
    # the benchmark's geometry, whose 1/sqrt(d_head) scale is a power of two,
    # and d_head 6, whose scale is not: a full call and an extend's 64-row tail
    m = build_model(cfg)
    n = 1024
    x, pos, k_pre, v = _attend_inputs(n, start_pos, seed=n, cfg=cfg)
    want = ref_attend(m, 0, x, pos, k_pre, v, pos)
    for rows in (slice(None), slice(n - 64, n)):
        got = attend(m, 0, x[rows], pos[rows], k_pre, v, pos[0])
        np.testing.assert_allclose(got, want[rows], rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("cfg", [ATTN_CFG, ModelConfig(1, 4, 16, 32)], ids=["2x4", "4x16"])
@pytest.mark.parametrize("n", [300, 1024])
def test_attend_matches_untiled_reference_at_any_scale(cfg, n):
    # scaling x and k_pre by a scales every score by a^2.  A span group whose
    # rows' shifts c = |q| max|k| all stay under MAX_SHIFT folds its softmax
    # shift into Q.K^T; one past it subtracts each row's exact max.  The scale
    # that puts the largest c at 0.99 MAX_SHIFT rounds the folded shift most.
    m = build_model(cfg)
    x, pos, k_pre, v = _attend_inputs(n, 0, seed=n, cfg=cfg)
    worst = np.sqrt(0.99 * MAX_SHIFT / _shifts(m, x, k_pre).max())
    cs = []
    for a in (1e-3, 1.0, worst, 30.0, 1e3, 1e5):
        xa, ka = a * x, (a * k_pre).astype(np.float32)
        cs.append(_shifts(m, xa, ka))
        got = attend(m, 0, xa, pos, ka, v, pos[0])
        want = ref_attend(m, 0, xa, pos, ka, v, pos)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # every row of some case folds its shift, and every row of another takes the exact max
    assert min(c.max() for c in cs) < MAX_SHIFT < max(c.min() for c in cs)


@pytest.mark.parametrize("cfg", [ATTN_CFG, ModelConfig(1, 4, 16, 32)], ids=["2x4", "4x16"])
@pytest.mark.parametrize("n, p", [(300, 200), (1024, 700)])
def test_attend_future_keys_leak_nothing(cfg, n, p):
    # the diagonal tile's future keys get weight exactly 0: new keys and
    # values after position p leave every row at or before p bit for bit.
    # Key 0 has the largest norm, so each row's shift c does not move either
    m = build_model(cfg)
    x, pos, k_pre, v = _attend_inputs(n, 0, seed=n, cfg=cfg)
    k_pre[:, 0] = 8.0
    assert _shifts(m, x, k_pre).max() < MAX_SHIFT  # the fast path, whose mask follows exp
    before = attend(m, 0, x, pos, k_pre, v, pos[0])
    other = np.random.default_rng(n + 1).standard_normal((2, cfg.n_heads, n - p - 1, cfg.d_head))
    k_pre[:, p + 1 :], v[:, p + 1 :] = 0.5 * other
    after = attend(m, 0, x, pos, k_pre, v, pos[0])
    assert np.array_equal(after[: p + 1], before[: p + 1])
    assert not np.array_equal(after[p + 1 :], before[p + 1 :])


def _spike_future_key(m, x, k_pre, pos, r, f, heads):
    """Make key ``f`` score 1000 above every key row ``r`` sees, in ``heads``."""
    base, d = ATTN_CFG.rope_base, ATTN_CFG.d_head
    q = (x[r] @ m.wq[0])[heads]  # (head, dim), before rotation
    # key f rotated to position f lines up with q rotated to position r
    k_f = _rope_rows(q, np.full(len(q), r - f), base)
    k_pre[heads, f] = (1000.0 * np.sqrt(d) * k_f / (q**2).sum(axis=-1, keepdims=True)).astype(np.float32)
    s = np.einsum("hd,hkd->hk", _rope_rows(q, np.full(len(q), r), base), _rope_rows(k_pre[heads], pos, base)) / np.sqrt(d)
    assert (s[:, f] - s[:, : r + 1].max(axis=-1) > 745).all()


def test_attend_fallback_masks_before_its_row_max():
    # a future key in row r's diagonal tile scores 1000 above every key r
    # sees, which puts the group past MAX_SHIFT.  A row max taken over the
    # unmasked scores would be that future score, and every visible weight
    # exp(s - max) would underflow to 0: a 0/0 softmax
    m = build_model(ATTN_CFG)
    n, r, f = 300, 200, 230  # rows 192-255 are one group; key f is in its diagonal tile
    x, pos, k_pre, v = _attend_inputs(n, 0, seed=n)
    _spike_future_key(m, x, k_pre, pos, r, f, heads=[0, 1])
    assert _shifts(m, x, k_pre)[r] > MAX_SHIFT
    got = attend(m, 0, x, pos, k_pre, v, pos[0])
    want = ref_attend(m, 0, x, pos, k_pre, v, pos)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_attend_fallback_is_decided_per_head():
    # the spike is in head 0's keys alone: head 0 of the group takes the
    # exact row max, while head 1, whose shifts all stay under MAX_SHIFT,
    # keeps its shift folded into Q.K^T
    m = build_model(ATTN_CFG)
    n, r, f = 300, 200, 230
    x, pos, k_pre, v = _attend_inputs(n, 0, seed=n)
    _spike_future_key(m, x, k_pre, pos, r, f, heads=[0])
    group = (pos // TILE) == r // TILE
    c = _head_shifts(m, x, k_pre)[:, group]
    assert c[0].max() > MAX_SHIFT > c[1].max()
    got = attend(m, 0, x, pos, k_pre, v, pos[0])
    want = ref_attend(m, 0, x, pos, k_pre, v, pos)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_attend_scores_one_head_at_a_time():
    # a 1,024-row call over 1,024 keys of 4 heads: one head's scores of one
    # span group (64 rows x 1,024 keys, 512 KB) are live at a time, not all
    # four heads' (2 MB at 64-key tiles, 4 MB at 128)
    cfg = ModelConfig(1, 4, 16, 32)
    m = build_model(cfg)
    n = 1024
    x, pos, k_pre, v = _attend_inputs(n, 0, seed=n, cfg=cfg)
    attend(m, 0, x[:2], pos[:2], k_pre, v, pos[0])  # builds the rotary table outside the trace
    tracemalloc.start()
    try:
        attend(m, 0, x, pos, k_pre, v, pos[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_attend_bits_do_not_depend_on_the_call_before():
    # the rotary table of the last key span is kept: a call right after one
    # over other keys builds it afresh, and the call after that reuses it
    m = build_model(ATTN_CFG)
    x, pos, k_pre, v = _attend_inputs(300, 70)
    want = attend(m, 0, x, pos, k_pre, v, pos[0])
    for other in (slice(0, 200), slice(100, 300)):  # a shorter span, a later start
        attend(m, 0, x[other], pos[other], k_pre[:, other], v[:, other], pos[other][0])
        before = _rope_table.cache_info()
        miss = attend(m, 0, x, pos, k_pre, v, pos[0])
        hit = attend(m, 0, x, pos, k_pre, v, pos[0])
        after = _rope_table.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert np.array_equal(miss, want) and np.array_equal(hit, want)


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
    full = attend(m, 0, x, pos, k_pre, v, pos[0])
    part = attend(m, 0, x[rows], pos[rows], k_pre, v, pos[0])
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
    full = attend(m, 0, x, pos, k_pre, v, pos[0])
    for lo in (0, 512, n - TILE):
        rows = np.arange(lo, lo + TILE)
        assert np.array_equal(attend(m, 0, x[rows], pos[rows], k_pre, v, pos[0]), full[rows])
    for rows in ([n - 1], np.arange(1000, n), [5, 700, n - 1], np.sort(rng.choice(n, 40, replace=False))):
        got = attend(m, 0, x[rows], pos[rows], k_pre, v, pos[0])
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


def test_attend_rejects_a_query_before_the_keys():
    # a query before the first key sees nothing
    m = build_model(ATTN_CFG)
    x, pos, k_pre, v = _attend_inputs(6, 10)
    with pytest.raises(ModelError):
        attend(m, 0, x[:1], np.array([9]), k_pre, v, pos[0])


def test_attend_rejects_a_query_past_the_keys():
    # the rotary table covers the keys' positions only, so a query at any
    # position past them raises before anything is sized by it
    m = build_model(ATTN_CFG)
    x, pos, k_pre, v = _attend_inputs(6, 10)
    with pytest.raises(ModelError):
        attend(m, 0, x[:1], np.array([16]), k_pre, v, pos[0])
    tracemalloc.start()
    try:
        with pytest.raises(ModelError):
            attend(m, 0, x[:1], np.array([2**40]), k_pre, v, pos[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_a_cache_moved_to_a_new_start_matches_an_offset_prefill(model):
    # pre-rotation storage: moving a standalone cache to offset p is a new
    # start_pos over the same K/V, and it then extends as a prefill started at
    # p does (keys rotate at attention time, by relative position)
    cache, _ = prefill(model, [4, 5, 6], start_pos=0)
    shifted, _ = prefill(model, [4, 5, 6], start_pos=7)
    assert np.array_equal(cache.k_pre[0], shifted.k_pre[0])  # layer 0 position-free
    moved = KvCache(cache.kv, 7)
    assert moved.start_pos == shifted.start_pos and np.array_equal(moved.kv, cache.kv)
    got, got_states = extend(model, moved, None, [8, 9])
    want, want_states = extend(model, shifted, None, [8, 9])
    assert got.start_pos == 7
    np.testing.assert_allclose(got.kv, want.kv, atol=1e-12)
    np.testing.assert_allclose(got_states, want_states, atol=1e-12)


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
    with pytest.raises(ModelError, match="cache geometries do not match"):
        concat_caches([left, KvCache(np.zeros((2, 1, 2, 3, 4), np.float32))])


def test_concat_caches_starts_where_its_first_cache_does(model):
    cache, _ = prefill(model, [1, 2, 3, 4], start_pos=5)
    back = concat_caches([cache.slice_tokens(0, 1), cache.slice_tokens(1, 4)])
    assert back.start_pos == 5 and np.array_equal(back.kv, cache.kv)


def test_cache_shape_validation():
    with pytest.raises(ModelError):
        KvCache(np.zeros((2, 2, 3, 4), np.float32))
    with pytest.raises(ModelError):
        KvCache(np.zeros((3, 2, 2, 3, 4), np.float32))


def test_k_pre_and_v_are_writable_views_of_kv():
    cache = KvCache(np.zeros((2, 2, 2, 3, 4), np.float32))
    cache.v[0, 0, 1] += 1.0
    cache.k_pre[1, 1, 2, 0] = 5.0
    assert cache.kv[1, 0, 0, 1].tolist() == [1.0] * 4 and cache.kv[0, 1, 1, 2, 0] == 5.0
    assert cache.kv.sum() == 9.0


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
    # after the 16-byte header: K, then V, then the states, little-endian f32
    body = cache.k_pre.astype("<f4").tobytes() + cache.v.astype("<f4").tobytes() + states.astype("<f4").tobytes()
    assert path.read_bytes()[16:] == body


def test_fixture_header_overflow_is_model_error(tmp_path, model):
    cache, states = prefill(model, [7, 8, 9])
    path = tmp_path / "far.kdnf"
    with pytest.raises(ModelError):
        save_fixture(path, CFG, KvCache(cache.kv, 70_000), states)
    assert not path.exists()


def test_fixture_of_any_other_length_is_model_error(tmp_path, model):
    cache, states = prefill(model, [7, 8, 9])
    path = tmp_path / "case.kdnf"
    save_fixture(path, CFG, cache, states)
    data = path.read_bytes()
    kv_end = 16 + cache.kv.nbytes
    row = 4 * CFG.d_model
    # every K/V row and no state row is a fixture of zero state rows
    path.write_bytes(data[:kv_end])
    _, cache2, states2 = load_fixture(path)
    assert np.array_equal(cache2.kv, cache.kv) and states2.shape == (0, CFG.d_model)
    # cut inside the header, the K/V, the second state row and the last one; one
    # byte past the states; a state row more than the tokens
    for bad in (data[:10], data[:16], data[: kv_end - 6], data[: kv_end + row + 6], data[:-1], data + b"\0",
                data + data[kv_end: kv_end + row]):
        path.write_bytes(bad)
        with pytest.raises(ModelError, match="fixture"):
            load_fixture(path)


def test_fixture_bad_magic(tmp_path):
    p = tmp_path / "bad.kdnf"
    p.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ModelError):
        load_fixture(p)
