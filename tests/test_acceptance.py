"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints a
one-line verdict, so `pytest -s tests/test_acceptance.py` reads as a report.
"""

import dataclasses
import random
import time

import numpy as np
import pytest

from kdn import codec, fixtures
from kdn.blender import Segment, selective_blend
from kdn.codec import PROFILES, CodecError, _varint_decode, _varint_encode
from kdn.costmodel import (
    CostParams,
    Objective,
    PUBLISHED_MEASUREMENTS,
    System,
    WorkloadMix,
    comparison_report,
    empirical_mix,
    per_query,
    simulate_trace,
    threshold_r1,
)
from kdn.delivery import (
    CHUNK,
    END,
    ERR,
    REQ_KEYS,
    REQ_TOKENS,
    Client,
    Frame,
    KdnServer,
    LinkModel,
    _FRAME_OVERHEAD,
    decode_frame,
    encode_end,
    encode_frame,
    process_stream,
    simulate_fetch,
)
from kdn.model import ModelConfig, build_model, extend, prefill
from kdn.store import MODE_CHAIN, StoreConfig, open_store
from reference import ref_threshold_bisection


def _passed(n: int, detail: str) -> None:
    print(f"\n[PASS] criterion {n}: {detail}")


# -- 1. oracle exactness of prefix reuse ----------------------------------------------


def test_criterion_1_prefix_reuse_exactness():
    rng = random.Random(101)
    t0 = time.monotonic()
    worst = 0.0
    for case in range(200):
        cfg = ModelConfig(
            n_layers=rng.randint(1, 4),
            n_heads=rng.randint(1, 4),
            d_head=rng.choice([2, 4, 6, 8]),
            vocab_size=32,
        )
        m = build_model(cfg)
        total = rng.randint(2, 128)
        split = rng.randint(1, total - 1)
        tokens = [rng.randrange(32) for _ in range(total)]
        a, b = tokens[:split], tokens[split:]
        full_cache, full_states = prefill(m, a + b)
        pre_cache, pre_states = prefill(m, a)
        ext_cache, ext_states = extend(m, pre_cache, pre_states, b)
        diff = max(
            float(np.abs(ext_cache.k_pre - full_cache.k_pre).max()),
            float(np.abs(ext_cache.v - full_cache.v).max()),
            float(np.abs(ext_states - full_states).max()),
        )
        worst = max(worst, diff)
        assert diff <= 1e-9, f"case {case}: extend/prefill diverged by {diff}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (budget 30s)"
    _passed(1, f"200 (A,B) pairs, worst |extend - prefill| = {worst:.3g} <= 1e-9, {elapsed:.1f}s")


# -- 2. blend exactness at full recompute ----------------------------------------------


def test_criterion_2_blend_exactness():
    rng = random.Random(202)
    t0 = time.monotonic()
    worst = 0.0
    for case in range(50):
        cfg = ModelConfig(rng.randint(1, 3), rng.randint(1, 3), rng.choice([2, 4]), 16)
        m = build_model(cfg)
        segs = [
            Segment.from_tokens(m, [rng.randrange(16) for _ in range(rng.randint(1, 16))])
            for _ in range(rng.randint(1, 4))
        ]
        tokens = [t for s in segs for t in s.tokens]
        blended, states, _ = selective_blend(m, segs, 1.0)
        oracle_cache, oracle_states = prefill(m, tokens)
        scale = max(float(np.abs(oracle_cache.k_pre).max()), float(np.abs(oracle_states).max()), 1e-30)
        diff = max(
            float(np.abs(blended.k_pre - oracle_cache.k_pre).max()),
            float(np.abs(blended.v - oracle_cache.v).max()),
            float(np.abs(states - oracle_states).max()),
        )
        worst = max(worst, diff / scale)
        assert diff <= 1e-6 * scale, f"case {case}: r=1.0 blend off by {diff}"

    # frozen two-segment fixture: recorded error curve must be monotone
    m = build_model(ModelConfig(2, 2, 4, 32))
    segs = [
        Segment.from_tokens(m, [i % 32 for i in range(32)]),
        Segment.from_tokens(m, [(7 * i + 3) % 32 for i in range(32)]),
    ]
    errs = {r: selective_blend(m, segs, r)[2] for r in (0.0, 0.15, 0.5, 1.0)}
    assert errs[1.0].kv_error == 0.0 and errs[1.0].final_state_error == 0.0
    assert errs[1.0].kv_error <= errs[0.5].kv_error <= errs[0.15].kv_error <= errs[0.0].kv_error
    assert (
        errs[1.0].final_state_error
        <= errs[0.5].final_state_error
        <= errs[0.15].final_state_error
        <= errs[0.0].final_state_error
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    curve = " >= ".join(f"err({r})={errs[r].kv_error:.2e}" for r in (0.0, 0.15, 0.5, 1.0))
    _passed(2, f"50 r=1.0 cases worst rel err {worst:.3g} <= 1e-6; curve {curve}; {elapsed:.1f}s")


# -- 3. codec bounds -----------------------------------------------------------------------


def test_criterion_3_codec_bounds():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)

    # lossless roundtrip fuzz: 10^4 random signed integer streams
    for case in range(10_000):
        n = int(rng.integers(0, 24))
        vals = rng.integers(-(1 << 20), 1 << 20, size=n)
        for lid in (codec.LOSSLESS_VARINT, codec.LOSSLESS_VARINT_DEFLATE):
            # id 2 caps its DEFLATE output at 2 bytes a value, the varint width
            # of a code delta; these values take up to 4
            back = codec.lossless_decode(codec.lossless_encode(vals, lid), lid, 2 * n)
            assert np.array_equal(back, vals), f"lossless fuzz case {case} id {lid}"

    # quantization error bound on random caches, both bit widths
    for bits in (4, 8):
        profile = codec.CodecProfile(quant_bits=bits)
        for seed in range(5):
            cache = fixtures.random_cache(n_tokens=64, seed=seed, scale=2.0)
            q = codec.quantize(cache, profile)
            restored = codec.dequantize(q)
            for orig, rest, scale in (
                (cache.k_pre, restored.k_pre, q.scale[0]),
                (cache.v, restored.v, q.scale[1]),
            ):
                err = np.abs(orig.astype(np.float64) - rest.astype(np.float64))
                bound = np.repeat(scale.astype(np.float64), profile.group_size, axis=2)
                assert (err <= bound / 2 + 1e-6).all(), "quantization error above scale/2"

    # compression ratio floors on the smooth fixture
    cache = fixtures.smooth_cache()
    raw = 2 * 4 * int(np.prod(cache.k_pre.shape))
    r4 = raw / len(codec.compress_cache(cache, PROFILES["4bit-deflate"]).to_bytes())
    r8 = raw / len(codec.compress_cache(cache, PROFILES["8bit-raw"]).to_bytes())
    assert r4 >= 8.0, f"4-bit DEFLATE ratio {r4:.2f} < 8"
    assert r8 >= 3.9, f"8-bit raw ratio {r8:.2f} < 3.9"

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s (budget 60s)"
    _passed(3, f"10^4 lossless roundtrips exact; err <= scale/2; ratios {r4:.2f}x / {r8:.2f}x; {elapsed:.1f}s")


# -- 4. wire protocol -------------------------------------------------------------------


def test_criterion_4_wire_protocol(tmp_path):
    # golden bytes for the empty END frame
    assert encode_frame(encode_end([])).hex() == "4b444e3104040000000000000085c837a5"

    # decode(encode) identity on random frames
    rng = random.Random(404)
    for _ in range(500):
        frame = Frame(
            rng.choice([REQ_KEYS, REQ_TOKENS, CHUNK, END, ERR]),
            bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 200))),
        )
        decoded, consumed = decode_frame(encode_frame(frame))
        assert decoded == frame and consumed == len(encode_frame(frame))

    model = build_model(ModelConfig(2, 2, 4, 32))
    store = open_store(StoreConfig(root=tmp_path / "store", chunk_size=8))
    tokens = [i % 32 for i in range(10)]
    store.store_text(model, tokens)

    # server logic survives 10^4 arbitrary byte buffers
    for case in range(10_000):
        n = rng.randint(0, 40)
        buf = bytes(rng.getrandbits(8) for _ in range(n))
        if case % 3 == 0:
            buf = b"KDN1" + buf  # force magic-prefixed garbage too
        process_stream(store, buf)  # must not raise

    # end-to-end: put -> serve -> fetch, element-exact against the store side
    server = KdnServer(store, port=0)
    server.serve_in_background()
    try:
        host, port = server.server_address
        caches, miss = Client(host, port, timeout=10.0).fetch(model.model_id, MODE_CHAIN, tokens)
        assert miss == []
        hits, _ = store.retrieve_text(model.model_id, tokens)
        assert len(caches) == len(hits)
        for got, (_, chunk) in zip(caches, hits):
            want = codec.decompress_cache(chunk)
            assert np.array_equal(got.k_pre, want.k_pre)
            assert np.array_equal(got.v, want.v)
    finally:
        server.shutdown()
        server.server_close()
    _passed(4, "golden frame bytes; 500 decode(encode) identities; 10^4 fuzz inputs survived; "
               "TCP fetch element-exact")


# -- 5. cost model vs simulation -------------------------------------------------------------


def test_criterion_5_cost_model_vs_simulation():
    rng = random.Random(505)
    worst = 0.0
    for case in range(100):
        params = CostParams(
            refresh_period=rng.uniform(100, 10_000),
            c_gpu=rng.uniform(1e-5, 1e-2),
            c_store=rng.uniform(1e-13, 1e-9),
            c_net=rng.uniform(1e-13, 1e-9),
            s_model=rng.uniform(1e8, 1e10),
            s_kv=rng.uniform(1e7, 1e10),
            s_text=rng.uniform(1e3, 1e6),
            t_prefill=rng.uniform(0.5, 30.0),
            t_query=rng.uniform(0.0, 2.0),
            t_finetune=rng.uniform(60.0, 3600.0),
            bandwidth=rng.uniform(1e8, 1e11),
        )
        if rng.random() >= 0.5:  # half the cases charge no query prefill
            params = dataclasses.replace(params, t_query=0.0)
        paper_delay_kv = rng.random() < 0.5
        t = 0.0
        trace = []
        for _ in range(rng.randint(1, 80)):
            t += rng.expovariate(1.0 / (params.refresh_period / 10.0))
            trace.append((t, f"ctx{rng.randrange(rng.randint(1, 10))}"))
        mix = empirical_mix(trace, params.refresh_period)
        for system in System:
            sim = simulate_trace(params, trace, system, paper_delay_kv=paper_delay_kv)
            closed = per_query(system, params, mix, paper_delay_kv=paper_delay_kv)
            for attr in ("gpu_seconds", "storage_bytes", "network_bytes", "delay_seconds"):
                s, c = getattr(sim, attr), getattr(closed, attr)
                rel = abs(s - c) / max(abs(c), 1e-30) if c else abs(s)
                worst = max(worst, rel)
                assert rel <= 1e-12, f"case {case} {system.name}.{attr}: rel {rel}"

        # threshold closed form vs bisection
        objective = rng.choice([Objective.MONEY, Objective.DELAY])
        res = threshold_r1(params, objective)
        if res.kind == "crossing":
            assert 0.0 <= res.r1 <= 1.0
            assert abs(res.r1 - ref_threshold_bisection(params, objective)) <= 1e-9
    _passed(5, f"100 traces: worst closed-vs-simulated rel diff {worst:.3g} <= 1e-12; "
               "thresholds bisection-verified to 1e-9")


# -- 6. published-table ratios -----------------------------------------------------------------


def test_criterion_6_comparison_ratios():
    report = comparison_report(PUBLISHED_MEASUREMENTS)
    assert abs(report.inject_ratio - 40.0) <= 0.01
    assert abs(report.cost_ratio - 2.53) <= 0.01
    assert abs(report.delay_ratio - 3.67) <= 0.01
    _passed(6, f"inject {report.inject_ratio:.3f}x, cost {report.cost_ratio:.3f}x, "
               f"delay {report.delay_ratio:.3f}x (each within 0.01)")


# -- 7. store durability ----------------------------------------------------------------------


def _assert_consistent(store) -> None:
    blob_names = {p.name for p in store.blob_dir.iterdir()}
    entry_files = {e.file for e in store.entries.values()}
    assert entry_files <= blob_names, "dangling manifest entry"
    assert blob_names <= entry_files, "orphan blob survived recovery"
    for e in store.entries.values():
        assert (store.blob_dir / e.file).stat().st_size == e.size


def test_criterion_7_store_durability(tmp_path):
    model = build_model(ModelConfig(2, 2, 4, 32))
    rng = random.Random(707)

    root = tmp_path / "crash-store"
    survived = 0
    for case in range(100):
        store = open_store(StoreConfig(root=root, chunk_size=8))
        _assert_consistent(store)
        tokens = [rng.randrange(32) for _ in range(rng.randint(1, 12))]

        def boom():
            raise RuntimeError("injected crash")

        store._crash_hook = boom
        op = rng.random()
        try:
            if op < 0.7 or not store.entries:
                store.store_text(model, tokens)
            else:
                key = rng.choice([e.key for e in store.entries.values()])
                n = len(store.entries[key.digest].tokens)
                store.apply_edit(key, 1, {"factor": 2.0, "tokens": [rng.randrange(n)]})
        except RuntimeError:
            survived += 1
        store._crash_hook = None
        reopened = open_store(StoreConfig(root=root, chunk_size=8))
        _assert_consistent(reopened)
        # store stays usable after every crash
        reopened.store_text(model, [case % 32])
        _assert_consistent(reopened)
    assert survived >= 50  # idempotent re-puts legitimately skip the hook sometimes

    # eviction never exceeds capacity while unpinned entries exist
    cache, _ = prefill(model, [1, 2, 3, 4])
    one = len(codec.compress_cache(cache, codec.CodecProfile()).to_bytes())
    ev_store = open_store(StoreConfig(root=tmp_path / "evict", capacity=3 * one + 16, chunk_size=4))
    for i in range(40):
        toks = [(i + j) % 32 for j in range(4)]
        ev_store.store_text(model, toks, mode="standalone")
        assert ev_store.total_size <= ev_store.config.capacity
    _passed(7, f"100 injected crash points recovered consistently ({survived} crashes fired); "
               "capacity respected across 40 evicting puts")


# -- 8. delivery timing -------------------------------------------------------------------------


def test_criterion_8_delivery_timing(tmp_path):
    model = build_model(ModelConfig(2, 2, 4, 32))
    store = open_store(StoreConfig(root=tmp_path / "store", chunk_size=16))
    tokens = [i % 32 for i in range(64)]
    store.store_text(model, tokens)
    hits, _ = store.retrieve_text(model.model_id, tokens)
    sizes = [len(chunk.to_bytes()) for _, chunk in hits]
    assert len(sizes) == 4

    worst = 0.0
    for bandwidth, latency in ((1e6, 0.0), (1e6, 1e-3), (8 * 2**30, 0.05), (1e4, 0.2)):
        link = LinkModel(bandwidth=bandwidth, latency=latency)
        measured = simulate_fetch(link, sizes)
        closed = sum(sizes) / bandwidth + len(sizes) * latency
        rel = abs(measured - closed) / closed
        worst = max(worst, rel)
        assert rel <= 0.10, f"link {bandwidth}/{latency}: {measured} vs {closed}"
    # framing overhead is the only deviation: 13 bytes per chunk frame
    link = LinkModel(bandwidth=1e6, latency=1e-3)
    exact = sum(s + _FRAME_OVERHEAD for s in sizes) / 1e6 + len(sizes) * 1e-3
    assert simulate_fetch(link, sizes) == pytest.approx(exact, rel=1e-12)
    _passed(8, f"fetch time within {worst:.2%} of total_bytes/B + k*latency (budget 10%)")
