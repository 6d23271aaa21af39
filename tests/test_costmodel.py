import math

import pytest
from hypothesis import given, settings, strategies as st
from reference import ref_classify, ref_threshold_bisection

from kdn.costmodel import (
    PUBLISHED_MEASUREMENTS,
    CostModelError,
    CostParams,
    Objective,
    System,
    SystemMeasurement,
    ThresholdResult,
    WorkloadMix,
    best_system,
    comparison_report,
    empirical_mix,
    per_query,
    simulate_trace,
    threshold_r1,
    validate_trace,
)

PARAMS = CostParams(
    refresh_period=3600.0,
    c_gpu=2.0 / 3600.0,
    c_store=1e-10,
    c_net=1e-9,
    s_model=5e9,
    s_kv=2e9,
    s_text=4e4,
    t_prefill=8.0,
    t_query=0.4,
    t_finetune=900.0,
    bandwidth=1e10,
)

NO_TQ = CostParams(**{**PARAMS.__dict__, "t_query": 0.0})


# -- parameter validation -----------------------------------------------------------


def test_params_validation():
    with pytest.raises(CostModelError):
        CostParams(**{**PARAMS.__dict__, "bandwidth": 0.0})
    with pytest.raises(CostModelError):
        CostParams(**{**PARAMS.__dict__, "t_prefill": -1.0})
    with pytest.raises(CostModelError):
        CostParams(**{**PARAMS.__dict__, "t_query": -0.1})
    for name in ("t_query", "t_prefill", "bandwidth"):
        for value in (math.nan, math.inf):
            with pytest.raises(CostModelError, match="finite"):
                CostParams(**{**PARAMS.__dict__, name: value})
    # t_query == 0 is allowed
    CostParams(**{**PARAMS.__dict__, "t_query": 0.0})


def test_params_from_dict():
    p = CostParams.from_dict(
        {
            "T": 3600,
            "C_gpu": 2 / 3600,
            "C_store": 1e-10,
            "C_net": 1e-9,
            "S_model": 5e9,
            "S_kv": 2e9,
            "S_text": 4e4,
            "T_prefill": 8,
            "T_Q": 0.4,
            "T_finetune": 900,
            "B": 1e10,
        }
    )
    assert p == PARAMS
    assert CostParams.from_dict({**_as_doc(), "T_Q": 0}).t_query == 0.0


def _as_doc():
    return {
        "T": PARAMS.refresh_period,
        "C_gpu": PARAMS.c_gpu,
        "C_store": PARAMS.c_store,
        "C_net": PARAMS.c_net,
        "S_model": PARAMS.s_model,
        "S_kv": PARAMS.s_kv,
        "S_text": PARAMS.s_text,
        "T_prefill": PARAMS.t_prefill,
        "T_Q": PARAMS.t_query,
        "T_finetune": PARAMS.t_finetune,
        "B": PARAMS.bandwidth,
    }


def test_mix_validation():
    WorkloadMix(0.5, 0.5)
    with pytest.raises(CostModelError):
        WorkloadMix(-0.1, 0.0)
    with pytest.raises(CostModelError):
        WorkloadMix(0.7, 0.6)
    for r1, r2 in ((math.nan, 0.0), (0.0, math.nan), (0.0, -math.inf)):
        with pytest.raises(CostModelError, match="finite"):
            WorkloadMix(r1, r2)


# -- closed-form table cells ----------------------------------------------------------


def test_ft_trivials():
    b = per_query(System.FT, NO_TQ, WorkloadMix(0.0, 0.0))
    assert (b.gpu_seconds, b.storage_bytes, b.network_bytes, b.delay_seconds) == (0, 0, 0, 0)
    assert b.money == 0.0
    b = per_query(System.FT, NO_TQ, WorkloadMix(0.0, 1.0))
    assert b.gpu_seconds == PARAMS.t_finetune
    assert b.storage_bytes == PARAMS.s_model
    assert b.network_bytes == PARAMS.s_model
    assert b.delay_seconds == PARAMS.t_finetune


def test_ic_is_mix_independent():
    a = per_query(System.IC, PARAMS, WorkloadMix(0.0, 0.0))
    b = per_query(System.IC, PARAMS, WorkloadMix(0.9, 0.1))
    assert a == b
    assert a.gpu_seconds == PARAMS.t_prefill + PARAMS.t_query
    assert a.network_bytes == PARAMS.s_text
    assert a.storage_bytes == 0.0


def test_kv_endpoints():
    cold = per_query(System.KV, NO_TQ, WorkloadMix(0.0, 1.0))
    assert cold.gpu_seconds == PARAMS.t_prefill
    assert cold.storage_bytes == PARAMS.s_kv
    assert cold.network_bytes == 0.0
    assert cold.delay_seconds == PARAMS.t_prefill
    hot = per_query(System.KV, NO_TQ, WorkloadMix(1.0, 0.0))
    assert hot.gpu_seconds == 0.0
    assert hot.network_bytes == PARAMS.s_kv
    assert hot.delay_seconds == pytest.approx(PARAMS.s_kv / PARAMS.bandwidth)


def test_tq_convention():
    without = per_query(System.KV, NO_TQ, WorkloadMix(0.5, 0.2))
    with_tq = per_query(System.KV, PARAMS, WorkloadMix(0.5, 0.2))
    assert with_tq.gpu_seconds == pytest.approx(without.gpu_seconds + PARAMS.t_query)
    assert with_tq.delay_seconds == pytest.approx(without.delay_seconds + PARAMS.t_query)
    assert with_tq.network_bytes == without.network_bytes


def test_paper_delay_convention():
    r1 = 0.7
    paper = per_query(System.KV, PARAMS, WorkloadMix(r1, 0.0), paper_delay_kv=True)
    assert paper.delay_seconds == pytest.approx(
        r1 * PARAMS.t_prefill + (1 - r1) * PARAMS.s_kv / PARAMS.bandwidth + PARAMS.t_query
    )
    default = per_query(System.KV, PARAMS, WorkloadMix(r1, 0.0))
    assert default.delay_seconds == pytest.approx(
        (1 - r1) * PARAMS.t_prefill + r1 * PARAMS.s_kv / PARAMS.bandwidth + PARAMS.t_query
    )
    # non-delay columns are unaffected by the delay convention
    assert paper.gpu_seconds == default.gpu_seconds
    assert paper.network_bytes == default.network_bytes


def test_money_is_priced_sum():
    b = per_query(System.KV, PARAMS, WorkloadMix(0.3, 0.1))
    assert b.money == pytest.approx(
        b.gpu_seconds * PARAMS.c_gpu
        + b.storage_bytes * PARAMS.c_store
        + b.network_bytes * PARAMS.c_net
    )


def test_linearity_in_mix():
    # each column is affine in (r1, r2): check midpoint interpolation
    for system in System:
        a = per_query(system, PARAMS, WorkloadMix(0.0, 0.0))
        b = per_query(system, PARAMS, WorkloadMix(0.8, 0.2))
        mid = per_query(system, PARAMS, WorkloadMix(0.4, 0.1))
        for attr in ("gpu_seconds", "storage_bytes", "network_bytes", "delay_seconds", "money"):
            assert getattr(mid, attr) == pytest.approx(
                (getattr(a, attr) + getattr(b, attr)) / 2, rel=1e-12, abs=1e-15
            )


# -- trace simulation -------------------------------------------------------------------


def _assert_sim_matches_closed(trace, params=PARAMS, paper_delay_kv=False):
    mix = empirical_mix(trace, params.refresh_period)
    for system in System:
        sim = simulate_trace(params, trace, system, paper_delay_kv=paper_delay_kv)
        closed = per_query(system, params, mix, paper_delay_kv=paper_delay_kv)
        for attr in ("gpu_seconds", "storage_bytes", "network_bytes", "delay_seconds", "money"):
            s, c = getattr(sim, attr), getattr(closed, attr)
            assert s == pytest.approx(c, rel=1e-12, abs=1e-12 * max(1.0, abs(c)))


def test_trace_handcrafted():
    trace = [
        (0.0, "a"),  # never seen: r2 event
        (10.0, "a"),  # seen this period: r1 event
        (20.0, "b"),  # r2
        (3700.0, "a"),  # new period, already known globally: neither r1 nor r2
        (3800.0, "a"),  # r1
    ]
    mix = empirical_mix(trace, PARAMS.refresh_period)
    assert mix.r1 == pytest.approx(2 / 5)
    assert mix.r2 == pytest.approx(2 / 5)
    _assert_sim_matches_closed(trace)


def test_trace_single_query():
    _assert_sim_matches_closed([(0.0, "x")])


def test_trace_all_repeats():
    trace = [(float(i), "ctx") for i in range(10)]
    mix = empirical_mix(trace, PARAMS.refresh_period)
    assert mix.r1 == pytest.approx(0.9)
    _assert_sim_matches_closed(trace)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    n_ctx=st.integers(1, 8),
    case=st.sampled_from([(PARAMS, False), (NO_TQ, False), (PARAMS, True)]),
)
def test_trace_property(seed, n, n_ctx, case):
    import random

    rng = random.Random(seed)
    t = 0.0
    trace = []
    for _ in range(n):
        t += rng.expovariate(1 / 400.0)
        trace.append((t, f"c{rng.randrange(n_ctx)}"))
    params, paper_delay_kv = case
    _assert_sim_matches_closed(trace, params, paper_delay_kv)


@settings(max_examples=200, deadline=None)
@given(
    refresh_period=st.one_of(st.sampled_from([1e-3, 0.1, 1.0, 3600.0, 1e4]), st.floats(1e-3, 1e4)),
    # (whole periods, fraction of a period, context): a fraction of 0 lands on a boundary
    queries=st.lists(st.tuples(st.integers(0, 12), st.sampled_from([0.0, 0.0, 0.5, 0.999]), st.integers(0, 4)),
                     max_size=40),
)
def test_empirical_mix_matches_an_independent_classifier(refresh_period, queries):
    trace = sorted(((k + frac) * refresh_period, f"c{c}") for k, frac, c in queries)
    mix = empirical_mix(trace, refresh_period)
    assert (mix.r1, mix.r2) == ref_classify(trace, refresh_period)


def test_trace_validation():
    with pytest.raises(CostModelError):
        validate_trace([(1.0, "a"), (0.5, "b")])
    with pytest.raises(CostModelError):
        simulate_trace(PARAMS, [], System.IC)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(CostModelError, match="finite"):
            empirical_mix([(0.0, "a"), (t, "b")], PARAMS.refresh_period)
    assert empirical_mix([], 3600.0) == WorkloadMix(0.0, 0.0)
    # a finite time over a finite period can still be more periods than a float holds
    far = [(0.0, "a"), (1e300, "b")]
    tiny = CostParams(**{**PARAMS.__dict__, "refresh_period": 1e-300})
    with pytest.raises(CostModelError, match="not a finite number of refresh periods"):
        empirical_mix(far, tiny.refresh_period)
    for system in System:
        with pytest.raises(CostModelError, match="not a finite number of refresh periods"):
            simulate_trace(tiny, far, system)


# -- decision helpers ----------------------------------------------------------------------


def _breakdowns(params, mix):
    return {s: per_query(s, params, mix) for s in System}


def test_best_system_and_tie_break():
    breakdowns = _breakdowns(PARAMS, WorkloadMix(0.9, 0.05))
    winner, margin = best_system(breakdowns, Objective.MONEY)
    vals = sorted(b.money for b in breakdowns.values())
    assert breakdowns[winner].money == vals[0]
    assert margin == vals[1] - vals[0] > 0
    # it ranks the breakdowns it is given, and only those
    winner, margin = best_system({s: breakdowns[s] for s in (System.FT, System.IC)}, Objective.MONEY)
    assert winner is min((System.FT, System.IC), key=lambda s: breakdowns[s].money)
    assert margin == abs(breakdowns[System.FT].money - breakdowns[System.IC].money)
    # exact tie goes to the lower system number
    flat = CostParams(
        refresh_period=1.0, c_gpu=1.0, c_store=1e-30, c_net=1e-30,
        s_model=1.0, s_kv=1.0, s_text=1.0,
        t_prefill=1.0, t_query=0.0, t_finetune=1.0, bandwidth=1.0,
    )
    winner, margin = best_system(_breakdowns(flat, WorkloadMix(0.0, 1.0)), Objective.DELAY)
    assert winner is System.FT  # FT(1.0s) ties IC(1.0s) and KV(1.0s)
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_threshold_crossing():
    # cheap storage/transfer so the transfer-vs-prefill tradeoff actually flips
    params = CostParams(**{**PARAMS.__dict__, "c_store": 1e-12, "c_net": 1e-12})
    res = threshold_r1(params, Objective.MONEY)
    assert res.kind == "crossing"
    assert 0.0 < res.r1 < 1.0
    mix = WorkloadMix(res.r1, 0.0)
    kv = per_query(System.KV, params, mix).money
    ic = per_query(System.IC, params, mix).money
    assert kv == pytest.approx(ic, rel=1e-9)
    # below threshold IC wins, above KV wins
    lo = WorkloadMix(max(res.r1 - 0.01, 0.0), 0.0)
    hi = WorkloadMix(min(res.r1 + 0.01, 1.0), 0.0)
    assert per_query(System.KV, params, lo).money > per_query(System.IC, params, lo).money
    assert per_query(System.KV, params, hi).money < per_query(System.IC, params, hi).money


def test_threshold_always_and_never():
    # tiny KV cache: KV is cheaper even at r1 = 0
    cheap_kv = CostParams(**{**PARAMS.__dict__, "s_kv": 1.0, "t_prefill": 8.0, "s_text": 4e9})
    assert threshold_r1(cheap_kv, Objective.MONEY).kind == "always"
    # enormous KV cache: the transfer never beats a prefill
    huge_kv = CostParams(**{**PARAMS.__dict__, "s_kv": 1e15})
    res = threshold_r1(huge_kv, Objective.MONEY)
    assert res.kind == "never" and res.r1 is None


def test_threshold_always_means_kv_wins_up_to_r1_1():
    # default delay: KV's delay at r1 = 0 equals IC's, so f(0) = 0; with
    # S_kv / B = 2 s past T_prefill = 1 s, every hit makes KV slower
    slow_link = CostParams(**{**NO_TQ.__dict__, "t_prefill": 1.0, "s_kv": 2e10, "bandwidth": 1e10})
    half = WorkloadMix(0.5, 0.0)
    assert per_query(System.KV, slow_link, half).delay_seconds == pytest.approx(1.5)
    assert per_query(System.IC, slow_link, half).delay_seconds == pytest.approx(1.0)
    assert threshold_r1(slow_link, Objective.DELAY) == ThresholdResult(None, "never")
    fast_link = CostParams(**{**slow_link.__dict__, "s_kv": 5e9})
    assert threshold_r1(fast_link, Objective.DELAY) == ThresholdResult(0.0, "always")


def test_threshold_crossing_where_kv_and_ic_differ_by_rounding():
    # KV's money is IC's plus 5e-9 minus 1e-8 * r1: a crossing at 0.5,
    # though the two differ by less than 1e-8 at every r1
    params = CostParams(
        refresh_period=1.0, c_gpu=1.0, c_store=1.0, c_net=1.0, s_model=1.0, s_kv=1.000000005,
        s_text=1.0, t_prefill=1e-8, t_query=0.0, t_finetune=1.0, bandwidth=1.0,
    )
    res = threshold_r1(params, Objective.MONEY)
    assert res.kind == "crossing"
    assert res.r1 == pytest.approx(0.5, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    s_kv=st.floats(1e6, 1e12),
    t_prefill=st.floats(0.1, 100.0),
    objective=st.sampled_from([Objective.MONEY, Objective.DELAY]),
    paper_delay_kv=st.booleans(),
)
def test_threshold_closed_form_matches_bisection(s_kv, t_prefill, objective, paper_delay_kv):
    params = CostParams(**{**PARAMS.__dict__, "s_kv": s_kv, "t_prefill": t_prefill})
    res = threshold_r1(params, objective, paper_delay_kv=paper_delay_kv)
    if res.kind == "crossing":
        assert 0.0 <= res.r1 <= 1.0
        assert abs(res.r1 - ref_threshold_bisection(params, objective, paper_delay_kv)) <= 1e-9


# -- comparison report -----------------------------------------------------------------------


def test_comparison_report_published_numbers():
    report = comparison_report(PUBLISHED_MEASUREMENTS)
    assert report.inject_ratio == pytest.approx(40.0, abs=0.01)
    assert report.cost_ratio == pytest.approx(2.53, abs=0.01)
    assert report.delay_ratio == pytest.approx(3.67, abs=0.01)
    assert report.rows["KDN"].delay == 2.97


def test_comparison_report_identical_rows():
    same = SystemMeasurement(inject_time=1.0, cost=1.0, delay=1.0)
    report = comparison_report({"FT": same, "IC": same, "KDN": same})
    assert report.inject_ratio == report.cost_ratio == report.delay_ratio == 1.0


def test_comparison_report_zero_inject_is_inf():
    rows = {
        "FT": SystemMeasurement(10.0, 0.01, 1.0),
        "IC": SystemMeasurement(0.0, 0.02, 2.0),
        "KDN": SystemMeasurement(0.0, 0.01, 1.0),
    }
    assert math.isinf(comparison_report(rows).inject_ratio)


def test_comparison_report_validation():
    with pytest.raises(CostModelError):
        comparison_report({"FT": SystemMeasurement(1, 1, 1), "IC": SystemMeasurement(1, 1, 1)})
    bad = dict(PUBLISHED_MEASUREMENTS)
    bad["KDN"] = SystemMeasurement(0.25, 0.0, 2.97)
    with pytest.raises(CostModelError):
        comparison_report(bad)
    for row in (SystemMeasurement(0.25, math.nan, 2.97), SystemMeasurement(math.inf, 0.0059, 2.97)):
        with pytest.raises(CostModelError, match="non-finite"):
            comparison_report({**PUBLISHED_MEASUREMENTS, "KDN": row})
