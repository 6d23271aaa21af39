"""Closed-form per-query cost/delay model for three serving strategies,
plus a trace simulator that must agree with the closed forms.

The three systems: FT fine-tunes every never-seen context; IC prefills the
context on every query; KV prefills-and-stores on a per-period miss and
transfers the stored KV cache on a hit.

Every system pays the query prefill ``T_Q`` in gpu and delay; it is an
input like any other, 0 when a params document leaves it out.  One
convention is switchable: the keyword ``paper_delay_kv`` (default off)
reproduces the published KV delay row verbatim; the default uses the
self-consistent reading (miss -> prefill, hit -> transfer), which matches
the compute and network rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from enum import Enum

from .model import exact_float


class CostModelError(ValueError):
    pass


class System(Enum):
    FT = 1
    IC = 2
    KV = 3


class Objective(Enum):
    MONEY = "money"
    DELAY = "delay"


@dataclass(frozen=True)
class CostParams:
    refresh_period: float  # T, seconds
    c_gpu: float  # price per GPU-second
    c_store: float  # price per byte per refresh period
    c_net: float  # price per byte transmitted
    s_model: float  # bytes of fine-tune artifact per context
    s_kv: float  # bytes of KV cache per context
    s_text: float  # bytes of context text
    t_prefill: float  # seconds to prefill the context
    t_query: float  # T_Q, seconds to prefill the query
    t_finetune: float  # seconds to fine-tune one context
    bandwidth: float  # B, bytes/second storage <-> inference

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise CostModelError(f"{f.name} must be finite")
            if f.name != "t_query" and not getattr(self, f.name) > 0:
                raise CostModelError(f"{f.name} must be strictly positive")
        if self.t_query < 0:
            raise CostModelError("t_query must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "CostParams":
        return cls(
            refresh_period=exact_float(d["T"]),
            c_gpu=exact_float(d["C_gpu"]),
            c_store=exact_float(d["C_store"]),
            c_net=exact_float(d["C_net"]),
            s_model=exact_float(d["S_model"]),
            s_kv=exact_float(d["S_kv"]),
            s_text=exact_float(d["S_text"]),
            t_prefill=exact_float(d["T_prefill"]),
            t_query=exact_float(d.get("T_Q", 0.0)),
            t_finetune=exact_float(d["T_finetune"]),
            bandwidth=exact_float(d["B"]),
        )


@dataclass(frozen=True)
class WorkloadMix:
    r1: float  # fraction of queried contexts already seen this period
    r2: float  # fraction never seen before

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r1) and math.isfinite(self.r2)):
            raise CostModelError("r1 and r2 must be finite")
        if self.r1 < 0 or self.r2 < 0 or self.r1 + self.r2 > 1 + 1e-12:
            raise CostModelError("need r1 >= 0, r2 >= 0, r1 + r2 <= 1")


@dataclass
class CostBreakdown:
    gpu_seconds: float
    storage_bytes: float
    network_bytes: float
    delay_seconds: float
    money: float

    @staticmethod
    def priced(params: CostParams, gpu: float, storage: float, network: float, delay: float) -> "CostBreakdown":
        money = gpu * params.c_gpu + storage * params.c_store + network * params.c_net
        return CostBreakdown(gpu, storage, network, delay, money)


def per_query(system: System, params: CostParams, mix: WorkloadMix, *, paper_delay_kv: bool = False) -> CostBreakdown:
    """Closed-form per-query resource usage for one system under one mix."""
    tq = params.t_query
    if system is System.FT:
        gpu = mix.r2 * params.t_finetune + tq
        storage = mix.r2 * params.s_model
        network = mix.r2 * params.s_model
        delay = mix.r2 * params.t_finetune + tq
    elif system is System.IC:
        gpu = params.t_prefill + tq
        storage = 0.0
        network = params.s_text
        delay = params.t_prefill + tq
    elif system is System.KV:
        gpu = (1.0 - mix.r1) * params.t_prefill + tq
        storage = (1.0 - mix.r1) * params.s_kv
        network = mix.r1 * params.s_kv
        if paper_delay_kv:
            delay = mix.r1 * params.t_prefill + (1.0 - mix.r1) * params.s_kv / params.bandwidth + tq
        else:
            delay = (1.0 - mix.r1) * params.t_prefill + mix.r1 * params.s_kv / params.bandwidth + tq
    else:
        raise CostModelError(f"unknown system {system}")
    return CostBreakdown.priced(params, gpu, storage, network, delay)


# -- trace simulation --------------------------------------------------------


def validate_trace(trace: list[tuple[float, str]]) -> None:
    last = -math.inf
    for t, _ in trace:
        if not math.isfinite(t):
            raise CostModelError("trace times must be finite")
        if t < last:
            raise CostModelError("trace times must be nondecreasing")
        last = t


def _walk(trace: list[tuple[float, str]], refresh_period: float) -> Iterator[tuple[bool, bool]]:
    """For each query of the validated trace: whether its context came
    earlier in the same refresh period, and whether it came at all before."""
    validate_trace(trace)
    seen_ever: set[str] = set()
    seen_this_period: set[str] = set()
    period = None
    for t, ctx in trace:
        p = t // refresh_period
        if math.isinf(p):
            raise CostModelError(f"trace time {t} is not a finite number of refresh periods of {refresh_period} s")
        if p != period:
            period, seen_this_period = p, set()
        yield ctx in seen_this_period, ctx in seen_ever
        seen_ever.add(ctx)
        seen_this_period.add(ctx)


def empirical_mix(trace: list[tuple[float, str]], refresh_period: float) -> WorkloadMix:
    """(r1, r2) observed by replaying the trace's per-period bookkeeping."""
    n1 = n2 = 0
    for this_period, before in _walk(trace, refresh_period):
        n1 += this_period
        n2 += not before
    n = len(trace)
    if n == 0:
        return WorkloadMix(0.0, 0.0)
    return WorkloadMix(n1 / n, n2 / n)


def simulate_trace(
    params: CostParams,
    trace: list[tuple[float, str]],
    system: System,
    *,
    paper_delay_kv: bool = False,
) -> CostBreakdown:
    """Event-by-event accounting over a query trace, averaged per query.

    The KV store is cleared at refresh-period boundaries; storage is charged
    per object per period.  Fine-tuning happens at a context's first-ever
    occurrence.
    """
    if not trace:
        raise CostModelError("trace is empty")
    tq = params.t_query
    gpu = storage = network = delay = 0.0
    for this_period, before in _walk(trace, params.refresh_period):
        gpu += tq
        delay += tq
        if system is System.FT:
            if not before:
                gpu += params.t_finetune
                delay += params.t_finetune
                storage += params.s_model
                network += params.s_model
        elif system is System.IC:
            gpu += params.t_prefill
            delay += params.t_prefill
            network += params.s_text
        elif system is System.KV:
            if this_period:
                network += params.s_kv
                delay += params.t_prefill if paper_delay_kv else params.s_kv / params.bandwidth
            else:
                gpu += params.t_prefill
                storage += params.s_kv
                delay += params.s_kv / params.bandwidth if paper_delay_kv else params.t_prefill
        else:
            raise CostModelError(f"unknown system {system}")
    n = len(trace)
    return CostBreakdown.priced(params, gpu / n, storage / n, network / n, delay / n)


# -- analysis ------------------------------------------------------------------


def _objective_value(b: CostBreakdown, objective: Objective) -> float:
    return b.money if objective is Objective.MONEY else b.delay_seconds


def best_system(breakdowns: dict[System, CostBreakdown], objective: Objective) -> tuple[System, float]:
    """argmin of ``objective`` over the systems' breakdowns; ties go to the
    lower system number.

    Returns the winner and its margin over the runner-up.
    """
    values = {s: _objective_value(b, objective) for s, b in breakdowns.items()}
    winner = min(values, key=lambda s: (values[s], s.value))
    runner_up = min((v for s, v in values.items() if s is not winner), default=values[winner])
    return winner, runner_up - values[winner]


@dataclass(frozen=True)
class ThresholdResult:
    r1: float | None
    kind: str  # "crossing" | "always" | "never"


def threshold_r1(params: CostParams, objective: Objective, *, paper_delay_kv: bool = False) -> ThresholdResult:
    """Smallest r1 from which KV's objective is <= IC's all the way to r1 = 1.

    Neither system's objective reads r2, KV's is affine in r1 and IC's is
    constant, so f = KV - IC is a line fixed by f(0) and f(1): "never" if
    f(1) > 0 (IC wins at r1 = 1), "always" (r1 = 0) if f(0) <= 0 as well,
    else the "crossing" f(0) / (f(0) - f(1)).
    """

    def f(r1: float) -> float:
        mix = WorkloadMix(r1, 0.0)
        kv, ic = (per_query(s, params, mix, paper_delay_kv=paper_delay_kv) for s in (System.KV, System.IC))
        return _objective_value(kv, objective) - _objective_value(ic, objective)

    f0, f1 = f(0.0), f(1.0)
    if f1 > 0.0:
        return ThresholdResult(None, "never")
    if f0 <= 0.0:
        return ThresholdResult(0.0, "always")
    return ThresholdResult(f0 / (f0 - f1), "crossing")


# -- comparison report ---------------------------------------------------------


@dataclass
class SystemMeasurement:
    inject_time: float  # hours to inject new knowledge
    cost: float  # $/query
    delay: float  # s/query


@dataclass
class ComparisonReport:
    rows: dict[str, SystemMeasurement]
    inject_ratio: float  # FT inject / KDN inject
    cost_ratio: float  # IC cost / KDN cost
    delay_ratio: float  # IC delay / KDN delay


def comparison_report(measured: dict[str, SystemMeasurement]) -> ComparisonReport:
    """Derived speed/cost ratios from measured per-system numbers."""
    for name in ("FT", "IC", "KDN"):
        if name not in measured:
            raise CostModelError(f"missing measurement row {name!r}")
    for name, row in measured.items():
        if not all(map(math.isfinite, (row.inject_time, row.cost, row.delay))):
            raise CostModelError(f"non-finite measurement in row {name!r}")
        if row.inject_time < 0 or row.cost <= 0 or row.delay <= 0:
            raise CostModelError(f"nonpositive measurement in row {name!r}")
    kdn = measured["KDN"]
    inject = math.inf if kdn.inject_time == 0 else measured["FT"].inject_time / kdn.inject_time
    return ComparisonReport(
        rows=dict(measured),
        inject_ratio=inject,
        cost_ratio=measured["IC"].cost / kdn.cost,
        delay_ratio=measured["IC"].delay / kdn.delay,
    )


# Measured inputs reported for the three systems under the RAG setup; the
# underlying measurements are hardware-specific and are not re-measured here.
PUBLISHED_MEASUREMENTS = {
    "FT": SystemMeasurement(inject_time=10.0, cost=0.0052, delay=2.63),
    "IC": SystemMeasurement(inject_time=0.0, cost=0.0149, delay=10.91),
    "KDN": SystemMeasurement(inject_time=0.25, cost=0.0059, delay=2.97),
}
