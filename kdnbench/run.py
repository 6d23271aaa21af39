"""Benchmark of kdn's three user paths, one closed-loop client at a time.

    python3 kdnbench/run.py --workload reuse|ingest|blend --seed N --seconds S --trace 0|1

A run sets the system up three times (``setup_s`` is the median), warms up,
then runs operations back to back until ``--seconds`` of operation time have
passed.  Every output is checked outside the timed region; a failed check
counts as a failed operation and makes the exit code 1.  Lines starting with
``#`` are information; the last line is the result as JSON.

Every timed interval (each setup, each operation) is bracketed by a fixed
calibration kernel that calls no kdn code, and the end-to-end timings are
reported at a reference host speed: an interval of ``dt`` seconds counts as
``dt * CAL_REF_S / c``, where ``c`` is the mean of the kernel's times just
before and just after it.  On a host whose kernel time is ``CAL_REF_S`` the
figures are wall-clock times; the wall-clock figures of every run are printed
as information lines beside them.  The run and its server child are pinned to
one CPU, the one the kernel measures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with spans around kdn's functions (in the ``kdn
serve`` child too) and prints the per-layer metrics.  ``--smoke`` uses a
tiny model so that every workload finishes in seconds.
"""

import os

# One BLAS/OpenMP thread in this process and the server child, set before
# numpy loads: on a 2-vCPU VM, threaded OpenBLAS spent both cores on a
# 1024-token prefill for no gain and made selective_blend's median swing by a
# quarter between runs.
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WARMUP_OPS = 2
MIN_COVERAGE = 0.90
# The calibration kernel's time, in seconds, at the reference host speed.  On
# a 2-vCPU VM (2.1 GHz) one thread's speed swung up to twofold within seconds
# while nothing else of ours ran.  Over five 20-s runs per workload (seeds
# 11-15, pinned as in ``main``), the first and third quartiles of wall-clock
# p50 lay 0.238 (reuse), 0.118 (ingest) and 0.086 (blend) of the median
# apart, and 0.065, 0.046 and 0.032 apart once scaled by this kernel.
CAL_REF_S = 0.020

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
    "stored_bytes_per_token": "bytes/token",
    "wire_bytes_per_token": "bytes/token",
    "kv_max_abs_err": "abs",
}


def info(text: str) -> None:
    print(f"# {text}", flush=True)


def steal_ticks() -> int:
    """CPU steal ticks of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


_CAL_TABLE = [(n * 0x9E3779B1) & 0xFFFFFFFF for n in range(256)]
_CAL_BYTES = bytes(range(256)) * 256
_CAL_X = None


def calibrate() -> float:
    """Seconds of a fixed kernel calling no kdn code: a table-driven byte loop
    in pure Python and a small numpy attention, the two kinds of work kdn does."""
    global _CAL_X
    import numpy as np

    if _CAL_X is None:
        _CAL_X = np.random.default_rng(0).standard_normal((256, 64)).astype(np.float32)
    t0 = perf_counter()
    crc = 0
    for b in _CAL_BYTES:
        crc = _CAL_TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    a = _CAL_X
    for _ in range(8):
        s = a @ a.T
        s = np.exp(s - s.max(axis=1, keepdims=True))
        a = (s / s.sum(axis=1, keepdims=True)) @ _CAL_X
    return perf_counter() - t0


class HostSpeed:
    """Scales timed intervals to the reference host speed (see the module doc)."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.samples = [self.last]

    def scale(self, dt: float) -> float:
        """``dt``, just measured, at reference speed; calibrates for the next interval too."""
        now = calibrate()
        self.samples.append(now)
        scaled = dt * 2 * CAL_REF_S / (self.last + now)
        self.last = now
        return scaled

    def summary(self) -> str:
        import numpy as np

        ms = 1e3 * np.asarray(self.samples)
        return (f"calibration kernel {np.median(ms):.2f} ms median, {ms.min():.2f}-{ms.max():.2f} ms "
                f"over {len(ms)} calibrations, {ms[-1]:.2f} ms at the end (reference {1e3 * CAL_REF_S:.2f} ms)")


def host_info() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caps = ", ".join(f"{v}={os.environ.get(v)}" for v in THREAD_CAPS)
    return (f"nproc {os.cpu_count()}, pinned to CPU {sorted(os.sched_getaffinity(0))}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}, {caps}")


@dataclass
class Loop:
    latencies: list = field(default_factory=list)  # seconds at reference speed, succeeded ops
    wall: list = field(default_factory=list)  # wall-clock seconds, succeeded ops
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0  # wall-clock seconds of operation time, failed ops included
    scaled_busy: float = 0.0  # the same at reference speed
    covered: float = 0.0  # seconds inside top-level spans, traced ops only


def run_op(wl, i: int, loop: Loop, speed: HostSpeed, tracer=None) -> None:
    """One timed operation and its untimed check."""
    if tracer is not None:
        tracer.enabled = True
        top0 = tracer.top
    t0 = perf_counter()
    try:
        out = wl.op(i)
        error = None
    except Exception as e:  # a failing op is counted, and the loop goes on
        error = f"op raised {type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
        loop.covered += tracer.top - top0
    scaled = speed.scale(dt)
    if error is None:
        try:
            error = wl.check(i, out)
        except Exception as e:
            error = f"check raised {type(e).__name__}: {e}"
    loop.attempted += 1
    loop.busy += dt
    loop.scaled_busy += scaled
    if error:
        loop.failed += 1
        print(f"kdnbench: {wl.name} op {i} failed: {error}", file=sys.stderr)
    else:
        loop.latencies.append(scaled)
        loop.wall.append(dt)


def closed_loop(wl, start: int, seconds: float, speed: HostSpeed, tracer=None) -> tuple[Loop, int]:
    loop = Loop()
    i = start
    while loop.busy < seconds:
        run_op(wl, i, loop, speed, tracer)
        i += 1
    return loop, i


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def per_layer_units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def run(args, workdir: Path) -> int:
    import numpy as np

    import tracing
    import workloads

    shape = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](shape, args.seed)
    info(host_info())
    speed = HostSpeed()
    info(f"host speed at start: calibration kernel {1e3 * speed.last:.2f} ms")
    try:
        setup_s, setup_wall = [], []
        for r in range(1 if args.trace else SETUP_REPEATS):
            wl.teardown()
            speed.scale(0.0)  # calibrates after the teardown, right before the setup
            t0 = perf_counter()
            wl.setup(workdir / f"setup{r}")
            setup_wall.append(perf_counter() - t0)
            setup_s.append(speed.scale(setup_wall[-1]))
        wl.prepare()

        warm = Loop()
        for i in range(WARMUP_OPS):
            run_op(wl, i, warm, speed)
        steal0 = steal_ticks()
        seconds = args.seconds / 2 if args.trace else args.seconds
        loop, i = closed_loop(wl, WARMUP_OPS, seconds, speed)
        info(f"CPU steal over the loop: {steal_ticks() - steal0} ticks")
        throughput = len(loop.latencies) / loop.scaled_busy
        loops = [warm, loop]
        failed_checks = 0

        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            tracer.enabled = False
            wl.start_traced(workdir / "server_trace.json")
            warm_traced = Loop()
            run_op(wl, i, warm_traced, speed, tracer)  # warms the traced server child
            tracer.reset()
            wl.server_snapshot()
            traced, _ = closed_loop(wl, i + 1, seconds, speed, tracer)
            server = wl.server_snapshot()
            loops += [warm_traced, traced]
            coverage = traced.covered / traced.busy
            traced_throughput = len(traced.latencies) / traced.scaled_busy
            info(f"trace coverage: top-level spans cover {100 * coverage:.1f}% of traced op time "
                 f"(floor {100 * MIN_COVERAGE:.0f}%)")
            info(f"trace overhead: traced {traced_throughput:.4f} ops/s vs untraced {throughput:.4f} ops/s "
                 f"({100 * (throughput / traced_throughput - 1):+.1f}% time per op)")
            if coverage < MIN_COVERAGE:
                print(f"kdnbench: spans cover only {100 * coverage:.1f}% of op time", file=sys.stderr)
                failed_checks += 1
            metrics = tracing.per_layer_metrics(tracer.snapshot(), server, traced.attempted,
                                                wl.manifest_lines_per_entry())
            units = per_layer_units()
        else:
            lat_ms = 1e3 * np.asarray(loop.latencies)
            p50, p90 = np.percentile(lat_ms, [50, 90])
            wall_ms = 1e3 * np.asarray(loop.wall)
            wall_p50, wall_p90 = np.percentile(wall_ms, [50, 90])
            info(f"{len(lat_ms)} timed ops after {WARMUP_OPS} warm-up ops; "
                 f"{int((lat_ms > p90).sum())} lie beyond p90")
            info(f"wall clock: latency p50 {wall_p50:.1f} ms, p90 {wall_p90:.1f} ms, "
                 f"throughput {len(wall_ms) / loop.busy:.4f} ops/s, setup {np.median(setup_wall):.3f} s")
            extra, notes = wl.finish(wall_p50 / 1e3)
            for note in notes:
                info(note)
            wl.teardown()
            rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics = {
                "setup_s": float(np.median(setup_s)),
                "latency_p50_ms": float(p50),
                "latency_p90_ms": float(p90),
                "throughput_ops_s": throughput,
                "peak_rss_mb": rss_kb / 1024.0,
                **extra,
            }
            if not np.isfinite(metrics["kv_max_abs_err"]):
                print("kdnbench: kv_max_abs_err is not finite", file=sys.stderr)
                failed_checks += 1
            units = END_TO_END_UNITS
    finally:
        wl.teardown()
    info(f"host speed over the run: {speed.summary()}")
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops) + failed_checks
    print(result_line(failed == 0, attempted, failed, metrics, units), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["reuse", "ingest", "blend"])
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny model, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "kdn" / "__init__.py").is_file():
        print(f"kdnbench: no kdn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and, by inheritance, the server child, so that
    # the calibration kernel runs on the CPU whose speed the ops get.  The two
    # vCPUs of the VM described at CAL_REF_S slowed down independently: with
    # client and server free to move, scaled reuse p50 still spread 0.159.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still stops its server child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_root = ROOT / ".kdnbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
