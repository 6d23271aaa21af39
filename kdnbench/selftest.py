"""Self-test of the benchmark, on a tiny model; runs in well under a minute.

    python3 kdnbench/selftest.py

It checks that every workload passes its output checks and prints every
metric BENCHMARK.json names, with its unit, traced and untraced; that the
reuse check catches a perturbed K/V row; that the benchmark fails without
printing a result where there are no kdn sources; and that the spans reach
functions other modules imported by name.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                  "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(workload: str, trace: int) -> None:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(wanted)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        if not trace:
            assert m["value"] > 0, f"{workload}: end-to-end metric {name} is {m['value']}"
    if trace:
        assert "trace coverage" in proc.stdout and "trace overhead" in proc.stdout, proc.stdout


def check_perturbed_row_is_caught(work: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    wl = workloads.Reuse(workloads.SMOKE, seed=7)
    try:
        wl.setup(work / "reuse")
        wl.prepare()
        out = wl.op(0)
        assert wl.check(0, out) is None, "an unperturbed fetch failed the reuse check"
        caches = out[0]
        caches[-1].v[0, 0, 3] += 1e-3
        assert wl.check(0, out) is not None, "a perturbed V row passed the reuse check"
        caches[-1].v[0, 0, 3] -= 1e-3
        caches[0].k_pre[1, 1, 0, 0] = -caches[0].k_pre[1, 1, 0, 0] + 1.0
        assert wl.check(0, out) is not None, "a perturbed K row passed the reuse check"
    finally:
        wl.teardown()


def check_bindings_are_traced() -> None:
    """Names imported into other modules must go through the spans too."""
    import tracing
    from kdn import blender, codec, delivery, model, store

    originals = {name: getattr(model, name) for name in ("prefill", "attend")}
    tracing.install(tracing.Tracer())
    for mod, name in ((blender, "prefill"), (blender, "attend"), (store, "prefill")):
        bound = getattr(mod, name)
        assert bound is getattr(model, name) and bound is not originals[name], f"{mod.__name__}.{name} is not traced"
    assert delivery.codec is codec and hasattr(codec.crc32c, "__wrapped__"), "delivery's codec calls are not traced"


def check_fails_without_sources(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("reuse", 0, cwd=bare)
    assert proc.returncode != 0, "the benchmark succeeded without kdn sources"
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)
            print(f"ok: {workload} trace={trace}")
    work_root = ROOT / ".kdnbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        check_perturbed_row_is_caught(work)
        print("ok: a perturbed K/V row fails the reuse check")
        check_fails_without_sources(work)
        print("ok: no result without kdn sources")
        check_bindings_are_traced()
        print("ok: imported-by-name bindings are traced")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
