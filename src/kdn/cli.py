"""Operator command line: server, store client, blender, codec bench,
and cost-model reports.

JSON documents are files (``--request``, ``--params``, ``--trace``) or, for
``--model`` and ``--profile``, a file or inline text; one that cannot be read,
parsed or built into its values is one ``kdn:`` line and exit 1.  A number in
a document must be a JSON number: ``"2"`` and ``true`` are not numbers.

Exit codes: 0 success, 1 operational error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import blender, codec, costmodel, delivery, fixtures, model, store

DEFAULT_SEED = 20240901
BENCH_REPEATS = 5  # ``bench codec`` times are medians of this many encodes and decodes
MAX_SWEEP_POINTS = 10_001  # ``cost sweep`` grid points: a step of 1e-4 over [0, 1]


class CliError(Exception):
    """Operational failure reported as a one-line diagnostic (exit 1)."""


class UsageError(CliError):
    """Bad flags or request values (exit 2)."""


def _read_doc(spec: str, what: str, build, inline: bool = False):
    """``build(doc)`` of the JSON document in the file ``spec`` or, if
    ``inline`` and no such file exists, in ``spec`` itself.  Any failure to
    read, parse or build is one ``what: reason`` error."""
    try:
        text = spec if inline and not os.path.exists(spec) else Path(spec).read_text()
        return build(json.loads(text))
    except (OSError, *store.MALFORMED_DOCUMENT) as e:
        raise CliError(f"{what}: {e}") from e


def _load_tokens(path: str) -> list[int]:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read token file: {e}") from e
    words = text.split()
    # int() also takes a plus sign, "_" and other scripts' digits
    bad = next((w for w in words if not re.fullmatch("-?[0-9]+", w)), None)
    if bad is not None:
        raise CliError(f"token file must hold whitespace-separated integers, got {bad!r}")
    tokens = [int(w) for w in words]
    # token ids are u32 on the wire and in keys
    bad = next((t for t in tokens if not 0 <= t < 1 << 32), None)
    if bad is not None:
        raise CliError(f"token id {bad} out of range [0, 2**32)")
    return tokens


def _port(text: str) -> int:  # an argparse type: a TCP port, 0 to 65535
    if not re.fullmatch("[0-9]+", text) or int(text) > 0xFFFF:
        raise argparse.ArgumentTypeError(f"port {text!r} is not an integer in [0, 65535]")
    return int(text)


def _resolve_profile(name: str) -> codec.CodecProfile:
    if name in codec.PROFILES:
        return codec.PROFILES[name]
    known = ", ".join(sorted(codec.PROFILES))
    return _read_doc(name, f"unknown codec profile {name!r} (known: {known})", codec.CodecProfile.from_dict,
                     inline=True)


def _store_root(args) -> Path:
    root = args.root or os.environ.get("KDN_ROOT")
    if not root:
        raise CliError("no store root: pass --root or set KDN_ROOT")
    return Path(root)


def _open_store(args, must_exist: bool = False, **config) -> store.Store:
    root = _store_root(args)
    if must_exist and not root.exists():
        raise CliError(f"store root {root} does not exist")
    return store.open_store(store.StoreConfig(root=root, **config))


def _emit_table(headers: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([dict(zip(headers, row)) for row in rows], indent=2, default=str))
    elif fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(headers)
        w.writerows(rows)
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
                  for i, h in enumerate(headers)]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _note(line: str, fmt: str) -> None:
    """A line beside a table: stdout in text, stderr under csv or json, so stdout stays one document."""
    print(line, file=sys.stdout if fmt == "text" else sys.stderr)


# -- subcommands ---------------------------------------------------------------


def cmd_serve(args) -> int:
    st = _open_store(args, must_exist=True)
    try:
        server = delivery.KdnServer(st, args.host, args.port)
    except OSError as e:
        raise CliError(f"cannot bind {args.host}:{args.port}: {e}") from e
    host, port = server.server_address
    # no shutdown(): serve_forever runs on this thread, so it has stopped, and shutdown() waits forever if it never started
    try:
        print(f"kdn serve: {len(st.entries)} chunks at {st.root}, listening on {host}:{port}")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_put(args) -> int:
    mdl = _read_doc(args.model, f"bad model config {args.model!r}",
                    lambda doc: model.build_model(model.ModelConfig.from_dict(doc)), inline=True)
    tokens = _load_tokens(args.tokens)
    st = _open_store(args, capacity=args.capacity)
    before = set(st.entries)
    keys = st.store_text(mdl, tokens, mode=args.mode, profile=_resolve_profile(args.profile))
    fresh = sum(1 for k in keys if k.digest not in before)
    if fresh == 0:
        _note("already stored", args.output)
    rows = [[i, k.mode, k.hex] for i, k in enumerate(keys)]
    _emit_table(["chunk", "mode", "key"], rows, args.output)
    return 0


def cmd_get(args) -> int:
    cfg = _read_doc(args.model, f"bad model config {args.model!r}", model.ModelConfig.from_dict, inline=True)
    tokens = _load_tokens(args.tokens)
    if args.host:
        client = delivery.Client(args.host, args.port)
        caches, miss = client.fetch(cfg.model_id, args.mode, tokens)
        rows = [[i, c.n_tokens, c.start_pos] for i, c in enumerate(caches)]
        _emit_table(["chunk", "tokens", "start_pos"], rows, args.output)
    else:
        st = _open_store(args, must_exist=True)
        hits, miss = st.retrieve_text(cfg.model_id, tokens, mode=args.mode)
        rows = [[i, key.hex, chunk.n_tokens] for i, (key, chunk) in enumerate(hits)]
        _emit_table(["chunk", "key", "tokens"], rows, args.output)
    _note(f"miss_suffix: {len(miss)} tokens" + (f" -> {' '.join(map(str, miss))}" if miss else ""), args.output)
    return 0


def cmd_blend(args) -> int:
    mdl, segment_tokens, ratio = _read_doc(args.request, "bad blend request", lambda req: (
        model.build_model(model.ModelConfig.from_dict(req["model"])),
        [[model.exact_int(t) for t in toks] for toks in req["segments"]], model.exact_float(req["ratio"])))
    model.fixture_fields(mdl.config, sum(map(len, segment_tokens)), 0)  # the blended cache starts at position 0
    if not 0.0 <= ratio <= 1.0:
        raise UsageError(f"ratio {ratio} out of [0, 1]")
    segments = [blender.Segment.from_tokens(mdl, toks) for toks in segment_tokens]
    blended, states, report = blender.selective_blend(mdl, segments, ratio)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / "blended.kdnf"
    report_path = out_dir / "blend_report.json"
    model.save_fixture(cache_path, mdl.config, blended, states)
    report_path.write_text(json.dumps(dataclasses.asdict(report), indent=2, default=np.ndarray.tolist))
    print(f"blended cache -> {cache_path}")
    print(f"report -> {report_path} (kv_error={report.kv_error:.3e}, "
          f"final_state_error={report.final_state_error:.3e})")
    return 0


def cmd_bench_codec(args) -> int:
    profile = _resolve_profile(args.profile)
    cases = {
        "smooth": fixtures.smooth_cache(),
        "random": fixtures.random_cache(seed=DEFAULT_SEED),
    }
    rows = []
    for name, cache in cases.items():
        encode_s, decode_s = [], []
        for _ in range(BENCH_REPEATS):
            t0 = time.perf_counter()
            chunk = codec.compress_cache(cache, profile)
            t1 = time.perf_counter()
            restored = codec.decompress_cache(chunk)
            encode_s.append(t1 - t0)
            decode_s.append(time.perf_counter() - t1)
        ratio = chunk.uncompressed_len / len(chunk.to_bytes())
        err = float(np.abs(restored.kv - cache.kv).max())
        rows.append([name, f"{ratio:.2f}", f"{err:.3e}", chunk.uncompressed_len, len(chunk.to_bytes()),
                     f"{1e3 * statistics.median(encode_s):.3f}", f"{1e3 * statistics.median(decode_s):.3f}"])
    _emit_table(["fixture", "ratio", "max_err", "raw_bytes", "compressed_bytes", "encode_ms", "decode_ms"],
                rows, args.output)
    return 0


def _measured_rows(doc: dict) -> dict[str, costmodel.SystemMeasurement]:
    """The params file's ``measured`` rows, if it has them, else the published ones."""
    given = doc.get("measured")
    if given is None:
        return costmodel.PUBLISHED_MEASUREMENTS
    return {
        name: costmodel.SystemMeasurement(*(model.exact_float(m[f]) for f in ("inject_time", "cost", "delay")))
        for name, m in given.items()
    }


def cmd_cost_report(args) -> int:
    measured = (_read_doc(args.params, "bad params file", _measured_rows) if args.params
                else costmodel.PUBLISHED_MEASUREMENTS)
    report = costmodel.comparison_report(measured)
    rows = [
        [name, m.inject_time, m.cost, m.delay]
        for name, m in report.rows.items()
    ]
    _emit_table(["system", "inject_hours", "cost_per_query", "delay_per_query"], rows, args.output)
    inject = "inf" if math.isinf(report.inject_ratio) else f"{report.inject_ratio:.2f}"
    _note(f"inject ratio (FT/KDN): {inject}x", args.output)
    _note(f"cost ratio   (IC/KDN): {report.cost_ratio:.2f}x", args.output)
    _note(f"delay ratio  (IC/KDN): {report.delay_ratio:.2f}x", args.output)
    return 0


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        name, grid = spec.split("=", 1)
        lo, hi, step = (float(x) for x in grid.split(":"))
    except ValueError as e:
        raise CliError(f"bad sweep spec {spec!r}, expected name=lo:hi:step") from e
    if name != "r1":
        raise CliError(f"only r1 sweeps are supported, got {name!r}")
    if not all(map(math.isfinite, (lo, hi, step))):
        raise CliError(f"sweep bounds and step must be finite, got {spec!r}")
    if step <= 0:
        raise CliError("sweep step must be positive")
    # np.arange's length is the ceiling of this; an overflow to inf is refused too
    if not (hi + step / 2 - lo) / step <= MAX_SWEEP_POINTS:
        raise CliError(f"sweep {spec!r} has more than {MAX_SWEEP_POINTS} points")
    return np.arange(lo, hi + step / 2, step)


def cmd_cost_sweep(args) -> int:
    params, r2 = _read_doc(args.params, "bad params file",
                           lambda doc: (costmodel.CostParams.from_dict(doc), model.exact_float(doc.get("r2", 0.0))))
    objective = costmodel.Objective(args.objective)
    grid = _parse_sweep(args.sweep)
    threshold = costmodel.threshold_r1(params, objective, paper_delay_kv=args.paper_delay)
    half_step = (grid[1] - grid[0]) / 2 if len(grid) > 1 else 0.0
    rows = []
    for r1 in grid:
        r1 = float(r1)
        mix = costmodel.WorkloadMix(r1, min(r2, 1.0 - r1))
        vals = {s: costmodel.per_query(s, params, mix, paper_delay_kv=args.paper_delay) for s in costmodel.System}
        winner, _ = costmodel.best_system(vals, objective)
        marker = "<-- threshold" if threshold.r1 is not None and abs(r1 - threshold.r1) <= half_step else ""
        rows.append([f"{r1:.3f}"] + [f"{costmodel._objective_value(b, objective):.6g}" for b in vals.values()]
                    + [winner.name, marker])
    _emit_table(["r1", "FT", "IC", "KV", "best", ""], rows, args.output)
    if threshold.kind == "crossing":
        _note(f"threshold r1* = {threshold.r1:.6f}", args.output)
    else:
        _note(f"threshold: {threshold.kind}", args.output)
    return 0


def _trace_events(raw: list) -> list[tuple[float, str]]:
    """A trace document's (time, context) events: a JSON number and a JSON string each."""
    if not all(isinstance(c, str) for _, c in raw):
        raise ValueError("a trace context must be a string")
    return [(model.exact_float(t), c) for t, c in raw]


def cmd_cost_simulate(args) -> int:
    params = _read_doc(args.params, "bad params file", costmodel.CostParams.from_dict)
    trace = _read_doc(args.trace, "bad trace file", _trace_events)
    mix = costmodel.empirical_mix(trace, params.refresh_period)
    rows = []
    for system in costmodel.System:
        sim = costmodel.simulate_trace(params, trace, system, paper_delay_kv=args.paper_delay)
        closed = costmodel.per_query(system, params, mix, paper_delay_kv=args.paper_delay)
        diff = max(
            abs(sim.gpu_seconds - closed.gpu_seconds),
            abs(sim.storage_bytes - closed.storage_bytes),
            abs(sim.network_bytes - closed.network_bytes),
            abs(sim.delay_seconds - closed.delay_seconds),
        )
        rows.append([system.name, f"{sim.money:.6g}", f"{closed.money:.6g}", f"{diff:.3e}"])
    _note(f"empirical mix: r1={mix.r1:.4f} r2={mix.r2:.4f} over {len(trace)} queries", args.output)
    _emit_table(["system", "sim_money", "closed_money", "max_abs_diff"], rows, args.output)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kdn", description=__doc__)
    parser.add_argument("--output", choices=["text", "csv", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the delivery server over a store")
    p.add_argument("--root", help="store root (or KDN_ROOT)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=7311)
    p.set_defaults(func=cmd_serve)

    for name, fn in (("put", cmd_put), ("get", cmd_get)):
        p = sub.add_parser(name, help=f"{name} token text {'into' if name == 'put' else 'from'} a store")
        p.add_argument("--root", help="store root (or KDN_ROOT)")
        p.add_argument("--model", required=True, help="model config JSON (file or inline)")
        p.add_argument("--tokens", required=True, help="whitespace-separated token id file")
        p.add_argument("--mode", choices=[store.MODE_CHAIN, store.MODE_STANDALONE], default=store.MODE_CHAIN)
        if name == "put":
            p.add_argument("--capacity", type=int, default=store.StoreConfig.capacity)
            p.add_argument("--profile", default="8bit-deflate")
        else:
            p.add_argument("--host", help="fetch from a server instead of a local store")
            p.add_argument("--port", type=_port, default=7311)
        p.set_defaults(func=fn)

    p = sub.add_parser("blend", help="run a selective blend request")
    p.add_argument("--request", required=True, help="JSON blend request")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("bench", help="benchmarks")
    bench_sub = p.add_subparsers(dest="bench_target", required=True)
    pb = bench_sub.add_parser("codec", help="ratio, error and encode/decode time over fixture caches")
    pb.add_argument("--profile", required=True)
    pb.set_defaults(func=cmd_bench_codec)

    p = sub.add_parser("cost", help="cost-model reports")
    cost_sub = p.add_subparsers(dest="cost_target", required=True)
    for name, fn in (
        ("report", cmd_cost_report),
        ("sweep", cmd_cost_sweep),
        ("simulate", cmd_cost_simulate),
    ):
        pc = cost_sub.add_parser(name)
        pc.add_argument("--params", required=(name != "report"))
        if name != "report":
            pc.add_argument("--paper-delay", action="store_true", help="use the published KV delay row")
        if name == "sweep":
            pc.add_argument("--sweep", default="r1=0:1:0.01")
            pc.add_argument("--objective", choices=["money", "delay"], default="money")
        if name == "simulate":
            pc.add_argument("--trace", required=True, help="JSON [[time, context], ...]")
        pc.set_defaults(func=fn)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"kdn: {e}", file=sys.stderr)
        return 2
    except CliError as e:
        print(f"kdn: {e}", file=sys.stderr)
        return 1
    except (
        model.ModelError,
        codec.CodecError,
        store.StoreError,
        blender.BlendError,
        delivery.ProtocolError,
        costmodel.CostModelError,
        OSError,
    ) as e:
        print(f"kdn: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
