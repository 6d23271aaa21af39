import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdn
from kdn import blender, cli, costmodel, delivery
from kdn.cli import main
from kdn.costmodel import PUBLISHED_MEASUREMENTS
from kdn.model import KvCache, ModelConfig, build_model, load_fixture, prefill

MODEL_JSON = json.dumps({"n_layers": 2, "n_heads": 2, "d_head": 4, "vocab_size": 32})


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "model.json").write_text(MODEL_JSON)
    (tmp_path / "tokens.txt").write_text(" ".join(str(i % 32) for i in range(10)))
    return tmp_path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def _address_space_cap(headroom=1 << 30):
    """Cap this process's address space ``headroom`` bytes above its size now: a
    command that allocates past a size bound it should have kept then fails
    with MemoryError instead of paging the host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = 1024 * int(re.search(r"VmSize:\s+(\d+) kB", Path("/proc/self/status").read_text())[1])
    cap = size + headroom if soft == resource.RLIM_INFINITY else min(size + headroom, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# -- put / get ----------------------------------------------------------------------


def test_put_then_get(workspace, capsys):
    root = str(workspace / "store")
    code, out, _ = _run(capsys, [
        "put", "--root", root, "--model", str(workspace / "model.json"),
        "--tokens", str(workspace / "tokens.txt"),
    ])
    assert code == 0
    assert "key" in out
    code, out, _ = _run(capsys, [
        "get", "--root", root, "--model", MODEL_JSON,
        "--tokens", str(workspace / "tokens.txt"),
    ])
    assert code == 0
    assert "miss_suffix: 0 tokens" in out


@pytest.mark.parametrize("command", ["get", "put"])
@pytest.mark.parametrize("bad", ["-1", str(1 << 32)])
def test_token_ids_outside_u32_exit_1(workspace, capsys, command, bad):
    (workspace / "bad.txt").write_text(f"1 {bad} 2")
    where = ["--host", "127.0.0.1", "--port", "9"] if command == "get" else ["--root", str(workspace / "store")]
    code, _, err = _run(capsys, [command, *where, "--model", MODEL_JSON, "--tokens", str(workspace / "bad.txt")])
    assert code == 1 and err.startswith(f"kdn: token id {bad} out of range") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("n_layers", 1 << 32), ("n_heads", 1 << 16), ("d_head", 1 << 16),
                                          ("vocab_size", 1 << 32)])
def test_model_config_past_its_wire_widths_exits_1(workspace, capsys, field, value):
    model = json.dumps({**json.loads(MODEL_JSON), field: value})
    code, out, err = _run(capsys, ["get", "--host", "127.0.0.1", "--port", "9", "--model", model,
                                   "--tokens", str(workspace / "tokens.txt")])
    assert code == 1 and out == ""
    assert err.startswith("kdn: bad model config") and err.count("\n") == 1, err[:300]
    assert err.rstrip().endswith("must be at most 65535" if field != "vocab_size" else "must be below 2**32")


def test_serve_answers_get_host_as_a_local_get_does(workspace, capsys):
    root = str(workspace / "store")
    (workspace / "doc.txt").write_text(" ".join(str(i % 32) for i in range(150)))  # chunks of 64, 64, 22
    (workspace / "query.txt").write_text(" ".join(str(i % 32) for i in range(140)) + " 31 31 31")
    assert _run(capsys, ["put", "--root", root, "--model", MODEL_JSON, "--tokens", str(workspace / "doc.txt")])[0] == 0
    get = ["--output", "json", "get", "--model", MODEL_JSON, "--tokens", str(workspace / "query.txt")]
    code, local, local_err = _run(capsys, [*get, "--root", root])
    assert code == 0

    env = dict(os.environ, PYTHONPATH=str(Path(kdn.__file__).parents[1]))
    # -X dev: a socket left open at exit prints a ResourceWarning
    server = subprocess.Popen([sys.executable, "-X", "dev", "-u", "-m", "kdn.cli", "serve", "--root", root, "--port", "0"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        ready, _, _ = select.select([server.stdout], [], [], 60)
        line = server.stdout.readline() if ready else ""
        assert "listening on" in line, line
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        code, remote, remote_err = _run(capsys, [*get, "--host", host, "--port", port])
        assert code == 0
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=30) == 0
        assert "ResourceWarning" not in server.stderr.read()
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
        server.stdout.close()
        server.stderr.close()

    # under --output json, stdout is the table alone and the miss line goes to stderr
    miss = " ".join(str(i % 32) for i in range(128, 140)) + " 31 31 31"
    assert len(json.loads(remote)) == len(json.loads(local)) == 2
    assert remote_err == local_err == f"miss_suffix: 15 tokens -> {miss}\n"


@pytest.mark.parametrize("reply", [
    delivery.Frame(delivery.END, b"\x01"),
    delivery.Frame(delivery.END, b"\x05\x00\x00\x00"),
    delivery.Frame(delivery.END, b"\x00\x00\x00\x00junk"),
    delivery.Frame(delivery.ERR, b"\x01"),  # too short for its code
], ids=["count-cut", "tokens-cut", "trailing-bytes", "err-code-cut"])
def test_get_host_reports_a_malformed_end_frame_in_one_line(workspace, capsys, monkeypatch, reply):
    monkeypatch.setattr(delivery, "_answer", lambda store, frame: [reply])
    server = delivery.KdnServer(None, port=0)
    server.serve_in_background()
    try:
        host, port = server.server_address
        code, out, err = _run(capsys, ["get", "--host", host, "--port", str(port), "--model", MODEL_JSON,
                                       "--tokens", str(workspace / "tokens.txt")])
    finally:
        server.shutdown()
        server.server_close()
    kind = "ERR" if reply.frame_type == delivery.ERR else "END"
    assert code == 1 and out == ""
    assert err.startswith(f"kdn: fetch failed after retry: malformed {kind} frame") and err.count("\n") == 1


def test_serve_exits_0_and_closes_its_socket_on_an_interrupt_before_it_serves(workspace, monkeypatch):
    servers = []
    real_server = delivery.KdnServer
    monkeypatch.setattr(delivery, "KdnServer", lambda *args: servers.append(real_server(*args)) or servers[-1])

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "print", interrupt, raising=False)  # SIGINT while it prints its first line
    (workspace / "store").mkdir()
    assert main(["serve", "--root", str(workspace / "store"), "--port", "0"]) == 0
    assert servers[0].socket.fileno() == -1


def test_serve_and_get_missing_root_exits_1(workspace, capsys):
    # neither reader creates a store: a local get would report a full miss from an empty one
    root = workspace / "missing"
    for argv in (["serve", "--root", str(root), "--port", "0"],
                 ["get", "--root", str(root), "--model", MODEL_JSON, "--tokens", str(workspace / "tokens.txt")]):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"kdn: store root {root} does not exist\n"
        assert not root.exists()


def test_put_idempotent_message(workspace, capsys):
    root = str(workspace / "store")
    args = ["put", "--root", root, "--model", MODEL_JSON, "--tokens", str(workspace / "tokens.txt")]
    assert _run(capsys, args)[0] == 0
    code, out, _ = _run(capsys, args)
    assert code == 0 and "already stored" in out
    # under csv, stdout is the table alone and the note goes to stderr
    code, out, err = _run(capsys, ["--output", "csv", *args])
    assert code == 0 and err == "already stored\n"
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["chunk", "0"]


def test_get_reports_miss(workspace, capsys):
    root = str(workspace / "store")
    _run(capsys, ["put", "--root", root, "--model", MODEL_JSON,
                  "--tokens", str(workspace / "tokens.txt")])
    (workspace / "other.txt").write_text("31 31 31")
    code, out, _ = _run(capsys, ["get", "--root", root, "--model", MODEL_JSON,
                                 "--tokens", str(workspace / "other.txt")])
    assert code == 0
    assert "miss_suffix: 3 tokens -> 31 31 31" in out


def test_get_json_output(workspace, capsys):
    root = str(workspace / "store")
    _run(capsys, ["put", "--root", root, "--model", MODEL_JSON,
                  "--tokens", str(workspace / "tokens.txt")])
    code, out, err = _run(capsys, ["--output", "json", "get", "--root", root,
                                   "--model", MODEL_JSON, "--tokens", str(workspace / "tokens.txt")])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and int(rows[0]["tokens"]) == 10
    assert err == "miss_suffix: 0 tokens\n"


def test_missing_root_is_operational_error(workspace, capsys, monkeypatch):
    monkeypatch.delenv("KDN_ROOT", raising=False)
    code, _, err = _run(capsys, ["get", "--model", MODEL_JSON,
                                 "--tokens", str(workspace / "tokens.txt")])
    assert code == 1
    assert "store root" in err or "KDN_ROOT" in err


def test_bad_model_config(workspace, capsys):
    not_int, infinite = (json.dumps({**json.loads(MODEL_JSON), "n_layers": v}) for v in ("x", float("inf")))
    for spec in ("{broken", "[1]", not_int, infinite):
        code, _, err = _run(capsys, ["put", "--root", str(workspace / "s"),
                                     "--model", spec, "--tokens", str(workspace / "tokens.txt")])
        assert code == 1 and err.startswith("kdn: bad model config") and err.count("\n") == 1


def test_bad_token_file(workspace, capsys):
    # a token is an optional minus sign and ASCII digits: int() also takes a plus sign, "_" and other scripts' digits
    for bad in ("two", "+1", "2_0", "\uff13"):
        (workspace / "bad.txt").write_text(f"1 {bad} 3")
        code, _, err = _run(capsys, ["put", "--root", str(workspace / "s"),
                                     "--model", MODEL_JSON, "--tokens", str(workspace / "bad.txt")])
        assert code == 1 and "integers" in err and repr(bad) in err and err.count("\n") == 1, (bad, err)


def test_unknown_profile(workspace, capsys):
    code, _, err = _run(capsys, ["put", "--root", str(workspace / "s"), "--model", MODEL_JSON,
                                 "--tokens", str(workspace / "tokens.txt"), "--profile", "nope"])
    assert code == 1 and "unknown codec profile" in err


# -- blend ---------------------------------------------------------------------------


def test_blend_writes_outputs(workspace, capsys):
    req = workspace / "blend.json"
    req.write_text(json.dumps({
        "model": json.loads(MODEL_JSON),
        "segments": [[1, 2, 3, 4], [5, 6, 7, 8]],
        "ratio": 1.0,
    }))
    out_dir = workspace / "out"
    code, out, _ = _run(capsys, ["blend", "--request", str(req), "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "blend_report.json").read_text())
    assert list(report) == ["recompute_ratio", "selected", "scores", "final_state_error", "kv_error"]
    assert report["recompute_ratio"] == 1.0
    assert report["kv_error"] == 0.0
    _, cache, states = load_fixture(out_dir / "blended.kdnf")
    model = build_model(ModelConfig.from_dict(json.loads(MODEL_JSON)))
    oracle_cache, _ = prefill(model, [1, 2, 3, 4, 5, 6, 7, 8])
    np.testing.assert_allclose(cache.k_pre, oracle_cache.k_pre, atol=1e-6)


def test_blended_fixture_holds_the_states_of_the_recomputed_rows(workspace, capsys):
    segments = [[(7 * i + 3) % 32 for i in range(20)], [(5 * i + 1) % 32 for i in range(20)]]
    req = workspace / "blend.json"
    req.write_text(json.dumps({"model": json.loads(MODEL_JSON), "segments": segments, "ratio": 0.15}))
    out_dir = workspace / "out"
    assert _run(capsys, ["blend", "--request", str(req), "--out", str(out_dir)])[0] == 0
    selected = json.loads((out_dir / "blend_report.json").read_text())["selected"]
    _, cache, states = load_fixture(out_dir / "blended.kdnf")
    model = build_model(ModelConfig.from_dict(json.loads(MODEL_JSON)))
    segs = [blender.Segment.from_tokens(model, t) for t in segments]
    blended, want, report = blender.selective_blend(model, segs, 0.15)
    assert selected == report.selected and len(selected) == 6
    assert np.array_equal(cache.kv, blended.kv)
    assert states.shape == (len(selected), model.config.d_model)
    assert np.array_equal(states, want.astype(np.float32))


def test_blend_ratio_out_of_range_is_usage_error(workspace, capsys):
    req = workspace / "blend.json"
    req.write_text(json.dumps({
        "model": json.loads(MODEL_JSON), "segments": [[1, 2]], "ratio": 2.0,
    }))
    code, _, err = _run(capsys, ["blend", "--request", str(req), "--out", str(workspace / "o")])
    assert code == 2
    assert "ratio" in err


def test_blend_unwritable_fixture_is_operational_error(workspace, capsys, monkeypatch):
    real_blend = blender.selective_blend

    def far_blend(*args, **kwargs):
        blended, states, report = real_blend(*args, **kwargs)
        return KvCache(blended.kv, 70_000), states, report  # start_pos past the fixture's u16

    monkeypatch.setattr(blender, "selective_blend", far_blend)
    req = workspace / "blend.json"
    req.write_text(json.dumps({"model": json.loads(MODEL_JSON), "segments": [[1, 2], [3, 4]], "ratio": 0.5}))
    code, _, err = _run(capsys, ["blend", "--request", str(req), "--out", str(workspace / "o")])
    assert code == 1
    assert "u16" in err


@pytest.mark.parametrize("model_doc, segments", [
    ({**json.loads(MODEL_JSON), "vocab_size": 65536}, [[1, 2], [3, 4, 5]]),
    ({"n_layers": 1, "n_heads": 1, "d_head": 2, "vocab_size": 32}, [[0] * 65536]),
])
def test_blend_past_the_fixture_header_is_refused_before_any_prefill(workspace, capsys, monkeypatch,
                                                                     model_doc, segments):
    def no_prefill(*args, **kwargs):
        raise AssertionError("a segment was prefilled")

    monkeypatch.setattr(blender, "prefill", no_prefill)
    req = workspace / "blend.json"
    req.write_text(json.dumps({"model": model_doc, "segments": segments, "ratio": 0.5}))
    code, _, err = _run(capsys, ["blend", "--request", str(req), "--out", str(workspace / "o")])
    assert code == 1 and "do not all fit in u16" in err and err.count("\n") == 1
    assert not (workspace / "o").exists()


def test_blend_bad_request_file(workspace, capsys):
    code, _, err = _run(capsys, ["blend", "--request", str(workspace / "nope.json")])
    assert code == 1 and "bad blend request" in err
    good = {"model": json.loads(MODEL_JSON), "segments": [[1, 2]], "ratio": 0.5}
    for bad in ({"segments": [1, 2]}, {"ratio": None}, {"model": []}, {"segments": [["a"]]}):
        req = workspace / "bad.json"
        req.write_text(json.dumps({**good, **bad}))
        code, _, err = _run(capsys, ["blend", "--request", str(req), "--out", str(workspace / "out")])
        assert code == 1 and err.startswith("kdn: bad blend request") and err.count("\n") == 1


# -- bench ----------------------------------------------------------------------------


def test_bench_codec_json(capsys):
    code, out, _ = _run(capsys, ["--output", "json", "bench", "codec", "--profile", "4bit-deflate"])
    assert code == 0
    rows = json.loads(out)
    by_name = {r["fixture"]: r for r in rows}
    assert float(by_name["smooth"]["ratio"]) >= 8.0
    assert float(by_name["random"]["max_err"]) >= 0.0
    for row in rows:
        assert float(row["encode_ms"]) > 0.0 and float(row["decode_ms"]) > 0.0


def test_bench_codec_inline_profile(capsys):
    inline = json.dumps({"quant_bits": 8, "group_size": 16, "anchor_stride": 16, "lossless_id": 1})
    code, out, _ = _run(capsys, ["bench", "codec", "--profile", inline])
    assert code == 0 and "smooth" in out


# -- cost -----------------------------------------------------------------------------


def test_cost_report_published(capsys):
    code, out, _ = _run(capsys, ["cost", "report"])
    assert code == 0
    assert "inject ratio (FT/KDN): 40.00x" in out
    assert "cost ratio   (IC/KDN): 2.53x" in out
    assert "delay ratio  (IC/KDN): 3.67x" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cost_report_ratio_lines_go_to_stderr_under_csv_and_json(capsys, fmt):
    code, out, err = _run(capsys, ["--output", fmt, "cost", "report"])
    rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and [row["system"] for row in rows] == list(PUBLISHED_MEASUREMENTS)
    assert err.startswith("inject ratio (FT/KDN): 40.00x\n") and err.count("\n") == 3


def _params_doc():
    return {
        "T": 3600, "C_gpu": 2 / 3600, "C_store": 1e-12, "C_net": 1e-12,
        "S_model": 5e9, "S_kv": 2e9, "S_text": 4e4,
        "T_prefill": 8, "T_Q": 0.4, "T_finetune": 900, "B": 1e10,
    }


def _measured_doc(**kdn_row):
    rows = {name: vars(m) for name, m in PUBLISHED_MEASUREMENTS.items()}
    return {"measured": {**rows, "KDN": {**rows["KDN"], **kdn_row}}}


def test_cost_report_reads_only_measured_rows(workspace, capsys):
    p = workspace / "params.json"
    p.write_text(json.dumps(_measured_doc(cost=0.0149 / 2)))
    code, out, _ = _run(capsys, ["cost", "report", "--params", str(p)])
    assert code == 0
    assert "cost ratio   (IC/KDN): 2.00x" in out
    assert "delay ratio  (IC/KDN): 3.67x" in out


@pytest.mark.parametrize("doc", [
    # beside every CostParams field, which the report does not read
    {**_params_doc(), "measured": {"FT": {"inject_time": 1, "cost": 1}}},
    {**_params_doc(), "measured": [1, 2]},
    {**_params_doc(), "measured": {"FT": [1, 2, 3]}},
    {**_params_doc(), **_measured_doc(cost="cheap")},
    [1, 2],
], ids=["row-missing-a-key", "measured-list", "row-list", "row-not-a-number", "doc-list"])
def test_cost_report_bad_measured_is_one_line_exit_1(workspace, capsys, doc):
    p = workspace / "params.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["cost", "report", "--params", str(p)])
    assert code == 1 and out == ""
    assert err.startswith("kdn: bad params file:") and err.count("\n") == 1


def test_cost_sweep_params_file_not_an_object_is_one_line_exit_1(workspace, capsys):
    # sweep and report share one params loader, so they fail the same way
    p = workspace / "params.json"
    p.write_text("[1, 2]")
    code, out, err = _run(capsys, ["cost", "sweep", "--params", str(p)])
    assert code == 1 and out == ""
    assert err.startswith("kdn: bad params file:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["report", "--no-tq"],
    ["report", "--paper-delay"],
    # no command drops T_Q: "T_Q": 0, or no T_Q, charges no query prefill
    ["sweep", "--params", "params.json", "--no-tq"],
    ["simulate", "--params", "params.json", "--trace", "trace.json", "--no-tq"],
], ids=["--no-tq", "--paper-delay", "sweep---no-tq", "simulate---no-tq"])
def test_cost_report_takes_no_convention_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["cost", *argv])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["get", "serve"])
def test_capacity_is_a_put_flag_only(workspace, command):
    # neither command admits or evicts a chunk
    with pytest.raises(SystemExit) as exc:
        main([command, "--root", str(workspace / "store"), "--capacity", "10"])
    assert exc.value.code == 2


def test_cost_sweep(workspace, capsys):
    p = workspace / "params.json"
    p.write_text(json.dumps(_params_doc()))
    code, out, _ = _run(capsys, ["cost", "sweep", "--params", str(p),
                                 "--sweep", "r1=0:1:0.25", "--objective", "money"])
    assert code == 0
    assert "threshold" in out
    assert out.count("\n") >= 5  # header + 5 grid rows + threshold line


def test_cost_sweep_row_computes_each_system_once(workspace, capsys, monkeypatch):
    p = workspace / "params.json"
    p.write_text(json.dumps(_params_doc()))
    calls = []
    per_query = costmodel.per_query
    monkeypatch.setattr(costmodel, "per_query", lambda *args, **kw: calls.append(args[0]) or per_query(*args, **kw))
    code, out, err = _run(capsys, ["--output", "json", "cost", "sweep", "--params", str(p), "--sweep", "r1=0:1:0.25"])
    rows = json.loads(out)
    assert code == 0 and len(rows) == 5
    assert err.startswith("threshold") and err.count("\n") == 1
    # threshold_r1 evaluates KV and IC at r1 = 0 and 1; each row computes its three printed columns only
    assert len(calls) == 4 + 3 * len(rows)


def test_cost_sweep_crossing_where_kv_and_ic_differ_by_rounding(workspace, capsys):
    # KV's money is IC's plus 5e-9 minus 1e-8 * r1 at every r1
    p = workspace / "params.json"
    p.write_text(json.dumps({"T": 1, "C_gpu": 1, "C_store": 1, "C_net": 1, "S_model": 1, "S_kv": 1.000000005,
                             "S_text": 1, "T_prefill": 1e-8, "T_Q": 0, "T_finetune": 1, "B": 1}))
    code, out, _ = _run(capsys, ["cost", "sweep", "--params", str(p)])
    assert code == 0
    assert "threshold r1* = 0.500000" in out


def test_cost_sweep_bad_spec(workspace, capsys):
    p = workspace / "params.json"
    p.write_text(json.dumps(_params_doc()))
    code, _, err = _run(capsys, ["cost", "sweep", "--params", str(p), "--sweep", "r2=0:1:0.1"])
    assert code == 1 and "r1" in err
    # a spec without its step is one line, not a traceback
    code, out, err = _run(capsys, ["cost", "sweep", "--params", str(p), "--sweep", "r1=0:1"])
    assert code == 1 and out == ""
    assert err.startswith("kdn: bad sweep spec 'r1=0:1'") and err.count("\n") == 1, err[:300]


# a step of 0 would divide by zero, and a negative one would print an empty table
@pytest.mark.parametrize("spec", ["r1=0:1:1e-12", "r1=0:1:nan", "r1=0:inf:1", "r1=0:1:0", "r1=0:1:-0.25"])
def test_cost_sweep_grid_not_finite_or_too_long_is_one_line_exit_1(workspace, capsys, spec):
    p = workspace / "params.json"
    p.write_text(json.dumps(_params_doc()))
    with _address_space_cap():  # the 1e-12 grid is 7.28 TiB
        code, out, err = _run(capsys, ["cost", "sweep", "--params", str(p), "--sweep", spec])
    assert code == 1 and out == ""
    assert err.startswith("kdn: sweep") and err.count("\n") == 1, err[:300]


def test_cost_simulate(workspace, capsys):
    p = workspace / "params.json"
    p.write_text(json.dumps(_params_doc()))
    trace = workspace / "trace.json"
    trace.write_text(json.dumps([[0.0, "a"], [5.0, "a"], [10.0, "b"], [4000.0, "a"]]))
    code, out, err = _run(capsys, ["--output", "json", "cost", "simulate",
                                   "--params", str(p), "--trace", str(trace)])
    assert code == 0
    assert err.startswith("empirical mix: r1=0.2500 r2=0.5000") and err.count("\n") == 1
    rows = json.loads(out)
    for row in rows:
        assert float(row["max_abs_diff"]) < 1e-9


def test_cost_simulate_bad_trace(workspace, capsys):
    p = workspace / "params.json"
    p.write_text(json.dumps(_params_doc()))
    bad = workspace / "trace.json"
    bad.write_text("[[1.0]]")  # missing context field
    code, _, err = _run(capsys, ["cost", "simulate", "--params", str(p), "--trace", str(bad)])
    assert code == 1 and "bad trace file" in err
    bad.write_text("[]")
    code, _, err = _run(capsys, ["cost", "simulate", "--params", str(p), "--trace", str(bad)])
    assert code == 1 and "empty" in err


def test_bench_codec_profile_file_reads_as_its_inline_text(workspace, capsys):
    inline = json.dumps({"quant_bits": 4, "group_size": 3, "anchor_stride": 5, "lossless_id": 3})
    (workspace / "profile.json").write_text(inline)
    tables = []
    for spec in (inline, str(workspace / "profile.json")):
        code, out, _ = _run(capsys, ["--output", "json", "bench", "codec", "--profile", spec])
        assert code == 0
        tables.append([{k: v for k, v in row.items() if not k.endswith("_ms")} for row in json.loads(out)])
    assert tables[0] == tables[1]


# -- malformed JSON documents ----------------------------------------------------------

_HUGE = int("9" * 400)  # a float() of it overflows
_DEEP = "[" * 100_000 + "]" * 100_000  # json.loads recurses once per level
_MODEL = {**json.loads(MODEL_JSON), "rope_base": 10000.0}
_BLEND = {"model": _MODEL, "segments": [[1, 2]], "ratio": 0.5}
# configs within ModelConfig's field bounds whose weights are past build_model's bound
_WIDE = {"n_layers": 65535, "n_heads": 65535, "d_head": 2, "vocab_size": 32}
_WORDY = {"n_layers": 1, "n_heads": 1, "d_head": 2, "vocab_size": 4294967295}

# per JSON flag: its command around the document ("{doc}"; "{w}" is the
# workspace), its error prefix, whether it also takes inline text, and its
# malformed documents by kind
_JSON_FLAGS = {
    "model": (["put", "--root", "{w}/s", "--model", "{doc}", "--tokens", "{w}/tokens.txt"], "bad model config", True,
              {"container": [1], "not-a-number": {**_MODEL, "n_layers": "x"},
               "400-digits": {**_MODEL, "rope_base": _HUGE}, "too-wide": _WIDE, "too-wordy": _WORDY,
               "fraction": {**_MODEL, "n_layers": 2.9}, "bool": {**_MODEL, "n_layers": True},
               "rope-nan": {**_MODEL, "rope_base": math.nan}, "rope-tiny": {**_MODEL, "rope_base": 1e-300},
               "rope-string": {**_MODEL, "rope_base": "20000"}, "int-string": {**_MODEL, "n_layers": "2"}}),
    "profile": (["bench", "codec", "--profile", "{doc}"], "unknown codec profile", True,
                {"container": [1], "not-a-number": {"quant_bits": "x"}, "400-digits": {"quant_bits": _HUGE},
                 "inf": {"quant_bits": 1e400}, "over-u16": {"anchor_stride": 65536},
                 "fraction": {"quant_bits": 8.9}, "int-string": {"quant_bits": "8"}}),
    # group size and anchor stride are u16s of the chunk header
    "put-profile": (["put", "--root", "{w}/s", "--model", "{w}/model.json", "--tokens", "{w}/tokens.txt",
                     "--profile", "{doc}"], "unknown codec profile", True, {"over-u16": {"group_size": 70000}}),
    "request": (["blend", "--request", "{doc}", "--out", "{w}/out"], "bad blend request", False,
                {"container": [1], "not-a-number": {**_BLEND, "ratio": "x"}, "400-digits": {**_BLEND, "ratio": _HUGE},
                 "too-wide": {**_BLEND, "model": _WIDE}, "fraction": {**_BLEND, "segments": [[1.5, 2]]},
                 "ratio-bool": {**_BLEND, "ratio": True}, "ratio-string": {**_BLEND, "ratio": "0.5"},
                 "token-string": {**_BLEND, "segments": [["1", "2"], [3, 4]]}}),
    "report-params": (["cost", "report", "--params", "{doc}"], "bad params file", False,
                      {"container": [1], "not-a-number": _measured_doc(cost="x"),
                       "400-digits": _measured_doc(cost=_HUGE), "bool": _measured_doc(cost=True)}),
    "sweep-params": (["cost", "sweep", "--params", "{doc}"], "bad params file", False,
                     {"container": [1], "not-a-number": {**_params_doc(), "r2": "x"},
                      "400-digits": {**_params_doc(), "T": _HUGE}, "string": {**_params_doc(), "T": "3600"},
                      "bool": {**_params_doc(), "C_gpu": True}}),
    "simulate-params": (["cost", "simulate", "--params", "{doc}", "--trace", "{w}/trace.json"],
                        "bad params file", False,
                        {"container": [1], "not-a-number": {**_params_doc(), "T": "x"},
                         "400-digits": {**_params_doc(), "B": _HUGE}}),
    # a trace is a list, so its wrong container is an object
    "trace": (["cost", "simulate", "--params", "{w}/params.json", "--trace", "{doc}"], "bad trace file", False,
              {"container": {"0": [0.0, "a"]}, "not-a-number": [["x", "a"]], "400-digits": [[_HUGE, "a"]],
               "time-string": [[0.0, "a"], ["5", "b"]], "context-number": [[0.0, 7], [5.0, "7"]]}),
}


@pytest.mark.parametrize("flag, kind", [
    (flag, kind) for flag, (_, _, inline, docs) in _JSON_FLAGS.items()
    for kind in [*docs, "deep", *([] if inline else ["missing"])]
])
def test_malformed_json_document_is_one_line_exit_1(workspace, capsys, flag, kind):
    template, prefix, inline, docs = _JSON_FLAGS[flag]
    (workspace / "params.json").write_text(json.dumps(_params_doc()))
    (workspace / "trace.json").write_text(json.dumps([[0.0, "a"], [5.0, "b"]]))
    doc = workspace / "doc.json"  # never written for "missing"
    spec = str(doc)
    if kind == "deep":  # a file for every flag: no command line holds 200 KB in one argument
        doc.write_text(_DEEP)
    elif kind in docs and inline:
        spec = json.dumps(docs[kind])
    elif kind in docs:
        doc.write_text(json.dumps(docs[kind]))
    with _address_space_cap():  # a too-large model must fail before it allocates
        code, out, err = _run(capsys, [arg.format(w=workspace, doc=spec) for arg in template])
    assert code == 1 and out == ""
    assert err.startswith(f"kdn: {prefix}") and err.count("\n") == 1, err[:300]


@pytest.mark.parametrize("argv, doc", [
    (["sweep", "--params", "{doc}"], {**_params_doc(), "T_Q": math.nan}),
    (["sweep", "--params", "{doc}"], {**_params_doc(), "T_prefill": math.inf}),
    (["sweep", "--params", "{doc}"], {**_params_doc(), "r2": math.nan}),
    (["simulate", "--params", "{doc}", "--trace", "{w}/trace.json"], {**_params_doc(), "T_Q": math.nan}),
    # 5 s is 5e308 periods of 1e-308 s, past the float range
    (["simulate", "--params", "{doc}", "--trace", "{w}/trace.json"], {**_params_doc(), "T": 1e-308}),
    (["simulate", "--params", "{w}/params.json", "--trace", "{doc}"], [[0.0, "a"], [math.nan, "b"]]),
    (["simulate", "--params", "{w}/params.json", "--trace", "{doc}"], [[0.0, "a"], [math.inf, "b"]]),
    (["report", "--params", "{doc}"], _measured_doc(cost=math.nan)),
], ids=["sweep-tq-nan", "sweep-prefill-inf", "sweep-r2-nan", "simulate-tq-nan", "simulate-periods-overflow",
        "trace-nan", "trace-inf",
        "report-cost-nan"])
def test_non_finite_cost_input_is_one_line_exit_1(workspace, capsys, argv, doc):
    (workspace / "params.json").write_text(json.dumps(_params_doc()))
    (workspace / "trace.json").write_text(json.dumps([[0.0, "a"], [5.0, "b"]]))
    (workspace / "doc.json").write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["cost", *(arg.format(w=workspace, doc=workspace / "doc.json") for arg in argv)])
    assert code == 1 and out == ""
    assert err.startswith("kdn: ") and "finite" in err and err.count("\n") == 1, err[:300]


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["serve", "get"])
@pytest.mark.parametrize("port", ["70000", "-1", "x", "\uff17\uff13\uff11\uff11"])
def test_port_not_in_0_to_65535_is_usage_error(workspace, capsys, command, port):
    more = ["--model", MODEL_JSON, "--tokens", str(workspace / "tokens.txt")] if command == "get" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--root", str(workspace / "store"), f"--port={port}", *more])
    assert exc.value.code == 2
    assert f"argument --port: port '{port}' is not an integer in [0, 65535]" in capsys.readouterr().err
