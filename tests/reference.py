"""Independent straight-line re-implementations used as test oracles.

The reference model and the codec's byte paths, deliberately written with
explicit Python loops (and math.sin) so that they share no code path with the
package; golden and property tests compare the two.  ``ref_attend`` is the
untiled attention kernel the tiled one replaced; ``ref_project_kv``,
``ref_blend_scores`` and ``ref_quantize_tensor`` are the per-head and
per-group loops that the package's single array operations must reproduce
bit for bit.  ``ref_threshold_bisection`` solves for the cost model's
break-even r1 by bisection, with no use of the line's closed form.
``ref_classify`` reads a trace's workload mix from each context's last
refresh period, counted in exact rationals, with no per-period set to reset.
"""

import math
from fractions import Fraction

import numpy as np

from kdn.costmodel import Objective, System, WorkloadMix, per_query


def ref_weight(tag: int, i: int, j: int, fan_in: int) -> float:
    return 0.5 * math.sin(0.37 * (977 * tag + 131 * i + 7 * j + 1)) / math.sqrt(fan_in)


def ref_embed(v: int, j: int) -> float:
    return math.sin(0.61 * (31 * v + j + 1))


def _matrix(tag, n_rows, n_cols, fan_in):
    return np.array(
        [[ref_weight(tag, i, j, fan_in) for j in range(n_cols)] for i in range(n_rows)]
    )


def _rope_row(row, pos, rope_base):
    d = len(row)
    out = np.empty(d)
    for p in range(d // 2):
        theta = rope_base ** (-2.0 * p / d)
        ang = pos * theta
        c, s = math.cos(ang), math.sin(ang)
        out[2 * p] = row[2 * p] * c - row[2 * p + 1] * s
        out[2 * p + 1] = row[2 * p] * s + row[2 * p + 1] * c
    return out


def ref_prefill(n_layers, n_heads, d_head, vocab_size, tokens, rope_base=10000.0, start_pos=0):
    """Full causal pass; returns (k_pre f32, v f32, final states f64)."""
    d_model = n_heads * d_head
    n = len(tokens)
    x = np.array([[ref_embed(t, j) for j in range(d_model)] for t in tokens])
    k_pre = np.zeros((n_layers, n_heads, n, d_head), dtype=np.float32)
    v_all = np.zeros_like(k_pre)
    for layer in range(n_layers):
        wq = [_matrix(layer * 64 + h * 4 + 0, d_model, d_head, d_model) for h in range(n_heads)]
        wk = [_matrix(layer * 64 + h * 4 + 1, d_model, d_head, d_model) for h in range(n_heads)]
        wv = [_matrix(layer * 64 + h * 4 + 2, d_model, d_head, d_model) for h in range(n_heads)]
        wo = [_matrix(layer * 64 + h * 4 + 3, d_head, d_model, d_head) for h in range(n_heads)]
        for h in range(n_heads):
            k_pre[layer, h] = (x @ wk[h]).astype(np.float32)
            v_all[layer, h] = (x @ wv[h]).astype(np.float32)
        delta = np.zeros((n, d_model))
        for h in range(n_heads):
            q = x @ wq[h]
            k64 = k_pre[layer, h].astype(np.float64)
            v64 = v_all[layer, h].astype(np.float64)
            for t in range(n):
                pos_t = start_pos + t
                q_rot = _rope_row(q[t], pos_t, rope_base)
                scores = []
                for u in range(t + 1):
                    k_rot = _rope_row(k64[u], start_pos + u, rope_base)
                    scores.append(float(q_rot @ k_rot) / math.sqrt(d_head))
                m = max(scores)
                weights = [math.exp(s - m) for s in scores]
                z = sum(weights)
                attn = np.zeros(d_head)
                for u in range(t + 1):
                    attn += (weights[u] / z) * v64[u]
                delta[t] += attn @ wo[h]
        x = x + delta
    return k_pre, v_all, x


def _rope_rows(x, positions, rope_base):
    d = x.shape[-1]
    theta = rope_base ** (-2.0 * np.arange(d // 2, dtype=np.float64) / d)
    ang = positions[:, None].astype(np.float64) * theta[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    out = np.empty_like(x, dtype=np.float64)
    even, odd = x[..., 0::2], x[..., 1::2]
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _causal_softmax(scores, q_positions, k_positions):
    mask = k_positions[None, :] > q_positions[:, None]
    scores = np.where(mask, -np.inf, scores)
    scores = scores - scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    return w / w.sum(axis=-1, keepdims=True)


def ref_attend(model, layer, x_q, q_positions, k_pre, v, k_positions):
    """Untiled attention: per head, a full (query, key) score matrix, masked.

    Same signature as ``kdn.model.attend``; takes keys at any positions.
    """
    cfg = model.config
    out = np.zeros((x_q.shape[0], cfg.d_model), dtype=np.float64)
    inv_sqrt_d = 1.0 / np.sqrt(float(cfg.d_head))
    for h in range(cfg.n_heads):
        q = _rope_rows(x_q @ model.wq[layer, h], q_positions, cfg.rope_base)
        k = _rope_rows(k_pre[h].astype(np.float64), k_positions, cfg.rope_base)
        scores = (q @ k.T) * inv_sqrt_d
        weights = _causal_softmax(scores, q_positions, k_positions)
        out += (weights @ v[h].astype(np.float64)) @ model.wo[layer, h]
    return out


def ref_project_kv(model, layer, x):
    """Pre-rotation K and V rows, one product per head, rounded to float32."""
    cfg = model.config
    k = np.empty((cfg.n_heads, x.shape[0], cfg.d_head), dtype=np.float32)
    v = np.empty_like(k)
    for h in range(cfg.n_heads):
        k[h] = (x @ model.wk[layer, h]).astype(np.float32)
        v[h] = (x @ model.wv[layer, h]).astype(np.float32)
    return k, v


def ref_blend_scores(model, h1, stale_v1):
    """selective_blend's deviation score, accumulated one head at a time."""
    scores = np.zeros(len(h1))
    for h in range(model.config.n_heads):
        diff = h1 @ model.wv[1, h] - stale_v1[h].astype(np.float64)
        scores += (diff**2).sum(axis=1)
    return np.sqrt(scores)


# -- codec: per-group, per-byte and per-value loops --------------------------------


def ref_quantize_tensor(x, bits, group_size):
    """Per-token-group affine quantization, one group at a time: (codes, scale, zero)."""
    L, H, T, D = x.shape
    n_groups = (T + group_size - 1) // group_size
    levels = (1 << bits) - 1
    codes = np.zeros((L, H, T, D), dtype=np.uint8)
    scale = np.ones((L, H, n_groups, D), dtype=np.float32)
    zero = np.zeros((L, H, n_groups, D), dtype=np.float32)
    for g in range(n_groups):
        lo, hi = g * group_size, min((g + 1) * group_size, T)
        block = x[:, :, lo:hi].astype(np.float64)
        gmin = block.min(axis=2)
        s = (block.max(axis=2) - gmin) / levels
        s[s == 0.0] = 1.0
        scale[:, :, g] = s.astype(np.float32)
        zero[:, :, g] = gmin.astype(np.float32)
        z64 = zero[:, :, g][:, :, None].astype(np.float64)
        s64 = scale[:, :, g][:, :, None].astype(np.float64)
        codes[:, :, lo:hi] = np.clip(np.rint((block - z64) / s64), 0, levels).astype(np.uint8)
    return codes, scale, zero


def ref_dequantize_tensor(codes, scale, zero, group_size):
    out = np.empty(codes.shape, dtype=np.float32)
    for g in range(scale.shape[2]):
        lo, hi = g * group_size, (g + 1) * group_size
        out[:, :, lo:hi] = codes[:, :, lo:hi].astype(np.float32) * scale[:, :, g, None] + zero[:, :, g, None]
    return out


def _crc32c_table():
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
        table.append(c)
    return table


_CRC32C_TABLE = _crc32c_table()


def ref_crc32c(data, crc=0):
    crc ^= 0xFFFFFFFF
    for b in data:
        crc = _CRC32C_TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def ref_varint_encode(values):
    out = bytearray()
    for v in np.asarray(values, dtype=np.int64).tolist():
        z = (v << 1) ^ (v >> 63) if v < 0 else v << 1
        while z >= 0x80:
            out.append((z & 0x7F) | 0x80)
            z >>= 7
        out.append(z)
    return bytes(out)


def ref_varint_decode(data):
    """Meant for valid streams: a value over 64 bits raises OverflowError."""
    vals = []
    i, n = 0, len(data)
    while i < n:
        shift = 0
        z = 0
        while True:
            if i >= n:
                raise ValueError("truncated varint")
            b = data[i]
            i += 1
            z |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
            if shift > 70:
                raise ValueError("varint too long")
        vals.append((z >> 1) ^ -(z & 1))
    return np.array(vals, dtype=np.int64)


def ref_delta_decode(stream, shape, anchor_stride):
    """Running sums restarting at each anchor, as int64 (L, H, T, D), unchecked."""
    L, H, T, D = shape
    vals = np.asarray(stream, dtype=np.int64).reshape(L, H, D, T).copy()
    for t in range(1, T):
        if t % anchor_stride != 0:
            vals[..., t] += vals[..., t - 1]
    return vals.transpose(0, 1, 3, 2)


def ref_byte_delta_decode(stream, shape, anchor_stride):
    """Running sums mod 256 restarting at each anchor, as uint8 (L, H, T, D)."""
    L, H, T, D = shape
    vals = iter(np.asarray(stream).reshape(-1).tolist())
    out = np.zeros((L, H, T, D), dtype=np.uint8)
    for layer in range(L):
        for h in range(H):
            for d in range(D):
                acc = 0
                for t in range(T):
                    v = next(vals)
                    acc = v if t % anchor_stride == 0 else (acc + v) % 256
                    out[layer, h, t, d] = acc
    return out


def ref_threshold_bisection(params, objective, paper_delay_kv=False) -> float:
    """The r1 in [0, 1] at which KV's objective falls to IC's, to 1e-12, for
    parameters where KV loses at r1 = 0 and wins at r1 = 1."""

    def f(r1):
        kv, ic = (per_query(s, params, WorkloadMix(r1, 0.0), paper_delay_kv=paper_delay_kv)
                  for s in (System.KV, System.IC))
        return kv.money - ic.money if objective is Objective.MONEY else kv.delay_seconds - ic.delay_seconds

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def ref_classify(trace, refresh_period) -> tuple[float, float]:
    """(r1, r2) of a nondecreasing trace: a query whose context last came in
    the same refresh period is an r1 event, one whose context never came an
    r2 event.  A time's period is the floor of its exact quotient."""
    last_period = {}
    n1 = n2 = 0
    for t, ctx in trace:
        period = Fraction(t) // Fraction(refresh_period)
        if last_period.get(ctx) == period:
            n1 += 1
        elif ctx not in last_period:
            n2 += 1
        last_period[ctx] = period
    n = len(trace)
    return (n1 / n, n2 / n) if n else (0.0, 0.0)
