"""Independent reference implementations used as test oracles.

Everything here is written with plain numpy and explicit loops, deliberately
avoiding the library's tensor/geometry code paths, so agreement between the
two routes is meaningful. The exceptions: ``block_forward_windowed_ffn``
composes the library's own ops in a different order, and ``agg_params``
draws test parameters by the library's init rule.
"""

import math

import numpy as np
from scipy import special


def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def gelu_ref(x):
    return x * special.ndtr(x)


def softmax_ref(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def linmapper_loops(x, w_h, b_h, w_w, b_w, w_p, b_p, gs, ws, layout_faithful=False,
                    activation=None, second=None):
    """Scalar-indexed grouped axial mixing.

    ``second``: optional (w2, b2) pairs ((w2_h, b2_h), (w2_w, b2_w)) turning
    each axial map into a two-layer perceptron with ``activation`` between.
    Per-group weights are supported by passing 3-D w_h/w_w (one matrix per
    group).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)  # the chunk writes below need views
    bsz, c, n = x.shape
    g = c // gs
    hf = np.zeros_like(x)
    wf = np.zeros_like(x)

    def pick(w, bias, gi):
        if w.ndim == 3:
            return w[gi], bias[gi]
        return w, bias

    def apply_map(vec, wt, bias, second_pair, gi):
        w1, b1 = pick(wt, bias, gi)
        y = w1 @ vec + b1
        if second_pair is not None:
            (w2, b2) = second_pair
            w2g, b2g = pick(w2, b2, gi)
            y = activation(y)
            y = w2g @ y + b2g
        return y

    sec_h = None if second is None else second[0]
    sec_w = None if second is None else second[1]

    for b in range(bsz):
        for gi in range(g):
            for w in range(ws):  # height branch: one vector per width column
                vec = np.array([x[b, gi * gs + cg, h * ws + w]
                                for cg in range(gs) for h in range(ws)])
                y = apply_map(vec, np.asarray(w_h, dtype=np.float64),
                              np.asarray(b_h, dtype=np.float64), sec_h, gi)
                for cg in range(gs):
                    for h in range(ws):
                        hf[b, gi * gs + cg, h * ws + w] = y[cg * ws + h]
            if layout_faithful:
                flat = x[b, gi * gs:(gi + 1) * gs].reshape(-1)  # row-major group
                for r in range(ws):
                    vec = flat[r * gs * ws:(r + 1) * gs * ws]
                    y = apply_map(vec, np.asarray(w_w, dtype=np.float64),
                                  np.asarray(b_w, dtype=np.float64), sec_w, gi)
                    out_flat = wf[b, gi * gs:(gi + 1) * gs].reshape(-1)
                    out_flat[r * gs * ws:(r + 1) * gs * ws] = y
            else:
                for h in range(ws):  # width branch: one vector per height row
                    vec = np.array([x[b, gi * gs + cg, h * ws + w]
                                    for cg in range(gs) for w in range(ws)])
                    y = apply_map(vec, np.asarray(w_w, dtype=np.float64),
                                  np.asarray(b_w, dtype=np.float64), sec_w, gi)
                    for cg in range(gs):
                        for w in range(ws):
                            wf[b, gi * gs + cg, h * ws + w] = y[cg * ws + w]
    fused = hf + wf
    out = np.zeros_like(x)
    for b in range(bsz):
        for t in range(n):
            out[b, :, t] = np.asarray(w_p, dtype=np.float64) @ fused[b, :, t] + b_p
    return out


def agg_params(kind, c, ws, gs=1, heads=1, rho=4, seed=0, dtype=np.float32):
    """One aggregation layer's name -> tensor dict, drawn in ``param_shapes``
    order by ``init_param`` from a generator seeded with ``seed``."""
    from winmix.aggregators import init_param, param_shapes

    rng = np.random.default_rng(seed)
    return {name: init_param(name, shape, rng, dtype)
            for name, shape in param_shapes(kind, c, ws, gs, heads, rho).items()}


def mhsa_loops(x, p):
    """Direct attention evaluation per window, head by head; ``p`` maps the
    MHSA parameter names to tensors."""
    from winmix.aggregators import relative_position_index

    p = {name: t.numpy().astype(np.float64) for name, t in p.items()}
    x = np.asarray(x, dtype=np.float64)
    bsz, n, c = x.shape
    heads, ws = p["rel_bias"].shape[0], math.isqrt(n)
    dh = c // heads
    idx = relative_position_index(ws)
    table = p["rel_bias"]
    out = np.zeros_like(x)
    for b in range(bsz):
        q = x[b] @ p["w_q"].T + p["b_q"]
        k = x[b] @ p["w_k"].T + p["b_k"]
        v = x[b] @ p["w_v"].T + p["b_v"]
        merged = np.zeros((n, c))
        for h in range(heads):
            qh = q[:, h * dh:(h + 1) * dh] * dh ** -0.5
            kh = k[:, h * dh:(h + 1) * dh]
            vh = v[:, h * dh:(h + 1) * dh]
            logits = qh @ kh.T + table[h][idx]
            attn = softmax_ref(logits)
            merged[:, h * dh:(h + 1) * dh] = attn @ vh
        out[b] = merged @ p["w_o"].T + p["b_o"]
    return out


def spatial_shuffle_indices(h, w, ws):
    """dest[(i, j)] per the index map: (a*(H/ws)+b, ...) -> (b*ws+a, ...)."""
    gh, gw = h // ws, w // ws
    dest = np.empty((h, w, 2), dtype=np.int64)
    for i in range(h):
        a, b = divmod(i, gh)
        di = b * ws + a
        for j in range(w):
            c, d = divmod(j, gw)
            dj = d * ws + c
            dest[i, j] = (di, dj)
    return dest


def layer_norm_ref(x, gamma, beta, eps):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


# Composed numpy formulas that the tensor layer's fast paths must reproduce
# bit for bit, not merely within a tolerance.


def layer_norm_composed(x, gamma, beta, eps, g):
    """Output and (dx, dgamma, dbeta) for upstream gradient ``g``, through
    ``x.mean``/``x.var`` and out-of-place arithmetic."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = (xhat * gamma + beta).astype(x.dtype)
    n = x.shape[-1]
    dgamma = (g * xhat).reshape(-1, n).sum(axis=0)
    dbeta = g.reshape(-1, n).sum(axis=0)
    dxhat = g * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return out, dx.astype(x.dtype), dgamma.astype(x.dtype), dbeta.astype(x.dtype)


def gelu_grad_composed(x, g):
    """``g * (phi + x * pdf)`` with the pdf as ``exp(-x²/2) * (1/sqrt(2π))``."""
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))  # a weak Python float
    return (g * (special.ndtr(x) + x * pdf)).astype(x.dtype)


def pad_hw_np(x, pad_h, pad_w):
    return np.pad(x, [(0, 0), (0, pad_h), (0, pad_w), (0, 0)])


def block_forward_windowed_ffn(model, x, stage, index, msg=None):
    """``model.block_forward`` with norm2, the FFN and their residual run on
    the padded windows, before reverse, the inverse comm op and the crop.

    Those ops act on each token alone, so they commute with the window
    permutations and the crop: real-token outputs and gradients must agree
    with the library's block, which runs them on the cropped map.
    """
    from winmix import aggregators as agg
    from winmix import geometry as geo
    from winmix import model as M
    from winmix import tensor as T

    cfg, ws, p = model.config, model.config.window, model.params
    prefix = f"stage{stage}.block{index}"
    active = M.comm_active(cfg, index)
    shift = ws // 2

    fm = geo.pad_to_multiple(x, ws)
    if active and cfg.comm == "Shift":
        fm = geo.cyclic_shift(fm, -shift, -shift)
    elif active and cfg.comm == "Shuffle":
        fm = geo.spatial_shuffle(fm, ws)
    win = geo.window_partition(fm, ws)
    if active and cfg.comm == "MSG" and msg is not None:
        upd = T.linear(T.tmean(win, axis=1), p[f"{prefix}.msg.collect.w"],
                       p[f"{prefix}.msg.collect.b"])
        gh, gw = fm.height // ws, fm.width // ws
        region = M.choose_messenger_region(gh, gw, x.channels, cfg.messenger_region)
        msg = msg + T.reshape(upd, (upd.shape[0], 1, upd.shape[1]))
        msg = geo.messenger_exchange(msg, gh, gw, region)
        dist = T.linear(T.tmean(msg, axis=1), p[f"{prefix}.msg.distribute.w"],
                        p[f"{prefix}.msg.distribute.b"])
        win = win + T.reshape(dist, (dist.shape[0], 1, dist.shape[1]))
    normed = T.layer_norm(win, p[f"{prefix}.norm1.g"], p[f"{prefix}.norm1.b"])
    win = win + agg.aggregate(cfg.aggregator, normed, M._agg_params(model, prefix),
                              cfg.layout_faithful)
    normed = T.layer_norm(win, p[f"{prefix}.norm2.g"], p[f"{prefix}.norm2.b"])
    win = win + M._ffn(model, prefix, normed)

    fm = geo.window_reverse(win, fm.height, fm.width)
    if active and cfg.comm == "Shift":
        fm = geo.cyclic_shift(fm, shift, shift)
    elif active and cfg.comm == "Shuffle":
        fm = geo.spatial_unshuffle(fm, ws)
    return geo.FeatureMap(T.crop_hw(fm.values, x.height, x.width)), msg
