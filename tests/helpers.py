"""Shared frame generators and independent oracles for the test suite.

Everything here is deliberately written from first principles (plain
loops, itertools enumeration) so the package code is checked against a
second, unrelated implementation rather than against itself.
"""

import itertools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from qtpart import features
from qtpart.codec import (MODE_OVERHEAD_BITS, NS, SPLIT_BITS, RdCost, SearchState,
                          dct2d, encode_ns, lambda_of_qp, qstep_of_qp)
from qtpart.dqn import ACTION_NS, ACTION_QT, epsilon_at, select_action
from qtpart.frame_io import BORDER_FILL, REF_BORDER, LumaFrame, Rect, reference_dc
from qtpart.mlp import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, adam_init, adam_step,
                        backward, forward, forward_cached, init_model)

CHILD_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


def natural_frame(seed: int, h: int = 128, w: int = 128) -> LumaFrame:
    """Smooth blocky texture with noise and a horizontal ramp.

    Produces both split and no-split optima at every collectable size.
    """
    r = np.random.default_rng(seed)
    coarse = r.normal(128, 48, (-(-h // 16), -(-w // 16)))
    img = np.kron(coarse, np.ones((16, 16)))[:h, :w]
    k = np.ones(5) / 5.0
    img = np.apply_along_axis(lambda v: np.convolve(v, k, mode="same"), 0, img)
    img = np.apply_along_axis(lambda v: np.convolve(v, k, mode="same"), 1, img)
    img += r.normal(0, 6, (h, w))
    img += np.linspace(0, 40, w)[None, :]
    return LumaFrame(np.clip(img, 0, 255).astype(np.uint8))


def mosaic_frame(seed: int, h: int = 256, w: int = 256) -> LumaFrame:
    """Zoned content: flat, ramp, 16px mosaic, 8px mosaic, noise.

    The zone mix makes the split/no-split cost ratio vary widely and
    predictably with local texture, which a trained model can rank.
    """
    r = np.random.default_rng(seed)
    img = np.zeros((h, w))
    for zy in range(0, h, 64):
        for zx in range(0, w, 64):
            style = r.integers(5)
            if style == 0:
                z = np.full((64, 64), r.uniform(40, 215))
            elif style == 1:
                gx, gy = r.uniform(-1, 1, 2)
                yy, xx = np.mgrid[0:64, 0:64]
                z = 128 + gx * (xx - 32) + gy * (yy - 32)
            elif style == 2:
                z = np.kron(r.uniform(30, 225, (4, 4)), np.ones((16, 16)))
            elif style == 3:
                z = np.kron(r.uniform(30, 225, (8, 8)), np.ones((8, 8)))
            else:
                z = r.uniform(90, 165) + r.normal(0, 24, (64, 64))
            img[zy:zy + 64, zx:zx + 64] = z
    img += r.normal(0, 3, (h, w))
    return LumaFrame(np.clip(img, 0, 255).astype(np.uint8))


def rank_of(a: np.ndarray) -> np.ndarray:
    order = np.argsort(a, kind="stable")
    rk = np.empty(len(a))
    rk[order] = np.arange(len(a))
    return rk


def spearman(a, b) -> float:
    return float(np.corrcoef(rank_of(np.asarray(a)), rank_of(np.asarray(b)))[0, 1])


def bottom_up_qt_cost(levels, delta: float) -> float:
    """Iterative leaves-to-root aggregation of a no-split cost pyramid.

    levels[d] is the (2**d, 2**d) table of no-split costs at depth d.
    Returns the root's split cost: the sum over its four children of
    min(no-split, own split cost), plus delta. Independent oracle for
    the recursive top-down implementation.
    """
    depth = len(levels) - 1
    best = np.array(levels[depth], dtype=np.float64).copy()
    for d in range(depth - 1, 0, -1):
        ns = np.array(levels[d], dtype=np.float64)
        n = 1 << d
        agg = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                kids = (best[2 * i, 2 * j] + best[2 * i, 2 * j + 1]
                        + best[2 * i + 1, 2 * j] + best[2 * i + 1, 2 * j + 1])
                agg[i, j] = min(ns[i, j], kids + delta)
        best = agg
    return float(best[0, 0] + best[0, 1] + best[1, 0] + best[1, 1] + delta)


def chosen_leaves(node):
    """Leaves of the partition actually chosen (NS blocks) under a node."""
    if node.chosen == NS:
        yield node
    else:
        for c in node.children:
            yield from chosen_leaves(c)


def dyadic_tables(rng: np.random.Generator, depth: int = 3):
    """Random cost tables whose entries are multiples of 1/64.

    Dyadic values keep every candidate sum exact in float64, so the two
    aggregation orders must agree to the last bit.
    """
    return [rng.integers(0, 1 << 20, (1 << d, 1 << d)) / 64.0
            for d in range(depth + 1)]


def count_patch_calls(monkeypatch) -> list:
    """Wrap the ``causal_patch`` the descriptor uses; returns the list of
    rects it is called with, in call order."""
    calls, inner = [], features.causal_patch

    def counting(pix, rect):
        calls.append(rect)
        return inner(pix, rect)

    monkeypatch.setattr(features, "causal_patch", counting)
    return calls


def _encode_leaf(state: SearchState, rect: Rect, depth: int, cfg) -> float:
    block = state.work[rect.y:rect.y + rect.h, rect.x:rect.x + rect.w]
    cost, recon = encode_ns(block, reference_dc(state.work, rect), cfg)
    state.commit(rect, depth, recon, cost)
    return cost.j


def enumerate_tree_costs(frame: LumaFrame, cfg) -> list[float]:
    """Total J of every legal 2-depth tree over a single 32x32 root.

    One no-split tree plus 16 split variants (each 16x16 child split or
    not) = 17 candidates, each re-encoded causally from scratch.
    """
    assert frame.width == 32 and frame.height == 32
    assert cfg.ctu == 32 and cfg.max_depth == 2
    sc = lambda_of_qp(cfg.qp) * SPLIT_BITS
    costs = []

    state = SearchState(frame)
    costs.append(_encode_leaf(state, Rect(0, 0, 32, 32), 0, cfg))

    for combo in itertools.product((0, 1), repeat=4):
        state = SearchState(frame)
        total = sc
        for ci, (dy, dx) in enumerate(CHILD_OFFSETS):
            r16 = Rect(dx * 16, dy * 16, 16, 16)
            if combo[ci]:
                total += sc
                for dy2, dx2 in CHILD_OFFSETS:
                    r8 = Rect(r16.x + dx2 * 8, r16.y + dy2 * 8, 8, 8)
                    total += _encode_leaf(state, r8, 2, cfg)
            else:
                total += _encode_leaf(state, r16, 1, cfg)
        costs.append(total)
    return costs


def reference_hog8(region) -> np.ndarray:
    """Padded-gradient, scatter-add orientation histogram: the original
    formulation of ``features.hog8``, kept as its byte-identity oracle."""
    a = np.asarray(region, dtype=np.float64)
    padx = np.pad(a, ((0, 0), (1, 1)), mode="edge")
    pady = np.pad(a, ((1, 1), (0, 0)), mode="edge")
    gx = padx[:, 2:] - padx[:, :-2]
    gy = pady[2:, :] - pady[:-2, :]
    mag = np.hypot(gx, gy)
    total = float(mag.sum())
    hist = np.zeros(8, dtype=np.float64)
    if total < 1e-9:
        return hist
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
    bins = np.minimum((ang * (8 / 180.0)).astype(np.int64), 7)
    np.add.at(hist, bins.ravel(), mag.ravel())
    return hist / hist.sum()


def reference_glcm5(region) -> np.ndarray:
    """Scatter-add co-occurrence statistics: the original formulation of
    ``features.glcm5``, kept as its byte-identity oracle."""
    lev = np.asarray(region).astype(np.int64) >> 5
    m = np.zeros((8, 8), dtype=np.float64)
    l, r = lev[:, :-1].ravel(), lev[:, 1:].ravel()
    np.add.at(m, (l, r), 1.0)
    np.add.at(m, (r, l), 1.0)
    p = m / m.sum()

    idx = np.arange(8, dtype=np.float64)
    ii, jj = idx[:, None], idx[None, :]
    nzp = p[p > 0.0]
    entropy = min(float(-(nzp * np.log2(nzp)).sum()), 6.0) / 6.0
    energy = float((p * p).sum())
    homog = float((p / (1.0 + np.abs(ii - jj))).sum())
    dissim = float((p * np.abs(ii - jj)).sum())
    marg = p.sum(axis=1)
    mu = float((idx * marg).sum())
    var = float(((idx - mu) ** 2 * marg).sum())
    if var <= 0.0:
        corr = 0.0
    else:
        corr = float((p * (ii - mu) * (jj - mu)).sum()) / var
        corr = min(1.0, max(-1.0, corr))
    return np.array([entropy, energy, homog, corr, dissim])


def _reference_grab(pix, y0, y1, x0, x1):
    """The strip pix[y0:y1, x0:x1] and True when it lies inside the frame,
    else a BORDER_FILL strip of its shape and False."""
    if y0 >= 0 and x0 >= 0 and y1 <= pix.shape[0] and x1 <= pix.shape[1]:
        return pix[y0:y1, x0:x1].copy(), True
    return np.full((y1 - y0, x1 - x0), BORDER_FILL, dtype=np.uint8), False


def window_parts(win) -> dict:
    """The block, top strip, left strip and corner of a
    ``frame_io.causal_patch`` window, as views."""
    b = REF_BORDER
    return {"cu": win[b:, b:], "top": win[:b, b:], "left": win[b:, :b],
            "corner": win[:b, :b]}


@dataclass
class ReferencePatch:
    """The block and the three strips a ``frame_io.causal_patch`` window
    holds, as separate arrays, plus the strip availability flags that the
    reference DC reads."""

    cu: np.ndarray
    top: np.ndarray
    left: np.ndarray
    corner: np.ndarray
    top_available: bool
    left_available: bool


def reference_causal_patch(pix, rect: Rect) -> ReferencePatch:
    """Strip-by-strip extraction under the geometry rule: each of the top
    strip, the left strip and their corner is copied whole when it lies
    inside the frame and is BORDER_FILL whole otherwise. Kept as the
    byte-identity oracle of ``frame_io.causal_patch``, which builds the
    three strips as one window."""
    cu = pix[rect.y:rect.y + rect.h, rect.x:rect.x + rect.w].copy()
    b = REF_BORDER
    top, top_ok = _reference_grab(pix, rect.y - b, rect.y, rect.x, rect.x + rect.w)
    left, left_ok = _reference_grab(pix, rect.y, rect.y + rect.h, rect.x - b, rect.x)
    corner, _ = _reference_grab(pix, rect.y - b, rect.y, rect.x - b, rect.x)
    return ReferencePatch(cu=cu, top=top, left=left, corner=corner,
                          top_available=top_ok, left_available=left_ok)


def reference_encode_ns(patch: ReferencePatch, cfg):
    """Float-mean DC, log2 rate and clip/sum distortion: the original
    formulation of ``codec.encode_ns``, kept as its byte-identity oracle."""
    cu = patch.cu.astype(np.float64)
    refs = []
    if patch.top_available:
        refs.append(patch.top[-1, :].astype(np.float64))
    if patch.left_available:
        refs.append(patch.left[:, -1].astype(np.float64))
    dc = float(np.concatenate(refs).mean()) if refs else float(BORDER_FILL)

    coef = dct2d(cu - dc)
    step = qstep_of_qp(cfg.qp)
    levels = np.rint(coef / step)
    rate = MODE_OVERHEAD_BITS + float(levels.size)
    nz = levels != 0
    if nz.any():
        mags = np.abs(levels[nz])
        rate += float(np.sum(2.0 * np.floor(np.log2(mags)) + 3.0))
    recon_resid = dct2d(levels * step, inverse=True)
    recon = np.clip(np.rint(dc + recon_resid), 0, 255).astype(np.uint8)
    dist = float(np.sum((cu - recon.astype(np.float64)) ** 2))
    return RdCost.compute(rate=rate, dist=dist, lam=lambda_of_qp(cfg.qp)), recon


def reference_adam_step(model, grads, state) -> None:
    """Allocate-per-expression Adam: the original formulation of
    ``mlp.adam_step``, kept as its byte-identity oracle."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for l, (dw, db) in enumerate(grads):
        for park, grad, (m, v) in (("weights", dw, (state.m[l][0], state.v[l][0])),
                                   ("biases", db, (state.m[l][1], state.v[l][1]))):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            upd = (state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS))
            getattr(model, park)[l] -= upd.astype(model.dtype)


def reference_backward(model, x, dout) -> list:
    """Forward pass keeping every pre-activation, then gradients masked
    where the pre-activation is positive: the original formulation of
    ``mlp.forward_cached``/``mlp.backward``, kept as their oracle."""
    a = np.atleast_2d(np.asarray(x, dtype=model.dtype))
    acts, pres, n = [a], [], len(model.weights)
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        if l < n - 1:
            pres.append(z)
            a = np.maximum(z, 0.0)
            acts.append(a)
    delta = np.atleast_2d(np.asarray(dout, dtype=model.dtype))
    grads = [None] * n
    for l in range(n - 1, -1, -1):
        grads[l] = (acts[l].T @ delta, delta.sum(axis=0))
        if l > 0:
            delta = (delta @ model.weights[l].T) * (pres[l - 1] > 0)
    return grads


def write_header_only_model(path, layers):
    """A container whose blob is exactly what ``layers`` implies."""
    n = sum(a * b + b for a, b in zip(layers[:-1], layers[1:]))
    enc = json.dumps({"layers": layers, "dtype": "float32", "meta": {}}).encode()
    path.write_bytes(b"QTNN" + struct.pack("<I", len(enc)) + enc
                     + np.zeros(n, dtype="<f4").tobytes())


def reference_train_dqn(trajs, hyper, seed=0):
    """Replay of (state, action, stored cost, children, charge) tuples in
    a list ring, the children and charge set only on a 32x32 split, whose
    target bootstraps from them: the original formulation of
    ``dqn.train_dqn``, kept as its byte-identity oracle. Returns (model,
    diagnostics)."""
    ns32 = np.array([t.ns_j_pp for t in trajs]) * 1024
    qt32 = np.array([t.qt_j_pp for t in trajs]) * 1024
    delta = np.array([t.delta_qt_pp for t in trajs]) * 1024
    kns = np.stack([t.child_ns_j_pp for t in trajs]) * 256
    kqt = np.stack([t.child_qt_j_pp for t in trajs]) * 256
    c = float(np.median(np.concatenate([ns32, qt32, kns.ravel(), kqt.ravel()])))
    ns32, qt32, delta, kns, kqt = (v / c for v in (ns32, qt32, delta, kns, kqt))

    init_seq, order_seq, act_seq, mem_seq = np.random.SeedSequence(seed).spawn(4)
    model = init_model(hidden=hyper.hidden, out=2, seed=init_seq)
    ring, oldest = [], 0
    mem_rng = np.random.default_rng(mem_seq)
    order_rng = np.random.default_rng(order_seq)
    act_rng = np.random.default_rng(act_seq)
    adam = adam_init(model, lr=hyper.lr)

    diagnostics = []
    for step in range(hyper.steps):
        if step % len(trajs) == 0:
            order = order_rng.permutation(len(trajs))
        i = int(order[step % len(trajs)])
        t = trajs[i]
        eps = epsilon_at(step, hyper)
        if select_action(model, t.state32, eps, act_rng) == ACTION_NS:
            new = [(t.state32, ACTION_NS, float(ns32[i]), None, None)]
        else:
            new = [(t.state32, ACTION_QT, float(qt32[i]), t.child_features,
                    float(delta[i]))]
            for j in range(4):
                new += [(t.child_features[j], ACTION_NS, float(kns[i, j]), None, None),
                        (t.child_features[j], ACTION_QT, float(kqt[i, j]), None, None)]
        for tr in new:
            if len(ring) < hyper.capacity:
                ring.append(tr)
            else:
                ring[oldest] = tr
                oldest = (oldest + 1) % hyper.capacity

        pick = mem_rng.choice(len(ring), size=min(hyper.batch, len(ring)),
                              replace=False)
        states, actions, costs, children, charges = zip(*(ring[k] for k in pick))
        targets = np.array(costs, dtype=np.float64)
        boot = [k for k, kids in enumerate(children) if kids is not None]
        if boot:
            kids = np.concatenate([children[k] for k in boot], axis=0)
            q = np.asarray(forward(model, kids), dtype=np.float64)
            best = np.minimum(q[:, ACTION_NS], q[:, ACTION_QT]).reshape(len(boot), 4)
            for row, k in enumerate(boot):
                targets[k] = charges[k] + math.fsum(best[row])
        actions = np.array(actions)
        out, cache = forward_cached(model, np.stack(states))
        rows = np.arange(len(actions))
        td = out[rows, actions].astype(np.float64) - targets
        dout = np.zeros_like(out)
        dout[rows, actions] = (2.0 / len(actions)) * td.astype(model.dtype)
        adam_step(model, backward(model, cache, dout), adam)
        diagnostics.append((step, float(np.mean(np.abs(td))), eps))
    return model, diagnostics
