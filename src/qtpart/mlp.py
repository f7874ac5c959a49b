"""Small fully connected network with reverse-mode gradients and Adam.

Hidden layers are rectified, the output layer is linear, and the loss is
mean squared error over every output. Parameters live in float32 by
default; a float64 mode exists for finite-difference gradient checks.
Models persist as a JSON header (magic "QTNN") followed by the raw
parameter blob.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import CuRecord, normalize_targets
from .features import FEATURE_COUNT, LAYOUT_HASH, mask_groups, mask_indices

MODEL_MAGIC = b"QTNN"
DEFAULT_HIDDEN = (256, 256, 128)
REDUCED_HIDDEN = (128, 128, 64)
NORM_BLOWUP_LIMIT = 1e3
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# block sizes each regression variant trains on; one size means the target
# is the split/no-split ratio, several mean median-scaled cost pairs
VARIANT_SIZES = {
    "N8": (8,),
    "N16": (16,),
    "N32": (32,),
    "N32_16": (32, 16),
    "N32_16_8": (32, 16, 8),
}


class ModelError(RuntimeError):
    """Bad model state, container or usage."""


@dataclass
class MlpModel:
    weights: list                 # layer l: (n_in, n_out) arrays
    biases: list                  # layer l: (n_out,) arrays
    meta: dict = field(default_factory=dict)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def dtype(self):
        return self.weights[0].dtype


def init_model(hidden: Sequence[int] = DEFAULT_HIDDEN, out: int = 1, seed=0,
               dtype=np.float32) -> MlpModel:
    """He-initialized network over the 115-entry descriptor; identical
    seeds give identical models."""
    if out not in (1, 2):
        raise ModelError("output width must be 1 or 2")
    if any(int(h) <= 0 for h in hidden):
        raise ModelError("layer widths must be positive")
    chain = [FEATURE_COUNT] + [int(h) for h in hidden] + [int(out)]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for a, b in zip(chain[:-1], chain[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / a), (a, b)).astype(dtype))
        biases.append(np.zeros(b, dtype=dtype))
    meta = {"variant": None, "normalization": None,
            "layout_hash": LAYOUT_HASH, "seed": None,
            "mask": [], "hidden": [int(h) for h in hidden], "out": int(out)}
    return MlpModel(weights=weights, biases=biases, meta=meta)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Batch or single-vector forward pass."""
    out, _ = forward_cached(model, x)
    return out


def forward_cached(model: MlpModel, x: np.ndarray):
    """Forward pass that also returns every layer's input activations,
    the (batch, width) input first, for ``backward``."""
    a = np.asarray(x, dtype=model.dtype)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.shape[1] != model.in_dim:
        raise ModelError(f"input width {a.shape[1]} != model input {model.in_dim}")
    acts = [a]
    n_layers = len(model.weights)
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w
        a += b
        if l < n_layers - 1:
            np.maximum(a, 0.0, out=a)
            acts.append(a)
    out = a[0] if single else a
    return out, acts


def backward(model: MlpModel, acts: list, dout: np.ndarray) -> list:
    """Gradients of a scalar loss given d(loss)/d(output); returns
    [(dW, db), ...] in layer order.

    A hidden unit passes gradient where its rectified output is positive,
    which is exactly where its pre-activation is: NaN and -0.0 fail both
    tests.
    """
    delta = np.atleast_2d(np.asarray(dout, dtype=model.dtype))
    grads = [None] * len(model.weights)
    for l in range(len(model.weights) - 1, -1, -1):
        grads[l] = (acts[l].T @ delta, delta.sum(axis=0))
        if l > 0:
            delta = (delta @ model.weights[l].T) * (acts[l] > 0)
    return grads


def loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean squared error over batch and outputs, with its gradients."""
    out, acts = forward_cached(model, x)
    out2 = np.atleast_2d(out)
    t = np.asarray(y, dtype=model.dtype).reshape(out2.shape)
    diff = out2 - t
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    dout = (2.0 / diff.size) * diff
    return loss, backward(model, acts, dout)


@dataclass
class AdamState:
    lr: float
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    scratch: list = field(default_factory=list)   # per layer: ((t, u) of W, (t, u) of b)


def adam_init(model: MlpModel, lr: float) -> AdamState:
    """Zero moments, plus two scratch buffers the size of the largest
    parameter that every parameter's update reuses as views."""
    zeros = lambda: [(np.zeros_like(w), np.zeros_like(b))
                     for w, b in zip(model.weights, model.biases)]
    size = max(p.size for p in (*model.weights, *model.biases))
    t, u = np.empty(size, model.dtype), np.empty(size, model.dtype)
    views = lambda p: (t[:p.size].reshape(p.shape), u[:p.size].reshape(p.shape))
    scratch = [(views(w), views(b)) for w, b in zip(model.weights, model.biases)]
    return AdamState(lr=lr, m=zeros(), v=zeros(), scratch=scratch)


def adam_step(model: MlpModel, grads: list, state: AdamState) -> None:
    """One in-place Adam update with bias correction.

    Computes p -= lr * (m / c1) / (sqrt(v / c2) + eps) with the same
    float operations, in the same order, as that expression, but writes
    every intermediate into ``state.scratch``, so a step allocates
    nothing parameter-sized. Gradients are in the model's dtype, as
    ``backward`` returns them.
    """
    state.step += 1
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, state.lr
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for l, grad in enumerate(grads):
        for p, g, m, v, (t, u) in zip((model.weights[l], model.biases[l]), grad,
                                      state.m[l], state.v[l], state.scratch[l]):
            m *= b1
            np.multiply(1.0 - b1, g, out=t)
            m += t
            v *= b2
            np.multiply(1.0 - b2, g, out=t)
            t *= g
            v += t
            np.divide(m, c1, out=t)
            t *= lr
            np.divide(v, c2, out=u)
            np.sqrt(u, out=u)
            u += ADAM_EPS
            t /= u
            p -= t


def layer_operator_norms(model: MlpModel) -> list[float]:
    """Spectral norm of each weight matrix (forward Lipschitz factors).

    A layer holding non-finite values reports an infinite norm; SVD
    cannot run on it and the scale check must still trip.
    """
    norms = []
    for w in model.weights:
        w64 = w.astype(np.float64)
        if not np.isfinite(w64).all():
            norms.append(math.inf)
        else:
            norms.append(float(np.linalg.norm(w64, 2)))
    return norms


def check_parameter_scale(model: MlpModel) -> None:
    """Raise ModelError when a layer's spectral norm exceeds
    NORM_BLOWUP_LIMIT or a layer holds non-finite values.

    The Frobenius norm bounds the spectral norm from above, so the SVD
    runs only when some layer's Frobenius norm is not clearly below the
    limit; the margin keeps a rank-1 layer at the limit on the SVD path.
    A non-finite layer has a NaN or infinite Frobenius norm, which fails
    the comparison and so also reaches the SVD path.
    """
    bound = NORM_BLOWUP_LIMIT * (1.0 - 1e-12)
    if all(np.linalg.norm(np.asarray(w, dtype=np.float64)) <= bound
           for w in model.weights):
        return
    norms = layer_operator_norms(model)
    if max(norms) > NORM_BLOWUP_LIMIT:
        raise ModelError(f"parameter blow-up: layer operator norms {norms}")


@dataclass
class TrainHyper:
    lr: float = 1e-5
    batch: int = 512
    epochs: int = 10

    def __post_init__(self):
        if not self.lr > 0 or self.batch <= 0 or self.epochs <= 0:
            raise ValueError("lr, batch and epochs must be positive")


def train_regression(records: Sequence[CuRecord], variant: str,
                     hyper: TrainHyper | None = None, seed: int = 0,
                     mask: Sequence[str] = (),
                     hidden: Sequence[int] = DEFAULT_HIDDEN):
    """Train a cost-regression model on balanced records.

    Returns (model, per-epoch mean training loss). The dataset's block
    sizes must be exactly the variant's sizes. The ``mask`` groups' input
    columns and first-layer rows are zeroed, so those rows get no gradient.
    """
    hyper = hyper or TrainHyper()
    groups = mask_groups(mask)
    if variant not in VARIANT_SIZES:
        raise ModelError(f"unknown variant {variant!r}")
    sizes = VARIANT_SIZES[variant]
    present = {r.cu_size for r in records}
    if present != set(sizes):
        raise ModelError(
            f"variant {variant} expects block sizes {sorted(sizes)}, "
            f"dataset has {sorted(present)}")
    out = 1 if len(sizes) == 1 else 2
    X, y, norm = normalize_targets(records)
    masked = mask_indices(groups)
    X[:, masked] = 0.0

    root = np.random.SeedSequence(seed)
    init_seq, shuffle_seq = root.spawn(2)
    model = init_model(hidden=hidden, out=out, seed=init_seq)
    model.weights[0][masked] = 0.0
    rng = np.random.default_rng(shuffle_seq)
    adam = adam_init(model, lr=hyper.lr)

    n = len(records)
    history = []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            loss, grads = loss_and_grads(model, X[idx], y[idx])
            adam_step(model, grads, adam)
            total += loss * len(idx)
        history.append(total / n)
        check_parameter_scale(model)

    model.meta.update({"variant": variant, "normalization": norm,
                       "seed": seed, "mask": groups})
    return model, history


def save_model(model: MlpModel, path: str | Path) -> None:
    header = {
        "layers": model.layer_sizes,
        "dtype": str(np.dtype(model.dtype)),
        "meta": model.meta,
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    code = "<f4" if np.dtype(model.dtype) == np.float32 else "<f8"
    blob = b"".join(p.astype(code).tobytes()
                    for w, b in zip(model.weights, model.biases) for p in (w, b))
    Path(path).write_bytes(MODEL_MAGIC + struct.pack("<I", len(hjson)) + hjson + blob)


def load_model(path: str | Path) -> MlpModel:
    """Read a model container; the first-layer rows its ``mask`` names load
    as zero. A blob that holds NaN or inf is refused."""
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != MODEL_MAGIC:
        raise ModelError("bad model magic")
    (hlen,) = struct.unpack_from("<I", data, 4)
    try:
        header = json.loads(data[8:8 + hlen])
        layers = [int(v) for v in header["layers"]]
        dtype = np.dtype(header["dtype"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelError("unreadable model header") from exc
    if dtype not in (np.float32, np.float64):
        raise ModelError(f"unsupported parameter dtype {dtype}")
    if len(layers) < 2 or min(layers) < 1:
        raise ModelError(f"impossible layer widths {layers}")
    code = "<f4" if dtype == np.float32 else "<f8"
    expected = sum(a * b + b for a, b in zip(layers[:-1], layers[1:]))
    blob = data[8 + hlen:]
    if len(blob) != expected * dtype.itemsize:
        raise ModelError("parameter blob size does not match header")
    flat = np.frombuffer(blob, dtype=code)
    if not np.isfinite(flat).all():
        raise ModelError("model parameters hold NaN or inf")
    weights, biases, pos = [], [], 0
    for a, b in zip(layers[:-1], layers[1:]):
        weights.append(flat[pos:pos + a * b].reshape(a, b).astype(dtype))
        pos += a * b
        biases.append(flat[pos:pos + b].astype(dtype))
        pos += b
    meta = header.get("meta", {})
    mask = meta.get("mask", []) if isinstance(meta, dict) else None
    if not isinstance(mask, list) or not all(isinstance(g, str) for g in mask):
        raise ModelError("model metadata must be an object whose mask lists group names")
    if mask:
        if layers[0] != FEATURE_COUNT:
            raise ModelError(f"a masked model needs {FEATURE_COUNT} inputs, not {layers[0]}")
        try:
            weights[0][mask_indices(mask)] = 0.0
        except ValueError as exc:
            raise ModelError(str(exc)) from None
    return MlpModel(weights=weights, biases=biases, meta=meta)
