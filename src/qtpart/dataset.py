"""Training-set construction from exhaustive-search runs.

A record pairs a block's descriptor with its measured no-split and split
costs (per pixel); a trajectory additionally captures the four children
of a 32x32 block for the two-depth value-learning agent. Both persist in
one little-endian binary container: a header (magic "QTDS", u16 version,
u8 kind, 16-byte descriptor layout hash, u32 count), then one array per
field of the kind. ``_FIELDS`` is the one statement of those fields,
their order and their dtypes.

The searches of one frame at every qp share one texture memo
(``features``): it holds the ``hog8`` and ``glcm5`` results of each
distinct block and quadrant, 682 of them and about 270 kB per 64x64
CTU, and is dropped when the frame is done.

Loading refuses containers whose layout hash does not match the current
descriptor build, any whose length does not match their count, any
whose descriptor columns hold a value that is not finite, and any item
whose costs are not finite and positive (the signalling cost of a
trajectory may be zero).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .codec import (NS, QT, CodecConfig, SearchState, check_split_sizes, choose,
                    exhaustive_search)
from .features import FEATURE_COUNT, LAYOUT_HASH, build_vector, descriptor_key
from .frame_io import LumaFrame, tile_ctus

MAGIC = b"QTDS"
VERSION = 1
KIND_RECORDS, KIND_TRAJECTORIES = 0, 1


class DatasetError(ValueError):
    """Bad dataset content or container."""


def _positive(*costs) -> bool:
    return all(0 < c < math.inf for c in costs)         # False for NaN


@dataclass
class CuRecord:
    features: np.ndarray          # (115,) float32
    cu_size: int
    qp: int
    ns_j_pp: float                # per-pixel no-split cost
    qt_j_pp: float                # per-pixel split cost

    def __post_init__(self):
        if not _positive(self.ns_j_pp, self.qt_j_pp):
            raise DatasetError("record costs must be positive and finite")

    @property
    def optimal(self) -> str:
        return choose(self.ns_j_pp, self.qt_j_pp)

    @property
    def label(self) -> int:
        """1 when splitting is optimal, as stored in the container."""
        return int(self.optimal == QT)


@dataclass
class Trajectory:
    """A 32x32 block with its four 16x16 children, costs per pixel."""

    state32: np.ndarray           # (115,) float32
    ns_j_pp: float
    qt_j_pp: float
    delta_qt_pp: float            # split signalling cost / 1024
    child_features: np.ndarray    # (4, 115) float32
    child_ns_j_pp: np.ndarray     # (4,) float64
    child_qt_j_pp: np.ndarray     # (4,) float64

    def __post_init__(self):
        self.child_features = np.asarray(self.child_features, dtype=np.float32)
        self.child_ns_j_pp = np.asarray(self.child_ns_j_pp, dtype=np.float64)
        self.child_qt_j_pp = np.asarray(self.child_qt_j_pp, dtype=np.float64)
        if self.child_features.shape != (4, 115):
            raise DatasetError("trajectory needs exactly 4 child descriptors")
        if not (_positive(self.ns_j_pp, self.qt_j_pp, *self.child_ns_j_pp,
                          *self.child_qt_j_pp)
                and 0 <= self.delta_qt_pp < math.inf):
            raise DatasetError("trajectory costs must be positive and finite, "
                               "its signalling cost finite and non-negative")
        lhs = self.qt_j_pp * 1024.0
        rhs = float(np.minimum(self.child_ns_j_pp, self.child_qt_j_pp).sum() * 256.0) \
            + self.delta_qt_pp * 1024.0
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
            raise DatasetError("trajectory split cost inconsistent with children")

    @property
    def optimal(self) -> str:
        return choose(self.ns_j_pp, self.qt_j_pp)


def _walk_frame(frame: LumaFrame, cfg: CodecConfig, memo: dict):
    """Search every full CTU of a frame at ``cfg``. Returns its nodes in
    preorder (the visit order) and each node's descriptor keyed by its
    rect. ``memo`` is the frame's texture memo (``features.build_vector``),
    shared by its walks at every qp."""
    state = SearchState(frame)
    nodes, vecs = [], {}

    def visitor(visit):
        vecs[visit.rect] = build_vector(descriptor_key(visit), memo)

    for rect in tile_ctus(frame, cfg.ctu):
        nodes.extend(exhaustive_search(rect, cfg, state, visitor=visitor).preorder())
    return nodes, vecs


def _collect(frames: Sequence[LumaFrame], qps: Sequence[int], cfg: CodecConfig,
             seed: int, emit: Callable) -> list:
    """Search every frame at every qp, in (frame, qp) order, concatenate
    what ``emit(nodes, vecs, cfg_qp)`` returns for each search, then
    shuffle once with the given seed. Inputs, frame sizes and the seed
    included, are checked and the per-qp configs built before the first
    search."""
    if not frames:
        raise DatasetError("empty frame list")
    configs = [cfg.at_qp(qp) for qp in qps]          # refuses a qp out of range
    if not configs:
        raise DatasetError("empty qp list")
    if len({c.qp for c in configs}) < len(configs):
        raise DatasetError(f"repeated qp in {[c.qp for c in configs]}")
    if seed < 0:
        raise DatasetError(f"seed {seed} is negative")
    for frame in frames:
        tile_ctus(frame, cfg.ctu)
    items = []
    for frame in frames:
        memo = {}                    # dropped when the frame is done
        for cfg_qp in configs:
            items.extend(emit(*_walk_frame(frame, cfg_qp, memo), cfg_qp))
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def collect_records(frames: Sequence[LumaFrame], qps: Sequence[int],
                    cfg: CodecConfig, sizes: Sequence[int],
                    seed: int = 0) -> list[CuRecord]:
    """Exhaustively search every frame at every qp and emit one record per
    encountered block of a requested size, a side below the CTU that can
    split (``codec.check_split_sizes``). Results are concatenated in
    (frame, qp) order, then shuffled with the given seed."""
    sizes = check_split_sizes(sizes, cfg, proper=True)

    def emit(nodes, vecs, cfg_qp):
        out = []
        for node in nodes:
            if node.rect.w not in sizes:            # each has a split cost
                continue
            area = node.rect.area
            out.append(CuRecord(features=vecs[node.rect], cu_size=node.rect.w,
                                qp=cfg_qp.qp, ns_j_pp=node.ns.j / area,
                                qt_j_pp=node.qt_j / area))
        return out

    return _collect(frames, qps, cfg, seed, emit)


def collect_trajectories(frames: Sequence[LumaFrame], qps: Sequence[int],
                         cfg: CodecConfig, seed: int = 0) -> list[Trajectory]:
    """Emit one trajectory per encountered 32x32 block; 32 and 16 must be
    sides below the CTU that can split, so it and its children have split costs."""
    check_split_sizes((32, 16), cfg, proper=True)

    def emit(nodes, vecs, cfg_qp):
        out = []
        delta_pp = cfg_qp.split_cost / 1024.0
        for node in nodes:
            if node.rect.w != 32:
                continue
            out.append(Trajectory(
                state32=vecs[node.rect],
                ns_j_pp=node.ns.j / 1024.0,
                qt_j_pp=node.qt_j / 1024.0,
                delta_qt_pp=delta_pp,
                child_features=np.stack([vecs[c.rect] for c in node.children]),
                child_ns_j_pp=np.array([c.ns.j / 256.0 for c in node.children]),
                child_qt_j_pp=np.array([c.qt_j / 256.0 for c in node.children])))
        return out

    return _collect(frames, qps, cfg, seed, emit)


def _downsample(items: list, labels: list[str], seed, stratum: str) -> list:
    groups: dict[str, list[int]] = {NS: [], QT: []}
    for i, lab in enumerate(labels):
        groups[lab].append(i)
    for lab in (NS, QT):
        if not groups[lab]:
            raise DatasetError(f"class {lab} empty {stratum}")
    n = min(len(groups[NS]), len(groups[QT]))
    rng = np.random.default_rng(seed)
    keep = set()
    for lab in (NS, QT):
        idx = groups[lab]
        if len(idx) > n:
            picked = rng.choice(len(idx), size=n, replace=False)
            keep.update(idx[i] for i in picked)
        else:
            keep.update(idx)
    return [items[i] for i in range(len(items)) if i in keep]


def balance(records: list[CuRecord], seed: int = 0) -> list[CuRecord]:
    """Downsample the majority class to the minority count, independently
    per block size. Original relative order is preserved."""
    out = []
    for size in sorted({r.cu_size for r in records}, reverse=True):
        sub = [r for r in records if r.cu_size == size]
        out.extend(_downsample(sub, [r.optimal for r in sub], seed,
                               f"for size {size}"))
    return out


def balance_trajectories(trajs: list[Trajectory], seed: int = 0) -> list[Trajectory]:
    """Downsample trajectories so both best actions of the 32x32 block are
    equally represented."""
    return _downsample(trajs, [t.optimal for t in trajs], seed, "for trajectories")


def normalize_targets(records: Sequence[CuRecord]
                      ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Build (X, y) training arrays and the normalization that made y.

    One block size: y is the split/no-split cost ratio (mode "ratio").
    Several sizes: y stacks both costs divided by the median of all
    pooled per-pixel costs (mode "median", divisor ``c_median``).
    """
    if not records:
        raise DatasetError("empty record set")
    X = np.stack([r.features for r in records]).astype(np.float32)
    ns = np.array([r.ns_j_pp for r in records])
    qt = np.array([r.qt_j_pp for r in records])
    if len({r.cu_size for r in records}) == 1:
        y = (qt / ns)[:, None]
        return X, y.astype(np.float32), {"mode": "ratio", "c_median": None}
    c = float(np.median(np.concatenate([ns, qt])))
    y = np.stack([ns / c, qt / c], axis=1)
    return X, y.astype(np.float32), {"mode": "median", "c_median": c}


# One table per container kind: (field, little-endian dtype, per-item
# shape) in file order. Each field is stored as one array over all items.
_FIELDS = {
    KIND_RECORDS: [("features", "<f4", (FEATURE_COUNT,)), ("cu_size", "<u2", ()),
                   ("qp", "<u2", ()), ("ns_j_pp", "<f8", ()), ("qt_j_pp", "<f8", ()),
                   ("label", "u1", ())],
    KIND_TRAJECTORIES: [("state32", "<f4", (FEATURE_COUNT,)), ("ns_j_pp", "<f8", ()),
                        ("qt_j_pp", "<f8", ()), ("delta_qt_pp", "<f8", ()),
                        ("child_features", "<f4", (4, FEATURE_COUNT)),
                        ("child_ns_j_pp", "<f8", (4,)), ("child_qt_j_pp", "<f8", (4,))],
}
_DESCRIPTOR_FIELDS = ("features", "state32", "child_features")
_HEADER = struct.Struct("<4sHB16sI")    # magic, version, kind, layout hash, count


def _save(kind: int, items: Sequence, path: str | Path) -> None:
    n = len(items)
    parts = [_HEADER.pack(MAGIC, VERSION, kind, LAYOUT_HASH.encode("ascii"), n)]
    for name, dtype, shape in _FIELDS[kind]:
        arr = np.array([getattr(it, name) for it in items], dtype=dtype)
        parts.append(arr.reshape((n,) + shape).tobytes())
    Path(path).write_bytes(b"".join(parts))


def _load(path: str | Path, kind: int) -> list[dict]:
    """Check a container's header and length; return one field dict per item."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != MAGIC:
        raise DatasetError("bad magic")
    _, version, stored_kind, layout, n = _HEADER.unpack_from(data)
    if version != VERSION:
        raise DatasetError(f"unsupported version {version}")
    if layout.decode("ascii", errors="replace") != LAYOUT_HASH:
        raise DatasetError("feature layout mismatch")
    if stored_kind != kind:
        raise DatasetError("container holds a different dataset kind")
    fields = _FIELDS[kind]
    item_bytes = sum(math.prod(shape) * np.dtype(dtype).itemsize
                     for _, dtype, shape in fields)
    want = _HEADER.size + n * item_bytes
    if len(data) != want:
        state = "truncated" if len(data) < want else "oversized"
        raise DatasetError(f"{state} dataset container: {len(data)} bytes, "
                           f"{n} items need {want}")
    columns, pos = [], _HEADER.size
    for name, dtype, shape in fields:
        col = np.frombuffer(data, dtype, n * math.prod(shape), pos).reshape((n,) + shape)
        if name in _DESCRIPTOR_FIELDS and not np.isfinite(col).all():
            raise DatasetError(f"{name} column holds a value that is not finite")
        columns.append(list(col.copy()) if shape else col.tolist())
        pos += col.nbytes
    names = [name for name, _, _ in fields]
    return [dict(zip(names, row)) for row in zip(*columns)]


def save_records(records: Sequence[CuRecord], path: str | Path) -> None:
    _save(KIND_RECORDS, records, path)


def load_records(path: str | Path) -> list[CuRecord]:
    records = []
    for row in _load(path, KIND_RECORDS):
        label = row.pop("label")
        records.append(CuRecord(**row))
        if label != records[-1].label:
            raise DatasetError("stored optimal label does not match costs")
    return records


def save_trajectories(trajs: Sequence[Trajectory], path: str | Path) -> None:
    _save(KIND_TRAJECTORIES, trajs, path)


def load_trajectories(path: str | Path) -> list[Trajectory]:
    return [Trajectory(**row) for row in _load(path, KIND_TRAJECTORIES)]
