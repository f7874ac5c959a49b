"""Threshold gate turning predicted costs into split-pruning decisions,
and the pruned CTU search that embeds it.

A one-output model predicts the split/no-split cost ratio directly; a
two-output model predicts both scaled costs and the gate compares their
ratio. Rule: prune the split branch when ratio >= threshold. The block's
own coding is never skipped, only the descent below it. A frame is
encoded CTU by CTU over the full CTUs that ``frame_io.tile_ctus``
returns; its remainders are neither coded nor counted. Its rate and
squared error are read off the chosen leaves of the trees it returns.

The gate is ``ThresholdPolicy.prune``, the one hook ``codec.search``
asks at every block it visits; ``pruned_search`` refuses, before it
encodes anything, active sizes at which no verdict could take effect.
At an active size the gate computes the visit's
``features.descriptor_key``, the descriptor's whole input, looks it up
in a memo and builds the descriptor from the key only on a miss.
One pass never repeats a key, so an encode gets a fresh memo per frame.
Every model reads the raw, read-only entries as they are, so one memo
per (frame, qp) serves every gated pass of every threshold and model of
a sweep or ablation (``metrics``), building each distinct descriptor
once. It holds at most models x thresholds x consultations entries, each
exactly (N+4)^2 key bytes plus a 460 B descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import codec
from .codec import CodecConfig, PartitionNode, Rect, SearchState, VisitInfo
from .features import FEATURE_COUNT, LAYOUT_HASH, build_vector, descriptor_key
from .frame_io import LumaFrame, tile_ctus
from .mlp import MlpModel, ModelError, forward

PRUNE_QT = "PruneQT"
EXPLORE = "Explore"


@dataclass
class ThresholdPolicy:
    model: MlpModel
    threshold: float
    active_sizes: tuple = (32,)

    def __post_init__(self):
        check_thresholds([self.threshold])
        if self.model.meta.get("layout_hash") != LAYOUT_HASH:
            raise ModelError("model was trained against a different feature layout")
        if self.model.in_dim != FEATURE_COUNT:
            raise ModelError(f"model input width {self.model.in_dim} "
                             f"is not the descriptor size {FEATURE_COUNT}")
        if self.model.out_dim not in (1, 2):
            raise ModelError(f"model must have 1 or 2 outputs, got {self.model.out_dim}")

    def prune(self, visit: VisitInfo, memo: dict) -> bool:
        """The verdict at one visit: True (PruneQT) forces no-split there.
        Inactive sizes are never pruned. ``memo`` maps a
        ``descriptor_key`` to its read-only descriptor; the model and the
        verdict run at every active visit, hit or miss."""
        if visit.rect.w not in self.active_sizes:
            return False
        key = descriptor_key(visit)
        vec = memo.get(key)
        if vec is None:
            vec = memo[key] = build_vector(key)
            vec.flags.writeable = False
        return decide(forward(self.model, vec), self) == PRUNE_QT


def check_thresholds(thresholds: Sequence[float]) -> None:
    """Refuse an empty threshold grid, a threshold that is not positive
    (NaN included) and a repeated one."""
    if not thresholds:
        raise ValueError("empty threshold list")
    if not all(t > 0 for t in thresholds):
        raise ValueError("threshold must be positive")
    if len(set(thresholds)) < len(thresholds):
        raise ValueError(f"repeated threshold in {list(thresholds)}")


def decide(prediction: np.ndarray, policy: ThresholdPolicy) -> str:
    """Gate one prediction; inclusive at the threshold."""
    p = np.asarray(prediction, dtype=np.float64).ravel()
    if p.size == 1:
        ratio = float(p[0])
    elif p.size == 2:
        ns, qt = float(p[0]), float(p[1])
        if ns <= 0:
            # no ratio to gate on: fall back to the full search below it
            return EXPLORE
        ratio = qt / ns
    else:
        raise ModelError(f"prediction must have 1 or 2 entries, got {p.size}")
    return PRUNE_QT if ratio >= policy.threshold else EXPLORE


def pruned_search(rect: Rect, cfg: CodecConfig, state: SearchState,
                  policy: ThresholdPolicy, memo: dict) -> PartitionNode:
    """Quadtree search of one CTU with ``policy.prune`` as its hook, after
    refusing active sizes where no verdict could act: none, or unsplittable."""
    codec.check_split_sizes(policy.active_sizes, cfg)
    return codec.search(rect, cfg, state, lambda visit: policy.prune(visit, memo))


@dataclass
class FrameRunResult:
    trees: list
    state: SearchState

    @property
    def pixels(self) -> int:
        return self.state.pixels

    def rate_bits(self) -> float:
        return float(sum(t.rate_bits() for t in self.trees))

    def sse(self) -> float:
        """Squared reconstruction error over the full CTUs, summed from
        the chosen leaves' distortions (``PartitionNode.sse``), exactly."""
        return float(sum(t.sse() for t in self.trees))

    @property
    def covered_area(self) -> int:
        return sum(t.rect.area for t in self.trees)


def encode_frame(frame: LumaFrame, cfg: CodecConfig,
                 policy: ThresholdPolicy | None = None,
                 memo: dict | None = None) -> FrameRunResult:
    """Search every full CTU of a frame (``tile_ctus``) in raster order
    under one shared state. A frame that holds no full CTU is refused
    before any search. Gated encodes given the same ``memo`` share the
    descriptors they build; None gives this encode a fresh one."""
    rects = tile_ctus(frame, cfg.ctu)
    state = SearchState(frame)
    if policy is None:
        trees = [codec.exhaustive_search(rect, cfg, state) for rect in rects]
    else:
        memo = {} if memo is None else memo
        trees = [pruned_search(rect, cfg, state, policy, memo) for rect in rects]
    return FrameRunResult(trees=trees, state=state)
