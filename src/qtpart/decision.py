"""Threshold gate turning predicted costs into split-pruning decisions,
and the pruned CTU search that embeds it.

A one-output model predicts the split/no-split cost ratio directly; a
two-output model predicts both scaled costs and the gate compares their
ratio. Rule: prune the split branch when ratio >= threshold. The block's
own coding is never skipped, only the descent below it. A frame is
encoded CTU by CTU over the full CTUs that ``frame_io.tile_ctus``
returns; its remainders are neither coded nor counted.

The gate computes each consultation's ``features.descriptor_key``, the
descriptor's whole input, looks it up in a memo and builds the
descriptor from the key only on a miss. One pass never repeats a key, so
an encode gets a fresh memo per frame. Every model reads the raw,
read-only entries as they are, so one memo per (frame, qp) serves every
gated pass of every threshold and model of a sweep or ablation
(``metrics``), building each distinct descriptor once. It holds at most
models x thresholds x consultations entries, each exactly (N+4)^2 key
bytes plus a 460 B descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        self.active_sizes = tuple(sorted(set(int(s) for s in self.active_sizes)))
        if not self.active_sizes:
            raise ValueError("no active block sizes")
        if self.model.meta.get("layout_hash") != LAYOUT_HASH:
            raise ModelError("model was trained against a different feature layout")
        if self.model.in_dim != FEATURE_COUNT:
            raise ModelError(f"model input width {self.model.in_dim} "
                             f"is not the descriptor size {FEATURE_COUNT}")
        if self.model.out_dim not in (1, 2):
            raise ModelError(f"model must have 1 or 2 outputs, got {self.model.out_dim}")


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
    """Quadtree search that consults the policy at active-size blocks.

    Identical to the exhaustive search except that a PruneQT verdict
    forces no-split without exploring the subtree; inactive sizes always
    recurse normally. ``memo`` maps a ``descriptor_key`` to its read-only
    descriptor. The model and the verdict run at every consultation, hit
    or miss.
    """
    def hook(visit: VisitInfo) -> bool:
        if visit.rect.w not in policy.active_sizes:
            return False
        key = descriptor_key(visit)
        vec = memo.get(key)
        if vec is None:
            vec = memo[key] = build_vector(key)
            vec.flags.writeable = False
        return decide(forward(policy.model, vec), policy) == PRUNE_QT

    return codec.search(rect, cfg, state, prune=hook)


@dataclass
class FrameRunResult:
    trees: list
    state: SearchState
    covered: Rect                 # the top-left area the full CTUs tile

    @property
    def pixels(self) -> int:
        return self.state.pixels

    def rate_bits(self) -> float:
        return float(sum(t.rate_bits() for t in self.trees))

    def sse(self) -> float:
        """Reconstruction error over the area covered by full CTUs.

        The residuals fit int16 and their squares are summed in int64,
        exactly; the total stays far below 2**53, so it converts to float
        exactly too.
        """
        r = self.covered
        d = np.subtract(self.state.orig[:r.h, :r.w], self.state.work[:r.h, :r.w],
                        dtype=np.int16)
        return float(np.einsum("ij,ij->", d, d, dtype=np.int64))

    @property
    def covered_area(self) -> int:
        return self.covered.area


def encode_frame(frame: LumaFrame, cfg: CodecConfig,
                 policy: ThresholdPolicy | None = None,
                 memo: dict | None = None) -> FrameRunResult:
    """Search every full CTU of a frame (``tile_ctus``) in raster order
    under one shared state. A frame that holds no full CTU is refused
    before any search. Gated encodes given the same ``memo`` share the
    descriptors they build; None gives this encode a fresh one."""
    if policy is not None:
        codec.check_split_sizes(policy.active_sizes, cfg)   # the hook is asked only there
    rects = tile_ctus(frame, cfg.ctu)
    state = SearchState(frame)
    if policy is None:
        trees = [codec.exhaustive_search(rect, cfg, state) for rect in rects]
    else:
        memo = {} if memo is None else memo
        trees = [pruned_search(rect, cfg, state, policy, memo) for rect in rects]
    last = rects[-1]
    return FrameRunResult(trees=trees, state=state,
                          covered=Rect(0, 0, last.x + last.w, last.y + last.h))
