"""Deterministic toy intra codec with exhaustive quadtree search.

A block is coded with a single mode: DC prediction from the adjacent
reconstructed row and column, an orthonormal 2-D DCT of the residual,
uniform quantization, and a bit-count proxy instead of an entropy coder.
Costs combine as j = distortion + lambda * rate.

The coding-tree search recursively compares coding a block outright (NS)
against splitting it into four equal sub-blocks (QT), charging a
lambda-scaled signalling cost per split:

    qt_j = sum_children min(child ns_j, child qt_j) + lambda * SPLIT_BITS

Reconstructions are committed in causal order so every block sees its
neighbours' chosen reconstructions, and a processed-pixel counter tallies
the area of every NS encode performed. The returned tree's chosen leaves
give the CTU's rate and squared error. The search only codes: one hook
gets each visit's ``VisitInfo`` and reads whatever else it needs from
its search state (``features.descriptor_key`` does); its true result at
a block that can split forces NS there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .frame_io import CTU_SIZES, LumaFrame, Rect, reference_dc

QP_MIN, QP_MAX = 0, 51
TRANSFORM_SIZES = (4, 8, 16, 32, 64)
MODE_OVERHEAD_BITS = 4.0
SPLIT_BITS = 2.0                                 # signalling bits of one split
PEAK = 255.0
NS, QT = "NS", "QT"


def lambda_of_qp(qp: int) -> float:
    """Rate weight of the cost j = D + lambda * R; doubles every 3 qp."""
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"qp {qp} outside [{QP_MIN}, {QP_MAX}]")
    return 0.57 * 2.0 ** ((qp - 12) / 3.0)


def qstep_of_qp(qp: int) -> float:
    """Uniform quantizer step; doubles every 6 qp."""
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"qp {qp} outside [{QP_MIN}, {QP_MAX}]")
    return 2.0 ** ((qp - 4) / 6.0)


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis: row k samples cos(pi*(2i+1)*k/(2n))."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    c = np.cos(np.pi * (2 * i + 1) * k / (2 * n)) * math.sqrt(2.0 / n)
    c[0] /= math.sqrt(2.0)
    return c


_DCT = {n: _dct_matrix(n) for n in TRANSFORM_SIZES}


def dct2d(block: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Orthonormal 2-D DCT (type II forward, type III inverse)."""
    a = np.asarray(block, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in TRANSFORM_SIZES:
        raise ValueError(f"block must be square with side in {TRANSFORM_SIZES}")
    c = _DCT[a.shape[0]]
    if inverse:
        return c.T @ a @ c
    return c @ a @ c.T


@dataclass(frozen=True)
class RdCost:
    """Rate/distortion pair with its weighted sum, computed once."""

    rate: float
    dist: float
    j: float

    @classmethod
    def compute(cls, rate: float, dist: float, lam: float) -> "RdCost":
        if rate < 0 or dist < 0:
            raise ValueError("rate and distortion must be non-negative")
        return cls(rate=rate, dist=dist, j=dist + lam * rate)


@dataclass(frozen=True)
class CodecConfig:
    """Search settings. ``lam``, ``step`` and ``split_cost`` (one split's
    signalling cost) are resolved from ``qp`` once, and anew by ``at_qp``."""

    ctu: int = 64
    max_depth: int = 3
    qp: int = 32
    lam: float = field(init=False, compare=False, repr=False)
    step: float = field(init=False, compare=False, repr=False)
    split_cost: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.ctu not in CTU_SIZES:
            raise ValueError(f"ctu must be one of {CTU_SIZES}")
        if not 1 <= self.max_depth <= 4:
            raise ValueError("max_depth must be in [1, 4]")
        if self.ctu >> self.max_depth < 4:
            raise ValueError("max_depth would split below 4x4 blocks")
        lam = lambda_of_qp(self.qp)                 # refuses a qp out of range
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "step", qstep_of_qp(self.qp))
        object.__setattr__(self, "split_cost", lam * SPLIT_BITS)

    def at_qp(self, qp: int) -> "CodecConfig":
        return replace(self, qp=qp)


def split_sizes(cfg: CodecConfig) -> tuple[int, ...]:
    """Sides of the blocks the search can still split, largest first."""
    return tuple(cfg.ctu >> d for d in range(cfg.max_depth))


def check_split_sizes(sizes, cfg: CodecConfig, proper: bool = False) -> tuple[int, ...]:
    """The distinct ``sizes``, largest first, if there are any and each is
    a side the search can split, below the CTU with ``proper``. Otherwise
    one ValueError names the refused and the allowed sides. Sizes are
    compared as given, as the gate and the collectors test membership;
    refused ints are named largest first, anything else after them."""
    allowed = list(split_sizes(cfg)[int(proper):])
    distinct = dict.fromkeys(sizes)
    refused = sorted((s for s in distinct if s not in allowed),
                     key=lambda s: -s if isinstance(s, int) else math.inf)
    if refused or not distinct:
        below = f"below the {cfg.ctu}x{cfg.ctu} CTU " if proper else ""
        raise ValueError(f"block sizes {refused} refused; allowed sides are {allowed}, "
                         f"those {below}that the search can split")
    return tuple(sorted(distinct, reverse=True))


def choose(ns_j: float, qt_j: Optional[float]) -> str:
    """The cheaper of a block's no-split and split costs: QT only when a
    split cost exists and is strictly lower, so no-split wins a tie."""
    return NS if qt_j is None or ns_j <= qt_j else QT


def encode_ns(block: np.ndarray, dc: float, cfg: CodecConfig) -> tuple[RdCost, np.ndarray]:
    """Code a block without splitting; returns its cost and reconstruction.

    ``block`` holds the block's source pixels; the search passes its view
    ``state.work[rect]``, which it copies once and never writes into.
    ``dc`` is the block's DC prediction (``frame_io.reference_dc``). The
    rate proxy charges one significance bit per coefficient,
    2*floor(log2|level|)+3 bits per nonzero level, and a fixed mode
    overhead.

    Outside the two transforms and the quantiser every step is exact, so
    no summation order can move a result. For an integer level m != 0,
    frexp gives m = f * 2**e with 0.5 <= |f| < 1, so e - 1 ==
    floor(log2|m|) with no logarithm to round; frexp(0) has e == 0, so
    zero levels drop out of the exponent sum. The rate and the distortion
    are sums of small integers in float64, far below 2**53.
    """
    cu = block.astype(np.float64)
    coef = dct2d(cu - dc)
    step = cfg.step
    np.divide(coef, step, out=coef)
    levels = np.rint(coef, out=coef)
    exps = np.frexp(levels)[1]            # 2*(exp-1)+3 bits per nonzero level
    rate = MODE_OVERHEAD_BITS + float(levels.size) \
        + float(2 * int(np.add.reduce(exps, axis=None)) + np.count_nonzero(levels))
    levels *= step
    recon = dct2d(levels, inverse=True)
    recon += dc
    np.rint(recon, out=recon)
    np.maximum(recon, 0.0, out=recon)
    np.minimum(recon, 255.0, out=recon)
    np.subtract(cu, recon, out=cu)
    resid = cu.ravel()
    dist = float(np.dot(resid, resid))
    return RdCost.compute(rate=rate, dist=dist, lam=cfg.lam), recon.astype(np.uint8)


class SearchState:
    """Mutable per-run encoder state shared by all CTUs of one frame.

    ``work`` starts as a copy of the frame's pixels and is progressively
    overwritten with committed reconstructions, which ``search``'s CTU
    order makes the in-frame references. ``depth_map`` and ``jpp_map``
    record the depth (-1 until committed) and per-pixel cost of the
    committed leaf covering each pixel, for neighbour summaries; ``depth_map >= 0`` marks the committed
    pixels. Reference availability does not read it: a strip is available
    when it lies inside the frame (``frame_io.causal_patch``). ``pixels``
    counts the area of every NS encode performed.
    """

    def __init__(self, frame: LumaFrame):
        self.work = frame.pixels.copy()
        self.depth_map = np.full(self.work.shape, -1, dtype=np.int8)
        self.jpp_map = np.zeros(self.work.shape, dtype=np.float64)
        self.pixels = 0

    def neighbor_at(self, x: int, y: int) -> Optional[tuple[float, int]]:
        """(per-pixel cost, depth) of the committed leaf at (x, y), if any."""
        if not (0 <= y < self.work.shape[0] and 0 <= x < self.work.shape[1]):
            return None
        if self.depth_map[y, x] < 0:
            return None
        return float(self.jpp_map[y, x]), int(self.depth_map[y, x])

    def commit(self, rect: Rect, depth: int, recon: np.ndarray, cost: RdCost) -> None:
        ys, xs = slice(rect.y, rect.y + rect.h), slice(rect.x, rect.x + rect.w)
        self.work[ys, xs] = recon
        self.depth_map[ys, xs] = depth
        self.jpp_map[ys, xs] = cost.j / rect.area


class VisitInfo(NamedTuple):
    """What the search hands its hook right after a block's NS encode.

    ``parent`` is the parent's NS cost, None at the CTU root.
    Read ``state`` only inside the hook: it runs before any recursion or
    commit, and afterwards ``state`` holds reconstructions the block did
    not see when it was coded.
    """

    rect: Rect
    qp: int
    ns_cost: RdCost
    parent: Optional[RdCost]
    state: SearchState


@dataclass
class PartitionNode:
    rect: Rect
    depth: int
    ns: RdCost
    qt_j: Optional[float]
    children: list["PartitionNode"] = field(default_factory=list)

    @property
    def chosen(self) -> str:
        return choose(self.ns.j, self.qt_j)

    @property
    def best_j(self) -> float:
        return self.ns.j if self.qt_j is None else min(self.ns.j, self.qt_j)

    def preorder(self):
        yield self
        for c in self.children:
            yield from c.preorder()

    def rate_bits(self) -> float:
        """Total bits of the chosen partition, split signalling included."""
        if self.chosen == NS:
            return self.ns.rate
        return SPLIT_BITS + sum(c.rate_bits() for c in self.children)

    def sse(self) -> float:
        """Squared error of the chosen leaves' committed reconstructions:
        their NS distortions, whole numbers whose sums stay far below
        2**53, so they add exactly in any order."""
        if self.chosen == NS:
            return self.ns.dist
        return sum(c.sse() for c in self.children)

    def to_dict(self) -> dict:
        return {
            "x": self.rect.x, "y": self.rect.y, "size": self.rect.w,
            "depth": self.depth,
            "ns": {"rate": self.ns.rate, "dist": self.ns.dist, "j": self.ns.j},
            "qt_j": self.qt_j,
            "chosen": self.chosen,
            "children": [c.to_dict() for c in self.children],
        }


VisitHook = Callable[[VisitInfo], Optional[bool]]


def search(rect: Rect, cfg: CodecConfig, state: SearchState,
           hook: VisitHook | None = None) -> PartitionNode:
    """Rate-distortion search of one CTU, optional split pruning.

    ``hook`` is called once per visited block, right after its NS encode
    and before any recursion; a true result at a block that could split
    forces NS there without exploring the subtree. Each CTU comes once,
    after its left and upper neighbours (raster order), so every in-frame
    reference strip is reconstructed (``frame_io``); any other CTU is
    refused before encoding.
    """
    if rect.w != rect.h or rect.w != cfg.ctu or rect.w & (rect.w - 1):
        raise ValueError(f"search rect must be a full {cfg.ctu}x{cfg.ctu} CTU, got {rect}")
    seen = state.depth_map
    if not (0 <= rect.x <= seen.shape[1] - rect.w and 0 <= rect.y <= seen.shape[0] - rect.h):
        raise ValueError(f"CTU {rect} outside frame {seen.shape}")
    if seen[rect.y, rect.x] >= 0:
        raise ValueError(f"CTU {rect} was already searched")
    if (rect.x and seen[rect.y, rect.x - 1] < 0) or (rect.y and seen[rect.y - 1, rect.x] < 0):
        raise ValueError(f"CTU {rect} searched before its left or upper neighbour")
    return _search_node(rect, 0, cfg, state, hook, None)


def exhaustive_search(rect: Rect, cfg: CodecConfig, state: SearchState,
                      visitor: VisitHook | None = None) -> PartitionNode:
    """Full NS-vs-QT search; ``visitor`` sees every block and returns None."""
    return search(rect, cfg, state, visitor)


def _search_node(rect, depth, cfg, state, hook, parent) -> PartitionNode:
    # the block's own pixels are still source pixels: only the block and
    # its descendants commit inside it, and they come after this encode
    block = state.work[rect.y:rect.y + rect.h, rect.x:rect.x + rect.w]
    ns_cost, recon = encode_ns(block, reference_dc(state.work, rect), cfg)
    state.pixels += rect.area
    pruned = hook is not None and hook(VisitInfo(rect, cfg.qp, ns_cost, parent, state))

    qt_j, kids = None, []
    if depth < cfg.max_depth and not pruned:
        half = rect.w // 2
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):     # raster order
            sub = Rect(rect.x + dx * half, rect.y + dy * half, half, half)
            kids.append(_search_node(sub, depth + 1, cfg, state, hook, ns_cost))
        qt_j = kids[0].best_j + kids[1].best_j + kids[2].best_j + kids[3].best_j \
            + cfg.split_cost
    if choose(ns_cost.j, qt_j) == NS:
        state.commit(rect, depth, recon, ns_cost)        # undoes any child commits
    return PartitionNode(rect, depth, ns_cost, qt_j, kids)


def qt_cost_table(ns_levels: list[np.ndarray], delta_qt: float) -> float:
    """Top-down split-cost aggregation over a table of no-split costs.

    ns_levels[d] holds the no-split cost of every depth-d node as a
    (2**d, 2**d) array; the deepest level cannot split. Returns the split
    cost of the root: sum over its four children of min(no-split, own
    split cost) plus delta_qt, applied recursively.
    """
    if len(ns_levels) < 2:
        raise ValueError("need at least two depth levels")
    for d, lvl in enumerate(ns_levels):
        if np.asarray(lvl).shape != (1 << d, 1 << d):
            raise ValueError(f"level {d} must have shape {(1 << d, 1 << d)}")

    last = len(ns_levels) - 1

    def qt(d: int, i: int, j: int) -> float:
        acc = 0.0
        for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
            ci, cj = 2 * i + di, 2 * j + dj
            ns_child = float(ns_levels[d + 1][ci, cj])
            if d + 1 == last:
                acc += ns_child
            else:
                acc += min(ns_child, qt(d + 1, ci, cj))
        return acc + delta_qt

    return qt(0, 0, 0)


def psnr_of_mse(mse: float) -> float:
    if mse < 0:
        raise ValueError("negative MSE")
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)
