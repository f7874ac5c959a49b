"""Fixed 115-entry block descriptor built from coding context and texture.

Index layout:
    0-3     neighbour summary: top/left per-pixel cost, top/left leaf depth
    4-6     parent summary: per-pixel cost, rate, distortion
    7-10    block summary: height/128, width/128, qp/64, own per-pixel
            no-split cost
    11-114  texture: 8 regions x (8 orientation-histogram bins + 5
            co-occurrence statistics)

Texture regions are the block itself, its four quadrants, the top and
left causal reference strips, and the whole reference L laid out as one
horizontal strip. Costs are normalized per pixel, depths by the deepest
allowed split, dimensions by 128 and qp by 64, so entries stay in a small
fixed range regardless of block size. Every texture entry lies in [0, 1]:
histogram bins are L1-normalized, co-occurrence entropy is rescaled by
its 8-level maximum, correlation is mapped through (r + 1) / 2 and
dissimilarity divided by its maximum level distance.

The descriptor is built from the snapshot the coding-tree search takes
of each visited block (``codec.VisitInfo``).

Every slot belongs to one of five ablation groups, read off its name:
NI, PI and BI from the ``ni_``/``pi_``/``bi_`` prefix, HOG or GLCM for
the ``si_`` texture slots. An ablation mask is a list of group names in
any case, e.g. ``["glcm", "NI"]``; a model file stores it in canonical
order (``mask_groups``). Masks never change how a descriptor is built:
every descriptor is built in full, then training zeroes the masked
columns of its inputs and the gate the same slots of each descriptor it
builds (``mask_indices``).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .codec import VisitInfo
from .frame_io import CausalPatch

FEATURE_COUNT = 115
HOG_BINS = 8
GLCM_LEVELS = 8
MAX_TREE_DEPTH = 4
DIM_NORM = 128.0
QP_NORM = 64.0
GLCM_STAT_NAMES = ("entropy", "energy", "homogeneity", "correlation", "dissimilarity")
REGION_NAMES = ("cu", "q0", "q1", "q2", "q3", "top", "left", "lshape")

_SI_BASE = 11
_REGION_WIDTH = HOG_BINS + len(GLCM_STAT_NAMES)


def _build_names() -> tuple[str, ...]:
    names = ["ni_top_j_pp", "ni_left_j_pp", "ni_top_depth", "ni_left_depth",
             "pi_j_pp", "pi_rate_pp", "pi_dist_pp",
             "bi_height", "bi_width", "bi_qp", "bi_ns_j_pp"]
    for region in REGION_NAMES:
        names.extend(f"si_{region}_hog_{k}" for k in range(HOG_BINS))
        names.extend(f"si_{region}_glcm_{s}" for s in GLCM_STAT_NAMES)
    return tuple(names)


FEATURE_NAMES = _build_names()
assert len(FEATURE_NAMES) == FEATURE_COUNT
LAYOUT_HASH = hashlib.sha256("\n".join(FEATURE_NAMES).encode("ascii")).hexdigest()[:16]

# ablation group of every slot: the ni/pi/bi prefix, or the texture kind
_SLOT_GROUPS = tuple(("HOG" if "_hog_" in n else "GLCM") if n.startswith("si_")
                     else n.split("_")[0].upper() for n in FEATURE_NAMES)
MASK_GROUPS = tuple(dict.fromkeys(_SLOT_GROUPS))     # NI, PI, BI, HOG, GLCM


def hog8(region: np.ndarray) -> np.ndarray:
    """8-bin unsigned orientation histogram of a 2-D region.

    Gradients use the central-difference kernel [-1, 0, 1] with replicated
    borders; orientations fold into [0, 180) and each pixel votes its
    gradient magnitude into one of 8 equal bins. The histogram is
    L1-normalized, or all zero when the total magnitude is negligible.
    """
    a = np.asarray(region, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 2 or a.shape[1] < 2:
        raise ValueError("region must be at least 2x2")
    # replicated borders turn the edge differences one-sided
    gx = np.empty_like(a)
    gx[:, 1:-1] = a[:, 2:] - a[:, :-2]
    gx[:, 0] = a[:, 1] - a[:, 0]
    gx[:, -1] = a[:, -1] - a[:, -2]
    gy = np.empty_like(a)
    gy[1:-1] = a[2:] - a[:-2]
    gy[0] = a[1] - a[0]
    gy[-1] = a[-1] - a[-2]
    mag = np.hypot(gx, gy)
    total = float(mag.sum())
    if total < 1e-9:
        return np.zeros(HOG_BINS, dtype=np.float64)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
    bins = np.minimum((ang * (HOG_BINS / 180.0)).astype(np.int64), HOG_BINS - 1)
    hist = np.bincount(bins.ravel(), weights=mag.ravel(), minlength=HOG_BINS)
    return hist / hist.sum()


_LEVELS = np.arange(GLCM_LEVELS, dtype=np.float64)
_LEVEL_DIST = np.abs(_LEVELS[:, None] - _LEVELS[None, :])
_HOMOG_DEN = 1.0 + _LEVEL_DIST


def glcm5(region: np.ndarray) -> np.ndarray:
    """Five statistics of the 8-level symmetric horizontal co-occurrence
    matrix: (entropy, energy, homogeneity, correlation, dissimilarity).

    Pixel values quantize to 8 gray levels; each horizontally adjacent
    pair is counted in both directions. Entropy is scaled by 1/6 (its
    8-level maximum) into [0, 1]; correlation is 0 when the level
    variance vanishes and is clamped to [-1, 1] against rounding.
    """
    a = np.asarray(region)
    if a.ndim != 2 or a.shape[0] < 2 or a.shape[1] < 2:
        raise ValueError("region must be at least 2x2")
    lev = a.astype(np.int64) >> 5
    pairs = (lev[:, :-1] * GLCM_LEVELS + lev[:, 1:]).ravel()
    c = np.bincount(pairs, minlength=GLCM_LEVELS * GLCM_LEVELS).reshape(
        GLCM_LEVELS, GLCM_LEVELS)
    # counts are exact integers, so dividing by the known pair total
    # equals dividing by the matrix sum
    p = (c + c.T) / float(2 * pairs.size)

    nzp = p[p > 0.0]
    entropy = min(float(-(nzp * np.log2(nzp)).sum()), 6.0) / 6.0
    energy = float((p * p).sum())
    homog = float((p / _HOMOG_DEN).sum())
    dissim = float((p * _LEVEL_DIST).sum())
    marg = p.sum(axis=1)                       # symmetric: marginals coincide
    mu = float((_LEVELS * marg).sum())
    var = float(((_LEVELS - mu) ** 2 * marg).sum())
    if var <= 0.0:
        corr = 0.0
    else:
        corr = float((p * (_LEVELS[:, None] - mu) * (_LEVELS[None, :] - mu)).sum()) / var
        corr = min(1.0, max(-1.0, corr))
    return np.array([entropy, energy, homog, corr, dissim])


def mask_groups(names) -> list[str]:
    """Canonical ordered list of the named ablation groups, any case."""
    wanted = {str(n).upper() for n in names}
    unknown = wanted - set(MASK_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups {sorted(unknown)}")
    return [g for g in MASK_GROUPS if g in wanted]


def mask_indices(names) -> np.ndarray:
    """Boolean length-115 array, True at the slots of the named groups."""
    groups = mask_groups(names)
    return np.array([g in groups for g in _SLOT_GROUPS])


def _regions(patch: CausalPatch) -> list[np.ndarray]:
    cu = patch.cu
    h2, w2 = cu.shape[0] // 2, cu.shape[1] // 2
    lshape = np.hstack([patch.corner, patch.top, patch.left.T])
    return [cu,
            cu[:h2, :w2], cu[:h2, w2:], cu[h2:, :w2], cu[h2:, w2:],
            patch.top, patch.left, lshape]


def build_vector(visit: VisitInfo) -> np.ndarray:
    """Assemble the 115-entry descriptor of a block the search visits."""
    v = np.zeros(FEATURE_COUNT, dtype=np.float64)
    if visit.top is not None:
        v[0] = visit.top[0]
        v[2] = visit.top[1] / MAX_TREE_DEPTH
    if visit.left is not None:
        v[1] = visit.left[0]
        v[3] = visit.left[1] / MAX_TREE_DEPTH
    if visit.parent is not None:
        cost, area = visit.parent
        v[4], v[5], v[6] = cost.j / area, cost.rate / area, cost.dist / area
    v[7] = visit.rect.h / DIM_NORM
    v[8] = visit.rect.w / DIM_NORM
    v[9] = visit.qp / QP_NORM
    v[10] = visit.ns_cost.j / visit.rect.area
    for r, region in enumerate(_regions(visit.patch)):
        base = _SI_BASE + r * _REGION_WIDTH
        v[base:base + HOG_BINS] = hog8(region)
        ent, ene, hom, corr, dis = glcm5(region)
        v[base + HOG_BINS:base + _REGION_WIDTH] = (
            ent, ene, hom, (corr + 1.0) / 2.0, dis / (GLCM_LEVELS - 1.0))
    return v.astype(np.float32)


def describe_layout() -> list[dict]:
    """One row per descriptor entry: index, name and group (texture
    groups labelled SI_HOG and SI_GLCM)."""
    return [{"index": i, "name": name,
             "group": "SI_" + group if name.startswith("si_") else group}
            for i, (name, group) in enumerate(zip(FEATURE_NAMES, _SLOT_GROUPS))]
