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

A descriptor is a pure function of its ``DescriptorKey``, which
``descriptor_key`` reads off a ``codec.VisitInfo`` inside the search
hook: the NI slots come from the committed leaves above and left of
the block, the texture slots from one ``causal_patch`` window of the
block. Equal keys therefore give byte-identical descriptors; the gate's
memo is keyed by them (``decision``).

Collection builds its descriptors after each CTU's search
(``texture_memo``). The search only records each visit's key; then
stacked passes compute ``hog8`` and ``glcm5`` of every new region of
the search, one numpy stack per region shape (``_hog8_stack``,
``_glcm5_stack``, byte for byte the single-region kernels), into a memo
with one entry per region shape and bytes. ``build_vector(key, memo)``
then assembles each descriptor, and each of its kernel calls is a hit.
The search codes a block before it commits anything inside it, so the
block and its quadrants are source pixels at every qp, and each
quadrant is also a child block: a 64x64 CTU searched at four qps has
341 distinct ones. ``dataset`` keeps their entries for the whole frame,
about 150 kB per CTU; the strips are reconstructions that change with
qp, and their entries are dropped after each search. The gate passes
no memo and runs the single-region kernels: for its one block at a
time, 16 single-region calls are faster than ``texture_memo`` of that
one key and its reads.

Every slot belongs to one of five ablation groups, read off its name:
NI, PI and BI from the ``ni_``/``pi_``/``bi_`` prefix, HOG or GLCM for
the ``si_`` texture slots. An ablation mask is a list of group names in
any case, e.g. ``["glcm", "NI"]``; a model file stores it in canonical
order (``mask_groups``). A mask never changes how a descriptor is built:
a masked model's first layer has zero rows at its slots (``mask_indices``).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .codec import RdCost, VisitInfo
from .frame_io import REF_BORDER, Rect, causal_patch

FEATURE_COUNT = 115
HOG_BINS = 8
GLCM_LEVELS = 8
MAX_TREE_DEPTH = 4
DIM_NORM = 128.0
QP_NORM = 64.0
GLCM_STAT_NAMES = ("entropy", "energy", "homogeneity", "correlation", "dissimilarity")
REGION_NAMES = ("cu", "q0", "q1", "q2", "q3", "top", "left", "lshape")

_SI_BASE = 11
_SOURCE_REGIONS = 5              # the block and its quadrants, first in REGION_NAMES
# Most one stacked texture pass takes. Without a cap, one pass per CTU
# search raises the tracemalloc peak of collecting the 128x128 benchmark
# reference frame from 1.65 MB to 3.00 MB, for a 3% faster collection;
# tests/test_dataset.py bounds that peak.
_PASS_PIXELS, _PASS_REGIONS = 4096, 64
_REGION_WIDTH = HOG_BINS + len(GLCM_STAT_NAMES)
_HOG_PART, _GLCM_PART = slice(0, HOG_BINS), slice(HOG_BINS, _REGION_WIDTH)   # of a memo entry


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


def _check_region(region) -> None:
    if not isinstance(region, np.ndarray) or region.dtype != np.uint8:
        raise ValueError("region must be a uint8 array")
    if region.ndim != 2 or region.shape[0] < 2 or region.shape[1] < 2:
        raise ValueError("region must be at least 2x2")


def _memo_lookup(part: slice, region, memo: dict | None) -> np.ndarray:
    """``part`` of the 13 texture entries of a checked region: the 8
    ``hog8`` bins, then the 5 ``glcm5`` statistics. Without a ``memo`` the
    single-region kernel computes it. A memo (``texture_memo``) holds one
    entry per region shape and bytes with all 13, so an entry is the
    result of equal input whatever block it was cut from; a region it
    lacks raises ``KeyError``. The caller gets a copy and cannot change
    what the memo holds."""
    _check_region(region)
    if memo is None:
        return _hog8(region) if part is _HOG_PART else _glcm5(region)
    return memo[region.shape, region.tobytes()][part].copy()


def _orientation_bins() -> np.ndarray:
    """Orientation bin of every integer gradient (gx, gy) in
    [-255, 255]^2, at flat index (gy + 255) * 511 + (gx + 255).

    Each entry is the float chain floor(degrees(arctan2(gy, gx)) % 180
    * 8 / 180), capped at 7, evaluated on float64 copies of the integer
    gradients, so a lookup gives exactly the bin that chain gives. The
    chain runs on 16 gy rows at a time, which keeps each float64
    temporary at 64 kB instead of the 2 MB of the full grid.
    """
    g = np.arange(-255.0, 256.0)
    table = np.empty((g.size, g.size), dtype=np.uint8)
    for lo in range(0, g.size, 16):
        ang = np.degrees(np.arctan2(g[lo:lo + 16, None], g)) % 180.0
        table[lo:lo + 16] = np.minimum((ang * (HOG_BINS / 180.0)).astype(np.int64),
                                       HOG_BINS - 1)
    return table.ravel()


_BIN_OF_GRADIENT = _orientation_bins()
_GRADIENT_CODE_OFFSET = 255 * 511 + 255


@functools.lru_cache(maxsize=64)
def _gradient_taps(h: int, w: int) -> np.ndarray:
    """Flat sample indices of an h x w region, shape (2, 2, h*w):
    [[right, below], [left, above]] neighbours of every sample, clamped
    at the edges. ``a.take(taps)`` then one subtraction gives (gx, gy)."""
    k = np.arange(h * w).reshape(h, w)
    cols, rows = np.arange(w), np.arange(h)
    plus = [k[:, np.minimum(cols + 1, w - 1)], k[np.minimum(rows + 1, h - 1)]]
    minus = [k[:, np.maximum(cols - 1, 0)], k[np.maximum(rows - 1, 0)]]
    taps = np.array([plus, minus]).reshape(2, 2, h * w)
    taps.flags.writeable = False
    return taps


def hog8(region: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """8-bin unsigned orientation histogram of a 2-D uint8 region; with a
    ``memo``, read from it (``_memo_lookup``).

    Gradients use the central-difference kernel [-1, 0, 1] with replicated
    borders; orientations fold into [0, 180) and each pixel votes its
    gradient magnitude into one of 8 equal bins. The histogram is
    L1-normalized, or all zero when the total magnitude is negligible.

    Exact shortcuts, each giving the bytes of the float64 formulation
    (``tests/helpers.py::reference_hog8``):

    - Gradients are differences of 8-bit samples, computed in int32:
      the same integers float64 differences give, and ``np.hypot``
      converts them to float64 exactly.
    - The bin of each gradient is looked up in a 511 x 511 table built
      at import from the same float chain (``_orientation_bins``).
    - A nonzero integer gradient has magnitude at least 1, so the total
      magnitude is negligible only when every gradient is 0; such
      regions return zeros before ``hypot``.
    """
    return _memo_lookup(_HOG_PART, region, memo)


def _hog8(region: np.ndarray) -> np.ndarray:
    taps = region.astype(np.int32).take(_gradient_taps(*region.shape))
    g = taps[0] - taps[1]
    if not np.count_nonzero(g):
        return np.zeros(HOG_BINS, dtype=np.float64)
    gx, gy = g[0], g[1]
    bins = _BIN_OF_GRADIENT.take(gy * 511 + gx + _GRADIENT_CODE_OFFSET)
    hist = np.bincount(bins, weights=np.hypot(gx, gy), minlength=HOG_BINS)
    return hist / np.add.reduce(hist)


def _hog8_stack(stacks) -> np.ndarray:
    """``_hog8`` of every region of a list of (k, h, w) uint8 stacks, in
    order, shape (regions, 8), byte for byte. Gradients are taken per
    stack; then region i votes into bins 8i..8i+7 of one bincount, so each
    bin adds its region's magnitudes in the order ``_hog8`` adds them. A
    region whose gradients are all 0 keeps its zero histogram."""
    bins, mags, base = [], [], 0
    for stack in stacks:
        k, h, w = stack.shape
        taps = stack.reshape(k, h * w).astype(np.int32).take(_gradient_taps(h, w), axis=1)
        g = taps[:, 0] - taps[:, 1]
        gx, gy = g[:, 0], g[:, 1]
        bins.append((_BIN_OF_GRADIENT.take(gy * 511 + gx + _GRADIENT_CODE_OFFSET)
                     + np.arange(base, base + HOG_BINS * k, HOG_BINS)[:, None]).ravel())
        mags.append(np.hypot(gx, gy).ravel())
        base += HOG_BINS * k
    hist = np.bincount(np.concatenate(bins), weights=np.concatenate(mags),
                       minlength=base).reshape(-1, HOG_BINS)
    total = np.add.reduce(hist, axis=1)
    return hist / np.where(total > 0.0, total, 1.0)[:, None]


_LEVELS = np.arange(GLCM_LEVELS, dtype=np.float64)
_LEVEL_DIST = np.abs(_LEVELS[:, None] - _LEVELS[None, :])
_HOMOG_DEN = 1.0 + _LEVEL_DIST
# co-occurrence cell of every sample pair: level(left) * 8 + level(right)
_LEVEL_OF = (np.arange(256) >> 5).astype(np.uint8)
_PAIR_CELL = _LEVEL_OF[:, None] * np.uint8(GLCM_LEVELS) + _LEVEL_OF
_CELLS = GLCM_LEVELS * GLCM_LEVELS
# what the full path yields when every pair falls in one diagonal cell
_SINGLE_LEVEL_GLCM = (-0.0, 1.0, 1.0, 0.0, 0.0)


def glcm5(region: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Five statistics of the 8-level symmetric horizontal co-occurrence
    matrix of a 2-D uint8 region: (entropy, energy, homogeneity,
    correlation, dissimilarity); with a ``memo``, read from it
    (``_memo_lookup``).

    Pixel values quantize to 8 gray levels; each horizontally adjacent
    pair is counted in both directions. Entropy is scaled by 1/6 (its
    8-level maximum) into [0, 1]; correlation is 0 when the level
    variance vanishes and is clamped to [-1, 1] against rounding.

    Exact shortcuts, each giving the bytes of the scatter-add
    formulation (``tests/helpers.py::reference_glcm5``):

    - Pair cells come from a 256 x 256 table, counted by one bincount.
    - A region whose pairs all fall in one diagonal cell (one gray
      level) returns the constant the full path computes for it:
      entropy -(1 * log2 1) / 6 = -0.0, energy and homogeneity 1,
      zero variance so correlation 0, dissimilarity 0.
    - Energy, homogeneity, dissimilarity and the correlation numerator
      are rows of one (4, 64) buffer summed along its last axis, which
      adds each row in the same pairwise order as summing the 8 x 8
      matrix alone.
    """
    return _memo_lookup(_GLCM_PART, region, memo)


def _glcm5(region: np.ndarray) -> np.ndarray:
    cells = _PAIR_CELL[region[:, :-1], region[:, 1:]]
    n = cells.size
    c = np.bincount(cells.ravel(), minlength=_CELLS)
    k = int(c.argmax())
    if c[k] == n and k % (GLCM_LEVELS + 1) == 0:
        return np.array(_SINGLE_LEVEL_GLCM)
    c = c.reshape(GLCM_LEVELS, GLCM_LEVELS)
    # counts are exact integers, so dividing by the known pair total
    # equals dividing by the matrix sum
    p = (c + c.T) / float(2 * n)

    nzp = p[p > 0.0]
    entropy = min(-float(np.add.reduce(nzp * np.log2(nzp))), 6.0) / 6.0
    marg = np.add.reduce(p, axis=1)            # symmetric: marginals coincide
    mu = float(np.add.reduce(_LEVELS * marg))
    d = _LEVELS - mu
    var = float(np.add.reduce(d * d * marg))
    rows = np.empty((4, GLCM_LEVELS, GLCM_LEVELS))
    np.multiply(p, p, out=rows[0])
    np.divide(p, _HOMOG_DEN, out=rows[1])
    np.multiply(p, _LEVEL_DIST, out=rows[2])
    np.multiply(p * d[:, None], d, out=rows[3])
    energy, homog, dissim, cov = np.add.reduce(rows.reshape(4, -1), axis=1).tolist()
    corr = 0.0 if var <= 0.0 else min(1.0, max(-1.0, cov / var))
    return np.array([entropy, energy, homog, corr, dissim])


def _glcm5_stack(stacks) -> np.ndarray:
    """``_glcm5`` of every region of a list of (k, h, w) uint8 stacks, in
    order, shape (regions, 5), byte for byte. Pairs are cut per stack;
    then region i counts its pairs into cells 64i..64i+63 of one bincount,
    and every other sum runs along a last axis of 8 or 64 entries, in the
    order ``_glcm5`` sums them. Entropy sums each region's nonzero terms,
    whose number varies; padding would change how numpy groups that sum,
    so the regions with m terms are reduced as one (j, m) array. A region
    of one gray level needs no shortcut here: its one diagonal cell of 1
    gives the bytes of ``_SINGLE_LEVEL_GLCM`` on this path.

    Grouping runs on Python lists: ``np.argsort`` would page in part of
    numpy's library that nothing else in the program runs, which then
    counts in the peak RSS of every later command."""
    cells, pairs, base = [], [], 0
    for stack in stacks:
        k, h, w = stack.shape
        cells.append((_PAIR_CELL[stack[:, :, :-1], stack[:, :, 1:]].reshape(k, -1)
                      + np.arange(base, base + _CELLS * k, _CELLS)[:, None]).ravel())
        pairs.append(np.full(k, h * (w - 1)))
        base += _CELLS * k
    n = np.concatenate(pairs)
    k = n.size
    c = np.bincount(np.concatenate(cells), minlength=base).reshape(k, GLCM_LEVELS, GLCM_LEVELS)
    p = (c + c.transpose(0, 2, 1)) / (2.0 * n)[:, None, None]
    out = np.empty((k, len(GLCM_STAT_NAMES)))

    counts = np.count_nonzero(p.reshape(k, _CELLS), axis=1).tolist()
    order = sorted(range(k), key=counts.__getitem__)    # stable: by count of terms
    nzp = p[order]
    nzp = nzp[nzp > 0.0]
    terms = nzp * np.log2(nzp)
    term = 0
    for m, group in itertools.groupby(order, counts.__getitem__):
        rows = list(group)
        j = len(rows)
        out[rows, 0] = np.add.reduce(terms[term:term + j * m].reshape(j, m), axis=1)
        term += j * m
    np.minimum(np.negative(out[:, 0]), 6.0, out=out[:, 0])
    out[:, 0] /= 6.0

    marg = np.add.reduce(p, axis=2)
    mu = np.add.reduce(_LEVELS * marg, axis=1)
    d = _LEVELS - mu[:, None]
    var = np.add.reduce(d * d * marg, axis=1)
    row = np.empty((k, GLCM_LEVELS, GLCM_LEVELS))

    def total(ufunc, a, b):                 # per region, the sum of ufunc(a, b)
        ufunc(a, b, out=row)
        return np.add.reduce(row.reshape(k, _CELLS), axis=1)

    out[:, 1] = total(np.multiply, p, p)                     # energy
    out[:, 2] = total(np.divide, p, _HOMOG_DEN)              # homogeneity
    out[:, 4] = total(np.multiply, p, _LEVEL_DIST)           # dissimilarity
    cov = total(np.multiply, p * d[:, :, None], d[:, None, :])
    corr = np.divide(cov, var, out=np.zeros(k), where=var > 0.0)
    out[:, 3] = np.minimum(1.0, np.maximum(-1.0, corr))
    return out


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


class DescriptorKey(NamedTuple):
    """A descriptor's whole input: the visit's fields, the committed leaves
    above and left of the block, and its (N+4)^2 ``causal_patch`` bytes."""

    rect: Rect
    qp: int
    ns_cost: RdCost
    parent: RdCost | None
    top_leaf: tuple[float, int] | None
    left_leaf: tuple[float, int] | None
    window: bytes


def descriptor_key(visit: VisitInfo) -> DescriptorKey:
    """The key of a visit's descriptor; call it inside the search hook."""
    rect, state = visit.rect, visit.state
    return DescriptorKey(rect, visit.qp, visit.ns_cost, visit.parent,
                         state.neighbor_at(rect.x, rect.y - 1),
                         state.neighbor_at(rect.x - 1, rect.y),
                         causal_patch(state.work, rect).tobytes())


def _regions(key: DescriptorKey) -> list[np.ndarray]:
    b, h, w = REF_BORDER, key.rect.h, key.rect.w
    win = np.frombuffer(key.window, dtype=np.uint8).reshape(h + b, w + b)
    cu, top, left = win[b:, b:], win[:b, b:], win[b:, :b]
    h2, w2 = h // 2, w // 2
    return [cu,
            cu[:h2, :w2], cu[:h2, w2:], cu[h2:, :w2], cu[h2:, w2:],
            top, left, np.concatenate([win[:b], left.T], axis=1)]


def build_vector(key: DescriptorKey, memo: dict | None = None) -> np.ndarray:
    """Assemble the 115-entry descriptor of a block from its key; with a
    ``memo`` (``texture_memo`` of keys that include it), its eight texture
    regions are read from there."""
    rect = key.rect
    v = np.zeros(FEATURE_COUNT, dtype=np.float64)
    for k, leaf in enumerate((key.top_leaf, key.left_leaf)):
        if leaf is not None:
            v[k], v[k + 2] = leaf[0], leaf[1] / MAX_TREE_DEPTH
    parent = key.parent
    if parent is not None:
        area = 4 * rect.area                         # a child is a quarter of it
        v[4], v[5], v[6] = parent.j / area, parent.rate / area, parent.dist / area
    v[7] = rect.h / DIM_NORM
    v[8] = rect.w / DIM_NORM
    v[9] = key.qp / QP_NORM
    v[10] = key.ns_cost.j / rect.area
    for r, region in enumerate(_regions(key)):
        base = _SI_BASE + r * _REGION_WIDTH
        v[base:base + HOG_BINS] = hog8(region, memo)
        ent, ene, hom, corr, dis = glcm5(region, memo).tolist()
        v[base + HOG_BINS:base + _REGION_WIDTH] = (
            ent, ene, hom, (corr + 1.0) / 2.0, dis / (GLCM_LEVELS - 1.0))
    return v.astype(np.float32)


def texture_memo(keys, shared: dict) -> dict:
    """A memo of every texture region of ``keys``, for ``build_vector``:
    one entry per distinct region shape and bytes, as ``hog8`` and
    ``glcm5`` read it. What is new is computed in stacked passes of at
    most ``_PASS_PIXELS`` pixels and ``_PASS_REGIONS`` regions each
    (``_texture_pass``). Entries of the blocks and their quadrants are
    taken from ``shared`` where it holds them and are added to it; strip
    entries live in the returned memo only."""
    memo, new, source = {}, {}, set()
    for key in keys:
        for r, region in enumerate(_regions(key)):
            mkey = (region.shape, region.tobytes())
            if r < _SOURCE_REGIONS:
                source.add(mkey)
            if mkey not in memo:
                memo[mkey] = shared.get(mkey)
                if memo[mkey] is None:
                    new.setdefault(region.shape, []).append(mkey)
    batch, pixels = [], 0
    for shape, mkeys in new.items():
        area = shape[0] * shape[1]
        for mkey in mkeys:
            if batch and (pixels + area > _PASS_PIXELS or len(batch) == _PASS_REGIONS):
                _texture_pass(batch, memo)
                batch, pixels = [], 0
            batch.append(mkey)
            pixels += area
    if batch:
        _texture_pass(batch, memo)
    shared.update((mkey, memo[mkey]) for mkey in source)
    return memo


def _texture_pass(batch, memo: dict) -> None:
    """Enter the memo entry of every region of ``batch``, a list of
    (shape, region bytes) grouped by shape, from one ``_hog8_stack`` and
    one ``_glcm5_stack`` over a stack per shape."""
    stacks = [np.frombuffer(b"".join(blob for _, blob in group), dtype=np.uint8)
              .reshape(-1, *shape) for shape, group in itertools.groupby(batch, itemgetter(0))]
    entries = np.concatenate((_hog8_stack(stacks), _glcm5_stack(stacks)), axis=1)
    for mkey, entry in zip(batch, entries):
        memo[mkey] = entry.copy()                  # frees the pass's arrays


def describe_layout() -> list[dict]:
    """One row per descriptor entry: index, name and group (texture
    groups labelled SI_HOG and SI_GLCM)."""
    return [{"index": i, "name": name,
             "group": "SI_" + group if name.startswith("si_") else group}
            for i, (name, group) in enumerate(zip(FEATURE_NAMES, _SLOT_GROUPS))]
