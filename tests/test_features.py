import hashlib

import numpy as np
import pytest

from qtpart import features
from qtpart.codec import CodecConfig, RdCost, SearchState, VisitInfo, exhaustive_search
from qtpart.features import (FEATURE_COUNT, FEATURE_NAMES, GLCM_STAT_NAMES,
                             HOG_BINS, LAYOUT_HASH, MASK_GROUPS, REGION_NAMES,
                             DescriptorKey, build_vector, describe_layout,
                             descriptor_key, glcm5, hog8, mask_groups, mask_indices)
from qtpart.frame_io import BORDER_FILL, REF_BORDER, LumaFrame, Rect, causal_patch, tile_ctus

from helpers import natural_frame, reference_glcm5, reference_hog8, window_parts


# -- layout ---------------------------------------------------------------


def test_layout_hash_rederived_from_naming_scheme():
    names = ["ni_top_j_pp", "ni_left_j_pp", "ni_top_depth", "ni_left_depth",
             "pi_j_pp", "pi_rate_pp", "pi_dist_pp",
             "bi_height", "bi_width", "bi_qp", "bi_ns_j_pp"]
    for region in ("cu", "q0", "q1", "q2", "q3", "top", "left", "lshape"):
        names += [f"si_{region}_hog_{k}" for k in range(8)]
        names += [f"si_{region}_glcm_{s}"
                  for s in ("entropy", "energy", "homogeneity",
                            "correlation", "dissimilarity")]
    assert len(names) == 115
    assert tuple(names) == FEATURE_NAMES
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
    assert digest == LAYOUT_HASH == "5ea0f3d7d5b524e0"


def test_describe_layout_groups():
    rows = describe_layout()
    assert len(rows) == FEATURE_COUNT
    assert rows[0] == {"index": 0, "name": "ni_top_j_pp", "group": "NI"}
    assert rows[10]["group"] == "BI"
    assert rows[11] == {"index": 11, "name": "si_cu_hog_0", "group": "SI_HOG"}
    assert rows[114]["name"] == "si_lshape_glcm_dissimilarity"
    assert rows[114]["group"] == "SI_GLCM"
    groups = {r["group"] for r in rows}
    assert groups == {"NI", "PI", "BI", "SI_HOG", "SI_GLCM"}


# -- HOG --------------------------------------------------------------------


def test_hog_constant_block_is_zero():
    assert np.array_equal(hog8(np.full((8, 8), 91, np.uint8)), np.zeros(8))


def test_hog_vertical_edge_all_horizontal_gradient():
    block = np.zeros((8, 8), np.uint8)
    block[:, 4:] = 255
    hist = hog8(block)
    assert hist[0] == 1.0 and np.all(hist[1:] == 0.0)


def test_hog_horizontal_edge_hits_90_degree_bin():
    block = np.zeros((8, 8), np.uint8)
    block[4:, :] = 255
    hist = hog8(block)
    assert hist[4] == 1.0  # 90 degrees -> floor(90 * 8 / 180)
    assert hist.sum() == 1.0


def test_hog_diagonal_gradient_bin():
    yy, xx = np.mgrid[0:16, 0:16]
    block = np.clip(8 * (yy + xx), 0, 255).astype(np.uint8)
    hist = hog8(block)
    # dx == dy -> 45 degrees -> bin 2
    assert hist[2] > 0.9


def test_hog_brightness_shift_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        block = rng.integers(0, 200, (8, 8)).astype(np.uint8)
        assert np.allclose(hog8(block), hog8(block + 55), atol=1e-12)


def test_hog_rejects_tiny_regions():
    with pytest.raises(ValueError, match="at least 2x2"):
        hog8(np.zeros((1, 8), np.uint8))


# -- GLCM --------------------------------------------------------------------


def test_glcm_constant_block():
    ent, ene, hom, corr, dis = glcm5(np.full((8, 8), 200, np.uint8))
    assert ent == 0.0 and ene == 1.0 and hom == 1.0 and dis == 0.0
    assert corr == 0.0  # zero-variance convention


def test_glcm_alternating_stripes():
    # columns alternate between levels 1 and 2 (values 32 and 64), so
    # every horizontal pair is (1,2) or (2,1): a two-cell symmetric
    # matrix with p = 0.5 each
    stripes = np.tile(np.array([[32, 64]], np.uint8), (8, 4))
    ent, ene, hom, corr, dis = glcm5(stripes)
    assert ent == pytest.approx(1.0 / 6.0, abs=1e-12)  # 1 bit / 6
    assert ene == pytest.approx(0.5, abs=1e-12)
    assert hom == pytest.approx(0.5, abs=1e-12)
    assert corr == pytest.approx(-1.0, abs=1e-12)
    assert dis == pytest.approx(1.0, abs=1e-12)


def test_glcm_quantizes_to_eight_levels():
    # values inside one 32-wide bucket are indistinguishable
    a = glcm5(np.full((4, 4), 40, np.uint8))
    b = glcm5(np.full((4, 4), 63, np.uint8))
    assert np.array_equal(a, b)


def test_glcm_rejects_tiny_regions():
    with pytest.raises(ValueError, match="at least 2x2"):
        glcm5(np.zeros((4, 1), np.uint8))


def _oracle_regions():
    """Seeded regions of every shape and content class the descriptor
    meets: blocks, quadrants, reference strips and L-shapes; noise,
    ramps, flat, single-level and saturated content."""
    rng = np.random.default_rng(2024)
    shapes = [(2, 2)] + [(n, n) for n in (4, 8, 16, 32)]
    shapes += [(4, n) for n in (4, 8, 16, 32, 64)]              # top strips
    shapes += [(4, 4 + w + h) for w, h in ((4, 4), (8, 8), (16, 16), (32, 32))]
    shapes += [(2, 3), (3, 2), (2, 64), (64, 2), (5, 7)]
    # every region shape build_vector cuts at each block size: block,
    # quadrant, top strip, left strip, L-shape
    for n in (8, 16, 32, 64):
        shapes += [(n, n), (n // 2, n // 2), (4, n), (n, 4), (4, 4 + 2 * n)]
    regions = []
    for h, w in dict.fromkeys(shapes):
        yy, xx = np.mgrid[0:h, 0:w]
        regions.append(rng.integers(0, 256, (h, w)).astype(np.uint8))
        regions.append(np.clip(128 + rng.normal(0, 2, (h, w)), 0, 255).astype(np.uint8))
        regions.append(np.full((h, w), rng.integers(0, 256), np.uint8))
        regions.append(rng.choice(np.array([0, 255], np.uint8), (h, w)))
        regions.append(np.full((h, w), 255, np.uint8))
        gx, gy = rng.uniform(-12, 12, 2)
        regions.append(np.clip(128 + gx * xx + gy * yy, 0, 255).astype(np.uint8))
        # one gray level but not constant: values inside one 32-wide bucket
        low = 32 * int(rng.integers(0, 8))
        regions.append(rng.integers(low, low + 32, (h, w)).astype(np.uint8))
        # 0/255 checkerboard: gradients of +-255 along the edges
        regions.append(((yy + xx) % 2 * 255).astype(np.uint8))
        # a quadrant view into a larger block, as build_vector passes it
        big = rng.integers(0, 256, (2 * h, 2 * w)).astype(np.uint8)
        regions.append(big[h:, :w])
    for h in (2, 3, 8, 64):
        # width 2, every row the same off-diagonal pair of levels 1 and 2
        regions.append(np.tile(np.array([[32, 64]], np.uint8), (h, 1)))
        regions.append(np.tile(np.array([[255, 0]], np.uint8), (h, 1)))
    return regions


_SINGLE_LEVEL = np.array([-0.0, 1.0, 1.0, 0.0, 0.0]).tobytes()


def test_kernels_byte_identical_to_reference():
    regions = _oracle_regions()
    assert any(hog8(r).sum() == 0.0 for r in regions)    # flat path covered
    single = [r for r in regions if glcm5(r).tobytes() == _SINGLE_LEVEL]
    assert any(r.min() != r.max() for r in single)       # not only constants
    assert any(r.shape[1] == 2 and glcm5(r).tobytes() != _SINGLE_LEVEL
               and len(set(r.ravel() >> 5)) == 2 for r in regions)
    for region in regions:
        assert hog8(region).tobytes() == reference_hog8(region).tobytes()
        assert glcm5(region).tobytes() == reference_glcm5(region).tobytes()


def test_orientation_bin_table_matches_float_chain():
    # every integer gradient pair, pushed through the float chain in
    # short odd-length pieces rather than one big array
    g = np.arange(-255, 256)
    gy, gx = (a.ravel().astype(np.float64) for a in np.meshgrid(g, g, indexing="ij"))
    cuts = np.cumsum(np.resize([1, 3, 5, 7, 9, 11, 13], gx.size))
    cuts = cuts[cuts < gx.size]
    want = np.concatenate([
        np.minimum((np.degrees(np.arctan2(y, x)) % 180.0 * (8 / 180.0)).astype(np.int64), 7)
        for x, y in zip(np.split(gx, cuts), np.split(gy, cuts))])
    table = features._BIN_OF_GRADIENT
    assert table.dtype == np.uint8 and table.shape == (511 * 511,)
    index = (gy.astype(np.int64) + 255) * 511 + (gx.astype(np.int64) + 255)
    assert np.array_equal(table[index], want)


def test_glcm_single_level_matches_full_path():
    # the shortcut returns what the full path computes, -0.0 entropy included
    rng = np.random.default_rng(5)
    for low in range(0, 256, 32):
        for shape in ((2, 2), (4, 36), (16, 16), (64, 2)):
            region = rng.integers(low, low + 32, shape).astype(np.uint8)
            out = glcm5(region)
            assert out.tobytes() == reference_glcm5(region).tobytes() == _SINGLE_LEVEL
            assert np.signbit(out[0])
    # width 2 with every pair off the diagonal is two levels, not one
    ent, ene, hom, corr, dis = glcm5(np.tile(np.array([[32, 64]], np.uint8), (8, 1)))
    assert (ent, ene, corr, dis) == (pytest.approx(1 / 6), 0.5, -1.0, 1.0)


@pytest.mark.parametrize("kernel", [hog8, glcm5])
@pytest.mark.parametrize("region", [
    np.zeros((4, 4), np.int64), np.zeros((4, 4), np.float64),
    np.zeros((4, 4), np.int8), np.zeros((4, 4), np.uint16),
    np.zeros((4, 4), bool), [[0, 1], [2, 3]]])
def test_kernels_refuse_non_uint8_regions(kernel, region):
    memo = {}
    for given in (None, memo):                   # a memo changes no check
        with pytest.raises(ValueError, match="uint8"):
            kernel(region, given)
    assert memo == {}


def _natural_keys(qps=(22, 37)):
    """Descriptor keys of every visit of a natural two-CTU frame at each qp."""
    frame, keys = natural_frame(23, h=64, w=128), []
    for qp in qps:
        cfg, state = CodecConfig(qp=qp), SearchState(frame)
        for rect in tile_ctus(frame, cfg.ctu):
            exhaustive_search(rect, cfg, state,
                              visitor=lambda v: keys.append(descriptor_key(v)))
    return keys


def test_memo_gives_the_bytes_of_a_fresh_computation():
    keys = _natural_keys()
    memo = features.texture_memo(keys, {})
    for key in keys:
        for region in features._regions(key):
            for kernel in (hog8, glcm5):
                assert kernel(region, memo).tobytes() == kernel(region).tobytes()
        assert build_vector(key, memo).tobytes() == build_vector(key).tobytes()
    # one entry per distinct region, holding both kernels' results
    assert len(memo) == len({(r.shape, r.tobytes()) for key in keys
                             for r in features._regions(key)}) < 8 * len(keys)
    # a region the memo lacks is not computed into it
    flat = np.full((8, 8), 3, np.uint8)
    for kernel in (hog8, glcm5):
        with pytest.raises(KeyError):
            kernel(flat, {})
    with pytest.raises(KeyError):
        build_vector(keys[0], {})


@pytest.mark.parametrize("kernel", [hog8, glcm5])
def test_memo_hit_is_a_copy(kernel):
    key = _natural_keys(qps=(22,))[0]
    memo = features.texture_memo([key], {})
    region = features._regions(key)[0]
    entries = {mkey: entry.tobytes() for mkey, entry in memo.items()}
    first = kernel(region, memo)
    want = first.tobytes()
    first[:] = 7.0
    second = kernel(region, memo)
    assert second.tobytes() == want == kernel(region).tobytes()
    second[:] = 9.0
    assert kernel(region, memo).tobytes() == want
    assert {mkey: entry.tobytes() for mkey, entry in memo.items()} == entries


def _search_regions(ctu: int, max_depth: int) -> list[np.ndarray]:
    """The texture regions of every visit of a search of a natural frame
    of one CTU."""
    frame = natural_frame(ctu + 7, h=ctu, w=ctu)
    cfg, state, regions = CodecConfig(ctu=ctu, max_depth=max_depth), SearchState(frame), []
    exhaustive_search(Rect(0, 0, ctu, ctu), cfg, state,
                      visitor=lambda v: regions.extend(features._regions(descriptor_key(v))))
    return regions


def _region_shapes(ctu: int, max_depth: int) -> set:
    """Block, quadrant, top, left and L-strip shapes at every block side."""
    sides = [ctu >> d for d in range(max_depth + 1)]
    return {shape for n in sides
            for shape in ((n, n), (n // 2, n // 2), (4, n), (n, 4), (4, 4 + 2 * n))}


def _stacked(regions):
    """``_hog8_stack`` and ``_glcm5_stack`` of ``regions``: one stack per
    shape, in order of first appearance; returns the regions in stack order."""
    by_shape = {}
    for region in regions:
        by_shape.setdefault(region.shape, []).append(region)
    stacks = [np.stack(group) for group in by_shape.values()]
    return ([r for group in by_shape.values() for r in group],
            features._hog8_stack(stacks), features._glcm5_stack(stacks))


@pytest.mark.parametrize("ctu, max_depth", [(64, 4), (32, 3)])
def test_stacked_kernels_give_the_bytes_of_one_region_at_a_time(ctu, max_depth):
    search = _search_regions(ctu, max_depth)
    assert {r.shape for r in search} == _region_shapes(ctu, max_depth)
    # content classes at every shape a search cuts, 2x2 quadrants included
    rng, oracle = np.random.default_rng(ctu), []
    for h, w in sorted(_region_shapes(ctu, max_depth)):
        low = 32 * int(rng.integers(0, 8))
        oracle += [rng.integers(0, 256, (h, w)).astype(np.uint8),
                   np.full((h, w), rng.integers(0, 256), np.uint8),          # flat
                   rng.integers(low, low + 32, (h, w)).astype(np.uint8),     # one level
                   np.tile(np.array([[32, 64]], np.uint8), (h, w // 2))]     # two levels
    regions = search + oracle + _oracle_regions()
    order = np.random.default_rng(1).permutation(len(regions))
    mixed = [regions[i] for i in order]           # flat and busy regions in one stack
    regions, hog, glcm = _stacked(mixed)
    assert any(not h.any() for h in hog)
    assert any(g.tobytes() == _SINGLE_LEVEL for g in glcm)
    assert any(r.shape == (2, 2) for r in regions)
    for region, h, g in zip(regions, hog, glcm):
        assert h.tobytes() == features._hog8(region).tobytes() \
            == reference_hog8(region).tobytes()
        assert g.tobytes() == features._glcm5(region).tobytes() \
            == reference_glcm5(region).tobytes()


def test_stacked_kernels_take_stacks_of_one():
    region = natural_frame(8, h=16, w=16).pixels
    stacks = [region[None], region[:8, :8][None], np.full((1, 4, 4), 9, np.uint8)]
    hog, glcm = features._hog8_stack(stacks), features._glcm5_stack(stacks)
    assert hog.shape == (3, HOG_BINS) and glcm.shape == (3, len(GLCM_STAT_NAMES))
    for stack, h, g in zip(stacks, hog, glcm):
        assert h.tobytes() == features._hog8(stack[0]).tobytes()
        assert g.tobytes() == features._glcm5(stack[0]).tobytes()


@pytest.mark.parametrize("pixels, regions", [(1, 64), (100, 3), (4096, 64)])
def test_texture_memo_holds_each_region_once_and_shares_only_source_regions(
        monkeypatch, pixels, regions):
    # a pass below one region's pixels still takes that one region
    monkeypatch.setattr(features, "_PASS_PIXELS", pixels)
    monkeypatch.setattr(features, "_PASS_REGIONS", regions)
    keys = _natural_keys(qps=(22,))
    shared = {}
    memo = features.texture_memo(keys, shared)
    regions = {(r.shape, r.tobytes()): r for key in keys for r in features._regions(key)}
    source = {(r.shape, r.tobytes()) for key in keys
              for r in features._regions(key)[:features._SOURCE_REGIONS]}
    assert set(memo) == set(regions) and set(shared) == source
    for mkey, region in regions.items():
        want = np.concatenate((reference_hog8(region), reference_glcm5(region)))
        assert memo[mkey].tobytes() == want.tobytes()
        assert memo[mkey] is shared.get(mkey, memo[mkey])
    for key in keys:
        assert build_vector(key, memo).tobytes() == build_vector(key).tobytes()
    # a second walk takes the shared entries it meets and adds its own
    keys, before = _natural_keys(qps=(37,)), dict(shared)
    again = features.texture_memo(keys, shared)
    assert all(again[mkey] is entry for mkey, entry in before.items() if mkey in again)
    assert set(shared) == source | {(r.shape, r.tobytes()) for key in keys
                                    for r in features._regions(key)[:features._SOURCE_REGIONS]}


# -- masks --------------------------------------------------------------------


def test_mask_from_names_and_back():
    assert MASK_GROUPS == ("NI", "PI", "BI", "HOG", "GLCM")
    # any case and order in, canonical order out, duplicates folded
    assert mask_groups(["hog", "NI", "Hog"]) == ["NI", "HOG"]
    assert mask_groups(mask_groups(["glcm", "ni"])) == ["NI", "GLCM"]
    assert mask_groups([]) == []
    with pytest.raises(ValueError, match="unknown feature groups"):
        mask_groups(["NI", "DC"])
    with pytest.raises(ValueError, match="unknown feature groups"):
        mask_indices(["hog", ""])


def test_mask_indices_cover_expected_slots():
    assert mask_indices([]).dtype == bool
    assert mask_indices([]).sum() == 0
    assert mask_indices(MASK_GROUPS).sum() == FEATURE_COUNT
    hog_only = mask_indices(["HOG"])
    assert hog_only.sum() == 8 * HOG_BINS
    names = np.array(FEATURE_NAMES)
    assert all("_hog_" in n for n in names[hog_only])
    assert np.flatnonzero(mask_indices(["ni"])).tolist() == [0, 1, 2, 3]
    assert np.flatnonzero(mask_indices(["pi"])).tolist() == [4, 5, 6]
    assert np.flatnonzero(mask_indices(["bi"])).tolist() == [7, 8, 9, 10]


def test_mask_indices_and_layout_read_one_table():
    rows = describe_layout()
    cover = np.zeros(FEATURE_COUNT, dtype=int)
    for g in MASK_GROUPS:
        sel = mask_indices([g])
        labelled = [r["index"] for r in rows if r["group"] in (g, "SI_" + g)]
        assert np.flatnonzero(sel).tolist() == labelled
        cover += sel
    assert np.all(cover == 1)              # the five groups partition the slots
    assert np.array_equal(mask_indices(["ni", "PI", "glcm"]),
                          mask_indices(["NI"]) | mask_indices(["PI"])
                          | mask_indices(["GLCM"]))


# -- vector assembly -----------------------------------------------------------


def _synthetic_window(seed=30, size=32) -> np.ndarray:
    """A noise causal window: a size x size block with its strips."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (size + REF_BORDER, size + REF_BORDER)).astype(np.uint8)


def _synthetic_visit(seed=30, size=32, qp=22, committed=True):
    """A visit at (64, 32) whose search state holds ``_synthetic_window``
    around the block on a noise frame. When ``committed``, the leaves
    above (cost 2.5 per pixel, depth 1) and to the left (3.5, depth 2)
    are committed; otherwise no pixel is."""
    x, y, b = 64, 32, REF_BORDER
    pix = np.random.default_rng(seed + 1000).integers(0, 256, (128, 128)).astype(np.uint8)
    pix[y - b:y + size, x - b:x + size] = _synthetic_window(seed, size)
    state = SearchState(LumaFrame(pix))
    if committed:
        state.depth_map[:y, :] = 1
        state.jpp_map[:y, :] = 2.5
        state.depth_map[y:, :x] = 2
        state.jpp_map[y:, :x] = 3.5
    cost = RdCost.compute(rate=200.0, dist=1500.0, lam=5.0)
    # parent per pixel over its 64x64 area: j 4.0, rate 0.5, dist 2.0
    parent = RdCost.compute(rate=2048.0, dist=8192.0, lam=4.0)
    return VisitInfo(rect=Rect(x, y, size, size), qp=qp, ns_cost=cost,
                     parent=parent, state=state)


def _vector(visit):
    return build_vector(descriptor_key(visit))


def test_vector_scalar_slots():
    v = _vector(_synthetic_visit())
    assert v.dtype == np.float32 and v.shape == (FEATURE_COUNT,)
    assert v[0] == 2.5 and v[2] == pytest.approx(1 / 4)
    assert v[1] == 3.5 and v[3] == pytest.approx(2 / 4)
    assert (v[4], v[5], v[6]) == (4.0, 0.5, 2.0)
    assert v[7] == v[8] == pytest.approx(32 / 128)
    assert v[9] == pytest.approx(22 / 64)        # 0.34375
    assert v[10] == pytest.approx((1500.0 + 5.0 * 200.0) / 1024)


def test_vector_missing_neighbors_and_parent_are_zero():
    # the strips around the block hold pixels, but none is committed
    visit = _synthetic_visit(committed=False)._replace(parent=None)
    v = _vector(visit)
    assert np.all(v[:7] == 0.0)
    # a committed neighbour fills the same slots the full visit does
    full = _vector(_synthetic_visit())
    assert np.array_equal(v[7:], full[7:])
    assert np.all(full[:7] != 0.0)


def test_vector_texture_slots_match_direct_calls():
    v = _vector(_synthetic_visit(seed=31)).astype(np.float64)
    patch = window_parts(_synthetic_window(seed=31))
    cu = patch["cu"]
    regions = {
        "cu": cu, "q0": cu[:16, :16], "q1": cu[:16, 16:],
        "q2": cu[16:, :16], "q3": cu[16:, 16:],
        "top": patch["top"], "left": patch["left"],
        "lshape": np.hstack([patch["corner"], patch["top"], patch["left"].T]),
    }
    assert tuple(regions) == REGION_NAMES
    for r, name in enumerate(REGION_NAMES):
        base = 11 + r * 13
        want_hog = hog8(regions[name])
        assert np.allclose(v[base:base + 8],
                           want_hog.astype(np.float32), atol=0)
        ent, ene, hom, corr, dis = glcm5(regions[name])
        want = np.array([ent, ene, hom, (corr + 1) / 2, dis / 7],
                        dtype=np.float32)
        assert np.allclose(v[base + 8:base + 13], want, atol=0)


def test_vector_si_entries_stay_in_unit_interval():
    rng = np.random.default_rng(33)
    for seed in rng.integers(0, 10_000, 40):
        v = _vector(_synthetic_visit(seed=int(seed)))
        si = v[11:]
        assert si.min() >= 0.0 and si.max() <= 1.0


# -- descriptor key ------------------------------------------------------------


def _flip(y, x):
    def change(visit):
        visit.state.work[y, x] ^= 1
        return visit
    return change


def _leaf(y, x, jpp=None, depth=None):
    def change(visit):
        if jpp is not None:
            visit.state.jpp_map[y, x] = jpp
        if depth is not None:
            visit.state.depth_map[y, x] = depth
        return visit
    return change


# the synthetic block sits at (x, y) = (64, 32), 32x32
_KEY_INPUTS = {
    "top-strip-pixel": _flip(32 - REF_BORDER, 64 + 31),
    "left-strip-pixel": _flip(32 + 31, 64 - 1),
    "corner-pixel": _flip(32 - 1, 64 - REF_BORDER),
    "block-pixel": _flip(32 + 17, 64 + 5),
    "top-leaf-cost": _leaf(31, 64, jpp=2.75),
    "top-leaf-depth": _leaf(31, 64, depth=3),
    "left-leaf-cost": _leaf(32, 63, jpp=3.25),
    "left-leaf-depth": _leaf(32, 63, depth=1),
    "parent-cost": lambda v: v._replace(
        parent=RdCost.compute(rate=2048.0, dist=8193.0, lam=4.0)),
    "own-cost": lambda v: v._replace(ns_cost=RdCost.compute(rate=201.0, dist=1500.0,
                                                            lam=5.0)),
    "qp": lambda v: v._replace(qp=27),
}


@pytest.mark.parametrize("change", list(_KEY_INPUTS.values()), ids=list(_KEY_INPUTS))
def test_descriptor_key_changes_with_every_input(change):
    key = descriptor_key(_synthetic_visit())
    assert hash(descriptor_key(_synthetic_visit())) == hash(key)
    assert descriptor_key(change(_synthetic_visit())) != key


def test_descriptor_key_ignores_what_build_vector_does_not_read():
    x, y, b, n = 64, 32, REF_BORDER, 32
    visit, other = _synthetic_visit(), _synthetic_visit()
    work = other.state.work
    work[y - b - 1, x:x + n] ^= 1          # row above the top strip
    work[y:y + n, x - b - 1] ^= 1          # column left of the left strip
    work[y - 1, x + n] ^= 1                # right of the top strip
    work[y:y + n, x + n:] ^= 1             # right of the block
    work[y + n:, :] ^= 1                   # below the block
    other.state.jpp_map[y - 1, x + 1] = 9.0          # leaves beside the two read
    other.state.depth_map[y + 1, x - 1] = 0
    other.state.pixels += 4096
    assert not np.array_equal(visit.state.work, work)
    assert descriptor_key(other) == descriptor_key(visit)
    assert _vector(other).tobytes() == _vector(visit).tobytes()


def test_descriptor_key_at_the_frame_edge_reads_only_the_block():
    # at (0, 0) causal_patch fills every strip, so only the block counts
    pix = np.random.default_rng(5).integers(0, 256, (64, 64)).astype(np.uint8)
    state = SearchState(LumaFrame(pix))
    cost = RdCost.compute(rate=100.0, dist=900.0, lam=5.0)
    visit = VisitInfo(rect=Rect(0, 0, 16, 16), qp=32, ns_cost=cost, parent=None,
                      state=state)
    key = descriptor_key(visit)
    assert len(key.window) == (16 + REF_BORDER) ** 2
    win = window_parts(np.frombuffer(key.window, np.uint8).reshape(20, 20))
    assert win["cu"].tobytes() == pix[:16, :16].tobytes()
    assert all((win[strip] == BORDER_FILL).all() for strip in ("top", "left", "corner"))
    state.work[16:, :] ^= 1
    state.work[:, 16:] ^= 1
    assert descriptor_key(visit) == key


def test_descriptor_key_is_the_visit_plus_leaves_and_window():
    visit = _synthetic_visit()
    key = descriptor_key(visit)
    assert DescriptorKey._fields == ("rect", "qp", "ns_cost", "parent", "top_leaf",
                                     "left_leaf", "window")
    assert key[:4] == visit[:4]
    assert (key.top_leaf, key.left_leaf) == ((2.5, 1), (3.5, 2))
    assert key.window == causal_patch(visit.state.work, visit.rect).tobytes()


def test_keys_built_after_the_search_give_the_callback_vectors(monkeypatch):
    # a key snapshots everything its descriptor reads: built once the
    # search has committed over the pixels it copied, and with no
    # causal_patch to call, it gives the bytes the callback built
    frame = natural_frame(15, h=64, w=128)
    cfg = CodecConfig(qp=27)
    state = SearchState(frame)
    keys, inside = [], []

    def visitor(visit):
        keys.append(descriptor_key(visit))
        inside.append(build_vector(keys[-1]).tobytes())

    for rect in tile_ctus(frame, cfg.ctu):
        exhaustive_search(rect, cfg, state, visitor=visitor)
    assert len(keys) == 2 * 85
    assert any(k.window != causal_patch(state.work, k.rect).tobytes() for k in keys)

    def no_patch(pix, rect):
        raise AssertionError("build_vector read the search state")

    monkeypatch.setattr(features, "causal_patch", no_patch)
    assert [build_vector(k).tobytes() for k in keys] == inside


def test_glcm_stat_names_order():
    assert GLCM_STAT_NAMES == ("entropy", "energy", "homogeneity",
                               "correlation", "dissimilarity")
