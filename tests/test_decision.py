"""Threshold gate, pruned CTU search, and frame figures read off the trees."""

import re

import numpy as np
import pytest

from qtpart import codec
from qtpart.codec import CodecConfig, SearchState
from qtpart.decision import (EXPLORE, PRUNE_QT, ThresholdPolicy, decide,
                             encode_frame, pruned_search)
from qtpart.features import (FEATURE_COUNT, FEATURE_NAMES, LAYOUT_HASH,
                             mask_indices)
from qtpart.frame_io import LumaFrame, Rect
from qtpart.mlp import (MlpModel, ModelError, forward, init_model, load_model,
                        save_model)

from helpers import count_patch_calls, natural_frame

CTU_AREA = 64 * 64


def ratio_model(value, out=1):
    """Constant-output net: zero weights, bias pinned to ``value``."""
    m = init_model(hidden=(), out=out, seed=0)
    m.weights[0][:] = 0.0
    m.biases[0][:] = np.float32(value)
    m.meta["layout_hash"] = LAYOUT_HASH
    return m


# ----------------------------------------------------------------------- gate

def test_decide_single_output_ratio():
    pol = ThresholdPolicy(ratio_model(1.0), threshold=1.2)
    assert decide(np.array([1.3]), pol) == PRUNE_QT
    assert decide(np.array([1.1]), pol) == EXPLORE
    assert decide(np.array([1.2]), pol) == PRUNE_QT    # inclusive


def test_decide_two_output_ratio():
    pol = ThresholdPolicy(ratio_model(1.0, out=2), threshold=1.5)
    assert decide(np.array([2.0, 3.0]), pol) == PRUNE_QT
    assert decide(np.array([2.0, 2.9]), pol) == EXPLORE


def test_decide_explores_on_nonpositive_no_split_cost():
    # no ratio to compare: the gate falls back to the full search
    pol = ThresholdPolicy(ratio_model(1.0, out=2), threshold=1.0)
    assert decide(np.array([0.0, 3.0]), pol) == EXPLORE
    assert decide(np.array([-1.0, 3.0]), pol) == EXPLORE
    assert decide(np.array([-1.0, -3.0]), pol) == EXPLORE


def test_decide_rejects_wrong_arity():
    pol = ThresholdPolicy(ratio_model(1.0), threshold=1.0)
    with pytest.raises(ModelError, match="1 or 2 entries"):
        decide(np.array([1.0, 2.0, 3.0]), pol)


# --------------------------------------------------------------------- policy

def test_policy_threshold_must_be_positive():
    # NaN fails every comparison, so the check must be written "not t > 0"
    for threshold in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold must be positive"):
            ThresholdPolicy(ratio_model(1.0), threshold=threshold)


def test_loaded_mask_lives_in_the_first_layer(tmp_path):
    # the policy keeps no mask of its own: the loaded model's masked rows
    # are zero, its meta mask is provenance, and an unknown group is refused
    m = hog_model(["HOG", "GLCM"], tmp_path)
    assert m.meta["mask"] == ["HOG", "GLCM"]
    assert not m.weights[0][mask_indices(["hog", "glcm"])].any()
    assert hog_model([], tmp_path).weights[0][mask_indices(["hog"])].all()
    with pytest.raises(ModelError, match="unknown feature groups"):
        hog_model(["HOG", "DC"], tmp_path)


# -------------------------------------------------------------- pruned search

def test_pruned_search_checks_feature_layout():
    # a foreign model is refused when the policy is built, before any CTU
    m = ratio_model(1.0)
    m.meta["layout_hash"] = "0" * 16
    with pytest.raises(ModelError, match="different feature layout"):
        ThresholdPolicy(m, threshold=1.0)


def test_policy_checks_model_widths():
    narrow = MlpModel(weights=[np.zeros((FEATURE_COUNT - 1, 1), np.float32)],
                      biases=[np.zeros(1, np.float32)],
                      meta={"layout_hash": LAYOUT_HASH})
    with pytest.raises(ModelError, match="input width"):
        ThresholdPolicy(narrow, threshold=1.0)
    wide = MlpModel(weights=[np.zeros((FEATURE_COUNT, 3), np.float32)],
                    biases=[np.zeros(3, np.float32)],
                    meta={"layout_hash": LAYOUT_HASH})
    with pytest.raises(ModelError, match="1 or 2 outputs"):
        ThresholdPolicy(wide, threshold=1.0)


def test_huge_threshold_reproduces_exhaustive_search(tiny_model):
    frame = natural_frame(7)
    cfg = CodecConfig()
    base = encode_frame(frame, cfg)
    pol = ThresholdPolicy(tiny_model, threshold=1e30, active_sizes=(32,))
    gated = encode_frame(frame, cfg, policy=pol)
    assert [t.to_dict() for t in gated.trees] == [t.to_dict() for t in base.trees]
    assert [t.best_j for t in gated.trees] == [t.best_j for t in base.trees]
    assert np.array_equal(gated.state.work, base.state.work)
    assert np.array_equal(gated.state.depth_map, base.state.depth_map)
    assert gated.pixels == base.pixels


def hog_model(mask, tmp_path):
    """A net that sees only HOG slots, each weighted 1e6, written with
    ``mask`` in its metadata and its HOG rows unzeroed, then loaded."""
    m = init_model(hidden=(), out=1, seed=0)
    m.weights[0][:] = 0.0
    m.weights[0][["_hog_" in n for n in FEATURE_NAMES], 0] = 1e6
    m.biases[0][:] = 0.0
    m.meta["mask"] = list(mask)
    path = tmp_path / ("hog-" + "-".join(mask) + ".qtnn")
    save_model(m, path)
    return load_model(path)


def test_masked_model_gates_raw_descriptors(tmp_path):
    # the model sees only HOG slots, and HOG is masked: its HOG rows load
    # as zero, so it predicts 0 from the raw descriptors the memo holds and
    # the gate explores every block; an unmasked model would predict far
    # above the threshold from the same entries
    m = hog_model(["HOG"], tmp_path)
    frame = natural_frame(8)
    cfg = CodecConfig()
    memo = {}
    gated = encode_frame(frame, cfg, ThresholdPolicy(m, threshold=1.0,
                                                     active_sizes=(32, 16)), memo)
    base = encode_frame(frame, cfg)
    assert gated.pixels == base.pixels
    assert [t.to_dict() for t in gated.trees] == [t.to_dict() for t in base.trees]
    raw = np.stack(list(memo.values()))
    assert raw[:, mask_indices(["hog"])].any()
    assert not forward(m, raw).any()
    assert (forward(hog_model([], tmp_path), raw) >= 1.0).any()


def test_masked_pass_leaves_a_shared_memo_intact(tmp_path):
    # the masked pass reads each entry as it is: an unmasked pass over the
    # same memo still sees every histogram and prunes as a fresh run does
    frame, cfg = natural_frame(8), CodecConfig()
    masked = ThresholdPolicy(hog_model(["HOG"], tmp_path), threshold=1.0,
                             active_sizes=(32, 16))
    full = ThresholdPolicy(hog_model([], tmp_path), threshold=1.0, active_sizes=(32, 16))
    memo = {}
    encode_frame(frame, cfg, masked, memo)
    assert len(memo) == 4 * (4 + 16)            # every 32 and 16 of four CTUs
    assert not any(v.flags.writeable for v in memo.values())
    shared = encode_frame(frame, cfg, full, memo)
    fresh = encode_frame(frame, cfg, full)
    assert shared.pixels == fresh.pixels == 4 * 2 * CTU_AREA
    assert [t.to_dict() for t in shared.trees] == [t.to_dict() for t in fresh.trees]


def test_file_with_unzeroed_mask_rows_gates_to_exhaustive_trees(tmp_path):
    # a file written before masks lived in the first layer keeps random
    # rows at its masked slots; it loads with those rows zero, so a model
    # whose only signal sits there explores every block
    m = init_model(hidden=(16,), out=1, seed=5)
    hog = mask_indices(["HOG"])
    m.weights[0][~hog] = 0.0
    m.weights[0][hog] = np.abs(m.weights[0][hog]) * 1e3
    m.weights[1][:] = 1.0
    m.biases[1][:] = 0.5
    m.meta["mask"] = ["HOG"]
    save_model(m, tmp_path / "old.qtnn")
    loaded = load_model(tmp_path / "old.qtnn")
    assert m.weights[0][hog].all() and not loaded.weights[0][hog].any()
    frame, cfg = natural_frame(8), CodecConfig()
    memo = {}
    pol = ThresholdPolicy(loaded, threshold=1.0, active_sizes=(32, 16))
    gated = encode_frame(frame, cfg, pol, memo)
    base = encode_frame(frame, cfg)
    assert [t.to_dict() for t in gated.trees] == [t.to_dict() for t in base.trees]
    assert gated.pixels == base.pixels
    # the rows as written would have pruned
    assert (forward(m, np.stack(list(memo.values()))) >= 1.0).any()


def test_always_prune_at_32_halves_processing():
    frame = natural_frame(8)                   # 128x128, four full CTUs
    cfg = CodecConfig()
    pol = ThresholdPolicy(ratio_model(1e6), threshold=1.0, active_sizes=(32,))
    res = encode_frame(frame, cfg, policy=pol)
    # levels 64 and 32 encode, nothing below
    assert res.pixels == 4 * 2 * CTU_AREA
    assert encode_frame(frame, cfg).pixels == 4 * 4 * CTU_AREA
    for tree in res.trees:
        for node in tree.preorder():
            assert node.rect.w >= 32
            if node.rect.w == 32:
                assert node.chosen == "NS" and node.qt_j is None


def test_inactive_sizes_recurse_normally():
    frame = natural_frame(8)
    cfg = CodecConfig()
    pol = ThresholdPolicy(ratio_model(1e6), threshold=1.0, active_sizes=(16,))
    res = encode_frame(frame, cfg, policy=pol)
    # 64 and 32 levels explore, 16s are gated shut, no 8s
    assert res.pixels == 4 * 3 * CTU_AREA
    sizes = {n.rect.w for t in res.trees for n in t.preorder()}
    assert sizes == {64, 32, 16}


def test_exhaustive_encode_builds_no_patch(monkeypatch):
    calls = count_patch_calls(monkeypatch)
    encode_frame(natural_frame(8), CodecConfig())
    assert calls == []


@pytest.mark.parametrize("ratio", [0.5, 2.0])       # explore all, prune all
def test_gated_search_builds_one_patch_per_active_visit(monkeypatch, ratio):
    calls = count_patch_calls(monkeypatch)
    pol = ThresholdPolicy(ratio_model(ratio), threshold=1.0, active_sizes=(32, 16))
    res = encode_frame(natural_frame(8), CodecConfig(), policy=pol)
    active = [n.rect for t in res.trees for n in t.preorder() if n.rect.w in (32, 16)]
    assert calls == active
    assert len(active) == 4 * (4 if ratio > 1 else 4 + 16)


@pytest.mark.parametrize("ctu, max_depth, sizes", [
    (64, 3, (8,)), (64, 3, (7,)), (64, 3, (32, 8)), (64, 1, (32,)),
    (32, 2, (64,)), (64, 3, ()), (64, 3, ("32",)), (64, 3, (32, "16")),
])
def test_unconsulted_active_sizes_rejected_before_search(monkeypatch, ctu,
                                                         max_depth, sizes):
    # the frame loop and a direct call of the public search both refuse
    def must_not_run(*args, **kwargs):
        raise AssertionError("a search ran before the active-size check")

    monkeypatch.setattr(codec, "search", must_not_run)
    pol = ThresholdPolicy(ratio_model(1e6), threshold=1.0, active_sizes=sizes)
    cfg = CodecConfig(ctu=ctu, max_depth=max_depth)
    refused = sorted(set(sizes) - set(codec.split_sizes(cfg)), reverse=True)
    frame = natural_frame(8)
    for run in (lambda: encode_frame(frame, cfg, policy=pol),
                lambda: pruned_search(Rect(0, 0, ctu, ctu), cfg, SearchState(frame),
                                      pol, {})):
        with pytest.raises(ValueError, match=re.escape(f"block sizes {refused} refused")):
            run()


# -------------------------------------------------------------- frame results

def test_encode_frame_skips_cropped_tiles():
    frame = natural_frame(9, 128, 200)         # 8px remainder column
    cfg = CodecConfig()
    res = encode_frame(frame, cfg)
    assert res.covered_area == 6 * CTU_AREA
    assert len(res.trees) == 6


@pytest.mark.parametrize("ctu", [32, 64])
def test_encode_frame_with_remainders_matches_its_full_ctu_crop(ctu):
    frame = natural_frame(12, 130, 200)        # 2px bottom, 8px right remainder
    crop = LumaFrame(frame.pixels[:128, :192])
    cfg = CodecConfig(ctu=ctu, max_depth=2)
    a, b = encode_frame(frame, cfg), encode_frame(crop, cfg)
    assert [t.to_dict() for t in a.trees] == [t.to_dict() for t in b.trees]
    assert len(a.trees) == (128 // ctu) * (192 // ctu)
    assert a.pixels == b.pixels
    assert a.rate_bits() == b.rate_bits()
    assert a.sse() == b.sse()
    assert a.covered_area == b.covered_area == 128 * 192
    assert np.array_equal(a.state.work[:128, :192], b.state.work)


def test_encode_frame_requires_one_full_ctu(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a search ran on a frame with no full CTU")

    monkeypatch.setattr(codec, "search", must_not_run)
    with pytest.raises(ValueError, match="32x32 frame holds no full 64x64 CTU"):
        encode_frame(natural_frame(0, 32, 32), CodecConfig())


@pytest.mark.parametrize("ctu", [32, 64])
@pytest.mark.parametrize("gated", [False, True])
def test_frame_result_accounting(ctu, gated):
    # the trees' leaf distortions are the frame's squared error, exactly
    frame = natural_frame(10, 128, 128)
    cfg = CodecConfig(ctu=ctu)
    pol = ThresholdPolicy(ratio_model(1e6), threshold=1.0,
                          active_sizes=(ctu // 2,)) if gated else None
    res = encode_frame(frame, cfg, pol)
    assert res.pixels == res.state.pixels
    assert res.rate_bits() == pytest.approx(sum(t.rate_bits() for t in res.trees))
    o = frame.pixels.astype(np.float64)
    w = res.state.work.astype(np.float64)
    assert res.sse() == float(np.sum((o - w) ** 2))
    assert res.covered_area == 128 * 128


def test_frame_result_sse_covers_full_tiles_only():
    frame = natural_frame(11, 128, 200)
    res = encode_frame(frame, CodecConfig())
    o = frame.pixels.astype(np.float64)
    w = res.state.work.astype(np.float64)
    manual = float(np.sum((o[:, :192] - w[:, :192]) ** 2))
    assert res.sse() == manual
    # the cropped strip is never touched
    assert np.array_equal(res.state.work[:, 192:], frame.pixels[:, 192:])
