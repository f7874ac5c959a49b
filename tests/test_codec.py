import math

import numpy as np
import pytest

from qtpart import codec, dataset, features
from qtpart.codec import (MODE_OVERHEAD_BITS, NS, QP_MAX, QT, SPLIT_BITS,
                          TRANSFORM_SIZES, CodecConfig, RdCost, SearchState,
                          choose, dct2d, encode_ns, exhaustive_search, lambda_of_qp,
                          psnr_of_mse, qstep_of_qp, qt_cost_table, search,
                          split_sizes)
from qtpart.decision import ThresholdPolicy, encode_frame
from qtpart.features import build_vector, descriptor_key
from qtpart.frame_io import LumaFrame, Rect, causal_patch, reference_dc, tile_ctus
from qtpart.mlp import init_model

from helpers import (bottom_up_qt_cost, chosen_leaves, dyadic_tables,
                     natural_frame, reference_causal_patch, reference_encode_ns,
                     window_parts)


# -- rate control laws --------------------------------------------------


def test_lambda_spot_values():
    # 0.57 * 2^((qp-12)/3), recomputed from the law
    assert lambda_of_qp(27) == 18.24
    assert lambda_of_qp(12) == 0.57
    for qp in range(0, 52):
        assert lambda_of_qp(qp) == 0.57 * 2.0 ** ((qp - 12) / 3.0)


def test_qstep_spot_values():
    assert qstep_of_qp(22) == 8.0
    assert qstep_of_qp(4) == 1.0
    for qp in range(0, 52):
        assert qstep_of_qp(qp) == 2.0 ** ((qp - 4) / 6.0)


@pytest.mark.parametrize("qp", [-1, 52])
def test_qp_range_checked(qp):
    with pytest.raises(ValueError, match="outside"):
        lambda_of_qp(qp)
    with pytest.raises(ValueError, match="outside"):
        qstep_of_qp(qp)


# -- transform -----------------------------------------------------------


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_dct_constant_block_dc(n):
    c = dct2d(np.full((n, n), 3.0))
    assert c[0, 0] == pytest.approx(3.0 * n, rel=1e-12)
    assert np.abs(c.ravel()[1:]).max() < 1e-9


def dct_by_definition(x):
    """Orthonormal 2-D DCT-II written out as explicit cosine sums, taken
    along rows and then along columns."""
    n = len(x)

    def basis(k, i):
        scale = math.sqrt((1.0 if k == 0 else 2.0) / n)
        return scale * math.cos(math.pi * (2 * i + 1) * k / (2 * n))

    rows = [[sum(x[i][j] * basis(v, j) for j in range(n)) for v in range(n)]
            for i in range(n)]
    return np.array([[sum(rows[i][v] * basis(u, i) for i in range(n))
                      for v in range(n)] for u in range(n)])


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_dct_roundtrip_and_parseval(n):
    rng = np.random.default_rng(n)
    x = rng.normal(0, 50, (n, n))
    c = dct2d(x)
    assert np.allclose(dct2d(c, inverse=True), x, atol=1e-9)
    # orthonormal transform preserves energy
    assert np.sum(c * c) == pytest.approx(np.sum(x * x), rel=1e-12)
    assert np.abs(c - dct_by_definition(x.tolist())).max() < 1e-9


def test_dct_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        dct2d(np.zeros((8, 16)))
    with pytest.raises(ValueError, match="square"):
        dct2d(np.zeros((12, 12)))


# -- cost type and config ------------------------------------------------


def test_rdcost_compute():
    c = RdCost.compute(rate=10.0, dist=3.0, lam=2.5)
    assert (c.rate, c.dist, c.j) == (10.0, 3.0, 3.0 + 2.5 * 10.0)
    with pytest.raises(ValueError, match="non-negative"):
        RdCost.compute(rate=-1.0, dist=0.0, lam=1.0)


def test_codec_config_validation():
    cfg = CodecConfig()
    assert (cfg.ctu, cfg.max_depth, cfg.qp) == (64, 3, 32)
    with pytest.raises(ValueError, match="ctu must be one of"):
        CodecConfig(ctu=48)
    with pytest.raises(ValueError, match="ctu must be one of"):
        CodecConfig(ctu=128)               # beyond the largest transform
    with pytest.raises(ValueError, match="max_depth"):
        CodecConfig(max_depth=0)
    with pytest.raises(ValueError, match="below 4x4"):
        CodecConfig(ctu=32, max_depth=4)
    with pytest.raises(ValueError, match="outside"):
        CodecConfig(qp=99)


def test_split_sizes():
    assert split_sizes(CodecConfig()) == (64, 32, 16)
    assert split_sizes(CodecConfig(ctu=32, max_depth=1)) == (32,)
    assert split_sizes(CodecConfig(max_depth=4)) == (64, 32, 16, 8)


@pytest.mark.parametrize("ctu, max_depth", [(64, 1), (64, 2), (64, 3), (64, 4),
                                            (32, 1), (32, 2), (32, 3)])
def test_one_split_size_rule(monkeypatch, ctu, max_depth):
    """Collection takes exactly the sides below the CTU that can split,
    trajectories run exactly when 32 and 16 are among them, and the gate
    takes exactly the sides that can split."""
    def accepts(run) -> bool:
        try:
            run()
        except ValueError as exc:
            assert "refused; allowed sides are" in str(exc)
            return False
        return True

    monkeypatch.setattr(dataset, "_walk_frame", lambda frame, cfg: ([], {}))
    monkeypatch.setattr(codec, "search", lambda *args, **kwargs: None)
    model = init_model(hidden=(), out=1, seed=0)
    model.meta["layout_hash"] = features.LAYOUT_HASH
    cfg = CodecConfig(ctu=ctu, max_depth=max_depth)
    frame = LumaFrame(np.zeros((64, 64), np.uint8))
    sides = range(4, 129)
    proper = set(split_sizes(cfg)) - {ctu}
    assert {s for s in sides
            if accepts(lambda: dataset.collect_records([frame], (32,), cfg, (s,)))} \
        == proper
    assert accepts(lambda: dataset.collect_trajectories([frame], (32,), cfg)) \
        == ({32, 16} <= proper)
    gate = [ThresholdPolicy(model, 1.0, (s,)) for s in sides]
    assert {p.active_sizes[0] for p in gate
            if accepts(lambda: encode_frame(frame, cfg, p))} == set(split_sizes(cfg))


def test_choose_gives_a_tie_to_no_split():
    assert choose(1.0, 2.0) == NS
    assert choose(1.0, 1.0) == NS
    assert choose(1.0, None) == NS
    assert choose(2.0, 1.0) == QT


def test_at_qp_keeps_other_fields():
    cfg = CodecConfig(ctu=32, max_depth=2, qp=22)
    other = cfg.at_qp(37)
    assert other.qp == 37
    assert (other.ctu, other.max_depth) == (32, 2)


def test_split_signal_cost():
    assert SPLIT_BITS == 2.0
    assert CodecConfig(qp=27).split_cost == 18.24 * 2.0


def test_config_resolves_its_qp_once():
    for qp in range(QP_MAX + 1):
        cfg = CodecConfig(qp=qp)
        assert (cfg.lam, cfg.step, cfg.split_cost) == (
            lambda_of_qp(qp), qstep_of_qp(qp), lambda_of_qp(qp) * SPLIT_BITS)
        other = CodecConfig(qp=(qp + 17) % (QP_MAX + 1)).at_qp(qp)
        assert other == cfg
        assert (other.lam, other.step, other.split_cost) == (
            cfg.lam, cfg.step, cfg.split_cost)
    # derived fields are neither arguments nor shown in repr
    assert "lam" not in repr(cfg) and "split_cost" not in repr(cfg)
    with pytest.raises(TypeError):
        CodecConfig(lam=1.0)
    for qp in (-1, QP_MAX + 1, 99):
        with pytest.raises(ValueError, match=rf"^qp {qp} outside \[0, 51\]$"):
            CodecConfig(qp=qp)
        with pytest.raises(ValueError, match=rf"^qp {qp} outside \[0, 51\]$"):
            CodecConfig().at_qp(qp)


# -- single-block encode --------------------------------------------------


def _lone_block(pixels, qp, ctu):
    """A whole-frame block with no reconstructed neighbours."""
    state = SearchState(LumaFrame(pixels))
    cfg = CodecConfig(ctu=ctu, max_depth=2, qp=qp)
    return state.work, reference_dc(state.work, Rect(0, 0, ctu, ctu)), cfg


def test_flat_block_at_fill_value_costs_only_rate():
    # value 128 equals the no-reference DC prediction: zero residual,
    # so J is purely the signalling rate (4 mode bits + 1 bit/coeff)
    block, dc, cfg = _lone_block(np.full((32, 32), 128, np.uint8), qp=32, ctu=32)
    assert dc == 128.0
    cost, recon = encode_ns(block, dc, cfg)
    assert cost.dist == 0.0
    assert cost.rate == MODE_OVERHEAD_BITS + 32 * 32
    assert cost.j == lambda_of_qp(32) * (MODE_OVERHEAD_BITS + 32 * 32)
    assert np.array_equal(recon, np.full((32, 32), 128))


def test_encode_ns_cost_identity_and_recon_range():
    f = natural_frame(8, h=32, w=32)
    block, dc, cfg = _lone_block(f.pixels, qp=27, ctu=32)
    before = block.copy()
    cost, recon = encode_ns(block, dc, cfg)
    assert np.array_equal(block, before)          # the view is never written
    assert cost.j == cost.dist + lambda_of_qp(27) * cost.rate
    assert recon.dtype == np.uint8
    # distortion is the SSE against the source block
    sse = float(np.sum((recon.astype(np.int64) - block.astype(np.int64)) ** 2))
    assert cost.dist == sse


def test_dc_prediction_uses_reconstructed_neighbors():
    # frame of constant 57; once the top and left blocks are committed,
    # the middle block predicts 57 exactly and pays no distortion
    pix = np.full((32, 32), 57, np.uint8)
    frame = LumaFrame(pix)
    state = SearchState(frame)
    cfg = CodecConfig(ctu=32, max_depth=2, qp=32)
    for rect in (Rect(0, 0, 16, 16), Rect(16, 0, 16, 16), Rect(0, 16, 16, 16)):
        block = state.work[rect.y:rect.y + 16, rect.x:rect.x + 16]
        cost, recon = encode_ns(block, reference_dc(state.work, rect), cfg)
        state.commit(rect, 1, recon, cost)
    patch = window_parts(causal_patch(state.work, Rect(16, 16, 16, 16)))
    assert (patch["top"] == 57).all() and (patch["left"] == 57).all()
    dc = reference_dc(state.work, Rect(16, 16, 16, 16))
    assert dc == 57.0
    cost, recon = encode_ns(state.work[16:, 16:], dc, cfg)
    assert cost.dist == 0.0
    assert np.array_equal(recon, np.full((16, 16), 57))


def test_rate_decreases_with_coarser_quantization():
    f = natural_frame(9, h=32, w=32)
    rates = []
    for qp in (22, 37):
        block, dc, cfg = _lone_block(f.pixels, qp=qp, ctu=32)
        cost, _ = encode_ns(block, dc, cfg)
        rates.append(cost.rate)
    assert rates[0] > rates[1]


def _oracle_cases():
    """Seeded (pixels, rect) cases: block sides 4-64 at an interior
    position, on the frame's top and left edges, at its top-left corner
    and on its bottom-right corner, so all four top/left availability
    combinations occur; noise, flat 0 and flat 255 blocks under opposite
    references, so the reconstruction must clip."""
    rng = np.random.default_rng(77)
    side = 2 * 64 + 8
    for n in TRANSFORM_SIZES:
        for x, y in ((64, 64), (0, 64), (64, 0), (0, 0), (side - n, side - n)):
            rect = Rect(x, y, n, n)
            for content in ("noise", "zero", "full"):
                pix = rng.integers(0, 256, (side, side)).astype(np.uint8)
                if content != "noise":
                    v = 0 if content == "zero" else 255
                    pix[:] = 255 - v
                    pix[y:y + n, x:x + n] = v
                yield pix, rect


def test_lean_codec_path_byte_identical_to_reference():
    # the oracle copies or fills each strip on its own by the in-frame
    # rule, and its availability flags feed a float-mean DC
    cases = mismatches = 0
    flags, clipped, exponents, qps = set(), 0, set(), set()
    for i, (pix, rect) in enumerate(_oracle_cases()):
        patch = window_parts(causal_patch(pix, rect))
        ref_patch = reference_causal_patch(pix, rect)
        for name in ("cu", "top", "left", "corner"):
            mismatches += patch[name].tobytes() != getattr(ref_patch, name).tobytes()
        flags.add((ref_patch.top_available, ref_patch.left_available))
        refs = [ref_patch.top[-1]] * ref_patch.top_available \
            + [ref_patch.left[:, -1]] * ref_patch.left_available
        ref_dc = float(np.concatenate(refs).mean()) if refs else 128.0
        dc = reference_dc(pix, rect)
        mismatches += dc != ref_dc
        block = pix[rect.y:rect.y + rect.h, rect.x:rect.x + rect.w]
        for qp in (0, 22, 51, i % (QP_MAX + 1)):
            cfg = CodecConfig(qp=qp)
            cost, recon = encode_ns(block, dc, cfg)
            ref_cost, ref_recon = reference_encode_ns(ref_patch, cfg)
            mismatches += cost != ref_cost
            mismatches += recon.tobytes() != ref_recon.tobytes()
            clipped += bool(recon.min() == 0 or recon.max() == 255)
            qps.add(qp)
            cases += 1
            if qp == 0:
                levels = np.rint(dct2d(ref_patch.cu - ref_dc) / qstep_of_qp(0))
                exponents |= set(np.frexp(levels[levels != 0])[1].tolist())
    assert cases == 5 * 5 * 3 * 4
    assert mismatches == 0
    assert flags == {(False, False), (True, False), (False, True), (True, True)}
    assert qps == set(range(QP_MAX + 1))
    assert clipped > 0
    assert set(range(1, 16)) <= exponents         # |level| spans 1 .. 2**14


def test_causal_patch_strips_are_copies():
    # inside the frame and at its left edge, where the left strip is fill
    for x, y in ((16, 16), (0, 16)):
        pix = natural_frame(3, h=64, w=64).pixels.copy()
        win = causal_patch(pix, Rect(x, y, 16, 16))
        patch = window_parts(win)
        assert np.array_equal(patch["cu"], pix[y:y + 16, x:x + 16])
        assert np.array_equal(patch["top"], pix[y - 4:y, x:x + 16])
        before = win.copy()
        pix[:] = 255 - pix
        assert np.array_equal(win, before)


# -- search state ---------------------------------------------------------


def test_state_commit_and_neighbor_lookup():
    f = natural_frame(10, h=64, w=64)
    state = SearchState(f)
    assert state.neighbor_at(10, 10) is None          # nothing encoded yet
    assert state.neighbor_at(-1, 0) is None           # off frame
    cost = RdCost.compute(rate=100.0, dist=50.0, lam=2.0)
    recon = np.full((32, 32), 7, np.uint8)
    state.commit(Rect(0, 0, 32, 32), 1, recon, cost)
    assert (state.depth_map[:32, :32] == 1).all()
    assert (state.depth_map[32:, :] == -1).all()
    assert np.array_equal(state.work[:32, :32], recon)
    jpp, depth = state.neighbor_at(31, 31)
    assert depth == 1
    assert jpp == cost.j / 1024.0


def test_state_orig_is_the_frames_read_only_pixels():
    f = natural_frame(11, h=64, w=64)
    state = SearchState(f)
    assert state.orig is f.pixels
    with pytest.raises(ValueError):
        state.orig[0, 0] = 1
    state.work[0, 0] = 255 - state.work[0, 0]     # the working copy is writable
    assert state.work[0, 0] != f.pixels[0, 0]


# -- visits -------------------------------------------------------------


def test_visit_patch_is_built_once_on_first_read(monkeypatch):
    # the search builds no patch; each descriptor key copies its block's
    # window once, from the search state its callback sees
    f = natural_frame(13, h=64, w=64)
    state = SearchState(f)
    reads, seen, inner = [], [], features.causal_patch

    def recording(pix, rect):
        reads.append((pix is state.work, rect))
        return inner(pix, rect)

    def visitor(visit):
        assert len(reads) == len(seen)         # nothing built before the read
        build_vector(descriptor_key(visit))
        seen.append(visit.rect)
        assert len(reads) == len(seen)

    monkeypatch.setattr(features, "causal_patch", recording)
    exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(), state, visitor=visitor)
    assert len(seen) == 85
    assert reads == [(True, rect) for rect in seen]
    exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(), SearchState(f),
                      visitor=lambda visit: None)
    assert len(reads) == 85                    # a visit alone builds none


def test_visit_is_five_plain_fields():
    f = natural_frame(14, h=64, w=64)
    state = SearchState(f)
    visits = []
    exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(qp=27), state,
                      visitor=visits.append)
    root, first_child = visits[0], visits[1]
    assert root._fields == ("rect", "qp", "ns_cost", "parent", "state")
    assert (root.rect, root.qp, root.parent, root.state) == (
        Rect(0, 0, 64, 64), 27, None, state)
    assert first_child.parent == root.ns_cost
    with pytest.raises(AttributeError):
        root.qp = 22


def test_visited_blocks_still_hold_source_pixels():
    # encode_ns codes the view state.work[rect]; every visit, pruned or
    # not, must find there the source pixels, never a reconstruction
    f = natural_frame(15)
    visits = 0
    for mode in ("visitor", "prune"):
        state = SearchState(f)

        def check(visit):
            nonlocal visits
            r = visit.rect
            assert np.array_equal(state.work[r.y:r.y + r.h, r.x:r.x + r.w],
                                  state.orig[r.y:r.y + r.h, r.x:r.x + r.w])
            visits += 1
            return r.x % 64 == 32               # prune some blocks

        for y in (0, 64):
            for x in (0, 64):
                search(Rect(x, y, 64, 64), CodecConfig(), state, **{mode: check})
        assert (state.depth_map >= 0).all()
    assert visits == 4 * 85 + 4 * 13             # 64, 4x32 and 8 unpruned 16s


# -- full search ----------------------------------------------------------


def test_search_rejects_partial_roots():
    f = natural_frame(11, h=64, w=64)
    with pytest.raises(ValueError, match="full 64x64 CTU"):
        exhaustive_search(Rect(0, 0, 32, 32), CodecConfig(), SearchState(f))


def test_exhaustive_pixel_count_is_depth_plus_one_levels():
    # every depth level re-codes the full 64x64 area once
    f = natural_frame(12, h=64, w=64)
    for md, want in ((1, 2 * 4096), (3, 4 * 4096)):
        state = SearchState(f)
        exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(max_depth=md), state)
        assert state.pixels == want


def test_flat_frame_prefers_no_split():
    f = LumaFrame(np.full((64, 64), 200, np.uint8))
    state = SearchState(f)
    tree = exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(), state)
    assert tree.chosen == NS
    assert [n.rect for n in chosen_leaves(tree)] == [Rect(0, 0, 64, 64)]


def test_blocky_frame_prefers_split():
    quads = np.kron(np.array([[30, 220], [220, 30]]), np.ones((32, 32)))
    f = LumaFrame(quads.astype(np.uint8))
    state = SearchState(f)
    tree = exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(qp=22), state)
    assert tree.chosen == QT


def test_chosen_leaves_tile_the_root():
    f = natural_frame(13, h=64, w=64)
    tree = exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(), SearchState(f))
    covered = np.zeros((64, 64), int)
    for leaf in chosen_leaves(tree):
        r = leaf.rect
        covered[r.y:r.y + r.h, r.x:r.x + r.w] += 1
    assert (covered == 1).all()


def test_deeper_search_never_costs_more():
    f = natural_frame(14, h=64, w=64)
    js = []
    for md in (1, 2, 3):
        tree = exhaustive_search(Rect(0, 0, 64, 64),
                                 CodecConfig(max_depth=md), SearchState(f))
        js.append(tree.best_j)
    assert js[2] <= js[1] <= js[0]


def test_search_is_deterministic():
    f = natural_frame(15, h=64, w=64)
    a = exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(), SearchState(f))
    b = exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(), SearchState(f))
    assert a.to_dict() == b.to_dict()
    assert a.best_j == b.best_j


def test_tree_dict_and_rate_bits_consistent():
    f = natural_frame(16, h=64, w=64)
    cfg = CodecConfig()
    tree = exhaustive_search(Rect(0, 0, 64, 64), cfg, SearchState(f))

    def manual_rate(d):
        if d["chosen"] == NS:
            return d["ns"]["rate"]
        return SPLIT_BITS + sum(manual_rate(c) for c in d["children"])

    assert tree.rate_bits() == pytest.approx(
        manual_rate(tree.to_dict()), rel=1e-12)


# -- split-cost aggregation ------------------------------------------------


def test_qt_cost_table_hand_case():
    # four leaf children 10+12+8+9 plus a split charge of 2 -> 41
    levels = [np.array([[50.0]]), np.array([[10.0, 12.0], [8.0, 9.0]])]
    assert qt_cost_table(levels, delta_qt=2.0) == 41.0
    assert qt_cost_table(levels, delta_qt=20.0) == 59.0


def test_qt_cost_table_interior_min():
    # a mid-level block whose own cost undercuts its children must be
    # kept whole inside the aggregation
    lvl0 = np.array([[0.0]])
    lvl1 = np.array([[1.0, 100.0], [100.0, 100.0]])
    lvl2 = np.full((4, 4), 30.0)
    # child (0,0): min(1, 4*30+2) = 1; others: min(100, 122) = 100
    assert qt_cost_table([lvl0, lvl1, lvl2], delta_qt=2.0) == 1 + 300 + 2


def test_qt_cost_table_matches_iterative_oracle():
    rng = np.random.default_rng(77)
    for _ in range(25):
        levels = dyadic_tables(rng, depth=3)
        delta = float(rng.integers(0, 1 << 12)) / 64.0
        assert qt_cost_table(levels, delta) == bottom_up_qt_cost(levels, delta)


def test_qt_cost_table_validates_shapes():
    with pytest.raises(ValueError, match="at least two"):
        qt_cost_table([np.zeros((1, 1))], 0.0)
    with pytest.raises(ValueError, match="shape"):
        qt_cost_table([np.zeros((1, 1)), np.zeros((3, 3))], 0.0)


# -- quality metric ---------------------------------------------------------


def test_psnr_values():
    assert psnr_of_mse(0.0) == math.inf
    assert psnr_of_mse(255.0 ** 2 / 64) == pytest.approx(10 * math.log10(64.0),
                                                         rel=1e-12)
    assert psnr_of_mse(1.0) == pytest.approx(48.1308036086791, abs=1e-10)
    with pytest.raises(ValueError, match="negative"):
        psnr_of_mse(-1.0)


def test_in_frame_strips_are_reconstructed_at_every_visit():
    # the frame_io rule uses a strip when it lies inside the frame; under
    # the search order each strip lies wholly inside or wholly outside the
    # frame, and every in-frame strip pixel is already committed
    rng = np.random.default_rng(16)
    runs = [(shape, ctu, depth) for shape in ((130, 140), (140, 130))
            for ctu, depths in ((32, (1, 2, 3)), (64, (1, 2, 3, 4)))
            for depth in depths]
    visits = {False: 0, True: 0}
    for i, ((h, w), ctu, depth) in enumerate(runs):
        frame = natural_frame(40 + i, h=h, w=w)
        cfg = CodecConfig(ctu=ctu, max_depth=depth, qp=(0, 22, 37, 51)[i % 4])
        for pruned in (False, True):
            state = SearchState(frame)

            def check(visit):
                r = visit.rect
                for y0, y1, x0, x1 in ((r.y - 4, r.y, r.x, r.x + r.w),
                                       (r.y, r.y + r.h, r.x - 4, r.x),
                                       (r.y - 4, r.y, r.x - 4, r.x)):
                    part = state.depth_map[max(y0, 0):y1, max(x0, 0):x1]
                    if y0 < 0 or x0 < 0:
                        assert part.size == 0, (r, y0, x0)
                    else:
                        assert part.shape == (y1 - y0, x1 - x0)
                        assert (part >= 0).all(), (r, y0, x0)
                visits[pruned] += 1

            prune = (lambda visit: rng.random() < 0.3) if pruned else None
            for rect in tile_ctus(frame, ctu):
                search(rect, cfg, state, visitor=check, prune=prune)
            assert (state.depth_map[:h - h % ctu, :w - w % ctu] >= 0).all()
    # two shapes, each 16 CTUs of 32 and 4 of 64; 1 + 4 + ... visits per CTU
    assert visits[False] == 2 * (16 * (5 + 21 + 85) + 4 * (5 + 21 + 85 + 341))
    assert 0 < visits[True] < visits[False]


@pytest.mark.parametrize("before, bad, message", [
    ([(0, 0)], (0, 0), "already searched"),
    ([], (64, 0), "before its left or upper neighbour"),
    ([], (0, 64), "before its left or upper neighbour"),
    ([(0, 0), (64, 0)], (64, 64), "before its left or upper neighbour"),
    ([(0, 0), (0, 64)], (64, 64), "before its left or upper neighbour"),
    ([], (-64, 0), "outside frame"),
    ([(0, 0), (64, 0)], (128, 0), "outside frame"),
], ids=["repeated", "right-first", "below-first", "no-left", "no-upper",
        "left-of-frame", "right-of-frame"])
def test_search_refuses_ctus_out_of_order_before_any_encode(monkeypatch, before,
                                                            bad, message):
    state = SearchState(natural_frame(17))
    cfg = CodecConfig()
    for x, y in before:
        search(Rect(x, y, 64, 64), cfg, state)
    encodes = []
    monkeypatch.setattr(codec, "encode_ns",
                        lambda *a: encodes.append(a) or encode_ns(*a))
    depth_map, pixels = state.depth_map.copy(), state.pixels
    with pytest.raises(ValueError, match=message):
        search(Rect(*bad, 64, 64), cfg, state)
    assert encodes == []
    assert np.array_equal(state.depth_map, depth_map) and state.pixels == pixels
