import numpy as np
import pytest

from qtpart.codec import CodecConfig, SearchState, exhaustive_search
from qtpart.frame_io import (BORDER_FILL, CTU_SIZES, FrameFormatError,
                             LumaFrame, Rect, causal_patch, load_frame,
                             reference_dc, save_pgm, tile_ctus)

from helpers import natural_frame, reference_causal_patch, window_parts


def test_rect_area():
    assert Rect(4, 8, 16, 32).area == 512


def test_luma_frame_is_immutable_uint8():
    f = LumaFrame(np.arange(64).reshape(8, 8))
    assert f.pixels.dtype == np.uint8
    assert (f.width, f.height) == (8, 8)
    with pytest.raises(ValueError):
        f.pixels[0, 0] = 1


def test_luma_frame_rejects_bad_shapes():
    with pytest.raises(FrameFormatError):
        LumaFrame(np.zeros(16))
    with pytest.raises(FrameFormatError):
        LumaFrame(np.zeros((0, 8)))


def test_luma_frame_equality():
    a = LumaFrame(np.full((8, 8), 7))
    assert a == LumaFrame(np.full((8, 8), 7))
    assert a != LumaFrame(np.zeros((8, 8)))
    assert a != "something else"


# -- PGM ---------------------------------------------------------------


def test_pgm_roundtrip_bytes(tmp_path):
    f = natural_frame(0, h=48, w=40)
    p = tmp_path / "f.pgm"
    save_pgm(f, p)
    raw = p.read_bytes()
    assert raw == b"P5\n40 48\n255\n" + f.pixels.tobytes()
    assert load_frame(p) == f


def test_pgm_accepts_comments_and_whitespace(tmp_path):
    pix = np.arange(16, dtype=np.uint8).reshape(4, 4)
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # binary\n# a comment line\n  4\t4\n255\n" + pix.tobytes())
    assert np.array_equal(load_frame(p).pixels, pix)


@pytest.mark.parametrize("payload,msg", [
    (b"P2\n4 4\n255\n" + bytes(16), "not a binary PGM"),
    (b"P5\n4 4\n65535\n" + bytes(32), "unsupported PGM maxval"),
    (b"P5\n4 x\n255\n" + bytes(16), "non-numeric"),
    (b"P5\n0 4\n255\n", "non-positive PGM dimensions"),
    (b"P5\n4 4\n255\n" + bytes(15), "raster shorter"),
    (b"P5\n4 4\n", "truncated PGM header"),
])
def test_pgm_rejects_malformed(tmp_path, payload, msg):
    p = tmp_path / "bad.pgm"
    p.write_bytes(payload)
    with pytest.raises(FrameFormatError, match=msg):
        load_frame(p)


def test_rawy_roundtrip(tmp_path):
    f = natural_frame(1, h=32, w=64)
    p = tmp_path / "f.yuv"
    p.write_bytes(f.pixels.tobytes())
    assert load_frame(p, fmt="rawy", width=64, height=32) == f
    with pytest.raises(FrameFormatError, match="explicit width and height"):
        load_frame(p, fmt="rawy")
    with pytest.raises(FrameFormatError):
        load_frame(p, fmt="rawy", width=64, height=33)


@pytest.mark.parametrize("width, height", [(-2, -8), (0, 16), (16, 0), (-4, 4)])
def test_rawy_refuses_non_positive_dimensions(tmp_path, width, height):
    # (-2, -8) multiplies to the 16 bytes on disk, so only the sign check
    # stands between it and numpy's reshape
    p = tmp_path / "f.yuv"
    p.write_bytes(bytes(16))
    with pytest.raises(FrameFormatError,
                       match=f"non-positive rawy dimensions {width}x{height}"):
        load_frame(p, fmt="rawy", width=width, height=height)


def test_unknown_format(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(bytes(64))
    with pytest.raises(FrameFormatError, match="unknown frame format"):
        load_frame(p, fmt="png")


# -- tiling ------------------------------------------------------------


def test_tile_ctus_returns_full_ctus_in_raster_order():
    f = LumaFrame(np.zeros((130, 200), np.uint8))
    rects = tile_ctus(f, 64)
    assert rects == [Rect(x, y, 64, 64) for y in (0, 64) for x in (0, 64, 128)]
    # the 8-pixel right and 2-pixel bottom remainders belong to no CTU
    rects = tile_ctus(f, 32)
    assert len(rects) == 24      # 4 rows x 6 cols
    assert rects == [Rect(x, y, 32, 32) for y in range(0, 128, 32)
                     for x in range(0, 192, 32)]


def test_tile_ctus_rejects_bad_inputs():
    f = LumaFrame(np.zeros((64, 64), np.uint8))
    with pytest.raises(ValueError, match=str(CTU_SIZES)):
        tile_ctus(f, 48)
    with pytest.raises(FrameFormatError, match="64x4 frame holds no full 64x64 CTU"):
        tile_ctus(LumaFrame(np.zeros((4, 64), np.uint8)), 64)
    with pytest.raises(FrameFormatError, match="48x32 frame holds no full 64x64 CTU"):
        tile_ctus(LumaFrame(np.zeros((32, 48), np.uint8)), 64)
    with pytest.raises(FrameFormatError, match="63x200 frame holds no full 64x64 CTU"):
        tile_ctus(LumaFrame(np.zeros((200, 63), np.uint8)), 64)
    assert tile_ctus(LumaFrame(np.zeros((32, 48), np.uint8)), 32) == [Rect(0, 0, 32, 32)]


# -- causal patches ----------------------------------------------------


def test_patch_at_origin_is_all_fill():
    f = natural_frame(2, h=64, w=64)
    win = causal_patch(f.pixels, Rect(0, 0, 16, 16))
    assert win.shape == (20, 20) and win.dtype == np.uint8
    p = window_parts(win)
    assert np.array_equal(p["cu"], f.pixels[:16, :16])
    for strip in ("top", "left", "corner"):
        assert (p[strip] == BORDER_FILL).all()
    assert p["top"].shape == (4, 16) and p["left"].shape == (16, 4)
    assert p["corner"].shape == (4, 4)


def test_patch_reads_only_encoded_pixels():
    # the first block of CTU (64, 0), once CTU (0, 0) is searched: its
    # in-frame strip holds committed reconstructions, not source pixels
    f = natural_frame(3, h=64, w=128)
    state = SearchState(f)
    exhaustive_search(Rect(0, 0, 64, 64), CodecConfig(qp=37), state)
    p = window_parts(causal_patch(state.work, Rect(64, 0, 32, 32)))
    assert (state.depth_map[:32, 60:64] >= 0).all()
    assert np.array_equal(p["left"], state.work[:32, 60:64])
    assert not np.array_equal(p["left"], f.pixels[:32, 60:64])
    assert (p["top"] == BORDER_FILL).all() and (p["corner"] == BORDER_FILL).all()


def test_patch_partial_strip_is_unavailable():
    # a strip that reaches past the frame edge is all fill, never the
    # part of it that lies inside the frame
    f = natural_frame(4, h=64, w=64)
    p = window_parts(causal_patch(f.pixels, Rect(16, 2, 16, 16)))
    assert (p["top"] == BORDER_FILL).all() and (p["corner"] == BORDER_FILL).all()
    assert np.array_equal(p["left"], f.pixels[2:18, 12:16])
    assert reference_dc(f.pixels, Rect(16, 2, 16, 16)) == \
        f.pixels[2:18, 15].mean()
    p = window_parts(causal_patch(f.pixels, Rect(2, 16, 16, 16)))
    assert (p["left"] == BORDER_FILL).all() and (p["corner"] == BORDER_FILL).all()
    assert np.array_equal(p["top"], f.pixels[12:16, 2:18])


def test_patch_never_reads_right_or_below():
    base = natural_frame(5, h=64, w=64).pixels.copy()
    probe = base.copy()
    probe[:, 32:] = 0            # poison everything right of the block
    probe[32:, :] = 0            # and below it
    a = causal_patch(base, Rect(16, 16, 16, 16))
    b = causal_patch(probe, Rect(16, 16, 16, 16))
    assert np.array_equal(a, b)


def test_patch_inside_the_frame_is_one_slice():
    pix = natural_frame(5, h=64, w=64).pixels
    win = causal_patch(pix, Rect(16, 8, 16, 16))
    assert np.array_equal(win, pix[4:24, 12:32])
    assert win.flags.c_contiguous and not np.shares_memory(win, pix)


@pytest.mark.parametrize("x, y", [(8, 0), (0, 8), (0, 0), (8, 8), (8, 2), (2, 8)],
                         ids=["top-out", "left-out", "both-out", "both-in",
                              "top-partial", "left-partial"])
def test_patch_equals_reference_strips(x, y):
    # the reference copies or fills each strip on its own; a strip that
    # straddles the frame edge is fill as a whole, corner included
    pix = natural_frame(12, h=32, w=32).pixels
    rect = Rect(x, y, 8, 8)
    p = window_parts(causal_patch(pix, rect))
    ref = reference_causal_patch(pix, rect)
    assert (ref.top_available, ref.left_available) == (y >= 4, x >= 4)
    for name in ("cu", "top", "left", "corner"):
        assert p[name].tobytes() == getattr(ref, name).tobytes(), name


def test_patch_strip_availability_is_geometry():
    # each strip is a copy when it lies inside the frame and all fill
    # otherwise, whatever the pixels hold; the DC reads the same strips
    pix = natural_frame(6, h=32, w=32).pixels
    for x, y in ((8, 8), (0, 8), (8, 0), (24, 24)):
        p = window_parts(causal_patch(pix, Rect(x, y, 8, 8)))
        for strip, inside, src in ((p["top"], y >= 4, pix[y - 4:y, x:x + 8]),
                                   (p["left"], x >= 4, pix[y:y + 8, x - 4:x]),
                                   (p["corner"], x >= 4 and y >= 4,
                                    pix[y - 4:y, x - 4:x])):
            if inside:
                assert np.array_equal(strip, src)
            else:
                assert (strip == BORDER_FILL).all()
        refs = [pix[y - 1, x:x + 8]] * (y >= 4) + [pix[y:y + 8, x - 1]] * (x >= 4)
        want = float(np.concatenate(refs).astype(np.int64).mean()) if refs else 128.0
        assert reference_dc(pix, Rect(x, y, 8, 8)) == want


def test_patch_rejects_out_of_frame_rect():
    f = natural_frame(7, h=32, w=32)
    with pytest.raises(ValueError, match="outside frame"):
        causal_patch(f.pixels, Rect(24, 24, 16, 16))
    for rect in (Rect(24, 8, 16, 16), Rect(8, 24, 16, 16), Rect(-4, 8, 8, 8)):
        with pytest.raises(ValueError, match="outside frame"):
            reference_dc(f.pixels, rect)
