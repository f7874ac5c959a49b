"""8-bit luma frame I/O, CTU tiling, DC prediction and causal reference
extraction.

Frames are single-plane 8-bit arrays. Two on-disk formats are supported:
binary PGM (P5, maxval 255) and headerless raw luma with caller-supplied
dimensions. ``tile_ctus`` is the one tiling rule: a frame is covered by
the full coding-tree-unit squares that fit in it, in raster order. The
right and bottom remainders are never searched, and a frame that holds
no full CTU is refused. Reference availability is geometry: a strip
beside a block is used whole when it lies inside the frame and is
BORDER_FILL otherwise. ``codec.search`` takes CTUs in raster order and
their blocks in z-order, so every in-frame strip is then reconstructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BORDER_FILL = 128   # substitute for unavailable reference samples
REF_BORDER = 4      # causal reference rows/columns kept per side
CTU_SIZES = (32, 64)      # the largest transform is 64x64


class FrameFormatError(ValueError):
    """Malformed or inconsistent frame file."""


@dataclass(frozen=True)
class Rect:
    """Pixel rectangle: top-left corner plus size."""

    x: int
    y: int
    w: int
    h: int

    @property
    def area(self) -> int:
        return self.w * self.h


class LumaFrame:
    """Immutable single-plane 8-bit frame."""

    def __init__(self, pixels: np.ndarray):
        arr = np.array(pixels, dtype=np.uint8, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise FrameFormatError("frame must be a non-empty 2-D array")
        arr.flags.writeable = False
        self._pix = arr

    @property
    def pixels(self) -> np.ndarray:
        return self._pix

    @property
    def width(self) -> int:
        return self._pix.shape[1]

    @property
    def height(self) -> int:
        return self._pix.shape[0]


def load_frame(path: str | Path, fmt: str = "pgm8",
               width: int | None = None, height: int | None = None) -> LumaFrame:
    """Read a frame from disk.

    Args:
        path: file to read.
        fmt: "pgm8" for binary PGM, "rawy" for headerless 8-bit luma.
        width, height: required for "rawy", ignored otherwise.
    """
    data = Path(path).read_bytes()
    if fmt == "pgm8":
        return _parse_pgm(data)
    if fmt == "rawy":
        if width is None or height is None:
            raise FrameFormatError("rawy format needs explicit width and height")
        if width <= 0 or height <= 0:
            raise FrameFormatError(f"non-positive rawy dimensions {width}x{height}")
        if len(data) != width * height:
            raise FrameFormatError(
                f"rawy size mismatch: {len(data)} bytes for {width}x{height}")
        arr = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
        return LumaFrame(arr)
    raise FrameFormatError(f"unknown frame format {fmt!r}")


def save_pgm(frame: LumaFrame, path: str | Path) -> None:
    """Write a canonical binary PGM (single-space header, maxval 255)."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.pixels.tobytes())


def _parse_pgm(data: bytes) -> LumaFrame:
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c == b"#":                      # comment runs to end of line
                while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FrameFormatError("truncated PGM header")
        return data[start:pos]

    if next_token() != b"P5":
        raise FrameFormatError("not a binary PGM (P5) file")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except FrameFormatError:
        raise
    except ValueError as exc:
        raise FrameFormatError("non-numeric PGM header field") from exc
    if maxval != 255:
        raise FrameFormatError(f"unsupported PGM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise FrameFormatError("non-positive PGM dimensions")
    pos += 1                                   # single whitespace before raster
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise FrameFormatError("PGM raster shorter than header promises")
    return LumaFrame(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))


def tile_ctus(frame: LumaFrame, ctu: int) -> list[Rect]:
    """The full ctu x ctu CTUs of a frame, in raster order.

    Pixels right of the last full column or below the last full row
    belong to no CTU. A frame that holds no full CTU is refused.
    """
    if ctu not in CTU_SIZES:
        raise ValueError(f"ctu must be one of {CTU_SIZES}")
    w, h = frame.width, frame.height
    if w < ctu or h < ctu:
        raise FrameFormatError(f"{w}x{h} frame holds no full {ctu}x{ctu} CTU")
    return [Rect(x, y, ctu, ctu)
            for y in range(0, h - ctu + 1, ctu) for x in range(0, w - ctu + 1, ctu)]


def reference_dc(pix: np.ndarray, rect: Rect) -> float:
    """DC prediction of a block from the working picture.

    The mean of the reconstructed row directly above the block and the
    reconstructed column directly to its left. Each counts only when its
    whole REF_BORDER-deep strip lies inside the frame (the rule under
    which ``causal_patch`` copies a strip); with neither, the prediction
    is BORDER_FILL. The integer sum of 8-bit samples is divided once, so
    the result is the correctly rounded mean. Reads only ``pix`` inside
    those two strips and builds no patch; a block that is not inside the
    frame is refused.
    """
    if not (0 <= rect.x <= pix.shape[1] - rect.w and 0 <= rect.y <= pix.shape[0] - rect.h):
        raise ValueError(f"rect {rect} outside frame {pix.shape}")
    x0, x1, y0, y1 = rect.x, rect.x + rect.w, rect.y, rect.y + rect.h
    total = count = 0
    if y0 >= REF_BORDER:
        total += sum(pix[y0 - 1, x0:x1].tolist())
        count += rect.w
    if x0 >= REF_BORDER:
        total += sum(pix[y0:y1, x0 - 1].tolist())
        count += rect.h
    return total / count if count else float(BORDER_FILL)


def causal_patch(pix: np.ndarray, rect: Rect) -> np.ndarray:
    """Copy a block and its causal reference strips as one window.

    ``pix`` is the working picture (source pixels progressively replaced
    by reconstructions). The (h + REF_BORDER) x (w + REF_BORDER) window
    holds the block at its bottom right, the top strip above it, the left
    strip beside it and their corner. A strip that reaches outside the
    frame is BORDER_FILL as a whole, the corner unless both strips are
    inside. Never reads right of or below the block.
    """
    if not (0 <= rect.x <= pix.shape[1] - rect.w and 0 <= rect.y <= pix.shape[0] - rect.h):
        raise ValueError(f"rect {rect} outside frame {pix.shape}")
    b, x, y, x1, y1 = REF_BORDER, rect.x, rect.y, rect.x + rect.w, rect.y + rect.h
    if x >= b and y >= b:
        return pix[y - b:y1, x - b:x1].copy()
    win = np.full((rect.h + b, rect.w + b), BORDER_FILL, dtype=np.uint8)
    win[b:, b:] = pix[y:y1, x:x1]
    if y >= b:
        win[:b, b:] = pix[y - b:y, x:x1]
    if x >= b:
        win[b:, :b] = pix[y:y1, x - b:x]
    return win
