"""Seeded 8-bit test frames for the benchmark.

A copy of the zoned "mosaic" recipe (flat, ramp, 16 px mosaic, 8 px
mosaic and noise zones), with two changes. The zone styles are a seeded
permutation of a balanced list instead of independent draws, so a frame
of five or more zones holds every style in nearly the same mix for every
seed. The zone side is a parameter, so a one-CTU frame of 32x32 zones
still holds four styles.

Frames are written as binary PGM; the program only ever sees those files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

STYLES = 5


def mosaic(seed, height: int, width: int, zone: int) -> np.ndarray:
    """A ``height`` x ``width`` uint8 frame of ``zone`` x ``zone`` zones;
    the same seed gives the same pixels. ``seed`` is anything
    ``numpy.random.default_rng`` accepts."""
    if zone % 16 or height % zone or width % zone:
        raise ValueError("zone side must be a multiple of 16 and divide the frame sides")
    r = np.random.default_rng(seed)
    zones = (height // zone) * (width // zone)
    styles = r.permutation(np.arange(max(zones, STYLES)) % STYLES)[:zones]
    img = np.zeros((height, width))
    for k, (zy, zx) in enumerate((y, x) for y in range(0, height, zone)
                                 for x in range(0, width, zone)):
        style = styles[k]
        if style == 0:
            z = np.full((zone, zone), r.uniform(40, 215))
        elif style == 1:
            gx, gy = r.uniform(-1, 1, 2)
            yy, xx = np.mgrid[0:zone, 0:zone]
            z = 128 + gx * (xx - zone // 2) + gy * (yy - zone // 2)
        elif style == 2:
            z = np.kron(r.uniform(30, 225, (zone // 16, zone // 16)), np.ones((16, 16)))
        elif style == 3:
            z = np.kron(r.uniform(30, 225, (zone // 8, zone // 8)), np.ones((8, 8)))
        else:
            z = r.uniform(90, 165) + r.normal(0, 24, (zone, zone))
        img[zy:zy + zone, zx:zx + zone] = z
    img += r.normal(0, 3, (height, width))
    return np.clip(img, 0, 255).astype(np.uint8)


def write_pgm(pixels: np.ndarray, path: Path) -> Path:
    h, w = pixels.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())
    return Path(path)
