"""Hash every artifact of a fixed, seeded qtpart command-line pipeline.

    python tools/artifact_hashes.py OUT

Runs the pipeline below in one process against the ``src/`` of the
checkout that holds this script and writes everything into OUT, which
must not exist yet or be empty. Frames come from a seeded generator in
this file, so they do not depend on the checkout. Each command's stdout,
stderr and exit code are kept as ``<step>.log`` beside its artifacts.
Prints one ``sha256  path`` line per file under OUT, paths relative to
OUT, and exits 1 when a command failed.

Config files embed the paths given on the command line, so compare two
checkouts by running the script of each with the same OUT:

    python tools/artifact_hashes.py /tmp/qt-hashes > a.txt
    rm -r /tmp/qt-hashes
    python ../other-checkout/tools/artifact_hashes.py /tmp/qt-hashes > b.txt
    diff a.txt b.txt

A refactor that claims identical results should leave no difference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qtpart.cli import main  # noqa: E402  (imported from the path above)

FRAMES = {          # name -> (seed, height, width)
    "train1": (11, 192, 192),
    "train2": (12, 192, 192),
    "held": (13, 128, 128),
    "odd": (14, 130, 200),    # remainders on both sides; CTU 32 only
}


def frame(seed: int, height: int, width: int) -> np.ndarray:
    """32x32 zones, each flat, a ramp, an 8x8 mosaic or noise, under mild
    noise: flat and busy blocks, so both split outcomes occur at every
    size."""
    r = np.random.default_rng(seed)
    img = np.empty((height, width))
    yy, xx = np.mgrid[0:32, 0:32] - 16
    for y in range(0, height, 32):
        for x in range(0, width, 32):
            style = r.integers(4)
            if style == 0:
                z = np.full((32, 32), r.uniform(40, 215))
            elif style == 1:
                gx, gy = r.uniform(-2, 2, 2)
                z = 128 + gx * xx + gy * yy
            elif style == 2:
                z = np.kron(r.uniform(30, 225, (4, 4)), np.ones((8, 8)))
            else:
                z = r.uniform(90, 165) + r.normal(0, 24, (32, 32))
            view = img[y:y + 32, x:x + 32]
            view[:] = z[:view.shape[0], :view.shape[1]]
    img += r.normal(0, 2, (height, width))
    return np.clip(img, 0, 255).astype(np.uint8)


def steps(out: Path) -> list[tuple[str, list[str]]]:
    f = {name: str(out / f"{name}.pgm") for name in FRAMES}

    def o(name):
        return str(out / name)

    train = ["--frames", f["train1"], f["train2"]]
    return [
        ("describe", ["features", "describe", "--out", o("layout.json")]),
        ("build", ["dataset", "build", *train, "--sizes", "32", "--seed", "7",
                   "--out", o("n32.qtds")]),
        ("build_multi", ["dataset", "build", *train, "--sizes", "32,16",
                         "--seed", "7", "--out", o("n32_16.qtds")]),
        ("build_ctu32", ["dataset", "build", "--frames", f["odd"], "--ctu", "32",
                         "--sizes", "8,16", "--qps", "22,37", "--seed", "7",
                         "--out", o("ctu32.qtds")]),
        ("trajectories", ["dataset", "trajectories", *train, "--qps", "22,32",
                          "--seed", "7", "--out", o("q.traj.qtds")]),
        ("train_n32", ["train", "reg", "--dataset", o("n32.qtds"), "--epochs", "6",
                       "--batch", "64", "--lr", "3e-4", "--seed", "2",
                       "--out", o("n32.qtnn")]),
        ("train_n32_16", ["train", "reg", "--dataset", o("n32_16.qtds"),
                          "--variant", "N32_16", "--mask", "hog", "--epochs", "6",
                          "--batch", "64", "--lr", "3e-4", "--seed", "2",
                          "--out", o("n32_16.qtnn")]),
        # the mask whose rows move a one-output model's predictions most;
        # at threshold 0.7 its gate prunes some 32x32 blocks and explores the rest
        ("train_n32_nipibi", ["train", "reg", "--dataset", o("n32.qtds"),
                              "--mask", "ni,pi,bi", "--epochs", "6", "--batch", "64",
                              "--lr", "3e-4", "--seed", "2",
                              "--out", o("n32_nipibi.qtnn")]),
        ("train_dqn", ["train", "dqn", "--trajectories", o("q.traj.qtds"),
                       "--steps", "300", "--batch", "32", "--lr", "1e-3",
                       "--hidden", "64,32", "--seed", "3", "--out", o("q.qtnn")]),
        ("encode", ["encode", "--frame", f["held"], "--qp", "27",
                    "--tree", o("encode.tree.json"), "--out", o("encode.json")]),
        ("encode_ctu32", ["encode", "--frame", f["odd"], "--ctu", "32", "--qp", "37",
                          "--tree", o("encode32.tree.json"), "--out", o("encode32.json")]),
        ("gate_n32", ["encode", "--frame", f["held"], "--qp", "27",
                      "--model", o("n32.qtnn"), "--threshold", "1.0",
                      "--tree", o("gate_n32.tree.json"), "--out", o("gate_n32.json")]),
        ("gate_n32_16", ["encode", "--frame", f["held"], "--qp", "27",
                         "--model", o("n32_16.qtnn"), "--threshold", "1.0",
                         "--active-sizes", "32,16", "--tree", o("gate_n32_16.tree.json"),
                         "--out", o("gate_n32_16.json")]),
        ("gate_n32_nipibi", ["encode", "--frame", f["held"], "--qp", "27",
                             "--model", o("n32_nipibi.qtnn"), "--threshold", "0.7",
                             "--tree", o("gate_n32_nipibi.tree.json"),
                             "--out", o("gate_n32_nipibi.json")]),
        ("sweep", ["sweep", "--frames", f["held"], "--model", o("n32.qtnn"),
                   "--thresholds", "0.8,1.0,1.2,1e30", "--out", o("sweep")]),
        ("sweep_permuted", ["sweep", "--frames", f["held"], "--model", o("n32.qtnn"),
                            "--qps", "37,22,32,27", "--thresholds", "0.8,1.0,1.2,1e30",
                            "--out", o("sweep_permuted")]),
        ("ablate", ["ablate", "--dataset", o("n32.qtds"), "--frames", f["held"],
                    "--thresholds", "0.8,1.0,1.2,1e30", "--epochs", "3", "--batch", "64",
                    "--lr", "3e-4", "--seed", "2", "--out", o("ablate")]),
        # two frames: per-qp sums run over frames, passes share descriptors
        ("sweep_two_frames", ["sweep", "--frames", f["held"], f["odd"],
                              "--model", o("n32.qtnn"),
                              "--thresholds", "0.8,1.0,1.2,1e30",
                              "--out", o("sweep_two_frames")]),
        # a two-output model gated at 32 and 16: memo hits on 16x16 windows
        # and the ratio of the two predicted costs
        ("sweep_n32_16", ["sweep", "--frames", f["held"], f["odd"],
                          "--model", o("n32_16.qtnn"), "--active-sizes", "32,16",
                          "--thresholds", "0.8,1.0,1.2,1e30",
                          "--out", o("sweep_n32_16")]),
        ("ablate_two_frames", ["ablate", "--dataset", o("n32.qtds"),
                               "--frames", f["held"], f["odd"],
                               "--thresholds", "0.8,1.0,1.2,1e30",
                               "--configs", "none,wo_hog", "--epochs", "3",
                               "--batch", "64", "--lr", "3e-4", "--seed", "2",
                               "--out", o("ablate_two_frames")]),
    ]


def run(out: Path) -> bool:
    """Write the frames, run every step; True when all of them exit 0."""
    for name, (seed, h, w) in FRAMES.items():
        pix = frame(seed, h, w)
        (out / f"{name}.pgm").write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii")
                                          + pix.tobytes())
    ok = True
    for name, argv in steps(out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        (out / f"{name}.log").write_text(
            f"{stdout.getvalue()}--- stderr\n{stderr.getvalue()}--- exit {rc}\n")
        ok &= rc == 0
    return ok


def main_hashes(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_hashes.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    ok = run(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main_hashes(sys.argv[1:]))
