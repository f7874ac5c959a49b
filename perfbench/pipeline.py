"""The researcher pipeline the benchmark drives: set-up, then the collect,
train and evaluate stages, each a short list of ``qtpart`` CLI commands
called in-process through ``qtpart.cli.main``.

Every command is one operation. A command fails when it exits non-zero,
raises, or when a check on its outputs does not hold; every failure is
recorded with its reason and the run goes on.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter_ns

from qtpart.cli import main as qtpart_main
from qtpart.dataset import load_records, load_trajectories
from qtpart.features import LAYOUT_HASH
from qtpart.metrics import TradeoffPoint, interpolate_bd_at
from qtpart.mlp import load_model

import frames

QPS = (22, 27, 32, 37)
QP_ARG = ",".join(str(q) for q in QPS)
CTU = 64
PIXELS_PER_CTU = 4 * CTU * CTU          # every level of a depth-3 search
REFERENCE_SEED = 20251125

# frame role -> (height, width, zone side). The frames a workload seeds
# come from --seed, all others from REFERENCE_SEED. "collect" and
# "heldout" have 32 px zones, so the one-CTU collect frame holds four
# content styles and the held-out frame all five in a fixed mix.
FRAME_SIZES = {"collect": (64, 64, 32), "heldout": (256, 256, 32),
               "ref_train": (128, 128, 64), "ref_heldout": (64, 128, 64)}

REG_EPOCHS, REG_BATCH = 30, 256
REG_ARGS = ["--variant", "N32", "--batch", str(REG_BATCH), "--epochs", str(REG_EPOCHS),
            "--lr", "1e-3", "--seed", "0"]
DQN_STEPS = 300
DQN_ARGS = ["--batch", "64", "--steps", str(DQN_STEPS), "--seed", "0"]
GATE_THRESHOLD = "1.0"
SWEEP_THRESHOLDS = (1.6, 2.5, 4.0, 6.0, 1e30)


def ctus(role: str) -> int:
    """Full 64x64 CTUs in the frame of ``role``."""
    h, w, _ = FRAME_SIZES[role]
    return (h // CTU) * (w // CTU)


class Pipeline:
    """Runs CLI commands under ``work`` and keeps the operation tally.

    ``windows`` holds (command name, start_ns, end_ns) of every command,
    so traced spans can be attributed to the command they ran in.
    """

    def __init__(self, work: Path, seed: int, jobs: int, seeded: tuple):
        self.work, self.seed, self.jobs, self.seeded = work, seed, jobs, seeded
        self.attempted = 0
        self.failures: list[str] = []
        self.first_hashes: dict[str, dict] = {}
        self.windows: list[tuple[str, int, int]] = []
        self.failed_ops: set = set()
        self._last_op: dict[str, int] = {}
        self.frames: dict[str, Path] = {}
        self.pixels_saved = self.sweep_pixels_saved = 0

    # -- operations -----------------------------------------------------

    def command(self, name: str, argv: list[str]) -> float | None:
        """Run one CLI command; returns its wall time, or None on failure."""
        self.attempted += 1
        self._last_op[name] = self.attempted
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = qtpart_main(argv)
        except Exception as exc:                 # a crash is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter_ns()
        self.windows.append((name, t0, t1))
        if rc != 0:
            self.check(name, False, f"exit {rc} {err.getvalue().strip()}")
            return None
        return (t1 - t0) / 1e9

    def check(self, name: str, ok: bool, what: str) -> bool:
        """Record a failed output check against the command ``name``."""
        if not ok:
            self.failures.append(f"{name}: {what}")
            self.failed_ops.add(self._last_op.get(name, name))
        return ok

    def same_bytes(self, key: str, paths: list[Path]) -> bool:
        """True when ``paths`` hash the same as the first time ``key`` ran."""
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(paths)}
        first = self.first_hashes.setdefault(key, digest)
        return self.check(key, digest == first,
                          "artifacts differ from the first run of this command")

    @staticmethod
    def outputs(target: Path) -> list[Path]:
        """A command's artifacts: the target file and its side files, or
        every file of a target directory."""
        if target.is_dir():
            return [p for p in target.iterdir() if p.is_file()]
        return [p for p in target.parent.iterdir()
                if p.is_file() and p.name.startswith(target.name)]

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Write the frames, from ``seed`` for the roles in ``seeded`` and
        from REFERENCE_SEED for the others, and build the reference record
        set the train stage fits."""
        fdir = self.work / "frames"
        fdir.mkdir(parents=True, exist_ok=True)
        for role, (h, w, zone) in FRAME_SIZES.items():
            base = self.seed if role in self.seeded else REFERENCE_SEED
            rng_seed = [base, list(FRAME_SIZES).index(role)]
            self.frames[role] = frames.write_pgm(frames.mosaic(rng_seed, h, w, zone),
                                                 fdir / f"{role}.pgm")
        target = self.work / "setup" / "ref.qtds"
        target.parent.mkdir(exist_ok=True)
        if self.command("setup.dataset_build", [
                "dataset", "build", "--frames", str(self.frames["ref_train"]),
                "--qps", QP_ARG, "--sizes", "32", "--seed", "0",
                "--out", str(target)]) is not None:
            self._check_records("setup.dataset_build", target)
            self.same_bytes("setup.dataset_build", self.outputs(target))
        self.ref_records = target

    # -- stages ---------------------------------------------------------

    def collect(self) -> dict:
        d = self.work / "collect"
        d.mkdir(exist_ok=True)
        frame = str(self.frames["collect"])
        rec, traj = d / "records.qtds", d / "traj.qtds"
        times = {}
        t = self.command("dataset_build", [
            "dataset", "build", "--frames", frame, "--qps", QP_ARG,
            "--sizes", "32", "--seed", "0", "--jobs", str(self.jobs),
            "--out", str(rec)])
        if t is not None and self._check_records("dataset_build", rec) \
                and self.same_bytes("dataset_build", self.outputs(rec)):
            times["dataset_build_s"] = t
        t = self.command("dataset_trajectories", [
            "dataset", "trajectories", "--frames", frame, "--qps", QP_ARG,
            "--seed", "0", "--jobs", "1", "--out", str(traj)])
        if t is not None and self._check_trajectories(traj) \
                and self.same_bytes("dataset_trajectories", self.outputs(traj)):
            times["dataset_trajectories_s"] = t
        self.trajectories = traj
        return times

    def train(self) -> dict:
        d = self.work / "train"
        d.mkdir(exist_ok=True)
        reg, q = d / "n32.qtnn", d / "q.qtnn"
        values = {}
        t = self.command("train_reg", ["train", "reg", "--dataset",
                                       str(self.ref_records), *REG_ARGS,
                                       "--out", str(reg)])
        if t is not None:
            loss = self._final_value("train_reg", reg.with_name(reg.name + ".loss.csv"),
                                     "train_loss")
            if loss is not None and self._check_model("train_reg", reg, 1) \
                    and self.same_bytes("train_reg", self.outputs(reg)):
                values["train_reg_s"] = t
                values["reg_final_loss"] = loss
        t = self.command("train_dqn", ["train", "dqn", "--trajectories",
                                       str(self.trajectories), *DQN_ARGS,
                                       "--out", str(q)])
        if t is not None:
            td = self._final_value("train_dqn", q.with_name(q.name + ".diag.csv"),
                                   "td_error")
            if td is not None and self._check_model("train_dqn", q, 2) \
                    and self.same_bytes("train_dqn", self.outputs(q)):
                values["train_dqn_s"] = t
        self.model = reg
        return values

    def evaluate(self) -> dict:
        d = self.work / "evaluate"
        d.mkdir(exist_ok=True)
        frame = str(self.frames["heldout"])
        full_px = PIXELS_PER_CTU * ctus("heldout")
        exhaustive, gated, ok = 0.0, 0.0, True
        self.pixels_saved = self.sweep_pixels_saved = 0
        for qp in QPS:
            anchor_px = None
            for kind, extra in (("exhaustive", []),
                                ("gated", ["--model", str(self.model),
                                           "--threshold", GATE_THRESHOLD])):
                name = f"encode_{kind}"
                out = d / f"q{qp}.{kind}.json"
                t = self.command(name, ["encode", "--frame", frame, "--qp", str(qp),
                                        *extra, "--out", str(out)])
                if t is None:
                    ok = False
                    continue
                report = json.loads(out.read_text())
                px = report["processed_pixels"]
                ok &= self.check(name, isinstance(report["psnr_db"], float)
                                 and math.isfinite(report["psnr_db"]),
                                 f"qp {qp}: PSNR {report['psnr_db']!r} is not finite")
                if kind == "exhaustive":
                    ok &= self.check(name, px == full_px,
                                     f"qp {qp}: {px} processed pixels, want {full_px}")
                    exhaustive += t
                    anchor_px = px
                else:
                    ok &= self.check(name, anchor_px is not None and px <= anchor_px,
                                     f"qp {qp}: gated {px} > exhaustive {anchor_px} px")
                    self.pixels_saved += (anchor_px or px) - px
                    gated += t
                ok &= self.same_bytes(f"{name}_q{qp}", self.outputs(out))
        values = {"encode_exhaustive_s": exhaustive, "encode_gated_s": gated} if ok else {}

        out = d / "sweep"
        t = self.command("sweep", [
            "sweep", "--frames", str(self.frames["ref_heldout"]), "--qps", QP_ARG,
            "--model", str(self.model),
            "--thresholds", ",".join(repr(v) for v in SWEEP_THRESHOLDS),
            "--jobs", str(self.jobs), "--out", str(out)])
        if t is not None:
            bd = self._check_sweep(out)
            if bd is not None and self.same_bytes("sweep", self.outputs(out)):
                values.update(sweep_s=t, bd_at_dc10_pct=bd[0], bd_at_dc20_pct=bd[1])
        return values

    # -- output checks --------------------------------------------------

    def _check_records(self, name: str, path: Path) -> bool:
        try:
            records = load_records(path)
        except ValueError as exc:
            return self.check(name, False, f"load_records: {exc}")
        sizes = {r.cu_size for r in records}
        ok = self.check(name, bool(records), "empty record set")
        for size in sizes:
            labels = [r.optimal for r in records if r.cu_size == size]
            ok &= self.check(name, labels.count("NS") == labels.count("QT"),
                             f"size {size}: NS and QT counts differ")
        return ok

    def _check_trajectories(self, path: Path) -> bool:
        try:
            trajs = load_trajectories(path)
        except ValueError as exc:
            return self.check("dataset_trajectories", False, f"load_trajectories: {exc}")
        labels = [t.optimal for t in trajs]
        return self.check("dataset_trajectories",
                          bool(trajs) and labels.count("NS") == labels.count("QT"),
                          "trajectory set empty or unbalanced")

    def _check_model(self, name: str, path: Path, out_dim: int) -> bool:
        try:
            model = load_model(path)
        except (RuntimeError, ValueError) as exc:
            return self.check(name, False, f"load_model: {exc}")
        return self.check(name, model.meta.get("layout_hash") == LAYOUT_HASH
                          and model.out_dim == out_dim,
                          "model layout hash or output width mismatch")

    def _final_value(self, name: str, path: Path, column: str) -> float | None:
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        value = float(rows[-1][column]) if rows else math.nan
        return value if self.check(name, math.isfinite(value),
                                   f"final {column} {value} is not finite") else None

    def _check_sweep(self, out: Path) -> tuple[float, float] | None:
        summary = json.loads((out / "summary.json").read_text())
        points = [TradeoffPoint(p["threshold"], p["delta_c_pct"], p["bd_rate_pct"])
                  for p in summary["points"]]
        pts = sorted(points, key=lambda p: p.threshold)
        never = [p for p in pts if p.threshold >= 1e30]
        ok = self.check("sweep", len(never) == 1 and never[0].delta_c == 0
                        and never[0].bd_rate == 0,
                        "threshold 1e30 point must have zero delta-C and rate delta")
        ok &= self.check("sweep", all(a.delta_c >= b.delta_c
                                      for a, b in zip(pts, pts[1:])),
                         "delta-C increases with the threshold")
        bd = (interpolate_bd_at(points, 10.0), interpolate_bd_at(points, 20.0))
        ok &= self.check("sweep", None not in bd, "10% or 20% delta-C not reached")
        with (out / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.sweep_pixels_saved = sum(
            summary["anchor"][str(qp)]["pixels"] - int(row[f"pixels_q{qp}"])
            for row in rows for qp in QPS)
        return bd if ok else None
