"""Run-level measurement: complexity deltas, rate deltas between RD
curves, threshold sweeps and feature-ablation reports.

Complexity is compared as the mean over qp of the relative drop in
processed pixels. Rate curves are compared by fitting cubic polynomials
of log-rate against PSNR and integrating their gap over the shared PSNR
interval, reported as an equivalent rate change in percent (positive
means the test spends more rate for equal quality). Sweeps and ablations
encode every run at the four evaluation qps, ``EVAL_QPS``. An ablation
is a sweep of several models: every gated pass over one (frame, qp), of
every threshold and every model, runs back to back with the others and
shares one descriptor memo (``decision``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .codec import CodecConfig, check_split_sizes, psnr_of_mse
from .dataset import CuRecord
from .decision import ThresholdPolicy, encode_frame
from .frame_io import LumaFrame, tile_ctus
from .mlp import (DEFAULT_HIDDEN, REDUCED_HIDDEN, MlpModel, TrainHyper,
                  train_regression)

EVAL_QPS = (22, 27, 32, 37)

# name -> (descriptor groups zeroed, hidden widths)
ABLATION_CONFIGS = {
    "none": ((), DEFAULT_HIDDEN),
    "wo_ni_pi_bi": (("NI", "PI", "BI"), DEFAULT_HIDDEN),
    "wo_hog": (("HOG",), DEFAULT_HIDDEN),
    "wo_glcm": (("GLCM",), DEFAULT_HIDDEN),
    "reduced": ((), REDUCED_HIDDEN),
}


def require_eval_qps(given) -> None:
    """Rate curves are fitted on exactly the evaluation qps, in any order."""
    if sorted(given) != list(EVAL_QPS):
        raise ValueError(f"curve needs exactly the qps {EVAL_QPS}")


@dataclass(frozen=True)
class RdCurve:
    """Four (rate, PSNR) points, one per evaluation qp, sorted by rate."""

    rates: tuple
    psnrs: tuple

    @classmethod
    def from_qp_points(cls, points: Mapping[int, tuple]) -> "RdCurve":
        require_eval_qps(points)
        by_qp = [points[qp] for qp in sorted(points)]
        rates = [float(r) for r, _ in by_qp]
        psnrs = [float(p) for _, p in by_qp]
        if not all(0 < r < math.inf for r in rates):     # NaN included
            raise ValueError("rates must be positive and finite")
        if any(not math.isfinite(p) for p in psnrs):
            raise ValueError("PSNR must be finite (lossless points not allowed)")
        if any(a <= b for a, b in zip(rates[:-1], rates[1:])):
            raise ValueError("rate must strictly decrease as qp increases")
        order = np.argsort(rates)
        return cls(rates=tuple(rates[i] for i in order),
                   psnrs=tuple(psnrs[i] for i in order))


@dataclass(frozen=True)
class TradeoffPoint:
    threshold: float
    delta_c: float                # complexity drop, percent
    bd_rate: float                # equivalent rate change, percent


def delta_c(anchor: Mapping[int, int], test: Mapping[int, int]) -> float:
    """Mean over qp of the relative drop in processed pixels, in percent."""
    if set(anchor) != set(test):
        raise ValueError("anchor and test cover different qp sets")
    if not anchor:
        raise ValueError("empty complexity maps")
    terms = []
    for qp in sorted(anchor):
        a, t = anchor[qp], test[qp]
        if a <= 0:
            raise ValueError(f"anchor pixel count for qp {qp} must be positive")
        terms.append((a - t) / a)
    return 100.0 * float(np.mean(terms))


def _log_fit(curve: RdCurve) -> np.ndarray:
    return np.polyfit(np.asarray(curve.psnrs), np.log10(curve.rates), 3)


def bd_rate(anchor: RdCurve, test: RdCurve) -> float:
    """Average rate change of ``test`` against ``anchor`` in percent."""
    for c in (anchor, test):
        if len(set(c.psnrs)) != len(c.psnrs):
            raise ValueError("degenerate curve: repeated PSNR values")
    lo = max(min(anchor.psnrs), min(test.psnrs))
    hi = min(max(anchor.psnrs), max(test.psnrs))
    if hi <= lo:
        raise ValueError("curves share no PSNR interval")
    p_anchor = np.polyint(_log_fit(anchor))
    p_test = np.polyint(_log_fit(test))
    avg_diff = (np.polyval(p_test, hi) - np.polyval(p_test, lo)
                - np.polyval(p_anchor, hi) + np.polyval(p_anchor, lo)) / (hi - lo)
    return float((10.0 ** avg_diff - 1.0) * 100.0)


def _run_settings(frames: Sequence[LumaFrame], cfg: CodecConfig,
                  policies: Sequence[Optional[ThresholdPolicy]]) -> list[dict[int, dict]]:
    """Encode all frames at every evaluation qp under each policy (None:
    exhaustively); returns one per-qp pixels/rate/psnr map per policy.

    The loop runs qp, then frame, then policy, so the passes over one
    (frame, qp) share one descriptor memo, dropped after them. Each
    policy still sums over the frames in their order, so every figure is
    the one a separate run of that policy gives.
    """
    runs = [{} for _ in policies]
    for qp in EVAL_QPS:
        cfg_qp = cfg.at_qp(qp)
        sums = [[0, 0.0, 0.0, 0] for _ in policies]    # pixels, rate, sse, area
        for frame in frames:
            memo = {}
            for acc, policy in zip(sums, policies):
                res = encode_frame(frame, cfg_qp, policy, memo)
                acc[0] += res.pixels
                acc[1] += res.rate_bits()
                acc[2] += res.sse()
                acc[3] += res.covered_area
        for out, (pixels, rate, sse, area) in zip(runs, sums):
            out[qp] = {"pixels": pixels, "rate_bits": rate,
                       "psnr_db": psnr_of_mse(sse / area)}
    return runs


def _curve_of(runs: dict[int, dict]) -> RdCurve:
    return RdCurve.from_qp_points(
        {qp: (r["rate_bits"], r["psnr_db"]) for qp, r in runs.items()})


@dataclass
class SweepResult:
    points: list
    rows: list                    # CSV-ready dicts, sorted by threshold
    anchor: dict                  # per-qp pixels/rate/psnr


def _check_grid(frames: Sequence[LumaFrame], thresholds: Sequence[float],
                active_sizes, cfg: CodecConfig) -> None:
    """Refuse frames, a threshold grid or active sizes no sweep can run."""
    if not frames:
        raise ValueError("empty frame list")
    for frame in frames:
        tile_ctus(frame, cfg.ctu)
    check_thresholds(thresholds)
    check_split_sizes(active_sizes, cfg)


def check_thresholds(thresholds: Sequence[float]) -> None:
    """Refuse an empty threshold grid, a threshold that is not positive
    (NaN included) and a repeated one."""
    if not thresholds:
        raise ValueError("empty threshold list")
    if not all(t > 0 for t in thresholds):
        raise ValueError("threshold must be positive")
    if len(set(thresholds)) < len(thresholds):
        raise ValueError(f"repeated threshold in {list(thresholds)}")


def _sweep_models(frames: Sequence[LumaFrame], cfg: CodecConfig,
                  models: Sequence[MlpModel], active_sizes: Sequence[int],
                  thresholds: Sequence[float]) -> list[SweepResult]:
    """One sweep per model against one shared exhaustive anchor. Every gate
    (model x threshold, thresholds increasing) is built, and so every model
    and the active sizes checked, before the one ``_run_settings`` call that
    encodes the anchor and every gated pass."""
    n = len(thresholds)
    policies = [ThresholdPolicy(model=m, threshold=t, active_sizes=active_sizes)
                for m in models for t in sorted(thresholds)]
    anchor, *runs = _run_settings(frames, cfg, [None, *policies])
    anchor_curve = _curve_of(anchor)
    anchor_px = {qp: r["pixels"] for qp, r in anchor.items()}
    points, rows = [], []
    for policy, run in zip(policies, runs):
        t = policy.threshold
        dc = delta_c(anchor_px, {qp: r["pixels"] for qp, r in run.items()})
        bd = bd_rate(anchor_curve, _curve_of(run))
        points.append(TradeoffPoint(threshold=t, delta_c=dc, bd_rate=bd))
        row = {"threshold": t, "delta_c_pct": dc, "bd_rate_pct": bd}
        for qp in sorted(run):
            row[f"rate_bits_q{qp}"] = run[qp]["rate_bits"]
            row[f"psnr_db_q{qp}"] = run[qp]["psnr_db"]
            row[f"pixels_q{qp}"] = run[qp]["pixels"]
        rows.append(row)
    return [SweepResult(points=points[i:i + n], rows=rows[i:i + n], anchor=anchor)
            for i in range(0, len(runs), n)]


def sweep(frames: Sequence[LumaFrame], cfg: CodecConfig, model: MlpModel,
          active_sizes: Sequence[int], thresholds: Sequence[float]) -> SweepResult:
    """Measure the complexity/quality trade-off over a threshold grid.

    The anchor is the exhaustive search on the same frames, at the
    evaluation qps like every run; each threshold yields one (delta_c,
    bd_rate) point. Every policy is built, and so the model and the
    active sizes checked, and every frame tiled, before the first encode.
    """
    _check_grid(frames, thresholds, active_sizes, cfg)
    return _sweep_models(frames, cfg, [model], active_sizes, thresholds)[0]


def interpolate_bd_at(points: Sequence[TradeoffPoint],
                      target_dc: float) -> Optional[float]:
    """Linear bd_rate estimate at a complexity-drop level; None when the
    sweep never reaches it."""
    pts = sorted(points, key=lambda p: p.delta_c)
    for p in pts:
        if p.delta_c == target_dc:
            return p.bd_rate
    for lo, hi in zip(pts[:-1], pts[1:]):
        if lo.delta_c < target_dc < hi.delta_c:
            w = (target_dc - lo.delta_c) / (hi.delta_c - lo.delta_c)
            return lo.bd_rate + w * (hi.bd_rate - lo.bd_rate)
    return None


def run_ablation(records: Sequence[CuRecord], frames: Sequence[LumaFrame],
                 cfg: CodecConfig, thresholds: Sequence[float],
                 configs: Sequence[str] = tuple(ABLATION_CONFIGS),
                 hyper: TrainHyper | None = None, seed: int = 0,
                 active_sizes: Sequence[int] = (32,)) -> list[dict]:
    """Retrain the size-32 regression under each configuration, sweep it,
    and report bd_rate interpolated at 10% and 20% complexity drops.

    Every config name, the frames, the threshold grid and the active
    sizes are checked before the first model is trained, and every
    config's model is trained before the first encode. One sweep of all
    the models shares the exhaustive anchor and the descriptor memos.
    """
    _check_grid(frames, thresholds, active_sizes, cfg)
    for name in configs:
        if name not in ABLATION_CONFIGS:
            raise ValueError(f"unknown ablation config {name!r}")
    if len(set(configs)) < len(configs):
        raise ValueError(f"repeated ablation config in {list(configs)}")
    models = [train_regression(records, "N32", hyper=hyper, seed=seed,
                               mask=ABLATION_CONFIGS[name][0],
                               hidden=ABLATION_CONFIGS[name][1])[0] for name in configs]
    results = _sweep_models(frames, cfg, models, active_sizes, thresholds)
    return [{"config": name,
             "bd_at_dc10": interpolate_bd_at(result.points, 10.0),
             "bd_at_dc20": interpolate_bd_at(result.points, 20.0)}
            for name, result in zip(configs, results)]
