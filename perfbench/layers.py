"""Traced run of a workload's stages: per-layer metrics and the tracer's
self-check.

The stages run once untraced, then ``repeats`` times under the tracer.
Only spans that start inside one of their CLI commands count, so the
benchmark's own output checks stay out of the figures. The first traced
iteration gives the metrics; every count must repeat exactly in the
others and match the analytic values of the search.
"""

from __future__ import annotations

import math
import statistics
import sys

from pipeline import (DQN_STEPS, QPS, REG_BATCH, REG_EPOCHS, SWEEP_THRESHOLDS,
                      Pipeline, ctus)
from tracer import TARGETS, SpanIndex, Tracer

NODES_PER_CTU = 1 + 4 + 16 + 64       # blocks one exhaustive 64x64 search codes
PRUNED_NODES = 4 + 16                 # NS encodes a PruneQT at a 32x32 block skips
PRUNED_PIXELS = 4 * 16 * 16 + 16 * 8 * 8
HOG_REGIONS = 8                       # hog8 and glcm5 run once per region

CALLS_S_SELF = ("codec.search", "codec.encode_ns", "features.build_vector")
CALLS_S = ("codec.dct2d", "frame_io.causal_patch", "features.hog8",
           "features.glcm5", "mlp.check_parameter_scale", "mlp.loss_and_grads",
           "mlp.adam_step", "mlp.backward", "dqn.ReplayMemory.sample",
           "dqn.select_action", "decision.pruned_search", "metrics.bd_rate")
S_ONLY = ("dataset.collect_records", "dataset.collect_trajectories",
          "dataset.save_records", "dataset.load_records",
          "dataset.save_trajectories", "dataset.load_trajectories",
          "metrics.sweep")
GATE_PARTS = ("features.build_vector", "mlp.forward", "decision.decide")


def _command_ns(windows) -> int:
    return sum(t1 - t0 for _, t0, t1 in windows)


def _named(windows, *names):
    return [w for w in windows if w[0] in names]


def layer_metrics(stages: tuple, idx: SpanIndex, windows, pipe: Pipeline) -> dict:
    m = {}
    for name in CALLS_S_SELF + CALLS_S + ("mlp.forward",):
        m[f"{name}.calls"] = idx.calls(name)
        m[f"{name}.s"] = idx.seconds(name)
    for name in CALLS_S_SELF:
        m[f"{name}.self_s"] = idx.self_seconds(name)
    for name in S_ONLY:
        m[f"{name}.s"] = idx.seconds(name)
    rows = idx.notes("mlp.forward")
    m["mlp.forward.rows_per_call"] = sum(rows) / len(rows) if rows else 0.0
    m["dqn.train_dqn.self_s"] = idx.self_seconds("dqn.train_dqn")

    build = _named(windows, "dataset_build")
    sides = idx.within(build).notes("features.build_vector")
    m["features.useful_ratio"] = sides.count(32) / len(sides) if sides else 0.0
    build_ns = _command_ns(build)
    busy_ns = sum(idx.within(build).notes("codec.search"))
    m["dataset.parallel_efficiency"] = busy_ns / (build_ns * pipe.jobs) if build_ns else 0.0

    verdicts = idx.notes("decision.decide")
    m["decision.decide.prune_qt"] = verdicts.count("PruneQT")
    m["decision.decide.explore"] = verdicts.count("Explore")
    gated = sum(s[3] - s[2] for part in GATE_PARTS for s in idx.of(part)
                if idx.under(s, "decision.pruned_search"))
    pruned = idx.seconds("decision.pruned_search")
    m["decision.gate_share"] = gated / 1e9 / pruned if pruned else 0.0
    m["decision.pixels_saved"] = (pipe.pixels_saved + pipe.sweep_pixels_saved
                                  if "evaluate" in stages else 0)
    return m


def self_check(stage: str, idx: SpanIndex, windows, pipe: Pipeline) -> list[str]:
    """Analytic call counts of one traced iteration; returns what failed."""
    bad = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{what}: traced {got}, expected {want}")

    if stage == "collect":
        for cmd in ("dataset_build", "dataset_trajectories"):
            sub = idx.within(_named(windows, cmd))
            ns = sub.calls("codec.encode_ns")
            expect(f"{cmd} codec.encode_ns.calls", ns,
                   NODES_PER_CTU * ctus("collect") * len(QPS))
            expect(f"{cmd} codec.search.calls", sub.calls("codec.search"),
                   ctus("collect") * len(QPS))
            expect(f"{cmd} frame_io.causal_patch.calls", sub.calls("frame_io.causal_patch"), ns)
            expect(f"{cmd} codec.dct2d.calls", sub.calls("codec.dct2d"), 2 * ns)
            bv = sub.calls("features.build_vector")
            expect(f"{cmd} features.build_vector.calls", bv, ns)
            expect(f"{cmd} features.hog8.calls", sub.calls("features.hog8"), HOG_REGIONS * bv)
            expect(f"{cmd} features.glcm5.calls", sub.calls("features.glcm5"), HOG_REGIONS * bv)
    elif stage == "train":
        from qtpart.dataset import load_records
        batches = math.ceil(len(load_records(pipe.ref_records)) / REG_BATCH)
        reg = idx.within(_named(windows, "train_reg"))
        dqn = idx.within(_named(windows, "train_dqn"))
        idx = idx.within(_named(windows, "train_reg", "train_dqn"))
        expect("train_reg mlp.check_parameter_scale.calls",
               reg.calls("mlp.check_parameter_scale"), REG_EPOCHS)
        expect("train_reg mlp.loss_and_grads.calls", reg.calls("mlp.loss_and_grads"),
               REG_EPOCHS * batches)
        expect("train_reg mlp.adam_step.calls", reg.calls("mlp.adam_step"),
               REG_EPOCHS * batches)
        for name in ("dqn.ReplayMemory.sample", "dqn.select_action",
                     "mlp.backward", "mlp.adam_step"):
            expect(f"train_dqn {name}.calls", dqn.calls(name), DQN_STEPS)
        expect("codec.encode_ns.calls", idx.calls("codec.encode_ns"), 0)
    else:
        idx = idx.within(_named(windows, "encode_exhaustive", "encode_gated", "sweep"))
        for w in _named(windows, "encode_exhaustive"):
            expect("encode_exhaustive codec.encode_ns.calls",
                   idx.within([w]).calls("codec.encode_ns"),
                   NODES_PER_CTU * ctus("heldout"))
        prune = idx.notes("decision.decide").count("PruneQT")
        passes = len(QPS) * (2 * ctus("heldout")
                             + (1 + len(SWEEP_THRESHOLDS)) * ctus("ref_heldout"))
        expect("codec.encode_ns.calls", idx.calls("codec.encode_ns"),
               NODES_PER_CTU * passes - PRUNED_NODES * prune)
        expect("pixels saved by the reports", pipe.pixels_saved + pipe.sweep_pixels_saved,
               PRUNED_PIXELS * prune)
        expect("mlp.forward.calls", idx.calls("mlp.forward"), idx.calls("decision.decide"))
        expect("mlp.forward rows", sum(idx.notes("mlp.forward")), idx.calls("mlp.forward"))
        expect("metrics.bd_rate.calls", idx.calls("metrics.bd_rate"), len(SWEEP_THRESHOLDS))
    return bad


def _leftover_wrappers() -> list[str]:
    """Names in qtpart modules that still hold a traced wrapper."""
    found = []
    holders = [m for n, m in sys.modules.items() if n.startswith("qtpart")]
    holders.append(sys.modules["qtpart.dqn"].ReplayMemory)
    for holder in holders:
        for attr, value in vars(holder).items():
            if hasattr(value, "traced_layer"):
                found.append(f"{getattr(holder, '__name__', holder)}.{attr}")
    return found


def traced_stages(pipe: Pipeline, stages: tuple, repeats: int) -> dict:
    """Run ``stages`` once untraced and ``repeats`` times traced; returns
    the per-layer metrics of the first traced iteration."""

    def run_stages():
        for stage in stages:
            getattr(pipe, stage)()

    first = len(pipe.windows)
    run_stages()
    untraced_ns = _command_ns(pipe.windows[first:])

    tracer = Tracer()
    iterations = []
    for _ in range(repeats):
        first, start = len(pipe.windows), len(tracer.spans)
        try:
            tracer.install(TARGETS)
            run_stages()
        finally:
            tracer.restore()
        windows = pipe.windows[first:]
        idx = SpanIndex(tracer.spans[start:]).within(windows)
        iterations.append((windows, layer_metrics(stages, idx, windows, pipe),
                           [line for stage in stages
                            for line in self_check(stage, idx, windows, pipe)]))
    tracer.write(pipe.work / "spans.json")

    _, metrics, bad = iterations[0]
    for _, other, other_bad in iterations[1:]:
        bad += other_bad
        bad += [f"{key}: {value} then {other[key]} in a repeated iteration"
                for key, value in metrics.items()
                if key.endswith((".calls", ".prune_qt", ".explore", ".pixels_saved"))
                and other[key] != value]
    bad += [f"{name} still traced after restore" for name in _leftover_wrappers()]
    for line in bad:
        pipe.check("trace", False, line)

    traced_ns = statistics.median(_command_ns(w) for w, _, _ in iterations)
    metrics["trace_overhead_pct"] = 100.0 * (traced_ns / untraced_ns - 1.0)
    return metrics
