"""Release gate: eleven product-level checks, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion. The suite exercises exact oracle equivalences, analytic
values with pinned tolerances, and two seeded end-to-end runs; nothing
here depends on wall-clock state, network access, or external corpora.
"""

import hashlib
import math
import shutil
import time

import numpy as np
import pytest

from qtpart.cli import main
from qtpart.codec import (CodecConfig, Rect, SearchState, exhaustive_search,
                          qt_cost_table)
from qtpart.dataset import Trajectory, balance, collect_records
from qtpart.decision import ThresholdPolicy, encode_frame
from qtpart.dqn import ACTION_NS, ACTION_QT, DqnHyper, bootstrap_targets, train_dqn
from qtpart.features import FEATURE_COUNT, build_vector, descriptor_key, glcm5, hog8
from qtpart.frame_io import save_pgm, tile_ctus
from qtpart.metrics import RdCurve, bd_rate, delta_c, sweep
from qtpart.mlp import (TrainHyper, forward, init_model, loss_and_grads,
                        train_regression)

from helpers import (bottom_up_qt_cost, dyadic_tables, enumerate_tree_costs,
                     mosaic_frame, natural_frame, spearman)

QPS = (22, 27, 32, 37)
SI_START = 11                     # descriptor entries 11..114 are texture


def test_criterion_01_unreachable_gate_reproduces_exhaustive(tiny_model):
    """Gated search with a threshold that never fires must equal the
    exhaustive search bit for bit: trees, costs, counters, pixels."""
    t0 = time.monotonic()
    policy = ThresholdPolicy(tiny_model, threshold=1e30, active_sizes=(32,))
    for seed in range(200, 210):              # 10 frames x 4 qps
        frame = natural_frame(seed, 64, 64)
        for qp in QPS:
            cfg = CodecConfig().at_qp(qp)
            base = encode_frame(frame, cfg)
            gated = encode_frame(frame, cfg, policy=policy)
            assert [t.to_dict() for t in gated.trees] == \
                   [t.to_dict() for t in base.trees]
            assert [t.best_j for t in gated.trees] == \
                   [t.best_j for t in base.trees]
            assert gated.pixels == base.pixels
            assert np.array_equal(gated.state.work, base.state.work)
            assert np.array_equal(gated.state.depth_map, base.state.depth_map)
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_split_cost_recursion_and_tree_optimality():
    """Top-down split-cost aggregation equals a bottom-up DP on 1000
    random tables, exactly; and the search returns the cheapest of all
    17 legal two-level trees on real 32x32 blocks.

    Dyadic table entries keep every candidate sum exact in float64, so
    the equality tolerance is zero.
    """
    rng = np.random.default_rng(12)
    for _ in range(1000):
        levels = dyadic_tables(rng, depth=3)
        delta = float(rng.integers(0, 1 << 12)) / 64.0
        assert qt_cost_table(levels, delta) == bottom_up_qt_cost(levels, delta)

    # brute force: a 32x32 root with two levels below has 17 candidate
    # trees; the recursive search must pick the global optimum
    for seed in range(129, 149):
        frame = natural_frame(seed, 32, 32)
        for qp in (22, 32):
            cfg = CodecConfig(ctu=32, max_depth=2, qp=qp)
            brute = min(enumerate_tree_costs(frame, cfg))
            tree = exhaustive_search(Rect(0, 0, 32, 32), cfg,
                                     SearchState(frame))
            assert tree.best_j == brute


def test_criterion_03_gradients_match_finite_differences():
    """Central-difference check of every parameter on 20 random single
    (x, y) pairs, 64-bit weights, relative error below 1e-3."""
    model = init_model(hidden=(12, 8), out=1, seed=3, dtype="float64")
    rng = np.random.default_rng(21)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        x = rng.random((1, FEATURE_COUNT))
        y = rng.random((1, 1))
        _, grads = loss_and_grads(model, x, y)
        for l in range(len(model.weights)):
            for park, g in ((model.weights[l], grads[l][0]),
                            (model.biases[l], grads[l][1])):
                flat = park.reshape(-1)
                gflat = np.asarray(g).reshape(-1)
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    lp, _ = loss_and_grads(model, x, y)
                    flat[idx] = keep - h
                    lm, _ = loss_and_grads(model, x, y)
                    flat[idx] = keep
                    fd = (lp - lm) / (2 * h)
                    rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]),
                                                     1e-8)
                    worst = max(worst, rel)
    assert worst < 1e-3


def test_criterion_04_regression_overfits_64_records():
    """A size-32 ratio model driven at lr 1e-3 memorizes 64 records to
    MSE below 1e-4 within 2000 full-batch steps.

    The records come from one heterogeneous frame so that the 64
    descriptors are distinct; near-duplicate inputs with noisy targets
    would put an irreducible floor above the bar regardless of capacity.
    """
    t0 = time.monotonic()
    records = collect_records([mosaic_frame(50)], (22,), CodecConfig(),
                              sizes=(32,), seed=11)
    assert len(records) == 64
    _, history = train_regression(records, "N32",
                                  TrainHyper(lr=1e-3, batch=64, epochs=2000),
                                  seed=3)
    assert min(history) < 1e-4
    assert time.monotonic() - t0 < 60.0


def test_criterion_05_value_model_recovers_synthetic_costs():
    """On an 8-block synthetic decision problem with known costs the
    trained action values land within 5% relative everywhere and agree
    with the oracle's cheaper action on at least 90% of states."""
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    trajs = []
    for i in range(8):
        kns = rng.uniform(0.6, 2.0, 4)
        ratio = np.where(rng.random(4) < 0.5,
                         rng.uniform(0.6, 0.85, 4), rng.uniform(1.2, 1.6, 4))
        kqt = kns * ratio
        qt_pp = float(np.minimum(kns, kqt).sum()) / 4.0 + 0.05
        ns_pp = qt_pp * (0.8 if i % 2 == 0 else 1.25)
        trajs.append(Trajectory(
            state32=rng.uniform(0, 1, FEATURE_COUNT).astype(np.float32),
            ns_j_pp=ns_pp, qt_j_pp=qt_pp, delta_qt_pp=0.05,
            child_features=rng.uniform(0, 1, (4, FEATURE_COUNT)).astype(np.float32),
            child_ns_j_pp=kns, child_qt_j_pp=kqt))

    hyper = DqnHyper(steps=20_000, batch=64, capacity=50_000, lr=1e-3,
                     hidden=(64, 64, 32))
    model, _ = train_dqn(trajs, hyper, seed=3)

    # independent ground truth: whole-block costs over one pooled median
    ns32 = np.array([t.ns_j_pp for t in trajs]) * 1024.0
    qt_delta = np.array([t.delta_qt_pp for t in trajs]) * 1024.0
    kns = np.stack([t.child_ns_j_pp for t in trajs]) * 256.0
    kqt = np.stack([t.child_qt_j_pp for t in trajs]) * 256.0
    c = float(np.median(np.concatenate(
        [ns32, np.array([t.qt_j_pp for t in trajs]) * 1024.0,
         kns.ravel(), kqt.ravel()])))
    true_parent = np.stack([ns32 / c,
                            (qt_delta + np.minimum(kns, kqt).sum(axis=1)) / c],
                           axis=1)
    true_child = np.stack([kns.ravel() / c, kqt.ravel() / c], axis=1)

    pred_parent = np.asarray(forward(model, np.stack([t.state32 for t in trajs])),
                             dtype=np.float64)
    kids = np.concatenate([t.child_features for t in trajs])
    pred_child = np.asarray(forward(model, kids), dtype=np.float64)

    pred = np.concatenate([pred_parent, pred_child])
    true = np.concatenate([true_parent, true_child])
    rel = np.abs(pred - true) / np.abs(true)
    assert rel.max() < 0.05
    agree = np.mean(np.argmin(pred, axis=1) == np.argmin(true, axis=1))
    assert agree >= 0.90
    assert time.monotonic() - t0 < 300.0


def test_criterion_06_bootstrap_target_arithmetic_is_exact():
    """Child action minima {0.2, 0.3, 0.1, 0.4} plus a 0.05 signalling
    charge must produce exactly 1.05."""
    model = init_model(hidden=(), out=2, seed=0, dtype=np.float64)
    w = np.zeros((FEATURE_COUNT, 2))
    for i, v in enumerate([0.2, 0.3, 0.1, 0.4]):
        w[i, ACTION_NS] = v
        w[i, ACTION_QT] = v + 0.5
    model.weights[0] = w
    model.biases[0] = np.zeros(2)
    children = np.eye(FEATURE_COUNT, dtype=np.float32)[None, :4]
    assert bootstrap_targets(np.array([0.05]), children, model).tolist() == [1.05]


def test_criterion_07_depth_cap_complexity_drop_is_analytic():
    """Capping recursion at depth 1 halves the processed pixels of the
    depth-3 search: two levels instead of four, each level covering the
    frame once, so the complexity drop is exactly 50%."""
    frames = [natural_frame(220 + i) for i in range(2)]     # border free
    anchor_px, test_px = {}, {}
    for qp in QPS:
        deep = CodecConfig(max_depth=3).at_qp(qp)
        flat = CodecConfig(max_depth=1).at_qp(qp)
        anchor_px[qp] = sum(encode_frame(f, deep).pixels for f in frames)
        test_px[qp] = sum(encode_frame(f, flat).pixels for f in frames)
        assert anchor_px[qp] == 2 * 4 * 4 * 64 * 64
        assert test_px[qp] == 2 * 4 * 2 * 64 * 64
    assert delta_c(anchor_px, test_px) == pytest.approx(50.0, abs=1e-9)
    assert delta_c(anchor_px, anchor_px) == 0.0


def test_criterion_08_rate_delta_analytics():
    """Identical curves measure 0; a uniform 5% rate inflation at equal
    quality measures +5.0%."""
    pts = {22: (1000.0, 45.0), 27: (780.0, 42.5),
           32: (590.0, 39.2), 37: (410.0, 36.1)}
    anchor = RdCurve.from_qp_points(pts)
    shifted = RdCurve.from_qp_points(
        {qp: (r * 1.05, p) for qp, (r, p) in pts.items()})
    assert abs(bd_rate(anchor, anchor)) < 1e-9
    assert bd_rate(anchor, shifted) == pytest.approx(5.0, abs=1e-6)


def test_criterion_09_texture_descriptor_properties():
    """Constant blocks have degenerate texture statistics; gradient
    histograms ignore brightness shifts; every texture entry of real
    descriptors lies in [0, 1]. Property-tested on 10^4 random blocks."""
    for v in (0, 37, 128, 255):
        block = np.full((16, 16), v, dtype=np.uint8)
        assert np.array_equal(hog8(block), np.zeros(8))
        ent, ene, hom, corr, dis = glcm5(block)
        assert (ent, ene, hom, corr, dis) == (0.0, 1.0, 1.0, 0.0, 0.0)

    rng = np.random.default_rng(31)
    for _ in range(200):
        side = int(rng.choice((4, 8, 16, 32)))
        block = rng.integers(0, 206, (side, side)).astype(np.uint8)
        assert np.array_equal(hog8(block), hog8(block + 50))

    for _ in range(10_000):
        side = int(rng.choice((4, 8, 16, 32)))
        block = rng.integers(0, 256, (side, side)).astype(np.uint8)
        hist = hog8(block)
        assert (hist >= 0.0).all()
        assert hist.sum() == pytest.approx(1.0, abs=1e-9) or hist.sum() == 0.0
        ent, ene, hom, corr, dis = glcm5(block)
        assert 0.0 <= ent <= 1.0
        assert 0.0 < ene <= 1.0
        assert 0.0 < hom <= 1.0
        assert -1.0 <= corr <= 1.0
        assert 0.0 <= dis <= 7.0

    vectors = []
    for seed in (40, 41, 42):
        frame = natural_frame(seed)
        for qp in (22, 37):
            cfg = CodecConfig().at_qp(qp)
            state = SearchState(frame)
            for rect in tile_ctus(frame, cfg.ctu):
                exhaustive_search(
                    rect, cfg, state,
                    visitor=lambda v: vectors.append(build_vector(descriptor_key(v))))
    assert len(vectors) >= 2000
    si = np.stack(vectors)[:, SI_START:]
    assert (si >= 0.0).all() and (si <= 1.0).all()


def test_criterion_10_desk_scale_tradeoff_and_rank_quality():
    """Seeded end-to-end run: fit the size-32 ratio model on twelve
    frames, evaluate on three held-out frames. The threshold sweep must
    trace a monotone complexity frontier with at least five distinct
    drop levels, and predicted ratios must rank the true ones with
    Spearman correlation at least 0.5."""
    t0 = time.monotonic()
    cfg = CodecConfig()
    train_frames = [mosaic_frame(s) for s in range(12)]
    held_frames = [mosaic_frame(100 + s) for s in range(3)]

    records = balance(collect_records(train_frames, QPS, cfg, sizes=(32,),
                                      seed=7), seed=7)
    model, _ = train_regression(records, "N32",
                                TrainHyper(lr=3e-4, batch=256, epochs=120),
                                seed=2)

    held = collect_records(held_frames, QPS, cfg, sizes=(32,), seed=7)
    pred = np.asarray(forward(model, np.stack([r.features for r in held])),
                      dtype=np.float64).ravel()
    true = np.array([r.qt_j_pp / r.ns_j_pp for r in held])
    rho = spearman(pred, true)
    assert rho >= 0.5

    thresholds = (0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.3, 1e9)
    result = sweep(held_frames, cfg, model, (32,), thresholds)
    dcs = [p.delta_c for p in result.points]     # ascending thresholds
    assert all(a >= b - 1e-9 for a, b in zip(dcs[:-1], dcs[1:]))
    assert len({round(dc, 6) for dc in dcs}) >= 5
    assert max(dcs) > 0.0
    assert time.monotonic() - t0 < 900.0


def test_criterion_11_seeded_commands_are_byte_identical(tmp_path):
    """Every artifact-writing command, rerun with its seed into a clean
    directory, reproduces each output file byte for byte."""
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    frame_args = []
    for i in range(2):
        p = frames_dir / f"f{i}.pgm"
        save_pgm(natural_frame(230 + i, 64, 64), p)
        frame_args.append(str(p))

    out = tmp_path / "run"

    def run_all():
        out.mkdir()
        ds = out / "train.qtds"
        traj = out / "train.traj.qtds"
        reg = out / "reg.qtnn"
        q = out / "q.qtnn"
        assert main(["dataset", "build", "--frames", *frame_args,
                     "--qps", "22,32", "--sizes", "32", "--seed", "5",
                     "--jobs", "2", "--out", str(ds)]) == 0
        assert main(["dataset", "trajectories", "--frames", *frame_args,
                     "--qps", "22", "--seed", "5", "--out", str(traj)]) == 0
        assert main(["train", "reg", "--dataset", str(ds), "--epochs", "3",
                     "--batch", "64", "--lr", "1e-4", "--seed", "1",
                     "--out", str(reg)]) == 0
        assert main(["train", "dqn", "--trajectories", str(traj),
                     "--steps", "40", "--batch", "16", "--lr", "1e-3",
                     "--hidden", "8", "--seed", "2", "--out", str(q)]) == 0
        assert main(["sweep", "--frames", frame_args[0], "--model", str(reg),
                     "--thresholds", "1.0,1e30", "--out",
                     str(out / "sweepdir")]) == 0
        digests = {}
        for f in sorted(out.rglob("*")):
            if f.is_file():
                digests[str(f.relative_to(out))] = hashlib.sha256(
                    f.read_bytes()).hexdigest()
        return digests

    first = run_all()
    shutil.rmtree(out)
    second = run_all()
    assert first == second
    assert len(first) >= 9                    # datasets, models, csv, configs
