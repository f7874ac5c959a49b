"""Complexity deltas, rate-curve comparison, sweeps, ablation rows."""

import numpy as np
import pytest

from qtpart import decision, metrics
from qtpart.codec import CodecConfig
from qtpart.features import LAYOUT_HASH
from qtpart.metrics import (ABLATION_CONFIGS, EVAL_QPS, RdCurve, TradeoffPoint,
                            bd_rate, delta_c, interpolate_bd_at, run_ablation,
                            sweep)
from qtpart.mlp import ModelError, TrainHyper, init_model, train_regression

from helpers import natural_frame


def ratio_model(value):
    m = init_model(hidden=(), out=1, seed=0)
    m.weights[0][:] = 0.0
    m.biases[0][:] = np.float32(value)
    m.meta["layout_hash"] = LAYOUT_HASH
    return m


def curve(points):
    return RdCurve.from_qp_points(points)


ANCHOR_PTS = {22: (1000.0, 45.0), 27: (780.0, 42.5),
              32: (590.0, 39.2), 37: (410.0, 36.1)}


# -------------------------------------------------------------- complexity

def test_delta_c_identical_is_zero():
    px = {22: 100, 27: 200, 32: 300, 37: 400}
    assert delta_c(px, dict(px)) == 0.0


def test_delta_c_halving_is_fifty():
    anchor = {qp: 4 for qp in EVAL_QPS}
    test = {qp: 2 for qp in EVAL_QPS}
    assert delta_c(anchor, test) == pytest.approx(50.0, abs=1e-12)


def test_delta_c_averages_over_qp():
    assert delta_c({22: 100, 27: 200}, {22: 90, 27: 100}) == pytest.approx(30.0)


def test_delta_c_negative_when_test_heavier():
    assert delta_c({22: 100}, {22: 150}) == pytest.approx(-50.0)


def test_delta_c_qp_set_mismatch():
    with pytest.raises(ValueError, match="different qp sets"):
        delta_c({22: 100, 27: 100}, {22: 100, 32: 100})


def test_delta_c_empty():
    with pytest.raises(ValueError, match="empty complexity maps"):
        delta_c({}, {})


def test_delta_c_nonpositive_anchor():
    with pytest.raises(ValueError, match="must be positive"):
        delta_c({22: 0}, {22: 0})


# ------------------------------------------------------------------ curves

def test_curve_sorted_by_rate():
    c = curve(ANCHOR_PTS)
    assert c.rates == (410.0, 590.0, 780.0, 1000.0)
    assert c.psnrs == (36.1, 39.2, 42.5, 45.0)


def test_curve_requires_eval_qps():
    with pytest.raises(ValueError, match="needs exactly the qps"):
        curve({22: (1000, 45), 27: (800, 42)})


def test_curve_rejects_nonpositive_rate():
    for rate in (0.0, float("inf")):
        bad = {**ANCHOR_PTS, 37: (rate, 36.1)}
        with pytest.raises(ValueError, match="rates must be positive and finite"):
            curve(bad)


def test_curve_rejects_infinite_psnr():
    bad = {**ANCHOR_PTS, 22: (1000.0, float("inf"))}
    with pytest.raises(ValueError, match="must be finite"):
        curve(bad)


def test_curve_rejects_nonmonotone_rates():
    bad = {**ANCHOR_PTS, 27: (1000.0, 42.5)}
    with pytest.raises(ValueError, match="strictly decrease"):
        curve(bad)


# ----------------------------------------------------------------- bd rate

def test_bd_rate_identical_curves():
    a = curve(ANCHOR_PTS)
    assert abs(bd_rate(a, a)) < 1e-9


def test_bd_rate_five_percent_rate_inflation():
    a = curve(ANCHOR_PTS)
    b = curve({qp: (r * 1.05, p) for qp, (r, p) in ANCHOR_PTS.items()})
    assert bd_rate(a, b) == pytest.approx(5.0, abs=1e-6)
    assert bd_rate(b, a) == pytest.approx(100.0 * (1 / 1.05 - 1), abs=1e-6)


def test_bd_rate_antisymmetric_in_log_domain():
    a = curve(ANCHOR_PTS)
    b = curve({22: (1100.0, 45.5), 27: (760.0, 42.0),
               32: (560.0, 39.0), 37: (430.0, 36.3)})
    ab, ba = bd_rate(a, b), bd_rate(b, a)
    assert (1 + ab / 100.0) * (1 + ba / 100.0) == pytest.approx(1.0, abs=1e-9)


def test_bd_rate_disjoint_psnr_ranges():
    a = curve(ANCHOR_PTS)
    low = curve({22: (1000.0, 20.0), 27: (800.0, 17.0),
                 32: (600.0, 14.0), 37: (400.0, 11.0)})
    with pytest.raises(ValueError, match="share no PSNR interval"):
        bd_rate(a, low)


def test_bd_rate_degenerate_curve():
    a = curve(ANCHOR_PTS)
    flat = curve({22: (1000.0, 40.0), 27: (800.0, 40.0),
                  32: (600.0, 39.2), 37: (400.0, 36.1)})
    with pytest.raises(ValueError, match="degenerate curve"):
        bd_rate(a, flat)


# ----------------------------------------------------------- interpolation

def test_interpolate_exact_and_linear():
    pts = [TradeoffPoint(1.0, 0.0, 0.0), TradeoffPoint(0.9, 20.0, 4.0),
           TradeoffPoint(0.8, 40.0, 10.0)]
    assert interpolate_bd_at(pts, 20.0) == 4.0
    assert interpolate_bd_at(pts, 10.0) == pytest.approx(2.0)
    assert interpolate_bd_at(pts, 30.0) == pytest.approx(7.0)
    assert interpolate_bd_at(pts, 50.0) is None
    assert interpolate_bd_at(pts, -5.0) is None


def test_interpolate_handles_unsorted_points():
    pts = [TradeoffPoint(0.8, 40.0, 10.0), TradeoffPoint(1.0, 0.0, 0.0)]
    assert interpolate_bd_at(pts, 20.0) == pytest.approx(5.0)


# ------------------------------------------------------------------- sweep

@pytest.fixture(scope="module")
def sweep_frames():
    return [natural_frame(20, 64, 64), natural_frame(21, 64, 64)]


def test_sweep_rejects_empty_thresholds(sweep_frames):
    with pytest.raises(ValueError, match="empty threshold list"):
        sweep(sweep_frames, CodecConfig(), ratio_model(1e6), (32,), ())


def test_sweep_anchor_and_rows(sweep_frames):
    cfg = CodecConfig()
    res = sweep(sweep_frames, cfg, ratio_model(1e6), (32,), (1e30, 1.0))
    assert set(res.anchor) == set(EVAL_QPS)
    for qp in EVAL_QPS:
        assert res.anchor[qp]["pixels"] == 2 * 4 * 64 * 64
        assert res.anchor[qp]["rate_bits"] > 0
        assert np.isfinite(res.anchor[qp]["psnr_db"])

    # rows come back sorted by threshold
    assert [r["threshold"] for r in res.rows] == [1.0, 1e30]
    assert [p.threshold for p in res.points] == [1.0, 1e30]
    for row in res.rows:
        for qp in EVAL_QPS:
            assert {f"rate_bits_q{qp}", f"psnr_db_q{qp}",
                    f"pixels_q{qp}"} <= set(row)

    # always-prune at 32 skips exactly half the work at every qp
    prune, idle = res.points
    assert prune.delta_c == pytest.approx(50.0, abs=1e-12)
    assert np.isfinite(prune.bd_rate)
    # an unreachable threshold reproduces the anchor
    assert idle.delta_c == 0.0
    assert abs(idle.bd_rate) < 1e-9
    for qp in EVAL_QPS:
        assert res.rows[1][f"pixels_q{qp}"] == res.anchor[qp]["pixels"]
        assert res.rows[1][f"rate_bits_q{qp}"] == res.anchor[qp]["rate_bits"]


def test_sweep_explores_where_no_split_prediction_is_nonpositive(sweep_frames):
    # two outputs pinned at (-1, 1): no ratio, so every block is explored
    model = init_model(hidden=(), out=2, seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = np.array([-1.0, 1.0], np.float32)
    model.meta["layout_hash"] = LAYOUT_HASH
    res = sweep(sweep_frames, CodecConfig(), model, (32,), (0.5, 1.0, 2.0))
    assert [p.delta_c for p in res.points] == [0.0, 0.0, 0.0]


def test_never_pruning_passes_build_each_descriptor_once(sweep_frames, tiny_model,
                                                         monkeypatch):
    calls = {"build_vector": 0, "forward": 0}

    def counting(name):
        fn = getattr(decision, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(decision, name, counting(name))
    res = sweep(sweep_frames, CodecConfig(), tiny_model, (32,), (1e29, 1e30))
    # one 64x64 CTU per frame: four 32x32 consultations per pass
    consultations = len(sweep_frames) * len(EVAL_QPS) * 4
    assert calls == {"build_vector": consultations, "forward": 2 * consultations}
    assert [p.delta_c for p in res.points] == [0.0, 0.0]


def test_sweep_rows_equal_one_sweep_per_threshold(sweep_frames, tiny_model):
    thresholds = (0.9, 1.0, 1.1, 1e30)
    together = sweep(sweep_frames, CodecConfig(), tiny_model, (32,), thresholds)
    for row, t in zip(together.rows, thresholds):
        alone = sweep(sweep_frames, CodecConfig(), tiny_model, (32,), (t,))
        assert repr(alone.rows) == repr([row])


# ---------------------------------------------------------------- ablation

def test_ablation_unknown_config(records32, sweep_frames):
    with pytest.raises(ValueError, match="unknown ablation config"):
        run_ablation(records32, sweep_frames[:1], CodecConfig(), (1.0,),
                     configs=("bogus",))


@pytest.mark.parametrize("configs, thresholds, message", [
    (("none", "bogus"), (1.0,), "unknown ablation config 'bogus'"),
    (("none",), (), "empty threshold list"),
    (("none",), (1.0, float("nan")), "threshold must be positive"),
    (("none",), (0.0,), "threshold must be positive"),
    (("none", "wo_hog", "none"), (1.0,), "repeated ablation config"),
    (("none",), (1.0, 0.8, 1.0), r"repeated threshold in \[1.0, 0.8, 1.0\]"),
])
def test_ablation_checks_inputs_before_training(records32, sweep_frames, monkeypatch,
                                                configs, thresholds, message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a model was trained before the input checks")

    monkeypatch.setattr(metrics, "train_regression", must_not_run)
    with pytest.raises(ValueError, match=message):
        run_ablation(records32, sweep_frames[:1], CodecConfig(), thresholds,
                     configs=configs)


@pytest.mark.parametrize("small, message", [
    (True, "48x32 frame holds no full 64x64 CTU"),
    (False, "empty frame list"),
])
def test_sweep_and_ablation_check_frames_before_any_work(records32, sweep_frames,
                                                         monkeypatch, small, message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("expensive work ran before the frame check")

    monkeypatch.setattr(metrics, "encode_frame", must_not_run)
    monkeypatch.setattr(metrics, "train_regression", must_not_run)
    # the bad frame comes after a good one, so a late check would encode first
    frames = sweep_frames[:1] + [natural_frame(33, 32, 48)] if small else []
    with pytest.raises(ValueError, match=message):
        sweep(frames, CodecConfig(), ratio_model(1.0), (32,), (1.0,))
    with pytest.raises(ValueError, match=message):
        run_ablation(records32, frames, CodecConfig(), (1.0,), configs=("none",))


def test_ablation_encodes_the_anchor_once(records32, sweep_frames, monkeypatch):
    calls = []
    encode = metrics.encode_frame

    def counting(frame, cfg, policy, memo=None):
        calls.append(policy is None)
        return encode(frame, cfg, policy, memo)

    monkeypatch.setattr(metrics, "encode_frame", counting)
    hyper = TrainHyper(lr=1e-4, batch=128, epochs=2)
    thresholds = (0.9, 1.1)
    rows = run_ablation(records32, sweep_frames, CodecConfig(), thresholds,
                        configs=("none", "wo_hog"), hyper=hyper, seed=1)
    frames_qps = len(sweep_frames) * len(EVAL_QPS)
    assert sum(calls) == frames_qps                  # one exhaustive pass
    assert len(calls) == frames_qps * (1 + 2 * len(thresholds))
    # each row is what a separate sweep of the same model reports
    for row in rows:
        groups, hidden = ABLATION_CONFIGS[row["config"]]
        model, _ = train_regression(records32, "N32", hyper=hyper, seed=1,
                                    mask=groups, hidden=hidden)
        points = sweep(sweep_frames, CodecConfig(), model, (32,), thresholds).points
        assert row["bd_at_dc10"] == interpolate_bd_at(points, 10.0)
        assert row["bd_at_dc20"] == interpolate_bd_at(points, 20.0)


def test_ablation_builds_each_distinct_descriptor_once(records32, sweep_frames,
                                                       monkeypatch):
    built, keys = [], []
    build, key_of = decision.build_vector, decision.descriptor_key

    def counting_build(visit):
        built.append(1)
        return build(visit)

    def recording_key(visit):
        keys.append(key_of(visit))
        return keys[-1]

    monkeypatch.setattr(decision, "build_vector", counting_build)
    monkeypatch.setattr(decision, "descriptor_key", recording_key)
    run_ablation(records32, sweep_frames[:1], CodecConfig(), (0.9, 1.1),
                 configs=("none", "wo_hog", "wo_glcm"),
                 hyper=TrainHyper(lr=1e-4, batch=128, epochs=2), seed=1)
    assert len(keys) > len(set(keys))                # the passes did share keys
    assert len(built) == len(set(keys))


def test_ablation_checks_every_model_before_any_encode(records32, sweep_frames,
                                                       monkeypatch):
    trained = []
    train = metrics.train_regression

    def foreign_second(*args, **kwargs):
        model, history = train(*args, **kwargs)
        trained.append(model)
        if len(trained) == 2:
            model.meta["layout_hash"] = "foreign"
        return model, history

    def must_not_run(*args, **kwargs):
        raise AssertionError("a frame was encoded before every model was checked")

    monkeypatch.setattr(metrics, "train_regression", foreign_second)
    monkeypatch.setattr(metrics, "encode_frame", must_not_run)
    with pytest.raises(ModelError, match="different feature layout"):
        run_ablation(records32, sweep_frames[:1], CodecConfig(), (0.9, 1.1),
                     configs=("none", "wo_hog"),
                     hyper=TrainHyper(lr=1e-4, batch=128, epochs=2), seed=1)
    assert len(trained) == 2


def test_ablation_rows(records32, sweep_frames):
    hyper = TrainHyper(lr=1e-4, batch=128, epochs=2)
    rows = run_ablation(records32, sweep_frames[:1], CodecConfig(),
                        thresholds=(0.9, 1.1), configs=("none", "reduced"),
                        hyper=hyper, seed=1)
    assert [r["config"] for r in rows] == ["none", "reduced"]
    for row in rows:
        assert set(row) == {"config", "bd_at_dc10", "bd_at_dc20"}
        for key in ("bd_at_dc10", "bd_at_dc20"):
            assert row[key] is None or np.isfinite(row[key])


def test_ablation_config_table_shape():
    assert set(ABLATION_CONFIGS) == {"none", "wo_ni_pi_bi", "wo_hog",
                                     "wo_glcm", "reduced"}
    groups, _ = ABLATION_CONFIGS["wo_ni_pi_bi"]
    assert groups == ("NI", "PI", "BI")
