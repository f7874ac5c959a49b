"""Split-decision value learning: replay, targets, and the training loop."""

import numpy as np
import pytest

from qtpart import dqn
from qtpart.dataset import DatasetError, Trajectory
from qtpart.dqn import (ACTION_NS, ACTION_QT, EPS_END, EPS_START, DqnHyper,
                        ReplayMemory, _scaled_costs, bootstrap_targets,
                        epsilon_at, select_action, train_dqn)
from qtpart.features import LAYOUT_HASH
from qtpart.mlp import ModelError, init_model

from helpers import reference_train_dqn


def mk_state(rng):
    return rng.uniform(0.0, 1.0, 115).astype(np.float32)


def mk_traj(rng, delta_pp=0.05):
    """Random but internally consistent 32x32 trajectory."""
    kns = rng.uniform(0.6, 2.0, 4)
    ratio = np.where(rng.random(4) < 0.5,
                     rng.uniform(0.6, 0.85, 4), rng.uniform(1.2, 1.6, 4))
    kqt = kns * ratio
    qt_pp = float(np.minimum(kns, kqt).sum()) / 4.0 + delta_pp
    ns_pp = qt_pp * (0.8 if rng.random() < 0.5 else 1.25)
    return Trajectory(state32=mk_state(rng), ns_j_pp=ns_pp, qt_j_pp=qt_pp,
                      delta_qt_pp=delta_pp,
                      child_features=rng.uniform(0, 1, (4, 115)).astype(np.float32),
                      child_ns_j_pp=kns, child_qt_j_pp=kqt)


def value_model(child_values, gap=0.5):
    """Linear float64 net whose output on one-hot e_i is (v_i, v_i + gap)."""
    m = init_model(hidden=(), out=2, seed=0, dtype=np.float64)
    w = np.zeros((115, 2))
    for i, v in enumerate(child_values):
        w[i, ACTION_NS] = v
        w[i, ACTION_QT] = v + gap
    m.weights[0] = w
    m.biases[0] = np.zeros(2)
    return m


# --------------------------------------------------------------------- replay

def test_replay_capacity_positive():
    with pytest.raises(ValueError, match="capacity must be positive"):
        ReplayMemory(0)


def test_replay_fifo_overwrites_oldest():
    mem = ReplayMemory(3, seed=0)
    for code in range(5):
        mem.push(code)
    assert len(mem) == 3
    assert sorted(mem.sample(3).tolist()) == [2, 3, 4]


def test_replay_sample_no_replacement():
    mem = ReplayMemory(16, seed=3)
    for code in range(10):
        mem.push(code)
    got = mem.sample(10)
    assert got.dtype == np.int64
    assert sorted(got.tolist()) == list(range(10))


def test_replay_sample_clamps_to_size():
    mem = ReplayMemory(16, seed=3)
    mem.push(7)
    assert mem.sample(64).tolist() == [7]


def test_replay_sample_empty_raises():
    with pytest.raises(ValueError, match="cannot sample"):
        ReplayMemory(4).sample(1)


def test_replay_sampling_is_seeded():
    picks = []
    for _ in range(2):
        mem = ReplayMemory(8, seed=17)
        for code in range(8):
            mem.push(code)
        picks.append(mem.sample(4).tolist())
    assert picks[0] == picks[1]


# --------------------------------------------------------- hyper and schedule

def test_hyper_rejects_nonpositive_steps():
    with pytest.raises(ValueError, match="steps and batch must be positive"):
        DqnHyper(steps=0)


@pytest.mark.parametrize("capacity", [0, -1])
def test_hyper_rejects_nonpositive_capacity(capacity):
    with pytest.raises(ValueError, match="capacity must be positive"):
        DqnHyper(capacity=capacity)


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan")])
def test_hyper_rejects_nonpositive_lr(lr):
    # NaN fails every comparison, so the check must be written "not lr > 0"
    with pytest.raises(ValueError, match="lr must be positive"):
        DqnHyper(lr=lr)


def test_epsilon_linear_anneal():
    assert (EPS_START, EPS_END) == (1.0, 0.05)
    h = DqnHyper(steps=100)
    assert epsilon_at(0, h) == 1.0
    assert epsilon_at(50, h) == pytest.approx(0.525)
    assert epsilon_at(100, h) == pytest.approx(0.05)
    assert epsilon_at(10_000, h) == pytest.approx(0.05)   # clamped
    assert epsilon_at(-5, h) == 1.0


# ------------------------------------------------------------- action choice

def test_select_action_requires_two_outputs():
    m = init_model(hidden=(4,), out=1, seed=0)
    with pytest.raises(ModelError, match="two outputs"):
        select_action(m, np.zeros(115, dtype=np.float32), 0.0,
                      np.random.default_rng(0))


def test_select_action_greedy_and_ties():
    rng = np.random.default_rng(0)
    e0 = np.eye(115, dtype=np.float32)[0]
    cheap_ns = value_model([3.0], gap=2.0)        # q = (3, 5)
    assert select_action(cheap_ns, e0, 0.0, rng) == ACTION_NS
    cheap_qt = value_model([3.0], gap=-2.0)       # q = (3, 1)
    assert select_action(cheap_qt, e0, 0.0, rng) == ACTION_QT
    tie = value_model([3.0], gap=0.0)             # q = (3, 3)
    assert select_action(tie, e0, 0.0, rng) == ACTION_NS


def test_select_action_explores_at_full_epsilon():
    m = value_model([3.0], gap=2.0)               # greedy would always say NS
    rng = np.random.default_rng(5)
    e0 = np.eye(115, dtype=np.float32)[0]
    picks = {select_action(m, e0, 1.0, rng) for _ in range(200)}
    assert picks == {ACTION_NS, ACTION_QT}


# ------------------------------------------------------------------- targets

def fixed_traj():
    """One trajectory whose costs scale by the median 512 to 2.4 (no-split)
    and 2.1 (split) at 32x32, 0.5 and 1.0 per child, and a 0.1 charge."""
    return Trajectory(state32=np.zeros(115, dtype=np.float32),
                      ns_j_pp=1.2, qt_j_pp=1.05, delta_qt_pp=0.05,
                      child_features=np.zeros((4, 115), dtype=np.float32),
                      child_ns_j_pp=np.ones(4), child_qt_j_pp=np.full(4, 2.0))


def first_step_td(monkeypatch, bias):
    """Mean |TD error| of one greedy training step on ``fixed_traj`` under
    a model that outputs ``bias`` for every descriptor; the batch holds
    every entry the step pushed."""
    def constant_model(hidden, out, seed):
        m = init_model(hidden=hidden, out=out, seed=seed)
        m.weights[0][:] = 0.0
        m.biases[0][:] = bias
        return m

    monkeypatch.setattr(dqn, "init_model", constant_model)
    monkeypatch.setattr(dqn, "EPS_START", 0.0)
    monkeypatch.setattr(dqn, "EPS_END", 0.0)
    hyper = DqnHyper(steps=1, batch=16, lr=1e-3, hidden=())
    _, diag = train_dqn([fixed_traj()], hyper, seed=0)
    return diag[0][1]


def test_target_no_split_returns_reward(monkeypatch):
    # q = (0, 0) ties to no-split, whose one entry trains on its cost 2.4
    assert first_step_td(monkeypatch, (0.0, 0.0)) == pytest.approx(2.4)


def test_target_terminal_split_returns_reward(monkeypatch):
    # q = (1, 0) splits: the 32x32 split bootstraps to 0.1 + 4 * min(1, 0),
    # and the eight child entries train on their costs, 0.5 and 1.0
    want = (abs(0.0 - 0.1) + 4 * abs(1.0 - 0.5) + 4 * abs(0.0 - 1.0)) / 9
    assert first_step_td(monkeypatch, (1.0, 0.0)) == pytest.approx(want)


def test_target_split_child_minimum_per_child():
    children = np.eye(115, dtype=np.float32)[None, :4]
    m = value_model([1.0, 2.0, 3.0, 4.0], gap=-0.5)  # split side cheaper
    got = bootstrap_targets(np.array([1.0]), children, m)
    assert got.tolist() == [1.0 + (0.5 + 1.5 + 2.5 + 3.5)]


def test_bootstrap_matches_scalar_path():
    # k rows in one call equal k one-row calls, whatever the child order
    children = np.eye(115, dtype=np.float32)[:4]
    m = value_model([1.0, 2.0, 3.0, 4.0], gap=-0.5)   # split side cheaper
    rows = np.stack([children, children[::-1], children[[0, 0, 1, 1]]])
    delta = np.array([0.05, 1.0, 0.25])
    got = bootstrap_targets(delta, rows, m)
    alone = [bootstrap_targets(delta[k:k + 1], rows[k:k + 1], m)[0] for k in range(3)]
    assert got.dtype == np.float64
    assert got.tolist() == alone == [0.05 + 8.0, 1.0 + 8.0, 0.25 + 4.0]


def test_bootstrap_sums_child_minima_exactly():
    m = value_model([0.2, 0.3, 0.1, 0.4])
    got = bootstrap_targets(np.array([0.05]), np.eye(115, dtype=np.float32)[None, :4], m)
    assert got.tolist() == [1.05]


# -------------------------------------------------------------- cost scaling

def test_scaled_costs_pooled_median():
    costs, delta, c = _scaled_costs([fixed_traj()])
    # pool: 1228.8, 1075.2, 4x256, 4x512 -> median 512 (delta stays out)
    assert c == 512.0
    assert costs.shape == (1, 5, 2)
    assert costs[0, 0, ACTION_NS] == pytest.approx(1228.8 / 512.0)
    assert costs[0, 0, ACTION_QT] == pytest.approx(2.1)
    assert delta[0] == pytest.approx(0.1)
    assert np.allclose(costs[0, 1:, ACTION_NS], 0.5)
    assert np.allclose(costs[0, 1:, ACTION_QT], 1.0)
    # scaling preserves the split identity
    assert costs[0, 0, ACTION_QT] == pytest.approx(
        costs[0, 1:].min(axis=1).sum() + delta[0])


# ------------------------------------------------------------- training loop

def test_train_rejects_empty_trajectories():
    with pytest.raises(DatasetError, match="empty trajectory set"):
        train_dqn([])


def test_train_refuses_blown_up_model():
    rng = np.random.default_rng(8)
    hyper = DqnHyper(steps=40, batch=16, lr=1e9, hidden=(8,))
    with pytest.raises(ModelError, match="blow-up"):
        with np.errstate(all="ignore"):
            train_dqn([mk_traj(rng) for _ in range(4)], hyper, seed=2)


def test_gradients_only_touch_taken_action(monkeypatch):
    rng = np.random.default_rng(9)

    def zero_model(hidden, out, seed):
        m = init_model(hidden=hidden, out=out, seed=seed)
        m.weights[0][:] = 0.0                 # all-zero q, ties pick no-split
        return m

    monkeypatch.setattr(dqn, "init_model", zero_model)
    monkeypatch.setattr(dqn, "EPS_START", 0.0)      # always greedy
    monkeypatch.setattr(dqn, "EPS_END", 0.0)
    hyper = DqnHyper(steps=1, batch=4, capacity=16, lr=1e-3, hidden=())
    model, _ = train_dqn([mk_traj(rng)], hyper, seed=0)
    assert np.any(model.weights[0][:, ACTION_NS] != 0.0)
    assert np.all(model.weights[0][:, ACTION_QT] == 0.0)
    assert model.biases[0][ACTION_NS] != 0.0
    assert model.biases[0][ACTION_QT] == 0.0


def test_train_same_seed_bitwise_repeat():
    rng = np.random.default_rng(10)
    trajs = [mk_traj(rng) for _ in range(4)]
    hyper = DqnHyper(steps=40, batch=8, lr=1e-3, hidden=(8, 4))
    m1, d1 = train_dqn(trajs, hyper, seed=3)
    m2, d2 = train_dqn(trajs, hyper, seed=3)
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        assert np.array_equal(a, b)
    assert d1 == d2
    m3, _ = train_dqn(trajs, hyper, seed=4)
    assert any(not np.array_equal(a, b)
               for a, b in zip(m1.weights, m3.weights))


def test_train_diagnostics_and_meta():
    rng = np.random.default_rng(12)
    trajs = [mk_traj(rng) for _ in range(3)]
    hyper = DqnHyper(steps=30, batch=8, lr=1e-3, hidden=(8,))
    model, diag = train_dqn(trajs, hyper, seed=1)
    assert [d[0] for d in diag] == list(range(30))
    assert all(np.isfinite(d[1]) and d[1] >= 0 for d in diag)
    assert diag[0][2] == 1.0
    assert diag[-1][2] == pytest.approx(epsilon_at(29, hyper))
    assert model.meta["variant"] == "Q32_16"
    assert model.meta["layout_hash"] == LAYOUT_HASH
    assert model.meta["gamma"] == 1.0
    assert model.meta["out"] == 2
    assert model.meta["hidden"] == [8]
    norm = model.meta["normalization"]
    assert norm["mode"] == "median"
    assert norm["c_median"] == pytest.approx(_scaled_costs(trajs)[2])


def test_train_pushes_documented_codes(monkeypatch):
    pushed = []

    class Recording(ReplayMemory):
        def push(self, code):
            pushed.append(code)
            super().push(code)

    monkeypatch.setattr(dqn, "ReplayMemory", Recording)
    rng = np.random.default_rng(14)
    trajs = [mk_traj(rng) for _ in range(3)]
    train_dqn(trajs, DqnHyper(steps=12, batch=4, lr=1e-3, hidden=(4,)), seed=0)
    # a step pushes (i, slot 0, NS) alone, or (i, slot 0, QT) followed by
    # NS then QT of slots 1-4: code (i * 5 + slot) * 2 + action
    steps, k = [], 0
    while k < len(pushed):
        traj, slot, action = np.unravel_index(pushed[k], (3, 5, 2))
        assert slot == 0
        run = 1 if action == ACTION_NS else 9
        assert pushed[k:k + run] == list(range(pushed[k], pushed[k] + run))
        steps.append((int(traj), int(action)))
        k += run
    assert len(steps) == 12
    assert {a for _, a in steps} == {ACTION_NS, ACTION_QT}
    for p in range(0, 12, 3):                   # every pass visits each once
        assert sorted(i for i, _ in steps[p:p + 3]) == [0, 1, 2]


@pytest.mark.parametrize("capacity,hidden", [(100_000, (16, 8)),  # never wraps
                                             (7, (8,)),   # wraps within a step
                                             (100_000, ())])
def test_train_matches_object_replay_oracle(capacity, hidden):
    rng = np.random.default_rng(13)
    trajs = [mk_traj(rng) for _ in range(5)]
    hyper = DqnHyper(steps=60, batch=16, capacity=capacity, lr=1e-3, hidden=hidden)
    model, diag = train_dqn(trajs, hyper, seed=6)
    ref, ref_diag = reference_train_dqn(trajs, hyper, seed=6)
    assert diag == ref_diag
    for a, b in zip(model.weights + model.biases, ref.weights + ref.biases):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_train_reduces_td_error(trajectories_small):
    hyper = DqnHyper(steps=600, batch=32, lr=1e-3, hidden=(32, 16))
    _, diag = train_dqn(trajectories_small, hyper, seed=2)
    first = np.mean([d[1] for d in diag[:100]])
    last = np.mean([d[1] for d in diag[-100:]])
    assert last < first
