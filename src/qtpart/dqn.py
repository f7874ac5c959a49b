"""Two-depth value learning for split decisions.

One network with two outputs scores the no-split (0) and split (1)
actions of a block descriptor. Training replays 32x32 trajectories: the
split target of a 32x32 transition bootstraps from its four 16x16
children (signalling charge plus the sum of the children's cheaper
action values), while no-split actions and child-level transitions train
on their measured costs directly. All costs are whole-block values
scaled by one median taken over the training set, which makes the
bootstrap an exact sum. Gradients flow only through the taken action's
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import DatasetError, Trajectory
from .features import LAYOUT_HASH
from .mlp import (DEFAULT_HIDDEN, MlpModel, ModelError, adam_init, adam_step,
                  backward, check_parameter_scale, forward, forward_cached,
                  init_model)

ACTION_NS, ACTION_QT = 0, 1
AREA_32, AREA_16 = 32 * 32, 16 * 16
EPS_START, EPS_END = 1.0, 0.05                   # exploration schedule ends


@dataclass
class Transition:
    """One replayed decision.

    ``next_states`` holds the four child descriptors of a split action;
    a no-split action observes nothing below. ``terminal`` marks
    child-level transitions, whose stored reward is the target for either
    action because the search does not descend further.
    """

    state: np.ndarray             # (115,) float32
    action: int
    reward: float                 # scaled cost of the taken action
    next_states: Optional[np.ndarray] = None    # (4, 115) float32
    delta_qt: float = 0.0         # scaled split signalling charge
    terminal: bool = False

    def __post_init__(self):
        if self.action not in (ACTION_NS, ACTION_QT):
            raise ValueError(f"unknown action {self.action}")
        if self.action == ACTION_NS or self.terminal:
            if self.next_states is not None:
                raise ValueError("only a non-terminal split action observes children")
        else:
            self.next_states = np.asarray(self.next_states, dtype=np.float32)
            if self.next_states.shape[0] != 4:
                raise ValueError("split transition requires exactly 4 child states")


class ReplayMemory:
    """Bounded FIFO ring with seeded uniform sampling (no replacement)."""

    def __init__(self, capacity: int, seed=0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._next = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(t)
        else:
            self._items[self._next] = t          # overwrite oldest
            self._next = (self._next + 1) % self.capacity

    def sample(self, n: int) -> list[Transition]:
        if not self._items:
            raise ValueError("cannot sample from an empty memory")
        n = min(n, len(self._items))
        idx = self._rng.choice(len(self._items), size=n, replace=False)
        return [self._items[i] for i in idx]


@dataclass
class DqnHyper:
    steps: int = 2000
    batch: int = 512
    capacity: int = 100_000
    lr: float = 1e-5
    eps_anneal: Optional[int] = None             # defaults to steps
    hidden: tuple = DEFAULT_HIDDEN

    def __post_init__(self):
        if self.steps <= 0 or self.batch <= 0:
            raise ValueError("steps and batch must be positive")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.eps_anneal is not None and self.eps_anneal < 1:
            raise ValueError("eps_anneal must be at least 1 step")


def epsilon_at(step: int, hyper: DqnHyper) -> float:
    """Linear schedule from EPS_START at step 0 to EPS_END at eps_anneal."""
    anneal = hyper.eps_anneal or hyper.steps
    frac = min(max(step, 0) / anneal, 1.0)
    return EPS_START + (EPS_END - EPS_START) * frac


def select_action(model: MlpModel, state: np.ndarray, eps: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy pick of the cheaper action; ties go to no-split."""
    if model.out_dim != 2:
        raise ModelError("action-value model must have two outputs")
    if rng.random() < eps:
        return int(rng.integers(2))
    q = forward(model, state)
    return ACTION_NS if q[ACTION_NS] <= q[ACTION_QT] else ACTION_QT


def bellman_target(t: Transition, model: MlpModel) -> float:
    """Training target of one transition.

    No-split actions and terminal (child-level) transitions return their
    stored reward; a split action returns the signalling charge plus the
    sum over its four children of the cheaper action value.
    """
    if t.next_states is None or t.terminal:
        return float(t.reward)
    q = np.asarray(forward(model, t.next_states), dtype=np.float64)
    # fsum keeps the 4-term sum exactly rounded and order-independent
    best = math.fsum(np.minimum(q[:, ACTION_NS], q[:, ACTION_QT]))
    return float(t.delta_qt) + best


def _batch_targets(batch: list[Transition], model: MlpModel) -> np.ndarray:
    """Vectorized bellman_target over a batch (same math, one forward)."""
    targets = np.array([t.reward for t in batch], dtype=np.float64)
    boot = [i for i, t in enumerate(batch)
            if t.next_states is not None and not t.terminal]
    if boot:
        kids = np.concatenate([batch[i].next_states for i in boot], axis=0)
        q = np.asarray(forward(model, kids), dtype=np.float64)
        best = np.minimum(q[:, ACTION_NS], q[:, ACTION_QT]).reshape(len(boot), 4)
        for row, i in enumerate(boot):
            targets[i] = float(batch[i].delta_qt) + math.fsum(best[row])
    return targets


def _scaled_costs(trajs: Sequence[Trajectory]):
    """Whole-block costs for every trajectory, scaled by one pooled median."""
    ns32 = np.array([t.ns_j_pp for t in trajs]) * AREA_32
    qt32 = np.array([t.qt_j_pp for t in trajs]) * AREA_32
    delta = np.array([t.delta_qt_pp for t in trajs]) * AREA_32
    kns = np.stack([t.child_ns_j_pp for t in trajs]) * AREA_16
    kqt = np.stack([t.child_qt_j_pp for t in trajs]) * AREA_16
    c = float(np.median(np.concatenate([ns32, qt32, kns.ravel(), kqt.ravel()])))
    if c <= 0:
        raise DatasetError("non-positive median cost")
    return ns32 / c, qt32 / c, delta / c, kns / c, kqt / c, c


def train_dqn(trajs: Sequence[Trajectory], hyper: DqnHyper | None = None,
              seed: int = 0):
    """Offline value learning over a fixed trajectory set.

    Each step takes one trajectory (reshuffled once per pass), picks an
    epsilon-greedy action at the 32x32 level, stores the transition (a
    split also stores its four children, both actions, with their true
    costs), then fits a sampled batch against bellman targets with
    gradients only through the taken actions. Returns the model and a
    (step, mean TD error, epsilon) diagnostics list; a model whose
    parameters blew up is refused (ModelError).
    """
    hyper = hyper or DqnHyper()
    if not trajs:
        raise DatasetError("empty trajectory set")
    ns32, qt32, delta, kns, kqt, c_median = _scaled_costs(trajs)

    root = np.random.SeedSequence(seed)
    init_seq, order_seq, act_seq, mem_seq = root.spawn(4)
    model = init_model(hidden=hyper.hidden, out=2, seed=init_seq)
    memory = ReplayMemory(hyper.capacity, seed=mem_seq)
    order_rng = np.random.default_rng(order_seq)
    act_rng = np.random.default_rng(act_seq)
    adam = adam_init(model, lr=hyper.lr)

    n = len(trajs)
    order = np.empty(0, dtype=np.int64)
    diagnostics = []
    for step in range(hyper.steps):
        at = step % n
        if at == 0:
            order = order_rng.permutation(n)
        i = int(order[at])
        t = trajs[i]
        eps = epsilon_at(step, hyper)
        action = select_action(model, t.state32, eps, act_rng)
        if action == ACTION_NS:
            memory.push(Transition(t.state32, ACTION_NS, float(ns32[i]),
                                   delta_qt=float(delta[i])))
        else:
            memory.push(Transition(t.state32, ACTION_QT, float(qt32[i]),
                                   next_states=t.child_features,
                                   delta_qt=float(delta[i])))
            for j in range(4):
                memory.push(Transition(t.child_features[j], ACTION_NS,
                                       float(kns[i, j]), terminal=True))
                memory.push(Transition(t.child_features[j], ACTION_QT,
                                       float(kqt[i, j]), terminal=True))

        batch = memory.sample(hyper.batch)
        targets = _batch_targets(batch, model)
        X = np.stack([b.state for b in batch])
        actions = np.array([b.action for b in batch])
        out, cache = forward_cached(model, X)
        rows = np.arange(len(batch))
        td = out[rows, actions].astype(np.float64) - targets
        dout = np.zeros_like(out)
        dout[rows, actions] = (2.0 / len(batch)) * td.astype(model.dtype)
        grads = backward(model, cache, dout)
        adam_step(model, grads, adam)
        diagnostics.append((step, float(np.mean(np.abs(td))), eps))
    check_parameter_scale(model)

    model.meta.update({"variant": "Q32_16",
                       "normalization": {"mode": "median", "c_median": c_median},
                       "layout_hash": LAYOUT_HASH, "seed": seed,
                       "gamma": 1.0,        # the bootstrap is undiscounted
                       "out": 2,
                       "hidden": [int(h) for h in hyper.hidden]})
    return model, diagnostics
