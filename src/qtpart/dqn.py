"""Two-depth value learning for split decisions.

One network with two outputs scores the no-split (0) and split (1)
actions of a block descriptor. Training replays 32x32 trajectories.

Training fills two tables indexed by (trajectory, slot), slot 0 the
32x32 block and slots 1-4 its children: the descriptors and the scaled
(no-split, split) costs. A replay entry is the integer code
``(trajectory * 5 + slot) * 2 + action`` into them. An entry's target is
its stored cost, except a 32x32 split's: ``bootstrap_targets`` sums the
signalling charge and the children's cheaper action values, for all such
entries of a batch in one forward. All costs are whole-block values
scaled by one median taken over the training set, which makes the
bootstrap an exact sum. Gradients flow only through the taken action's
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import NS, choose
from .dataset import DatasetError, Trajectory
from .features import FEATURE_COUNT
from .mlp import (DEFAULT_HIDDEN, MlpModel, ModelError, adam_init, adam_step,
                  backward, check_parameter_scale, forward, forward_cached,
                  init_model)

ACTION_NS, ACTION_QT = 0, 1
AREA_32, AREA_16 = 32 * 32, 16 * 16
EPS_START, EPS_END = 1.0, 0.05                   # exploration schedule ends


class ReplayMemory:
    """Bounded FIFO ring of replay codes, seeded uniform sampling."""

    def __init__(self, capacity: int, seed=0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._codes: list[int] = []
        self._next = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self._codes)

    def push(self, code: int) -> None:
        if len(self._codes) < self.capacity:
            self._codes.append(code)
        else:
            self._codes[self._next] = code       # overwrite oldest
            self._next = (self._next + 1) % self.capacity

    def sample(self, n: int) -> np.ndarray:
        if not self._codes:
            raise ValueError("cannot sample from an empty memory")
        n = min(n, len(self._codes))
        idx = self._rng.choice(len(self._codes), size=n, replace=False)
        return np.array([self._codes[i] for i in idx.tolist()], dtype=np.int64)


@dataclass
class DqnHyper:
    steps: int = 2000
    batch: int = 512
    capacity: int = 100_000
    lr: float = 1e-5
    hidden: tuple = DEFAULT_HIDDEN

    def __post_init__(self):
        if self.steps <= 0 or self.batch <= 0:
            raise ValueError("steps and batch must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if not self.lr > 0:
            raise ValueError("lr must be positive")


def epsilon_at(step: int, hyper: DqnHyper) -> float:
    """Linear schedule from EPS_START at step 0 to EPS_END at step
    ``hyper.steps``, so exploration anneals over the whole run."""
    frac = min(max(step, 0) / hyper.steps, 1.0)
    return EPS_START + (EPS_END - EPS_START) * frac


def select_action(model: MlpModel, state: np.ndarray, eps: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy pick of the cheaper action; ties go to no-split."""
    if model.out_dim != 2:
        raise ModelError("action-value model must have two outputs")
    if rng.random() < eps:
        return int(rng.integers(2))
    q = forward(model, state)
    return ACTION_NS if choose(q[ACTION_NS], q[ACTION_QT]) == NS else ACTION_QT


def bootstrap_targets(delta: np.ndarray, children: np.ndarray,
                      model: MlpModel) -> np.ndarray:
    """Split targets of k rows: each row's signalling charge plus the sum
    over its four children (k, 4, 115) of the cheaper action value, from
    one forward over all the children in row order."""
    q = np.asarray(forward(model, children.reshape(-1, children.shape[-1])),
                   dtype=np.float64)
    best = np.minimum(q[:, ACTION_NS], q[:, ACTION_QT]).reshape(len(delta), 4)
    # fsum keeps each 4-term sum exactly rounded and order-independent
    return np.array([float(d) + math.fsum(b) for d, b in zip(delta, best)])


def _scaled_costs(trajs: Sequence[Trajectory]):
    """Whole-block (n, 5, 2) cost table and (n,) split signalling charges,
    both scaled by the pooled median of the table, and that median."""
    costs = np.empty((len(trajs), 5, 2))
    costs[:, 0] = [(t.ns_j_pp, t.qt_j_pp) for t in trajs]
    costs[:, 0] *= AREA_32
    costs[:, 1:, ACTION_NS] = [t.child_ns_j_pp for t in trajs]
    costs[:, 1:, ACTION_QT] = [t.child_qt_j_pp for t in trajs]
    costs[:, 1:] *= AREA_16
    delta = np.array([t.delta_qt_pp for t in trajs]) * AREA_32
    c = float(np.median(costs))
    if c <= 0:
        raise DatasetError("non-positive median cost")
    return costs / c, delta / c, c


def train_dqn(trajs: Sequence[Trajectory], hyper: DqnHyper | None = None,
              seed: int = 0):
    """Offline value learning over a fixed trajectory set.

    Each step takes one trajectory (reshuffled once per pass), picks an
    epsilon-greedy action at the 32x32 level, stores its replay code (a
    split also stores both actions of its four children, which train on
    their true costs), then fits a sampled batch against its stored costs
    and bootstrap targets with gradients only through the taken actions.
    Returns the model and a (step, mean TD error, epsilon) diagnostics
    list; a model whose parameters blew up is refused (ModelError).
    """
    hyper = hyper or DqnHyper()
    if not trajs:
        raise DatasetError("empty trajectory set")
    costs, delta, c_median = _scaled_costs(trajs)
    states = np.empty(costs.shape[:2] + (FEATURE_COUNT,), dtype=np.float32)
    states[:, 0] = [t.state32 for t in trajs]
    states[:, 1:] = [t.child_features for t in trajs]

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
        eps = epsilon_at(step, hyper)
        action = select_action(model, states[i, 0], eps, act_rng)
        memory.push(i * 10 + action)             # code of (i, slot 0, action)
        if action == ACTION_QT:                  # then slots 1-4, NS before QT
            for code in range(i * 10 + 2, i * 10 + 10):
                memory.push(code)

        codes = memory.sample(hyper.batch)
        traj, slot, actions = np.unravel_index(codes, costs.shape)
        targets = costs[traj, slot, actions]
        boot = np.flatnonzero((slot == 0) & (actions == ACTION_QT))
        if boot.size:
            targets[boot] = bootstrap_targets(delta[traj[boot]],
                                              states[traj[boot], 1:], model)
        out, acts = forward_cached(model, states[traj, slot])
        rows = np.arange(len(codes))
        td = out[rows, actions].astype(np.float64) - targets
        dout = np.zeros_like(out)
        dout[rows, actions] = (2.0 / len(codes)) * td.astype(model.dtype)
        grads = backward(model, acts, dout)
        adam_step(model, grads, adam)
        diagnostics.append((step, float(np.mean(np.abs(td))), eps))
    check_parameter_scale(model)

    model.meta.update({"variant": "Q32_16",
                       "normalization": {"mode": "median", "c_median": c_median},
                       "seed": seed,
                       "gamma": 1.0})       # the bootstrap is undiscounted
    return model, diagnostics
