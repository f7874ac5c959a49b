import pytest

from qtpart.codec import CodecConfig
from qtpart.dataset import collect_records, collect_trajectories
from qtpart.mlp import TrainHyper, train_regression

from helpers import natural_frame

QPS = (22, 27, 32, 37)


@pytest.fixture(scope="session")
def frames3():
    return [natural_frame(s) for s in range(3)]


@pytest.fixture(scope="session")
def held_frame():
    return natural_frame(99)


@pytest.fixture(scope="session")
def records_mixed(frames3):
    """Size 32 and 16 records off three textured frames, unbalanced."""
    return collect_records(frames3, QPS, CodecConfig(), sizes=(32, 16), seed=5)


@pytest.fixture(scope="session")
def records32(frames3):
    return collect_records(frames3, QPS, CodecConfig(), sizes=(32,), seed=5)


@pytest.fixture(scope="session")
def trajectories_small(frames3):
    return collect_trajectories(frames3[:2], (22, 32), CodecConfig(), seed=5)


@pytest.fixture(scope="session")
def tiny_model(records32):
    """Quickly fitted size-32 ratio model; used where quality is irrelevant."""
    model, _ = train_regression(records32, "N32",
                                TrainHyper(lr=1e-4, batch=256, epochs=3),
                                seed=1)
    return model
