"""The benchmark's traced self-check holds on the current program.

``perfbench`` pins the call counts of the search's layers (NS encodes,
descriptors and their texture kernels, DCTs, forwards against verdicts,
pixels saved). A change that moves one fails here, in the tests, rather
than in a benchmark run. The benchmark's modules are imported from the
checkout as they are and never edited.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("frames", "tracer", "pipeline", "layers")     # its top-level imports


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``pipeline`` and ``layers`` modules, dropped from
    ``sys.modules`` again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import pipeline
    yield pipeline, layers
    for name in MODULES:
        sys.modules.pop(name, None)


def test_traced_self_check_holds(perfbench, tmp_path):
    pipeline, layers = perfbench
    pipe = pipeline.Pipeline(tmp_path, seed=1, jobs=1, seeded=("collect", "heldout"))
    pipe.setup()
    pipe.collect()
    pipe.train()
    for stage in ("collect", "evaluate"):
        layers.traced_stages(pipe, (stage,), 2)
    assert pipe.failures == []
