"""Shared fixtures."""

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests without installation.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.exec import SimContext  # noqa: E402
from repro.hw.default_profile import default_profile  # noqa: E402
from repro.sim.simobject import System  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def profile():
    return default_profile()


@pytest.fixture
def system():
    return System("testsys", clock_freq_hz=1e9)


@pytest.fixture
def launched(monkeypatch):
    """The backend each launch started, in order: ``"graph"`` for a
    `GraphScheduler`, ``"dynamic"`` for the `RuntimeEngine` event queue."""
    from repro.core.runtime import RuntimeEngine
    from repro.engine import GraphScheduler

    started = []
    for cls, name in ((GraphScheduler, "graph"), (RuntimeEngine, "dynamic")):
        def start(self, *args, _start=cls.start, _name=name, **kwargs):
            started.append(_name)
            return _start(self, *args, **kwargs)
        monkeypatch.setattr(cls, "start", start)
    return started


AXPY_SRC = """
void axpy(double x[8], double y[8]) {
  for (int i = 0; i < 8; i++) { y[i] = 2.0 * x[i] + y[i]; }
}
"""


@pytest.fixture
def traced_axpy(rng):
    """A graph-engine axpy run traced on the ``compute`` channel:
    ``(ctx, compute spans)``."""
    x, y = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
    pointers = {}

    def stage(acc):
        pointers["y"] = acc.alloc_array(y)
        return [acc.alloc_array(x), pointers["y"]]

    ctx = SimContext.from_source(AXPY_SRC, "axpy", stage, spm_bytes=1 << 12,
                                 trace="compute")
    ctx.run()
    assert ctx.engine_used == "graph"
    acc = ctx.accelerator
    assert np.allclose(acc.read_array(pointers["y"], np.float64, 8), 2 * x + y)
    return ctx, ctx.trace_hub.events("compute")
