"""Engine selection: a launch runs on the engine it asks for, and on
nothing else.  The graph engine is the default, observed runs included
— fault injection and the sanitizer only make the scheduler drive
memory through the real ports.  Lowering is total: an alloca or a call
that survived inlining is a trap node, which fails the run with the
dynamic engine's `EngineError` text at the cycle the dynamic engine
fails, and costs nothing while it never issues."""

import dataclasses
import json

import numpy as np
import pytest

from repro.exec.context import SimContext
from repro.workloads import get_workload


# Attached but never fired: the run's results equal a fault-free run's.
IDLE_FAULT = "bit_flip@spm:access=1000000000"


def _graph_ctx(**kwargs):
    kwargs.setdefault("memory", "spm")
    return SimContext(get_workload("gemm"), seed=7, verify=False,
                      engine="graph", **kwargs)


def _dynamic_json(**kwargs):
    kwargs.setdefault("memory", "spm")
    result = SimContext(get_workload("gemm"), seed=7, verify=False,
                        engine="dynamic", **kwargs).run()
    return json.dumps(result.to_dict())


def test_fault_injection_falls_back(launched):
    # It no longer does: the injector's hooks sit on the real ports,
    # which the scheduler drives for a run that watches memory.
    stall = "port_stall@memctrl:tick=50000,cycles=300"
    ctx = _graph_ctx(faults=stall)
    result = ctx.run()
    assert ctx.engine_used == "graph"
    assert launched == ["graph"]
    assert ctx.fault_injector.injected  # the stall fired
    assert ctx.accelerator.unit.inline_spm() is None
    assert json.dumps(result.to_dict()) == _dynamic_json(faults=stall)


def test_watchdog_falls_back(launched):
    # It no longer does: the graph scheduler checks the watchdog itself.
    ctx = _graph_ctx(watchdog=True)
    ctx.run()
    assert ctx.engine_used == "graph"
    assert launched == ["graph"]


def test_timeout_falls_back(launched):
    # timeout_s is a wall-clock watchdog, so it stays on graph too.
    ctx = _graph_ctx(timeout_s=60.0)
    ctx.run()
    assert ctx.engine_used == "graph"
    assert launched == ["graph"]


def test_cache_memory_falls_back(launched):
    # It no longer does: the graph scheduler drives the memctrl and the
    # cache/DRAM ports behind it.
    ctx = _graph_ctx(memory="cache")
    ctx.run()
    assert ctx.engine_used == "graph"
    assert launched == ["graph"]


def test_fallback_run_identical_to_explicit_dynamic(launched):
    # An idle fault plan no longer moves the run: it stays on graph and
    # matches an explicit dynamic run byte for byte.
    observed = _graph_ctx(faults=IDLE_FAULT)
    first = observed.run()
    assert observed.engine_used == "graph"
    assert launched == ["graph"]
    assert json.dumps(first.to_dict()) == _dynamic_json(faults=IDLE_FAULT)


def test_engine_provenance_is_not_serialized():
    # A result carries no engine: cached results must stay
    # byte-identical no matter which engine produced them.
    result = _graph_ctx(faults=IDLE_FAULT).run()
    fields = {f.name for f in dataclasses.fields(result)}
    payload = result.to_dict()
    for name in ("engine", "engine_used"):
        assert name not in fields
        assert name not in payload


# Eight pushes to a stream window, then eight pops back from it: the
# unrolled same-address stores may only pipeline because the region is
# strictly ordered (an ordinary region would serialize them).
LOOPBACK = """
void loopback(double s[1], double out[8]) {
  #pragma unroll 8
  for (int i = 0; i < 8; i++) {
    s[0] = (double)i;
  }
  #pragma unroll 8
  for (int i = 0; i < 8; i++) {
    out[i] = s[0];
  }
}
"""


def _strict_route_run(engine):
    from repro.mem.stream_buffer import StreamBuffer
    from repro.mem.stream_port import StreamPort
    from repro.system.soc import StandaloneAccelerator

    acc = StandaloneAccelerator(LOOPBACK, "loopback", engine=engine)
    buffer = StreamBuffer("b", acc.system, capacity_tokens=8)
    port = StreamPort("sp", acc.system, buffer, base=0x9000_0000)
    acc.unit.comm.add_memory_route(port.range, port.port, strict=True)
    out = acc.alloc(64)
    result = acc.run([port.range.start, out])
    assert acc.read_array(out, np.float64, 8).tolist() == list(range(8))
    return acc, result


def test_strict_route_stays_on_graph(launched):
    # Strict regions are ordered in the scheduler's conflict scan; the
    # second route also makes the unit's memory port-backed.
    acc, graph = _strict_route_run("graph")
    assert acc.unit.engine_request == "graph"
    assert acc.unit.inline_spm() is None
    __, dynamic = _strict_route_run("dynamic")
    assert launched == ["graph", "dynamic"]
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())


def test_graph_is_the_default(launched):
    ctx = SimContext(get_workload("gemm"))
    ctx.run()
    assert ctx.engine == "graph"
    assert ctx.engine_used == "graph"
    assert launched == ["graph"]


def test_honoured_request_reports_no_reason(launched):
    ctx = _graph_ctx()
    assert ctx.engine_used is None  # nothing launched yet
    ctx.run()
    assert ctx.engine_used == "graph"
    assert launched == ["graph"]


def test_dynamic_request_never_reports_fallback(launched):
    ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                     engine="dynamic", memory="spm")
    ctx.run()
    assert ctx.engine_used == "dynamic"
    assert launched == ["dynamic"]


def test_unknown_engine_rejected():
    ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                     engine="warp", memory="spm")
    with pytest.raises(ValueError, match="engine"):
        ctx.build()


# A local array: without mem2reg in the pipeline its alloca reaches the
# datapath, and both engines refuse it when it issues.
LOCAL_ARRAY = """
void scale(double a[4], double out[4]) {
  double tmp[4];
  for (int i = 0; i < 4; i++) {
    tmp[i] = a[i] * 2.0;
  }
  for (int i = 0; i < 4; i++) {
    out[i] = tmp[i];
  }
}
"""

# Without the inline pass the helper call survives into the datapath.
HELPER_CALL = """
double twice(double x) { return x * 2.0; }
void scale(double a[4], double out[4]) {
  for (int i = 0; i < 4; i++) {
    out[i] = twice(a[i]);
  }
}
"""

# mem2reg cannot promote the array, so its alloca stays in the guarded
# block, which a run with n <= 100 never fetches.
GUARDED_ARRAY = """
void guarded(double a[4], double out[4], int n) {
  if (n > 100) {
    double tmp[4];
    for (int i = 0; i < 4; i++) {
      tmp[i] = a[i] * 2.0;
    }
    for (int i = 0; i < 4; i++) {
      out[i] = tmp[i];
    }
  }
  for (int i = 0; i < 4; i++) {
    out[i] = out[i] + a[i];
  }
}
"""


def _trap_run(engine, source, pipeline):
    """The `EngineError` text a run stops with, and the tick it stops at."""
    from repro.core.runtime import EngineError
    from repro.system.soc import StandaloneAccelerator

    acc = StandaloneAccelerator(source, "scale", pipeline=pipeline,
                                engine=engine)
    with pytest.raises(EngineError) as info:
        acc.run([acc.alloc(32), acc.alloc(32)])
    return str(info.value), acc.system.cur_tick


@pytest.mark.parametrize("source, pipeline, reason", [
    (LOCAL_ARRAY, "constfold", "alloca reached the datapath"),
    (HELPER_CALL, "mem2reg", "call to '@twice' survived inlining"),
], ids=["local_array", "helper_call"])
def test_trap_node_fails_like_dynamic(launched, source, pipeline, reason):
    graph = _trap_run("graph", source, pipeline)
    assert launched == ["graph"]
    dynamic = _trap_run("dynamic", source, pipeline)
    assert graph == dynamic
    assert graph[0].startswith(f"scale.acc.engine: {reason}")


def test_untaken_trap_matches_dynamic(launched):
    from repro.system.soc import StandaloneAccelerator

    def run(engine):
        acc = StandaloneAccelerator(GUARDED_ARRAY, "guarded", engine=engine)
        a, out = acc.alloc_array(np.arange(4.0)), acc.alloc(32)
        result = acc.run([a, out, 0])
        assert acc.read_array(out, np.float64, 4).tolist() == [0, 1, 2, 3]
        return json.dumps(result.to_dict(), sort_keys=True)

    graph = run("graph")
    assert launched == ["graph"]
    assert graph == run("dynamic")
