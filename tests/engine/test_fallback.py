"""Fallback rules: the graph engine is the default, observed runs
included — fault injection and the sanitizer only make the scheduler
drive memory through the real ports — and the one launch that moves to
the event queue is a datapath the lowering rejects, which then behaves
exactly like an explicit dynamic run."""

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


def test_fault_injection_falls_back():
    # It no longer does: the injector's hooks sit on the real ports,
    # which the scheduler drives for a run that watches memory.
    stall = "port_stall@memctrl:tick=50000,cycles=300"
    ctx = _graph_ctx(faults=stall)
    result = ctx.run()
    assert ctx.engine_used == "graph"
    assert ctx.fallback_reason is None
    assert ctx.fault_injector.injected  # the stall fired
    assert ctx.accelerator.unit.inline_spm() is None
    assert json.dumps(result.to_dict()) == _dynamic_json(faults=stall)


def test_watchdog_falls_back():
    # It no longer does: the graph scheduler checks the watchdog itself.
    ctx = _graph_ctx(watchdog=True)
    ctx.run()
    assert ctx.engine_used == "graph"
    assert ctx.fallback_reason is None


def test_timeout_falls_back():
    # timeout_s is a wall-clock watchdog, so it stays on graph too.
    ctx = _graph_ctx(timeout_s=60.0)
    ctx.run()
    assert ctx.engine_used == "graph"
    assert ctx.fallback_reason is None


def test_cache_memory_falls_back():
    # It no longer does: the graph scheduler drives the memctrl and the
    # cache/DRAM ports behind it.
    ctx = _graph_ctx(memory="cache")
    ctx.run()
    assert ctx.engine_used == "graph"
    assert ctx.fallback_reason is None


def test_fallback_run_identical_to_explicit_dynamic():
    # An idle fault plan no longer moves the run: it stays on graph and
    # matches an explicit dynamic run byte for byte.
    observed = _graph_ctx(faults=IDLE_FAULT)
    first = observed.run()
    assert observed.engine_used == "graph"
    assert json.dumps(first.to_dict()) == _dynamic_json(faults=IDLE_FAULT)


def test_engine_provenance_is_not_serialized():
    # engine_used/fallback_reason are transient: cached results must
    # stay byte-identical no matter which engine produced them.
    result = _graph_ctx(faults=IDLE_FAULT).run()
    assert result.engine_used == "graph"
    assert result.fallback_reason is None
    payload = result.to_dict()
    assert "engine_used" not in payload
    assert "fallback_reason" not in payload


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


def test_strict_route_stays_on_graph():
    # Strict regions are ordered in the scheduler's conflict scan; the
    # second route also makes the unit's memory port-backed.
    acc, graph = _strict_route_run("graph")
    assert acc.engine_used == "graph"
    assert acc.fallback_reason is None
    assert acc.unit.inline_spm() is None
    __, dynamic = _strict_route_run("dynamic")
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())


def test_graph_is_the_default():
    ctx = SimContext(get_workload("gemm"))
    ctx.run()
    assert ctx.engine == "graph"
    assert ctx.engine_used == "graph"
    assert ctx.fallback_reason is None


def test_honoured_request_reports_no_reason():
    ctx = _graph_ctx()
    ctx.run()
    assert ctx.engine_used == "graph"
    assert ctx.fallback_reason is None


def test_dynamic_request_never_reports_fallback():
    ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                     engine="dynamic", memory="spm")
    ctx.run()
    assert ctx.engine_used == "dynamic"
    assert ctx.fallback_reason is None


def test_unknown_engine_rejected():
    ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                     engine="warp", memory="spm")
    with pytest.raises(ValueError, match="engine"):
        ctx.build()


# A local array: without mem2reg in the pipeline its alloca reaches the
# datapath, which the graph lowering rejects and the dynamic engine
# refuses at issue time.
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


def _local_array_run(engine):
    from repro.core.runtime import EngineError
    from repro.system.soc import StandaloneAccelerator

    acc = StandaloneAccelerator(LOCAL_ARRAY, "scale", pipeline="constfold",
                                engine=engine)
    with pytest.raises(EngineError) as info:
        acc.run([acc.alloc(32), acc.alloc(32)])
    return acc, str(info.value)


def test_lowering_failure_falls_back_to_dynamic():
    acc, graph_error = _local_array_run("graph")
    assert acc.engine_used == "dynamic"
    assert acc.fallback_reason.startswith("lowering failed")
    explicit, dynamic_error = _local_array_run("dynamic")
    assert explicit.fallback_reason is None
    assert graph_error == dynamic_error
