"""The instrumentation bus: attach/detach wiring, fan-out, and every
observer combination on one run."""

import json

import pytest

from repro.exec import SimContext
from repro.faults import FaultInjector
from repro.mem.spm import Scratchpad
from repro.sim.probe import Probe, ProbeFanout, watches_memory
from repro.sim.sanitizer import AccessSanitizer
from repro.sim.simobject import SimObject
from repro.trace import TraceHub
from repro.workloads import get_workload


def _trace(system):
    hub = system.attach_probe(TraceHub())
    return hub, lambda: system.detach_probe(hub)


def _faults(system):
    injector = FaultInjector("bit_flip@spm:access=1,addr=0x1000,bit=0")
    return injector.attach(system), injector.detach


def _sanitizer(system):
    sanitizer = system.attach_probe(AccessSanitizer())
    return sanitizer, lambda: system.detach_probe(sanitizer)


@pytest.mark.parametrize("attach", [_trace, _faults, _sanitizer],
                         ids=["trace", "faults", "sanitizer"])
def test_attach_late_register_detach(system, attach):
    spm = Scratchpad("spm", system, base=0x1000, size=64)
    assert spm._probe is None
    observer, detach = attach(system)
    assert spm._probe is observer
    late = SimObject("late", system)  # registered after attach
    assert late._probe is observer
    detach()
    assert spm._probe is None and late._probe is None
    assert system.observers == []
    assert system.eventq.trace_hook is None


def test_fanout_reaches_every_observer(system):
    spm = Scratchpad("spm", system, base=0x1000, size=64)
    hub = system.attach_probe(TraceHub(channels="mem"))
    assert system.eventq.trace_hook is None  # no sched channel
    sanitizer = system.attach_probe(AccessSanitizer())
    probe = spm._probe
    assert isinstance(probe, ProbeFanout)
    assert probe.enabled("mem") and not probe.enabled("sched")
    probe.access(spm, "a", 0x1000, 8, True, 0)
    probe.emit("mem", spm.name, "read", 0)
    assert sanitizer.num_records == 1
    assert hub.emitted["mem"] == 1
    system.detach_probe(hub)
    assert spm._probe is sanitizer


# -- whole runs ------------------------------------------------------------------
STALL = "port_stall@memctrl:tick=20000,cycles=50"


def _run(**modes):
    ctx = SimContext(get_workload("gemm_dse"), memory="spm", spm_bytes=1 << 16,
                     **modes)
    return ctx, ctx.run()


def test_only_a_trace_hub_keeps_the_graph_engine():
    # Every observer keeps it now; only the memory model differs.
    traced, __ = _run(engine="graph", trace=True)
    assert traced.engine_used == "graph"
    assert traced.trace_hub.emitted["compute"] > 0
    faulty, observed = _run(engine="graph", trace=True, faults=STALL,
                            sanitize=True)
    assert faulty.engine_used == "graph"
    __, dynamic = _run(engine="dynamic", trace=True, faults=STALL,
                       sanitize=True)
    assert _result_json(observed) == _result_json(dynamic)
    assert observed.sanitizer == dynamic.sanitizer


def _result_json(result):
    data = result.to_dict()
    data.pop("trace_summary")
    data.pop("sanitizer")
    return json.dumps(data, sort_keys=True)


def _trace_events(ctx):
    # The build channel carries wall-clock seconds.
    return [event.to_dict() for event in ctx.trace_hub.events()
            if event.channel != "build"]


def test_trace_faults_and_sanitizer_together_match_each_alone():
    all_ctx, combined = _run(trace=True, faults=STALL, sanitize=True)
    faults_ctx, faulty = _run(faults=STALL)
    __, sanitized = _run(faults=STALL, sanitize=True)
    trace_ctx, __ = _run(trace=True, faults=STALL)

    assert _result_json(combined) == _result_json(faulty)
    assert all_ctx.fault_injector.injected == faults_ctx.fault_injector.injected
    assert all_ctx.fault_injector.injected  # the stall fired
    assert combined.sanitizer == sanitized.sanitizer
    assert _trace_events(all_ctx) == _trace_events(trace_ctx)
    assert any(event["channel"] == "faults" for event in _trace_events(all_ctx))


def test_watches_memory_is_derived_from_the_overridden_hooks():
    class Counter(Probe):
        def stalled(self, obj):
            return False

    assert not watches_memory(Probe())
    assert not watches_memory(TraceHub())
    assert watches_memory(AccessSanitizer())
    assert watches_memory(FaultInjector("bit_flip@spm:access=1"))
    assert watches_memory(Counter())
