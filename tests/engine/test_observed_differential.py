"""Observed runs stay on the graph engine: fault injection and the
access sanitizer watch memory, so the scheduler drives it through the
real ports their hooks sit on, and every result matches the dynamic
engine's byte for byte."""

import json

import pytest

from repro.exec.context import SimContext
from repro.faults import FaultInjector, SimulationHang
from repro.sim.sanitizer import AccessSanitizer
from repro.system.soc import StandaloneAccelerator
from repro.trace import TraceHub
from repro.workloads import get_workload

#: Where each memory configuration's data lives, and the object holding it.
BASE = {"spm": 0x2000_0000, "cache": 0x8000_0000}
STORE = {"spm": "spm", "cache": "l1"}

PLANS = {
    "port_stall": lambda memory: "port_stall@memctrl:tick=20000,cycles=50",
    "bit_flip": lambda memory: (f"bit_flip@{STORE[memory]}:access=1,"
                                f"addr={BASE[memory] + 7:#x},bit=6"),
    "mem_drop": lambda memory: "mem_drop@memctrl:access=5",
}


def _run(engine, memory, plan, sanitize):
    kwargs = dict(memory=memory, spm_bytes=1 << 16, faults=PLANS[plan](memory),
                  sanitize=sanitize)
    if plan == "mem_drop":
        kwargs["watchdog"] = {"livelock_cycles": 2000}
    ctx = SimContext(get_workload("gemm_dse"), seed=7, verify=False,
                     engine=engine, **kwargs)
    try:
        outcome = json.dumps(ctx.run().to_dict())
    except SimulationHang as hang:
        # Not the detection tick: the scheduler checks the watchdog
        # every `interval` cycles, the event queue every `interval`
        # fired events.
        outcome = (hang.reason, hang.inflight[1:])
    return ctx, outcome


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("memory", ["spm", "cache"])
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_observed_graph_run_matches_dynamic(plan, memory, sanitize):
    dynamic_ctx, dynamic = _run("dynamic", memory, plan, sanitize)
    ctx, graph = _run("graph", memory, plan, sanitize)
    assert ctx.engine_used == "graph"
    assert ctx.fault_injector.injected  # the fault fired
    assert ctx.fault_injector.injected == dynamic_ctx.fault_injector.injected
    assert graph == dynamic
    if plan == "mem_drop":
        assert graph[0] == "livelock" and graph[1]


# -- the rule: observers that watch memory get port-backed memory ------------
def _with_trace_hub(system):
    system.attach_probe(TraceHub())


def _with_sanitizer(system):
    system.attach_probe(AccessSanitizer())


def _with_injector(system):
    FaultInjector("bit_flip@spm:access=1000000000").attach(system)


@pytest.mark.parametrize("attach,inline", [
    ((), True),
    ((_with_trace_hub,), True),
    ((_with_sanitizer,), False),
    ((_with_injector,), False),
    ((_with_trace_hub, _with_sanitizer), False),
], ids=["none", "trace", "sanitizer", "injector", "trace+sanitizer"])
def test_inline_spm_only_while_nothing_watches_memory(attach, inline):
    workload = get_workload("gemm_dse")
    acc = StandaloneAccelerator(workload.source, workload.func_name,
                                memory="spm", spm_bytes=1 << 16)
    for hook in attach:
        hook(acc.system)
    spm = acc.unit.inline_spm()
    assert (spm is acc.unit.private_spm) if inline else (spm is None)
