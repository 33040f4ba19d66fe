"""Differential suite for host-launched accelerators: the three Fig. 16
CNN scenarios on the graph engine ≡ the same scenarios on the event
queue.

Every launch there comes from the host's MMR START write, lands off the
accelerator clock edge, and shares the platform with the DMA, the
interrupt controller, the crossbars and (in ``stream``) strictly-ordered
stream ports — so these cases cover the SoC half of the graph engine:
one launch path, port-backed cluster memory, the mid-cycle start and
the strict-region conflict rule.
"""

import hashlib
import json

import pytest

from repro.system.cnn_scenarios import SCENARIOS


def _units(result):
    return [unit for cluster in result.soc.clusters
            for unit in cluster.accelerators]


def _snapshot(result) -> str:
    """Everything a scenario reports, serialized in insertion order."""
    soc = result.soc
    image = soc.dram.image
    return json.dumps({
        "total_ns": result.total_ns,
        "acc_cycles": result.acc_cycles,
        "verified": result.verified,
        "stats": soc.system.dump_stats(),
        "units": {
            unit.name: {
                "power": unit.power_report().to_dict(),
                "occupancy": unit.engine.occupancy.to_dict(),
                "fu_energy_pj": unit.engine.fu_energy_pj,
                "register_energy_pj": unit.engine.register_energy_pj,
                "busy_cycles": unit.total_busy_cycles,
            }
            for unit in _units(result)
        },
        "dram": hashlib.sha256(image.read(image.base, image.size)).hexdigest(),
    })


@pytest.mark.parametrize("seed", [7, 3])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_graph_matches_dynamic(name, seed):
    dynamic = SCENARIOS[name](seed=seed, engine="dynamic")
    graph = SCENARIOS[name](seed=seed)  # graph is the default
    assert [unit.engine_request for unit in _units(dynamic)] == ["dynamic"] * 3
    assert [unit.engine_request for unit in _units(graph)] == ["graph"] * 3
    assert graph.verified
    assert _snapshot(graph) == _snapshot(dynamic)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sanitized_scenario_stays_on_graph(name):
    from repro.sim.sanitizer import AccessSanitizer

    dynamic = SCENARIOS[name](seed=7, sanitizer=AccessSanitizer(),
                              engine="dynamic")
    graph = SCENARIOS[name](seed=7, sanitizer=AccessSanitizer())
    assert [unit.engine_request for unit in _units(graph)] == ["graph"] * 3
    assert graph.sanitizer == dynamic.sanitizer
    assert _snapshot(graph) == _snapshot(dynamic)
