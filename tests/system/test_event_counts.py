"""Events fired by the Fig. 16 scenarios at seed 7, pinned exactly.

The graph scheduler keeps a port-backed unit's compute commits in its
own heap, keyed as the event queue would key them, so the queue fires
only the memory system's events and the ticks the loop cannot run
ahead of.  A change that puts per-cycle work back on the queue shows
here, and so does one that drops a memory event.  The stream scenario's count is
pinned with its handshake in ``test_stream_handshake.py``.
"""

import pytest

from repro.system.cnn_scenarios import SCENARIOS

#: Seed-7 events fired on the graph engine (7,319 and 12,227 while the
#: compute commits were events).
EVENTS_FIRED = {"private_spm": 4502, "shared_spm": 9410}


@pytest.mark.parametrize("name", sorted(EVENTS_FIRED))
def test_scenario_events_fired(name):
    result = SCENARIOS[name](seed=7)
    assert result.verified
    assert result.soc.system.eventq.events_fired == EVENTS_FIRED[name]
