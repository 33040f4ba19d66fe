"""Fig. 16c at seed 7: the stream handshake wakes each blocked endpoint
once per notification.

A pop or push the FIFO refuses registers the endpoint as a waiter; an
endpoint already waiting is not registered again, so a wake runs one
drain and ``*_stalls`` counts refused attempts, not duplicate wakes.
Timing is pinned alongside: the handshake must not move ``total_ns`` or
any accelerator's cycle count.
"""

import pytest

from repro.system.cnn_scenarios import run_stream


@pytest.fixture(scope="module")
def stream():
    return run_stream(seed=7)


def _buffer_stats(result) -> dict:
    return {name: value for name, value in result.soc.system.dump_stats().items()
            if ".buf_" in name}


def test_stream_timing_pinned(stream):
    assert stream.verified
    assert stream.total_ns == 17231.438
    assert stream.acc_cycles == {"conv": 1391, "relu": 1357, "pool": 1312}


def test_stream_stalls_count_refused_attempts(stream):
    stats = _buffer_stats(stream)
    assert stats["cl.buf_cr.pop_stalls"] == 391
    assert stats["cl.buf_rp.pop_stalls"] == 391
    assert stats["cl.buf_in.pop_stalls"] == 48
    assert stats["cl.buf_in.push_stalls"] == 30
    assert stats["cl.buf_out.pop_stalls"] == 41
    for name in ("in", "cr", "rp", "out"):
        assert stats[f"cl.buf_{name}.pops"] == stats[f"cl.buf_{name}.pushes"]


def test_stream_events_fired(stream):
    # 55,106 while every refused pop re-registered its port's drain;
    # 11,348 while the graph scheduler's compute commits were events.
    assert stream.soc.system.eventq.events_fired == 8149


def test_stream_stats_match_dynamic_engine(stream):
    dynamic = run_stream(seed=7, engine="dynamic")
    assert dynamic.total_ns == stream.total_ns
    assert dynamic.acc_cycles == stream.acc_cycles
    assert _buffer_stats(dynamic) == _buffer_stats(stream)
