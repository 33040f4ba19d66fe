"""SimContext(sanitize=True): zero timing impact, cache bypass, graph engine."""

import json

from repro.exec import RunCache, SimContext
from repro.workloads import get_workload


def _ctx(**overrides):
    kwargs = dict(memory="spm", spm_bytes=1 << 15, unroll_factor=2)
    kwargs.update(overrides)
    return SimContext(get_workload("gemm_dse"), **kwargs)


def _stats(result):
    data = result.to_dict()
    data.pop("sanitizer", None)
    return json.dumps(data, sort_keys=True)


def test_sanitized_run_reports_clean_and_identical_stats():
    plain = _ctx().run()
    sanitized_ctx = _ctx(sanitize=True)
    sanitized = sanitized_ctx.run()
    assert sanitized.sanitizer is not None
    assert sanitized.sanitizer["clean"]
    assert sanitized.sanitizer["num_records"] > 0
    # The sanitizer observes; it must never perturb the simulation.
    assert _stats(plain) == _stats(sanitized)
    assert plain.sanitizer is None


def test_sanitized_run_bypasses_run_cache():
    cache = RunCache()
    _ctx(cache=cache).run()
    assert cache.misses == 1
    _ctx(cache=cache, sanitize=True).run()
    assert cache.hits == 0  # neither read from ...
    assert cache.misses == 1  # ... nor written to the cache


def test_sanitize_forces_dynamic_engine():
    # It no longer does: a sanitized run stays on graph with port-backed
    # memory and matches an explicit dynamic run, report included.
    ctx = _ctx(sanitize=True, engine="graph")
    result = ctx.run()
    assert ctx.engine_used == "graph"
    assert ctx.accelerator.unit.inline_spm() is None
    assert result.sanitizer["num_records"] > 0
    dynamic = _ctx(sanitize=True, engine="dynamic").run()
    assert (json.dumps(result.to_dict(), sort_keys=True)
            == json.dumps(dynamic.to_dict(), sort_keys=True))


def test_sanitizer_detached_on_reset():
    ctx = _ctx(sanitize=True)
    ctx.run()
    ctx.reset()
    assert ctx.sanitizer is None
    # A fresh run re-attaches and reports again.
    assert ctx.run().sanitizer is not None


def test_result_round_trips_sanitizer_section():
    from repro.exec import RunResult

    result = _ctx(sanitize=True).run()
    clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert clone.sanitizer == result.sanitizer
