"""The per-cycle scheduling log (Sec. III-C2) as `TraceHub` ``compute``
spans of a graph-engine run: one span per committed instruction, from
its issue edge to its commit edge. The `traced_axpy` fixture lives in
`tests/conftest.py`; tests/core/test_debug_trace.py checks the
issue/commit pairing."""


def test_fadd_span_lasts_the_fp_add_latency(traced_axpy):
    ctx, spans = traced_axpy
    acc = ctx.accelerator
    period = acc.unit.engine.clock.period
    fadds = [span for span in spans if span.kind == "fadd"]
    assert fadds
    latency = acc.profile.spec_for("fp_add").latency
    assert all(span.dur == latency * period for span in fadds)


def test_load_spans_carry_addresses(traced_axpy):
    __, spans = traced_axpy
    loads = [span for span in spans if span.kind == "load"]
    assert loads and all(isinstance(span.args.get("addr"), int)
                         for span in loads)
