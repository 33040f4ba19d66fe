"""The per-cycle debug trace (Sec. III-C2): every issued instruction of
a traced run commits, and never before it issued. The trace is the
`TraceHub` ``compute`` channel; each span runs from an instruction's
issue edge to its commit edge."""


def test_every_issue_gets_a_commit(traced_axpy):
    ctx, spans = traced_axpy
    engine = ctx.accelerator.unit.engine
    seqs = {span.args["seq"] for span in spans}
    assert spans and len(seqs) == len(spans)
    assert len(spans) == engine.committed


def test_commit_never_precedes_issue(traced_axpy):
    __, spans = traced_axpy
    assert spans and all(span.dur >= 0 for span in spans)
