"""The staged pipeline: stage products, timing, tracing, store chaining."""

import pytest

from repro.build import (
    Artifact,
    ArtifactStore,
    BuildPipeline,
    ElaboratedDesign,
    PipelineSpec,
    build_design,
    build_module,
)
from repro.build.pipeline import STAGE_COUNTERS, resolve_spec
from repro.core.config import DeviceConfig
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.trace import TraceConfig

SRC = """
void saxpy(double a[16], double x[16], double y[16]) {
  for (int i = 0; i < 16; i++) { y[i] = 2.0 * a[i] * x[i] + y[i]; }
}
"""


# -- individual stages ------------------------------------------------------
def test_stage_chain_kinds():
    bp = BuildPipeline("o1")
    ast = bp.parse(SRC)
    ir = bp.lower(ast, "saxpy")
    opt = bp.optimize(ir)
    design = bp.elaborate(opt, "saxpy")
    assert [a.kind for a in (ast, ir, opt, design)] == [
        "ast", "ir", "opt-ir", "design"]
    assert isinstance(ir.module, Module)
    assert isinstance(design.payload, ElaboratedDesign)
    assert design.payload.func_name == "saxpy"
    assert design.payload.cdfg.total_instructions() > 0


def test_optimize_records_pipeline_and_fingerprint():
    bp = BuildPipeline("mem2reg,dce")
    opt = bp.optimize(bp.lower(bp.parse(SRC), "saxpy"))
    assert opt.meta["pipeline"] == "mem2reg,dce"
    assert len(opt.meta["fingerprint"]) == 64


def test_per_stage_timings_recorded():
    bp = BuildPipeline("o1")
    artifact = bp.build_module(SRC, "saxpy")
    timings = artifact.meta["timings"]
    stages = {name for name in timings if not name.startswith("pass:")}
    assert stages == {"parse", "lower", "optimize"}
    # Every executed pass contributes its own timing alongside the stages.
    assert any(name.startswith("pass:") for name in timings)
    assert all(seconds >= 0 for seconds in timings.values())
    assert bp.timings == timings


def test_build_events_on_trace_channel():
    hub = TraceConfig(channels="build").make_hub()
    build_module(SRC, "saxpy", pipeline="o1", trace_hub=hub)
    kinds = [e.kind for e in hub.events()]
    stages = [k for k in kinds if not k.startswith("pass:")]
    assert stages == ["parse", "lower", "optimize"]
    # Per-pass events are mirrored onto the same channel.
    assert any(k.startswith("pass:") for k in kinds)


def test_build_event_order_and_arg_keys():
    hub = TraceConfig(channels="build").make_hub()
    build_module(SRC, "saxpy", pipeline="o1", trace_hub=hub)
    events = list(hub.events())
    assert {e.source for e in events} == {"build.pipeline"}
    assert all(e.tick == 0 for e in events)
    assert [e.kind for e in events] == [
        "parse", "lower",
        "pass:inline", "pass:mem2reg", "pass:constfold", "pass:dce",
        "pass:loop-unroll", "pass:constfold", "pass:simplify-cfg", "pass:dce",
        "optimize"]
    keys = {"parse": ["seconds"], "lower": ["name", "seconds"],
            "optimize": ["pipeline", "seconds"]}
    for event in events:
        expected = keys.get(event.kind, ["func", "seconds"])
        assert list(event.args) == expected, event.kind
    assert events[1].args["name"] == "saxpy"
    assert {e.args["func"] for e in events[2:-1]} == {"saxpy"}
    assert events[-1].args["pipeline"] == PipelineSpec.parse("o1").canonical()


def test_diverging_pass_emits_no_pass_or_optimize_event(monkeypatch):
    from repro.analysis.verified import PassDivergenceError, VerifiedPassManager
    from repro.ir.instructions import BinaryOp
    from repro.passes.pass_manager import FunctionPass

    class FlipAdd(FunctionPass):
        name = "flip-add"

        def run(self, func):
            for inst in func.instructions():
                if isinstance(inst, BinaryOp) and inst.opcode == "fadd":
                    inst.opcode = "fsub"
                    return True
            return False

    monkeypatch.setattr(
        PipelineSpec, "to_pass_manager",
        lambda self, module=None, verify=True:
            VerifiedPassManager([FlipAdd()], module=module))
    hub = TraceConfig(channels="build").make_hub()
    bp = BuildPipeline(PipelineSpec.parse("dce").with_verify_each(),
                       trace_hub=hub)
    with pytest.raises(PassDivergenceError):
        bp.build_module(SRC, "saxpy")
    assert [e.kind for e in hub.events()] == ["parse", "lower"]
    assert set(bp.timings) == {"parse", "lower"}


def test_untraced_channels_stay_silent():
    hub = TraceConfig(channels="compute").make_hub()
    build_module(SRC, "saxpy", pipeline="o1", trace_hub=hub)
    assert hub.total_emitted == 0


# -- chained entry points ---------------------------------------------------
def test_build_module_store_chaining():
    store = ArtifactStore()
    first = build_module(SRC, "saxpy", pipeline="o1", store=store)
    second = build_module(SRC, "saxpy", pipeline="o1", store=store)
    assert store.hits == 1 and store.misses == 1
    assert second.meta["cached"] is True
    assert second.key == first.key
    assert print_module(second.module) == print_module(first.module)


def test_prebuilt_module_passes_through():
    module = build_module(SRC, "saxpy", pipeline="o1").module
    before = STAGE_COUNTERS.snapshot()
    artifact = build_module(module, "saxpy", pipeline="o1")
    assert STAGE_COUNTERS.snapshot() == before  # no stage ran
    assert artifact.module is module
    assert artifact.meta["prebuilt"] is True


def test_opt_ir_artifact_passes_through():
    artifact = build_module(SRC, "saxpy", pipeline="o1")
    assert BuildPipeline("o1").build_module(artifact, "saxpy") is artifact


def test_build_design_full_chain():
    config = DeviceConfig(fu_limits={"fp_mul": 1})
    design = build_design(SRC, "saxpy", pipeline="o1", config=config)
    assert isinstance(design, ElaboratedDesign)
    assert design.cdfg.fu_counts["fp_mul"] == 1
    assert design.static.fu_area_um2 > 0


def test_different_pipelines_get_different_keys():
    store = ArtifactStore()
    a = build_module(SRC, "saxpy", pipeline="o1", store=store)
    b = build_module(SRC, "saxpy", pipeline="o2", store=store)
    assert a.key != b.key
    assert store.hits == 0 and store.misses == 2
    assert len(store) == 2


# -- knob resolution --------------------------------------------------------
def test_resolve_spec_precedence():
    explicit = resolve_spec("mem2reg,dce", optimize=False, unroll_factor=8)
    assert explicit == PipelineSpec.parse("mem2reg,dce")
    assert resolve_spec(None, optimize=False) == PipelineSpec()
    assert resolve_spec(None, opt_level=2, unroll_factor=4) == \
        PipelineSpec.standard(2, 4)


def test_legacy_knobs_and_spec_share_cache_entries():
    store = ArtifactStore()
    build_module(SRC, "saxpy", opt_level=1, unroll_factor=4, store=store)
    hit = build_module(SRC, "saxpy", pipeline="o1:4", store=store)
    assert store.hits == 1
    assert hit.meta["cached"] is True


def test_bad_pipeline_spec_surfaces():
    from repro.build import PipelineSpecError

    with pytest.raises(PipelineSpecError):
        build_module(SRC, "saxpy", pipeline="frobnicate")


# -- execution-layer integration -------------------------------------------
def test_sim_context_accepts_prebuilt_artifact():
    from repro.exec import SimContext
    from repro.workloads import get_workload

    workload = get_workload("gemm_dse")
    baseline = SimContext(workload).run()
    # unroll_factor=1 matches the context's default compile knobs
    # (Workload.build alone would honour default_unroll instead).
    artifact = workload.build(unroll_factor=1)
    prebuilt = SimContext(workload, module=artifact).run()
    assert prebuilt.cycles == baseline.cycles
    assert prebuilt.runtime_ns == baseline.runtime_ns


def test_sim_contexts_share_artifact_store():
    from repro.exec import SimContext
    from repro.workloads import get_workload

    workload = get_workload("gemm_dse")
    store = ArtifactStore()
    first = SimContext(workload, artifact_store=store).run()
    second = SimContext(workload, artifact_store=store).run()
    # One compiled module, one elaboration record and one lowered
    # graph, each built once.
    assert store.hits == 3 and store.misses == 3
    assert second.cycles == first.cycles
