"""The staged build pipeline: ``parse → lower → optimize → elaborate``.

This is the front half of the paper's Fig. 2 flow, reified: each stage
is an explicit method that consumes and produces `Artifact`s, with
per-stage and per-pass wall-clock spans summed in the pipeline's
`Timings` (and, when a `TraceHub` is attached, emitted on the
``build`` trace channel).  The stages:

* ``parse``     — mini-C source -> AST (`TranslationUnit`)
* ``lower``     — AST -> raw SSA `Module` (naive alloca codegen)
* ``optimize``  — raw `Module` -> optimized `Module`, driven by a
  declarative `PipelineSpec` ("mem2reg,unroll:4,constfold,dce")
* ``elaborate`` — optimized `Module` -> `ElaboratedDesign`
  (`LLVMInterface`: CDFG, FU mapping, static power/area); store-aware,
  so each distinct datapath elaborates once per store

`build_module` is the shared compile entry point every consumer routes
through (CLI, `StandaloneAccelerator`, `SimContext`, `Workload.build`,
`ParallelSweep`); with an `ArtifactStore` attached, a kernel that was
already compiled with the same (source, name, pipeline) is a cache hit
and skips the frontend entirely.  Module-level `STAGE_COUNTERS` count
stage invocations process-wide — the compile-once regression tests
assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

from repro.build.artifact import (
    Artifact,
    ElaboratedDesign,
    artifact_key,
    elaboration_key,
    module_fingerprint,
)
from repro.build.store import ArtifactStore
from repro.core.cdfg import elaborate_function
from repro.core.config import DeviceConfig
from repro.core.llvm_interface import LLVMInterface
from repro.hw.profile import HardwareProfile
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.passes.pipeline import PipelineSpec, resolve_spec
from repro.sim.probe import Timings


@dataclass
class StageCounters:
    """Process-wide tally of stage invocations (compile-once guards)."""

    parse: int = 0
    lower: int = 0
    optimize: int = 0
    elaborate: int = 0
    graph: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def compiles(self) -> int:
        """Frontend invocations (parse/lower run in lockstep)."""
        return self.parse


#: Every `BuildPipeline` in this process bumps these.
STAGE_COUNTERS = StageCounters()


class BuildPipeline:
    """One configured pipeline: a pass spec plus optional store/tracing.

    Stage methods can be called individually (each returns an
    `Artifact`), or via :meth:`build_module` /:meth:`build_design`,
    which chain them and consult the `ArtifactStore` first.
    """

    def __init__(
        self,
        pipeline: Union[str, PipelineSpec, None] = None,
        store: Optional[ArtifactStore] = None,
        trace_hub=None,
    ) -> None:
        self.spec = PipelineSpec.parse(pipeline)
        self.store = store
        #: Stage and ``pass:<name>`` -> seconds for the most recent
        #: build_module() call; spans emit on the ``build`` channel.
        self.timings = Timings(trace_hub, "build", "build.pipeline")

    # -- stages ------------------------------------------------------------
    def parse(self, source: str) -> Artifact:
        """Stage 1: mini-C source -> AST."""
        from repro.frontend.parser import parse_c

        with self.timings.span("parse"):
            unit = parse_c(source)
        STAGE_COUNTERS.parse += 1
        return Artifact("ast", unit)

    def lower(self, ast: Artifact, name: str = "module") -> Artifact:
        """Stage 2: AST -> raw (unoptimized) SSA module."""
        from repro.frontend.codegen import lower_to_ir

        with self.timings.span("lower", name=name):
            module = lower_to_ir(ast.payload, name)
        STAGE_COUNTERS.lower += 1
        return Artifact("ir", module, meta=dict(ast.meta))

    def optimize(self, ir: Artifact) -> Artifact:
        """Stage 3: run the pass pipeline (in place), verify, fingerprint.

        The fingerprint is recorded on the module (`Module.fingerprint`)
        and pickles with it, so every later `module_fingerprint` of this
        module — shipped to a sweep worker or served by the store — is
        a lookup.

        With ``spec.verify_each`` the pass manager is a
        `VerifiedPassManager`: every pass is followed by a structural
        verify plus a golden-interpreter differential check, and the
        first divergence raises `PassDivergenceError` naming the pass.
        Either manager times each pass into this pipeline's `Timings`,
        so ``pass:<name>`` spans reach the ``build`` channel as they end.
        """
        module = ir.payload if isinstance(ir, Artifact) else ir
        with self.timings.span("optimize", pipeline=self.spec.canonical()):
            if self.spec:
                manager = self.spec.to_pass_manager(module=module)
                manager.timings = self.timings
                manager.run(module)
                verify_module(module)
        STAGE_COUNTERS.optimize += 1
        meta = dict(ir.meta if isinstance(ir, Artifact) else {})
        module.fingerprint = module_fingerprint(module)
        meta.update(pipeline=self.spec.canonical(),
                    fingerprint=module.fingerprint)
        return Artifact("opt-ir", module, meta=meta)

    def elaborate(
        self,
        opt_ir: Union[Artifact, Module],
        func_name: str,
        profile: Optional[HardwareProfile] = None,
        config: Optional[DeviceConfig] = None,
    ) -> Artifact:
        """Stage 4: optimized module -> statically elaborated design.

        The only way a unit elaborates (`ComputeUnit` calls it).
        Store-aware: the FU mapping is an identity-free
        `ElaborationRecord` keyed by `elaboration_key` (module
        fingerprint, function, format version).  FU limits are not
        keyed: the design binds ``config.fu_limits`` per call.  A store
        hit shares the store's read-only record, so every unit of a
        sweep process on one function elaborates once, under any FU
        limits and whichever private copy of the module it holds; the
        design itself (profile, latencies, unit counts, static
        power/area) is rebuilt per call and is O(FU classes).
        """
        module = opt_ir.module if isinstance(opt_ir, Artifact) else opt_ir
        config = config or DeviceConfig()
        config.validate()
        func = module.get_function(func_name)
        cached = None
        if self.store is not None:
            key = elaboration_key(module, func_name)
            cached = self.store.get(key)
        if cached is not None:
            record = cached.payload
        else:
            with self.timings.span("elaborate", func_name=func_name):
                record = elaborate_function(func)
            STAGE_COUNTERS.elaborate += 1
            if self.store is not None:
                self.store.put(key, Artifact("elaboration", record, key=key))
        if profile is None:
            from repro.hw.default_profile import default_profile

            profile = default_profile(config.cycle_time_ns)
        design = ElaboratedDesign(
            LLVMInterface(module, func_name, profile, config, record))
        meta = dict(opt_ir.meta) if isinstance(opt_ir, Artifact) else {}
        meta["func_name"] = func_name
        return Artifact("design", design, meta=meta)

    def graph(self, design) -> Artifact:
        """Stage 5 (optional back half): elaborated design -> `SimGraph`.

        The lowering for the graph-compiled execution backend
        (`repro.engine`).  Store-aware: the key covers the module
        fingerprint, function, the datapath side of the device config
        except its FU limits, hardware profile, and the graph format
        version.  A store hit returns the store's shared, read-only
        `SimGraph` (a new `Artifact` wrapper around the same payload),
        so every point of a sweep process that shares a function —
        memory-only knobs and FU limits do not join the key; each run
        binds its limits (`SimGraph.fu_binding`) — runs on one
        lowering, thunks included.
        """
        from repro.engine.graph import (
            GRAPH_FORMAT_VERSION,
            compile_graph,
            graph_key,
        )

        payload = design.payload if isinstance(design, Artifact) else design
        key = graph_key(payload)
        if self.store is not None:
            cached = self.store.get(key)
            if cached is not None:
                return cached
        with self.timings.span("graph", func_name=payload.func_name):
            sim_graph = compile_graph(payload)
        STAGE_COUNTERS.graph += 1
        meta = dict(design.meta) if isinstance(design, Artifact) else {}
        meta["graph_version"] = GRAPH_FORMAT_VERSION
        artifact = Artifact("graph", sim_graph, key=key, meta=meta)
        if self.store is not None:
            self.store.put(key, artifact)
        return artifact

    # -- chained entry points ----------------------------------------------
    def build_module(self, source: Union[str, Module, Artifact],
                     name: str = "module") -> Artifact:
        """parse+lower+optimize, store-aware: the shared compile path.

        A `Module` or ``opt-ir`` `Artifact` input is passed through
        untouched (already compiled elsewhere — e.g. shipped to a sweep
        worker by the parent process).
        """
        if isinstance(source, Artifact):
            return source if source.kind == "opt-ir" else self.optimize(source)
        if isinstance(source, Module):
            return Artifact("opt-ir", source,
                            meta={"prebuilt": True,
                                  "pipeline": self.spec.canonical()})
        key = artifact_key(source, name, self.spec)
        if self.store is not None:
            cached = self.store.get(key)
            if cached is not None:
                return cached
        self.timings.clear()
        artifact = self.optimize(self.lower(self.parse(source), name))
        artifact.key = key
        artifact.meta.update(name=name, timings=dict(self.timings),
                             cached=False)
        if self.store is not None:
            self.store.put(key, artifact)
        return artifact

    def build_design(
        self,
        source: Union[str, Module, Artifact],
        func_name: str,
        profile: Optional[HardwareProfile] = None,
        config: Optional[DeviceConfig] = None,
    ) -> ElaboratedDesign:
        """The full front half: compile (store-aware) then elaborate."""
        artifact = self.build_module(source, func_name)
        return self.elaborate(artifact, func_name,
                              profile=profile, config=config).payload


def build_module(
    source: Union[str, Module, Artifact],
    name: str = "module",
    *,
    pipeline: Union[str, PipelineSpec, None] = None,
    optimize: bool = True,
    opt_level: int = 1,
    unroll_factor: int = 1,
    verify_each: bool = False,
    store: Optional[ArtifactStore] = None,
    trace_hub=None,
) -> Artifact:
    """One-call compile through the staged pipeline (see `BuildPipeline`)."""
    spec = resolve_spec(pipeline, optimize=optimize, opt_level=opt_level,
                        unroll_factor=unroll_factor, verify_each=verify_each)
    return BuildPipeline(spec, store=store,
                         trace_hub=trace_hub).build_module(source, name)


def build_design(
    source: Union[str, Module, Artifact],
    func_name: str,
    *,
    pipeline: Union[str, PipelineSpec, None] = None,
    optimize: bool = True,
    opt_level: int = 1,
    unroll_factor: int = 1,
    verify_each: bool = False,
    profile: Optional[HardwareProfile] = None,
    config: Optional[DeviceConfig] = None,
    store: Optional[ArtifactStore] = None,
    trace_hub=None,
) -> ElaboratedDesign:
    """One-call compile + static elaboration."""
    spec = resolve_spec(pipeline, optimize=optimize, opt_level=opt_level,
                        unroll_factor=unroll_factor, verify_each=verify_each)
    return BuildPipeline(spec, store=store, trace_hub=trace_hub).build_design(
        source, func_name, profile=profile, config=config
    )
