"""Staged build pipeline with a content-addressed artifact store.

Reifies the front half of the simulator (the paper's Fig. 2 flow) as an
explicit ``parse → lower → optimize → elaborate`` pipeline over
hashable, picklable `Artifact`s, cached by SHA-256 of (source,
function, canonical pass-pipeline spec) in an `ArtifactStore`.  The
execution layer compiles each distinct kernel exactly once per sweep —
each worker receives the prebuilt `Module`s once — turning the DSE hot
path from O(points × compile) into O(distinct kernels).
"""

from repro.build.artifact import (
    ARTIFACT_KINDS,
    Artifact,
    ElaboratedDesign,
    artifact_key,
    module_fingerprint,
)
from repro.build.pipeline import (
    STAGE_COUNTERS,
    BuildPipeline,
    StageCounters,
    build_design,
    build_module,
)
from repro.build.store import ArtifactStore
from repro.passes.pipeline import (
    PassStep,
    PipelineSpec,
    PipelineSpecError,
    resolve_spec,
)

__all__ = [
    "ARTIFACT_KINDS",
    "Artifact",
    "ArtifactStore",
    "BuildPipeline",
    "ElaboratedDesign",
    "PassStep",
    "PipelineSpec",
    "PipelineSpecError",
    "STAGE_COUNTERS",
    "StageCounters",
    "artifact_key",
    "build_design",
    "build_module",
    "module_fingerprint",
    "resolve_spec",
]
