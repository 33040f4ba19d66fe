"""Build artifacts: the hashable, picklable products of each stage.

The staged pipeline (`repro.build.pipeline`) consumes and produces
`Artifact`s — a typed wrapper around one stage's output plus the
provenance needed to reuse it: the content-addressed key, the pipeline
spec that produced it, and per-stage timings.  IR artifacts carry a
`module_fingerprint` so "did two compiles produce the same datapath"
is a string comparison, not a graph walk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Union

from repro.core.cdfg import ELABORATION_FORMAT_VERSION
from repro.core.llvm_interface import LLVMInterface
from repro.ir.module import Module

#: Stage products, in pipeline order.
ARTIFACT_KINDS = ("ast", "ir", "opt-ir", "elaboration", "design", "graph")


def module_fingerprint(module: Module) -> str:
    """Content hash of a module's printed IR.

    The printer (and, since the mem2reg determinism fix, the whole
    standard pipeline) is deterministic, so equal source + equal pass
    pipeline ⇒ equal fingerprint — across runs and across processes.

    An optimized module carries the hash its optimize stage recorded
    (`Module.fingerprint`), so looking it up — `graph_key` does, once
    per sweep point — does not re-print the module.  Only the passes
    and the frontend mutate a module, and `PassManager.run` clears the
    record, so it never goes stale.
    """
    if module.fingerprint is not None:
        return module.fingerprint
    from repro.ir.printer import print_module

    return hashlib.sha256(print_module(module).encode("utf-8")).hexdigest()


def artifact_key(source: str, name: str, pipeline) -> str:
    """Content-addressed key of one compile: (source, function, passes).

    ``pipeline`` is anything `PipelineSpec.parse` accepts; the key hashes
    its *canonical* string, so ``"o1:4"`` and the expanded pass list it
    stands for share a cache entry.
    """
    from repro.passes.pipeline import PipelineSpec

    payload = {
        "source": source,
        "name": name,
        "pipeline": PipelineSpec.parse(pipeline).canonical(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def elaboration_key(module: Module, func_name: str) -> str:
    """Content address of one `ElaborationRecord`: everything static
    elaboration reads — the module text (via `module_fingerprint`) and
    the function — plus the record's format version.  Not the FU
    limits: the record holds none (`StaticCDFG` binds them per run), so
    every FU-limit point of a sweep shares one record."""
    payload = {
        "version": ELABORATION_FORMAT_VERSION,
        "module": module_fingerprint(module),
        "func": func_name,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"elaboration:{hashlib.sha256(blob.encode('utf-8')).hexdigest()}"


@dataclass
class Artifact:
    """One stage's output plus provenance.

    ``kind`` names the stage product (`ARTIFACT_KINDS`); ``key`` is the
    content-addressed build key (empty for intermediate artifacts that
    never hit the store); ``meta`` records provenance — pipeline spec,
    module fingerprint, per-stage seconds, whether it was a store hit.
    """

    kind: str
    payload: object
    key: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ValueError(
                f"unknown artifact kind '{self.kind}'; valid: "
                f"{', '.join(ARTIFACT_KINDS)}"
            )

    @property
    def module(self) -> Module:
        """The IR module (``ir``/``opt-ir`` artifacts, or a design's)."""
        if isinstance(self.payload, Module):
            return self.payload
        if isinstance(self.payload, ElaboratedDesign):
            return self.payload.module
        raise TypeError(f"'{self.kind}' artifact holds no module")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        short = f" {self.key[:12]}" if self.key else ""
        return f"<Artifact {self.kind}{short}>"


class ElaboratedDesign:
    """The elaborate-stage product: a statically elaborated datapath.

    Wraps `LLVMInterface` (CDFG, FU mapping, static power/area) with the
    inputs that produced it, so consumers can rebuild runtime state
    without re-running any earlier stage.
    """

    def __init__(self, iface: LLVMInterface) -> None:
        self.iface = iface

    # -- convenience views -------------------------------------------------
    @property
    def module(self) -> Module:
        return self.iface.module

    @property
    def func_name(self) -> str:
        return self.iface.func.name

    @property
    def cdfg(self):
        return self.iface.cdfg

    @property
    def static(self):
        return self.iface.static

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ElaboratedDesign {self.func_name} "
                f"({self.cdfg.total_instructions()} insts)>")


#: Anything the build entry points accept as "the kernel".
SourceLike = Union[str, Module, Artifact]
