"""Static analysis: dataflow framework, IR lints, dependence analysis.

The paper's central argument is that *static* elaboration of the CDFG
captures true data dependences that trace-based tools approximate.  This
package is the static-analysis layer that argument rests on:

* `repro.analysis.dataflow`    — generic worklist dataflow framework
  (forward/backward, meet-over-predecessors) with liveness and
  reaching-definitions instances.
* `repro.analysis.diagnostics` — `Diagnostic` / `AnalysisReport` plus
  text and JSON renderers; every analysis reports through it.
* `repro.analysis.lint`        — the IR lint driver and rule catalog
  (dead stores, unreachable blocks, uninitialized reads, constant
  branches, no-exit loops, out-of-bounds GEPs).
* `repro.analysis.memdep`      — static memory-dependence analysis over
  GEP chains: must/may/no-alias classification and the per-kernel
  dependence report.
* `repro.analysis.syslint`     — system/config lints: overlapping
  MMR/SPM/DRAM ranges, kernel footprints vs. SPM size, DMA transfers
  into unmapped ranges.
* `repro.analysis.concurrency` — system-level concurrency analysis:
  per-agent access model, happens-before over host/IRQ/DMA/stream
  ordering edges, race (SYS304), static-deadlock (SYS305), and
  start-before-fill (SYS306) rules.
* `repro.analysis.verified`    — verified pass pipelines: golden
  interpreter differential checks after every pass, pinpointing the
  offending pass on divergence.
* `repro.analysis.reports`     — the full report of one module or
  scenario, as ``repro analyze`` and the job server's analyze jobs
  build it.

Everything surfaces through ``python -m repro analyze``.
"""

from repro.analysis.concurrency import (
    AgentOp,
    ConcurrencyModel,
    describe_concurrency,
    lint_concurrency,
)
from repro.analysis.dataflow import (
    DataflowAnalysis,
    DataflowResult,
    LivenessAnalysis,
    ReachingDefinitions,
)
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Location,
    Severity,
)
from repro.analysis.lint import LintRule, all_rules, lint_function, lint_module
from repro.analysis.memdep import (
    AliasKind,
    DependenceReport,
    MemAccess,
    classify_accesses,
    dependence_report,
    resolve_pointer,
    static_footprint,
)
from repro.analysis.reports import analyze_module, analyze_scenario
from repro.analysis.syslint import (
    DmaTransfer,
    KernelFootprint,
    MemRegion,
    SystemDescription,
    describe_soc,
    lint_system,
)
from repro.analysis.verified import (
    PassDivergenceError,
    VerifiedPassManager,
    differential_check,
)

__all__ = [
    "AgentOp",
    "AliasKind",
    "AnalysisReport",
    "ConcurrencyModel",
    "DataflowAnalysis",
    "DataflowResult",
    "DependenceReport",
    "Diagnostic",
    "DmaTransfer",
    "KernelFootprint",
    "LintRule",
    "LivenessAnalysis",
    "Location",
    "MemAccess",
    "MemRegion",
    "PassDivergenceError",
    "ReachingDefinitions",
    "Severity",
    "SystemDescription",
    "VerifiedPassManager",
    "all_rules",
    "analyze_module",
    "analyze_scenario",
    "classify_accesses",
    "dependence_report",
    "describe_concurrency",
    "describe_soc",
    "lint_concurrency",
    "differential_check",
    "lint_function",
    "lint_module",
    "lint_system",
    "resolve_pointer",
    "static_footprint",
]
