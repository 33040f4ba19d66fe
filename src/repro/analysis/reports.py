"""The full report of one module or scenario, shared by ``repro
analyze`` and the job server's ``analyze`` jobs."""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.lint import lint_function
from repro.analysis.memdep import memdep_diagnostics
from repro.analysis.syslint import (
    MemRegion,
    SystemDescription,
    footprints_from_module,
    lint_system,
)


def analyze_module(label: str, module, func: Optional[str] = None,
                   spm_bytes: int = 0) -> AnalysisReport:
    """IR lints and memory-dependence diagnostics of every defined
    function (only ``func`` when given); with ``spm_bytes``, also the
    system lints of their footprints against an SPM of that size."""
    report = AnalysisReport(subject=label)
    func_names = [f.name for f in module
                  if f.blocks and (not func or f.name == func)]
    for func_name in func_names:
        function = module.functions[func_name]
        lint_function(function, module, report=report)
        report.extend(memdep_diagnostics(function))
    if spm_bytes:
        desc = SystemDescription(
            regions=[MemRegion("spm", "spm", 0x2000_0000, spm_bytes)]
        )
        for func_name in func_names:
            desc.kernels.extend(
                footprints_from_module(module, func_name, region="spm"))
        report.extend(lint_system(desc))
    return report


def analyze_scenario(spec_text: str) -> AnalysisReport:
    """System-level (SYS301-306) report for one scenario.

    ``gen:SEED[:racy]`` forms lint the generated scenario *statically*
    from its plan; named CNN scenarios run once and are linted from the
    recorded host/accelerator logs.  An unknown name raises ValueError.
    """
    from repro.system import scenario_gen

    if spec_text.startswith("gen:"):
        spec = scenario_gen.parse_gen_spec(spec_text)
        scenario = scenario_gen.build(spec)
        report = scenario.static_report()
        report.subject = spec.name
        return report
    from repro.system.cnn_scenarios import SCENARIOS

    runner = SCENARIOS.get(spec_text)
    if runner is None:
        raise ValueError(
            f"unknown scenario '{spec_text}' "
            f"(choose from {', '.join(sorted(SCENARIOS))}, or gen:SEED[:racy])")
    result = runner()
    report = result.soc.lint()
    report.subject = spec_text
    return report
