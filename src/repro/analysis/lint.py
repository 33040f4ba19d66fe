"""IR lint driver: rule catalog built on the dataflow framework.

Rule codes (stable, documented in DESIGN.md):

======  ========  ==========================================================
code    severity  meaning
======  ========  ==========================================================
IR101   warning   dead store — stored value can never be read
IR102   warning   unreachable basic block
IR103   error     load-before-store on an alloca (definitely uninitialized)
IR103   note      load on an alloca not initialized on *all* paths (maybe)
IR104   warning   branch condition is a constant (one arm is dead)
IR105   error     loop has no exit (the kernel cannot terminate)
IR106   error     statically out-of-bounds GEP index
======  ========  ==========================================================

Rules only reason about *non-escaping* allocas for memory properties
(IR101/IR103): once an address leaks into a call or a store, any code
may read or initialize it and the lint stays quiet.  Pointer arguments
are caller-observable, so stores through them are never "dead".
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.dataflow import TOP, DataflowAnalysis
from repro.analysis.diagnostics import AnalysisReport, Location, Severity
from repro.analysis.memdep import alloca_escapes, const_index, resolve_pointer
from repro.ir.dominance import DominatorTree
from repro.ir.instructions import Alloca, Branch, GetElementPtr, Load, Store
from repro.ir.module import Function, Module
from repro.ir.types import ArrayType, PointerType
from repro.ir.values import Constant, Instruction
from repro.passes.loop_analysis import Loop, find_loops


def _loc(inst: Instruction) -> Location:
    block = inst.parent.name if inst.parent else ""
    func = ""
    if inst.parent is not None and inst.parent.parent is not None:
        func = inst.parent.parent.name
    ref = inst.ref if inst.name else inst.opcode
    return Location(function=func, block=block, ref=ref)


class LintContext:
    """Shared, lazily-computed analyses for one function's lint run."""

    def __init__(self, func: Function, module: Optional[Module] = None) -> None:
        self.func = func
        self.module = module
        self._dt: Optional[DominatorTree] = None
        self._loops: Optional[list[Loop]] = None
        self._escapes: dict = {}
        self._tracked: Optional[frozenset] = None

    @property
    def dt(self) -> DominatorTree:
        if self._dt is None:
            self._dt = DominatorTree(self.func)
        return self._dt

    @property
    def loops(self) -> list[Loop]:
        if self._loops is None:
            self._loops = find_loops(self.func)
        return self._loops

    def escapes(self, alloca: Alloca) -> bool:
        if alloca not in self._escapes:
            self._escapes[alloca] = alloca_escapes(alloca)
        return self._escapes[alloca]

    @property
    def tracked_allocas(self) -> frozenset:
        """Allocas whose memory only direct load/store/GEP code touches."""
        if self._tracked is None:
            self._tracked = frozenset(
                inst for inst in self.func.instructions()
                if isinstance(inst, Alloca) and not self.escapes(inst)
            )
        return self._tracked


class LintRule:
    """One lint rule; subclasses set the code/name and implement run()."""

    code = "IR000"
    name = "rule"
    description = ""

    def run(self, ctx: LintContext, report: AnalysisReport) -> None:
        raise NotImplementedError  # pragma: no cover - abstract


# ----------------------------------------------------------------------
# IR101: dead stores
# ----------------------------------------------------------------------
class _LocationLiveness(DataflowAnalysis):
    """Backward liveness of (alloca, byte-offset) locations.

    Facts: ``(alloca, offset)`` for reads at a known offset,
    ``(alloca, None)`` for reads at a dynamic offset (any byte of the
    alloca may be read), and `TOP` when an opaque pointer is read.
    """

    forward = False
    meet = "union"
    name = "loc-liveness"

    def __init__(self, func: Function, tracked: frozenset) -> None:
        super().__init__(func)
        self.tracked = tracked

    def transfer_instruction(self, inst: Instruction, facts: set) -> None:
        if isinstance(inst, Load):
            base, offset = resolve_pointer(inst.pointer)
            if base is None:
                facts.add(TOP)
            elif base in self.tracked:
                facts.add((base, offset))
        elif isinstance(inst, Store):
            base, offset = resolve_pointer(inst.pointer)
            if base in self.tracked and offset is not None:
                facts.discard((base, offset))


class DeadStoreRule(LintRule):
    code = "IR101"
    name = "dead-store"
    description = "stores to non-escaping allocas that no load can observe"

    def run(self, ctx: LintContext, report: AnalysisReport) -> None:
        tracked = ctx.tracked_allocas
        if not tracked:
            return
        result = _LocationLiveness(ctx.func, tracked).run()
        for block in ctx.func.blocks:
            for inst, live_after in result.at_instruction(block):
                if not isinstance(inst, Store):
                    continue
                base, offset = resolve_pointer(inst.pointer)
                if base not in tracked or offset is None:
                    continue
                if TOP in live_after:
                    continue
                if (base, offset) in live_after or (base, None) in live_after:
                    continue
                report.add(
                    self.code, Severity.WARNING, _loc(inst),
                    f"store to %{base.name}+{offset} is never read",
                    hint="the stored value is dead; remove the store or the "
                         "computation feeding it",
                )


# ----------------------------------------------------------------------
# IR102: unreachable blocks
# ----------------------------------------------------------------------
class UnreachableBlockRule(LintRule):
    code = "IR102"
    name = "unreachable-block"
    description = "basic blocks with no path from the function entry"

    def run(self, ctx: LintContext, report: AnalysisReport) -> None:
        for block in ctx.func.blocks:
            if not ctx.dt.is_reachable(block):
                report.add(
                    self.code, Severity.WARNING,
                    Location(function=ctx.func.name, block=block.name),
                    f"block '{block.name}' is unreachable from entry",
                    hint="dead control flow inflates the datapath; remove it "
                         "or fix the branch that should reach it",
                )


# ----------------------------------------------------------------------
# IR103: load-before-store on allocas
# ----------------------------------------------------------------------
class _MayInit(DataflowAnalysis):
    """Forward may-analysis: locations some path has stored to."""

    forward = True
    meet = "union"
    name = "may-init"

    def __init__(self, func: Function, tracked: frozenset) -> None:
        super().__init__(func)
        self.tracked = tracked

    def transfer_instruction(self, inst: Instruction, facts: set) -> None:
        if isinstance(inst, Store):
            base, offset = resolve_pointer(inst.pointer)
            if base in self.tracked:
                facts.add((base, offset))


class _MustInit(DataflowAnalysis):
    """Forward must-analysis: locations *every* path has stored to."""

    forward = True
    meet = "intersection"
    name = "must-init"

    def __init__(self, func: Function, tracked: frozenset) -> None:
        super().__init__(func)
        self.tracked = tracked

    def transfer_instruction(self, inst: Instruction, facts: set) -> None:
        if isinstance(inst, Store):
            base, offset = resolve_pointer(inst.pointer)
            if base in self.tracked and offset is not None:
                facts.add((base, offset))


class UninitializedLoadRule(LintRule):
    code = "IR103"
    name = "uninit-load"
    description = "loads from allocas before any store can reach them"

    def run(self, ctx: LintContext, report: AnalysisReport) -> None:
        tracked = ctx.tracked_allocas
        if not tracked:
            return
        may = _MayInit(ctx.func, tracked).run()
        must = _MustInit(ctx.func, tracked).run()
        for block in ctx.func.blocks:
            may_facts = may.at_instruction(block)
            must_facts = must.at_instruction(block)
            for (inst, may_before), (__, must_before) in zip(may_facts, must_facts):
                if not isinstance(inst, Load):
                    continue
                base, offset = resolve_pointer(inst.pointer)
                if base not in tracked:
                    continue
                if offset is not None:
                    may_hit = ((base, offset) in may_before
                               or (base, None) in may_before)
                    if not may_hit:
                        report.add(
                            self.code, Severity.ERROR, _loc(inst),
                            f"load from %{base.name}+{offset} before any "
                            f"store — the value is uninitialized",
                            hint="initialize the buffer (or reorder the "
                                 "stores) before this load",
                        )
                    elif (TOP not in must_before
                          and (base, offset) not in must_before):
                        report.add(
                            self.code, Severity.NOTE, _loc(inst),
                            f"load from %{base.name}+{offset} may read "
                            f"uninitialized memory on some path",
                        )
                else:
                    any_store = any(
                        isinstance(fact, tuple) and fact[0] is base
                        for fact in may_before
                    )
                    if not any_store:
                        report.add(
                            self.code, Severity.ERROR, _loc(inst),
                            f"load from %{base.name} (dynamic offset) before "
                            f"any store — the value is uninitialized",
                            hint="initialize the buffer before this load",
                        )


# ----------------------------------------------------------------------
# IR104: constant-condition branches
# ----------------------------------------------------------------------
class ConstantBranchRule(LintRule):
    code = "IR104"
    name = "const-branch"
    description = "conditional branches whose condition is a constant"

    def run(self, ctx: LintContext, report: AnalysisReport) -> None:
        for block in ctx.func.blocks:
            term = block.terminator
            if (isinstance(term, Branch) and term.is_conditional
                    and isinstance(term.condition, Constant)):
                taken = "true" if term.condition.value else "false"
                dead = (term.false_target if term.condition.value
                        else term.true_target)
                report.add(
                    self.code, Severity.WARNING,
                    Location(function=ctx.func.name, block=block.name),
                    f"branch condition is constant {taken}; "
                    f"edge to '{dead.name}' is dead",
                    hint="fold the branch (constfold+dce leave no "
                         "constant conditions behind)",
                )


# ----------------------------------------------------------------------
# IR105: loops with no exit
# ----------------------------------------------------------------------
class NoExitLoopRule(LintRule):
    code = "IR105"
    name = "no-exit-loop"
    description = "natural loops with no edge leaving the loop body"

    def run(self, ctx: LintContext, report: AnalysisReport) -> None:
        seen: set[str] = set()
        for loop in ctx.loops:
            if loop.exits or loop.header.name in seen:
                continue
            seen.add(loop.header.name)
            report.add(
                self.code, Severity.ERROR,
                Location(function=ctx.func.name, block=loop.header.name),
                f"loop headed at '{loop.header.name}' has no exit; "
                f"the kernel cannot terminate",
                hint="the simulated accelerator would hang until the "
                     "watchdog fires — add or fix the exit condition",
            )


# ----------------------------------------------------------------------
# IR106: out-of-bounds GEPs
# ----------------------------------------------------------------------
class GepBoundsRule(LintRule):
    code = "IR106"
    name = "gep-bounds"
    description = "GEP indices statically outside their array type"

    def run(self, ctx: LintContext, report: AnalysisReport) -> None:
        for inst in ctx.func.instructions():
            if isinstance(inst, GetElementPtr):
                problem = self._check(inst)
                if problem:
                    report.add(
                        self.code, Severity.ERROR, _loc(inst), problem,
                        hint="out-of-bounds accesses read/clobber a "
                             "neighbouring buffer in the flat SPM address "
                             "space — fix the index computation",
                    )

    @staticmethod
    def _check(gep: GetElementPtr) -> str:
        # 1) Array-typed middle indices must stay inside [0, count).
        current = gep.pointer.type
        for i, index in enumerate(gep.indices):
            if i == 0:
                assert isinstance(current, PointerType)
                current = current.pointee
                continue
            if not isinstance(current, ArrayType):
                break
            value = const_index(index)
            if value is not None:
                if value < 0 or value >= current.count:
                    return (f"index {value} out of bounds for "
                            f"{current} (valid: 0..{current.count - 1})")
            current = current.element
        # 2) The resolved byte offset must stay inside the alloca.
        base, offset = resolve_pointer(gep)
        if isinstance(base, Alloca) and offset is not None:
            alloc_size = base.allocated_type.size_bytes()
            access_size = gep.type.pointee.size_bytes()
            if offset < 0 or offset + access_size > alloc_size:
                return (f"resolved offset {offset} (+{access_size}B) "
                        f"outside %{base.name} "
                        f"({base.allocated_type}, {alloc_size}B)")
        return ""


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def all_rules() -> list[LintRule]:
    """The full rule catalog, in code order."""
    return [
        DeadStoreRule(),
        UnreachableBlockRule(),
        UninitializedLoadRule(),
        ConstantBranchRule(),
        NoExitLoopRule(),
        GepBoundsRule(),
    ]


def lint_function(
    func: Function,
    module: Optional[Module] = None,
    rules: Optional[list[LintRule]] = None,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Run the rule catalog over one function."""
    if report is None:
        report = AnalysisReport(subject=func.name)
    if not func.blocks:
        return report
    ctx = LintContext(func, module)
    for rule in rules if rules is not None else all_rules():
        with report.timings.span(rule.name):
            rule.run(ctx, report)
    return report


def lint_module(
    module: Module,
    rules: Optional[list[LintRule]] = None,
) -> AnalysisReport:
    """Run the rule catalog over every function in a module."""
    report = AnalysisReport(subject=module.name)
    for func in module:
        lint_function(func, module, rules, report)
    return report
