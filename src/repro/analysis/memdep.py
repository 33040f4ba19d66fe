"""Static memory-dependence analysis over GEP chains.

The paper's claim-2 argument is that static elaboration of the CDFG
captures *true* data dependences where trace-based tools (Aladdin)
approximate: two stores to `a[0]` and `a[1]` never conflict no matter
what the trace interleaves.  This module is that reasoning in analyzable
form: every load/store is resolved to an abstract location — a root
object (argument or alloca) plus a constant byte offset when the whole
GEP chain folds — and pairs are classified MUST / MAY / NO alias, from
which per-kernel RAW/WAR/WAW dependence edges follow.

A second consumer is the unrolling story: full unrolling turns loop
accesses into many constant-offset accesses on the same base.  When a
block holds many *pairwise-independent* accesses to one base, the
in-order scratchpad port serializes what the dataflow graph allows in
parallel — exactly the false serialization SPM partitioning removes —
and the report calls those bases out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.diagnostics import (
    AnalysisReport,
    Location,
    Severity,
)
from repro.ir.instructions import Alloca, Call, Cast, GetElementPtr, Load, Store
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import ArrayType, PointerType
from repro.ir.values import Argument, Constant, Instruction, Value

#: Listing caps so fully-unrolled kernels (thousands of accesses) keep
#: reports readable and pair classification bounded.
MAX_LISTED_EDGES = 200
MAX_PAIRS = 200_000

#: Bases with at least this many pairwise-independent same-block accesses
#: are reported as false-serialization candidates.
FALSE_SERIAL_THRESHOLD = 4


class AliasKind(enum.Enum):
    NO = "no"
    MAY = "may"
    MUST = "must"

    def __str__(self) -> str:
        return self.value


def resolve_pointer(ptr: Value) -> tuple[Optional[Value], Optional[int]]:
    """Resolve a pointer to ``(root, byte_offset)``.

    Walks GEP and bitcast chains back to the root object (an `Argument`
    or `Alloca`, or None when the chain bottoms out in something opaque
    like inttoptr).  The offset is the accumulated constant byte offset,
    or None when any index along the chain is non-constant.
    """
    offset: Optional[int] = 0
    current = ptr
    for _ in range(256):  # chains are short; guard against cycles anyway
        if isinstance(current, GetElementPtr):
            step = _gep_offset(current)
            if step is None:
                offset = None
            elif offset is not None:
                offset += step
            current = current.pointer
        elif isinstance(current, Cast) and current.opcode == "bitcast":
            current = current.src
        elif isinstance(current, (Argument, Alloca)):
            return current, offset
        else:
            return None, None
    return None, None  # pragma: no cover - cycle guard


def const_index(value: Value) -> Optional[int]:
    """The integer behind an index operand, looking through extensions.

    The frontend widens every array index with ``sext i32 ... to i64``
    before the GEP, so on unoptimized IR constant indices arrive wrapped
    in a Cast rather than as bare Constants.
    """
    if isinstance(value, Cast) and value.opcode in ("sext", "zext"):
        src = value.src
        if isinstance(src, Constant):
            return src.value if value.opcode == "zext" else src.signed_value()
        return None
    if isinstance(value, Constant):
        return value.signed_value()
    return None


def _gep_offset(gep: GetElementPtr) -> Optional[int]:
    """Constant byte offset contributed by one GEP, or None if dynamic.

    Mirrors the interpreter's address arithmetic: the first index
    strides over the pointee; later indices walk into array types.
    """
    current = gep.pointer.type
    total = 0
    for i, index in enumerate(gep.indices):
        if i == 0:
            assert isinstance(current, PointerType)
            stride = current.pointee.size_bytes()
            current = current.pointee
        else:
            if not isinstance(current, ArrayType):
                return None
            stride = current.element.size_bytes()
            current = current.element
        value = const_index(index)
        if value is None:
            return None
        total += value * stride
    return total


def alloca_escapes(alloca: Alloca) -> bool:
    """True if the alloca's address can be observed outside direct
    load/store/GEP use — stored somewhere, passed to a call, or cast to
    an integer.  Non-escaping allocas cannot alias anything else."""
    func = alloca.parent.parent if alloca.parent else None
    if func is None:
        return True
    derived: set[Value] = {alloca}
    changed = True
    while changed:
        changed = False
        for inst in func.instructions():
            if inst in derived:
                continue
            if isinstance(inst, (GetElementPtr, Cast)) and any(
                op in derived for op in inst.operands
            ):
                if isinstance(inst, Cast) and inst.opcode == "ptrtoint":
                    return True
                derived.add(inst)
                changed = True
    for inst in func.instructions():
        if isinstance(inst, Store) and inst.value in derived:
            return True
        if isinstance(inst, Call) and any(op in derived for op in inst.operands):
            return True
    return False


@dataclass
class MemAccess:
    """One load or store, resolved to its abstract location."""

    inst: Instruction
    base: Optional[Value]
    offset: Optional[int]
    size: int
    is_store: bool
    block: BasicBlock
    index: int  # program-order position within the function

    @property
    def kind(self) -> str:
        return "store" if self.is_store else "load"

    def describe(self) -> str:
        base = "?" if self.base is None else f"%{self.base.name}"
        off = "?" if self.offset is None else str(self.offset)
        return f"{self.kind} {base}+{off} ({self.size}B)"


def collect_accesses(func: Function) -> list[MemAccess]:
    accesses: list[MemAccess] = []
    index = 0
    for block in func.blocks:
        for inst in block.instructions:
            if isinstance(inst, Load):
                base, offset = resolve_pointer(inst.pointer)
                accesses.append(MemAccess(
                    inst, base, offset, inst.type.size_bytes(),
                    False, block, index))
            elif isinstance(inst, Store):
                base, offset = resolve_pointer(inst.pointer)
                accesses.append(MemAccess(
                    inst, base, offset, inst.value.type.size_bytes(),
                    True, block, index))
            index += 1
    return accesses


def classify_accesses(
    a: MemAccess,
    b: MemAccess,
    assume_restrict: bool = True,
    escape_cache: Optional[dict] = None,
) -> AliasKind:
    """Classify two accesses' locations: MUST / MAY / NO alias.

    ``assume_restrict`` mirrors the accelerator contract that distinct
    pointer arguments name disjoint buffers (true for every shipped
    workload, where the host maps each argument to its own region).
    """
    if a.base is not None and b.base is not None and a.base is not b.base:
        a_alloca = isinstance(a.base, Alloca)
        b_alloca = isinstance(b.base, Alloca)
        if a_alloca and b_alloca:
            return AliasKind.NO
        if a_alloca or b_alloca:
            alloca = a.base if a_alloca else b.base
            if escape_cache is not None:
                escaped = escape_cache.get(alloca)
                if escaped is None:
                    escaped = alloca_escapes(alloca)
                    escape_cache[alloca] = escaped
            else:
                escaped = alloca_escapes(alloca)
            return AliasKind.MAY if escaped else AliasKind.NO
        # two distinct pointer arguments
        return AliasKind.NO if assume_restrict else AliasKind.MAY
    if a.base is None or b.base is None:
        return AliasKind.MAY
    # same base object
    if a.offset is None or b.offset is None:
        return AliasKind.MAY
    if a.offset == b.offset and a.size == b.size:
        return AliasKind.MUST
    if a.offset < b.offset + b.size and b.offset < a.offset + a.size:
        return AliasKind.MAY  # partial overlap
    return AliasKind.NO


@dataclass
class DependenceEdge:
    """A dependence between two accesses (earlier -> later program order)."""

    kind: str  # "RAW" | "WAR" | "WAW"
    alias: AliasKind
    src: MemAccess
    dst: MemAccess

    def describe(self) -> str:
        return (f"{self.kind}[{self.alias}] "
                f"{self.src.describe()} -> {self.dst.describe()}")


@dataclass
class BaseStats:
    """Per-base-object access statistics."""

    name: str
    loads: int = 0
    stores: int = 0
    must_edges: int = 0
    may_edges: int = 0
    independent_pairs: int = 0


@dataclass
class DependenceReport:
    """Per-kernel static dependence summary."""

    function: str
    accesses: list[MemAccess] = field(default_factory=list)
    edges: list[DependenceEdge] = field(default_factory=list)
    edge_counts: dict[str, int] = field(default_factory=dict)
    base_stats: dict[str, BaseStats] = field(default_factory=dict)
    false_serialization: list[str] = field(default_factory=list)
    pairs_examined: int = 0
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "num_accesses": len(self.accesses),
            "edge_counts": dict(sorted(self.edge_counts.items())),
            "pairs_examined": self.pairs_examined,
            "truncated": self.truncated,
            "bases": {
                name: {
                    "loads": s.loads,
                    "stores": s.stores,
                    "must_edges": s.must_edges,
                    "may_edges": s.may_edges,
                    "independent_pairs": s.independent_pairs,
                }
                for name, s in sorted(self.base_stats.items())
            },
            "false_serialization": list(self.false_serialization),
            "edges": [e.describe() for e in self.edges[:MAX_LISTED_EDGES]],
        }


def _edge_kind(src: MemAccess, dst: MemAccess) -> Optional[str]:
    if src.is_store and dst.is_store:
        return "WAW"
    if src.is_store and not dst.is_store:
        return "RAW"
    if not src.is_store and dst.is_store:
        return "WAR"
    return None  # load/load pairs carry no dependence


def dependence_report(
    func: Function, assume_restrict: bool = True
) -> DependenceReport:
    """Classify every load/store pair in ``func`` and summarize.

    Pairs are grouped by base object first — cross-base pairs resolve
    in O(1) via `classify_accesses` rules and only same-base pairs need
    offset comparison, which keeps fully-unrolled kernels tractable.
    """
    report = DependenceReport(func.name)
    report.accesses = collect_accesses(func)
    escape_cache: dict = {}
    counts = {"RAW-must": 0, "RAW-may": 0, "WAR-must": 0, "WAR-may": 0,
              "WAW-must": 0, "WAW-may": 0}

    by_base: dict[Optional[Value], list[MemAccess]] = {}
    for acc in report.accesses:
        by_base.setdefault(acc.base, []).append(acc)
        if acc.base is not None:
            stats = report.base_stats.setdefault(
                f"%{acc.base.name}", BaseStats(f"%{acc.base.name}"))
            if acc.is_store:
                stats.stores += 1
            else:
                stats.loads += 1

    # Unknown-base accesses may alias everything: pair them with all.
    unknown = by_base.pop(None, [])
    groups = list(by_base.items())
    if unknown:
        groups.append((None, unknown + [a for accs in by_base.values() for a in accs]))

    for base, accs in groups:
        accs = sorted(accs, key=lambda a: a.index)
        stats = (report.base_stats.get(f"%{base.name}")
                 if base is not None else None)
        for i, first in enumerate(accs):
            for second in accs[i + 1:]:
                if base is None and first.base is not None and second.base is not None:
                    continue  # both known: already handled in their group
                report.pairs_examined += 1
                if report.pairs_examined > MAX_PAIRS:
                    report.truncated = True
                    break
                alias = classify_accesses(
                    first, second, assume_restrict, escape_cache)
                if alias is AliasKind.NO:
                    # Independent accesses still share the SPM port —
                    # load/load pairs included — so count them all.
                    if stats is not None and first.block is second.block:
                        stats.independent_pairs += 1
                    continue
                kind = _edge_kind(first, second)
                if kind is None:
                    continue
                counts[f"{kind}-{alias}"] += 1
                if stats is not None:
                    if alias is AliasKind.MUST:
                        stats.must_edges += 1
                    else:
                        stats.may_edges += 1
                if len(report.edges) < MAX_LISTED_EDGES:
                    report.edges.append(
                        DependenceEdge(kind, alias, first, second))
            if report.truncated:
                break
        if report.truncated:
            break

    report.edge_counts = {k: v for k, v in counts.items() if v}
    for name, stats in sorted(report.base_stats.items()):
        if stats.independent_pairs >= FALSE_SERIAL_THRESHOLD and stats.must_edges == 0:
            report.false_serialization.append(name)
    return report


def memdep_diagnostics(
    func: Function, assume_restrict: bool = True
) -> AnalysisReport:
    """Run the dependence analysis and phrase findings as diagnostics.

    DEP201 (note): per-kernel dependence summary.
    DEP202 (warning): false serialization — many pairwise-independent
    same-base accesses that a single SPM port would serialize; SPM
    partitioning (banking) would break the false dependence.
    """
    analysis = AnalysisReport(subject=func.name)
    with analysis.timings.span("memdep"):
        dep = dependence_report(func, assume_restrict)
    analysis.meta["dependence"] = dep.to_dict()
    summary = ", ".join(f"{k}={v}" for k, v in sorted(dep.edge_counts.items()))
    analysis.add(
        "DEP201",
        Severity.NOTE,
        Location(function=func.name),
        f"{len(dep.accesses)} memory accesses, "
        f"{dep.pairs_examined} pairs examined"
        + (f"; {summary}" if summary else "; no dependences"),
    )
    for base in dep.false_serialization:
        stats = dep.base_stats[base]
        analysis.add(
            "DEP202",
            Severity.WARNING,
            Location(function=func.name, ref=base),
            f"{stats.independent_pairs} pairwise-independent access pairs "
            f"on {base} share one port after unrolling (false serialization)",
            hint="partition the scratchpad backing this array (SPM banking) "
                 "so independent accesses issue in parallel",
        )
    return analysis


def static_footprint(module: Module, func_name: str) -> dict[str, dict]:
    """Per-root static footprint: max constant offset+size touched.

    For pointer arguments the footprint is a lower bound (exact only if
    every access folded to a constant offset — ``exact`` says which);
    for allocas the allocated size is authoritative.
    """
    func = module.functions[func_name]
    footprint: dict[str, dict] = {}
    for arg in func.args:
        if arg.type.is_pointer:
            footprint[f"%{arg.name}"] = {
                "kind": "arg", "bytes": 0, "exact": True}
    for inst in func.instructions():
        if isinstance(inst, Alloca):
            footprint[f"%{inst.name}"] = {
                "kind": "alloca",
                "bytes": inst.allocated_type.size_bytes(),
                "exact": True,
            }
    for acc in collect_accesses(func):
        if acc.base is None or isinstance(acc.base, Alloca):
            continue
        entry = footprint.get(f"%{acc.base.name}")
        if entry is None:
            continue
        if acc.offset is None:
            entry["exact"] = False
        else:
            entry["bytes"] = max(entry["bytes"], acc.offset + acc.size)
    return footprint


def total_footprint_bytes(module: Module, func_name: str) -> int:
    """Sum of all per-root footprints — the kernel's static SPM demand."""
    return sum(e["bytes"] for e in static_footprint(module, func_name).values())
