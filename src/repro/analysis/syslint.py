"""System/config lints: address maps, footprints, and DMA targets.

Rule codes:

======  ========  ==========================================================
SYS301  error     two memory regions (MMR/SPM/DRAM/...) overlap
SYS302  error     kernel static footprint exceeds its scratchpad size
SYS303  error     a DMA transfer touches bytes outside every mapped region
======  ========  ==========================================================

The lints run over a `SystemDescription` — a plain-data view of the
platform — so they work both on live simulator objects (via
:func:`describe_soc`, which duck-types anything carrying an
``AddrRange``-shaped ``.range`` and any DMA engine with a
``transfer_log``) and on configurations that were never instantiated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.diagnostics import AnalysisReport, Location, Severity


@dataclass(frozen=True)
class MemRegion:
    """One mapped address region ``[base, base+size)``."""

    name: str
    kind: str  # "spm" | "dram" | "mmr" | ...
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def overlaps(self, other: "MemRegion") -> bool:
        return self.base < other.end and other.base < self.end

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.end

    def describe(self) -> str:
        return f"{self.name} ({self.kind}) [{self.base:#x}, {self.end:#x})"


@dataclass(frozen=True)
class DmaTransfer:
    """One programmed DMA copy: ``size`` bytes from ``src`` to ``dst``.

    Provenance fields (ticks, direction, engine kind) are excluded from
    equality so descriptions built from bare ``(src, dst, size)`` tuples
    compare equal to ones built from live transfer records.
    """

    name: str
    src: int
    dst: int
    size: int
    start_tick: int = field(default=-1, compare=False)
    end_tick: int = field(default=-1, compare=False)
    direction: str = field(default="mem_to_mem", compare=False)
    engine: str = field(default="block", compare=False)


@dataclass(frozen=True)
class KernelFootprint:
    """A kernel's static memory demand against a target region.

    ``region`` names the scratchpad the kernel's buffers live in; empty
    means "the largest SPM region" (the standalone-harness layout).
    """

    name: str
    bytes_needed: int
    region: str = ""
    exact: bool = True


@dataclass
class SystemDescription:
    """Plain-data platform view the system lints run over."""

    regions: list[MemRegion] = field(default_factory=list)
    transfers: list[DmaTransfer] = field(default_factory=list)
    kernels: list[KernelFootprint] = field(default_factory=list)
    # Optional per-agent access/ordering model (see
    # repro.analysis.concurrency); None when the platform was described
    # before any run, so there is no host op log to extract from.
    concurrency: Optional[object] = None

    def region_named(self, name: str) -> Optional[MemRegion]:
        for region in self.regions:
            if region.name == name:
                return region
        return None

    def to_dict(self) -> dict:
        return {
            "regions": [
                {"name": r.name, "kind": r.kind,
                 "base": r.base, "size": r.size}
                for r in self.regions
            ],
            "transfers": [
                {"name": t.name, "src": t.src, "dst": t.dst, "size": t.size,
                 "start_tick": t.start_tick, "end_tick": t.end_tick,
                 "direction": t.direction, "engine": t.engine}
                for t in self.transfers
            ],
            "kernels": [
                {"name": k.name, "bytes_needed": k.bytes_needed,
                 "region": k.region, "exact": k.exact}
                for k in self.kernels
            ],
            "concurrency": (
                self.concurrency.to_dict()
                if self.concurrency is not None
                and hasattr(self.concurrency, "to_dict")
                else None
            ),
        }


def _region_kind(obj) -> str:
    name = type(obj).__name__.lower()
    if "scratchpad" in name or "spm" in name:
        return "spm"
    if "dram" in name:
        return "dram"
    if "mmr" in name:
        return "mmr"
    return name


def describe_soc(platform) -> SystemDescription:
    """Build a `SystemDescription` from a live platform.

    Accepts anything owning a `System` (an `SoC`, a
    `StandaloneAccelerator`, or the `System` itself) and duck-types its
    object registry: every SimObject with an address-range ``.range``
    becomes a region; every DMA engine's ``transfer_log`` becomes
    transfer records.
    """
    system = getattr(platform, "system", platform)
    desc = SystemDescription()
    for obj in system.objects.values():
        rng = getattr(obj, "range", None)
        if rng is not None and hasattr(rng, "start") and hasattr(rng, "size"):
            desc.regions.append(MemRegion(
                name=obj.name, kind=_region_kind(obj),
                base=rng.start, size=rng.size,
            ))
        for entry in getattr(obj, "transfer_log", ()):
            # Live engines log TransferRecord objects with provenance;
            # hand-built descriptions may still use bare 3-tuples.
            src, dst, size = entry
            desc.transfers.append(DmaTransfer(
                obj.name, src, dst, size,
                start_tick=getattr(entry, "start_tick", -1),
                end_tick=getattr(entry, "end_tick", -1),
                direction=getattr(entry, "direction", "mem_to_mem"),
                engine=getattr(entry, "engine", "block"),
            ))
    return desc


def lint_system(
    desc: SystemDescription,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Run SYS301-303 (and, when ``desc.concurrency`` is populated,
    SYS304-306) over a system description."""
    if report is None:
        report = AnalysisReport(subject="system")
    with report.timings.span("sys-overlap"):
        _check_overlaps(desc.regions, report)
    with report.timings.span("sys-footprint"):
        _check_footprints(desc, report)
    with report.timings.span("sys-dma"):
        _check_transfers(desc, report)
    if desc.concurrency is not None:
        from repro.analysis.concurrency import lint_concurrency

        with report.timings.span("sys-concurrency"):
            lint_concurrency(desc.concurrency, report)
    report.meta.setdefault("system", desc.to_dict())
    return report


def _check_overlaps(regions: list[MemRegion], report: AnalysisReport) -> None:
    ordered = sorted(regions, key=lambda r: (r.base, r.end, r.name))
    for i, first in enumerate(ordered):
        for second in ordered[i + 1:]:
            if second.base >= first.end:
                break  # sorted by base: nothing later can overlap `first`
            report.add(
                "SYS301", Severity.ERROR,
                Location(function=first.name, ref=second.name),
                f"address ranges overlap: {first.describe()} and "
                f"{second.describe()}",
                hint="a request in the shared window routes to whichever "
                     "device matched first — give every device a disjoint "
                     "window",
            )


def _check_footprints(desc: SystemDescription, report: AnalysisReport) -> None:
    spms = [r for r in desc.regions if r.kind == "spm"]
    for kernel in desc.kernels:
        if kernel.region:
            region = desc.region_named(kernel.region)
        else:
            region = max(spms, key=lambda r: r.size, default=None)
        if region is None:
            continue
        if kernel.bytes_needed > region.size:
            bound = "" if kernel.exact else " (lower bound)"
            report.add(
                "SYS302", Severity.ERROR,
                Location(function=kernel.name, ref=region.name),
                f"kernel static footprint {kernel.bytes_needed} B{bound} "
                f"exceeds {region.describe()} of {region.size} B",
                hint="grow the scratchpad, tile the kernel, or stream the "
                     "data through DMA in chunks",
            )


def _union_covers(regions: list[MemRegion], addr: int, size: int) -> bool:
    """Whether ``[addr, addr+size)`` lies inside the union of regions.

    A transfer may legitimately span two adjacent mapped regions (e.g. a
    copy straddling two banks), so coverage is checked against the
    merged region set, not any single region.
    """
    end = addr + size
    cursor = addr
    for region in sorted(regions, key=lambda r: r.base):
        if region.end <= cursor:
            continue
        if region.base > cursor:
            return False  # gap at [cursor, region.base)
        cursor = region.end
        if cursor >= end:
            return True
    return cursor >= end


def _check_transfers(desc: SystemDescription, report: AnalysisReport) -> None:
    for transfer in desc.transfers:
        for label, addr in (("source", transfer.src),
                            ("destination", transfer.dst)):
            if not _union_covers(desc.regions, addr, transfer.size):
                report.add(
                    "SYS303", Severity.ERROR,
                    Location(function=transfer.name),
                    f"DMA {label} [{addr:#x}, {addr + transfer.size:#x}) "
                    f"is not fully covered by the mapped regions",
                    hint="the transfer would fault (or silently wrap) at "
                         "simulation time — fix the programmed address or "
                         "map the region",
                )


def footprints_from_module(
    module,
    func_name: str,
    region: str = "",
) -> list[KernelFootprint]:
    """Kernel footprints for SYS302 from the static analysis."""
    from repro.analysis.memdep import static_footprint

    entries = static_footprint(module, func_name)
    total = sum(entry["bytes"] for entry in entries.values())
    exact = all(entry["exact"] for entry in entries.values())
    return [KernelFootprint(func_name, total, region, exact)]
