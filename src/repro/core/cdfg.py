"""Static control/data-flow graph (CDFG).

Built once from the IR during static elaboration: a per-basic-block
skeleton of the datapath where every instruction is a :class:`StaticNode`
linked to its virtual functional unit and the register that will hold
its result.  The dynamic runtime engine instantiates this skeleton
block-by-block at runtime (the paper's dual-CDFG approach).

Elaboration itself (`elaborate_function`) yields an identity-free
`ElaborationRecord`, which the build pipeline's elaborate stage keeps
in the artifact store, one per (module content, function, FU limits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.profile import FU_NONE, fu_class_for
from repro.ir.instructions import Branch, Load, Phi, Ret, Store
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Instruction


@dataclass
class StaticNode:
    """One instruction of the static datapath skeleton."""

    inst: Instruction
    index: int                     # position within the function (program order)
    fu_class: str                  # FU_NONE for control/memory/wiring ops
    fu_instance: Optional[int]     # dedicated unit id (1-to-1 mode) or None (pooled)
    result_bits: int               # register width of the result (0 if void)

    @property
    def is_memory(self) -> bool:
        return isinstance(self.inst, (Load, Store))

    @property
    def is_load(self) -> bool:
        return isinstance(self.inst, Load)

    @property
    def is_store(self) -> bool:
        return isinstance(self.inst, Store)

    @property
    def is_branch(self) -> bool:
        return isinstance(self.inst, Branch)

    @property
    def is_ret(self) -> bool:
        return isinstance(self.inst, Ret)

    @property
    def is_phi(self) -> bool:
        return isinstance(self.inst, Phi)

    @property
    def is_compute(self) -> bool:
        return self.fu_class != FU_NONE


#: Bump when `ElaborationRecord`'s layout or `elaborate_function`'s
#: mapping rules change; it joins every elaboration store key.
ELABORATION_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ElaborationRecord:
    """What static elaboration computes, with no reference to the IR.

    The per-instruction tuples are in program order over
    ``func.blocks``.  The record depends only on the function's content
    and the FU limits, so the artifact store shares one read-only record
    between every unit whose module has the same fingerprint, however
    many private copies of that module there are (`StaticCDFG` pairs it
    with each caller's own instructions).
    """

    fu_class: tuple[str, ...]
    fu_instance: tuple[Optional[int], ...]
    result_bits: tuple[int, ...]
    #: Instantiated units per class (after applying limits).
    fu_counts: dict[str, int]
    static_op_counts: dict[str, int]
    register_bits: int


def elaborate_function(
    func: Function, fu_limits: Optional[dict[str, int]] = None
) -> ElaborationRecord:
    """Map every instruction to its FU class, FU instance and register
    width: the one place static elaboration happens."""
    fu_limits = fu_limits or {}
    fu_class: list[str] = []
    fu_instance: list[Optional[int]] = []
    result_bits: list[int] = []
    static_op_counts: dict[str, int] = {}
    dedicated_counter: dict[str, int] = {}
    for inst in func.instructions():
        cls = fu_class_for(inst)
        instance: Optional[int] = None
        if cls != FU_NONE:
            static_op_counts[cls] = static_op_counts.get(cls, 0) + 1
            if cls not in fu_limits:
                # Default: dedicated unit per static instruction.
                instance = dedicated_counter.get(cls, 0)
                dedicated_counter[cls] = instance + 1
        fu_class.append(cls)
        fu_instance.append(instance)
        result_bits.append(inst.type.bit_width() if inst.produces_value else 0)
    # Instantiated FU counts: limit if constrained, else 1-to-1.
    fu_counts = {}
    for cls, static_count in static_op_counts.items():
        limit = fu_limits.get(cls)
        fu_counts[cls] = (min(limit, static_count) if limit is not None
                          else static_count)
    return ElaborationRecord(
        fu_class=tuple(fu_class),
        fu_instance=tuple(fu_instance),
        result_bits=tuple(result_bits),
        fu_counts=fu_counts,
        static_op_counts=static_op_counts,
        register_bits=sum(result_bits),
    )


class StaticCDFG:
    """The statically elaborated skeleton of one accelerator function.

    Built from an `ElaborationRecord` (computed here when none is
    given).  The per-instruction views — ``nodes``, ``blocks`` and
    `node_for` — are built on first use by pairing this function's own
    instructions with the record, so they always reference the caller's
    module.  Of the engines only the dynamic one reads them; graph
    lowering reads the record itself (`checked_record`).
    """

    def __init__(
        self,
        func: Function,
        fu_limits: Optional[dict[str, int]] = None,
        record: Optional[ElaborationRecord] = None,
    ) -> None:
        self.func = func
        self.fu_limits = dict(fu_limits or {})
        self.record = (record if record is not None
                       else elaborate_function(func, self.fu_limits))
        self.fu_counts = dict(self.record.fu_counts)
        self.static_op_counts = dict(self.record.static_op_counts)
        self.register_bits = self.record.register_bits
        self._nodes: Optional[dict[Instruction, StaticNode]] = None
        self._blocks: Optional[dict[str, list[StaticNode]]] = None

    @property
    def nodes(self) -> dict[Instruction, StaticNode]:
        if self._nodes is None:
            self._bind()
        return self._nodes

    @property
    def blocks(self) -> dict[str, list[StaticNode]]:
        if self._blocks is None:
            self._bind()
        return self._blocks

    def checked_record(self) -> ElaborationRecord:
        """The record, once it is known to fit this function: its
        tuples are indexed by program-order instruction position."""
        record = self.record
        if self.func.instruction_count() != len(record.fu_class):
            raise ValueError(
                f"elaboration record of {len(record.fu_class)} instructions "
                f"does not fit '{self.func.name}' "
                f"({self.func.instruction_count()} instructions)"
            )
        return record

    def _bind(self) -> None:
        record = self.checked_record()
        nodes: dict[Instruction, StaticNode] = {}
        blocks: dict[str, list[StaticNode]] = {}
        index = 0
        for block in self.func.blocks:
            node_list: list[StaticNode] = []
            for inst in block.instructions:
                node = StaticNode(
                    inst=inst,
                    index=index,
                    fu_class=record.fu_class[index],
                    fu_instance=record.fu_instance[index],
                    result_bits=record.result_bits[index],
                )
                nodes[inst] = node
                node_list.append(node)
                index += 1
            blocks[block.name] = node_list
        self._nodes, self._blocks = nodes, blocks

    # ------------------------------------------------------------------
    def node_for(self, inst: Instruction) -> StaticNode:
        return self.nodes[inst]

    def block_nodes(self, block: BasicBlock) -> list[StaticNode]:
        return self.blocks[block.name]

    def total_instructions(self) -> int:
        return len(self.record.fu_class)

    def summary(self) -> dict:
        return {
            "function": self.func.name,
            "instructions": self.total_instructions(),
            "blocks": len(self.func.blocks),
            "register_bits": self.register_bits,
            "fu_counts": dict(sorted(self.fu_counts.items())),
        }
