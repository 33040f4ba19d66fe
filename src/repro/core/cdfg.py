"""Static control/data-flow graph (CDFG).

Built once from the IR during static elaboration: a per-basic-block
skeleton of the datapath where every instruction is a :class:`StaticNode`
linked to its virtual functional unit and the register that will hold
its result.  The dynamic runtime engine instantiates this skeleton
block-by-block at runtime (the paper's dual-CDFG approach).

Elaboration itself (`elaborate_function`) yields an identity-free
`ElaborationRecord`, which the build pipeline's elaborate stage keeps
in the artifact store, one per (module content, function).  FU limits
are bound per run, not elaborated: `StaticCDFG` derives the unit counts
and the dedicated-unit ids from its own ``fu_limits``.
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
#: mapping rules change; it joins every elaboration store key.  (v2: FU
#: limits left the record and the key; units bind them per run.)
ELABORATION_FORMAT_VERSION = 2


@dataclass(frozen=True)
class ElaborationRecord:
    """What static elaboration computes, with no reference to the IR.

    The per-instruction tuples are in program order over
    ``func.blocks``.  The record depends only on the function's content
    (FU limits are bound per run by `StaticCDFG`, and are not part of
    its store key), so the artifact store shares one read-only record
    between every unit whose module has the same fingerprint, under any
    FU limits and however many private copies of that module there are
    (`StaticCDFG` pairs it with each caller's own instructions).
    """

    fu_class: tuple[str, ...]
    result_bits: tuple[int, ...]
    #: Static instructions per FU class, in first-use order.
    static_op_counts: dict[str, int]
    register_bits: int


def elaborate_function(func: Function) -> ElaborationRecord:
    """Map every instruction to its FU class and register width: the
    one place static elaboration happens."""
    fu_class: list[str] = []
    result_bits: list[int] = []
    static_op_counts: dict[str, int] = {}
    for inst in func.instructions():
        cls = fu_class_for(inst)
        if cls != FU_NONE:
            static_op_counts[cls] = static_op_counts.get(cls, 0) + 1
        fu_class.append(cls)
        result_bits.append(inst.type.bit_width() if inst.produces_value else 0)
    return ElaborationRecord(
        fu_class=tuple(fu_class),
        result_bits=tuple(result_bits),
        static_op_counts=static_op_counts,
        register_bits=sum(result_bits),
    )


class StaticCDFG:
    """The statically elaborated skeleton of one accelerator function.

    Built from an `ElaborationRecord` (computed here when none is
    given) and bound to ``fu_limits``: ``fu_counts`` gives each FU class
    its limit, capped at its static count, or one unit per static
    instruction when unlimited.  The per-instruction views — ``nodes``,
    ``blocks`` and `node_for` — are built on first use by pairing this
    function's own instructions with the record, so they always
    reference the caller's module; only they number the dedicated
    units.  Of the engines only the dynamic one reads them; graph
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
                       else elaborate_function(func))
        self.static_op_counts = dict(self.record.static_op_counts)
        #: Instantiated units per class (after applying limits).
        self.fu_counts = {
            cls: min(self.fu_limits[cls], count) if cls in self.fu_limits
            else count
            for cls, count in self.static_op_counts.items()
        }
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
        limits = self.fu_limits
        nodes: dict[Instruction, StaticNode] = {}
        blocks: dict[str, list[StaticNode]] = {}
        # A class without a limit gets one dedicated unit per static
        # instruction (paper default), numbered in program order.
        dedicated: dict[str, int] = {}
        index = 0
        for block in self.func.blocks:
            node_list: list[StaticNode] = []
            for inst in block.instructions:
                cls = record.fu_class[index]
                instance: Optional[int] = None
                if cls != FU_NONE and cls not in limits:
                    instance = dedicated.get(cls, 0)
                    dedicated[cls] = instance + 1
                node = StaticNode(
                    inst=inst,
                    index=index,
                    fu_class=cls,
                    fu_instance=instance,
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
