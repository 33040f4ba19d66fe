"""Natural-loop detection and canonical induction analysis.

Finds back edges via the dominator tree, builds :class:`Loop` regions,
and recognises the canonical counted-loop shape the frontend emits::

    header:  %i = phi [ start, preheader ], [ %i.next, latch ]
             ...body...
    latch:   %i.next = add %i, step
             %cond  = icmp slt %i.next, bound      ; or in header
             br %cond, header, exit

`trip_count` returns the exact iteration count when start/step/bound
are constants — the precondition for full unrolling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.dominance import DominatorTree
from repro.ir.instructions import BinaryOp, Branch, ICmp, Phi
from repro.ir.module import BasicBlock, Function
from repro.ir.semantics import to_signed
from repro.ir.types import IntType
from repro.ir.values import Constant, Value


@dataclass
class InductionVariable:
    phi: Phi
    start: Value
    step: Value
    update: BinaryOp
    compare: Optional[ICmp]


@dataclass
class Loop:
    header: BasicBlock
    latch: BasicBlock
    blocks: list[BasicBlock]
    exits: list[BasicBlock] = field(default_factory=list)
    induction: Optional[InductionVariable] = None

    @property
    def is_canonical(self) -> bool:
        """Single latch that is also the sole exiting block, with an IV."""
        if self.induction is None or not self.exits_from_latch:
            return False
        inside = set(map(id, self.blocks))
        return all(
            id(succ) in inside
            for block in self.blocks if block is not self.latch
            for succ in block.successors()
        )

    @property
    def exits_from_latch(self) -> bool:
        term = self.latch.terminator
        if not isinstance(term, Branch) or not term.is_conditional:
            return False
        targets = term.targets()
        return self.header in targets and any(t not in self.blocks for t in targets)

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks


def find_loops(func: Function) -> list[Loop]:
    """All natural loops, innermost first."""
    dt = DominatorTree(func)
    pred_map = func.predecessor_map()
    loops: list[Loop] = []
    for block in func.blocks:
        if not dt.is_reachable(block):
            continue
        for succ in block.successors():
            if dt.dominates(succ, block):  # back edge block -> succ
                loops.append(_build_loop(succ, block, pred_map))
    # Innermost first == smaller body first.
    loops.sort(key=lambda loop: len(loop.blocks))
    return loops


def _build_loop(header: BasicBlock, latch: BasicBlock, pred_map: dict) -> Loop:
    blocks = [header]
    work = [latch]
    while work:
        block = work.pop()
        if block in blocks:
            continue
        blocks.append(block)
        work.extend(p for p in pred_map.get(block, ()) if p not in blocks)
    exits: list[BasicBlock] = []
    for block in blocks:
        for succ in block.successors():
            if succ not in blocks and succ not in exits:
                exits.append(succ)
    loop = Loop(header=header, latch=latch, blocks=blocks, exits=exits)
    loop.induction = _find_induction(loop)
    return loop


def _find_induction(loop: Loop) -> Optional[InductionVariable]:
    for phi in loop.header.phis():
        if len(phi.incoming) != 2:
            continue
        start = step = update = None
        for value, pred in phi.incoming:
            if pred in loop.blocks:
                if (
                    isinstance(value, BinaryOp)
                    and value.opcode in ("add", "sub")
                    and value.parent in loop.blocks
                ):
                    operands = value.operands
                    if operands[0] is phi and isinstance(operands[1], Constant):
                        update, step = value, operands[1]
                    elif (
                        value.opcode == "add"
                        and operands[1] is phi
                        and isinstance(operands[0], Constant)
                    ):
                        update, step = value, operands[0]
            else:
                start = value
        if update is None or start is None:
            continue
        compare = _find_compare(loop, phi, update)
        return InductionVariable(phi=phi, start=start, step=step, update=update, compare=compare)
    return None


def _find_compare(loop: Loop, phi: Phi, update: BinaryOp) -> Optional[ICmp]:
    term = loop.latch.terminator
    if isinstance(term, Branch) and term.is_conditional:
        cond = term.condition
        if isinstance(cond, ICmp) and (
            cond.operands[0] in (phi, update) or cond.operands[1] in (phi, update)
        ):
            return cond
    return None


def trip_count(loop: Loop) -> Optional[int]:
    """Exact trip count for canonical loops with constant bounds."""
    iv = loop.induction
    if iv is None or iv.compare is None or not loop.exits_from_latch:
        return None
    if not isinstance(iv.start, Constant) or not isinstance(iv.step, Constant):
        return None
    cmp_ = iv.compare
    lhs, rhs = cmp_.operands
    if lhs in (iv.phi, iv.update) and isinstance(rhs, Constant):
        bound_const, tested = rhs, lhs
        pred = cmp_.pred
    elif rhs in (iv.phi, iv.update) and isinstance(lhs, Constant):
        bound_const, tested = lhs, rhs
        pred = _swap_pred(cmp_.pred)
    else:
        return None

    term = loop.latch.terminator
    assert isinstance(term, Branch)
    continue_on_true = term.true_target is loop.header
    type_ = iv.phi.type
    if not isinstance(type_, IntType):
        return None
    start = to_signed(iv.start.value, type_)
    step = to_signed(iv.step.value, type_)
    if iv.update.opcode == "sub":
        step = -step
    bound = to_signed(bound_const.value, type_)
    if step == 0:
        return None

    # Simulate the exit test; bail out on pathological loops.
    count = 0
    value = start
    limit = 10_000_000
    while count <= limit:
        count += 1
        next_value = value + step
        tested_value = next_value if tested is iv.update else value
        taken = _eval_pred(pred, tested_value, bound)
        if taken != continue_on_true:
            return count
        value = next_value
    return None


def _eval_pred(pred: str, a: int, b: int) -> bool:
    table = {
        "eq": a == b,
        "ne": a != b,
        "slt": a < b,
        "sle": a <= b,
        "sgt": a > b,
        "sge": a >= b,
        "ult": a < b,
        "ule": a <= b,
        "ugt": a > b,
        "uge": a >= b,
    }
    return table[pred]


def _swap_pred(pred: str) -> str:
    swap = {
        "eq": "eq",
        "ne": "ne",
        "slt": "sgt",
        "sle": "sge",
        "sgt": "slt",
        "sge": "sle",
        "ult": "ugt",
        "ule": "uge",
        "ugt": "ult",
        "uge": "ule",
    }
    return swap[pred]
