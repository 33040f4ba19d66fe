"""Constant folding and trivial algebraic simplification.

Folds binops/casts/comparisons/selects whose operands are constants by
delegating to `repro.ir.semantics` (so folding and execution can never
disagree), plus identity simplifications (x+0, x*1, x*0, select with a
constant condition).  Conditional branches on constants are rewritten
to unconditional ones, leaving dead blocks for SimplifyCFG to collect.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.instructions import (
    BinaryOp,
    Branch,
    Cast,
    FCmp,
    ICmp,
    Phi,
    Select,
)
from repro.ir.module import Function
from repro.ir.semantics import EvalError, eval_binop, eval_cast, eval_fcmp, eval_icmp
from repro.ir.types import I1
from repro.ir.values import Constant, Instruction, Value
from repro.passes.pass_manager import FunctionPass


def fold_instruction(inst: Instruction,
                     operands: Optional[list[Value]] = None) -> Optional[Value]:
    """The value ``inst`` folds to, or None if it does not fold.

    The one folding rule of the compiler: `ConstantFold` applies it in
    place, and `LoopUnroll` applies it to each instruction it is about
    to clone, passing the clone's remapped ``operands`` instead of the
    original's (for a phi, its incoming values in order).
    """
    ops = inst.operands if operands is None else operands
    try:
        if isinstance(inst, BinaryOp):
            return _fold_binop(inst, ops[0], ops[1])
        if isinstance(inst, ICmp):
            a, b = ops
            if isinstance(a, Constant) and isinstance(b, Constant):
                return Constant(I1, eval_icmp(inst.pred, a.type, a.value, b.value))
        if isinstance(inst, FCmp):
            a, b = ops
            if isinstance(a, Constant) and isinstance(b, Constant):
                return Constant(I1, eval_fcmp(inst.pred, a.value, b.value))
        if isinstance(inst, Cast):
            src = ops[0]
            if isinstance(src, Constant):
                return Constant(
                    inst.type, eval_cast(inst.opcode, src.type, inst.type, src.value)
                )
        if isinstance(inst, Select):
            cond, tv, fv = ops
            if isinstance(cond, Constant):
                return tv if cond.value else fv
        if isinstance(inst, Phi) and ops:
            first = ops[0]
            if all(v is first for v in ops[1:]) or (
                isinstance(first, Constant) and all(v == first for v in ops)
            ):
                if first is not inst:
                    return first
    except EvalError:
        return None
    return None


def _fold_binop(inst: BinaryOp, a: Value, b: Value) -> Optional[Value]:
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(inst.type, eval_binop(inst.opcode, inst.type, a.value, b.value))
    # Identities (integer only: FP identities are unsafe under NaN/-0).
    if inst.type.is_int:
        if inst.opcode in ("add", "or", "xor", "sub", "shl", "lshr", "ashr"):
            if isinstance(b, Constant) and b.value == 0:
                return a
            if (
                inst.opcode in ("add", "or", "xor")
                and isinstance(a, Constant)
                and a.value == 0
            ):
                return b
        if inst.opcode == "mul":
            for x, y in ((a, b), (b, a)):
                if isinstance(x, Constant):
                    if x.value == 1:
                        return y
                    if x.value == 0:
                        return Constant(inst.type, 0)
        if inst.opcode in ("sdiv", "udiv") and isinstance(b, Constant) and b.value == 1:
            return a
    return None


class ConstantFold(FunctionPass):
    name = "constfold"

    def run(self, func: Function) -> bool:
        changed_any = False
        while True:
            # One sweep: fold in program order, substituting operands as
            # we go so chains collapse within a single pass; apply any
            # remaining (phi / cross-block-cycle) uses in one batch at
            # the end.  Keeps the pass O(rounds * n) instead of O(n^2).
            replacements: dict[Instruction, Value] = {}

            def resolve(value: Value) -> Value:
                while isinstance(value, Instruction) and value in replacements:
                    value = replacements[value]
                return value

            changed = False
            for block in func.blocks:
                for inst in list(block.instructions):
                    for operand in list(inst.operands):
                        if isinstance(operand, Instruction) and operand in replacements:
                            inst.replace_operand(operand, resolve(operand))
                    replacement = fold_instruction(inst)
                    if replacement is None:
                        continue
                    replacements[inst] = replacement
                    block.remove(inst)
                    changed = True
            if replacements:
                for block in func.blocks:
                    for inst in block.instructions:
                        for operand in list(inst.operands):
                            if isinstance(operand, Instruction) and operand in replacements:
                                inst.replace_operand(operand, resolve(operand))
            changed |= self._fold_branches(func)
            changed_any |= changed
            if not changed:
                return changed_any

    # ------------------------------------------------------------------
    @staticmethod
    def _fold_branches(func: Function) -> bool:
        changed = False
        for block in func.blocks:
            term = block.terminator
            if (
                isinstance(term, Branch)
                and term.is_conditional
                and isinstance(term.condition, Constant)
            ):
                taken = term.true_target if term.condition.value else term.false_target
                not_taken = term.false_target if term.condition.value else term.true_target
                block.instructions.pop()
                new_term = Branch(taken)
                new_term.parent = block
                block.instructions.append(new_term)
                if not_taken is not taken:
                    for phi in not_taken.phis():
                        phi.incoming = [
                            (v, p) for v, p in phi.incoming if p is not block
                        ]
                        phi.operands = [v for v, __ in phi.incoming]
                changed = True
        return changed
