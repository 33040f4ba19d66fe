"""IR verifier.

Checks the structural invariants the rest of the system depends on:
well-terminated blocks, phi/predecessor agreement, type-correct
operands, and SSA dominance of definitions over uses.
"""

from __future__ import annotations

from repro.ir.dominance import DominatorTree
from repro.ir.instructions import Branch, Call, Phi, Ret
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Argument, Constant, Instruction
from repro.ir.instructions import BlockRef


class VerifierError(ValueError):
    pass


def verify_module(module: Module) -> None:
    for func in module:
        verify_function(func, module)


def verify_function(func: Function, module: Module | None = None) -> None:
    if not func.blocks:
        raise VerifierError(f"{func.name}: function has no blocks")
    _check_blocks(func)
    _check_names(func)
    # One predecessor map serves the phi check and the dominator tree.
    pred_map = func.predecessor_map()
    _check_phis(func, pred_map)
    _check_dominance(func, pred_map)
    if module is not None:
        _check_calls(func, module)


def _check_blocks(func: Function) -> None:
    names = set()
    blocks = set(func.blocks)
    for block in func.blocks:
        if block.name in names:
            raise VerifierError(f"{func.name}: duplicate block name '{block.name}'")
        names.add(block.name)
        if not block.instructions:
            raise VerifierError(f"{func.name}.{block.name}: empty block")
        if not block.instructions[-1].is_terminator:
            raise VerifierError(f"{func.name}.{block.name}: missing terminator")
        for inst in block.instructions[:-1]:
            if inst.is_terminator:
                raise VerifierError(
                    f"{func.name}.{block.name}: terminator in the middle of block"
                )
        for inst in block.instructions:
            if inst.parent is not block:
                raise VerifierError(
                    f"{func.name}.{block.name}: instruction with stale parent"
                )
        term = block.terminator
        if isinstance(term, Branch):
            cond = term.condition
            if cond is not None and not (
                cond.type.is_int and cond.type.bits == 1
            ):
                raise VerifierError(
                    f"{func.name}.{block.name}: branch condition must be i1, "
                    f"got {cond.type}"
                )
            for target in term.targets():
                if target not in blocks:
                    raise VerifierError(
                        f"{func.name}.{block.name}: branch to foreign block '{target.name}'"
                    )
        elif isinstance(term, Ret):
            expected = func.return_type
            got = term.return_value.type if term.return_value is not None else None
            if expected.is_void and got is not None:
                raise VerifierError(f"{func.name}: ret with value in void function")
            if not expected.is_void and got != expected:
                raise VerifierError(
                    f"{func.name}: ret type {got} does not match {expected}"
                )


def _check_names(func: Function) -> None:
    seen: set[str] = {a.name for a in func.args}
    if len(seen) != len(func.args):
        raise VerifierError(f"{func.name}: duplicate argument names")
    for block in func.blocks:
        for inst in block.instructions:
            if not inst.produces_value:
                continue
            if not inst.name:
                raise VerifierError(f"{func.name}: unnamed value-producing {inst.opcode}")
            if inst.name in seen:
                raise VerifierError(f"{func.name}: duplicate SSA name '%{inst.name}'")
            seen.add(inst.name)


def _check_phis(func: Function, pred_map: dict) -> None:
    for block in func.blocks:
        preds = pred_map[block]
        seen_non_phi = False
        for inst in block.instructions:
            if isinstance(inst, Phi):
                if block is func.entry:
                    raise VerifierError(
                        f"{func.name}.{block.name}: phi {inst.ref} in entry "
                        f"block (the entry has no predecessors)"
                    )
                if seen_non_phi:
                    raise VerifierError(
                        f"{func.name}.{block.name}: phi after non-phi instruction"
                    )
                incoming_blocks = [b for __, b in inst.incoming]
                if set(map(id, incoming_blocks)) != set(map(id, preds)) or len(
                    incoming_blocks
                ) != len(preds):
                    raise VerifierError(
                        f"{func.name}.{block.name}: phi {inst.ref} incoming blocks "
                        f"{[b.name for b in incoming_blocks]} != predecessors "
                        f"{[b.name for b in preds]}"
                    )
            else:
                seen_non_phi = True


def _check_dominance(func: Function, pred_map: dict) -> None:
    dt = DominatorTree(func, pred_map)
    positions: dict[Instruction, tuple[BasicBlock, int]] = {}
    for block in func.blocks:
        for i, inst in enumerate(block.instructions):
            positions[inst] = (block, i)

    for block in func.blocks:
        if not dt.is_reachable(block):
            continue
        for i, inst in enumerate(block.instructions):
            if isinstance(inst, Phi):
                for value, pred in inst.incoming:
                    if isinstance(value, Instruction):
                        if value not in positions:
                            raise VerifierError(
                                f"{func.name}: phi uses value {value.ref} not in function"
                            )
                        def_block, __ = positions[value]
                        if dt.is_reachable(pred) and not dt.dominates(def_block, pred):
                            raise VerifierError(
                                f"{func.name}.{block.name}: phi incoming {value.ref} does "
                                f"not dominate predecessor '{pred.name}'"
                            )
                continue
            for operand in inst.operands:
                if not isinstance(operand, Instruction):
                    if isinstance(operand, (Constant, Argument, BlockRef)):
                        continue
                    raise VerifierError(f"{func.name}: bad operand kind {operand!r}")
                position = positions.get(operand)
                if position is None:
                    raise VerifierError(
                        f"{func.name}: {inst.opcode} uses value {operand.ref} not in function"
                    )
                def_block, def_index = position
                if def_block is block:
                    if def_index >= i:
                        raise VerifierError(
                            f"{func.name}.{block.name}: {operand.ref} used before definition"
                        )
                elif not dt.strictly_dominates(def_block, block):
                    raise VerifierError(
                        f"{func.name}: definition of {operand.ref} in '{def_block.name}' does not "
                        f"dominate use in '{block.name}'"
                    )


def _check_calls(func: Function, module: Module) -> None:
    for inst in func.instructions():
        if isinstance(inst, Call) and not inst.is_intrinsic:
            if inst.callee not in module.functions:
                raise VerifierError(
                    f"{func.name}: call to unknown function '@{inst.callee}'"
                )
            callee = module.functions[inst.callee]
            if len(callee.args) != len(inst.operands):
                raise VerifierError(
                    f"{func.name}: call to @{inst.callee} with wrong arity"
                )
            for i, (param, actual) in enumerate(zip(callee.args, inst.operands)):
                if actual.type != param.type:
                    raise VerifierError(
                        f"{func.name}: call to @{inst.callee} argument {i} "
                        f"('{param.name}') expects {param.type}, "
                        f"got {actual.type}"
                    )
            if inst.type != callee.return_type:
                raise VerifierError(
                    f"{func.name}: call to @{inst.callee} typed {inst.type} "
                    f"but callee returns {callee.return_type}"
                )
