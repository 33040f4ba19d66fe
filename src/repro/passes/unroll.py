"""Loop unrolling.

The ILP-tuning knob of the flow: the paper shapes accelerator datapaths
by applying clang unroll pragmas before the IR reaches the simulator.
`LoopUnroll` fully unrolls canonical counted loops whose trip count is
a compile-time constant, or partially unrolls by a factor (clamped to a
divisor of the trip count so no remainder loop is needed).  Loops are
processed innermost-first; per-loop factors come from ``#pragma unroll``
annotations stored on the latch branch (``branch.unroll_factor``, where
0 means "full"), falling back to ``default_factor``.

Unrolling requires rotated (bottom-tested) loops: a header carrying the
phis and a latch ending in ``update; icmp; br header, exit``.  The
frontend emits exactly this shape for counted ``for`` loops.

Each iteration is built at its final size (`clone_region`): what the
shared fold rule folds is not cloned, and a clone block that CFG
simplification would merge into its predecessor is appended to it.
The module that constfold and simplifycfg then leave is the one
clone-then-fold-then-merge left, names included (`Unbuilt`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    ICmp,
    Phi,
    Select,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Instruction, Value
from repro.passes.constfold import fold_instruction
from repro.passes.loop_analysis import Loop, find_loops, trip_count
from repro.passes.pass_manager import FunctionPass


class UnrollError(RuntimeError):
    pass


def clone_instruction(inst: Instruction, value_map: dict, block_map: dict) -> Instruction:
    """Clone one non-phi instruction, remapping operands and targets."""
    if isinstance(inst, Branch):
        if inst.is_conditional:
            return Branch(
                block_map.get(inst.true_target, inst.true_target),
                cond=value_map.get(inst.condition, inst.condition),
                if_false=block_map.get(inst.false_target, inst.false_target),
            )
        return Branch(block_map.get(inst.true_target, inst.true_target))
    if isinstance(inst, Phi):
        raise UnrollError(f"cannot clone instruction '{inst.opcode}'")
    return _copy_with(inst, [value_map.get(op, op) for op in inst.operands])


#: What a copy carries besides opcode, type and operands, per class.
_ATTRIBUTES = {ICmp: ("pred",), FCmp: ("pred",), Alloca: ("allocated_type",),
               Call: ("callee",)}


def _copy_with(inst: Instruction, operands: list[Value]) -> Instruction:
    """An unnamed, unplaced copy of ``inst`` over ``operands``.

    Any instruction but a branch (its operands are block references)
    and a phi (its operands mirror its incoming list) is its opcode,
    type and `_ATTRIBUTES` over its operands, and a remapped operand
    has the type of the one it replaces, so this builds what the class
    constructor would, without re-validating the operand types.  The
    attributes are set in the constructors' order, so the copy's
    instance dictionary stays shared-key.
    """
    clone = object.__new__(type(inst))
    Instruction.__init__(clone, inst.opcode, inst.type, operands)
    for attribute in _ATTRIBUTES.get(type(inst), ()):
        setattr(clone, attribute, getattr(inst, attribute))
    return clone


#: What `fold_instruction` can fold among the instructions a clone
#: copies (a cloned phi gets its incoming values only after its region
#: is built, so phis are left to `ConstantFold`).
_FOLDABLE = (BinaryOp, ICmp, FCmp, Cast, Select)


@dataclass
class Unbuilt:
    """What clone-then-fold-then-merge would hold that unrolling skipped.

    ``ghosts`` maps an instruction to the number of folded instructions
    that would stand before it in its block; ``absorbed`` maps a block to
    the number of blocks fused into it.  Neither is IR: they only keep
    the `unique_name` numbering (and the unroll budget) what it would be
    had every clone been built, so that folding and fusing while
    unrolling leave the final module's names unchanged.
    """

    ghosts: dict = field(default_factory=dict)
    absorbed: dict = field(default_factory=dict)

    def block_count(self, blocks: list[BasicBlock]) -> int:
        """How many blocks ``blocks`` would be, unfused."""
        return len(blocks) + sum(self.absorbed.get(b, 0) for b in blocks)

    def body_size(self, blocks: list[BasicBlock]) -> int:
        """Instructions in ``blocks`` as clone-then-fold would count them:
        the folded ones, and the branch ending each fused block."""
        ghosts = self.ghosts
        return sum(len(b) + self.absorbed.get(b, 0)
                   + sum(ghosts.get(i, 0) for i in b.instructions)
                   for b in blocks)


def fold_region(blocks: list[BasicBlock], seed_map: dict) -> dict:
    """What each instruction of ``blocks`` folds to under ``seed_map``.

    Returns ``seed_map`` extended with every foldable instruction whose
    remapped operands fold, mapped to its folded value; nothing is
    changed.  `clone_region` applies the same rule as it clones.
    """
    vmap = dict(seed_map)
    for block in blocks:
        for inst in block.instructions:
            if isinstance(inst, _FOLDABLE):
                folded = fold_instruction(inst, [vmap.get(op, op) for op in inst.operands])
                if folded is not None:
                    vmap[inst] = folded
    return vmap


class LoopBody:
    """A loop body as it stands before unrolling it: what each clone copies.

    ``blocks`` is the body in reverse post-order, header first (so a
    clone never sees a forward reference); ``instructions`` and
    ``absorbed`` are each block's instructions and fused-block count,
    taken now because iteration 1 is appended to the latch.  ``joins``
    maps a non-header block to its predecessor when that is its only
    one and ends in an unconditional branch to it, and it has no phis:
    a pair `SimplifyCFG` would merge.  Such a block always directly
    follows its predecessor in ``blocks``.
    """

    def __init__(self, blocks: list[BasicBlock], unbuilt: Unbuilt) -> None:
        self.blocks = blocks
        self.instructions = {block: list(block.instructions) for block in blocks}
        self.absorbed = {block: unbuilt.absorbed.get(block, 0) for block in blocks}
        preds: dict[BasicBlock, list[BasicBlock]] = {}
        for block in blocks:
            for succ in block.successors():
                preds.setdefault(succ, []).append(block)
        self.joins: dict[BasicBlock, BasicBlock] = {}
        for block in blocks[1:]:
            sources = preds.get(block, ())
            if (len(sources) == 1 and not sources[0].terminator.is_conditional
                    and not block.phis()):
                self.joins[block] = sources[0]
        #: The branches into joining blocks, which clones leave out.
        self.chained = {self.instructions[pred][-1] for pred in self.joins.values()}


def clone_region(
    func: Function,
    body: LoopBody,
    into: BasicBlock,
    seed_map: dict,
    suffix: str,
    unbuilt: Unbuilt,
) -> tuple[list[BasicBlock], dict, dict]:
    """Clone one iteration of ``body`` onto the end of ``into``.

    ``seed_map`` substitutes values up-front (header phi -> incoming
    value); substituted phis are *not* cloned.  The clone is built at
    its final size:

    * an instruction that `fold_instruction` folds under the remapped
      operands is not cloned: its uses get the folded value;
    * the header's clone goes onto the end of ``into`` (the previous
      iteration's latch, whose branch it replaces), and the clone of a
      block that joins its predecessor onto the end of that
      predecessor's clone.

    Every skipped block and instruction still draws the `unique_name`
    number its clone would have drawn, and ``unbuilt`` records the
    clones' share, so the clones that do exist are named as without
    folding or fusing.  Returns (new blocks, value map original->clone
    or folded value, block map original->the block holding its clone).
    """
    header = body.blocks[0]
    joins = body.joins
    block_map: dict[BasicBlock, BasicBlock] = {}
    new_blocks: list[BasicBlock] = []
    for block in body.blocks:
        extra = body.absorbed[block]
        if block is header or block in joins:
            func.skip_names(1 + extra)
            host = into if block is header else block_map[joins[block]]
            extra += 1
        else:
            host = BasicBlock(func.unique_name(f"{block.name}.{suffix}."), func)
            func.skip_names(extra)
            new_blocks.append(host)
        if extra:
            unbuilt.absorbed[host] = unbuilt.absorbed.get(host, 0) + extra
        block_map[block] = host

    ghosts = unbuilt.ghosts
    chained = body.chained
    vmap = dict(seed_map)
    phi_todo: list[tuple[Phi, Phi]] = []
    dropped = into.instructions.pop()  # the previous iteration's exit test
    dropped.parent = None
    pending = ghosts.get(dropped, 0)  # folded instructions since the last clone
    for block in body.blocks:
        host = block_map[block]
        for inst in body.instructions[block]:
            if isinstance(inst, Phi):
                if inst in vmap:
                    continue  # substituted away by the seed
                clone: Instruction = Phi(inst.type)
                phi_todo.append((inst, clone))
            else:
                skipped = ghosts.get(inst, 0)
                func.skip_names(skipped)
                pending += skipped
                if inst in chained:
                    continue
                if isinstance(inst, Branch):
                    clone = clone_instruction(inst, vmap, block_map)
                else:
                    operands = [vmap.get(op, op) for op in inst.operands]
                    folded = (fold_instruction(inst, operands)
                              if isinstance(inst, _FOLDABLE) else None)
                    if folded is not None:
                        vmap[inst] = folded
                        func.skip_names(1)
                        pending += 1
                        continue
                    clone = _copy_with(inst, operands)
                if pending:
                    ghosts[clone] = pending
                    pending = 0
            if clone.produces_value:
                clone.name = func.unique_name(f"{inst.name}.{suffix}")
            clone.parent = host
            host.instructions.append(clone)
            vmap[inst] = clone

    for orig, clone in phi_todo:
        for value, pred in orig.incoming:
            clone.add_incoming(vmap.get(value, value), block_map.get(pred, pred))

    return new_blocks, vmap, block_map


class LoopUnroll(FunctionPass):
    name = "loop-unroll"

    def __init__(self, default_factor: int = 1, max_unrolled_insts: int = 200_000) -> None:
        self.default_factor = default_factor
        self.max_unrolled_insts = max_unrolled_insts

    def run(self, func: Function) -> bool:
        changed = False
        # What the unfolded, unmerged clones would have held; it counts
        # until the end of this pass, as they would have.
        unbuilt = Unbuilt()
        for _ in range(1000):  # re-discover loops after each transform
            # Innermost first, by the size the loops would have unfused
            # (a stable sort: ties keep `find_loops`' order).
            loops = sorted(find_loops(func),
                           key=lambda loop: unbuilt.block_count(loop.blocks))
            target = self._pick_loop(loops, unbuilt)
            if target is None:
                break
            loop, factor = target
            self._unroll(func, loop, factor, unbuilt)
            changed = True
        return changed

    # ------------------------------------------------------------------
    def _pick_loop(self, loops: list[Loop], unbuilt: Unbuilt) -> Optional[tuple[Loop, int]]:
        for loop in loops:
            if not loop.is_canonical:
                continue
            term = loop.latch.terminator
            if getattr(term, "unroll_done", False):
                continue
            if self._contains_other_loop(loop, loops):
                continue
            count = trip_count(loop)
            if count is None:
                continue
            requested = getattr(term, "unroll_factor", self.default_factor)
            if requested == 0:  # pragma shorthand for "full"
                requested = count
            factor = self._effective_factor(requested, count, unbuilt.body_size(loop.blocks))
            if factor > 1:
                return loop, factor
            term.unroll_done = True  # nothing to do; never re-pick
        return None

    @staticmethod
    def _contains_other_loop(loop: Loop, loops: list[Loop]) -> bool:
        return any(other is not loop and other.header in loop.blocks for other in loops)

    def _effective_factor(self, requested: int, count: int, body_size: int) -> int:
        requested = max(1, min(requested, count))
        budget = max(1, self.max_unrolled_insts // max(1, body_size))
        requested = min(requested, budget)
        if requested >= count:
            return count
        while requested > 1 and count % requested != 0:
            requested -= 1
        return requested

    # ------------------------------------------------------------------
    def _unroll(self, func: Function, loop: Loop, factor: int, unbuilt: Unbuilt) -> None:
        count = trip_count(loop)
        assert count is not None and factor >= 2
        full = factor >= count

        header, latch = loop.header, loop.latch
        orig_term = latch.terminator
        assert isinstance(orig_term, Branch) and orig_term.is_conditional
        continue_on_true = orig_term.true_target is header
        orig_cond = orig_term.condition
        exit_block = next(t for t in orig_term.targets() if t not in loop.blocks)

        back_values: dict[Phi, Value] = {}
        preheader_values: dict[Phi, Value] = {}
        for phi in header.phis():
            for value, pred in phi.incoming:
                if pred in loop.blocks:
                    back_values[phi] = value
                else:
                    preheader_values[phi] = value

        ordered = self._loop_rpo(loop)
        body = LoopBody(ordered, unbuilt)

        prev_latch = latch
        # Iteration 0 is the loop body itself.  A full unroll gives its
        # header phis their preheader values, so it folds like a clone:
        # iteration 1 is seeded with its folded values, and so on, so
        # the induction, index and exit-test math of every iteration
        # folds to constants and is never materialized.  The body stays
        # as it is until the clones exist.
        prev_vmap: dict = fold_region(ordered, preheader_values) if full else {}
        first_vmap = prev_vmap
        all_new_blocks: list[BasicBlock] = []
        iterations = count if full else factor

        for k in range(1, iterations):
            seed = {
                phi: prev_vmap.get(back, back) for phi, back in back_values.items()
            }
            new_blocks, prev_vmap, block_map = clone_region(
                func, body, prev_latch, seed, f"u{k}", unbuilt)
            all_new_blocks.extend(new_blocks)
            prev_latch = block_map[latch]

        # Insert clones after the original latch, before rewiring (so
        # live-out fixes see a consistent block list).
        insert_at = func.blocks.index(latch) + 1
        func.blocks[insert_at:insert_at] = all_new_blocks

        # Map each loop value to its final-iteration version for uses
        # outside the loop (phi -> value *during* last iter).
        last_vmap = prev_vmap
        self._fix_live_outs(func, loop, all_new_blocks, prev_latch, last_vmap)
        if full:
            self._replace_terminator(prev_latch, Branch(exit_block), unbuilt)
            self._apply_first_iteration(body, latch, first_vmap, unbuilt)
        else:
            # Last clone's latch becomes the new backedge to the original
            # header, preserving branch orientation.
            cond_clone = last_vmap.get(orig_cond, orig_cond)
            if continue_on_true:
                new_term = Branch(header, cond=cond_clone, if_false=exit_block)
            else:
                new_term = Branch(exit_block, cond=cond_clone, if_false=header)
            new_term.unroll_done = True
            self._replace_terminator(prev_latch, new_term, unbuilt)
            for phi in header.phis():
                for j, (value, pred) in enumerate(phi.incoming):
                    if pred in loop.blocks:
                        mapped = last_vmap.get(back_values[phi], back_values[phi])
                        phi.incoming[j] = (mapped, prev_latch)
                phi.operands = [v for v, __ in phi.incoming]

    @staticmethod
    def _loop_rpo(loop: Loop) -> list[BasicBlock]:
        """Loop blocks in reverse post-order from the header (back edge
        ignored), so cloning never sees a forward reference."""
        in_loop = set(map(id, loop.blocks))
        visited: set[int] = {id(loop.header)}
        postorder: list[BasicBlock] = []

        def dfs(block: BasicBlock) -> None:
            for succ in block.successors():
                if id(succ) in in_loop and id(succ) not in visited:
                    visited.add(id(succ))
                    dfs(succ)
            postorder.append(block)

        dfs(loop.header)
        ordered = list(reversed(postorder))
        # Defensive: include any loop block unreachable from the header
        # without the back edge (should not happen for natural loops).
        for block in loop.blocks:
            if id(block) not in visited:
                ordered.append(block)
        return ordered

    @staticmethod
    def _replace_terminator(block: BasicBlock, new_term: Branch, unbuilt: Unbuilt) -> None:
        old = block.instructions.pop()
        assert old.is_terminator
        ghosts = unbuilt.ghosts
        if old in ghosts:  # the folded instructions before it stay put
            ghosts[new_term] = ghosts[old]
        new_term.parent = block
        block.instructions.append(new_term)

    @staticmethod
    def _apply_first_iteration(body: LoopBody, latch: BasicBlock, vmap: dict,
                               unbuilt: Unbuilt) -> None:
        """Fold the loop body in place as iteration 0 of a full unroll.

        ``vmap`` is `fold_region`'s result for the body: header phis to
        preheader values, folded instructions to their values.  Both
        are dropped and every use in the body takes the mapped value;
        no use is left elsewhere, since the clones were seeded from
        ``vmap`` and the live-outs remapped to the final iteration.  A
        dropped folded instruction joins the ghosts of the next kept
        one (a dropped header phi does not: it never drew a name).
        Only the body's own instructions are visited: the latch lost
        its branch to iteration 1, which was appended after them.
        """
        ghosts = unbuilt.ghosts
        for block in body.blocks:
            own = len(body.instructions[block]) - (block is latch)
            kept = []
            pending = 0
            for inst in block.instructions[:own]:
                if inst in vmap:
                    pending += ghosts.get(inst, 0) + (not isinstance(inst, Phi))
                    inst.parent = None
                    continue
                for operand in inst.operands:
                    if operand in vmap:
                        inst.replace_operand(operand, vmap[operand])
                if pending:
                    ghosts[inst] = ghosts.get(inst, 0) + pending
                    pending = 0
                kept.append(inst)
            rest = block.instructions[own:]
            if pending:
                ghosts[rest[0]] = ghosts.get(rest[0], 0) + pending
            block.instructions = kept + rest

    @staticmethod
    def _fix_live_outs(func, loop, new_blocks, last_latch, final_map) -> None:
        inside = set(map(id, loop.blocks)) | set(map(id, new_blocks))
        for block in func.blocks:
            if id(block) in inside:
                continue
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    for j, (value, pred) in enumerate(inst.incoming):
                        new_pred = (
                            last_latch
                            if pred is loop.latch and pred is not last_latch
                            else pred
                        )
                        # Loop-defined values reaching any outside phi flow
                        # through (or after) the final iteration, so they
                        # always remap to the final clone's version.
                        inst.incoming[j] = (final_map.get(value, value), new_pred)
                    inst.operands = [v for v, __ in inst.incoming]
                else:
                    for operand in list(inst.operands):
                        if operand in final_map:
                            inst.replace_operand(operand, final_map[operand])
