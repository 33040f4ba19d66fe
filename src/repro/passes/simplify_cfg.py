"""CFG simplification.

Three cleanups that matter after unrolling and branch folding:

1. remove unreachable blocks (fixing phis that referenced them);
2. merge a block into its unique predecessor when that predecessor
   branches unconditionally to it and it is the predecessor's only
   successor ("straight-line fusion");
3. fold single-incoming phis into plain values.
"""

from __future__ import annotations

from repro.ir.dominance import reverse_postorder
from repro.ir.instructions import Branch, Phi
from repro.ir.module import BasicBlock, Function
from repro.passes.pass_manager import FunctionPass


class SimplifyCFG(FunctionPass):
    name = "simplify-cfg"

    def run(self, func: Function) -> bool:
        changed = False
        while True:
            round_changed = (
                self._remove_unreachable(func)
                | self._fold_single_incoming_phis(func)
                | self._merge_straight_line(func)
            )
            changed |= round_changed
            if not round_changed:
                return changed

    # ------------------------------------------------------------------
    @staticmethod
    def _remove_unreachable(func: Function) -> bool:
        reachable = set(reverse_postorder(func))
        dead = [b for b in func.blocks if b not in reachable]
        if not dead:
            return False
        dead_ids = set(map(id, dead))
        for block in func.blocks:
            if id(block) in dead_ids:
                continue
            for phi in block.phis():
                phi.incoming = [
                    (v, p) for v, p in phi.incoming if id(p) not in dead_ids
                ]
                phi.operands = [v for v, __ in phi.incoming]
        for block in dead:
            func.remove_block(block)
        return True

    @staticmethod
    def _fold_single_incoming_phis(func: Function) -> bool:
        changed = False
        for block in func.blocks:
            for phi in list(block.phis()):
                if len(phi.incoming) != 1:
                    continue
                value = phi.incoming[0][0]
                for other_block in func.blocks:
                    for inst in other_block.instructions:
                        if inst is not phi:
                            inst.replace_operand(phi, value)
                block.remove(phi)
                changed = True
        return changed

    @staticmethod
    def _merge_straight_line(func: Function) -> bool:
        changed = False
        pred_map = func.predecessor_map()
        merged: set[int] = set()
        for block in list(func.blocks):
            if id(block) in merged:
                continue
            term = block.terminator
            if not isinstance(term, Branch) or term.is_conditional:
                continue
            succ = term.true_target
            if succ is block or succ is func.entry:
                continue
            if len(pred_map.get(succ, ())) != 1:
                continue
            merged.add(id(succ))
            if succ.phis():
                continue
            # Splice successor's instructions into this block.
            block.instructions.pop()  # drop the br
            for inst in succ.instructions:
                inst.parent = block
                block.instructions.append(inst)
            succ.instructions = []
            # Phis in the successor's successors referenced `succ` as a
            # predecessor; they now see `block`.
            new_term = block.terminator
            if isinstance(new_term, Branch):
                for target in new_term.targets():
                    for phi in target.phis():
                        phi.incoming = [
                            (v, block if p is succ else p) for v, p in phi.incoming
                        ]
            func.remove_block(succ)
            changed = True
        return changed
