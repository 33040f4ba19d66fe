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
from repro.ir.values import Value
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
        """Replace every single-incoming phi by its value, in one scan."""
        values: dict[Phi, Value] = {}
        for block in func.blocks:
            phis = [i for i in block.instructions
                    if isinstance(i, Phi) and len(i.incoming) == 1]
            for phi in phis:
                values[phi] = phi.incoming[0][0]
                block.remove(phi)
        if not values:
            return False

        def resolve(value: Value) -> Value:
            # A phi's value may itself be a folded phi.
            while value in values and values[value] is not value:
                value = values[value]
            return value

        for inst in func.instructions():
            for operand in inst.operands:
                if operand in values:
                    inst.replace_operand(operand, resolve(operand))
        return True

    @staticmethod
    def _merge_straight_line(func: Function) -> bool:
        """Merge every block into its predecessor along each straight-line
        chain, a whole chain per call.

        A block is absorbed when its predecessor branches unconditionally
        to it, it is that predecessor's only way out, it has no other
        predecessor and no phis, and it is not the entry.
        """
        changed = False
        pred_map = func.predecessor_map()
        for block in list(func.blocks):
            if block.parent is None:  # absorbed earlier in this scan
                continue
            while True:
                term = block.terminator
                if not isinstance(term, Branch) or term.is_conditional:
                    break
                succ = term.true_target
                if succ is block or succ is func.entry:
                    break
                if len(pred_map.get(succ, ())) != 1 or succ.phis():
                    break
                # Splice successor's instructions into this block.
                block.instructions.pop()  # drop the br
                for inst in succ.instructions:
                    inst.parent = block
                block.instructions.extend(succ.instructions)
                succ.instructions = []
                # Phis in the successor's successors referenced `succ` as a
                # predecessor; they now see `block`.
                for target in block.successors():
                    pred_map[target] = [block if p is succ else p
                                        for p in pred_map[target]]
                    for phi in target.phis():
                        phi.incoming = [
                            (v, block if p is succ else p) for v, p in phi.incoming
                        ]
                succ.parent = None
                changed = True
        if changed:
            func.blocks = [b for b in func.blocks if b.parent is not None]
        return changed
