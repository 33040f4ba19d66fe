"""Dominator analysis (Cooper-Harvey-Kennedy algorithm).

Used by the verifier (SSA dominance checks), mem2reg (phi placement via
dominance frontiers), and loop analysis (back-edge detection).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.module import BasicBlock, Function


def reverse_postorder(func: Function) -> list[BasicBlock]:
    """The blocks reachable from the entry, in reverse post-order."""
    entry = func.entry
    visited = {id(entry)}
    postorder: list[BasicBlock] = []
    stack = [(entry, iter(entry.successors()))]
    while stack:
        node, succs = stack[-1]
        for succ in succs:
            if id(succ) not in visited:
                visited.add(id(succ))
                stack.append((succ, iter(succ.successors())))
                break
        else:
            postorder.append(node)
            stack.pop()
    postorder.reverse()
    return postorder


class DominatorTree:
    """Immediate dominators of a function's reachable blocks.

    ``idom`` maps every reachable block to its immediate dominator (the
    entry to None), in reverse post-order.  The tree is numbered once,
    in DFS order, so `dominates` and `strictly_dominates` are O(1)
    interval tests and `children` is a lookup, not a walk of the idom
    chain or a scan of ``idom``.  An unreachable block dominates only
    itself and is dominated only by itself.
    """

    def __init__(self, func: Function, preds: Optional[dict] = None) -> None:
        """``preds`` is ``func.predecessor_map()``, if the caller has it."""
        self.func = func
        self.rpo: list[BasicBlock] = []
        self.idom: dict[BasicBlock, Optional[BasicBlock]] = {}
        self._order: dict[BasicBlock, int] = {}
        self._preds = func.predecessor_map() if preds is None else preds
        self._compute()
        self._number()

    # ------------------------------------------------------------------
    def _compute(self) -> None:
        entry = self.func.entry
        self.rpo = reverse_postorder(self.func)
        self._order = {b: i for i, b in enumerate(self.rpo)}

        idom: dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                preds = [p for p in self._preds[block] if p in idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom, idom)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        idom[entry] = None
        self.idom = idom

    def _number(self) -> None:
        """Children lists (in ``idom`` order) and a DFS numbering of the
        tree: ``_pre[b]`` is b's preorder number and ``_last[b]`` the
        largest preorder number in b's subtree."""
        children: dict[Optional[BasicBlock], list[BasicBlock]] = {}
        for block, parent in self.idom.items():
            children.setdefault(parent, []).append(block)
        self._children = children
        self._pre: dict[BasicBlock, int] = {}
        self._last: dict[BasicBlock, int] = {}
        stack: list[tuple[BasicBlock, bool]] = [(self.func.entry, False)]
        while stack:
            block, finished = stack.pop()
            if finished:
                self._last[block] = len(self._pre) - 1
                continue
            self._pre[block] = len(self._pre)
            stack.append((block, True))
            stack.extend((child, False)
                         for child in reversed(children.get(block, ())))

    def _intersect(self, b1: BasicBlock, b2: BasicBlock, idom) -> BasicBlock:
        while b1 is not b2:
            while self._order[b1] > self._order[b2]:
                b1 = idom[b1]
            while self._order[b2] > self._order[b1]:
                b2 = idom[b2]
        return b1

    # ------------------------------------------------------------------
    def is_reachable(self, block: BasicBlock) -> bool:
        return block in self._order

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        pre_b = self._pre.get(b)
        if pre_b is None:  # unreachable
            return a is b
        pre_a = self._pre.get(a)
        return pre_a is not None and pre_a <= pre_b <= self._last[a]

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def children(self, block: BasicBlock) -> list[BasicBlock]:
        """Blocks ``block`` immediately dominates, in reverse post-order."""
        return list(self._children.get(block, ()))

    def dominance_frontier(self) -> dict[BasicBlock, set[BasicBlock]]:
        """Cytron et al. dominance frontiers for all reachable blocks."""
        frontier: dict[BasicBlock, set[BasicBlock]] = {b: set() for b in self.rpo}
        for block in self.rpo:
            preds = [p for p in self._preds[block] if self.is_reachable(p)]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom[block]:
                    frontier[runner].add(block)
                    runner = self.idom.get(runner)
        return frontier
