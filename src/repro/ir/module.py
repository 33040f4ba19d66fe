"""Module / Function / BasicBlock containers."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ir.instructions import Branch, Phi
from repro.ir.types import Type, VOID
from repro.ir.values import Argument, Instruction


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None) -> None:
        self.name = name
        self.parent = parent
        self.instructions: list[Instruction] = []

    # -- structure -------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"block '{self.name}' already has a terminator")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def phis(self) -> list[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def non_phi_instructions(self) -> list[Instruction]:
        return [i for i in self.instructions if not isinstance(i, Phi)]

    # -- CFG -------------------------------------------------------------
    def successors(self) -> list["BasicBlock"]:
        term = self.instructions[-1] if self.instructions else None
        if isinstance(term, Branch):
            targets = term.targets()
            # Deduplicate (a conditional branch may target one block twice).
            if len(targets) == 2 and targets[0] is targets[1]:
                del targets[1]
            return targets
        return []

    def predecessors(self) -> list["BasicBlock"]:
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors()]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function:
    """A function: typed arguments plus an ordered list of basic blocks."""

    def __init__(self, name: str, return_type: Type = VOID, arg_specs: Optional[list[tuple[Type, str]]] = None) -> None:
        self.name = name
        self.return_type = return_type
        self.args: list[Argument] = [
            Argument(t, n, i) for i, (t, n) in enumerate(arg_specs or [])
        ]
        self.blocks: list[BasicBlock] = []
        self.parent: Optional["Module"] = None
        self._name_counter = 0

    # -- structure -------------------------------------------------------
    def add_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(name or self.unique_name("bb"), self)
        self.blocks.append(block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function '{self.name}' has no blocks")
        return self.blocks[0]

    def block_named(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"no block named '{name}' in function '{self.name}'")

    def arg_named(self, name: str) -> Argument:
        for arg in self.args:
            if arg.name == name:
                return arg
        raise KeyError(f"no argument named '{name}' in function '{self.name}'")

    def unique_name(self, prefix: str = "t") -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def skip_names(self, count: int) -> None:
        """Consume the next ``count`` `unique_name` numbers without naming
        anything, so values a pass decides not to create leave later
        names as they would have been."""
        self._name_counter += count

    def predecessor_map(self) -> dict:
        """block -> list of predecessor blocks, computed in one O(B+E) scan.

        Analyses over large (e.g. fully unrolled) functions must use
        this instead of per-block ``predecessors()`` calls, which are
        O(B) each.
        """
        preds: dict = {block: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                if succ in preds:
                    preds[succ].append(block)
        return preds

    # -- traversal --------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A compilation unit holding named functions."""

    #: SHA-256 of the printed IR, recorded by the build pipeline's
    #: optimize stage and returned by
    #: `repro.build.artifact.module_fingerprint`; `PassManager.run`
    #: clears it.  Pickles with the module.
    fingerprint: Optional[str] = None

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function '{func.name}'")
        func.parent = self
        self.functions[func.name] = func
        return func

    def get_function(self, name: str) -> Function:
        if name not in self.functions:
            raise KeyError(f"no function '{name}' in module '{self.name}'")
        return self.functions[name]

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Module {self.name} ({len(self.functions)} functions)>"
