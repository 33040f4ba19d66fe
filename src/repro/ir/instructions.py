"""Concrete instruction classes.

The supported subset covers everything MachSuite-style kernels need:
integer/float arithmetic, comparisons, select, casts, memory access
(load/store/alloca/getelementptr), control flow (br/ret/phi), and calls
to math intrinsics (sqrt, fabs, ...).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    Type,
    I1,
    I64,
    LABEL,
    VOID,
)
from repro.ir.values import Constant, Instruction, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import BasicBlock

# Opcode groups ----------------------------------------------------------
INT_BINOPS = frozenset(
    ["add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
     "and", "or", "xor", "shl", "lshr", "ashr"]
)
FLOAT_BINOPS = frozenset(["fadd", "fsub", "fmul", "fdiv", "frem"])
BINOPS = INT_BINOPS | FLOAT_BINOPS

ICMP_PREDS = frozenset(["eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"])
FCMP_PREDS = frozenset(["oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno", "ueq", "une"])

CAST_OPS = frozenset(
    ["zext", "sext", "trunc", "fptosi", "fptoui", "sitofp", "uitofp",
     "fpext", "fptrunc", "bitcast", "inttoptr", "ptrtoint"]
)

INTRINSICS = frozenset(["sqrt", "fabs", "exp", "log", "sin", "cos", "pow", "fmin", "fmax"])


class BinaryOp(Instruction):
    """Two-operand arithmetic/logic (``add``, ``fmul``, ``shl``, ...)."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in BINOPS:
            raise ValueError(f"unknown binary opcode '{opcode}'")
        if lhs.type != rhs.type:
            raise TypeError(f"{opcode}: operand types differ ({lhs.type} vs {rhs.type})")
        if opcode in FLOAT_BINOPS and not lhs.type.is_float:
            raise TypeError(f"{opcode} requires float operands, got {lhs.type}")
        if opcode in INT_BINOPS and not lhs.type.is_int:
            raise TypeError(f"{opcode} requires integer operands, got {lhs.type}")
        super().__init__(opcode, lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ICmp(Instruction):
    """Integer/pointer comparison producing an ``i1``."""

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if pred not in ICMP_PREDS:
            raise ValueError(f"unknown icmp predicate '{pred}'")
        if lhs.type != rhs.type:
            raise TypeError(f"icmp: operand types differ ({lhs.type} vs {rhs.type})")
        if not (lhs.type.is_int or lhs.type.is_pointer):
            raise TypeError(f"icmp requires int/pointer operands, got {lhs.type}")
        super().__init__("icmp", I1, [lhs, rhs], name)
        self.pred = pred


class FCmp(Instruction):
    """Floating-point comparison producing an ``i1``."""

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if pred not in FCMP_PREDS:
            raise ValueError(f"unknown fcmp predicate '{pred}'")
        if lhs.type != rhs.type or not lhs.type.is_float:
            raise TypeError(f"fcmp requires matching float operands")
        super().__init__("fcmp", I1, [lhs, rhs], name)
        self.pred = pred


class Select(Instruction):
    """``select i1 %c, T %a, T %b`` — a hardware MUX."""

    def __init__(self, cond: Value, true_val: Value, false_val: Value, name: str = "") -> None:
        if cond.type != I1:
            raise TypeError("select condition must be i1")
        if true_val.type != false_val.type:
            raise TypeError("select arm types differ")
        super().__init__("select", true_val.type, [cond, true_val, false_val], name)


class Cast(Instruction):
    """Type conversion (``zext``, ``sitofp``, ``bitcast``, ...)."""

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = "") -> None:
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode '{opcode}'")
        super().__init__(opcode, to_type, [value], name)

    @property
    def src(self) -> Value:
        return self.operands[0]


class Alloca(Instruction):
    """Stack allocation of a local array or scalar."""

    is_memory = True

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        super().__init__("alloca", PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type


class Load(Instruction):
    is_memory = True

    def __init__(self, pointer: Value, name: str = "") -> None:
        if not pointer.type.is_pointer:
            raise TypeError(f"load requires a pointer operand, got {pointer.type}")
        super().__init__("load", pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    is_memory = True

    def __init__(self, value: Value, pointer: Value) -> None:
        if not pointer.type.is_pointer:
            raise TypeError(f"store requires a pointer operand, got {pointer.type}")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: storing {value.type} through {pointer.type}"
            )
        super().__init__("store", VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class GetElementPtr(Instruction):
    """Pointer arithmetic over arrays.

    Supported forms (covering what the mini-C frontend emits):

    * ``gep T* %p, idx``            — element stride of ``T``
    * ``gep [N x T]* %p, 0, idx``   — decay into array then index
    """

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = "") -> None:
        if not pointer.type.is_pointer:
            raise TypeError("gep requires a pointer base")
        result_type = self._result_type(pointer.type, len(indices))
        super().__init__("getelementptr", result_type, [pointer, *indices], name)

    @staticmethod
    def _result_type(ptr_type: PointerType, n_indices: int) -> PointerType:
        current: Type = ptr_type
        for i in range(n_indices):
            if i == 0:
                if not current.is_pointer:
                    raise TypeError("gep walked off a non-pointer")
                current = current.pointee
            else:
                if isinstance(current, ArrayType):
                    current = current.element
                else:
                    raise TypeError(f"gep cannot index into {current}")
        return PointerType(current)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> list[Value]:
        return self.operands[1:]


class BlockRef(Value):
    """A reference to a basic block used as a branch/phi operand."""

    def __init__(self, block: "BasicBlock") -> None:
        super().__init__(LABEL, block.name)
        self.block = block

    @property
    def ref(self) -> str:
        return f"%{self.block.name}"


class Branch(Instruction):
    """Conditional or unconditional branch."""

    is_terminator = True

    def __init__(
        self,
        target: "BasicBlock",
        cond: Optional[Value] = None,
        if_false: Optional["BasicBlock"] = None,
    ) -> None:
        if cond is None:
            super().__init__("br", VOID, [BlockRef(target)])
        else:
            if cond.type != I1:
                raise TypeError("branch condition must be i1")
            if if_false is None:
                raise ValueError("conditional branch needs a false target")
            super().__init__("br", VOID, [cond, BlockRef(target), BlockRef(if_false)])

    @property
    def is_conditional(self) -> bool:
        return len(self.operands) == 3

    @property
    def condition(self) -> Optional[Value]:
        return self.operands[0] if self.is_conditional else None

    def targets(self) -> list["BasicBlock"]:
        refs = self.operands
        if len(refs) == 1:
            return [refs[0].block]
        return [refs[1].block, refs[2].block]

    @property
    def true_target(self) -> "BasicBlock":
        return self.targets()[0]

    @property
    def false_target(self) -> "BasicBlock":
        targets = self.targets()
        return targets[1] if len(targets) > 1 else targets[0]


class Ret(Instruction):
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__("ret", VOID, [] if value is None else [value])

    @property
    def return_value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Phi(Instruction):
    """SSA phi node; incoming pairs of (value, predecessor block)."""

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__("phi", type_, [], name)
        self.incoming: list[tuple[Value, "BasicBlock"]] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(f"phi incoming type {value.type} != {self.type}")
        self.incoming.append((value, block))
        self.operands = [v for v, __ in self.incoming]

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise KeyError(f"phi {self.ref} has no incoming edge from {block.name}")

    def replace_operand(self, old: Value, new: Value) -> int:
        count = 0
        for i, (value, pred) in enumerate(self.incoming):
            if value is old:
                self.incoming[i] = (new, pred)
                count += 1
        self.operands = [v for v, __ in self.incoming]
        return count


class Call(Instruction):
    """Call to a named function or math intrinsic.

    The accelerator model treats intrinsic calls as compute operations
    (e.g. ``sqrt`` maps to an FP-sqrt functional unit); calls to other
    module functions are interpreted functionally.
    """

    def __init__(self, callee: str, return_type: Type, args: Iterable[Value], name: str = "") -> None:
        super().__init__("call", return_type, list(args), name)
        self.callee = callee

    @property
    def is_intrinsic(self) -> bool:
        return self.callee in INTRINSICS


def constant_int(type_: IntType, value: int) -> Constant:
    return Constant(type_, value)


def constant_index(value: int) -> Constant:
    return Constant(I64, value)
