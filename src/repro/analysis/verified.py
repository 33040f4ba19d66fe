"""Verified pass pipelines: golden-interpreter differential checking.

`PassManager(verify=True)` already re-verifies structural SSA invariants
after each changed pass, but a pass can be structurally valid and still
*wrong* — folding to the wrong constant, unrolling one iteration short.
`VerifiedPassManager` closes that hole: before any pass runs it executes
the function on the golden interpreter with deterministic synthesized
inputs, then re-executes after **every** pass (changed or not — a pass
that lies about its changed flag is exactly the bug class this catches)
and compares the return value and every argument buffer byte-for-byte.
The first divergence raises :class:`PassDivergenceError` naming the
offending pass.

Input synthesis is derived once from the *pre-pass* function (buffer
sizes keyed off the largest integer constant in the body, so loop
bounds and GEP offsets stay in range) and reused for every subsequent
run — both sides of each differential always see identical bytes.

Opt in via ``PipelineSpec(verify_each=True)``, ``build_module(...,
verify_each=True)``, or CLI ``--verify-each``; it is deliberately not
part of the artifact cache key, since a verified build produces the
same module as an unverified one (or no module at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.interpreter import Interpreter, InterpreterError
from repro.ir.memory import MemoryError_, MemoryImage
from repro.ir.module import Function, Module
from repro.ir.types import ArrayType, FloatType, IntType, PointerType
from repro.ir.values import Constant
from repro.ir.verifier import verify_function
from repro.passes.pass_manager import FunctionPass, PassManager

#: Interpreter budget per reference run; kernels that exceed it are
#: treated as not-differentially-checkable (structural verify still runs).
MAX_REFERENCE_INSTRUCTIONS = 5_000_000

#: Synthesized buffer sizing (in elements of the pointee type).
MIN_BUFFER_ELEMS = 64
MAX_BUFFER_ELEMS = 1 << 15


class PassDivergenceError(RuntimeError):
    """A pass changed the observable behaviour of a function."""

    def __init__(self, pass_name: str, func_name: str, detail: str) -> None:
        super().__init__(
            f"pass '{pass_name}' diverged on function '{func_name}': {detail}"
        )
        self.pass_name = pass_name
        self.func_name = func_name
        self.detail = detail


@dataclass(frozen=True)
class _ArgPlan:
    """How to synthesize one argument: a buffer or a scalar."""

    buffer_bytes: Optional[int]  # None -> scalar
    elem_is_float: bool
    elem_bytes: int
    scalar_value: object = None


def _max_int_constant(func: Function) -> int:
    """Largest (signed) integer constant in the body — a proxy for the
    largest loop bound / index the kernel can reach."""
    largest = 0
    for inst in func.instructions():
        for op in inst.operands:
            if isinstance(op, Constant) and isinstance(op.type, IntType):
                largest = max(largest, abs(op.signed_value()))
    return largest


def plan_inputs(func: Function) -> list[_ArgPlan]:
    """Derive the deterministic input plan from the pre-pass function."""
    elems = min(max(_max_int_constant(func) + MIN_BUFFER_ELEMS,
                    MIN_BUFFER_ELEMS), MAX_BUFFER_ELEMS)
    plans: list[_ArgPlan] = []
    for arg in func.args:
        if isinstance(arg.type, PointerType):
            pointee = arg.type.pointee
            if isinstance(pointee, ArrayType):
                count = max(1, pointee.count)
                elem = pointee.element
                nbytes = elem.size_bytes() * count
            else:
                elem = pointee
                nbytes = elem.size_bytes() * elems
            plans.append(_ArgPlan(
                buffer_bytes=nbytes,
                elem_is_float=elem.is_float,
                elem_bytes=elem.size_bytes(),
            ))
        elif isinstance(arg.type, FloatType):
            plans.append(_ArgPlan(None, True, arg.type.size_bytes(), 1.5))
        else:
            # Small non-zero int: safe as a count, an index, or a divisor.
            plans.append(_ArgPlan(None, False, arg.type.size_bytes(), 4))
    return plans


def _fill_pattern(plan: _ArgPlan, index: int):
    if plan.elem_is_float:
        return ((index * 37) % 101) / 16.0 + 0.5
    return (index % 7) + 1


@dataclass
class _Outcome:
    return_value: object
    buffers: tuple[bytes, ...]


def _execute(module: Module, func_name: str, plans: list[_ArgPlan]) -> _Outcome:
    memory = MemoryImage(1 << 22, base=0x10000, name="verify")
    # Guard page below the first buffer: kernels that index a[i-1] on
    # the first iteration read (deterministic) slack instead of faulting.
    memory.alloc(4096)
    args: list = []
    buffer_addrs: list[tuple[int, int]] = []
    for plan in plans:
        if plan.buffer_bytes is None:
            args.append(plan.scalar_value)
            continue
        addr = memory.alloc(plan.buffer_bytes)
        elem_type = (FloatType(plan.elem_bytes * 8) if plan.elem_is_float
                     else IntType(plan.elem_bytes * 8))
        for i in range(plan.buffer_bytes // plan.elem_bytes):
            memory.write_value(addr + i * plan.elem_bytes,
                               _fill_pattern(plan, i), elem_type)
        args.append(addr)
        buffer_addrs.append((addr, plan.buffer_bytes))
    result = Interpreter(
        module, memory, max_instructions=MAX_REFERENCE_INSTRUCTIONS
    ).run(func_name, args)
    return _Outcome(
        return_value=result.return_value,
        buffers=tuple(memory.read(addr, size) for addr, size in buffer_addrs),
    )


def _compare(golden: _Outcome, candidate: _Outcome) -> Optional[str]:
    if golden.return_value != candidate.return_value:
        return (f"return value changed: {golden.return_value!r} -> "
                f"{candidate.return_value!r}")
    for i, (want, got) in enumerate(zip(golden.buffers, candidate.buffers)):
        if want != got:
            byte = next(j for j, (a, b) in enumerate(zip(want, got)) if a != b)
            return (f"pointer argument #{i} buffer differs "
                    f"(first at byte {byte} of {len(want)})")
    return None


def differential_check(
    before: Module,
    after: Module,
    func_name: str,
    plans: Optional[list[_ArgPlan]] = None,
) -> Optional[str]:
    """Execute both modules on identical inputs; describe any divergence.

    Returns None when the observable behaviour (return value + every
    argument buffer) matches, or a human-readable detail string.  Raises
    `InterpreterError` if the *before* module itself is not executable.
    """
    if plans is None:
        plans = plan_inputs(before.get_function(func_name))
    golden = _execute(before, func_name, plans)
    candidate = _execute(after, func_name, plans)
    return _compare(golden, candidate)


class VerifiedPassManager(PassManager):
    """A `PassManager` that differentially verifies after every pass.

    Drop-in replacement: `PipelineSpec.to_pass_manager` returns one when
    the spec has ``verify_each=True``.  It adds a golden run before the
    base class's pass loop (and its per-pass timing spans) and overrides
    only the check after each pass.
    """

    def __init__(self, passes: list[FunctionPass], verify: bool = True,
                 module: Optional[Module] = None) -> None:
        super().__init__(passes, verify=verify)
        self.module = module
        #: func names whose golden run failed (not differentially checked).
        self.unchecked: list[str] = []
        self._plans: list[_ArgPlan] = []
        self._golden: Optional[_Outcome] = None

    def run_function(self, func: Function) -> bool:
        module = self.module or func.parent
        self._plans = plan_inputs(func)
        self._golden = None
        if module is not None:
            try:
                self._golden = _execute(module, func.name, self._plans)
            except (InterpreterError, MemoryError_):
                # Not executable under the synthesized inputs (e.g. data-
                # dependent loop blowing the budget, or accesses outside
                # the synthesized buffers): structural checks only.
                self.unchecked.append(func.name)
        return super().run_function(func)

    def _after_pass(self, func: Function, pass_: FunctionPass,
                    changed: bool) -> None:
        module = self.module or func.parent
        # Verify after *every* pass: a pass that corrupts the IR while
        # reporting changed=False is precisely what we're hunting.
        if self.verify:
            verify_function(func, module)
        if self._golden is None:
            return
        try:
            candidate = _execute(module, func.name, self._plans)
        except (InterpreterError, MemoryError_) as exc:
            raise PassDivergenceError(
                pass_.name, func.name,
                f"function no longer executes: {exc}") from exc
        detail = _compare(self._golden, candidate)
        if detail is not None:
            raise PassDivergenceError(pass_.name, func.name, detail)
