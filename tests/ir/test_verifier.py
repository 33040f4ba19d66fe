"""Verifier: each structural violation must be caught."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.instructions import BinaryOp, Branch, Phi, Ret
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import I1, I32, VOID
from repro.ir.values import Constant
from repro.ir.verifier import VerifierError, verify_function, verify_module


def _ok_function():
    f = Function("f", I32, [(I32, "x")])
    entry = f.add_block("entry")
    b = IRBuilder(entry)
    v = b.add(f.args[0], b.const(I32, 1))
    b.ret(v)
    return f


def test_valid_function_passes():
    verify_function(_ok_function())


def test_empty_function_rejected():
    with pytest.raises(VerifierError):
        verify_function(Function("f"))


def test_empty_block_rejected():
    f = Function("f")
    f.add_block("entry")
    with pytest.raises(VerifierError, match="empty block"):
        verify_function(f)


def test_missing_terminator():
    f = Function("f")
    block = f.add_block("entry")
    b = IRBuilder(block)
    b.add(b.const(I32, 1), b.const(I32, 2))
    with pytest.raises(VerifierError, match="terminator"):
        verify_function(f)


def test_mid_block_terminator():
    f = Function("f")
    block = f.add_block("entry")
    ret1, ret2 = Ret(), Ret()
    for inst in (ret1, ret2):
        inst.parent = block
        block.instructions.append(inst)
    with pytest.raises(VerifierError, match="middle"):
        verify_function(f)


def test_ret_type_mismatch():
    f = Function("f", I32, [])
    block = f.add_block("entry")
    b = IRBuilder(block)
    b.ret()  # void return from i32 function
    with pytest.raises(VerifierError, match="ret"):
        verify_function(f)


def test_duplicate_block_names():
    f = Function("f")
    b1 = f.add_block("x")
    b2 = f.add_block("x")
    builder = IRBuilder(b1)
    builder.ret()
    builder.position_at_end(b2)
    builder.ret()
    with pytest.raises(VerifierError, match="duplicate block"):
        verify_function(f)


def test_duplicate_ssa_names():
    f = Function("f")
    block = f.add_block("entry")
    b = IRBuilder(block)
    b.add(b.const(I32, 1), b.const(I32, 2), name="a")
    b.add(b.const(I32, 3), b.const(I32, 4), name="a")
    b.ret()
    with pytest.raises(VerifierError, match="duplicate SSA"):
        verify_function(f)


def test_use_before_definition_same_block():
    f = Function("f")
    block = f.add_block("entry")
    late = BinaryOp("add", Constant(I32, 1), Constant(I32, 2))
    late.name = "late"
    early = BinaryOp("add", late, Constant(I32, 3))
    early.name = "early"
    for inst in (early, late):
        inst.parent = block
        block.instructions.append(inst)
    ret = Ret()
    ret.parent = block
    block.instructions.append(ret)
    with pytest.raises(VerifierError, match="before definition"):
        verify_function(f)


def test_definition_must_dominate_use():
    f = Function("f")
    entry, left, right, merge = (
        f.add_block("entry"), f.add_block("left"),
        f.add_block("right"), f.add_block("merge"),
    )
    b = IRBuilder(entry)
    b.cbr(Constant(I1, 1), left, right)
    b.position_at_end(left)
    v = b.add(b.const(I32, 1), b.const(I32, 2))
    b.br(merge)
    b.position_at_end(right)
    b.br(merge)
    b.position_at_end(merge)
    b.add(v, b.const(I32, 1))  # v does not dominate merge
    b.ret()
    with pytest.raises(VerifierError, match="dominate"):
        verify_function(f)


def test_phi_incoming_must_match_preds():
    f = Function("f")
    entry, loop = f.add_block("entry"), f.add_block("loop")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    phi = b.phi(I32)
    phi.add_incoming(Constant(I32, 0), entry)  # missing the back edge
    b.br(loop)
    with pytest.raises(VerifierError, match="phi"):
        verify_function(f)


def test_phi_after_non_phi_rejected():
    f = Function("f")
    entry, loop = f.add_block("entry"), f.add_block("loop")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    v = b.add(b.const(I32, 1), b.const(I32, 2))
    phi = Phi(I32)
    phi.name = "p"
    phi.add_incoming(Constant(I32, 0), entry)
    phi.add_incoming(v, loop)
    phi.parent = loop
    loop.instructions.append(phi)
    loop.instructions.append(Branch(loop))
    loop.instructions[-1].parent = loop
    with pytest.raises(VerifierError, match="phi after non-phi"):
        verify_function(f)


def test_call_to_unknown_function():
    m = Module("m")
    f = Function("f", VOID, [])
    m.add_function(f)
    block = f.add_block("entry")
    b = IRBuilder(block)
    b.call("missing", VOID, [])
    b.ret()
    with pytest.raises(VerifierError, match="unknown function"):
        verify_module(m)


def test_call_arity_checked():
    m = Module("m")
    callee = Function("g", I32, [(I32, "x")])
    m.add_function(callee)
    cb = IRBuilder(callee.add_block("entry"))
    cb.ret(callee.args[0])
    f = Function("f", VOID, [])
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.call("g", I32, [])
    b.ret()
    with pytest.raises(VerifierError, match="arity"):
        verify_module(m)


def _module_with_callee():
    m = Module("m")
    callee = Function("g", I32, [(I32, "x")])
    m.add_function(callee)
    cb = IRBuilder(callee.add_block("entry"))
    cb.ret(callee.args[0])
    return m, callee


def test_call_argument_type_checked():
    m, _ = _module_with_callee()
    f = Function("f", VOID, [(I1, "c")])
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.call("g", I32, [f.args[0]])  # i1 where i32 expected
    b.ret()
    with pytest.raises(VerifierError, match="argument 0"):
        verify_module(m)


def test_call_return_type_checked():
    m, _ = _module_with_callee()
    f = Function("f", VOID, [(I32, "x")])
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.call("g", I1, [f.args[0]])  # callee returns i32, call typed i1
    b.ret()
    with pytest.raises(VerifierError, match="returns"):
        verify_module(m)


def test_phi_in_entry_block_rejected():
    f = Function("f", I32, [(I32, "x")])
    entry = f.add_block("entry")
    phi = Phi(I32)
    phi.name = "p"
    phi.parent = entry
    entry.instructions.append(phi)
    b = IRBuilder(entry)
    b.ret(f.args[0])
    with pytest.raises(VerifierError, match="entry"):
        verify_function(f)


def test_non_i1_branch_condition_rejected():
    f = Function("f", VOID, [(I32, "x")])
    entry, a, z = f.add_block("entry"), f.add_block("a"), f.add_block("z")
    b = IRBuilder(entry)
    br = b.cbr(Constant(I1, 1), a, z)
    br.operands[0] = f.args[0]  # smuggle an i32 condition past the builder
    b.position_at_end(a)
    b.ret()
    b.position_at_end(z)
    b.ret()
    with pytest.raises(VerifierError, match="i1"):
        verify_function(f)


@pytest.mark.parametrize("same_name", [False, True])
def test_branch_to_foreign_block_rejected(same_name):
    # The target belongs to another function; with ``same_name`` it even
    # shares its name with a block of this one, so only identity tells.
    other = Function("g")
    foreign = other.add_block("exit" if same_name else "elsewhere")
    IRBuilder(foreign).ret()
    f = Function("f")
    entry, exit_ = f.add_block("entry"), f.add_block("exit")
    b = IRBuilder(entry)
    b.cbr(Constant(I1, 1), exit_, foreign)
    b.position_at_end(exit_)
    b.ret()
    with pytest.raises(VerifierError, match="foreign block"):
        verify_function(f)
