"""Loop unrolling: semantics preservation and structure."""

import numpy as np
import pytest

from repro.frontend import compile_c
from repro.ir.interpreter import Interpreter
from repro.ir.memory import MemoryImage
from repro.ir.verifier import verify_module
from repro.passes.constfold import fold_instruction
from repro.passes.loop_analysis import find_loops
from repro.workloads import get_workload

SRC_ACCUM = """
int accum(int a[32]) {
  int s = 0;
  for (int i = 0; i < 32; i++) { s += a[i] * 3; }
  return s;
}
"""

SRC_NESTED = """
void mm(double a[16], double b[16], double c[16]) {
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 4; j++) {
      double s = 0;
      for (int k = 0; k < 4; k++) { s += a[i * 4 + k] * b[k * 4 + j]; }
      c[i * 4 + j] = s;
    }
  }
}
"""


def _run_accum(module, data):
    mem = MemoryImage(1 << 14, base=0x100)
    addr = mem.alloc_array(data)
    return Interpreter(module, mem).run("accum", [addr]).return_value


def _run_mm(module, a, b):
    mem = MemoryImage(1 << 14, base=0x100)
    pa, pb = mem.alloc_array(a), mem.alloc_array(b)
    pc = mem.alloc(16 * 8)
    Interpreter(module, mem).run("mm", [pa, pb, pc])
    return mem.read_array(pc, np.float64, 16)


@pytest.mark.parametrize("factor", [1, 2, 4, 8, 16, 32, 64])
def test_accum_semantics_across_factors(factor, rng):
    data = rng.integers(-100, 100, 32).astype(np.int32)
    reference = compile_c(SRC_ACCUM, unroll_factor=1)
    unrolled = compile_c(SRC_ACCUM, unroll_factor=factor)
    verify_module(unrolled)
    assert _run_accum(unrolled, data) == _run_accum(reference, data)


@pytest.mark.parametrize("factor", [1, 2, 4, 16])
def test_nested_loops_semantics(factor, rng):
    a = rng.uniform(-1, 1, 16)
    b = rng.uniform(-1, 1, 16)
    reference = _run_mm(compile_c(SRC_NESTED), a, b)
    unrolled = _run_mm(compile_c(SRC_NESTED, unroll_factor=factor), a, b)
    assert np.allclose(reference, unrolled)


def test_full_unroll_eliminates_loop():
    module = compile_c(SRC_ACCUM, unroll_factor=32)
    assert find_loops(module.get_function("accum")) == []


def test_partial_unroll_keeps_one_loop():
    module = compile_c(SRC_ACCUM, unroll_factor=4)
    loops = find_loops(module.get_function("accum"))
    assert len(loops) == 1


def test_partial_unroll_grows_body():
    base = compile_c(SRC_ACCUM).get_function("accum").instruction_count()
    unrolled = compile_c(SRC_ACCUM, unroll_factor=4).get_function("accum").instruction_count()
    assert unrolled > 2 * base


def test_pragma_full_unroll():
    src = """
    int f(int a[8]) {
      int s = 0;
      #pragma unroll
      for (int i = 0; i < 8; i++) { s += a[i]; }
      return s;
    }
    """
    module = compile_c(src)
    assert find_loops(module.get_function("f")) == []


def test_pragma_factor():
    src = """
    int f(int a[8]) {
      int s = 0;
      #pragma unroll 2
      for (int i = 0; i < 8; i++) { s += a[i]; }
      return s;
    }
    """
    module = compile_c(src)
    loops = find_loops(module.get_function("f"))
    assert len(loops) == 1
    data = np.arange(8, dtype=np.int32)
    mem = MemoryImage(1 << 12, base=0x100)
    addr = mem.alloc_array(data)
    assert Interpreter(module, mem).run("f", [addr]).return_value == 28


def test_factor_clamped_to_divisor(rng):
    src = """
    int f(int a[10]) {
      int s = 0;
      for (int i = 0; i < 10; i++) { s += a[i]; }
      return s;
    }
    """
    # 10 % 4 != 0 -> the pass must clamp to 2 (or skip), never miscompute.
    module = compile_c(src, unroll_factor=4)
    data = rng.integers(0, 50, 10).astype(np.int32)
    mem = MemoryImage(1 << 12, base=0x100)
    addr = mem.alloc_array(data)
    assert Interpreter(module, mem).run("f", [addr]).return_value == int(data.sum())


def test_data_dependent_loop_not_unrolled(rng):
    src = """
    int f(int a[16], int n) {
      int s = 0;
      for (int i = 0; i < n; i++) { s += a[i]; }
      return s;
    }
    """
    module = compile_c(src, unroll_factor=8)
    assert len(find_loops(module.get_function("f"))) == 1
    data = rng.integers(0, 9, 16).astype(np.int32)
    mem = MemoryImage(1 << 12, base=0x100)
    addr = mem.alloc_array(data)
    assert (
        Interpreter(module, mem).run("f", [addr, 7]).return_value
        == int(data[:7].sum())
    )


def test_live_out_values_correct_after_full_unroll():
    src = """
    int f() {
      int i;
      int s = 0;
      for (i = 0; i < 5; i++) { s += i; }
      return i * 100 + s;
    }
    """
    module = compile_c(src, unroll_factor=16)
    mem = MemoryImage(1 << 12)
    assert Interpreter(module, mem).run("f", []).return_value == 510


@pytest.mark.parametrize("factor", [1, 2, 4, 16])
def test_loop_with_break_is_left_rolled(factor):
    # Only a loop whose latch is its sole exit unrolls: a break in an
    # earlier iteration would otherwise leave with the last one's values.
    src = """
    int f(int a[16]) {
      int found = -1;
      for (int i = 0; i < 16; i++) {
        if (a[i] == 7) { found = i; break; }
      }
      return found;
    }
    """
    module = compile_c(src, unroll_factor=factor)
    assert len(find_loops(module.get_function("f"))) == 1
    for pos in (3, 15):
        data = np.zeros(16, dtype=np.int32)
        data[pos] = 7
        mem = MemoryImage(1 << 12, base=0x100)
        addr = mem.alloc_array(data)
        assert Interpreter(module, mem).run("f", [addr]).return_value == pos


def test_full_unroll_builds_gemm_dse_at_its_final_size():
    """Unrolling folds and fuses as it clones, not afterwards.

    Cloning every iteration and folding later built 8,874 instructions
    in 1,242 blocks here; constant folding and CFG simplification then
    cut that to 3,201 in one block.
    """
    module = get_workload("gemm_dse").build(
        pipeline="inline,mem2reg,constfold,dce,unroll:8").module
    func = module.get_function("gemm_dse")
    assert (func.instruction_count(), len(func.blocks)) == (3210, 10)
    assert find_loops(func) == []
    # No iteration holds an instruction the shared fold rule folds...
    assert [i for i in func.instructions() if fold_instruction(i) is not None] == []
    # ...and names were drawn as if every clone had been built.
    assert func.unique_name() == "t8863"
