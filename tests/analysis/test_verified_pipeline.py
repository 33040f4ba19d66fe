"""Verified pass pipelines: the broken pass must be named."""

import pytest

from repro.analysis.verified import (
    PassDivergenceError,
    VerifiedPassManager,
    differential_check,
    plan_inputs,
)
from repro.build import build_module
from repro.build.artifact import artifact_key
from repro.build.pipeline import resolve_spec
from repro.frontend import compile_c
from repro.ir.instructions import BinaryOp
from repro.passes.constfold import ConstantFold
from repro.passes.dce import DeadCodeElimination
from repro.passes.mem2reg import Mem2Reg
from repro.passes.pass_manager import FunctionPass
from repro.passes.pipeline import PipelineSpec
from repro.workloads import get_workload

SRC = """
void saxpy(double a[16], double b[16], double c[16]) {
  for (int i = 0; i < 16; i++) { c[i] = a[i] + 2.0 * b[i]; }
}
"""


class _EvilFold(FunctionPass):
    """Rewrites the first `fadd` into an `fsub` — and lies about changing."""

    name = "evilfold"

    def run(self, func):
        for inst in func.instructions():
            if isinstance(inst, BinaryOp) and inst.opcode == "fadd":
                inst.opcode = "fsub"
                return False  # structural checks alone would miss this
        return False


def test_clean_pipeline_passes():
    module = compile_c(SRC, "m")
    manager = VerifiedPassManager(
        [Mem2Reg(), ConstantFold(), DeadCodeElimination()], module=module)
    manager.run(module)
    assert not manager.unchecked
    assert manager.timings  # per-pass timings recorded


def test_broken_pass_pinpointed():
    module = compile_c(SRC, "m")
    manager = VerifiedPassManager(
        [Mem2Reg(), _EvilFold(), DeadCodeElimination()], module=module)
    with pytest.raises(PassDivergenceError) as exc_info:
        manager.run(module)
    err = exc_info.value
    assert err.pass_name == "evilfold"
    assert err.func_name == "saxpy"
    assert "buffer differs" in err.detail or "return value" in err.detail


def test_unverified_manager_misses_the_miscompile():
    """The control: without differential checks the bug sails through."""
    module = compile_c(SRC, "m")
    spec = PipelineSpec.parse("mem2reg,dce")
    manager = spec.to_pass_manager(module=module)
    manager.add(_EvilFold())
    manager.run(module)  # structurally valid IR, silently wrong


def test_differential_check_on_identical_modules():
    before = compile_c(SRC, "m")
    after = compile_c(SRC, "m")
    assert differential_check(before, after, "saxpy") is None


def test_differential_check_detects_divergence():
    before = compile_c(SRC, "m")
    after = compile_c(SRC, "m")
    _EvilFold().run(after.get_function("saxpy"))
    detail = differential_check(before, after, "saxpy")
    assert detail is not None


def test_plan_inputs_deterministic():
    func = compile_c(SRC, "m").get_function("saxpy")
    assert plan_inputs(func) == plan_inputs(func)


def test_verify_each_excluded_from_cache_key():
    spec = PipelineSpec.parse("o1")
    verified = spec.with_verify_each()
    assert verified.verify_each
    assert spec == verified  # mode is not identity
    assert spec.canonical() == verified.canonical()
    assert (artifact_key(SRC, "m", spec)
            == artifact_key(SRC, "m", verified))


def test_resolve_spec_applies_verify_each():
    spec = resolve_spec(None, opt_level=1, unroll_factor=2, verify_each=True)
    assert spec.verify_each
    assert "unroll:2" in spec.canonical()


def test_build_module_verify_each_end_to_end():
    artifact = build_module(SRC, "m", verify_each=True)
    assert artifact.module.get_function("saxpy") is not None


def test_workload_build_verify_each():
    artifact = get_workload("gemm").build(verify_each=True)
    assert "gemm" in artifact.module.functions
