"""IR optimization and analysis passes.

These stand in for the clang/LLVM optimization pipeline the paper uses
to shape accelerator datapaths: ``mem2reg`` (SSA construction), loop
unrolling (the ILP-tuning knob), dead-code elimination, constant
folding, and CFG simplification, coordinated by a :class:`PassManager`.
"""

from repro.passes.pass_manager import FunctionPass, PassManager
from repro.passes.pipeline import PassStep, PipelineSpec, PipelineSpecError
from repro.passes.mem2reg import Mem2Reg
from repro.passes.dce import DeadCodeElimination
from repro.passes.constfold import ConstantFold
from repro.passes.simplify_cfg import SimplifyCFG
from repro.passes.loop_analysis import Loop, find_loops, trip_count
from repro.passes.unroll import LoopUnroll, UnrollError
from repro.passes.inline import InlineError, InlineFunctions, inline_call
from repro.passes.licm import LoopInvariantCodeMotion
from repro.passes.cse import CommonSubexpressionElimination

__all__ = [
    "FunctionPass",
    "PassManager",
    "PassStep",
    "PipelineSpec",
    "PipelineSpecError",
    "Mem2Reg",
    "DeadCodeElimination",
    "ConstantFold",
    "SimplifyCFG",
    "Loop",
    "find_loops",
    "trip_count",
    "LoopUnroll",
    "UnrollError",
    "InlineFunctions",
    "InlineError",
    "inline_call",
    "LoopInvariantCodeMotion",
    "CommonSubexpressionElimination",
]
