"""Declarative pass-pipeline specs.

A pipeline spec is a comma-separated list of pass names, each with an
optional ``:N`` integer argument (only ``unroll`` takes one)::

    mem2reg,unroll:4,constfold,dce

``o1`` and ``o2`` are named presets expanding to the standard
frontend pipelines (``o1:4`` unrolls by 4).  The same string is what
the CLI accepts (``--passes``) and what the build-artifact cache key
hashes, so "which optimizations ran" is spelled identically everywhere.

`PipelineSpec.parse` round-trips with `PipelineSpec.canonical`:
presets are expanded, ``unroll:1`` collapses to ``unroll``, and
whitespace/case is normalized — two specs that run the same passes
produce the same canonical string (and hence the same artifact key).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.ir.module import Module
from repro.passes.pass_manager import FunctionPass, PassManager


class PipelineSpecError(ValueError):
    """A pipeline spec string failed to parse."""


#: Pass name -> zero-argument factory.  ``inline`` and ``unroll`` are
#: special-cased (module-dependent and integer-argumented respectively).
def _factories() -> dict:
    from repro.passes.constfold import ConstantFold
    from repro.passes.cse import CommonSubexpressionElimination
    from repro.passes.dce import DeadCodeElimination
    from repro.passes.licm import LoopInvariantCodeMotion
    from repro.passes.mem2reg import Mem2Reg
    from repro.passes.simplify_cfg import SimplifyCFG

    return {
        "mem2reg": Mem2Reg,
        "constfold": ConstantFold,
        "dce": DeadCodeElimination,
        "simplifycfg": SimplifyCFG,
        "licm": LoopInvariantCodeMotion,
        "cse": CommonSubexpressionElimination,
    }


PASS_NAMES = ("inline", "mem2reg", "constfold", "dce", "simplifycfg",
              "licm", "cse", "unroll")


@dataclass(frozen=True)
class PassStep:
    """One entry of a pipeline: a pass name plus its optional argument."""

    name: str
    arg: Optional[int] = None

    def spec(self) -> str:
        return self.name if self.arg is None else f"{self.name}:{self.arg}"


def _standard_steps(opt_level: int, unroll_factor: int) -> tuple[PassStep, ...]:
    """The step sequence of `PipelineSpec.standard`, as spec data."""
    unroll = PassStep("unroll", unroll_factor if unroll_factor != 1 else None)
    steps = [PassStep("inline"), PassStep("mem2reg"),
             PassStep("constfold"), PassStep("dce")]
    if opt_level >= 2:
        steps += [PassStep("licm"), PassStep("cse"), PassStep("dce")]
    steps += [unroll, PassStep("constfold"),
              PassStep("simplifycfg"), PassStep("dce")]
    if opt_level >= 2:
        steps += [PassStep("cse"), PassStep("dce")]
    return tuple(steps)


@dataclass(frozen=True)
class PipelineSpec:
    """An ordered, hashable description of which passes to run.

    ``verify_each`` opts into the verified pipeline mode: every pass is
    followed by a structural verify plus a golden-interpreter
    differential check (see `repro.analysis.verified`).  It is a *mode*,
    not part of the pipeline's identity — it is excluded from equality
    and from `canonical()`, so artifact cache keys are unaffected.
    """

    steps: tuple[PassStep, ...] = ()
    verify_each: bool = field(default=False, compare=False)

    # -- construction ------------------------------------------------------
    @classmethod
    def standard(cls, opt_level: int = 1, unroll_factor: int = 1) -> "PipelineSpec":
        """The ``o1``/``o2`` preset with an explicit unroll factor."""
        if opt_level not in (1, 2):
            raise PipelineSpecError(f"unknown opt level {opt_level} (use 1 or 2)")
        return cls(_standard_steps(opt_level, unroll_factor))

    def with_verify_each(self, enabled: bool = True) -> "PipelineSpec":
        """A copy of this spec with the verified mode toggled."""
        return replace(self, verify_each=enabled)

    @classmethod
    def parse(cls, spec: Union[str, "PipelineSpec", None]) -> "PipelineSpec":
        """Parse a spec string (idempotent on `PipelineSpec` instances).

        ``None``/``""``/``"none"`` mean "run nothing" (raw lowered IR).
        """
        if spec is None:
            return cls()
        if isinstance(spec, PipelineSpec):
            return spec
        if not isinstance(spec, str):
            raise PipelineSpecError(
                f"expected a spec string or PipelineSpec, got {type(spec).__name__}"
            )
        steps: list[PassStep] = []
        text = spec.strip()
        if text.lower() in ("", "none"):
            return cls()
        for token in text.split(","):
            token = token.strip().lower()
            if not token:
                raise PipelineSpecError(f"empty pass name in spec {spec!r}")
            name, sep, arg_text = token.partition(":")
            arg: Optional[int] = None
            if sep:
                if not arg_text.isdigit() or int(arg_text) < 1:
                    raise PipelineSpecError(
                        f"bad argument '{name}:{arg_text}' in spec {spec!r} "
                        "(expected a positive integer)"
                    )
                arg = int(arg_text)
            if name in ("o1", "o2"):
                steps.extend(_standard_steps(int(name[1]), arg or 1))
                continue
            if name not in PASS_NAMES:
                raise PipelineSpecError(
                    f"unknown pass '{name}' in spec {spec!r}; "
                    f"valid: {', '.join(PASS_NAMES)}, o1, o2"
                )
            if arg is not None and name != "unroll":
                raise PipelineSpecError(
                    f"pass '{name}' takes no argument (spec {spec!r})"
                )
            if name == "unroll" and arg == 1:
                arg = None
            steps.append(PassStep(name, arg))
        return cls(tuple(steps))

    # -- canonical form ----------------------------------------------------
    def canonical(self) -> str:
        """The normalized spec string (parses back to an equal spec)."""
        if not self.steps:
            return "none"
        return ",".join(step.spec() for step in self.steps)

    def __str__(self) -> str:
        return self.canonical()

    def __bool__(self) -> bool:
        return bool(self.steps)

    # -- realization -------------------------------------------------------
    def to_pass_manager(self, module: Optional[Module] = None,
                        verify: bool = True) -> PassManager:
        """Instantiate the described passes.

        ``inline`` needs the enclosing module for callee lookup; without
        one it is skipped (so `PipelineSpec.standard` also serves
        bare-function pipelines).

        With ``verify_each`` set this returns a
        `repro.analysis.verified.VerifiedPassManager` that differentially
        checks the function against the golden interpreter after every
        pass.
        """
        from repro.passes.inline import InlineFunctions
        from repro.passes.unroll import LoopUnroll

        factories = _factories()
        passes: list[FunctionPass] = []
        for step in self.steps:
            if step.name == "inline":
                if module is not None:
                    passes.append(InlineFunctions(module, require_complete=False))
            elif step.name == "unroll":
                passes.append(LoopUnroll(default_factor=step.arg or 1))
            else:
                passes.append(factories[step.name]())
        if self.verify_each:
            # Deferred import: `repro.analysis.verified` imports this module.
            from repro.analysis.verified import VerifiedPassManager

            return VerifiedPassManager(passes, verify=verify, module=module)
        return PassManager(passes, verify=verify)


def resolve_spec(
    pipeline: Union[str, PipelineSpec, None] = None,
    *,
    optimize: bool = True,
    opt_level: int = 1,
    unroll_factor: int = 1,
    verify_each: bool = False,
) -> PipelineSpec:
    """Reduce the historical compile knobs to one declarative spec.

    An explicit ``pipeline`` wins; otherwise ``optimize``/``opt_level``/
    ``unroll_factor`` select the matching standard preset — so legacy
    call sites and ``--passes`` users land on the same cache keys.
    ``verify_each`` toggles the verified pipeline mode on the result
    (it does not participate in cache keys).
    """
    if pipeline is not None:
        spec = PipelineSpec.parse(pipeline)
    elif not optimize:
        spec = PipelineSpec()
    else:
        spec = PipelineSpec.standard(opt_level=opt_level,
                                     unroll_factor=unroll_factor)
    if verify_each and not spec.verify_each:
        spec = spec.with_verify_each()
    return spec
