"""Pass manager: sequences function passes over a module."""

from __future__ import annotations

from repro.ir.module import Function, Module
from repro.ir.verifier import verify_function
from repro.sim.probe import Timings


class FunctionPass:
    """Base class: transforms one function, returns True if it changed it."""

    name = "pass"

    def run(self, func: Function) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class PassManager:
    """Runs an ordered list of passes, optionally verifying after each."""

    def __init__(self, passes: list[FunctionPass], verify: bool = True) -> None:
        self.passes = list(passes)
        self.verify = verify
        #: ``pass:<name>`` -> seconds; `BuildPipeline.optimize` points
        #: this at its own `Timings` so pass spans reach the build channel.
        self.timings = Timings()

    def add(self, pass_: FunctionPass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run_function(self, func: Function) -> bool:
        changed_any = False
        for pass_ in self.passes:
            # The check is inside the span: a pass it rejects records
            # nothing, so a failed build emits no event for that pass.
            with self.timings.span(f"pass:{pass_.name}", func=func.name):
                changed = pass_.run(func)
                self._after_pass(func, pass_, changed)
            changed_any |= changed
        return changed_any

    def _after_pass(self, func: Function, pass_: FunctionPass,
                    changed: bool) -> None:
        """Hook: checks ``func`` after ``pass_``; raises on a bad result."""
        if self.verify and changed:
            verify_function(func)

    def run(self, module: Module) -> bool:
        # The module is about to change: drop its recorded fingerprint.
        module.fingerprint = None
        changed = False
        for func in module:
            changed |= self.run_function(func)
        return changed

