"""Pass manager: sequences function passes over a module."""

from __future__ import annotations

import time

from repro.ir.module import Function, Module
from repro.ir.verifier import verify_function


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
        self.history: list[tuple[str, str, bool]] = []
        #: (func name, pass name, wall-clock seconds) per pass execution;
        #: the build pipeline mirrors these onto the `build` trace channel.
        self.pass_timings: list[tuple[str, str, float]] = []

    def add(self, pass_: FunctionPass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run_function(self, func: Function) -> bool:
        changed_any = False
        for pass_ in self.passes:
            start = time.perf_counter()
            changed = pass_.run(func)
            self.pass_timings.append(
                (func.name, pass_.name, time.perf_counter() - start))
            self.history.append((func.name, pass_.name, changed))
            changed_any |= changed
            if self.verify and changed:
                verify_function(func)
        return changed_any

    def run(self, module: Module) -> bool:
        # The module is about to change: drop its recorded fingerprint.
        module.fingerprint = None
        changed = False
        for func in module:
            changed |= self.run_function(func)
        return changed

