"""Seeded scenario generation and static/dynamic cross-validation.

Emits randomized-but-lint-clean multi-accelerator topologies — elementwise
pipeline stages over private or shared scratchpads, or a two-way fanout —
plus deliberately racy variants of the same topologies.  Each generated
scenario carries its *plan*: the ordered list of host driver steps, with
the exact byte ranges every stage reads and writes.  From that one plan
we derive both

* the runnable platform (a `SoC` with compiled stage kernels and a host
  driver generator), and
* the static `ConcurrencyModel` the SYS304-306 lints check, *before*
  anything simulates.

`cross_validate` closes the loop: over many seeds it asserts that the
static verdict is never NEGATIVE when the runtime `AccessSanitizer`
observes a real race, that clean scenarios are clean both ways, and that
attaching the sanitizer never changes simulated timing or results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import DeviceConfig
from repro.core.mmr import ARGS_OFFSET, CTRL_IRQ_EN, CTRL_START
from repro.build.pipeline import build_module
from repro.hw.default_profile import default_profile
from repro.sim.sanitizer import AccessSanitizer
from repro.system.soc import build_soc

TOPOLOGIES = ("chain_private", "chain_shared", "fanout")

#: Racy mutations applicable per topology.
MUTATIONS = {
    "chain_private": ("missing_wait", "early_start"),
    "chain_shared": ("missing_wait", "early_start"),
    "fanout": ("overlap_fanout", "early_start"),
}

_N_CHOICES = (8, 16, 24, 32)

_STAGE_SOURCE = """
void stage(double in[{n}], double out[{n}]) {{
  for (int i = 0; i < {n}; i++) {{
    out[i] = in[i] * 2.0 + 1.0;
  }}
}}
"""


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything `build` needs, derived deterministically from a seed."""

    seed: int
    topology: str
    stages: int
    n: int  # doubles per stage
    mutation: Optional[str] = None  # None = clean

    @property
    def racy(self) -> bool:
        return self.mutation is not None

    @property
    def name(self) -> str:
        suffix = f":{self.mutation}" if self.mutation else ""
        return f"gen:{self.seed}:{self.topology}{suffix}"


def generate(seed: int, racy: bool = False) -> ScenarioSpec:
    """Deterministic spec for ``seed`` (same seed -> same scenario)."""
    rng = random.Random(seed)
    topology = rng.choice(TOPOLOGIES)
    stages = rng.randint(2, 3) if topology.startswith("chain") else 2
    n = rng.choice(_N_CHOICES)
    mutation = rng.choice(MUTATIONS[topology]) if racy else None
    return ScenarioSpec(seed, topology, stages, n, mutation)


def parse_gen_spec(text: str) -> ScenarioSpec:
    """Parse a ``gen:SEED`` / ``gen:SEED:racy`` CLI form."""
    parts = text.split(":")
    if parts[0] != "gen" or len(parts) not in (2, 3):
        raise ValueError(f"bad generated-scenario spec '{text}' "
                         "(expected gen:SEED or gen:SEED:racy)")
    try:
        seed = int(parts[1])
    except ValueError:
        raise ValueError(f"bad seed in '{text}'")
    racy = len(parts) == 3
    if racy and parts[2] != "racy":
        raise ValueError(f"bad variant '{parts[2]}' in '{text}' "
                         "(only 'racy' is recognized)")
    return generate(seed, racy=racy)


# ----------------------------------------------------------------------
# Kernel compilation (memoized per stage length)
# ----------------------------------------------------------------------

_GEN_STORE = None
_STAGE_MODULES: dict = {}


def _stage_module(n: int):
    global _GEN_STORE
    if n not in _STAGE_MODULES:
        if _GEN_STORE is None:
            from repro.build.store import ArtifactStore

            _GEN_STORE = ArtifactStore()
        source = _STAGE_SOURCE.format(n=n)
        _STAGE_MODULES[n] = build_module(source, f"stage{n}",
                                         store=_GEN_STORE).module
    return _STAGE_MODULES[n]


# ----------------------------------------------------------------------
# Build: spec -> platform + plan
# ----------------------------------------------------------------------

class GeneratedScenario:
    """A built (but not yet simulated) generated scenario.

    ``plan`` is the host driver as data — a list of steps:

    * ``("dma", src, dst, size)``       blocking cluster-DMA copy
    * ``("start", i, args, reads, writes)``  program + start stage ``i``,
      whose launch will read/write the given ``(base, size)`` ranges
    * ``("wait", i)``                   block on stage ``i``'s IRQ line

    `static_model` and the runnable driver are both derived from it, so
    the lint and the simulation describe the same scenario by
    construction.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self._ran = False
        rng = np.random.default_rng(spec.seed)
        self.input = rng.uniform(-1.0, 1.0, spec.n)

        self.soc = build_soc(dram_size=1 << 20)
        self.d_in = self.soc.dram.image.alloc_array(self.input)
        self.d_out = self.soc.dram.image.alloc(spec.n * 8)

        shared = 0 if spec.topology == "chain_private" else 1 << 13
        cluster = self.soc.add_cluster("cl", shared_spm_bytes=shared)
        self.cluster = cluster
        profile = default_profile()
        config = DeviceConfig(clock_freq_hz=100e6, read_ports=2, write_ports=2)

        nbytes = spec.n * 8
        num_units = spec.stages if spec.topology.startswith("chain") else 2
        kernel_n = spec.n if spec.topology.startswith("chain") else spec.n // 2
        module = _stage_module(kernel_n)
        self.units = []
        for i in range(num_units):
            private = nbytes * 2 if spec.topology == "chain_private" else 0
            unit = cluster.add_accelerator(
                f"s{i}", module, "stage", profile, config=config,
                private_spm_bytes=private,
            )
            if spec.topology != "chain_private":
                cluster.route_to_global(unit, cluster.shared_spm.range)
            unit.comm.connect_irq(self.soc.irq.line(i))
            self.units.append(unit)
        self.dma = cluster.dma
        self.soc.finalize()
        self.plan = self._make_plan()

    # -- plan construction -----------------------------------------------
    def _make_plan(self) -> list[tuple]:
        spec = self.spec
        nbytes = spec.n * 8
        rng = random.Random(spec.seed ^ 0x5CE11A)  # mutation placement
        plan: list[tuple] = []

        if spec.topology == "chain_private":
            bases = [u.private_spm.range.start for u in self.units]
            ins = [b for b in bases]
            outs = [b + nbytes for b in bases]
            plan.append(("dma", self.d_in, ins[0], nbytes))
            for i in range(spec.stages):
                plan.append(("start", i, [ins[i], outs[i]],
                             [(ins[i], nbytes)], [(outs[i], nbytes)]))
                plan.append(("wait", i))
                if i < spec.stages - 1:
                    plan.append(("dma", outs[i], ins[i + 1], nbytes))
            plan.append(("dma", outs[-1], self.d_out, nbytes))

        elif spec.topology == "chain_shared":
            base = self.cluster.shared_spm.range.start
            bufs = [base + i * nbytes for i in range(spec.stages + 1)]
            plan.append(("dma", self.d_in, bufs[0], nbytes))
            for i in range(spec.stages):
                plan.append(("start", i, [bufs[i], bufs[i + 1]],
                             [(bufs[i], nbytes)], [(bufs[i + 1], nbytes)]))
                plan.append(("wait", i))
            plan.append(("dma", bufs[-1], self.d_out, nbytes))

        else:  # fanout
            base = self.cluster.shared_spm.range.start
            s_in, s_out = base, base + nbytes
            half = nbytes // 2
            out1 = s_out + half
            if spec.mutation == "overlap_fanout":
                # Slide s1's output window back so the halves collide.
                out1 -= 8 * rng.randint(1, spec.n // 2)
            plan.append(("dma", self.d_in, s_in, nbytes))
            plan.append(("start", 0, [s_in, s_out],
                         [(s_in, half)], [(s_out, half)]))
            plan.append(("start", 1, [s_in + half, out1],
                         [(s_in + half, half)], [(out1, half)]))
            plan.append(("wait", 0))
            plan.append(("wait", 1))
            plan.append(("dma", s_out, self.d_out, nbytes))

        if spec.mutation == "missing_wait":
            victim = rng.randrange(spec.stages)
            plan = [s for s in plan if s != ("wait", victim)]
        elif spec.mutation == "early_start":
            # Hoist the first start above the DMA-in that fills its input.
            first_start = next(i for i, s in enumerate(plan)
                               if s[0] == "start")
            step = plan.pop(first_start)
            plan.insert(0, step)
        return plan

    # -- static side -----------------------------------------------------
    def static_model(self):
        """Plan-derived `ConcurrencyModel` — no simulation required."""
        from repro.analysis.concurrency import ConcurrencyModel

        model = ConcurrencyModel()
        host = self.soc.host.name
        model.add_agent(host, "host")
        pending_done: list[str] = []
        compute_label: dict[int, str] = {}
        for idx, step in enumerate(self.plan):
            kind = step[0]
            label = f"{host}@{idx}:{kind}"
            model.add_op(host, label, "host")
            for done in pending_done:
                model.add_edge(done, label)
            pending_done = []
            if kind == "dma":
                _, src, dst, size = step
                dlabel = f"{self.dma.name}@{idx}"
                model.add_op(self.dma.name, dlabel, "dma",
                             reads=[(src, size)], writes=[(dst, size)])
                model.add_edge(label, dlabel)
                model.add_wait(host, self.dma.name, "dma completion")
                pending_done.append(dlabel)
            elif kind == "start":
                _, i, _args, reads, writes = step
                clabel = f"{self.units[i].name}#0"
                model.add_op(self.units[i].name, clabel, "compute",
                             reads, writes)
                model.add_edge(label, clabel)
                compute_label[i] = clabel
            elif kind == "wait":
                i = step[1]
                if i in compute_label:
                    model.add_edge(compute_label[i], label)
                model.add_wait(host, self.units[i].name, f"irq {i}")
        return model

    def static_report(self):
        """Full SYS301-306 report, statically (pre-run)."""
        from repro.analysis.concurrency import describe_concurrency
        from repro.analysis.syslint import describe_soc, lint_system

        desc = describe_soc(self.soc)
        # Prefer the post-run extraction when a run already happened (the
        # two models should agree); otherwise use the plan-derived one.
        desc.concurrency = (describe_concurrency(self.soc) if self._ran
                            else self.static_model())
        return lint_system(desc)

    # -- dynamic side ----------------------------------------------------
    def golden(self) -> np.ndarray:
        x = self.input
        if self.spec.topology.startswith("chain"):
            for _ in range(self.spec.stages):
                x = x * 2.0 + 1.0
            return x
        return x * 2.0 + 1.0

    def _driver(self, h):
        for step in self.plan:
            kind = step[0]
            if kind == "dma":
                _, src, dst, size = step
                yield h.dma_copy(self.dma, src, dst, size)
            elif kind == "start":
                _, i, args, _reads, _writes = step
                mmr = self.units[i].comm.mmr.range.start
                for k, value in enumerate(args):
                    yield h.write_mmr(mmr + ARGS_OFFSET + 8 * k, value)
                yield h.write_mmr(mmr, CTRL_START | CTRL_IRQ_EN)
            elif kind == "wait":
                yield h.wait_irq(step[1])

    def run(self, sanitize: bool = False,
            max_tick: int = 2_000_000_000) -> dict:
        """Simulate once; returns stats + the sanitizer's verdict.

        Racy scenarios may compute garbage (that is the point) — the
        result reports ``verified`` but never raises for a mismatch.
        """
        if self._ran:
            raise RuntimeError("GeneratedScenario.run is single-shot; "
                               "build() a fresh one")
        self._ran = True
        sanitizer = (self.soc.system.attach_probe(AccessSanitizer())
                     if sanitize else None)
        host = self.soc.host
        host.run_driver(self._driver(host))
        sim = self.soc.simulation()
        sim.run(max_tick=max_tick)
        out = self.soc.dram.image.read_array(self.d_out, np.float64,
                                             self.spec.n)
        verified = bool(host.finished
                        and np.allclose(out, self.golden(),
                                        rtol=1e-9, atol=1e-12))
        return {
            "scenario": self.spec.name,
            "finished": host.finished,
            "finish_tick": host.finish_tick if host.finished else None,
            "output": out.tolist(),
            "verified": verified,
            "sanitizer": sanitizer.summary() if sanitizer else None,
        }


def build(spec: ScenarioSpec) -> GeneratedScenario:
    return GeneratedScenario(spec)


# ----------------------------------------------------------------------
# Cross-validation harness
# ----------------------------------------------------------------------

def _static_rules(spec: ScenarioSpec) -> set[str]:
    report = build(spec).static_report()
    return {d.code for d in report.diagnostics}


def cross_validate(num_seeds: int = 26, base_seed: int = 0) -> dict:
    """Static-vs-sanitizer agreement over ``2 * num_seeds`` scenarios.

    For every seed, checks that

    * the clean variant is SYS304/305-free statically, sanitizer-clean
      dynamically, and byte/tick-identical with and without the
      sanitizer attached (the zero-overhead claim), both on the graph
      engine;
    * whenever the sanitizer observes a race in the racy variant, the
      static lint reported SYS304 (no static false negatives).

    Returns a summary dict; ``violations`` is empty iff everything held.
    """
    violations: list[str] = []
    races_observed = 0
    for seed in range(base_seed, base_seed + num_seeds):
        spec = generate(seed)
        rules = _static_rules(spec)
        if rules & {"SYS304", "SYS305"}:
            violations.append(f"{spec.name}: clean scenario flagged "
                              f"{sorted(rules & {'SYS304', 'SYS305'})}")
        plain = build(spec).run()
        sanitized = build(spec).run(sanitize=True)
        if not plain["verified"]:
            violations.append(f"{spec.name}: clean run failed verification")
        if not sanitized["sanitizer"]["clean"]:
            violations.append(f"{spec.name}: sanitizer flagged a clean "
                              "scenario")
        if (plain["finish_tick"] != sanitized["finish_tick"]
                or plain["output"] != sanitized["output"]):
            violations.append(f"{spec.name}: sanitize=True changed the "
                              "simulation")

        rspec = generate(seed, racy=True)
        rrules = _static_rules(rspec)
        rrun = build(rspec).run(sanitize=True)
        if rrun["sanitizer"]["races"]:
            races_observed += 1
            if "SYS304" not in rrules:
                violations.append(f"{rspec.name}: sanitizer saw a race "
                                  "but SYS304 did not fire (static false "
                                  "negative)")
    return {
        "seeds": num_seeds,
        "scenarios": 2 * num_seeds,
        "races_observed": races_observed,
        "violations": violations,
    }
