"""Arms a :class:`FaultPlan` against a built `System` and fires it.

The injector observes the instrumentation bus (`repro.sim.probe`), so
a fault-free simulation stays bit- and cycle-identical.  Tick triggers
are scheduled on the event queue at attach time; access triggers count
the target's bus ``access`` calls, so the graph engine drives a run it
observes through the real ports (`repro.sim.probe.watches_memory`).
Every injection is appended to :attr:`injected` and emitted on the
``faults`` trace channel, so Chrome traces show the injection against
the activity it perturbs.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.mmr import ARGS_OFFSET, MMRFile
from repro.faults.plan import FaultConfigError, FaultEvent, FaultPlan
from repro.sim.packet import read_packet, write_packet
from repro.sim.probe import Probe
from repro.sim.simobject import SimObject, System


class _Armed:
    """One fault event bound to its target with all fields resolved."""

    __slots__ = ("event", "obj", "addr", "bit", "mask", "reg", "cycles",
                 "remaining", "threshold")

    def __init__(self, event: FaultEvent, obj: SimObject, addr: Optional[int],
                 bit: Optional[int], mask: Optional[int], reg: Optional[int],
                 cycles: Optional[int]) -> None:
        self.event = event
        self.obj = obj
        self.addr = addr
        self.bit = bit
        self.mask = mask
        self.reg = reg
        self.cycles = cycles
        self.remaining = event.count
        self.threshold = event.after_accesses  # None for tick triggers


class FaultInjector(Probe):
    """Resolves a plan's targets, arms its events, applies its faults."""

    def __init__(self, plan) -> None:
        plan = FaultPlan.coerce(plan)
        if plan is None:
            plan = FaultPlan()
        self.plan = plan
        self._system: Optional[System] = None
        #: Access-triggered events, keyed by target object name.
        self._armed_by_obj: dict[str, list[_Armed]] = {}
        self._access_counts: dict[str, int] = {}
        #: Active port stalls: name -> expiry tick (None = forever).
        self._stalls: dict[str, Optional[int]] = {}
        #: Pending request drops per memory controller.
        self._drops: dict[str, int] = {}
        #: Pending DMA actions, consumed by the next start():
        #: name -> list of ("drop"|"delay", cycles).
        self._dma_pending: dict[str, list[tuple[str, int]]] = {}
        #: Chronological record of every applied injection.
        self.injected: list[dict] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, system: System) -> "FaultInjector":
        """Resolve targets and draw unspecified fields from the plan seed
        for every event before touching the system (a bad target leaves
        it unchanged), then schedule tick triggers and join the bus."""
        if self._system is not None:
            raise FaultConfigError("FaultInjector is already attached")
        rng = random.Random(self.plan.seed)
        armed = [self._arm(event, self._resolve(system, event.target), rng)
                 for event in self.plan.events]
        self._system = system
        for entry in armed:
            event = entry.event
            if event.at_tick is not None:
                system.eventq.schedule_callback(
                    lambda a=entry: self._fire(a), event.at_tick,
                    name=f"fault.{event.kind}@{entry.obj.name}",
                )
            else:
                self._armed_by_obj.setdefault(entry.obj.name, []).append(entry)
        system.attach_probe(self)
        return self

    def detach(self) -> None:
        """Leave the bus (pending tick events die with the system's
        event-queue reset)."""
        if self._system is None:
            return
        self._system.detach_probe(self)
        self._system = None

    # ------------------------------------------------------------------
    # Target / field resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(system: System, target: str) -> SimObject:
        objects = system.objects
        if target in objects:
            return objects[target]
        matches = [obj for name, obj in objects.items()
                   if name.endswith("." + target)]
        if len(matches) == 1:
            return matches[0]
        known = ", ".join(sorted(objects))
        if not matches:
            raise FaultConfigError(
                f"no SimObject matches fault target '{target}' (known: {known})"
            )
        raise FaultConfigError(
            f"fault target '{target}' is ambiguous: "
            f"{', '.join(sorted(m.name for m in matches))}"
        )

    def _arm(self, event: FaultEvent, obj: SimObject, rng: random.Random) -> _Armed:
        addr = event.addr
        bit = event.bit
        mask = event.mask
        reg = event.reg
        cycles = event.cycles
        if event.kind == "bit_flip":
            if addr is None:
                addr_range = getattr(obj, "range", None)
                if addr_range is None:
                    raise FaultConfigError(
                        f"bit_flip@{obj.name}: target has no address range; "
                        "an explicit addr= is required"
                    )
                addr = rng.randrange(addr_range.start, addr_range.end)
            if bit is None:
                bit = rng.randrange(8)
            self._check_flippable(obj)
        elif event.kind == "mmr_corrupt":
            if not isinstance(obj, MMRFile):
                raise FaultConfigError(
                    f"mmr_corrupt@{obj.name}: target is not an MMRFile"
                )
            if reg is None:
                reg = rng.randrange(obj.num_args)
            elif not 0 <= reg < obj.num_args:
                raise FaultConfigError(
                    f"mmr_corrupt@{obj.name}: reg {reg} out of range "
                    f"(device has {obj.num_args} args)"
                )
            if mask is None:
                mask = 1 << rng.randrange(64)
        elif event.kind == "dma_delay":
            if cycles is None:
                cycles = rng.randrange(1, 65)
        elif event.kind in ("dma_drop", "port_stall", "mem_drop"):
            pass  # no extra fields to resolve (port_stall cycles=None = forever)
        return _Armed(event, obj, addr, bit, mask, reg, cycles)

    @staticmethod
    def _check_flippable(obj: SimObject) -> None:
        if (getattr(obj, "image", None) is None
                and getattr(obj, "mem_side", None) is None
                and not isinstance(obj, MMRFile)):
            raise FaultConfigError(
                f"bit_flip@{obj.name}: target holds no flippable state "
                "(expected an SPM/DRAM image, a cache, or an MMR file)"
            )

    # ------------------------------------------------------------------
    # Bus hooks
    # ------------------------------------------------------------------
    def access(self, obj, agent, addr, size, is_write, tick) -> None:
        if obj is not None:
            self._count_access(obj)

    def _count_access(self, obj: SimObject) -> None:
        """Count one access to ``obj``; fire any armed event whose
        threshold this access reaches."""
        name = obj.name
        armed_events = self._armed_by_obj.get(name)
        if armed_events is None:
            return  # no access trigger targets this object
        count = self._access_counts.get(name, 0) + 1
        self._access_counts[name] = count
        for armed in armed_events:
            if armed.remaining > 0 and count >= armed.threshold:
                self._fire(armed)

    def stalled(self, obj: SimObject) -> bool:
        """True while a ``port_stall`` window is open on ``obj``."""
        name = obj.name
        if name not in self._stalls:
            return False
        until = self._stalls[name]
        if until is None:
            return True
        if obj.cur_tick >= until:
            del self._stalls[name]
            return False
        return True

    def drop_request(self, obj: SimObject, request) -> bool:
        """Consume one pending ``mem_drop``: True means the controller
        must forget ``request`` (its completion never fires)."""
        remaining = self._drops.get(obj.name, 0)
        if remaining <= 0:
            return False
        self._drops[obj.name] = remaining - 1
        self._record("mem_drop", obj, {
            "addr": request.addr, "size": request.size,
            "op": "read" if request.is_read else "write",
        })
        return True

    def dma_action(self, obj: SimObject) -> Optional[tuple[str, int]]:
        """Called at DMA launch: counts the launch as an access, then
        returns a pending ("drop"|"delay", cycles) action, if any."""
        self._count_access(obj)
        pending = self._dma_pending.get(obj.name)
        if pending:
            return pending.pop(0)
        return None

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _fire(self, armed: _Armed) -> None:
        if armed.remaining <= 0:
            return
        armed.remaining -= 1
        kind = armed.event.kind
        obj = armed.obj
        if kind == "bit_flip":
            self._record(kind, obj, self._flip(obj, armed.addr, armed.bit))
        elif kind == "mmr_corrupt":
            offset = ARGS_OFFSET + 8 * armed.reg
            before = obj.read_u64(offset)
            obj.write_u64(offset, before ^ armed.mask)
            self._record(kind, obj, {"reg": armed.reg, "mask": armed.mask,
                                     "before": before})
        elif kind == "port_stall":
            if armed.cycles is None:
                self._stalls[obj.name] = None
            else:
                self._stalls[obj.name] = (
                    obj.cur_tick + obj.clock.cycles_to_ticks(armed.cycles)
                )
            self._record(kind, obj, {"cycles": armed.cycles})
        elif kind == "mem_drop":
            # Armed now; the drop itself is recorded when a concrete
            # request is consumed in drop_request().
            self._drops[obj.name] = self._drops.get(obj.name, 0) + 1
        elif kind in ("dma_drop", "dma_delay"):
            action = "drop" if kind == "dma_drop" else "delay"
            self._dma_pending.setdefault(obj.name, []).append(
                (action, armed.cycles or 0)
            )
            self._record(kind, obj, {"cycles": armed.cycles}
                         if action == "delay" else {})

    def _flip(self, obj: SimObject, addr: int, bit: int) -> dict:
        mask = 1 << bit
        image = getattr(obj, "image", None)
        if image is not None:
            byte = image.read(addr, 1)[0]
            image.write(addr, bytes([byte ^ mask]))
        elif isinstance(obj, MMRFile):
            offset = addr - obj.range.start if obj.range.contains(addr) else addr
            obj._data[offset] ^= mask
        else:
            # Timing-only cache: functional data lives downstream, so the
            # flip is a read-modify-write through the mem-side port.
            byte = obj.mem_side.send_functional(read_packet(addr, 1)).data[0]
            obj.mem_side.send_functional(write_packet(addr, bytes([byte ^ mask])))
        return {"addr": addr, "bit": bit}

    def _record(self, kind: str, obj: SimObject, detail: dict) -> None:
        tick = obj.eventq.cur_tick
        entry = {"tick": tick, "kind": kind, "target": obj.name}
        entry.update(detail)
        self.injected.append(entry)
        probe = obj._probe  # an attached trace hub logs the injection
        if probe is not None:
            probe.emit("faults", obj.name, kind, tick, args=dict(detail))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "attached" if self._system is not None else "detached"
        return (f"<FaultInjector {len(self.plan.events)} event(s) {state} "
                f"injected={len(self.injected)}>")
