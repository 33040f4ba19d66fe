"""Discrete-event simulation kernel.

This subpackage stands in for the gem5 simulation framework: a global
event queue ordered by tick, clock domains, ``SimObject`` base classes
with statistics registration, and a master/slave port abstraction with
timing packets.  Every other subsystem (memories, DMAs, accelerators,
the host agent) is built on these primitives.
"""

from repro.sim.eventq import Event, EventQueue
from repro.sim.clock import ClockDomain, ClockedObject
from repro.sim.probe import Probe
from repro.sim.simobject import SimObject, System
from repro.sim.packet import MemCmd, Packet
from repro.sim.ports import MasterPort, SlavePort
from repro.sim.stats import Stat, ScalarStat, VectorStat, StatGroup

__all__ = [
    "Event",
    "EventQueue",
    "ClockDomain",
    "ClockedObject",
    "Probe",
    "SimObject",
    "System",
    "MemCmd",
    "Packet",
    "MasterPort",
    "SlavePort",
    "Stat",
    "ScalarStat",
    "VectorStat",
    "StatGroup",
]
