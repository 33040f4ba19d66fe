"""Graph lowering: `compile_graph(ElaboratedDesign) -> SimGraph`.

The frontend half of the graph-compiled execution backend.  Instead of
re-deriving operand sources, functional-unit bindings, latencies, and
memory-disambiguation facts per dynamic instruction (what the dynamic
`RuntimeEngine` does every cycle), this stage walks the statically
elaborated CDFG **once** and flattens everything the scheduler needs
into parallel arrays indexed by node id:

* operand-source descriptors — ``(SRC_CONST, value)``,
  ``(SRC_ARG, arg_index)`` or ``(SRC_NODE, producer_id)`` — replacing
  per-instance `isinstance` dispatch over `Value` subclasses;
* per-node evaluation thunks that close over the *same*
  `repro.ir.semantics` helpers the dynamic engine calls, so values (and
  therefore every downstream address and branch decision) are exactly
  identical;
* FU class / dedicated-vs-pooled binding, pipelining, latency, and
  energy constants resolved through the hardware profile and the device
  config's latency overrides;
* static memory-disambiguation facts reusing `repro.analysis.memdep`
  (PR 5): each access's root pointer and constant byte offset, letting
  the scheduler skip the overlap arithmetic for provably disjoint pairs
  without changing any conflict outcome (see the ``conflicts`` closure
  in `GraphScheduler._loop` for the exactness argument).

Lowering is total.  An instruction the datapath cannot execute (an
alloca, a call that survived inlining) lowers to a *trap node* whose
thunk raises when the node issues, the cycle at which the dynamic
engine raises; a trap that never issues costs nothing.

`SimGraph` is read-only under a run, so one graph is shared by every
run and sweep point of a process that shares its module, config and
profile: the content-addressed `ArtifactStore` (kind ``"graph"``) holds
it decoded and hands the same object to every hit.  What the scheduler
derives from the graph alone — the eval thunks and the `RunTables`
(operand templates, memory codecs, FU classes, issue gates) — is built
lazily once per graph and held with it; a run binds only its argument
values.  It is also picklable — thunks and tables are dropped and
rebuilt lazily after unpickling — for the store's disk mirror.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict
from typing import Optional

from repro.core.llvm_interface import LLVMInterface
from repro.core.runtime import trap_reason
from repro.hw.profile import FU_NONE
from repro.ir.instructions import (
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.semantics import (
    bytes_to_value,
    eval_binop,
    eval_cast,
    eval_fcmp,
    eval_icmp,
    eval_intrinsic,
    gep_address,
    round_float,
    signed_operand,
    value_to_bytes,
)
from repro.ir.types import ArrayType, FloatType, IntType, PointerType
from repro.ir.values import Argument, Constant, Instruction

#: Bump when the lowering output changes shape — part of the graph
#: artifact key, so stale store entries never deserialize into a
#: scheduler that expects different arrays.  (v2: memory-side
#: `DeviceConfig` fields left the key — lowering never reads them, the
#: scheduler consults the live config — so memory-only sweeps share one
#: stored graph.)
GRAPH_FORMAT_VERSION = 2

# Operand-source descriptor tags.
SRC_CONST = 0
SRC_ARG = 1
SRC_NODE = 2

# Node kind codes (what the scheduler dispatches on, instead of
# isinstance chains).
K_COMPUTE = 0
K_LOAD = 1
K_STORE = 2
K_BRANCH = 3
K_RET = 4
K_OTHER = 5  # phi and other zero-latency wiring ops

# Issue gates: the shared resource a ready op waits on when it cannot
# issue.  A load waits on the read queue, a store on the write queue, a
# pooled compute op on its FU class's pool (gate ``GATE_POOL + class
# id``).  Dedicated units and every other op have no gate (-1).
GATE_READ = 0
GATE_WRITE = 1
GATE_POOL = 2


class NodeTrap(Exception):
    """Raised by a trap node's thunk when the node issues.  The graph is
    shared by every unit, so the message lacks the engine's name:
    `GraphScheduler.run` re-raises it as that engine's `EngineError`."""


def _trap_eval(reason: str):
    """Thunk of a node the datapath cannot execute (`trap_reason`)."""
    def trap(v):
        raise NodeTrap(reason)
    return trap


def _operand_descriptor(operand, node_ids: dict[int, int]):
    """Lower one operand `Value` to a flat source descriptor."""
    if isinstance(operand, Constant):
        return (SRC_CONST, operand.value)
    if isinstance(operand, Argument):
        return (SRC_ARG, operand)
    if isinstance(operand, Instruction):
        producer = node_ids.get(id(operand))
        if producer is None:
            # Defined in a block never fetched before this use on any
            # path — the dynamic engine binds such operands to 0.
            return (SRC_CONST, 0)
        return (SRC_NODE, producer)
    raise TypeError(f"cannot lower operand {operand!r}")


_M64 = (1 << 64) - 1


def _binop_eval(inst: BinaryOp):
    """Specialized thunk for one binary op (same math as `eval_binop`)."""
    op = inst.opcode
    type_ = inst.type
    if isinstance(type_, IntType):
        m = type_.mask
        if op == "add":
            return lambda v: (v[0] + v[1]) & m
        if op == "sub":
            return lambda v: (v[0] - v[1]) & m
        if op == "mul":
            return lambda v: (v[0] * v[1]) & m
        if op == "and":
            return lambda v: v[0] & v[1]
        if op == "or":
            return lambda v: v[0] | v[1]
        if op == "xor":
            return lambda v: v[0] ^ v[1]
    elif isinstance(type_, FloatType):
        if type_.bits == 64:
            # round_float is the identity on binary64.
            if op == "fadd":
                return lambda v: v[0] + v[1]
            if op == "fsub":
                return lambda v: v[0] - v[1]
            if op == "fmul":
                return lambda v: v[0] * v[1]
        else:
            if op == "fadd":
                return lambda v, t=type_: round_float(v[0] + v[1], t)
            if op == "fsub":
                return lambda v, t=type_: round_float(v[0] - v[1], t)
            if op == "fmul":
                return lambda v, t=type_: round_float(v[0] * v[1], t)
    return lambda v, op=op, t=type_: eval_binop(op, t, v[0], v[1])


def _icmp_eval(inst: ICmp):
    """Specialized thunk for one icmp (same outcomes as `eval_icmp`)."""
    pred = inst.pred
    type_ = inst.operands[0].type
    # Unsigned predicates (and eq/ne) compare the raw bound values,
    # exactly as eval_icmp does.
    if pred == "eq":
        return lambda v: 1 if v[0] == v[1] else 0
    if pred == "ne":
        return lambda v: 1 if v[0] != v[1] else 0
    if pred == "ult":
        return lambda v: 1 if v[0] < v[1] else 0
    if pred == "ule":
        return lambda v: 1 if v[0] <= v[1] else 0
    if pred == "ugt":
        return lambda v: 1 if v[0] > v[1] else 0
    if pred == "uge":
        return lambda v: 1 if v[0] >= v[1] else 0
    if isinstance(type_, IntType) and pred in ("slt", "sle", "sgt", "sge"):
        m, h, span = type_.mask, type_.max_signed, 1 << type_.bits

        def signed(x, m=m, h=h, span=span):
            x &= m
            return x - span if x > h else x

        if pred == "slt":
            return lambda v: 1 if signed(v[0]) < signed(v[1]) else 0
        if pred == "sle":
            return lambda v: 1 if signed(v[0]) <= signed(v[1]) else 0
        if pred == "sgt":
            return lambda v: 1 if signed(v[0]) > signed(v[1]) else 0
        return lambda v: 1 if signed(v[0]) >= signed(v[1]) else 0
    return lambda v, p=pred, t=type_: eval_icmp(p, t, v[0], v[1])


def _cast_eval(inst: Cast):
    """Specialized thunk for one cast (same math as `eval_cast`)."""
    op = inst.opcode
    src_t = inst.src.type
    dst_t = inst.type
    if op in ("zext", "trunc") and isinstance(dst_t, IntType):
        m = dst_t.mask
        return lambda v: v[0] & m
    if (op == "sext" and isinstance(src_t, IntType)
            and isinstance(dst_t, IntType)):
        fm, fh, span = src_t.mask, src_t.max_signed, 1 << src_t.bits
        tm = dst_t.mask

        def sext(v, fm=fm, fh=fh, span=span, tm=tm):
            x = v[0] & fm
            if x > fh:
                x -= span
            return x & tm

        return sext
    if (op == "sitofp" and isinstance(src_t, IntType)
            and isinstance(dst_t, FloatType) and dst_t.bits == 64):
        fm, fh, span = src_t.mask, src_t.max_signed, 1 << src_t.bits

        def sitofp(v, fm=fm, fh=fh, span=span):
            x = v[0] & fm
            if x > fh:
                x -= span
            return float(x)

        return sitofp
    return lambda v, op=op, s=src_t, t=dst_t: eval_cast(op, s, t, v[0])


def _gep_eval(inst: GetElementPtr):
    """Specialized thunk for one GEP: strides precomputed at lowering
    time (the type walk `gep_address` repeats per evaluation)."""
    idx_types = [index.type for index in inst.indices]

    def generic(v, g=inst, ts=idx_types):
        return gep_address(
            g, v[0],
            [signed_operand(v[i + 1], t) for i, t in enumerate(ts)],
        )

    current = inst.pointer.type
    strides: list[int] = []
    for i in range(len(idx_types)):
        if i == 0:
            if not isinstance(current, PointerType):
                return generic
            strides.append(current.pointee.size_bytes())
            current = current.pointee
        else:
            if not isinstance(current, ArrayType):
                return generic
            strides.append(current.element.size_bytes())
            current = current.element
    convs = []
    for t in idx_types:
        if isinstance(t, IntType):
            m, h, span = t.mask, t.max_signed, 1 << t.bits
            convs.append(lambda x, m=m, h=h, span=span:
                         (x & m) - span if (x & m) > h else x & m)
        else:
            convs.append(None)
    if len(strides) == 1:
        s0, c0 = strides[0], convs[0]
        if c0 is None:
            return lambda v: (v[0] + s0 * v[1]) & _M64
        return lambda v: (v[0] + s0 * c0(v[1])) & _M64

    def multi(v, strides=strides, convs=convs):
        addr = v[0]
        for i, stride in enumerate(strides):
            conv = convs[i]
            idx = v[i + 1]
            addr += stride * (conv(idx) if conv is not None else idx)
        return addr & _M64

    return multi


_STRUCT_F = struct.Struct("<f")
_STRUCT_D = struct.Struct("<d")


def _codecs(t):
    """``(decoder, encoder)`` for a memory access of type ``t``: the
    type dispatch of `bytes_to_value` / `value_to_bytes` resolved once.
    Each closure is bit-exact with the generic function (the image hands
    back exactly the access size, so the defensive slice is a no-op)."""
    if isinstance(t, IntType):
        size = t.size_bytes()
        mask = t.mask
        return ((lambda data: int.from_bytes(data, "little") & mask),
                (lambda value: int(value & mask).to_bytes(size, "little")))
    if isinstance(t, FloatType):
        st = _STRUCT_F if t.bits == 32 else _STRUCT_D
        return (lambda data, _u=st.unpack: _u(data)[0]), st.pack
    if isinstance(t, PointerType):
        return ((lambda data: int.from_bytes(data[:8], "little")),
                (lambda value: int(value).to_bytes(8, "little")))
    return ((lambda data: bytes_to_value(data, t)),
            (lambda value: value_to_bytes(value, t)))


class RunTables:
    """The per-node tables `GraphScheduler` needs beyond the graph's own
    arrays.  They depend on the graph alone, so `SimGraph.run_tables`
    builds them once and every run shares them read-only; a run binds
    its argument values through `bind`.

    * ``templates[nid]`` — a non-phi node's operand values, constants
      filled in, ``None`` at argument- and producer-fed slots;
      ``dep_binds[nid]`` lists its producer-fed slots as ``(index,
      producer_nid, is_addr)``.  Both are ``None`` for a phi, whose
      ``phi_binds[nid]`` maps a predecessor block id to ``(template,
      dep_binds)`` for its one incoming value.
    * ``arg_slots`` / ``phi_arg_slots`` — ``(nid, ((slot, arg_index),
      ...))`` for the nodes `bind` must copy: ``slot`` is an operand
      index, or a predecessor block id for a phi.
    * ``is_mem``, ``decoders``, ``encoders`` — memory accesses and their
      per-node value codecs (`_codecs`).
    * ``class_names`` / ``cls_ids`` — FU classes interned to small ints
      in node order, and each node's class id.
    * ``gate[nid]`` — the node's issue gate (``GATE_*``, -1 for none);
      there are ``GATE_POOL + len(class_names)`` gates.
    """

    __slots__ = ("templates", "dep_binds", "phi_binds", "arg_slots",
                 "phi_arg_slots", "is_mem", "decoders", "encoders",
                 "class_names", "cls_ids", "gate")

    def __init__(self, graph: "SimGraph") -> None:
        n = graph.n_nodes
        kind = graph.kind
        self.templates: list = [None] * n
        self.dep_binds: list = [None] * n
        self.phi_binds: list = [None] * n
        self.arg_slots: list = []
        self.phi_arg_slots: list = []
        for nid, descs in enumerate(graph.operands):
            if type(descs) is dict:  # phi: one incoming per predecessor
                per_pred = {}
                args = []
                for pred_bid, (tag, payload) in descs.items():
                    if tag == SRC_NODE:
                        per_pred[pred_bid] = ([None], ((0, payload, False),))
                    elif tag == SRC_ARG:
                        per_pred[pred_bid] = ([None], ())
                        args.append((pred_bid, payload))
                    else:
                        per_pred[pred_bid] = ([payload], ())
                self.phi_binds[nid] = per_pred
                if args:
                    self.phi_arg_slots.append((nid, tuple(args)))
                continue
            aidx = graph.addr_index[nid]
            vals: list = [None] * len(descs)
            deps = []
            args = []
            for index, (tag, payload) in enumerate(descs):
                if tag == SRC_CONST:
                    vals[index] = payload
                elif tag == SRC_ARG:
                    args.append((index, payload))
                else:
                    deps.append((index, payload, index == aidx))
            self.templates[nid] = vals
            self.dep_binds[nid] = tuple(deps)
            if args:
                self.arg_slots.append((nid, tuple(args)))

        self.is_mem = [k in (K_LOAD, K_STORE) for k in kind]
        self.decoders: list = [None] * n
        self.encoders: list = [None] * n
        for nid in range(n):
            if self.is_mem[nid]:
                self.decoders[nid], self.encoders[nid] = _codecs(
                    graph.mem_type[nid])

        self.class_names: list[str] = []
        index: dict[str, int] = {}
        self.cls_ids = [0] * n
        self.gate = [-1] * n
        for nid, cls in enumerate(graph.fu_class):
            ci = index.get(cls)
            if ci is None:
                ci = index[cls] = len(self.class_names)
                self.class_names.append(cls)
            self.cls_ids[nid] = ci
            if kind[nid] == K_LOAD:
                self.gate[nid] = GATE_READ
            elif kind[nid] == K_STORE:
                self.gate[nid] = GATE_WRITE
            elif kind[nid] == K_COMPUTE and not graph.dedicated[nid]:
                self.gate[nid] = GATE_POOL + ci

    def bind(self, args: list) -> tuple[list, list]:
        """``(templates, phi_binds)`` with this run's argument values in
        place.  Only the nodes with argument-fed slots get copies; every
        other entry is the shared table's own, which no run writes to."""
        templates = self.templates
        if self.arg_slots:
            templates = templates.copy()
            for nid, slots in self.arg_slots:
                vals = templates[nid].copy()
                for index, arg in slots:
                    vals[index] = args[arg]
                templates[nid] = vals
        phi_binds = self.phi_binds
        if self.phi_arg_slots:
            phi_binds = phi_binds.copy()
            for nid, slots in self.phi_arg_slots:
                per_pred = dict(phi_binds[nid])
                for pred_bid, arg in slots:
                    per_pred[pred_bid] = ([args[arg]], ())
                phi_binds[nid] = per_pred
        return templates, phi_binds


class SimGraph:
    """The compiled simulation graph: flat per-node arrays.

    Node ids are program-order indices over ``func.blocks`` (identical
    to `StaticNode.index`).  Every array below is indexed by node id.
    """

    # Built lazily once per graph and dropped on pickling: closures do
    # not pickle, and the tables are cheaper to rebuild than to store.
    _evals: Optional[list] = None
    _run_tables: Optional[RunTables] = None

    def __init__(self, iface: LLVMInterface) -> None:
        self.func_name = iface.func.name
        func = iface.func
        cdfg = iface.cdfg
        profile = iface.profile

        insts: list[Instruction] = [i for b in func.blocks for i in b.instructions]
        n = len(insts)
        node_ids = {id(inst): nid for nid, inst in enumerate(insts)}
        self.insts = insts
        self.n_nodes = n
        self.arg_count = len(func.args)
        arg_index = {id(arg): i for i, arg in enumerate(func.args)}

        # -- block tables ------------------------------------------------
        self.block_ids = {b.name: i for i, b in enumerate(func.blocks)}
        self.blocks = [[node_ids[id(i)] for i in b.instructions] for b in func.blocks]
        self.entry_block = self.block_ids[func.entry.name]
        self.block_of = [0] * n
        for bid, nids in enumerate(self.blocks):
            for nid in nids:
                self.block_of[nid] = bid

        # -- per-node kind / FU / latency / energy -----------------------
        self.kind = [K_OTHER] * n
        self.fu_class: list[str] = [FU_NONE] * n
        self.dedicated = [False] * n
        self.pipelined = [True] * n
        self.latency = [0] * n
        self.pool_limit = [0] * n
        self.dyn_energy = [0.0] * n
        self.read_energy = [0.0] * n   # register reads at issue (pJ)
        self.write_energy = [0.0] * n  # register write at commit (pJ)
        self.issue_kind: list[Optional[str]] = [None] * n
        self.produces_value = [False] * n

        # -- operands ----------------------------------------------------
        #: list of descriptors per node; for phis, a dict keyed by
        #: predecessor block id holding the single incoming descriptor.
        self.operands: list = [None] * n
        self.addr_index = [-1] * n  # operand index carrying the address

        # -- memory ------------------------------------------------------
        self.mem_size = [0] * n
        self.mem_type = [None] * n  # value type, for byte conversion
        # Static disambiguation (repro.analysis.memdep): interned root
        # pointer id (-1 = unknown) and constant byte offset (None =
        # symbolic) per access.
        self.mem_root = [-1] * n
        self.mem_offset: list[Optional[int]] = [None] * n

        # -- branches ----------------------------------------------------
        self.br_cond = [False] * n
        self.br_true = [-1] * n
        self.br_false = [-1] * n

        for nid, inst in enumerate(insts):
            node = cdfg.node_for(inst)
            assert node.index == nid
            self.produces_value[nid] = inst.produces_value

            # Operand descriptors (same shapes as RuntimeEngine._operands_for).
            if isinstance(inst, Phi):
                incoming = {}
                for value, pred in inst.incoming:
                    desc = _operand_descriptor(value, node_ids)
                    if desc[0] == SRC_ARG:
                        desc = (SRC_ARG, arg_index[id(desc[1])])
                    # incoming_for returns the first matching edge.
                    incoming.setdefault(self.block_ids[pred.name], desc)
                self.operands[nid] = incoming
            else:
                if isinstance(inst, Branch):
                    raw = [inst.condition] if inst.is_conditional else []
                else:
                    raw = list(inst.operands)
                descs = []
                for operand in raw:
                    desc = _operand_descriptor(operand, node_ids)
                    if desc[0] == SRC_ARG:
                        desc = (SRC_ARG, arg_index[id(desc[1])])
                    descs.append(desc)
                self.operands[nid] = descs

            if isinstance(inst, Load):
                self.kind[nid] = K_LOAD
                self.addr_index[nid] = 0
                self.mem_size[nid] = inst.type.size_bytes()
                self.mem_type[nid] = inst.type
            elif isinstance(inst, Store):
                self.kind[nid] = K_STORE
                self.addr_index[nid] = 1
                self.mem_size[nid] = inst.value.type.size_bytes()
                self.mem_type[nid] = inst.value.type
            elif isinstance(inst, Branch):
                self.kind[nid] = K_BRANCH
                self.br_cond[nid] = inst.is_conditional
                self.br_true[nid] = self.block_ids[inst.true_target.name]
                if inst.is_conditional:
                    self.br_false[nid] = self.block_ids[inst.false_target.name]
            elif isinstance(inst, Ret):
                self.kind[nid] = K_RET
            elif node.is_compute:
                self.kind[nid] = K_COMPUTE

            if node.is_compute:
                spec = profile.spec_for(node.fu_class)
                self.fu_class[nid] = node.fu_class
                self.dedicated[nid] = node.fu_instance is not None
                self.pipelined[nid] = spec.pipelined
                self.latency[nid] = iface.latency_for_class(node.fu_class)
                self.pool_limit[nid] = cdfg.fu_counts.get(node.fu_class, 0)
                self.dyn_energy[nid] = spec.dynamic_energy_pj
                self.issue_kind[nid] = (
                    "fp" if node.fu_class.startswith("fp_") else "int"
                )
                bits = 0
                for operand in inst.operands:
                    if (isinstance(operand, (Instruction, Argument))
                            and operand.type.is_scalar):
                        bits += operand.type.bit_width()
                self.read_energy[nid] = (
                    bits * profile.register.read_energy_pj_per_bit
                )
            if node.result_bits:
                self.write_energy[nid] = (
                    node.result_bits * profile.register.write_energy_pj_per_bit
                )

        self._lower_memdep(iface)

    # ------------------------------------------------------------------
    def _lower_memdep(self, iface: LLVMInterface) -> None:
        """Root/offset facts per access, via `repro.analysis.memdep`."""
        from repro.analysis.memdep import collect_accesses

        node_ids = {id(inst): nid for nid, inst in enumerate(self.insts)}
        roots: dict[int, int] = {}
        for access in collect_accesses(iface.func):
            nid = node_ids.get(id(access.inst))
            if nid is None:
                continue
            base = access.base
            if isinstance(base, Argument):
                root = roots.setdefault(id(base), len(roots))
                self.mem_root[nid] = root
                self.mem_offset[nid] = access.offset
        self.mem_roots_count = len(roots)

    # ------------------------------------------------------------------
    @property
    def evals(self) -> list:
        """Per-node evaluation thunks (``thunk(vals) -> result``)."""
        if self._evals is None:
            self._evals = self._build_evals()
        return self._evals

    @property
    def run_tables(self) -> RunTables:
        """The scheduler's run-invariant per-node tables (`RunTables`)."""
        if self._run_tables is None:
            self._run_tables = RunTables(self)
        return self._run_tables

    def _build_evals(self) -> list:
        """Per-node thunks, specialized for the hot opcodes.

        Specializations compute *the same function* as the
        `repro.ir.semantics` helpers (inlined constant masks / signed
        reinterpretation / precomputed GEP strides), so results remain
        bit-identical; anything uncommon falls back to the shared
        helpers.  This is the single hottest code in the graph backend —
        one thunk call per issued value-producing instruction.
        """
        evals: list = [None] * self.n_nodes
        for nid, inst in enumerate(self.insts):
            reason = trap_reason(inst)
            if reason is not None:
                evals[nid] = _trap_eval(reason)
            elif isinstance(inst, BinaryOp):
                evals[nid] = _binop_eval(inst)
            elif isinstance(inst, ICmp):
                evals[nid] = _icmp_eval(inst)
            elif isinstance(inst, FCmp):
                evals[nid] = (lambda v, p=inst.pred: eval_fcmp(p, v[0], v[1]))
            elif isinstance(inst, Select):
                evals[nid] = lambda v: v[1] if v[0] else v[2]
            elif isinstance(inst, Cast):
                evals[nid] = _cast_eval(inst)
            elif isinstance(inst, GetElementPtr):
                evals[nid] = _gep_eval(inst)
            elif isinstance(inst, Phi):
                evals[nid] = lambda v: v[0]
            elif isinstance(inst, Call):
                evals[nid] = (lambda v, callee=inst.callee, t=inst.type:
                              eval_intrinsic(callee, t, list(v)))
            else:
                evals[nid] = None  # load/store/branch/ret: no value thunk
        return evals

    # -- pickling ------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_evals", None)
        state.pop("_run_tables", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimGraph {self.func_name} {self.n_nodes} nodes, "
                f"{len(self.blocks)} blocks>")


def graph_key(design) -> str:
    """Content address for a compiled graph.

    Covers everything lowering reads: the module text (via
    `module_fingerprint`), the kernel name, the datapath side of the
    device config (FU limits, latency overrides, window, clock), the
    hardware profile, and the lowering format version.  Deliberately
    *not* the engine choice — graphs are engine-internal, and run-cache
    keys stay engine-agnostic (byte-identical results make the engines
    interchangeable).  Also deliberately not the memory-side config
    fields (`repro.exec.params.CONFIG_MEMORY_FIELDS`): lowering never
    reads them (`GraphScheduler` consults the live config at run time),
    so every point of a memory-only sweep shares one stored graph.
    """
    from repro.build.artifact import module_fingerprint
    from repro.exec.params import split_device_config

    iface = design.iface if hasattr(design, "iface") else design
    profile = iface.profile
    datapath_config, _memory_config = split_device_config(iface.config)
    payload = {
        "version": GRAPH_FORMAT_VERSION,
        "module": module_fingerprint(iface.module),
        "func": iface.func.name,
        "config": datapath_config,
        "profile": {
            "name": profile.name,
            "units": {name: asdict(spec) for name, spec in sorted(profile.units.items())},
            "register": asdict(profile.register),
            "cycle_time_ns": profile.cycle_time_ns,
        },
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    return f"graph:{digest}"


def compile_graph(design) -> SimGraph:
    """Lower an `ElaboratedDesign` (or bare `LLVMInterface`) to a
    `SimGraph`.  Lowering is total: an alloca or a call that survived
    inlining becomes a trap node, which raises the dynamic engine's
    `EngineError` when it issues (see `trap_reason`)."""
    iface = design.iface if hasattr(design, "iface") else design
    if not isinstance(iface, LLVMInterface):
        raise TypeError(f"cannot compile {design!r} to a SimGraph")
    return SimGraph(iface)
