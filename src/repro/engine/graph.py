"""Graph lowering: `compile_graph(ElaboratedDesign) -> SimGraph`.

The frontend half of the graph-compiled execution backend.  Instead of
re-deriving operand sources, functional-unit bindings, latencies, and
memory-disambiguation facts per dynamic instruction (what the dynamic
`RuntimeEngine` does every cycle), this stage walks the elaborated
function **once** and flattens everything the scheduler needs into
parallel arrays indexed by node id:

* operand templates with constants in place, and bindings for the
  producer- and argument-fed slots — replacing per-instance
  `isinstance` dispatch over `Value` subclasses;
* per-node evaluation thunks that close over the *same*
  `repro.ir.semantics` helpers the dynamic engine calls, so values (and
  therefore every downstream address and branch decision) are exactly
  identical;
* FU class, pipelining, latency, and energy constants resolved
  through the hardware profile and the device config's latency
  overrides;
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
run and sweep point of a process that shares its module, profile and
the datapath side of its config: the content-addressed `ArtifactStore`
(kind ``"graph"``) holds it decoded and hands the same object to every
hit.  Lowering reads the function's `ElaborationRecord` directly (node
id = record index) and builds, in one pass over the instructions, the
tables the scheduler runs on (operand templates, FU classes, memdep
facts).  A run binds its argument values (`SimGraph.bind`) and its FU
limits (`SimGraph.fu_binding`: which classes are pooled, pool sizes,
issue gates), so the graph and its key are the same under every FU
limit.  The tables are plain data and pickle with the graph for the
store's disk mirror; closures (the eval thunks and memory codecs) and
the per-limits bindings are dropped on pickling and rebuilt lazily.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict
from typing import Optional

from repro.analysis.memdep import resolve_pointer
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
#: stored graph.  v3: the scheduler's operand templates, bindings, FU
#: class ids and gates are built at lowering and pickle with the graph,
#: replacing the operand descriptors.  v4: the unread per-node
#: ``fu_class`` list left the graph; lowering reads the record's.  v5:
#: FU limits left the key; the per-node ``dedicated``, ``pool_limit``
#: and ``gate`` lists left the graph for `SimGraph.fu_binding`.  v6:
#: the key holds only the latency overrides of the config: ``name``,
#: ``reservation_window`` and the clock left it, lowering reads none.)
GRAPH_FORMAT_VERSION = 6

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
# id``).  Dedicated units and every other op have no gate (-1).  Which
# compute ops are pooled depends on the run's FU limits
# (`SimGraph.fu_binding`).
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


def _value_codecs(t):
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


class SimGraph:
    """The compiled simulation graph: flat per-node arrays.

    Node ids are program-order indices over ``func.blocks``, the order
    of the `ElaborationRecord`'s tuples.  Every array below is indexed
    by node id.  Besides the kind, FU, latency, energy, memory and
    branch arrays, lowering builds the tables `GraphScheduler` runs on:

    * ``templates[nid]`` — a non-phi node's operand values, constants
      filled in, ``None`` at argument- and producer-fed slots;
      ``dep_binds[nid]`` lists its producer-fed slots as ``(index,
      producer_nid, is_addr)``.  Both are ``None`` for a phi, whose
      ``phi_binds[nid]`` maps a predecessor block id to ``(template,
      dep_binds)`` for its one incoming value.
    * ``arg_slots`` / ``phi_arg_slots`` — ``(nid, ((slot, arg_index),
      ...))`` for the nodes `bind` must copy: ``slot`` is an operand
      index, or a predecessor block id for a phi.
    * ``is_mem`` — loads and stores; ``mem_root`` / ``mem_offset`` —
      each access's interned root pointer argument (-1 = unknown) and
      constant byte offset (None = symbolic), via
      `repro.analysis.memdep.resolve_pointer`.
    * ``class_names`` / ``cls_ids`` — FU classes interned to small ints
      in node order, and each node's class id.

    Nothing here depends on FU limits, and the graph key leaves them
    out: one lowering serves every FU-limit point of a sweep.  A run
    binds its limits with `fu_binding`.
    """

    # Closures do not pickle: built lazily once per graph, dropped on
    # pickling and rebuilt on first use.  So are the per-limits
    # bindings (``_fu_bindings``), so a stored graph holds no
    # limit-dependent table.
    _evals: Optional[list] = None
    _codecs: Optional[tuple] = None

    def __init__(self, iface: LLVMInterface) -> None:
        self.func_name = iface.func.name
        func = iface.func
        record = iface.cdfg.checked_record()
        profile = iface.profile
        read_pj_per_bit = profile.register.read_energy_pj_per_bit
        write_pj_per_bit = profile.register.write_energy_pj_per_bit

        insts: list[Instruction] = [i for b in func.blocks for i in b.instructions]
        n = len(insts)
        node_ids = {id(inst): nid for nid, inst in enumerate(insts)}
        self.insts = insts
        self.n_nodes = n
        self.arg_count = len(func.args)
        arg_index = {id(arg): i for i, arg in enumerate(func.args)}

        # -- block tables ------------------------------------------------
        block_ids = {b.name: i for i, b in enumerate(func.blocks)}
        self.blocks = [[node_ids[id(i)] for i in b.instructions] for b in func.blocks]
        self.entry_block = block_ids[func.entry.name]
        self.block_of = [0] * n
        for bid, nids in enumerate(self.blocks):
            for nid in nids:
                self.block_of[nid] = bid

        # -- per-node kind / FU / latency / energy -----------------------
        self.kind = [K_OTHER] * n
        self.pipelined = [True] * n
        self.latency = [0] * n
        self.dyn_energy = [0.0] * n
        self.read_energy = [0.0] * n   # register reads at issue (pJ)
        self.write_energy = [0.0] * n  # register write at commit (pJ)
        self.issue_kind: list[Optional[str]] = [None] * n
        self.produces_value = [inst.produces_value for inst in insts]
        self.class_names: list[str] = []
        self.cls_ids = [0] * n

        # -- operands ----------------------------------------------------
        self.templates: list = [None] * n
        self.dep_binds: list = [None] * n
        self.phi_binds: list = [None] * n
        self.arg_slots: list = []
        self.phi_arg_slots: list = []
        self.addr_index = [-1] * n  # operand index carrying the address

        # -- memory ------------------------------------------------------
        self.is_mem = [False] * n
        self.mem_size = [0] * n
        self.mem_type = [None] * n  # value type, for byte conversion
        self.mem_root = [-1] * n
        self.mem_offset: list[Optional[int]] = [None] * n

        # -- branches ----------------------------------------------------
        self.br_cond = [False] * n
        self.br_true = [-1] * n
        self.br_false = [-1] * n

        def lower(operand, index: int, vals: list, deps: list, args: list,
                  is_addr: bool) -> None:
            """Place one operand (same binding as
            `RuntimeEngine._bind_operand`): a constant into ``vals``, an
            argument into ``args``, a producer into ``deps``."""
            if isinstance(operand, Constant):
                vals[index] = operand.value
            elif isinstance(operand, Argument):
                args.append((index, arg_index[id(operand)]))
            elif isinstance(operand, Instruction):
                producer = node_ids.get(id(operand))
                if producer is None:
                    # Defined outside the function: never fetched, so
                    # the dynamic engine binds it to 0.
                    vals[index] = 0
                else:
                    deps.append((index, producer, is_addr))
            else:
                raise TypeError(f"cannot lower operand {operand!r}")

        class_ids: dict[str, int] = {}
        roots: dict[int, int] = {}
        for nid, inst in enumerate(insts):
            cls = record.fu_class[nid]
            ci = class_ids.get(cls)
            if ci is None:
                ci = class_ids[cls] = len(self.class_names)
                self.class_names.append(cls)
            self.cls_ids[nid] = ci

            if isinstance(inst, (Load, Store)):
                is_load = isinstance(inst, Load)
                value_type = inst.type if is_load else inst.value.type
                self.kind[nid] = K_LOAD if is_load else K_STORE
                self.addr_index[nid] = 0 if is_load else 1
                self.is_mem[nid] = True
                self.mem_size[nid] = value_type.size_bytes()
                self.mem_type[nid] = value_type
                base, offset = resolve_pointer(inst.pointer)
                if isinstance(base, Argument):
                    self.mem_root[nid] = roots.setdefault(id(base), len(roots))
                    self.mem_offset[nid] = offset
            elif isinstance(inst, Branch):
                self.kind[nid] = K_BRANCH
                self.br_cond[nid] = inst.is_conditional
                self.br_true[nid] = block_ids[inst.true_target.name]
                if inst.is_conditional:
                    self.br_false[nid] = block_ids[inst.false_target.name]
            elif isinstance(inst, Ret):
                self.kind[nid] = K_RET
            elif cls != FU_NONE:
                self.kind[nid] = K_COMPUTE

            # Operands (same shapes as RuntimeEngine._operands_for).
            if isinstance(inst, Phi):
                per_pred = {}
                phi_args = []
                for value, pred in inst.incoming:
                    pred_bid = block_ids[pred.name]
                    if pred_bid in per_pred:
                        continue  # incoming_for returns the first matching edge
                    vals, deps, args = [None], [], []
                    lower(value, 0, vals, deps, args, False)
                    per_pred[pred_bid] = (vals, tuple(deps))
                    if args:
                        phi_args.append((pred_bid, args[0][1]))
                self.phi_binds[nid] = per_pred
                if phi_args:
                    self.phi_arg_slots.append((nid, tuple(phi_args)))
            else:
                if isinstance(inst, Branch):
                    raw = [inst.condition] if inst.is_conditional else []
                else:
                    raw = inst.operands
                aidx = self.addr_index[nid]
                vals, deps, args = [None] * len(raw), [], []
                for index, operand in enumerate(raw):
                    lower(operand, index, vals, deps, args, index == aidx)
                self.templates[nid] = vals
                self.dep_binds[nid] = tuple(deps)
                if args:
                    self.arg_slots.append((nid, tuple(args)))

            if cls != FU_NONE:
                spec = profile.spec_for(cls)
                self.pipelined[nid] = spec.pipelined
                self.latency[nid] = iface.latency_for_class(cls)
                self.dyn_energy[nid] = spec.dynamic_energy_pj
                self.issue_kind[nid] = "fp" if cls.startswith("fp_") else "int"
                bits = 0
                for operand in inst.operands:
                    if (isinstance(operand, (Instruction, Argument))
                            and operand.type.is_scalar):
                        bits += operand.type.bit_width()
                self.read_energy[nid] = bits * read_pj_per_bit
            if record.result_bits[nid]:
                self.write_energy[nid] = record.result_bits[nid] * write_pj_per_bit

    def bind(self, args: list) -> tuple[list, list]:
        """``(templates, phi_binds)`` with this run's argument values in
        place.  Only the nodes with argument-fed slots get copies; every
        other entry is the graph's own, which no run writes to."""
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

    def fu_binding(self, cdfg) -> tuple[list, list]:
        """``(gate, units)`` under ``cdfg``'s FU limits: each compute
        node's pool gate (``GATE_POOL + class id`` when its class is
        limited, so pooled; -1 for a dedicated unit and every other
        node — loads and stores wait on ``GATE_READ``/``GATE_WRITE``)
        and each class id's unit count (``cdfg.fu_counts``).  Built once
        per distinct limits on the graph's classes and shared by every
        run under them."""
        names = self.class_names
        limits = cdfg.fu_limits
        key = tuple(limits.get(name) for name in names)
        # Units on several threads may share the graph: both setdefault
        # calls are atomic, so every run under ``key`` gets one binding.
        bindings = self.__dict__.setdefault("_fu_bindings", {})
        binding = bindings.get(key)
        if binding is None:
            pooled = [GATE_POOL + ci if name in limits else -1
                      for ci, name in enumerate(names)]
            gate = [pooled[ci] if k == K_COMPUTE else -1
                    for k, ci in zip(self.kind, self.cls_ids)]
            counts = cdfg.fu_counts
            binding = bindings.setdefault(
                key, (gate, [counts.get(name, 0) for name in names]))
        return binding

    # ------------------------------------------------------------------
    @property
    def evals(self) -> list:
        """Per-node evaluation thunks (``thunk(vals) -> result``)."""
        if self._evals is None:
            self._evals = self._build_evals()
        return self._evals

    @property
    def codecs(self) -> tuple[list, list]:
        """``(decoders, encoders)``: each memory access's value codecs
        (`_value_codecs`), ``None`` for every other node."""
        if self._codecs is None:
            decoders: list = [None] * self.n_nodes
            encoders: list = [None] * self.n_nodes
            for nid, value_type in enumerate(self.mem_type):
                if value_type is not None:
                    decoders[nid], encoders[nid] = _value_codecs(value_type)
            self._codecs = decoders, encoders
        return self._codecs

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
        state.pop("_codecs", None)
        state.pop("_fu_bindings", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimGraph {self.func_name} {self.n_nodes} nodes, "
                f"{len(self.blocks)} blocks>")


def graph_key(design) -> str:
    """Content address for a compiled graph.

    Covers everything lowering reads: the module text (via
    `module_fingerprint`), the kernel name, the device config's latency
    overrides (`LLVMInterface.latency_for_class`), the hardware profile
    (clock included), and the lowering format version.  Deliberately
    *not* the engine choice — graphs are engine-internal, and run-cache
    keys stay engine-agnostic (byte-identical results make the engines
    interchangeable).  Also deliberately not any other config field:
    the memory side, the FU limits, the reservation window and the
    config's name are read by the scheduler from the live config (the
    limits bound at run time, `SimGraph.fu_binding`), so every point of
    a sweep over them shares one stored graph.  A config field lowering
    starts to read must join this payload, with a version bump.
    """
    from repro.build.artifact import module_fingerprint

    iface = design.iface if hasattr(design, "iface") else design
    profile = iface.profile
    payload = {
        "version": GRAPH_FORMAT_VERSION,
        "module": module_fingerprint(iface.module),
        "func": iface.func.name,
        "latency_overrides": iface.config.latency_overrides,
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
