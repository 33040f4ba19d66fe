"""The three producer-consumer integration scenarios of Fig. 16.

One CNN layer (3x3 conv -> ReLU -> 2x2 max-pool) mapped onto three
accelerators, integrated three ways:

* ``private`` (Fig. 16a, the baseline): each accelerator owns a private
  SPM; the host moves data between stages with the cluster DMA and
  synchronizes every stage via MMR writes + interrupts — the only
  semantics gem5-Aladdin supports.
* ``shared`` (Fig. 16b): one shared scratchpad; inter-stage copies
  disappear but a central controller (the host) still starts each stage
  and waits for its interrupt — the PARADE-style model.
* ``stream`` (Fig. 16c): accelerators talk through stream buffers with
  a two-way handshake; all three stages and both stream DMAs start once
  and the pipeline self-synchronizes — the integration style only
  gem5-SALAM can model.

Each scenario returns the end-to-end time and verifies the final 7x7
output against the golden model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DeviceConfig
from repro.core.mmr import ARGS_OFFSET, CTRL_IRQ_EN, CTRL_START
from repro.build.pipeline import build_module
from repro.hw.default_profile import default_profile
from repro.mem.stream_port import StreamPort
from repro.sim.simobject import AddrRange
from repro.system.soc import build_soc
from repro.workloads.cnn import (
    CONV,
    CONV_SOURCE,
    CONV_STREAM_SOURCE,
    IN,
    POOL,
    POOL_SOURCE,
    POOL_STREAM_SOURCE,
    RELU_SOURCE,
    RELU_STREAM_SOURCE,
    golden_layer,
)

# Platform tuning: a modest embedded-style memory system so data
# movement is a visible fraction of end-to-end time, as in the paper's
# FPGA-class platform.
_DRAM_KWARGS = dict(bytes_per_cycle=1, latency_cycles=100, row_hit_latency_cycles=30)
_ACC_CLOCK_HZ = 100e6
# Host driver overheads at 1.2 GHz: a bare MMR poke is ~100 ns, while
# interrupt service and the DMA driver pay a ~2 us user/kernel round
# trip — the control costs the paper's ARM host pays per stage.
_HOST_OP_OVERHEADS = {
    "write_mmr": 120,
    "read_mmr": 120,
    "wait_irq": 2400,
    "dma_copy": 2400,
    "start_stream": 600,
    "wait_stream": 600,
}


@dataclass
class ScenarioResult:
    name: str
    total_ns: float
    acc_cycles: dict[str, int]
    verified: bool
    sanitizer: dict | None = None
    #: The live platform, for post-run analysis (``soc.lint()`` sees the
    #: recorded op/launch logs).  Excluded from repr/comparison.
    soc: object | None = field(default=None, repr=False, compare=False)

    @property
    def total_us(self) -> float:
        return self.total_ns / 1e3


def _start_acc(host, mmr_base, args):
    """Driver fragment: program args, set START+IRQ_EN."""
    for i, value in enumerate(args):
        yield host.write_mmr(mmr_base + ARGS_OFFSET + 8 * i, value)
    yield host.write_mmr(mmr_base, CTRL_START | CTRL_IRQ_EN)


def _build_platform(rng, observers, engine):
    soc = build_soc(dram_size=1 << 20, host_op_overhead_cycles=_HOST_OP_OVERHEADS,
                    engine=engine)
    for observer in observers:
        if observer is not None:
            soc.system.attach_probe(observer)
    soc.dram.bytes_per_cycle = _DRAM_KWARGS["bytes_per_cycle"]
    soc.dram.latency_cycles = _DRAM_KWARGS["latency_cycles"]
    soc.dram.row_hit_latency_cycles = _DRAM_KWARGS["row_hit_latency_cycles"]
    image = rng.uniform(-1.0, 1.0, (IN, IN))
    kernel = rng.uniform(-1.0, 1.0, 9)
    __, __, pool_golden = golden_layer(image, kernel)
    d_image = soc.dram.image.alloc_array(image)
    d_kernel = soc.dram.image.alloc_array(kernel)
    d_out = soc.dram.image.alloc(POOL * POOL * 8)
    return soc, image, kernel, pool_golden, d_image, d_kernel, d_out


def _finish(soc, name, units, d_out, golden, sanitizer) -> ScenarioResult:
    sim = soc.simulation()
    cause = sim.run(max_tick=10_000_000_000)
    if not soc.host.finished:
        raise RuntimeError(f"scenario '{name}' did not finish ({cause})")
    out = soc.dram.image.read_array(d_out, np.float64, POOL * POOL)
    verified = bool(np.allclose(out, golden.ravel(), rtol=1e-9, atol=1e-12))
    return ScenarioResult(
        name=name,
        total_ns=soc.host.finish_tick / 1000.0,
        acc_cycles={u.name: u.engine.total_cycles for u in units},
        verified=verified,
        sanitizer=sanitizer.summary() if sanitizer is not None else None,
        soc=soc,
    )


def _acc_config():
    return DeviceConfig(clock_freq_hz=_ACC_CLOCK_HZ, read_ports=4, write_ports=2)


#: Per-process artifact store: the three scenarios share conv/relu/pool
#: kernels, so after the first platform build every compile is a hit.
_KERNEL_STORE = None


def _compile(source: str, name: str):
    """Compile one CNN stage kernel through the shared build pipeline."""
    global _KERNEL_STORE
    if _KERNEL_STORE is None:
        from repro.build.store import ArtifactStore

        _KERNEL_STORE = ArtifactStore()
    return build_module(source, name, store=_KERNEL_STORE).module


# ---------------------------------------------------------------------------
def run_private_spm(seed: int = 7, trace_hub=None, sanitizer=None,
                    engine: str = "graph") -> ScenarioResult:
    """Fig. 16a: private SPMs, DMA between stages, host-synchronized."""
    rng = np.random.default_rng(seed)
    soc, image, kernel, golden, d_image, d_kernel, d_out = _build_platform(
        rng, (trace_hub, sanitizer), engine)
    cluster = soc.add_cluster("cl")
    profile = default_profile()
    conv = cluster.add_accelerator(
        "conv", _compile(CONV_SOURCE, "conv"), "conv2d", profile,
        config=_acc_config(), private_spm_bytes=1 << 13,
        spm_read_ports=4,
    )
    relu = cluster.add_accelerator(
        "relu", _compile(RELU_SOURCE, "relu"), "relu", profile,
        config=_acc_config(), private_spm_bytes=1 << 13,
        spm_read_ports=4,
    )
    pool = cluster.add_accelerator(
        "pool", _compile(POOL_SOURCE, "pool"), "maxpool", profile,
        config=_acc_config(), private_spm_bytes=1 << 13,
        spm_read_ports=4,
    )
    for i, unit in enumerate((conv, relu, pool)):
        unit.comm.connect_irq(soc.irq.line(i))
    soc.finalize()

    conv_spm = conv.private_spm.range.start
    relu_spm = relu.private_spm.range.start
    pool_spm = pool.private_spm.range.start
    image_bytes = IN * IN * 8
    conv_out_bytes = CONV * CONV * 8
    pool_out_bytes = POOL * POOL * 8
    s_image, s_kernel, s_conv_out = conv_spm, conv_spm + image_bytes, conv_spm + image_bytes + 128
    s_relu_in, s_relu_out = relu_spm, relu_spm + conv_out_bytes
    s_pool_in, s_pool_out = pool_spm, pool_spm + conv_out_bytes
    host = soc.host
    dma = cluster.dma

    def driver(h):
        yield h.dma_copy(dma, d_image, s_image, image_bytes)
        yield h.dma_copy(dma, d_kernel, s_kernel, 72)
        yield from _start_acc(h, conv.comm.mmr.range.start,
                              [s_image, s_kernel, s_conv_out])
        yield h.wait_irq(0)
        yield h.dma_copy(dma, s_conv_out, s_relu_in, conv_out_bytes)
        yield from _start_acc(h, relu.comm.mmr.range.start, [s_relu_in, s_relu_out])
        yield h.wait_irq(1)
        yield h.dma_copy(dma, s_relu_out, s_pool_in, conv_out_bytes)
        yield from _start_acc(h, pool.comm.mmr.range.start, [s_pool_in, s_pool_out])
        yield h.wait_irq(2)
        yield h.dma_copy(dma, s_pool_out, d_out, pool_out_bytes)

    host.run_driver(driver(host))
    return _finish(soc, "private_spm", (conv, relu, pool), d_out, golden,
                   sanitizer)


# ---------------------------------------------------------------------------
def run_shared_spm(seed: int = 7, trace_hub=None, sanitizer=None,
                   engine: str = "graph") -> ScenarioResult:
    """Fig. 16b: shared scratchpad, central-controller synchronization."""
    rng = np.random.default_rng(seed)
    soc, image, kernel, golden, d_image, d_kernel, d_out = _build_platform(
        rng, (trace_hub, sanitizer), engine)
    cluster = soc.add_cluster("cl", shared_spm_bytes=1 << 14)
    profile = default_profile()
    units = []
    sources = [
        ("conv", CONV_SOURCE, "conv2d"),
        ("relu", RELU_SOURCE, "relu"),
        ("pool", POOL_SOURCE, "maxpool"),
    ]
    for i, (name, source, func) in enumerate(sources):
        unit = cluster.add_accelerator(
            name, _compile(source, name), func, profile, config=_acc_config()
        )
        # No private SPM: all operands live in the shared scratchpad.
        cluster.route_to_global(unit, cluster.shared_spm.range)
        unit.comm.connect_irq(soc.irq.line(i))
        units.append(unit)
    conv, relu, pool = units
    soc.finalize()

    base = cluster.shared_spm.range.start
    image_bytes = IN * IN * 8
    conv_out_bytes = CONV * CONV * 8
    pool_out_bytes = POOL * POOL * 8
    s_image, s_kernel = base, base + image_bytes
    s_conv_out = s_kernel + 128
    s_relu_out = s_conv_out + conv_out_bytes
    s_pool_out = s_relu_out + conv_out_bytes
    host = soc.host
    dma = cluster.dma

    def driver(h):
        yield h.dma_copy(dma, d_image, s_image, image_bytes)
        yield h.dma_copy(dma, d_kernel, s_kernel, 72)
        yield from _start_acc(h, conv.comm.mmr.range.start,
                              [s_image, s_kernel, s_conv_out])
        yield h.wait_irq(0)
        yield from _start_acc(h, relu.comm.mmr.range.start, [s_conv_out, s_relu_out])
        yield h.wait_irq(1)
        yield from _start_acc(h, pool.comm.mmr.range.start, [s_relu_out, s_pool_out])
        yield h.wait_irq(2)
        yield h.dma_copy(dma, s_pool_out, d_out, pool_out_bytes)

    host.run_driver(driver(host))
    return _finish(soc, "shared_spm", units, d_out, golden, sanitizer)


# ---------------------------------------------------------------------------
def run_stream(seed: int = 7, trace_hub=None, sanitizer=None,
               engine: str = "graph") -> ScenarioResult:
    """Fig. 16c: direct accelerator-to-accelerator streaming."""
    rng = np.random.default_rng(seed)
    soc, image, kernel, golden, d_image, d_kernel, d_out = _build_platform(
        rng, (trace_hub, sanitizer), engine)
    cluster = soc.add_cluster("cl")
    profile = default_profile()

    buf_in = cluster.add_stream_buffer("buf_in", capacity_tokens=32)
    buf_cr = cluster.add_stream_buffer("buf_cr", capacity_tokens=32)
    buf_rp = cluster.add_stream_buffer("buf_rp", capacity_tokens=32)
    buf_out = cluster.add_stream_buffer("buf_out", capacity_tokens=32)

    conv = cluster.add_accelerator(
        "conv", _compile(CONV_STREAM_SOURCE, "conv"), "conv2d_stream", profile,
        config=_acc_config(), private_spm_bytes=1 << 12,
    )
    relu = cluster.add_accelerator(
        "relu", _compile(RELU_STREAM_SOURCE, "relu"), "relu_stream", profile,
        config=_acc_config(),
    )
    pool = cluster.add_accelerator(
        "pool", _compile(POOL_STREAM_SOURCE, "pool"), "maxpool_stream", profile,
        config=_acc_config(), private_spm_bytes=1 << 12,
    )
    for i, unit in enumerate((conv, relu, pool)):
        unit.comm.connect_irq(soc.irq.line(i))

    # Stream windows, one address per endpoint.
    stream_base = 0x9000_0000
    ports = {}
    for j, (name, buffer) in enumerate(
        [("conv_in", buf_in), ("conv_out", buf_cr), ("relu_in", buf_cr),
         ("relu_out", buf_rp), ("pool_in", buf_rp), ("pool_out", buf_out)]
    ):
        port = StreamPort(f"sp_{name}", soc.system, buffer, base=stream_base + 0x100 * j)
        ports[name] = port
    conv.comm.add_memory_route(ports["conv_in"].range, ports["conv_in"].port, "sin", strict=True)
    conv.comm.add_memory_route(ports["conv_out"].range, ports["conv_out"].port, "sout", strict=True)
    relu.comm.add_memory_route(ports["relu_in"].range, ports["relu_in"].port, "sin", strict=True)
    relu.comm.add_memory_route(ports["relu_out"].range, ports["relu_out"].port, "sout", strict=True)
    pool.comm.add_memory_route(ports["pool_in"].range, ports["pool_in"].port, "sin", strict=True)
    pool.comm.add_memory_route(ports["pool_out"].range, ports["pool_out"].port, "sout", strict=True)

    feeder = cluster.add_stream_dma("feed", buf_in, "mem_to_stream")
    drainer = cluster.add_stream_dma("drain", buf_out, "stream_to_mem")
    soc.finalize()

    conv_spm = conv.private_spm.range.start
    s_kernel = conv_spm + 4 * IN * 8 + 64
    pool_rowbuf = pool.private_spm.range.start
    host = soc.host

    def driver(h):
        yield h.dma_copy(cluster.dma, d_kernel, s_kernel, 72)
        # Start the whole pipeline at once: no central synchronization.
        yield from _start_acc(h, conv.comm.mmr.range.start,
                              [ports["conv_in"].range.start,
                               ports["conv_out"].range.start,
                               conv_spm, s_kernel])
        yield from _start_acc(h, relu.comm.mmr.range.start,
                              [ports["relu_in"].range.start,
                               ports["relu_out"].range.start])
        yield from _start_acc(h, pool.comm.mmr.range.start,
                              [ports["pool_in"].range.start,
                               ports["pool_out"].range.start,
                               pool_rowbuf])
        yield h.start_stream(feeder, d_image, IN * IN)
        yield h.start_stream(drainer, d_out, POOL * POOL)
        yield h.wait_irq(2)          # pool finishes last
        yield h.wait_stream(drainer)

    host.run_driver(driver(host))
    return _finish(soc, "stream", (conv, relu, pool), d_out, golden, sanitizer)


#: Name -> runner registry, the lookup surface for ``repro analyze
#: --scenario`` and the serve workers.
SCENARIOS = {
    "private_spm": run_private_spm,
    "shared_spm": run_shared_spm,
    "stream": run_stream,
}


def run_all_scenarios(seed: int = 7) -> dict[str, ScenarioResult]:
    """Run the three Fig. 16 scenarios and report speedups vs baseline."""
    return {name: runner(seed) for name, runner in SCENARIOS.items()}
