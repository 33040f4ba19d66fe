#!/usr/bin/env python
"""Quickstart: model one accelerator end to end.

Write the accelerator as a C function, pick a memory configuration,
stage data, run, and read back timing / power / area / occupancy — the
whole gem5-SALAM flow in ~40 lines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import DeviceConfig, StandaloneAccelerator

KERNEL = """
void saxpy(double x[256], double y[256], double alpha_arr[1]) {
  double alpha = alpha_arr[0];
  #pragma unroll 4
  for (int i = 0; i < 256; i++) {
    y[i] = alpha * x[i] + y[i];
  }
}
"""


def main() -> None:
    config = DeviceConfig(
        clock_freq_hz=100e6,   # 10 ns accelerator cycle
        read_ports=4,          # memory issue widths
        write_ports=2,
    )
    acc = StandaloneAccelerator(
        KERNEL, "saxpy", config=config, memory="spm", spm_bytes=1 << 13,
        spm_read_ports=4, spm_write_ports=2,
    )

    rng = np.random.default_rng(42)
    x = rng.uniform(-1.0, 1.0, 256)
    y = rng.uniform(-1.0, 1.0, 256)
    alpha = np.array([2.5])
    px, py, pa = acc.alloc_array(x), acc.alloc_array(y), acc.alloc_array(alpha)

    result = acc.run([px, py, pa])

    out = acc.read_array(py, np.float64, 256)
    assert np.allclose(out, 2.5 * x + y), "simulation produced wrong data!"

    print("kernel verified against NumPy")
    print(f"cycles          : {result.cycles}")
    print(f"runtime         : {result.runtime_ns / 1e3:.2f} us")
    print(f"total power     : {result.power.total_mw:.3f} mW")
    print(f"datapath area   : {result.area.datapath_um2 / 1e3:.1f} kum^2")
    print(f"functional units: {result.fu_counts}")
    print(f"issue fraction  : {result.occupancy.issue_fraction():.2%}")
    print(f"stall fraction  : {result.occupancy.stall_fraction():.2%}")
    print("\npower breakdown (% of total):")
    for category, share in result.power.breakdown_percent().items():
        print(f"  {category:28s} {share:6.2f}%")

    # The same lifecycle, packaged: `repro.exec.SimContext` owns the
    # build -> stage -> run -> collect phases — that's the API the
    # sweeps, the CLI, and the benchmarks go through.
    from repro.exec import SimContext

    def stage(acc):
        return [acc.alloc_array(x), acc.alloc_array(y), acc.alloc_array(alpha)]

    ctx = SimContext.from_source(
        KERNEL, "saxpy", stage, config=config, memory="spm",
        spm_bytes=1 << 13, spm_read_ports=4, spm_write_ports=2,
    )
    assert ctx.run().cycles == result.cycles
    print("\nexecution-layer SimContext reproduces the run exactly")


if __name__ == "__main__":
    main()
