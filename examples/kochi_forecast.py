#!/usr/bin/env python3
"""Operational-style forecast: Okada fault source -> nested inundation run.

Mirrors the operational pipeline the paper's system executes after an
earthquake: estimate a fault model (here: a preset Nankai-like multi-
segment thrust scaled to the mini domain), convert the co-seismic seafloor
displacement into the initial water level, run the nested simulation, and
report per-level forecast products.

Run:  python examples/kochi_forecast.py
"""

import numpy as np

from repro.core import RTiModel, SimulationConfig
from repro.core.gauges import GaugeRecorder
from repro.damage import assess_damage
from repro.fault import OkadaFault
from repro.fault.scenarios import moment_magnitude
from repro.topo import build_mini_kochi


def mini_fault_scenario() -> list[OkadaFault]:
    """A two-segment offshore thrust sized for the 29 x 36 km mini domain."""
    return [
        OkadaFault(
            x0=3_500.0, y0=20_000.0, depth_top=2_000.0,
            strike_deg=90.0, dip_deg=12.0, rake_deg=90.0,
            slip=2.5, length=5_000.0, width=5_000.0,
        ),
        OkadaFault(
            x0=6_500.0, y0=21_000.0, depth_top=2_500.0,
            strike_deg=90.0, dip_deg=12.0, rake_deg=90.0,
            slip=1.8, length=5_000.0, width=5_000.0,
        ),
    ]


def main() -> None:
    mk = build_mini_kochi()
    faults = mini_fault_scenario()
    print(f"Fault model: {len(faults)} segments, "
          f"Mw = {moment_magnitude(faults):.2f}")

    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(faults)

    print(f"initial max eta: {model.max_eta():.2f} m")

    # Virtual tide gauges: one on the open shelf, one in the 10 m nest.
    gauges = GaugeRecorder(
        model,
        [("shelf", 5_000.0, 12_000.0), ("harbor", 3_000.0, 9_200.0)],
        every=50,
    )
    horizon = 3000  # five simulated minutes
    model.run(horizon, monitor=gauges)

    print("\nPer-level forecast products:")
    print(f"{'level':>5} {'dx':>6} {'zmax [m]':>9} {'vmax':>6} "
          f"{'inundated [m^2]':>16} {'first arrival [s]':>18}")
    for lvl in mk.grid.levels:
        zmax = vmax = 0.0
        area = 0.0
        first = float("inf")
        for blk in lvl.blocks:
            acc = model.outputs[blk.block_id]
            zmax = max(zmax, float(acc.zmax.max()))
            vmax = max(vmax, float(acc.vmax.max()))
            area += acc.inundated_area(lvl.dx)
            finite = acc.arrival_time[np.isfinite(acc.arrival_time)]
            if finite.size:
                first = min(first, float(finite.min()))
        arrival = f"{first:18.1f}" if np.isfinite(first) else f"{'-':>18}"
        print(f"{lvl.index:>5} {lvl.dx:>6.0f} {zmax:>9.3f} {vmax:>6.2f} "
              f"{area:>16.0f} {arrival}")

    print("\nTide gauges:")
    print(gauges.summary())

    damage = assess_damage(model)
    print("\nDamage estimate (synthetic coastal building stock, 10 m grid):")
    print(f"  buildings exposed : {damage.buildings_exposed:8.0f}")
    print(f"  expected damaged  : {damage.buildings_damaged:8.1f} "
          f"(ratio {damage.damage_ratio:.3f})")
    print(f"  population exposed: {damage.population_exposed:8.0f}")


if __name__ == "__main__":
    main()
