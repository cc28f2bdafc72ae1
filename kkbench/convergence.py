"""Convergence study behind the benchmark's resolution-dependent tolerances.

    python3 kkbench/convergence.py      # from the root of a kkstab checkout

For each check whose error is a discretisation error, prints that error at
half, equal and twice the resolution the benchmark runs at.  A tolerance
of twice the error at the benchmark's resolution holds with a margin on
every seed (the solvers are linear in the amplitude there, so relative
errors do not depend on it) and, where it is below the error at half the
resolution, fails a solver that has lost half its resolution.  Takes about
two minutes on one core.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads as wl  # noqa: E402
from kkstab import energy, evolve  # noqa: E402


def _row(label, errs):
    print(f"{label:>22}: " + "  ".join(f"{e:.4g}" for e in errs))


def kg_study():
    print("kg-hyperboloid (bench dr = 1/64): relative errors at dr = 1/32, 1/64, 1/128")
    errs = [wl.kg_errors(wl.run_kg(1.0, None, None, dr=dr), 1.0)
            for dr in (1 / 32, 1 / 64, 1 / 128)]
    for s in wl.KG_SLICES:
        _row(f"energy s={s:g}", [e[s][0] for e in errs])
        _row(f"samples s={s:g}", [e[s][1] for e in errs])


def monitor_study():
    # `kkstab evolve` on its defaults, without the stored history
    print("cli evolve monitor (bench dr = 1/64): max relative energy error "
          "at dr = 1/32, 1/64, 1/128")
    e0 = wl.pulse_energy(*wl.CLI_PULSE)
    errs = []
    for dr in (1 / 32, 1 / 64, 1 / 128):
        cfg = evolve.EvolutionConfig(n=9, dr=dr, t_end=100.0, store_history=False)
        res = evolve.evolve_kg_radial(0.0, 9, None, cfg)
        errs.append(float(np.max(np.abs(res.monitors["energy"] / e0 - 1.0))))
    _row("monitor", errs)


def energy_study():
    # `kkstab energy --n 9 --t-end 70 --slice-s 4,8,10` at three resolutions
    print("cli energy (bench dr = 1/32): relative slice-energy errors at "
          "dr = 1/16, 1/32, 1/64")
    e0 = wl.pulse_energy(*wl.CLI_PULSE)
    errs = []
    for dr in (1 / 16, 1 / 32, 1 / 64):
        cfg = evolve.EvolutionConfig(n=9, dr=dr, t_end=70.0, sample_derivs=3,
                                     store_history=False)
        res = evolve.evolve_kg_radial(0.0, 9, None, cfg,
                                      slice_s=sorted(wl.CLI_ENERGY_TOL))
        errs.append({s: abs(energy.hyperboloidal_energy(d) / e0 - 1.0)
                     for s, d in res.slices.items()})
    for s in wl.CLI_ENERGY_TOL:
        _row(f"energy s={s:g}", [e[s] for e in errs])


if __name__ == "__main__":
    kg_study()
    monitor_study()
    energy_study()
