"""Numerical laboratory for the stability machinery of product spacetimes.

Modules
-------
internal      internal-manifold spectra and stability verdicts
fields        hyperboloid slices, mode fields, slice data, snapshot I/O
evolve        radial Klein-Gordon and quasilinear evolutions
energy        generator words, hyperboloidal energies, identities, estimates
schwarzschild harmonic-gauge exteriors and geodesic probes
cli           experiment runner
"""

__version__ = "0.1.0"

from .internal import FlatTorus, lichnerowicz_spectrum  # noqa: F401
from .fields import HyperboloidSlice, ModeField, SliceData, make_slice  # noqa: F401
from .evolve import EvolutionConfig, evolve_kg_radial  # noqa: F401
