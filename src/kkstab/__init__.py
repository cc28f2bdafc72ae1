"""Numerical laboratory for the stability machinery of product spacetimes.

Modules
-------
geometry      hyperboloid slices, the radial generator algebra
internal      internal-manifold spectra and stability verdicts
fields        mode fields, slice data and their derivative closure, snapshot I/O
evolve        radial Klein-Gordon and quasilinear evolutions
energy        hyperboloidal and boosted energies, identities, estimates
schwarzschild harmonic-gauge exteriors and geodesic probes
cli           experiment runner
"""

__version__ = "0.1.0"

from .geometry import HyperboloidSlice, make_slice  # noqa: F401
from .internal import FlatTorus, lichnerowicz_spectrum  # noqa: F401
from .fields import ModeField, SliceData  # noqa: F401
from .evolve import EvolutionConfig, evolve_kg_radial  # noqa: F401
