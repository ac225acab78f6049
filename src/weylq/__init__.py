"""Exact quasi-polynomial computations for Weyl subarrangements.

Modules
-------
rootsys
    Root systems, Weyl groups, the root poset and its ideals.
quasipoly
    Exact polynomials, quasi-polynomials and shift operators.
ehrhart
    Lattice-point counts for the dilated fundamental alcove.
kernels
    The point-counting kernel for complements of congruence arrangements.
charquasi
    Characteristic quasi-polynomials of congruence arrangements.
eulerian
    Descent statistics over the Weyl group and their polynomials.
compat
    The shift-operator compatibility decision, also in generating-function form.
deform
    Interval deformations of subarrangements and their closed formulas.
cli
    Command line front end.
"""

from weylq.errors import (
    InconsistencyError,
    ResourceCapError,
    ValidationError,
    WeylqError,
)

__all__ = [
    "InconsistencyError",
    "ResourceCapError",
    "ValidationError",
    "WeylqError",
]

__version__ = "0.1.0"
