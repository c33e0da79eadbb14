"""Exact SO(3)-TQFT representations of the one-holed torus mapping class group.

The package builds the dimension-N representation of the two Dehn-twist
generators as matrices over the rational function field Q(X), evaluates them
exactly at X = -1 (the classical SL2(Z) action on homogeneous polynomials) and
numerically at roots of unity, cross-checks everything against an independent
per-level oracle, and produces spectral-radius certificates for pseudo-Anosov
mapping classes.
"""

__version__ = "0.1.0"
