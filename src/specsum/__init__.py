"""Spectral-sum toolkit: weighted step models over small candidate graphs,
second additive compounds, and exact rational matrix-SOS certificates for
lambda1 + lambda2 bounds."""

from . import certify, compound, exactq, graphs, numerics, stepmodel

__version__ = "0.1.0"

__all__ = ["certify", "compound", "exactq", "graphs", "numerics", "stepmodel",
           "__version__"]
