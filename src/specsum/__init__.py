"""Spectral-sum toolkit: weighted step models over small candidate graphs,
second additive compounds, and exact rational matrix-SOS certificates for
lambda1 + lambda2 bounds.

Importing the package loads none of its modules; `from specsum import
certify` loads that one. `check`, the exact certificate checker, and
`exactq` need only the standard library; the others need numpy."""

__version__ = "0.1.0"

__all__ = ["certify", "check", "compound", "exactq", "graphs", "numerics",
           "stepmodel", "__version__"]
