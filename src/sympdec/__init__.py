"""Exact symplectic/orthogonal matrix operations, classical-group homotopy
tables, the induced-map calculus on finitely generated abelian groups, and
tensor-decomposability decision reports, with a JSON CLI."""

__version__ = "0.1.0"

from sympdec.matrix import ExactMatrix, block_diag
from sympdec.intmatrix import IntMatrix, smith_normal_form
from sympdec.abgroup import FgAbGroup

__all__ = [
    "ExactMatrix",
    "IntMatrix",
    "FgAbGroup",
    "smith_normal_form",
    "block_diag",
    "__version__",
]
