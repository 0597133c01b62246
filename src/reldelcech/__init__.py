"""Relative persistent homology of Euclidean point-cloud pairs.

Given finite X1, X2 in R^d (d <= 3), the pair (X1 union X2, X1) is filtered
by a Delaunay-Cech complex built from the Delaunay triangulation of the two
clouds lifted to heights +s/-s in R^(d+1).  The complex has the size of one
Delaunay triangulation, and its persistence quotient by the lifted copy of
del(X1) is the relative persistent homology of the pair; a brute-force
relative Cech oracle is included for desk-scale cross-validation.
"""

from .cech_oracle import ORACLE_CAP, BarcodeDiff, compare_barcodes, relative_cech
from .delaunay import Triangulation, delaunay
from .filtered_complex import Cell, FilteredComplex, Simplex, build, dumps, loads
from .geometry import DIM_CAP, InputError, PointCloud, in_sphere, orientation, smallest_enclosing_ball
from .persistence import (
    Barcode,
    BoundaryMatrix,
    barcode,
    boundary_matrix,
    reduce_matrix,
)
from .relative_lift import (
    EmbeddingReport,
    LiftedConfiguration,
    Pipeline,
    build_pipeline,
    choose_s,
    lift,
    verify_embedding,
)

__version__ = "0.1.0"

__all__ = [
    "ORACLE_CAP",
    "DIM_CAP",
    "Barcode",
    "BarcodeDiff",
    "BoundaryMatrix",
    "Cell",
    "EmbeddingReport",
    "FilteredComplex",
    "InputError",
    "LiftedConfiguration",
    "Pipeline",
    "PointCloud",
    "Simplex",
    "Triangulation",
    "barcode",
    "boundary_matrix",
    "build",
    "build_pipeline",
    "choose_s",
    "compare_barcodes",
    "delaunay",
    "dumps",
    "in_sphere",
    "lift",
    "loads",
    "orientation",
    "reduce_matrix",
    "relative_cech",
    "smallest_enclosing_ball",
    "verify_embedding",
]
