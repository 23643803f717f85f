"""Recover every edge weight of a graph by driving closed non-backtracking
walks from a single vertex and reading only their total weights.

A connected graph with minimum degree 3 is fully recoverable from any start
vertex. The library builds explicit integer-combination certificates for
each edge, extracts a minimal measuring set of exactly |E| walks, and
solves for the weights with exact rational arithmetic.
"""

from .errors import (
    CyclicDependencyError,
    DisconnectedGraphError,
    EndpointMismatchError,
    GraphFormatError,
    InconsistentMeasurementsError,
    InvalidWalkError,
    JunctionBacktrackError,
    MissingCertificateError,
    NotOdometricError,
    OdographError,
    PreconditionError,
    RankDeficientError,
    RejectedWalkError,
    WalkError,
)
from .graph import Graph, is_connected, is_odometric
from .walks import edge_multiplicities, is_valid_nb_walk, walk_weight
from .revealer import IdentityTrace, RevealCertificate, flatten, reveal_all, transfer_neighbor_walk
from .solver import (
    build_walk_matrix,
    extract_minimal_basis,
    rational_rank,
    recover_weights,
    verify_certificate,
)
from .oracle import Odometer, enumerate_closed_nb_walks, revealable_span, span_report

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "is_connected",
    "is_odometric",
    "is_valid_nb_walk",
    "edge_multiplicities",
    "walk_weight",
    "RevealCertificate",
    "IdentityTrace",
    "transfer_neighbor_walk",
    "reveal_all",
    "flatten",
    "build_walk_matrix",
    "rational_rank",
    "extract_minimal_basis",
    "recover_weights",
    "verify_certificate",
    "Odometer",
    "enumerate_closed_nb_walks",
    "revealable_span",
    "span_report",
    "OdographError",
    "GraphFormatError",
    "WalkError",
    "InvalidWalkError",
    "EndpointMismatchError",
    "JunctionBacktrackError",
    "DisconnectedGraphError",
    "PreconditionError",
    "NotOdometricError",
    "CyclicDependencyError",
    "MissingCertificateError",
    "RankDeficientError",
    "InconsistentMeasurementsError",
    "RejectedWalkError",
    "__version__",
]
