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
from .graph import Graph, Rational, is_connected, is_odometric, low_degree_vertices
from .walks import (
    Walk,
    concat,
    edge_multiplicities,
    is_closed,
    is_valid_nb_walk,
    reverse,
    walk_weight,
)
from .decomposition import (
    Block,
    BlockCutTree,
    block_cut_tree,
)
from .revealer import (
    IdentityTrace,
    RevealCertificate,
    flatten,
    reveal_all,
    transfer_neighbor_walk,
)
from .solver import (
    WalkMatrix,
    build_walk_matrix,
    extract_minimal_basis,
    rational_rank,
    recover_weights,
    verify_certificate,
)
from .oracle import (
    Odometer,
    SpanReport,
    enumerate_closed_nb_walks,
    iter_closed_nb_walks,
    revealable_span,
    span_report,
)
from .cli import main, parse_graph_text

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Rational",
    "Walk",
    "is_connected",
    "is_odometric",
    "low_degree_vertices",
    "concat",
    "reverse",
    "is_closed",
    "is_valid_nb_walk",
    "edge_multiplicities",
    "walk_weight",
    "Block",
    "BlockCutTree",
    "block_cut_tree",
    "RevealCertificate",
    "IdentityTrace",
    "transfer_neighbor_walk",
    "reveal_all",
    "flatten",
    "WalkMatrix",
    "build_walk_matrix",
    "rational_rank",
    "extract_minimal_basis",
    "recover_weights",
    "verify_certificate",
    "Odometer",
    "SpanReport",
    "iter_closed_nb_walks",
    "enumerate_closed_nb_walks",
    "revealable_span",
    "span_report",
    "main",
    "parse_graph_text",
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
