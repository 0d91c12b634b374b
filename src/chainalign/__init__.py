"""Local alignment of 3D polygonal chains under the discrete Frechet distance.

The package aligns protein-backbone-like chains: it finds the largest
subsequences of two (or a few) chains that can follow a single common chain
within a distance threshold, optionally searching over rigid motions of one
chain, and it can build graph-derived instance families whose optimal
alignment value equals a maximum independent set.
"""

from .chainio import (
    ChainDocument,
    parse_chain_file,
    parse_graph_file,
    parse_pdb_ca,
    serialize_chain_document,
    serialize_graph,
)
from .errors import (
    BadDelta,
    ChainAlignError,
    DegenerateTriple,
    EmptyGraph,
    IncompatibleTriple,
    IncompatibleWalk,
    InputError,
    InvalidThreshold,
    InvariantError,
    MalformedRecord,
    NegativeDelta,
    NoCaAtoms,
    ParseError,
    PreconditionError,
    PropertyViolation,
    TooLarge,
    UnsupportedArity,
)
from .frechet import (
    FrechetResult,
    PairedWalk,
    discrete_frechet,
    frechet_decision,
    validate_paired_walk,
)
from .geometry import (
    Chain3D,
    Point3,
    RigidMotion,
    apply_motion,
    chain_from_coords,
    motion_from_triples,
    triangle_area,
)
from .plsa import (
    AlignmentResult,
    JointWalk,
    plsa_static_multi,
    plsa_static_pair_fast,
    reconstruct_common_chain,
    star_compatible,
    validate_alignment_result,
    validate_joint_walk,
)
from .reduction import (
    Graph,
    ReductionInstance,
    ReductionReport,
    ReductionSolution,
    build_reduction,
    double_prime_point,
    greedy_label_match,
    max_independent_set_bruteforce,
    measure_reduction_properties,
    prime_point,
    solve_reduction_bruteforce,
    subsequence_match_decision,
    verify_reduction_properties,
)
from .report import RunReport, emit_alignment_svg, emit_report, parse_report
from .rigid import SearchConfig, enumerate_candidate_motions, plsa_rigid_pair


def __getattr__(name: str) -> str:
    # __version__ is looked up on first use, so importing the package does
    # not load importlib.metadata
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("artifact")
    except PackageNotFoundError:
        return "0.0.0"


__all__ = [
    "AlignmentResult",
    "BadDelta",
    "Chain3D",
    "ChainAlignError",
    "ChainDocument",
    "DegenerateTriple",
    "EmptyGraph",
    "FrechetResult",
    "Graph",
    "IncompatibleTriple",
    "IncompatibleWalk",
    "InputError",
    "InvalidThreshold",
    "InvariantError",
    "JointWalk",
    "MalformedRecord",
    "NegativeDelta",
    "NoCaAtoms",
    "PairedWalk",
    "ParseError",
    "Point3",
    "PreconditionError",
    "PropertyViolation",
    "ReductionInstance",
    "ReductionReport",
    "ReductionSolution",
    "RigidMotion",
    "RunReport",
    "SearchConfig",
    "TooLarge",
    "UnsupportedArity",
    "apply_motion",
    "build_reduction",
    "chain_from_coords",
    "discrete_frechet",
    "double_prime_point",
    "emit_alignment_svg",
    "emit_report",
    "enumerate_candidate_motions",
    "frechet_decision",
    "greedy_label_match",
    "max_independent_set_bruteforce",
    "measure_reduction_properties",
    "motion_from_triples",
    "parse_chain_file",
    "parse_graph_file",
    "parse_pdb_ca",
    "parse_report",
    "plsa_rigid_pair",
    "plsa_static_multi",
    "plsa_static_pair_fast",
    "prime_point",
    "reconstruct_common_chain",
    "serialize_chain_document",
    "serialize_graph",
    "solve_reduction_bruteforce",
    "star_compatible",
    "subsequence_match_decision",
    "triangle_area",
    "validate_alignment_result",
    "validate_joint_walk",
    "validate_paired_walk",
    "verify_reduction_properties",
]
