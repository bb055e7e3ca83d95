"""latticekit: finite poset and lattice computation.

Covers posets from cover relations, lattices with total meet/join tables,
modularity/distributivity/semimodularity checking, interval equivalence
classes and the Jordan-Holder multiplicity invariant, the fundamental
theorem of finite distributive lattices (down-set lattices and join
irreducibles, with an incremental gluing construction), free distributive
lattices in canonical DNF form with Dedekind-number counting, and the
reconstruction of a multiplicity-free module's submodule lattice from its
join-irreducible submodules.
"""

from .birkhoff import (
    ConstructionTrace,
    LabeledLattice,
    RoundtripReport,
    TraceStep,
    birkhoff_roundtrip,
    evaluate_in_lattice,
    ideals_lattice,
    irreducible_poset,
    lattice_isomorphic,
    stanley_construct,
)
from .errors import (
    ArityMismatch,
    ChainCapExceeded,
    CoverageGap,
    CycleDetected,
    DnfSyntaxError,
    DuplicateTopFactor,
    EmbeddingFailure,
    InconsistentOrder,
    InvalidArgument,
    InvalidSpec,
    InvariantViolation,
    LatticeError,
    NotALattice,
    NotComparable,
    NotDistributive,
    NotMaximalChain,
    NotModular,
    NotRestricted,
    OrderConflict,
    SizeLimitExceeded,
    UnknownElement,
    UnknownVariable,
)
from .freedist import (
    MonotoneElement,
    check_self_dual,
    clause_set_str,
    dedekind_count,
    fd_join,
    fd_leq,
    fd_meet,
    from_clauses,
    generate_lattice,
    generator,
    meets_distinct,
    monotone_function_count,
    parse_dnf,
    render,
)
from .lattice import (
    GradeResult,
    JoinIrreducibles,
    Lattice,
    RankResult,
    add_bounds,
    as_lattice,
    atoms,
    coatoms,
    grade,
    interval_sublattice,
    join_irreducibles,
    rank,
    sublattice_closure,
)
from .poset import (
    Poset,
    RedundantCoverWarning,
    build_poset,
    down_set,
    dual_poset,
    is_isomorphic,
    order_ideals,
    up_set,
)
from .properties import (
    DistributivityReport,
    IntervalClassPartition,
    JordanHolderReport,
    ModularityReport,
    SemimodularReport,
    chain_multiplicities,
    count_maximal_chains,
    find_diamond,
    find_pentagon,
    interval_classes,
    is_distributive,
    is_modular,
    is_multiplicity_free,
    is_upper_semimodular,
    maximal_chains,
    verify_jordan_holder,
)
from .reconstruct import (
    Bounds,
    IrreducibleDecl,
    ReconstructionSpec,
    element_factors,
    interval_of,
    irreducible_order,
    load_spec,
    quotient_by,
    reconstruct,
    validate_spec,
)

__version__ = "0.1.0"
