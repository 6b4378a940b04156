"""Exact analysis of 2-(n,m,1) block designs and their block graphs."""

from .points import INFINITY, StructuredPoint, parse_block, parse_point
from .design import (
    Design,
    DesignParameters,
    ValidationReport,
    admissibility,
    develop_base_blocks,
    make_design,
    parse_design,
    serialize_design,
    validate_2design,
)
from .catalog import BUILTIN_NAMES, builtin_design
from .graph import (
    BlockGraph,
    DegenerateGraphError,
    SrgParams,
    SrgVerificationError,
    build_block_graph,
    delsarte_bound,
    serialize_graph,
    srg_from_design_params,
    verify_srg,
)
from .cliques import (
    CliqueCensus,
    census_report,
    classify_clique,
    clique_number,
    clique_support,
    core_restriction,
    enumerate_maximum_cliques,
    point_multiplicity_profile,
    subdesign_test,
)
from .perms import (
    OrbitPartition,
    PermGroup,
    Permutation,
    close_group,
    induced_block_action,
    induced_clique_action,
    is_design_automorphism,
    is_graph_automorphism,
    orbit_partition,
    parse_cycles,
)
from .autgroup import SearchBudgetExceeded, graph_automorphism_group
from .theory import (
    FamilyParams,
    ResidueSet,
    denniston_may_have_noncanonical,
    difference_multiset,
    family_params,
    gm_threshold,
    only_canonical_guaranteed,
    orbit_clique_certificate,
    squares_mod,
    translate_intersection,
)
from .report import AnalysisReport, build_report, check_paper_claims, render_structured, render_text

__version__ = "0.1.0"
