"""certdom: exact certified-domination computations on small graphs.

A dominating set is *certified* when each of its members has zero or at
least two neighbours outside the set.  The package computes the minimum
sizes of dominating and certified dominating sets exactly (with
deterministic optimal certificates), recognizes the graph classes with
known closed forms or extremal values, reports how single-edge and
single-vertex modifications move the value, and can replay an exhaustive
claim suite over all small labeled graphs.
"""

from .analysis import bound_report, edge_effects, nordhaus_gaddum, vertex_effects
from .domination import (
    DD2Pair,
    VertexStatus,
    classify_vertex,
    is_2dominating,
    is_certified_dominating,
    is_dd2_pair,
    is_dominating,
    is_minimal_dominating,
)
from .families import (
    FamilySpecError,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    diadem,
    empty_graph,
    fig1_graph,
    fig3a_graph,
    fig3a_marked_edge,
    fig3b_graph,
    fig3b_missing_edge,
    fig4_graph,
    parse_family_spec,
    path_graph,
    wheel_graph,
)
from .graphs import (
    Graph,
    GraphParseError,
    LeafProfile,
    VertexSet,
    complement,
    components,
    encode_edge_list,
    encode_graph6,
    induced_subgraph,
    is_connected,
    leaf_profile,
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
)
from .solver import (
    SizeLimitError,
    SolveResult,
    SolveStats,
    SolverConfig,
    all_min_dominating_sets,
    find_dd2_pair,
    gamma_cer_oracle,
    gamma_cer_solve,
    gamma_oracle,
    gamma_solve,
)
from .structure import (
    check_gamma_cer_equals_n,
    check_gamma_cer_equals_n_minus_2,
    closed_form,
    find_universal_vertex,
    gamma_cer_complete,
    gamma_cer_complete_bipartite,
    gamma_cer_cycle,
    gamma_cer_path,
    gamma_cer_wheel,
    recognize_corona,
    recognize_diadem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
