"""zfnets: zero-forcing based design and analysis of controllable networks.

Builds maximally robust leader-follower topologies that stay strong
structurally controllable, certifies them via zero forcing and a randomized
Kalman-rank oracle, measures spectral robustness, and simulates the
distributed grammars that assemble the topologies from local rules.
"""
from .constructions import (
    ConstructedNetwork,
    ConstructionSpec,
    ConstructionMismatchError,
    InfeasibleSpecError,
    build,
    build_g1,
    build_g1_bar,
    build_g2_bar,
    build_g3_bar,
    build_word,
    edge_terms_g1,
    edge_terms_g2,
    expected_edges,
)
from .graph import (
    Graph,
    GraphDisconnectedError,
    LeaderSet,
    complete_graph,
    export_dot,
    from_edge_list_text,
    path_graph,
    to_edge_list_text,
)
from .grammar import (
    Label,
    LabeledGraph,
    Match,
    NonConvergenceError,
    Rule,
    Schedule,
    applicable_matches,
    grammar_r1,
    grammar_r2,
    initial_state,
    label_isomorphic,
    replay,
    run_to_fixpoint,
    step,
)
from .robustness import (
    ConvergenceError,
    SpectrumReport,
    SweepRow,
    algebraic_connectivity,
    kirchhoff_index,
    spectrum,
    sweep,
    sweep_csv,
)
from .ssc import (
    SSCReport,
    SystemRealization,
    is_controllable_pair,
    randomized_ssc_check,
    sample_realization,
)
from .zero_forcing import (
    ForcingTrace,
    closure,
    derived_set,
    forcing_candidates,
    is_maximal_for_zfs,
    is_unique_process,
    is_zfs,
    validate_trace,
)

__version__ = "0.1.0"
