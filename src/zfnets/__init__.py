"""zfnets: zero-forcing based design and analysis of controllable networks.

Builds maximally robust leader-follower topologies that stay strong
structurally controllable, certifies them via zero forcing and a randomized
Kalman-rank oracle, measures spectral robustness, and simulates the
distributed grammars that assemble the topologies from local rules.

The names below load on first use (PEP 562), so `import zfnets` imports no
submodule and a command pays only for the modules it runs: numpy loads with
`robustness.spectrum`, `Graph.laplacian` or `ssc`.
"""
from importlib import import_module

_EXPORTS = {
    "constructions": (
        "ConstructedNetwork", "ConstructionSpec", "ConstructionMismatchError",
        "InfeasibleSpecError", "build", "build_g1", "build_g1_bar", "build_g2_bar",
        "build_g3_bar", "build_word", "expected_edges",
    ),
    "graph": (
        "Graph", "GraphDisconnectedError", "LeaderSet", "complete_graph", "export_dot",
        "from_edge_list_text", "path_graph", "to_edge_list_text",
    ),
    "grammar": (
        "Label", "LabeledGraph", "Match", "NonConvergenceError", "Rule", "Schedule",
        "applicable_matches", "grammar_r1", "grammar_r2", "initial_state",
        "label_isomorphic", "replay", "run_to_fixpoint",
    ),
    "robustness": (
        "ConvergenceError", "SpectrumReport", "SweepRow", "spectrum", "sweep", "sweep_csv",
    ),
    "ssc": ("SSCReport", "SystemRealization", "randomized_ssc_check", "sample_realization"),
    "zero_forcing": (
        "ForcingTrace", "closure", "derived_set", "is_maximal_for_zfs",
        "is_unique_process", "is_zfs", "validate_trace",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
