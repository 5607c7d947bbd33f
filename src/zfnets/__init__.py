"""zfnets: zero-forcing based design and analysis of controllable networks.

Builds maximally robust leader-follower topologies that stay strong
structurally controllable, certifies them via zero forcing and a randomized
Kalman-rank oracle, measures spectral robustness, and simulates the
distributed grammars that assemble the topologies from local rules.

Import the submodule you need (`from zfnets import grammar`, `zfnets.cli`):
`import zfnets` alone loads none of them, and numpy loads only with
`robustness.spectrum`, `Graph.laplacian` or `ssc`.
"""
__version__ = "0.1.0"
