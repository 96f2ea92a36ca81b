"""Graph analysis toolkit for overlay topologies.

The paper evaluates peer sampling implementations through the *communication
topology*: the directed graph whose edge ``(a, b)`` exists when node ``a``
holds a descriptor of node ``b``.  All reported metrics are computed on the
**undirected** version of that graph (paper Section 4.2).

- :class:`~repro.graph.snapshot.GraphSnapshot` -- a compact CSR
  representation of the undirected topology at one instant;
- :mod:`repro.graph.metrics` -- degree statistics, clustering coefficient,
  average path length, and the Figure 2/3 triple of the three
  (:func:`~repro.graph.metrics.topology_metrics`);
- :mod:`repro.graph.components` -- connectivity and cluster analysis;
- :mod:`repro.graph.generators` -- reference topologies (uniform random
  views, ring lattice, star, Erdos-Renyi).
"""

from repro.graph.components import (
    component_sizes,
    is_connected,
    largest_component_size,
    nodes_outside_largest,
    num_components,
)
from repro.graph.generators import (
    erdos_renyi,
    random_view_topology,
    ring_lattice,
    star,
)
from repro.graph.metrics import (
    average_degree,
    average_path_length,
    clustering_coefficient,
    degree_array,
    degree_histogram,
)
from repro.graph.snapshot import GraphSnapshot

__all__ = [
    "GraphSnapshot",
    "average_degree",
    "average_path_length",
    "clustering_coefficient",
    "component_sizes",
    "degree_array",
    "degree_histogram",
    "erdos_renyi",
    "is_connected",
    "largest_component_size",
    "nodes_outside_largest",
    "num_components",
    "random_view_topology",
    "ring_lattice",
    "star",
]
