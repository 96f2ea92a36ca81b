"""Compact undirected snapshots of the overlay communication graph.

:class:`GraphSnapshot` stores the undirected topology in CSR form (two numpy
arrays), which keeps the per-cycle metric computations fast enough to trace
10^4-node overlays over hundreds of cycles in pure Python + numpy.

Construction drops edge orientation (paper Section 4.2: "the actual
information flow ... is potentially two-way"), self-loops, and descriptors
pointing at addresses outside the node set (dead links are analysed
separately via :meth:`~repro.simulation.base.BaseEngine.dead_link_count`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.descriptor import Address


def _descriptor_address(entry: object) -> Address:
    """Accept either NodeDescriptor-like objects or raw addresses."""
    return getattr(entry, "address", entry)


def view_edge_arrays(
    views: Mapping[Address, Iterable[object]]
) -> Tuple[List[Address], np.ndarray, np.ndarray]:
    """``(addresses, src, dst)`` of a ``{address: view entries}`` mapping.

    The object-walking form of an engine's ``edge_arrays()``: addresses
    in key order, one ``src -> dst`` index pair per entry whose target is
    itself a key (dead links are dropped).  Entries may be
    :class:`~repro.core.descriptor.NodeDescriptor` objects or raw
    addresses.
    """
    addresses = list(views)
    index = {address: i for i, address in enumerate(addresses)}
    src: List[int] = []
    dst: List[int] = []
    for i, entries in enumerate(views.values()):
        for entry in entries:
            j = index.get(_descriptor_address(entry))
            if j is not None and j != i:
                src.append(i)
                dst.append(j)
    return (
        addresses,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
    )


class GraphSnapshot:
    """An immutable undirected graph over a fixed set of addresses.

    Instances are produced by the ``from_*`` constructors; the raw CSR
    arrays (:attr:`indptr`, :attr:`indices`) are exposed for vectorized
    consumers such as the metric functions.
    """

    __slots__ = ("addresses", "_index", "indptr", "indices")

    def __init__(
        self,
        addresses: Sequence[Address],
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> None:
        self.addresses: List[Address] = list(addresses)
        self._index: Dict[Address, int] = {
            address: i for i, address in enumerate(self.addresses)
        }
        self.indptr = indptr
        self.indices = indices

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_edge_arrays(
        cls,
        addresses: Sequence[Address],
        src: np.ndarray,
        dst: np.ndarray,
    ) -> "GraphSnapshot":
        """Build from parallel directed-edge index arrays (deduplicating,
        symmetrizing and dropping self-loops)."""
        n = len(addresses)
        if n == 0 or src.size == 0:
            return cls(addresses, np.zeros(n + 1, dtype=np.int64),
                       np.empty(0, dtype=np.int64))
        keep = src != dst
        src = src[keep].astype(np.int64, copy=False)
        dst = dst[keep].astype(np.int64, copy=False)
        # Both orientations of every edge as one sortable key each; an
        # in-place sort plus adjacent-difference mask deduplicates them
        # (np.unique takes a much slower hash path from NumPy 2.3 on).
        keys = np.concatenate([src * n + dst, dst * n + src])
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        u = keys // n
        v = keys % n
        counts = np.bincount(u, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(addresses, indptr, v)

    @classmethod
    def from_views(
        cls, views: Mapping[Address, Iterable[object]]
    ) -> "GraphSnapshot":
        """Build from a ``{address: view entries}`` mapping.

        Entries may be :class:`~repro.core.descriptor.NodeDescriptor`
        objects or raw addresses.  Descriptors whose target is not a key of
        ``views`` (dead links) are ignored.
        """
        return cls.from_edge_arrays(*view_edge_arrays(views))

    @classmethod
    def from_engine(cls, engine: object) -> "GraphSnapshot":
        """Build from a simulation engine's current views, through its
        array-level ``edge_arrays()`` (no descriptor objects on the
        flat-array engines)."""
        return cls.from_edge_arrays(
            *engine.edge_arrays()  # type: ignore[attr-defined]
        )

    @classmethod
    def from_adjacency(
        cls, adjacency: Mapping[Address, Iterable[Address]]
    ) -> "GraphSnapshot":
        """Build from a plain adjacency mapping (same dead-link rules)."""
        return cls.from_views(adjacency)

    @classmethod
    def from_edges(
        cls,
        addresses: Sequence[Address],
        edges: Iterable[Tuple[Address, Address]],
    ) -> "GraphSnapshot":
        """Build from an explicit node list and an edge list."""
        index = {address: i for i, address in enumerate(addresses)}
        src: List[int] = []
        dst: List[int] = []
        for a, b in edges:
            i = index.get(a)
            j = index.get(b)
            if i is not None and j is not None and i != j:
                src.append(i)
                dst.append(j)
        return cls.from_edge_arrays(
            list(addresses),
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
        )

    # -- basic accessors -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.addresses)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def __contains__(self, address: Address) -> bool:
        return address in self._index

    def __repr__(self) -> str:
        return f"GraphSnapshot(n={self.n}, edges={self.edge_count})"

    def index_of(self, address: Address) -> int:
        """The internal index of ``address`` (raises ``KeyError`` if absent)."""
        return self._index[address]

    def neighbors(self, index: int) -> np.ndarray:
        """Neighbor indices of node ``index`` (sorted ascending)."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def neighbors_of(self, address: Address) -> List[Address]:
        """Neighbor addresses of ``address``."""
        return [self.addresses[j] for j in self.neighbors(self._index[address])]

    def degrees(self) -> np.ndarray:
        """Array of undirected degrees, aligned with :attr:`addresses`."""
        return np.diff(self.indptr)

    def degree(self, index: int) -> int:
        """Undirected degree of node ``index``."""
        return int(self.indptr[index + 1] - self.indptr[index])

    def degree_of(self, address: Address) -> int:
        """Undirected degree of ``address``."""
        return self.degree(self._index[address])

    def has_edge(self, a: Address, b: Address) -> bool:
        """Whether an undirected edge connects ``a`` and ``b``."""
        i = self._index[a]
        j = self._index[b]
        row = self.neighbors(i)
        pos = np.searchsorted(row, j)
        return bool(pos < len(row) and row[pos] == j)

    def gather_neighbors(self, nodes: np.ndarray) -> np.ndarray:
        """The concatenated neighbor rows of ``nodes``, in order.

        One vectorized CSR gather; what the clustering count and the BFS
        frontier expansion both reduce to.
        """
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        ends = np.cumsum(lengths)
        # Output position k lies in the run of one row; shifting by the
        # row's start minus the run's start turns k into a CSR offset.
        shift = np.repeat(starts - (ends - lengths), lengths)
        return self.indices[shift + np.arange(shift.size)]

    # -- derived graphs ---------------------------------------------------------

    def induced_subgraph(self, keep: np.ndarray) -> "GraphSnapshot":
        """The subgraph induced by the boolean node mask ``keep``."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n,):
            raise ValueError(
                f"mask shape {keep.shape} does not match n={self.n}"
            )
        new_id = np.cumsum(keep) - 1
        kept_addresses = [a for a, k in zip(self.addresses, keep) if k]
        # Expand CSR to COO, filter edges with both endpoints kept.
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        dst = self.indices
        mask = keep[src] & keep[dst]
        src = new_id[src[mask]]
        dst = new_id[dst[mask]]
        n_new = len(kept_addresses)
        if n_new == 0 or src.size == 0:
            return GraphSnapshot(
                kept_addresses,
                np.zeros(n_new + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        # Already symmetric and deduplicated; rebuild CSR directly.
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        counts = np.bincount(src, minlength=n_new)
        indptr = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return GraphSnapshot(kept_addresses, indptr, dst)

    def remove_nodes(self, victims: Iterable[Address]) -> "GraphSnapshot":
        """The subgraph left after deleting ``victims`` and their edges."""
        keep = np.ones(self.n, dtype=bool)
        for address in victims:
            index = self._index.get(address)
            if index is not None:
                keep[index] = False
        return self.induced_subgraph(keep)

    def to_networkx(self):  # pragma: no cover - exercised in dev tests only
        """Convert to a :class:`networkx.Graph` (requires networkx)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.addresses)
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        for i, j in zip(src, self.indices):
            if i < j:
                graph.add_edge(self.addresses[i], self.addresses[j])
        return graph
