"""Exact s-t min-cut on `scipy.sparse.csgraph.maximum_flow`.

The network is built once from arrays: per-node source and sink
capacities and undirected edges, all non-negative integers whose total
fits in int32, so that the flow is exact. The source side of the cut is
the set of nodes reachable from the source in the residual graph. That
set is the same for every maximum flow, so the labels do not depend on
which augmenting paths the solver took.
"""

from __future__ import annotations

import numpy as np


def _caps(values, n: int) -> np.ndarray:
    caps = np.broadcast_to(np.asarray(values), (n,))
    if caps.size and not np.issubdtype(caps.dtype, np.integer):
        raise ValueError(f"capacities must be integers, got {caps.dtype}")
    caps = caps.astype(np.int64)
    if np.any(caps < 0):
        raise ValueError("negative capacity")
    return caps


class FlowNetwork:
    """Flow network over nodes 0..n-1 plus a source (n) and a sink (n+1).

    `edges` is an (m, 2) array of node pairs, each an arc of capacity
    `edge_caps` (one per edge, or one for all) in both directions.
    """

    def __init__(self, source_caps, sink_caps, edges, edge_caps):
        from scipy.sparse import csr_array

        n = len(source_caps)
        self.n, self.source, self.sink = n, n, n + 1
        src, snk = _caps(source_caps, n), _caps(sink_caps, n)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        w = _caps(edge_caps, len(edges))
        if int(src.sum()) + int(snk.sum()) + int(w.sum()) > np.iinfo(np.int32).max:
            raise ValueError("total capacity does not fit in int32")
        nodes = np.arange(n)
        rows = np.concatenate([np.full(n, n), nodes, edges[:, 0], edges[:, 1]])
        cols = np.concatenate([nodes, np.full(n, n + 1), edges[:, 1], edges[:, 0]])
        caps = np.concatenate([src, snk, w, w]).astype(np.int32)
        keep = caps > 0
        self.graph = csr_array((caps[keep], (rows[keep], cols[keep])), shape=(n + 2, n + 2))
        self._residual = None

    def solve(self) -> int:
        """Max-flow value == min-cut energy."""
        from scipy.sparse.csgraph import maximum_flow

        res = maximum_flow(self.graph, self.source, self.sink)
        # the flow is antisymmetric, so this also holds the reverse
        # residuals; csgraph reads a stored zero as an edge
        self._residual = self.graph - res.flow
        self._residual.eliminate_zeros()
        return int(res.flow_value)

    def min_cut_source_side(self) -> np.ndarray:
        """After solve(): bool per node, reachable from the source in the residual."""
        from scipy.sparse.csgraph import breadth_first_order

        if self._residual is None:
            raise RuntimeError("solve() first")
        side = np.zeros(self.n + 2, dtype=bool)
        side[breadth_first_order(self._residual, self.source, return_predecessors=False)] = True
        return side[: self.n]
