import itertools

import numpy as np
import pytest

from mavnav.maxflow import FlowNetwork
from mavnav.reconstruction import CutWeights


def brute_force_min_cut(n, source_caps, sink_caps, edges, edge_caps):
    """Enumerate every labeling (True = source side) and return min energy."""
    best = None
    for bits in itertools.product([False, True], repeat=n):
        e = 0
        for v in range(n):
            if not bits[v]:
                e += source_caps[v]
            else:
                e += sink_caps[v]
        for (u, v), w in zip(edges, edge_caps):
            if bits[u] != bits[v]:
                e += w
        best = e if best is None else min(best, e)
    return best


def test_two_node_chain():
    net = FlowNetwork([5, 0], [0, 5], [(0, 1)], [2])
    with pytest.raises(RuntimeError, match="solve"):
        net.min_cut_source_side()
    assert net.solve() == 2
    assert net.min_cut_source_side().tolist() == [True, False]


def test_source_saturation():
    net = FlowNetwork([1], [3], np.zeros((0, 2), dtype=int), [])
    assert net.solve() == 1
    assert net.min_cut_source_side().tolist() == [False]


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 9))
        source_caps = rng.integers(0, 400, n)
        sink_caps = rng.integers(0, 400, n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        edge_caps = rng.integers(10, 300, len(edges))
        net = FlowNetwork(source_caps, sink_caps, np.reshape(edges, (-1, 2)), edge_caps)
        flow = net.solve()
        oracle = brute_force_min_cut(n, source_caps, sink_caps, edges, edge_caps)
        assert flow == oracle, f"trial {trial}"
        # the reported side must achieve the same energy
        side = net.min_cut_source_side()
        e = sum(source_caps[v] for v in range(n) if not side[v])
        e += sum(sink_caps[v] for v in range(n) if side[v])
        e += sum(w for (u, v), w in zip(edges, edge_caps) if side[u] != side[v])
        assert e == oracle, f"trial {trial}"


@pytest.mark.parametrize(
    "source_caps, sink_caps, edge_caps",
    [
        ([-1, 2], [0, 3], [1]),
        ([1, 2], [0, 3], [-1]),
        ([2**30, 0], [0, 2**30], [0]),  # total 2**31
        ([2**31 - 1, 0], [0, 1], [0]),
    ],
    ids=["negative-node", "negative-edge", "total-2^31", "total-past-int32"],
)
def test_rejects_negative_or_int32_overflowing_capacities(source_caps, sink_caps, edge_caps):
    with pytest.raises(ValueError, match="negative|int32"):
        FlowNetwork(source_caps, sink_caps, [(0, 1)], edge_caps)


def test_rejects_fractional_capacities():
    with pytest.raises(ValueError, match="integers"):
        FlowNetwork([0.5, 0.0], [0.0, 0.5], [(0, 1)], [1])


@pytest.mark.parametrize("weight", [0.001, -1.0, float("nan"), float("inf")])
def test_cut_weights_reject_non_quantum_weights(weight):
    with pytest.raises(ValueError, match="multiple"):
        CutWeights(lambda_qual=weight)
    with pytest.raises(ValueError, match="multiple"):
        CutWeights(alpha_vis=weight)


def test_cut_weights_accept_multiples_of_the_quantum():
    CutWeights(alpha_vis=1.0, alpha_behind=5.0, lambda_qual=0.1)
    CutWeights(alpha_vis=0.0, alpha_behind=0.07, lambda_qual=123.45)
