"""The same seed gives the same inputs; another seed gives others."""

import numpy as np

from perfbench import inputs
from repro.graph.traversal import UNREACHABLE, bfs_distances_bounded
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import split_by_degree


def _triples(queries):
    return [(q.source, q.target, q.k) for q in queries]


def test_v_to_v2_queries_repeat_per_seed_and_meet_the_paper_setting():
    graph = load_dataset("gg")
    first = inputs.high_to_low_queries(graph, count=200, k=3, seed=7)
    assert _triples(first) == _triples(inputs.high_to_low_queries(graph, count=200, k=3, seed=7))
    assert _triples(first) != _triples(inputs.high_to_low_queries(graph, count=200, k=3, seed=8))
    high, low = split_by_degree(graph)
    assert len(set(_triples(first))) == 200
    for query in first[:20]:
        assert query.source in high and query.target in low
        distance = bfs_distances_bounded(graph, query.source, cutoff=3)[query.target]
        assert distance != UNREACHABLE and distance <= 3


def test_other_generators_repeat_per_seed():
    gg, ep = load_dataset("gg"), load_dataset("ep")
    assert _triples(inputs.high_to_high_queries(ep, count=50, k=4, seed=3)) == _triples(
        inputs.high_to_high_queries(ep, count=50, k=4, seed=3)
    )
    assert _triples(inputs.hub_queries(gg, count=50, k=3, seed=3)) == _triples(
        inputs.hub_queries(gg, count=50, k=3, seed=3)
    )
    # Fixed universes: another seed asks other queries of the same universe.
    universes = ((inputs.high_to_high_queries, ep, 4, inputs.HIGH_HIGH_UNIVERSE),
                 (inputs.hub_queries, gg, 3, inputs.HUB_UNIVERSE))
    for make, graph, k, size in universes:
        one, two = set(_triples(make(graph, count=50, k=k, seed=3))), set(_triples(make(graph, count=50, k=k, seed=4)))
        assert one != two
        universe = set(_triples(make(graph, count=size, k=k, seed=5)))
        assert universe > one | two
    assert inputs.sample_edges(gg, 5, 3) == inputs.sample_edges(gg, 5, 3)


def test_rate_levels_repeat_per_seed_and_restore_every_edge():
    graph = load_dataset("gg")
    pool = inputs.hub_queries(graph, count=50, k=3, seed=1)
    one = inputs.rate_level(graph, pool, offered_qps=150, reads=300, write_share=0.1, seed=11)
    two = inputs.rate_level(graph, pool, offered_qps=150, reads=300, write_share=0.1, seed=11)
    assert np.array_equal(one.arrivals, two.arrivals)
    assert _triples(one.reads) == _triples(two.reads)
    assert one.writes == two.writes and np.array_equal(one.write_arrivals, two.write_arrivals)
    # Writes come in remove-then-add pairs of the same edge.
    assert len(one.writes) == 30
    for removal, addition in zip(one.writes[::2], one.writes[1::2]):
        assert removal[0] == "remove" and addition == ("add", removal[1])


def test_a_cycling_level_asks_every_query_once_per_round():
    graph = load_dataset("gg")
    pool = inputs.hub_queries(graph, count=50, k=3, seed=1)
    level = inputs.rate_level(graph, pool, offered_qps=150, reads=120, write_share=0.1, seed=11, cycle=True)
    rounds = [_triples(level.reads[i : i + 50]) for i in (0, 50)]
    assert all(sorted(r) == sorted(_triples(pool)) for r in rounds)
    assert rounds[0] != rounds[1]
    assert len(level.reads) == 120
