"""Tests for the density layer.

Two oracles check the 4-cycle density: the O(n^4) tuple scan for n <= 7, and
an O(sum deg^2) walk over paths for n <= 12 and the named graphs.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfgraph import verify
from halfgraph.density import (
    c4_density,
    c4_lower_general,
    c4_lower_no_2matching,
    c4_lower_trivial,
    cross_density,
    max_degree_rel,
    part_density,
    rho,
)
from halfgraph.graphcore import (
    Graph,
    _bits,
    blowup,
    cycle,
    enumerate_triangle_free,
    has_induced_2matching,
    named,
    path,
)

# the three labeled 4-cycles on positions (0,1,2,3): (cycle pairs, diagonals)
_C4_STRUCTURES = [
    (((0, 1), (1, 2), (2, 3), (3, 0)), ((0, 2), (1, 3))),
    (((0, 1), (1, 3), (3, 2), (2, 0)), ((0, 3), (1, 2))),
    (((0, 2), (2, 1), (1, 3), (3, 0)), ((0, 1), (2, 3))),
]


def c4_brute(g: Graph) -> Fraction:
    """Oracle: scan all n^4 ordered tuples and test the sampled pattern."""
    hits = 0
    for tup in product(range(g.n), repeat=4):
        for cyc, diag in _C4_STRUCTURES:
            if all(g.has_edge(tup[i], tup[j]) for i, j in cyc) and not any(
                g.has_edge(tup[i], tup[j]) for i, j in diag
            ):
                hits += 1
                break
    return Fraction(hits, g.n**4)


def c4_by_paths(g: Graph) -> Fraction:
    """Oracle: ordered edges (v1, v2) and neighbors w1 of v1, then the admissible w2 by a mask."""
    n, adj = g.n, g.adj
    count = 0
    for v1 in range(n):
        row1 = adj[v1]
        for v2 in _bits(row1):
            row2 = adj[v2]
            allowed = row2 & ~row1  # w2 ~ v2 and not ~ v1
            for w1 in _bits(row1):
                if row2 >> w1 & 1:
                    continue  # w1 must not neighbor v2
                count += (adj[w1] & allowed).bit_count()
    return Fraction(3 * count, n**4)


def test_rho_examples():
    assert rho(cycle(5)) == Fraction(2, 5)
    assert rho(named("clebsch").graph) == Fraction(5, 16)
    assert rho(path(2)) == Fraction(1, 2)


def test_c4_examples():
    assert c4_density(path(2)) == Fraction(3, 8)
    assert c4_density(path(2)) == c4_lower_trivial(Fraction(1, 2))
    assert c4_density(cycle(5)) == Fraction(18, 125)
    assert c4_density(named("petersen").graph) == Fraction(9, 200)
    assert c4_density(named("clebsch").graph) == Fraction(195, 4096)


def test_c4_fast_path_matches_brute_force():
    for g in enumerate_triangle_free(5):
        assert c4_density(g) == c4_brute(g)
    assert c4_density(cycle(5)) == c4_brute(cycle(5))
    assert c4_density(named("petersen").graph) == c4_brute(named("petersen").graph)


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, picked)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_c4_density_matches_the_tuple_oracle(g):
    assert c4_density(g) == c4_brute(g) == c4_by_paths(g)


@st.composite
def triangle_free_plus_one_edge(draw, max_n=12):
    """A random triangle-free graph with one more edge, which may close triangles."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    rows, edges = [0] * n, []
    for u, v in pairs[:rng.randint(0, len(pairs))]:
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            edges.append((u, v))
    missing = [(u, v) for u, v in pairs if not rows[u] >> v & 1]
    if missing:
        edges.append(rng.choice(missing))
    return Graph.from_edges(n, edges)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(max_n=12), triangle_free_plus_one_edge()))
def test_c4_density_matches_the_path_oracle(g):
    assert c4_density(g) == c4_by_paths(g)


@pytest.mark.parametrize("name", ["petersen", "clebsch", "hoffman_singleton"])
def test_c4_density_matches_the_path_oracle_with_one_added_edge(name):
    g = named(name).graph
    u = 0
    w = next(v for v in range(1, g.n) if not g.has_edge(u, v) and g.adj[u] & g.adj[v])
    h = Graph.from_edges(g.n, g.edges() + [(u, w)])  # closes a triangle through u and w
    assert c4_density(g) == c4_by_paths(g)
    assert c4_density(h) == c4_by_paths(h) != c4_density(g)


def test_c4_density_is_memoized_per_graph():
    c4_density.cache_clear()
    verify.run(["quadrilaterals"], 1)
    info = c4_density.cache_info()
    upto8 = [g for n in range(1, 9) for g in enumerate_triangle_free(n)]
    upto7 = [g for g in upto8 if g.n <= 7]
    # the 582 corpus graphs with n <= 8, then the named Clebsch graph and 5-cycle
    assert info.misses == len(upto8) + 2 == 584
    # the trivial and general lines read every corpus graph, the matching-free
    # line those without an induced 2-matching, krivelevich_bound each graph
    # with an edge and n <= 7, and the two tightness rows their named graph
    calls = (2 * len(upto8) + sum(not has_induced_2matching(g) for g in upto8)
             + sum(g.edge_count() > 0 for g in upto7) + 2)
    assert info.hits == calls - info.misses == 915
    g = named("clebsch").graph
    twin = Graph(g.n, list(g.adj))
    assert twin is not g and twin == g
    assert c4_density(twin) is c4_density(g)
    assert c4_density.cache_info() == info._replace(hits=info.hits + 2)


def test_c4_tightness_at_the_two_extremal_graphs():
    assert c4_density(named("clebsch").graph) == c4_lower_general(Fraction(5, 16))
    assert c4_density(cycle(5)) == c4_lower_no_2matching(Fraction(2, 5))


def test_c4_srg_closed_form_on_named_graphs():
    for name in ("c5", "petersen", "clebsch", "hoffman_singleton", "gewirtz", "m22", "higman_sims"):
        ng = named(name)
        n, k, _, c = ng.expected_srg
        assert c4_density(ng.graph) == Fraction(3 * (k**2 + c**2 * (n - k - 1)), n**3)


def test_blowup_invariance_of_densities():
    for g in enumerate_triangle_free(4) + [cycle(5)]:
        base_rho, base_c4 = rho(g), c4_density(g)
        for t in (2, 3):
            b = blowup(g, t)
            assert rho(b) == base_rho
            assert c4_density(b) == base_c4


def test_theorem_bounds_on_small_graphs():
    for g in enumerate_triangle_free(6):
        r, c4 = rho(g), c4_density(g)
        assert c4 >= c4_lower_general(r)
        if r < 1:
            assert c4 >= c4_lower_trivial(r)
        if not has_induced_2matching(g):
            assert c4 >= c4_lower_no_2matching(r)


def test_partition_densities_square_example():
    g = cycle(4)
    x, y = 0b0011, 0b1100
    assert part_density(g, x) == Fraction(1, 16)
    assert part_density(g, y) == Fraction(1, 16)
    assert cross_density(g, x, y) == cross_density(g, y, x) == Fraction(4, 16)


def test_partition_densities_edge_cases():
    g = cycle(5)
    assert part_density(g, 0b11111) == rho(g) / 2
    assert part_density(g, 0) == 0 and cross_density(g, 0, 0b11111) == 0
    with pytest.raises(ValueError):
        cross_density(g, 0b011, 0b110)


def test_partition_sum_rule_random():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        labels = [rng.randrange(3) for _ in range(n)]
        parts = [sum(1 << v for v in range(n) if labels[v] == i) for i in range(3)]
        total = 2 * sum(part_density(g, x) for x in parts) + sum(
            cross_density(g, parts[i], parts[j]) for i, j in ((0, 1), (0, 2), (1, 2))
        )
        assert total == rho(g)


@st.composite
def graphs_with_disjoint_masks(draw, max_n=12):
    g = draw(small_graphs(max_n=max_n))
    labels = draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    x = sum(1 << v for v, label in enumerate(labels) if label == 0)
    y = sum(1 << v for v, label in enumerate(labels) if label == 1)
    return g, x, y


@settings(max_examples=80, deadline=None)
@given(graphs_with_disjoint_masks())
def test_part_and_cross_density_match_an_edge_count(case):
    g, x, y = case
    inside = sum(1 for u, v in g.edges() if x >> u & 1 and x >> v & 1)
    between = sum(1 for u, v in g.edges()
                  if x >> u & 1 and y >> v & 1 or y >> u & 1 and x >> v & 1)
    assert part_density(g, x) == Fraction(inside, g.n**2)
    assert cross_density(g, x, y) == Fraction(2 * between, g.n**2)


def test_max_degree_rel():
    assert max_degree_rel(cycle(5)) == Fraction(2, 5)
    assert max_degree_rel(named("petersen").graph) == Fraction(3, 10)
