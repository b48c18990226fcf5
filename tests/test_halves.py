"""Tests for halves, exact beta, and local search."""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfgraph

from halfgraph import halves
from halfgraph.graphcore import (
    Graph,
    _bits,
    _induced_edges as _subset_edges,
    blowup,
    canonical_key,
    cycle,
    empty,
    enumerate_triangle_free,
    is_triangle_free,
    named,
    petersen,
)
from halfgraph.halves import (
    CertificateError,
    Half,
    HalfError,
    ResourceLimitError,
    _edge_floor,
    _steepest_descent,
    _transitive_blowup,
    beta_exact,
    beta_of_half,
    certificate,
    local_search_half,
    require,
)


def _witness(n, mask, half_vertex=None):
    """Weight 1 on the n//2-set mask, plus 1/2 on half_vertex when one is given."""
    return Half.from_masks(n, mask, 0 if half_vertex is None else 1 << half_vertex)


def _beta_scan(g):
    """Exhaustive oracle: every half-size vertex subset, plus the best half-vertex."""
    n, adj = g.n, g.adj
    half_size = n // 2
    best = None
    for subset in combinations(range(n), half_size):
        mask = 0
        for v in subset:
            mask |= 1 << v
        doubled = 2 * _subset_edges(adj, mask)
        if n % 2:
            extra = min((adj[v] & mask).bit_count() for v in range(n) if not mask >> v & 1)
            doubled += extra
        if best is None or doubled < best[0]:
            best = (doubled, mask)
            if doubled == 0:
                break
    doubled, mask = best
    half_vertex = None
    if n % 2:
        target = doubled - 2 * _subset_edges(adj, mask)
        half_vertex = min(
            v for v in range(n)
            if not mask >> v & 1 and (adj[v] & mask).bit_count() == target
        )
    return Fraction(doubled, 2 * n * n), _witness(n, mask, half_vertex)


def _oracle_beta_branch_bound(g, max_nodes):
    """The branch-and-bound before twin-prefix pruning: the same search, every branch."""
    n, adj = g.n, g.adj
    half_size = n // 2
    odd = n % 2
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())

    mask = 0
    for v in sorted(range(n), key=lambda u: adj[u].bit_count())[:half_size]:
        mask |= 1 << v
    best_doubled = 2 * _subset_edges(adj, mask)
    if odd:
        best_doubled += min((adj[v] & mask).bit_count() for v in range(n) if not mask >> v & 1)
    best_mask = mask

    nodes = 0

    def completion_bound(mask, size, index) -> int:
        need = half_size - size
        if need == 0:
            return 0
        gains = sorted((adj[order[i]] & mask).bit_count() for i in range(index, n))
        return sum(gains[:need])

    def walk(index: int, mask: int, size: int, edges: int):
        nonlocal nodes, best_doubled, best_mask
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(f"oracle exceeded {max_nodes} nodes")
        if size == half_size:
            doubled = 2 * edges
            if odd:
                doubled += min(
                    (adj[v] & mask).bit_count() for v in range(n) if not mask >> v & 1
                )
            if doubled < best_doubled:
                best_doubled, best_mask = doubled, mask
            return
        if index == n or n - index < half_size - size:
            return
        if 2 * (edges + completion_bound(mask, size, index)) >= best_doubled:
            return
        v = order[index]
        walk(index + 1, mask | (1 << v), size + 1, edges + (adj[v] & mask).bit_count())
        walk(index + 1, mask, size, edges)

    walk(0, 0, 0, 0)
    half_vertex = None
    if odd:
        target = best_doubled - 2 * _subset_edges(adj, best_mask)
        half_vertex = min(
            v for v in range(n)
            if not best_mask >> v & 1 and (adj[v] & best_mask).bit_count() == target
        )
    return Fraction(best_doubled, 2 * n * n), _witness(n, best_mask, half_vertex)


def _oracle_steepest_descent(adj, n, mask):
    """The steepest descent that scans all |in| * |out| swap pairs at every step."""
    deg_in = [(adj[v] & mask).bit_count() for v in range(n)]
    edges = sum(deg_in[v] for v in _bits(mask)) // 2
    inside = sorted(_bits(mask))
    outside = sorted(v for v in range(n) if not mask >> v & 1)
    while True:
        best_delta, best_pair = 0, None
        for u in inside:
            du = deg_in[u]
            for w in outside:
                delta = deg_in[w] - (adj[u] >> w & 1) - du
                if delta < best_delta:
                    best_delta, best_pair = delta, (u, w)
        if best_pair is None:
            return edges, mask
        u, w = best_pair
        mask = (mask & ~(1 << u)) | (1 << w)
        edges += best_delta
        for x in _bits(adj[u]):
            deg_in[x] -= 1
        for x in _bits(adj[w]):
            deg_in[x] += 1
        inside[inside.index(u)] = w
        outside[outside.index(w)] = u
        inside.sort()
        outside.sort()


def _oracle_beta_of_half(g, mu):
    """beta(G, mu) as a per-edge Fraction sum, after a weight-by-weight validation."""
    w = mu.weights
    if len(w) != g.n:
        raise HalfError(f"half has {len(w)} weights for {g.n} vertices")
    if any(x < 0 or x > 1 for x in w):
        raise HalfError("weights must lie in [0, 1]")
    total = sum(w)
    if 2 * total != g.n:
        raise HalfError(f"weights sum to {total}, expected {Fraction(g.n, 2)}")
    edge_mass = Fraction(0)
    for u, v in g.edges():
        if w[u] and w[v]:
            edge_mass += w[u] * w[v]
    return edge_mass / g.n**2


def _mask(half):
    return sum(1 << v for v, w in enumerate(half.weights) if w == 1)


def rand_graph(rng, n, p=0.35):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_valid_half(rng, n) -> Half:
    """Random convex combination of random balanced 0-1 / almost-0-1 halves."""
    parts = []
    for _ in range(3):
        verts = rng.sample(range(n), n // 2)
        w = [Fraction(0)] * n
        for v in verts:
            w[v] = Fraction(1)
        if n % 2:
            rest = [v for v in range(n) if not w[v]]
            w[rng.choice(rest)] = Fraction(1, 2)
        parts.append(w)
    a = Fraction(rng.randint(0, 10), 10)
    b = (1 - a) * Fraction(rng.randint(0, 10), 10)
    c = 1 - a - b
    coeffs = (a, b, c)
    return Half(tuple(sum(c * p[v] for c, p in zip(coeffs, parts)) for v in range(n)))


# ---------------------------------------------------------------------------
# beta(G, mu)
# ---------------------------------------------------------------------------


def test_beta_of_half_pentagon_values():
    c5 = cycle(5)
    assert beta_of_half(c5, Half((1, 0, 1, 0, Fraction(1, 2)))) == Fraction(1, 50)
    assert beta_of_half(c5, Half((1, 1, 0, 0, Fraction(1, 2)))) == Fraction(3, 50)


def test_beta_of_half_independent_support_is_zero():
    from halfgraph.graphcore import independence_number

    g = cycle(8)
    _, witness = independence_number(g)  # alpha(C8) = 4 = n/2
    w = [Fraction(0)] * 8
    for v in witness:
        w[v] = Fraction(1)
    assert beta_of_half(g, Half(tuple(w))) == 0


def test_beta_of_half_validation():
    cases = [
        ((1, 0, 1), "half has 3 weights for 5 vertices"),
        ((2, 0, 0, 0, Fraction(1, 2)), "weights must lie in [0, 1]"),
        ((-1, 1, 1, 1, Fraction(1, 2)), "weights must lie in [0, 1]"),
        ((1, 1, 1, 0, 0), "weights sum to 3, expected 5/2"),
        ((Fraction(1, 3),) * 5, "weights sum to 5/3, expected 5/2"),
    ]
    for weights, message in cases:
        for check in (beta_of_half, _oracle_beta_of_half):
            with pytest.raises(HalfError) as err:
                check(cycle(5), Half(weights))
            assert str(err.value) == message


def test_overlapping_masks_are_a_half_error():
    with pytest.raises(HalfError, match="two weight classes"):
        Half.from_masks(5, 0b00101, 0b00110)


@pytest.mark.parametrize("top, rest", [(0b1000, 0), (0b011, 0b1000), (0b10000, 0b100)])
def test_a_mask_past_the_last_vertex_is_a_half_error(top, rest):
    with pytest.raises(HalfError, match=r"at or above n = 3$"):
        Half.from_masks(3, top, rest)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 14))
def test_from_masks_fills_the_rest_up_to_half_the_order(seed, n):
    # weight 1 on top and one weight in [0, 1] on rest, whenever |top| <= n/2 <= |top| + |rest|
    rng = random.Random(seed)
    g = rand_graph(rng, n, rng.choice([0.1, 0.35, 0.7]))
    top_size = rng.randint(0, n // 2)
    rest_size = rng.randint((n + 1) // 2 - top_size, n - top_size)
    chosen = rng.sample(range(n), top_size + rest_size)
    top = sum(1 << v for v in chosen[:top_size])
    rest = sum(1 << v for v in chosen[top_size:])
    half = Half.from_masks(n, top, rest)
    on_rest = {half.weights[v] for v in _bits(rest)}
    assert [half.weights[v] for v in _bits(top)] == [1] * top_size
    assert len(on_rest) <= 1 and all(0 <= p <= 1 for p in on_rest)
    assert sum(half.weights) == Fraction(n, 2)
    assert not any(w for v, w in enumerate(half.weights) if not (top | rest) >> v & 1)
    assert beta_of_half(g, half) == halves._split_value(g, top, rest)


@st.composite
def graphs_with_halves(draw, max_n=14):
    """A random graph padded with isolated vertices, and a mixed or an almost-0-1 half."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    base = rand_graph(rng, draw(st.integers(1, max_n)), draw(st.sampled_from([0.1, 0.35, 0.7])))
    n = base.n + draw(st.integers(0, 3))
    g = Graph.from_edges(n, base.edges())
    if draw(st.booleans()):
        return g, random_valid_half(rng, n)  # up to 27 distinct weights
    mask = sum(1 << v for v in rng.sample(range(n), n // 2))
    half_vertex = rng.choice([v for v in range(n) if not mask >> v & 1]) if n % 2 else None
    return g, _witness(n, mask, half_vertex)


@settings(max_examples=300, deadline=None)
@given(graphs_with_halves())
def test_beta_of_half_matches_the_per_edge_oracle(case):
    g, mu = case
    assert beta_of_half(g, mu) == _oracle_beta_of_half(g, mu)


@pytest.mark.parametrize("weights", [
    (0.5, 0.5, 0.5, 0.5),
    (0.1, 0.9, 0.5, 0.5),
    (1, 0, Fraction(1, 2), 0.5),
])
def test_float_weight_is_a_half_error(weights):
    with pytest.raises(HalfError, match="float"):
        Half(weights)


def test_int_and_fraction_weights_are_kept_exact():
    mu = Half((1, 0, Fraction(1, 2), Fraction(1, 2)))
    assert all(type(w) is Fraction for w in mu.weights)
    assert mu.weights == (1, 0, Fraction(1, 2), Fraction(1, 2))
    assert beta_of_half(cycle(4), mu) == Fraction(3, 64)


# ---------------------------------------------------------------------------
# exact beta
# ---------------------------------------------------------------------------


def test_beta_exact_known_values():
    assert beta_exact(cycle(5))[0] == Fraction(1, 50)
    assert beta_exact(petersen())[0] == Fraction(1, 50)
    assert beta_exact(empty(4))[0] == 0


def test_beta_exact_witness_consistency():
    for g in (cycle(5), cycle(7), petersen()):
        value, witness = beta_exact(g)
        assert beta_of_half(g, witness) == value


def test_beta_exact_minimality_against_random_halves():
    rng = random.Random(41)
    for _ in range(6):
        g = rand_graph(rng, rng.randint(4, 9))
        value, _ = beta_exact(g)
        for _ in range(100):
            assert value <= beta_of_half(g, random_valid_half(rng, g.n))


def test_zero_one_minimum_never_beaten_by_fractional_grid():
    rng = random.Random(43)
    for g in enumerate_triangle_free(6)[:12]:
        value, _ = beta_exact(g)
        for _ in range(40):
            assert value <= beta_of_half(g, random_valid_half(rng, g.n))


def test_beta_blowup_never_worse():
    for n in range(2, 8):
        for g in enumerate_triangle_free(n)[::4]:
            b1, _ = beta_exact(g)
            b2, _ = beta_exact(blowup(g, 2))
            assert b2 <= b1


def test_conjectured_global_bound_on_small_graphs():
    violations = []
    for n in range(2, 9):
        for g in enumerate_triangle_free(n):
            value, _ = beta_exact(g)
            if value > Fraction(1, 50):
                violations.append((n, g.edges(), value))
    assert violations == []


def test_branch_bound_matches_scan():
    for n in range(1, 9):
        for g in enumerate_triangle_free(n):
            value, witness = beta_exact(g)
            assert value == _beta_scan(g)[0]
            assert beta_of_half(g, witness) == value
    rng = random.Random(47)
    for _ in range(8):
        n = rng.choice([11, 12, 13, 14])
        g = rand_graph(rng, n, p=0.3)
        value, witness = beta_exact(g)
        assert value == _beta_scan(g)[0]
        assert beta_of_half(g, witness) == value


def test_beta_exact_budget_errors(monkeypatch):
    big = blowup(petersen(), 4)  # 40 vertices
    with pytest.raises(ResourceLimitError):
        beta_exact(big)
    monkeypatch.setattr(halves, "MAX_NODES", 10)
    with pytest.raises(ResourceLimitError, match="exceeded 10 nodes"):
        beta_exact(blowup(petersen(), 3))


@st.composite
def graphs_with_twins(draw, max_n=14):
    """Random graphs, some blown up by 2 and padded with isolated vertices, relabeled."""
    t = draw(st.sampled_from([1, 2]))
    base_n = draw(st.integers(1, max_n // t))
    pairs = [(u, v) for u in range(base_n) for v in range(u + 1, base_n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = blowup(Graph.from_edges(base_n, picked), t)
    n = g.n + draw(st.integers(0, max_n - g.n))
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=300, deadline=None)
@given(graphs_with_twins())
def test_twin_pruned_branch_bound_matches_the_oracle(g):
    assert beta_exact(g) == _oracle_beta_branch_bound(g, 20_000_000)


def test_twin_pruned_branch_bound_matches_the_oracle_on_small_triangle_free_graphs():
    for n in range(1, 9):
        for g in enumerate_triangle_free(n):
            assert beta_exact(g) == _oracle_beta_branch_bound(g, 20_000_000)


def test_twin_pruned_branch_bound_matches_the_oracle_on_blowups():
    for g in (blowup(cycle(5), 4), blowup(cycle(5), 5), blowup(petersen(), 2),
              blowup(cycle(7), 3), blowup(enumerate_triangle_free(6)[-1], 3)):
        assert beta_exact(g) == _oracle_beta_branch_bound(g, 20_000_000)


def _random_triangle_free(rng, n, edges):
    """Shuffled vertex pairs added while they close no triangle, up to `edges` edges."""
    rows = [0] * n
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    added = 0
    for u, v in pairs:
        if added == edges:
            break
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            added += 1
    return Graph(n, rows)


def _descent_undercuts_the_incumbent(g):
    """Whether the descent from the lowest-degree half beats it, so beta_exact starts warm."""
    n, adj = g.n, g.adj

    def doubled(mask):
        extra = 0
        if n % 2:
            extra = min((adj[v] & mask).bit_count() for v in range(n) if not mask >> v & 1)
        return 2 * _subset_edges(adj, mask) + extra

    start = sum(1 << v for v in sorted(range(n), key=lambda u: adj[u].bit_count())[:n // 2])
    _, found = _steepest_descent(adj, start)
    return doubled(found) < doubled(start)


def test_warm_started_search_matches_the_cold_oracle():
    rng = random.Random(61)
    warm_parities = set()
    for n in range(17, 27):
        for _ in range(3):
            g = _random_triangle_free(rng, n, rng.randint(n, 3 * n))
            assert beta_exact(g) == _oracle_beta_branch_bound(g, 20_000_000)
            if _descent_undercuts_the_incumbent(g):
                warm_parities.add(n % 2)
    # the warm path must run on odd and even n, or the comparison above tests only the cold one
    assert warm_parities == {0, 1}


@pytest.mark.parametrize("g, value, nodes", [
    # the root's exclude subtree is cut: 3,999 and 1,069 nodes without the cut
    (blowup(petersen(), 3), Fraction(1, 50), 1_957),
    (blowup(cycle(5), 5), Fraction(1, 50), 656),
    # the include subtrees' 568 and 312 nodes are below 5 * 16^2 and 5 * 10^2, so
    # symmetry is never tried: on petersen x2 its proof costs more than the 423 nodes it cuts
    (named("clebsch").graph, Fraction(1, 64), 1_143),
    (blowup(petersen(), 2), Fraction(1, 50), 736),
], ids=["petersen x3", "c5 x5", "clebsch", "petersen x2"])
def test_branch_and_bound_node_counts_are_pinned(g, value, nodes, monkeypatch):
    # a weaker completion bound would visit more nodes with the same value and witness
    monkeypatch.setattr(halves, "MAX_NODES", nodes)
    assert beta_exact(g)[0] == value
    monkeypatch.setattr(halves, "MAX_NODES", nodes - 1)
    with pytest.raises(ResourceLimitError):
        beta_exact(g)


def test_branch_and_bound_pins_a_random_triangle_free_graph(monkeypatch):
    # the non-transitive shape that dominates graph_queries: n = 26 with 3n edges
    g = _random_triangle_free(random.Random(1), 26, 78)
    assert g.edge_count() == 78 and len(set(g.adj)) == 26
    value, witness = beta_exact(g)
    assert value == Fraction(5, 676)
    assert witness.support() == (0, 5, 7, 8, 10, 12, 13, 15, 16, 18, 19, 23, 24)
    assert (value, witness) == _oracle_beta_branch_bound(g, 20_000_000)
    monkeypatch.setattr(halves, "MAX_NODES", 3_733)
    assert beta_exact(g) == (value, witness)
    monkeypatch.setattr(halves, "MAX_NODES", 3_732)
    with pytest.raises(ResourceLimitError):
        beta_exact(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 36), st.integers(0, 2**32), st.data())
def test_level_masks_sum_the_smallest_gains(n, seed, data):
    # beta_exact's completion bound: levels[j] holds the vertices with more than j
    # neighbours in the mask, grown one included vertex at a time as the search does
    rng = random.Random(seed)
    density = data.draw(st.floats(0, 1))
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    order = rng.sample(range(n), n)
    index = data.draw(st.integers(0, n))
    mask = 0
    levels = []
    for v in order[:index]:
        if rng.random() < 0.5:
            continue
        grown, below, row = [], -1, adj[v]
        for level in levels:
            grown.append(level | below & row)
            below = level
        if below & row:
            grown.append(below & row)
        mask, levels = mask | 1 << v, grown
    gains = {v: (adj[v] & mask).bit_count() for v in range(n)}
    assert levels == [sum(1 << v for v in range(n) if gains[v] > j)
                      for j in range(max(gains.values(), default=0))]
    rest = sum(1 << v for v in order[index:])
    need = data.draw(st.integers(0, n - index))
    slack = n - index - need
    terms = [(rest & level).bit_count() - slack for level in levels]
    bound = 0
    for over in terms:
        if over <= 0:
            break
        bound += over
    expected = sum(sorted(gains[v] for v in order[index:])[:need])
    assert bound == sum(max(0, over) for over in terms) == expected


def test_beta_exact_pinned_witness_of_the_c5_blowup():
    value, witness = beta_exact(blowup(cycle(5), 6))
    assert value == Fraction(1, 50)
    assert witness.support() == (*range(9), *range(18, 24))


@pytest.mark.parametrize("name, t, value, support, half_vertices", [
    ("c5", 4, Fraction(1, 50), (*range(6), *range(12, 16)), []),
    ("c5", 5, Fraction(1, 50), (*range(8), *range(15, 20)), [7]),
    ("petersen", 2, Fraction(1, 50), tuple(range(10)), []),
    ("petersen", 3, Fraction(1, 50), tuple(range(15)), []),
    ("clebsch", 2, Fraction(1, 64), (*range(4), *range(12, 16), *range(20, 28)), []),
])
def test_beta_exact_pinned_witnesses_of_vertex_transitive_blowups(name, t, value, support,
                                                                  half_vertices):
    # the witnesses before the root's exclude subtree was cut; c5 x6 is pinned above
    g = blowup(named(name).graph, t)
    assert _transitive_blowup(g.adj)
    got, witness = beta_exact(g)
    assert got == value
    assert witness.support() == support
    assert [v for v, w in enumerate(witness.weights) if w == Fraction(1, 2)] == half_vertices


def _circulant(n, steps):
    return Graph.from_edges(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


def _triangle_free_circulants(max_n):
    """One circulant C(n; S) per isomorphism class, S a nonempty subset of 1..n//2."""
    seen = set()
    for n in range(3, max_n + 1):
        for r in range(1, n // 2 + 1):
            for steps in combinations(range(1, n // 2 + 1), r):
                g = _circulant(n, steps)
                if not is_triangle_free(g):
                    continue
                key = canonical_key(g)
                if key not in seen:
                    seen.add(key)
                    yield g


def test_root_cut_matches_the_oracle_on_triangle_free_circulants(monkeypatch):
    proved = []

    def spy(adj):
        proved.append(_transitive_blowup(adj))
        return proved[-1]

    monkeypatch.setattr(halves, "_transitive_blowup", spy)
    for g in _triangle_free_circulants(20):
        assert beta_exact(g) == _oracle_beta_branch_bound(g, 20_000_000)
    # the cut must run, or the comparison above tests only the full search; it runs on 20 of
    # the 142 classes
    assert proved.count(True) >= 10


def _with_pendant(g, v):
    rows = [*g.adj, 1 << v]
    rows[v] |= 1 << g.n
    return Graph(g.n + 1, rows)


def _is_vertex_transitive(g):
    """Orbit oracle for a regular graph: G plus a pendant vertex at v is one class for every v."""
    return len({canonical_key(_with_pendant(g, v)) for v in range(g.n)}) == 1


def _blown_up_cycle(sizes):
    """The cycle C_len(sizes) with its i-th vertex replaced by sizes[i] non-adjacent twins."""
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    classes = [range(a, b) for a, b in zip(starts, starts[1:])]
    return Graph.from_edges(starts[-1], [(u, v) for i, cls in enumerate(classes)
                                         for u in cls for v in classes[i - 1]])


@pytest.mark.parametrize("g", [
    # C4 + C6 is 2-regular; C4's twin classes have 2 vertices and C6's have 1
    Graph.from_edges(10, [(i, (i + 1) % 4) for i in range(4)]
                     + [(4 + i, 4 + (i + 1) % 6) for i in range(6)]),
    # 3-regular with a vertex-transitive twin quotient C8, yet only some vertices have a twin
    _blown_up_cycle((1, 1, 2, 2, 1, 1, 2, 2)),
], ids=["c4 + c6", "c8 blown up by 1, 1, 2, 2, 1, 1, 2, 2"])
def test_root_cut_declines_a_regular_graph_with_unequal_twin_classes(g):
    assert len({row.bit_count() for row in g.adj}) == 1
    assert not _is_vertex_transitive(g)
    assert not _transitive_blowup(g.adj)
    assert beta_exact(g) == _oracle_beta_branch_bound(g, 20_000_000)


def _random_regular_triangle_free(rng, n):
    """C(n; 1), C(n; 1, 3) or C(n; 1, n/2), then 10n tries of a random edge switch.

    A switch replaces edges ab, cd by ac, bd; it keeps every degree and is
    kept only when it closes no triangle.
    """
    rows = list(_circulant(n, rng.choice([(1,), (1, 3)] + [(1, n // 2)] * (1 - n % 2))).adj)
    edges = [(u, v) for u in range(n) for v in _bits(rows[u]) if u < v]
    for _ in range(10 * n):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], rng.choice([edges[j], edges[j][::-1]])
        if len({a, b, c, d}) < 4 or rows[a] >> c & 1 or rows[b] >> d & 1:
            continue
        # the new edges ac and bd close a triangle through a common neighbour left after the switch
        if rows[a] & rows[c] & ~(1 << b | 1 << d) or rows[b] & rows[d] & ~(1 << a | 1 << c):
            continue
        rows[a] ^= 1 << b | 1 << c
        rows[b] ^= 1 << a | 1 << d
        rows[c] ^= 1 << d | 1 << a
        rows[d] ^= 1 << c | 1 << b
        edges[i], edges[j] = (a, c), (b, d)
    return Graph(n, rows)


def test_the_symmetry_proof_never_accepts_a_graph_the_orbit_oracle_rejects():
    graphs = [g for n in range(1, 11) for g in enumerate_triangle_free(n)
              if len({row.bit_count() for row in g.adj}) == 1]
    rng = random.Random(71)
    graphs += [_random_regular_triangle_free(rng, rng.randint(12, 20)) for _ in range(100)]
    graphs += [blowup(named(name).graph, t) for name, t in
               (("c5", 4), ("c5", 5), ("c5", 6), ("petersen", 2), ("petersen", 3), ("clebsch", 2))]
    verdicts = []
    for g in graphs:
        assert is_triangle_free(g) and len({row.bit_count() for row in g.adj}) == 1
        proved, transitive = _transitive_blowup(g.adj), _is_vertex_transitive(g)
        assert transitive or not proved, g.edges()
        verdicts.append((proved, transitive))
    # both kinds of graph occur, so the check above is not vacuous
    assert (False, False) in verdicts and (True, True) in verdicts


def test_beta_exact_twin_pruning_fits_a_small_budget(monkeypatch):
    # the search without twin pruning visits 90,803 nodes here
    monkeypatch.setattr(halves, "MAX_NODES", 5_000)
    value, _ = beta_exact(blowup(cycle(5), 6))
    assert value == Fraction(1, 50)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------


def test_local_search_requires_even_n():
    with pytest.raises(ValueError):
        local_search_half(cycle(5))


@st.composite
def even_graphs_and_starts(draw, max_n=40):
    """A random even-order graph (sometimes a blow-up) and a random balanced start mask."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = 2 * draw(st.integers(1, max_n // 2))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.8]))
    if n % 4 == 0 and draw(st.booleans()):
        g = blowup(rand_graph(rng, n // 2, p), 2)
    else:
        g = rand_graph(rng, n, p)
    mask = sum(1 << v for v in rng.sample(range(n), n // 2))
    return g, mask


@settings(max_examples=300, deadline=None)
@given(even_graphs_and_starts())
def test_steepest_descent_matches_the_all_pairs_oracle(case):
    g, mask = case
    assert _steepest_descent(g.adj, mask) == _oracle_steepest_descent(g.adj, g.n, mask)


def test_steepest_descent_matches_the_oracle_on_strongly_regular_graphs():
    # up to 24 bins in play (Higman-Sims is 22-regular); M22 has odd n, so its starts are 38-sets
    rng = random.Random(53)
    for name in ("petersen", "clebsch", "hoffman_singleton", "gewirtz", "m22", "higman_sims"):
        g = named(name).graph
        for _ in range(10):
            mask = sum(1 << v for v in rng.sample(range(g.n), g.n // 2))
            assert _steepest_descent(g.adj, mask) == _oracle_steepest_descent(g.adj, g.n, mask)


_C5_AND_THREE_ISOLATED = Graph.from_edges(8, [(i, (i + 1) % 5) for i in range(5)])
_P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("g, start, expected", [
    # no edges: nothing to gain, so the start comes back at once
    (empty(6), 0b101010, (0, 0b101010)),
    # the path {0, 1, 2, 3} of C5 spans 3 edges; the descent swaps 1 and then 2
    # out for the isolated 5 and 6 (bin 0), ending at the independent {0, 3, 5, 6}
    (_C5_AND_THREE_ISOLATED, 0b1111, (0, 0b1101001)),
    # vertices 0-4 of Petersen's disjointness graph span 2 edges, its minimum
    (petersen(), 0b11111, (2, 0b11111)),
    # 2 is swapped for 0, and their common neighbour 1 keeps its one neighbour
    # in the half, so no further swap looks improving
    (_P4, 0b1100, (0, 0b1001)),
], ids=["edgeless", "isolated-vertices", "local-minimum", "common-neighbour"])
def test_steepest_descent_small_cases(g, start, expected):
    assert _steepest_descent(g.adj, start) == expected
    assert _oracle_steepest_descent(g.adj, g.n, start) == expected


def test_local_search_on_a_graph_without_vertices_is_a_value_error():
    with pytest.raises(ValueError):
        local_search_half(Graph(0, []))


# seed -> (mask of the 175-edge half, restart that found it)
_HIGMAN_SIMS_HALVES = {
    1: (0x2B84DEB228EE727EE87AC5049, 4),
    2: (0x38C244D2EB27EE8EE77C17241, 3),
    3: (0x959BD7EB7777714218A72803, 1),
}


@pytest.mark.parametrize("seed", sorted(_HIGMAN_SIMS_HALVES))
def test_local_search_pinned_higman_sims_halves(seed):
    mask, found_at = _HIGMAN_SIMS_HALVES[seed]
    cert = local_search_half(named("higman_sims").graph, seed=seed)
    assert _mask(cert.half) == mask
    assert cert.params["induced_edges"] == 175 and cert.bound == Fraction(7, 400)
    assert cert.params["found_at_restart"] == found_at


_SRG_NAMES = ("petersen", "clebsch", "hoffman_singleton", "gewirtz", "higman_sims")


def test_edge_floor_hand_values():
    # n(k + lambda_min)/8: Petersen 10*1/8, Clebsch 16*2/8, Hoffman-Singleton
    # 50*4/8, Gewirtz 56*6/8, Higman-Sims 100*14/8, rounded up
    floors = [_edge_floor(named(name).graph) for name in _SRG_NAMES]
    assert floors == [2, 4, 25, 42, 175]
    k44 = Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])
    # empty(6) is an SRG with k = 0; C6 and the blow-up are regular but not
    # strongly regular; K4,4 has t = lambda_min = -4 = -k
    for g in (empty(6), cycle(6), blowup(cycle(5), 2), k44):
        assert _edge_floor(g) == 0


@pytest.mark.parametrize("name", _SRG_NAMES)
def test_the_floor_stop_keeps_every_certificate(name, monkeypatch):
    g = named(name).graph
    stopped = [local_search_half(g, seed=seed).to_dict() for seed in range(1, 6)]
    monkeypatch.setattr(halves, "_edge_floor", lambda g: 0)
    assert stopped == [local_search_half(g, seed=seed).to_dict() for seed in range(1, 6)]


@pytest.mark.parametrize("seed, descents", [(1, 5), (3, 2)])
def test_local_search_stops_at_the_floor(seed, descents, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _steepest_descent(*args)

    monkeypatch.setattr(halves, "_steepest_descent", counted)
    cert = local_search_half(named("higman_sims").graph, seed=seed)
    assert cert.params["induced_edges"] == 175 and cert.params["restarts"] == 20
    assert len(calls) == descents


def test_local_search_pentagon_blowup_hits_optimum():
    cert = local_search_half(blowup(cycle(5), 2), seed=1)
    assert cert.bound == Fraction(1, 50)
    assert beta_of_half(blowup(cycle(5), 2), cert.half) == cert.bound


def test_local_search_checks_the_descent_count_against_a_recount(monkeypatch):
    # blowup(C5, 2) is not strongly regular, so its floor is 0 and no restart stops early
    def one_edge_too_many(*args):
        edges, mask = _steepest_descent(*args)
        return edges + 1, mask

    monkeypatch.setattr(halves, "_steepest_descent", one_edge_too_many)
    with pytest.raises(CertificateError, match=r"bound 1/50 != 3/100$"):
        local_search_half(blowup(cycle(5), 2), seed=1)


def test_local_search_empty_graph_immediate():
    cert = local_search_half(empty(6), seed=3)
    assert cert.bound == 0


def test_local_search_deterministic_and_below_random_expectation():
    g = blowup(petersen(), 2)
    a = local_search_half(g, seed=7)
    b = local_search_half(g, seed=7)
    assert a.bound == b.bound and a.half == b.half
    rho = Fraction(2 * g.edge_count(), g.n**2)
    assert a.bound <= rho / 8 + Fraction(1, 100)


def test_certificate_recomputes_bound():
    g = cycle(6)
    mu = Half((1, 0, 1, 0, 1, 0))
    cert = certificate(g, "manual", mu, {"note": "alternating"})
    assert cert.bound == beta_of_half(g, mu) == 0
    d = cert.to_dict()
    assert d["method"] == "manual" and d["bound"] == "0"
    assert d["half"] == ["1", "0", "1", "0", "1", "0"]


def test_require_raises_a_certificate_error():
    require(True, "never raised")
    with pytest.raises(CertificateError, match="closed form differs"):
        require(False, "closed form differs")
    assert issubclass(CertificateError, ArithmeticError)  # cli.main prints it as error: ...


def test_require_survives_python_dash_O():
    code = ("from halfgraph.halves import CertificateError, require\n"
            "try:\n"
            "    require(False, 'boom')\n"
            "except CertificateError as err:\n"
            "    print('raised', err)\n")
    src = str(Path(halfgraph.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "raised boom"


def test_package_has_no_assert_statements():
    package = Path(halfgraph.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _half_building_calls(tree: ast.AST, module: str) -> set:
    """(module, innermost function, callee) for each call of certificate or Half.from_masks."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "certificate"
                    or isinstance(f, ast.Attribute) and f.attr == "certificate"):
                found.add((module, function, "certificate"))
            if isinstance(f, ast.Attribute) and f.attr == "from_masks":
                found.add((module, function, "from_masks"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_two_builders_certify_a_half():
    # every returned certificate is a mask (+ pivot) or a (top, rest) split
    package = Path(halfgraph.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found |= _half_building_calls(ast.parse(path.read_text()), path.name)
    builders = {"_mask_certificate", "_split_half"}
    assert found == ({("halves.py", b, "certificate") for b in builders}
                     | {("halves.py", b, "from_masks") for b in builders | {"beta_exact"}})
