"""Flag-style densities: rho, the 4-cycle density, part and cross densities.

Densities follow blow-up semantics: vertices are sampled independently with
repetition, so degenerate tuples (repeated vertices realizing paths or single
edges) contribute to the 4-cycle density.  All values are exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .graphcore import Graph, _bits, _induced_edges


def rho(g: Graph) -> Fraction:
    """Edge density 2|E| / n^2."""
    return Fraction(2 * g.edge_count(), g.n * g.n)


def max_degree_rel(g: Graph) -> Fraction:
    """Maximum relative degree max_v |N(v)|/n."""
    return Fraction(g.max_degree(), g.n)


@lru_cache(maxsize=None)
def c4_density(g: Graph) -> Fraction:
    """Probability that four independently sampled vertices induce a 4-cycle.

    The value is memoized per graph (a `Graph` is immutable and hashes by its
    rows), so the checks that revisit the small-graph corpus count each graph's
    4-cycles once per process.

    Counted per labeled cycle structure: a tuple (v1, v2, v3, v4) realizes the
    cycle 1-2-3-4-1 iff the four cycle pairs are edges and both diagonals are
    non-edges; the two other structures contribute symmetrically (factor 3).
    Fix the non-adjacent diagonal (a, c), a = c allowed, and let
    S = N(a) & N(c): the other diagonal is an ordered pair (x, y) of S with
    x not adjacent to y, and there are |S|^2 - 2 e(S) of them.  So the cost is
    one popcount per non-adjacent pair.  The e(S) term only matters for graphs
    with triangles: it is skipped when N(a) spans no edge.
    """
    n, adj = g.n, g.adj
    same = cross = 0  # a = c, and a < c (counted once, used twice)
    for a, row in enumerate(adj):
        spanned = _induced_edges(adj, row)
        same += row.bit_count() ** 2 - 2 * spanned
        later = [adj[c] for c in range(a + 1, n) if not row >> c & 1]
        if spanned:
            cross += sum((row & r).bit_count() ** 2 - 2 * _induced_edges(adj, row & r)
                         for r in later)
        else:
            cross += sum([(row & r).bit_count() ** 2 for r in later])
    return Fraction(3 * (same + 2 * cross), n**4)


def c4_lower_trivial(edge_density: Fraction) -> Fraction:
    """3*rho^4/(1-rho), the quasi-randomness floor for triangle-free graphs."""
    return 3 * edge_density**4 / (1 - edge_density)


def c4_lower_general(edge_density: Fraction) -> Fraction:
    """(3/2)*rho^2 - (81/256)*rho; tight on the Clebsch graph."""
    return Fraction(3, 2) * edge_density**2 - Fraction(81, 256) * edge_density


def c4_lower_no_2matching(edge_density: Fraction) -> Fraction:
    """(3/2)*rho^2 - (6/25)*rho; tight on the 5-cycle."""
    return Fraction(3, 2) * edge_density**2 - Fraction(6, 25) * edge_density


def part_density(g: Graph, x: int) -> Fraction:
    """|E(X)|/n^2 for the vertex mask x (no factor 2, unlike rho)."""
    if x >> g.n:
        raise ValueError("mask references vertices >= n")
    return Fraction(_induced_edges(g.adj, x), g.n * g.n)


def cross_density(g: Graph, x: int, y: int) -> Fraction:
    """2|E(X,Y)|/n^2 for disjoint vertex masks x and y.

    With this normalization, 2*sum part_density + sum cross_density over a
    partition of V equals rho.
    """
    if x & y:
        raise ValueError("the two vertex sets overlap")
    if (x | y) >> g.n:
        raise ValueError("mask references vertices >= n")
    between = sum((g.adj[v] & y).bit_count() for v in _bits(x))
    return Fraction(2 * between, g.n * g.n)
