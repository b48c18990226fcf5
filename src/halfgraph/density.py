"""Flag-style densities: rho, the 4-cycle density, part and cross densities.

Densities follow blow-up semantics: vertices are sampled independently with
repetition, so degenerate tuples (repeated vertices realizing paths or single
edges) contribute to the 4-cycle density.  All values are exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .graphcore import Graph, _bits, _induced_edges


def rho(g: Graph) -> Fraction:
    """Edge density 2|E| / n^2."""
    return Fraction(2 * g.edge_count(), g.n * g.n)


def max_degree_rel(g: Graph) -> Fraction:
    """Maximum relative degree max_v |N(v)|/n."""
    return Fraction(g.max_degree(), g.n)


def c4_density(g: Graph) -> Fraction:
    """Probability that four independently sampled vertices induce a 4-cycle.

    Counted per labeled cycle structure: a tuple (v1, v2, v3, v4) realizes the
    cycle 1-2-3-4-1 iff the four cycle pairs are edges and both diagonals are
    non-edges; the two other structures contribute symmetrically (factor 3).
    The loop runs over ordered edges (v1, v2) and neighbors w1 of v1, counting
    the admissible w2 by one mask intersection, so the cost is O(sum deg^2)
    words instead of n^4 tuples.
    """
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
