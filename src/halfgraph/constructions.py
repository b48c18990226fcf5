"""Explicit half constructions and the exact bounds they certify.

Every constructor returns a BoundCertificate whose `bound` is beta(G, half),
recomputed from the weights by `halves._split_half` or `_mask_certificate`,
never the analytic shortcut; analytic values ride along in `params` and are
checked against the recomputation by `require` (CertificateError, also -O).

Vertex sets are int bitmasks.  Convention note: rho_x here always means
|E(X)|/n^2 (`part_density`, no factor 2) and rho_xy means 2|E(X,Y)|/n^2
(`cross_density`), so a closed form of 2*beta carries an explicit factor 2 on
within-part terms.
"""

from __future__ import annotations

from fractions import Fraction

from .density import c4_density, cross_density, part_density, rho
from .exactmath import sparse_estimate
from .graphcore import (
    Graph,
    NamedGraph,
    _bits,
    _induced_2matchings,
    _induced_edges,
    _mask_of,
    is_triangle_free,
)
from .halves import (
    BoundCertificate,
    _mask_certificate,
    _odd_cost,
    _split_half,
    require,
)


class RecipeSearchError(Exception):
    """A recipe search exhausted its candidates without the stated counts."""


# ---------------------------------------------------------------------------
# Per-edge splits
# ---------------------------------------------------------------------------


def edge_halves(g: Graph, edge) -> tuple[BoundCertificate, BoundCertificate]:
    """The two halves of the split by `edge` = (v1, v2), adjacent with no common neighbour.

    With e_i = deg(v_i)/n <= 1/2, e1 + e2 < 1 (else ValueError), B = V - N(v1) - N(v2) and
    p1 = (1/2 - e1)/(1 - e1 - e2) = 1 - p2, half i is `_split_half` (N(v_i), B, p_i).
    """
    v1, v2 = edge
    if not g.has_edge(v1, v2):
        raise ValueError(f"({v1}, {v2}) is not an edge")
    a1, a2 = g.adj[v1], g.adj[v2]
    if a1 & a2:
        raise ValueError("common neighborhood not empty: graph has a triangle")
    e1, e2 = Fraction(a1.bit_count(), g.n), Fraction(a2.bit_count(), g.n)
    if e1 + e2 >= 1:
        raise ValueError(f"degenerate split: e1 + e2 = {e1 + e2} >= 1")
    if e1 > Fraction(1, 2) or e2 > Fraction(1, 2):
        raise ValueError("relative degree above 1/2; split weights leave [0, 1]")
    b = ((1 << g.n) - 1) & ~(a1 | a2)
    p1 = (Fraction(1, 2) - e1) / (1 - e1 - e2)
    return tuple(_split_half(g, "edge", own, b, p, dict(v1=v1, v2=v2, side=side, e1=e1, e2=e2, p=p))
                 for side, own, p in (("a1", a1, p1), ("a2", a2, 1 - p1)))


def krivelevich_bound(g: Graph) -> Fraction:
    """beta(G) <= rho/8 - C4/(12 rho), from averaging the split bound over edges."""
    r = rho(g)
    if r == 0:
        raise ValueError("edgeless graph: the averaged edge bound needs rho > 0")
    return r / 8 - c4_density(g) / (12 * r)


# ---------------------------------------------------------------------------
# Max-degree halves (the Delta >= 1/4 workhorse)
# ---------------------------------------------------------------------------


def _max_degree_split(g: Graph):
    """(v, Delta, N(v), V - N(v)) as masks, for the lowest-index vertex v of maximum degree."""
    v = min(range(g.n), key=lambda u: (-g.degree(u), u))
    hood = g.adj[v]
    return v, Fraction(hood.bit_count(), g.n), hood, ((1 << g.n) - 1) & ~hood


def maxdeg_halves(g: Graph) -> BoundCertificate:
    """Two halves built from a maximum-degree vertex, plus the analytic bound.

    As `_split_half` (top, rest, p) triples, mu0 is (empty, V - N(v), 1/(2(1-Delta)))
    and mu1 is (N(v), V - N(v), (1/2-Delta)/(1-Delta)); the better one's certificate
    is returned, and the analytic rho*(1-2*Delta)/(8*(1-Delta)^2) must dominate it.
    """
    v, delta, hood, rest = _max_degree_split(g)
    if delta >= Fraction(1, 2):
        raise ValueError(f"max degree {delta} >= 1/2; half weights would exceed 1")
    params = {"vertex": v, "delta": delta}
    c0 = _split_half(g, "maxdeg", 0, rest, 1 / (2 * (1 - delta)), params)
    c1 = _split_half(g, "maxdeg", hood, rest, (Fraction(1, 2) - delta) / (1 - delta), params)
    analytic = rho(g) * (1 - 2 * delta) / (8 * (1 - delta) ** 2)
    require(analytic >= min(c0.bound, c1.bound),
            f"maxdeg: analytic {analytic} below both halves {c0.bound}, {c1.bound}")
    best = c0 if c0.bound <= c1.bound else c1
    best.params.update(analytic_bound=analytic, beta_mu0=c0.bound, beta_mu1=c1.bound)
    return best


def maxdeg_combination_residual(g: Graph) -> Fraction:
    """Exact residual of the two-half combination identity (must be zero).

    (1-2D)*rhs0 + rhs1 - (1-2D)/(2(1-D)) * rho where rhs_i is the closed form
    of 2*beta(G, mu_i); zero certifies the lemma-producing combination.
    """
    _, delta, hood, rest = _max_degree_split(g)
    rho_ab, rho_b = cross_density(g, hood, rest), part_density(g, rest)
    q = (Fraction(1, 2) - delta) / (1 - delta)
    rhs0 = rho_b / (2 * (1 - delta) ** 2)
    rhs1 = q * rho_ab + 2 * q**2 * rho_b
    combined = (1 - 2 * delta) * rhs0 + rhs1
    # the neighborhood is independent, so rho_ab + 2*rho_b = rho
    return combined - (1 - 2 * delta) / (2 * (1 - delta)) * (rho_ab + 2 * rho_b)


# ---------------------------------------------------------------------------
# Three-half bound (the Delta <= 1/4 case)
# ---------------------------------------------------------------------------


def triple_half_bound(g: Graph) -> BoundCertificate:
    """Best of the three halves around the heaviest edge, with the analytic value.

    Picks v1 of maximum degree, v2 of maximum degree inside N(v1) (ties to
    the lowest index).  mu1 and mu2 are `edge_halves(g, (v1, v2))`, the one
    split of the edge; mu0 is the `_split_half` (N(v1) | N(v2), rest, p0) with
    e1 = Delta and e2 = deg(v2)/n.  The best half's certificate is returned,
    ties to mu0; the analytic f(rho, Delta, e2) must dominate it.
    """
    if not is_triangle_free(g):
        raise ValueError("construction requires a triangle-free graph")
    if g.edge_count() == 0:
        raise ValueError("graph has no edges")
    v1, delta, hood, _ = _max_degree_split(g)
    if delta > Fraction(1, 4):
        raise ValueError(f"max degree {delta} > 1/4: use maxdeg_halves, which covers that case")
    v2 = min(_bits(hood), key=lambda u: (-g.degree(u), u))
    c1, c2 = edge_halves(g, (v1, v2))
    e2 = Fraction(g.degree(v2), g.n)
    both = hood | g.adj[v2]
    p0 = (Fraction(1, 2) - delta - e2) / (1 - delta - e2)
    certs = (_split_half(g, "triple", both, ((1 << g.n) - 1) & ~both, p0, {}), c1, c2)
    values = [c.bound for c in certs]
    analytic = sparse_estimate().eval({"rho": rho(g), "delta": delta, "e2": e2})
    require(analytic >= min(values), f"triple: analytic {analytic} below every half {values}")
    best_idx = min(range(3), key=lambda i: (values[i], i))
    return BoundCertificate("triple", values[best_idx], certs[best_idx].half, {
        "v1": v1, "v2": v2, "delta": delta, "e2": e2, "p0": p0,
        "analytic_bound": analytic, "chosen": f"mu{best_idx}",
    })


# ---------------------------------------------------------------------------
# Recipe halves on the named strongly regular graphs
# ---------------------------------------------------------------------------


def _expect_named(ng: NamedGraph, name: str) -> Graph:
    if not isinstance(ng, NamedGraph) or ng.name != name:
        raise ValueError(f"this recipe applies to the {name} graph only")
    return ng.graph


def _union_recipe(g: Graph, method: str, candidates, edges: int, cost, params) -> BoundCertificate:
    """The first root tuple whose neighborhood union spans `edges` edges.

    The union of N(r) over the roots, minus the roots, must have n//2
    vertices.  Unless `cost` is None, `_odd_cost`'s vertex must also have
    `cost` neighbors in it.  `params(roots)` gives the certificate's params.
    """
    best = None
    for roots in candidates:
        mask = 0
        for r in roots:
            mask |= g.adj[r]
        mask &= ~_mask_of(roots)
        size = mask.bit_count()
        if size != g.n // 2:
            raise RecipeSearchError(f"neighborhood union has {size} vertices, wanted {g.n // 2}")
        induced = _induced_edges(g.adj, mask)
        if best is None or abs(induced - edges) < abs(best[0] - edges):
            best = (induced, roots)
        if induced == edges and (cost is None or _odd_cost(g.adj, g.n, mask)[0] == cost):
            return _mask_certificate(g, method, mask, induced, params(roots))
    pivot = "" if cost is None else f" with a {cost}-neighbor pivot"
    closest = f"closest {best[0]} edges at roots {best[1]}" if best else "no candidate"
    raise RecipeSearchError(f"{method}: no root tuple spans {edges} edges{pivot}; {closest}")


def clebsch_recipe_half(ng: NamedGraph) -> BoundCertificate:
    """Union of the first edge's endpoint neighborhoods, minus the endpoints.

    Disjoint neighborhoods force exactly 8 = n/2 vertices, which span 4 edges
    on every edge, so beta <= 1/64 <= 1/50.
    """
    g = _expect_named(ng, "clebsch")
    return _union_recipe(g, "clebsch-recipe", g.edges()[:1], 4, None, lambda r: {"edge": r})


def gewirtz_recipe_half(ng: NamedGraph) -> BoundCertificate:
    """First induced 2-matching whose neighborhood union (28 = n/2 vertices) spans 51 edges."""
    g = _expect_named(ng, "gewirtz")
    return _union_recipe(g, "gewirtz-recipe", _induced_2matchings(g), 51, None,
                         lambda r: {"roots": r})


def m22_recipe_half(ng: NamedGraph) -> BoundCertificate:
    """Three-root neighborhood union with |A|=38, |E(A)|=109, plus half a vertex.

    Roots are an edge (u1, u2) and a third vertex u3 outside both
    neighborhoods; the half adds weight 1/2 at the vertex beta_exact would
    pick (`_odd_cost`), which must have 9 neighbors in A, certifying
    (109 + 9/2)/77^2 < 0.0192.
    """
    g = _expect_named(ng, "m22")
    triples = ((u1, u2, u3) for u1, u2 in g.edges() for u3 in range(g.n)
               if not (g.adj[u1] | g.adj[u2] | 1 << u1 | 1 << u2) >> u3 & 1)
    return _union_recipe(g, "m22-recipe", triples, 109, 9,
                         lambda r: {"roots": r, "set_size": g.n // 2})
