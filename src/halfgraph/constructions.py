"""Explicit half constructions and the exact bounds they certify.

Every constructor returns a BoundCertificate whose `bound` is beta(G, half)
recomputed from the weights, never the analytic shortcut; analytic values
ride along in `params` and are checked against the recomputation by
`require`, which raises CertificateError (also under python -O).

Vertex sets are int bitmasks.  Convention note: rho_x here always means
|E(X)|/n^2 (`part_density`, no factor 2) and rho_xy means 2|E(X,Y)|/n^2
(`cross_density`), so closed forms carry an explicit factor 2 on within-part
terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    Half,
    _mask_certificate,
    _odd_cost,
    beta_of_half,
    certificate,
    require,
)


class RecipeSearchError(Exception):
    """A recipe search exhausted its candidates without the stated counts."""


def _search_failed(message: str, best) -> RecipeSearchError:
    """The error for an exhausted search, naming the closest (count, roots) it saw."""
    closest = f"closest {best[0]} edges at roots {best[1]}" if best else "no candidate"
    return RecipeSearchError(f"{message}; {closest}")


# ---------------------------------------------------------------------------
# Per-edge splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeSplit:
    """The three-part split induced by one edge: both neighborhoods and the rest, as masks."""

    v1: int
    v2: int
    a1: int
    a2: int
    b: int
    e1: Fraction
    e2: Fraction
    p1: Fraction
    p2: Fraction


@lru_cache(maxsize=None)
def edge_split(g: Graph, edge: tuple[int, int]) -> EdgeSplit:
    """The split of g by `edge`, memoized per (graph, edge) tuple."""
    v1, v2 = edge
    if not g.has_edge(v1, v2):
        raise ValueError(f"({v1}, {v2}) is not an edge")
    if g.adj[v1] & g.adj[v2]:
        raise ValueError("common neighborhood not empty: graph has a triangle")
    n = g.n
    e1 = Fraction(g.degree(v1), n)
    e2 = Fraction(g.degree(v2), n)
    if e1 + e2 >= 1:
        raise ValueError(f"degenerate split: e1 + e2 = {e1 + e2} >= 1")
    if e1 > Fraction(1, 2) or e2 > Fraction(1, 2):
        raise ValueError("relative degree above 1/2; split weights leave [0, 1]")
    a1, a2 = g.adj[v1], g.adj[v2]
    p1 = (Fraction(1, 2) - e1) / (1 - e1 - e2)
    return EdgeSplit(v1=v1, v2=v2, a1=a1, a2=a2, b=((1 << n) - 1) & ~(a1 | a2),
                     e1=e1, e2=e2, p1=p1, p2=1 - p1)


def edge_halves(g: Graph, edge: tuple[int, int]) -> tuple[BoundCertificate, BoundCertificate]:
    """The two halves supported on one side of an edge split.

    Half i puts weight 1 on N(v_i), p_i on the rest, 0 on N(v_{3-i}); its
    value satisfies beta(G, mu_i) = (p_i * rho_{a_i b})/2 + p_i^2 * rho_b,
    which is checked against the recomputed bound.
    """
    split = edge_split(g, edge)
    rho_b = part_density(g, split.b)
    certs = []
    for tag, own, p in (("a1", split.a1, split.p1), ("a2", split.a2, split.p2)):
        mu = Half.from_masks(g.n, [(own, 1), (split.b, p)])
        cert = certificate(g, "edge", mu, {
            "v1": split.v1, "v2": split.v2, "side": tag,
            "e1": split.e1, "e2": split.e2, "p": p,
        })
        closed_form = p * cross_density(g, own, split.b) / 2 + p**2 * rho_b
        require(cert.bound == closed_form,
                f"edge half {tag}: bound {cert.bound} != closed form {closed_form}")
        certs.append(cert)
    return certs[0], certs[1]


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

    mu0 avoids the neighborhood entirely; mu1 takes all of it.  The returned
    certificate carries the better actual half; the analytic value
    rho*(1-2*Delta)/(8*(1-Delta)^2) is checked to dominate it.
    """
    n = g.n
    v, delta, hood, rest = _max_degree_split(g)
    if delta >= Fraction(1, 2):
        raise ValueError(f"max degree {delta} >= 1/2; half weights would exceed 1")
    mu0 = Half.from_masks(n, [(rest, 1 / (2 * (1 - delta)))])
    mu1 = Half.from_masks(n, [(hood, 1), (rest, (Fraction(1, 2) - delta) / (1 - delta))])
    beta0 = beta_of_half(g, mu0)
    beta1 = beta_of_half(g, mu1)
    analytic = rho(g) * (1 - 2 * delta) / (8 * (1 - delta) ** 2)
    require(analytic >= min(beta0, beta1),
            f"maxdeg: analytic {analytic} below both halves {beta0}, {beta1}")
    best = mu0 if beta0 <= beta1 else mu1
    return certificate(g, "maxdeg", best, {
        "vertex": v, "delta": delta, "analytic_bound": analytic,
        "beta_mu0": beta0, "beta_mu1": beta1,
    })


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
    the lowest index).  mu1 and mu2 are `edge_halves(g, (v1, v2))`; mu0 takes
    both neighborhoods, and its closed form is checked here.  params carry the
    analytic estimate f(rho, Delta, e2), which must dominate the best half.
    """
    if not is_triangle_free(g):
        raise ValueError("construction requires a triangle-free graph")
    if g.edge_count() == 0:
        raise ValueError("graph has no edges")
    v1, delta, _, _ = _max_degree_split(g)
    if delta > Fraction(1, 4):
        raise ValueError(f"max degree {delta} > 1/4: use maxdeg_halves, which covers that case")
    v2 = min(_bits(g.adj[v1]), key=lambda u: (-g.degree(u), u))
    c1, c2 = edge_halves(g, (v1, v2))
    split = edge_split(g, (v1, v2))
    both = split.a1 | split.a2
    p0 = (Fraction(1, 2) - split.e1 - split.e2) / (1 - split.e1 - split.e2)
    mu0 = Half.from_masks(g.n, [(both, 1), (split.b, p0)])
    values = [beta_of_half(g, mu0), c1.bound, c2.bound]
    closed_form = (cross_density(g, split.a1, split.a2) + p0 * cross_density(g, both, split.b)
                   + 2 * p0**2 * part_density(g, split.b)) / 2
    require(values[0] == closed_form, f"triple: mu0 {values[0]} != closed form {closed_form}")

    analytic = sparse_estimate().eval({"rho": rho(g), "delta": delta, "e2": split.e2})
    require(analytic >= min(values), f"triple: analytic {analytic} below every half {values}")
    best_idx = min(range(3), key=lambda i: (values[i], i))
    return certificate(g, "triple", (mu0, c1.half, c2.half)[best_idx], {
        "v1": v1, "v2": v2, "delta": delta, "e2": split.e2, "p0": p0,
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
    raise _search_failed(f"{method}: no root tuple spans {edges} edges{pivot}", best)


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
