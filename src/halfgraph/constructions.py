"""Explicit half constructions and the exact bounds they certify.

Every constructor returns a BoundCertificate whose `bound` is beta(G, half),
recomputed from the weights by `halves._split_half` or `_mask_certificate`,
never the analytic shortcut; analytic values ride along in `params` and are
checked against the recomputation by `require` (CertificateError, also -O).

Vertex sets are int bitmasks; a split half is a (top, rest) pair of them, and
every closed form of one is `halves._split_value`.
"""

from __future__ import annotations

from fractions import Fraction

from .density import c4_density, rho
from .exactmath import sparse_estimate
from .graphcore import (
    Graph,
    _bits,
    _induced_2matchings,
    _induced_edges,
    _mask_of,
    is_triangle_free,
    named,
)
from .halves import (
    BoundCertificate,
    _fill,
    _mask_certificate,
    _odd_cost,
    _split_half,
    _split_value,
    require,
)


class RecipeSearchError(Exception):
    """A recipe search exhausted its candidates without the stated counts."""


# ---------------------------------------------------------------------------
# Per-edge splits
# ---------------------------------------------------------------------------


def edge_halves(g: Graph, edge) -> tuple[BoundCertificate, BoundCertificate]:
    """The two halves of the split by `edge` = (v1, v2), adjacent with no common neighbour.

    With e_i = deg(v_i)/n <= 1/2, e1 + e2 < 1 (else ValueError) and B = V - N(v1) - N(v2),
    half i is the `_split_half` (N(v_i), B), whose weight on B is (1/2 - e_i)/(1 - e1 - e2).
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
    return tuple(_split_half(g, "edge", own, b,
                             dict(v1=v1, v2=v2, side=side, e1=e1, e2=e2, p=_fill(g.n, own, b)))
                 for side, own in (("a1", a1), ("a2", a2)))


def krivelevich_bound(g: Graph) -> Fraction:
    """beta(G) <= rho/8 - C4/(12 rho), from averaging the split bound over edges."""
    r = rho(g)
    if r == 0:
        raise ValueError("edgeless graph: the averaged edge bound needs rho > 0")
    return r / 8 - c4_density(g) / (12 * r)


# ---------------------------------------------------------------------------
# Max-degree halves (the Delta >= 1/4 workhorse)
# ---------------------------------------------------------------------------


def _maxdeg_pair(g: Graph):
    """(v, Delta, mu0, mu1) for the lowest-index vertex v of maximum degree.

    The halves are `_split_half` (top, rest) pairs: mu0 = (empty, V - N(v)) puts
    1/(2(1-Delta)) on the rest and mu1 = (N(v), V - N(v)) puts (1/2-Delta)/(1-Delta).
    """
    v = min(range(g.n), key=lambda u: (-g.degree(u), u))
    hood = g.adj[v]
    rest = ((1 << g.n) - 1) & ~hood
    return v, Fraction(hood.bit_count(), g.n), (0, rest), (hood, rest)


def maxdeg_halves(g: Graph) -> BoundCertificate:
    """Both `_maxdeg_pair` halves, certified, plus the analytic bound.

    The better half's certificate is returned, and the analytic
    rho*(1-2*Delta)/(8*(1-Delta)^2) must dominate it.
    """
    v, delta, mu0, mu1 = _maxdeg_pair(g)
    if delta >= Fraction(1, 2):
        raise ValueError(f"max degree {delta} >= 1/2; half weights would exceed 1")
    params = {"vertex": v, "delta": delta}
    c0, c1 = (_split_half(g, "maxdeg", *mu, params) for mu in (mu0, mu1))
    analytic = rho(g) * (1 - 2 * delta) / (8 * (1 - delta) ** 2)
    require(analytic >= min(c0.bound, c1.bound),
            f"maxdeg: analytic {analytic} below both halves {c0.bound}, {c1.bound}")
    best = c0 if c0.bound <= c1.bound else c1
    best.params.update(analytic_bound=analytic, beta_mu0=c0.bound, beta_mu1=c1.bound)
    return best


def maxdeg_combination_residual(g: Graph) -> Fraction:
    """Exact residual of the two-half combination identity (must be zero).

    (1-2D)*beta(mu0) + beta(mu1) - (1-2D)*rho/(4(1-D)), with beta(mu_i) the
    `_split_value` of the `_maxdeg_pair` halves that `maxdeg_halves` certifies.
    It vanishes when N(v) is independent, so on every triangle-free graph, the
    only graphs it is meant for; zero certifies the lemma-producing combination.
    """
    _, delta, mu0, mu1 = _maxdeg_pair(g)
    return ((1 - 2 * delta) * _split_value(g, *mu0) + _split_value(g, *mu1)
            - (1 - 2 * delta) * rho(g) / (4 * (1 - delta)))


# ---------------------------------------------------------------------------
# Three-half bound (the Delta <= 1/4 case)
# ---------------------------------------------------------------------------


def triple_half_bound(g: Graph) -> BoundCertificate:
    """Best of the three halves around the heaviest edge, with the analytic value.

    Picks v1 of maximum degree, v2 of maximum degree inside N(v1) (ties to
    the lowest index).  mu1 and mu2 are `edge_halves(g, (v1, v2))`, the one
    split of the edge; mu0 is the `_split_half` (N(v1) | N(v2), rest), weight p0 on
    the rest, with e1 = Delta and e2 = deg(v2)/n.  The best half's certificate is
    returned, ties to mu0; the analytic f(rho, Delta, e2) must dominate it.
    """
    if not is_triangle_free(g):
        raise ValueError("construction requires a triangle-free graph")
    if g.edge_count() == 0:
        raise ValueError("graph has no edges")
    v1, delta, _, (hood, _) = _maxdeg_pair(g)  # mu1's top is N(v1)
    if delta > Fraction(1, 4):
        raise ValueError(f"max degree {delta} > 1/4: use maxdeg_halves, which covers that case")
    v2 = min(_bits(hood), key=lambda u: (-g.degree(u), u))
    c1, c2 = edge_halves(g, (v1, v2))
    e2 = Fraction(g.degree(v2), g.n)
    both = hood | g.adj[v2]
    rest = ((1 << g.n) - 1) & ~both
    certs = (_split_half(g, "triple", both, rest, {}), c1, c2)
    values = [c.bound for c in certs]
    analytic = sparse_estimate().eval({"rho": rho(g), "delta": delta, "e2": e2})
    require(analytic >= min(values), f"triple: analytic {analytic} below every half {values}")
    best_idx = min(range(3), key=lambda i: (values[i], i))
    return BoundCertificate("triple", values[best_idx], certs[best_idx].half, {
        "v1": v1, "v2": v2, "delta": delta, "e2": e2, "p0": _fill(g.n, both, rest),
        "analytic_bound": analytic, "chosen": f"mu{best_idx}",
    })


# ---------------------------------------------------------------------------
# Recipe halves on the named strongly regular graphs
# ---------------------------------------------------------------------------


def _edge_and_far_vertex(g: Graph):
    """(u1, u2, u3): an edge, then a vertex outside both endpoints' closed neighborhoods."""
    return ((u1, u2, u3) for u1, u2 in g.edges() for u3 in range(g.n)
            if not (g.adj[u1] | g.adj[u2] | 1 << u1 | 1 << u2) >> u3 & 1)


# name -> (root tuples to try, edges the union must span, pivot cost or None, params(g, roots)).
# clebsch: the first edge; disjoint neighborhoods force 8 = n/2 vertices, which span
#   4 edges on every edge, so beta <= 1/64 <= 1/50.
# gewirtz: the first induced 2-matching whose union (28 = n/2 vertices) spans 51 edges.
# m22: |A| = 38 and |E(A)| = 109; the half adds weight 1/2 at the vertex beta_exact
#   would pick (`_odd_cost`), which must have 9 neighbors in A: (109 + 9/2)/77^2 < 0.0192.
_RECIPES = {
    "clebsch": (lambda g: g.edges()[:1], 4, None, lambda g, r: {"edge": r}),
    "gewirtz": (_induced_2matchings, 51, None, lambda g, r: {"roots": r}),
    "m22": (_edge_and_far_vertex, 109, 9, lambda g, r: {"roots": r, "set_size": g.n // 2}),
}


def _union_recipe(g: Graph, name: str) -> BoundCertificate:
    """The `_RECIPES[name]` half of g: the first root tuple whose neighborhood union fits.

    The union of N(r) over the roots, minus the roots, must have n//2
    vertices and span the recipe's edge count.  Unless its pivot cost is
    None, `_odd_cost`'s vertex must also have that many neighbors in it.
    """
    candidates, edges, cost, params = _RECIPES[name]
    method = f"{name}-recipe"
    best = None
    for roots in candidates(g):
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
            return _mask_certificate(g, method, mask, induced, params(g, roots))
    pivot = "" if cost is None else f" with a {cost}-neighbor pivot"
    closest = f"closest {best[0]} edges at roots {best[1]}" if best else "no candidate"
    raise RecipeSearchError(f"{method}: no root tuple spans {edges} edges{pivot}; {closest}")


def recipe_half(name: str) -> BoundCertificate:
    """The recipe half of the named strongly regular graph `name`: clebsch, gewirtz or m22."""
    if name not in _RECIPES:
        raise ValueError(f"no recipe half for {name!r}; recipes: {', '.join(_RECIPES)}")
    return _union_recipe(named(name).graph, name)
