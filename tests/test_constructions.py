"""Tests for the half constructions and their exact certificates."""

import hashlib
import json
from fractions import Fraction

import pytest

from halfgraph import constructions, halves
from halfgraph.constructions import (
    _RECIPES,
    RecipeSearchError,
    _union_recipe,
    edge_halves,
    krivelevich_bound,
    maxdeg_combination_residual,
    maxdeg_halves,
    recipe_half,
    triple_half_bound,
)
from halfgraph.density import c4_density, cross_density, part_density, rho
from halfgraph.graphcore import (
    Graph,
    clebsch,
    cycle,
    empty,
    NAMED_GRAPH_NAMES,
    enumerate_triangle_free,
    named,
    petersen,
)
from halfgraph.halves import CertificateError, _odd_cost, beta_exact, beta_of_half


def eligible_edges(g):
    """Edges whose split produces valid halves (both weights in [0, 1])."""
    out = []
    for u, v in g.edges():
        e1 = Fraction(g.degree(u), g.n)
        e2 = Fraction(g.degree(v), g.n)
        if e1 <= Fraction(1, 2) and e2 <= Fraction(1, 2) and e1 + e2 < 1:
            out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# Edge splits
# ---------------------------------------------------------------------------


def test_edge_split_pentagon():
    g = cycle(5)
    c1, c2 = edge_halves(g, (0, 1))
    half = Fraction(1, 2)
    assert c1.half.weights == (0, 1, 0, half, 1)
    assert c2.half.weights == (1, 0, 1, half, 0)
    assert c1.params["p"] == c2.params["p"] == half
    assert edge_halves(g, [0, 1]) == (c1, c2)


def test_edge_split_errors():
    g = cycle(5)
    with pytest.raises(ValueError, match=r"^\(0, 2\) is not an edge$"):
        edge_halves(g, (0, 2))
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError, match=r"^degenerate split: e1 \+ e2 = 1 >= 1$"):
        edge_halves(star, (0, 1))
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="common neighborhood not empty"):
        edge_halves(triangle, (0, 1))
    slack_star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])  # e1 = 3/5, e1 + e2 = 4/5
    with pytest.raises(ValueError, match="relative degree above 1/2"):
        edge_halves(slack_star, (0, 1))


def test_edge_halves_petersen():
    g = named("petersen").graph
    c1, c2 = edge_halves(g, g.edges()[0])
    assert c1.params["p"] == Fraction(1, 2)
    assert c1.bound == beta_of_half(g, c1.half)
    assert c2.bound == beta_of_half(g, c2.half)


def test_edge_halves_star_with_slack_is_consistent():
    # a star plus isolated vertices keeps e1 + e2 < 1 and exercises the
    # degenerate weights p in {0, 1}
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3)])
    c1, c2 = edge_halves(g, (0, 1))
    assert c1.bound == beta_of_half(g, c1.half)
    assert c2.bound == beta_of_half(g, c2.half)


def test_edge_halves_count_the_edges_inside_a_neighbourhood():
    # the triangle 0-2-3 avoids the edge (0, 1) but lies inside N(0) + 0
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (2, 3)])
    c1, c2 = edge_halves(g, (0, 1))
    assert c1.bound == beta_of_half(g, c1.half) == Fraction(1, 64)
    assert c2.bound == beta_of_half(g, c2.half)


def test_split_combination_identity_on_small_graphs():
    # p2 * 2*beta(mu1) + p1 * 2*beta(mu2) == p1*p2*(rho - rho_{a1a2}), exactly
    for n in range(2, 8):
        for g in enumerate_triangle_free(n)[::3]:
            for v1, v2 in eligible_edges(g):
                c1, c2 = edge_halves(g, (v1, v2))
                p1, p2 = c1.params["p"], c2.params["p"]
                lhs = p2 * 2 * c1.bound + p1 * 2 * c2.bound
                rhs = p1 * p2 * (rho(g) - cross_density(g, g.adj[v1], g.adj[v2]))
                assert lhs == rhs


def _combined_split_bound(g, edge):
    """p2*beta(mu1) + p1*beta(mu2) of the edge's two halves: p1*p2*(rho - rho_{a1a2})/2."""
    c1, c2 = edge_halves(g, edge)
    return c2.params["p"] * c1.bound + c1.params["p"] * c2.bound


def test_clebsch_split_bound_is_27_over_1024_on_every_edge():
    g = named("clebsch").graph
    bounds = {_combined_split_bound(g, e) for e in g.edges()}
    assert bounds == {Fraction(27, 1024)}


# ---------------------------------------------------------------------------
# Averaged bound
# ---------------------------------------------------------------------------


def test_krivelevich_values():
    assert krivelevich_bound(named("petersen").graph) == Fraction(1, 40)
    assert krivelevich_bound(cycle(5)) == Fraction(1, 50)
    cl = named("clebsch").graph
    value = rho(cl) / 8 - c4_density(cl) / (12 * rho(cl))
    assert krivelevich_bound(cl) == value
    assert value >= min(_combined_split_bound(cl, e) for e in cl.edges())


def test_krivelevich_rejects_edgeless():
    with pytest.raises(ValueError):
        krivelevich_bound(empty(4))


def test_averaged_bound_dominates_beta_on_small_graphs():
    for n in range(2, 8):
        for g in enumerate_triangle_free(n):
            if g.edge_count() == 0:
                continue
            assert beta_exact(g)[0] <= krivelevich_bound(g)


# ---------------------------------------------------------------------------
# Max-degree halves
# ---------------------------------------------------------------------------


def test_maxdeg_values():
    md = maxdeg_halves(named("petersen").graph)
    assert md.params["analytic_bound"] == Fraction(3, 98)
    assert md.bound == beta_of_half(named("petersen").graph, md.half)
    assert maxdeg_halves(named("clebsch").graph).params["analytic_bound"] == Fraction(15, 484)
    matching = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert maxdeg_halves(matching).params["analytic_bound"] == Fraction(1, 36)


def test_maxdeg_certificates_are_pinned():
    # every class with 2 <= n <= 8, an edge and Delta < 1/2, and the named graphs
    graphs = [g for n in range(2, 9) for g in enumerate_triangle_free(n)
              if g.edge_count() and 2 * g.max_degree() < g.n]
    certs = [maxdeg_halves(g) for g in graphs + [named(x).graph for x in NAMED_GRAPH_NAMES]]
    assert len(certs) == 287
    blob = "\n".join(json.dumps(c.to_dict(), sort_keys=True) for c in certs).encode()
    assert hashlib.sha256(blob).hexdigest().startswith("2e1e93128ac34c51")


def test_maxdeg_checks_its_closed_forms(monkeypatch):
    monkeypatch.setattr(halves, "part_density",
                        lambda g, x: part_density(g, x) + Fraction(1, g.n**2))
    with pytest.raises(CertificateError, match=r"^maxdeg: bound 3/98 != closed form "):
        maxdeg_halves(named("petersen").graph)


def test_maxdeg_rejects_high_degree():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        maxdeg_halves(star)


def test_maxdeg_combination_identity():
    for n in range(2, 8):
        for g in enumerate_triangle_free(n):
            if g.edge_count() and Fraction(g.max_degree(), g.n) < Fraction(1, 2):
                assert maxdeg_combination_residual(g) == 0


# ---------------------------------------------------------------------------
# Three-half bound
# ---------------------------------------------------------------------------


def test_triple_case_split_errors():
    with pytest.raises(ValueError):
        triple_half_bound(named("petersen").graph)  # Delta = 3/10 > 1/4
    with pytest.raises(ValueError):
        triple_half_bound(cycle(6))  # Delta = 1/3 > 1/4
    with pytest.raises(ValueError):
        triple_half_bound(empty(4))
    one_triangle = Graph.from_edges(12, [(0, 1), (1, 2), (0, 2)])  # Delta = 1/6
    with pytest.raises(ValueError, match="requires a triangle-free graph"):
        triple_half_bound(one_triangle)


def test_triple_bound_on_long_cycle():
    cert = triple_half_bound(cycle(10))
    assert cert.bound == beta_of_half(cycle(10), cert.half)
    assert cert.params["analytic_bound"] >= cert.bound
    assert cert.params["analytic_bound"] >= beta_exact(cycle(10))[0]


def test_triple_bound_on_perfect_matching():
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    cert = triple_half_bound(g)
    assert cert.bound == beta_of_half(g, cert.half)
    assert cert.params["analytic_bound"] >= cert.bound


def test_each_candidate_half_is_certified_once(monkeypatch):
    calls = []

    def counted(g, mu):
        calls.append(mu)
        return beta_of_half(g, mu)

    for module in (halves, constructions):
        monkeypatch.setattr(module, "beta_of_half", counted, raising=False)
    counts = []
    for build in (lambda: edge_halves(petersen(), petersen().edges()[0]),
                  lambda: maxdeg_halves(petersen()),
                  lambda: triple_half_bound(cycle(14))):
        calls.clear()
        build()
        counts.append(len(calls))
    assert counts == [2, 2, 3]


def test_triple_certificates_are_pinned():
    # every low-degree class with 2 <= n <= 8 and C8 ... C39: mu1 wins 73 times, mu2 3 times
    graphs = [g for n in range(2, 9) for g in enumerate_triangle_free(n)
              if g.edge_count() and 4 * g.max_degree() <= g.n]
    certs = [triple_half_bound(g) for g in graphs + [cycle(n) for n in range(8, 40)]]
    chosen = [c.params["chosen"] for c in certs]
    assert (len(certs), chosen.count("mu1"), chosen.count("mu2")) == (76, 73, 3)
    blob = "\n".join(json.dumps(c.to_dict(), sort_keys=True) for c in certs).encode()
    assert hashlib.sha256(blob).hexdigest().startswith("8da0226870d6dbd0")


def test_triple_bound_on_all_low_degree_small_graphs():
    for n in range(2, 8):
        for g in enumerate_triangle_free(n):
            if g.edge_count() == 0 or Fraction(g.max_degree(), g.n) > Fraction(1, 4):
                continue
            cert = triple_half_bound(g)  # internal identity asserts must hold
            assert cert.params["analytic_bound"] >= beta_exact(g)[0]


# ---------------------------------------------------------------------------
# Recipe halves
# ---------------------------------------------------------------------------


def test_clebsch_recipe():
    cert = recipe_half("clebsch")
    assert len(cert.half.support()) == 8
    assert cert.params["induced_edges"] <= 5
    assert cert.bound <= Fraction(1, 50)


def test_clebsch_recipe_all_edges_equal():
    # the recipe takes the first edge; every other edge's union spans as many edges
    g = named("clebsch").graph
    counts = set()
    for u, v in g.edges():
        union = (g.adj[u] | g.adj[v]) & ~(1 << u) & ~(1 << v)
        assert union.bit_count() == 8
        counts.add(sum(1 for a, b in g.edges() if union >> a & union >> b & 1))
    assert counts == {recipe_half("clebsch").params["induced_edges"]}


def test_recipe_half_names_the_recipes():
    assert list(_RECIPES) == ["clebsch", "gewirtz", "m22"]
    with pytest.raises(ValueError, match=r"^no recipe half for 'petersen'; "
                                         r"recipes: clebsch, gewirtz, m22$"):
        recipe_half("petersen")


@pytest.mark.parametrize("name", ["clebsch", "gewirtz"])
def test_recipe_size_error_wants_half_the_order(name):
    # on Petersen (10, 3, 0, 1) the first union has 4 vertices, not n // 2 = 5
    with pytest.raises(RecipeSearchError, match="has 4 vertices, wanted 5$"):
        _union_recipe(petersen(), name)


def test_gewirtz_recipe():
    cert = recipe_half("gewirtz")
    assert cert.params["induced_edges"] == 51
    assert len(cert.half.support()) == 28
    assert cert.bound == Fraction(51, 3136)
    assert cert.bound <= Fraction(17, 1000)


def test_m22_recipe():
    cert = recipe_half("m22")
    assert cert.params["set_size"] == 38
    assert cert.params["induced_edges"] == 109
    assert cert.bound == Fraction(227, 11858)  # (109 + 9/2)/77^2
    assert cert.bound < Fraction(192, 10000)
    # the half-weight vertex is the one beta_exact's rule picks for the set
    g = named("m22").graph
    mask = sum(1 << v for v, w in enumerate(cert.half.weights) if w == 1)
    assert _odd_cost(g.adj, g.n, mask) == (9, 6) and cert.params["pivot"] == 6


def test_recipe_certificates_are_pinned():
    certs = [recipe_half(name) for name in ("clebsch", "gewirtz", "m22")]
    assert certs[0].params == {"edge": (0, 1), "induced_edges": 4}
    assert certs[1].params == {"roots": (0, 29, 1, 32), "induced_edges": 51}
    assert certs[2].params == {
        "roots": (0, 61, 1), "pivot": 6, "set_size": 38, "induced_edges": 109,
    }
    blob = json.dumps([c.to_dict() for c in certs], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest().startswith("f51fff8528dea302")


def test_failed_recipe_search_names_the_closest_candidate():
    # Clebsch is (16, 5, 0, 2) like Gewirtz (56, 10, 0, 2): every union has n/2
    # vertices, and none spans 51 edges
    with pytest.raises(RecipeSearchError,
                       match=r"spans 51 edges; closest 4 edges at roots \(0, 1, 6, 7\)$"):
        _union_recipe(clebsch(), "gewirtz")
    with pytest.raises(RecipeSearchError, match="9-neighbor pivot; no candidate$"):
        _union_recipe(empty(2), "m22")
