"""Acceptance suite: every checkable claim at its stated (exact) tolerance.

One test per criterion; each prints a single PASS line on success (pytest -v
shows the per-criterion outcome either way).  All comparisons are exact
rational or exact quadratic-field arithmetic; there are no tolerances to
tune.
"""

import random
from fractions import Fraction

from halfgraph.constructions import (
    krivelevich_bound,
    recipe_half,
)
from halfgraph.density import (
    c4_density,
    c4_lower_general,
    c4_lower_no_2matching,
    rho,
)
from halfgraph.exactmath import RHO0
from halfgraph.girth5 import girth5_report
from halfgraph.graphcore import (
    count_edge_rooted_flags4,
    enumerate_triangle_free,
    has_induced_2matching,
    named,
)
from halfgraph.halves import beta_exact, beta_of_half, local_search_half
from halfgraph.independence import independence_half
from halfgraph.verify import (
    _random_triangle_free,
    independence_formula_checks,
    verify_sparse_identities,
)

FIFTY = Fraction(1, 50)


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_01_enumeration_counts():
    assert len(enumerate_triangle_free(6)) == 38
    assert len(enumerate_triangle_free(8)) == 410
    assert count_edge_rooted_flags4() == 10
    _report("01 enumeration counts (38 / 410 / 10)")


def test_criterion_02_exact_beta_of_the_extremal_graphs():
    assert beta_exact(named("c5").graph)[0] == FIFTY
    assert beta_exact(named("petersen").graph)[0] == FIFTY
    _report("02 exact beta: C5 = Petersen = 1/50")


def test_criterion_03_quadrilateral_bounds_on_all_small_graphs():
    for n in range(1, 9):
        for g in enumerate_triangle_free(n):
            r, c4 = rho(g), c4_density(g)
            assert c4 >= c4_lower_general(r)
            if not has_induced_2matching(g):
                assert c4 >= c4_lower_no_2matching(r)
    clebsch = named("clebsch").graph
    assert rho(clebsch) == Fraction(5, 16)
    assert c4_density(clebsch) == Fraction(195, 4096) == c4_lower_general(Fraction(5, 16))
    c5 = named("c5").graph
    assert rho(c5) == Fraction(2, 5)
    assert c4_density(c5) == Fraction(18, 125) == c4_lower_no_2matching(Fraction(2, 5))
    _report("03 quadrilateral lower bounds exact on all graphs n <= 8, tight at Clebsch/C5")


def test_criterion_04_averaged_split_bound_on_all_small_graphs():
    for n in range(2, 8):
        for g in enumerate_triangle_free(n):
            if g.edge_count() == 0:
                continue
            assert beta_exact(g)[0] <= krivelevich_bound(g)
    _report("04 beta <= rho/8 - C4/(12 rho) exact on all graphs n <= 7")


def test_criterion_05_named_graph_recipe_halves():
    clebsch = recipe_half("clebsch")
    assert clebsch.params["induced_edges"] <= 5
    assert clebsch.bound <= FIFTY

    gewirtz = recipe_half("gewirtz")
    assert gewirtz.params["induced_edges"] == 51
    assert gewirtz.bound <= Fraction(17, 1000)

    m22 = recipe_half("m22")
    assert m22.params["set_size"] == 38
    assert m22.params["induced_edges"] == 109
    assert m22.bound == Fraction(227, 11858)
    assert m22.bound < Fraction(192, 10000)
    _report("05 recipe halves: Clebsch <= 5 edges, Gewirtz = 51 edges, M22 = 38/109/9")


def test_criterion_06_higman_sims_local_search():
    cert = local_search_half(named("higman_sims").graph, seed=1)
    assert cert.params["induced_edges"] <= 199
    assert cert.bound <= FIFTY - Fraction(1, 10**4)
    assert cert.bound == beta_of_half(named("higman_sims").graph, cert.half)
    _report("06 Higman-Sims half with <= 199 induced edges (seed 1, <= 20 restarts)")


def test_criterion_07_srg_algebra():
    from halfgraph.srg import rho_qc, srg_beta_bound

    assert rho_qc(2, 1) == Fraction(7, 50) and RHO0 > Fraction(7, 50)
    assert rho_qc(3, 11) == Fraction(583, 3350) and RHO0 > Fraction(583, 3350)
    assert rho_qc(4, 20) == Fraction(29, 196) and RHO0 > Fraction(29, 196)
    assert srg_beta_bound(3, 12) == Fraction(11, 560) <= FIFTY
    _report("07 SRG algebra: 7/50, 583/3350, 29/196 all < rho0; 11/560 <= 1/50")


def test_criterion_08_girth5_driver_both_readings():
    for variant in (False, True):
        rows = girth5_report(truncated_inner=variant)
        assert len(rows) == 80
        per_k = {}
        for r in rows:
            per_k[r.k] = per_k.get(r.k, 0) + 1
        assert per_k == {2: 10, 3: 19, 4: 26, 5: 25}
        assert all(r.beta_bound <= FIFTY for r in rows)
    _report("08 girth-5 driver: 80 cases (10/19/26/25), both subtraction readings")


def test_criterion_09_sparse_identity_suite():
    report = verify_sparse_identities(step=Fraction(1, 100))
    assert report.ok, report.failures()
    ids = {c.id for c in report.checks}
    assert {
        "sparse.q_is_polynomial",
        "sparse.dq_drho",
        "sparse.q_degrees",
        "sparse.q_vanishes_at_rho0",
        "sparse.taylor_signs",
        "sparse.case2_boundary",
    } <= ids
    _report("09 sparse identity suite on the 1/100 grid")


def test_criterion_10_independence_constructive_suite():
    assert independence_half(named("petersen").graph).bound <= FIFTY

    assert independence_formula_checks().ok

    rng = random.Random(2)
    tested = 0
    while tested < 200:
        n = rng.choice([12, 14, 16, 18, 20, 22, 24])
        graph = _random_triangle_free(rng, n, rng.randint(2 * n, 8 * n))
        cert = independence_half(graph)
        if cert.params["outside_hypothesis"]:
            continue
        tested += 1
        alpha = cert.params["alpha"]
        assert cert.bound <= alpha / 2 * (Fraction(1, 2) - alpha)
    _report("10 constructive independence suite (Petersen, identities, 200 random graphs)")
