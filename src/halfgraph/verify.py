"""The verification suite: one report section per group of checkable claims.

Every section takes the run's seed, which only the stochastic checks
(`srg`, `independence`) use, and returns an IdentityReport whose rows are
exact strings.  `SECTIONS` lists the sections in report order; `run` executes
a selection of them in that order.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction
from math import isqrt

from .constructions import (
    krivelevich_bound,
    maxdeg_combination_residual,
    maxdeg_halves,
    triple_half_bound,
)
from .density import (
    c4_density,
    c4_lower_general,
    c4_lower_no_2matching,
    c4_lower_trivial,
    max_degree_rel,
    rho,
)
from .exactmath import verify_sparse_identities
from .girth5 import FIFTIETH, girth5_report
from .graphcore import (
    Graph,
    count_edge_rooted_flags4,
    enumerate_triangle_free,
    has_induced_2matching,
    independence_number,
    named,
    srg_parameters,
)
from .halves import beta_exact
from .independence import independence_formula_checks, independence_half
from .report import CheckResult, IdentityReport, run_check
from .srg import (
    regular_beta_bound,
    rho_qc,
    srg_beta_bound,
    srg_c4,
    srg_case_analysis,
    srg_from_qc,
)


def section_counts(seed: int) -> IdentityReport:
    checks = [
        run_check("counts.m6", "triangle-free graphs on 6 vertices: 38",
                  lambda: (len(enumerate_triangle_free(6)), 38,
                           len(enumerate_triangle_free(6)) == 38)),
        run_check("counts.m8", "triangle-free graphs on 8 vertices: 410",
                  lambda: (len(enumerate_triangle_free(8)), 410,
                           len(enumerate_triangle_free(8)) == 410)),
        run_check("counts.flags4", "edge-rooted triangle-free 4-vertex flags: 10",
                  lambda: (count_edge_rooted_flags4(), 10,
                           count_edge_rooted_flags4() == 10)),
    ]
    return IdentityReport("counts", checks)


def _small_graphs(max_n: int) -> list[Graph]:
    """Every triangle-free graph on 1..max_n vertices, from the memoized corpus."""
    return [g for n in range(1, max_n + 1) for g in enumerate_triangle_free(n)]


def section_quadrilaterals(seed: int) -> IdentityReport:
    checks: list[CheckResult] = []

    def check_beta(name):
        def inner():
            value = beta_exact(named(name).graph)[0]
            return value, "1/50", value == FIFTIETH
        return inner

    checks.append(run_check("quad.beta_c5", "exact beta of the 5-cycle is 1/50",
                            check_beta("c5")))
    checks.append(run_check("quad.beta_petersen", "exact beta of the Petersen graph is 1/50",
                            check_beta("petersen")))

    def check_trivial():
        bad = sum(
            1 for g in _small_graphs(8)
            if rho(g) < 1 and c4_density(g) < c4_lower_trivial(rho(g))
        )
        return f"{bad} violations", "0", bad == 0

    checks.append(run_check("quad.trivial_bound",
                            "C4 >= 3 rho^4/(1-rho) on all triangle-free graphs, n <= 8",
                            check_trivial))

    def check_general_line():
        bad = sum(
            1 for g in _small_graphs(8) if c4_density(g) < c4_lower_general(rho(g))
        )
        return f"{bad} violations", "0", bad == 0

    checks.append(run_check("quad.general_line",
                            "C4 >= (3/2)rho^2 - (81/256)rho on all triangle-free graphs, n <= 8",
                            check_general_line))

    def check_clebsch_equality():
        g = named("clebsch").graph
        value = c4_density(g)
        return value, c4_lower_general(rho(g)), value == c4_lower_general(rho(g))

    checks.append(run_check("quad.clebsch_tight",
                            "equality at the Clebsch graph (C4 = 195/4096 at rho = 5/16)",
                            check_clebsch_equality))

    def check_matchingfree_line():
        bad = sum(
            1 for g in _small_graphs(8)
            if not has_induced_2matching(g)
            and c4_density(g) < c4_lower_no_2matching(rho(g))
        )
        return f"{bad} violations", "0", bad == 0

    checks.append(run_check("quad.matchingfree_line",
                            "C4 >= (3/2)rho^2 - (6/25)rho without induced 2-matchings, n <= 8",
                            check_matchingfree_line))

    def check_c5_equality():
        g = named("c5").graph
        value = c4_density(g)
        return value, c4_lower_no_2matching(rho(g)), value == c4_lower_no_2matching(rho(g))

    checks.append(run_check("quad.c5_tight",
                            "equality at the 5-cycle (C4 = 18/125 at rho = 2/5)",
                            check_c5_equality))

    def check_averaged_bound():
        bad = 0
        for g in _small_graphs(7):
            if g.edge_count() == 0:
                continue
            if beta_exact(g)[0] > krivelevich_bound(g):
                bad += 1
        return f"{bad} violations", "0", bad == 0

    checks.append(run_check("quad.averaged_split_bound",
                            "beta <= rho/8 - C4/(12 rho) on all triangle-free graphs, n <= 7",
                            check_averaged_bound))

    return IdentityReport("quadrilaterals", checks)


def section_sparse(seed: int) -> IdentityReport:
    report = verify_sparse_identities()
    checks = list(report.checks)

    def check_maxdeg_petersen():
        cert = maxdeg_halves(named("petersen").graph)
        value = cert.params["analytic_bound"]
        return value, "3/98", value == Fraction(3, 98) and cert.bound <= value

    checks.append(run_check("sparse.maxdeg_petersen",
                            "max-degree half bound on Petersen evaluates to 3/98",
                            check_maxdeg_petersen))

    def check_combination_residual():
        bad = 0
        for g in _small_graphs(7):
            if g.edge_count() and max_degree_rel(g) < Fraction(1, 2):
                if maxdeg_combination_residual(g) != 0:
                    bad += 1
        return f"{bad} nonzero residuals", "0", bad == 0

    checks.append(run_check("sparse.maxdeg_combination",
                            "two-half combination reproduces the degree lemma exactly, n <= 7",
                            check_combination_residual))

    def check_triple_small():
        count = 0
        for g in _small_graphs(7):
            if g.edge_count() == 0 or max_degree_rel(g) > Fraction(1, 4):
                continue
            cert = triple_half_bound(g)  # internal closed-form asserts must hold
            if cert.params["analytic_bound"] < beta_exact(g)[0]:
                return "analytic below exact beta", "never", False
            count += 1
        return f"{count} graphs checked", "all consistent", True

    checks.append(run_check("sparse.triple_small_graphs",
                            "three-half bound consistent on all low-degree graphs, n <= 7",
                            check_triple_small))

    return IdentityReport("sparse", checks)


def section_srg(seed: int) -> IdentityReport:
    report = srg_case_analysis(local_search_seed=seed)
    checks = list(report.checks)

    def check_c4_closed_form():
        bad = []
        for name in ("petersen", "clebsch", "hoffman_singleton", "gewirtz", "m22",
                     "higman_sims"):
            g = named(name).graph
            _, k, _, c = srg_parameters(g)
            q = (isqrt(c * c + 4 * (k - c)) - c) // 2
            p = srg_from_qc(q, c)
            if srg_c4(p) != c4_density(g) or Fraction(p.k, g.n) != rho(g):
                bad.append(name)
        return f"{len(bad)} mismatches", "0", not bad

    checks.append(run_check("srg.closed_form_matches_graphs",
                            "closed-form C4 and k/n match the actual named graphs",
                            check_c4_closed_form))

    def check_identity_grid():
        for q in range(1, 7):
            for c in range(1, q * (q + 1) + 1):
                p = srg_from_qc(q, c)
                if not p.admissible:
                    continue
                if srg_beta_bound(q, c) != regular_beta_bound(rho_qc(q, c), srg_c4(p)):
                    return f"mismatch at ({q}, {c})", "identity", False
        return "identity holds for q <= 6", "identity", True

    checks.append(run_check("srg.beta_bound_identity",
                            "parameter bound equals the regular bound after substitution",
                            check_identity_grid))

    return IdentityReport("srg", checks)


def _random_triangle_free(rng, n: int, attempts: int) -> Graph:
    rows = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs[:attempts]:
        if rows[u] & rows[v]:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def section_independence(seed: int) -> IdentityReport:
    samples = 200
    report = independence_formula_checks()
    checks = list(report.checks)

    def check_petersen():
        g = named("petersen").graph
        _, witness = independence_number(g)
        cert = independence_half(g, witness)
        return cert.bound, "<= 1/50", cert.bound <= FIFTIETH

    checks.append(run_check("independence.petersen",
                            "constructive half on Petersen certifies <= 1/50",
                            check_petersen))

    def check_random_graphs():
        rng = random.Random(seed)
        tested = 0
        while tested < samples:
            n = rng.choice([12, 14, 16, 18, 20, 22, 24])
            g = _random_triangle_free(rng, n, rng.randint(2 * n, 8 * n))
            size, witness = independence_number(g)
            if Fraction(size, n) < Fraction(3, 8):
                continue
            tested += 1
            chosen = witness[: min(size, n // 2)]
            cert = independence_half(g, chosen)
            alpha = Fraction(len(chosen), n)
            if cert.bound > alpha / 2 * (Fraction(1, 2) - alpha):
                return f"violation on a {n}-vertex graph", "0 violations", False
        return f"{tested} random graphs", "0 violations", True

    checks.append(run_check("independence.random_graphs",
                            f"certificate <= (alpha/2)(1/2-alpha) on {samples} random "
                            "even-order triangle-free graphs with alpha >= 3/8",
                            check_random_graphs))

    return IdentityReport("independence", checks)


def section_girth5(seed: int) -> IdentityReport:
    checks: list[CheckResult] = []
    for variant, tag in ((False, "plain"), (True, "truncated")):
        def check_table(variant=variant):
            rows = girth5_report(truncated_inner=variant)
            per_k = {}
            for r in rows:
                per_k[r.k] = per_k.get(r.k, 0) + 1
            good = sum(1 for r in rows if r.passed)
            ok = (
                len(rows) == 80
                and per_k == {2: 10, 3: 19, 4: 26, 5: 25}
                and good == len(rows)
            )
            return f"{good}/{len(rows)} cases pass", "80/80 (per-k 10/19/26/25)", ok

        checks.append(run_check(f"girth5.table_{tag}",
                                f"all 80 (k, n) cases certify <= 1/50 ({tag} subtraction)",
                                check_table))
    return IdentityReport("girth5", checks)


SECTIONS: dict[str, Callable[[int], IdentityReport]] = {
    "counts": section_counts,
    "quadrilaterals": section_quadrilaterals,
    "sparse": section_sparse,
    "srg": section_srg,
    "independence": section_independence,
    "girth5": section_girth5,
}


def run(names, seed: int) -> list[IdentityReport]:
    """Run the named sections in the given order with one seed."""
    return [SECTIONS[name](seed) for name in names]
