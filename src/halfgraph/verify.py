"""The one registry of checks: every row of `halfgraph verify paper` is declared here.

A `Check` pairs a row id and its claim with `compute(seed)`, which returns
(computed, bound, passed); only the stochastic rows (`srg.q2_c6_higman_sims`,
`independence.random_graphs`) use the seed.  `SECTIONS` lists the six
sections' rows in report order, and `run` turns a selection of them into one
IdentityReport per section.  The math modules only compute: the rows call
their helpers through the module (`srg._rho_closed_form()`), so a patched
helper reaches the row.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isqrt

from . import exactmath, independence, srg
from .constructions import (
    krivelevich_bound,
    maxdeg_combination_residual,
    maxdeg_halves,
    recipe_half,
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
from .exactmath import RHO0, RHO0_STR, ExactDivisionError, Polynomial, RationalFunc
from .girth5 import FIFTIETH, girth5_report
from .graphcore import (
    Graph,
    count_edge_rooted_flags4,
    enumerate_triangle_free,
    has_induced_2matching,
    named,
    srg_parameters,
)
from .halves import beta_exact, local_search_half
from .independence import independence_half
from .report import IdentityReport, run_check
from .srg import (
    regular_beta_bound,
    rho_qc,
    srg_beta_bound,
    srg_c4,
    srg_from_qc,
)


@dataclass(frozen=True)
class Check:
    """One report row; `compute(seed)` returns (computed, bound, passed)."""

    id: str
    claim: str
    compute: Callable[[int], tuple]


def _small_graphs(max_n: int) -> list[Graph]:
    """Every triangle-free graph on 1..max_n vertices, from the memoized corpus."""
    return [g for n in range(1, max_n + 1) for g in enumerate_triangle_free(n)]


# ---------------------------------------------------------------------------
# The shared row shapes.  Each side, value or scan is a lambda or generator
# that looks its names up when the row runs, so a helper patched on this
# module or its math module reaches the row.
# ---------------------------------------------------------------------------


def _equal(lhs: Callable[[], object], rhs: Callable[[], object], show=str):
    """Show both sides and pass iff they are equal; each side runs once, when the row runs."""
    def compute(_seed):
        left, right = lhs(), rhs()
        return show(left), show(right), left == right
    return compute


def _numerator(f: RationalFunc) -> str:
    return repr(f.num)


def _no_violations(scan: Callable[[], Iterable[int]], shown="{bad} violations", bound="0"):
    """Sum the failure counts (bools or ints) that `scan()` yields, one per checked item;
    0 passes.  `shown` may name `bad` (the sum) and `items` (how many were yielded)."""
    def compute(_seed):
        bad = items = 0
        for count in scan():
            bad += count
            items += 1
        return shown.format(bad=bad, items=items), bound, bad == 0
    return compute


def _holds(value_of: Callable[[], object], bound: str, ok: Callable[[object], bool], show=str):
    """Show one value against a stated bound and pass iff `ok` accepts it."""
    def compute(_seed):
        value = value_of()
        return show(value), bound, ok(value)
    return compute


def _at_most_fiftieth(value_of: Callable[[], Fraction]):
    return _holds(value_of, "<= 1/50", lambda value: value <= FIFTIETH)


_ALPHA, _PB, _DELTA, _E1, _E2 = Polynomial.variables_named("alpha", "pb", "delta", "e1", "e2")


# ---------------------------------------------------------------------------
# counts and quadrilaterals
# ---------------------------------------------------------------------------


def _general_27_1024(_seed):
    # beta <= rho/8 - C4/(12 rho) (quad.averaged_split_bound) with C4 at or
    # above the line c4_lower_general(rho) (quad.general_line), in rho itself
    r = Polynomial.var("rho")
    composed = RationalFunc(r, 8) - RationalFunc(c4_lower_general(r), 12 * r)
    return (repr(composed.as_polynomial()), "27/1024, constant in rho",
            composed == RationalFunc(Fraction(27, 1024)))


# ---------------------------------------------------------------------------
# sparse
# ---------------------------------------------------------------------------


def _q_is_polynomial(_seed):
    try:
        q = exactmath.sparse_margin_poly()
        return "polynomial", "exact division", not q.is_zero()
    except ExactDivisionError as err:
        return f"remainder {err.remainder!r}", "exact division", False


_QUARTER = Fraction(1, 4)


def _taylor_signs(step: Fraction):
    """Per delta on the grid: the Taylor coefficients at e2 = rho0 with the wrong sign."""
    q = exactmath.sparse_margin_poly()
    for dv in exactmath._rational_points(RHO0, _QUARTER, step):
        coeffs = exactmath._e2_coefficients(q, RHO0, dv)
        taylor = exactmath._taylor_shift(coeffs, RHO0)
        yield sum(c.sign() < 0 if r % 2 == 0 else c.sign() >= 0 for r, c in enumerate(taylor))


def _case2_boundary(step: Fraction):
    """Per e2 on the grid: how many of Q1(e2,e2), Q1(1/4,e2), dQ1/ddelta|d=e2 are negative."""
    q = exactmath.sparse_margin_poly()
    dq_ddelta = q.derive("delta")
    for ev in exactmath._rational_points(RHO0, _QUARTER, step):
        on_diag = q.eval({"rho": RHO0, "delta": ev, "e2": ev})
        at_quarter = q.eval({"rho": RHO0, "delta": _QUARTER, "e2": ev})
        slope = dq_ddelta.eval({"rho": RHO0, "delta": ev, "e2": ev})
        yield (on_diag < 0) + (at_quarter < 0) + (slope < 0)


def _maxdeg_petersen(_seed):
    cert = maxdeg_halves(named("petersen").graph)
    value = cert.params["analytic_bound"]
    return value, "3/98", value == Fraction(3, 98) and cert.bound <= value


def _triple_small_graphs(_seed):
    count = 0
    for g in _small_graphs(7):
        if g.edge_count() == 0 or max_degree_rel(g) > Fraction(1, 4):
            continue
        cert = triple_half_bound(g)  # internal closed-form requirements must hold
        if cert.params["analytic_bound"] < beta_exact(g)[0]:
            return "analytic below exact beta", "never", False
        count += 1
    return f"{count} graphs checked", "all consistent", True


# ---------------------------------------------------------------------------
# srg: the case analysis behind the strongly-regular theorem
# ---------------------------------------------------------------------------


def _srg_closed_forms(_seed):
    # Cross-multiplied identities of polynomials; both denominators are
    # positive for q, c >= 1, so they hold at every (q, c) cell.
    q, c = Polynomial.variables_named("q", "c")
    k = (q + 1) * c + q**2
    rho_rf = srg._rho_closed_form()
    density = RationalFunc(c * k, c + k * (k - 1 + c)) == rho_rf
    krein = rho_rf.subs("c", q * (q + 1)) == RationalFunc(q**2 + 3 * q + 1, q * (q + 3) ** 2)
    computed = (f"k/n = Q(q, c): {'holds' if density else 'fails'}; "
                f"Q(q, q(q+1)) = Q1(q): {'holds' if krein else 'fails'}")
    return computed, "both identities hold", density and krein


def _dq_dc_identity(_seed):
    q = Polynomial.var("q")
    rho_rf = srg._rho_closed_form()
    derived = rho_rf.derive("c")
    expected = RationalFunc(q * (q + 1) * srg._dqdc_numerator_factor(), rho_rf.den * rho_rf.den)
    return "d(Q)/dc", "q(q+1)*(expected factor)/den^2", derived == expected


def _q_increasing_in_c():
    """Per (q, c) cell: a negative dQ/dc numerator, plus Q not above its value at c - 1."""
    factor = srg._dqdc_numerator_factor()
    for q in range(1, 11):
        for c in range(1, q * (q + 1) + 1):
            negative = factor.eval({"q": Fraction(q), "c": Fraction(c)}) < 0
            yield negative + (c > 1 and rho_qc(q, c) <= rho_qc(q, c - 1))


def _krein_decreasing(_seed):
    values = [rho_qc(q, q * (q + 1)) for q in range(1, 22)]
    ok = all(a > b for a, b in zip(values, values[1:]))
    return str([str(v) for v in values[:4]]), "strictly decreasing", ok


def _below_rho0(density: Callable[[], Fraction], expected: Fraction):
    return _holds(density, f"< rho0 = {RHO0_STR}", lambda value: value == expected and RHO0 > value)


def _higman_sims(seed):
    cert = local_search_half(named("higman_sims").graph, seed=seed)
    return str(cert.bound), "<= 1/50 - 1/10000", cert.bound <= FIFTIETH - Fraction(1, 10**4)


def _q2_c3_multiplicities(_seed):
    # Eigenvalues r = q and s = -(q + c); the multiplicities of a strongly
    # regular graph, f = (-k - (n-1)s)/(r-s) and g = (k + (n-1)r)/(r-s), are
    # integers, so a fractional one excludes the parameters.
    p = srg.srg_from_qc(2, 3)
    r, s = p.q, -(p.q + p.c)
    f = (-p.k - (p.n - 1) * s) / (r - s)
    g = (p.k + (p.n - 1) * r) / (r - s)
    return (f"(n, k) = ({p.n}, {p.k}), eigenvalues {r}, {s}: f = {f}, g = {g}",
            "f or g not an integer (inadmissible)", f.denominator != 1 or g.denominator != 1)


def _c4_closed_form_matches_graphs():
    """Per named SRG: whether the closed-form C4 or k/n differs from the graph's own."""
    for name in ("petersen", "clebsch", "hoffman_singleton", "gewirtz", "m22", "higman_sims"):
        g = named(name).graph
        _, k, _, c = srg_parameters(g)
        q = (isqrt(c * c + 4 * (k - c)) - c) // 2
        p = srg_from_qc(q, c)
        yield srg_c4(p) != c4_density(g) or Fraction(p.k, g.n) != rho(g)


def _beta_bound_identity(_seed):
    for q in range(1, 7):
        for c in range(1, q * (q + 1) + 1):
            p = srg_from_qc(q, c)
            if not p.admissible:
                continue
            if srg_beta_bound(q, c) != regular_beta_bound(rho_qc(q, c), srg_c4(p)):
                return f"mismatch at ({q}, {c})", "identity", False
    return "identity holds for q <= 6", "identity", True


# ---------------------------------------------------------------------------
# independence: the averaging analysis and the constructive half
# ---------------------------------------------------------------------------


def _two_fifths(_seed):
    # 1/50 - (alpha/2)(1/2 - alpha) = (1/2)(alpha - 2/5)(alpha - 1/10); both
    # factors are linear, so they are >= 0 on [2/5, 1/2] iff they are at its ends
    a = Polynomial.var("alpha")
    root = Fraction(2, 5)
    factors = (a - root, a - Fraction(1, 10))
    lhs = FIFTIETH - a / 2 * (Fraction(1, 2) - a)
    product = factors[0] * factors[1] / 2
    nonneg = all(f.eval({"alpha": x}) >= 0 for f in factors for x in (root, Fraction(1, 2)))
    return (f"(1/2)(alpha - {root})(alpha - 1/10) = {product!r}, factors "
            f"{'>=' if nonneg else 'not >='} 0 on [{root}, 1/2]",
            f"1/50 - (alpha/2)(1/2 - alpha) = {lhs!r}", lhs == product and nonneg)


_RANDOM_SAMPLES = 200


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


def _independence_random_graphs(seed):
    rng = random.Random(seed)
    tested = 0
    while tested < _RANDOM_SAMPLES:
        n = rng.choice([12, 14, 16, 18, 20, 22, 24])
        g = _random_triangle_free(rng, n, rng.randint(2 * n, 8 * n))
        # the certificate's alpha, min(alpha(G), n/2)/n, is below 3/8 exactly when alpha(G)/n is
        cert = independence_half(g)
        if cert.params["outside_hypothesis"]:
            continue
        tested += 1
        alpha = cert.params["alpha"]
        if cert.bound > alpha / 2 * (Fraction(1, 2) - alpha):
            return f"violation on a {n}-vertex graph", "0 violations", False
    return f"{tested} random graphs", "0 violations", True


def _girth5_table(truncated: bool):
    def compute(_seed):
        rows = girth5_report(truncated_inner=truncated)
        per_k = {}
        for r in rows:
            per_k[r.k] = per_k.get(r.k, 0) + 1
        good = sum(1 for r in rows if r.passed)
        ok = len(rows) == 80 and per_k == {2: 10, 3: 19, 4: 26, 5: 25} and good == len(rows)
        return f"{good}/{len(rows)} cases pass", "80/80 (per-k 10/19/26/25)", ok
    return compute


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def _sparse_identities(step: Fraction) -> list[Check]:
    """The identities behind the sparse-density theorem; `step` spaces the exact grid.

    Every row derives Q itself, so a failed division shows up as rows, never
    as an exception that loses the report.
    """
    return [
        Check("sparse.q_is_polynomial",
              "(1/50 - f) * 200*(1-d-e2)*(1-d-e2+2*d*e2) is a polynomial", _q_is_polynomial),
        Check("sparse.dq_drho", "dQ/drho = -25*(1-2e2)*(4d^2+4d*e2-4d+1)", _equal(
            lambda: exactmath.sparse_margin_poly().derive("rho"),
            lambda: -25 * (1 - 2 * _E2) * (4 * _DELTA**2 + 4 * _DELTA * _E2 - 4 * _DELTA + 1),
            repr)),
        Check("sparse.q_degrees",
              "individual degrees of Q in (rho, delta, e2) are (1, 2, 3)", _equal(
                  lambda: tuple(map(exactmath.sparse_margin_poly().degree,
                                    ("rho", "delta", "e2"))),
                  lambda: (1, 2, 3))),
        Check("sparse.q_vanishes_at_rho0",
              f"Q(rho0, rho0, rho0) = 0 with rho0 = {RHO0_STR}", _equal(
                  lambda: exactmath.sparse_margin_poly().eval(
                      dict.fromkeys(("rho", "delta", "e2"), RHO0)),
                  lambda: 0)),
        Check("sparse.alpha0_minus_gamma",
              "alpha0 - gamma = (1-2e1)(1-2e2)(1-2e1-2e2) / (2(1-e1-e2))", _equal(
                  lambda: RationalFunc((c := exactmath.edge_split_coeffs())["alpha0"]) - c["gamma"],
                  lambda: RationalFunc((1 - 2 * _E1) * (1 - 2 * _E2) * (1 - 2 * _E1 - 2 * _E2),
                                       2 * (1 - _E1 - _E2)),
                  repr)),
        Check("sparse.taylor_signs",
              "Taylor coefficients of Q1 at e2=rho0: nonneg for even r, "
              "negative for odd r, for delta in [rho0, 1/4]",
              _no_violations(partial(_taylor_signs, step), "{items} grid points, {bad} violations",
                             "even r >= 0, odd r < 0")),
        Check("sparse.case2_boundary",
              "Q1(e2,e2) >= 0, Q1(1/4,e2) >= 0, dQ1/ddelta|_{delta=e2} >= 0 "
              "for e2 in [rho0, 1/4]",
              _no_violations(partial(_case2_boundary, step), bound=">= 0 on grid")),
    ]


# Monotonicity of Q in c and of Q1 in q confine the theorem to q in {1, 2, 3};
# the surviving (q, c) cells map to exact density comparisons against rho0,
# to the named-graph certificates, or to the Krein bound 11/560.  Literature
# exclusions are recorded as assumptions, not computed.
SRG_CASES = [
    Check("srg.closed_forms",
          "k/n = Q(q, c) with k = (q+1)c + q^2, and "
          "Q(q, q(q+1)) = Q1(q) = (q^2+3q+1)/(q(q+3)^2)", _srg_closed_forms),
    Check("srg.dq_dc_identity",
          "factored numerator of dQ/dc matches the symbolic derivative", _dq_dc_identity),
    Check("srg.q_increasing_in_c",
          "dQ/dc numerator >= 0 and Q(q, c) strictly increasing in c "
          "for 1 <= q <= 10, 1 <= c <= q(q+1)",
          _no_violations(_q_increasing_in_c, bound=">= 0 and strictly increasing")),
    Check("srg.krein_density_decreasing", "Q1(q) strictly decreasing for q = 1..20",
          _krein_decreasing),
    Check("srg.krein_q4_below_rho0", "Q1(4) = 29/196 < rho0",
          _below_rho0(lambda: rho_qc(4, 20), Fraction(29, 196))),
    Check("srg.q2_c1_below_rho0", "Q(2,1) = 7/50 < rho0",
          _below_rho0(lambda: rho_qc(2, 1), Fraction(7, 50))),
    Check("srg.q3_c11_below_rho0", "Q(3,11) = 583/3350 < rho0",
          _below_rho0(lambda: rho_qc(3, 11), Fraction(583, 3350))),
    Check("srg.q1_c1_petersen", "q=1, c=1 (Petersen): beta = 1/50",
          _at_most_fiftieth(lambda: beta_exact(named("petersen").graph)[0])),
    Check("srg.q1_c2_clebsch",
          "q=1, c=2 (Clebsch): neighborhood-union half certifies <= 1/50",
          _at_most_fiftieth(lambda: recipe_half("clebsch").bound)),
    Check("srg.q2_c2_gewirtz", "q=2, c=2 (Gewirtz): recipe half certifies <= 1/50; "
          "Gewirtz is the only SRG(56, 10, 0, 2) (A. Gewirtz, 1969)",
          _at_most_fiftieth(lambda: recipe_half("gewirtz").bound)),
    Check("srg.q2_c4_m22", "q=2, c=4 (M22): recipe half certifies <= 1/50; "
          "M22 is the only SRG(77, 16, 0, 4) (A. E. Brouwer, 1983)",
          _at_most_fiftieth(lambda: recipe_half("m22").bound)),
    Check("srg.q2_c6_higman_sims",
          "q=2, c=6 (Higman-Sims): local search certifies <= 1/50 - 10^-4; Higman-Sims "
          "is the only SRG(100, 22, 0, 6) (A. Gewirtz, 1969)", _higman_sims),
    Check("srg.q2_c3_excluded",
          "q=2, c=3: ruled out by known arithmetic conditions (assumption)",
          lambda _seed: ("assumed", "excluded by literature (not computed)", True)),
    Check("srg.q2_c3_multiplicities",
          "q=2, c=3: eigenvalue multiplicities f, g of (66, 13, 0, 3) are not both integers",
          _q2_c3_multiplicities),
    Check("srg.q2_c5_excluded", "q=2, c=5: order n is not an integer",
          _holds(lambda: srg_from_qc(2, 5),
                 "non-integer order (inadmissible); also excluded by literature",
                 lambda p: not p.admissible, show=lambda p: str(p.n))),
    Check("srg.q3_c12_krein", "q=3, c=12: beta bound 11/560 <= 1/50",
          _holds(lambda: srg_beta_bound(3, 12), "= 11/560 <= 1/50",
                 lambda value: value == Fraction(11, 560) and value <= FIFTIETH)),
]

# The four closed-form identities of the averaged bound, plus its concavity.
INDEPENDENCE_IDENTITIES = [
    Check("independence.dq_drbd",
          "dQ/drbd at rbd = pb(1-alpha-pb) equals (pb-alpha)/(8pb)", _equal(
              lambda: independence._q_form().derive("rbd").subs(
                  "rbd", independence._saturated_rbd()),
              lambda: RationalFunc(_PB - _ALPHA, 8 * _PB), _numerator)),
    Check("independence.q_saturated_is_q1",
          "Q at rbd = pb(1-alpha-pb) collapses to the quadratic Q1", _equal(
              lambda: independence._q_form().subs("rbd", independence._saturated_rbd()),
              lambda: RationalFunc(independence._q1_form()), _numerator)),
    Check("independence.dq1_dpb", "dQ1/dpb at pb = alpha equals (1-3*alpha)/2", _equal(
        lambda: independence._q1_form().derive("pb").subs("pb", _ALPHA),
        lambda: (1 - 3 * _ALPHA) / 2, repr)),
    Check("independence.q1_diagonal", "Q1(alpha, alpha) equals (alpha/2)(1/2 - alpha)", _equal(
        lambda: independence._q1_form().subs("pb", _ALPHA),
        lambda: _ALPHA / 2 * (Fraction(1, 2) - _ALPHA), repr)),
    Check("independence.q_concave_in_rbd", "coefficient of rbd^2 in Q is -3/(16 pb^2) < 0",
          _holds(lambda: independence._q_form().num.coefficient("rbd", 2),
                 "-3 (over the 16*pb^2 denominator)",
                 lambda coeff: coeff == Polynomial.const(-3), repr)),
]

SECTIONS: dict[str, list[Check]] = {
    "counts": [
        Check("counts.m6", "triangle-free graphs on 6 vertices: 38",
              _equal(lambda: len(enumerate_triangle_free(6)), lambda: 38)),
        Check("counts.m8", "triangle-free graphs on 8 vertices: 410",
              _equal(lambda: len(enumerate_triangle_free(8)), lambda: 410)),
        Check("counts.flags4", "edge-rooted triangle-free 4-vertex flags: 10",
              _equal(lambda: count_edge_rooted_flags4(), lambda: 10)),
    ],
    "quadrilaterals": [
        Check("quad.beta_c5", "exact beta of the 5-cycle is 1/50",
              _equal(lambda: beta_exact(named("c5").graph)[0], lambda: FIFTIETH)),
        Check("quad.beta_petersen", "exact beta of the Petersen graph is 1/50",
              _equal(lambda: beta_exact(named("petersen").graph)[0], lambda: FIFTIETH)),
        Check("quad.trivial_bound",
              "C4 >= 3 rho^4/(1-rho) on all triangle-free graphs, n <= 8",
              _no_violations(lambda: (rho(g) < 1 and c4_density(g) < c4_lower_trivial(rho(g))
                                      for g in _small_graphs(8)))),
        Check("quad.general_line",
              "C4 >= (3/2)rho^2 - (81/256)rho on all triangle-free graphs, n <= 8",
              _no_violations(lambda: (c4_density(g) < c4_lower_general(rho(g))
                                      for g in _small_graphs(8)))),
        Check("quad.clebsch_tight",
              "equality at the Clebsch graph (C4 = 195/4096 at rho = 5/16)",
              _equal(lambda: c4_density(named("clebsch").graph),
                     lambda: c4_lower_general(rho(named("clebsch").graph)))),
        Check("quad.matchingfree_line",
              "C4 >= (3/2)rho^2 - (6/25)rho without induced 2-matchings, n <= 8",
              _no_violations(lambda: (not has_induced_2matching(g)
                                      and c4_density(g) < c4_lower_no_2matching(rho(g))
                                      for g in _small_graphs(8)))),
        Check("quad.c5_tight", "equality at the 5-cycle (C4 = 18/125 at rho = 2/5)",
              _equal(lambda: c4_density(named("c5").graph),
                     lambda: c4_lower_no_2matching(rho(named("c5").graph)))),
        Check("quad.averaged_split_bound",
              "beta <= rho/8 - C4/(12 rho) on all triangle-free graphs, n <= 7",
              _no_violations(lambda: (g.edge_count() > 0 and beta_exact(g)[0] > krivelevich_bound(g)
                                      for g in _small_graphs(7)))),
        Check("quad.general_27_1024",
              "rho/8 - C4/(12 rho) with C4 >= (3/2)rho^2 - (81/256)rho is 27/1024 "
              "for every rho > 0", _general_27_1024),
    ],
    "sparse": [
        *_sparse_identities(Fraction(1, 100)),
        Check("sparse.maxdeg_petersen", "max-degree half bound on Petersen evaluates to 3/98",
              _maxdeg_petersen),
        Check("sparse.maxdeg_combination",
              "two-half combination reproduces the degree lemma exactly, n <= 7",
              _no_violations(lambda: (g.edge_count() > 0 and max_degree_rel(g) < Fraction(1, 2)
                                      and maxdeg_combination_residual(g) != 0
                                      for g in _small_graphs(7)), "{bad} nonzero residuals")),
        Check("sparse.triple_small_graphs",
              "three-half bound consistent on all low-degree graphs, n <= 7",
              _triple_small_graphs),
    ],
    "srg": [
        *SRG_CASES,
        Check("srg.closed_form_matches_graphs",
              "closed-form C4 and k/n match the actual named graphs",
              _no_violations(_c4_closed_form_matches_graphs, "{bad} mismatches")),
        Check("srg.beta_bound_identity",
              "parameter bound equals the regular bound after substitution",
              _beta_bound_identity),
    ],
    "independence": [
        *INDEPENDENCE_IDENTITIES,
        Check("independence.two_fifths",
              "the guarantee (alpha/2)(1/2 - alpha) is <= 1/50 for 2/5 <= alpha <= 1/2",
              _two_fifths),
        Check("independence.petersen", "constructive half on Petersen certifies <= 1/50",
              _at_most_fiftieth(lambda: independence_half(named("petersen").graph).bound)),
        Check("independence.random_graphs",
              f"certificate <= (alpha/2)(1/2-alpha) on {_RANDOM_SAMPLES} random "
              "even-order triangle-free graphs with alpha >= 3/8",
              _independence_random_graphs),
    ],
    "girth5": [
        Check(f"girth5.table_{tag}",
              f"all 80 (k, n) cases certify <= 1/50 ({tag} subtraction)", _girth5_table(truncated))
        for truncated, tag in ((False, "plain"), (True, "truncated"))
    ],
}


def _report(name: str, checks: list[Check], seed: int) -> IdentityReport:
    return IdentityReport(name, [run_check(c.id, c.claim, partial(c.compute, seed))
                                 for c in checks])


def run(names, seed: int) -> list[IdentityReport]:
    """Run the named sections in the given order with one seed."""
    return [_report(name, SECTIONS[name], seed) for name in names]


def srg_case_analysis(local_search_seed: int = 1) -> IdentityReport:
    """The 16 rows of the decision tree that reduces the TFSR theorem to named graphs."""
    return _report("srg-cases", SRG_CASES, local_search_seed)


def verify_sparse_identities(step: Fraction = Fraction(1, 100)) -> IdentityReport:
    """The 7 identity and grid-sign rows of the sparse-density theorem on a grid of `step`."""
    return _report("sparse-identities", _sparse_identities(step), 1)


def independence_formula_checks() -> IdentityReport:
    """The 5 closed-form rows of the independence construction's averaging analysis."""
    return _report("independence-identities", INDEPENDENCE_IDENTITIES, 1)
