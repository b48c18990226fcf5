"""Parameter algebra for triangle-free strongly regular graphs.

A TFSR graph other than K_{n,n} and C5 is determined by two positive integers
(q, c): q is the positive non-principal eigenvalue and c the number of common
neighbors of non-adjacent pairs.  Degree and order follow as
k = (q+1)c + q^2 and n = 1 + (k/c)(k-1+c); the edge density is the rational
function Q(q, c) analyzed below, and the Krein boundary c = q(q+1) gives the
one-parameter family Q1(q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import RHO0, RHO0_STR, Polynomial, RationalFunc
from .report import CheckResult, IdentityReport, run_check


@dataclass(frozen=True)
class SrgParams:
    q: int
    c: int
    k: int
    n: Fraction  # rational in general; integrality is the admissibility flag

    @property
    def admissible(self) -> bool:
        return self.n.denominator == 1


def srg_from_qc(q: int, c: int) -> SrgParams:
    """Derived TFSR parameters; ValueError outside 1 <= c <= q(q+1)."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    if not 1 <= c <= q * (q + 1):
        raise ValueError(f"c = {c} outside the admissible range [1, {q * (q + 1)}]")
    k = (q + 1) * c + q * q
    n = 1 + Fraction(k, c) * (k - 1 + c)
    return SrgParams(q=q, c=c, k=k, n=n)


def _rho_closed_form() -> RationalFunc:
    q = Polynomial.var("q")
    c = Polynomial.var("c")
    num = c * (q * c + q**2 + c)
    den = (q * c + q**2 + 2 * c + q) * (q * c + q**2 + c - q)
    return RationalFunc(num, den)


def rho_qc(q: int, c: int) -> Fraction:
    """Edge density k/n of the TFSR parameters (q, c).

    Equal to the closed form Q(q, c) on every cell; the report row
    `srg.closed_forms` proves that identity once, symbolically.
    """
    p = srg_from_qc(q, c)
    return p.k / p.n


def krein_rho(q: int) -> Fraction:
    """Krein-boundary density Q(q, q(q+1)).

    Equal to Q1(q) = (q^2+3q+1) / (q(q+3)^2), as `srg.closed_forms` proves.
    """
    return rho_qc(q, q * (q + 1))


def srg_c4(p: SrgParams) -> Fraction:
    """Closed-form 4-cycle density 3*(k^2 + c^2*(n-k-1))/n^3 (degenerate tuples included)."""
    return 3 * (p.k**2 + p.c**2 * (p.n - p.k - 1)) / p.n**3


def regular_beta_bound(edge_density: Fraction, c4: Fraction) -> Fraction:
    """beta bound for regular triangle-free graphs with 0 < rho < 1/2.

    The certifying half exists only for rho <= 1/4 (its inner weight is
    (1/2 - 2*rho)/(1 - 2*rho)); above that the formula still evaluates but
    stops being a bound, e.g. it returns 0 at C5's densities.
    """
    r = Fraction(edge_density)
    if not 0 < r < Fraction(1, 2):
        raise ValueError(f"edge density {r} outside (0, 1/2)")
    return (Fraction(2, 3) * c4 + r**2 * (1 - 4 * r)) / (8 * r * (1 - 2 * r) ** 2)


def srg_beta_bound(q: int, c: int) -> Fraction:
    """beta bound c(cq+q^2-c) / (8q(q+1)(c+q)(c+q-1)) for TFSR parameters."""
    srg_from_qc(q, c)  # range validation
    return Fraction(c * (c * q + q * q - c), 8 * q * (q + 1) * (c + q) * (c + q - 1))


# ---------------------------------------------------------------------------
# The case analysis behind the strongly-regular theorem
# ---------------------------------------------------------------------------

def _dqdc_numerator_factor() -> Polynomial:
    """Expected factor of dQ/dc's numerator (verified symbolically below)."""
    q, c = Polynomial.var("q"), Polynomial.var("c")
    return c**2 * q**2 + 2 * c * q**3 + q**4 + c**2 * q - q**3 - c**2 - 2 * q * c


def srg_case_analysis(local_search_seed: int = 1) -> IdentityReport:
    """Reproduce the decision tree reducing the TFSR theorem to named graphs.

    Monotonicity of Q in c and of Q1 in q confine the problem to q in
    {1, 2, 3}; the surviving (q, c) cells map to exact density comparisons
    against rho0, to the named-graph certificates, or to the Krein bound
    11/560.  Literature exclusions are recorded as assumptions, not computed.
    """
    from .constructions import gewirtz_recipe_half, m22_recipe_half, clebsch_recipe_half
    from .graphcore import named
    from .halves import beta_exact, local_search_half

    checks: list[CheckResult] = []
    q_var, c_var = Polynomial.var("q"), Polynomial.var("c")

    def check_closed_forms():
        # Cross-multiplied identities of polynomials; both denominators are
        # positive for q, c >= 1, so they hold at every (q, c) cell.
        k = (q_var + 1) * c_var + q_var**2
        rho_rf = _rho_closed_form()
        density = RationalFunc(c_var * k, c_var + k * (k - 1 + c_var)) == rho_rf
        krein = rho_rf.subs("c", q_var * (q_var + 1)) == RationalFunc(
            q_var**2 + 3 * q_var + 1, q_var * (q_var + 3) ** 2)
        computed = (f"k/n = Q(q, c): {'holds' if density else 'fails'}; "
                    f"Q(q, q(q+1)) = Q1(q): {'holds' if krein else 'fails'}")
        return computed, "both identities hold", density and krein

    checks.append(run_check("srg.closed_forms",
                            "k/n = Q(q, c) with k = (q+1)c + q^2, and "
                            "Q(q, q(q+1)) = Q1(q) = (q^2+3q+1)/(q(q+3)^2)",
                            check_closed_forms))

    def check_derivative_identity():
        rho_rf = _rho_closed_form()
        derived = rho_rf.derive("c")
        expected = RationalFunc(
            q_var * (q_var + 1) * _dqdc_numerator_factor(), rho_rf.den * rho_rf.den
        )
        return "d(Q)/dc", "q(q+1)*(expected factor)/den^2", derived == expected

    checks.append(run_check("srg.dq_dc_identity",
                            "factored numerator of dQ/dc matches the symbolic derivative",
                            check_derivative_identity))

    def check_increasing_in_c():
        factor = _dqdc_numerator_factor()
        bad = []
        for q in range(1, 11):
            for c in range(1, q * (q + 1) + 1):
                if factor.eval({"q": Fraction(q), "c": Fraction(c)}) < 0:
                    bad.append((q, c))
                if c > 1 and rho_qc(q, c) <= rho_qc(q, c - 1):
                    bad.append((q, c, "not strictly increasing"))
        return f"{len(bad)} violations", ">= 0 and strictly increasing", not bad

    checks.append(run_check("srg.q_increasing_in_c",
                            "dQ/dc numerator >= 0 and Q(q, c) strictly increasing in c "
                            "for 1 <= q <= 10, 1 <= c <= q(q+1)",
                            check_increasing_in_c))

    def check_krein_decreasing():
        values = [krein_rho(q) for q in range(1, 22)]
        ok = all(a > b for a, b in zip(values, values[1:]))
        return str([str(v) for v in values[:4]]), "strictly decreasing", ok

    checks.append(run_check("srg.krein_density_decreasing",
                            "Q1(q) strictly decreasing for q = 1..20", check_krein_decreasing))

    def check_q1_4():
        value = krein_rho(4)
        return str(value), f"< rho0 = {RHO0_STR}", value == Fraction(29, 196) and RHO0 > value

    checks.append(run_check("srg.krein_q4_below_rho0", "Q1(4) = 29/196 < rho0", check_q1_4))

    def check_hoffman_singleton_density():
        value = rho_qc(2, 1)
        return str(value), f"< rho0 = {RHO0_STR}", value == Fraction(7, 50) and RHO0 > value

    checks.append(run_check("srg.q2_c1_below_rho0", "Q(2,1) = 7/50 < rho0",
                            check_hoffman_singleton_density))

    def check_q3_c11_density():
        value = rho_qc(3, 11)
        return str(value), f"< rho0 = {RHO0_STR}", value == Fraction(583, 3350) and RHO0 > value

    checks.append(run_check("srg.q3_c11_below_rho0", "Q(3,11) = 583/3350 < rho0",
                            check_q3_c11_density))

    fiftieth = Fraction(1, 50)

    def check_petersen():
        value = beta_exact(named("petersen").graph)[0]
        return str(value), "<= 1/50", value <= fiftieth

    checks.append(run_check("srg.q1_c1_petersen", "q=1, c=1 (Petersen): beta = 1/50",
                            check_petersen))

    def check_clebsch():
        value = clebsch_recipe_half(named("clebsch")).bound
        return str(value), "<= 1/50", value <= fiftieth

    checks.append(run_check("srg.q1_c2_clebsch",
                            "q=1, c=2 (Clebsch): neighborhood-union half certifies <= 1/50",
                            check_clebsch))

    def check_gewirtz():
        value = gewirtz_recipe_half(named("gewirtz")).bound
        return str(value), "<= 1/50", value <= fiftieth

    checks.append(run_check("srg.q2_c2_gewirtz",
                            "q=2, c=2 (Gewirtz): recipe half certifies <= 1/50", check_gewirtz))

    def check_m22():
        value = m22_recipe_half(named("m22")).bound
        return str(value), "<= 1/50", value <= fiftieth

    checks.append(run_check("srg.q2_c4_m22",
                            "q=2, c=4 (M22): recipe half certifies <= 1/50", check_m22))

    def check_higman_sims():
        cert = local_search_half(named("higman_sims").graph, seed=local_search_seed)
        return str(cert.bound), "<= 1/50 - 1/10000", cert.bound <= fiftieth - Fraction(1, 10**4)

    checks.append(run_check("srg.q2_c6_higman_sims",
                            "q=2, c=6 (Higman-Sims): local search certifies <= 1/50 - 10^-4",
                            check_higman_sims))

    def check_q2_c3_assumption():
        return "assumed", "excluded by literature (not computed)", True

    checks.append(run_check("srg.q2_c3_excluded",
                            "q=2, c=3: ruled out by known arithmetic conditions (assumption)",
                            check_q2_c3_assumption))

    def check_q2_c5():
        p = srg_from_qc(2, 5)
        return str(p.n), "non-integer order (inadmissible); also excluded by literature", (
            not p.admissible
        )

    checks.append(run_check("srg.q2_c5_excluded",
                            "q=2, c=5: order n is not an integer", check_q2_c5))

    def check_krein_case():
        value = srg_beta_bound(3, 12)
        return str(value), "= 11/560 <= 1/50", value == Fraction(11, 560) and value <= fiftieth

    checks.append(run_check("srg.q3_c12_krein", "q=3, c=12: beta bound 11/560 <= 1/50",
                            check_krein_case))

    return IdentityReport("srg-cases", checks)
