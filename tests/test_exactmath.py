"""Tests for the exact arithmetic kernel and the sparse identity suite."""

import ast
import hashlib
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halfgraph
from halfgraph import exactmath
from halfgraph.exactmath import (
    RHO0,
    ExactDivisionError,
    Polynomial,
    QuadNum,
    RationalFunc,
    edge_split_coeffs,
    sparse_estimate,
    sparse_margin_denominator,
    sparse_margin_poly,
    _e2_coefficients,
    _rational_points,
    _taylor_shift,
)
from halfgraph.verify import verify_sparse_identities


def rand_fraction(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 23))


def rand_poly(rng, variables=("x", "y"), max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = rand_fraction(rng)
    return Polynomial(tuple(sorted(variables)), terms)


# ---------------------------------------------------------------------------
# QuadNum
# ---------------------------------------------------------------------------


def test_quadnum_conjugate_product_is_norm():
    rng = random.Random(7)
    for _ in range(50):
        z = QuadNum(rand_fraction(rng), rand_fraction(rng))
        prod = z * QuadNum(z.a, -z.b)
        assert prod.b == 0
        assert prod.a == z.a**2 - 161 * z.b**2


def test_quadnum_field_ops():
    z = QuadNum(Fraction(2, 3), Fraction(-1, 5))
    w = QuadNum(Fraction(1, 2), Fraction(1, 7))
    assert (z + w) - w == z
    assert (z * w) / w == z
    assert z * z.inverse() == QuadNum(1)
    assert z**3 == z * z * z
    assert 1 / QuadNum(0, 1) == QuadNum(0, Fraction(1, 161))


def test_quadnum_sign_cases():
    assert QuadNum(0).sign() == 0
    assert QuadNum(Fraction(3, 7)).sign() == 1
    assert QuadNum(-1).sign() == -1
    assert QuadNum(0, 1).sign() == 1
    assert QuadNum(0, -2).sign() == -1
    # mixed signs on both branches: 13 < sqrt(161) < 12.7**2=161.29 -> 12.6 < s < 12.7
    assert QuadNum(13, -1).sign() == 1  # 13 > sqrt(161)
    assert QuadNum(12, -1).sign() == -1  # 12 < sqrt(161)
    assert QuadNum(-13, 1).sign() == -1
    assert QuadNum(-12, 1).sign() == 1


def test_quadnum_order_and_floor():
    assert RHO0 > Fraction(17, 100)
    assert RHO0 < Fraction(18, 100)
    assert math.floor(RHO0 * 100) == 17
    assert math.floor(QuadNum(Fraction(7, 2))) == 3
    assert math.floor(QuadNum(-1, -1)) == -14  # -1 - 12.68...
    assert math.floor(QuadNum(0, 1)) == 12


_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)


@settings(max_examples=300, deadline=None)
@given(a=_rationals, b=st.one_of(st.just(Fraction(0)), _rationals))
def test_quadnum_floor_brackets_the_value(a, b):
    z = QuadNum(a, b)
    m = math.floor(z)
    assert isinstance(m, int)
    assert m <= z < m + 1


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(st.just(Fraction(0)), _rationals), b=st.one_of(st.just(Fraction(0)), _rationals))
def test_quadnum_sign_matches_the_oracle(a, b):
    # x -> x|x| is increasing, so a + b*sqrt(161) > 0 iff a|a| > -161*b|b|
    oracle = a * abs(a) + 161 * b * abs(b)
    assert QuadNum(a, b).sign() == (oracle > 0) - (oracle < 0)


@pytest.mark.parametrize("fast, wrapped", [
    pytest.param(lambda z, f: z * f, lambda z, f: z * QuadNum(f), id="QuadNum * Fraction"),
    pytest.param(lambda z, f: f * z, lambda z, f: QuadNum(f) * z, id="Fraction * QuadNum"),
    pytest.param(lambda z, f: z + 3, lambda z, f: z + QuadNum(3), id="QuadNum + int"),
    pytest.param(lambda z, f: 3 + z, lambda z, f: QuadNum(3) + z, id="int + QuadNum"),
    pytest.param(lambda z, f: -z, lambda z, f: QuadNum(-1) * z, id="-QuadNum"),
])
def test_quadnum_scalar_fast_paths_match_the_wrapped_form(fast, wrapped):
    rng = random.Random(13)
    for _ in range(30):
        z = QuadNum(rand_fraction(rng), rand_fraction(rng))
        f = rand_fraction(rng)
        got = fast(z, f)
        assert type(got) is QuadNum
        assert got == wrapped(z, f)
        assert type(got.a) is Fraction and type(got.b) is Fraction


def test_rho0_is_root_of_its_minimal_polynomial():
    # (116x - 33)^2 = 161, divided by 232
    x = Polynomial.var("x")
    assert (58 * x**2 - 33 * x + 4).eval({"x": RHO0}) == QuadNum(0)


# ---------------------------------------------------------------------------
# The operators every exact type derives from its own few
# ---------------------------------------------------------------------------


def _derived_cases():
    z = QuadNum(Fraction(2, 3), Fraction(-1, 5))
    norm = z.a**2 - 161 * z.b**2
    x, y = Polynomial.variables_named("x", "y")
    r = RationalFunc(x + 1, x - y)
    return [
        pytest.param(z ** 0, QuadNum(1), id="QuadNum ** 0"),
        pytest.param(z ** 1, QuadNum(z.a, z.b), id="QuadNum ** 1"),
        pytest.param(z ** 6, z * z * z * z * z * z, id="QuadNum ** 6"),
        pytest.param((x + 1) ** 0, Polynomial.const(1), id="Polynomial ** 0"),
        pytest.param((x + 1) ** 1, Polynomial(("x",), {(1,): 1, (0,): 1}), id="Polynomial ** 1"),
        pytest.param(Fraction(1, 7) - z, QuadNum(Fraction(1, 7) - z.a, -z.b),
                     id="Fraction - QuadNum"),
        pytest.param(2 / z, QuadNum(2 * z.a / norm, -2 * z.b / norm), id="2 / QuadNum"),
        pytest.param(3 - (x + 2 * y), Polynomial(("x", "y"), {(0, 0): 3, (1, 0): -1, (0, 1): -2}),
                     id="3 - Polynomial"),
        pytest.param((x + 1) ** 3, Polynomial(("x",), {(3,): 1, (2,): 3, (1,): 3, (0,): 1}),
                     id="Polynomial ** 3"),
        pytest.param(Fraction(1, 50) - r, RationalFunc((x - y) / 50 - (x + 1), x - y),
                     id="Fraction(1, 50) - RationalFunc"),
        pytest.param(1 / r, RationalFunc(x - y, x + 1), id="1 / RationalFunc"),
    ]


@pytest.mark.parametrize("derived, expanded", _derived_cases())
def test_derived_operator_matches_its_expansion(derived, expanded):
    assert type(derived) is type(expanded)
    assert derived == expanded


@pytest.mark.parametrize("value", [
    QuadNum(1, 1), Polynomial.var("x"), RationalFunc(Polynomial.var("x"), 2)
], ids=["QuadNum", "Polynomial", "RationalFunc"])
def test_float_operand_is_a_type_error(value):
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(value, 0.5)
        with pytest.raises(TypeError):
            op(0.5, value)
    with pytest.raises(TypeError):
        value ** 0.5


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Polynomial.var("x").eval({"x": 0.1}), id="Polynomial.eval"),
    pytest.param(lambda: (Polynomial.var("x") * Polynomial.var("y")).eval({"x": RHO0, "y": 0.5}),
                 id="Polynomial.eval at a QuadNum point"),
    pytest.param(lambda: QuadNum(0.5, 0.25), id="QuadNum"),
    pytest.param(lambda: QuadNum(1, 0.25), id="QuadNum sqrt(161) part"),
    pytest.param(lambda: Polynomial.const(0.1), id="Polynomial.const"),
    pytest.param(lambda: Polynomial(("x",), {(1,): 0.5}), id="Polynomial coefficient"),
    pytest.param(lambda: RationalFunc(Polynomial.var("x"), 2).eval({"x": 0.5}),
                 id="RationalFunc.eval"),
    pytest.param(lambda: RationalFunc(Polynomial.var("x"), 0.5), id="RationalFunc"),
])
def test_float_value_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


# Decimal display columns, the only places a float may appear: (module, function).
_FLOAT_DISPLAY = {("cli.py", "cmd_verify"), ("girth5.py", "girth5_csv")}


def _float_uses(tree: ast.AST, module: str) -> list:
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            if node.name == "__float__":
                found.append((module, function, "defines __float__"))
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((module, function, f"float literal {node.value!r}"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float" and (module, function) not in _FLOAT_DISPLAY):
            found.append((module, function, "calls float()"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_float_outside_the_decimal_display_columns():
    package = Path(halfgraph.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += _float_uses(ast.parse(path.read_text()), path.name)
    assert found == []


# ---------------------------------------------------------------------------
# Rational arithmetic properties (the scalar layer everything sits on)
# ---------------------------------------------------------------------------


def test_rational_ring_axioms_randomized():
    rng = random.Random(161)
    for _ in range(200):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def test_polynomial_stores_no_zero_coefficients():
    p = Polynomial(("x",), {(1,): Fraction(1), (2,): Fraction(0)})
    assert (2,) not in p.terms
    assert (Polynomial.var("x") - Polynomial.var("x")).is_zero()
    x, y = Polynomial.variables_named("x", "y")
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}  # the xy terms cancel


def test_derive_power_rule():
    x, y = Polynomial.variables_named("x", "y")
    assert (x**2 * y).derive("x") == 2 * x * y
    assert (Polynomial.const(5) + 0 * x).derive("x").is_zero()
    with pytest.raises(ValueError):
        (x**2).derive("z")


def test_eval_examples_and_errors():
    x, y = Polynomial.variables_named("x", "y")
    assert (x + y).eval({"x": 1, "y": 2}) == 3
    with pytest.raises(ValueError):
        (x + y).eval({"x": 1})


def _oracle_eval(p: Polynomial, point: dict):
    """Term-by-term evaluation, each power recomputed: what Horner's scheme replaced."""
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for v, e in zip(p.variables, exps):
            if e:
                term = term * point[v] ** e
        total = term + total
    return total


_small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
_scalars = st.one_of(st.integers(-5, 5), _small_fractions,
                     st.builds(QuadNum, _small_fractions, _small_fractions))
_rationals = st.one_of(st.integers(-5, 5),
                       st.fractions(min_value=-10, max_value=10, max_denominator=1000))


@st.composite
def _polynomials_and_points(draw):
    """A polynomial in 1-3 variables, degree <= 4 in each, at a mixed or a rational point.

    The term map may be empty (the zero polynomial) and one variable may
    have only zero exponents.  Values are int, Fraction or QuadNum; at a
    rational point (about half the cases) they are ints and Fractions with
    denominators up to 1000, so every (p, r, d) triple of the evaluation has
    r = 0 and the result is a Fraction.
    """
    variables = ("x", "y", "z")[: draw(st.integers(1, 3))]
    idle = draw(st.sampled_from((None,) + variables))
    exps = st.tuples(*(st.just(0) if v == idle else st.integers(0, 4) for v in variables))
    terms = draw(st.dictionaries(exps, _small_fractions, max_size=8))
    values = draw(st.sampled_from((_scalars, _rationals)))
    return Polynomial(variables, terms), {v: draw(values) for v in variables}


@settings(max_examples=200, deadline=None)
@given(case=_polynomials_and_points())
@example(case=(Polynomial(("x",), {}), {"x": RHO0}))
@example(case=(Polynomial(("x", "y"), {(0, 2): 3, (0, 0): 1}), {"x": RHO0, "y": 2}))
@example(case=(Polynomial(("x", "y"), {(1, 2): 3, (0, 0): 1}), {"x": 2, "y": RHO0}))
@example(case=(Polynomial(("x", "y"), {(1, 0): 2, (0, 1): 1}),
               {"x": QuadNum(3), "y": Fraction(1, 7)}))
def test_eval_matches_the_oracle(case):
    p, point = case
    got, want = p.eval(point), _oracle_eval(p, point)
    assert type(got) is type(want)
    assert got == want


def test_mixed_partials_commute():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng)
        assert p.derive("x").derive("y") == p.derive("y").derive("x")


def test_subs_matches_eval():
    rng = random.Random(5)
    for _ in range(30):
        p = rand_poly(rng)
        r = rand_poly(rng, variables=("y",), max_exp=2)
        substituted = p.subs("x", r)
        yv = rand_fraction(rng)
        assert substituted.eval({"y": yv}) == p.eval({"x": r.eval({"y": yv}), "y": yv})


def test_exact_division_roundtrip_and_failure():
    rng = random.Random(11)
    for _ in range(30):
        p = rand_poly(rng)
        d = rand_poly(rng)
        if d.is_zero():
            continue
        assert (p * d).divide_exact(d) == p
    x = Polynomial.var("x")
    with pytest.raises(ExactDivisionError):
        (x**2 + 1).divide_exact(x + 1)


def test_coefficient_extraction():
    x, y = Polynomial.variables_named("x", "y")
    p = 3 * x**2 * y + 2 * x - 7
    assert p.coefficient("x", 2) == 3 * y
    assert p.coefficient("x", 1) == Polynomial.const(2)
    assert p.coefficient("x", 0) == Polynomial.const(-7)


def test_rational_func_equality_cross_multiplied():
    x = Polynomial.var("x")
    assert RationalFunc(x**2 - 1, x - 1) == RationalFunc(x + 1)
    assert RationalFunc(1, x) != RationalFunc(1, x + 1)


# ---------------------------------------------------------------------------
# Sparse-case identity suite
# ---------------------------------------------------------------------------


def test_margin_poly_derivative_factors():
    q = sparse_margin_poly()
    _, delta, e2 = Polynomial.variables_named("rho", "delta", "e2")
    expected = -25 * (1 - 2 * e2) * (4 * delta**2 + 4 * delta * e2 - 4 * delta + 1)
    assert q.derive("rho") == expected


def test_margin_poly_degrees_and_root():
    q = sparse_margin_poly()
    assert (q.degree("rho"), q.degree("delta"), q.degree("e2")) == (1, 2, 3)
    assert q.eval({"rho": RHO0, "delta": RHO0, "e2": RHO0}) == QuadNum(0)


def test_estimate_derivation_from_combination_coefficients():
    # Combining the three half-bounds with weights alpha0/alpha1/alpha2 and
    # bounding the block incident to the heavy neighborhood by 2*e1*e2 must
    # reproduce the packaged closed form (with delta playing e1's role).
    P, R = Polynomial, RationalFunc
    e1, e2, rho = P.variables_named("e1", "e2", "rho")
    cs = edge_split_coeffs()
    norm = R(cs["alpha0"]) + cs["alpha1"] + cs["alpha2"]
    derived = ((R(cs["alpha0"]) - cs["gamma"]) * (2 * e1 * e2) + cs["gamma"] * rho) / (2 * norm)
    packaged = sparse_estimate()
    packaged_e1 = R(
        packaged.num.subs("delta", P.var("e1")), packaged.den.subs("delta", P.var("e1"))
    )
    assert derived == packaged_e1


@pytest.fixture
def use_estimate(monkeypatch):
    """Derive Q from a given estimate; the memoized Q is dropped on entry and exit."""
    def use(estimate):
        monkeypatch.setattr(exactmath, "sparse_estimate", lambda: estimate)
        sparse_margin_poly.cache_clear()

    yield use
    monkeypatch.undo()
    sparse_margin_poly.cache_clear()


def test_scaled_margin_division_has_zero_remainder(use_estimate):
    f = sparse_estimate()
    use_estimate(f)
    q = sparse_margin_poly()
    margin = (RationalFunc(Polynomial.const(Fraction(1, 50))) - f) * sparse_margin_denominator()
    assert q * margin.den == margin.num


def test_default_margin_poly_is_derived_once(use_estimate):
    q = sparse_margin_poly()
    assert sparse_margin_poly() is q
    f = sparse_estimate()
    use_estimate(f)
    assert sparse_margin_poly() is not q
    assert sparse_margin_poly() == q
    # a failed division is not memoized: it raises again on the next call
    use_estimate(RationalFunc(f.num, f.den + Polynomial.var("delta")))
    for _ in range(2):
        with pytest.raises(ExactDivisionError):
            sparse_margin_poly()
    use_estimate(f)
    assert sparse_margin_poly() == q


def test_verify_sparse_identities_all_pass():
    report = verify_sparse_identities()
    assert report.ok, report.failures()
    assert len(report.checks) == 7


def test_perturbed_estimate_is_caught(use_estimate):
    f = sparse_estimate()
    # a denominator perturbation kills the exact division outright
    use_estimate(RationalFunc(f.num, f.den + Polynomial.var("delta")))
    with pytest.raises(ExactDivisionError):
        sparse_margin_poly()
    # a numerator perturbation still divides (the scale was built from the
    # same denominator) but the downstream identities flag it
    use_estimate(RationalFunc(f.num + Polynomial.var("rho") ** 2 * 50, f.den))
    q_broken = sparse_margin_poly()
    assert q_broken.degree("rho") != 1
    assert q_broken.eval({"rho": RHO0, "delta": RHO0, "e2": RHO0}) != QuadNum(0)


def test_rational_grid_is_exact_and_ordered():
    pts = _rational_points(RHO0, Fraction(1, 4), Fraction(1, 100))
    assert pts[0] == RHO0 and pts[-1] == Fraction(1, 4)
    assert [p for p in pts[1:-1]] == [Fraction(k, 100) for k in range(18, 25)]


@pytest.mark.parametrize("step", [Fraction(-1, 100), Fraction(0)])
def test_a_grid_step_that_is_not_positive_gives_error_rows(step):
    # a negative step never reaches the grid's upper end, so it is refused up front
    with pytest.raises(ValueError, match="^grid step must be positive$"):
        _rational_points(RHO0, Fraction(1, 4), step)
    rows = {c.id: c for c in verify_sparse_identities(step).checks}
    grid_rows = {"sparse.taylor_signs", "sparse.case2_boundary"}
    for check_id in grid_rows:
        assert not rows[check_id].passed
        assert rows[check_id].error.startswith("ValueError: grid step must be positive")
    assert all(c.passed and c.error is None for i, c in rows.items() if i not in grid_rows)
    assert len(rows) == 7


def _oracle_taylor_shift(coeffs: list, x0) -> list:
    """t_r = sum over m >= r of comb(m, r) * c_m * x0^(m - r), the closed form."""
    n = len(coeffs)
    shifted = []
    for r in range(n):
        acc = QuadNum(0)
        for m in range(r, n):
            acc = acc + math.comb(m, r) * coeffs[m] * x0 ** (m - r)
        shifted.append(acc)
    return shifted


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(_scalars, max_size=6), x0=st.one_of(st.just(RHO0), _scalars))
@example(coeffs=[Fraction(1, 3), Fraction(-2), Fraction(5, 7)], x0=Fraction(1, 2))
def test_taylor_shift_matches_the_binomial_formula(coeffs, x0):
    shifted = _taylor_shift(coeffs, x0)
    assert all(type(c) is QuadNum for c in shifted)
    assert shifted == _oracle_taylor_shift(coeffs, x0)


def test_fine_grid_values_are_pinned():
    # The sparse rows only report "61 grid points, 0 violations"; this pins
    # every exact Taylor coefficient and boundary value behind that line.
    q = sparse_margin_poly()
    dq_ddelta = q.derive("delta")
    lines = []
    for dv in _rational_points(RHO0, Fraction(1, 4), Fraction(1, 800)):
        taylor = _taylor_shift(_e2_coefficients(q, RHO0, dv), RHO0)
        vals = (q.eval({"rho": RHO0, "delta": dv, "e2": dv}),
                q.eval({"rho": RHO0, "delta": Fraction(1, 4), "e2": dv}),
                dq_ddelta.eval({"rho": RHO0, "delta": dv, "e2": dv}))
        lines.append(f"{dv}|{';'.join(map(str, taylor))}|{';'.join(map(str, vals))}")
    assert len(lines) == 61
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d826f3b7add7d773e2477be7181f2c30f70a0d6f95022d14128f6c033063e87b"
