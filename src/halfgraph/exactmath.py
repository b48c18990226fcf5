"""Exact arithmetic kernel: rationals, Q(sqrt(161)), multivariate polynomials.

All scalars in this package are `fractions.Fraction`; quantities that live in
the quadratic field Q(sqrt(161)) (the density threshold rho0 and everything
compared against it) are `QuadNum`.  Polynomials carry rational coefficients
and a name-sorted variable tuple so that term maps are canonical.

The module also hosts the symbolic side of the sparse-graph analysis: the
closed-form estimate f(rho, delta, e2), the margin polynomial Q defined by
1/50 - f = Q / (200*(1-delta-e2)*(1-delta-e2+2*delta*e2)), and the exact grid
and Taylor-shift helpers with which the `sparse.*` rows of `halfgraph.verify`
re-check every identity and sign condition that analysis relies on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt, lcm


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


# ---------------------------------------------------------------------------
# The operators every exact type derives from its own few
# ---------------------------------------------------------------------------


class _Exact:
    """Derived operators for QuadNum, Polynomial and RationalFunc.

    A subclass supplies `_wrap` (its operand coerced, or None for a foreign
    type such as float), `__add__`, `__neg__`, `__mul__` and `__truediv__`;
    the reflected operators, subtraction and integer powers follow from them.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # + and * commute in all three types; binding the reflected forms on
        # each class makes `2 * p` cost the same single call as `p * 2`.
        cls.__radd__ = cls.__add__
        cls.__rmul__ = cls.__mul__

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __rtruediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            return NotImplemented
        if not exp:
            return self._wrap(1)
        # square up to the lowest set bit, start there, and multiply in the rest
        base = self
        while not exp & 1:
            base = base * base
            exp >>= 1
        out = base
        exp >>= 1
        while exp:
            base = base * base
            if exp & 1:
                out = out * base
            exp >>= 1
        return out


# ---------------------------------------------------------------------------
# Q(sqrt(161))
# ---------------------------------------------------------------------------

_SQ = 161  # square-free radicand; fixed for the whole package


class QuadNum(_Exact):
    """Element a + b*sqrt(161), with exact field arithmetic and exact sign."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = _fraction(a)
        self.b = _fraction(b)

    @staticmethod
    def _wrap(value):
        if isinstance(value, QuadNum):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadNum(value)
        return None

    # -- field ops ---------------------------------------------------------
    def __add__(self, other):
        o = other if isinstance(other, QuadNum) else self._wrap(other)
        if o is None:
            return NotImplemented
        return _quad(self.a + o.a, self.b + o.b)

    def __mul__(self, other):
        o = other if isinstance(other, QuadNum) else self._wrap(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        return _quad(a * c + _SQ * b * d, a * d + b * c)

    def __neg__(self):
        return _quad(-self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - 161*b^2 (product with the conjugate)."""
        return self.a * self.a - _SQ * self.b * self.b

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt(161))")
        return _quad(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- exact order -------------------------------------------------------
    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: a^2 != 161*b^2, as 161 = 7*23 is not a rational square
        return sa if self.a * self.a > _SQ * self.b * self.b else sb

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def _cmp(self, other) -> int:
        o = self._wrap(other)
        if o is None:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __floor__(self) -> int:
        """Exact floor of (p + r*sqrt(161))/d, the value as a `_triple`.

        r*sqrt(161) is irrational unless r = 0, so its floor is
        isqrt(161*r^2) for r >= 0 and -isqrt(161*r^2) - 1 for r < 0.
        """
        p, r, d = _triple(self)
        root = isqrt(_SQ * r * r)
        return (p + root) // d if r >= 0 else (p - root - 1) // d

    def __repr__(self):
        if self.b == 0:
            return f"QuadNum({self.a})"
        return f"QuadNum({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"({self.a})+({self.b})*sqrt(161)"


def _quad(a: Fraction, b: Fraction) -> QuadNum:
    """a + b*sqrt(161) from two parts that are already Fraction."""
    z = object.__new__(QuadNum)
    z.a = a
    z.b = b
    return z


def _fraction(value) -> Fraction:
    """An int or Fraction as a Fraction; TypeError for anything else (a float would be inexact)."""
    if type(value) is Fraction:
        return value
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{value!r} is a {type(value).__name__}, not an int or Fraction")
    return Fraction(value)


def _triple(x) -> tuple:
    """(p, r, d) with x = (p + r*sqrt(161))/d and d > 0, for an int, Fraction or QuadNum x.

    A QuadNum's parts are put over the lcm of their denominators; a rational
    x has r = 0.
    """
    if isinstance(x, QuadNum):
        a, b = x.a, x.b
        d = lcm(a.denominator, b.denominator)
        return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d
    p, d = _fraction(x).as_integer_ratio()
    return p, 0, d


#: rho0 = (33 - sqrt(161))/116, the density threshold of the sparse case.
RHO0 = QuadNum(Fraction(33, 116), Fraction(-1, 116))

RHO0_STR = "(33-sqrt(161))/116"


# ---------------------------------------------------------------------------
# Multivariate polynomials over Q
# ---------------------------------------------------------------------------


def _order_key(exps):
    # graded lexicographic order on exponent vectors
    return (sum(exps), exps)


class Polynomial(_Exact):
    """Immutable multivariate polynomial with Fraction coefficients.

    Variables are kept as a name-sorted tuple so equal polynomials built in
    different orders share one canonical term map.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        if tuple(sorted(variables)) != variables:
            raise ValueError(f"variables must be name-sorted: {variables}")
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != len(variables):
                raise ValueError("exponent arity does not match variable arity")
            if type(coeff) is not Fraction:
                coeff = _fraction(coeff)
            if coeff:
                clean[tuple(exps)] = coeff
        self.variables = variables
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, value) -> "Polynomial":
        return cls((), {(): value})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def variables_named(cls, *names: str) -> "tuple[Polynomial, ...]":
        return tuple(cls.var(n) for n in names)

    # -- alignment ---------------------------------------------------------
    def _expand_to(self, variables) -> dict:
        if variables == self.variables:
            return dict(self.terms)
        positions = [variables.index(v) for v in self.variables]
        out = {}
        for exps, coeff in self.terms.items():
            full = [0] * len(variables)
            for pos, e in zip(positions, exps):
                full[pos] = e
            out[tuple(full)] = coeff
        return out

    @staticmethod
    def _aligned(p: "Polynomial", q: "Polynomial"):
        variables = tuple(sorted(set(p.variables) | set(q.variables)))
        return variables, p._expand_to(variables), q._expand_to(variables)

    @classmethod
    def _wrap(cls, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return cls.const(other)
        return None

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        variables, t1, t2 = self._aligned(self, o)
        for exps, coeff in t2.items():
            t1[exps] = t1.get(exps, Fraction(0)) + coeff
        return Polynomial(variables, t1)

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        variables, t1, t2 = self._aligned(self, o)
        out: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial(variables, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = 1 / Fraction(other)
            return Polynomial(self.variables, {e: c * inv for e, c in self.terms.items()})
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    # -- calculus / evaluation ---------------------------------------------
    def derive(self, var: str) -> "Polynomial":
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}; have {self.variables}")
        idx = self.variables.index(var)
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e:
                key = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                out[key] = out.get(key, Fraction(0)) + coeff * e
        return Polynomial(self.variables, out)

    def eval(self, point: dict):
        """Evaluate at a full variable binding; values may be int, Fraction or QuadNum.

        One Horner recursion (`_horner`) serves Q and Q(sqrt(161)): every
        value enters as an unreduced integer triple (p, r, d), standing for
        (p + r*sqrt(161))/d, and the sum is reduced once at the end.  The
        result is a QuadNum exactly when some term has a nonzero exponent on
        a QuadNum-valued variable, and a Fraction otherwise (the zero
        polynomial gives Fraction(0)).  A value of any other type, a float
        included, is a TypeError.
        """
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        if not self.terms:
            return Fraction(0)
        if not self.variables:
            return self.terms[()]
        p, r, d = _horner(list(self.terms.items()), 0, [_triple(point[v]) for v in self.variables])
        if any(isinstance(point[v], QuadNum) and any(exps[i] for exps in self.terms)
               for i, v in enumerate(self.variables)):
            return _quad(Fraction(p, d), Fraction(r, d))
        return Fraction(p, d)

    def subs(self, var: str, replacement) -> "Polynomial":
        """Substitute `replacement` (polynomial or scalar) for one variable."""
        rep = self._wrap(replacement)
        if rep is None:
            raise TypeError("replacement must be Polynomial or rational")
        if var not in self.variables:
            return self
        idx = self.variables.index(var)
        rest_vars = self.variables[:idx] + self.variables[idx + 1 :]
        by_power: dict = {}
        for exps, coeff in self.terms.items():
            key = exps[:idx] + exps[idx + 1 :]
            by_power.setdefault(exps[idx], {})[key] = coeff
        total = Polynomial.const(0)
        for power, terms in by_power.items():
            total = total + Polynomial(rest_vars, terms) * rep**power
        return total

    def degree(self, var: str) -> int:
        """Degree in `var`; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if var not in self.variables:
            return 0
        idx = self.variables.index(var)
        return max(e[idx] for e in self.terms)

    def coefficient(self, var: str, power: int) -> "Polynomial":
        """The polynomial coefficient of var**power."""
        if var not in self.variables:
            return self if power == 0 else Polynomial.const(0)
        idx = self.variables.index(var)
        rest = self.variables[:idx] + self.variables[idx + 1 :]
        out = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == power:
                out[exps[:idx] + exps[idx + 1 :]] = coeff
        return Polynomial(rest, out)

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self/divisor; ExactDivisionError if it is not exact."""
        div = self._wrap(divisor)
        if div is None or div.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        variables, rem, dterms = self._aligned(self, div)
        lead_d = max(dterms, key=_order_key)
        lead_c = dterms[lead_d]
        quot: dict = {}
        while rem:
            lead_r = max(rem, key=_order_key)
            diff = tuple(r - d for r, d in zip(lead_r, lead_d))
            if any(d < 0 for d in diff):
                raise ExactDivisionError(
                    f"not divisible: leading term {lead_r} not a multiple of {lead_d}",
                    remainder=Polynomial(variables, rem),
                )
            q = rem[lead_r] / lead_c
            quot[diff] = quot.get(diff, Fraction(0)) + q
            for exps, coeff in dterms.items():
                key = tuple(a + b for a, b in zip(diff, exps))
                acc = rem.get(key, Fraction(0)) - q * coeff
                if acc:
                    rem[key] = acc
                else:
                    rem.pop(key, None)
        return Polynomial(variables, quot)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=_order_key, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.variables, exps) if e
            )
            if mono:
                bits.append(f"({coeff})*{mono}" if coeff != 1 else mono)
            else:
                bits.append(f"({coeff})")
        return " + ".join(bits)


def _horner(terms: list, head: int, values: list) -> tuple:
    """Sum of coeff * prod(values[i] ** exps[i]) over (exps, coeff) in `terms`, as a triple.

    Each value, and the result, is an unreduced triple (p, r, d) standing for
    (p + r*sqrt(161))/d with d > 0 (see `_triple`).  Horner's scheme runs in
    the variable at position `head`; the coefficient of each of its powers
    is the same sum over the positions after it.  The exponent vectors are
    distinct, so under the last variable each power has one term.  No gcd is
    taken, so d is the product of the denominators met on the way.
    """
    if head + 1 < len(values):
        groups: dict = {}
        for term in terms:
            groups.setdefault(term[0][head], []).append(term)
        coeffs = {e: _horner(group, head + 1, values) for e, group in groups.items()}
    else:
        coeffs = {exps[head]: (c.numerator, 0, c.denominator) for exps, c in terms}
    top = max(coeffs)
    p, r, d = coeffs[top]
    xp, xr, xd = values[head]
    for e in range(top - 1, -1, -1):
        p, r = p * xp + _SQ * r * xr, p * xr + r * xp
        d *= xd
        if e in coeffs:
            cp, cr, cd = coeffs[e]
            p, r = p * cd + cp * d, r * cd + cr * d
            d *= cd
    return p, r, d


# ---------------------------------------------------------------------------
# RationalFunc: pairs of polynomials, no reduction
# ---------------------------------------------------------------------------


class RationalFunc(_Exact):
    """Quotient of polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        self.num = Polynomial._wrap(num)
        self.den = Polynomial._wrap(den)
        if self.num is None or self.den is None:
            raise TypeError("a RationalFunc's parts must be Polynomial, int or Fraction")
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")

    @classmethod
    def _wrap(cls, other):
        if isinstance(other, RationalFunc):
            return other
        if isinstance(other, (Polynomial, int, Fraction)):
            return cls(other)
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return RationalFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RationalFunc(-self.num, self.den)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return RationalFunc(self.num * o.num, self.den * o.den)

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunc(self.num * o.den, self.den * o.num)

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def derive(self, var: str) -> "RationalFunc":
        num, den = self.num, self.den
        dn = num.derive(var) if var in num.variables else Polynomial.const(0)
        dd = den.derive(var) if var in den.variables else Polynomial.const(0)
        return RationalFunc(dn * den - num * dd, den * den)

    def subs(self, var: str, replacement) -> "RationalFunc":
        return RationalFunc(self.num.subs(var, replacement), self.den.subs(var, replacement))

    def eval(self, point: dict):
        den = self.den.eval(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.eval(point) / den

    def as_polynomial(self) -> Polynomial:
        """Exact polynomial value of the quotient (errors if not exact)."""
        return self.num.divide_exact(self.den)

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


# ---------------------------------------------------------------------------
# The sparse-density analysis: f, Q, and the helpers of its grid checks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def sparse_estimate() -> RationalFunc:
    """Closed-form bound f(rho, delta, e2) produced by combining three halves.

    Valid for triangle-free graphs with 0 <= rho, e2 <= delta <= 1/4; rho is
    the edge density, delta the maximum relative degree, e2 the largest
    relative degree inside the chosen vertex's neighborhood.  Built once per
    process; every caller shares the one RationalFunc, which no operation
    mutates.
    """
    rho, delta, e2 = Polynomial.variables_named("rho", "delta", "e2")
    num = (1 - 2 * e2) * (
        4 * delta**2 * rho
        - 4 * delta**2 * e2
        + 4 * delta * rho * e2
        - 4 * delta * e2**2
        - 4 * delta * rho
        + 2 * delta * e2
        + rho
    )
    den = 8 * (1 + 2 * delta * e2 - delta - e2) * (1 - delta - e2)
    return RationalFunc(num, den)


def sparse_margin_denominator() -> Polynomial:
    """200*(1-delta-e2)*(1-delta-e2+2*delta*e2), the scale defining Q."""
    delta, e2 = Polynomial.variables_named("delta", "e2")
    return 200 * (1 - delta - e2) * (1 - delta - e2 + 2 * delta * e2)


@lru_cache(maxsize=None)
def sparse_margin_poly() -> Polynomial:
    """The margin polynomial Q with 1/50 - f = Q / sparse_margin_denominator().

    Raises ExactDivisionError if the scaled margin fails to be a polynomial
    (it must be, unless `sparse_estimate` was tampered with).  Q is derived
    once per process; lru_cache stores no exception, so a failed division is
    raised on every call.
    """
    margin = (Fraction(1, 50) - sparse_estimate()) * sparse_margin_denominator()
    return margin.as_polynomial()


def edge_split_coeffs() -> dict:
    """Combination coefficients for the three-halves argument, in (e1, e2).

    alpha0/alpha1/alpha2 weight the three half-bounds; gamma is the common
    coefficient they produce in front of the untouched density block.
    """
    e1, e2 = Polynomial.variables_named("e1", "e2")
    alpha0 = (1 - 2 * e1) ** 2 * (1 - 2 * e2)
    alpha1 = (1 - 2 * e1) * (1 - 2 * e2)
    alpha2 = 2 * (1 - 2 * e1) * e2
    gamma = RationalFunc(
        (1 - 2 * e1) * (1 - 2 * e2) * (1 - 4 * e1 + 4 * e1**2 + 4 * e1 * e2),
        2 * (1 - e1 - e2),
    )
    return {"alpha0": alpha0, "alpha1": alpha1, "alpha2": alpha2, "gamma": gamma}


def _rational_points(lo, hi, step: Fraction):
    """Exact grid: all integer multiples of `step` in (lo, hi), plus endpoints.

    `lo`/`hi` may be QuadNum; comparisons stay exact throughout.  A step
    <= 0 raises ValueError; a negative one would never reach `hi`.
    """
    if step <= 0:
        raise ValueError("grid step must be positive")
    points = [lo]
    k = floor(lo / step) + 1
    while k * step < hi:
        points.append(k * step)
        k += 1
    points.append(hi)
    return points


def _e2_coefficients(q: Polynomial, rho_val, delta_val) -> list:
    """Coefficients [c0..cd] of q(rho_val, delta_val, e2) as a poly in e2."""
    point = {"rho": rho_val, "delta": delta_val}
    return [q.coefficient("e2", power).eval(point) for power in range(q.degree("e2") + 1)]


def _taylor_shift(coeffs: list, x0) -> list:
    """Taylor coefficients of sum(c_m x^m) around x = x0, each a QuadNum.

    Repeated synthetic division by (x - x0): pass k folds x0 times each
    coefficient into the one below it, from the top down to index k, so the
    shift costs d(d+1)/2 multiply-adds for degree d.
    """
    shifted = [QuadNum._wrap(c) for c in coeffs]
    d = len(shifted) - 1
    for k in range(d):
        for j in range(d - 1, k - 1, -1):
            shifted[j] = shifted[j] + x0 * shifted[j + 1]
    return shifted
