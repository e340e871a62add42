"""Catalog of classical sequence families and the 1-d lifting construction.

Every catalog family is specified by a 1-d pair (a, c) in the source
variable: at d = 1 the generating function reads

    sum_n u^n/n! s_n(z) = exp[z a(u) - c(u)].

Lifting to d coordinates applies `a` componentwise and sums `c` over the
coordinates with positive quadrature weights w_i (the finite-dimensional
surrogate of an integral; all-ones by default).  The divisor series handed
to the engine must satisfy rho(A(xi)) = exp(sum_i w_i c(xi_i)), so the
lift composes c with the compositional inverse b of a before
exponentiating:

    rho(zeta) = exp(sum_i w_i c(b(zeta_i))).

With c given in the source variable this reproduces the classical
generating functions exactly (Charlier divides by e^u, Laguerre by
(1+u)^{k+1}).

`lift_1d` is that construction for any 1-d pair (a, c): one Newton
inversion and one composition.  `make_family` does not call it.  Every
catalog family has B = A^{-1}, theta = 1/rho(A), kappa = rho(A) and rho in
closed form (Roman, The Umbral Calculus, 1984), and the builder needs all
four:

    kind      B_i(zeta)          theta(xi)                kappa(xi)               rho(zeta)
    falling   exp(zeta_i) - 1    1                        1                       1
    rising    1 - exp(-zeta_i)   1                        1                       1
    charlier  exp(zeta_i) - 1    prod exp(-w_i xi_i)      prod exp(w_i xi_i)      prod exp(w_i (exp(zeta_i) - 1))
    laguerre  zeta_i/(1-zeta_i)  prod (1+xi_i)^(-s_i)     prod (1+xi_i)^(s_i)     prod (1-zeta_i)^(-s_i)
    hermite   zeta               exp(-xi^T C xi / 2)      exp(xi^T C xi / 2)      exp(zeta^T C zeta / 2)

with s_i = w_i (k + 1).  Each 1-d factor is computed exactly from a short
coefficient rule or recurrence, a product over the coordinates entry by
entry (the coefficient of xi^gamma is prod_i f_i[gamma_i]), and hermite's
exp of the quadratic form from the integer powers of its numerator.  Every
coefficient is one integer quotient, which float mode rounds once, so no
float error is carried from one degree to the next.  `lift_1d` stays the
generic lift and the oracle these closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .series import (
    ScalarSeries,
    VectorSeries,
    finite_number,
    graded_exponents,
    graded_size,
    json_field,
    json_object,
    ps_compose,
    ps_exp,
    ps_mul,
    vs_inverse,
)

__all__ = [
    "FamilySpec",
    "FamilyDivisor",
    "FAMILY_KINDS",
    "make_family",
    "lift_1d",
    "log1p_series",
    "neg_log1m_series",
    "ratio_series",
]

FAMILY_KINDS = ("hermite", "charlier", "laguerre", "falling", "rising", "custom")


def _one(exact: bool):
    return 1 if exact else 1.0 + 0.0j


def _rounded(num: int, den: int) -> complex:
    """num/den rounded once (Python's int quotient is correctly rounded);
    +-inf where it leaves the double range."""
    try:
        return complex(num / den)
    except OverflowError:
        return complex(math.inf if (num > 0) == (den > 0) else -math.inf)


def _series(dim: int, max_degree: int, num, den, exact: bool) -> ScalarSeries:
    """The series with coefficients num/den over the graded basis, from
    integer sequences: exact (an int where den is 1, as the library keeps
    exact values), or each rounded once in float mode."""
    if exact:
        vec = np.array([p if q == 1 else Fraction(p, q) for p, q in zip(num, den)],
                       dtype=object)
    else:
        vec = np.array([_rounded(p, q) for p, q in zip(num, den)], dtype=complex)
    return ScalarSeries(dim, max_degree, vec)


def _series_1d(max_degree: int, exact: bool, coefficient) -> ScalarSeries:
    """sum_{k=1..max_degree} coefficient(k) u^k from the exact coefficient
    rule; float mode rounds each value once."""
    coeffs = [0] + [coefficient(k) for k in range(1, max_degree + 1)]
    return _series(1, max_degree, [c.numerator for c in coeffs],
                   [c.denominator for c in coeffs], exact)


def _log1p(k: int) -> Fraction:
    return Fraction((-1) ** (k + 1), k)


def _neg_log1m(k: int) -> Fraction:
    return Fraction(1, k)


def _ratio(k: int) -> int:
    return (-1) ** (k + 1)


def _expm1(k: int) -> Fraction:
    return Fraction(1, math.factorial(k))


def _one_minus_exp_neg(k: int) -> Fraction:
    return Fraction((-1) ** (k + 1), math.factorial(k))


def _geometric(k: int) -> int:
    return 1


def log1p_series(max_degree: int, exact: bool = False) -> ScalarSeries:
    """log(1+u) = sum (-1)^{k+1} u^k / k."""
    return _series_1d(max_degree, exact, _log1p)


def neg_log1m_series(max_degree: int, exact: bool = False) -> ScalarSeries:
    """-log(1-u) = sum u^k / k."""
    return _series_1d(max_degree, exact, _neg_log1m)


def ratio_series(max_degree: int, exact: bool = False) -> ScalarSeries:
    """u/(1+u) = sum (-1)^{k+1} u^k."""
    return _series_1d(max_degree, exact, _ratio)


def _exp_factor(n: int, c) -> list:
    """Coefficients 0..n of exp(c u): c^k / k!."""
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(out[-1] * c / k)
    return out


def _power_factor(n: int, s, sign: int) -> list:
    """Coefficients 0..n of (1 + sign u)^s: c_k = c_{k-1} sign (s - k + 1) / k."""
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(out[-1] * sign * (s - k + 1) / k)
    return out


def _touchard_factor(n: int, w) -> list:
    """Coefficients 0..n of exp(w (e^u - 1)), T_m(w) / m! with the Touchard
    polynomials T_{m+1}(w) = w sum_j C(m, j) T_j(w).  For w = p/q every
    U_m = q^m T_m(p/q) is an integer, U_{m+1} = p sum_j C(m, j) U_j q^{m-j},
    so the recurrence runs on integers and each coefficient is reduced once."""
    p, q = w.numerator, w.denominator
    u = [1]
    for m in range(n):
        u.append(p * sum(math.comb(m, j) * u[j] * q ** (m - j) for j in range(m + 1)))
    return [Fraction(u[m], q ** m * math.factorial(m)) for m in range(n + 1)]


def _product(factors: list[list], max_degree: int, exact: bool) -> ScalarSeries:
    """prod_i f_i(xi_i) over the coordinates i of C^len(factors), from the
    exact coefficient lists f_i[0..max_degree]: the coefficient of xi^gamma
    is prod_i f_i[gamma_i], its numerator and denominator each a product of
    integers, divided once."""
    exps = graded_exponents(len(factors), max_degree)
    num = den = np.ones(len(exps), dtype=object)
    for i, f in enumerate(factors):
        num = num * np.array([c.numerator for c in f], dtype=object)[exps[:, i]]
        den = den * np.array([c.denominator for c in f], dtype=object)[exps[:, i]]
    return _series(len(factors), max_degree, num, den, exact)


def _exp_quadratic(quad: ScalarSeries, sign: int, exact: bool) -> ScalarSeries:
    """exp(sign * quad) for an exact quadratic form quad = Q/D, Q integer:
    its degree-2m part is sign^m Q^m / (D^m m!), the powers Q^m are integer
    ring products, and each coefficient is divided once."""
    d, n = quad.dim, quad.max_degree
    big_d = math.lcm(*(c.denominator for c in quad.vec))
    power, q = ScalarSeries.one(d, n, exact=True), quad.scale(big_d)
    num, den = np.zeros(len(q.vec), dtype=object), np.ones(len(q.vec), dtype=object)
    num[0] = 1
    for m in range(1, n // 2 + 1):
        power = ps_mul(power, q)
        part = slice(graded_size(d, 2 * m - 1), graded_size(d, 2 * m))
        num[part] = power.vec[part] * sign ** m
        den[part] = big_d ** m * math.factorial(m)
    return _series(d, n, num, den, exact)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one catalog family at one truncation order.

    `cov` is the real symmetric positive definite covariance of the
    hermite family, `k >= -1` the laguerre parameter, `weights` the
    positive quadrature weights of the lifting (all ones by default).
    """

    kind: str
    dim: int
    max_degree: int
    cov: tuple[tuple[float, ...], ...] | None = None
    k: float = 0.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be at least 1, got {self.max_degree}")
        if self.kind == "laguerre" and self.k < -1:
            raise ValueError("laguerre parameter must satisfy k >= -1")
        if self.cov is not None:
            if len(self.cov) != self.dim or any(np.ndim(row) != 1 or len(row) != self.dim
                                                for row in self.cov):
                raise ValueError(f"covariance cov must be a square {self.dim} x {self.dim} matrix")
            m = np.asarray(self.cov, dtype=float)
            if not np.allclose(m, m.T, rtol=0, atol=1e-12):
                raise ValueError("covariance must be symmetric")
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError("covariance must be positive definite") from exc
        if self.weights is not None:
            if len(self.weights) != self.dim:
                raise ValueError("weights length must match dim")
            if any(w <= 0 for w in self.weights):
                raise ValueError("quadrature weights must be positive")

    def resolved_weights(self, exact: bool = False):
        if self.weights is None:
            return [_one(exact)] * self.dim
        if exact:
            return [int(w) if float(w).is_integer() else Fraction(w) for w in self.weights]
        return [float(w) for w in self.weights]

    def to_json_dict(self) -> dict:
        doc = {"kind": self.kind, "dim": self.dim, "N": self.max_degree}
        if self.cov is not None:
            doc["cov"] = [list(row) for row in self.cov]
        if self.kind == "laguerre":
            doc["k"] = self.k
        if self.weights is not None:
            doc["weights"] = list(self.weights)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FamilySpec":
        doc = json_object(doc, "family spec")
        return cls(
            kind=json_field(doc, "kind", str),
            dim=json_field(doc, "dim", int),
            max_degree=json_field(doc, "N", int),
            cov=tuple(_numbers(row, "cov") for row in json_field(doc, "cov", list))
            if "cov" in doc else None,
            k=finite_number(doc.get("k", 0.0), "k"),
            weights=_numbers(doc["weights"], "weights") if "weights" in doc else None,
        )


def _numbers(values, name: str) -> tuple[float, ...]:
    """A JSON list of finite numbers, as a tuple of floats."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a JSON list of numbers, got {values!r}")
    return tuple(finite_number(x, name) for x in values)


def _embed_1d(series_1d: ScalarSeries, dim: int, coordinate: int) -> ScalarSeries:
    """Substitute the single variable by coordinate `coordinate` of C^dim:
    the 1-d vector is written at the graded indices of 1, x_c, x_c^2, ..,
    the basis rows whose whole degree sits in coordinate c."""
    exps = graded_exponents(dim, series_1d.max_degree)
    vec = np.zeros(len(exps), dtype=series_1d.vec.dtype)
    vec[exps[:, coordinate] == exps.sum(axis=1)] = series_1d.vec
    return ScalarSeries(dim, series_1d.max_degree, vec)


def lift_1d(a: ScalarSeries, c: ScalarSeries | None, dim: int,
            weights=None) -> tuple[VectorSeries, ScalarSeries]:
    """Lift a 1-d pair (a, c) to d coordinates.

    A_i(xi) = a(xi_i) and rho(zeta) = exp(sum_i w_i c(b(zeta_i))) with b
    the compositional inverse of a, so that the built generating function
    divides by exp(sum_i w_i c(xi_i)) in the source variable.  c = None
    (or zero) produces the binomial-type case rho = 1.
    """
    if a.dim != 1:
        raise ValueError("expected a 1-d series for a")
    if a.constant_term != 0 or a.coefficient((1,)) != 1:
        raise ValueError("a must be unit linear with zero constant term")
    exact = a.exact and (c is None or c.exact)
    if weights is None:
        weights = [_one(exact)] * dim
    if len(weights) != dim:
        raise ValueError("weights length must match dim")
    if any(complex(w).real <= 0 or complex(w).imag != 0 for w in weights):
        raise ValueError("quadrature weights must be positive reals")
    n = a.max_degree
    big_a = VectorSeries.from_components(
        _embed_1d(a, dim, i) for i in range(dim))
    if c is None or c.is_zero:
        return big_a, ScalarSeries.one(dim, n, exact=exact)
    if c.dim != 1 or c.constant_term != 0:
        raise ValueError("c must be a 1-d series with zero constant term")
    b = vs_inverse(VectorSeries.from_scalar_1d(a.truncate(n)))
    c_eff = ps_compose(c.truncate(min(c.max_degree, n)), b)
    exponent = ScalarSeries.zero(dim, n)
    for i, w in enumerate(weights):
        exponent = exponent + _embed_1d(c_eff, dim, i).scale(w)
    return big_a, ps_exp(exponent)


@dataclass(frozen=True, eq=False)
class FamilyDivisor(ScalarSeries):
    """The divisor rho of a catalog family, carrying what the builder would
    otherwise compose: theta = 1/rho(A) and kappa = rho(A) in closed form,
    for the A it was made with (`a`), and the `spec` it came from.  It
    compares as the series it is; arithmetic and truncation give plain
    series."""

    spec: FamilySpec
    a: VectorSeries
    theta: ScalarSeries
    kappa: ScalarSeries

    @property
    def series(self) -> ScalarSeries:
        return ScalarSeries(self.dim, self.max_degree, self.vec)

    def __eq__(self, other) -> bool:
        return self.series == other

    def scale(self, scalar) -> ScalarSeries:
        return self.series.scale(scalar)


def _hermite_quadratic(spec: FamilySpec) -> ScalarSeries:
    """xi^T C xi / 2 with the covariance entries as exact binary values."""
    d, n = spec.dim, spec.max_degree
    cov = np.eye(d) if spec.cov is None else np.asarray(spec.cov, dtype=float)
    terms = {}
    for i in range(d):
        for j in range(i, d):
            if cov[i, j] == 0:
                continue
            exps = [0] * d
            exps[i] += 1
            exps[j] += 1
            terms[tuple(exps)] = Fraction(cov[i, j]) / (2 if i == j else 1)
    return ScalarSeries.from_terms(d, n, terms)


# kind -> the 1-d rules of a and of b = a^{-1}
_MAPS = {
    "falling": (_log1p, _expm1),
    "rising": (_neg_log1m, _one_minus_exp_neg),
    "charlier": (_log1p, _expm1),
    "laguerre": (_ratio, _geometric),
}


def _lifted(rule, spec: FamilySpec, exact: bool, inverse: VectorSeries | None = None
            ) -> VectorSeries:
    """The map with components u(xi_i), u the 1-d series of the exact rule."""
    d, n = spec.dim, spec.max_degree
    series_1d = _series_1d(n, exact, rule)
    return VectorSeries(d, d, n, tuple(_embed_1d(series_1d, d, i) for i in range(d)), inverse)


def _divisor_factors(spec: FamilySpec, w) -> tuple[list, list, list] | None:
    """Per coordinate of weight w, the exact 1-d factors (theta, kappa, rho)
    of the divisor; None for the binomial-type members."""
    n = spec.max_degree
    if spec.kind == "charlier":
        return _exp_factor(n, -w), _exp_factor(n, w), _touchard_factor(n, w)
    if spec.kind == "laguerre" and spec.k != -1:
        s = w * (Fraction(spec.k) + 1)
        return _power_factor(n, -s, 1), _power_factor(n, s, 1), _power_factor(n, -s, -1)
    return None


def make_family(spec: FamilySpec, exact: bool = False
                ) -> tuple[VectorSeries, FamilyDivisor]:
    """Generating data (A, rho) of a catalog family, ready for the builder,
    from the closed forms of the module docstring.

    A carries its compositional inverse B (`VectorSeries.inverse`), and
    rho carries theta, kappa, the spec and A (`FamilyDivisor`).  rho is the
    constant series 1 for the binomial-type members (falling, rising,
    laguerre at k = -1).
    """
    d, n = spec.dim, spec.max_degree
    if spec.kind == "custom":
        raise ValueError("custom families are assembled from explicit series, "
                         "not through make_family")
    if spec.kind == "hermite":
        ident = VectorSeries.identity(d, n, exact=exact)
        a = VectorSeries(d, d, n, ident.components, ident)
        quad = _hermite_quadratic(spec)
        theta, kappa = _exp_quadratic(quad, -1, exact), _exp_quadratic(quad, 1, exact)
        rho = kappa
    else:
        a_rule, b_rule = _MAPS[spec.kind]
        a = _lifted(a_rule, spec, exact, _lifted(b_rule, spec, exact))
        factors = [_divisor_factors(spec, w) for w in spec.resolved_weights(exact=True)]
        if factors[0] is None:
            theta = kappa = rho = ScalarSeries.one(d, n, exact=exact)
        else:
            theta, kappa, rho = (_product([f[j] for f in factors], n, exact) for j in range(3))
    return a, FamilyDivisor(d, n, rho.vec, spec, a, theta, kappa)
