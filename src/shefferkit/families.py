"""Catalog of classical sequence families and the 1-d lifting construction.

Every catalog family is specified by a 1-d pair (a, c) in the source
variable: at d = 1 the generating function reads

    sum_n u^n/n! s_n(z) = exp[z a(u) - c(u)].

Lifting to d coordinates applies `a` componentwise and sums `c` over the
coordinates with positive quadrature weights (the finite-dimensional
surrogate of an integral; all-ones by default).  The divisor series handed
to the engine must satisfy rho(A(xi)) = exp(sum_i w_i c(xi_i)), so the
lift composes c with the compositional inverse of a before exponentiating:

    rho(zeta) = exp(sum_i w_i c(b(zeta_i))),   b = a^{-1}.

With c given in the source variable this reproduces the classical
generating functions exactly (Charlier divides by e^u, Laguerre by
(1+u)^{k+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .series import (
    ScalarSeries,
    VectorSeries,
    finite_number,
    graded_exponents,
    json_field,
    json_object,
    ps_compose,
    ps_exp,
    vs_inverse,
)

__all__ = [
    "FamilySpec",
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


def _series_1d(max_degree: int, exact: bool, coefficient) -> ScalarSeries:
    """sum_{k=1..max_degree} coefficient(k) u^k from the exact coefficient
    rule; float mode rounds each value once."""
    coeffs = [0] + [coefficient(k) for k in range(1, max_degree + 1)]
    vec = np.array(coeffs, dtype=object) if exact else np.array([complex(c) for c in coeffs])
    return ScalarSeries(1, max_degree, vec)


def log1p_series(max_degree: int, exact: bool = False) -> ScalarSeries:
    """log(1+u) = sum (-1)^{k+1} u^k / k."""
    return _series_1d(max_degree, exact, lambda k: Fraction((-1) ** (k + 1), k))


def neg_log1m_series(max_degree: int, exact: bool = False) -> ScalarSeries:
    """-log(1-u) = sum u^k / k."""
    return _series_1d(max_degree, exact, lambda k: Fraction(1, k))


def ratio_series(max_degree: int, exact: bool = False) -> ScalarSeries:
    """u/(1+u) = sum (-1)^{k+1} u^k."""
    return _series_1d(max_degree, exact, lambda k: (-1) ** (k + 1))


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


def _hermite_rho(spec: FamilySpec, exact: bool) -> ScalarSeries:
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
            coeff = Fraction(cov[i, j]) / (2 if i == j else 1)
            terms[tuple(exps)] = coeff if exact else complex(coeff)
    return ps_exp(ScalarSeries.from_terms(d, n, terms))


def make_family(spec: FamilySpec, exact: bool = False
                ) -> tuple[VectorSeries, ScalarSeries]:
    """Generating data (A, rho) of a catalog family, ready for the builder.

    rho is the constant series 1 for the binomial-type members (falling,
    rising, laguerre at k = -1).
    """
    d, n = spec.dim, spec.max_degree
    weights = spec.resolved_weights(exact)
    if spec.kind == "hermite":
        return VectorSeries.identity(d, n, exact=exact), _hermite_rho(spec, exact)
    if spec.kind == "falling":
        return lift_1d(log1p_series(n, exact), None, d, weights)
    if spec.kind == "rising":
        return lift_1d(neg_log1m_series(n, exact), None, d, weights)
    if spec.kind == "charlier":
        c = ScalarSeries.from_terms(1, n, {(1,): _one(exact)})
        return lift_1d(log1p_series(n, exact), c, d, weights)
    if spec.kind == "laguerre":
        kpar = spec.k
        if exact:
            kpar = int(kpar) if float(kpar).is_integer() else Fraction(kpar)
        shift = kpar + 1
        if shift == 0:
            c = None
        else:
            c = log1p_series(n, exact).scale(shift)
        return lift_1d(ratio_series(n, exact), c, d, weights)
    raise ValueError("custom families are assembled from explicit series, "
                     "not through make_family")
