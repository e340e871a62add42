from __future__ import annotations

import numpy as np
import pytest

from shefferkit.engine import PolynomialOnDual
from shefferkit.series import ScalarSeries, VectorSeries, monomial_basis


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def max_term_abs(series: ScalarSeries) -> float:
    return max((abs(complex(c)) for c in series.terms.values()), default=0.0)


def series_diff(a: ScalarSeries, b: ScalarSeries) -> float:
    return max_term_abs(a - b)


def bits(vec: np.ndarray):
    """The bytes of a float array; the type and value of each exact entry."""
    if vec.dtype == object:
        return [f"{type(x).__name__}:{x}" for x in np.ravel(vec)]
    return np.ascontiguousarray(vec).tobytes()


def vector_diff(a: VectorSeries, b: VectorSeries) -> float:
    return max(series_diff(ca, cb) for ca, cb in zip(a.components, b.components))


def poly_abs_diff(p: PolynomialOnDual, q: PolynomialOnDual) -> float:
    top = max(p.degree, q.degree)
    err = 0.0
    for n in range(top + 1):
        diff = p.coefficient(n) - q.coefficient(n)
        for v in diff.coeffs.values():
            err = max(err, abs(complex(v)))
    return err


def poly_scale(p: PolynomialOnDual) -> float:
    return max([abs(complex(v)) for c in p.coeffs for v in c.coeffs.values()],
               default=0.0)


def coeff_column_1d(p: PolynomialOnDual, top: int) -> list[complex]:
    return [complex(p.coefficient(k).coefficient((k,))) for k in range(top + 1)]


def random_polynomial_sparse(dim: int, order: int, rng: np.random.Generator,
                             keep: float = 0.6) -> PolynomialOnDual:
    from shefferkit.symtensor import SymCoeff
    coeffs = []
    for n in range(order + 1):
        terms = {}
        for b in monomial_basis(dim, n):
            if rng.uniform() < keep:
                terms[b] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        coeffs.append(SymCoeff.from_coeffs(dim, n, terms))
    return PolynomialOnDual.from_coeffs(dim, coeffs)
