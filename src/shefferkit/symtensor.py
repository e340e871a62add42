"""Symmetric tensor coefficients in monomial representation.

A degree-n symmetric tensor over C^d is stored by the coefficients c_beta
of its evaluation polynomial,

    <w^{(x)n}, phi> = sum_{|beta|=n} c_beta w^beta,

as one numpy vector over monomial_basis(d, n), the same layout as the
degree-n slice of a series (see `series`): complex128, or an object vector
of int/Fraction in exact mode.

Conversion table (identity weight; `beta!` is the multi-factorial):

    dense entry at a slot tuple of content beta   T_beta = c_beta * beta!/n!
    pairing of two degree-n tensors               <s, c> = sum (beta!/n!) s_beta c_beta
    Hilbert norm                                  ||phi||^2 = sum (beta!/n!) |c_beta|^2
    symmetric product                             plain polynomial product of coefficients

Tensors on the primal (test function) side and on the dual side share this
one representation; at finite d the spaces coincide and only the weight
convention differs.  Under a weighted inner product with Cholesky factor L
(W = L L^H), primal tensors are measured after the slot map L^H and dual
tensors after conj(L^{-1}), each a cached matrix `slot_matrix` on the
coefficients; `column_norms` is the one routine that turns coefficients
into Hilbert norms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .series import (
    CoeffVector,
    ScalarSeries,
    VectorSeries,
    _coeff_vector,
    _common,
    _rank,
    _rescaled,
    graded_size,
    json_field,
    json_object,
    json_terms,
    monomial_basis,
    multi_factorial,
    ps_compose,
    ps_mul,
)

__all__ = [
    "SymCoeff",
    "WeightedInnerProduct",
    "apply_slot_map",
    "slot_matrix",
    "column_norms",
    "sym_norm",
    "sym_dual_norm",
    "sym_product",
    "sym_contract",
    "to_dense",
    "DENSE_BUDGET",
]

DENSE_BUDGET = 4096


@dataclass(frozen=True, eq=False)
class SymCoeff(CoeffVector):
    """Monomial coefficients of one homogeneous symmetric tensor; `vec` is
    over monomial_basis(dim, degree)."""

    dim: int
    degree: int
    vec: np.ndarray

    coeffs = functools.cached_property(CoeffVector._nonzero)

    @property
    def _order(self) -> int:
        return self.degree

    @property
    def _lo(self) -> int:
        return graded_size(self.dim, self.degree - 1)

    @classmethod
    def from_coeffs(cls, dim: int, degree: int, coeffs: Mapping) -> "SymCoeff":
        return cls(dim, degree, _coeff_vector(coeffs, dim, degree, degree))

    @classmethod
    def zero(cls, dim: int, degree: int) -> "SymCoeff":
        return cls.from_coeffs(dim, degree, {})

    @classmethod
    def scalar(cls, dim: int, value) -> "SymCoeff":
        return cls.from_coeffs(dim, 0, {(0,) * dim: value})

    def _graded(self, order: int) -> np.ndarray:
        """`vec` placed in a zero graded vector of degree <= order."""
        vec = np.zeros(graded_size(self.dim, order), dtype=self.vec.dtype)
        vec[self._lo:self._lo + len(self.vec)] = self.vec
        return vec

    def __add__(self, other: "SymCoeff") -> "SymCoeff":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("shape mismatch")
        a, b = _common(self.vec, other.vec)
        return SymCoeff(self.dim, self.degree, a + b)

    def __sub__(self, other: "SymCoeff") -> "SymCoeff":
        return self + other.scale(-1)

    def __repr__(self) -> str:
        return (f"SymCoeff(dim={self.dim}, degree={self.degree}, "
                f"nnz={np.count_nonzero(self.vec)})")

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "degree": self.degree, "terms": self._json_terms()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SymCoeff":
        doc = json_object(doc, "tensor")
        dim = json_field(doc, "dim", int)
        return cls.from_coeffs(dim, json_field(doc, "degree", int), json_terms(doc, dim))


class WeightedInnerProduct:
    """Hermitian positive definite weight on C^d and its tensor powers.

    ||x||^2 = x^H W x.  The Cholesky factor L (W = L L^H) gives the slot
    isometries used throughout: L^H on the primal side, conj(L^{-1}) on the
    dual side.
    """

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("weight must be a square matrix")
        if not np.allclose(m, m.conj().T, rtol=0, atol=1e-12):
            raise ValueError("weight must be Hermitian")
        try:
            lower = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("weight must be positive definite") from exc
        self.matrix = m
        self.dim = m.shape[0]
        self._lower = lower
        self.is_identity = bool(np.array_equal(m, np.eye(self.dim)))

    @classmethod
    def identity(cls, dim: int) -> "WeightedInnerProduct":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, weights) -> "WeightedInnerProduct":
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("diagonal weights must be positive")
        return cls(np.diag(w))

    def primal_slot_map(self) -> np.ndarray:
        return self._lower.conj().T

    def dual_slot_map(self) -> np.ndarray:
        return np.linalg.inv(self._lower).conj()

    def __repr__(self) -> str:
        tag = "identity" if self.is_identity else "general"
        return f"WeightedInnerProduct(dim={self.dim}, {tag})"


def _weighted(dim: int, weight: WeightedInnerProduct | None) -> bool:
    """Whether `weight` changes a norm on C^dim; None is the identity."""
    if weight is None:
        return False
    if weight.dim != dim:
        raise ValueError("weight dimension mismatch")
    return not weight.is_identity


@lru_cache(maxsize=None)
def norm_weights(dim: int, degree: int) -> np.ndarray:
    """beta!/n! over monomial_basis(dim, degree), each rounded once."""
    nfact = math.factorial(degree)
    weights = np.array([float(Fraction(multi_factorial(b), nfact))
                        for b in monomial_basis(dim, degree)])
    weights.flags.writeable = False
    return weights


def apply_slot_map(phi: SymCoeff, matrix: np.ndarray) -> SymCoeff:
    """Apply a linear map M to every tensor slot.

    On the evaluation polynomial this is the substitution w -> M^T w, i.e.
    variable j is replaced by the linear form sum_i M[i, j] w_i.
    """
    m = np.asarray(matrix, dtype=complex)
    d = phi.dim
    if m.shape != (d, d):
        raise ValueError("slot map has wrong shape")
    if phi.degree == 0 or phi.is_zero:
        return phi
    comps = []
    for j in range(d):
        vec = np.zeros(graded_size(d, phi.degree), dtype=complex)
        vec[1:d + 1] = m[::-1, j]  # the degree-1 monomials run x_d, .., x_1
        comps.append(ScalarSeries(d, phi.degree, vec))
    sub = VectorSeries.from_components(comps)
    series = ScalarSeries(d, phi.degree, phi._graded(phi.degree))
    return SymCoeff(d, phi.degree, ps_compose(series, sub).degree_part(phi.degree))


@lru_cache(maxsize=64)
def slot_matrix(weight: WeightedInnerProduct, degree: int, dual: bool = False) -> np.ndarray:
    """Read-only matrix of the weight's primal (or dual) slot map on the
    degree-`degree` coefficient space; cached per weight object."""
    d, slot = weight.dim, weight.dual_slot_map() if dual else weight.primal_slot_map()
    units = np.eye(len(monomial_basis(d, degree)), dtype=complex)
    mat = np.stack([apply_slot_map(SymCoeff(d, degree, e), slot).vec for e in units], axis=1)
    mat.flags.writeable = False
    return mat


def column_norms(mat, dim: int, degree: int, weight: WeightedInnerProduct | None = None,
                 dual: bool = False) -> np.ndarray:
    """Hilbert norm sqrt(sum (beta!/n!) |c_beta|^2) of every column of a matrix
    over monomial_basis(dim, degree) after the weight's slot map, the terms added
    in basis order.  As LAPACK's nrm2 scales, a column whose squares overflow
    while its entries are finite, and a nonzero column whose largest modulus is
    below 2**-480 (its squares would underflow), is summed again scaled by its
    largest modulus."""
    m = np.asarray(mat, dtype=complex)
    if _weighted(dim, weight):
        m = slot_matrix(weight, degree, dual) @ m
    mod, weights = np.abs(m), norm_weights(dim, degree)[:, None]
    # every nonzero modulus in [2**-480, 2**480): no sum of < 2**60 weighted squares
    # overflows, and for weights >= 2**-60 no weighted square underflows
    if np.count_nonzero(mod) == np.count_nonzero((2.0 ** -480 <= mod) & (mod < 2.0 ** 480)):
        return np.sqrt(np.cumsum(weights * mod ** 2, axis=0)[-1])
    with np.errstate(over="ignore"):
        out = np.sqrt(np.cumsum(weights * mod ** 2, axis=0)[-1])
    top = mod.max(axis=0, initial=0.0)
    redo = (np.isinf(out) & np.isfinite(top)) | ((0 < top) & (top < 2.0 ** -480))
    if redo.any():
        top = top[redo]
        out[redo] = top * np.sqrt(np.cumsum(weights * (mod[:, redo] / top) ** 2, axis=0)[-1])
    return out


def sym_norm(phi: SymCoeff, weight: WeightedInnerProduct | None = None) -> float:
    """Hilbert norm of the symmetric tensor, sqrt(sum (beta!/n!) |c_beta|^2),
    after the weight's primal slot map."""
    return float(column_norms(phi.vec[:, None], phi.dim, phi.degree, weight)[0])


def sym_dual_norm(phi: SymCoeff, weight: WeightedInnerProduct | None = None) -> float:
    """Norm of a dual-side tensor (inverse weight convention)."""
    return float(column_norms(phi.vec[:, None], phi.dim, phi.degree, weight, dual=True)[0])


def sym_product(a: SymCoeff, b: SymCoeff) -> SymCoeff:
    """Symmetric tensor product: the ring product of the two degree slices,
    each placed in a zero graded vector of degree <= k + m, as `ps_mul`
    multiplies them.

    Valid because pairing against the symmetric w^{(x)(k+m)} factorizes:
    <w^{(x)(k+m)}, a (.) b> = <w^{(x)k}, a> <w^{(x)m}, b>.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    dim, degree = a.dim, a.degree + b.degree
    out = ps_mul(ScalarSeries(dim, degree, a._graded(degree)),
                 ScalarSeries(dim, degree, b._graded(degree)))
    return SymCoeff(dim, degree, out.degree_part(degree))


def sym_contract(theta: SymCoeff, phi: SymCoeff) -> SymCoeff:
    """Contract a degree-k dual tensor into a degree-n tensor (n >= k).

    The result r of degree n-k is defined by the duality
    <G (.) theta, phi> = <G, r> for every dual G of degree n-k, which in
    monomial coordinates reads

        r_delta = ((n-k)!/n!) sum_{|gamma|=k} t_gamma c_{delta+gamma} (delta+gamma)!/delta!

    The coordinate formula is pinned against the dense-tensor oracle in the
    test suite; with the conventions above it equals contracting k slots of
    the dense tensors.
    """
    if theta.dim != phi.dim:
        raise ValueError("dimension mismatch")
    k, n = theta.degree, phi.degree
    if k > n:
        raise ValueError(f"cannot contract degree {k} into degree {n}")
    exact = theta.exact and phi.exact
    out: dict[tuple[int, ...], complex] = {}
    for big, c in phi.coeffs.items():
        for gam, t in theta.coeffs.items():
            if any(g > bb for g, bb in zip(gam, big)):
                continue
            delta = tuple(bb - g for bb, g in zip(big, gam))
            factor = Fraction(math.factorial(n - k) * multi_factorial(big),
                              math.factorial(n) * multi_factorial(delta))
            if not exact:
                factor = float(factor)
            out[delta] = out.get(delta, 0) + t * c * factor
    return SymCoeff.from_coeffs(phi.dim, n - k, out)


@lru_cache(maxsize=None)
def _slot_ranks(dim: int, degree: int) -> np.ndarray:
    """Read-only array over the slot tuples (i_1..i_n) in C order: the rank in
    monomial_basis(dim, degree) of the beta that counts their occurrences."""
    rank = _rank(dim, degree)
    ranks = np.array([rank[tuple(pos.count(i) for i in range(dim))]
                      for pos in itertools.product(range(dim), repeat=degree)], dtype=np.intp)
    ranks.flags.writeable = False
    return ranks


def to_dense(phi: SymCoeff) -> np.ndarray:
    """Full d^n dense tensor; entry at slots (i_1..i_n) is c_beta * beta!/n!
    where beta counts slot occurrences."""
    d, n = phi.dim, phi.degree
    if d ** n > DENSE_BUDGET:
        raise ValueError(f"dense budget exceeded: {d}^{n} > {DENSE_BUDGET}")
    exact = not phi.is_zero and phi.exact
    entries = np.zeros(len(phi.vec), dtype=object if exact else complex)
    if exact:
        entries[:] = Fraction(0)
    basis, nfact = monomial_basis(d, n), math.factorial(n)
    for j in np.flatnonzero(phi.vec):
        entries[j] = _rescaled(phi.vec[j], multi_factorial(basis[j]), nfact)
    return entries[_slot_ranks(d, n)].reshape((d,) * n)
