"""Sheffer sequences as graded coefficient transforms.

A sequence is represented by one graded matrix per direction, rows the
output degree k and columns the input degree n, with blocks V[k, n]

    <S_n(w), phi_n> = sum_{k<=n} <w^{(x)k}, V[k, n] phi_n>,

read off the generating function

    G(w, xi) = exp[<w, A(xi)>] / rho(A(xi))
             = sum_n (1/n!) <S_n(w), xi^{(x)n}>.

The w variables never enter a series: <w, A>^k / k! expands as
sum_{|beta|=k} w^beta A^beta / beta!, so the coefficient of w^beta xi^gamma
in G is [xi^gamma](theta * A^beta) / beta! with theta = 1/rho(A), and

    V[k, n][beta, gamma] = (gamma!/beta!) [xi^gamma](theta * A^beta)

for k = |beta|, n = |gamma|.  The products theta * A^beta are built in d
variables, degree by degree, one series product per monomial beta of
degree <= N, those of one degree and one first variable in one batched
product.  In d = 1 this is the column construction of an exponential
Riordan array.  In exact mode the rows travel from degree to degree as
integer numerators over one denominator per row, each row divided by the gcd
of its numerators and its denominator, so the products are integer
arithmetic; each entry is reduced once, as one Fraction(gamma! num, beta! den).

The matrix is block upper triangular with identity diagonal blocks, from
the unit linear part of A and rho(0) = 1; monicity is asserted after every
build, and `blocks` makes a read-only view of a block each time one is
read.  In float mode the top blocks are exactly the identity too: their
coefficients are exact products of ones, and their weight gamma!/beta!
divides a float by itself.

The inverse transform is the graded transform of the same shape built from
the compositional inverse B of A: substituting xi = B(zeta) in G gives

    exp[<w, zeta>] = rho(zeta) * sum_n (1/n!) <S_n(w), B(zeta)^{(x)n}>,

since A(B(zeta)) = zeta, so its blocks come from exp[<w, B(xi)>] * rho(xi).
The factor is rho itself: kappa(B(xi)) with kappa = rho(A) equals rho(xi)
up to the truncation order, and needs no composition.

For rho = 1 (binomial type) G(w + z, xi) = G(w, xi) G(z, xi), and
`binomial_check` tests exactly this one series identity.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import itertools
import json
import math
import operator
from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .families import FamilyDivisor, FamilySpec, make_family
from .series import (
    ScalarSeries,
    VectorSeries,
    _mul_rows,
    _normalized,
    _over_common_denominator,
    _rank,
    _rescaled,
    graded_exponents,
    graded_size,
    json_field,
    json_object,
    monomial_basis,
    monomial_values,
    multi_factorial,
    ps_compose,
    ps_mul,
    ps_recip,
    vs_inverse,
)
from .symtensor import SymCoeff, sym_norm

__all__ = [
    "PolynomialOnDual",
    "ShefferSequence",
    "DegreeOverflowError",
    "build_basic",
    "build_sheffer",
    "sheffer_apply",
    "sheffer_inverse_apply",
    "binomial_check",
    "BinomialReport",
    "random_polynomial",
    "save_sequence",
    "load_sequence",
]


class DegreeOverflowError(ValueError):
    """Input degree exceeds the built truncation order."""


@dataclass(frozen=True, eq=False)
class PolynomialOnDual:
    """p(w) = sum_n <w^{(x)n}, coeffs[n]> with deg(coeffs[n]) = n."""

    dim: int
    coeffs: tuple[SymCoeff, ...]

    @classmethod
    def from_coeffs(cls, dim: int, coeffs: Iterable[SymCoeff]) -> "PolynomialOnDual":
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a polynomial needs at least its degree-0 coefficient")
        for n, c in enumerate(cs):
            if c.dim != dim:
                raise ValueError("coefficient dimension mismatch")
            if c.degree != n:
                raise ValueError(f"slot {n} holds a degree-{c.degree} coefficient")
        return cls(dim, cs)

    @classmethod
    def zero(cls, dim: int) -> "PolynomialOnDual":
        return cls.from_coeffs(dim, [SymCoeff.zero(dim, 0)])

    @classmethod
    def monomial(cls, dim: int, exponents, value=1.0 + 0.0j) -> "PolynomialOnDual":
        exps = tuple(exponents)
        cs = [SymCoeff.zero(dim, k) for k in range(sum(exps))]
        cs.append(SymCoeff.from_coeffs(dim, sum(exps), {exps: value}))
        return cls.from_coeffs(dim, cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def coefficient(self, degree: int) -> SymCoeff:
        if degree < len(self.coeffs):
            return self.coeffs[degree]
        return SymCoeff.zero(self.dim, degree)

    def trimmed(self) -> "PolynomialOnDual":
        cs = list(self.coeffs)
        while len(cs) > 1 and cs[-1].is_zero:
            cs.pop()
        return PolynomialOnDual.from_coeffs(self.dim, cs)

    def evaluate(self, omega) -> complex:
        return sum((c.evaluate(omega) for c in self.coeffs), 0.0 + 0.0j)

    def __sub__(self, other: "PolynomialOnDual") -> "PolynomialOnDual":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        top = max(self.degree, other.degree)
        return PolynomialOnDual.from_coeffs(
            self.dim,
            [self.coefficient(n) - other.coefficient(n) for n in range(top + 1)])

    def __repr__(self) -> str:
        return f"PolynomialOnDual(dim={self.dim}, degree={self.degree})"

    def to_json_dict(self) -> dict:
        return {"dim": self.dim,
                "coefficients": [c.to_json_dict() for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PolynomialOnDual":
        doc = json_object(doc, "polynomial")
        coeffs = json_field(doc, "coefficients", list)
        for n, c in enumerate(coeffs):  # before a slot's vector is allocated
            if json_field(json_object(c, "tensor"), "degree", int) != n:
                raise ValueError(f"slot {n} holds a degree-{c['degree']} coefficient")
        return cls.from_coeffs(json_field(doc, "dim", int),
                               [SymCoeff.from_json_dict(c) for c in coeffs])


# -- block construction -----------------------------------------------------


def _float_or_inf(value: int) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=None)
def _first_index_groups(dim: int, degree: int) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """The monomials beta of one degree (>= 1) grouped by their first nonzero
    index i, the groups in the order of their first monomial: per group i,
    the ranks of its monomials beta and of beta - e_i (one degree lower), as
    read-only index arrays.  A per-shape plan of `_power_rows`."""
    rank, by_first = _rank(dim, degree - 1), {}
    for r, beta in enumerate(monomial_basis(dim, degree)):
        i = next(j for j, e in enumerate(beta) if e)
        rows, lower = by_first.setdefault(i, ([], []))
        rows.append(r)
        lower.append(rank[beta[:i] + (beta[i] - 1,) + beta[i + 1:]])
    groups = tuple((i, np.array(rows), np.array(lower)) for i, (rows, lower) in by_first.items())
    for _, rows, lower in groups:
        rows.flags.writeable = lower.flags.writeable = False
    return groups


def _power_rows(vec: VectorSeries, factor: ScalarSeries, order: int, exact: bool):
    """For k = 0..order, the vectors of factor * vec^beta over the monomials
    beta of degree k as the rows of one array, from
    factor * vec^beta = (factor * vec^(beta - e_i)) * vec_i with i the first
    nonzero index of beta: one batched product (`_mul_rows`) per i, over the
    rows of degree k - 1 that the monomials of degree k with first index i
    come from (`_first_index_groups`).

    Exact rows travel as integer numerators over one denominator per row, and
    a degree comes as (numerators, denominators), row r being
    numerators[r] / denominators[r].  The components of vec and the factor
    are put in that form once, `_mul_rows` multiplies the integer rows as it
    multiplies complex ones, and each new row is divided by the gcd of its
    numerators and its denominator, which leaves its entries over the lcm of
    their reduced denominators."""
    d = vec.dim_in
    dtype = object if exact else complex
    comps = np.array([c.vec for c in vec.components], dtype=dtype)
    raw = np.asarray(factor.vec, dtype=dtype)[None]
    if exact:
        comps, comp_dens = _over_common_denominator(comps)
        raw, dens = _over_common_denominator(raw)
        dens = np.array(dens, dtype=object)
    yield (raw, dens) if exact else raw
    for k in range(1, order + 1):
        size = len(monomial_basis(d, k))
        prev, raw = raw, np.empty((size, len(raw[0])), dtype=dtype)
        if exact:
            prev_dens, dens = dens, np.empty(size, dtype=object)
        for i, rows, lower in _first_index_groups(d, k):
            level = prev[lower]
            _mul_rows(d, order, level, comps[i])
            raw[rows] = level
            if exact:
                dens[rows] = prev_dens[lower] * comp_dens[i]
        if exact:
            g = np.gcd(np.gcd.reduce(raw, axis=1), dens)
            raw //= g[:, None]
            dens //= g
        yield (raw, dens) if exact else raw


def _graded_offsets(dim: int, top: int) -> list[int]:
    """Index of the first monomial of each degree 0..top + 1 in the graded basis."""
    return [graded_size(dim, n - 1) for n in range(top + 2)]


class _BlockViews(MutableMapping):
    """The blocks V[k, n], 0 <= k <= n <= N, of a graded matrix, keyed (k, n)
    in the order n ascending, then k ascending.

    Reading a block makes a fresh view matrix[off[k]:off[k+1], off[n]:off[n+1]]
    (read-only when the matrix is); none is kept.  Assigning a block stores a
    replacement that only this mapping returns: the matrix, and so every
    transform, is unchanged.  Blocks cannot be deleted.
    """

    __slots__ = ("matrix", "offsets", "_replaced")

    def __init__(self, matrix: np.ndarray, offsets: list[int]) -> None:
        self.matrix = matrix
        self.offsets = offsets
        self._replaced: dict[tuple[int, int], object] = {}

    def _key(self, key) -> tuple[int, int]:
        try:
            k, n = key
            k, n = operator.index(k), operator.index(n)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if not 0 <= k <= n < len(self.offsets) - 1:
            raise KeyError(key)
        return k, n

    def __getitem__(self, key):
        k, n = self._key(key)
        if (k, n) in self._replaced:
            return self._replaced[k, n]
        off = self.offsets
        return self.matrix[off[k]:off[k + 1], off[n]:off[n + 1]]

    def __setitem__(self, key, value) -> None:
        self._replaced[self._key(key)] = value

    def __delitem__(self, key) -> None:
        raise TypeError("blocks of a graded matrix cannot be deleted")

    def __iter__(self):
        top = len(self.offsets) - 2
        return ((k, n) for n in range(top + 1) for k in range(n + 1))

    def __len__(self) -> int:
        top = len(self.offsets) - 2
        return (top + 1) * (top + 2) // 2


@functools.lru_cache(maxsize=None)
def _factorial_weights(dim: int, order: int) -> tuple[tuple[int, ...], np.ndarray]:
    """gamma! for every monomial gamma of the graded basis of degree <= order,
    as ints and as a read-only float array (inf past the double range): the
    per-shape weights of `_transfer_blocks`."""
    fact = tuple(multi_factorial(gamma) for gamma in graded_exponents(dim, order).tolist())
    ffact = np.array([_float_or_inf(f) for f in fact])
    ffact.flags.writeable = False
    return fact, ffact


def _transfer_blocks(vec: VectorSeries, factor: ScalarSeries, order: int, exact: bool
                     ) -> tuple[np.ndarray, _BlockViews]:
    """Read-only graded matrix of the transform with generating function
    exp[<w, vec(xi)>] * factor(xi), and the mapping that makes its blocks
    V[k, n] as views when they are read.

    Expanding <w, vec>^k / k! = sum_{|beta|=k} w^beta vec^beta / beta! gives

        V[k, n][beta, gamma] = (gamma!/beta!) [xi^gamma](factor * vec^beta),

    so only d-variable series are built, degree by degree (`_power_rows`).
    Row beta of the matrix is the vector of factor * vec^beta, weighted by
    the factorials of `_factorial_weights`.

    In exact mode an entry is made once, as Fraction(gamma! * num, beta! * den)
    from its numerator and its row's denominator.  In float mode the raw rows
    of every degree are written into the matrix, and the whole matrix is
    weighted once, in place, real and imaginary parts each: an entry becomes
    (gamma! * c) / beta! with both factorials as floats, and no second
    matrix is made.  On the top diagonal (beta = gamma, k = n) the
    coefficient c is exactly 1, being a product of the unit linear terms of
    vec and of factor(0) = 1, so the entry divides the identical float by
    itself: the monic blocks stay exactly the identity in float mode as
    well.  Where a factorial or the product leaves the double range the
    entry is made again from its raw coefficient (`_rescue`), the weight
    applied exactly and rounded once; an entry that is itself out of range
    raises a ValueError naming the lowest degree at which that happens.
    """
    d = vec.dim_in
    offsets = _graded_offsets(d, order)
    fact, ffact = _factorial_weights(d, order)
    mat = np.full((len(fact),) * 2, Fraction(0) if exact else 0j)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, raw in enumerate(_power_rows(vec, factor, order, exact)):
            lo = offsets[k]
            rows = mat[lo:offsets[k + 1]]
            if exact:
                nums, dens = raw
                row_dens = [f * den for f, den in zip(fact[lo:], dens)]
                at_row, at_col = np.nonzero(nums)
                rows[at_row, at_col] = [
                    Fraction(fact[col] * num, row_dens[r])
                    for r, col, num in zip(at_row.tolist(), at_col.tolist(), nums[at_row, at_col])]
            else:
                rows[...] = raw
        if not exact:
            for part in (mat.real, mat.imag):
                np.multiply(part, ffact, out=part)
                np.divide(part, ffact[:, None], out=part)
            if not np.isfinite(mat).all():
                _rescue(mat, vec, factor, order, offsets)
    mat.flags.writeable = False
    return mat, _BlockViews(mat, offsets)


def _rescue(mat: np.ndarray, vec: VectorSeries, factor: ScalarSeries, order: int,
            offsets: list[int]) -> None:
    """Every entry of a weighted float matrix that is not finite made again
    from its raw coefficient, the power rows being built anew as far as the
    highest degree that holds one (they are the same bits): the weight
    applied exactly and rounded once (`_rescaled`).  A ValueError names the
    lowest degree n, then k, of a block V[k, n] that stays out of range."""
    fact = _factorial_weights(vec.dim_in, order)[0]
    bad_row, bad_col = np.nonzero(~np.isfinite(mat))
    degrees = np.searchsorted(offsets, bad_row, side="right") - 1
    for k, raw in zip(range(int(degrees.max()) + 1), _power_rows(vec, factor, order, False)):
        for r, col in zip(bad_row[degrees == k].tolist(), bad_col[degrees == k].tolist()):
            mat[r, col] = _rescaled(raw[r - offsets[k], col], fact[col], fact[r])
    if not np.isfinite(mat).all():
        k, n = np.searchsorted(offsets, np.nonzero(~np.isfinite(mat)), side="right") - 1
        n, k = min(zip(n.tolist(), k.tolist()))  # the lowest degree n, then k
        raise ValueError(f"float block V[{k},{n}] leaves the double range; "
                         f"lower max_degree below {n}")


class ShefferSequence:
    """Graded matrices of one Sheffer sequence, plus its defining data.

    `blocks` and `inverse_blocks` map (k, n) to the block V[k, n] of `matrix`
    and `inverse_matrix`, each view made when it is read.  Replacing a block
    there changes only what that mapping returns; the transforms read the
    matrices.  The inverse matrix is built on first use of inverse_blocks or
    inverse_matrix and cached.  `spec` is the catalog family the sequence
    was built from in closed form, None for any other (A, rho).
    """

    def __init__(self, dim: int, max_degree: int, matrix: np.ndarray,
                 blocks: _BlockViews,
                 a: VectorSeries, rho: ScalarSeries | None,
                 theta_series: ScalarSeries, kappa_series: ScalarSeries,
                 exact: bool, spec: FamilySpec | None = None) -> None:
        self.dim = dim
        self.max_degree = max_degree
        self.matrix = matrix
        self.blocks = blocks
        self.a = a
        self.rho = rho
        self.theta_series = theta_series
        self.kappa_series = kappa_series
        self.exact = exact
        self.spec = spec
        self._inverse_matrix: np.ndarray | None = None
        self._inverse_blocks: _BlockViews | None = None
        self._b: VectorSeries | None = None

    @functools.cached_property
    def theta(self) -> tuple[SymCoeff, ...]:
        """Degree parts of 1/rho(A(xi)) as symmetric tensors."""
        return _degree_tensors(self.theta_series, self.max_degree)

    @functools.cached_property
    def kappa(self) -> tuple[SymCoeff, ...]:
        """Degree parts of rho(A(xi)) as symmetric tensors."""
        return _degree_tensors(self.kappa_series, self.max_degree)

    @property
    def is_basic(self) -> bool:
        return self.rho is None

    @property
    def is_appell(self) -> bool:
        return self.a.unit_linear and not any(
            np.any(c.vec[graded_size(self.dim, 1):]) for c in self.a.components)

    @property
    def inverse_a(self) -> VectorSeries:
        if self._b is None:
            self._b = vs_inverse(self.a)
        return self._b

    @property
    def inverse_blocks(self) -> _BlockViews:
        if self._inverse_blocks is None:
            factor = (self.kappa_series if self.rho is None  # both are 1
                      else self.rho.truncate(self.max_degree))
            self._inverse_matrix, self._inverse_blocks = _transfer_blocks(
                self.inverse_a, factor, self.max_degree, self.exact)
        return self._inverse_blocks

    @property
    def inverse_matrix(self) -> np.ndarray:
        self.inverse_blocks  # builds the inverse on first use
        return self._inverse_matrix

    def polynomial_tensor(self, n: int, omega) -> SymCoeff:
        """S_n(w) at a numeric w, as a dual symmetric tensor: n! times the
        degree-n part of G(w, .)."""
        if n > self.max_degree:
            raise DegreeOverflowError(f"degree {n} exceeds built order {self.max_degree}")
        return SymCoeff(self.dim, n, _generating_series(self, omega, n).degree_part(n)
                        * float(math.factorial(n)))

    def summary_rows(self) -> list[dict]:
        rows = []
        for n in range(self.max_degree + 1):
            rows.append({
                "degree": n,
                "basis_size": len(monomial_basis(self.dim, n)),
                "theta_norm": sym_norm(self.theta[n]),
                "kappa_norm": sym_norm(self.kappa[n]),
            })
        return rows

    def __repr__(self) -> str:
        kind = "basic" if self.is_basic else "sheffer"
        return (f"ShefferSequence(dim={self.dim}, N={self.max_degree}, {kind}, "
                f"exact={self.exact})")


def _graded_apply(seq: ShefferSequence, mat: np.ndarray, p: PolynomialOnDual) -> PolynomialOnDual:
    """psi = mat phi by column panels: each entry adds its terms by increasing n.
    Entries past the double range raise a ValueError naming their lowest degree."""
    if p.dim != seq.dim:
        raise ValueError("dimension mismatch")
    if p.is_zero:
        return PolynomialOnDual.zero(seq.dim)
    deg = p.trimmed().degree
    if deg > seq.max_degree:
        raise DegreeOverflowError(
            f"polynomial degree {deg} exceeds built order {seq.max_degree}")
    dtype = object if seq.exact else complex
    offsets = _graded_offsets(seq.dim, deg)
    acc = np.zeros(offsets[-1], dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, phi in enumerate(p.coeffs[:deg + 1]):
            if not phi.is_zero:
                hi = offsets[n + 1]
                acc[:hi] += mat[:hi, offsets[n]:hi] @ np.asarray(phi.vec, dtype=dtype)
    if not seq.exact and not np.isfinite(acc).all():
        k = np.searchsorted(offsets, np.flatnonzero(~np.isfinite(acc))[0], side="right") - 1
        raise ValueError(f"transformed coefficients of degree {k} leave the double range")
    out = [SymCoeff(seq.dim, k, _normalized(acc[offsets[k]:offsets[k + 1]]))
           for k in range(deg + 1)]
    return PolynomialOnDual.from_coeffs(seq.dim, out).trimmed()


def _generating_series(seq: ShefferSequence, omega, top: int) -> ScalarSeries:
    """G(omega, xi) = sum_n (1/n!) <S_n(omega), xi^{(x)n}> up to degree top:
    the coefficient of xi^gamma is sum_beta omega^beta V[beta, gamma] / gamma!."""
    exps = graded_exponents(seq.dim, top)
    powers = monomial_values(exps, [list(omega)])[0]
    values = powers @ np.asarray(seq.matrix[:len(exps), :len(exps)], dtype=complex)
    gamma_fact = np.array([float(multi_factorial(gamma)) for gamma in exps.tolist()])
    return ScalarSeries(seq.dim, top, values / gamma_fact)


def _degree_tensors(series: ScalarSeries, order: int) -> tuple[SymCoeff, ...]:
    return tuple(SymCoeff(series.dim, k, series.degree_part(k)) for k in range(order + 1))


def build_sheffer(a: VectorSeries, rho: ScalarSeries | None, order: int) -> ShefferSequence:
    """Construct the sequence for generating data (A, rho) up to degree `order`.

    kappa = rho(A) is a composition and theta = 1/kappa a reciprocal, except
    for a catalog divisor made for this very A (`make_family`), which
    carries both in closed form."""
    if order < 0:
        raise ValueError(f"max_degree must be nonnegative, got {order}")
    if not a.unit_linear:
        raise ValueError("the degree-1 part of A must be the identity map")
    if a.max_degree < order:
        raise ValueError("A is truncated below the requested order")
    if rho is not None and rho.max_degree < order:
        raise ValueError("rho is truncated below the requested order")
    d = a.dim_in
    exact = a.exact and (rho is None or rho.exact)
    a_trunc = a.truncate(order)
    if rho is not None and rho.constant_term != 1:
        raise ValueError("rho must have constant term 1")
    closed = rho if isinstance(rho, FamilyDivisor) and rho.a is a else None
    if rho is not None and not np.any(rho.vec[1:]):
        rho = None  # a constant divisor is the binomial-type case
    if closed is not None:
        kappa_series, theta_series = closed.kappa.truncate(order), closed.theta.truncate(order)
    else:
        kappa_series = (ScalarSeries.one(d, order, exact=exact) if rho is None
                        else ps_compose(rho.truncate(order), a_trunc))
        theta_series = ps_recip(kappa_series)
    matrix, blocks = _transfer_blocks(a_trunc, theta_series, order, exact)
    seq = ShefferSequence(d, order, matrix, blocks, a_trunc, rho,
                          theta_series, kappa_series, exact,
                          None if closed is None else closed.spec)
    _assert_monic(seq)
    return seq


def build_basic(a: VectorSeries, order: int) -> ShefferSequence:
    """Binomial-type case, rho = 1."""
    return build_sheffer(a, None, order)


def _assert_monic(seq: ShefferSequence) -> None:
    """Every top block V[n, n] is the identity: one gather of their entries,
    row r of degree k meeting the columns of degree k, compared at once;
    the error names the lowest degree at which one is not."""
    deg = graded_exponents(seq.dim, seq.max_degree).sum(axis=1)
    offsets = np.array(_graded_offsets(seq.dim, seq.max_degree))
    width = np.diff(offsets)[deg]  # columns of the top block that row r crosses
    rows = np.arange(len(deg)).repeat(width)
    cols = (offsets[deg] - np.cumsum(width) + width)[rows] + np.arange(len(rows))
    wrong = np.flatnonzero(seq.matrix[rows, cols] != (rows == cols))
    if len(wrong):
        raise AssertionError(f"top block at degree {deg[rows[wrong[0]]]} is not the identity")


def sheffer_apply(seq: ShefferSequence, p: PolynomialOnDual) -> PolynomialOnDual:
    """psi_k = sum_{n>=k} V[k, n] phi_n."""
    return _graded_apply(seq, seq.matrix, p)


def sheffer_inverse_apply(seq: ShefferSequence, p: PolynomialOnDual) -> PolynomialOnDual:
    """Exact inverse of sheffer_apply up to the built order."""
    return _graded_apply(seq, seq.inverse_matrix, p)


# -- dense symmetrization (for check's tensor-layer oracle) -----------------


def _symmetrize(tensor: np.ndarray) -> np.ndarray:
    n = tensor.ndim
    if n <= 1:
        return tensor
    acc = np.zeros_like(tensor)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        acc += np.transpose(tensor, perm)
    return acc / len(perms)


# -- binomial identity -------------------------------------------------------


@dataclass(frozen=True)
class BinomialReport:
    max_deviation: float
    per_degree: dict[int, float]
    trials: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= 1e-9


def binomial_check(seq: ShefferSequence, trials: int = 20,
                   rng: np.random.Generator | None = None,
                   max_degree: int | None = None) -> BinomialReport:
    """Deviation in G(w + z, xi) = G(w, xi) G(z, xi), whose degree-n part
    times n! is P_n(w + z) = sum_k C(n, k) P_k(w) (.) P_{n-k}(z).

    Both sides are compared as dual tensors; the reported deviation is
    ||lhs - rhs|| / max(1, ||lhs||, ||rhs||) so that the growth of the
    tensors themselves does not inflate the figure.
    """
    if not seq.is_basic:
        raise ValueError("binomial_check expects a basic sequence (rho = 1)")
    rng = rng if rng is not None else np.random.default_rng(0)
    top = seq.max_degree if max_degree is None else min(max_degree, seq.max_degree)
    per_degree = {n: 0.0 for n in range(1, top + 1)}
    for _ in range(trials):
        w = _random_point(seq.dim, rng)
        z = _random_point(seq.dim, rng)
        lhs = _generating_series(seq, [a + b for a, b in zip(w, z)], top)
        rhs = ps_mul(_generating_series(seq, w, top), _generating_series(seq, z, top))
        for n in range(1, top + 1):
            nfact = float(math.factorial(n))
            left, right = (SymCoeff(seq.dim, n, g.degree_part(n) * nfact) for g in (lhs, rhs))
            scale = max(1.0, sym_norm(left), sym_norm(right))
            per_degree[n] = max(per_degree[n], sym_norm(left - right) / scale)
    max_dev = max(per_degree.values(), default=0.0)
    return BinomialReport(max_dev, per_degree, trials)


def _random_point(dim: int, rng: np.random.Generator) -> list[complex]:
    re = rng.uniform(-0.5, 0.5, size=dim)
    im = rng.uniform(-0.5, 0.5, size=dim)
    return [complex(a, b) for a, b in zip(re, im)]


def random_polynomial(dim: int, max_degree: int, rng: np.random.Generator) -> PolynomialOnDual:
    coeffs = []
    for n in range(max_degree + 1):
        basis = monomial_basis(dim, n)
        vals = rng.uniform(-1, 1, len(basis)) + 1j * rng.uniform(-1, 1, len(basis))
        coeffs.append(SymCoeff(dim, n, vals))
    return PolynomialOnDual.from_coeffs(dim, coeffs)


# -- sequence files ----------------------------------------------------------


# Sequence files carry this tag.  Files of an earlier format (untagged, or
# 2 and up, each written before a builder change that can move the last bits
# of float blocks) load while their blocks match a fresh build bit for bit; a
# block that does not asks for the file to be regenerated.  From format 5 a
# catalog sequence stores its family spec and is rebuilt from it: its rounded
# (A, rho) alone would rebuild other float blocks than the closed forms give.
SEQUENCE_FORMAT = 5


def _stored_matrix(seq: ShefferSequence) -> np.ndarray:
    """The forward matrix as sequence files store its blocks: one
    little-endian complex128 copy, whose slices' tobytes() are row-major."""
    return seq.matrix.astype(complex).astype("<c16", copy=False)


@functools.lru_cache(maxsize=16)
def _block_slices(dim: int, max_degree: int) -> Mapping[str, tuple[slice, slice]]:
    """Read-only map of sequence-file key 'k,n' -> (row slice, column slice)
    of the block V[k, n] in the graded matrix of this shape, in the order of
    `blocks`."""
    off = _graded_offsets(dim, max_degree)
    return MappingProxyType({f"{k},{n}": (slice(off[k], off[k + 1]), slice(off[n], off[n + 1]))
                             for n in range(max_degree + 1) for k in range(n + 1)})


def _stored_series(doc: dict) -> tuple[VectorSeries, ScalarSeries | None]:
    """The (A, rho) of a sequence file document."""
    rho = None if doc.get("rho") is None else ScalarSeries.from_json_dict(doc["rho"])
    return VectorSeries.from_json_dict(doc.get("a")), rho


def sequence_to_json_dict(seq: ShefferSequence, include_blocks: bool = True) -> dict:
    """Sequence file document.  Blocks are row-major little-endian complex128
    over the canonical graded bases; each carries a sha256 of its bytes.  A
    catalog sequence also stores its family spec as `family`."""
    doc = {
        "format_version": SEQUENCE_FORMAT,
        "dim": seq.dim,
        "max_degree": seq.max_degree,
        "a": seq.a.to_json_dict(),
        "rho": None if seq.rho is None else seq.rho.to_json_dict(),
    }
    if seq.spec is not None:
        doc["family"] = seq.spec.to_json_dict()
    if include_blocks:
        blocks, stored = {}, _stored_matrix(seq)
        for key, at in _block_slices(seq.dim, seq.max_degree).items():
            mat = stored[at]
            raw = mat.tobytes()
            blocks[key] = {
                "rows": int(mat.shape[0]),
                "cols": int(mat.shape[1]),
                "data": base64.b64encode(raw).decode("ascii"),
                "sha256": hashlib.sha256(raw).hexdigest(),
            }
        doc["blocks"] = blocks
    return doc


def _from_family(doc: dict, max_degree: int) -> ShefferSequence:
    """Rebuild through `make_family` from the stored spec; the stored (A, rho)
    must equal the spec's own as series."""
    seq = build_sheffer(*make_family(FamilySpec.from_json_dict(doc["family"])), max_degree)
    for name, stored, fresh in zip(("a", "rho"), _stored_series(doc), (seq.a, seq.rho)):
        if fresh != stored:
            raise ValueError(f"stored {name!r} of this sequence file differs from its "
                             f"family spec's; regenerate the file with `shefferkit family`")
    return seq


def sequence_from_json_dict(doc: dict) -> ShefferSequence:
    """Rebuild from the family spec (format 5 catalog files) or from (A, rho);
    stored blocks, when present, must match their checksums and then the
    recomputation, byte for byte."""
    doc = json_object(doc, "sequence")
    version = doc.get("format_version")
    if version is not None and not (type(version) is int and 2 <= version <= SEQUENCE_FORMAT):
        raise ValueError(f"unsupported sequence format_version {version!r}")
    max_degree = json_field(doc, "max_degree", int)
    if version == SEQUENCE_FORMAT and doc.get("family") is not None:
        seq = _from_family(doc, max_degree)
    else:
        seq = build_sheffer(*_stored_series(doc), max_degree)
    entries = json_object(doc.get("blocks") or {}, "blocks")
    if not entries:
        return seq
    slices, recomputed = _block_slices(seq.dim, seq.max_degree), _stored_matrix(seq)
    for key, entry in entries.items():
        if key not in slices:
            raise ValueError(f"block key {key!r} must be 'k,n' with integers "
                             f"0 <= k <= n <= {seq.max_degree}")
        entry = json_object(entry, "block")
        if not all(isinstance(entry.get(field), str) for field in ("data", "sha256")):
            raise ValueError(f"block {key} needs string data and sha256 fields")
        raw = base64.b64decode(entry["data"])
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise ValueError(f"corrupt block {key}: stored checksum mismatch")
        if raw == recomputed[slices[key]].tobytes():
            continue
        if version != SEQUENCE_FORMAT:
            raise ValueError(
                f"block {key} of this sequence file was written by an earlier "
                f"version of the builder; regenerate the file with `shefferkit family`")
        raise ValueError(f"block {key} disagrees with recomputation")
    return seq


def save_sequence(seq: ShefferSequence, path, include_blocks: bool = True) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sequence_to_json_dict(seq, include_blocks), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_sequence(path) -> ShefferSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return sequence_from_json_dict(json.load(fh))
