"""Truncated multivariate formal power series.

Series live in C[[x_1, .., x_d]] truncated at a total degree N.  A series is
one 1-d numpy vector over the graded monomial basis: the monomials of degree
0, 1, .., N in turn, each degree in the order of `monomial_basis` (plain
tuple order).  A degree part is a contiguous slice of the vector and a
truncation is a prefix of it, so every walk over a series is deterministic.

Coefficients are ordinarily complex128.  Passing `fractions.Fraction` (or
int) coefficients stores them in an object vector and switches every
operation to exact rational arithmetic; nothing else changes.  There is no
epsilon pruning: the `terms` map lists the entries that are not exactly zero.

Multiplication serves both kinds of vector with one pair gather: the
product monomial of a pair of graded indices has their sum as its index in
one variable and an index read from a cached table in more, the gather
forms only the pairs of nonzero entries whose product lands in a band of
degrees of the output, and their products, numpy's elementwise product,
are accumulated into it.  Because the basis is graded, the partners
of one entry in a sorted index set are one contiguous run of it, found by
binary search, so a product truncated at N never forms the pairs whose
degree passes N.  There are two kernels, for complex vectors and object
vectors of ints alike: `_mul_pair` multiplies two vectors, and `_mul_rows`
multiplies many, the rows of one array, by one vector with one gather plan
over the rows' joint support, and gives each row the bits `_mul_pair` gives
it.  In one variable `_mul_pair` makes no pair plan: the partners of the
outer entries are shifted runs of the inner vector, the rows of one strided
view (`_band`), and one broadcast product summed over its rows adds the
terms of each output entry in the order the pair gather adds them; a sum
that is not finite is formed again by the pair gather.  Ring products go
through `_multiply`, the one exact rule: exact rows are split into integer
numerators over one common denominator per row, the kernel multiplies the
integers, and each nonzero output entry is rebuilt
once, instead of a gcd for every product and every sum.  The engine's exact
block rows are integers already and go to `_mul_rows` directly.  This is
exact coefficient arithmetic, not an FFT, so structural zeros remain exact
zeros.  exp, log and the reciprocal are degree recurrences in the Euler
operator E = sum_i x_i d/dx_i (Knuth, TAOCP Vol. 2, 4.7) on the same gather,
each degree part computed once from the lower ones (in one variable a
degree is one entry, and its products are summed in order by one
accumulate).  Composition is Horner's
scheme (4.6.4) run in lockstep: one variable at a time, innermost first,
every Horner chain of that variable, across several outer series, takes
each step in one batched product, about f.dim * N of them per composition.
Each step forms only the degrees that can still reach the result: a chain
that will be multiplied k more times needs its degrees 0..N - k, so a 1-d
composition forms about N^3/6 pair products instead of N^3/2 (the count of
Brent & Kung, J. ACM 1978), and takes the operand order of the untruncated
step, so dense compositions keep its bits.  The compositional inverse is
Newton doubling, each step one lockstep composition of all components and
one batched product per column of the Jacobian (`ps_derivative`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ScalarSeries",
    "VectorSeries",
    "monomial_basis",
    "multi_factorial",
    "ps_mul",
    "ps_exp",
    "ps_log",
    "ps_recip",
    "ps_compose",
    "ps_derivative",
    "vs_compose",
    "vs_inverse",
]


def multi_factorial(exps: tuple[int, ...]) -> int:
    """beta! = prod_i beta_i! for an exponent tuple."""
    out = 1
    for e in exps:
        out *= math.factorial(e)
    return out


@lru_cache(maxsize=None)
def monomial_basis(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, in lexicographic order.

    This ordering (within one degree) is the canonical basis order used for
    every graded matrix in the engine.
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    if degree < 0:
        return ()
    if dim == 1:
        return ((degree,),)
    out = []
    for first in range(degree + 1):
        for rest in monomial_basis(dim - 1, degree - first):
            out.append((first,) + rest)
    return tuple(sorted(out))


def graded_size(dim: int, order: int) -> int:
    """Number of monomials of total degree <= order (0 for order < 0)."""
    return math.comb(order + dim, dim) if order >= 0 else 0


@lru_cache(maxsize=None)
def graded_exponents(dim: int, order: int) -> np.ndarray:
    """monomial_basis(dim, 0), .., monomial_basis(dim, order) in turn, as a
    read-only (graded_size, dim) integer array: the graded basis."""
    exps = np.array([b for k in range(order + 1) for b in monomial_basis(dim, k)],
                    dtype=np.intp).reshape(-1, dim)
    exps.flags.writeable = False
    return exps


@lru_cache(maxsize=None)
def _rank(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    return {b: j for j, b in enumerate(monomial_basis(dim, degree))}


def _exponent_key(key, dim: int) -> tuple[int, ...]:
    """`key` as an exponent tuple; anything but `dim` non-negative ints is rejected."""
    exps = tuple(key)
    if len(exps) != dim or not all(
            isinstance(e, (int, np.integer)) and not isinstance(e, bool) and e >= 0
            for e in exps):
        raise ValueError(f"exponent {list(exps)} must be {dim} non-negative integers")
    return tuple(int(e) for e in exps)


def _index(exps: tuple[int, ...]) -> int:
    """Position of a monomial in the graded basis."""
    degree = sum(exps)
    return graded_size(len(exps), degree - 1) + _rank(len(exps), degree)[exps]


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def _normalized(vec: np.ndarray) -> np.ndarray:
    """An object vector that holds inexact values becomes complex128."""
    if vec.dtype == object and not all(_is_exact(c) for c in vec):
        return vec.astype(complex)
    return vec


class _CheckedTerms(dict):
    """Terms whose keys are exponent tuples checked by `_exponent_key`
    already, as `json_terms` makes them."""


def _coeff_vector(terms: Mapping, dim: int, low: int, high: int) -> np.ndarray:
    """Vector over the graded basis of degrees low..high holding `terms`
    (exponent tuple -> coefficient), exact or complex128.  Each key is
    checked by `_exponent_key` unless the terms are `_CheckedTerms`, and
    each degree against low..high."""
    lo = graded_size(dim, low - 1)
    vec = np.zeros(graded_size(dim, high) - lo, dtype=object)
    checked = isinstance(terms, _CheckedTerms)
    for key, c in terms.items():
        exps = key if checked else _exponent_key(key, dim)
        if not low <= sum(exps) <= high:
            raise ValueError(f"exponent {exps} must have total degree in {low}..{high}")
        vec[_index(exps) - lo] = c
    return _normalized(vec)


def _common(*vecs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operands in one dtype: object only when all of them are exact."""
    if all(v.dtype == object for v in vecs):
        return vecs
    return tuple(v.astype(complex) if v.dtype == object else v for v in vecs)


def _scaled(vec: np.ndarray, scalar) -> np.ndarray:
    if vec.dtype == object and _is_exact(scalar):
        return vec * scalar
    return np.asarray(vec, dtype=complex) * complex(scalar)


def _rescaled(value, num: int, den: int):
    """value * num/den with each part rounded once: exact for an int or
    Fraction value, else complex with NaN parts where the value or the
    product leaves the double range."""
    w = Fraction(num, den)
    if _is_exact(value):
        return value * w
    z = complex(value)
    try:
        return complex(float(w * Fraction(z.real)), float(w * Fraction(z.imag)))
    except (OverflowError, ValueError):  # the product overflows, or z is not finite
        return complex(math.nan, math.nan)


def monomial_values(exps: np.ndarray, points) -> np.ndarray:
    """x^beta for every exponent row beta of `exps` at every row x of
    `points`; shape (points, monomials).  The powers of the variables are
    multiplied in variable order."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != exps.shape[1]:
        raise ValueError("point has wrong dimension")
    out = pts[:, :1] ** exps[:, 0]
    for j in range(1, exps.shape[1]):
        out = out * pts[:, j:j + 1] ** exps[:, j]
    return out


class CoeffVector:
    """A read-only coefficient vector `vec` over the graded basis of degree
    <= _order, from graded index `_lo` on: a ScalarSeries holds the whole
    basis, a symtensor.SymCoeff the monomials of its one degree."""

    def __post_init__(self) -> None:
        self.vec.flags.writeable = False

    def _nonzero(self) -> dict[tuple[int, ...], object]:
        """Read-only view: exponent tuple -> coefficient of the nonzero
        entries, in basis order."""
        nonzero = np.flatnonzero(self.vec)
        exps = graded_exponents(self.dim, self._order)[self._lo:][nonzero].tolist()
        return {tuple(e): self.vec[i] for e, i in zip(exps, nonzero)}

    @property
    def is_zero(self) -> bool:
        return np.count_nonzero(self.vec) == 0

    @property
    def exact(self) -> bool:
        return self.vec.dtype == object

    def coefficient(self, exps):
        i = _index(_exponent_key(exps, self.dim)) - self._lo
        return self.vec[i] if 0 <= i < len(self.vec) else 0

    def scale(self, scalar):
        return dataclasses.replace(self, vec=_scaled(self.vec, scalar))

    def evaluate(self, point) -> complex:
        """Numeric evaluation sum_beta c_beta x^beta at a complex vector; the
        terms are added one at a time in basis order."""
        coeffs = np.asarray(self.vec, dtype=complex)
        nonzero = np.flatnonzero(coeffs)
        exps = graded_exponents(self.dim, self._order)[self._lo:][nonzero]
        total = 0j
        for term in (coeffs[nonzero] * monomial_values(exps, [list(point)])[0]).tolist():
            total += term
        return total

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.dim == other.dim
                and self._order == other._order and bool(np.all(self.vec == other.vec)))

    def _json_terms(self) -> list[dict]:
        return [{"exp": list(exps), "re": float(complex(c).real), "im": float(complex(c).imag)}
                for exps, c in self._nonzero().items()]


@dataclass(frozen=True, eq=False)
class ScalarSeries(CoeffVector):
    """Truncated power series in `dim` variables, total degree <= max_degree.

    `vec` holds the coefficients over the graded basis of degree <=
    max_degree.  Values are immutable after construction; all operations
    return new series.  Construct through :meth:`from_terms`, which
    validates the exponents.
    """

    dim: int
    max_degree: int
    vec: np.ndarray

    _lo = 0
    terms = functools.cached_property(CoeffVector._nonzero)

    @property
    def _order(self) -> int:
        return self.max_degree

    @classmethod
    def from_terms(cls, dim: int, max_degree: int, terms: Mapping) -> "ScalarSeries":
        if dim <= 0:
            raise ValueError("dim must be positive")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        return cls(dim, max_degree, _coeff_vector(terms, dim, 0, max_degree))

    @classmethod
    def zero(cls, dim: int, max_degree: int) -> "ScalarSeries":
        return cls.from_terms(dim, max_degree, {})

    @classmethod
    def constant(cls, dim: int, max_degree: int, value) -> "ScalarSeries":
        return cls.from_terms(dim, max_degree, {(0,) * dim: value})

    @classmethod
    def one(cls, dim: int, max_degree: int, exact: bool = False) -> "ScalarSeries":
        return cls.constant(dim, max_degree, 1 if exact else (1.0 + 0.0j))

    @classmethod
    def variable(cls, dim: int, max_degree: int, index: int, exact: bool = False) -> "ScalarSeries":
        exps = [0] * dim
        exps[index] = 1
        return cls.from_terms(dim, max_degree, {tuple(exps): 1 if exact else (1.0 + 0.0j)})

    @classmethod
    def from_coeffs_1d(cls, coeffs: Iterable, max_degree: int | None = None) -> "ScalarSeries":
        """1-d series from the coefficient list [c_0, c_1, ...]."""
        cs = list(coeffs)
        n = max_degree if max_degree is not None else len(cs) - 1
        return cls.from_terms(1, n, {(k,): c for k, c in enumerate(cs) if k <= n})

    # -- inspection ------------------------------------------------------

    @property
    def constant_term(self):
        return self.vec[0]

    def degree_part(self, degree: int) -> np.ndarray:
        """Coefficients of the given degree, over monomial_basis(dim, degree)."""
        return self.vec[graded_size(self.dim, degree - 1):graded_size(self.dim, degree)]

    def truncate(self, max_degree: int) -> "ScalarSeries":
        if max_degree > self.max_degree:
            raise ValueError("cannot extend a truncated series")
        return ScalarSeries(self.dim, max_degree, self.vec[:graded_size(self.dim, max_degree)])

    # -- arithmetic ------------------------------------------------------

    def _aligned(self, other: "ScalarSeries") -> tuple[int, np.ndarray, np.ndarray]:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        n = min(self.max_degree, other.max_degree)
        size = graded_size(self.dim, n)
        return (n, *_common(self.vec[:size], other.vec[:size]))

    def __add__(self, other: "ScalarSeries") -> "ScalarSeries":
        n, a, b = self._aligned(other)
        return ScalarSeries(self.dim, n, a + b)

    def __neg__(self) -> "ScalarSeries":
        return ScalarSeries(self.dim, self.max_degree, -self.vec)

    def __sub__(self, other: "ScalarSeries") -> "ScalarSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ScalarSeries):
            return ps_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (f"ScalarSeries(dim={self.dim}, N={self.max_degree}, "
                f"nnz={np.count_nonzero(self.vec)})")

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """Round-trips losslessly for finite double coefficients."""
        return {"dim": self.dim, "max_degree": self.max_degree, "terms": self._json_terms()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScalarSeries":
        doc = json_object(doc, "series")
        dim = json_field(doc, "dim", int)
        return cls.from_terms(dim, json_field(doc, "max_degree", int), json_terms(doc, dim))


# -- JSON term documents ---------------------------------------------------


def json_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    return doc


def json_field(doc: dict, key: str, kind: type):
    """doc[key], which must be a JSON value of `kind` (int, str or list)."""
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def finite_number(value, name: str) -> float:
    """`value` as a float; NaN, infinities, bools and non-numbers are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def json_terms(doc: dict, dim: int) -> dict[tuple[int, ...], complex]:
    """The `terms` list of a document, {"exp": [...], "re": x, "im": y} each:
    exponents of length `dim`, each at most once, finite real and imaginary
    parts.  The keys are checked here, once: the constructors that place the
    terms (`_coeff_vector`) take them as they are."""
    terms = _CheckedTerms()
    for term in json_field(doc, "terms", list):
        term = json_object(term, "term")
        parts = [term.get("re"), term.get("im")]
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                   and math.isfinite(p) for p in parts):
            raise ValueError(f"term parts re, im must be finite numbers, got {parts}")
        exps = _exponent_key(json_field(term, "exp", list), dim)
        if exps in terms:
            raise ValueError(f"exponent {list(exps)} appears more than once in terms")
        terms[exps] = complex(*parts)
    return terms


# -- multiplication ------------------------------------------------------

# Entries of the product table's key sums and search positions built at once.
_TABLE_BLOCK = 1 << 18
# Pair products formed at once by one batched product: bounds its
# (rows x pairs) temporaries.
_CHUNK_PAIRS = 8192
# Bytes of level-0 Horner accumulators one lockstep pass may hold: the outer
# series of a composition are split into passes of this size.
_HORNER_BYTES = 1 << 22

@lru_cache(maxsize=4)
def _product_table(dim: int, order: int) -> np.ndarray:
    """T[i, j] = graded index of x^(e_i + e_j) for the graded indices i, j of
    degree <= order; -1 where the product's degree passes `order`.  Only
    `_targets` reads it, and only for dim >= 2: in one variable the product's
    index is i + j, and no table is built.  A
    monomial's key is its exponents as digits in radix order + 1; wherever the
    product's degree is <= order no digit carries, so the key of the product
    is the sum of the keys.  The table is filled a block of rows at a time, so
    the key sums and search positions never span more than one block."""
    exps = graded_exponents(dim, order)
    keys = exps @ (order + 1) ** np.arange(dim, dtype=np.int64)
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    degrees = exps.sum(axis=1)
    size = len(keys)
    table = np.empty((size, size), dtype=by_key.dtype)
    step = max(1, _TABLE_BLOCK // size)
    for lo in range(0, size, step):
        rows = table[lo:lo + step]
        pos = np.searchsorted(sorted_keys, keys[lo:lo + step, None] + keys[None, :])
        np.take(by_key, pos.clip(max=size - 1, out=pos), out=rows)
        rows[degrees[lo:lo + step, None] > order - degrees[None, :]] = -1
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _room_starts(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(room, starts) over the graded basis of degree <= order: room[i] is
    order minus the degree of graded index i, and starts[order + k] is the
    graded index at which degree k begins, for k in -order..order + 1 (0 for
    k <= 0, the basis size for k = order + 1)."""
    room = order - graded_exponents(dim, order).sum(axis=1)
    starts = np.array([graded_size(dim, k - 1) for k in range(-order, order + 2)])
    return room, starts


_numerator = np.frompyfunc(operator.attrgetter("numerator"), 1, 1)
_denominator = np.frompyfunc(operator.attrgetter("denominator"), 1, 1)


def _over_common_denominator(rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Integer numerators and each row's lcm of denominators of a 2-d exact
    array, so that rows[r] = numerators[r] / dens[r], in one vectorised pass
    over the entries; an int keeps its value where its row's lcm is 1."""
    den_of = _denominator(rows)
    dens = np.lcm.reduce(den_of, axis=1, initial=1)
    return _numerator(rows) * (dens[:, None] // den_of), dens.tolist()


def _targets(dim: int, order: int, ia: np.ndarray, ib) -> np.ndarray:
    """Graded index of x^(e_ia + e_ib), elementwise, for graded indices of
    degree <= order whose products stay within it: ia + ib in one variable,
    else one gather from the flat view of the product table."""
    if dim == 1:
        return ia + ib
    table = _product_table(dim, order)
    return table.take(ia * len(table) + ib)


def _pairs(dim: int, order: int, ia: np.ndarray, ib: np.ndarray,
           lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major (rows, cols, targets) of the pairs (ia[rows], ib[cols]) of
    graded indices of degree <= order whose product monomial, at graded index
    target (`_targets`), has its degree in lo..hi (0 <= lo <= hi <= order);
    `ib` must be sorted ascending.  The partners of row r are then one run of
    `ib`, the entries of degree lo - deg ia[r] .. hi - deg ia[r], so only the
    pairs that are kept are ever formed.  Every product kernel plans through
    here."""
    if not 0 <= lo <= hi <= order:
        raise ValueError(f"band {lo}..{hi} must lie in 0..{order}")
    room, starts = _room_starts(dim, order)
    shift, pos = room[ia], ib.searchsorted(starts)
    first, end = pos[lo:][shift], pos[hi + 1:][shift]
    counts = end - first
    rows = np.arange(len(ia)).repeat(counts)
    # pair k overall, in row r, is column end[r] - (pairs in rows <= r) + k
    cols = np.arange(len(rows)) - (np.add.accumulate(counts) - end)[rows]
    return rows, cols, _targets(dim, order, ia[rows], ib[cols])


def _band(outer: np.ndarray, inner: np.ndarray, io: np.ndarray, jn: np.ndarray,
          hi: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(start, span, band) of the one-variable product outer * inner up to
    degree hi, io and jn being the sorted nonzero indices of the operands
    (io[0] + jn[0] <= hi): span is outer[i0..i1], the outer entries from the
    first nonzero one to the last one that still meets inner's first nonzero
    entry j0 at degree hi or below, and band is a read-only (m x w) view of
    the zero-padded inner vector whose row r is inner shifted by r, so that
    span[r] * band[r, c] is the term of outer[i0 + r] in output entry
    start + c, and the w columns run from i0 + j0 to the lowest of hi and
    the last nonzero degree.  Only inner's run from j0 is copied, once, into
    the padded vector, and the rows share it: the view's strides are
    (-itemsize, itemsize)."""
    j0, j1, i0 = int(jn[0]), int(jn[-1]), int(io[0])
    i1 = int(io[io.searchsorted(hi - j0, "right") - 1])
    m, w = i1 - i0 + 1, min(hi, i1 + j1) - i0 - j0 + 1
    pad = np.zeros(m - 1 + w, dtype=inner.dtype)
    run = min(w, j1 - j0 + 1)
    pad[m - 1:m - 1 + run] = inner[j0:j0 + run]
    step = pad.itemsize
    band = np.ndarray((m, w), pad.dtype, pad, (m - 1) * step, (-step, step))
    band.flags.writeable = False
    return i0 + j0, outer[i0:i1 + 1], band


def _mul_pair(dim: int, order: int, va: np.ndarray, vb: np.ndarray,
              hi: int | None = None, padded: bool = False) -> np.ndarray:
    """va * vb truncated at `order`, with only the output degrees 0..hi
    formed (default `order`; the entries above hi stay zero): the one-row
    case of `_mul_rows`, for complex vectors or object vectors of ints.  The
    outer loop runs over the operand with fewer nonzero entries, va on a
    tie, each product is outer * inner, and the contributions to an entry
    are added in the order of the outer operand, then of the inner.  A
    `padded` va counts each of its entries of degree hi or more as nonzero.

    In one variable the partners of each outer entry are one run of inner
    entries, and no pair plan is made: the outer span times its `_band`,
    one broadcast product, is summed over its rows into the output, which
    adds the terms of each entry in outer order, as `np.add.at` adds the pairs
    (numpy reduces axis 0 of a C-contiguous array row by row; w >= m, so a
    band of more than one row has more than one column, and no pairwise sum
    of a 1-d reduction applies).  The band also forms the products of zero
    entries; a finite one is a signed zero, which leaves a nonzero sum as it
    is, and the final + 0 turns an all-zero sum back into +0.0 as the pair
    route leaves it, should the reduction start from the first row rather
    than from +0.0.  A sum that is not finite may hold a 0 * inf, and is
    formed again through the pair plan (`_pairs`), as every product is at
    d >= 2."""
    (ia,), (ib,) = va.nonzero(), vb.nonzero()
    hi = order if hi is None else hi
    count = len(ia)
    if padded:
        cut = graded_size(dim, hi - 1)
        count = int(ia.searchsorted(cut)) + len(va) - cut
    if count > len(ib):
        ia, ib, va, vb = ib, ia, vb, va
    out = np.zeros(graded_size(dim, order), dtype=va.dtype)
    if dim == 1 and len(ia) and len(ib) and ia[0] + ib[0] <= hi:
        start, span, band = _band(va, vb, ia, ib, hi)
        total = out[start:start + band.shape[1]]
        np.add.reduce(span[:, None] * band, axis=0, out=total)
        total += 0
        if total.dtype == object or np.isfinite(total).all():
            return out
        total[...] = 0
    rows, cols, targets = _pairs(dim, order, ia, ib, 0, hi)
    va, vb = va[ia], vb[ib]
    np.add.at(out, targets, va[rows] * vb[cols])
    return out


def _mul_rows(dim: int, order: int, rows: np.ndarray, b: np.ndarray,
              hi: int | None = None, padded: int = 0) -> None:
    """rows[r] <- rows[r] * b truncated at `order`, in place, for every row r
    of a C-contiguous 2-d array of graded vectors of degree <= order (rows
    and b of one dtype, complex or object), with only the output degrees
    0..hi formed (default `order`; the entries above hi end zero).  Each row
    ends equal bit for bit to `_mul_pair` of it by b on its own with the same
    hi, padded when it is one of the first `padded` rows (by default, to
    ps_mul of it by b).  Two rules keep it so:

    - Per row, the outer loop runs over the operand with fewer nonzero
      entries (the row on a tie), each of the first `padded` rows counting
      its entries of degree hi or more as nonzero, and each product is
      outer * inner.  The rows on each side of that rule form one group
      with one `_pairs` plan over the joint support of its rows.  A chunk
      of at most _CHUNK_PAIRS pair products is gathered, a column gather
      of its rows, its rows cleared and the products accumulated into
      them; the mask of the row entries that are nonzero is gathered only
      when some row of the group is zero somewhere on the joint support.
    - An all-zero row is not multiplied (it becomes zeros), and an entry that
      is zero in its row but inside the joint support forms no product: no
      0 * inf = NaN.  A chunk of a single product is multiplied as the pair
      gather of `_mul_pair` multiplies, two 1-d arrays out of place: numpy
      rounds a complex product of one element apart when it multiplies in
      place.
    """
    hi = order if hi is None else hi
    if len(rows) == 1:
        rows[0] = _mul_pair(dim, order, rows[0], b, hi, padded > 0)
        return
    if not rows.flags.c_contiguous:
        raise ValueError("_mul_rows needs C-contiguous rows")
    nonzero = rows != 0
    nnz = np.count_nonzero(nonzero, axis=1)
    ib = np.flatnonzero(b)
    b_vals, out = b[ib], rows.reshape(-1)
    rows[nnz == 0] = 0
    width = rows.shape[1]
    counts = nnz
    if padded:
        cut = graded_size(dim, hi - 1)
        counts = nnz.copy()
        counts[:padded] = np.count_nonzero(nonzero[:padded, :cut], axis=1) + width - cut
    rows_first = counts <= len(ib)
    for rows_outer in (True, False):
        sel = np.flatnonzero((nnz > 0) & (rows_first == rows_outer))
        if not len(sel):
            continue
        joint = np.flatnonzero(nonzero[sel].any(axis=0))
        dense = bool((nnz[sel] == len(joint)).all())  # every row covers the joint support
        if rows_outer:
            at, bt, targets = _pairs(dim, order, joint, ib, 0, hi)
        else:
            bt, at, targets = _pairs(dim, order, ib, joint, 0, hi)
        at, bv = joint[at], b_vals[bt]
        step = max(1, _CHUNK_PAIRS // max(len(targets), 1))
        for lo in range(0, len(sel), step):
            part = sel[lo:lo + step]
            av, flat = rows[part].take(at, axis=1), targets + part[:, None] * width
            keep = None if dense else nonzero[part].take(at, axis=1)
            rows[part] = 0
            if keep is None or keep.all():
                pv, flat = bv, flat.reshape(-1)
            else:
                av, pv, flat = av[keep], np.broadcast_to(bv, keep.shape)[keep], flat[keep]
            if av.size == 1:  # as _mul_pair multiplies: two 1-d arrays, out of place
                av, pv = av.reshape(1), pv.reshape(1)
                av = av * pv if rows_outer else pv * av
            else:
                np.multiply(av, pv, out=av) if rows_outer else np.multiply(pv, av, out=av)
            np.add.at(out, flat, av.reshape(-1))


def _multiply(dim: int, order: int, rows: np.ndarray, b: np.ndarray,
              hi: int | None = None, padded: int = 0) -> None:
    """`_mul_rows` for rows and b of either kind, in place.  Complex rows go
    to the kernel as they are.  Exact rows keep the one exact rule: the rows
    and b are split into integer numerators over one common denominator each
    (`_over_common_denominator`), the kernel multiplies the numerators, and
    each nonzero output entry is rebuilt once, an int where the product of
    the two denominators is 1, else one Fraction: no gcd is taken for a
    product or a sum."""
    if rows.dtype != object:
        _mul_rows(dim, order, rows, b, hi, padded)
        return
    nums, dens = _over_common_denominator(rows)
    (b_num,), (b_den,) = _over_common_denominator(b[None])
    _mul_rows(dim, order, nums, b_num, hi, padded)
    dens = [den * b_den for den in dens]
    at_row, at_col = np.nonzero(nums)
    rows[...] = 0
    rows[at_row, at_col] = [num if dens[r] == 1 else Fraction(num, dens[r])
                            for r, num in zip(at_row.tolist(), nums[at_row, at_col])]


def ps_mul(a: ScalarSeries, b: ScalarSeries) -> ScalarSeries:
    """Product truncated at min(N_a, N_b): the one-row case of `_multiply`."""
    n, va, vb = a._aligned(b)
    out = va[None].copy()
    _multiply(a.dim, n, out, vb)
    return ScalarSeries(a.dim, n, out[0])


def ps_derivative(a: ScalarSeries, var: int) -> ScalarSeries:
    """d/dx_var of the polynomial held by `a`, at the same order (its top
    degree part is zero); x^e comes from x^(e + e_var) (`_targets`)."""
    lower = graded_exponents(a.dim, a.max_degree - 1)
    unit = _index(tuple(int(j == var) for j in range(a.dim)))
    src = _targets(a.dim, max(a.max_degree, 1), np.arange(len(lower)), unit)
    factor = lower[:, var] + 1
    out = np.zeros_like(a.vec)
    out[:len(src)] = a.vec[src] * (factor.astype(object) if a.exact else factor)
    return ScalarSeries(a.dim, a.max_degree, out)


def _degrees(a: ScalarSeries) -> np.ndarray:
    """Degree of each entry of `a`, by which the Euler operator
    E = sum_i x_i d/dx_i scales it; Fractions for an exact series."""
    deg = graded_exponents(a.dim, a.max_degree).sum(axis=1)
    return np.array([Fraction(int(k)) for k in deg], dtype=object) if a.exact else deg


def _degree_recurrence(c: ScalarSeries, divide: bool) -> ScalarSeries:
    """f with f_0 = 1 and f_n = sum_{k=1..n} c_k f_{n-k} over degree parts,
    divided by n when `divide`.  At degree n the nonzero entries of c of
    degree 1..n meet the nonzero entries of f below degree n, and only the
    products that land in degree n are formed, in the order of c's entries.
    In one variable degree n is the single entry n: its products are those
    of the nonzero c_k whose partner f_{n-k} is nonzero, and they are summed
    left to right by `np.add.accumulate` (a 1-d `np.add.reduce` would sum
    pairwise), with + 0 for the +0.0 that the pair route leaves; in more
    variables a pair plan (`_pairs`) places them."""
    deg = _degrees(c)
    ic = np.flatnonzero(c.vec[1:]) + 1
    f = np.zeros_like(c.vec)
    f[0] = 1
    for n in range(1, c.max_degree + 1):
        lo, hi = graded_size(c.dim, n - 1), graded_size(c.dim, n)
        if c.dim == 1:
            ks = ic[ic <= n]
            ks = ks[f[n - ks] != 0]
            if len(ks):
                f[n] = np.add.accumulate(c.vec[ks] * f[n - ks])[-1] + 0
        else:
            ia, (ib,) = ic[ic < hi], f[:lo].nonzero()
            rows, cols, targets = _pairs(c.dim, c.max_degree, ia, ib, n, n)
            np.add.at(f, targets, c.vec[ia[rows]] * f[ib[cols]])
        if divide:
            f[lo:hi] /= deg[lo]
    return ScalarSeries(c.dim, c.max_degree, f)


def ps_exp(a: ScalarSeries) -> ScalarSeries:
    """exp of a series with zero constant term: f = exp(a) solves
    E f = f E a, so n f_n = sum_{k=1..n} (k a_k) f_{n-k} and f_0 = 1."""
    if a.constant_term != 0:
        raise ValueError("ps_exp requires a zero constant term")
    euler = ScalarSeries(a.dim, a.max_degree, a.vec * _degrees(a))
    return _degree_recurrence(euler, divide=True)


def ps_log(a: ScalarSeries) -> ScalarSeries:
    """log of a series with constant term exactly 1: g = log(a) has
    E g = E a / a and g_0 = 0, so g_n = [E a * (1/a)]_n / n."""
    if a.constant_term != 1:
        raise ValueError("ps_log requires constant term 1")
    deg = _degrees(a)
    g = ps_mul(ScalarSeries(a.dim, a.max_degree, a.vec * deg), ps_recip(a)).vec.copy()
    g[1:] /= deg[1:]
    return ScalarSeries(a.dim, a.max_degree, g)


def ps_recip(a: ScalarSeries) -> ScalarSeries:
    """Reciprocal of a series with constant term exactly 1: (a f)_n = 0 for
    n > 0, so f_n = -sum_{k=1..n} a_k f_{n-k} and f_0 = 1.  This is forward
    substitution; each coefficient is one sum over final lower-degree ones,
    with the error of one inner product, which a Newton step
    r + r (1 - a r) would not reduce."""
    if a.constant_term != 1:
        raise ValueError("ps_recip requires constant term 1")
    return _degree_recurrence(-a, divide=False)


@lru_cache(maxsize=64)
def _horner_plan(f_dim: int, f_order: int, rows: int, support: bytes) -> tuple:
    """The lockstep schedule of `_horner` for `rows` series of degree <=
    f_order in f_dim variables whose nonzero entries are `support` (the
    bytes of a (rows, graded_size) bool array).

    A node of level v is the terms of one row that share their exponents of
    the variables after v; its chain runs over its exponents e of variable v
    from the largest down to 0.  Returns the (row, graded index) of every
    term, the leaves of level 0; per level, the number of nodes and, per
    step from the largest power down to 0, the number of chains that have
    started before it (the longest chains are the first rows, so these are
    a prefix) and the (rows, children) of the nodes that add a child there;
    and the row of each series' top node, the series in order.
    """
    exps = graded_exponents(f_dim, f_order)
    owner, idx = np.nonzero(np.frombuffer(support, dtype=bool).reshape(rows, -1))
    # sorted by (row, last exponent, .., first exponent): every node is a run
    perm = np.lexsort(np.column_stack([exps[idx], owner]).T)
    owner, idx = owner[perm], idx[perm]
    e = exps[idx]
    starts = [np.append(True, owner[1:] != owner[:-1])]
    for v in range(f_dim - 1, 0, -1):
        starts.insert(0, starts[0] | np.append(False, e[1:, v] != e[:-1, v]))
    levels = []
    kid_first = kid_row = np.arange(len(idx))  # level -1: the terms themselves
    for v, start in enumerate(starts):
        node, first = np.cumsum(start) - 1, np.flatnonzero(start)
        top = e[np.append(first[1:], len(idx)) - 1, v]  # a run's last term has its top power
        by_top = np.argsort(-top, kind="stable")
        row = np.argsort(by_top)
        started = np.searchsorted(-top[by_top], -np.arange(top.max() + 1)).tolist()
        power = e[kid_first, v]
        kids = np.argsort(power, kind="stable")  # the children by their power of v
        bounds = np.searchsorted(power[kids], np.arange(top.max() + 2)).tolist()
        targets, sources = row[node[kid_first[kids]]], kid_row[kids]
        levels.append((len(first), [
            (started[k], targets[bounds[k]:bounds[k + 1]], sources[bounds[k]:bounds[k + 1]])
            for k in range(top.max(), -1, -1)]))
        kid_first, kid_row = first, row
    return owner, idx, levels, kid_row


def _horner(f: np.ndarray, f_order: int, comps: list[np.ndarray], dim: int,
            n: int) -> np.ndarray:
    """Rows of `f`, series of degree <= f_order in len(comps) variables each
    with a term past its constant, with the graded vectors `comps` (dim
    variables, degree <= n, zero constant terms) substituted, truncated at n.

    Horner's scheme one variable at a time, innermost first, on the schedule
    of `_horner_plan`: at the step of a level for power k every chain that
    has started is multiplied by comps[v], all of them in one `_mul_rows`
    call (which skips the all-zero ones), and then the chains with a child
    of that power add it, the leaves of level 0 being constants added to
    column 0.  After that step a chain is multiplied by comps[v] k more
    times, and comps[v] has no constant term, so only its degrees 0..n - k
    can reach the result: the step forms only those output degrees, and a
    step with n - k < 1 clears its chains without forming a product.

    The outer operand of each product is the one the untruncated step would
    take: the operand with fewer nonzero entries, the chain on a tie.  A
    chain that the step before multiplied or cleared holds only children
    past that step's band, where the untruncated chain also holds that
    product, so it goes to `_mul_rows` padded: each of those entries counts
    as nonzero, as it is when the chain and comps[v] are dense.  Each kept entry then gets the sum, in
    the order, that the untruncated step gives it, and dense compositions
    keep the bits of untruncated steps.  Where the untruncated entries past
    the band are not all nonzero (a sparse comps[v], or f of higher order
    than n), the order, and the last bits, can differ.  Every product and
    sum of a chain is the one, in the order, that chain would make on its
    own.
    """
    leaf_rows, leaf_idx, levels, tops = _horner_plan(
        len(comps), f_order, len(f), (f != 0).tobytes())
    vals = f[leaf_rows, leaf_idx][:, None]
    for (count, steps), comp in zip(levels, comps):
        dtype = object if vals.dtype == object and comp.dtype == object else complex
        vals, comp = vals.astype(dtype, copy=False), comp.astype(dtype, copy=False)
        acc = np.zeros((count, len(comp)), dtype=dtype)
        width = vals.shape[1]
        block = max(1, _CHUNK_PAIRS // width)  # child rows added at once
        prev = 0  # the chains that the step before multiplied or cleared
        for k, (live, targets, sources) in zip(range(len(steps) - 1, -1, -1), steps):
            if live and k < n:
                _multiply(dim, n, acc[:live], comp, n - k, padded=prev)
            elif live:
                acc[:live] = 0
            prev = live
            for lo in range(0, len(targets), block):
                acc[targets[lo:lo + block], :width] += vals[sources[lo:lo + block]]
        vals = acc
    return vals[tops]


def _compose(fs: list[ScalarSeries], g: "VectorSeries") -> list[ScalarSeries]:
    """Each f of `fs` (one max_degree, g.dim_out variables) with `g`
    substituted, truncated at min(N_f, N_g).  The exact and the float series
    each go through `_horner` in passes of as many series as keep the level-0
    accumulators within _HORNER_BYTES; a series has at most one such row per
    exponent tuple of its variables after the first, graded_size(f.dim - 1,
    N_f) of them."""
    for comp in g.components:
        if comp.constant_term != 0:
            raise ValueError("composition requires zero constant terms in the inner series")
    n = min(fs[0].max_degree, g.max_degree)
    dim, comps = g.dim_in, [c.truncate(n).vec for c in g.components]
    out, groups = [], {}
    for s, f in enumerate(fs):
        if f.vec[1:].any():
            groups.setdefault(f.exact, []).append(s)
            out.append(None)
            continue
        value = f.vec[0] or 0  # no product is formed: f is its constant term
        leaf = np.zeros(graded_size(dim, n), dtype=object if _is_exact(value) else complex)
        leaf[0] = value
        out.append(ScalarSeries(dim, n, leaf))
    row_bytes = graded_size(g.dim_out - 1, fs[0].max_degree) * graded_size(dim, n) * 16
    step = max(1, _HORNER_BYTES // row_bytes)
    for rows in groups.values():
        for lo in range(0, len(rows), step):
            part = rows[lo:lo + step]
            vecs = _horner(np.stack([fs[s].vec for s in part]), fs[0].max_degree, comps, dim, n)
            for s, vec in zip(part, vecs):
                out[s] = ScalarSeries(dim, n, vec)
    return out


def ps_compose(f: ScalarSeries, g: "VectorSeries") -> ScalarSeries:
    """Substitute the vector series `g` into `f`, truncated at min(N_f, N_g).

    `f` is a series in g.dim_out variables; the result is a series in
    g.dim_in variables.  Evaluation is Horner's scheme in lockstep
    (`_horner`): all chains of one variable take each step as one batched
    product, about f.dim * N of them in all.  Substituted components must
    have zero constant term so that truncation is coherent.
    """
    if f.dim != g.dim_out:
        raise ValueError(f"dimension mismatch: f has {f.dim} vars, g maps into {g.dim_out}")
    return _compose([f], g)[0]


@dataclass(frozen=True, eq=False)
class VectorSeries:
    """Tuple of scalar series sharing the input variables, all with zero
    constant term (a formal map C^dim_in -> C^dim_out).

    `inverse`, when set, is the compositional inverse known in closed form
    (a catalog family's B): `vs_inverse` returns it and `truncate` truncates
    it along.  Equality, JSON and every operation that makes a new series
    ignore it.
    """

    dim_in: int
    dim_out: int
    max_degree: int
    components: tuple[ScalarSeries, ...]
    inverse: "VectorSeries | None" = dataclasses.field(default=None, repr=False)

    @classmethod
    def from_components(cls, components: Iterable[ScalarSeries]) -> "VectorSeries":
        comps = tuple(components)
        if not comps:
            raise ValueError("a vector series needs at least one component")
        dim_in = comps[0].dim
        n = comps[0].max_degree
        for c in comps:
            if c.dim != dim_in or c.max_degree != n:
                raise ValueError("components must share dim and max_degree")
            if c.constant_term != 0:
                raise ValueError("vector series components must have zero constant term")
        return cls(dim_in, len(comps), n, comps)

    @classmethod
    def identity(cls, dim: int, max_degree: int, exact: bool = False) -> "VectorSeries":
        return cls.from_components(
            ScalarSeries.variable(dim, max_degree, i, exact=exact) for i in range(dim))

    @classmethod
    def from_scalar_1d(cls, a: ScalarSeries) -> "VectorSeries":
        if a.dim != 1:
            raise ValueError("expected a 1-d series")
        return cls.from_components([a])

    @property
    def unit_linear(self) -> bool:
        """True when the degree-1 part is the identity map (requires square)."""
        if self.dim_in != self.dim_out or self.max_degree < 1:
            return False
        units = np.array(monomial_basis(self.dim_in, 1))
        return all(bool(np.all(comp.degree_part(1) == units[:, i]))
                   for i, comp in enumerate(self.components))

    @property
    def exact(self) -> bool:
        return all(c.exact for c in self.components)

    def truncate(self, max_degree: int) -> "VectorSeries":
        inverse = None if self.inverse is None else self.inverse.truncate(max_degree)
        comps = tuple(c.truncate(max_degree) for c in self.components)
        return VectorSeries(self.dim_in, self.dim_out, max_degree, comps, inverse)

    def evaluate(self, point) -> list[complex]:
        return [c.evaluate(point) for c in self.components]

    def __eq__(self, other) -> bool:
        return (isinstance(other, VectorSeries) and self.dim_in == other.dim_in
                and self.dim_out == other.dim_out and self.components == other.components)

    def __repr__(self) -> str:
        return (f"VectorSeries({self.dim_in}->{self.dim_out}, N={self.max_degree})")

    def to_json_dict(self) -> dict:
        return {
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
            "max_degree": self.max_degree,
            "components": [c.to_json_dict() for c in self.components],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "VectorSeries":
        doc = json_object(doc, "vector series")
        return cls.from_components(
            ScalarSeries.from_json_dict(c) for c in json_field(doc, "components", list))


def vs_compose(outer: VectorSeries, inner: VectorSeries) -> VectorSeries:
    """outer(inner(x)): all components in one lockstep Horner pass."""
    if outer.dim_in != inner.dim_out:
        raise ValueError("dimension chain mismatch in composition")
    return VectorSeries.from_components(_compose(list(outer.components), inner))


def vs_inverse(a: VectorSeries) -> VectorSeries:
    """Compositional inverse of a unit-linear vector series.

    Newton doubling on a(b) = x (Brent & Kung, J. ACM 1978).  With b correct
    through degree m, the residual r = a(b) - x starts at degree m + 1 and

        b <- b - Db r,   truncated at M = min(2m, N),

    is correct through degree M.  The Jacobian Db of the current b stands in
    for Da(b)^-1: Da(b) Db = I + Dr, so the two differ from degree m on, and
    that difference times r starts past degree 2m.  No matrix of series is
    inverted.  Each step costs one lockstep composition at its order, all d
    components of a(b) together, and d batched products, column j of Db
    times r_j; each b_i is updated in j order.  The orders are N,
    ceil(N/2), .., 1 taken from the bottom, so no step is a near-full
    composition that gains a single degree.  The inverse is again unit
    linear and b(a(x)) = a(b(x)) = x up to the shared truncation order.
    A series that carries its inverse in closed form returns that instead.
    """
    if not a.unit_linear:
        raise ValueError("vs_inverse requires a unit linear part (a_1 = identity)")
    if a.inverse is not None:
        return a.inverse
    n, dim = a.max_degree, a.dim_in
    orders = [n]
    while orders[-1] > 1:
        orders.append((orders[-1] + 1) // 2)
    b = np.stack([ScalarSeries.variable(dim, n, i, exact=a.exact).vec for i in range(dim)])
    for order in reversed(orders[:-1]):
        size = graded_size(dim, order)
        b_cur = [ScalarSeries(dim, order, v[:size].copy()) for v in b]
        comp = vs_compose(a.truncate(order), VectorSeries.from_components(b_cur))
        for j, c in enumerate(comp.components):
            r = c - ScalarSeries.variable(dim, order, j, exact=a.exact)
            rows, rv = _common(np.stack([ps_derivative(bi, j).vec for bi in b_cur]), r.vec)
            _multiply(dim, order, rows, rv)
            b[:, :size] -= rows
    return VectorSeries.from_components(ScalarSeries(dim, n, v) for v in b)
