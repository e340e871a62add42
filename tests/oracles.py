"""Independent oracles used to pin expected values.

Everything here computes its result by a route that does not touch the
library's generating-function or graded-transform machinery: explicit
integer products, three-term recurrences, finite combinatorial sums, dense
tensor algebra via numpy, and triangular solves.  The product-kernel oracles
are the first constructions of the product table and of the pair gather,
kept to pin the faster ones entry for entry, and the pair plan that read
every target from the product table, kept to pin the one-variable index
sums bit for bit; the composition oracles
are the routes that made one product per Horner step, per Jacobian entry
and per block row, kept to pin the batched ones bit for bit; the first
Horner construction, with untruncated steps, is kept to pin the truncated
one.  The plain-arithmetic oracles multiply, compose and invert term maps
with Python's own int and Fraction arithmetic, one pair of terms at a time,
to pin the exact rule in value and in type.  The dense tensor of a
coefficient vector is filled one slot tuple at
a time, to pin the library's gather, and the umbral transform is expanded
over compositions with dense tensors.  The norm-check oracles take the long
way round instead: one full graded apply per monomial, and one polynomial
evaluation per sampled point, and the first image-norm route reads one
block V[k, n] per `column_norms` call, to pin the row panels bit for bit.
The graded apply oracle takes the built
blocks and multiplies them one (k, n) pair at a time, and the
binomial-identity oracle convolves the built P_n one symmetric product at a
time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from shefferkit.engine import PolynomialOnDual, ShefferSequence, _random_point, sheffer_apply
from shefferkit.norms import (GradedNorm, _auto_radial_max, _degree_scale, _directions,
                              coeff_norm)
from shefferkit.series import (ScalarSeries, VectorSeries, _common, _multiply,
                               _over_common_denominator, _product_table, _rescaled, _room_starts,
                               graded_exponents, graded_size, monomial_basis,
                               multi_factorial, ps_derivative, ps_mul, vs_compose)
from shefferkit.symtensor import DENSE_BUDGET, SymCoeff, column_norms, sym_norm, sym_product


def gbinom(top: int, j: int) -> Fraction:
    """Generalized binomial coefficient C(top, j) for integer top."""
    if top >= 0:
        return Fraction(math.comb(top, j))
    out = Fraction(1)
    for i in range(j):
        out *= Fraction(top - i, i + 1)
    return out


def _times_linear(coeffs: list[int], root: int) -> list[int]:
    """Coefficients of p(z) (z - root) from those of p; index = power of z."""
    return [(coeffs[i - 1] if i else 0) - root * (coeffs[i] if i < len(coeffs) else 0)
            for i in range(len(coeffs) + 1)]


def falling_coeffs(n: int) -> list[int]:
    """z(z-1)...(z-n+1) by direct product; index = power of z."""
    coeffs = [1]
    for j in range(n):
        coeffs = _times_linear(coeffs, j)
    return coeffs


def rising_coeffs(n: int) -> list[int]:
    """z(z+1)...(z+n-1) by direct product."""
    coeffs = [1]
    for j in range(n):
        coeffs = _times_linear(coeffs, -j)
    return coeffs


def hermite_coeffs(n: int) -> list[int]:
    """Monic three-term recurrence p_{n+1} = z p_n - n p_{n-1}."""
    prev, cur = [1], [0, 1]
    if n == 0:
        return prev
    for m in range(1, n):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= m * c
        prev, cur = cur, nxt
    return cur


def charlier_coeffs(n: int) -> list[int]:
    """Expansion of (1+u)^z e^{-u}: c_n(z) = sum_k C(n,k) (z)_k (-1)^{n-k},
    with (z)_k = z(z-1)...(z-k+1) multiplied out one factor per k."""
    out = [0] * (n + 1)
    falling = [1]
    for k in range(n + 1):
        sign = (-1) ** (n - k) * math.comb(n, k)
        for i, v in enumerate(falling):
            out[i] += sign * v
        falling = _times_linear(falling, k)
    return out


def laguerre_coeffs(n: int, k: int) -> list[Fraction]:
    """Expansion of exp[zu/(1+u)] (1+u)^{-(k+1)}:
    s_n(z) = sum_m (n!/m!) (-1)^{n-m} C(n+k, n-m) z^m."""
    return [Fraction(math.factorial(n), math.factorial(m))
            * Fraction((-1) ** (n - m)) * gbinom(n + k, n - m)
            for m in range(n + 1)]


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k blocks, by the standard recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


# -- dense tensor algebra -------------------------------------------------------


def dense_symmetrize(t: np.ndarray) -> np.ndarray:
    n = t.ndim
    if n <= 1:
        return t
    perms = list(itertools.permutations(range(n)))
    acc = np.zeros_like(t)
    for perm in perms:
        acc += np.transpose(t, perm)
    return acc / len(perms)


def dense_sym_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return dense_symmetrize(np.multiply.outer(a, b))


def dense_contract(t: np.ndarray, f: np.ndarray, k: int) -> np.ndarray:
    """Contract the k slots of t against the first k slots of f."""
    if k == 0:
        return complex(t[()]) * f
    return np.tensordot(t, f, axes=k)


def dense_pairing(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.sum(np.asarray(a) * np.asarray(b)))


def dense_by_slots(phi: SymCoeff) -> np.ndarray:
    """Full d^n dense tensor, one coefficient lookup per slot tuple: the entry
    at slots (i_1..i_n) is c_beta * beta!/n! where beta counts slot occurrences."""
    d, n = phi.dim, phi.degree
    if d ** n > DENSE_BUDGET:
        raise ValueError(f"dense budget exceeded: {d}^{n} > {DENSE_BUDGET}")
    exact = not phi.is_zero and phi.exact
    out = np.zeros((d,) * n, dtype=object if exact else complex)
    if exact:
        out[...] = Fraction(0)
    nfact = math.factorial(n)
    for pos in itertools.product(range(d), repeat=n):
        beta = tuple(pos.count(i) for i in range(d))
        c = phi.coefficient(beta)
        if c == 0:
            continue
        out[pos] = _rescaled(c, multi_factorial(beta), nfact)
    return out


def from_dense(tensor: np.ndarray, dim: int | None = None) -> SymCoeff:
    """Read a symmetric dense tensor back into monomial coefficients."""
    t = np.asarray(tensor)
    n = t.ndim
    d = dim if n == 0 else t.shape[0]
    if d is None:
        raise ValueError("dim is required for a degree-0 tensor")
    coeffs = {}
    nfact = math.factorial(n)
    for beta in monomial_basis(d, n) if n > 0 else [(0,) * d]:
        # representative slot tuple: variable i repeated beta_i times
        pos = tuple(i for i, e in enumerate(beta) for _ in range(e))
        value = t[pos] if n > 0 else t[()]
        if value == 0:
            continue
        coeffs[beta] = _rescaled(value, nfact, multi_factorial(beta))
    return SymCoeff.from_coeffs(d, n, coeffs)


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def umbral_apply_direct(a: VectorSeries, p: PolynomialOnDual) -> PolynomialOnDual:
    """Umbral transform computed from the multinomial expansion directly.

    psi_m = (1/m!) sum over compositions (k_1..k_m) of n of
            n! (A_{k_1} (x) ... (x) A_{k_m}) phi_n,

    realized with dense tensors and slot contractions.  This is a
    cross-check path for the generating-function extraction and is budgeted
    to small sizes.
    """
    if not a.unit_linear:
        raise ValueError("the degree-1 part of A must be the identity map")
    d = a.dim_in
    deg = p.trimmed().degree
    if d > 2 or deg > 6:
        raise ValueError("combinatorial path budget exceeded (d<=2, N<=6)")
    kernels: dict[int, list[np.ndarray]] = {}
    for k in range(1, deg + 1):
        kernels[k] = [
            dense_by_slots(SymCoeff(d, k, comp.degree_part(k)))
            for comp in a.components
        ]
    psi_dense: dict[int, np.ndarray] = {m: np.zeros((d,) * m, dtype=complex)
                                        for m in range(1, deg + 1)}
    for n in range(1, deg + 1):
        phi = p.coefficient(n)
        if phi.is_zero:
            continue
        phi_dense = dense_by_slots(phi).astype(complex)
        nfact = math.factorial(n)
        for m in range(1, n + 1):
            scale = nfact / math.factorial(m)
            for parts in _compositions(n, m):
                # contract slot groups one by one; produced indices trail, so
                # the not-yet-consumed slots stay at axes 0..rem-1
                cur = phi_dense
                rem = n
                for k in parts:
                    stacked = np.stack(kernels[k])
                    cur = np.tensordot(cur, stacked,
                                       axes=(tuple(range(rem - k, rem)),
                                             tuple(range(1, k + 1))))
                    rem -= k
                psi_dense[m] += scale * cur
    coeffs = [p.coefficient(0)]
    for m in range(1, deg + 1):
        coeffs.append(from_dense(dense_symmetrize(psi_dense[m]), dim=d))
    return PolynomialOnDual.from_coeffs(d, coeffs).trimmed()


# -- series oracles --------------------------------------------------------------


def recip_triangular_1d(coeffs: list[complex], order: int) -> list[complex]:
    """Solve a * r = 1 degree by degree (a_0 = 1)."""
    r = [1.0 + 0.0j] + [0.0j] * order
    for n in range(1, order + 1):
        s = 0.0 + 0.0j
        for j in range(1, n + 1):
            aj = coeffs[j] if j < len(coeffs) else 0.0
            s += aj * r[n - j]
        r[n] = -s
    return r


def taylor_exp(a: ScalarSeries) -> ScalarSeries:
    """exp(a) for a zero constant term as the Taylor sum sum_{m<=N} a^m / m!,
    one full product per power."""
    n = a.max_degree
    acc = term = ScalarSeries.one(a.dim, n, exact=a.exact)
    for m in range(1, n + 1):
        term = ps_mul(term, a).scale(Fraction(1, m))
        acc = acc + term
    return acc


def mercator_log(a: ScalarSeries) -> ScalarSeries:
    """log(a) for a unit constant term as the Mercator sum
    sum_{m<=N} (-1)^(m+1) (a - 1)^m / m."""
    n = a.max_degree
    x = a - ScalarSeries.one(a.dim, n, exact=a.exact)
    acc, term = ScalarSeries.zero(a.dim, n), ScalarSeries.one(a.dim, n, exact=a.exact)
    for m in range(1, n + 1):
        term = ps_mul(term, x)
        acc = acc + term.scale(Fraction(1 if m % 2 else -1, m))
    return acc


def geometric_recip(a: ScalarSeries) -> ScalarSeries:
    """1/a for a unit constant term as the geometric sum sum_{m<=N} (1 - a)^m."""
    n = a.max_degree
    one = ScalarSeries.one(a.dim, n, exact=a.exact)
    acc = term = one
    for _ in range(1, n + 1):
        term = ps_mul(term, one - a)
        acc = acc + term
    return acc


def plain_product(a: dict, b: dict, top: int) -> dict:
    """Product of two exponent-tuple -> coefficient maps through degree top,
    by Python's own int and Fraction arithmetic over every pair of terms;
    zero sums are left out."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            if sum(key) <= top:
                out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c != 0}


def dict_product(a: ScalarSeries, b: ScalarSeries) -> dict[tuple[int, ...], object]:
    """Product truncated at min(N_a, N_b) as an exponent-tuple map, by the
    explicit double loop over both operands' terms (`plain_product`)."""
    return plain_product(a.terms, b.terms, min(a.max_degree, b.max_degree))


def plain_compose(f: dict, gs: list[dict], dim: int, top: int) -> dict:
    """f with the maps `gs` (dim variables) substituted, through degree top:
    every term of f is a product of powers of the gs (`plain_product`)."""
    out: dict = {}
    for exps, c in f.items():
        term = {(0,) * dim: c}
        for g, e in zip(gs, exps):
            for _ in range(e):
                term = plain_product(term, g, top)
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return {key: c for key, c in out.items() if c != 0}


def plain_inverse(a: list[dict], dim: int, top: int) -> list[dict]:
    """Compositional inverse b of a unit-linear map `a`, degree by degree:
    with b fixed below degree n, the degree-n part of a(b) is that of the
    terms of a past the linear ones, and b's degree-n part is its negative."""
    b = [{tuple(int(j == i) for j in range(dim)): 1} for i in range(dim)]
    for n in range(2, top + 1):
        parts = [plain_compose(ai, b, dim, n) for ai in a]
        for bi, part in zip(b, parts):
            for key, c in part.items():
                if sum(key) == n:
                    bi[key] = bi.get(key, 0) - c
    return [{key: c for key, c in bi.items() if c != 0} for bi in b]


def naive_compose(f: ScalarSeries, g: VectorSeries) -> ScalarSeries:
    """Substitute by explicit powering (no Horner), for cross-checks."""
    n = min(f.max_degree, g.max_degree)
    dim = g.dim_in
    out = ScalarSeries.zero(dim, n)
    for exps, c in f.terms.items():
        term = ScalarSeries.constant(dim, n, c)
        for j, e in enumerate(exps):
            for _ in range(e):
                term = term * g.components[j].truncate(n)
        out = out + term
    return out


def inverse_by_degree(a: VectorSeries) -> VectorSeries:
    """Compositional inverse of a unit-linear `a`, solving b(a(x)) = x
    degree by degree: with the degrees < n of b fixed, the degree-n part of
    b(a(x)) - x depends on the unknown part only through the identity linear
    part of a, so the correction is read off directly."""
    n = a.max_degree
    dim = a.dim_in
    b = [ScalarSeries.variable(dim, n, i, exact=a.exact).vec.copy() for i in range(dim)]
    for deg in range(2, n + 1):
        lo, hi = graded_size(dim, deg - 1), graded_size(dim, deg)
        b_cur = VectorSeries.from_components(ScalarSeries(dim, deg, v[:hi].copy()) for v in b)
        comp = vs_compose(b_cur, a.truncate(deg))
        for v, c in zip(b, comp.components):
            v[lo:hi] -= c.vec[lo:hi]
    return VectorSeries.from_components(ScalarSeries(dim, n, v) for v in b)


def fine_grid_sup_1d(poly_coeffs: list[complex], alpha: float, level: int,
                     r_max: float, points: int = 40001, phases: int = 64) -> float:
    """Dense-grid evaluation of sup |p(z)| exp(-2^-l |z|^alpha) over C."""
    radii = np.linspace(0.0, r_max, points)
    best = 0.0
    for t in np.linspace(0.0, 2 * np.pi, phases, endpoint=False):
        z = radii * np.exp(1j * t)
        vals = np.zeros_like(z)
        for c in reversed(poly_coeffs):
            vals = vals * z + c
        best = max(best, float(np.max(np.abs(vals) * np.exp(-(2.0 ** -level) * radii ** alpha))))
    return best


# -- product kernel oracles ------------------------------------------------------


def exponent_sum_table(dim: int, order: int) -> np.ndarray:
    """The product table by its first construction: the (G, G, dim) array of
    exponent sums, each sum's radix key looked up among the basis keys; -1
    where the product's degree passes `order`."""
    exps = graded_exponents(dim, order)
    radix = (order + 1) ** np.arange(dim, dtype=np.int64)
    keys = exps @ radix
    by_key = np.argsort(keys)
    pos = np.searchsorted(keys[by_key], (exps[:, None, :] + exps[None, :, :]) @ radix)
    degrees = exps.sum(axis=1)
    return np.where(degrees[:, None] + degrees[None, :] <= order,
                    by_key[pos.clip(max=len(keys) - 1)], -1)


def masked_pairs(dim: int, order: int, ia: np.ndarray, ib: np.ndarray,
                 lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair gather by its first construction, with the signature of
    `series._pairs`: the full len(ia) x len(ib) slice of the product table,
    masked to the products of degree lo..hi, in row-major order."""
    targets = _product_table(dim, order)[np.ix_(ia, ib)]
    rows, cols = np.nonzero((targets >= graded_size(dim, lo - 1))
                            & (targets < graded_size(dim, hi)))
    return rows, cols, targets[rows, cols]


def table_pairs(dim: int, order: int, ia: np.ndarray, ib: np.ndarray,
                lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair plan of `series._pairs` with every target read from the
    product table by a 2-d gather, in one variable as in more: the route of
    every product before one variable summed its graded indices."""
    room, starts = _room_starts(dim, order)
    shift, pos = room[ia], ib.searchsorted(starts)
    first, end = pos[lo:][shift], pos[hi + 1:][shift]
    counts = end - first
    rows = np.arange(len(ia)).repeat(counts)
    cols = np.arange(len(rows)) - (np.add.accumulate(counts) - end)[rows]
    return rows, cols, _product_table(dim, order)[ia[rows], ib[cols]]


# -- composition oracles -----------------------------------------------------------


def _horner_rec(f: ScalarSeries, g: VectorSeries, step) -> ScalarSeries:
    """The recursive Horner construction: f's nonzero graded indices grouped
    by the exponent of the last variable, the groups folded from the largest
    exponent `top` down with one product step(acc, comp, e, top) per
    exponent e below it, recursing on the remaining variables."""
    n = min(f.max_degree, g.max_degree)
    dim = g.dim_in
    comps = [c.truncate(min(n, c.max_degree)) for c in g.components]
    zero = ScalarSeries.zero(dim, n)
    exps = graded_exponents(f.dim, f.max_degree)

    def rec(idx: np.ndarray, var: int) -> ScalarSeries:
        if var < 0:
            value = f.vec[idx[0]]
            exact = isinstance(value, (int, Fraction))
            leaf = np.zeros(graded_size(dim, n), dtype=object if exact else complex)
            leaf[0] = value
            return ScalarSeries(dim, n, leaf)
        power = exps[idx, var]
        top = power.max(initial=0)
        acc = zero
        for e in range(top, -1, -1):
            if not acc.is_zero:
                acc = step(acc, comps[var], e, top)
            group = idx[power == e]
            if len(group):
                acc = acc + rec(group, var - 1)
        return acc

    return rec(np.flatnonzero(f.vec), f.dim - 1)


def horner_compose(f: ScalarSeries, g: VectorSeries) -> ScalarSeries:
    """ps_compose by its recursive construction, one truncated product per
    Horner step.  After the step for exponent e the accumulator is
    multiplied by the component e more times, so that step forms only the
    output degrees 0..n - e (none when n - e < 1).  The outer operand is the
    one with fewer nonzero entries, the accumulator on a tie; an accumulator
    that the step before multiplied or cleared counts every entry past that
    step's band as nonzero."""
    def step(acc, comp, e, top):
        dim, n = acc.dim, acc.max_degree
        if n - e < 1:
            return ScalarSeries.zero(dim, n)
        va, vb = _common(acc.vec, comp.vec)
        padded = e + 1 < top  # the step for e + 1 formed degrees 0..n - e - 1 at most
        out = va[None].copy()
        _multiply(dim, n, out, vb, n - e, padded)
        return ScalarSeries(dim, n, out[0])

    return _horner_rec(f, g, step)


def horner_compose_full(f: ScalarSeries, g: VectorSeries) -> ScalarSeries:
    """ps_compose by its first recursive construction: one untruncated ps_mul
    per Horner step."""
    return _horner_rec(f, g, lambda acc, comp, e, top: ps_mul(acc, comp))


def inverse_by_components(a: VectorSeries, compose=horner_compose) -> VectorSeries:
    """vs_inverse by its first construction: each Newton step composes the
    components of a one at a time (`compose`, a Horner oracle) and makes one
    ps_mul per Jacobian entry (i, j), b_i updated in j order."""
    n, dim = a.max_degree, a.dim_in
    orders = [n]
    while orders[-1] > 1:
        orders.append((orders[-1] + 1) // 2)
    b = [ScalarSeries.variable(dim, n, i, exact=a.exact).vec.copy() for i in range(dim)]
    for order in reversed(orders[:-1]):
        size = graded_size(dim, order)
        b_cur = [ScalarSeries(dim, order, v[:size].copy()) for v in b]
        inner = VectorSeries.from_components(b_cur)
        residual = [compose(c, inner) - ScalarSeries.variable(dim, order, j, exact=a.exact)
                    for j, c in enumerate(a.truncate(order).components)]
        for v, bi in zip(b, b_cur):
            for j, r in enumerate(residual):
                v[:size] -= ps_mul(ps_derivative(bi, j), r).vec
    return VectorSeries.from_components(ScalarSeries(dim, n, v) for v in b)


def power_rows_by_monomial(vec: VectorSeries, factor: ScalarSeries, order: int, exact: bool):
    """engine._power_rows by its first construction: one ps_mul per monomial
    beta, factor * vec^beta = (factor * vec^(beta - e_i)) * vec_i with i the
    first nonzero index of beta."""
    d = vec.dim_in
    level = {(0,) * d: factor}
    yield np.stack([factor.vec])
    for k in range(1, order + 1):
        prev, level = level, {}
        for beta in monomial_basis(d, k):
            i = next(j for j, e in enumerate(beta) if e)
            lower = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            level[beta] = ps_mul(prev[lower], vec.components[i])
        yield np.stack([s.vec for s in level.values()])


def power_rows_in_engine_form(vec: VectorSeries, factor: ScalarSeries, order: int, exact: bool):
    """The rows of `power_rows_by_monomial` in the form engine._power_rows
    yields them: float rows unchanged, exact rows as (numerators,
    denominators), each row over the lcm of the denominators of its entries."""
    for raw in power_rows_by_monomial(vec, factor, order, exact):
        if exact:
            nums, dens = _over_common_denominator(raw)
            yield nums, np.array(dens, dtype=object)
        else:
            yield raw


# -- graded apply oracle ----------------------------------------------------------


def apply_by_blocks(blocks: dict, p: PolynomialOnDual, exact: bool) -> PolynomialOnDual:
    """psi_k = sum_{n>=k} V[k, n] phi_n with one block product per (k, n),
    each output degree's terms added in increasing n."""
    dtype = object if exact else complex
    deg = p.trimmed().degree
    out = []
    for k in range(deg + 1):
        acc = np.zeros(len(monomial_basis(p.dim, k)), dtype=dtype)
        for n in range(k, deg + 1):
            phi = p.coefficient(n)
            if not phi.is_zero:
                acc = acc + blocks[(k, n)] @ np.asarray(phi.vec, dtype=dtype)
        out.append(SymCoeff(p.dim, k, acc))
    return PolynomialOnDual.from_coeffs(p.dim, out).trimmed()


# -- norm-check oracles -----------------------------------------------------------


def image_norms_by_block(seq: ShefferSequence, n: int, g: GradedNorm, low: int = 0
                         ) -> np.ndarray:
    """The first `norms._image_norms`: for the monomials w^gamma of degree
    n, the coeff_norm of the degree-low..n parts of S w^gamma, one
    `column_norms` call per block V[k, n], summed by increasing k."""
    return sum(_degree_scale(k, g) * column_norms(seq.blocks[(k, n)], seq.dim, k, g.weight)
               for k in range(low, n + 1))


def monomial_ratio(seq: ShefferSequence, gamma: tuple[int, ...], g_out: GradedNorm,
                   g_in: GradedNorm) -> tuple[float, float]:
    """coeff_norm(S w^gamma, g_out) and coeff_norm(w^gamma, g_in), with S
    applied to the monomial by a full graded apply."""
    p = PolynomialOnDual.monomial(seq.dim, gamma)
    return coeff_norm(sheffer_apply(seq, p), g_out), coeff_norm(p, g_in)


def pointwise_sup(p: PolynomialOnDual, g: GradedNorm, directions: int, points: int,
                  rng: np.random.Generator) -> float:
    """max of |p(r u)| exp(-2^-l r^alpha) with one p.evaluate per point, over
    the directions and radial grid that sup_norm_estimate draws for the same
    arguments (an int radial grid)."""
    radii = np.linspace(0.0, _auto_radial_max(p.trimmed().degree, g), points)
    best = 0.0
    for u in _directions(p.dim, directions, g.weight, rng):
        for r in radii:
            damp = math.exp(-(2.0 ** (-g.level)) * r ** g.alpha)
            best = max(best, abs(p.evaluate(r * u)) * damp)
    return best


# -- binomial-identity oracle -----------------------------------------------------


def binomial_convolution(seq: ShefferSequence, trials: int, rng: np.random.Generator,
                         top: int) -> dict[int, float]:
    """binomial_check's per-degree deviations by the direct convolution
    P_n(w + z) = sum_k C(n, k) P_k(w) (.) P_{n-k}(z), one symmetric product
    per pair (k, n - k), with the points drawn as binomial_check draws them."""
    per_degree = {n: 0.0 for n in range(1, top + 1)}
    for _ in range(trials):
        w = _random_point(seq.dim, rng)
        z = _random_point(seq.dim, rng)
        at_w = [seq.polynomial_tensor(k, w) for k in range(top + 1)]
        at_z = [seq.polynomial_tensor(k, z) for k in range(top + 1)]
        for n in range(1, top + 1):
            lhs = seq.polynomial_tensor(n, [a + b for a, b in zip(w, z)])
            rhs = SymCoeff.zero(seq.dim, n)
            for k in range(n + 1):
                rhs = rhs + sym_product(at_w[k], at_z[n - k]).scale(float(math.comb(n, k)))
            scale = max(1.0, sym_norm(lhs), sym_norm(rhs))
            per_degree[n] = max(per_degree[n], sym_norm(lhs - rhs) / scale)
    return per_degree


# -- random generators ------------------------------------------------------------


def random_unit_linear(dim: int, order: int, rng: np.random.Generator,
                       decay: float = 4.0) -> VectorSeries:
    """Unit-linear vector series with coefficients in the unit box, scaled
    down per degree so compositions stay well conditioned."""
    comps = []
    for i in range(dim):
        terms = {}
        for deg in range(2, order + 1):
            scale = decay ** (1 - deg)
            for b in monomial_basis(dim, deg):
                terms[b] = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        e = [0] * dim
        e[i] = 1
        terms[tuple(e)] = 1.0 + 0.0j
        comps.append(ScalarSeries.from_terms(dim, order, terms))
    return VectorSeries.from_components(comps)


def dense_pair(dim: int, order: int, rng: np.random.Generator
               ) -> tuple[VectorSeries, ScalarSeries]:
    """Dense unit-linear A and dense rho with rho(0) = 1, drawn as the
    benchmark's dense workloads draw them: degree-k coefficients uniform on
    the complex square [-1, 1]^2, scaled by 2^-(k-1) in A and 2^-k in rho,
    drawn component by component, degree by degree, in basis order."""
    def draw(scale: float) -> complex:
        re, im = rng.uniform(-1.0, 1.0, size=2)
        return scale * complex(re, im)

    comps = []
    for i in range(dim):
        terms = {tuple(int(j == i) for j in range(dim)): 1.0 + 0.0j}
        for k in range(2, order + 1):
            terms.update((b, draw(2.0 ** -(k - 1))) for b in monomial_basis(dim, k))
        comps.append(ScalarSeries.from_terms(dim, order, terms))
    terms = {(0,) * dim: 1.0 + 0.0j}
    for k in range(1, order + 1):
        terms.update((b, draw(2.0 ** -k)) for b in monomial_basis(dim, k))
    return VectorSeries.from_components(comps), ScalarSeries.from_terms(dim, order, terms)


def random_series(dim: int, order: int, rng: np.random.Generator,
                  scale: float = 0.5, constant=None) -> ScalarSeries:
    terms = {}
    for deg in range(order + 1):
        for b in monomial_basis(dim, deg):
            terms[b] = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    s = ScalarSeries.from_terms(dim, order, terms)
    if constant is not None:
        s = s - ScalarSeries.constant(dim, order, s.constant_term) \
            + ScalarSeries.constant(dim, order, constant)
    return s


def worst_block_error(approx, exact) -> float:
    """Worst relative Frobenius error of the blocks of `approx` against those
    of `exact` (mappings (k, n) -> block); a block that is exactly zero is
    compared absolutely, the identity top blocks setting the scale."""
    errors = []
    for key, want in exact.items():
        want = np.asarray(want, dtype=complex)
        diff = np.linalg.norm(np.asarray(approx[key], dtype=complex) - want)
        errors.append(diff / (np.linalg.norm(want) or 1.0))
    return float(np.max(errors))  # NaN if any block is not finite
