"""Graded norms on truncated entire functions and the quantitative checks.

The coefficient norm of p(w) = sum_n <w^{(x)n}, phi_n> at order alpha and
dyadic level l is

    ||p||_{l,alpha} = sum_n (n!)^{1/alpha} 2^{l n} ||phi_n||,

and the companion sup-type norm is

    n_{l,alpha}(p) = sup_w |p(w)| exp(-2^{-l} ||w||^alpha),

with ||w|| taken on the dual side of the weight.  Every check below reports
a BoundReport (measured ratio vs. theoretical constant) or a sweep table;
all sampling is driven by an explicit seedable generator so reports are
byte-reproducible.

The checks read the built structure: the image of the monomial w^gamma of
degree n is column gamma of the blocks V[k, n], and along a ray
p(r u) = sum_n r^n q_n(u) with q_n the degree parts of p.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .engine import PolynomialOnDual, ShefferSequence
from .series import (
    VectorSeries,
    graded_exponents,
    graded_size,
    monomial_values,
    vs_inverse,
)
from .symtensor import (
    SymCoeff,
    WeightedInnerProduct,
    _weighted,
    column_norms,
    norm_weights,
    slot_matrix,
    sym_dual_norm,
    sym_norm,
)

__all__ = [
    "GradedNorm",
    "BoundReport",
    "SweepReport",
    "ProbeReport",
    "PreconditionError",
    "coeff_norm",
    "sup_norm_estimate",
    "embedding_check",
    "operator_bound_check",
    "appell_condition_check",
    "divergence_sweep",
    "quasi_holo_probe",
    "graded_block_norms",
]

PASS_SLACK = 1e-9


class PreconditionError(RuntimeError):
    """A check was asked to run outside its validity region."""


@dataclass(frozen=True)
class GradedNorm:
    """Order alpha > 0, dyadic level l >= 0, optional coordinate weight."""

    alpha: float
    level: int = 0
    weight: WeightedInnerProduct | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.level < 0:
            raise ValueError("level must be nonnegative")


class _Report:
    """A report's JSON document is its dataclass fields, with numpy scalars
    made plain, plus `passed` where it has a verdict; its CSV table is
    `rows` under `CSV_FIELDS`."""

    def to_json_dict(self) -> dict:
        doc = _plain(asdict(self))
        if hasattr(self, "passed"):
            doc["passed"] = self.passed
        return doc


@dataclass
class BoundReport(_Report):
    """Measured-versus-theoretical outcome of one inequality check."""

    name: str
    measured: float
    bound: float
    params: dict
    per_degree: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound * (1.0 + PASS_SLACK)

    @property
    def CSV_FIELDS(self) -> list[str]:
        return ["name", "passed", "measured", "bound"] + sorted(self.params)

    @property
    def rows(self) -> list[dict]:
        return [{"name": self.name, "passed": self.passed, "measured": self.measured,
                 "bound": self.bound, **_plain(self.params)}]


@dataclass
class SweepReport(_Report):
    """Per-degree ratio table with a growth verdict."""

    name: str
    alpha: float
    rows: list[dict]
    verdict: str
    raw_growth: float
    max_step_factor: float
    reference_degree: int
    params: dict = field(default_factory=dict)

    CSV_FIELDS = ["degree", "ratio", "norm_num", "norm_den"]


@dataclass
class ProbeReport(_Report):
    """Geometric envelopes of the graded blocks of a map and its inverse."""

    name: str
    rows: list[dict]
    forward_envelope: float
    inverse_envelope: float
    envelope_ratio: float
    comparable: bool
    notes: list[str] = field(default_factory=list)

    CSV_FIELDS = ["degree", "forward_norm", "inverse_norm"]


def _plain(v):
    """v with its numpy scalars made Python numbers, in lists and dicts too."""
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_plain(x) for x in v]
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


# -- norms -------------------------------------------------------------------


def _degree_scale(n: int, g: GradedNorm) -> float:
    """(n!)^{1/alpha} 2^{l n}, the weight of degree n in ||.||_{l,alpha}."""
    try:
        scale = (math.factorial(n) ** (1.0 / g.alpha)) * (2.0 ** (g.level * n))
    except OverflowError:
        scale = math.inf
    if math.isinf(scale):
        raise ValueError(f"norm weight (n!)^(1/alpha) 2^(l n) leaves the double range "
                         f"at level {g.level}, degree {n}")
    return scale


def coeff_norm(p: PolynomialOnDual, g: GradedNorm) -> float:
    """sum_n (n!)^{1/alpha} 2^{l n} ||phi_n|| over the stored degrees."""
    total = 0.0
    for n, phi in enumerate(p.coeffs):
        if phi.is_zero:
            continue
        total += _degree_scale(n, g) * sym_norm(phi, g.weight)
    return total


def _image_norms(seq: ShefferSequence, top: int, g_out: GradedNorm, g_in: GradedNorm
                 ) -> tuple[np.ndarray, np.ndarray]:
    """For every monomial w^gamma of degree n <= top, in graded order: the
    coeff_norm at g_out of S w^gamma, degree parts 0..n, and at g_in (of the
    same weight) of w^gamma itself, the top block being the identity.  The degree-k part of
    S w^gamma is column gamma of the block V[k, n], so one `column_norms`
    call per k reads the row panel V[k, k..top], and each column adds its
    parts by increasing k."""
    off = [graded_size(seq.dim, k - 1) for k in range(top + 2)]
    image, own = np.zeros(off[-1]), np.empty(off[-1])
    for k in range(top + 1):
        s_out, s_in = _degree_scale(k, g_out), _degree_scale(k, g_in)
        norms = column_norms(seq.matrix[off[k]:off[k + 1], off[k]:off[-1]], seq.dim, k,
                             g_out.weight)
        image[off[k]:] += s_out * norms
        own[off[k]:off[k + 1]] = s_in * norms[:off[k + 1] - off[k]]
    return image, own


def _auto_radial_max(degree: int, g: GradedNorm) -> float:
    """Smallest R past the peak with deg*log r <= 2^{-l} r^alpha - 10."""
    l2 = 2.0 ** (-g.level)

    def gap(r: float) -> float:
        return l2 * r ** g.alpha - max(degree, 0) * math.log(max(r, 1e-12)) - 10.0

    lo = max(1.0, (max(degree, 1) * 2.0 ** g.level / g.alpha) ** (1.0 / g.alpha))
    hi = lo
    while gap(hi) < 0:
        hi *= 2.0
        if hi > 1e30:
            break
    return hi


def _directions(dim: int, count: int, weight: WeightedInnerProduct | None,
                rng: np.random.Generator) -> np.ndarray:
    """Directions of dual-weighted norm 1; the first is a fixed axis."""
    slot = (weight or WeightedInnerProduct.identity(dim)).dual_slot_map()
    raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    raw = np.concatenate([np.eye(1, dim, dtype=complex), raw])
    out = np.empty_like(raw)
    for i, v in enumerate(raw):
        nrm = float(np.linalg.norm(slot @ v))
        out[i] = v / nrm if nrm > 0 else v
    return out


def sup_norm_estimate(p: PolynomialOnDual, g: GradedNorm, directions: int = 64,
                      radial_grid=None, rng: np.random.Generator | None = None) -> float:
    """Lower estimate of sup |p(w)| exp(-2^{-l} ||w||^alpha).

    Maximizes over sampled directions (uniform on the dual-weighted unit
    sphere, plus one fixed axis) times a radial grid reaching past the
    growth peak.  A sampled maximum never exceeds the true supremum, so the
    returned value is a lower bound by construction.  Along the ray through
    u, p(r u) = sum_n r^n q_n(u) with q_n the degree-n part of p.
    """
    if p.is_zero:
        return 0.0
    rng = rng if rng is not None else np.random.default_rng(0)
    trimmed = p.trimmed()
    deg = trimmed.degree
    if radial_grid is None:
        radii = np.linspace(0.0, _auto_radial_max(deg, g), 256)
    elif isinstance(radial_grid, int):
        radii = np.linspace(0.0, _auto_radial_max(deg, g), radial_grid)
    else:
        radii = np.asarray(radial_grid, dtype=float)
        if radii.size == 0:
            raise ValueError("empty radial grid")
    dirs = _directions(p.dim, directions, g.weight, rng)
    rate = 2.0 ** (-g.level) * radii ** g.alpha
    coeffs = np.concatenate([np.asarray(c.vec, dtype=complex) for c in trimmed.coeffs])
    terms = monomial_values(graded_exponents(p.dim, deg), dirs) * coeffs
    parts = np.add.reduceat(terms, [graded_size(p.dim, n - 1) for n in range(deg + 1)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(np.power.outer(radii, np.arange(deg + 1)) @ parts.T) * np.exp(-rate)[:, None]
        # where r^n overflows, fold the damping into the powers instead
        bad = ~np.isfinite(vals).all(axis=1)
        logs = np.multiply.outer(np.log(radii[bad]), np.arange(deg + 1)) - rate[bad, None]
        vals[bad] = np.abs(np.exp(logs) @ parts.T)
        best = float(np.max(vals))
    if not math.isfinite(best):
        raise ValueError(f"sup norm estimate at level {g.level} leaves the double range")
    return best


# -- embeddings ---------------------------------------------------------------


def _forward_level(alpha: float, level: int) -> int:
    r = 0
    while 2.0 ** level > alpha * 2.0 ** (r * alpha):
        r += 1
        if r > 512:
            raise RuntimeError("no admissible forward level found")
    return r


def _reverse_level(alpha: float, level: int, dim: int) -> tuple[int, float]:
    r = 0
    while True:
        q = (2.0 ** level) * math.sqrt(dim) * (alpha * math.e / 2.0 ** r) ** (1.0 / alpha)
        if q <= 0.5:
            return r, 1.0 / (1.0 - q)
        r += 1
        if r > 512:
            raise RuntimeError("no admissible reverse level found")


def embedding_check(p: PolynomialOnDual, alpha: float, level: int,
                    weight: WeightedInnerProduct | None = None,
                    directions: int = 64, radial_grid=None,
                    rng: np.random.Generator | None = None) -> BoundReport:
    """Both embedding inequalities between the sup and coefficient scales.

    Forward: n_{l,alpha}(p) <= ||p||_{l',alpha} with l' the smallest level
    satisfying 2^l <= alpha 2^{l' alpha}.  Reverse: ||p||_{l,alpha} <=
    C n_{l'',alpha}(p) with l'' chosen so the Cauchy-estimate ratio
    q = 2^l sqrt(d) (alpha e / 2^{l''})^{1/alpha} drops below 1/2 and
    C = 1/(1-q); sqrt(d) stands in for the Hilbert-Schmidt embedding
    constant at finite dimension.  The sup norm enters through its sampled
    lower estimate, which makes the forward check sound and the reverse
    check conservative.
    """
    if p.is_zero:
        raise ValueError("embedding_check needs a nonzero polynomial")
    rng = rng if rng is not None else np.random.default_rng(0)
    l_fwd = _forward_level(alpha, level)
    fwd_lhs = sup_norm_estimate(p, GradedNorm(alpha, level, weight),
                                directions, radial_grid, rng)
    fwd_rhs = coeff_norm(p, GradedNorm(alpha, l_fwd, weight))
    l_rev, c_rev = _reverse_level(alpha, level, p.dim)
    rev_lhs = coeff_norm(p, GradedNorm(alpha, level, weight))
    rev_rhs = c_rev * sup_norm_estimate(p, GradedNorm(alpha, l_rev, weight),
                                        directions, radial_grid, rng)
    ratios = [fwd_lhs / fwd_rhs if fwd_rhs > 0 else math.inf,
              rev_lhs / rev_rhs if rev_rhs > 0 else math.inf]
    return BoundReport(
        name="embedding_check",
        measured=max(ratios),
        bound=1.0,
        params={"alpha": alpha, "l": level, "l_forward": l_fwd,
                "l_reverse": l_rev, "reverse_constant": c_rev,
                "dim": p.dim, "degree": p.trimmed().degree},
        per_degree=[
            {"inequality": "sup_vs_coeff", "lhs": fwd_lhs, "rhs": fwd_rhs,
             "ratio": ratios[0]},
            {"inequality": "coeff_vs_sup", "lhs": rev_lhs, "rhs": rev_rhs,
             "ratio": ratios[1]},
        ],
        notes=["reverse constant uses sqrt(dim) as the finite-dimensional "
               "embedding constant"],
    )


# -- graded operator norms ----------------------------------------------------


def graded_block_norms(vec: VectorSeries, weight: WeightedInnerProduct | None = None
                       ) -> list[tuple[int, float]]:
    """Weighted operator norm of each graded block of a vector series.

    The degree-k block maps a degree-k symmetric tensor phi to the vector
    with components <a_i^{(k)}, phi>; its matrix over the orthonormalized
    monomial basis is sqrt(gamma!/k!) a_{i,gamma} for the identity weight,
    conjugated by the Cholesky slot isometries otherwise.
    """
    d = vec.dim_in
    out = []
    for k in range(1, vec.max_degree + 1):
        scale = np.sqrt(norm_weights(d, k))
        mat = np.stack([np.asarray(comp.degree_part(k), dtype=complex)
                        for comp in vec.components]) * scale
        if _weighted(d, weight):
            dom = slot_matrix(weight, k)
            mat = weight.primal_slot_map() @ mat @ np.linalg.inv(scale[:, None] * dom / scale)
        if not np.isfinite(mat).all():
            raise ValueError(f"graded block of degree {k} leaves the double range; "
                             f"lower max_degree below {k}")
        out.append((k, float(np.linalg.norm(mat, 2))))
    return out


def _envelope(norms: list[tuple[int, float]]) -> float:
    vals = [nrm ** (1.0 / k) for k, nrm in norms if nrm > 0]
    return max(vals) if vals else 0.0


# -- operator continuity bound ------------------------------------------------


def _dyadic(level: int) -> float:
    """2^level; a ValueError names a level past the double range."""
    try:
        return 2.0 ** level
    except OverflowError:
        raise ValueError(f"level {level} leaves the double range (2^{level})") from None


def operator_bound_check(seq: ShefferSequence, alpha: float, level: int,
                         level_out: int | None = None,
                         weight: WeightedInnerProduct | None = None) -> BoundReport:
    """Continuity constant of the graded transform between two levels.

    With c = max_k ||A_k||^{1/k} measured over the built degrees, a level
    l' with 2^{l'} > c (1 + 2^l) admits the bound

        ||S p||_{l,alpha} <= ||p||_{l',alpha} / (1 - 2^l c / (2^{l'} - c))

    for alpha <= 1.  The measured ratio is the sup over all monomials up to
    the built order, read from the block columns.  A level l' violating the
    rule raises PreconditionError rather than reporting a vacuous constant.
    """
    if not 0 < alpha <= 1:
        raise ValueError("the continuity bound applies for 0 < alpha <= 1")
    c5 = _envelope(graded_block_norms(seq.a, weight))
    threshold = c5 * (1.0 + _dyadic(level))
    if level_out is None:
        level_out = 0
        while _dyadic(level_out) <= threshold:
            level_out += 1
    elif _dyadic(level_out) <= threshold:
        raise PreconditionError(
            f"level_out={level_out} too small: need 2^l' > {threshold:.6g} "
            f"for the measured block envelope {c5:.6g}")
    bound = 1.0 / (1.0 - _dyadic(level) * c5 / (_dyadic(level_out) - c5))
    g_out = GradedNorm(alpha, level, weight)
    g_in = GradedNorm(alpha, level_out, weight)
    image, own = _image_norms(seq, seq.max_degree, g_out, g_in)
    ratios = image / own
    per_degree = [{"degree": n, "max_ratio": float(np.max(
        ratios[graded_size(seq.dim, n - 1):graded_size(seq.dim, n)]))}
        for n in range(seq.max_degree + 1)]
    return BoundReport(
        name="operator_bound_check",
        measured=max(row["max_ratio"] for row in per_degree),
        bound=bound,
        params={"alpha": alpha, "l": level, "l_prime": level_out,
                "c5": c5, "samples": graded_size(seq.dim, seq.max_degree)},
        per_degree=per_degree,
        notes=["block envelope c5 measured over built degrees only; the "
               "bound is honest relative to this truncation"],
    )


# -- Appell growth condition --------------------------------------------------


def appell_condition_check(seq: ShefferSequence, beta: float,
                           weight: WeightedInnerProduct | None = None) -> BoundReport:
    """Fit of the smallest C >= 1 with ||theta_n||, ||rho_n|| <= C^n (n!)^{1/beta-1}.

    Passes when the fitted constant is finite and stable under degree
    extension: the fit over all built degrees must stay within 20% of the
    fit that ignores the top two degrees.  Stability is measured on the
    C^n envelope scale at the top degree, (C_N / C_{N-2})^N <= 1.2, since a
    genuinely divergent family (say coefficient norms that stay at 1 while
    (n!)^{1/beta-1} decays) creeps upward so slowly that the bare constant
    ratio tends to 1 even though no single constant ever covers the tail.
    """
    if beta <= 1:
        raise ValueError("beta must exceed 1")
    if not seq.is_appell:
        raise ValueError("non-Appell input: the growth condition needs A = identity")
    rows = []
    fits = [1.0]
    for n in range(1, seq.max_degree + 1):
        tn = sym_dual_norm(seq.theta[n], weight)
        rn = 0.0 if seq.rho is None else sym_dual_norm(
            SymCoeff(seq.dim, n, seq.rho.degree_part(n)), weight)
        envelope = math.factorial(n) ** (1.0 / beta - 1.0)
        top = max(tn, rn)
        fit = (top / envelope) ** (1.0 / n) if top > 0 else 0.0
        fits.append(max(fits[-1], fit, 1.0))
        rows.append({"degree": n, "theta_norm": tn, "rho_norm": rn, "fit": fit})
    c_full = fits[seq.max_degree]
    c_part = fits[max(1, seq.max_degree - 2)]
    ratio = c_full / c_part
    return BoundReport(
        name="appell_condition_check",
        measured=ratio ** seq.max_degree,
        bound=1.2,
        params={"beta": beta, "constant_full": c_full, "constant_partial": c_part,
                "constant_ratio": ratio, "max_degree": seq.max_degree},
        per_degree=rows,
        notes=["stability measured on the C^n envelope scale at the top "
               "degree: (C_N / C_{N-2})^N must stay within 20%"],
    )


# -- divergence sweep ----------------------------------------------------------


def divergence_sweep(seq: ShefferSequence, alpha: float, degrees,
                     weight: WeightedInnerProduct | None = None) -> SweepReport:
    """Same-level norm ratios of transformed monomials at order alpha > 1.

    For each degree n the input is the lexicographically first monomial of
    that degree and the row records

        ratio_n = ||S z^(n)||_{0,alpha} / ||z^(n)||_{0,alpha}.

    The verdict separates growth that a level shift can absorb from growth
    that cannot: the sweep is flagged `unbounded-looking` when the top
    ratio exceeds 10x the ratio at the reference degree (degree 5 when
    sampled) *and* the per-degree growth factor exceeds 3 somewhere, i.e.
    the ratios grow super-geometrically.  Geometric growth alone (bounded
    step factor) is absorbable and reports `bounded`.
    """
    if alpha <= 1:
        raise ValueError("the divergence probe applies for alpha > 1")
    degs = sorted(set(int(n) for n in degrees))
    if not degs or degs[0] < 1:
        raise ValueError("degrees must be positive")
    if degs[-1] > seq.max_degree:
        raise ValueError("degree range exceeds the built order")
    g = GradedNorm(alpha, 0, weight)
    image, own = _image_norms(seq, degs[-1], g, g)
    rows = []
    for n in degs:
        first = graded_size(seq.dim, n - 1)  # the first monomial of degree n
        num, den = float(image[first]), float(own[first])
        rows.append({"degree": n, "ratio": num / den, "norm_num": num, "norm_den": den})
    ref_degree = 5 if 5 in degs else degs[0]
    ref_ratio = next(r["ratio"] for r in rows if r["degree"] == ref_degree)
    top_ratio = rows[-1]["ratio"]
    raw_growth = top_ratio / ref_ratio if ref_ratio > 0 else math.inf
    max_step = 0.0
    for prev, cur in zip(rows, rows[1:]):
        if prev["ratio"] > 0:
            gap = cur["degree"] - prev["degree"]
            max_step = max(max_step, (cur["ratio"] / prev["ratio"]) ** (1.0 / gap))
    unbounded = raw_growth > 10.0 and max_step > 3.0
    return SweepReport(
        name="divergence_sweep",
        alpha=alpha,
        rows=rows,
        verdict="unbounded-looking" if unbounded else "bounded",
        raw_growth=raw_growth,
        max_step_factor=max_step,
        reference_degree=ref_degree,
        params={"degrees": degs, "dim": seq.dim},
    )


# -- quasi-holomorphy probe -----------------------------------------------------


def quasi_holo_probe(vec: VectorSeries, weight: WeightedInnerProduct | None = None
                     ) -> ProbeReport:
    """Geometric envelopes of the graded blocks of a map and of its
    compositional inverse.

    Reports max_k ||A_k||^{1/k} for both directions over the built degrees
    together with their ratio.  Whether a finite forward envelope forces a
    finite inverse envelope is an open question; the `comparable` flag
    (ratio <= 4) is finite-truncation evidence only, not a verdict.
    """
    if not vec.unit_linear:
        raise ValueError("quasi_holo_probe requires a unit linear part")
    fwd = graded_block_norms(vec, weight)
    inv = graded_block_norms(vs_inverse(vec), weight)
    rows = [{"degree": k, "forward_norm": fn, "inverse_norm": bn}
            for (k, fn), (_, bn) in zip(fwd, inv)]
    env_f = _envelope(fwd)
    env_b = _envelope(inv)
    ratio = env_b / env_f if env_f > 0 else math.inf
    return ProbeReport(
        name="quasi_holo_probe",
        rows=rows,
        forward_envelope=env_f,
        inverse_envelope=env_b,
        envelope_ratio=ratio,
        comparable=bool(ratio <= 4.0),
        notes=["finite-truncation evidence only; no claim about the "
               "inverse envelope in general"],
    )
