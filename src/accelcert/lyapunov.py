"""Canonical sequences, energies, and convergence certificates.

The analysis never re-evaluates oracles along a trajectory: sequences and
energies read the first-order map stored in the trace, so they see exactly
the quantities the algorithm consumed. All operations are pure functions of
an immutable trace and can run concurrently across k and across traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algorithms import SCHEMES, RunParams, Trace, composite_for
from .errors import ParameterError
from .problems import OptimumInfo, Problem, Vector, count, real
from .proximal import require_step

#: Energy forms ``energy`` accepts. "xy" is the velocity-free energy that
#: every certificate checks, and "auto" names it too; "velocity" is the
#: position-velocity reference, per k only.
ENERGY_FORMS = ("auto", "velocity", "xy")

#: Certification slack (relative, absolute): theorem inequalities are exact
#: in reals, the slack only absorbs rounding accumulated over hundreds of
#: iterations.
ANALYTIC_TOLS = (1e-8, 1e-12)
#: Loosened slack when the optimum comes from a reference run.
REFERENCE_TOLS = (1e-6, 1e-9)


def _check_k(trace: Trace, k: int) -> None:
    count(k, "k", -math.inf, ParameterError)
    if not 0 <= k <= trace.iters:
        raise IndexError(f"k={k} outside trace range 0..{trace.iters}")


def seq_R(trace: Trace, k: int, s: float, r: float) -> Vector:
    """Canonical position sequence (k-1)*sqrt(s)*v_k + r*x_k; k is an int,
    else ParameterError, in 0..n, else IndexError."""
    _check_k(trace, k)
    return (k - 1.0) * math.sqrt(s) * trace.v[k] + r * trace.x[k]


def seq_S(trace: Trace, k: int, s: float, r: float) -> Vector:
    """Gradient-corrected sequence R_k - (k+r)*s*m_k, with m_k the stored
    first-order map at y_k; k as seq_R takes it."""
    return seq_R(trace, k, s, r) - (k + r) * s * trace.map[k]


def seq_T(trace: Trace, k: int, s: float, r: float) -> Vector:
    """Velocity-free form (k+r)*y_k - k*x_k - (k+r)*s*m_k; identical to S_k
    whenever the position-velocity relation holds; k as seq_R takes it."""
    _check_k(trace, k)
    return (k + r) * trace.y[k] - k * trace.x[k] - (k + r) * s * trace.map[k]


def tau(k: int, r: float) -> float:
    """Dynamic coefficient (k+1)(k+r+1) of the potential energy."""
    return (k + 1.0) * (k + r + 1.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    k: int
    tau: float
    potential: float
    mixed: float

    @property
    def total(self) -> float:
        return self.potential + self.mixed


def energy(
    trace: Trace,
    k: int,
    s: float,
    r: float,
    optimum: OptimumInfo,
    form: str,
) -> EnergyBreakdown:
    """Lyapunov energy E(k) = s*tau(k)*(f(x_{k+1}) - f*) + mixed(k).

    ``form`` selects the mixed term. "xy" (and "auto") is the paper's
    velocity-free 0.5*||k*(y_k - x_k) + r*(y_k - x*) - (k+r)*s*m_k||^2, the
    energy ``certify`` checks on every scheme; k is an int, else
    ParameterError, in 0..n-1, else IndexError. "velocity" is li2024linear's
    0.5*||(k-1)*sqrt(s)*v_k + r*(x_k - x*) - s*(k+r)*m_k||^2, a per-k
    reference that equals "xy" up to rounding wherever the
    position-velocity relation holds; it is undefined on the monotone
    schemes, whose velocity is not part of the analysis.
    """
    if optimum is None:
        raise ParameterError("energy evaluation requires an optimum")
    if form not in ENERGY_FORMS:
        raise ParameterError(f"unknown energy form {form!r}")
    if form == "velocity" and SCHEMES[trace.params.algo].monotone:
        raise ParameterError(
            f"velocity-form energy undefined for {trace.params.algo}; use form='xy'"
        )
    _check_k(trace, k)
    _check_k(trace, k + 1)
    x, y, m, x_star = trace.x[k], trace.y[k], trace.map[k], optimum.x_star
    pot = s * tau(k, r) * (float(trace.f[k + 1]) - optimum.f_star)
    if form == "velocity":
        vec = (k - 1.0) * math.sqrt(s) * trace.v[k] + r * (x - x_star) - s * (k + r) * m
    else:
        vec = k * (y - x) + r * (y - x_star) - (k + r) * s * m
    mixed = 0.5 * float(np.dot(vec, vec))
    return EnergyBreakdown(k=k, tau=tau(k, r), potential=pot, mixed=mixed)


def row_dots(a: np.ndarray) -> np.ndarray:
    """np.dot(row, row) of each row of a 2-d float array, bit for bit, as one
    stacked matmul: a (1, d) @ (d, 1) product is the same dot as np.dot."""
    return (a[:, None, :] @ a[:, :, None]).ravel()


def _energies(trace: Trace, s: float, r: float, optimum: OptimumInfo) -> np.ndarray:
    """E(0..n-1) over a trace's arrays, bit-identical to ``energy(..., "xy").total``.

    The elementwise terms are built in energy()'s operation order; each
    mixed term is a ``row_dots`` entry, rounded as energy()'s np.dot.
    """
    n = trace.iters
    ks = np.arange(n, dtype=float)[:, None]
    x, y, m = trace.x[:n], trace.y[:n], trace.map[:n]
    vecs = ks * (y - x) + r * (y - optimum.x_star) - (ks + r) * s * m
    potential = s * ((ks[:, 0] + 1.0) * (ks[:, 0] + r + 1.0)) * (trace.f[1:] - optimum.f_star)
    return potential + 0.5 * row_dots(vecs)


def threshold_K(r: float) -> int:
    """Iteration threshold max{0, ceil((3r^2 - 4r - 12)/8)}.

    The raw formula is generally fractional; taking the ceiling before the
    max only shrinks the certified range, the conservative direction. r is
    a real >= 2 whose K is finite, else ParameterError.
    """
    real(r, "momentum parameter r", 2, ParameterError, strict=False)
    # Past about 4.5e307, 3r^2 and 4r are both inf and raw is inf - inf = NaN.
    raw = (3.0 * r * r - 4.0 * r - 12.0) / 8.0
    if not math.isfinite(raw):
        raise ParameterError(f"momentum parameter r = {r} is too large: K(r) overflows")
    return max(0, math.ceil(raw))


def require_certifiable(params: RunParams) -> int:
    """The certify rule that a run's settings alone decide, else ParameterError:
    the scheme is certifiable in SCHEMES, K(r) is finite, and
    iters >= max{1, K} + 1. Returns K."""
    if not SCHEMES[params.algo].certifiable:
        certifiable = ", ".join(sorted(name for name, row in SCHEMES.items() if row.certifiable))
        raise ParameterError(f"no certificate for {params.algo!r}; certifiable: {certifiable}")
    big_k = threshold_K(params.momentum_r)
    if params.iters < max(1, big_k) + 1:
        raise ParameterError(
            f"too few iterations to certify: need at least {max(1, big_k) + 1} "
            f"for K = {big_k}, got {params.iters}"
        )
    return big_k


def rate_factor(mu: float, s: float, lipschitz: float) -> float:
    """Per-step contraction base 1 + (1 - L*s) * mu*s/4 of the rate bound."""
    return 1.0 + (1.0 - lipschitz * s) * mu * s / 4.0


def theorem_bound(
    k: int,
    r: float,
    s: float,
    mu: float,
    lipschitz: float,
    f1_gap: float,
    x1_dist_sq: float,
) -> float:
    """Certified optimality-gap bound at iteration k, a count from 1 to the
    largest numpy index (else ParameterError):

    [(r+1)*(f(x_1) - f*) + r^2*L*||x_1 - x*||^2]
        / [k*(k+r)*(1 + (1 - L*s)*mu*s/4)^k]

    The numerator is built from the first iterate x_1, not the start point.
    The power is a float64 power, equal to Python's below overflow; past
    about 1.8e308 it is inf and the bound 0.0.
    """
    count(k, "k", 1, ParameterError, most=np.iinfo(np.intp).max)
    numerator = (r + 1.0) * f1_gap + r * r * lipschitz * x1_dist_sq
    with np.errstate(over="ignore"):
        power = float(np.float64(rate_factor(mu, s, lipschitz)) ** k)
    return numerator / (k * (k + r) * power)


def row_layout(gap, bound, energy, margin, missing) -> list[np.ndarray]:
    """A certificate's gap, bound, energy and decrease margin on its n+1 rows.

    ``gap`` covers k = 0..n, ``bound`` k = 1..n, ``energy`` k = 0..n-1 and
    ``margin`` k = 0..n-2. A row that a quantity does not cover holds
    ``missing``: the bound at k = 0, the energy at k = n, and the margin at
    k = n-1 and n. Returns four object arrays of n+1 entries.
    """
    pad = np.array([missing, missing], dtype=object)
    return [np.asarray(gap, dtype=object), np.concatenate([pad[:1], bound]),
            np.concatenate([energy, pad[:1]]), np.concatenate([margin, pad])]


@dataclass(frozen=True)
class CertRow:
    k: int
    f_gap: float
    bound: float | None
    bound_ok: bool
    energy: float | None
    decrease_margin: float | None
    decrease_ok: bool


@dataclass(frozen=True, eq=False)
class Certificate:
    """Per-iteration theorem checks along one trace, stored as arrays.

    Over a trace of n+1 records, ``f_gap``, ``bound_ok`` and
    ``decrease_ok`` have one entry per record; ``bound`` covers k = 1..n,
    ``energy`` k = 0..n-1 and ``decrease_margin`` k = 0..n-2. ``rows``
    gives the same values per k, with None where a quantity is undefined;
    certificates compare equal when their K, verdict and rows do.

    ``overall_pass`` conjoins the rate-bound flags for k >= max{1, K} and
    the energy-decrease flags for k >= K, each over the range the trace
    covers; flags outside those ranges are vacuously true.
    """

    threshold_K: int
    f_gap: np.ndarray
    bound: np.ndarray
    bound_ok: np.ndarray
    energy: np.ndarray
    decrease_margin: np.ndarray
    decrease_ok: np.ndarray
    overall_pass: bool

    @cached_property
    def rows(self) -> tuple[CertRow, ...]:
        gap, bound, energy, margin = (col.tolist() for col in row_layout(
            self.f_gap, self.bound, self.energy, self.decrease_margin, None
        ))
        return tuple(map(CertRow, range(len(gap)), gap, bound, self.bound_ok.tolist(), energy,
                         margin, self.decrease_ok.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Certificate):
            return NotImplemented
        return (self.threshold_K, self.overall_pass, self.rows) == (
            other.threshold_K, other.overall_pass, other.rows
        )


# An energy, bound or margin that overflows becomes an inf or NaN, not a
# warning; the finiteness rule at the end of certify fails its row.
@np.errstate(over="ignore", invalid="ignore")
def certify(
    trace: Trace,
    problem: Problem,
    optimum: OptimumInfo,
    form: str = "auto",
) -> Certificate:
    """Check the rate bound and per-step energy decrease along a trace.

    Row k carries the optimality gap f(x_k) - f*, the theorem bound (from
    k = 1), the paper's velocity-free energy E(k) (``energy``'s "xy" form,
    on every scheme; ``form`` is "auto" or "xy", and "velocity" raises
    ParameterError), and the raw decrease margin
    E(k)/rate_factor(mu, s, L) - E(k+1), with the base of the bound's
    power. Flags apply relative plus absolute slack: ANALYTIC_TOLS (1e-8,
    1e-12) for analytic optima and REFERENCE_TOLS (1e-6, 1e-9) for
    reference-run optima, whose f* carries solver error. A row whose gap,
    bound or energy is not finite fails at any k; past about 1.8e308 the
    rate power is inf and the bound 0.0. As in ``run``, ``problem`` is a
    smooth oracle or a composite objective; one that ``composite_for``
    refuses for the trace's scheme raises InvalidProblemError, a step
    outside (0, 1/L) raises StepSizeError, and a trace or optimum whose
    dimension is not the problem's raises ParameterError. The rule on the
    trace's settings alone is ``require_certifiable``, which a run's config
    checks up front.
    """
    if form not in ("auto", "xy"):
        raise ParameterError(
            f"certify checks the velocity-free energy only: form must be 'auto' or 'xy', "
            f"got {form!r}"
        )
    big_k = require_certifiable(trace.params)
    if optimum is None:
        raise ParameterError("certification requires an optimum")
    oracle = composite_for(problem, trace.params.algo).smooth
    s, r = trace.params.step, trace.params.momentum_r
    require_step(s, oracle.lipschitz)
    mu, lipschitz = oracle.mu, oracle.lipschitz
    rel, absolute = REFERENCE_TOLS if optimum.source == "reference-run" else ANALYTIC_TOLS
    n = trace.iters
    for what, dim in (("trace", trace.x.shape[1]), ("optimum", optimum.x_star.size)):
        if dim != oracle.dim:
            raise ParameterError(f"{what} has dimension {dim}, problem has dimension {oracle.dim}")
    f_gap = trace.f - optimum.f_star
    f1_gap = float(f_gap[1])
    diff1 = trace.x[1] - optimum.x_star
    x1_dist_sq = float(np.dot(diff1, diff1))

    energies = _energies(trace, s, r, optimum)
    # Bound for k = 1..n, as theorem_bound computes it; the power stays a
    # scalar power per k, whose last bits np.power does not reproduce.
    ks = np.arange(1, n + 1, dtype=float)
    rate = np.float64(rate_factor(mu, s, lipschitz))
    numerator = (r + 1.0) * f1_gap + r * r * lipschitz * x1_dist_sq
    bounds = numerator / (ks * (ks + r) * np.array([rate ** k for k in range(1, n + 1)]))
    bound_ok = np.ones(n + 1, dtype=bool)
    first = max(1, big_k)
    bound_ok[first:] = f_gap[first:] <= bounds[first - 1:] * (1.0 + rel) + absolute
    contracted = energies[:-1] / rate
    margins = contracted - energies[1:]
    decrease_ok = np.ones(n + 1, dtype=bool)
    decrease_ok[big_k:n - 1] = energies[big_k + 1:] <= contracted[big_k:] * (1.0 + rel) + absolute
    # A row with a non-finite gap, bound or energy fails at any k: an
    # overflowed trace must not pass on inf <= inf.
    bound_ok &= np.isfinite(f_gap)
    bound_ok[1:] &= np.isfinite(bounds)
    decrease_ok[:n] &= np.isfinite(energies)
    overall = bool(bound_ok.all() and decrease_ok.all())

    return Certificate(
        threshold_K=big_k, f_gap=f_gap, bound=bounds, bound_ok=bound_ok, energy=energies,
        decrease_margin=margins, decrease_ok=decrease_ok, overall_pass=overall,
    )


def first_failing_k(certificate: Certificate) -> int | None:
    failing = np.flatnonzero(~(certificate.bound_ok & certificate.decrease_ok))
    return int(failing[0]) if failing.size else None


def certificate_to_dict(certificate: Certificate) -> dict:
    """Serializable form: {"K", "pass", "rows": [{k, gap, bound, energy,
    decrease_margin}]} with nulls where a quantity is undefined."""
    return {
        "K": certificate.threshold_K,
        "pass": certificate.overall_pass,
        "rows": [
            {
                "k": row.k,
                "gap": row.f_gap,
                "bound": row.bound,
                "energy": row.energy,
                "decrease_margin": row.decrease_margin,
            }
            for row in certificate.rows
        ],
    }
