"""Property-test harness for the fractional-Sobolev inequality toolbox.

Each check evaluates both sides of one inequality on randomized band-limited
fields and records the empirical ratio lhs / rhs-bound.  The generic constants
of the analytic statements are existential, so the lab asserts only what can
be asserted: the Fourier-side interpolation inequality holds with constant
exactly 1, and every other reported constant must be stable (within a factor
of two) across grid resolutions.

Random field model: Fourier coefficients i.i.d. complex Gaussian shaped by a
|k|^(-r) spectrum with r drawn from [1.5, 3], conjugate-symmetrized,
mean-free, and band-limited to half the dealias cutoff, which produces fields
in the regularity range the inequalities target.  From n = 8 on that band
holds a mode past the mean (smaller grids are refused), so every draw counts:
a check makes exactly ``trials`` draws per grid.  L^p and L^inf norms, of
fields and of gradient magnitudes alike, are :func:`~tcm2d.spectral.lp_norm`'s,
on a 2x zero-padded grid, since non-quadratic norms are not Parseval-exact.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .model import VISCOSITY_LAWS
from .spectral import (
    SpectralField,
    SpectralGrid,
    gradient,
    inner_product,
    lambda_pow,
    lp_norm,
    random_coeffs,
    sobolev_norm,
)

SLOPE_RANGE = (1.5, 3.0)
STABILITY_FACTOR = 2.0
INTERPOLATION_TOL = 1e-12


@dataclass(frozen=True)
class InequalityReport:
    """Empirical constants for one inequality across trials and resolutions."""

    name: str
    trials: int
    worst_ratio: float
    median_ratio: float
    resolutions: tuple[int, ...]
    stable: bool

    def to_dict(self) -> dict:
        return dict(asdict(self), resolutions=list(self.resolutions))


def random_test_field(grid: SpectralGrid, rng: np.random.Generator) -> SpectralField:
    """One draw from the lab's random field model."""
    r = rng.uniform(*SLOPE_RANGE)
    coeffs = random_coeffs(grid, rng, lambda k: k**(-r))
    return SpectralField(grid, coeffs)


def _aggregate(name: str, per_res: dict[int, Sequence[float]]) -> InequalityReport:
    worsts = {n: max(rs) for n, rs in per_res.items()}
    allr = [r for rs in per_res.values() for r in rs]
    stable = max(worsts.values()) <= STABILITY_FACTOR * min(worsts.values())
    return InequalityReport(
        name=name,
        trials=len(allr),
        worst_ratio=max(allr),
        median_ratio=float(statistics.median(allr)),
        resolutions=tuple(sorted(per_res)),
        stable=stable,
    )


def _run_trials(
    names: tuple[str, ...],
    trials: int,
    grids: Sequence[SpectralGrid],
    rng: np.random.Generator,
    one_trial: Callable[[SpectralGrid, np.random.Generator], tuple[float, ...]],
) -> list[InequalityReport]:
    """One report per name, from trials draws per grid; a draw gives one ratio per name."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sizes = [grid.n for grid in grids]
    for n in sizes:
        if sizes.count(n) > 1:  # the reports are keyed by size: a repeat would drop its draws
            raise ValueError(f"grid sizes must be distinct, got n = {n} more than once")
    per_res: dict[str, dict[int, tuple[float, ...]]] = {name: {} for name in names}
    for grid in grids:
        draws = [one_trial(grid, rng) for _ in range(trials)]
        for name, column in zip(names, zip(*draws)):
            per_res[name][grid.n] = column
    return [_aggregate(name, per_res[name]) for name in names]


def check_gn(trials: int, grids: Sequence[SpectralGrid], rng: np.random.Generator) -> InequalityReport:
    """Gagliardo-Nirenberg forms: ||f||_{L^4} <= C ||Lambda^{1/2} f||_{L^2} and,
    for a sampled s in (1, 2), the ||Lambda^{s-1} f||_{L^{2/(s-1)}} <= C ||grad f||
    and ||grad f||_{L^{2/(2-s)}} <= C ||Lambda^s f|| companions."""

    def one(grid: SpectralGrid, rng: np.random.Generator) -> tuple[float]:
        f = random_test_field(grid, rng)
        ratios = [lp_norm(f, 4.0) / sobolev_norm(f, 0.5, homogeneous=True)]
        s = rng.uniform(1.05, 1.95)
        gx, gy = gradient(f)
        grad_l2 = math.hypot(sobolev_norm(gx, 0, True), sobolev_norm(gy, 0, True))
        ratios.append(lp_norm(lambda_pow(f, s - 1.0), 2.0 / (s - 1.0)) / grad_l2)
        ratios.append(lp_norm((gx, gy), 2.0 / (2.0 - s)) / sobolev_norm(f, s, homogeneous=True))
        return (max(ratios),)

    return _run_trials(("gagliardo-nirenberg",), trials, grids, rng, one)[0]


def check_interpolation(
    trials: int,
    grids: Sequence[SpectralGrid],
    rng: np.random.Generator,
    s1: float = 0.0,
    s: float = 1.0,
    s2: float = 2.0,
) -> tuple[InequalityReport, InequalityReport]:
    """Fourier-side interpolation (exact, constant 1) and its L^inf companion.

    Part (i): ||Lambda^s f|| <= ||Lambda^{s1} f||^a ||Lambda^{s2} f||^b with
    a = (s2-s)/(s2-s1), b = (s-s1)/(s2-s1) -- a Hoelder identity in Fourier
    space, so the ratio may not exceed 1 beyond rounding.  Part (ii) bounds
    ||f||_inf by the same right side (for s1 < 1 < s2 in 2D) with an unknown
    constant, reported empirically.
    """
    if not (0 <= s1 < s < s2):
        raise ValueError(f"need 0 <= s1 < s < s2, got ({s1}, {s}, {s2})")
    a = (s2 - s) / (s2 - s1)
    b = (s - s1) / (s2 - s1)
    a_inf = (s2 - 1.0) / (s2 - s1)
    b_inf = (1.0 - s1) / (s2 - s1)

    def one(grid: SpectralGrid, rng: np.random.Generator) -> tuple[float, float]:
        f = random_test_field(grid, rng)
        n1 = sobolev_norm(f, s1, homogeneous=True)
        n2 = sobolev_norm(f, s2, homogeneous=True)
        return (
            sobolev_norm(f, s, homogeneous=True) / (n1**a * n2**b),
            lp_norm(f, np.inf) / (n1**a_inf * n2**b_inf),
        )

    return tuple(_run_trials(("interpolation-exact", "interpolation-linf"), trials, grids, rng, one))


def check_kato_ponce(
    trials: int, grids: Sequence[SpectralGrid], rng: np.random.Generator, s: float = 1.5
) -> InequalityReport:
    """Commutator bound ||Lambda^s(fg) - f Lambda^s g|| against
    ||grad f||_inf ||Lambda^{s-1} g|| + ||g||_inf ||Lambda^s f||."""
    if not s > 0:
        raise ValueError(f"s must be > 0, got {s}")

    def one(grid: SpectralGrid, rng: np.random.Generator) -> tuple[float]:
        f = random_test_field(grid, rng)
        g_ = random_test_field(grid, rng)
        lhs = commutator_norm(f, g_, s)
        rhs = lp_norm(gradient(f), np.inf) * sobolev_norm(g_, s - 1.0, homogeneous=True)
        rhs += lp_norm(g_, np.inf) * sobolev_norm(f, s, homogeneous=True)
        return (lhs / rhs,)

    return _run_trials(("kato-ponce",), trials, grids, rng, one)[0]


def commutator_norm(f: SpectralField, g: SpectralField, s: float) -> float:
    """||Lambda^s(fg) - f Lambda^s g||_{L^2}; products on the collocation grid."""
    grid, f_vals = f.grid, f.values()
    fg = SpectralField.from_phys(grid, f_vals * g.values())
    f_lam_g = SpectralField.from_phys(grid, f_vals * lambda_pow(g, s).values())
    diff = SpectralField(grid, lambda_pow(fg, s).coeffs - f_lam_g.coeffs)
    return math.sqrt(inner_product(diff, diff))


def check_composition(
    trials: int,
    grids: Sequence[SpectralGrid],
    rng: np.random.Generator,
    s: float = 1.5,
    law: str | Callable[[np.ndarray], np.ndarray] = "quadratic",
) -> InequalityReport:
    """Composition bound ||Lambda^s(law(theta) - law(0))|| against
    (1 + ||grad theta||^ceil(s-1)) ||Lambda^s theta||.

    ``law`` is a name in :data:`~tcm2d.model.VISCOSITY_LAWS` (with mu_lower 1,
    which cancels in law(theta) - law(0), and gauss-bump amplitude 1) or any
    smooth callable; the lab probes the inequality itself, so no lower-bound
    contract is enforced here.  Fields are
    normalized to unit sup so the composed field stays in a fixed compact
    range.
    """
    if not s >= 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if callable(law):
        law_fn, name = law, "composition-custom"
    else:
        law_fn = lambda th: VISCOSITY_LAWS[law](th, 1.0, 1.0)
        name = f"composition-{law}"
    law0 = float(law_fn(np.zeros(1))[0])
    ceil_pow = math.ceil(s - 1.0)

    def one(grid: SpectralGrid, rng: np.random.Generator) -> tuple[float]:
        th = random_test_field(grid, rng)
        th = SpectralField(grid, th.coeffs / lp_norm(th, np.inf))
        vals = th.values()
        composed = SpectralField.from_phys(grid, np.asarray(law_fn(vals)) - law0)
        lhs = sobolev_norm(composed, s, homogeneous=True)
        gx, gy = gradient(th)
        grad_l2 = math.hypot(sobolev_norm(gx, 0, True), sobolev_norm(gy, 0, True))
        denom = (1.0 + grad_l2**ceil_pow) * sobolev_norm(th, s, homogeneous=True)
        return (lhs / denom,)

    return _run_trials((name,), trials, grids, rng, one)[0]
