"""The coupled barotropic/baroclinic/temperature system and its energy budget.

State is the triple (u, v, theta): u the divergence-free barotropic velocity,
v the first baroclinic velocity, theta the temperature.  The evolution is

    du/dt = P[ -(u.grad)u + div(mu(theta) grad u) - div(v (x) v) ] - alpha u,
    dv/dt = -(u.grad)v - (v.grad)u - beta v + grad theta,
    dtheta/dt = -u.grad theta + div v,

with P the Leray projection (pressure eliminated) and all products formed
pseudo-spectrally with two-thirds dealiasing.  The viscosity mu depends on
theta, is smooth, and is bounded below by mu_lower; it is split as
mu(0) + (mu(theta) - mu(0)) so a time integrator can treat the constant part
exactly.

The L^2 energy budget

    d/dt (||u||^2 + ||v||^2 + ||theta||^2)/2
        + int mu(theta)|grad u|^2 + alpha ||u||^2 + beta ||v||^2  =  0

holds exactly for the continuous system; the discrete residual reported by
:func:`energy_budget_residual` measures only floating-point defect because the
transport terms are skew-symmetric in dealiased spectral arithmetic, the
<grad theta, v> and <div v, theta> pairings cancel, and the v-tensor terms
cancel against the (v.grad)u pairing.

The quadratic products are summed in physical space whenever they reach one
tendency component through the same linear operator, and only then taken
through one batched forward transform: (u.grad)v_i + (v.grad)u_i is one field
per component, and -v(x)v is folded into the viscous remainder stress
sigma = (mu(theta) - mu(0)) grad u - v(x)v.  One call of
:func:`nonlinear_tendency` transforms 16 fields inverse and 10 forward (9
products plus the viscosity remainder), or 15 inverse and 8 forward with the
constant law, whose sigma = -v(x)v is symmetric.  That call is the one
evaluation of a state: the integrator hands it to stage 1 of the next step, to
the step bound and to the sampled record (:func:`budget_residual`, :func:`sup_norms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import (
    SpectralField,
    SpectralGrid,
    from_phys,
    leray_project_coeffs,
    parseval_density,
    to_phys,
)


class ParamError(ValueError):
    """Invalid or inconsistent model parameters."""


class ViscosityFloorError(RuntimeError):
    """A configured viscosity law dipped below its declared lower bound."""


class BlowUpError(RuntimeError):
    """Non-finite coefficients appeared during integration."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time:.6g}")
        self.time = time


def derive_lambda(alpha: float, beta: float, mu_lower: float) -> float:
    """Uniform dissipation weight sqrt(min(...) / 2) for the B/Y functionals.

    The damping rate alpha only enters the minimum when it is active.
    """
    if not beta > 0:
        raise ParamError(f"beta must be > 0, got {beta}")
    if not mu_lower > 0:
        raise ParamError(f"mu_lower must be > 0, got {mu_lower}")
    base = min(mu_lower, beta / (4.0 + 2.0 * beta**2))
    if alpha > 0:
        base = min(alpha, base)
    return math.sqrt(0.5 * base)


def derive_delta1(alpha: float) -> int:
    """Indicator selecting the low-order u-norm: 0 when undamped, 1 otherwise."""
    if alpha < 0:
        raise ParamError(f"alpha must be >= 0, got {alpha}")
    return 0 if alpha == 0 else 1


def default_eta(beta: float) -> float:
    """Largest admissible stability cross-term weight beta/(4 + 2 beta^2)."""
    return beta / (4.0 + 2.0 * beta**2)


KAPPA_CLAMP = 0.499


def default_kappa(beta: float) -> float:
    """Decay cross-term weight min(beta/2, 1/beta), clamped below 1/2."""
    return min(0.5 * beta, 1.0 / beta, KAPPA_CLAMP)


_VISCOSITY_LAWS = ("quadratic", "constant", "gauss-bump")


@dataclass(frozen=True)
class ModelParams:
    """Model constants plus the derived quantities lam, delta1, eta, kappa.

    eta and kappa default to the largest admissible weights; explicit values
    are validated against the bounds the energy functionals require
    (0 < eta <= beta/(4+2 beta^2) < 1/4 and 0 < kappa <= min(beta/2, 1/beta),
    kappa < 1/2).
    """

    alpha: float = 0.0
    beta: float = 1.0
    mu_lower: float = 1.0
    s: float = 1.5
    viscosity: str | Callable[[np.ndarray], np.ndarray] = "quadratic"
    viscosity_a: float = 1.0
    eta: float | None = None
    kappa: float | None = None
    lam: float = field(init=False)
    delta1: int = field(init=False)
    _mu0: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ParamError(f"alpha must be >= 0, got {self.alpha}")
        if not self.beta > 0:
            raise ParamError(f"beta must be > 0, got {self.beta}")
        if not self.mu_lower > 0:
            raise ParamError(f"mu_lower must be > 0, got {self.mu_lower}")
        if not self.s > 1:
            raise ParamError(f"Sobolev index s must be > 1, got {self.s}")
        if isinstance(self.viscosity, str) and self.viscosity not in _VISCOSITY_LAWS:
            raise ParamError(f"unknown viscosity law {self.viscosity!r}; choose from {_VISCOSITY_LAWS}")
        if self.eta is None:
            object.__setattr__(self, "eta", default_eta(self.beta))
        elif not (0.0 < self.eta <= default_eta(self.beta)):
            raise ParamError(
                f"eta must satisfy 0 < eta <= beta/(4+2*beta^2) = {default_eta(self.beta):.6g}, got {self.eta}"
            )
        if self.kappa is None:
            object.__setattr__(self, "kappa", default_kappa(self.beta))
        elif not (0.0 < self.kappa <= min(0.5 * self.beta, 1.0 / self.beta) and self.kappa < 0.5):
            raise ParamError(
                f"kappa must satisfy 0 < kappa <= min(beta/2, 1/beta) and kappa < 1/2, got {self.kappa}"
            )
        object.__setattr__(self, "lam", derive_lambda(self.alpha, self.beta, self.mu_lower))
        object.__setattr__(self, "delta1", derive_delta1(self.alpha))
        object.__setattr__(self, "_mu0", float(self.mu(0.0)))

    def mu(self, theta: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the viscosity law, enforcing the lower-bound contract."""
        th = np.asarray(theta, dtype=np.float64)
        if callable(self.viscosity):
            out = self.viscosity(th)
        elif self.viscosity == "quadratic":
            out = self.mu_lower + th**2
        elif self.viscosity == "constant":
            out = np.full_like(th, self.mu_lower)
        else:  # gauss-bump
            out = self.mu_lower + self.viscosity_a * np.exp(-(th**2))
        floor = self.mu_lower - 1e-12 * max(1.0, self.mu_lower)
        mn = float(np.min(out))
        if mn < floor:
            raise ViscosityFloorError(
                f"viscosity law {self.viscosity!r} returned {mn:.6g} below the bound mu_lower = {self.mu_lower:.6g}"
            )
        return out if np.ndim(theta) else float(out)

    @property
    def mu0(self) -> float:
        """mu evaluated at theta = 0 (the constant part of the viscosity split)."""
        return self._mu0


def default_viscosity(theta: float | np.ndarray, mu_lower: float = 1.0) -> float | np.ndarray:
    """The default smooth law mu_lower + theta**2."""
    return ModelParams(mu_lower=mu_lower).mu(theta)


# Component layout of the stacked coefficient array.
IU = slice(0, 2)
IV = slice(2, 4)
ITH = 4
NCOMP = 5


@dataclass
class TcmState:
    """The (u, v, theta) triple at one instant, stored as stacked spectra.

    coeffs has shape (5, n, n//2 + 1): components [u_x, u_y, v_x, v_y, theta].
    u is kept divergence-free and all fields dealiased; helper properties
    expose the components as SpectralField views (shared memory).
    """

    grid: SpectralGrid
    coeffs: np.ndarray
    time: float = 0.0

    @classmethod
    def zero(cls, grid: SpectralGrid, time: float = 0.0) -> "TcmState":
        return cls(grid, np.zeros((NCOMP,) + grid.shape_spec, dtype=np.complex128), time)

    @classmethod
    def from_fields(
        cls,
        u: tuple[SpectralField, SpectralField],
        v: tuple[SpectralField, SpectralField],
        theta: SpectralField,
        time: float = 0.0,
    ) -> "TcmState":
        grid = theta.grid
        c = np.stack([u[0].coeffs, u[1].coeffs, v[0].coeffs, v[1].coeffs, theta.coeffs])
        return cls(grid, c.astype(np.complex128), time)

    @property
    def u(self) -> tuple[SpectralField, SpectralField]:
        return (SpectralField(self.grid, self.coeffs[0]), SpectralField(self.grid, self.coeffs[1]))

    @property
    def v(self) -> tuple[SpectralField, SpectralField]:
        return (SpectralField(self.grid, self.coeffs[2]), SpectralField(self.grid, self.coeffs[3]))

    @property
    def theta(self) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[ITH])

    def copy(self) -> "TcmState":
        return TcmState(self.grid, self.coeffs.copy(), self.time)


# One evaluation of a state: (nonlinear tendency, dissipation, physical fields).
Evaluation = tuple[np.ndarray, float, np.ndarray]


def nonlinear_tendency(coeffs: np.ndarray, grid: SpectralGrid, params: ModelParams) -> Evaluation:
    """Evaluate one state: everything in the tendency except the stiff diagonal part.

    The stiff part (mu(0) Laplacian and -alpha on u, -beta on v) is left to
    the integrator.  Returns three things:

    * the advective terms, the baroclinic tensor term, the variable-viscosity
      remainder div((mu(theta)-mu(0)) grad u) and the v<->theta coupling, all
      dealiased, with the u-tendency Leray projected;
    * the instantaneous dissipation int mu |grad u|^2 + alpha ||u||^2 +
      beta ||v||^2, evaluated with the same collocation quadrature the
      products use, so the discrete energy budget closes to rounding;
    * the physical values of [u_x, u_y, v_x, v_y, theta], shape (5, n, n), a
      view of the inverse transform the products were formed from.
    """
    ikx = 1j * grid.kx
    iky = 1j * grid.ky
    spec = np.empty((3 * NCOMP,) + grid.shape_spec, dtype=np.complex128)
    spec[:NCOMP] = coeffs
    spec[NCOMP::2] = ikx * coeffs
    spec[NCOMP + 1 :: 2] = iky * coeffs
    phys = to_phys(spec, grid)
    u1, u2, v1, v2, th = phys[:NCOMP]
    du = phys[5:7], phys[7:9]     # grad u1, grad u2
    dv = phys[9:11], phys[11:13]
    dth = phys[13:15]

    mu0 = params.mu0
    constant_mu = params.viscosity == "constant"
    if not constant_mu:
        # Dealias the remainder before the product so the cubic term is formed
        # from two alias-free quadratic stages.
        mu_rem = to_phys(grid.dealias_mask * from_phys(np.asarray(params.mu(th)) - mu0, grid), grid)

    # Rows, each summed before the one forward transform (dealiasing and the
    # ik multipliers are linear, so only rounding changes): (u.grad)u (2),
    # (u.grad)v + (v.grad)u (2), u.grad theta (1), and the stress
    # sigma = mu_rem grad u - v(x)v (4, or its 3 distinct rows when mu_rem = 0).
    prods = np.empty(((8 if constant_mu else 9),) + grid.shape_phys)
    prods[0] = u1 * du[0][0] + u2 * du[0][1]
    prods[1] = u1 * du[1][0] + u2 * du[1][1]
    prods[2] = u1 * dv[0][0] + u2 * dv[0][1] + v1 * du[0][0] + v2 * du[0][1]
    prods[3] = u1 * dv[1][0] + u2 * dv[1][1] + v1 * du[1][0] + v2 * du[1][1]
    prods[4] = u1 * dth[0] + u2 * dth[1]
    if constant_mu:
        prods[5] = -v1 * v1
        prods[6] = -v1 * v2
        prods[7] = -v2 * v2
        s11, s12, s21, s22 = 5, 6, 6, 7
    else:
        prods[5] = mu_rem * du[0][0] - v1 * v1
        prods[6] = mu_rem * du[0][1] - v1 * v2
        prods[7] = mu_rem * du[1][0] - v1 * v2
        prods[8] = mu_rem * du[1][1] - v2 * v2
        s11, s12, s21, s22 = 5, 6, 7, 8
    p = grid.dealias_mask * from_phys(prods, grid)

    out = np.empty_like(coeffs)
    # u: -(u.grad)u + div sigma, then project.
    tux = -p[0] + ikx * p[s11] + iky * p[s12]
    tuy = -p[1] + ikx * p[s21] + iky * p[s22]
    out[0], out[1] = leray_project_coeffs(tux, tuy, grid)
    # v: -(u.grad)v - (v.grad)u + grad theta.
    out[2] = -p[2] + ikx * coeffs[ITH]
    out[3] = -p[3] + iky * coeffs[ITH]
    # theta: -u.grad theta + div v.
    out[ITH] = -p[4] + ikx * coeffs[2] + iky * coeffs[3]

    grad_u_sq = du[0][0] ** 2 + du[0][1] ** 2 + du[1][0] ** 2 + du[1][1] ** 2
    mu_total = mu0 if constant_mu else mu0 + mu_rem
    visc = float(np.sum(mu_total * grad_u_sq)) * grid.cell_area
    u_sq = float(np.sum(parseval_density(coeffs[IU], coeffs[IU], grid)))
    v_sq = float(np.sum(parseval_density(coeffs[IV], coeffs[IV], grid)))
    return out, visc + params.alpha * u_sq + params.beta * v_sq, phys[:NCOMP]


_MULT_CACHE: dict[tuple, np.ndarray] = {}


def linear_multipliers(grid: SpectralGrid, params: ModelParams) -> np.ndarray:
    """Diagonal stiff symbol per component: -(mu0 |k|^2 + alpha) on u, -beta on v, 0 on theta."""
    key = (grid.n, grid.box_length, params.mu0, params.alpha, params.beta)
    lam = _MULT_CACHE.get(key)
    if lam is None:
        lam = np.zeros((NCOMP,) + grid.shape_spec)
        lam[0] = lam[1] = -(params.mu0 * grid.k2 + params.alpha)
        lam[2] = lam[3] = -params.beta
        lam.setflags(write=False)
        if len(_MULT_CACHE) > 16:
            _MULT_CACHE.clear()
        _MULT_CACHE[key] = lam
    return lam


def rhs(state: TcmState, params: ModelParams) -> np.ndarray:
    """Full semi-discrete tendency (d/dt of the stacked coefficients)."""
    nl = nonlinear_tendency(state.coeffs, state.grid, params)[0]
    return nl + linear_multipliers(state.grid, params) * state.coeffs


def dissipation(state: TcmState, params: ModelParams) -> float:
    """int mu(theta)|grad u|^2 + alpha ||u||^2_{L^2} + beta ||v||^2_{L^2}."""
    return nonlinear_tendency(state.coeffs, state.grid, params)[1]


def energy(state: TcmState) -> float:
    """Half the summed L^2 norms of u, v, theta."""
    return 0.5 * float(np.sum(parseval_density(state.coeffs, state.coeffs, state.grid)))


def energy_budget_residual(state: TcmState, params: ModelParams) -> float:
    """<z, dz/dt> + dissipation; zero for the continuum, rounding-level discretely."""
    return budget_residual(state, params, nonlinear_tendency(state.coeffs, state.grid, params))


def budget_residual(state: TcmState, params: ModelParams, evaluation: Evaluation) -> float:
    """<z, N(z) + Lz> + D, read off the evaluation of this state."""
    nl, diss, _ = evaluation
    tend = nl + linear_multipliers(state.grid, params) * state.coeffs
    return float(np.sum(parseval_density(state.coeffs, tend, state.grid))) + diss


def sup_norms(phys: np.ndarray) -> dict[str, float]:
    """The L^inf norms of |u|, |v| and |theta| from their physical values."""
    return {
        "u": float(np.max(np.sqrt(phys[0] ** 2 + phys[1] ** 2))),
        "v": float(np.max(np.sqrt(phys[2] ** 2 + phys[3] ** 2))),
        "theta": float(np.max(np.abs(phys[ITH]))),
    }
