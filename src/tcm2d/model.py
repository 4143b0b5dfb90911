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

Since u is divergence-free, the transport by u is taken in divergence form,
(u.grad)u = div(u (x) u) and u.grad theta = div(u theta), and d_y u_2 is read
as -d_x u_1.  The v-transport is taken in rotational form,
(u.grad)v + (v.grad)u = grad(u.v) - u x curl v - v x curl u, which needs only
the scalar curl of v and not its four gradient components, and P div sigma is
the Biot-Savart velocity of curl div sigma, so no Leray projection is taken.
For dealiased trigonometric polynomials each of these forms is the same
Galerkin term as the advective one.  The quadratic products are summed in
physical space whenever they reach one tendency component through the same
linear operator, and only then taken through one batched forward transform:
each v-component's curl terms are one field, u.v one, u theta two, and
-v(x)v - u(x)u is folded into the viscous remainder stress
sigma = (mu(theta) - mu(0)) grad u - v(x)v - u(x)u, which enters through
sigma12, sigma21 and sigma22 - sigma11 only.  One call of
:func:`nonlinear_tendency` transforms 10 fields inverse (the state, 3 gradient
components of u, the curl of v and the viscosity remainder) and 9 forward (8
products plus the remainder), or 7 inverse (the state and the curls of u and
v) and 7 forward with the constant law, whose sigma = -v(x)v - u(x)u is
symmetric and whose mu(0) ||grad u||^2 is a Parseval sum.  That call is the
one evaluation of a state: the integrator hands it to stage 1 of the next
step, to the step bound and to the sampled record (:func:`budget_residual`,
:func:`sup_norms`).

Every state and tendency is zero in the ky columns from ``grid.band`` on, so
the integrator's hot loop works on the band columns alone, as contiguous
``(5, n, band)`` arrays: the inverse batch is built from them (a pruned
inverse, see :func:`~tcm2d.spectral.to_phys`), the tendency is one, and so are
the stiff symbol, the propagators and the if-rk4 stage vectors.  Every state
the integrator makes has that band layout; the full ``(n, n/2 + 1)``
half-spectrum layout of a :class:`TcmState` is an accepted input only.

Everything an evaluation reuses lives in a :class:`Plan`, built once per
(grid, params): the ik multipliers, the stiff diagonal symbol, the curl and
Biot-Savart multipliers of the u-tendency, the integrating-factor propagators
of the last dt and preallocated work buffers, which the tendency (including
its forward batch) and the if-rk4 stages fill with in-place ufuncs in the
order of the plain expressions, so the numbers are bitwise those of freshly
allocated arrays.
What an evaluation returns is a new array unless the caller hands it the
array to write the tendency into; the propagators are read-only views of the
plan's rows.  The bare-state helpers (:func:`rhs`, :func:`dissipation`,
:func:`energy_budget_residual`) build a plan per call.
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


# mu(theta) of each named law, given mu_lower and the gauss-bump amplitude a.
VISCOSITY_LAWS = {
    "quadratic": lambda th, mu_lower, a: mu_lower + th**2,
    "constant": lambda th, mu_lower, a: np.full_like(th, mu_lower),
    "gauss-bump": lambda th, mu_lower, a: mu_lower + a * np.exp(-(th**2)),
}


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
        if not callable(self.viscosity) and self.viscosity not in VISCOSITY_LAWS:
            raise ParamError(f"unknown viscosity law {self.viscosity!r}; choose from {tuple(VISCOSITY_LAWS)}")
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
        else:
            out = VISCOSITY_LAWS[self.viscosity](th, self.mu_lower, self.viscosity_a)
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


# Component layout of the stacked coefficient array.
IU = slice(0, 2)
IV = slice(2, 4)
ITH = 4
NCOMP = 5


@dataclass
class TcmState:
    """The (u, v, theta) triple at one instant, stored as stacked spectra.

    coeffs stacks the components [u_x, u_y, v_x, v_y, theta].  Every state
    the integrator makes has shape (5, n, grid.band), the band columns that
    are all a dealiased state has; the full (5, n, n//2 + 1) layout is an
    accepted input only.  u is kept divergence-free and all fields dealiased;
    helper properties expose the components as SpectralField views (shared memory).
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


class Plan:
    """What every evaluation on one (grid, params) pair reuses; built once per run.

    A dealiased field is zero in the ky columns from ``grid.band`` on, so
    everything here has the band's width: the multipliers (``ikx``
    broadcasts over columns; ``iky``, ``mask``, ``k2``, ``curl_div`` and
    ``biot_savart``), the stiff diagonal symbol ``linear`` (see
    :meth:`propagators`) and the work buffers that :func:`nonlinear_tendency`
    and the if-rk4 stages fill with in-place ufuncs, each contiguous: the
    spectral input of the inverse batch (9 fields, 7 with the constant law),
    whose first 5 rows ``state_rows`` hold the state evaluated, plus one
    spectral scratch row; the 7 or 8 product rows, their forward transform and
    its dealiased band; two physical scratch rows; three stage vectors; and
    the three propagator rows.  ``sobolev_tables`` memoises the
    |k|^{2 gamma} tables of the band that :class:`tcm2d.diagnostics.Spectra`
    reads for every sample of a run.

    The u-tendency P div sigma is taken as the curl of div sigma followed by
    the Biot-Savart law: ``curl_div`` maps the stress rows [sigma12, sigma21,
    sigma22 - sigma11] (or [sigma12, sigma22 - sigma11] when sigma is symmetric,
    with the constant law) to curl div sigma, and ``biot_savart`` maps a curl to
    the divergence-free velocity, (i ky, -i kx) / |k|^2.  Every one of them is
    zero at k = 0.

    A work buffer holds nothing between calls, and nothing an evaluation
    returns is a view of one unless the caller passed it as ``out``, so two
    evaluations on one plan never alias.  The propagators are read-only views
    of the plan's propagator rows, which a call with a new dt overwrites.  One
    plan serves one thread at a time.
    """

    def __init__(self, grid: SpectralGrid, params: ModelParams):
        self.grid = grid
        self.params = params
        cols = slice(0, grid.band)
        shape_band = (NCOMP, grid.n, grid.band)
        kx, ky = grid.kx, grid.ky[:, cols]
        self.ikx = 1j * kx
        self.iky = 1j * ky
        # Complex, so that masking a complex row casts nothing (the products are the same).
        self.mask = grid.dealias_mask[:, cols].astype(np.complex128)
        self.k2 = grid.k2[:, cols]
        # -(mu0 |k|^2 + alpha) on u, -beta on v, 0 on theta.
        linear = np.zeros(shape_band)
        linear[0] = linear[1] = -(params.mu0 * self.k2 + params.alpha)
        linear[2] = linear[3] = -params.beta
        linear.setflags(write=False)
        self.linear = linear
        self.constant_mu = params.viscosity == "constant"
        # curl div sigma = -kx^2 sigma21 + ky^2 sigma12 - kx ky (sigma22 - sigma11).
        kx2, ky2, kxky = kx**2, ky**2, kx * ky
        self.curl_div = (ky2 - kx2, -kxky) if self.constant_mu else (ky2, -kx2, -kxky)
        inv_k2 = grid.inv_k2[:, cols]
        self.biot_savart = (self.iky * inv_k2, -self.ikx * inv_k2)
        self._dt: float | None = None
        self._propagator_rows = np.empty((3,) + shape_band)
        self._propagators = tuple(row.view() for row in self._propagator_rows)
        for a in self._propagators:
            a.setflags(write=False)
        inverse = NCOMP + (2 if self.constant_mu else 4)
        self.spec = np.empty((inverse + 1, grid.n, grid.band), dtype=np.complex128)
        self.state_rows = self.spec[:NCOMP]
        self.prods = np.empty((5 + len(self.curl_div),) + grid.shape_phys)
        self.fwd = np.empty((len(self.prods),) + grid.shape_spec, dtype=np.complex128)
        self.band_prods = np.empty((len(self.prods), grid.n, grid.band), dtype=np.complex128)
        self.scratch = np.empty((2,) + grid.shape_phys)
        self.stages = np.empty((3,) + shape_band, dtype=np.complex128)
        self.sobolev_tables: dict[float, np.ndarray] = {}

    def propagators(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """exp(dt L), exp(dt L / 2) and twice the latter (the weight of k2 + k3 in
        the last if-rk4 stage), on the band columns, kept for the last dt only.

        A fixed dt reuses them on every step; an auto dt, a new float each
        step, recomputes them in place, so they are read-only views that hold
        the propagators of the last dt asked for.
        """
        if dt != self._dt:
            e, e2, e2x2 = self._propagator_rows
            np.exp(np.multiply(dt, self.linear, out=e), out=e)
            np.exp(np.multiply(0.5 * dt, self.linear, out=e2), out=e2)
            np.multiply(2.0, e2, out=e2x2)
            self._dt = dt
        return self._propagators


# One evaluation of a state: (nonlinear tendency, dissipation, physical fields).
Evaluation = tuple[np.ndarray, float, np.ndarray]


def nonlinear_tendency(coeffs: np.ndarray, plan: Plan, out: np.ndarray | None = None) -> Evaluation:
    """Evaluate one state: everything in the tendency except the stiff diagonal part.

    The stiff part (mu(0) Laplacian and -alpha on u, -beta on v) is left to
    the integrator.  u must be divergence-free (k . u_hat = 0 to rounding, as
    every state the integrator steps to is): the transport by u is taken in
    divergence form, div(u (x) u) and div(u theta), and d_y u_2 is read as
    -d_x u_1.  The v-transport is taken in rotational form,

        (u.grad)v + (v.grad)u = grad(u.v) - (u2 w_v + v2 w_u, -(u1 w_v + v1 w_u)),

    with w_u and w_v the scalar curls of u and v, and the Leray projection of
    div sigma as the Biot-Savart velocity of its curl (see :class:`Plan`).  For
    divergence-free, dealiased trigonometric polynomials each of these forms is
    the same Galerkin term as the advective one, so the tendency, and with it
    the discrete energy budget, agrees with the advective one to rounding.
    Returns three things:

    * the transport terms, the baroclinic tensor term, the variable-viscosity
      remainder div((mu(theta)-mu(0)) grad u) and the v<->theta coupling, all
      dealiased, with the u-tendency divergence-free and zero at k = 0, on the
      band columns: a ``(5, n, band)`` array, ``out`` if given (it must not
      overlap coeffs or a plan buffer) and a new array otherwise;
    * the instantaneous dissipation int mu |grad u|^2 + alpha ||u||^2 +
      beta ||v||^2, evaluated with the same collocation quadrature the
      products use (exact for ||u||^2 and ||v||^2 by discrete Parseval; with
      the constant law mu(0) ||grad u||^2 is the Parseval sum itself), so the
      discrete energy budget closes to rounding;
    * the physical values of [u_x, u_y, v_x, v_y, theta], shape (5, n, n), a
      view of the new array the inverse transform returned.

    Only the band columns ``coeffs[..., :grid.band]`` are read, so coeffs may
    have either width: the state must be dealiased, as the integrator keeps
    it.  A state formed in ``plan.state_rows`` is evaluated in place, with no
    copy.  The tendency is exactly zero outside the dealias mask, so a step
    keeps a dealiased state dealiased exactly.  Every entry of the tendency is
    written by an ``out=`` ufunc in the order of the plain expressions in the
    comments, so the result is bitwise that of those.
    """
    grid, params = plan.grid, plan.params
    ikx, iky, mask = plan.ikx, plan.iky, plan.mask
    constant_mu = plan.constant_mu
    cols = slice(0, grid.band)
    # The inverse batch, on the band columns: the state, then the 3 gradient
    # components of u the products need (u is divergence-free, so d_y u2 =
    # -d_x u1 is not transformed), or w_u alone with the constant law, then w_v.
    spec, t = plan.spec[:-1], plan.spec[-1]
    state = plan.state_rows
    if coeffs is not state:
        state[...] = coeffs[..., cols]
    if constant_mu:
        # spec[5] = ikx * coeffs[1] - iky * coeffs[0]
        np.multiply(ikx, state[1], out=spec[5])
        spec[5] -= np.multiply(iky, state[0], out=t)
    else:
        np.multiply(ikx, state[IU], out=spec[5:7])
        np.multiply(iky, state[0], out=spec[7])
    # spec[-1] = ikx * coeffs[3] - iky * coeffs[2]
    np.multiply(ikx, state[3], out=spec[-1])
    spec[-1] -= np.multiply(iky, state[2], out=t)
    phys = to_phys(spec, grid)
    u1, u2, v1, v2, th = phys[:NCOMP]
    w_v = phys[-1]
    s, w = plan.scratch
    prods, fwd = plan.prods, plan.fwd

    mu0 = params.mu0
    if constant_mu:
        w_u = phys[5]
    else:
        a, c, b = phys[5:8]       # d_x u1, d_x u2, d_y u1; d_y u2 = -a
        # Dealias the remainder before the product so the cubic term is formed
        # from two alias-free quadratic stages.
        rem = from_phys(np.subtract(params.mu(th), mu0, out=s), grid, out=fwd[0])
        mu_rem = to_phys(np.multiply(mask, rem[:, cols], out=t), grid)
        w_u = np.subtract(c, b, out=w)

    # Rows, each summed before the one forward transform (dealiasing and the
    # ik multipliers are linear, so only rounding changes): the two rotational
    # v-rows, q = u.v, u theta (2), and the stress sigma = mu_rem grad u -
    # v(x)v - u(x)u as sigma12, sigma21 and sigma22 - sigma11 (sigma12 = sigma21
    # when mu_rem = 0).
    # prods[0] = u2 * w_v + v2 * w_u; prods[1] = u1 * w_v + v1 * w_u
    np.multiply(u2, w_v, out=prods[0])
    prods[0] += np.multiply(v2, w_u, out=s)
    np.multiply(u1, w_v, out=prods[1])
    prods[1] += np.multiply(v1, w_u, out=s)
    # prods[2] = u1 * v1 + u2 * v2
    np.multiply(u1, v1, out=prods[2])
    prods[2] += np.multiply(u2, v2, out=s)
    np.multiply(u1, th, out=prods[3])
    np.multiply(u2, th, out=prods[4])
    # w = v1 * v2 + u1 * u2; diff = v1 * v1 + u1 * u1 - v2 * v2 - u2 * u2
    np.multiply(v1, v2, out=w)
    w += np.multiply(u1, u2, out=s)
    diff = prods[-1]
    np.multiply(v1, v1, out=diff)
    diff += np.multiply(u1, u1, out=s)
    diff -= np.multiply(v2, v2, out=s)
    diff -= np.multiply(u2, u2, out=s)
    if constant_mu:
        np.negative(w, out=prods[5])  # sigma12 = sigma21
    else:
        # prods[5] = mu_rem * b - w; prods[6] = mu_rem * c - w; diff -= 2 * (mu_rem * a)
        np.multiply(mu_rem, b, out=prods[5])
        prods[5] -= w
        np.multiply(mu_rem, c, out=prods[6])
        prods[6] -= w
        diff -= np.multiply(2.0, np.multiply(mu_rem, a, out=s), out=s)
    # The dealiased band of the forward batch, in a contiguous buffer:
    # p = mask * fwd[..., cols].
    p = plan.band_prods
    np.copyto(p, from_phys(prods, grid, out=fwd)[..., cols])
    p *= mask

    # The inverse batch has been taken: the rows of spec after the state are
    # free as scratch.  Each tendency row is written whole, once.
    curl, g = spec[NCOMP], spec[NCOMP + 1]
    tend = np.empty(plan.linear.shape, dtype=np.complex128) if out is None else out
    # u: the Biot-Savart velocity of curl div sigma.
    np.multiply(plan.curl_div[0], p[5], out=curl)
    for mult, row in zip(plan.curl_div[1:], p[6:]):
        curl += np.multiply(mult, row, out=t)
    np.multiply(plan.biot_savart[0], curl, out=tend[0])
    np.multiply(plan.biot_savart[1], curl, out=tend[1])
    # v: grad(theta - q) + (prods[0], -prods[1]).
    np.subtract(state[ITH], p[2], out=g)
    np.add(np.multiply(ikx, g, out=t), p[0], out=tend[2])
    np.subtract(np.multiply(iky, g, out=t), p[1], out=tend[3])
    # theta: div(v - u theta) = ikx * (coeffs[2] - p[3]) + iky * (coeffs[3] - p[4]).
    np.multiply(ikx, np.subtract(state[2], p[3], out=g), out=g)
    np.add(g, np.multiply(iky, np.subtract(state[3], p[4], out=t), out=t), out=tend[ITH])

    # ||u||^2 and ||v||^2 on the grid, into the product rows the forward batch has freed.
    sq = np.square(phys[:4], out=prods[:4])
    u_sq, v_sq = float(np.sum(sq[IU])), float(np.sum(sq[IV]))
    if constant_mu:
        # mu0 ||grad u||^2 = mu0 sum |k|^2 |u_hat|^2, by Parseval.
        visc = mu0 * float(np.sum(plan.k2 * parseval_density(state[IU], state[IU], grid)))
        return tend, visc + (params.alpha * u_sq + params.beta * v_sq) * grid.cell_area, phys[:NCOMP]
    # int (mu0 + mu_rem) (2 a^2 + b^2 + c^2), with grad_u_sq in w.
    grad_u_sq = np.multiply(2.0, np.square(a, out=w), out=w)
    grad_u_sq += np.square(b, out=s)
    grad_u_sq += np.square(c, out=s)
    visc = float(np.sum(np.multiply(np.add(mu0, mu_rem, out=s), grad_u_sq, out=grad_u_sq)))
    return tend, (visc + params.alpha * u_sq + params.beta * v_sq) * grid.cell_area, phys[:NCOMP]


def rhs(state: TcmState, params: ModelParams) -> np.ndarray:
    """Full semi-discrete tendency (d/dt of the stacked coefficients), in the layout of state.coeffs."""
    plan = Plan(state.grid, params)
    z = state.coeffs[..., : state.grid.band]
    out = np.zeros_like(state.coeffs)
    out[..., : state.grid.band] = nonlinear_tendency(state.coeffs, plan)[0] + plan.linear * z
    return out


def dissipation(state: TcmState, params: ModelParams) -> float:
    """int mu(theta)|grad u|^2 + alpha ||u||^2_{L^2} + beta ||v||^2_{L^2}."""
    return nonlinear_tendency(state.coeffs, Plan(state.grid, params))[1]


def energy(state: TcmState) -> float:
    """Half the summed L^2 norms of u, v, theta."""
    return 0.5 * float(np.sum(parseval_density(state.coeffs, state.coeffs, state.grid)))


def energy_budget_residual(state: TcmState, params: ModelParams) -> float:
    """<z, dz/dt> + dissipation; zero for the continuum, rounding-level discretely."""
    plan = Plan(state.grid, params)
    return budget_residual(state, plan, nonlinear_tendency(state.coeffs, plan))


def budget_residual(state: TcmState, plan: Plan, evaluation: Evaluation) -> float:
    """<z, N(z) + Lz> + D, read off the evaluation of this state, on the band columns."""
    nl, diss, _ = evaluation
    z = state.coeffs[..., : state.grid.band]
    tend = nl + plan.linear * z
    return float(np.sum(parseval_density(z, tend, state.grid))) + diss


def sup_norms(phys: np.ndarray) -> dict[str, float]:
    """The L^inf norms of |u|, |v| and |theta| from their physical values."""
    return {
        "u": float(np.max(np.sqrt(phys[0] ** 2 + phys[1] ** 2))),
        "v": float(np.max(np.sqrt(phys[2] ** 2 + phys[3] ** 2))),
        "theta": float(np.max(np.abs(phys[ITH]))),
    }
