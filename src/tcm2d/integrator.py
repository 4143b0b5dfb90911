"""Time integration of the coupled system.

The stiff diagonal part of the tendency (mu(0) Laplacian and -alpha on u,
-beta on v) is handled exactly by an integrating factor; advection, the
baroclinic tensor term, the variable-viscosity remainder, and the v<->theta
coupling stay explicit.  Two steppers are provided:

* ``if-rk4``: classical RK4 in the integrating-factor (Lawson) variables --
  exact on the stiff part, fourth order on the explicit part.
* ``imex-euler``: implicit Euler on the stiff diagonal, explicit Euler on the
  rest.  First order; kept as an independent reference path for
  cross-validation.  The explicit v<->theta coupling limits it to
  dt <~ beta / kmax^2, well below the if-rk4 stability bound.

Alongside the state, each step accumulates the time integral of the
dissipation with the same RK4 stage weights, so the cumulative energy budget
can be checked at the integrator's own order of accuracy.

:func:`run` builds one :class:`~tcm2d.model.Plan` for the run and evaluates
each state it visits once, right after the step that made it, into one
tendency buffer that the run owns: its tendency and dissipation are stage 1
of the next :func:`step`, so an if-rk4 step costs four tendency evaluations,
and :func:`stable_dt` and the sink read the rest of it, so neither evaluates
mu(theta) or transforms anything.  Every state, stage vector and tendency is
zero outside the dealiased band of ky columns
(:attr:`~tcm2d.spectral.SpectralGrid.band`), so each is a contiguous
``(5, n, band)`` array, the one layout of a :class:`~tcm2d.model.TcmState`.
An if-rk4 step forms each stage state in the plan's state rows, where the
tendency evaluates it without a copy, writes stages 2-4 into the plan's stage
vectors and applies the plan's propagators, which a fixed dt reuses on every
step; neither stage 1 nor the state stepped from is written to, and the new
state is a new band array.

A stepped state is exactly zero outside the dealias mask and its u is
divergence-free to rounding, by construction and with no per-step repair: the
tendency is dealiased with a Biot-Savart u-part, and the propagators scale
u_1 and u_2 of a mode alike.  :func:`run` checks its initial state once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .model import BlowUpError, Evaluation, ModelParams, Plan, TcmState, nonlinear_tendency

DT_FLOOR = 1e-8


class DtFloorError(RuntimeError):
    """The auto step bound fell to DT_FLOOR: the run stops rather than step at the floor."""

    def __init__(self, time: float):
        super().__init__(f"auto dt fell to its floor {DT_FLOOR:g} at t = {time:.6g}")
        self.time = time


SCHEMES = ("if-rk4", "imex-euler")


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping controls.

    dt may be a positive float or "auto", in which case the CFL-style bound of
    :func:`stable_dt` is re-evaluated every step.  Because the stiff diagonal
    is integrated exactly, the bound involves only advective speeds, the
    viscosity remainder, the damping rates, and the coupling gradient.  That
    bound is the if-rk4 one: imex-euler needs dt <~ beta / kmax^2, far below
    it, so "auto" is rejected for imex-euler and a fixed dt is required.
    """

    t_end: float
    dt: Union[float, str] = "auto"
    cfl: float = 0.5
    sample_every: float = 1.0
    scheme: str = "if-rk4"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ValueError(f"dt must be a positive number or 'auto', got {self.dt!r}")
            if self.scheme == "imex-euler":
                raise ValueError("dt 'auto' gives the if-rk4 step bound; imex-euler needs a fixed dt <~ beta / kmax^2")
        elif not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if not self.sample_every > 0:
            raise ValueError(f"sample_every must be > 0, got {self.sample_every}")


def stable_dt(plan: Plan, evaluation: Evaluation, cfl: float = 0.5) -> float:
    """Explicit-part step bound of an evaluated state.

    dt = cfl / ( kmax (|u|_inf + |v|_inf) + kmax^2 max|mu(theta) - mu(0)|
                 + beta + alpha + kmax ),

    the trailing kmax covering the grad-theta / div-v coupling.  kmax is the
    largest dealiased |k|.  The sup norms and the viscosity deviation are the
    evaluation's ``linf`` and ``mu_dev`` (see :class:`~tcm2d.model.Evaluation`).
    The result is floored at DT_FLOOR; :func:`run` stops with
    :class:`DtFloorError` there.
    """
    params = plan.params
    kmax = plan.grid.kmax_dealiased
    sup = evaluation.linf
    denom = kmax * (sup["u"] + sup["v"]) + kmax**2 * evaluation.mu_dev + params.beta + params.alpha + kmax
    return max(cfl / denom, DT_FLOOR)


def step(state: TcmState, plan: Plan, dt: float, stage1: tuple, scheme: str = "if-rk4") -> tuple[TcmState, float]:
    """Advance one step from stage1, the state's (tendency, dissipation); returns (new state, dissipation integral).

    The new state's coefficients are a new ``(5, n, band)`` array; neither stage1 nor state.coeffs
    is written to.  A dealiased state with divergence-free u steps to one: dealiased exactly,
    divergence-free to rounding.
    """
    z0 = state.coeffs
    if scheme == "if-rk4":
        z1, diss_int = _ifrk4(z0, plan, dt, stage1)
    elif scheme == "imex-euler":
        z1, diss_int = _imex_euler(z0, plan, dt, stage1)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    t1 = state.time + dt
    if not np.all(np.isfinite(z1)):
        raise BlowUpError(t1)
    return TcmState(state.grid, z1, t1), diss_int


def _ifrk4(z0: np.ndarray, plan: Plan, dt: float, stage1: tuple) -> tuple[np.ndarray, float]:
    E, E2, E2x2 = plan.propagators(dt)
    # The stage state z is formed in the plan's state rows, which the tendency
    # evaluates in place; k2 and k3 (then k2 + k3) and k3 (then k4) are
    # written into two stage vectors and E z0 into the third, which first
    # holds E2 z0; z is the accumulator of the final combination.  Each line
    # keeps the operation order of the expression in its comment.
    z = plan.state_rows
    k2, k3, ez0 = plan.stages

    # Each stage keeps its tendency and dissipation only, not its physical fields.
    k1, d1 = stage1
    # za = E2 * (z0 + (0.5 * dt) * k1)
    np.multiply(E2, np.add(z0, np.multiply(0.5 * dt, k1, out=z), out=z), out=z)
    d2 = nonlinear_tendency(z, plan, out=k2).dissipation
    # zb = E2 * z0 + (0.5 * dt) * k2
    np.add(np.multiply(E2, z0, out=ez0), np.multiply(0.5 * dt, k2, out=z), out=z)
    d3 = nonlinear_tendency(z, plan, out=k3).dissipation
    # zc = E * z0 + dt * (E2 * k3)
    np.add(np.multiply(E, z0, out=ez0), np.multiply(dt, np.multiply(E2, k3, out=z), out=z), out=z)
    k2 += k3
    k4 = k3
    d4 = nonlinear_tendency(z, plan, out=k4).dissipation

    # z1 = E * z0 + (dt / 6.0) * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)
    acc = np.multiply(E, k1, out=z)
    acc += np.multiply(E2x2, k2, out=k2)
    acc += k4
    z1 = ez0 + np.multiply(dt / 6.0, acc, out=acc)
    return z1, (dt / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)


def _imex_euler(z0: np.ndarray, plan: Plan, dt: float, stage1: tuple) -> tuple[np.ndarray, float]:
    nl, d0 = stage1
    return (z0 + dt * nl) / (1.0 - dt * plan.linear), dt * d0


Sink = Callable[[TcmState, Plan, float, float, Evaluation], None]


def run(
    initial: TcmState,
    params: ModelParams,
    stepper: StepperConfig,
    sink: Sink | None = None,
) -> TcmState:
    """Integrate to t_end, invoking ``sink(state, plan, dt, diss_integral, evaluation)``
    at the sampling cadence (always at the start and at t_end).

    With dt "auto", a step bound at DT_FLOOR raises :class:`DtFloorError`
    instead of taking that step: the sink has seen the initial state, and
    the run stops at the last state it reached.

    plan is the run's :class:`~tcm2d.model.Plan`, built here once;
    diss_integral is the running integral of the dissipation since the start
    of the run, accumulated with the stepper's own stage weights; evaluation
    is the state's :func:`~tcm2d.model.nonlinear_tendency`, whose tendency and
    dissipation are the next step's stage 1; its tendency is the run's band
    buffer, which the next evaluation overwrites, so a sink that keeps it
    keeps a copy.  The run copies the initial state once, zeroes that copy
    outside the dealias mask (a no-op on a dealiased state) and raises
    ValueError for a u with max |k . u_hat| > 1e-12 max |k| |u_hat|.  Every
    state the sink sees, and the one returned, is then the run's own state,
    with read-only coefficients: the next step reads it, so a sink cannot
    change the trajectory.  Deterministic for fixed inputs.
    """
    grid = initial.grid
    plan = Plan(grid, params)
    cols = slice(0, grid.band)
    state = TcmState(grid, initial.coeffs.copy(), initial.time)
    state.coeffs[:, ~grid.dealias_mask[:, cols]] = 0.0
    state.coeffs.flags.writeable = False
    u = state.coeffs[:2]
    k_dot_u = np.max(np.abs(grid.kx * u[0] + grid.ky[:, cols] * u[1]))
    if k_dot_u > 1e-12 * np.max(grid.kmag[:, cols] * np.sqrt(np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2)):
        raise ValueError(f"initial u is not divergence-free: max |k . u_hat| = {k_dot_u:.3g}")
    t_end = initial.time + stepper.t_end
    diss_int = 0.0
    auto = stepper.dt == "auto"
    # Every evaluation of the run writes its tendency here; a step reads it as stage 1.
    tendency = np.empty(plan.linear.shape, dtype=np.complex128)
    evaluation = nonlinear_tendency(state.coeffs, plan, out=tendency)
    dt = stable_dt(plan, evaluation, stepper.cfl) if auto else float(stepper.dt)
    if sink is not None:
        sink(state, plan, dt, diss_int, evaluation)
    t0, every = initial.time, stepper.sample_every
    next_sample = t0 + every
    eps = 1e-12 * max(1.0, abs(t_end))
    while state.time < t_end - eps:
        if auto and dt <= DT_FLOOR:
            raise DtFloorError(state.time)
        dt_step = min(dt, t_end - state.time)
        # The physical fields have had their last reader: free them before the step.
        stage1 = (evaluation.tendency, evaluation.dissipation)
        del evaluation
        state, w = step(state, plan, dt_step, stage1, stepper.scheme)
        state.coeffs.flags.writeable = False
        evaluation = nonlinear_tendency(state.coeffs, plan, out=tendency)
        diss_int += w
        done = state.time >= t_end - eps
        if state.time >= next_sample - eps or done:
            if sink is not None:
                sink(state, plan, dt_step, diss_int, evaluation)
            # The first sample time past this one, counted in whole intervals from t0.
            next_sample = t0 + (math.floor((state.time + eps - t0) / every) + 1) * every
        # The bound of a state is taken once, and only for a state that is stepped from.
        if auto and not done:
            dt = stable_dt(plan, evaluation, stepper.cfl)
    return state
