"""Energy diagnostics: Sobolev norms, stability functionals, decay fitting.

Two functional families are evaluated on states.  The Lyapunov pair (A, B)
tracks stability at a Sobolev order m: A combines the mth-order norms of all
three fields with a small cross term -eta * int Lambda^{m-1} v . Lambda^{m-1}
grad theta (plus its order-1 twin) that manufactures temperature damping; B is
the matching dissipation functional weighted by the uniform constant lam.
The decay pair (X, Y) additionally carries the (m-1)-order norms and the
kappa-weighted cross term; X^2 is nonincreasing in time on well-resolved
small-data runs and the discrete trajectory is checked against that shadow.

The B functional exists in two variants that differ in the theta slot
(||grad theta||_{H^{m-1}} versus ||Lambda^m theta||) and in the u slot
(nonhomogeneous versus homogeneous gradient norm); both are computed and
labeled, never conflated.

Every quadratic quantity here is one Parseval sum.  :class:`Spectra` fills
four power rows per state (the per-mode power of u, v and theta, from
:func:`tcm2d.spectral.mode_products`, and the v . grad theta pairing); every
norm, cross term and L^2 sum is the sum of one power row against one weight
row, |k|^{2 gamma} times the Parseval weight, all over the band columns of
the state.  The weight rows are the grid's
(:meth:`tcm2d.spectral.SpectralGrid.weight_row`), each built on the first
ask of its order and kept, so set-up's smallness norm and every record of the
run, which share one grid, build each order once.  A Spectra contracts the
row of an order with its four power rows on the first ask of that order.
:func:`compute_record` builds one Spectra per sample, in the plan's work
buffer; the energy is half its L^2 sums.  A Spectra is the one way to a
state's functionals: a caller outside a record, set-up's rescale among them,
builds one of its own and names the order, and gets the record's values
exactly.  The budget residual, the dissipation and the L^inf norms are read
off the state's evaluation
(:class:`tcm2d.model.Evaluation`), so a record transforms nothing and takes
no stiff Parseval sum of its own.

A record is laid out once: :func:`record_schema` reads the ordered columns off
the :class:`DiagnosticsRecord` fields, and the CSV header, the CSV row and the
JSONL object are all derived from that one list.

Decay exponents are least-squares slopes of log(norm) against log(1 + t),
compared against the theoretical rate table of :func:`theory_exponent`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from .model import Evaluation, ModelParams, Plan, TcmState, budget_residual
from .spectral import carve, mode_products


class DiagnosticsError(RuntimeError):
    """An energy-functional consistency check failed."""


class DecayFitError(ValueError):
    """The requested decay fit is ill-posed (window, sample count, signs)."""


FIELDS = ("u", "v", "theta")
MAX_FUNCTIONAL_ORDER = 4.0  # high orders amplify round-off near the dealias cutoff

# The rows of Spectra.power: the per-mode power of each field, then the pairing.
POWER_ROWS = {"u": 0, "v": 1, "theta": 2, "pairing": 3}

# The key of the L^2 weight row (see tcm2d.spectral.SpectralGrid.weight_row).
L2 = None


class Spectra:
    """The per-mode power of one state, from which every quadratic quantity is one weighted sum.

    ``power`` holds four rows over the n band modes of the state (its one
    layout, see :class:`~tcm2d.model.TcmState`): the power of u, v and theta
    (components summed) and the v . grad theta pairing
    Im((k . v) conj theta).  Every norm, cross term and L^2 sum is the sum of
    one power row against one weight row of the state's grid
    (:meth:`~tcm2d.spectral.SpectralGrid.weight_row`): the first ask of an
    order contracts its row with the four power rows and keeps the four
    sums, so a value does not depend on which others were asked for.  A, B,
    X and Y are the functionals at an explicit order m, and smallness is the
    norm sum at the base index s of the params.

    ``work``, if given, is a flat float buffer of at least 8 n band entries
    that holds the power rows and their scratch (the plan's work buffer for a
    record, where they last until the plan's next use of it); without it
    they are arrays of their own, and the scratch is freed on return.
    """

    def __init__(self, state: TcmState, work: np.ndarray | None = None):
        g, c = state.grid, state.coeffs
        n, band = g.n, g.band
        self.grid = g
        size = n * band
        if work is None:
            power, rest = np.empty((4, n, band)), np.empty(4 * size)
        else:
            power, rest = work[: 4 * size].reshape(4, n, band), work[4 * size :]
        # Each field's power, the sum of its components' powers; one field at
        # a time, so that the scratch is that of two components.
        for row, comps in ((power[0], c[0:2]), (power[1], c[2:4])):
            power_c = mode_products(comps, comps, rest)
            np.add(power_c[0], power_c[1], out=row)
        theta = c[4]
        np.copyto(power[2], mode_products(theta, theta, rest))
        # pairing = Re(v . conj(i k theta)) = kx Im(v1 conj theta) + ky Im(v2 conj theta);
        # einsum scales by kx and ky without numpy's broadcasting buffer.
        im1, im2, t = carve(rest, (n, band), (n, band), (n, band))
        for part, v in ((im1, c[2]), (im2, c[3])):
            np.multiply(v.imag, theta.real, out=part)
            part -= np.multiply(v.real, theta.imag, out=t)
        pairing = power[3]
        np.einsum("j,jk->jk", g.kx[:, 0], im1, out=pairing)
        pairing += np.einsum("k,jk->jk", g.ky[0, :band], im2, out=t)
        self.power = power
        self._sums: dict[float | None, list[float]] = {}

    def _contract(self, row: np.ndarray) -> list[float]:
        """The sums of one weight row against the four power rows.

        numpy's einsum, not BLAS: each sum runs over the modes in one order,
        whatever the number of BLAS threads.
        """
        return np.einsum("jk,rjk->r", row, self.power).tolist()

    def _sums_at(self, gamma: float | None) -> list[float]:
        sums = self._sums.get(gamma)
        if sums is None:
            sums = self._sums[gamma] = self._contract(self.grid.weight_row(gamma))
        return sums

    def energy(self) -> float:
        """Half the summed L^2 norms of u, v and theta."""
        l2 = self._sums_at(L2)
        return 0.5 * (l2[0] + l2[1] + l2[2])

    def hom_sq(self, fieldname: str, gamma: float) -> float:
        """Squared homogeneous norm ||Lambda^gamma field||^2 (components summed)."""
        return self._sums_at(gamma)[POWER_ROWS[fieldname]]

    def hs_sq(self, fieldname: str, s: float) -> float:
        """Nonhomogeneous ||field||_{H^s}^2 = L^2 part plus homogeneous part."""
        return self._sums_at(L2)[POWER_ROWS[fieldname]] + self.hom_sq(fieldname, s)

    def field_norm(self, fieldname: str, gamma: float) -> float:
        """||Lambda^gamma field||_{L^2} over k != 0, components summed in quadrature."""
        return math.sqrt(self.hom_sq(fieldname, gamma))

    def cross_term(self, order: float) -> float:
        """int Lambda^{order-1} v . Lambda^{order-1} grad theta."""
        if order < 1:
            raise DiagnosticsError(f"cross-term order must be >= 1, got {order}")
        return self._sums_at(order - 1.0)[POWER_ROWS["pairing"]]

    def cross_free_sum_A(self, params: ModelParams, m: float) -> float:
        """The squared-norm sum entering A without its cross terms."""
        return (
            self.hom_sq("u", m)
            + self.hom_sq("u", float(params.delta1))
            + self.hs_sq("v", m)
            + self.hs_sq("theta", m)
        )

    def A(self, params: ModelParams, m: float) -> float:
        """Lyapunov stability functional at order m.

        sqrt of ||Lambda^m u||^2 + ||Lambda^{delta1} u||^2 + ||v||_{H^m}^2
        + ||theta||_{H^m}^2 minus eta times the order-m and order-1 cross
        terms.  The radicand is checked against the (3/4)-equivalence band
        before rooting.
        """
        ssum = self.cross_free_sum_A(params, m)
        rad = ssum - params.eta * (self.cross_term(m) + self.cross_term(1.0))
        if rad < 0.75 * ssum - 1e-12 * max(ssum, 1.0):
            raise DiagnosticsError(
                f"A-functional radicand {rad:.6g} fell below 3/4 of the norm sum {ssum:.6g}; eta bound violated"
            )
        return math.sqrt(max(rad, 0.0))

    def B(self, params: ModelParams, m: float, theta_slot: str = "lambda_m") -> float:
        """Dissipation functional at order m, weighted by lam.

        theta_slot = "lambda_m":  lam * sqrt(||grad u||_{Hdot^m}^2 + ||v||_{H^m}^2
                                             + ||Lambda^m theta||^2)
        theta_slot = "grad_hm1":  lam * sqrt(||grad u||_{H^m}^2 + ||v||_{H^m}^2
                                             + ||grad theta||_{H^{m-1}}^2)

        The two variants differ in the theta slot and in whether the u
        gradient norm carries its low-order part; they are never conflated.
        """
        v_sq = self.hs_sq("v", m)
        if theta_slot == "lambda_m":
            rad = self.hom_sq("u", m + 1.0) + v_sq + self.hom_sq("theta", m)
        elif theta_slot == "grad_hm1":
            grad_u_sq = self.hom_sq("u", 1.0) + self.hom_sq("u", m + 1.0)
            grad_th_sq = self.hom_sq("theta", 1.0) + self.hom_sq("theta", m)
            rad = grad_u_sq + v_sq + grad_th_sq
        else:
            raise DiagnosticsError(f"theta_slot must be 'lambda_m' or 'grad_hm1', got {theta_slot!r}")
        return params.lam * math.sqrt(rad)

    def cross_free_sum_X(self, m: float) -> float:
        """The squared-norm sum entering X without its cross term."""
        return sum(self.hom_sq(name, order) for name in FIELDS for order in (m, m - 1.0))

    def X(self, params: ModelParams, m: float) -> float:
        """Decay Lyapunov functional: order-m and order-(m-1) norms with the kappa cross term."""
        if not m > 1:
            raise DiagnosticsError(f"X-functional order must be > 1, got {m}")
        rad = self.cross_free_sum_X(m) - params.kappa * self.cross_term(m)
        if rad < 0:
            raise DiagnosticsError(
                f"X-functional radicand {rad:.6g} negative at order {m}; kappa bound violated"
            )
        return math.sqrt(rad)

    def Y(self, params: ModelParams, m: float) -> float:
        """Dissipation counterpart of X."""
        rad = (
            self.hom_sq("u", m + 1.0)
            + self.hom_sq("u", m)
            + params.alpha * self.hom_sq("u", m - 1.0)
            + self.hom_sq("v", m)
            + self.hom_sq("v", m - 1.0)
            + self.hom_sq("theta", m)
        )
        return math.sqrt(rad)

    def smallness(self, params: ModelParams) -> float:
        """The norm sum the small-data hypotheses bound by epsilon, at the base index s.

        Undamped: ||u||_{H^s} + ||v||_{H^s} + ||theta||_{H^s}.
        Damped:   ||u||_{Hdot^s cap Hdot^1} + ||v||_{H^s} + ||theta||_{H^s}.
        """
        s = params.s
        u_sq = self.hs_sq("u", s) if params.delta1 == 0 else self.hom_sq("u", s) + self.hom_sq("u", 1.0)
        return math.sqrt(u_sq) + math.sqrt(self.hs_sq("v", s)) + math.sqrt(self.hs_sq("theta", s))


def theory_exponent(fieldname: str, gamma: float, damped: bool) -> float:
    """Theoretical decay exponent of log||Lambda^gamma field|| vs log(1+t).

    Undamped: u -> -gamma/2, v -> -(gamma+1)/2, theta -> -gamma/2.
    Damped:   u -> -(gamma+4)/2, v and theta unchanged.
    """
    if gamma < 0:
        raise DiagnosticsError(f"gamma must be >= 0, got {gamma}")
    if fieldname == "u":
        return -(gamma + 4.0) / 2.0 if damped else -gamma / 2.0
    if fieldname == "v":
        return -(gamma + 1.0) / 2.0
    if fieldname == "theta":
        return -gamma / 2.0
    raise DiagnosticsError(f"unknown field {fieldname!r}")


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay exponent of one norm series, its r^2 and the number of samples in the window.
    The field, the order and the window are the caller's, which reports them beside these."""

    exponent: float
    r_squared: float
    n_samples: int


def default_fit_window(t_end: float) -> tuple[float, float]:
    """The fit window [t_end/4, 3 t_end/4] used when none is given."""
    return (t_end / 4.0, 3.0 * t_end / 4.0)


def decay_fit(series: Sequence[tuple[float, float]], window: tuple[float, float]) -> DecayFit:
    """Least-squares slope of log(value) against log(1 + t) over the window.

    A non-finite time anywhere in the series, t0 >= t1, fewer than 8 samples in
    the window or a nonpositive or non-finite value in it is a DecayFitError.
    """
    if not all(math.isfinite(t) for t, _ in series):
        raise DecayFitError("non-finite times in the series")
    t0, t1 = window
    if not t0 < t1:
        raise DecayFitError(f"window must satisfy t0 < t1, got {window}")
    pts = [(t, v) for t, v in series if t0 <= t <= t1]
    if len(pts) < 8:
        raise DecayFitError(f"need >= 8 samples in the window, got {len(pts)}")
    if any(v <= 0 for _, v in pts):
        raise DecayFitError("nonpositive values in the fit window")
    if not all(math.isfinite(v) for _, v in pts):
        raise DecayFitError("non-finite values in the fit window")
    x = np.log1p([t for t, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - float(np.sum(resid**2)) / ss_tot)
    return DecayFit(float(slope), min(r2, 1.0), len(pts))


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Which norms and functional orders a run records."""

    norms: tuple[tuple[str, float], ...] = (
        ("u", 0.0),
        ("u", 1.0),
        ("v", 0.0),
        ("v", 1.0),
        ("theta", 0.0),
        ("theta", 1.0),
    )
    functional_orders: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # Each entry names its own columns; two entries with one name would collide.
        for f, g in self.norms:
            if f not in FIELDS:
                raise ValueError(f"norms field must be u, v, or theta, got {f!r}")
            if not g >= 0:
                raise ValueError(f"norms gamma must be >= 0, got {g}")
            if g == math.inf:
                raise ValueError("norms gamma must be finite, got inf")
        columns = [norm_column(f, g) for f, g in self.norms]
        if len(set(columns)) != len(columns):
            raise ValueError(f"norms entries must be distinct, got {columns}")
        for m in self.functional_orders:
            if not 1 < m <= MAX_FUNCTIONAL_ORDER:
                raise ValueError(f"functional_orders entries must be numbers in (1, {MAX_FUNCTIONAL_ORDER}], got {m}")
        labels = [f"{m:g}" for m in self.functional_orders]
        if len(set(labels)) != len(labels):
            raise ValueError(f"functional_orders entries must be distinct, got {labels}")


@dataclass
class DiagnosticsRecord:
    """One per-sample bundle of norms, functionals, cross terms, and budget data.

    The field order is the output order (see :func:`record_schema`).
    """

    time: float
    norms: dict[tuple[str, float], float]
    A_m: float
    B_m: float
    X_m: float
    Y_m: float
    cross_s: float
    cross_1: float
    budget_residual: float
    B_m_gradtheta: float
    smallness: float
    energy: float
    dissipation: float
    diss_integral: float
    band_A: float          # cross-free sum / A^2
    band_X: float          # cross-free sum / X^2
    dt: float
    linf: dict[str, float]
    extra_orders: dict[float, tuple[float, float, float, float]] = field(default_factory=dict)


# The functionals of each DiagnosticsRecord.extra_orders tuple, in order.
ORDER_FUNCTIONALS = ("A_m", "B_m", "X_m", "Y_m")


def compute_record(
    state: TcmState,
    plan: Plan,
    config: DiagnosticsConfig,
    dt: float,
    diss_integral: float,
    evaluation: Evaluation,
) -> DiagnosticsRecord:
    """Every value of one sample, from the spectra of the state and its evaluation on plan.

    The power rows fill the plan's work buffer, and each order they are
    summed against is one contraction with the grid's weight row of that
    order, which the run's first record (or set-up) built.  So a record
    after the first allocates no array of the band's or the grid's size.
    """
    params = plan.params
    residual = budget_residual(state, plan, evaluation)
    spectra = Spectra(state, plan.work)
    m0 = config.functional_orders[0] if config.functional_orders else params.s
    a = spectra.A(params, m0)
    x = spectra.X(params, m0)
    return DiagnosticsRecord(
        time=state.time,
        norms={(f, gm): spectra.field_norm(f, gm) for f, gm in config.norms},
        A_m=a,
        B_m=spectra.B(params, m0, theta_slot="lambda_m"),
        X_m=x,
        Y_m=spectra.Y(params, m0),
        cross_s=spectra.cross_term(m0),
        cross_1=spectra.cross_term(1.0),
        budget_residual=residual,
        B_m_gradtheta=spectra.B(params, m0, theta_slot="grad_hm1"),
        smallness=spectra.smallness(params),
        energy=spectra.energy(),
        dissipation=evaluation.dissipation,
        diss_integral=diss_integral,
        band_A=spectra.cross_free_sum_A(params, m0) / a**2 if a > 0 else 1.0,
        band_X=spectra.cross_free_sum_X(m0) / x**2 if x > 0 else 1.0,
        dt=dt,
        linf=evaluation.linf,
        extra_orders={
            m: (spectra.A(params, m), spectra.B(params, m), spectra.X(params, m), spectra.Y(params, m))
            for m in config.functional_orders[1:]
        },
    )


def norm_column(fieldname: str, gamma: float) -> str:
    return f"{fieldname}_gamma_{gamma:g}"


class Column(NamedTuple):
    """One value of a record: its CSV header, its key path in the JSONL object, its getter."""

    name: str
    path: tuple[str, ...]
    get: Callable[[DiagnosticsRecord], float]


def record_schema(config: DiagnosticsConfig) -> list[Column]:
    """The one ordered description of a record, read off the DiagnosticsRecord fields.

    ``time`` is the column ``t``; ``norms``, ``linf`` and ``extra_orders`` expand
    to one column per tracked norm, per field, and per extra-order functional.
    """
    cols = []
    for fld in fields(DiagnosticsRecord):
        if fld.name == "time":
            cols.append(Column("t", ("t",), attrgetter("time")))
        elif fld.name == "norms":
            cols += [
                Column(norm_column(*key), ("norms", norm_column(*key)), lambda r, key=key: r.norms[key])
                for key in config.norms
            ]
        elif fld.name == "linf":
            cols += [Column(f"linf_{f}", ("linf", f), lambda r, f=f: r.linf[f]) for f in FIELDS]
        elif fld.name == "extra_orders":
            cols += [
                Column(f"{name}_{m:g}", ("extra_orders", f"{m:g}", name), lambda r, m=m, i=i: r.extra_orders[m][i])
                for m in config.functional_orders[1:]
                for i, name in enumerate(ORDER_FUNCTIONALS)
            ]
        else:
            cols.append(Column(fld.name, (fld.name,), attrgetter(fld.name)))
    return cols


class CsvWriter:
    """One diagnostics row per sample; floats use shortest round-trip repr."""

    def __init__(self, fh: IO[str], schema: Sequence[Column]):
        self._fh = fh
        self._schema = schema
        fh.write(",".join(col.name for col in schema) + "\n")

    def write(self, rec: DiagnosticsRecord) -> None:
        self._fh.write(",".join(repr(float(col.get(rec))) for col in self._schema) + "\n")


class JsonlWriter:
    """One JSON object per sample, each schema column at its key path."""

    def __init__(self, fh: IO[str], schema: Sequence[Column]):
        self._fh = fh
        self._schema = schema

    def write(self, rec: DiagnosticsRecord) -> None:
        obj: dict = {}
        for col in self._schema:
            *parents, leaf = col.path
            node = obj
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = col.get(rec)
        self._fh.write(json.dumps(obj) + "\n")
