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

Every quadratic quantity here is one Parseval sum.  :class:`Spectra` takes
the per-mode power of u, v and theta and the v . grad theta pairing once per
state through the single kernel :func:`tcm2d.spectral.parseval_density`, and
builds each |k|^{2 gamma} table once per exponent; a norm, cross term or
functional is then a sum of table x power.  The exported ``functional_*``,
``cross_term`` and ``smallness_norm`` build a Spectra for one call, on the
full width of the state they are given, while :func:`compute_record` builds
one per sample on the dealiased band columns, with the run's tables memoised
on its :class:`~tcm2d.model.Plan`, and evaluates everything on it; the energy
is half its L^2 sums.  The budget residual, the dissipation and the L^inf
norms are read off the state's evaluation
(:func:`tcm2d.model.nonlinear_tendency`), so a record transforms nothing.

A record is laid out once: :func:`record_schema` reads the ordered columns off
the :class:`DiagnosticsRecord` fields, and the CSV header, the CSV row and the
JSONL object are all derived from that one list.

Decay exponents are least-squares slopes of log(norm) against log(1 + t),
compared against the theoretical rate table of :func:`theory_exponent`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from operator import attrgetter
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from .model import ITH, IU, IV, Evaluation, ModelParams, Plan, TcmState, budget_residual, sup_norms
from .spectral import SpectralField, parseval_density, sobolev_symbol


class DiagnosticsError(RuntimeError):
    """An energy-functional consistency check failed."""


class DecayFitError(ValueError):
    """The requested decay fit is ill-posed (window, sample count, signs)."""


FIELD_SLICES = {"u": IU, "v": IV, "theta": slice(ITH, ITH + 1)}


class Spectra:
    """The Parseval densities of one state, from which every quadratic quantity is summed.

    Holds the power of u, v and theta and, once asked for, the v . grad theta
    pairing (each a :func:`parseval_density` table); builds each |k|^{2 gamma} table
    once, and sums each (field, gamma) norm, each field's L^2 norm and each
    cross-term order once however often the functionals ask.
    A, B, X, Y and smallness are the functionals at an explicit order m.

    Every table has the width of state.coeffs: the full half-spectrum, or its
    first ``grid.band`` columns for a dealiased state.  ``tables``, if given,
    is a memo of |k|^{2 gamma} tables of that width kept across states (a
    :class:`~tcm2d.model.Plan`'s ``sobolev_tables``).
    """

    def __init__(self, state: TcmState, tables: dict[float, np.ndarray] | None = None):
        g, c = state.grid, state.coeffs
        self.grid, self._coeffs, self.width = g, c, c.shape[-1]
        self.power = {name: parseval_density(c[sl], c[sl], g) for name, sl in FIELD_SLICES.items()}
        self._tables: dict[float, np.ndarray] = {} if tables is None else tables
        self._hom_sq: dict[tuple[str, float], float] = {}
        self._l2_sq: dict[str, float] = {}
        self._cross: dict[float, float] = {}

    def _once(self, cache: dict, key: object, compute: Callable[[], float]) -> float:
        """cache[key], computed on the first ask."""
        value = cache.get(key)
        if value is None:
            value = cache[key] = compute()
        return value

    @cached_property
    def pairing(self) -> np.ndarray:
        g, c = self.grid, self._coeffs
        ky = g.ky[:, : self.width]
        return parseval_density(c[2], 1j * g.kx * c[ITH], g) + parseval_density(c[3], 1j * ky * c[ITH], g)

    def _table(self, gamma: float) -> np.ndarray:
        table = self._tables.get(gamma)
        if table is None:
            table = self._tables[gamma] = np.ascontiguousarray(sobolev_symbol(self.grid, gamma)[:, : self.width])
        return table

    def energy(self) -> float:
        """Half the summed L^2 norms of u, v and theta."""
        return 0.5 * sum(float(np.sum(power)) for power in self.power.values())

    def hom_sq(self, fieldname: str, gamma: float) -> float:
        """Squared homogeneous norm ||Lambda^gamma field||^2 (components summed)."""
        return self._once(
            self._hom_sq, (fieldname, gamma), lambda: float(np.sum(self._table(gamma) * self.power[fieldname]))
        )

    def hs_sq(self, fieldname: str, s: float) -> float:
        """Nonhomogeneous ||field||_{H^s}^2 = L^2 part plus homogeneous part."""
        l2_sq = self._once(self._l2_sq, fieldname, lambda: float(np.sum(self.power[fieldname])))
        return l2_sq + self.hom_sq(fieldname, s)

    def field_norm(self, fieldname: str, gamma: float) -> float:
        """||Lambda^gamma field||_{L^2} over k != 0, components summed in quadrature."""
        return math.sqrt(self.hom_sq(fieldname, gamma))

    def cross_term(self, order: float) -> float:
        """int Lambda^{order-1} v . Lambda^{order-1} grad theta."""
        if order < 1:
            raise DiagnosticsError(f"cross-term order must be >= 1, got {order}")
        return self._once(self._cross, order, lambda: float(np.sum(self._table(order - 1.0) * self.pairing)))

    def cross_free_sum_A(self, params: ModelParams, m: float) -> float:
        """The squared-norm sum entering A without its cross terms."""
        return (
            self.hom_sq("u", m)
            + self.hom_sq("u", float(params.delta1))
            + self.hs_sq("v", m)
            + self.hs_sq("theta", m)
        )

    def A(self, params: ModelParams, m: float) -> float:
        ssum = self.cross_free_sum_A(params, m)
        rad = ssum - params.eta * (self.cross_term(m) + self.cross_term(1.0))
        if rad < 0.75 * ssum - 1e-12 * max(ssum, 1.0):
            raise DiagnosticsError(
                f"A-functional radicand {rad:.6g} fell below 3/4 of the norm sum {ssum:.6g}; eta bound violated"
            )
        return math.sqrt(max(rad, 0.0))

    def B(self, params: ModelParams, m: float, theta_slot: str = "lambda_m") -> float:
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
        return sum(self.hom_sq(name, order) for name in FIELD_SLICES for order in (m, m - 1.0))

    def X(self, params: ModelParams, m: float) -> float:
        if not m > 1:
            raise DiagnosticsError(f"X-functional order must be > 1, got {m}")
        rad = self.cross_free_sum_X(m) - params.kappa * self.cross_term(m)
        if rad < 0:
            raise DiagnosticsError(
                f"X-functional radicand {rad:.6g} negative at order {m}; kappa bound violated"
            )
        return math.sqrt(rad)

    def Y(self, params: ModelParams, m: float) -> float:
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
        s = params.s
        u_sq = self.hs_sq("u", s) if params.delta1 == 0 else self.hom_sq("u", s) + self.hom_sq("u", 1.0)
        return math.sqrt(u_sq) + math.sqrt(self.hs_sq("v", s)) + math.sqrt(self.hs_sq("theta", s))


def cross_term(v: tuple[SpectralField, SpectralField], theta: SpectralField, order: float) -> float:
    """int Lambda^{order-1} v . Lambda^{order-1} grad theta, by Parseval."""
    zero = SpectralField.zero(theta.grid)
    return Spectra(TcmState.from_fields((zero, zero), v, theta)).cross_term(order)


def functional_A(state: TcmState, params: ModelParams, m: float | None = None) -> float:
    """Lyapunov stability functional at order m (default: the base index s).

    sqrt of ||Lambda^m u||^2 + ||Lambda^{delta1} u||^2 + ||v||_{H^m}^2
    + ||theta||_{H^m}^2 minus eta times the order-m and order-1 cross terms.
    The radicand is checked against the (3/4)-equivalence band before rooting.
    """
    return Spectra(state).A(params, params.s if m is None else m)


def functional_B(
    state: TcmState,
    params: ModelParams,
    m: float | None = None,
    theta_slot: str = "lambda_m",
) -> float:
    """Dissipation functional at order m, weighted by lam.

    theta_slot = "lambda_m":  lam * sqrt(||grad u||_{Hdot^m}^2 + ||v||_{H^m}^2
                                         + ||Lambda^m theta||^2)
    theta_slot = "grad_hm1":  lam * sqrt(||grad u||_{H^m}^2 + ||v||_{H^m}^2
                                         + ||grad theta||_{H^{m-1}}^2)

    The two variants differ in the theta slot and in whether the u gradient
    norm carries its low-order part; they are never conflated.
    """
    return Spectra(state).B(params, params.s if m is None else m, theta_slot)


def functional_X(state: TcmState, params: ModelParams, m: float | None = None) -> float:
    """Decay Lyapunov functional: order-m and order-(m-1) norms with the kappa cross term."""
    return Spectra(state).X(params, params.s if m is None else m)


def functional_Y(state: TcmState, params: ModelParams, m: float | None = None) -> float:
    """Dissipation counterpart of X."""
    return Spectra(state).Y(params, params.s if m is None else m)


def smallness_norm(state: TcmState, params: ModelParams) -> float:
    """The norm sum the small-data hypotheses bound by epsilon.

    Undamped: ||u||_{H^s} + ||v||_{H^s} + ||theta||_{H^s}.
    Damped:   ||u||_{Hdot^s cap Hdot^1} + ||v||_{H^s} + ||theta||_{H^s}.
    """
    return Spectra(state).smallness(params)


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
    """Fitted decay exponent of one norm time series over a window."""

    field: str
    gamma: float
    window: tuple[float, float]
    exponent: float
    r_squared: float
    theory_exponent: float
    n_samples: int

    def to_dict(self) -> dict:
        return dict(asdict(self), window=list(self.window))


def default_fit_window(t_end: float) -> tuple[float, float]:
    """The fit window [t_end/4, 3 t_end/4] used when none is given."""
    return (t_end / 4.0, 3.0 * t_end / 4.0)


def decay_fit(
    series: Sequence[tuple[float, float]],
    window: tuple[float, float],
    fieldname: str = "",
    gamma: float = 0.0,
    theory: float = 0.0,
) -> DecayFit:
    """Least-squares slope of log(value) against log(1 + t) over the window."""
    t0, t1 = window
    if not t0 < t1:
        raise DecayFitError(f"window must satisfy t0 < t1, got {window}")
    pts = [(t, v) for t, v in series if t0 <= t <= t1]
    if len(pts) < 8:
        raise DecayFitError(f"need >= 8 samples in the window, got {len(pts)}")
    if any(v <= 0 for _, v in pts):
        raise DecayFitError("nonpositive values in the fit window")
    x = np.log1p([t for t, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - float(np.sum(resid**2)) / ss_tot)
    return DecayFit(fieldname, gamma, (t0, t1), float(slope), min(r2, 1.0), theory, len(pts))


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
            if f not in FIELD_SLICES:
                raise ValueError(f"norms field must be u, v, or theta, got {f!r}")
            if not g >= 0:
                raise ValueError(f"norms gamma must be >= 0, got {g}")
        columns = [norm_column(f, g) for f, g in self.norms]
        if len(set(columns)) != len(columns):
            raise ValueError(f"norms entries must be distinct, got {columns}")
        labels = [f"{m:g}" for m in self.functional_orders]
        if len(set(labels)) != len(labels):
            raise ValueError(f"functional_orders entries must be distinct, got {labels}")

    def orders(self, params: ModelParams) -> tuple[float, ...]:
        return self.functional_orders if self.functional_orders else (params.s,)


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
    """Every value of one sample, from the spectra of the state's band columns and its evaluation on plan."""
    params = plan.params
    band = TcmState(state.grid, np.ascontiguousarray(state.coeffs[..., : state.grid.band]), state.time)
    spectra = Spectra(band, plan.sobolev_tables)
    m0 = config.orders(params)[0]
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
        budget_residual=budget_residual(band, plan, evaluation),
        B_m_gradtheta=spectra.B(params, m0, theta_slot="grad_hm1"),
        smallness=spectra.smallness(params),
        energy=spectra.energy(),
        dissipation=evaluation[1],
        diss_integral=diss_integral,
        band_A=spectra.cross_free_sum_A(params, m0) / a**2 if a > 0 else 1.0,
        band_X=spectra.cross_free_sum_X(m0) / x**2 if x > 0 else 1.0,
        dt=dt,
        linf=sup_norms(evaluation[2]),
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
            cols += [Column(f"linf_{f}", ("linf", f), lambda r, f=f: r.linf[f]) for f in FIELD_SLICES]
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
