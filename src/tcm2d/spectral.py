"""Fourier-space toolkit for real scalar fields on a 2D periodic box.

Fields live on the uniform grid of an [0, L) x [0, L) box and are stored as
half-spectrum rfft2 coefficients with the convention

    f(x) = sum_k  c_k  exp(i k . x),        c = rfft2(values) / n**2,

so Parseval holds with the physical L^2 measure:  int f g dx = L^2 * sum_k
c_f(k) conj(c_g(k)) over the full wavenumber lattice.  Conjugate symmetry of
real fields is structural in this layout apart from the kx direction of the
two self-conjugate columns (ky index 0 and n/2); every operation here
preserves it.

Dealiasing keeps modes with integer indices |j| <= (n - 1) // 3 on each axis.
This is the strict two-thirds rule: products of two retained modes alias only
onto discarded modes, so masked quadratic products coincide with the Galerkin
truncation.  The exact skew-symmetries behind the energy diagnostics rely on
this property.  A dealiased field is zero in every ky column from
:attr:`SpectralGrid.band` on, so :func:`to_phys` may be handed the band
columns ``[..., :band]`` alone: the inverse then runs its kx pass over those
columns only and zero-pads the rest before the ky pass (a pruned transform),
with the same numbers as the full-width one.

The transforms are numpy's (``numpy.fft``, pocketfft), looked up on the module
at each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.fft as _fft


class SpectralError(ValueError):
    """Raised for invalid spectral operations (grid mismatch, bad exponent)."""


def _dealias_cut(n: int) -> int:
    # Largest j with 3*j <= n - 1: triple index sums cannot wrap onto the
    # retained band, so quadratic products are alias-free after masking.
    return (n - 1) // 3


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic box descriptor: resolution, box size, wavenumbers, dealias mask.

    Wavenumber arrays are broadcastable over the (n, n//2 + 1) half-spectrum
    layout: `kx` varies along axis 0 (full fftfreq order), `ky` along axis 1
    (non-negative frequencies only).  `band` is the number of leading ky
    columns the dealias mask keeps any mode of.
    """

    n: int
    box_length: float
    kx: np.ndarray = field(init=False, repr=False, compare=False)
    ky: np.ndarray = field(init=False, repr=False, compare=False)
    kmag: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    parseval_weight: np.ndarray = field(init=False, repr=False, compare=False)
    inv_k2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n <= 0 or self.n % 2 != 0:
            raise SpectralError(f"grid resolution must be a positive even integer, got {self.n}")
        if not self.box_length > 0:
            raise SpectralError(f"box_length must be > 0, got {self.box_length}")
        n = self.n
        dk = 2.0 * np.pi / self.box_length
        jx = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)           # 0..n/2-1, -n/2..-1
        jy = np.arange(n // 2 + 1, dtype=np.int64)
        object.__setattr__(self, "kx", (dk * jx)[:, None])
        object.__setattr__(self, "ky", (dk * jy)[None, :])
        k2 = self.kx**2 + self.ky**2
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", np.sqrt(k2))
        inv_k2 = np.zeros_like(k2)
        inv_k2[k2 > 0] = 1.0 / k2[k2 > 0]
        object.__setattr__(self, "inv_k2", inv_k2)
        cut = _dealias_cut(n)
        mask = (np.abs(jx)[:, None] <= cut) & (np.abs(jy)[None, :] <= cut)
        object.__setattr__(self, "dealias_mask", mask)
        # Half-spectrum Parseval weights: interior ky columns stand for +-ky.
        w = np.full(n // 2 + 1, 2.0)
        w[0] = 1.0
        w[n // 2] = 1.0
        object.__setattr__(self, "parseval_weight", w[None, :])

    @property
    def band(self) -> int:
        """Kept ky columns: a dealiased field is zero in columns [band:]."""
        return _dealias_cut(self.n) + 1

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def cell_area(self) -> float:
        return self.spacing**2

    @property
    def shape_phys(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def shape_spec(self) -> tuple[int, int]:
        return (self.n, self.n // 2 + 1)

    @property
    def kmax_dealiased(self) -> float:
        """Largest |k| retained by the dealias mask."""
        return float(np.sqrt(2.0) * _dealias_cut(self.n) * 2.0 * np.pi / self.box_length)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical mesh (x, y), indexed [ix, iy]."""
        x = np.arange(self.n) * self.spacing
        return np.meshgrid(x, x, indexing="ij")


@dataclass
class SpectralField:
    """One real scalar field stored as half-spectrum Fourier coefficients."""

    grid: SpectralGrid
    coeffs: np.ndarray

    @classmethod
    def zero(cls, grid: SpectralGrid) -> "SpectralField":
        return cls(grid, np.zeros(grid.shape_spec, dtype=np.complex128))

    @classmethod
    def from_phys(cls, grid: SpectralGrid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape_phys:
            raise SpectralError(f"physical shape {values.shape} != grid {grid.shape_phys}")
        return cls(grid, from_phys(values, grid))

    @classmethod
    def from_function(cls, grid: SpectralGrid, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "SpectralField":
        xx, yy = grid.coords()
        return cls.from_phys(grid, fn(xx, yy))

    def values(self) -> np.ndarray:
        return to_phys(self.coeffs, self.grid)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * c)

    __rmul__ = __mul__


VectorField = tuple[SpectralField, SpectralField]


def _check_same_grid(f: SpectralField, g: SpectralField) -> None:
    if f.grid is not g.grid and (f.grid.n != g.grid.n or f.grid.box_length != g.grid.box_length):
        raise SpectralError("fields live on different grids")


def to_phys(coeffs: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Inverse transform of coefficient-normalized (possibly batched) spectra, as a new array.

    coeffs may hold only the first ky columns (``[..., :grid.band]`` of a
    dealiased field): the missing ones are taken as zero.

    The result is always newly allocated: numpy's ``irfft2`` accepts ``out=``
    but drops it (numpy 2.4 calls ``irfftn(a, s, axes, norm, out=None)``), so
    a caller cannot hand it a buffer.  ``irfftn`` honours ``out=``, but
    ``irfft2`` stays the one inverse entry point, the name the transform-count
    tests and the benchmark's span tracer wrap.
    """
    return _fft.irfft2(coeffs, s=grid.shape_phys, norm="forward")


def from_phys(values: np.ndarray, grid: SpectralGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Forward transform of (possibly batched) physical arrays to coefficients, into out if given."""
    return _fft.rfft2(values, norm="forward", out=out)


def lambda_pow(f: SpectralField, s: float) -> SpectralField:
    """Fractional Laplacian power: multiply each coefficient by |k|**s.

    Homogeneous convention: the k = 0 coefficient is annihilated for s > 0
    and kept for s = 0 (identity).  Negative s is rejected; inverse operators
    are out of scope.
    """
    if not np.isfinite(s):
        raise SpectralError(f"exponent must be finite, got {s}")
    if s < 0:
        raise SpectralError(f"negative fractional-Laplacian exponent {s} not supported")
    if s == 0:
        return f.copy()
    return SpectralField(f.grid, f.coeffs * sobolev_symbol(f.grid, s / 2.0))


_AXIS_K = {"x": "kx", "y": "ky", 0: "kx", 1: "ky"}


def derivative(f: SpectralField, axis: str | int) -> SpectralField:
    """Spectral partial derivative along x or y."""
    try:
        k = getattr(f.grid, _AXIS_K[axis])
    except KeyError:
        raise SpectralError(f"axis must be 'x' or 'y', got {axis!r}") from None
    return SpectralField(f.grid, 1j * k * f.coeffs)


def gradient(f: SpectralField) -> VectorField:
    return (derivative(f, "x"), derivative(f, "y"))


def divergence(w: VectorField) -> SpectralField:
    wx, wy = w
    _check_same_grid(wx, wy)
    g = wx.grid
    return SpectralField(g, 1j * (g.kx * wx.coeffs + g.ky * wy.coeffs))


def leray_project(w: VectorField) -> VectorField:
    """Project a vector field onto its divergence-free part, mode by mode.

    For k != 0 the coefficient pair is replaced by w - k (k.w)/|k|^2; the
    k = 0 mode is left unchanged.
    """
    wx, wy = w
    _check_same_grid(wx, wy)
    g = wx.grid
    px, py = leray_project_coeffs(wx.coeffs, wy.coeffs, g)
    return (SpectralField(g, px), SpectralField(g, py))


def leray_project_coeffs(cx: np.ndarray, cy: np.ndarray, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    kdotw = (grid.kx * cx + grid.ky * cy) * grid.inv_k2
    return cx - grid.kx * kdotw, cy - grid.ky * kdotw


def dealias(f: SpectralField) -> SpectralField:
    """Zero all coefficients outside the two-thirds mask."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


def parseval_density(a: np.ndarray, b: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Per-mode Parseval terms L^2 w(k) Re(a conj b), summed over the leading component axes.

    The one quadratic-form kernel: its plain sum is the L^2 pairing int a . b,
    its sum against :func:`sobolev_symbol` the pairing int Lambda^s a . Lambda^s b.
    a and b may hold the first ky columns only; the result then has their width.
    """
    terms = (a * np.conj(b)).real
    terms = terms.sum(axis=tuple(range(terms.ndim - 2)))
    return grid.box_length**2 * grid.parseval_weight[:, : terms.shape[-1]] * terms


def sobolev_symbol(grid: SpectralGrid, s: float) -> np.ndarray:
    """|k|^(2 s) with the k = 0 entry zeroed: the weight of ||Lambda^s .||^2 in a Parseval sum."""
    mult = grid.kmag ** (2.0 * s)
    mult[0, 0] = 0.0
    return mult


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """Parseval-exact L^2 pairing of two real fields."""
    _check_same_grid(f, g)
    return float(np.sum(parseval_density(f.coeffs, g.coeffs, f.grid)))


def sobolev_norm(f: SpectralField, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm of order s >= 0.

    homogeneous=True gives ||Lambda^s f||_{L^2} summed over k != 0 only;
    otherwise the nonhomogeneous sqrt(||f||^2 + ||Lambda^s f||^2).
    """
    if s < 0:
        raise SpectralError(f"Sobolev index must be >= 0, got {s}")
    power = parseval_density(f.coeffs, f.coeffs, f.grid)
    sq = float(np.sum(sobolev_symbol(f.grid, s) * power))
    if not homogeneous:
        sq += float(np.sum(power))
    return float(np.sqrt(sq))


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm computed on the 2x finer physical grid of :func:`oversampled_values`.

    Non-quadratic norms are not Parseval-exact; zero-padding the spectrum
    before quadrature suppresses the bias of the collocation product.
    """
    vals = oversampled_values(f)
    if p == np.inf:
        return float(np.max(np.abs(vals)))
    h2 = (f.grid.box_length / (2 * f.grid.n)) ** 2
    return float((np.sum(np.abs(vals) ** p) * h2) ** (1.0 / p))


def oversampled_values(f: SpectralField) -> np.ndarray:
    """Evaluate the trigonometric polynomial on a 2x finer grid."""
    n, m = f.grid.n, 2 * f.grid.n
    big = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    half = n // 2
    big[:half, : half + 1] = f.coeffs[:half, :]
    big[m - half :, : half + 1] = f.coeffs[half:, :]
    # The Nyquist column/row of the source carries conjugate-paired content;
    # splitting it across +-n/2 in the padded lattice is unnecessary because
    # dealiased fields never populate it.
    return _fft.irfft2(big, s=(m, m), norm="forward")


def hermitian_symmetrize(coeffs: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Project the self-conjugate columns (ky index 0 and n/2) onto real-field symmetry."""
    out = coeffs.copy()
    n = grid.n
    for j in (0, n // 2):
        col = out[:, j]
        out[:, j] = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    return out


def random_coeffs(
    grid: SpectralGrid,
    rng: np.random.Generator,
    amplitude: Callable[[np.ndarray], np.ndarray],
    band_cut: int | None = None,
) -> np.ndarray:
    """Mean-free random field: i.i.d. complex Gaussian modes shaped by `amplitude(|k|)`.

    The draw is band-limited to integer indices |j| <= band_cut on each axis
    (default: half the dealias cut) and conjugate-symmetrized so the field is
    real-valued.
    """
    n = grid.n
    if band_cut is None:
        band_cut = _dealias_cut(n) // 2
    re = rng.standard_normal(grid.shape_spec)
    im = rng.standard_normal(grid.shape_spec)
    c = (re + 1j * im) / np.sqrt(2.0)
    kmag_safe = grid.kmag.copy()
    kmag_safe[0, 0] = 1.0
    c *= amplitude(kmag_safe)
    jx = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)[:, None]
    jy = np.arange(n // 2 + 1, dtype=np.int64)[None, :]
    band = (np.abs(jx) <= band_cut) & (np.abs(jy) <= band_cut)
    c *= band
    c[0, 0] = 0.0
    return hermitian_symmetrize(c, grid)


def power_law_amplitude(slope: float, k_cutoff: float) -> Callable[[np.ndarray], np.ndarray]:
    """|k|**(-slope) envelope with a Gaussian roll-off above k_cutoff."""

    def amp(kmag: np.ndarray) -> np.ndarray:
        return kmag ** (-slope) * np.exp(-((kmag / k_cutoff) ** 2))

    return amp
