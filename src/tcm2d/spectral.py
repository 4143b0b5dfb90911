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

Every quadratic form here and in the model and diagnostics is the per-mode
Re(a conj b) of :func:`mode_products` summed against a weight row, and
:func:`parseval_weights` is the one recipe of every row: the Parseval weight
w(k_y) L^2 times |k|^(2 gamma), over the whole half spectrum of a field or
the band of a state, where the grid keeps one row per order
(:meth:`SpectralGrid.weight_row`).

The transforms are numpy's (``numpy.fft``, pocketfft), looked up on the module
at each call.
"""

from __future__ import annotations

import math
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
    inv_k2: np.ndarray = field(init=False, repr=False, compare=False)
    _weight_rows: dict[float | None, np.ndarray] = field(init=False, repr=False, compare=False, default_factory=dict)

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
        object.__setattr__(self, "inv_k2", np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0))
        cut = _dealias_cut(n)
        mask = (np.abs(jx)[:, None] <= cut) & (np.abs(jy)[None, :] <= cut)
        object.__setattr__(self, "dealias_mask", mask)

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

    def weight_row(self, gamma: float | None) -> np.ndarray:
        """The read-only (n, band) weight row ``parseval_weights(self, gamma, self.band)``, kept once built."""
        row = self._weight_rows.get(gamma)
        if row is None:
            row = parseval_weights(self, gamma, self.band)
            row.setflags(write=False)
            self._weight_rows[gamma] = row
        return row


@dataclass
class SpectralField:
    """One real scalar field stored as half-spectrum Fourier coefficients, shape (n, n//2 + 1)."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.coeffs) != self.grid.shape_spec:
            raise SpectralError(f"field coefficients must have shape {self.grid.shape_spec}, got {np.shape(self.coeffs)}")

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
    mult = f.grid.kmag**s
    mult[0, 0] = 0.0
    return SpectralField(f.grid, f.coeffs * mult)


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
    """The coefficient form of :func:`leray_project`, over the first cx.shape[-1] ky columns.

    cx and cy may hold any leading width of the half spectrum (a state's band
    columns, say); each column's numbers are those of the full-width result.
    """
    width = cx.shape[-1]
    ky = grid.ky[:, :width]
    kdotw = (grid.kx * cx + ky * cy) * grid.inv_k2[:, :width]
    return cx - grid.kx * kdotw, cy - ky * kdotw


def dealias(f: SpectralField) -> SpectralField:
    """Zero all coefficients outside the two-thirds mask."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


def carve(work: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive views of the flat buffer work, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(work[start : start + size].reshape(shape))
        start += size
    return views


def mode_products(a: np.ndarray, b: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Re(a conj b) = re(a) re(b) + im(a) im(b), mode by mode, of equal-shaped spectra (a state's band or a field's half spectrum).

    Summed against the weight row :func:`parseval_weights` of gamma (of the
    same width) it is the pairing int Lambda^gamma a . Lambda^gamma b, the L^2
    pairing int a . b for gamma None.
    The result and one scratch array fill the first 2 a.size entries of the
    flat float buffer work, the result first, or new arrays without it.
    """
    if work is None:
        work = np.empty(2 * a.size)
    out, t = carve(work, a.shape, a.shape)
    if b is a:
        # The same numbers as the products; numpy squares about twice as fast.
        np.square(a.real, out=out)
        out += np.square(a.imag, out=t)
    else:
        np.multiply(a.real, b.real, out=out)
        out += np.multiply(a.imag, b.imag, out=t)
    return out


def parseval_weights(grid: SpectralGrid, gamma: float | None = None, width: int | None = None) -> np.ndarray:
    """The weight L^2 w(k_y) |k|^(2 gamma) of ||Lambda^gamma .||^2 in a Parseval sum, over the first width ky columns.

    The Parseval weight L^2 w(k_y) is 2 L^2 on the interior ky columns, which
    stand for +-ky, and L^2 on the self-conjugate columns 0 and n/2.  The
    symbol |k|^(2 gamma) has its k = 0 entry zeroed; gamma None stands for no
    symbol, the L^2 row, which unlike gamma = 0 keeps k = 0.  width defaults
    to the whole half spectrum, n//2 + 1 columns; a state's rows take the
    band (:meth:`SpectralGrid.weight_row`).  The result is a new contiguous
    (n, width) array.
    """
    if width is None:
        width = grid.n // 2 + 1
    if gamma is None:
        row = np.ones((grid.n, width))
    else:
        row = grid.kmag[:, :width].copy()
        row **= 2.0 * gamma
        row[0, 0] = 0.0
    # Halving is exact, so the self-conjugate columns get (x 2 L^2) / 2 = x L^2; the
    # scaling runs on the whole contiguous row, as numpy buffers a strided operand.
    row *= 2.0 * grid.box_length**2
    row[:, 0] *= 0.5
    if width > grid.n // 2:
        row[:, grid.n // 2] *= 0.5
    return row


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """Parseval-exact L^2 pairing of two real fields, over the half spectrum."""
    _check_same_grid(f, g)
    products = mode_products(f.coeffs, g.coeffs)
    return float(np.einsum("jk,jk->", products, parseval_weights(f.grid)))


def sobolev_norm(f: SpectralField, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm of order s >= 0, over the half spectrum.

    homogeneous=True gives ||Lambda^s f||_{L^2} summed over k != 0 only;
    otherwise the nonhomogeneous sqrt(||f||^2 + ||Lambda^s f||^2).
    """
    if s < 0:
        raise SpectralError(f"Sobolev index must be >= 0, got {s}")
    # Both rows in one einsum: one einsum per row sums in another order, a last-bit difference.
    rows = np.stack((parseval_weights(f.grid), parseval_weights(f.grid, s)))
    l2, hom = np.einsum("gjk,jk->g", rows, mode_products(f.coeffs, f.coeffs)).tolist()
    return math.sqrt(hom if homogeneous else l2 + hom)


def lp_norm(f: SpectralField | VectorField, p: float) -> float:
    """L^p norm of a field, or of the magnitude sqrt(fx^2 + fy^2) of a vector field (fx, fy), on the 2x finer grid of :func:`oversampled_values`.

    Non-quadratic norms are not Parseval-exact; zero-padding the spectrum
    before quadrature suppresses the bias of the collocation product.
    """
    if isinstance(f, SpectralField):
        grid, vals = f.grid, oversampled_values(f)
    else:
        grid, vals = f[0].grid, np.sqrt(np.add(*(oversampled_values(c) ** 2 for c in f)))
    if p == np.inf:
        return float(np.max(np.abs(vals)))
    h2 = (grid.box_length / (2 * grid.n)) ** 2
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


MIN_DRAW_GRID = 8  # the smallest n whose default band_cut, ((n - 1) // 3) // 2, is >= 1 (n = 6 gives 0)


def random_coeffs(
    grid: SpectralGrid,
    rng: np.random.Generator,
    amplitude: Callable[[np.ndarray], np.ndarray],
    band_cut: int | None = None,
    width: int | None = None,
) -> np.ndarray:
    """Mean-free random field: i.i.d. complex Gaussian modes shaped by `amplitude(|k|)`.

    The draw is band-limited to integer indices |j| <= band_cut on each axis
    (default: half the dealias cut) and conjugate-symmetrized so the field is
    real-valued.  The result holds the first width ky columns of the half
    spectrum, shape (n, width) (default: all n//2 + 1); width must reach past
    band_cut, and 1 <= band_cut < n/2: a mode past the mean, below the Nyquist index.

    The generator gives two (n, n//2 + 1) standard-normal draws, the real and
    the imaginary parts, at every width.  So a draw is the first width
    columns of the full-width draw from the same generator state, bit for
    bit, and it leaves the generator where the full-width draw does.  Only
    the |jx|, jy <= band_cut box of them is used: the amplitude, the zero
    mean and the symmetry of the ky = 0 column are computed on the box
    alone, and every mode outside it is zero.
    """
    n = grid.n
    if band_cut is None:
        band_cut = _dealias_cut(n) // 2
    if width is None:
        width = n // 2 + 1
    if not 1 <= band_cut < n // 2:
        raise ValueError(f"band_cut must be in [1, {n // 2}): a mode past the mean, below the Nyquist index, got {band_cut}")
    if not band_cut < width <= n // 2 + 1:
        raise ValueError(f"width must be in ({band_cut}, {n // 2 + 1}] to hold the band_cut box, got {width}")
    # The box's rows in fftfreq order, jx = 0..band_cut, -band_cut..-1: its
    # column 0 reversed and rolled by one pairs each jx with -jx, as the full
    # column does.
    rows = np.r_[0 : band_cut + 1, n - band_cut : n]
    cols = band_cut + 1
    re = rng.standard_normal(grid.shape_spec)[rows, :cols]
    im = rng.standard_normal(grid.shape_spec)[rows, :cols]
    box = (re + 1j * im) / np.sqrt(2.0)
    kmag = grid.kmag[rows, :cols]  # a copy: rows is an index array
    kmag[0, 0] = 1.0
    box *= amplitude(kmag)
    box[0, 0] = 0.0
    col = box[:, 0]
    box[:, 0] = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    out = np.zeros((n, width), dtype=np.complex128)
    out[rows, :cols] = box
    return out


def power_law_amplitude(slope: float, k_cutoff: float) -> Callable[[np.ndarray], np.ndarray]:
    """|k|**(-slope) envelope with a Gaussian roll-off above k_cutoff."""

    def amp(kmag: np.ndarray) -> np.ndarray:
        return kmag ** (-slope) * np.exp(-((kmag / k_cutoff) ** 2))

    return amp
