"""Tests for the Fourier-space toolkit.

Expected values for the [DERIVED] cases are frozen from independent oracles:
analytic quadrature for the norms (int sin^2 x dx dy = 2 pi^2 on the default
box) and symbolic differentiation (sympy) for the derivative of a product.
"""

import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tcm2d.diagnostics import Spectra
from tcm2d.spectral import (
    MIN_DRAW_GRID,
    SpectralError,
    SpectralField,
    SpectralGrid,
    dealias,
    derivative,
    divergence,
    gradient,
    inner_product,
    lambda_pow,
    leray_project,
    leray_project_coeffs,
    lp_norm,
    mode_products,
    oversampled_values,
    parseval_weights,
    random_coeffs,
    sobolev_norm,
    to_phys,
)

from conftest import make_random_state

TWO_PI_SQ = 2 * np.pi**2  # int_{[0,2pi)^2} sin^2(x) dx dy


def band_limited_field(grid, seed, slope=2.0):
    rng = np.random.default_rng(seed)
    return SpectralField(grid, random_coeffs(grid, rng, lambda k: k**(-slope)))


class TestSpectralGrid:
    def test_invariants(self, grid64):
        assert grid64.n == 64
        # k = (0,0) appears exactly once on the full lattice
        kx_full = np.fft.fftfreq(64, d=1 / 64)
        full_zero = sum(1 for jx in kx_full for jy in kx_full if jx == 0 and jy == 0)
        assert full_zero == 1
        assert grid64.kmag[0, 0] == 0.0
        # mask false above (2/3) k_max on either axis
        k_cut = (2.0 / 3.0) * (grid64.n / 2) * 2 * np.pi / grid64.box_length
        over = (np.abs(grid64.kx) > k_cut) | (np.abs(grid64.ky) > k_cut)
        assert not np.any(grid64.dealias_mask & over)
        nonzero = grid64.k2 > 0
        np.testing.assert_array_equal(grid64.inv_k2[nonzero], 1.0 / grid64.k2[nonzero])
        assert grid64.inv_k2[0, 0] == 0.0

    def test_rejects_odd_or_nonpositive(self):
        with pytest.raises(SpectralError):
            SpectralGrid(63, 2 * np.pi)
        with pytest.raises(SpectralError):
            SpectralGrid(64, -1.0)

    def test_roundtrip(self, grid64):
        xx, yy = grid64.coords()
        vals = np.cos(3 * xx) * np.sin(2 * yy) + 0.5
        f = SpectralField.from_phys(grid64, vals)
        assert np.max(np.abs(f.values() - vals)) < 1e-13


class TestWeightRows:
    GAMMAS = (None, 0, 0.5, 1, 1.5, 2, 2.5, 3, 4, 5)

    @staticmethod
    def full_width_row(grid, gamma):
        # Over the whole (n, n/2 + 1) half spectrum: the Parseval weight (2 on
        # the columns that stand for +-ky, 1 on the self-conjugate columns 0
        # and n/2), times |k|^(2 gamma) with k = 0 zeroed unless gamma is None.
        area = grid.box_length**2
        weights = np.full(grid.shape_spec, 2.0 * area)
        weights[:, 0] = area
        weights[:, grid.n // 2] = area
        if gamma is None:
            return weights
        symbol = grid.kmag ** (2.0 * gamma)
        symbol[0, 0] = 0.0
        return weights * symbol

    @pytest.mark.parametrize("box", [2 * np.pi, 16 * np.pi], ids=["2pi", "16pi"])
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_each_row_is_the_full_width_weight_on_the_band(self, n, box):
        grid = SpectralGrid(n, box)
        for gamma in self.GAMMAS:
            row = grid.weight_row(gamma)
            assert row.shape == (n, grid.band)
            assert np.array_equal(row, self.full_width_row(grid, gamma)[:, : grid.band]), gamma
            assert grid.weight_row(gamma) is row

    @pytest.mark.parametrize("box", [2 * np.pi, 16 * np.pi], ids=["2pi", "16pi"])
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_the_recipe_builds_the_full_width_row(self, n, box):
        # The band rows are weight_row's, checked above.
        grid = SpectralGrid(n, box)
        for gamma in self.GAMMAS:
            full = parseval_weights(grid, gamma)
            assert full.shape == grid.shape_spec and full.flags.c_contiguous
            assert np.array_equal(full, self.full_width_row(grid, gamma)), gamma

    def test_rows_are_read_only(self, grid32):
        row = grid32.weight_row(1.5)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0, 1] = 0.0

    def test_building_a_row_peaks_below_two_band_rows(self):
        # A row is computed on the band columns: one band row (44 KiB at
        # n = 128) and no full-width temporary, which alone would be 66 KiB.
        grid = SpectralGrid(128, 16 * np.pi)
        grid.weight_row(1.0)
        band_row = grid.n * grid.band * 8
        tracemalloc.start()
        try:
            grid.weight_row(1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert band_row <= peak < 2 * band_row


class TestLambdaPow:
    def test_unit_wavenumber_eigenfunction(self, grid64):
        f = SpectralField.from_function(grid64, lambda x, y: np.sin(x))
        g = lambda_pow(f, 2.0)
        assert np.max(np.abs(g.values() - f.values())) < 1e-12

    def test_identity_at_zero(self, grid64):
        f = band_limited_field(grid64, 3)
        g = lambda_pow(f, 0.0)
        np.testing.assert_array_equal(g.coeffs, f.coeffs)

    def test_wavenumber_two_eigenvalue(self, grid64):
        f = SpectralField.from_function(grid64, lambda x, y: np.cos(2 * x))
        g = lambda_pow(f, 1.0)
        assert np.max(np.abs(g.values() - 2 * f.values())) < 1e-12

    def test_negative_exponent_rejected(self, grid64):
        f = band_limited_field(grid64, 1)
        with pytest.raises(SpectralError):
            lambda_pow(f, -0.5)

    def test_kills_mean_for_positive_s(self, grid64):
        f = SpectralField.from_function(grid64, lambda x, y: 1.0 + np.sin(x))
        g = lambda_pow(f, 1.5)
        assert g.coeffs[0, 0] == 0.0

    @given(
        s1=st.floats(0.1, 2.0),
        s2=st.floats(0.1, 2.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_semigroup_property(self, s1, s2, seed):
        grid = SpectralGrid(32, 2 * np.pi)
        f = band_limited_field(grid, seed)
        once = lambda_pow(lambda_pow(f, s1), s2)
        combined = lambda_pow(f, s1 + s2)
        scale = np.max(np.abs(combined.coeffs)) or 1.0
        assert np.max(np.abs(once.coeffs - combined.coeffs)) <= 1e-12 * scale


class TestDerivative:
    def test_sin_x(self, grid64):
        f = SpectralField.from_function(grid64, lambda x, y: np.sin(x))
        xx, _ = grid64.coords()
        assert np.max(np.abs(derivative(f, "x").values() - np.cos(xx))) < 1e-13

    def test_constant(self, grid64):
        f = SpectralField.from_function(grid64, lambda x, y: np.full_like(x, 2.5))
        for axis in ("x", "y"):
            assert np.max(np.abs(derivative(f, axis).values())) < 1e-14

    def test_product_against_symbolic_oracle(self, grid64):
        x, y = sympy.symbols("x y")
        expr = sympy.sin(x) * sympy.cos(y)
        d_expr = sympy.lambdify((x, y), sympy.diff(expr, y), "numpy")
        f = SpectralField.from_function(grid64, lambda xx, yy: np.sin(xx) * np.cos(yy))
        xx, yy = grid64.coords()
        assert np.max(np.abs(derivative(f, "y").values() - d_expr(xx, yy))) < 1e-12

    def test_bad_axis(self, grid64):
        f = band_limited_field(grid64, 5)
        with pytest.raises(SpectralError):
            derivative(f, "z")


class TestLerayProjection:
    def test_annihilates_gradients(self, grid64):
        phi = SpectralField.from_function(grid64, lambda x, y: np.sin(x + y))
        w = gradient(phi)
        p = leray_project(w)
        assert max(np.max(np.abs(p[0].coeffs)), np.max(np.abs(p[1].coeffs))) < 1e-14

    def test_preserves_divergence_free(self, grid64):
        w = (SpectralField.from_function(grid64, lambda x, y: np.sin(y)), SpectralField.zero(grid64))
        p = leray_project(w)
        assert np.max(np.abs(p[0].coeffs - w[0].coeffs)) < 1e-15
        assert np.max(np.abs(p[1].coeffs)) < 1e-15

    def test_mode_parallel_to_k(self, grid64):
        w = (SpectralField.from_function(grid64, lambda x, y: np.sin(x)), SpectralField.zero(grid64))
        p = leray_project(w)
        assert max(np.max(np.abs(p[0].coeffs)), np.max(np.abs(p[1].coeffs))) < 1e-14

    def test_idempotent_and_divergence_free(self, grid64):
        w = (band_limited_field(grid64, 10), band_limited_field(grid64, 11))
        scale = np.sqrt(inner_product(w[0], w[0]) + inner_product(w[1], w[1]))
        p = leray_project(w)
        pp = leray_project(p)
        for a, b in zip(p, pp):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-14 * np.max(np.abs(a.coeffs))
        div = divergence(p)
        assert np.max(np.abs(div.coeffs)) <= 1e-13 * scale


    @pytest.mark.parametrize("n", [16, 64])
    def test_band_columns_give_the_full_projection(self, n):
        grid = SpectralGrid(n, 2 * np.pi)
        rng = np.random.default_rng(n)
        cx, cy = (random_coeffs(grid, rng, lambda k: k**-1.0, band_cut=(n - 1) // 3) for _ in range(2))
        full = leray_project_coeffs(cx, cy, grid)
        band = leray_project_coeffs(cx[:, : grid.band], cy[:, : grid.band], grid)
        for b, f in zip(band, full):
            np.testing.assert_array_equal(b, f[:, : grid.band])


class TestDealias:
    def test_band_limited_unchanged(self, grid64):
        f = band_limited_field(grid64, 2)  # already inside the mask
        g = dealias(f)
        np.testing.assert_array_equal(g.coeffs, f.coeffs)

    def test_outside_energy_zeroed(self, grid64):
        coeffs = np.zeros(grid64.shape_spec, dtype=complex)
        coeffs[0, grid64.n // 2 - 2] = 1.0  # above the cut
        f = SpectralField(grid64, coeffs)
        assert np.all(dealias(f).coeffs == 0)

    def test_projection_bit_exact(self, grid64):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(grid64.shape_spec) + 1j * rng.standard_normal(grid64.shape_spec)
        f = SpectralField(grid64, coeffs)
        g = dealias(f)
        inside = grid64.dealias_mask
        np.testing.assert_array_equal(g.coeffs[inside], f.coeffs[inside])
        assert np.all(g.coeffs[~inside] == 0)


class TestPrunedInverse:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_band_columns_give_the_full_inverse(self, n):
        # A dealiased field is zero from column band on, so the inverse of its
        # band columns alone (zero-padded by the transform) is the full-width
        # inverse, bit for bit, for a batch as for one field.
        grid = SpectralGrid(n, 2 * np.pi)
        cut = (n - 1) // 3
        assert grid.band == cut + 1
        assert np.any(grid.dealias_mask[:, cut]) and not np.any(grid.dealias_mask[:, grid.band:])
        rng = np.random.default_rng(n)
        batch = np.stack([random_coeffs(grid, rng, lambda k: k ** (-1.0), band_cut=cut) for _ in range(3)])
        assert np.any(batch[..., cut] != 0) and np.all(batch[..., grid.band:] == 0)
        full = to_phys(batch, grid)
        np.testing.assert_array_equal(to_phys(batch[..., : grid.band], grid), full)
        np.testing.assert_array_equal(to_phys(np.ascontiguousarray(batch[1, :, : grid.band]), grid), full[1])


class TestNormsAndInnerProduct:
    def test_sin_homogeneous(self, grid64):
        f = SpectralField.from_function(grid64, lambda x, y: np.sin(x))
        assert sobolev_norm(f, 1.0, homogeneous=True) == pytest.approx(np.sqrt(TWO_PI_SQ), rel=1e-13)

    def test_zero_field(self, grid64):
        assert sobolev_norm(SpectralField.zero(grid64), 1.3, homogeneous=True) == 0.0

    def test_sin_nonhomogeneous(self, grid64):
        f = SpectralField.from_function(grid64, lambda x, y: np.sin(x))
        # |k| = 1 makes both contributions equal: sqrt(2) * sqrt(2 pi^2) = 2 pi
        assert sobolev_norm(f, 1.0, homogeneous=False) == pytest.approx(2 * np.pi, rel=1e-13)

    def test_inner_product_values(self, grid64):
        s = SpectralField.from_function(grid64, lambda x, y: np.sin(x))
        c = SpectralField.from_function(grid64, lambda x, y: np.cos(x))
        assert inner_product(s, s) == pytest.approx(TWO_PI_SQ, rel=1e-13)
        assert abs(inner_product(s, c)) < 1e-13
        assert inner_product(s, SpectralField.zero(grid64)) == 0.0

    def test_inner_product_grid_mismatch(self, grid64, grid32):
        f = band_limited_field(grid64, 1)
        g = band_limited_field(grid32, 1)
        with pytest.raises(SpectralError):
            inner_product(f, g)

    def test_parseval_matches_physical_quadrature(self, grid64):
        f = band_limited_field(grid64, 21)
        g = band_limited_field(grid64, 22)
        quad = float(np.sum(f.values() * g.values())) * grid64.cell_area
        ip = inner_product(f, g)
        assert ip == pytest.approx(quad, rel=1e-12, abs=1e-15)

    @given(c=st.floats(-1e3, 1e3), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_absolute_homogeneity(self, c, seed):
        grid = SpectralGrid(32, 2 * np.pi)
        f = band_limited_field(grid, seed)
        scaled = SpectralField(grid, c * f.coeffs)
        for s, hom in ((0.0, True), (1.5, True), (1.5, False)):
            assert sobolev_norm(scaled, s, hom) == pytest.approx(
                abs(c) * sobolev_norm(f, s, hom), rel=1e-12, abs=1e-12
            )

    def test_negative_order_rejected(self, grid64):
        with pytest.raises(SpectralError):
            sobolev_norm(band_limited_field(grid64, 0), -1.0)

    def test_lp_norm_of_a_gradient_is_the_hand_rolled_quadrature(self, grid64):
        # Bit for bit the hand-written quadrature: the root of the squared
        # oversampled components, summed in order, then the scalar path.
        rng = np.random.default_rng(17)
        gx, gy = gradient(SpectralField(grid64, random_coeffs(grid64, rng, lambda k: k**-2.0)))
        mag = np.sqrt(oversampled_values(gx) ** 2 + oversampled_values(gy) ** 2)
        p = 2.0 / (2.0 - rng.uniform(1.05, 1.95))
        h2 = (grid64.box_length / (2 * grid64.n)) ** 2
        assert lp_norm((gx, gy), p) == float((np.sum(mag**p) * h2) ** (1.0 / p))
        assert lp_norm((gx, gy), np.inf) == float(np.max(mag))


class TestModeProducts:
    @pytest.mark.parametrize("with_work", [False, True])
    @pytest.mark.parametrize("width", ["band", "full"])
    @pytest.mark.parametrize("same", [False, True], ids=["a-b", "a-a"])
    def test_each_row_is_re_a_conj_b(self, grid32, same, width, with_work):
        # The band stacks are column slices of full-width ones, as a record reads them.
        rng = np.random.default_rng(5)
        a, b = (rng.standard_normal((5,) + grid32.shape_spec) + 1j * rng.standard_normal((5,) + grid32.shape_spec)
                for _ in range(2))
        if width == "band":
            a, b = a[..., : grid32.band], b[..., : grid32.band]
        if same:
            b = a
        work = np.full(2 * a.size + 1, np.nan) if with_work else None
        products = mode_products(a, b, work)
        assert products.shape == a.shape
        if with_work:
            assert np.shares_memory(products, work)
        for row in range(5):
            np.testing.assert_allclose(products[row], (a[row] * np.conj(b[row])).real, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_norms_of_the_band_columns_are_the_full_width_ones(self, n):
        # A state holds its band columns and its component fields the half
        # spectrum: the state's Parseval sums over the band (Spectra) are the
        # norms of its fields over the half spectrum, to rounding.
        grid = SpectralGrid(n, 2 * np.pi)
        state = make_random_state(grid, seed=n, amplitude=0.5)
        spectra = Spectra(state)
        theta = state.theta
        for s in (0.0, 1.5):
            assert sobolev_norm(theta, s, homogeneous=True) ** 2 == pytest.approx(spectra.hom_sq("theta", s), rel=1e-14)
            assert sobolev_norm(theta, s) ** 2 == pytest.approx(spectra.hs_sq("theta", s), rel=1e-14)
        fields = (*state.u, *state.v, theta)
        assert sum(inner_product(f, f) for f in fields) == pytest.approx(2.0 * spectra.energy(), rel=1e-14)
        # A field has one layout, the half spectrum: band-width coefficients are
        # refused when the field is made.
        with pytest.raises(SpectralError, match=rf"\({n}, {n // 2 + 1}\), got \({n}, {grid.band}\)"):
            SpectralField(grid, state.coeffs[4])


def full_spectrum_draw(grid, rng, amplitude, band_cut):
    """random_coeffs as the whole half spectrum computes it: every mode drawn, then masked to the box."""
    n = grid.n
    c = (rng.standard_normal(grid.shape_spec) + 1j * rng.standard_normal(grid.shape_spec)) / np.sqrt(2.0)
    kmag = grid.kmag.copy()
    kmag[0, 0] = 1.0
    c *= amplitude(kmag)
    jx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    jy = np.arange(n // 2 + 1)[None, :]
    c *= (np.abs(jx) <= band_cut) & (jy <= band_cut)
    c[0, 0] = 0.0
    for j in (0, n // 2):
        col = c[:, j].copy()
        c[:, j] = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    return c


class TestRandomFields:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    @pytest.mark.parametrize("cut", ["default", "dealias"])
    def test_a_narrow_draw_is_the_full_draws_first_columns(self, n, cut):
        # The same two standard-normal draws at every width: the narrow draw is
        # the full one's first columns and leaves the generator where the full
        # one does.  Both equal the whole-spectrum computation.
        grid = SpectralGrid(n, 2 * np.pi)
        band_cut = (n - 1) // 6 if cut == "default" else (n - 1) // 3
        kwargs = {} if cut == "default" else {"band_cut": band_cut}
        amp = lambda k: k**-1.5 * np.exp(-((k / 3.0) ** 2))  # noqa: E731
        full_rng, narrow_rng, ref_rng = (np.random.default_rng(n) for _ in range(3))
        for width in (band_cut + 1, grid.band, n // 2 + 1):
            full = random_coeffs(grid, full_rng, amp, **kwargs)
            narrow = random_coeffs(grid, narrow_rng, amp, width=width, **kwargs)
            assert full.shape == grid.shape_spec and narrow.shape == (n, width)
            np.testing.assert_array_equal(narrow, full[:, :width])
            np.testing.assert_array_equal(full, full_spectrum_draw(grid, ref_rng, amp, band_cut))

    @pytest.mark.parametrize("kwargs", [{"width": 4}, {"band_cut": 16}, {"band_cut": -1}, {"width": 18}, {"band_cut": 0}])
    def test_rejects_a_box_past_the_width_or_the_nyquist_index(self, kwargs):
        # n = 32: the default band_cut is 5, so width 4 cannot hold the box.
        grid = SpectralGrid(32, 2 * np.pi)
        with pytest.raises(ValueError):
            random_coeffs(grid, np.random.default_rng(0), lambda k: k**-1.0, **kwargs)

    def test_min_draw_grid_is_the_smallest_with_a_default_draw(self):
        # Below it the default band_cut, ((n - 1) // 3) // 2, is 0: a box of the mean alone.
        amp = lambda k: k**-1.0  # noqa: E731
        with pytest.raises(ValueError, match="band_cut"):
            random_coeffs(SpectralGrid(MIN_DRAW_GRID - 2, 2 * np.pi), np.random.default_rng(0), amp)
        assert np.any(random_coeffs(SpectralGrid(MIN_DRAW_GRID, 2 * np.pi), np.random.default_rng(0), amp))

    def test_real_and_mean_free(self, grid64):
        f = band_limited_field(grid64, 9)
        assert f.coeffs[0, 0] == 0.0
        vals = f.values()
        back = SpectralField.from_phys(grid64, vals)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-14 * np.max(np.abs(f.coeffs))

    def test_deterministic(self, grid64):
        a = random_coeffs(grid64, np.random.default_rng(5), lambda k: k**-2.0)
        b = random_coeffs(grid64, np.random.default_rng(5), lambda k: k**-2.0)
        np.testing.assert_array_equal(a, b)

    def test_oversampling_exact_for_trig(self, grid64):
        f = SpectralField.from_function(grid64, lambda x, y: np.sin(x) + np.cos(2 * y))
        vals = oversampled_values(f)
        m = 2 * grid64.n
        xb = np.arange(m) * (grid64.box_length / m)
        xx, yy = np.meshgrid(xb, xb, indexing="ij")
        assert np.max(np.abs(vals - (np.sin(xx) + np.cos(2 * yy)))) < 1e-12
