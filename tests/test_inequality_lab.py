"""Tests for the inequality property-lab.

Closed-form single-mode values are frozen from analytic quadrature:
int sin^4 x over the box is 3 pi^2 / 2, so ||sin x||_{L^4} = (3 pi^2 / 2)^(1/4).
"""

import math

import numpy as np
import pytest

from tcm2d.inequality_lab import (
    check_composition,
    check_gn,
    check_interpolation,
    check_kato_ponce,
    commutator_norm,
    random_test_field,
)
from tcm2d.spectral import SpectralField, SpectralGrid, lp_norm, sobolev_norm


@pytest.fixture(scope="module")
def grids():
    return [SpectralGrid(64, 2 * np.pi), SpectralGrid(128, 2 * np.pi)]


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


class TestGagliardoNirenberg:
    def test_single_mode_closed_form(self, grids):
        g = grids[0]
        f = SpectralField.from_function(g, lambda x, y: np.sin(x))
        ratio = lp_norm(f, 4.0) / sobolev_norm(f, 0.5, homogeneous=True)
        # |k| = 1 mode: Lambda^(1/2) acts as the identity, denominator pi sqrt(2)
        expected = (1.5 * np.pi**2) ** 0.25 / (np.pi * math.sqrt(2.0))
        assert ratio == pytest.approx(expected, rel=1e-10)
        assert np.isfinite(ratio) and ratio > 0

    def test_stable_across_resolutions(self, grids, rng):
        report = check_gn(40, grids, rng)
        assert report.stable
        assert report.worst_ratio >= report.median_ratio >= 0

    def test_scaling_invariance(self, grids):
        g = grids[0]
        f = random_test_field(g, np.random.default_rng(5))
        scaled = SpectralField(g, 7.5 * f.coeffs)
        r1 = lp_norm(f, 4.0) / sobolev_norm(f, 0.5, True)
        r2 = lp_norm(scaled, 4.0) / sobolev_norm(scaled, 0.5, True)
        assert r2 == pytest.approx(r1, rel=1e-12)


class TestInterpolation:
    def test_single_mode_equality(self, grids):
        g = grids[0]
        f = SpectralField.from_function(g, lambda x, y: np.sin(2 * x))
        n0 = sobolev_norm(f, 0.0, True)
        n1 = sobolev_norm(f, 1.0, True)
        n2 = sobolev_norm(f, 2.0, True)
        assert n1 == pytest.approx(math.sqrt(n0 * n2), rel=1e-13)

    def test_exact_constant_one(self, grids, rng):
        exact, linf = check_interpolation(60, grids, rng)
        assert exact.worst_ratio <= 1.0 + 1e-12
        assert linf.stable

    def test_two_mode_strict_inequality(self, grids):
        g = grids[0]
        f = SpectralField.from_function(g, lambda x, y: np.sin(x) + 0.5 * np.sin(7 * y))
        ratio = sobolev_norm(f, 1.0, True) / math.sqrt(
            sobolev_norm(f, 0.0, True) * sobolev_norm(f, 2.0, True)
        )
        assert ratio < 0.999

    def test_index_ordering_enforced(self, grids, rng):
        with pytest.raises(ValueError):
            check_interpolation(1, grids, rng, s1=1.0, s=0.5, s2=2.0)


class TestKatoPonce:
    def test_constant_f_vanishes(self, grids):
        g = grids[0]
        const = SpectralField.from_function(g, lambda x, y: np.full_like(x, 2.0))
        other = random_test_field(g, np.random.default_rng(8))
        for s in (0.5, 1.5, 2.5):
            lhs = commutator_norm(const, other, s)
            scale = 2.0 * sobolev_norm(other, s, True)
            assert lhs <= 1e-13 * scale

    def test_zero_g(self, grids):
        g = grids[0]
        f = random_test_field(g, np.random.default_rng(9))
        assert commutator_norm(f, SpectralField.zero(g), 1.5) == 0.0

    def test_random_pairs_stable(self, grids, rng):
        report = check_kato_ponce(40, grids, rng, s=1.5)
        assert report.stable
        assert report.worst_ratio > 0

    def test_bilinear_scaling(self, grids):
        g = grids[0]
        f = random_test_field(g, np.random.default_rng(10))
        h = random_test_field(g, np.random.default_rng(11))
        assert commutator_norm(SpectralField(g, 3.0 * f.coeffs), h, 1.5) == pytest.approx(
            3.0 * commutator_norm(f, h, 1.5), rel=1e-12
        )


class TestComposition:
    def test_linear_law_ratio_bounded_by_slope(self, grids, rng):
        c = 0.25
        report = check_composition(30, grids[:1], rng, s=1.5, law=lambda th: 1.0 + c * th)
        assert report.worst_ratio <= c * (1 + 1e-12)

    def test_quadratic_law_stable(self, grids, rng):
        report = check_composition(40, grids, rng, s=1.5, law="quadratic")
        assert report.stable
        assert report.worst_ratio > 0

    def test_rejects_s_below_one(self, grids, rng):
        with pytest.raises(ValueError):
            check_composition(1, grids, rng, s=0.5)


class TestReport:
    def test_json_roundtrip(self, grids, rng):
        report = check_gn(5, grids[:1], rng)
        import json

        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["name"] == "gagliardo-nirenberg"
        assert doc["trials"] == 5
        assert doc["worst_ratio"] >= doc["median_ratio"]

    def test_trials_validated(self, grids, rng):
        for check in (check_gn, check_interpolation, check_kato_ponce, check_composition):
            with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
                check(0, grids, rng)

    @pytest.mark.parametrize("check", [check_gn, check_interpolation, check_kato_ponce, check_composition])
    def test_a_grid_too_small_to_draw_on_raises(self, check, rng):
        # n = 6: the draw's band holds the mean alone, so random_coeffs refuses it.
        with pytest.raises(ValueError, match="band_cut"):
            check(1, [SpectralGrid(6, 2 * np.pi)], rng)
