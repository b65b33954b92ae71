"""Star rendering, brightness moments, and ellipticity recovery."""

import re

import numpy as np
import pytest

from cvfbm import (
    MomentTensor,
    RadialProfile,
    brightness_moments,
    ellipticity_from_moments,
    psf_radius,
    render_star,
    shear_coords,
)


class TestShearCoords:
    def test_identity_shear(self):
        assert shear_coords(0.0, 0.0, 3.0, 4.0) == (3.0, 4.0)

    def test_e1_stretch(self):
        xp, yp = shear_coords(0.1, 0.0, 1.0, 1.0)
        assert xp == pytest.approx(0.9)
        assert yp == pytest.approx(1.1)

    def test_e2_cross_term(self):
        xp, yp = shear_coords(0.0, 0.2, 1.0, 0.0)
        assert xp == pytest.approx(1.0)
        assert yp == pytest.approx(-0.2)


class TestRenderStar:
    def test_circular_star_rotation_symmetric(self):
        img = render_star(RadialProfile("gaussian"), 0.0, 0.0, 33)
        assert np.max(np.abs(img - np.rot90(img))) < 1e-12

    def test_unit_flux(self):
        for kind in ("gaussian", "moffat"):
            img = render_star(RadialProfile(kind), 0.05, -0.02, 33)
            assert img.sum() == pytest.approx(1.0, abs=1e-9)
        # these two are all the kinds: an Airy profile would need scipy
        with pytest.raises(ValueError, match="^unknown profile kind 'airy'$"):
            RadialProfile("airy")

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            render_star(RadialProfile("gaussian"), 0.0, 0.0, 32)

    def test_extreme_ellipticity_rejected(self):
        with pytest.raises(ValueError):
            render_star(RadialProfile("gaussian"), 0.8, 0.7, 33)

    def test_intensities_non_negative(self):
        for kind in ("gaussian", "moffat"):
            img = render_star(RadialProfile(kind), 0.1, 0.1, 21)
            assert np.all(img >= 0)

    @pytest.mark.parametrize("name", ["e1", "e2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_rejected(self, name, value):
        # a NaN would otherwise render an all-NaN image
        args = dict(e1=0.1, e2=-0.1)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            render_star(RadialProfile("gaussian"), size=21, **args)

    @pytest.mark.parametrize("name", ["e1", "e2"])
    @pytest.mark.parametrize("value", ["0.1", True])
    def test_non_number_ellipticity_rejected(self, name, value):
        args = dict(e1=0.0, e2=0.0)
        args[name] = value
        with pytest.raises(ValueError, match=f"^bad {name} value"):
            render_star(RadialProfile("gaussian"), size=9, **args)

    @pytest.mark.parametrize("size", [2.5, 9.0, True])
    def test_non_integer_size_rejected(self, size):
        # 2.5 would pass the odd-size check and render a 3x3 image
        with pytest.raises(ValueError, match="^bad size value"):
            render_star(RadialProfile("gaussian"), 0.0, 0.0, size)

    @pytest.mark.parametrize("size", [-3, -1])
    def test_negative_size_rejected(self, size):
        with pytest.raises(ValueError, match="size must be odd and positive"):
            render_star(RadialProfile("gaussian"), 0.0, 0.0, size)


class TestRadialProfile:
    @pytest.mark.parametrize("kind", ["gaussian", "moffat"])
    @pytest.mark.parametrize("name", ["scale", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_rejected(self, kind, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            RadialProfile(kind, **{name: value})

    @pytest.mark.parametrize("name", ["scale", "beta"])
    @pytest.mark.parametrize("value", [True, "3"])
    def test_non_number_parameter_rejected(self, name, value):
        # True would build a profile of scale 1
        with pytest.raises(ValueError, match=f"^bad {name} value"):
            RadialProfile(**{name: value})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"scale": 0.0}, "scale must be positive"),
            ({"kind": "moffat", "beta": 1.0}, "moffat beta must exceed 1"),
        ],
        ids=["scale", "moffat-beta"],
    )
    def test_out_of_range_parameter_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RadialProfile(**kwargs)

    def test_numpy_parameters_stored_as_floats(self):
        profile = RadialProfile("moffat", scale=np.float32(2.5), beta=np.int64(3))
        assert (profile.scale, profile.beta) == (2.5, 3.0)
        assert type(profile.scale) is float and type(profile.beta) is float


class TestBrightnessMoments:
    def test_circular_gaussian_isotropic(self):
        img = render_star(RadialProfile("gaussian"), 0.0, 0.0, 33)
        q = brightness_moments(img)
        assert q.q11 == pytest.approx(q.q22, rel=1e-10)
        assert abs(q.q12) < 1e-10 * q.q11

    def test_two_pixel_dumbbell(self):
        img = np.zeros((3, 3))
        img[1, 0] = 1.0
        img[1, 2] = 1.0
        q = brightness_moments(img)
        assert q.q11 == pytest.approx(1.0)
        assert q.q22 == pytest.approx(0.0, abs=1e-15)
        assert q.q12 == pytest.approx(0.0, abs=1e-15)

    def test_intensity_scale_invariant(self):
        img = render_star(RadialProfile("moffat"), 0.1, -0.05, 21)
        q1 = brightness_moments(img)
        q2 = brightness_moments(img * 7.0)
        assert q1.q11 == pytest.approx(q2.q11, rel=1e-12)
        assert q1.q12 == pytest.approx(q2.q12, rel=1e-12)
        assert q1.q22 == pytest.approx(q2.q22, rel=1e-12)

    def test_zero_flux_rejected(self):
        with pytest.raises(ValueError):
            brightness_moments(np.zeros((5, 5)))

    def test_image_of_another_rank_rejected(self):
        with pytest.raises(ValueError, match="^image must be 2D$"):
            brightness_moments(np.ones(3))

    def test_negative_intensity_rejected(self):
        img = np.ones((5, 5))
        img[2, 2] = -1.0
        with pytest.raises(ValueError):
            brightness_moments(img)


def _loop_moments(img):
    """Reference: the centroid fixed-point loop of weighted moments, at unit weight.

    The loop re-centres until the centroid moves by less than 1e-8 pixel; at
    unit weight its first round already finds a shift of 0.
    """
    img = np.asarray(img, dtype=float)
    rows, cols = np.mgrid[0 : img.shape[0], 0 : img.shape[1]]
    x = cols.astype(float)
    y = rows.astype(float)
    xc = (img * x).sum() / img.sum()
    yc = (img * y).sum() / img.sum()
    for _ in range(50):
        wi = 1.0 * img
        s = wi.sum()
        xn = (wi * x).sum() / s
        yn = (wi * y).sum() / s
        shift = np.hypot(xn - xc, yn - yc)
        xc, yc = xn, yn
        if shift < 1e-8:
            break
    else:
        raise RuntimeError("centroid iteration did not converge")
    dx = x - xc
    dy = y - yc
    return (wi * dx * dx).sum() / s, (wi * dx * dy).sum() / s, (wi * dy * dy).sum() / s


def _random_images():
    rng = np.random.default_rng(25)
    for shape in [(1, 1), (1, 9), (8, 1), (9, 9), (16, 11), (33, 33)]:
        yield rng.uniform(size=shape)
    for shape in [(12, 12), (7, 15)]:
        img = rng.uniform(size=shape)
        img[0] = 0.0
        img[3] = 0.0
        img[:, -1] = 0.0
        img[:, 4] = 0.0
        yield img
        sparse = rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.2)
        sparse[1, 2] = 3.0
        yield sparse
    yield rng.exponential(1e6, size=(10, 13))
    yield rng.uniform(size=(10, 13)) * 1e-12


class TestMomentsMatchReferenceLoop:
    @pytest.mark.parametrize("kind", ["gaussian", "moffat"])
    @pytest.mark.parametrize("e1,e2", [(0.0, 0.0), (0.2, -0.1), (-0.35, 0.05), (0.1, 0.4)])
    @pytest.mark.parametrize("size", [9, 33])
    def test_rendered_stars(self, kind, e1, e2, size):
        img = render_star(RadialProfile(kind), e1, e2, size)
        q = brightness_moments(img)
        assert (q.q11, q.q12, q.q22) == _loop_moments(img)

    def test_random_images(self):
        for img in _random_images():
            q = brightness_moments(img)
            assert (q.q11, q.q12, q.q22) == _loop_moments(img), img.shape


class TestEllipticityFromMoments:
    def test_circular_source_zero(self):
        q = MomentTensor(q11=1.5, q12=0.0, q22=1.5)
        assert ellipticity_from_moments(q, form="squared") == 0
        assert ellipticity_from_moments(q, form="standard") == 0

    def test_squared_form_value(self):
        q = MomentTensor(q11=2.0, q12=0.0, q22=1.0)
        e = ellipticity_from_moments(q, form="squared")
        assert e.real == pytest.approx(3.0 / (5.0 + 2.0 * np.sqrt(2.0)), rel=1e-12)
        assert e.imag == 0.0

    def test_standard_form_value(self):
        q = MomentTensor(q11=2.0, q12=0.0, q22=1.0)
        e = ellipticity_from_moments(q, form="standard")
        assert e.real == pytest.approx(1.0 / (3.0 + 2.0 * np.sqrt(2.0)), rel=1e-12)
        assert e.imag == 0.0

    @pytest.mark.parametrize("form", ["squared", "standard"])
    def test_one_pixel_star_rejected(self, form):
        # all its moments are 0, so both denominators are 0
        img = np.zeros((3, 3))
        img[1, 1] = 1.0
        with pytest.raises(ValueError, match="^non-positive moment denominator$"):
            ellipticity_from_moments(brightness_moments(img), form=form)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            ellipticity_from_moments(MomentTensor(1.0, 0.0, 1.0), form="other")

    @pytest.mark.parametrize("form", ["squared", "standard"])
    def test_discriminant_within_tolerance_counts_as_zero(self, form):
        # q11*q22 - q12^2 = -2e-12: rounding of a singular tensor, which the
        # tensor itself accepts, so its ellipticity is that of disc = 0
        q = MomentTensor(1.0, 1.0 + 1e-12, 1.0)
        assert ellipticity_from_moments(q, form=form) == 1j * (1.0 + 1e-12)

    def test_discriminant_beyond_tolerance_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            MomentTensor(1.0, 1.0 + 1e-9, 1.0)


class TestPsfRadius:
    def test_simple_sum(self):
        assert psf_radius(MomentTensor(2.0, 0.0, 2.0)) == pytest.approx(2.0)

    def test_degenerate_zero(self):
        assert psf_radius(MomentTensor(0.0, 0.0, 0.0)) == 0.0

    def test_off_diagonal_irrelevant(self):
        assert psf_radius(MomentTensor(1.0, 0.5, 3.0)) == pytest.approx(2.0)


class TestMomentTensor:
    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            MomentTensor(q11=1.0, q12=2.0, q22=1.0)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValueError):
            MomentTensor(q11=-1.0, q12=0.0, q22=1.0)

    @pytest.mark.parametrize("name", ["q11", "q12", "q22"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_moment_rejected(self, name, value):
        # a NaN fails no comparison, so it would pass the sign and
        # discriminant checks and give a NaN ellipticity
        args = dict(q11=2.0, q12=0.5, q22=1.0)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            MomentTensor(**args)

    @pytest.mark.parametrize("name", ["q11", "q12", "q22"])
    @pytest.mark.parametrize("value", ["1", True, None])
    def test_non_number_moment_rejected(self, name, value):
        # a string failed in numpy with a TypeError that named no moment
        args = dict(q11=2.0, q12=0.5, q22=1.0)
        args[name] = value
        with pytest.raises(ValueError, match=f"^bad {name} value {re.escape(repr(value))}: expected a number$"):
            MomentTensor(**args)

    def test_numpy_moments_stored_as_floats(self):
        q = brightness_moments(render_star(RadialProfile("gaussian"), 0.2, -0.1, 9))
        assert {type(v) for v in (q.q11, q.q12, q.q22)} == {float}

    def test_ellipticity_keeps_numpy_rounding(self):
        # the moments were numpy floats when these digits were fixed, so the
        # division is numpy's (num times 1/den); Python's complex division
        # rounds both parts' last bit the other way here
        q = brightness_moments(render_star(RadialProfile("gaussian"), 0.2, -0.1, 9))
        assert ellipticity_from_moments(q) == complex(0.1961271900111237, -0.017869123054784213)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "e1,e2",
        [(0.1, 0.05), (0.3, 0.0), (0.0, -0.3), (-0.2, -0.2), (0.15, -0.25)],
    )
    def test_gaussian_ellipticity_recovered(self, e1, e2):
        img = render_star(RadialProfile("gaussian"), e1, e2, 33)
        e = ellipticity_from_moments(brightness_moments(img), form="standard")
        assert e.real == pytest.approx(e1, abs=0.005)
        assert e.imag == pytest.approx(e2, abs=0.005)

    def test_rotation_flips_ellipticity_sign(self):
        img = render_star(RadialProfile("gaussian"), 0.12, -0.07, 33)
        e = ellipticity_from_moments(brightness_moments(img), form="standard")
        e_rot = ellipticity_from_moments(brightness_moments(np.rot90(img)), form="standard")
        assert e_rot.real == pytest.approx(-e.real, abs=0.002)
        assert e_rot.imag == pytest.approx(-e.imag, abs=0.002)

    def test_rotation_flips_squared_form_too(self):
        img = render_star(RadialProfile("gaussian"), 0.1, 0.06, 33)
        e = ellipticity_from_moments(brightness_moments(img), form="squared")
        e_rot = ellipticity_from_moments(brightness_moments(np.rot90(img)), form="squared")
        assert e_rot.real == pytest.approx(-e.real, abs=0.002)
        assert e_rot.imag == pytest.approx(-e.imag, abs=0.002)

    def test_moments_psd_for_any_nonnegative_image(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            img = rng.uniform(size=(9, 9))
            q = brightness_moments(img)
            assert q.q11 * q.q22 - q.q12**2 >= -1e-12
