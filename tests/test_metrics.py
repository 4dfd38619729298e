import numpy as np
import pytest

from dcag import PSNR_CAP_DB, ShapeError, mse, psnr, ssim
from oracles import naive_ssim


def random_image(rng, shape=(16, 16)):
    return rng.random(shape)


class TestMse:
    def test_identical_images(self, rng):
        a = random_image(rng)
        assert mse(a, a) == 0.0

    def test_constant_offset_closed_form(self, rng):
        a = rng.random((16, 16)) * 0.85
        b = a + 0.1
        assert mse(a, b) == pytest.approx(0.01, rel=1e-15, abs=0)

    def test_symmetry_is_exact(self, rng):
        a, b = random_image(rng), random_image(rng)
        assert mse(a, b) == mse(b, a)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError, match="disagree"):
            mse(rng.random((4, 4)), rng.random((4, 5)))

    def test_range_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            mse(np.full((4, 4), 1.5), np.zeros((4, 4)))


@pytest.mark.parametrize("metric", [mse, psnr, ssim])
@pytest.mark.parametrize("shape", [(0, 0), (0, 16), (16, 0)])
def test_empty_image_is_a_shape_error(metric, shape):
    # refused before the pixel range check reduces over no pixels
    with pytest.raises(ShapeError, match="must have pixels"):
        metric(np.zeros(shape), np.zeros(shape))


class TestPsnr:
    def test_identical_images_hit_the_cap(self, rng):
        a = random_image(rng)
        assert psnr(a, a) == PSNR_CAP_DB

    def test_constant_offset_closed_form(self, rng):
        a = rng.random((16, 16)) * 0.85
        assert psnr(a, a + 0.1) == pytest.approx(20.0, rel=1e-15, abs=0)

    def test_cap_boundary_is_continuous(self):
        # an mse of exactly 1e-10 computes to the cap value
        assert float(-10.0 * np.log10(1e-10)) == PSNR_CAP_DB

    def test_monotone_in_error(self, rng):
        a = rng.random((16, 16)) * 0.5
        assert psnr(a, a + 0.05) > psnr(a, a + 0.2)


class TestSsim:
    def test_identical_images_give_exactly_one(self, rng):
        a = random_image(rng, (13, 17))
        assert ssim(a, a) == 1.0

    def test_negated_image_scores_below_one(self, rng):
        a = 0.25 + 0.5 * rng.random((16, 16))
        assert ssim(a, 1.0 - a) < 1.0

    def test_in_unit_interval_bounds(self, rng):
        a, b = random_image(rng), random_image(rng)
        value = ssim(a, b)
        assert -1.0 <= value <= 1.0

    def test_matches_direct_convolution_reference(self, rng):
        for shape in ((11, 11), (16, 12), (24, 24)):
            a, b = rng.random(shape), rng.random(shape)
            assert ssim(a, b) == pytest.approx(naive_ssim(a, b), abs=1e-8)

    def test_symmetry(self, rng):
        a, b = random_image(rng), random_image(rng)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-15)

    def test_window_size_enforced(self, rng):
        small = rng.random((8, 8))
        with pytest.raises(ShapeError, match="pixels per side"):
            ssim(small, small)
