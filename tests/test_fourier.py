"""Transform correctness: naive-DFT equivalence and the self-adjoint property
of the real mixers."""

import numpy as np

from helpers import naive_dft2_real, naive_idft2_real, numeric_grad, rel_err
from tfps import autodiff as ad
from tfps import fourier


class TestTwoDimensionalMixers:
    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(fourier.fft2_real(x), naive_dft2_real(x), atol=1e-6)
        np.testing.assert_allclose(fourier.ifft2_real(x), naive_idft2_real(x), atol=1e-6)

    def test_matches_naive_on_every_small_axis_length(self):
        # odd and non-power-of-two lengths on either axis (the patch axis is 12)
        rng = np.random.default_rng(0)
        for n in range(1, 17):
            for shape in ((n, 3), (3, n)):
                x = rng.normal(size=shape)
                np.testing.assert_allclose(fourier.fft2_real(x), naive_dft2_real(x), atol=1e-6)
                np.testing.assert_allclose(fourier.ifft2_real(x), naive_idft2_real(x), atol=1e-6)

    def test_zero_input_zero_output(self):
        z = np.zeros((5, 6))
        np.testing.assert_array_equal(fourier.fft2_real(z), z)
        np.testing.assert_array_equal(fourier.ifft2_real(z), z)

    def test_one_by_one_identity(self):
        x = np.array([[[3.25]]])
        np.testing.assert_allclose(fourier.fft2_real(x), x)

    def test_mixer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        p = ad.parameter(rng.normal(size=(3, 4)))
        probe = rng.normal(size=(3, 4))

        for op, ref in ((fourier.fourier_mix, fourier.fft2_real),
                        (fourier.inverse_fourier_mix, fourier.ifft2_real)):
            grads = (op(p) * probe).sum().backward()
            num = numeric_grad(lambda: float(np.sum(ref(p.data) * probe)), p.data)
            assert rel_err(grads[p.node], num) < 1e-6


class TestSpectrum:
    def test_constant_signal_is_dc_only(self):
        c, n = 2.5, 16
        spec = fourier.amplitude_spectrum(np.full(n, c))
        assert abs(spec[0] - c * n) < 1e-9
        np.testing.assert_allclose(spec[1:], 0.0, atol=1e-9)

    def test_unit_cosine_peaks_at_half_n(self):
        n, k = 32, 5
        x = np.cos(2 * np.pi * k * np.arange(n) / n)
        spec = fourier.amplitude_spectrum(x)
        assert abs(spec[k] - n / 2) < 1e-9
        others = np.delete(spec, k)
        np.testing.assert_allclose(others, 0.0, atol=1e-9)

    def test_zero_signal(self):
        np.testing.assert_array_equal(fourier.amplitude_spectrum(np.zeros(9)), np.zeros(5))
