"""Discrete Fourier transforms for the frequency branch and the drift analyzer,
all computed with `np.fft`. Sign convention: forward uses exp(-2*pi*i*jk/n),
inverse divides by n.

The two tape ops at the bottom exploit that for a *real* input x and the
symmetric transform matrix F, d Re(Fx)/dx = Re(F); the adjoint of each mixer
is therefore the mixer itself applied to the incoming gradient.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, accumulate, as_tensor, make_op


def fft2_real(x: np.ndarray) -> np.ndarray:
    """Real part of the 2-D DFT over the last two (patch, hidden) axes."""
    return np.fft.fft2(x).real


def ifft2_real(x: np.ndarray) -> np.ndarray:
    """Real part of the inverse 2-D DFT over the last two axes. For real x the
    inverse transform is conj(fft2(x)) / (n*d), so its real part is the
    forward mixer scaled by 1/(n*d)."""
    return fft2_real(x) / (x.shape[-2] * x.shape[-1])


def amplitude_spectrum(x: np.ndarray) -> np.ndarray:
    """One-sided magnitude spectrum of a real signal along the last axis;
    output length is n//2 + 1 (unnormalized, so a constant c maps to c*n at
    the zero bin)."""
    return np.abs(np.fft.rfft(np.asarray(x, dtype=np.float64)))


# -- tape ops ------------------------------------------------------------------


def fourier_mix(t: Tensor | np.ndarray) -> Tensor:
    """Parameter-free token mixer: Re(DFT_patch(DFT_hidden(x)))."""
    t = as_tensor(t)
    node = t.node

    def backward(g):
        accumulate(node, fft2_real(g))

    return make_op(fft2_real(t.data), (t,), backward)


def inverse_fourier_mix(t: Tensor | np.ndarray) -> Tensor:
    """Real part of the inverse 2-D DFT; adjoint is itself on real gradients."""
    t = as_tensor(t)
    node = t.node

    def backward(g):
        accumulate(node, ifft2_real(g))

    return make_op(ifft2_real(t.data), (t,), backward)
