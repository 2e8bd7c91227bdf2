"""Shared oracle helpers for the test suite.

The direct-summation transforms below are deliberately naive (O(N**2d))
re-implementations used to cross-check the FFT paths at small sizes;
`spy_fft` and `spy_transforms` record what reaches `numpy.fft.fft`/`ifft`,
which the library's one transform call site runs once per axis, and
`one_d_lengths` counts the 1D transforms it runs.
"""

import math
from collections import Counter

import numpy as np
import pytest

from latticedirac import FrequencyGrid, LatticeField, Mesh, SpectralField


def dft_direct(f: LatticeField) -> np.ndarray:
    """Naive discrete transform of a step field on the dual grid."""
    mesh = f.mesh
    sites = mesh.site_coords().reshape(-1, mesh.d)
    vals = f.values.reshape(-1, f.channels)
    freqs = FrequencyGrid(mesh).coords().reshape(-1, mesh.d)
    out = (2 * np.pi) ** (-mesh.d / 2) * mesh.h**mesh.d * np.exp(-1j * (freqs @ sites.T)) @ vals
    return out.reshape(mesh.shape + (f.channels,))


def idft_direct(u: SpectralField) -> np.ndarray:
    """Naive inverse transform of a spectral field onto the sites."""
    mesh = u.grid.mesh
    sites = mesh.site_coords().reshape(-1, mesh.d)
    vals = u.values.reshape(-1, u.channels)
    freqs = FrequencyGrid(mesh).coords().reshape(-1, mesh.d)
    cell = u.grid.cell_volume
    out = (2 * np.pi) ** (-mesh.d / 2) * cell * np.exp(1j * (sites @ freqs.T)) @ vals
    return out.reshape(mesh.shape + (u.channels,))


def random_field(mesh: Mesh, channels: int, rng) -> LatticeField:
    shape = mesh.shape + (channels,)
    return LatticeField(mesh, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def spy_fft(monkeypatch, record=lambda x: x.dtype, names=("fft",)) -> list:
    """Record ``record(x)``, by default the dtype, of every array handed to the `numpy.fft` ``names``."""
    return _spy(monkeypatch, lambda x, axes: record(x), names)


def spy_transforms(monkeypatch, names=("fft", "ifft")) -> list:
    """Record ``(shape, (axis,))`` of every array handed to the `numpy.fft` ``names``, one 1D transform each."""
    return _spy(monkeypatch, lambda x, axes: (x.shape, axes), names)


def _spy(monkeypatch, record, names) -> list:
    seen = []
    for name in names:
        def spy(x, *args, _transform=getattr(np.fft, name), **kwargs):
            seen.append(record(x, (kwargs.get("axis", -1) % x.ndim,)))
            return _transform(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return seen


def one_d_lengths(transforms) -> Counter:
    """The number of 1D transforms of each length that the ``(shape, axes)`` of `spy_transforms` run."""
    counts = Counter()
    for shape, axes in transforms:
        for axis in axes:
            counts[shape[axis]] += math.prod(shape) // shape[axis]
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
