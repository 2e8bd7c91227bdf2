"""Shared oracle helpers for the test suite.

The direct-summation transforms below are deliberately naive (O(N**2d))
re-implementations used to cross-check the FFT paths at small sizes;
`spy_fftn` records what reaches the library's one transform call site.
"""

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


def spy_fftn(monkeypatch, record=lambda x: x.dtype, names=("fftn",)) -> list:
    """Record ``record(x)``, by default the dtype, of every array handed to the `scipy.fft` ``names``."""
    import scipy.fft

    seen = []
    for name in names:
        def spy(x, *args, _transform=getattr(scipy.fft, name), **kwargs):
            seen.append(record(x))
            return _transform(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
