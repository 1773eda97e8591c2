import tracemalloc

import numpy as np
import pytest

from abscatter.gaugefield import (
    GaussianBump,
    GaussianScalar,
    ScalarMixture,
    VectorPotential,
)


@pytest.fixture
def generic_potential() -> VectorPotential:
    """Flux plus a swirl bump, a gradient piece, and a scalar potential."""
    return VectorPotential(
        alpha=0.8,
        bumps=(GaussianBump(center=(1.5, -0.5), strength=1.0, width=0.9),),
        grad_l=ScalarMixture((GaussianScalar(center=(0.0, 1.0), strength=0.6, width=1.1),)),
        v=ScalarMixture((GaussianScalar(center=(0.5, 0.5), strength=0.7, width=0.8),)),
        obstacle_radius=0.5,
    )


@pytest.fixture
def smooth_potential() -> VectorPotential:
    """Zero-flux member of the family (globally smooth fields)."""
    return VectorPotential(
        alpha=0.0,
        bumps=(GaussianBump(center=(1.0, 0.5), strength=1.3, width=0.8),),
        grad_l=ScalarMixture((GaussianScalar(center=(-0.5, 0.5), strength=0.4, width=1.0),)),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture
def alloc_peak():
    """Peak bytes that fn() allocates while tracemalloc watches (numpy included)."""
    def measure(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
