"""The test-side Haar sampler of biseparable product states."""

import numpy as np
import pytest
from biseparable_sampling import biseparable_statevectors

from seqgme.densesim import validate_density_matrix


def test_sample_biseparable_is_seeded_product_state():
    def sample(seed):
        psi = biseparable_statevectors(4, (0, 2), 1, np.random.default_rng(seed))[0]
        return np.outer(psi, psi.conj())

    rho = sample(42)
    np.testing.assert_allclose(rho, sample(42), atol=0)
    validate_density_matrix(rho)
    # Pure product state across {0,2}|{1,3}: rank-1 reshuffled amplitude matrix.
    vals, vecs = np.linalg.eigh(rho)
    psi = vecs[:, -1]
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    block = psi.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    singular = np.linalg.svd(block, compute_uv=False)
    assert singular[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(singular[1:] < 1e-12)


def test_sample_biseparable_rejects_trivial_split():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        biseparable_statevectors(3, (), 1, rng)
    with pytest.raises(ValueError):
        biseparable_statevectors(3, (0, 1, 2), 1, rng)


def test_biseparable_batch_shape_and_norm():
    rng = np.random.default_rng(7)
    batch = biseparable_statevectors(4, (0, 1), 50, rng)
    assert batch.shape == (50, 16)
    np.testing.assert_allclose(np.linalg.norm(batch, axis=1), np.ones(50), atol=1e-12)
