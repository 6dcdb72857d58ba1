"""Haar-random pure product states across a bipartition.

A randomized cross-check of the biseparable bound that `verify biseparable`
proves: the witnesses' expectations on these states must never go negative.
"""

import numpy as np


def biseparable_statevectors(
    n: int, bipartition, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of Haar-random pure product states across one bipartition.

    Each side is an independent normalized complex-Gaussian vector; rows of the
    returned (count, 2^n) array are unit statevectors in qubit order.
    """
    side_a = tuple(sorted(set(int(q) for q in bipartition)))
    if any(q < 0 or q >= n for q in side_a):
        raise ValueError(f"bipartition {bipartition} outside 0..{n - 1}")
    if not 0 < len(side_a) < n:
        raise ValueError("bipartition must be a nonempty proper subset of the qubits")
    side_b = tuple(q for q in range(n) if q not in side_a)

    def haar(dim: int) -> np.ndarray:
        # Real parts drawn first, then imaginary parts, straight into place.
        vecs = np.empty((count, dim), dtype=complex)
        vecs.real = rng.standard_normal((count, dim))
        vecs.imag = rng.standard_normal((count, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return vecs

    amp_a = haar(1 << len(side_a))
    amp_b = haar(1 << len(side_b))
    joint = np.einsum("bi,bj->bij", amp_a, amp_b).reshape(count, *([2] * n))
    order = np.argsort(np.array(side_a + side_b))
    return joint.transpose(0, *(1 + order)).reshape(count, 1 << n)
