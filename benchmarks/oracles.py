"""Reference values the benchmark checks qhyper's outputs against.

Plain NumPy written from the defining formulas; nothing here calls
qhyper, so a defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import numpy as np


def unfold(data: np.ndarray, k: int) -> np.ndarray:
    """Mode-k unfolding (column order is irrelevant for singular values)."""
    return np.moveaxis(data, k - 1, 0).reshape(data.shape[k - 1], -1)


def mode_svals(data: np.ndarray) -> np.ndarray:
    """Descending singular values of every mode unfolding, shape (N, 2)."""
    return np.array(
        [np.linalg.svd(unfold(data, k), compute_uv=False) for k in range(1, data.ndim + 1)]
    )


def parity_signs(num_qubits: int) -> np.ndarray:
    """+1 where the basis index has an even number of ones, else -1.

    Built as a Kronecker power of [1, -1], independent of popcounts.
    """
    signs = np.ones(1, dtype=np.int8)
    step = np.array([1, -1], dtype=np.int8)
    for _ in range(num_qubits):
        signs = np.kron(signs, step)
    return signs


def pairing(amplitudes: np.ndarray) -> complex:
    """Antidiagonal pairing sum_j chi(j) a_j a_{~j}; hdet is half of it."""
    signs = parity_signs(int(amplitudes.size).bit_length() - 1)
    return complex(np.sum(signs * amplitudes * amplitudes[::-1]))


def tangle(amplitudes: np.ndarray) -> float:
    """n-tangle |sum_j chi(j) a_j a_{~j}|^2 of a 2n-qubit state."""
    return abs(pairing(amplitudes)) ** 2


def apply_factors(factors, core: np.ndarray) -> np.ndarray:
    """(V_1, ..., V_N) * core by one tensordot per mode."""
    out = core
    for k, V in enumerate(factors):
        out = np.moveaxis(np.tensordot(V, out, axes=(1, k)), 0, k)
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two complex128 arrays."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
